"""Constructors and parameter sweeps producing Distribution values.

Covers the standard shapes the indicator suite is exercised on: explicit
probability vectors, tallied counts, uniform and one-sure-outcome vectors,
and the binomial family B(n, p) swept over a probability grid.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import repeat
from operator import add, mul

from .errors import (
    AllZeroCounts,
    EmptyInput,
    IndexOutOfRange,
    ParameterOutOfRange,
    ZeroSize,
)
from .indicators import Distribution, analyze

__all__ = [
    "SweepPoint",
    "from_probabilities",
    "from_counts",
    "uniform",
    "degenerate",
    "binomial",
    "sweep_binomial",
]


class SweepPoint(namedtuple("SweepPoint", "n p report")):
    """One binomial grid cell: trial count n, success probability p, full report."""

    __slots__ = ()


def from_probabilities(
    values: Iterable[float], labels: Sequence[str] | None = None
) -> Distribution:
    """Build a validated Distribution from explicit probabilities."""
    return Distribution(values, labels)


def from_counts(counts: Sequence[int]) -> Distribution:
    """Turn observation tallies into a complete distribution count_i / total."""
    try:
        counts = list(counts)
    except TypeError:
        raise ParameterOutOfRange(f"need an iterable of counts, got {counts!r}") from None
    if not counts:
        raise EmptyInput("no counts given")
    for i, c in enumerate(counts):
        try:
            whole = c == int(c)
        except (TypeError, ValueError, OverflowError):  # None, NaN, infinity
            whole = False
        if not whole or c < 0:
            raise ParameterOutOfRange(f"count {i} is {c!r}, need a non-negative integer")
    counts = [int(c) for c in counts]
    total = sum(counts)
    if total == 0:
        raise AllZeroCounts("every count is zero")
    # int / int rounds the exact quotient once; each is at most 1, so none overflows.
    return Distribution(tuple(c / total for c in counts))


def _integer(value, name: str, least: int, error: type = ParameterOutOfRange) -> int:
    """value as an int (anything operator.index takes); one below ``least`` raises ``error``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterOutOfRange(f"need an integer {name}, got {value!r}") from None
    if value < least:
        raise error(f"need {name} >= {least}, got {value}")
    return value


def _unit_interval(value, name: str, above_zero: bool = False) -> float:
    """value as a float in [0, 1], or in (0, 1] when ``above_zero``; a NaN is neither."""
    try:
        if (0.0 < value if above_zero else 0.0 <= value) and value <= 1.0:
            return float(value)
    except (TypeError, ValueError, ArithmeticError):  # not a real number
        pass
    low = "0 <" if above_zero else "0 <="
    raise ParameterOutOfRange(f"need {low} {name} <= 1, got {value!r}")


def uniform(n: int) -> Distribution:
    """n outcomes of probability 1/n each."""
    n = _integer(n, "n", 1, ZeroSize)
    return Distribution((1.0 / n,) * n)


def degenerate(n: int, sure_index: int = 0) -> Distribution:
    """One sure outcome at sure_index, the other n - 1 impossible."""
    n = _integer(n, "n", 1, ZeroSize)
    try:
        sure_index = operator.index(sure_index)
    except TypeError:
        raise IndexOutOfRange(f"need an integer sure_index, got {sure_index!r}") from None
    if not 0 <= sure_index < n:
        raise IndexOutOfRange(f"sure_index {sure_index} outside [0, {n})")
    probs = [0.0] * n
    probs[sure_index] = 1.0
    return Distribution(probs)


# Two tables, the p and q of the last binomial cell: in a sweep, the cell
# at 1 - p reads p's table as its q table and q's as its p table. Keys
# cannot collide: p and q are floats, and -0.0 is the only zero that
# reaches a table, because p = +0.0 and p = 1 are built in closed form.
@lru_cache(maxsize=2)
def _power_table(x: float, n: int, lo: int, hi: int) -> tuple[list[float], list[int]]:
    """x**k for k = 0..n, split into mantissa and exponent for k = lo..hi - 1.

    Returns ``(powers, exps)``. For k in the run lo..hi - 1, the k whose
    coefficients are past the float range (see _coefficients),
    ``powers[k]`` is a mantissa and ``exps[k - lo]`` its binary exponent;
    elsewhere ``powers[k]`` is x**k. The split powers keep a result below
    the float range, and round as a chunked loop does: x's mantissa m lies
    in [0.5, 1), so m**b never underflows for b <= 1000; ``head`` and
    ``shift`` are the loop's renormalized mantissa and summed exponent after
    each full chunk of 1000, and k = a + b takes ``frexp(head * m**b)``
    from chunk a's.
    """
    m, e = math.frexp(x)
    powers = list(map(pow, repeat(x), range(lo)))
    exps: list[int] = []
    head, shift = 1.0, 0
    for a in range(0, hi, 1000):
        bs = range(max(lo - a, 0), min(hi - a, 1000))
        fr = list(map(math.frexp, map(mul, repeat(head), map(pow, repeat(m), bs))))
        powers += [f[0] for f in fr]
        exps += [e * (a + b) + shift + f[1] for b, f in zip(bs, fr)]
        head, r = math.frexp(head * m**1000)
        shift += r
    powers += map(pow, repeat(x), range(hi, n + 1))
    return powers, exps


@lru_cache(maxsize=1)
def _coefficients(n: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The row C(n, 0..n) as floats, and the shifts of those past the float range.

    Returns ``(row, shifts)``. ``row[k]`` is float(C(n, k)) wherever that
    fits a float. The k where it does not (only for n >= 1030) form one run
    lo..n - lo around the centre. There the coefficient is cut to a 64-bit
    mantissa cm whose lowest bit is set when any dropped bit was; ``row[k]``
    is float(cm), which rounds a product as cm does (int * float converts
    the int with correct rounding), and ``shifts`` holds the number of bits
    dropped, one int per k of the run. So the row holds O(n) small numbers,
    not the O(n^2) bits of the exact integers. The exact integer is carried
    from one k to the next (C(n, k+1) = C(n, k) * (n - k) // (k + 1)) over
    the first half of the row, and the second half mirrors it.
    """
    half: list[float] = []
    shifts: list[int] = []
    c = 1
    for k in range(n // 2 + 1):
        try:
            half.append(float(c))
        except OverflowError:
            s = c.bit_length() - 64
            half.append(float((c >> s) | bool(c & ((1 << s) - 1))))
            shifts.append(s)
        c = c * (n - k) // (k + 1)
    # For even n the centre k = n / 2 ends each half and is not repeated.
    return tuple(half + half[n % 2 - 2 :: -1]), tuple(shifts + shifts[n % 2 - 2 :: -1])


def binomial(n: int, p: float) -> Distribution:
    """Binomial pmf B(n, p) over k = 0..n as a complete distribution.

    p may be any real number; it is read as ``float(p)``. Each term is
    ``C(n, k) * p**k * q**(n - k)``, evaluated in that order in one product
    pass over the coefficient row (cached for the last n; see _coefficients)
    and one power table per base (cached for the last two bases, so the
    mirror cell 1 - p of a sweep reads them; see _power_table). For
    n <= 1029 every coefficient fits a float, and ``float(C(n, k)) * x``
    rounds exactly as ``C(n, k) * x`` does, so every bit equals that of
    0.1.0, which called math.comb per term. From n = 1030 on, the k whose
    coefficients are past the float range form one run around the centre:
    there the pass multiplies three mantissas and ``math.ldexp`` applies
    their summed binary exponent, so any n >= 1 is valid and the terms near
    the mode stay within a few ulp. Terms far below the mode may lose bits
    when p**k or q**(n - k) underflows, as in 0.1.0. The p = 1 and p = +0.0
    endpoints are one sure outcome, built in closed form as
    :func:`degenerate` (the same bits the terms give); p = -0.0 takes the
    general path, whose odd-k terms are -0.0 as in 0.1.0.
    """
    n = _integer(n, "n", 1, ZeroSize)
    p = _unit_interval(p, "p")
    if p == 1.0 or (p == 0.0 and math.copysign(1.0, p) > 0.0):
        return degenerate(n + 1, n if p else 0)
    row, shifts = _coefficients(n)
    lo = (n + 1 - len(shifts)) // 2
    hi = lo + len(shifts)
    pk, pe = _power_table(p, n, lo, hi)
    qk, qe = _power_table(1.0 - p, n, lo, hi)
    probs = list(map(mul, map(mul, row, pk), reversed(qk)))
    exps = map(add, map(add, shifts, pe), reversed(qe))
    probs[lo:hi] = map(math.ldexp, probs[lo:hi], exps)
    return Distribution(tuple(probs))


def sweep_binomial(ns: Sequence[int], p_steps: int) -> list[SweepPoint]:
    """Analyze B(n, p) for each n over a uniform p grid including both endpoints.

    The grid is {0, 1/(p_steps-1), ..., 1}; output is row-major (n outer,
    p inner), one fully analyzed SweepPoint per cell. Each inner cell is
    built right after its mirror cell, so the two share their power tables
    wherever ``1 - p`` of one is exactly the other's p. The p = 1 cell
    carries the report of the p = 0 cell: its pmf is that one reversed, and
    every report field is independent of the order of the outcomes.
    """
    p_steps = _integer(p_steps, "p_steps", 2)
    try:
        ns = list(ns)
    except TypeError:
        raise ParameterOutOfRange(f"need an iterable of trial counts, got {ns!r}") from None
    steps = p_steps - 1
    grid = [i / steps for i in range(p_steps)]
    mirrored = dict.fromkeys(j for i in range(1, steps // 2 + 1) for j in (i, steps - i))
    points = []
    for n in ns:
        reports = {0: analyze(binomial(n, grid[0]))}
        for i in mirrored:
            reports[i] = analyze(binomial(n, grid[i]))
        reports[steps] = reports[0]
        points += [SweepPoint(n, p, reports[i]) for i, p in enumerate(grid)]
    return points
