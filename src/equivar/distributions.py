"""Constructors and parameter sweeps producing Distribution values.

Covers the standard shapes the indicator suite is exercised on: explicit
probability vectors, tallied counts, uniform and one-sure-outcome vectors,
and the binomial family B(n, p) swept over a probability grid.
"""

from __future__ import annotations

import math
import operator
import sys
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


def _integer(value, name: str, least: int, error: type = ParameterOutOfRange, most=None) -> int:
    """value as an int (anything operator.index takes); one below ``least``
    raises ``error``, and one above ``most`` raises ParameterOutOfRange."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterOutOfRange(f"need an integer {name}, got {value!r}") from None
    if value < least:
        raise error(f"need {name} >= {least}, got {value}")
    if most is not None and value > most:
        raise ParameterOutOfRange(f"need {name} <= {most}, got {value}")
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
    n = _integer(n, "n", 1, ZeroSize, sys.maxsize)
    return Distribution((1.0 / n,) * n)


def degenerate(n: int, sure_index: int = 0) -> Distribution:
    """One sure outcome at sure_index, the other n - 1 impossible."""
    n = _integer(n, "n", 1, ZeroSize, sys.maxsize)
    try:
        sure_index = operator.index(sure_index)
    except TypeError:
        raise IndexOutOfRange(f"need an integer sure_index, got {sure_index!r}") from None
    if not 0 <= sure_index < n:
        raise IndexOutOfRange(f"sure_index {sure_index} outside [0, {n})")
    probs = [0.0] * n
    probs[sure_index] = 1.0
    return Distribution(probs)


# The power caches keep four bases: the two cells of one mirrored sweep pair
# read at most p, 1 - p, p' and 1 - p', and a 3- or 5-point grid has three
# bases. Keys cannot collide: p and q are floats, and -0.0 is the only zero
# that reaches a table, because p = +0.0 and p = 1 are built in closed form.
_BASES_KEPT = 4

# The most cells one sweep_binomial call returns. Each retained cell takes
# about 530 bytes (its SweepPoint and its share of the reports; measured
# with tracemalloc on sweep_binomial([3], 10**4), Python 3.11), so this is
# about 0.56 GB of result, and a sweep past it would run out of memory
# before it ends.
_SWEEP_MAX_POINTS = 1 << 20

# The largest n whose coefficient row is built (every p but 1 and +0.0).
# The row carries the exact C(n, k), so its cost grows as n**2: 1.0 s at
# n = 10**5 and 3.9 s at 2*10**5 (Python 3.11, 2 CPUs), about 2 minutes at
# 2**20. A larger n would run for hours before it answered.
_BINOMIAL_MAX_N = 1 << 20


# x**k depends on the base x and on k alone, so the plain powers are cached
# per base and size, not per n, and a size is the power of two at or above
# the count a call reads, so nearby n share a table. A call reads n + 1 <=
# 1030 powers when n has no run (n <= 1029), and lo <= 500 when it has one
# (lo falls from 500 at n = 1030 as n grows). So a size is at most 2**11, a
# base has at most 12 sizes (2**0..2**11), and the cache holds at most 48
# tables of <= 2048 powers, about 3 MB.
@lru_cache(maxsize=_BASES_KEPT * 12)
def _table(x: float, size: int) -> tuple[float, ...]:
    """x**k for k = 0..size - 1."""
    return tuple(map(pow, repeat(x), range(size)))


@lru_cache(maxsize=_BASES_KEPT)
def _power_table(x: float, n: int, lo: int, hi: int) -> tuple[Sequence[float], Sequence[int]]:
    """x**k for k = 0..n, split into mantissa and exponent for k = lo..hi - 1.

    Returns ``(powers, exps)``. For k in the run lo..hi - 1, the k whose
    coefficients are past the float range (see _coefficients),
    ``powers[k]`` is a mantissa and ``exps[k - lo]`` its binary exponent;
    elsewhere ``powers[k]`` is x**k. The powers below the run, or all n + 1
    when there is none, are read from a table of base x (see _table); those
    past the run are computed here.

    The split powers keep a result below the float range, and round as a
    chunked loop does: x's mantissa m lies in [0.5, 1), so m**b never
    underflows for b <= 1000; ``head`` and ``shift`` are the loop's
    renormalized mantissa and summed exponent after each full chunk of 1000,
    and k = a + b takes ``frexp(head * m**b)`` from chunk a's. They depend
    on (x, k) alone too, but the run moves with n, so they are kept with
    the result, for four (x, n) pairs: the mirror cell of a sweep and a
    repeated call read them. Every caller only reads the result.
    """
    stop = n + 1 if lo == hi else lo
    table = _table(x, 1 << (stop - 1).bit_length())
    if lo == hi:
        return table[:stop], ()
    m, e = math.frexp(x)
    powers = list(table[:lo])
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

    Returns ``(row, shifts)``. ``row[k]`` is C(n, k) rounded once to a
    float, and past the float range it is stored scaled by 2**-shift. The k
    past the range (only for n >= 1030) form one run lo..n - lo around the
    centre, and ``shifts`` holds one shift per k of the run. So a product
    with ``row[k]`` rounds as one with the exact (scaled) integer does
    (int * float converts the int with correct rounding), and the row holds
    O(n) small numbers, not the O(n^2) bits of the exact integers. The exact
    integer is carried from one k to the next
    (C(n, k+1) = C(n, k) * (n - k) // (k + 1)) over the first half of the
    row, and the second half mirrors it.
    """
    half: list[float] = []
    shifts: list[int] = []
    c = 1
    for k in range(n // 2 + 1):
        try:
            half.append(float(c))
        except OverflowError:
            # The cut drops s >= 960 bits, and at least one of them is set:
            # by Kummer's theorem C(n, k) has at most log2(n) trailing zero
            # bits. So ORing in 1 is the sticky bit that makes the two
            # roundings (to 64 bits, then to 53) round as one.
            s = c.bit_length() - 64
            half.append(float((c >> s) | 1))
            shifts.append(s)
        c = c * (n - k) // (k + 1)
    # For even n the centre k = n / 2 ends each half and is not repeated.
    return tuple(half + half[n % 2 - 2 :: -1]), tuple(shifts + shifts[n % 2 - 2 :: -1])


def _row_bound(n: int) -> None:
    """Refuse, with ParameterOutOfRange, an n whose coefficient row is past
    the work bound ``_BINOMIAL_MAX_N``."""
    if n > _BINOMIAL_MAX_N:
        raise ParameterOutOfRange(f"need n <= {_BINOMIAL_MAX_N} when 0 < p < 1, got {n}")


def binomial(n: int, p: float) -> Distribution:
    """Binomial pmf B(n, p) over k = 0..n as a complete distribution.

    p may be any real number; it is read as ``float(p)``. Each term is
    ``C(n, k) * p**k * q**(n - k)``, evaluated in that order in one product
    pass over the coefficient row (cached for the last n; see _coefficients)
    and the powers of p and of q, read from tables cached per base and
    length (see _table), so a later call on the same base, with this n or a
    nearby one, and the mirror cell 1 - p of a sweep reuse them. For
    n <= 1029 every coefficient fits a float, and ``float(C(n, k)) * x``
    rounds exactly as ``C(n, k) * x`` does, so every bit equals that of
    0.1.0, which called math.comb per term. From n = 1030 on, the k whose
    coefficients are past the float range form one run around the centre:
    there the pass multiplies three mantissas and ``math.ldexp`` applies
    their summed binary exponent. Every term at least 2**-52 times the
    largest is within 4 ulp of its exact value for the float q = 1 - p up
    to n = 2000 (tests/test_distributions.py checks n = 1030, 1100 and
    2000). The error grows with n beyond that: at p = 0.3 it is 11 ulp at
    n = 2*10**4 (checked there too) and measured 45 ulp at 10**5. Terms
    far below the mode may lose bits when p**k or q**(n - k) underflows, as
    in 0.1.0. The p = 1 and p = +0.0 endpoints are one sure outcome, built
    in closed form as :func:`degenerate` (the same bits the terms give);
    p = -0.0 takes the general path, whose odd-k terms are -0.0 as in
    0.1.0.

    The endpoints take any n >= 1 up to ``sys.maxsize - 1``. Every other p
    builds the coefficient row, whose cost grows as n**2, so there an n
    past ``_BINOMIAL_MAX_N`` (2**20, about 2 minutes of row) raises
    ParameterOutOfRange before any work is done.
    """
    n = _integer(n, "n", 1, ZeroSize, sys.maxsize - 1)  # n + 1 outcomes
    p = _unit_interval(p, "p")
    if p == 1.0 or (p == 0.0 and math.copysign(1.0, p) > 0.0):
        return degenerate(n + 1, n if p else 0)
    _row_bound(n)
    return Distribution(_terms(n, p))


def _terms(n: int, p: float) -> tuple[float, ...]:
    """The pmf of B(n, p) as a tuple of floats, for n and p as binomial
    reads them and p neither 1 nor +0.0; see binomial for how.

    binomial validates the terms as a Distribution; sweep_binomial does so
    only for a mirror cell it analyzes.
    """
    row, shifts = _coefficients(n)
    lo = (n + 1 - len(shifts)) // 2
    hi = lo + len(shifts)
    pk, pe = _power_table(p, n, lo, hi)
    qk, qe = _power_table(1.0 - p, n, lo, hi)
    probs = list(map(mul, map(mul, row, pk), reversed(qk)))
    exps = map(add, map(add, shifts, pe), reversed(qe))
    probs[lo:hi] = map(math.ldexp, probs[lo:hi], exps)
    return tuple(probs)


def sweep_binomial(ns: Sequence[int], p_steps: int) -> list[SweepPoint]:
    """Analyze B(n, p) for each n over a uniform p grid including both endpoints.

    The grid is {0, 1/(p_steps-1), ..., 1}; output is row-major (n outer,
    p inner), one fully analyzed SweepPoint per cell. The power tables are
    kept per base, not per n (see binomial), so an n of the sweep reads
    the tables an earlier n left wherever both read the same size. Each
    inner cell p is built right after its mirror cell 1 - p, so the two
    cells of a pair read at most four bases, as many as are kept, and share
    a table wherever ``1 - p`` of one is exactly the other's p.

    Every inner pmf is built, but each distinct one is analyzed once: a
    mirror cell whose terms are its partner's reversed, bit for bit,
    carries its partner's report, as the p = 1 cell carries the p = 0 one.
    Every report field is independent of the order of the outcomes, so
    those reports are the ones ``analyze`` would give. Any other mirror
    cell is analyzed on its own, and only then are its terms made a
    Distribution: the reversal of a valid vector is valid, so that skips
    no check's outcome. The p = 0.5 cell reads the same reversed, so
    analyze sums it over one half. On a 5-point grid every pair is
    reversed (a 3-point grid has none but p = 0.5, its own mirror). On
    n = 1..199 and n = 1000, 1007, ..., 1099, 70% of the pairs are
    reversed at 9 points, 12% at 21, 2.5% at 101, and almost none at 7 or
    11.

    A sweep of more than ``_SWEEP_MAX_POINTS`` cells (2**20, about 0.56 GB
    of result at ~530 bytes a cell) raises ParameterOutOfRange before any
    cell is built, and so does an n past ``_BINOMIAL_MAX_N`` (2**20) when
    p_steps >= 3: its inner cells would build a coefficient row, whose cost
    grows as n**2 (see binomial).
    """
    p_steps = _integer(p_steps, "p_steps", 2, most=sys.maxsize)
    # Every n is read before any cell is built, so a bad one costs no work.
    try:
        ns = [_integer(n, "n", 1, ZeroSize, sys.maxsize - 1) for n in ns]
    except TypeError:
        raise ParameterOutOfRange(f"need an iterable of trial counts, got {ns!r}") from None
    if p_steps > 2:
        for n in ns:
            _row_bound(n)
    if len(ns) * p_steps > _SWEEP_MAX_POINTS:
        raise ParameterOutOfRange(
            f"need (number of n) * p_steps <= {_SWEEP_MAX_POINTS} cells,"
            f" got {len(ns)} * {p_steps}"
        )
    if not ns:  # no cell, so the grid is not built: p_steps may be huge
        return []
    steps = p_steps - 1
    grid = [i / steps for i in range(p_steps)]
    points = []
    for n in ns:
        reports = [None] * p_steps
        reports[0] = reports[steps] = analyze(binomial(n, grid[0]))
        for i in range(1, steps // 2 + 1):
            a = binomial(n, grid[i])
            reports[i] = analyze(a)
            if i == steps - i:  # p = 0.5 is its own mirror
                continue
            b = _terms(n, grid[steps - i])
            # Reuse is exact: every field is a function of the multiset of
            # values, since the exact integer sums ignore order and fsum
            # rounds correctly, so the entropy ignores it too. Tuple ==
            # treats +0.0 and -0.0 alike, and zeros drop out of every
            # field; a grid p is never -0.0 anyway. Validating only an
            # analyzed mirror cell skips no check's outcome: the reversal
            # of an accepted vector passes every check, since the range
            # checks ignore order, and fsum of the same multiset decides
            # the sum bound wherever the plain-sum fast path declines.
            if b == a.probs[::-1]:
                reports[steps - i] = reports[i]
            else:
                reports[steps - i] = analyze(Distribution(b))
        points += [SweepPoint(n, p, reports[i]) for i, p in enumerate(grid)]
    return points
