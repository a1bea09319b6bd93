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
from itertools import chain, islice, repeat
from operator import add, mul

from .errors import (
    AllZeroCounts,
    EmptyInput,
    IndexOutOfRange,
    ParameterOutOfRange,
    ZeroSize,
)
from .indicators import Distribution, _integer, _report, _unit_interval, analyze

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
    # One tuple, which Distribution reads in place.
    return Distribution((0.0,) * sure_index + (1.0,) + (0.0,) * (n - sure_index - 1))


# Only _table (_BASES_KEPT * 12 = 48 tables) and _coefficients (one row)
# cache. Four bases cover one mirrored sweep pair (p, 1 - p, p', 1 - p')
# and the three of a 3- or 5-point grid. Keys cannot collide: p and q are
# floats, and -0.0 is the only zero that reaches a table, because p = +0.0
# and p = 1 are built in closed form.
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

# The least integer float() refuses: halfway between the largest float,
# 2**1024 - 2**971, and 2**1024, where round-half-to-even goes up (the
# largest float's significand is odd), and so past the range.
_FLOAT_LIMIT = (1 << 1024) - (1 << 970)


# x**k depends on the base x and on k alone, so the plain powers are cached
# per base and size, not per n, and a size is the power of two at or above
# the count a call reads, so nearby n share a table. A call reads n + 1 <=
# 1030 powers when n has no run (n <= 1029), and lo <= 500 when it has one
# (lo falls from 500 at n = 1030 as n grows). So a size is at most 2**11, a
# base has at most 12 sizes (2**0..2**11), and the cache holds at most 48
# tables of <= 2048 powers, about 3 MB. The powers on a run and above it
# move with n, so _terms forms them per call (see _run_powers).
@lru_cache(maxsize=_BASES_KEPT * 12)
def _table(x: float, size: int) -> tuple[float, ...]:
    """x**k for k = 0..size - 1."""
    return tuple(map(pow, repeat(x), range(size)))


def _run_powers(x: float, lo: int, hi: int) -> tuple[list[float], list[int]]:
    """x**k for k on the run lo..hi - 1, each scaled by a power of two.

    Returns ``(powers, exps)``: ``powers[i] * 2**exps[i]`` is x**(lo + i)
    as a loop over chunks of 1000 powers rounds it. The run is the k whose
    coefficients are past the float range (see _coefficients); _terms reads
    the powers below it from _table and forms those above it with pow. x's
    mantissa m lies in [0.5, 1), so m**b never underflows for b <= 1000;
    ``head`` and ``shift`` are the loop's renormalized mantissa and summed
    exponent after each full chunk, and k = a + b takes ``head * m**b``
    from chunk a's, in C-level passes.
    """
    m, e = math.frexp(x)
    powers: list[float] = []
    exps: list[int] = []
    head, shift = 1.0, 0
    for a in range(0, hi, 1000):
        bs = range(max(lo - a, 0), min(hi - a, 1000))
        # Scaled by 2**470, each power is 0 (x = -0.0) or in [2**-531,
        # 2**470], so with a row entry in [2**63, 2**64] each product
        # (row * pv) * qv of _terms is 0 or in [2**-999, 2**1004]: every
        # intermediate is a normal float, so each multiply rounds the
        # significand that frexp-normalized factors would give, and the one
        # ldexp in _terms restores the powers of two.
        powers += map(mul, repeat(math.ldexp(head, 470)), map(pow, repeat(m), bs))
        base = e * a + shift - 470
        exps += range(base + e * bs.start, base + e * bs.stop, e) if e else repeat(base, len(bs))
        head, r = math.frexp(head * m**1000)
        shift += r
    return powers, exps


@lru_cache(maxsize=1)
def _coefficients(n: int) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The row C(n, 0..n) as floats, and the shifts of those past the float range.

    Returns ``(row, shifts)``. ``row[k]`` is C(n, k) rounded once to a
    float, and past the float range (at or above _FLOAT_LIMIT, which a
    comparison tells without a float() that raises) it is stored scaled by
    2**-shift. The k past the range (only for n >= 1030) form one run
    lo..n - lo around the centre, and ``shifts`` holds one shift per k of
    the run. So a product with ``row[k]`` rounds as one with the exact
    (scaled) integer does (int * float converts the int with correct
    rounding), and the row holds O(n) small numbers, not the O(n^2) bits of
    the exact integers. The exact integer is carried from one k to the next
    (C(n, k+1) = C(n, k) * (n - k) // (k + 1)) over the first half of the
    row, and the second half mirrors it.
    """
    half: list[float] = []
    shifts: list[int] = []
    c = 1
    for k in range(n // 2 + 1):
        if c < _FLOAT_LIMIT:
            half.append(float(c))
        else:
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
    ``C(n, k) * p**k * q**(n - k)``, evaluated in that order in product
    passes over the coefficient row (cached for the last n; see
    _coefficients) and the powers of p and of q (see _terms). The powers
    below any run are read from tables cached per base and length (see
    _table), so a later call on the same base, with this n or a nearby
    one, and the mirror cell 1 - p of a sweep reuse them. For n <= 1029
    every coefficient fits a float, and ``float(C(n, k)) * x`` rounds
    exactly as ``C(n, k) * x`` does, so every bit equals that of 0.1.0,
    which called math.comb per term. From n = 1030 on, the k whose
    coefficients are past the float range form one run around the centre:
    the powers on the run and above it are formed per call, those on the
    run scaled by a power of two (see _run_powers), and ``math.ldexp``
    applies the three factors' summed exponent. Every term at least 2**-52 times the
    largest is within 4 ulp of its exact value for the float q = 1 - p up
    to n = 2000 (tests/test_distributions.py checks n = 1030, 1100 and
    2000). The error grows with n beyond that: at p = 0.3 it is 11 ulp at
    n = 2*10**4 (checked there too) and measured 45 ulp at 10**5. Terms
    far below the mode may lose bits when p**k or q**(n - k) underflows, as
    in 0.1.0. The p = 1 and p = +0.0 endpoints are one sure outcome, built
    in closed form as :func:`degenerate` (the same bits the terms give);
    p = -0.0 takes the general path, whose odd-k terms are -0.0 as in
    0.1.0.

    At the endpoints the n check takes any n >= 1 up to ``sys.maxsize -
    1``, but the vector still holds n + 1 floats, so memory bounds n there
    (a sweep's endpoint cells build no vector; see sweep_binomial). Every
    other p builds the coefficient row, whose cost grows as n**2, so there
    an n past ``_BINOMIAL_MAX_N`` (2**20, about 2 minutes of row) raises
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

    With no run the terms are formed in one pass over the row and the
    cached power tables of p and of q (see _table), reversed for q: the
    row is n + 1 long, so it stops the pass where a table runs longer. With
    a run lo..hi - 1 (see _coefficients) the tuple is built from three
    segments in turn, each one pass: k < lo reads p's table and q's powers
    above the run, the run reads both bases' scaled powers (see _run_powers)
    and applies the summed exponents with one ldexp per term, and k >= hi
    reads p's powers above the run and q's table. No list of n + 1 terms or
    powers is made. At p = 0.5, where q = 1 - p is p, one table, one run and
    one set of powers above it serve both. binomial validates the terms as
    a Distribution; sweep_binomial does so only for a mirror cell it
    analyzes.
    """
    row, shifts = _coefficients(n)
    lo = (n + 1 - len(shifts)) // 2
    hi = lo + len(shifts)
    q = 1.0 - p
    size = 1 << (n if lo == hi else lo - 1).bit_length()
    pk = _table(p, size)
    qk = pk if q == p else _table(q, size)
    if lo == hi:
        return tuple(map(mul, map(mul, row, pk), qk[n::-1]))
    pr, pe = _run_powers(p, lo, hi)
    pt = list(map(pow, repeat(p), range(hi, n + 1)))
    qr, qe = (pr, pe) if q == p else _run_powers(q, lo, hi)
    qt = pt if q == p else list(map(pow, repeat(q), range(hi, n + 1)))
    r = iter(row)  # the segments read the row in turn, each its own stretch
    below = map(mul, map(mul, islice(r, lo), pk), reversed(qt))
    run = map(mul, map(mul, islice(r, hi - lo), pr), reversed(qr))
    exps = map(add, map(add, shifts, pe), reversed(qe))
    above = map(mul, map(mul, r, pt), qk[lo - 1 :: -1])
    return tuple(chain(below, map(math.ldexp, run, exps), above))


def sweep_binomial(ns: Sequence[int], p_steps: int) -> list[SweepPoint]:
    """Analyze B(n, p) for each n over a uniform p grid including both endpoints.

    The grid is {0, 1/(p_steps-1), ..., 1}; output is row-major (n outer,
    p inner), one fully analyzed SweepPoint per cell. The power tables are
    kept per base, not per n (see binomial), so an n of the sweep reads
    the tables an earlier n left wherever both read the same size. Each
    inner cell p is built right after its mirror cell 1 - p, so the two
    cells of a pair read at most four bases, as many as are kept, and share
    a table wherever ``1 - p`` of one is exactly the other's p.

    The p = 0 and p = 1 cells are one sure outcome among n + 1, whose every
    report field depends on N = n + 1 and the one value 1.0 alone (see
    indicators), so their one report is taken from those, in O(1) at any
    n, and no vector of n + 1 values is built: a 2-point sweep takes any n
    up to ``sys.maxsize - 1``. It is the report ``analyze(degenerate(n +
    1))`` gives, bit for bit.

    Every inner pmf is built by ``binomial`` or, for a mirror cell, by
    ``_terms``, but each distinct one is analyzed once: a mirror cell whose
    terms are its partner's reversed, bit for bit, carries its partner's
    report. Every report field is independent of the order of the
    outcomes, so those reports are the ones ``analyze`` would give. Any
    other mirror cell is analyzed on its own, and only then are its terms
    made a Distribution: the reversal of a valid vector is valid, so that
    skips no check's outcome. The p = 0.5 cell reads the same reversed, so
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
        # One sure outcome among n + 1, whose report is N's and 1.0's alone.
        reports[0] = reports[steps] = _report(n + 1, (1.0,), (1.0, 1.0))
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
