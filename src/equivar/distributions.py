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
from operator import mul

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
# and the three of a 3- or 5-point grid.
_BASES_KEPT = 4

# The most cells one sweep_binomial call returns. Each retained cell takes
# about 530 bytes (its SweepPoint and its share of the reports; measured
# with tracemalloc on sweep_binomial([3], 10**4), Python 3.11), so this is
# about 0.56 GB of result, and a sweep past it would run out of memory
# before it ends.
_SWEEP_MAX_POINTS = 1 << 20

# The largest n of an inner cell (0 < p < 1). Its pmf takes O(n) time
# and memory: at 2**20, 0.5 s (p = 0.5) to 1.2 s (p = 0.3) and a
# 17 MiB peak for an 8 MiB result (tracemalloc; Python 3.11, 2 CPUs), so a
# cell answers in about a second. At 2**30 one would take some 20 minutes
# and 16 GiB.
_BINOMIAL_MAX_N = 1 << 20

# The largest n whose every coefficient C(n, k) is a float: C(1030, 515)
# is past the float range. Up to it a pmf keeps 0.1.0's bits.
_ROW_MAX_N = 1029


# x**k depends on the base x and on k alone, so the plain powers are cached
# per base and size, not per n, and a size is the power of two at or above
# the n + 1 <= 1030 powers a call reads, so nearby n share a table. So a
# size is at most 2**11, a base has at most 12 sizes (2**0..2**11), and the
# cache holds at most 48 tables of <= 2048 powers, about 3 MB.
@lru_cache(maxsize=_BASES_KEPT * 12)
def _table(x: float, size: int) -> tuple[float, ...]:
    """x**k for k = 0..size - 1."""
    return tuple(map(pow, repeat(x), range(size)))


@lru_cache(maxsize=1)
def _coefficients(n: int) -> tuple[float, ...]:
    """The row C(n, 0..n) for n <= _ROW_MAX_N, each rounded once to a float.

    A product with ``row[k]`` rounds as one with the exact integer does
    (int * float converts the int with correct rounding). The exact integer
    is carried from one k to the next (C(n, k+1) = C(n, k) * (n - k) //
    (k + 1)) over the first half of the row, and the second half mirrors it.
    """
    half: list[float] = []
    c = 1
    for k in range(n // 2 + 1):
        half.append(float(c))
        c = c * (n - k) // (k + 1)
    # For even n the centre k = n / 2 ends each half and is not repeated.
    return tuple(half + half[n % 2 - 2 :: -1])


def _time_bound(n: int) -> None:
    """Refuse, with ParameterOutOfRange, an n past ``_BINOMIAL_MAX_N``,
    beyond which a pmf for 0 < p < 1 takes too long (see there)."""
    if n > _BINOMIAL_MAX_N:
        raise ParameterOutOfRange(f"need n <= {_BINOMIAL_MAX_N} when 0 < p < 1, got {n}")


def binomial(n: int, p: float) -> Distribution:
    """Binomial pmf B(n, p) over k = 0..n as a complete distribution.

    p may be any real number; it is read as ``float(p)``. p = ±0 and p = 1
    give one sure outcome, in closed form, at every n: the vector
    :func:`degenerate` builds, +0.0 elsewhere. For 0 < p < 1, up to n = 1029
    each term is ``C(n, k) * p**k * q**(n - k)`` with the float q = 1 - p,
    evaluated in that order in product passes over the coefficient row
    (cached for the last n; see _coefficients) and the powers of p and of q
    (read from tables cached per base and length; see _table). Every
    coefficient there fits a float, and ``float(C(n, k)) * x`` rounds
    exactly as ``C(n, k) * x`` does, so every bit equals that of 0.1.0,
    which called math.comb per term; so does a term far below the mode
    that is lost when p**k or q**(n - k) underflows. From n = 1030 on each
    term is the exact B(n, p) of the float p, whose q = 1 - p is taken
    exactly, rounded once to the nearest float, subnormals and zeros
    included (see _terms).

    At p = ±0 and p = 1 the n check takes any n >= 1 up to ``sys.maxsize -
    1``, but the vector still holds n + 1 floats, so memory bounds n there
    (a sweep's endpoint cells build no vector; see sweep_binomial). Every
    0 < p < 1 refuses an n past ``_BINOMIAL_MAX_N`` (2**20) with
    ParameterOutOfRange before any work is done.
    """
    n = _integer(n, "n", 1, ZeroSize, sys.maxsize - 1)  # n + 1 outcomes
    p = _unit_interval(p, "p")
    if p == 0.0 or p == 1.0:  # -0.0 == 0.0
        return degenerate(n + 1, n if p else 0)
    _time_bound(n)
    return Distribution(_terms(n, p))


def _cut(t: int, e: int) -> tuple[int, int]:
    """t * 2**e with t truncated to its top 129 bits, the rest moved into e."""
    s = t.bit_length() - 129
    return (t >> s, e + s) if s > 0 else (t, e)


def _terms(n: int, p: float) -> tuple[float, ...]:
    """The pmf of B(n, p) as a tuple of floats, for n as binomial reads it
    and 0 < p < 1; see binomial for which bits. p = ±0 and p = 1 give one
    sure outcome, in closed form, at every n, and never reach here.

    Up to n = 1029 the terms are formed in one pass over the row and the
    cached power tables of p and of q (see _table), reversed for q: the
    row is n + 1 long, so it stops the pass where a table runs longer.

    From n = 1030 on the terms come from one recurrence in integers: p is
    a / 2**alpha exactly, so the exact q is b / 2**alpha with b = 2**alpha
    - a, q**n is b**n / 2**(alpha * n) by square and multiply, and
    t(k + 1) = t(k) * (n - k) * a / ((k + 1) * b). Each value is an integer
    of 129 or 130 bits times a power of two kept apart, truncated at each
    cut and floor division, so it lies below the exact term by less than
    3n * 2**-128 of it. Each term is then rounded once: ``float(t)`` rounds
    t correctly (half to even), so ``ldexp`` gives a normal result; a
    subnormal one comes from int / int, also correctly rounded, and a term
    below half the least subnormal is 0.0. So a term takes the exact
    term's float unless that lies within 3n * 2**-128 of it above a
    midpoint between two floats. Only p = 0.5, whose a = b = 1, has terms
    on a midpoint (C(n, k) / 2**n; k = 7 at n = 1040 is one), and there
    the carry is exact while C(n, k) < 2**129, which holds at every one.
    At p = 0.5 the pmf is a palindrome, so its first half is mirrored.

    binomial validates the terms as a Distribution; sweep_binomial does so
    only for a mirror cell it analyzes.
    """
    if n <= _ROW_MAX_N:
        size = 1 << n.bit_length()
        pk, qk = _table(p, size), _table(1.0 - p, size)
        return tuple(map(mul, map(mul, _coefficients(n), pk), qk[n::-1]))
    a, den = p.as_integer_ratio()
    alpha = den.bit_length() - 1
    b = den - a
    t, e, x, ex, m = 1, -alpha * n, b, 0, n
    while m:
        if m & 1:
            t, e = _cut(t * x, e + ex)
        x, ex = _cut(x * x, 2 * ex)
        m >>= 1
    ldexp = math.ldexp
    terms: list[float] = []
    append = terms.append
    for k in range(n // 2 + 1 if a == b else n + 1):
        top = t.bit_length() + e  # t * 2**e lies in [2**(top - 1), 2**top)
        append(ldexp(float(t), e) if top > -1022 else t / (1 << -e) if top > -1075 else 0.0)
        # The quotient has 129 or 130 bits: its dividend has 129 more than div.
        num, div = t * (n - k) * a, (k + 1) * b
        s = 129 + div.bit_length() - num.bit_length()
        t = (num << s) // div if s >= 0 else (num >> -s) // div
        e -= s
    return tuple(terms + terms[n % 2 - 2 :: -1] if a == b else terms)


def sweep_binomial(ns: Sequence[int], p_steps: int) -> list[SweepPoint]:
    """Analyze B(n, p) for each n over a uniform p grid including both endpoints.

    The grid is {0, 1/(p_steps-1), ..., 1}; output is row-major (n outer,
    p inner), one fully analyzed SweepPoint per cell. The power tables are
    kept per base, not per n (see binomial), so an n of the sweep reads
    the tables an earlier n left wherever both read the same size. Each
    inner cell p is built right after its mirror cell 1 - p, so the two
    cells of a pair read at most four bases, as many as are kept, and share
    a table wherever ``1 - p`` of one is exactly the other's p.

    p = ±0 and p = 1 give one sure outcome among n + 1, in closed form, at
    every n, as in binomial. Every report field of such a cell depends on
    N = n + 1 and the one value 1.0 alone (see indicators), so the p = 0
    and p = 1 cells' one report is taken from those, in O(1) at any n, and
    no vector of n + 1 values is built: a 2-point sweep takes any n up to
    ``sys.maxsize - 1``. It is the report ``analyze(degenerate(n + 1))``
    gives, bit for bit.

    Every inner pmf is built by ``binomial`` or, for a mirror cell, by
    ``_terms``, but each distinct one is analyzed once: a mirror cell whose
    terms are its partner's reversed, bit for bit, carries its partner's
    report. Every report field is independent of the order of the
    outcomes, so those reports are the ones ``analyze`` would give. Up to
    n = 1029 the mirror cell's terms are built and compared; past it each
    term is the exact B(n, p) rounded once, so a mirror cell p' whose
    ``1.0 - p'`` is its partner's p is that reversal and is not built.
    Any other mirror cell is analyzed on its own, and only then are its
    terms made a Distribution: the reversal of a valid vector is valid, so
    that skips no check's outcome. The p = 0.5 cell reads the same
    reversed, so analyze sums it over one half. On a 5-point grid every
    pair is reversed (a 3-point grid has none but p = 0.5, its own
    mirror). On n = 1..199 and n = 1000, 1007, ..., 1099, 71% of the pairs
    are reversed at 9 points, 13% at 21, 4% at 101, 2% at 11 and none at 7.

    A sweep of more than ``_SWEEP_MAX_POINTS`` cells (2**20, about 0.56 GB
    of result at ~530 bytes a cell) raises ParameterOutOfRange before any
    cell is built, and so does an n past ``_BINOMIAL_MAX_N`` (2**20) when
    p_steps >= 3 (see binomial).
    """
    p_steps = _integer(p_steps, "p_steps", 2, most=sys.maxsize)
    # Every n is read before any cell is built, so a bad one costs no work.
    try:
        ns = [_integer(n, "n", 1, ZeroSize, sys.maxsize - 1) for n in ns]
    except TypeError:
        raise ParameterOutOfRange(f"need an iterable of trial counts, got {ns!r}") from None
    if p_steps > 2:
        for n in ns:
            _time_bound(n)
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
            mirror = grid[steps - i]
            # Past n = 1029 a pmf is the exact B(n, p) rounded once, and
            # 1.0 - mirror is exact (Sterbenz's lemma, as mirror >= 1/2), so
            # where it is p the mirror cell is its partner reversed, bit for
            # bit, and is not built.
            exact = n > _ROW_MAX_N and 1.0 - mirror == grid[i]
            b = None if exact else _terms(n, mirror)
            # Reuse is exact: every field is a function of the multiset of
            # values, since the exact integer sums ignore order and fsum
            # rounds correctly, so the entropy ignores it too. Validating
            # only an analyzed mirror cell skips no check's outcome: the
            # reversal of an accepted vector passes every check, since the
            # range checks ignore order, and fsum of the same multiset
            # decides the sum bound wherever the plain-sum fast path
            # declines.
            if exact or b == a.probs[::-1]:
                reports[steps - i] = reports[i]
            else:
                reports[steps - i] = analyze(Distribution(b))
        points += [SweepPoint(n, p, reports[i]) for i, p in enumerate(grid)]
    return points
