"""Constructors and parameter sweeps producing Distribution values.

Covers the standard shapes the indicator suite is exercised on: explicit
probability vectors, tallied counts, uniform and one-sure-outcome vectors,
and the binomial family B(n, p) swept over a probability grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AllZeroCounts,
    EmptyInput,
    IndexOutOfRange,
    ParameterOutOfRange,
    ZeroSize,
)
from .indicators import Distribution, IndicatorReport, analyze

__all__ = [
    "SweepPoint",
    "from_probabilities",
    "from_counts",
    "uniform",
    "degenerate",
    "binomial",
    "sweep_binomial",
]


@dataclass(frozen=True)
class SweepPoint:
    """One binomial grid cell: trial count n, success probability p, full report."""

    n: int
    p: float
    report: IndicatorReport


def from_probabilities(
    values: Iterable[float], labels: Sequence[str] | None = None
) -> Distribution:
    """Build a validated Distribution from explicit probabilities."""
    return Distribution(tuple(values), None if labels is None else tuple(labels))


def from_counts(counts: Sequence[int]) -> Distribution:
    """Turn observation tallies into a complete distribution count_i / total."""
    counts = list(counts)
    if not counts:
        raise EmptyInput("no counts given")
    for i, c in enumerate(counts):
        if c != int(c) or c < 0:
            raise ParameterOutOfRange(f"count {i} is {c!r}, need a non-negative integer")
    total = sum(int(c) for c in counts)
    if total == 0:
        raise AllZeroCounts("every count is zero")
    return Distribution(tuple(c / total for c in counts))


def uniform(n: int) -> Distribution:
    """n outcomes of probability 1/n each."""
    if n < 1:
        raise ZeroSize(f"need n >= 1, got {n}")
    return Distribution((1.0 / n,) * n)


def degenerate(n: int, sure_index: int = 0) -> Distribution:
    """One sure outcome at sure_index, the other n - 1 impossible."""
    if n < 1:
        raise ZeroSize(f"need n >= 1, got {n}")
    if not 0 <= sure_index < n:
        raise IndexOutOfRange(f"sure_index {sure_index} outside [0, {n})")
    return Distribution(tuple(1.0 if i == sure_index else 0.0 for i in range(n)))


def _pow_frexp(x: float, k: int) -> tuple[float, int]:
    """x**k as (mantissa, exponent), so a result below the float range survives.

    The mantissa of x lies in [0.5, 1), so raising it to at most 1000 at a
    time never underflows; each chunk's binary exponent is split off again.
    """
    m, e = math.frexp(x)
    mant, exp = 1.0, e * k
    while k:
        j = min(k, 1000)
        mant, r = math.frexp(mant * m**j)
        exp += r
        k -= j
    return mant, exp


def _scaled_term(c: int, p: float, k: int, q: float, m: int) -> float:
    """c * p**k * q**m for a coefficient c too large for a float.

    c is cut to a 64-bit mantissa whose lowest bit is sticky (set when any
    dropped bit was), so float() still rounds it to c's nearest double; the
    three mantissas are multiplied and the summed exponent applied once.
    """
    s = c.bit_length() - 64
    cm = (c >> s) | bool(c & ((1 << s) - 1))
    pm, pe = _pow_frexp(p, k)
    qm, qe = _pow_frexp(q, m)
    return math.ldexp(cm * pm * qm, s + pe + qe)


def binomial(n: int, p: float) -> Distribution:
    """Binomial pmf B(n, p) over k = 0..n as a complete distribution.

    The exact integer coefficient C(n, k) is carried from one k to the next
    (C(n, k+1) = C(n, k) * (n - k) // (k + 1)), which costs O(n^2) bit
    operations in all, and each term is ``C(n, k) * p**k * q**(n - k)``
    evaluated in that order. For n <= 1029 every coefficient fits a float,
    so every bit equals that of 0.1.0, which called math.comb per term. From
    n = 1030 on, a term whose coefficient exceeds the float range is instead
    evaluated with its binary exponent carried apart (see _scaled_term), so
    any n >= 1 is valid and the terms near the mode stay within a few ulp.
    Terms far below the mode may lose bits when p**k or q**(n - k)
    underflows, as in 0.1.0. The p = 0 / p = 1 endpoints degenerate exactly.
    """
    if n < 1:
        raise ZeroSize(f"need n >= 1, got {n}")
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ParameterOutOfRange(f"need 0 <= p <= 1, got {p!r}")
    q = 1.0 - p
    probs = []
    c = 1
    for k in range(n + 1):
        try:
            probs.append(c * p**k * q ** (n - k))
        except OverflowError:
            probs.append(_scaled_term(c, p, k, q, n - k))
        c = c * (n - k) // (k + 1)
    return Distribution(tuple(probs))


def sweep_binomial(ns: Sequence[int], p_steps: int) -> list[SweepPoint]:
    """Analyze B(n, p) for each n over a uniform p grid including both endpoints.

    The grid is {0, 1/(p_steps-1), ..., 1}; output is row-major (n outer,
    p inner), one fully analyzed SweepPoint per cell.
    """
    if p_steps < 2:
        raise ParameterOutOfRange(f"need p_steps >= 2, got {p_steps}")
    steps = p_steps - 1
    grid = [i / steps for i in range(p_steps)]
    return [
        SweepPoint(n=n, p=p, report=analyze(binomial(n, p)))
        for n in ns
        for p in grid
    ]
