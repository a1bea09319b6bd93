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


def binomial(n: int, p: float) -> Distribution:
    """Binomial pmf B(n, p) over k = 0..n as a complete distribution.

    Coefficients come from math.comb (exact integers, no factorial ratios),
    so the evaluation stays accurate far past n = 50 and the p = 0 / p = 1
    endpoints degenerate exactly.
    """
    if n < 1:
        raise ZeroSize(f"need n >= 1, got {n}")
    if not (math.isfinite(p) and 0.0 <= p <= 1.0):
        raise ParameterOutOfRange(f"need 0 <= p <= 1, got {p!r}")
    q = 1.0 - p
    return Distribution(
        tuple(math.comb(n, k) * p**k * q ** (n - k) for k in range(n + 1))
    )


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
