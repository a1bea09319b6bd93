"""Independent brute-force validators for the indicator identities and bounds.

Every check here recomputes its target through a different arithmetic path
than the library proper (compensated float summation and numpy instead of
exact rationals), so agreement is evidence rather than tautology. Random
draws use numpy's PCG64 generator seeded explicitly; the seed is recorded
in every result, making runs bit-reproducible.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .distributions import _integer, _unit_interval
from .errors import IncompleteDistribution
from .indicators import TOL_SUM, Distribution, analyze, total_probability

__all__ = [
    "ORACLE_TOL",
    "OracleResult",
    "sample_simplex",
    "mc_max_variance",
    "verify_sum_squares_bounds",
    "cross_check_report",
]

# A check passes when its residual does not exceed this.
ORACLE_TOL = 1e-12

# Values per chunk of Monte-Carlo draws: for any n a chunk's (block, n)
# float64 array is at most 32 MB, and each of its few temporaries too.
_MC_VALUES = 1 << 22


class OracleResult(
    namedtuple("OracleResult", "target value_found reference_value residual trials seed")
):
    """Outcome of one validation run.

    ``residual`` is defined so that 0 means the claim held exactly and
    anything above :data:`ORACLE_TOL` is a failure: bound checks report the
    violation magnitude (0 while the bound holds), the cross check reports
    the largest relative disagreement between redundant paths. ``seed`` and
    ``trials`` are 0 for the deterministic checks.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.residual <= ORACLE_TOL

    def to_dict(self) -> dict:
        return self._asdict()


def sample_simplex(n: int, p_total: float, trials: int, rng):
    """Draw ``trials`` vectors uniformly from the simplex scaled to sum p_total.

    Normalized unit-exponential draws are Dirichlet(1, ..., 1), i.e. uniform
    on the simplex; scaling by p_total moves them to the incomplete shell.
    ``rng`` is a numpy ``Generator``; returns a numpy array of shape
    (trials, n).
    """
    e = rng.standard_exponential((trials, n))
    return (p_total / e.sum(axis=1))[:, None] * e


def mc_max_variance(n: int, p_total: float, trials: int, seed: int) -> OracleResult:
    """Search the scaled simplex for a variance above the analytic cap.

    Samples random probability vectors of length n summing to p_total and
    tracks the largest population variance seen. The reference value is the
    cap p_total^2 * (n - 1) / n^2; the residual is the worst overshoot
    beyond it (0 when every sample stayed below, the expected outcome).
    """
    n = _integer(n, "n", 2)
    p_total = _unit_interval(p_total, "p_total", above_zero=True)
    trials = _integer(trials, "trials", 1)
    seed = _integer(seed, "seed", 0)

    # Imported here, its only use, so that importing equivar loads no numpy.
    import numpy as np

    rng = np.random.default_rng(seed)
    vmax = 0.0
    remaining = trials
    while remaining > 0:
        block = min(remaining, max(1, _MC_VALUES // n))
        x = sample_simplex(n, p_total, block, rng)
        vmax = max(vmax, float(x.var(axis=1).max()))
        remaining -= block

    cap = p_total * p_total * (n - 1) / (n * n)
    return OracleResult(
        target=f"max-variance[n={n}, p_total={p_total:.12g}]",
        value_found=vmax,
        reference_value=cap,
        residual=max(0.0, vmax - cap),
        trials=trials,
        seed=seed,
    )


def verify_sum_squares_bounds(dist: Distribution) -> OracleResult:
    """Check 1/N <= sum(p_i^2) <= 1 for a complete distribution.

    The lower bound is Jensen's inequality with equality only for the
    uniform vector; the upper bound is reached only when one probability is
    exactly 1. Both equality cases are named in ``target`` when they occur.
    The residual is the violation magnitude, 0 while the bounds hold.

    Raises IncompleteDistribution when the total probability is not within
    TOL_SUM of 1, since the bounds assume a complete vector.
    """
    pt = total_probability(dist)
    if abs(pt - 1.0) > TOL_SUM:
        raise IncompleteDistribution(
            f"sum-of-squares bounds assume a complete vector, got total {pt!r}"
        )
    n = dist.n
    s2 = math.fsum(p * p for p in dist.probs)
    lower = 1.0 / n

    notes = []
    if math.isclose(s2, lower, rel_tol=1e-12):
        notes.append("at lower bound (uniform)")
    if math.isclose(s2, 1.0, rel_tol=1e-12):
        notes.append("at upper bound (one sure outcome)")
    suffix = "".join(", " + note for note in notes)

    return OracleResult(
        target=f"sum-squares-bounds[n={n}{suffix}]",
        value_found=s2,
        reference_value=lower,
        residual=max(0.0, lower - s2, s2 - 1.0),
        trials=0,
        seed=0,
    )


def _rel(a: float, b: float) -> float:
    # Relative difference with an absolute floor of 1, so near-zero pairs
    # compare on an absolute scale instead of blowing up. Equal values,
    # two infinities among them, agree; any other pair with an infinity
    # or a NaN disagrees without bound.
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _quotient(num: float, den: float) -> float:
    # analyze's rule for a float result past the float range: a positive
    # num over a den that underflowed to 0 is inf, as the true quotient
    # overflows; 0 / 0 is undefined and gives NaN, which _rel refuses.
    try:
        return num / den
    except ZeroDivisionError:
        return math.inf if num else math.nan


def cross_check_report(dist: Distribution) -> OracleResult:
    """Recompute every report field along an independent path and compare.

    Redundant pairs: CV through sigma/mean deviations vs the closed form;
    D direct (1 / sum p^2) vs the identity N / (p_total^2 * G); F through
    natural-log entropy and e**x vs the base-2 path; plus the plain moments.
    value_found is the largest relative disagreement (reference 0).

    As in :func:`analyze`, a float quotient or power past the float range
    is inf on this path too, and two infinities agree. This path rounds
    each p * p and p * ln p in floats, so it cannot vouch for a vector
    whose terms fall in the subnormal range (below about 2.2e-308): there
    it may report a disagreement that the exact path does not have.
    """
    report = analyze(dist)  # raises AllImpossible on zero mass
    probs = dist.probs
    n = len(probs)

    pt = math.fsum(probs)
    pbar = pt / n
    var_dev = math.fsum((p - pbar) ** 2 for p in probs) / n
    cv_dev = _quotient(math.sqrt(var_dev), pbar)
    cv_rel_dev = 0.0 if n == 1 else cv_dev / math.sqrt(n - 1)

    s2 = math.fsum(p * p for p in probs)
    d_direct = _quotient(1.0, s2)
    d_identity = _quotient(n, pt * pt * report.equiv_number_g)

    h_nats = -math.fsum(p * math.log(p) for p in probs if p > 0.0) / pt
    try:
        f_nats = math.exp(h_nats)
    except OverflowError:
        f_nats = math.inf

    residuals = {
        "p_total": _rel(report.p_total, pt),
        "p_mean": _rel(report.p_mean, pbar),
        "variance": _rel(report.variance, var_dev),
        "cv(sigma/mean)": _rel(report.cv, cv_dev),
        "cv_rel": _rel(report.cv_rel, cv_rel_dev),
        "d(direct)": _rel(report.equiv_number_d, d_direct),
        "d(identity)": _rel(report.equiv_number_d, d_identity),
        "f(base)": _rel(report.avg_number_f, f_nats),
        "entropy(base)": _rel(report.entropy_bits * math.log(2.0), h_nats),
        "g-1=cv^2": _rel(report.equiv_number_g - 1.0, report.cv**2),
    }
    worst_name, worst = max(residuals.items(), key=lambda kv: kv[1])

    return OracleResult(
        target=f"cross-check[n={n}, worst={worst_name}]",
        value_found=worst,
        reference_value=0.0,
        residual=worst,
        trials=0,
        seed=0,
    )
