"""Unit tests for the Monte-Carlo and cross-path validators."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from equivar import (
    analyze,
    cross_check_report,
    degenerate,
    from_probabilities,
    mc_max_variance,
    oracle,
    sample_simplex,
    uniform,
    verify_sum_squares_bounds,
)
from equivar.errors import IncompleteDistribution, ParameterOutOfRange
from equivar.oracle import _rel

from conftest import A64_PROBS, A86_PROBS, random_distribution


# ----------------------------------------------------------------------
# Monte-Carlo variance cap


def test_mc_max_variance_basic():
    res = mc_max_variance(n=3, p_total=1.0, trials=100_000, seed=42)
    assert res.reference_value == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert res.value_found <= res.reference_value + 1e-12
    assert res.residual == 0.0
    assert res.passed
    assert res.trials == 100_000 and res.seed == 42
    # the cap is approached, not just bounded
    assert res.value_found > 0.9 * res.reference_value


def test_mc_max_variance_n2_cap_quarter():
    res = mc_max_variance(n=2, p_total=1.0, trials=50_000, seed=7)
    assert res.reference_value == 0.25
    assert res.value_found <= 0.25 + 1e-12


def test_mc_max_variance_incomplete_shell():
    res = mc_max_variance(n=8, p_total=0.9725, trials=100_000, seed=3)
    assert res.reference_value == pytest.approx(0.9725**2 * 7 / 64, rel=1e-12)
    assert res.value_found <= res.reference_value + 1e-12


def test_mc_cap_holds_across_grid():
    for n in range(2, 17):
        for p_total in (0.25, 0.5, 0.9725, 1.0):
            res = mc_max_variance(n=n, p_total=p_total, trials=100_000, seed=11)
            assert res.passed, res.target


def test_mc_cap_is_tight_at_n2():
    res = mc_max_variance(n=2, p_total=1.0, trials=1_000_000, seed=42)
    gap = res.reference_value - res.value_found
    assert 0.0 <= gap < 1e-3


def test_mc_is_reproducible():
    a = mc_max_variance(n=5, p_total=0.5, trials=10_000, seed=1234)
    b = mc_max_variance(n=5, p_total=0.5, trials=10_000, seed=1234)
    assert a == b
    c = mc_max_variance(n=5, p_total=0.5, trials=10_000, seed=1235)
    assert c.value_found != a.value_found


def test_mc_chunks_cap_values_so_rows_per_chunk_shrink_as_n_grows(monkeypatch):
    # Draws come from one generator in order, so chunking moves no bit.
    ns = (3, 12, 40)
    want = [mc_max_variance(n, 0.75, 50, 9) for n in ns]
    blocks = []
    draw = oracle.sample_simplex

    def spy(n, p_total, trials, rng):
        blocks.append((n, trials))
        return draw(n, p_total, trials, rng)

    monkeypatch.setattr(oracle, "_MC_VALUES", 24)
    monkeypatch.setattr(oracle, "sample_simplex", spy)
    assert [mc_max_variance(n, 0.75, 50, 9) for n in ns] == want
    for n, rows in zip(ns, (8, 2, 1)):
        sizes = [t for m, t in blocks if m == n]
        assert sum(sizes) == 50 and max(sizes) == rows


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, p_total=1.0, trials=10, seed=0),
        dict(n=3, p_total=0.0, trials=10, seed=0),
        dict(n=3, p_total=1.5, trials=10, seed=0),
        dict(n=3, p_total=1.0, trials=0, seed=0),
        dict(n=3, p_total=1.0, trials=10, seed=-1),
        dict(n="3", p_total=1.0, trials=10, seed=0),
        dict(n=2.5, p_total=1.0, trials=10, seed=0),
        dict(n=3, p_total="x", trials=10, seed=0),
        dict(n=3, p_total=None, trials=10, seed=0),
        dict(n=3, p_total=1.0, trials=2.5, seed=0),
        dict(n=3, p_total=1.0, trials=10, seed=1.5),
    ],
)
def test_mc_parameter_validation(kwargs):
    with pytest.raises(ParameterOutOfRange):
        mc_max_variance(**kwargs)


@pytest.mark.parametrize(
    "p_total",
    [Decimal("0.3"), Fraction(1, 3), np.float64(0.3)],
    ids=["decimal", "fraction", "float64"],
)
def test_mc_reads_a_real_p_total_as_the_equal_float(p_total):
    got = mc_max_variance(n=3, p_total=p_total, trials=10, seed=0)
    assert got == mc_max_variance(n=3, p_total=float(p_total), trials=10, seed=0)
    assert type(got.reference_value) is float


@pytest.mark.parametrize(
    "p_total", [Decimal("sNaN"), 10**400, 1j], ids=["decimal-snan", "huge-int", "complex"]
)
def test_mc_refuses_a_p_total_that_is_not_a_real_in_range(p_total):
    with pytest.raises(ParameterOutOfRange, match=r"^need 0 < p_total <= 1, got "):
        mc_max_variance(n=3, p_total=p_total, trials=10, seed=0)


def test_simplex_sampler_sums_and_range():
    rng = np.random.default_rng(99)
    x = sample_simplex(6, 0.9725, 1000, rng)
    assert x.shape == (1000, 6)
    assert (x >= 0).all()
    np.testing.assert_allclose(x.sum(axis=1), 0.9725, rtol=1e-12)


# ----------------------------------------------------------------------
# sum-of-squares bounds


def test_bounds_uniform_hits_lower():
    res = verify_sum_squares_bounds(uniform(4))
    assert res.value_found == 0.25 == res.reference_value
    assert res.residual == 0.0
    assert "at lower bound" in res.target


def test_bounds_degenerate_hits_upper():
    res = verify_sum_squares_bounds(degenerate(4, 0))
    assert res.value_found == 1.0
    assert res.residual == 0.0
    assert "at upper bound" in res.target


def test_bounds_interior_case():
    res = verify_sum_squares_bounds(from_probabilities((0.7, 0.3)))
    assert res.value_found == pytest.approx(0.58, rel=1e-12)
    assert 0.5 < res.value_found < 1.0
    assert res.residual == 0.0
    assert "at lower bound" not in res.target
    assert "at upper bound" not in res.target


def test_bounds_requires_complete():
    with pytest.raises(IncompleteDistribution):
        verify_sum_squares_bounds(from_probabilities(A86_PROBS))


def test_bounds_hold_on_random_complete_vectors():
    rng = np.random.default_rng(17)
    for _ in range(500):
        d = random_distribution(rng, int(rng.integers(1, 17)))
        assert verify_sum_squares_bounds(d).passed


# ----------------------------------------------------------------------
# cross check


def test_cross_check_observed_areas():
    assert cross_check_report(from_probabilities(A64_PROBS)).residual <= 1e-12
    assert cross_check_report(from_probabilities(A86_PROBS)).residual <= 1e-12


def test_cross_check_uniform_50():
    assert cross_check_report(uniform(50)).residual <= 1e-12


def test_cross_check_random_seeded():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(1, 17))
        pt = float(rng.choice([0.25, 0.5, 0.9725, 1.0]))
        res = cross_check_report(random_distribution(rng, n, pt))
        assert res.residual <= 1e-12, res.target


def test_cross_check_degenerate_cases():
    for n in (1, 2, 8):
        assert cross_check_report(uniform(n)).residual <= 1e-12
        assert cross_check_report(degenerate(n)).residual <= 1e-12


def test_cross_check_agrees_where_the_float_sums_underflow():
    # sum(p^2) and p_total^2 underflow to 0 in floats; D is inf on both paths.
    dist = from_probabilities([1e-200, 1e-200])
    assert analyze(dist).equiv_number_d == math.inf
    assert cross_check_report(dist).residual <= 1e-12


@pytest.mark.parametrize("probs", [[5e-324], [5e-324, 0.0, 0.0], [1e-320, 1e-320]])
def test_cross_check_on_subnormal_terms_ends_in_a_result(probs):
    # The float path rounds p * ln p in the subnormal range, so it may
    # disagree; it must still return a result, with no NaN in it.
    res = cross_check_report(from_probabilities(probs))
    assert res.residual >= 0.0 and res.value_found == res.residual


def test_rel_treats_infinities_as_analyze_does():
    assert _rel(math.inf, math.inf) == 0.0
    assert _rel(math.inf, 1e308) == math.inf
    assert _rel(2.0, math.inf) == math.inf
    assert _rel(math.nan, math.nan) == math.inf
    assert _rel(3.0, 1.0) == 2.0 / 3.0
