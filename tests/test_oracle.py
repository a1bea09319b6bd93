"""Unit tests for the Monte-Carlo and cross-path validators."""

import math
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _value_found_hex_at(chunk, n, p_total, trials, seed):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_MC_VALUES", chunk)
        return mc_max_variance(n, p_total, trials, seed).value_found.hex()


# 7/8/9 and 128/129 straddle the regimes of numpy's pairwise sum.
@given(
    n=st.integers(2, 300),
    trials=st.integers(1, 3000),
    seed=st.integers(0, 2**32),
    p_total=st.sampled_from([1.0, 0.37, 0.9725, 1e-300]) | st.floats(1e-300, 1.0),
)
@example(n=7, trials=3000, seed=0, p_total=1.0)
@example(n=8, trials=3000, seed=1, p_total=0.37)
@example(n=9, trials=2999, seed=2, p_total=1e-300)
@example(n=128, trials=1000, seed=3, p_total=1.0)
@example(n=129, trials=1001, seed=4, p_total=0.9725)
@settings(max_examples=60, deadline=None)
def test_value_found_does_not_depend_on_the_chunk_size(n, p_total, trials, seed):
    want = mc_max_variance(n, p_total, trials, seed).value_found.hex()
    assert _value_found_hex_at(1 << 22, n, p_total, trials, seed) == want
    assert _value_found_hex_at(n, n, p_total, trials, seed) == want  # one row per chunk


def test_mc_peak_memory_does_not_grow_with_trials():
    mc_max_variance(10, 1.0, 1, 0)  # numpy's own first-use set-up is not counted
    tracemalloc.start()
    try:
        mc_max_variance(10, 1.0, 200_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


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


@pytest.mark.parametrize("shape", [(1, 9), (5000, 13), (77, 129), (3, 2)])
@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("p_total", [1.0, 0.37, 1e-300])
@pytest.mark.parametrize(
    "make_rng", [np.random.default_rng, np.random.RandomState], ids=["generator", "random-state"]
)
def test_simplex_sampler_scales_in_place_to_the_same_bytes(shape, seed, p_total, make_rng):
    e = make_rng(seed).standard_exponential(shape)
    want = (p_total / e.sum(axis=1))[:, None] * e
    got = sample_simplex(shape[1], p_total, shape[0], make_rng(seed))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "rng", [None, 42, "rng", np.random.PCG64(0)], ids=["none", "int", "str", "bit-generator"]
)
def test_simplex_sampler_refuses_an_rng_that_cannot_draw(rng):
    with pytest.raises(ParameterOutOfRange, match=r"^need a numpy Generator or RandomState rng, got "):
        sample_simplex(3, 1.0, 2, rng)


@pytest.mark.parametrize(
    "n, p_total, trials",
    [
        (3, 2.0, 5),
        (3, math.nan, 5),
        (3, 0.0, 5),
        (0, 1.0, 5),
        (-1, 1.0, 5),
        (2.5, 1.0, 5),
        (3, 1.0, 0),
    ],
)
def test_simplex_sampler_refuses_out_of_range_arguments(n, p_total, trials):
    with pytest.raises(ParameterOutOfRange):
        sample_simplex(n, p_total, trials, np.random.default_rng(0))


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


# The check scales the vector clear of underflow, and so does analyze's
# entropy for a total below 1/2, so the check passes on each, although
# 0.1.0's entropy terms p * log2 p of the last two are all subnormal.
@pytest.mark.parametrize(
    "probs", [(5e-324,), (5e-324, 0.0, 0.0), (1e-320, 1e-320), (3e-320, 1e-320)]
)
def test_cross_check_on_subnormal_terms_ends_in_a_result(probs):
    # It must return a result, with no NaN in it.
    res = cross_check_report(from_probabilities(probs))
    assert res.residual >= 0.0 and res.value_found == res.residual
    assert res.passed


def test_rel_treats_infinities_as_analyze_does():
    assert _rel(math.inf, math.inf) == 0.0
    assert _rel(math.inf, 1e308) == math.inf
    assert _rel(2.0, math.inf) == math.inf
    assert _rel(math.nan, math.nan) == math.inf
    assert _rel(3.0, 1.0) == 2.0 / 3.0


class _NoDraws:
    """An rng whose every draw fails the test."""

    def standard_exponential(self, shape):
        raise AssertionError(f"drew {shape}")


@pytest.mark.parametrize(
    "n, trials", [(2**60, 1), (sys.maxsize, 1), (3, 10**20), (2**30, 2**30)]
)
def test_a_draw_past_numpy_array_size_is_refused_before_numpy_draws(n, trials):
    # numpy itself would raise an untyped ValueError ("array is too big").
    with pytest.raises(
        ParameterOutOfRange,
        match=rf"^need n \* trials <= {sys.maxsize // 8} values in one array, got {n} \* {trials}$",
    ):
        sample_simplex(n, 1.0, trials, _NoDraws())


def test_mc_refuses_a_vector_past_numpy_array_size():
    # One vector per chunk at this n: the first chunk is refused.
    with pytest.raises(
        ParameterOutOfRange, match=rf"^need n \* trials <= \d+ values in one array, got {2**60} \* 1$"
    ):
        mc_max_variance(2**60, 1.0, 5, 0)


@pytest.mark.parametrize("trials", [oracle._MC_MAX_TRIALS + 1, 10**20])
def test_mc_refuses_trials_past_its_work_bound_before_it_draws(monkeypatch, trials):
    calls = []
    monkeypatch.setattr(oracle, "sample_simplex", lambda *args: calls.append(args))
    with pytest.raises(ParameterOutOfRange, match=rf"^need trials <= {10**9}, got {trials}$"):
        mc_max_variance(3, 1.0, trials, 0)
    assert calls == []


@pytest.mark.parametrize("n", [sys.maxsize + 1, 2**63])
def test_an_n_past_the_index_range_is_refused_before_numpy_draws(n):
    with pytest.raises(ParameterOutOfRange, match=rf"^need n <= {sys.maxsize}, got {n}$"):
        sample_simplex(n, 1.0, 1, np.random.default_rng(0))
    with pytest.raises(ParameterOutOfRange, match=rf"^need n <= {sys.maxsize}, got {n}$"):
        mc_max_variance(n, 1.0, 1, 0)
