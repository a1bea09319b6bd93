"""Unit tests for the scalar indicators, their identities, and their bounds."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equivar import (
    Distribution,
    analyze,
    average_number_f,
    coefficient_of_variation,
    degenerate,
    duality_check,
    equivalent_number_d,
    equivalent_number_g,
    from_probabilities,
    mean_probability,
    reference_variance,
    relative_cv,
    relative_entropy_h,
    renyi1_entropy,
    shannon_entropy,
    total_probability,
    uniform,
    variance,
)
from equivar.errors import (
    AllImpossible,
    EmptyInput,
    LabelLengthMismatch,
    NegativeProbability,
    NonFinite,
    ProbabilityAboveOne,
    SumExceedsOne,
)
from equivar.indicators import TOL_SUM, _moments

from conftest import A64_PROBS, A86_PROBS, random_distribution

RTOL = 1e-12


# ----------------------------------------------------------------------
# construction and validation


def test_valid_construction_with_labels():
    d = Distribution((0.5, 0.5), ("heads", "tails"))
    assert d.n == 2
    assert d.labels == ("heads", "tails")


def test_incomplete_vector_is_first_class():
    d = from_probabilities(A86_PROBS)
    assert total_probability(d) == pytest.approx(0.9725, abs=1e-15)


@pytest.mark.parametrize(
    "probs, exc",
    [
        ((), EmptyInput),
        ((-0.1, 0.5), NegativeProbability),
        ((1.2,), ProbabilityAboveOne),
        ((0.7, 0.4), SumExceedsOne),
        ((float("nan"), 0.5), NonFinite),
        ((float("inf"),), NonFinite),
    ],
)
def test_construction_rejects_invalid_vectors(probs, exc):
    with pytest.raises(exc):
        Distribution(probs)


def test_label_length_mismatch():
    with pytest.raises(LabelLengthMismatch):
        Distribution((0.5, 0.5), ("only-one",))


def test_sum_slack_is_tolerated():
    # 1 + 5e-10 is within the 1e-9 validation slack
    Distribution((0.5, 0.5 + 5e-10))
    with pytest.raises(SumExceedsOne):
        Distribution((0.5, 0.5 + 5e-9))


# ----------------------------------------------------------------------
# moments


def test_total_probability_complete():
    assert total_probability(Distribution((0.5, 0.5))) == 1.0


def test_total_probability_observed_areas(a64, a86):
    assert total_probability(a64) == pytest.approx(0.9798, abs=1e-15)
    assert total_probability(a86) == pytest.approx(0.9725, abs=1e-15)


def test_mean_probability(a64, a86):
    assert mean_probability(Distribution((0.5, 0.5))) == 0.5
    assert mean_probability(a86) == pytest.approx(0.1215625, abs=1e-15)
    assert mean_probability(a64) == pytest.approx(0.122475, abs=1e-15)


def test_variance_hand_cases():
    assert variance(Distribution((0.5, 0.5))) == 0.0
    assert variance(Distribution((1.0, 0.0))) == 0.25
    # (1/2)(0.25) - 0.0625, exact in binary floats
    assert variance(Distribution((0.5, 0.0))) == 0.0625


def test_reference_variance_cases():
    assert reference_variance(Distribution((1.0, 0.0))) == 0.25
    # equals the variance of the degenerate incomplete vector itself
    assert reference_variance(Distribution((0.5, 0.0))) == 0.0625
    assert reference_variance(uniform(3)) == pytest.approx(2.0 / 9.0, rel=RTOL)


def test_variance_never_exceeds_reference():
    rng = np.random.default_rng(101)
    for _ in range(300):
        n = int(rng.integers(1, 17))
        pt = float(rng.choice([0.25, 0.5, 0.9725, 1.0]))
        d = random_distribution(rng, n, pt)
        assert variance(d) <= reference_variance(d) + 1e-12


# ----------------------------------------------------------------------
# coefficient of variation


def test_cv_uniform_is_exactly_zero():
    for n in range(1, 17):
        assert coefficient_of_variation(uniform(n)) == 0.0


def test_cv_degenerate_is_sqrt_n_minus_1():
    assert coefficient_of_variation(degenerate(8)) == math.sqrt(7)
    assert coefficient_of_variation(degenerate(2)) == 1.0


def test_cv_observed_areas(a64, a86):
    # golden values frozen from independent recomputation
    assert coefficient_of_variation(a86) == pytest.approx(0.12915, abs=5e-5)
    assert coefficient_of_variation(a64) == pytest.approx(1.60272, abs=5e-5)


def test_cv_binomial_one_trial():
    d = Distribution((0.7, 0.3))
    assert coefficient_of_variation(d) == pytest.approx(0.4, abs=1e-12)


def test_cv_equals_sigma_over_mean():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = random_distribution(rng, int(rng.integers(2, 17)))
        pbar = math.fsum(d.probs) / d.n
        sigma = math.sqrt(math.fsum((p - pbar) ** 2 for p in d.probs) / d.n)
        assert coefficient_of_variation(d) == pytest.approx(sigma / pbar, rel=RTOL)


def test_cv_all_impossible():
    with pytest.raises(AllImpossible):
        coefficient_of_variation(Distribution((0.0, 0.0)))


def test_relative_cv():
    assert relative_cv(degenerate(8)) == 1.0
    assert relative_cv(uniform(1)) == 0.0  # singleton convention
    a86 = from_probabilities(A86_PROBS)
    assert relative_cv(a86) == pytest.approx(0.0488, abs=2e-4)
    a64 = from_probabilities(A64_PROBS)
    assert 0.59 <= relative_cv(a64) <= 0.61


def test_relative_cv_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(200):
        d = random_distribution(
            rng, int(rng.integers(2, 17)), float(rng.uniform(0.1, 1.0))
        )
        assert 0.0 <= relative_cv(d) <= 1.0


# ----------------------------------------------------------------------
# entropy family


def test_shannon_unit_and_limits():
    assert shannon_entropy(Distribution((0.5, 0.5))) == 1.0
    for n in (1, 2, 8, 16):
        assert shannon_entropy(degenerate(n)) == 0.0
    assert shannon_entropy(uniform(8)) == pytest.approx(3.0, rel=RTOL)


def test_renyi1_reduces_to_shannon_when_complete():
    d = Distribution((0.5, 0.5))
    assert renyi1_entropy(d) == shannon_entropy(d) == 1.0


def test_renyi1_observed_areas(a64, a86):
    assert renyi1_entropy(a86) == pytest.approx(3.03, abs=0.01)
    assert renyi1_entropy(a64) == pytest.approx(1.59, abs=0.01)


def test_renyi1_all_impossible():
    with pytest.raises(AllImpossible):
        renyi1_entropy(Distribution((0.0,)))


def test_relative_entropy_h(a64):
    assert relative_entropy_h(uniform(8)) == 1.0
    assert relative_entropy_h(degenerate(8)) == 0.0
    assert relative_entropy_h(uniform(1)) == 0.0
    # frozen from independent recomputation: 1.591281069745893 / 3
    assert relative_entropy_h(a64) == pytest.approx(0.530427023248631, rel=RTOL)
    assert relative_entropy_h(a64) == pytest.approx(0.53, abs=0.005)


def test_entropy_monotone_in_uniform_size():
    values = [shannon_entropy(uniform(n)) for n in range(1, 65)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ----------------------------------------------------------------------
# equivalent numbers


def test_average_number_f():
    assert average_number_f(uniform(6)) == pytest.approx(6.0, rel=RTOL)
    a86 = from_probabilities(A86_PROBS)
    assert average_number_f(a86) == pytest.approx(8.16, abs=0.02)
    a64 = from_probabilities(A64_PROBS)
    assert average_number_f(a64) == pytest.approx(3.01, abs=0.02)


def test_equivalent_number_g():
    for n in (1, 2, 8, 16):
        assert equivalent_number_g(uniform(n)) == 1.0
    assert equivalent_number_g(degenerate(8)) == 8.0
    a64 = from_probabilities(A64_PROBS)
    assert equivalent_number_g(a64) == pytest.approx(3.57, abs=0.02)
    a86 = from_probabilities(A86_PROBS)
    # golden value from independent recomputation: 1.0167
    assert equivalent_number_g(a86) == pytest.approx(1.017, abs=0.01)


def test_equivalent_number_d():
    assert equivalent_number_d(Distribution((0.5, 0.5))) == 2.0
    a86 = from_probabilities(A86_PROBS)
    assert equivalent_number_d(a86) == pytest.approx(8.32, abs=0.01)
    a64 = from_probabilities(A64_PROBS)
    assert equivalent_number_d(a64) == pytest.approx(2.33, abs=0.01)
    d = Distribution((0.25, 0.5, 0.25))
    assert equivalent_number_d(d) == pytest.approx(8.0 / 3.0, rel=RTOL)
    with pytest.raises(AllImpossible):
        equivalent_number_d(Distribution((0.0, 0.0)))


def test_incomplete_numbers_may_exceed_n(a86):
    assert equivalent_number_d(a86) > 8
    assert average_number_f(a86) > 8


def test_g_is_cv_squared_plus_one():
    rng = np.random.default_rng(23)
    for _ in range(200):
        d = random_distribution(
            rng, int(rng.integers(1, 17)), float(rng.uniform(0.1, 1.0))
        )
        cv = coefficient_of_variation(d)
        g = equivalent_number_g(d)
        assert g - 1.0 == pytest.approx(cv * cv, rel=RTOL, abs=1e-15)


# ----------------------------------------------------------------------
# duality


def test_duality_simple_cases(a86):
    product, residual = duality_check(Distribution((0.5, 0.5)))
    assert product == 2.0 and residual < 1e-12

    product, residual = duality_check(Distribution((0.7, 0.3)))
    assert product == pytest.approx(2.0, rel=RTOL) and residual < 1e-12

    product, residual = duality_check(a86)
    assert product == pytest.approx(8.0 / 0.9725**2, rel=RTOL)
    assert residual < 1e-12


def test_indicators_beyond_float_range_answer_with_infinity():
    # valid vectors with denormal-small mass push 1/sum(p^2) past the float
    # range; the identities still hold and nothing raises
    tiny = Distribution((1e-300, 1e-300))
    assert equivalent_number_d(tiny) == math.inf
    rep = analyze(tiny)
    assert rep.equiv_number_d == math.inf
    assert rep.equiv_number_g == 1.0
    assert rep.duality_residual <= 1e-12
    product, residual = duality_check(tiny)
    assert product == math.inf and residual <= 1e-12
    assert average_number_f(Distribution((5e-324, 5e-324))) == math.inf


def test_duality_residual_bounded_everywhere():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(1, 17))
        pt = float(rng.choice([0.25, 0.5, 0.9725, 1.0]))
        d = random_distribution(rng, n, pt)
        _, residual = duality_check(d)
        assert residual <= 1e-12
        assert analyze(d).duality_residual <= 1e-12


# ----------------------------------------------------------------------
# analyze and report-level invariants


def test_analyze_uniform_8():
    rep = analyze(uniform(8))
    assert rep.cv == 0.0
    assert rep.entropy_bits == pytest.approx(3.0, rel=RTOL)
    assert rep.avg_number_f == pytest.approx(8.0, rel=RTOL)
    assert rep.equiv_number_d == pytest.approx(8.0, rel=RTOL)
    assert rep.equiv_number_g == 1.0


def test_analyze_propagates_all_impossible():
    with pytest.raises(AllImpossible):
        analyze(Distribution((0.0, 0.0, 0.0)))


def test_uniform_and_degenerate_extremes():
    for n in range(2, 17):
        u = analyze(uniform(n))
        assert u.cv == 0.0
        assert u.equiv_number_d == pytest.approx(n, rel=RTOL)
        assert u.avg_number_f == pytest.approx(n, rel=RTOL)
        assert u.equiv_number_g == 1.0
        g = analyze(degenerate(n))
        assert g.entropy_bits == 0.0
        assert g.avg_number_f == 1.0
        assert g.equiv_number_d == 1.0
        assert g.equiv_number_g == pytest.approx(n, rel=RTOL)
        assert g.cv == pytest.approx(math.sqrt(n - 1), rel=RTOL)


def test_complete_report_ranges():
    rng = np.random.default_rng(47)
    slack = 1e-9
    for _ in range(300):
        n = int(rng.integers(1, 17))
        rep = analyze(random_distribution(rng, n, 1.0))
        assert 1.0 - slack <= rep.avg_number_f <= n + slack
        assert 1.0 - slack <= rep.equiv_number_d <= n + slack
        assert 0.0 <= rep.cv <= math.sqrt(n - 1) + slack
        assert 0.0 <= rep.entropy_bits <= math.log2(n) + slack


def test_base_invariance_of_f():
    rng = np.random.default_rng(59)
    dists = [random_distribution(rng, int(rng.integers(1, 17))) for _ in range(100)]
    dists += [uniform(n) for n in range(1, 17)] + [from_probabilities(A64_PROBS)]
    for d in dists:
        f_bits = 2.0 ** renyi1_entropy(d)
        pt = math.fsum(d.probs)
        h_nats = -math.fsum(p * math.log(p) for p in d.probs if p > 0) / pt
        assert f_bits == pytest.approx(math.exp(h_nats), rel=RTOL)


# ----------------------------------------------------------------------
# structural properties (hypothesis)


@st.composite
def distributions(draw, min_n=1, max_n=12):
    n = draw(st.integers(min_n, max_n))
    weights = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        ).filter(lambda w: sum(w) > 1e-6)
    )
    scale = draw(st.floats(0.05, 1.0))
    total = math.fsum(weights)
    return from_probabilities(w / total * scale for w in weights)


@given(distributions(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_permutation_leaves_indicators_unchanged(dist, rnd):
    probs = list(dist.probs)
    rnd.shuffle(probs)
    assert analyze(from_probabilities(probs)) == analyze(dist)


@given(distributions())
@settings(max_examples=150, deadline=None)
def test_zero_padding_property(dist):
    padded = from_probabilities(list(dist.probs) + [0.0])
    before, after = analyze(dist), analyze(padded)
    # unchanged: entropy and the uniform-equivalent numbers
    assert after.entropy_bits == before.entropy_bits
    assert after.avg_number_f == before.avg_number_f
    assert after.equiv_number_d == before.equiv_number_d
    # changed as the formulas dictate: N, mean, CV, G move with the new size
    assert after.n_outcomes == before.n_outcomes + 1
    cv = coefficient_of_variation(padded)
    assert after.equiv_number_g - 1.0 == pytest.approx(cv * cv, rel=RTOL, abs=1e-15)


@given(distributions())
@settings(max_examples=150, deadline=None)
def test_duality_property(dist):
    assert analyze(dist).duality_residual <= 1e-12


@given(distributions(min_n=2))
@settings(max_examples=150, deadline=None)
def test_closed_form_matches_deviation_form(dist):
    pbar = math.fsum(dist.probs) / dist.n
    sigma = math.sqrt(math.fsum((p - pbar) ** 2 for p in dist.probs) / dist.n)
    lhs = coefficient_of_variation(dist)
    rhs = sigma / pbar
    assert abs(lhs - rhs) / max(1.0, lhs, rhs) <= 1e-12


# ----------------------------------------------------------------------
# the extremes validation keeps for the moment kernel


@st.composite
def accepted_vectors(draw):
    """Vectors validation accepts: zero-padded, subnormal, totals just past 1."""
    values = draw(
        st.lists(
            st.floats(0.0, 1.0) | st.sampled_from([5e-324, 1e-310, 2.2e-308]),
            min_size=1,
            max_size=16,
        )
    )
    total = math.fsum(values)
    if total > 1.0 or (total > 0.0 and draw(st.booleans())):
        # Rescaled to a total in [0.05, 1], or to one just below 1 + TOL_SUM:
        # the plain-sum test rejects those, so they are accepted through fsum.
        top = 1.0 + TOL_SUM
        target = draw(st.floats(0.05, 1.0) | st.floats(top - 2.0**-48, top))
        values = [v / total * target for v in values]
    values += [0.0] * draw(st.integers(0, 3))
    values = draw(st.permutations(values))
    try:
        return Distribution(values)
    except (SumExceedsOne, ProbabilityAboveOne):  # rounded past the bounds
        assume(False)


# Past the plain-sum test's margin, so accepted only through fsum.
FSUM_ACCEPTED = [0.5, 0.5 + TOL_SUM, 0.0]


def test_the_fsum_example_is_past_the_plain_sum_test():
    total = sum(FSUM_ACCEPTED)
    assert total * (1.0 + len(FSUM_ACCEPTED) * 2.0**-52) > 1.0 + TOL_SUM
    assert math.fsum(FSUM_ACCEPTED) <= 1.0 + TOL_SUM


@given(accepted_vectors())
@settings(max_examples=300, deadline=None)
@example(Distribution(FSUM_ACCEPTED))
@example(Distribution([0.0, 0.0]))
@example(Distribution([-0.0, 0.5]))
@example(Distribution([5e-324, 0.0, 1e-310]))
@example(Distribution([0.5, 1e-300, 0.0, 5e-324]))  # several exponent windows
def test_kept_extremes_are_the_scanned_ones_and_move_no_moment(dist):
    probs = dist.probs
    assert dist._extremes == (min(probs), max(probs))
    assert _moments(probs, dist._extremes) == _moments(probs)


def _count_scans(monkeypatch) -> dict:
    """Count min() and max() over one iterable in equivar.indicators.

    Two-argument calls such as max(e, -1074) compare, they do not scan.
    """
    import equivar.indicators as ind

    scans = {"min": 0, "max": 0}

    def counting(name, builtin):
        def wrapper(*args, **kwargs):
            if len(args) == 1:
                scans[name] += 1
            return builtin(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(ind, "min", counting("min", min), raising=False)
    monkeypatch.setattr(ind, "max", counting("max", max), raising=False)
    return scans


@pytest.mark.parametrize(
    "probs, scans",
    [
        (A64_PROBS, {"min": 1, "max": 1}),
        ([0.5, 0.25, 1e-30, 1e-300], {"min": 1, "max": 1}),  # exponent windows
        # Zeros are dropped in the kernel, which then finds the non-zero minimum.
        ([0.5, 0.0, 0.25], {"min": 2, "max": 1}),
    ],
    ids=["zero-free", "zero-free-wide", "zero-padded"],
)
def test_validation_alone_scans_a_vector_for_its_extremes(monkeypatch, probs, scans):
    seen = _count_scans(monkeypatch)
    dist = from_probabilities(probs)
    assert seen == {"min": 1, "max": 1}
    analyze(dist)
    assert seen == scans
    for view in (mean_probability, variance, reference_variance, duality_check):
        before = dict(seen)
        view(dist)
        assert seen["max"] == before["max"]
        assert seen["min"] - before["min"] == scans["min"] - 1
