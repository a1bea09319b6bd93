"""Unit tests for the distribution constructors and binomial sweeps."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import (
    analyze,
    binomial,
    coefficient_of_variation,
    degenerate,
    equivalent_number_d,
    from_counts,
    from_probabilities,
    shannon_entropy,
    sweep_binomial,
    uniform,
)
from equivar.errors import (
    AllZeroCounts,
    EmptyInput,
    IndexOutOfRange,
    ParameterOutOfRange,
    SumExceedsOne,
    ZeroSize,
)
from equivar.indicators import TOL_SUM

from conftest import A64_PROBS


def exact_binomial_pmf(n: int, p: float) -> list[Fraction]:
    """Independent pmf oracle in exact rational arithmetic."""
    fp = Fraction(p)
    fq = 1 - fp
    return [math.comb(n, k) * fp**k * fq ** (n - k) for k in range(n + 1)]


def ulps_off(got: float, n: int, k: int, p: float, q: float) -> float:
    """Distance of got from C(n, k) * p**k * q**(n-k), exact, in ulps of the latter.

    p and q are dyadic, so the exact term is an integer over a power of two
    and the whole comparison stays in integers.
    """
    a, da = p.as_integer_ratio()
    b, db = q.as_integer_ratio()
    num = math.comb(n, k) * a**k * b ** (n - k)
    den = da**k * db ** (n - k)
    un, ud = math.ulp(num / den).as_integer_ratio()
    gn, gd = got.as_integer_ratio()
    return abs(gn * den - num * gd) * ud / (gd * den * un)


# ----------------------------------------------------------------------
# constructors


def test_from_probabilities():
    d = from_probabilities((0.5, 0.5))
    assert d.n == 2
    with pytest.raises(SumExceedsOne):
        from_probabilities((0.7, 0.4))
    a64 = from_probabilities(A64_PROBS)
    assert a64.n == 8
    assert math.fsum(a64.probs) == pytest.approx(0.9798, abs=1e-15)


def test_from_counts():
    assert from_counts((1, 1)).probs == (0.5, 0.5)
    assert from_counts((3, 1)).probs == (0.75, 0.25)
    with pytest.raises(AllZeroCounts):
        from_counts((0, 0))
    with pytest.raises(EmptyInput):
        from_counts(())
    with pytest.raises(ParameterOutOfRange):
        from_counts((2, -1))


def test_uniform():
    assert uniform(2).probs == (0.5, 0.5)
    assert uniform(6).probs == (1 / 6,) * 6
    assert uniform(1).probs == (1.0,)
    with pytest.raises(ZeroSize):
        uniform(0)


def test_degenerate():
    assert degenerate(2, 0).probs == (1.0, 0.0)
    assert degenerate(1, 0).probs == (1.0,)
    rep = analyze(degenerate(8, 3))
    assert rep.equiv_number_g == 8.0
    assert rep.equiv_number_d == 1.0
    assert rep.entropy_bits == 0.0
    with pytest.raises(ZeroSize):
        degenerate(0, 0)
    with pytest.raises(IndexOutOfRange):
        degenerate(3, 3)


# ----------------------------------------------------------------------
# binomial


def test_binomial_small_cases():
    assert binomial(1, 0.5).probs == (0.5, 0.5)
    d = binomial(2, 0.5)
    assert d.probs == (0.25, 0.5, 0.25)
    assert equivalent_number_d(d) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_binomial_endpoints_are_exact():
    d = binomial(50, 0.0)
    assert d.probs[0] == 1.0 and all(p == 0.0 for p in d.probs[1:])
    assert shannon_entropy(d) == 0.0
    assert coefficient_of_variation(d) == math.sqrt(50)
    d = binomial(50, 1.0)
    assert d.probs[-1] == 1.0 and all(p == 0.0 for p in d.probs[:-1])


def test_binomial_rejects_bad_parameters():
    with pytest.raises(ZeroSize):
        binomial(0, 0.5)
    for bad in (-0.1, 1.1, float("nan")):
        with pytest.raises(ParameterOutOfRange):
            binomial(5, bad)


def test_binomial_sums_to_one_across_grid():
    for n in (1, 2, 5, 10, 50):
        for i in range(101):
            d = binomial(n, i / 100)
            assert abs(math.fsum(d.probs) - 1.0) <= 1e-12


def test_binomial_matches_exact_rational_pmf():
    for n in (2, 10, 50):
        for p in (0.01, 0.3, 0.5, 0.93):
            got = binomial(n, p).probs
            want = exact_binomial_pmf(n, p)
            for g, w in zip(got, want):
                assert g == pytest.approx(float(w), rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("n", [1, 2, 10, 100, 1000, 1029, 1030, 1100, 2000, 10000])
def test_central_binomial_equivalent_number_d(n):
    # sum(C(n,k)^2) = C(2n,n), so D(B(n, 1/2)) = 4^n / C(2n, n) exactly.
    want = Fraction(4**n, math.comb(2 * n, n))
    got = equivalent_number_d(binomial(n, 0.5))
    assert abs(Fraction(got) - want) <= Fraction(1, 10**12) * want


@given(
    st.integers(min_value=1, max_value=1029),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(1029, 0.5)
@example(1029, 0.0)
@example(1029, 1.0)
@example(1, 0.5)
@settings(max_examples=150, deadline=None)
def test_binomial_bits_match_per_term_comb(n, p):
    # Every coefficient of n <= 1029 fits a float, so the running
    # coefficient gives 0.1.0's bits (math.comb per term).
    got = binomial(n, p).probs
    q = 1.0 - p
    mode = round(n * p)
    ks = set(range(0, n + 1, max(1, n // 64))) | {n}
    ks |= set(range(max(0, mode - 8), min(n, mode + 8) + 1))
    for k in sorted(ks):
        want = math.comb(n, k) * p**k * q ** (n - k)
        assert got[k].hex() == want.hex(), (n, p, k)


@pytest.mark.parametrize("n", [1030, 1100, 2000])
@pytest.mark.parametrize("p", [0.5, 0.3, 0.01, 0.93])
def test_binomial_large_n_terms_within_4_ulp(n, p):
    # The reference is the exact value for the float q = 1.0 - p the pmf
    # uses: that subtraction is rounded for p < 1/2, and its rounding,
    # raised to the power n - k, moves the terms of the true B(n, 0.3) by up
    # to ~1000 ulps at n = 2000, in 0.1.0's expression as well.
    got = binomial(n, p).probs
    top = max(got)
    for k, g in enumerate(got):
        if g >= top / 2**52:
            err = ulps_off(g, n, k, p, 1.0 - p)
            assert err <= 4, (n, p, k, err)


def test_binomial_large_n_sums_to_one_across_grid():
    for i in range(21):
        d = binomial(1100, i / 20)
        assert abs(math.fsum(d.probs) - 1.0) <= TOL_SUM


# ----------------------------------------------------------------------
# sweeps


def test_sweep_small_grid():
    points = sweep_binomial((1,), 3)
    assert [(pt.n, pt.p) for pt in points] == [(1, 0.0), (1, 0.5), (1, 1.0)]
    mid = points[1].report
    assert mid.entropy_bits == 1.0
    assert mid.avg_number_f == 2.0


def test_sweep_shape_and_order():
    points = sweep_binomial((1, 2, 5, 10, 50), 101)
    assert len(points) == 505
    # row-major: n outer, p inner
    assert [pt.n for pt in points[:101]] == [1] * 101
    assert points[101].n == 2 and points[101].p == 0.0
    for pt in points:
        assert pt.report.n_outcomes == pt.n + 1
        assert abs(pt.report.p_total - 1.0) <= 1e-12


def test_sweep_mirror_symmetry():
    points = sweep_binomial((1, 2, 5, 10), 21)
    by_np = {(pt.n, round(pt.p * 20)): pt.report for pt in points}
    for (n, i), rep in by_np.items():
        mirror = by_np[(n, 20 - i)]
        for field in ("cv", "entropy_bits", "avg_number_f", "equiv_number_d",
                      "equiv_number_g"):
            assert getattr(rep, field) == pytest.approx(
                getattr(mirror, field), rel=1e-10, abs=1e-10
            )


def test_sweep_entropy_monotone_in_n_at_half():
    values = [analyze(binomial(n, 0.5)).entropy_bits for n in range(1, 51)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_sweep_rejects_bad_steps():
    with pytest.raises(ParameterOutOfRange):
        sweep_binomial((1, 2), 1)
    with pytest.raises(ZeroSize):
        sweep_binomial((0,), 3)
