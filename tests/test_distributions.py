"""Unit tests for the distribution constructors and binomial sweeps."""

import math
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import (
    Distribution,
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
    NonNumericProbability,
    ParameterOutOfRange,
    SumExceedsOne,
    ValidationFailure,
    ZeroSize,
)
from equivar import distributions
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
    with pytest.raises(ParameterOutOfRange, match=r"^count 1 is 1\.5, need"):
        from_counts((2, 1.5))
    with pytest.raises(ParameterOutOfRange, match=r"^count 1 is nan, need"):
        from_counts((2, math.nan))
    with pytest.raises(ParameterOutOfRange, match=r"^count 0 is inf, need"):
        from_counts((math.inf, 2))


def test_from_counts_divides_whole_counts_exactly():
    # The total of these float counts is past the float range.
    assert from_counts([1e308, 1e308]).probs == (0.5, 0.5)
    # 2**54 + 2 has no float; int / int rounds 2**54 / (2**54 + 2) once.
    assert from_counts([2.0**54, 1.0, 1.0]).probs[0] == 1.0 - 2.0**-53


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: from_probabilities(["x"]), NonNumericProbability,
         "probability 0 is not a number: 'x'"),
        (lambda: from_probabilities([0.5, None]), NonNumericProbability,
         "probability 1 is not a number: None"),
        (lambda: from_probabilities([1 + 0j]), NonNumericProbability,
         "probability 0 is not a number: (1+0j)"),
        (lambda: from_probabilities([0.5, 10**400]), NonNumericProbability,
         "probability 1 is past the float range"),
        (lambda: from_counts([None, 1]), ParameterOutOfRange,
         "count 0 is None, need a non-negative integer"),
        (lambda: Distribution((0.5, 0.5), labels=5), ValidationFailure,
         "labels must be iterable, got 5"),
        (lambda: from_probabilities((0.5, 0.5), labels=5), ValidationFailure,
         "labels must be iterable, got 5"),
        (lambda: Distribution(0.5), ValidationFailure,
         "probabilities must be an iterable of numbers, got 0.5"),
        (lambda: from_probabilities(5), ValidationFailure,
         "probabilities must be an iterable of numbers, got 5"),
        (lambda: from_probabilities(p for p in [0.5, "x"]), NonNumericProbability,
         "probability 1 is not a number: 'x'"),
        (lambda: Distribution(p for p in [0.5, "x"]), NonNumericProbability,
         "probability 1 is not a number: 'x'"),
        (lambda: sweep_binomial(5, 3), ParameterOutOfRange,
         "need an iterable of trial counts, got 5"),
        (lambda: from_counts(5), ParameterOutOfRange,
         "need an iterable of counts, got 5"),
    ],
    ids=["string", "none", "complex", "huge-int", "none-count", "labels", "labels-via-from",
         "scalar", "scalar-via-from", "generator", "generator-direct", "scalar-ns",
         "scalar-counts"],
)
def test_non_numeric_input_raises_a_typed_error(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert str(info.value) == message


def test_uniform():
    assert uniform(2).probs == (0.5, 0.5)
    assert uniform(6).probs == (1 / 6,) * 6
    assert uniform(1).probs == (1.0,)
    with pytest.raises(ZeroSize):
        uniform(0)
    with pytest.raises(ParameterOutOfRange, match=r"^need an integer n, got 2\.5$"):
        uniform(2.5)


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
    with pytest.raises(IndexOutOfRange, match=r"^need an integer sure_index, got 1\.5$"):
        degenerate(3, 1.5)
    with pytest.raises(ParameterOutOfRange, match=r"^need an integer n, got 2\.5$"):
        degenerate(2.5)
    assert degenerate(3, True).probs == (0.0, 1.0, 0.0)  # anything operator.index takes


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
    with pytest.raises(ParameterOutOfRange, match=r"^need an integer n, got 2\.5$"):
        binomial(2.5, 0.5)
    for bad in (-0.1, 1.1, float("nan"), "0.5", None, 1j):
        with pytest.raises(ParameterOutOfRange, match=r"^need 0 <= p <= 1, got "):
            binomial(5, bad)


@pytest.mark.parametrize(
    "p",
    [Decimal("0.3"), Decimal("-0"), Fraction(1, 3), Fraction(1, 10**400),
     Fraction(2**60 - 1, 2**60), np.float64(0.3), np.float64(-0.0)],
    ids=["decimal", "decimal-minus-zero", "fraction", "fraction-tiny", "fraction-near-one",
         "float64", "float64-minus-zero"],
)
@pytest.mark.parametrize("n", [5, 1100])
def test_binomial_reads_a_real_p_as_the_equal_float(n, p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _hex(binomial(n, p).probs)
    distributions._power_table.cache_clear()
    assert got == _hex(binomial(n, float(p)).probs)


@pytest.mark.parametrize(
    "bad",
    [Decimal("sNaN"), Decimal("2"), 10**400, Fraction(-1, 10**400)],
    ids=["decimal-snan", "decimal-two", "huge-int", "fraction-below-zero"],
)
def test_binomial_refuses_a_real_p_out_of_range(bad):
    with pytest.raises(ParameterOutOfRange, match=r"^need 0 <= p <= 1, got "):
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
@example(7, -0.0)  # odd-k terms are -0.0, as in 0.1.0
@example(1029, -0.0)
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


@pytest.mark.parametrize("n", [1, 1100, 2000])
def test_binomial_endpoints_are_one_sure_outcome_bit_for_bit(n):
    sure_first = (1.0,) + (0.0,) * n
    assert _hex(binomial(n, 0.0).probs) == _hex(sure_first)
    assert _hex(binomial(n, 1.0).probs) == _hex(sure_first[::-1])


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
    with pytest.raises(ParameterOutOfRange, match=r"^need an integer p_steps, got 3\.0$"):
        sweep_binomial((1, 2), 3.0)
    with pytest.raises(ParameterOutOfRange, match=r"^need an integer n, got 2\.5$"):
        sweep_binomial((2.5,), 3)
    with pytest.raises(ZeroSize):
        sweep_binomial((0,), 3)


# ----------------------------------------------------------------------
# the cached coefficient row


def _hex(probs):
    return [float(x).hex() for x in probs]


def _fresh(n, p):
    distributions._coefficients.cache_clear()
    return _hex(binomial(n, p).probs)


def test_interleaved_calls_give_fresh_bits():
    n1, n2, p = 37, 1050, 0.3
    first = _hex(binomial(n1, p).probs)
    points = sweep_binomial([n1, n2, n1], 5)
    mid = _hex(binomial(n2, p).probs)
    again = _hex(binomial(n1, p).probs)
    assert first == again == _fresh(n1, p)
    assert mid == _fresh(n2, p)
    for pt in points:
        reports = (pt.report, analyze(binomial(pt.n, pt.p)))
        distributions._coefficients.cache_clear()
        fresh = analyze(binomial(pt.n, pt.p))
        for rep in reports:
            assert _hex(rep.to_dict().values()) == _hex(fresh.to_dict().values())


def _pow_frexp(x, k):
    m, e = math.frexp(x)
    mant, exp = 1.0, e * k
    while k:
        j = min(k, 1000)
        mant, r = math.frexp(mant * m**j)
        exp += r
        k -= j
    return mant, exp


def _big_term(c, p, k, q, m):
    """equivar's term for an integer coefficient past the float range, as
    it was computed before the row was cached."""
    s = c.bit_length() - 64
    cm = (c >> s) | bool(c & ((1 << s) - 1))
    pm, pe = _pow_frexp(p, k)
    qm, qe = _pow_frexp(q, m)
    return math.ldexp(cm * pm * qm, s + pe + qe)


@given(
    st.integers(min_value=1030, max_value=3000),
    st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0, 1]),
)
@example(1030, 0.5)
@example(1073, 0.5)  # C(1073, 413) rounds up to a double only through its sticky bit
@example(1031, 0.0)
@example(2999, 1.0)
@example(1100, 1)
@settings(max_examples=10, deadline=None)
def test_binomial_past_the_float_range_keeps_its_bits(n, p):
    got = binomial(n, p).probs
    q = 1.0 - p
    assert distributions._coefficients(n)[1]  # some coefficients are past the float range
    for k in range(n + 1):
        c = math.comb(n, k)
        try:
            want = c * p**k * q ** (n - k)
        except OverflowError:
            want = _big_term(c, p, k, q, n - k)
        assert got[k].hex() == want.hex(), (n, p, k)


def test_cached_row_is_small_numbers_only():
    binomial(20000, 0.5)
    info = distributions._coefficients.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    row, shifts = distributions._coefficients(20000)
    assert len(row) == 20001 and all(type(c) is float and math.isfinite(c) for c in row)
    assert shifts and all(type(s) is int and 0 < s.bit_length() <= 64 for s in shifts)
    # One shift per k past the float range, the run k = lo..n - lo, whose
    # row entries hold the coefficients' 64-bit sticky mantissas.
    lo = (20001 - len(shifts)) // 2
    assert row[lo - 1] == float(math.comb(20000, lo - 1))
    with pytest.raises(OverflowError):
        float(math.comb(20000, lo))
    for k in (lo, 10000, 20000 - lo):
        c, s = math.comb(20000, k), shifts[k - lo]
        assert s == c.bit_length() - 64 and row[k] == float((c >> s) | bool(c & ((1 << s) - 1)))


# ----------------------------------------------------------------------
# the power tables shared by mirror cells


def _clear_caches():
    distributions._coefficients.cache_clear()
    distributions._power_table.cache_clear()


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=3000),
            st.sampled_from([2, 3, 5, 7, 11, 101]),
            st.sampled_from([-0.0, 0.1, 0.25, 0.75, 0.9]) | st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=2,
    )
)
@example([(1050, 7, -0.0), (1050, 5, 0.75)])
@example([(3, 101, 0.7), (1031, 11, 0.9)])  # cells whose 1 - p is not the mirror point
@settings(max_examples=8, deadline=None)
def test_shared_power_tables_keep_every_bit(draws):
    # Calls run back to back, so each may read the tables the last one left;
    # the references are computed afterwards, each from cleared caches.
    singles, points = [], []
    for n, p_steps, p in draws:
        singles.append((n, p, _hex(binomial(n, p).probs)))
        points += sweep_binomial([n], p_steps)
    for n, p, got in singles:
        _clear_caches()
        assert got == _hex(binomial(n, p).probs), (n, p)
    for pt in points:
        _clear_caches()
        fresh = analyze(binomial(pt.n, pt.p))
        assert _hex(pt.report.to_dict().values()) == _hex(fresh.to_dict().values()), pt[:2]


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_big_terms_over_many_chunks_keep_their_bits(p):
    # At n = 20000 both p**k and q**(n - k) span two or more chunks of 1000
    # powers for every sampled k, on both sides of the mode.
    n = 20000
    q = 1.0 - p
    mode = round(n * p)
    got = binomial(n, p).probs
    ks = range(mode - 2400, mode + 2401, 96)
    assert min(ks) >= 2000 and n - max(ks) >= 2000
    assert sum(got[k] > 0.0 for k in ks) >= 40
    for k in ks:
        assert got[k].hex() == _big_term(math.comb(n, k), p, k, q, n - k).hex(), (p, k)


def test_caches_stay_bounded_after_a_sweep():
    sweep_binomial([1100, 40], 101)
    tables = distributions._power_table.cache_info()
    assert tables.maxsize == 2 and tables.currsize <= 2
    assert distributions._coefficients.cache_info().maxsize == 1
