"""Unit tests for the distribution constructors and binomial sweeps."""

import math
import sys
import threading
import tracemalloc
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


# The exact reference row carries each term as an integer cut to its top
# _CUT bits and a binary exponent kept apart.
_CUT = 256


def _cut(t: int, e: int) -> tuple[int, int]:
    """t * 2**e with t truncated to its top _CUT bits, the rest moved into e."""
    s = max(t.bit_length() - _CUT, 0)
    return t >> s, e + s


def _round_once(t: int, e: int) -> float:
    """t * 2**e rounded once to the nearest float, subnormals included."""
    if t.bit_length() + e <= -1075:  # below half the least subnormal
        return 0.0
    # int / int is correctly rounded, to a subnormal or 0.0 too.
    return t / (1 << -e) if e < 0 else float(t << e)


def reference_row(n: int, p: float, exact_q: bool) -> list[float]:
    """B(n, p) over k = 0..n for 0 < p < 1, each term rounded once.

    p = a / 2**alpha exactly. q is b / 2**beta: the exact 1 - p, with
    b = 2**alpha - a and beta = alpha, or with ``exact_q=False`` the float
    ``1.0 - p`` that binomial uses. q**n comes from square and multiply,
    and t(k + 1) = t(k) * (n - k) * a / ((k + 1) * b) * 2**(beta - alpha),
    each in integers cut to _CUT bits with the exponent kept apart, so a
    row costs O(n) small-integer steps at any n.

    Ties: each cut and each floor division lowers the value it carries by
    less than 2**-255 of it. q**n loses at most n * 2**-255 (a squaring
    doubles what its base lost and adds one cut), and each step two such
    losses more, so a carried term lies within 3n * 2**-255 < n * 2**-253
    (relative) below the exact one. It rounds as the exact term does unless
    that lies this close above a midpoint between two floats, or on one:
    such a term may take either neighbour. The rows the tests compare with
    exact fractions have none.
    """
    a, den = p.as_integer_ratio()
    alpha = den.bit_length() - 1
    if exact_q:
        b, beta = den - a, alpha
    else:
        b, den = (1.0 - p).as_integer_ratio()
        beta = den.bit_length() - 1
    t, e, x, ex, m = 1, 0, b, 0, n
    while m:
        if m & 1:
            t, e = _cut(t * x, e + ex)
        x, ex = _cut(x * x, 2 * ex)
        m >>= 1
    e -= beta * n
    row = [_round_once(t, e)]
    for k in range(n):
        num, div = t * (n - k) * a, (k + 1) * b
        s = max(_CUT + div.bit_length() - num.bit_length(), 0)  # a quotient of >= _CUT bits
        t, e = _cut((num << s) // div, e - s + beta - alpha)
        row.append(_round_once(t, e))
    return row


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
    _clear_power_tables()
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


# Every row but (50, 0.3) and (60, 0.999) ends in subnormal and zero terms.
@pytest.mark.parametrize("n, p", [(50, 0.3), (400, 0.01), (1029, 0.3), (300, 1e-5), (60, 0.999)])
@pytest.mark.parametrize("exact_q", [True, False], ids=["exact-q", "rounded-q"])
def test_reference_row_is_the_exact_row_rounded_once(n, p, exact_q):
    fp = Fraction(p)
    fq = 1 - fp if exact_q else Fraction(1.0 - p)
    term, want = fq**n, []
    for k in range(n + 1):
        want.append(float(term))  # Fraction -> float rounds once
        term = term * (n - k) / (k + 1) * fp / fq
    assert _hex(reference_row(n, p, exact_q)) == _hex(want)


def test_binomial_body_at_2e4_is_within_11_ulp_of_the_rounded_q_row():
    # README's figure for n = 2*10**4; the exact q moves the body ~10**4 ulp.
    n, p = 20000, 0.3
    got = binomial(n, p).probs
    top = max(got)
    body = [(g, w) for g, w in zip(got, reference_row(n, p, exact_q=False)) if g >= top / 2**52]
    assert len(body) > 1000
    assert max(abs(g - w) / math.ulp(w) for g, w in body) <= 11


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


def test_sweep_point_n_is_the_int_binomial_read():
    points = sweep_binomial([np.int64(3), True], 2)
    assert [(type(pt.n), pt.n) for pt in points] == [(int, 3), (int, 3), (int, 1), (int, 1)]


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
    # One sweep over several n (a table read again, grown, and read past
    # n = 1030) gives the cells of one sweep per n from cleared caches.
    ns = [1100, 7, 1030, 40]
    points = sweep_binomial(ns, 5)
    singles = []
    for n in ns:
        _clear_caches()
        singles += sweep_binomial([n], 5)
    assert [(pt.n, pt.p, _hex(pt.report)) for pt in points] == [
        (pt.n, pt.p, _hex(pt.report)) for pt in singles
    ]


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


@given(st.integers(min_value=1030, max_value=20000), st.integers(min_value=0))
@example(1073, 3)  # k = 413: C(1073, 413) rounds up to a double only through its sticky bit
@settings(max_examples=5, deadline=None)
def test_run_entries_are_the_sticky_cut_of_the_exact_coefficient(n, offset):
    # The reference computes the sticky bit from the dropped bits, which the
    # row takes to be 1 on the run (Kummer's theorem bounds the trailing zeros).
    row, shifts = distributions._coefficients(n)
    lo = (n + 1 - len(shifts)) // 2
    k = lo + offset % len(shifts)
    c, s = math.comb(n, k), shifts[k - lo]
    assert s == c.bit_length() - 64 and s >= 960
    assert row[k] == float((c >> s) | bool(c & ((1 << s) - 1))), (n, k)


# ----------------------------------------------------------------------
# the power tables shared by mirror cells


def _clear_power_tables():
    distributions._table.cache_clear()
    distributions._power_table.cache_clear()


def _clear_caches():
    distributions._coefficients.cache_clear()
    _clear_power_tables()


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
@example([(40, 2, 1.0), (40, 2, -0.0)])
@example([(1031, 2, 1.0), (1031, 2, -0.0)])
@example([(900, 5, 0.3), (40, 5, 0.3)])  # tables of 1024, then 64 powers
@example([(40, 5, 0.3), (900, 5, 0.3)])  # the same, the other way round
# Across n = 1030: n = 1100 reads its lo = 388 powers from the table of 512
# that n = 500 reads 501 of, and computes the powers past its run itself.
@example([(40, 3, 0.5), (1100, 3, 0.5)])
@example([(900, 3, 0.5), (1100, 3, 0.5)])
@example([(1100, 5, 0.25), (500, 5, 0.25)])
@example([(1100, 5, 0.25), (200, 5, 0.25)])
@example([(1100, 5, 0.75), (2000, 5, 0.25)])  # both past it, n up, then down
@example([(2000, 5, 0.25), (1100, 5, 0.75)])
@settings(max_examples=8, deadline=None)
def test_shared_power_tables_keep_every_bit(draws):
    # Calls run back to back, so each may read the tables the last one left;
    # the references are computed afterwards, each from cleared caches. The
    # first call starts from cleared caches too, as the examples' notes say.
    _clear_caches()
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
    _clear_caches()
    sweep_binomial([1100, 40], 101)
    tables = distributions._table.cache_info()
    assert tables.maxsize == 48 and 0 < tables.currsize <= 48
    results = distributions._power_table.cache_info()
    assert results.maxsize == 4 and results.currsize <= 4
    assert distributions._coefficients.cache_info().maxsize == 1


@pytest.mark.parametrize("p", [0.3, 0.5])
@pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1029, 1030, 1100, 2 * 10**4])
def test_power_tables_are_powers_of_two_long_and_cover_the_call(monkeypatch, n, p):
    # A call reads n + 1 powers of each base when n has no run, and the lo
    # powers below the run when it has one.
    _, shifts = distributions._coefficients(n)
    read = n + 1 if not shifts else (n + 1 - len(shifts)) // 2
    _clear_caches()
    real, sizes = distributions._table, []
    monkeypatch.setattr(distributions, "_table", lambda x, size: sizes.append(size) or real(x, size))
    binomial(n, p)
    assert len(sizes) == (1 if p == 0.5 else 2)  # at p = 0.5, q is the same base
    for size in sizes:
        assert size & (size - 1) == 0 and read <= size <= 2**11, (size, read)


def _cell_bits(task):
    """The bits of one task: the pmf of ``binomial(n, p)``, or every report of
    ``sweep_binomial([n], 5)``."""
    if task[0] == "binomial":
        return _hex(binomial(*task[1:]).probs)
    return [_hex(pt.report.to_dict().values()) for pt in sweep_binomial([task[1]], 5)]


def test_threads_sharing_the_power_tables_get_every_bit():
    # Interleaved n across the run's bounds (lo = 388 and hi = 713 at
    # n = 1100) and across n = 1030, on the bases of a 5-point grid.
    ns = [1100, 3, 1030, 713, 40, 1050, 1, 900, 388, 1029, 200, 2, 712, 500, 7]
    tasks = [("sweep", n) for n in ns]
    tasks += [("binomial", n, p) for n in ns for p in (0.25, 0.5, 0.75)]
    want = []
    for task in tasks:
        _clear_caches()
        want.append(_cell_bits(task))

    def work(order, got):
        for i in order:
            got[i] = _cell_bits(tasks[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(20):  # each round from cleared caches, the tasks dealt anew
            _clear_caches()
            got = {}
            order = [(i + 7 * r) % len(tasks) for i in range(len(tasks))]
            threads = [threading.Thread(target=work, args=(order[t::4], got)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert [got.get(i) for i in range(len(tasks))] == want
    finally:
        sys.setswitchinterval(interval)


# A size past sys.maxsize is refused before anything is allocated. Only such
# sizes run here: a size below it would really allocate (or loop) that much.
@pytest.mark.parametrize(
    "make",
    [uniform, degenerate, lambda n: binomial(n, 0.0), lambda n: binomial(n - 1, 1.0)],
    ids=["uniform", "degenerate", "binomial-n", "binomial-outcomes"],
)
@pytest.mark.parametrize("n", [sys.maxsize + 1, 2**63, 10**20])
def test_a_size_past_the_index_range_is_a_parameter_error(make, n):
    with pytest.raises(ParameterOutOfRange, match=r"^need n <= \d+, got \d+$"):
        make(n)


def test_a_sweep_refuses_an_n_past_the_index_range():
    with pytest.raises(ParameterOutOfRange, match=rf"^need n <= {sys.maxsize - 1}, got {10**20}$"):
        sweep_binomial([10**20], 2)


@pytest.mark.parametrize(
    "ns, error",
    [([30000, 0], ZeroSize), ([3, 2.5], ParameterOutOfRange), ([3, 10**20], ParameterOutOfRange)],
    ids=["zero", "not-an-integer", "past-the-index-range"],
)
def test_a_sweep_reads_every_n_before_it_builds_a_cell(monkeypatch, ns, error):
    calls = []
    monkeypatch.setattr(distributions, "binomial", lambda n, p: calls.append((n, p)))
    with pytest.raises(error):
        sweep_binomial(ns, 3)
    assert calls == []


@pytest.mark.parametrize("p_steps", [2**63, 10**20])
def test_a_sweep_refuses_p_steps_past_the_index_range(monkeypatch, p_steps):
    calls = []
    monkeypatch.setattr(distributions, "binomial", lambda n, p: calls.append((n, p)))
    with pytest.raises(ParameterOutOfRange, match=rf"^need p_steps <= {sys.maxsize}, got {p_steps}$"):
        sweep_binomial([1], p_steps)
    assert calls == []


@pytest.mark.parametrize(
    "ns, p_steps", [([3], sys.maxsize), ([1, 2, 3, 4], (1 << 18) + 1), (range(1, 1 << 19), 3)]
)
def test_a_sweep_past_its_cell_bound_builds_no_cell(monkeypatch, ns, p_steps):
    calls = []
    monkeypatch.setattr(distributions, "binomial", lambda n, p: calls.append((n, p)))
    with pytest.raises(
        ParameterOutOfRange,
        match=rf"^need \(number of n\) \* p_steps <= {1 << 20} cells, got {len(ns)} \* {p_steps}$",
    ):
        sweep_binomial(ns, p_steps)
    assert calls == []


def test_a_sweep_at_its_cell_bound_is_built(monkeypatch):
    monkeypatch.setattr(distributions, "_SWEEP_MAX_POINTS", 10)
    assert len(sweep_binomial([1, 2], 5)) == 10
    with pytest.raises(ParameterOutOfRange, match=r"<= 10 cells, got 2 \* 6$"):
        sweep_binomial([1, 2], 6)


def test_an_empty_sweep_builds_no_grid():
    # The grid of 10**6 floats alone would take some 32 MB.
    tracemalloc.start()
    try:
        assert sweep_binomial([], 10**6) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    with pytest.raises(ParameterOutOfRange, match=r"^need p_steps >= 2, got 1$"):
        sweep_binomial([], 1)


# A coefficient row costs O(n**2), so an n past the work bound is refused
# before any term is built wherever the row would be: every p but the
# endpoints 1 and +0.0, and any sweep with inner cells.
def test_an_n_past_the_row_bound_is_refused_before_any_work(monkeypatch):
    refused = r"^need n <= {} when 0 < p < 1, got {}$"
    with pytest.raises(ParameterOutOfRange, match=refused.format(1 << 20, 2**62)):
        binomial(2**62, 0.3)
    with pytest.raises(ParameterOutOfRange, match=refused.format(1 << 20, 2**62)):
        sweep_binomial([2**62], 3)
    monkeypatch.setattr(distributions, "_BINOMIAL_MAX_N", 10)
    assert len(binomial(10, 0.3).probs) == 11
    assert len(sweep_binomial([10], 3)) == 3
    built = []
    monkeypatch.setattr(distributions, "_terms", lambda n, p: built.append((n, p)))
    for make in (lambda: binomial(11, 0.3), lambda: binomial(11, -0.0),
                 lambda: sweep_binomial([3, 11], 3)):
        with pytest.raises(ParameterOutOfRange, match=refused.format(10, 11)):
            make()
    assert built == []
    # The endpoints are built in closed form, so they take any n.
    assert binomial(11, 0.0).probs[0] == binomial(11, 1.0).probs[11] == 1.0
    assert [pt.p for pt in sweep_binomial([11], 2)] == [0.0, 1.0]


# ----------------------------------------------------------------------
# a sweep analyzes each distinct pmf once


@given(st.integers(min_value=1, max_value=1100), st.integers(min_value=2, max_value=21))
@example(1029, 5)
@example(1030, 11)
@example(1100, 9)
@settings(max_examples=15, deadline=None)
def test_every_sweep_cell_is_the_report_of_its_own_pmf(n, p_steps):
    for pt in sweep_binomial([n], p_steps):
        want = analyze(binomial(n, pt.p))
        assert _hex(pt.report) == _hex(want), (n, pt.p)


def _count_analyze_calls(monkeypatch):
    calls = []

    def counted(dist):
        calls.append(dist)
        return analyze(dist)

    monkeypatch.setattr(distributions, "analyze", counted)
    return calls


def _unreversed_pairs(n, p_steps):
    steps = p_steps - 1
    grid = [i / steps for i in range(p_steps)]
    return sum(
        binomial(n, grid[steps - i]).probs != binomial(n, grid[i]).probs[::-1]
        for i in range(1, (steps + 1) // 2)
    )


@pytest.mark.parametrize("n", [1, 40, 1030, 1100])
@pytest.mark.parametrize("p_steps, calls_per_n", [(2, 1), (3, 2), (5, 3)])
def test_a_reversed_mirror_pmf_is_not_analyzed_again(monkeypatch, n, p_steps, calls_per_n):
    assert _unreversed_pairs(n, p_steps) == 0
    calls = _count_analyze_calls(monkeypatch)
    sweep_binomial([n, n], p_steps)
    assert len(calls) == 2 * calls_per_n


@pytest.mark.parametrize("n", [40, 1030])
@pytest.mark.parametrize("p_steps", [9, 11, 21])
def test_each_unreversed_mirror_pmf_is_analyzed_once_more(monkeypatch, n, p_steps):
    # 1 - p rounds, so on these grids some mirror pmfs differ from their
    # partner's reversal in low bits: 1 of 3 pairs at 9 points, every pair
    # at 11, 8 of 9 at 21.
    extra = _unreversed_pairs(n, p_steps)
    assert extra > 0
    calls = _count_analyze_calls(monkeypatch)
    sweep_binomial([n], p_steps)
    assert len(calls) == 1 + (p_steps - 1) // 2 + extra


def test_a_mirror_pmf_one_bit_off_takes_its_own_report(monkeypatch):
    # On a 5-point grid B(n, 0.75) is B(n, 0.25) reversed, bit for bit, so
    # only a changed pmf takes the fallback: the largest term of the p = 0.75
    # pmf moves up by one ulp. The sweep builds that mirror cell's terms
    # with _terms, so the change goes there.
    n = 40
    terms = distributions._terms

    def perturbed(n, p):
        probs = terms(n, p)
        if p != 0.75:
            return probs
        probs = list(probs)
        k = probs.index(max(probs))
        probs[k] = math.nextafter(probs[k], 1.0)
        return tuple(probs)

    monkeypatch.setattr(distributions, "_terms", perturbed)
    calls = _count_analyze_calls(monkeypatch)
    points = sweep_binomial([n], 5)
    assert len(calls) == 4
    partner, mirror = points[1].report, points[3].report
    want = analyze(Distribution(perturbed(n, 0.75)))
    assert _hex(mirror) == _hex(want)
    assert _hex(mirror) != _hex(partner)


@pytest.mark.parametrize("n", [1, 40, 1030, 1100])
def test_a_sweep_validates_only_the_cells_it_analyzes(monkeypatch, n):
    # On a 5-point grid the p = 0, 0.25 and 0.5 cells are built and analyzed;
    # p = 0.75 is p = 0.25 reversed, so its terms never become a
    # Distribution, and p = 1 is never built.
    validate = Distribution.__post_init__
    calls = []

    def counted(self):
        calls.append(len(self.probs))
        validate(self)

    monkeypatch.setattr(Distribution, "__post_init__", counted)
    sweep_binomial([n, n], 5)
    assert len(calls) == 2 * 3
