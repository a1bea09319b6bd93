"""Bit-identity of the integer moment kernel against exact-rational formulas.

The reference below is the ``Fraction`` arithmetic that equivar 0.1.0 used
for every algebraic indicator: one exact rational per outcome, summed, with
each field rounded once by ``float(Fraction)``. The package now computes the
same rationals as scaled integers, so every field must match in every bit,
the sign of zero included, and every zero-mass vector must raise the same
exception type. Entropy and validation are held to 0.1.0's per-value loops
the same way: the same bits, the same error type and message. The reports
are checked against an entropy of their own (0.1.0's term loop), not the
package's, since ``analyze`` sums the terms in another order; so are the
entropy views (Renyi-1, relative entropy, F), each against its 0.1.0
formula, except where the total is below 1/2 and a term of 0.1.0's entropy
is subnormal: analyze scales those terms clear of underflow, and its
entropy fields are held there to test_accuracy.py's 60-digit reference.
The total probability is held to the exact sum rounded once.
"""

from __future__ import annotations

import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import (
    Distribution,
    IndicatorReport,
    analyze,
    average_number_f,
    binomial,
    coefficient_of_variation,
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
    NegativeProbability,
    NonFinite,
    ProbabilityAboveOne,
    SumExceedsOne,
)
from equivar import indicators
from equivar.indicators import TOL_SUM, _moments

from test_accuracy import LN2, reference, ulps

# ----------------------------------------------------------------------
# exact-rational reference


def _exact_sums(probs):
    s = Fraction(0)
    s2 = Fraction(0)
    for p in probs:
        f = Fraction(p)
        s += f
        s2 += f * f
    return s, s2


def _cv_squared(n, s, s2):
    return n * s2 / (s * s) - 1


def _to_float(x):
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def ref_mean_probability(dist):
    s, _ = _exact_sums(dist.probs)
    return float(s / dist.n)


def ref_variance(dist):
    s, s2 = _exact_sums(dist.probs)
    n = dist.n
    return float(s2 / n - (s / n) ** 2)


def ref_reference_variance(dist):
    s, _ = _exact_sums(dist.probs)
    n = dist.n
    return float(s * s * Fraction(n - 1, n * n))


def ref_coefficient_of_variation(dist):
    s, s2 = _exact_sums(dist.probs)
    if s == 0:
        raise AllImpossible("zero mean")
    return math.sqrt(float(_cv_squared(dist.n, s, s2)))


def ref_relative_cv(dist):
    s, s2 = _exact_sums(dist.probs)
    if s == 0:
        raise AllImpossible("zero mean")
    n = dist.n
    if n == 1:
        return 0.0
    return math.sqrt(float(_cv_squared(n, s, s2) / (n - 1)))


def ref_equivalent_number_g(dist):
    s, s2 = _exact_sums(dist.probs)
    if s == 0:
        raise AllImpossible("zero mean")
    return float(1 + _cv_squared(dist.n, s, s2))


def ref_equivalent_number_d(dist):
    _, s2 = _exact_sums(dist.probs)
    if s2 == 0:
        raise AllImpossible("all outcomes impossible")
    return _to_float(1 / s2)


def ref_duality_check(dist):
    n = dist.n
    s, s2 = _exact_sums(dist.probs)
    if s == 0:
        raise AllImpossible("zero total probability")
    d_exact = 1 / s2
    g_exact = 1 + _cv_squared(n, s, s2)
    rhs_exact = n / (s * s)
    d, g, rhs = _to_float(d_exact), float(g_exact), _to_float(rhs_exact)
    product = d * g
    if math.isfinite(product) and math.isfinite(rhs):
        residual = abs(product - rhs) / rhs
        log_rhs = math.log(n) - 2.0 * math.log(float(s))
        log_residual = abs(math.log(d) + math.log(g) - log_rhs) / max(1.0, abs(log_rhs))
    else:
        ratio = float(d_exact * g_exact / rhs_exact)
        residual = abs(ratio - 1.0)
        log_residual = abs(math.log(ratio))
    return product, max(residual, log_residual)


def ref_shannon_entropy(probs):
    """0.1.0's entropy: the terms summed by fsum, with 0 log 0 = 0."""
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0) + 0.0


def ref_total_probability(dist):
    """The exact sum rounded once, as analyze's p_total: fsum must give its bits."""
    return float(_exact_sums(dist.probs)[0])


def ref_renyi1_entropy(dist):
    pt = math.fsum(dist.probs)
    if pt == 0.0:
        raise AllImpossible("zero total probability")
    return ref_shannon_entropy(dist.probs) / pt


def ref_relative_entropy_h(dist):
    h = ref_renyi1_entropy(dist)
    if dist.n == 1:
        return 0.0
    return h / math.log2(dist.n)


def ref_average_number_f(dist):
    try:
        return 2.0 ** ref_renyi1_entropy(dist)
    except OverflowError:
        return math.inf


def ref_analyze(dist):
    n = dist.n
    s, s2 = _exact_sums(dist.probs)
    if s == 0:
        raise AllImpossible("zero total probability")

    p_total = float(s)
    cv2 = _cv_squared(n, s, s2)
    cv = math.sqrt(float(cv2))
    cv_rel = 0.0 if n == 1 else math.sqrt(float(cv2 / (n - 1)))

    h_bits = ref_shannon_entropy(dist.probs) / p_total
    h_rel = 0.0 if n == 1 else h_bits / math.log2(n)
    try:
        f = 2.0**h_bits
    except OverflowError:
        f = math.inf

    d_exact = 1 / s2
    rhs_exact = n / (s * s)
    d, g, rhs = _to_float(d_exact), float(1 + cv2), _to_float(rhs_exact)
    if math.isfinite(d * g) and math.isfinite(rhs):
        residual = abs(d * g - rhs) / rhs
    else:
        residual = float(abs(d_exact * (1 + cv2) / rhs_exact - 1))

    return IndicatorReport(
        n_outcomes=n,
        p_total=p_total,
        p_mean=float(s / n),
        variance=float(s2 / n - (s / n) ** 2),
        ref_variance=float(s * s * Fraction(n - 1, n * n)),
        cv=cv,
        cv_rel=cv_rel,
        entropy_bits=h_bits,
        entropy_rel=h_rel,
        avg_number_f=f,
        equiv_number_d=d,
        equiv_number_g=g,
        duality_residual=residual,
    )


PAIRS = [
    (analyze, ref_analyze),
    (duality_check, ref_duality_check),
    (mean_probability, ref_mean_probability),
    (variance, ref_variance),
    (reference_variance, ref_reference_variance),
    (coefficient_of_variation, ref_coefficient_of_variation),
    (relative_cv, ref_relative_cv),
    (equivalent_number_g, ref_equivalent_number_g),
    (equivalent_number_d, ref_equivalent_number_d),
    (total_probability, ref_total_probability),
    (renyi1_entropy, ref_renyi1_entropy),
    (relative_entropy_h, ref_relative_entropy_h),
    (average_number_f, ref_average_number_f),
]


def _bits(value):
    """A value with every float spelled out bit for bit (float.hex keeps -0.0)."""
    if isinstance(value, IndicatorReport):
        return {k: _bits(v) for k, v in value.to_dict().items()}
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return (type(value).__name__, value)


def _outcome(fn, dist):
    try:
        return _bits(fn(dist))
    except AllImpossible as exc:
        return ("raises", type(exc).__name__)


# The report's entropy fields, each with the view that returns it.
ENTROPY_VIEWS = {
    renyi1_entropy: "entropy_bits",
    relative_entropy_h: "entropy_rel",
    average_number_f: "avg_number_f",
}


def _entropy_underflows(probs):
    """Whether the total is below 1/2 and a term p * log2(p) of 0.1.0's sum is subnormal.

    analyze then forms its terms on p * 2**k, clear of underflow, so 0.1.0's
    entropy fields, which lost digits there, are not the answer to match.
    """
    terms = [-p * math.log2(p) for p in probs if p > 0.0]
    return math.fsum(probs) < 0.5 and any(0.0 < t < sys.float_info.min for t in terms)


def assert_entropy_within_bounds(probs, report):
    """The entropy fields within test_accuracy.py's bounds of its 60-digit reference."""
    h_bits, h_rel, f = reference(probs)
    assert ulps(report.entropy_bits, h_bits) <= 6
    assert ulps(report.entropy_rel, h_rel) <= 9
    if math.isinf(float(f)):
        assert report.avg_number_f == math.inf
    else:
        assert ulps(report.avg_number_f, f) <= 1 + 6 * LN2 * report.entropy_bits


def assert_bit_identical(probs):
    dist = from_probabilities(probs)
    underflows = _entropy_underflows(dist.probs)
    if underflows:
        assert_entropy_within_bounds(dist.probs, analyze(dist))
    for fast, ref in PAIRS:
        got, want = _outcome(fast, dist), _outcome(ref, dist)
        if underflows and fast in ENTROPY_VIEWS:
            want = _bits(getattr(analyze(dist), ENTROPY_VIEWS[fast]))
        elif underflows and fast is analyze:
            for field in ENTROPY_VIEWS.values():
                del got[field], want[field]
        assert got == want, fast.__name__


# ----------------------------------------------------------------------
# input strategies


def _scaled(weights, total):
    s = math.fsum(weights)
    if s == 0.0:
        return [0.0] * len(weights)
    return [min(1.0, w / s * total) for w in weights]


# values in [0, 1] rescaled to a total in (0, 1]: complete and incomplete
plain = st.builds(
    _scaled,
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=24),
    st.sampled_from([1.0, 0.9725, 0.5, 0.1]) | st.floats(1e-6, 1.0),
)

# values spread over 1e-300 .. 1, so the kernel sees many binary exponents
wide = st.lists(
    st.builds(lambda m, x: m * 10.0**x, st.floats(0.1, 1.0), st.integers(-300, 0)),
    min_size=1,
    max_size=24,
).map(lambda w: _scaled(w, 1.0) if math.fsum(w) > 1.0 else w)

# subnormal and near-subnormal values, where D and N / p_total^2 overflow
tiny = st.lists(
    st.floats(0.0, 1e-300, allow_subnormal=True) | st.sampled_from([5e-324, 1e-320]),
    min_size=1,
    max_size=12,
)

# one sure outcome, or all-but-one zero
sparse = st.builds(
    lambda n, i, p: [p if j == i % n else 0.0 for j in range(n)],
    st.integers(1, 16),
    st.integers(0, 15),
    st.sampled_from([1.0, 0.5, 5e-324]) | st.floats(0.0, 1.0),
)

vectors = plain | wide | tiny | sparse


@st.composite
def rearranged(draw):
    """A vector, then zero-padded and shuffled, to hit the same sums by other paths."""
    probs = list(draw(vectors))
    probs += [0.0] * draw(st.integers(0, 3))
    return draw(st.permutations(probs))


# ----------------------------------------------------------------------
# tests


@given(rearranged())
@settings(max_examples=400, deadline=None)
@example([1.0])
@example([0.3])
@example([5e-324])
@example([1e-320, 1e-320])
@example([1e-300, 1e-300])
@example([0.5, 0.5])
@example([0.25] * 4)
@example([0.0, 1.0, 0.0])
@example([1.0, 1e-300, 5e-324])
@example([0.0])
@example([0.0, 0.0, 0.0])
@example([0.5, 1e-30, 1e-300])  # three exponent windows
@example([1e-310, 3e-308, 0.25])  # a window scaled past 2**1023, in two steps
@example([5e-324, 1e-320, 2.5e-309, 2.2e-308])  # all subnormal: one window
@example([2.5e-309, 1e-300, 1e-250])  # subnormal low end, two windows
@example([-0.0, 0.5, 0.25, -0.0])
@example([-0.0])
# Wide vectors: the kernel sorts them, and analyze sums entropy over that order.
@example([0.6, 0.3, 1e-30, 1e-300])  # a value above 1/e, where |p log2 p| peaks
@example([0.0, 1e-200, 0.5, 0.0, 0.25, 1e-40, 0.0])  # zero-padded
@example([0.7, 5e-324, 1e-310, 0.2, 2.5e-309])  # subnormal low end
def test_every_field_and_view_is_bit_identical_to_fraction_path(probs):
    assert_bit_identical(probs)


@st.composite
def palindromes(draw):
    """Half a vector, an optional middle value, then the half reversed.

    The kernel sums such a vector over its first half; a zero of the
    mirrored half may be -0.0 against the 0.0 it mirrors.
    """
    half = [x / 2 for x in draw(vectors)]
    middle = draw(
        st.none()
        | st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 2.5e-309, 1e-300])
        | st.floats(0.0, 1.0).map(lambda f: f * max(0.0, 1.0 - 2 * math.fsum(half)))
    )
    flip = draw(st.booleans())
    mirrored = [-0.0 if flip and x == 0.0 else x for x in reversed(half)]
    return half + ([] if middle is None else [middle]) + mirrored


@given(palindromes())
@settings(max_examples=300, deadline=None)
@example([0.0, 0.0])
@example([0.0, -0.0])
@example([-0.0, 0.5, 0.0])
@example([0.0, 0.0, 0.0])
@example([0.25, 0.0, 0.25])  # a zero middle
@example([0.25, -0.0, 0.25])
@example([0.25, 5e-324, 0.25])  # a subnormal middle
@example([1e-320, 1e-320])
@example([1e-320, 5e-324, 1e-320])
@example([5e-324, 0.5, 5e-324])  # ldexp(0.5, b) would overflow the float range
@example([1.0])
@example([0.5, 0.5])
@example(list(uniform(1).probs))
@example(list(uniform(7).probs))
@example(list(uniform(10).probs))
@example([0.25, 1e-300, 0.25])  # spans past one exponent window
@example([0.4, 1e-30, 1e-300, 1e-30, 0.4])
@example([0.3, 5e-324, 0.0, 1e-200, 0.0, 5e-324, 0.3])
@example([1e-310, 3e-308, 0.25, 3e-308, 1e-310])
def test_a_palindrome_is_bit_identical_to_fraction_path(probs):
    assert_bit_identical(probs)


@pytest.mark.parametrize("n", [1, 2, 3, 40, 1029, 1030, 1031, 1100])
def test_a_palindrome_reports_the_bits_of_its_rotation(monkeypatch, n):
    # B(n, 1/2) reads the same reversed and is summed over one half; its
    # rotation by one is not a palindrome (but for n = 1, where the two
    # are the same vector), so it is summed whole.
    probs = binomial(n, 0.5).probs
    rotated = probs[1:] + probs[:1]
    summed = []
    moments = indicators._moments

    def spy(values, extremes):
        summed.append(len(values))
        return moments(values, extremes)

    monkeypatch.setattr(indicators, "_moments", spy)
    want = _bits(analyze(from_probabilities(rotated)))
    assert _bits(analyze(from_probabilities(probs))) == want
    assert summed == ([1, 1] if n == 1 else [n + 1, (n + 2) // 2])


@pytest.mark.parametrize("n", [60, 500, 1029, 1100])
@pytest.mark.parametrize("p", [0.01, 0.25, 0.5, 0.93])
def test_binomial_reports_are_bit_identical_to_fraction_path(n, p):
    # Most of these pmfs span more binary orders than one window holds.
    dist = binomial(n, p)
    assert _bits(analyze(dist)) == _bits(ref_analyze(dist))


def assert_equivalent_numbers_in_order(probs, report):
    """1 / max p <= t * D <= F <= N / t for the report of probs, t = p_total.

    With H_a = log2(sum(p**a) / t) / (1 - a), the Renyi entropy of order a
    of an incomplete vector, these are 2**H_a for a = inf, 2, 1 and 0 (the
    last over the non-zero values, at most N of them), and H_a does not
    increase with a. Each bound holds within F's error bound, 1 + 6 ln 2 *
    H ulp, plus 1 ulp for the roundings of t and D: uniform(7) reads
    t * D = 7.000000000000001 and F = 6.999999999999998. The sides are
    Fractions, so none overflows. Where D is inf (a tiny total) t * D is
    the exact t / sum(p**2), N / t takes the exact t, and where F = 2**H is
    past the float range it is formed in two exact parts.
    """
    values = [Fraction(p) for p in probs if p]
    total = sum(values)
    h = report.entropy_bits
    slack = 1 + Fraction(2 + 6 * LN2 * h) / 2**52
    if math.isinf(report.equiv_number_d):
        td = total / sum(v * v for v in values)
    else:
        td = Fraction(report.p_total) * Fraction(report.equiv_number_d)
    if math.isinf(report.avg_number_f):
        f = Fraction(2) ** math.floor(h) * Fraction(2.0 ** (h - math.floor(h)))
    else:
        f = Fraction(report.avg_number_f)
    assert 1 / max(values) <= td * slack, (probs, report)
    assert td <= f * slack, (probs, report)
    assert f <= len(values) / total * slack and len(values) <= report.n_outcomes, (probs, report)


@given(rearranged())
@settings(max_examples=400, deadline=None)
@example(list(uniform(7).probs))
@example([0.5, 0.5, 0.0])
@example([1.0])
@example([1e-200, 3e-200])  # D is inf
@example([5e-324, 1e-320, 0.0])  # so is 1 / max p
@example([0.6, 0.3, 1e-30, 1e-300])
def test_the_equivalent_numbers_are_in_order(probs):
    if any(probs):
        assert_equivalent_numbers_in_order(probs, analyze(from_probabilities(probs)))


# any non-negative finite float: the kernel's own domain, wider than [0, 1]
anywhere = st.floats(0.0, allow_infinity=False, allow_subnormal=True) | st.builds(
    math.ldexp, st.floats(0.5, 1.0), st.integers(-1074, 1023)
)


@given(st.lists(anywhere, min_size=1, max_size=24))
@settings(max_examples=300, deadline=None)
@example([1e308, 1.0, 1e-300])  # the top window's bound is past 2**1023
@example([1.7e308, 1.5e308, 2.0**970])
@example([5e-324] * 3)
@example([0.0, -0.0])
def test_moments_are_the_exact_sums(values):
    s, s2, b, nonzero = _moments(values, (min(values), max(values)))
    scale = Fraction(2) ** b  # b < 0 when every non-zero value is >= 2**53
    assert s / scale == sum(map(Fraction, values))
    assert s2 / scale**2 == sum(Fraction(v) ** 2 for v in values)
    # The values summed: in the given order, or largest first when sorted.
    given = [v for v in values if v]
    assert list(nonzero) in (given, sorted(given, reverse=True))


# ----------------------------------------------------------------------
# chunked summation: the kernel forms its scaled integers one chunk at a time

CHUNK = indicators._CHUNK_VALUES
SHAPES = ("one-window", "windowed", "zero-padded", "palindromic")


def _long_vector(shape, n, seed):
    """n values of one shape, drawn from Random(seed), with a total at most 1.

    "one-window" values lie within about 2**40 of each other; "windowed"
    ones spread over 2**-990 .. 1, so the kernel sorts them into exponent
    windows; "zero-padded" is either with about a third of its values 0;
    "palindromic" reads the same reversed, so analyze sums its first half.
    """
    rng = random.Random(seed)
    if shape == "palindromic":
        half = [x / 2 for x in _long_vector(rng.choice(SHAPES[:3]), n // 2, seed)]
        middle = [rng.random() * max(0.0, 1.0 - 2 * math.fsum(half))] if n % 2 else []
        return half + middle + half[::-1]
    spread = 40 if shape == "one-window" else 990
    values = [rng.random() * 2.0 ** -rng.randint(0, spread) for _ in range(n)]
    if shape == "zero-padded":
        values = [0.0 if rng.random() < 1 / 3 else v for v in values]
    return _scaled(values, rng.choice([1.0, 0.5, 1e-3]))


def _at_chunk(chunk, probs):
    """_moments and every analyze field of probs, summed ``chunk`` values at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indicators, "_CHUNK_VALUES", chunk)
        s, s2, b, nonzero = _moments(probs, (min(probs), max(probs)))
        return (s, s2, b, list(nonzero)), _outcome(analyze, from_probabilities(probs))


@given(
    st.builds(_long_vector, st.sampled_from(SHAPES), st.integers(1, 3 * CHUNK + 2), st.integers(0, 2**32))
)
@settings(max_examples=60, deadline=None)
@example(_long_vector("one-window", CHUNK - 1, 0))
@example(_long_vector("windowed", CHUNK, 1))
@example(_long_vector("zero-padded", CHUNK + 1, 2))
@example(_long_vector("palindromic", 2 * CHUNK + 1, 3))  # a half of one chunk and one value more
@example([2.0**-1000] + [1 / (CHUNK + 5)] * (CHUNK + 5))  # a window longer than a chunk
def test_the_chunk_size_moves_no_bit(probs):
    want = _at_chunk(CHUNK, probs)
    for chunk in (1, 7, 1 << 22):
        assert _at_chunk(chunk, probs) == want, chunk
    s, s2, b, _ = want[0]
    scale = Fraction(2) ** b
    assert s / scale == sum(map(Fraction, probs))
    assert s2 / scale**2 == sum(Fraction(v) ** 2 for v in probs)


# Besides the vector, analyze holds one chunk of ints (~50 KB) and at most
# one pointer per value: the zero-free list or the sorted one (and the
# sort's merge buffer, up to half as long).
@pytest.mark.parametrize(
    "shape, most",
    [("one-window", 2**20), ("windowed", 12 * 200_000 + 2**20), ("zero-padded", 12 * 200_000 + 2**20),
     ("palindromic", 8 * 200_000 + 2**20)],
)
def test_analyze_working_memory_does_not_hold_an_int_per_value(shape, most):
    dist = from_probabilities(_long_vector(shape, 200_000, 0))
    analyze(dist)
    tracemalloc.start()
    try:
        analyze(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < most, peak


def test_a_palindrome_is_compared_and_summed_in_place():
    # Two half-length copies, to compare the halves, took 1.6 MB here; now
    # the halves are compared a chunk at a time and the first is summed in
    # place, so one window's working memory is about one chunk of ints.
    half = [x / 2 for x in _long_vector("one-window", 100_000, 0)]
    dist = from_probabilities(half + half[::-1])
    assert indicators._reads_reversed(dist.probs)
    analyze(dist)
    tracemalloc.start()
    try:
        analyze(dist)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 800_000, peak


@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5]), max_size=12), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_reads_reversed_is_tuple_equality_with_the_reversal(values, chunk):
    probs = tuple(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indicators, "_CHUNK_VALUES", chunk)
        assert indicators._reads_reversed(probs) == (probs == probs[::-1])


@given(rearranged())
@settings(max_examples=200, deadline=None)
@example([1.0])  # one certain outcome: +0.0, not -0.0
@example([0.0, 1.0, -0.0])
@example([0.5, 0.25, 0.25])  # no zeros
@example([0.5, 0.0, 0.25, 0.0, 0.25])  # zeros between
@example([0.0, 0.0])
def test_entropy_is_bit_identical_to_the_term_loop(probs):
    dist = from_probabilities(probs)
    assert shannon_entropy(dist).hex() == ref_shannon_entropy(dist.probs).hex()


def ref_validate(probs):
    """0.1.0's Distribution checks: each value in order, then the total."""
    probs = tuple(float(p) for p in probs)
    if len(probs) == 0:
        raise EmptyInput("a distribution needs at least one outcome")
    for i, p in enumerate(probs):
        if not math.isfinite(p):
            raise NonFinite(f"probability {i} is {p!r}")
        if p < 0.0:
            raise NegativeProbability(f"probability {i} is {p!r}")
        if p > 1.0:
            raise ProbabilityAboveOne(f"probability {i} is {p!r}")
    total = math.fsum(probs)
    if total > 1.0 + TOL_SUM:
        raise SumExceedsOne(f"probabilities sum to {total!r}, above 1 + {TOL_SUM:g}")


def _raised(fn, probs):
    try:
        fn(probs)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


BAD = [math.nan, math.inf, -math.inf, -0.5, -5e-324, 1.5, math.nextafter(1.0, 2.0), 1e308]


@pytest.mark.parametrize("bad", BAD)
@pytest.mark.parametrize(
    "probs",
    [
        lambda bad: [bad],
        lambda bad: [bad, 0.25, 0.25],
        lambda bad: [0.25, 0.25, bad],
        lambda bad: [0.25, bad, 0.25, math.nan],  # the first offender is named
        lambda bad: [0.1, 0.2, bad, -1.0, 2.0, math.inf],
        lambda bad: [0.0] * 5 + [bad, bad],
    ],
    ids=["alone", "first", "last", "before-nan", "before-others", "behind-zeros"],
)
def test_validation_errors_match_the_per_value_loop(probs, bad):
    values = probs(bad)
    got = _raised(Distribution, tuple(values))
    assert got is not None
    assert got == _raised(ref_validate, values)


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.6, 0.6],
        [0.5, 0.5, 2e-9],
        [0.5, 0.5, 5e-10],  # within the slack: valid
        [math.inf, -math.inf],  # fsum of these raises
        [1e308, 1e308, 0.5],  # fsum of these overflows
        [1.0, -0.0, 0.0],
        # The plain sum lies within its error bound of 1 + TOL_SUM, so the
        # outcome rests on the exact total.
        [0.5, 1.0 + TOL_SUM - 0.5],  # exactly 1 + TOL_SUM: valid
        [0.5, 1.0 + TOL_SUM - 0.5 - 2.0**-52],  # one ulp below: valid
        [0.5, 1.0 + TOL_SUM - 0.5] + [2.0**-54] * 3,  # plain sum at the bound, fsum one ulp above
        # 10**5 values each too small to move the plain sum: it stays below
        # the bound while the exact total is ~2.8e-12 higher.
        [0.5, 1.0 + TOL_SUM - 0.5 - 1e-12] + [2.0**-55] * 100_000,  # fsum above
        [0.5, 1.0 + TOL_SUM - 0.5 - 1e-11] + [2.0**-55] * 100_000,  # fsum below
    ],
)
def test_validation_outcome_matches_the_per_value_loop(values):
    assert _raised(Distribution, tuple(values)) == _raised(ref_validate, values)


@given(
    st.lists(st.floats(2.0**-60, 1.0), min_size=1, max_size=40),
    st.integers(-8, 8),
)
@settings(max_examples=300, deadline=None)
def test_validation_near_the_sum_bound_matches_the_per_value_loop(values, ulps):
    # Scale the vector so that its total lands a few ulps from 1 + TOL_SUM.
    scale = (1.0 + TOL_SUM + ulps * 2.0**-52) / math.fsum(values)
    values = [v * scale for v in values]
    assert _raised(Distribution, tuple(values)) == _raised(ref_validate, values)

