"""Scalar variability and uncertainty indicators for discrete probability vectors.

A distribution here is a plain vector of outcome probabilities. It may be
incomplete (the probabilities sum to less than one, as with observed
frequencies that have missing mass); nothing is ever renormalized. The
indicators fall into two families:

* statistical variability of the probability values themselves: mean,
  population variance, a reference (maximal) variance, the coefficient of
  variation CV and its relative form cv = CV / sqrt(N - 1);
* uncertainty of the event system: Shannon entropy in bits, its
  order-1 Renyi extension for incomplete vectors (entropy divided by the
  total probability), and the equivalent-size numbers derived from both:
  F = 2**H (the size of a uniform distribution with the same uncertainty,
  elsewhere called perplexity), D = 1 / sum(p_i**2) (the size of a uniform
  distribution with the same, zero, variability; the inverse Simpson
  index) and G = CV**2 + 1 (the size of a one-sure-rest-impossible
  distribution with the same variability).

D and G are tied together by the duality D * G = N / p_total**2, which
every report carries as a computed residual.

Each formula is written once, in :func:`analyze`. The scalar functions for
CV, cv, H, H_rel, F, G and D return one field of its report (the same bits)
and, like it, raise AllImpossible on an all-zero vector. The total, mean,
variance, reference variance and Shannon entropy are computed apart and
are 0.0 there; duality_check adds a log-form check the report lacks.

Numerical contract: the algebraic indicators (sums, variance, CV, D, G)
are evaluated in exact rational arithmetic (every float is an exact binary
rational) and rounded to float once on return. The exact sums sum(p) and
sum(p**2) are kept as Python integers: every non-zero probability is
multiplied by one power of two, 2**-q, where 2**q is the last mantissa bit
of the smallest one (math.ldexp), which makes each an exactly integral
float that math.trunc converts to a Python integer; the integers and their
squares are summed in C. The smallest and largest values are the ones
validation already found: a Distribution keeps them, and analyze passes
them to the kernel instead of scanning the vector again. When the values
span more binary orders than one such integer should hold, the sorted
values are cut into exponent windows, each scaled by its own power of
two, and the window sums are shifted onto the lowest. Each algebraic
field is then one int / int true division, which CPython rounds
correctly (CV and its relative form take the square root of one).
Identities between them therefore hold to the last ulp: a uniform vector
has CV exactly 0, the closed form of CV agrees exactly with sigma/mean, and
the duality residual stays at rounding level (~1e-16) for any valid input.
Entropy and the numbers derived from it use correctly rounded float
summation (math.fsum) of the terms p * log2(p), good to a few ulp. Being
correctly rounded, fsum gives the same bits in any order, but it is much
faster when the terms come largest first; so when the moment kernel has
sorted the values into exponent windows, analyze sums the entropy terms
over that sorted list, largest first. A vector that fits one window is not
sorted (the sort would cost more than it saves) and is summed in its own
order.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterator, Sequence
from itertools import repeat
from operator import mul

from .errors import (
    AllImpossible,
    EmptyInput,
    EquivarError,
    LabelLengthMismatch,
    NegativeProbability,
    NonFinite,
    NonNumericProbability,
    ProbabilityAboveOne,
    SumExceedsOne,
    ValidationFailure,
)

__all__ = [
    "TOL_SUM",
    "Distribution",
    "IndicatorReport",
    "total_probability",
    "mean_probability",
    "variance",
    "reference_variance",
    "coefficient_of_variation",
    "relative_cv",
    "shannon_entropy",
    "renyi1_entropy",
    "relative_entropy_h",
    "average_number_f",
    "equivalent_number_g",
    "equivalent_number_d",
    "duality_check",
    "analyze",
]

# Slack allowed on sum(probs) <= 1 at validation time.
TOL_SUM = 1e-9

# Binary orders an exponent window spans above a 53-bit mantissa: every
# scaled integer stays below 2**(53 + W), so squares stay cheap.
W = 64


def _first_non_number(values: tuple) -> EquivarError:
    """The error for probabilities that float() cannot all read, naming the first."""
    for i, value in enumerate(values):
        try:
            float(value)
        except OverflowError:
            return NonNumericProbability(f"probability {i} is past the float range")
        except (TypeError, ValueError):
            return NonNumericProbability(f"probability {i} is not a number: {value!r}")
    return ValidationFailure(f"probabilities must be numbers, got {values!r}")


class Distribution:
    """Validated, immutable vector of outcome probabilities with optional labels.

    Raises a :class:`~equivar.errors.ValidationFailure` subclass at
    construction when any invariant is violated: at least one outcome, every
    probability finite and in [0, 1], the total at most 1 + TOL_SUM, and
    labels (when given) matching the probabilities in count. A probability
    that ``float()`` cannot read raises
    :class:`~equivar.errors.NonNumericProbability` naming its index, as the
    file readers do.
    """

    # _extremes is (min(probs), max(probs)), kept from validation so that
    # the moment kernel need not scan the values for them again.
    __slots__ = ("probs", "labels", "_extremes")
    probs: tuple[float, ...]
    labels: tuple[str, ...] | None

    def __init__(self, probs, labels=None) -> None:
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", labels)
        self.__post_init__()

    def __post_init__(self) -> None:
        try:
            values = tuple(self.probs)  # read once: a generator's bad value can be named
        except TypeError:
            raise ValidationFailure(
                f"probabilities must be an iterable of numbers, got {self.probs!r}"
            ) from None
        try:
            probs = tuple(map(float, values))
        except (TypeError, ValueError, OverflowError):
            raise _first_non_number(values) from None
        object.__setattr__(self, "probs", probs)
        if self.labels is not None:
            try:
                labels = tuple(map(str, self.labels))
            except TypeError:
                raise ValidationFailure(f"labels must be iterable, got {self.labels!r}") from None
            object.__setattr__(self, "labels", labels)
        if len(probs) == 0:
            raise EmptyInput("a distribution needs at least one outcome")
        # Accepting takes three C-level passes. When every value lies in
        # [0, 1], the plain float sum errs by at most about n * 2**-53 of
        # the exact total, so a plain sum that clears the bound by that
        # margin proves the exact one does. A NaN makes the sum NaN and
        # fails the test. A vector that fails it is judged on the
        # correctly rounded fsum, and its first bad value is named.
        total = sum(probs)
        lo = min(probs)
        hi = max(probs)
        if not (
            total * (1.0 + len(probs) * 2.0**-52) <= 1.0 + TOL_SUM
            and lo >= 0.0
            and hi <= 1.0
        ):
            try:
                total = math.fsum(probs)  # NaN if any value is NaN
            except (OverflowError, ValueError):  # inf - inf, or values near the float limit
                total = math.nan
            for i, p in enumerate(probs):
                if not math.isfinite(p):
                    raise NonFinite(f"probability {i} is {p!r}")
                if p < 0.0:
                    raise NegativeProbability(f"probability {i} is {p!r}")
                if p > 1.0:
                    raise ProbabilityAboveOne(f"probability {i} is {p!r}")
            if not total <= 1.0 + TOL_SUM:
                raise SumExceedsOne(
                    f"probabilities sum to {total!r}, above 1 + {TOL_SUM:g}"
                )
        if self.labels is not None and len(self.labels) != len(probs):
            raise LabelLengthMismatch(
                f"{len(self.labels)} labels for {len(probs)} probabilities"
            )
        object.__setattr__(self, "_extremes", (lo, hi))

    @property
    def n(self) -> int:
        """Number of outcomes N."""
        return len(self.probs)

    def __len__(self) -> int:
        return len(self.probs)

    def __iter__(self) -> Iterator[float]:
        return iter(self.probs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.probs, self.labels) == (other.probs, other.labels)

    def __hash__(self):
        return hash((self.probs, self.labels))

    def __repr__(self):
        return f"{type(self).__name__}(probs={self.probs!r}, labels={self.labels!r})"

    def __reduce__(self):
        # Rebuilt through the constructor, so an unpickled copy is validated too.
        return type(self), (self.probs, self.labels)


class IndicatorReport(
    namedtuple(
        "IndicatorReport",
        "n_outcomes p_total p_mean variance ref_variance cv cv_rel entropy_bits"
        " entropy_rel avg_number_f equiv_number_d equiv_number_g duality_residual",
    )
):
    """Every scalar indicator of one distribution, as produced by :func:`analyze`.

    ``entropy_bits`` is the order-1 Renyi entropy (Shannon entropy divided by
    the total probability), which coincides with plain Shannon entropy for
    complete vectors; ``duality_residual`` is the relative defect of
    D * G = N / p_total**2 evaluated on the rounded field values.
    """

    __slots__ = ()

    def to_dict(self) -> dict:
        return self._asdict()


def _ulp_exponent(x: float) -> int:
    """Exponent of the last mantissa bit of a non-zero float."""
    return max(math.frexp(x)[1] - 53, -1074)


def _scaled_sums(values: Sequence[float], q: int) -> tuple[int, int]:
    """Exact sums of values * 2**-q and of their squares.

    Every value must be an integer multiple of 2**q, so each product is an
    exact integer below 2**(53 + W), which ldexp forms without rounding
    even where 2**-q itself exceeds the float range. math.trunc turns each
    into the same int as int() does, with less call overhead.
    """
    ks = list(map(math.trunc, map(math.ldexp, values, repeat(-q))))
    return sum(ks), sum(map(mul, ks, ks))


def _moments(
    probs: Sequence[float], extremes: tuple[float, float] | None = None
) -> tuple[int, int, int, Sequence[float]]:
    """Exact sums of the probabilities and of their squares, as integers.

    Returns ``(s, s2, b, nonzero)`` with sum(p) == s / 2**b and sum(p**2) ==
    s2 / 2**(2*b) exactly; ``(0, 0, 0, [])`` when every probability is zero.
    ``nonzero`` holds the non-zero values that were summed: in their given
    order when one window holds them all, and largest first when they were
    sorted into windows, so :func:`analyze` reuses that sort for entropy.
    Takes any finite non-negative floats; b < 0 only when every non-zero
    value is at least 2**53. ``extremes``, when given, must be
    ``(min(probs), max(probs))``, as a :class:`Distribution` keeps them;
    the values are then not scanned for them again.

    With 2**q the last mantissa bit of the smallest non-zero value, every
    value is an integer multiple of 2**q. When the largest value is below
    2**(q + 53 + W), one multiplication by 2**-q turns all of them into
    integers below 2**(53 + W), and b = -q. Otherwise the sorted values are
    cut into exponent windows, each starting at its smallest value and
    spanning 53 + W binary orders from that value's last mantissa bit;
    each window is scaled by its own power of two and its sums are shifted
    onto the lowest window's.
    """
    lo, hi = (min(probs), max(probs)) if extremes is None else extremes
    if not lo:
        # Zeros add nothing to either sum: drop them once.
        probs = list(filter(None, probs))
        if not probs:
            return 0, 0, 0, probs
        lo = min(probs)
    q = _ulp_exponent(lo)
    if math.frexp(hi)[1] <= q + 53 + W:
        s, s2 = _scaled_sums(probs, q)
        return s, s2, -q, probs
    xs = sorted(probs)
    q0 = q
    s = s2 = 0
    i = 0
    while i < len(xs):
        q = _ulp_exponent(xs[i])
        top = q + 53 + W
        j = bisect_left(xs, math.ldexp(1.0, top) if top < 1024 else math.inf, i)
        ws, ws2 = _scaled_sums(xs[i:j], q)
        s += ws << (q - q0)
        s2 += ws2 << 2 * (q - q0)
        i = j
    xs.reverse()
    return s, s2, -q0, xs


def _divide(num: int, den: int) -> float:
    # 1/sum(p^2) and N/p_total^2 can exceed the float range when the
    # probabilities are denormal-small; answer with infinity like plain
    # float division would. Both are positive.
    try:
        return num / den
    except OverflowError:
        return math.inf


def _duality(n: int, s: int, s2: int, b: int) -> tuple[float, float, float, float]:
    """D, G, N / p_total^2 and the relative defect of D * G against the last.

    D * G == N / p_total^2 holds exactly in rational arithmetic, so when a
    side overflows the float range the defect of the exact ratio is 0.
    """
    ss = s * s
    d = _divide(1 << 2 * b, s2)
    g = n * s2 / ss  # CV^2 + 1 = N * sum(p^2) / p_total^2
    rhs = _divide(n << 2 * b, ss)
    product = d * g
    if math.isfinite(product) and math.isfinite(rhs):
        return d, g, rhs, abs(product - rhs) / rhs
    return d, g, rhs, 0.0


def total_probability(dist: Distribution) -> float:
    """Sum of all outcome probabilities (1 for complete, less when incomplete)."""
    return math.fsum(dist.probs)


def mean_probability(dist: Distribution) -> float:
    """Arithmetic mean of the N probabilities, total / N."""
    s, _, b, _ = _moments(dist.probs, dist._extremes)
    return s / (dist.n << b)


def variance(dist: Distribution) -> float:
    """Population variance of the probability values, (1/N) sum p_i^2 - mean^2.

    Exact evaluation keeps the result non-negative by construction, so no
    round-off clamp is needed.
    """
    s, s2, b, _ = _moments(dist.probs, dist._extremes)
    n = dist.n
    return (n * s2 - s * s) / (n * n << 2 * b)


def reference_variance(dist: Distribution) -> float:
    """Largest variance attainable at this size and total probability.

    Reached in the limit where one probability carries the whole total and
    the rest vanish: p_total^2 * (N - 1) / N^2.
    """
    s, _, b, _ = _moments(dist.probs, dist._extremes)
    n = dist.n
    return s * s * (n - 1) / (n * n << 2 * b)


def coefficient_of_variation(dist: Distribution) -> float:
    """Standard deviation of the probabilities divided by their mean.

    sqrt(N * sum(p^2) / p_total^2 - 1): scale-invariant, 0 for uniform
    vectors and sqrt(N - 1) when a single outcome carries everything.
    """
    return analyze(dist).cv


def relative_cv(dist: Distribution) -> float:
    """CV normalized by its maximum sqrt(N - 1); lies in [0, 1], and 0 for N = 1."""
    return analyze(dist).cv_rel


def _entropy(nonzero: Sequence[float]) -> float:
    """-sum(p * log2 p) over non-zero probabilities, in bits.

    fsum rounds the exact sum of its terms correctly, so the order of the
    values changes no bit, only the time: fsum carries fewer partials when
    the terms come largest first.
    """
    h = -math.fsum(map(mul, nonzero, map(math.log2, nonzero)))
    return h + 0.0  # normalize -0.0 from the all-certain case


def shannon_entropy(dist: Distribution) -> float:
    """Shannon entropy -sum(p * log2 p) in bits, with 0 * log 0 = 0."""
    probs = dist.probs
    if 0.0 in probs:
        probs = tuple(filter(None, probs))
    return _entropy(probs)


def renyi1_entropy(dist: Distribution) -> float:
    """Order-1 Renyi entropy in bits: Shannon entropy over the total probability.

    Identical to :func:`shannon_entropy` for complete vectors; for incomplete
    ones it rescales the uncertainty to the observed mass, and is the entropy
    used in reports.
    """
    return analyze(dist).entropy_bits


def relative_entropy_h(dist: Distribution) -> float:
    """Entropy relative to its complete-vector maximum log2 N, and 0 for N = 1.

    In [0, 1] for complete vectors; incomplete ones may exceed 1, exactly as
    their F may exceed N.
    """
    return analyze(dist).entropy_rel


def average_number_f(dist: Distribution) -> float:
    """Equally-probable event count with the same uncertainty: F = 2**H.

    Independent of the logarithm base used for H. In [1, N] for complete
    vectors; may exceed N for incomplete ones.
    """
    return analyze(dist).avg_number_f


def equivalent_number_g(dist: Distribution) -> float:
    """Size of a one-sure-rest-impossible vector with the same variability: CV^2 + 1."""
    return analyze(dist).equiv_number_g


def equivalent_number_d(dist: Distribution) -> float:
    """Equally-probable outcome count with the same invariability: 1 / sum(p^2).

    The inverse Simpson index. In [1, N] for complete vectors; may exceed N
    for incomplete ones.
    """
    return analyze(dist).equiv_number_d


def duality_check(dist: Distribution) -> tuple[float, float]:
    """Evaluate the duality D * G = N / p_total^2 on the rounded indicator values.

    Returns ``(product, residual)`` where ``product`` is D * G and
    ``residual`` is the worse of the multiplicative defect
    |D*G - N/p_total^2| / (N/p_total^2) and the same identity checked in
    logarithmic form, log D + log G = log N - 2 log p_total (with an
    absolute floor of 1 on the log-side denominator, since the right-hand
    side may be 0). When either side overflows the float range, the
    identity is checked on the exact ratio instead.
    """
    n = dist.n
    s, s2, b, _ = _moments(dist.probs, dist._extremes)
    if s == 0:
        raise AllImpossible("duality undefined: zero total probability")
    d, g, rhs, residual = _duality(n, s, s2, b)
    product = d * g
    if math.isfinite(product) and math.isfinite(rhs):
        log_rhs = math.log(n) - 2.0 * math.log(s / (1 << b))
        log_residual = abs(math.log(d) + math.log(g) - log_rhs) / max(1.0, abs(log_rhs))
        residual = max(residual, log_residual)
    return product, residual


def analyze(dist: Distribution) -> IndicatorReport:
    """Compute every indicator of one distribution in a single pass.

    Raises AllImpossible when every probability is zero, since the
    mean-relative indicators are undefined there.
    """
    n = dist.n
    s, s2, b, nonzero = _moments(dist.probs, dist._extremes)
    if s == 0:
        raise AllImpossible("indicators undefined: zero total probability")

    p_total = s / (1 << b)
    ss = s * s
    # ss * CV^2 == N^2 * 4**b * variance; >= 0 by Cauchy-Schwarz
    spread = n * s2 - ss
    cv = math.sqrt(spread / ss)
    cv_rel = 0.0 if n == 1 else math.sqrt(spread / ((n - 1) * ss))

    h_bits = _entropy(nonzero) / p_total
    h_rel = 0.0 if n == 1 else h_bits / math.log2(n)
    try:
        f = 2.0 ** h_bits
    except OverflowError:
        f = math.inf

    d, g, _, residual = _duality(n, s, s2, b)
    return IndicatorReport(
        n_outcomes=n,
        p_total=p_total,
        p_mean=s / (n << b),
        variance=spread / (n * n << 2 * b),
        ref_variance=ss * (n - 1) / (n * n << 2 * b),
        cv=cv,
        cv_rel=cv_rel,
        entropy_bits=h_bits,
        entropy_rel=h_rel,
        avg_number_f=f,
        equiv_number_d=d,
        equiv_number_g=g,
        duality_residual=residual,
    )
