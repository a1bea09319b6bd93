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

Every field of a report depends only on N and the multiset of non-zero
values: not on the order of the outcomes, nor on where the zeros sit. So
the one-sure-rest-impossible vector of N outcomes has the report of N and
the single value 1.0 (G = N, D = F = 1, H = 0), which binomial sweeps take
for their p = 0 and p = 1 cells without building the vector.

Each formula is written once. The views of CV, cv, H, H_rel, F, G and D
return one field of :func:`analyze`'s report (the same bits) and, like it,
raise AllImpossible on an all-zero vector. The total, mean, variance,
reference variance and Shannon entropy are 0.0 there. duality_check reads
the same D, G and multiplicative residual as analyze and adds only the
log form of the identity.

Numerical contract: the algebraic indicators (sums, variance, CV, D, G)
are evaluated in exact rational arithmetic (every float is an exact binary
rational) and rounded to float once on return. The exact sums sum(p) and
sum(p**2) are kept as Python integers: every non-zero probability is
multiplied by one power of two, 2**-q, where 2**q is the last mantissa bit
of the smallest one (math.ldexp), which makes each an exactly integral
float that math.trunc converts to a Python integer; the integers and their
squares are summed in C, one chunk of 1024 at a time. Integer addition is
exact, so the chunk size moves no bit, and the kernel's working memory
does not grow with N: one chunk of ints (about 50 KB) and at most one
pointer per value (the zero-free or sorted list, or the two halves a
palindrome check compares), plus the sort's merge buffer, at most half
as long, for a vector it sorts. The smallest and largest values are the ones
validation already found: a Distribution keeps them, and analyze passes
them to the kernel instead of scanning the vector again. When the values
span more binary orders than one such integer should hold, the sorted
values are cut into exponent windows, each scaled by its own power of
two, and the window sums are shifted onto the lowest. Each algebraic
field is then one int / int true division, which CPython rounds
correctly (CV and its relative form take the square root of one, so
each is within 1 ulp: 0.5 from the quotient and 0.5 from the root).
Identities between them therefore hold to the last ulp: a uniform vector
has CV exactly 0, the closed form of CV agrees exactly with sigma/mean, and
the duality residual stays at rounding level (~1e-16) for any valid input.
Entropy and H_rel use correctly rounded float summation (math.fsum) of
the terms p * log2(p). When the total is below 1/2, each term is formed on
p * 2**k instead, with 2**k taking the total into [1, 2), and the sum is
divided by 2**k * p_total: an exact scaling, so no bit moves where every
term is normal, and the terms of a tiny vector stay clear of underflow.
While every term is a normal float, an error argument (in
tests/test_accuracy.py, which checks it against 60 digits) bounds
entropy_bits to 6 ulp and entropy_rel to 9 ulp; about 3 ulp is the most
measured. F = 2**H turns H's absolute error into a relative error
ln 2 * H times as large, so F is bounded by 1 + 6 ln 2 * H ulp: its error
grows with H (up to ~1500 ulp measured at H ~ 1000 bits, on tiny
incomplete vectors). That is the conditioning of 2**H. Being
correctly rounded, fsum gives the same bits in any order, but it is much
faster when the terms come largest first; so when the moment kernel has
sorted the values into exponent windows, analyze sums the entropy terms
over that sorted list, largest first. A vector that fits one window is not
sorted (the sort would cost more than it saves) and is summed in its own
order. A vector that reads the same reversed, as B(n, 1/2) and a uniform
vector do, is summed over its first half, middle value included: the exact
sums are twice the half's less the middle value's once, and the entropy is
fsum of the half's terms, each doubled (exactly), less the middle term
once. That is the same exact sum of the same terms, so every field keeps
its bits; a vector whose first and last values differ pays one comparison.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, repeat
from operator import mul, truediv

from .errors import (
    AllImpossible,
    EmptyInput,
    EquivarError,
    LabelLengthMismatch,
    NegativeProbability,
    NonFinite,
    NonNumericProbability,
    ParameterOutOfRange,
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

# Scaled integers _scaled_sums holds at once. Integer addition is exact and
# associative, so summing chunk by chunk moves no bit, and a chunk of ints
# below 2**(53 + W) takes about 50 KB whatever the vector's length.
_CHUNK_VALUES = 1 << 10


def _first_non_number(values: Sequence) -> EquivarError:
    """The error for probabilities that float() cannot all read, naming the first."""
    for i, value in enumerate(values):
        try:
            float(value)
        except OverflowError:
            return NonNumericProbability(f"probability {i} is past the float range")
        except (TypeError, ValueError):
            return NonNumericProbability(f"probability {i} is not a number: {value!r}")


def _integer(value, name: str, least: int, error: type = ParameterOutOfRange, most=None) -> int:
    """value as an int (anything operator.index takes); one below ``least``
    raises ``error``, and one above ``most`` raises ParameterOutOfRange."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ParameterOutOfRange(f"need an integer {name}, got {value!r}") from None
    if value < least:
        raise error(f"need {name} >= {least}, got {value}")
    if most is not None and value > most:
        raise ParameterOutOfRange(f"need {name} <= {most}, got {value}")
    return value


def _unit_interval(value, name: str, above_zero: bool = False) -> float:
    """value as a float in [0, 1], or in (0, 1] when ``above_zero``; a NaN is neither."""
    try:
        if (0.0 < value if above_zero else 0.0 <= value) and value <= 1.0:
            return float(value)
    except (TypeError, ValueError, ArithmeticError):  # not a real number
        pass
    low = "0 <" if above_zero else "0 <="
    raise ParameterOutOfRange(f"need {low} {name} <= 1, got {value!r}")


class Distribution:
    """Validated, immutable vector of outcome probabilities with optional labels.

    Raises a :class:`~equivar.errors.ValidationFailure` subclass at
    construction when any invariant is violated: at least one outcome, every
    probability finite and in [0, 1], the total at most 1 + TOL_SUM, and
    labels (when given) matching the probabilities in count. A list or
    tuple is read in place and any other iterable once, so a value that
    ``float()`` cannot read raises :class:`~equivar.errors.NonNumericProbability`
    naming its index, as the file readers do, even from a generator.
    """

    # _extremes is (min(probs), max(probs)), kept from validation so that
    # the moment kernel need not scan the values for them again.
    __slots__ = ("probs", "labels", "_extremes")
    probs: tuple[float, ...]
    labels: tuple[str, ...] | None

    def __init__(self, probs, labels=None) -> None:
        # probs is set before validation, and construction and unpickling
        # (__reduce__) both validate through __post_init__: a wrapper of
        # __post_init__ may read len(self.probs) after it returns or raises.
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", labels)
        self.__post_init__()

    def __post_init__(self) -> None:
        try:  # read once (see the class docstring)
            values = self.probs if isinstance(self.probs, (list, tuple)) else tuple(self.probs)
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
        # fails the test. A vector that fails it has its first bad value named,
        # or else the correctly rounded fsum of its values in [0, 1] judges it.
        total = sum(probs)
        lo = min(probs)
        hi = max(probs)
        if not (
            total * (1.0 + len(probs) * 2.0**-52) <= 1.0 + TOL_SUM
            and lo >= 0.0
            and hi <= 1.0
        ):
            for i, p in enumerate(probs):
                if not math.isfinite(p):
                    raise NonFinite(f"probability {i} is {p!r}")
                if p < 0.0:
                    raise NegativeProbability(f"probability {i} is {p!r}")
                if p > 1.0:
                    raise ProbabilityAboveOne(f"probability {i} is {p!r}")
            total = math.fsum(probs)
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


def _scaled_sums(values: Iterable[float], q: int) -> tuple[int, int]:
    """Exact sums of values * 2**-q and of their squares.

    Every value must be an integer multiple of 2**q, so each product is an
    exact integer below 2**(53 + W), which ldexp forms without rounding
    even where 2**-q itself exceeds the float range. math.trunc turns each
    into the same int as int() does, with less call overhead. The values
    may come from any iterable, read once: the integers are formed and
    summed ``_CHUNK_VALUES`` at a time, so the working memory is one chunk
    of ints, and since integer sums are exact the chunking moves no bit.
    """
    ks = map(math.trunc, map(math.ldexp, values, repeat(-q)))
    s = s2 = 0
    while True:
        chunk = list(islice(ks, _CHUNK_VALUES))
        s += sum(chunk)
        s2 += sum(map(mul, chunk, chunk))
        if len(chunk) < _CHUNK_VALUES:  # the last chunk: no empty one is read after it
            return s, s2


def _moments(
    probs: Iterable[float], extremes: tuple[float, float]
) -> tuple[int, int, int, Iterable[float]]:
    """Exact sums of the probabilities and of their squares, as integers.

    Returns ``(s, s2, b, nonzero)`` with sum(p) == s / 2**b and sum(p**2) ==
    s2 / 2**(2*b) exactly; ``(0, 0, 0, [])`` when every probability is zero.
    ``nonzero`` holds the non-zero values that were summed: in their given
    order when one window holds them all, and largest first when they were
    sorted into windows, so :func:`analyze` reuses that sort for entropy.
    Takes any finite non-negative floats, from an iterable that can be read
    again (a one-window ``probs`` comes back as ``nonzero``); b < 0 only
    when every non-zero value is at least 2**53. ``extremes`` must be
    ``(min(probs), max(probs))``, as a :class:`Distribution` keeps them, so
    the values are not scanned for them again.

    With 2**q the last mantissa bit of the smallest non-zero value, every
    value is an integer multiple of 2**q. When the largest value is below
    2**(q + 53 + W), one multiplication by 2**-q turns all of them into
    integers below 2**(53 + W), and b = -q. Otherwise the sorted values are
    cut into exponent windows, each starting at its smallest value and
    spanning 53 + W binary orders from that value's last mantissa bit;
    each window is scaled by its own power of two and its sums are shifted
    onto the lowest window's. Each window is read from one iterator over
    the sorted list, so no window is copied, and the only list of values
    the kernel makes is the zero-free one, which it sorts in place, or the
    sorted copy of a vector without zeros.
    """
    lo, hi = extremes
    xs = None
    if not lo:
        # Zeros add nothing to either sum: drop them once, into a list of the
        # kernel's own, which a wide vector then sorts in place.
        xs = probs = list(filter(None, probs))
        if not xs:
            return 0, 0, 0, xs
        lo = min(xs)
    q = _ulp_exponent(lo)
    if math.frexp(hi)[1] <= q + 53 + W:
        s, s2 = _scaled_sums(probs, q)
        return s, s2, -q, probs
    if xs is None:
        xs = sorted(probs)
    else:
        xs.sort()
    rest = iter(xs)
    q0 = q
    s = s2 = 0
    i = 0
    while i < len(xs):
        q = _ulp_exponent(xs[i])
        top = q + 53 + W
        j = bisect_left(xs, math.ldexp(1.0, top) if top < 1024 else math.inf, i)
        ws, ws2 = _scaled_sums(islice(rest, j - i), q)
        s += ws << (q - q0)
        s2 += ws2 << 2 * (q - q0)
        i = j
    xs.reverse()
    return s, s2, -q0, xs


def _or_inf(compute, *args) -> float:
    """compute(*args), or inf where the result is past the float range.

    Every caller's true result is positive (D, N / p_total^2 and F, and the
    oracle's recomputations of them), so an overflowing int / int quotient
    or power and a float quotient over a denominator that underflowed to 0
    are all inf, as plain float arithmetic answers an overflow.
    """
    try:
        return compute(*args)
    except (OverflowError, ZeroDivisionError):
        return math.inf


class _Head:
    """The first ``stop`` of ``values``, read in place each time it is iterated."""

    __slots__ = ("values", "stop")

    def __init__(self, values: Sequence[float], stop: int):
        self.values, self.stop = values, stop

    def __iter__(self) -> Iterator[float]:
        return islice(self.values, self.stop)

    def __len__(self) -> int:
        return self.stop


def _reads_reversed(probs: tuple[float, ...]) -> bool:
    """Whether probs equals its reversal: each ``_CHUNK_VALUES`` values of
    the first half against their mirror, so no half-length copy is made."""
    n = len(probs)
    m = n // 2
    for i in range(0, m, _CHUNK_VALUES):
        j = min(i + _CHUNK_VALUES, m)
        if probs[i:j] != probs[n - 1 - i : n - 1 - j : -1]:
            return False
    return True


def _exact_fields(
    n: int, probs: Sequence[float], extremes: tuple[float, float]
) -> tuple[tuple, dict, float | None]:
    """The entropy's arguments, the report fields the exact sums fix, and N / p_total^2.

    ``probs`` are the values summed, ``extremes`` their ``(min, max)``, and
    ``n`` is N: ``probs`` may leave out zeros (see the module docstring),
    so the palindrome split below reads ``len(probs)`` and the fields ``n``.

    The first value holds the arguments of :func:`_entropy`: the kernel's
    non-zero values and None, or for values that read the same reversed,
    which are summed over their first half, read in place (their exact
    sums are twice the half's less the middle value's once), the half's
    non-zero values and the middle value (0.0 for an even count).

    On an all-zero vector N / p_total^2 is None and the fields are the four
    defined there (p_total, p_mean, variance, ref_variance), each 0.0.
    Otherwise they also hold cv, cv_rel, D, G and the relative defect of
    D * G against N / p_total^2. That identity holds exactly in rational
    arithmetic, so when a side overflows the float range the defect of the
    exact ratio is 0.
    """
    length = len(probs)
    m = length // 2
    if probs[0] == probs[-1] and _reads_reversed(probs):
        # The half holds every value of the vector (== treats -0.0 and 0.0
        # alike, and zeros add nothing), so the extremes are the half's too.
        s, s2, b, nonzero = _moments(_Head(probs, length - m), extremes)
        mid = probs[m] if length % 2 else 0.0
        # The middle value's scaled integer, exactly: ldexp(mid, b) would
        # overflow for a large b, and the value is a whole multiple of 2**-b.
        num, den = mid.as_integer_ratio()
        k = (num << b) // den
        s = 2 * s - k
        s2 = 2 * s2 - k * k
    else:
        s, s2, b, nonzero = _moments(probs, extremes)
        mid = None
    ss = s * s
    # ss * CV^2 == N^2 * 4**b * variance; >= 0 by Cauchy-Schwarz
    spread = n * s2 - ss
    fields = {
        "p_total": s / (1 << b),
        "p_mean": s / (n << b),
        # Exact, so non-negative by construction: no round-off clamp.
        "variance": spread / (n * n << 2 * b),
        "ref_variance": ss * (n - 1) / (n * n << 2 * b),
    }
    if s == 0:
        return (nonzero, mid), fields, None
    d = _or_inf(truediv, 1 << 2 * b, s2)
    g = n * s2 / ss  # CV^2 + 1 = N * sum(p^2) / p_total^2
    rhs = _or_inf(truediv, n << 2 * b, ss)
    product = d * g
    fields["cv"] = math.sqrt(spread / ss)
    fields["cv_rel"] = 0.0 if n == 1 else math.sqrt(spread / ((n - 1) * ss))
    fields["equiv_number_d"] = d
    fields["equiv_number_g"] = g
    fields["duality_residual"] = (
        abs(product - rhs) / rhs if math.isfinite(product) and math.isfinite(rhs) else 0.0
    )
    return (nonzero, mid), fields, rhs


def total_probability(dist: Distribution) -> float:
    """Sum of all outcome probabilities (1 for complete, less when incomplete)."""
    return math.fsum(dist.probs)


def mean_probability(dist: Distribution) -> float:
    """Arithmetic mean of the N probabilities, total / N."""
    return _exact_fields(dist.n, dist.probs, dist._extremes)[1]["p_mean"]


def variance(dist: Distribution) -> float:
    """Population variance of the probability values, (1/N) sum p_i^2 - mean^2."""
    return _exact_fields(dist.n, dist.probs, dist._extremes)[1]["variance"]


def reference_variance(dist: Distribution) -> float:
    """Largest variance attainable at this size and total probability.

    Reached in the limit where one probability carries the whole total and
    the rest vanish: p_total^2 * (N - 1) / N^2.
    """
    return _exact_fields(dist.n, dist.probs, dist._extremes)[1]["ref_variance"]


def coefficient_of_variation(dist: Distribution) -> float:
    """Standard deviation of the probabilities divided by their mean.

    sqrt(N * sum(p^2) / p_total^2 - 1): scale-invariant, 0 for uniform
    vectors and sqrt(N - 1) when a single outcome carries everything.
    """
    return analyze(dist).cv


def relative_cv(dist: Distribution) -> float:
    """CV normalized by its maximum sqrt(N - 1); lies in [0, 1], and 0 for N = 1."""
    return analyze(dist).cv_rel


def _entropy(nonzero: Iterable[float], mid: float | None = None, k: int = 0) -> float:
    """-sum(p * 2**k * log2 p) over non-zero probabilities, in bits.

    fsum rounds the exact sum of its terms correctly, so the order of the
    values changes no bit, only the time: fsum carries fewer partials when
    the terms come largest first. With ``mid`` given, ``nonzero`` is the
    first half of a palindrome, ``mid`` included: its terms are doubled
    (exactly) and the middle term is taken once away, so fsum rounds the
    whole vector's exact sum. With k > 0 each term is formed on p * 2**k,
    an exact scaling, so that terms of a tiny vector do not underflow.
    """
    scaled = map(math.ldexp, nonzero, repeat(k)) if k else nonzero
    terms = map(mul, scaled, map(math.log2, nonzero))
    if mid is not None:
        terms = chain(
            map(mul, terms, repeat(2.0)), [-(math.ldexp(mid, k) * math.log2(mid))] if mid else []
        )
    h = -math.fsum(terms)
    return h + 0.0  # normalize -0.0 from the all-certain case


def shannon_entropy(dist: Distribution) -> float:
    """Shannon entropy -sum(p * log2 p) in bits, with 0 * log 0 = 0."""
    probs = dist.probs
    if not dist._extremes[0]:
        probs = list(filter(None, probs))  # the kernel's rule: drop the zeros once
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
    _, fields, rhs = _exact_fields(dist.n, dist.probs, dist._extremes)
    if rhs is None:
        raise AllImpossible("duality undefined: zero total probability")
    d, g = fields["equiv_number_d"], fields["equiv_number_g"]
    product = d * g
    residual = fields["duality_residual"]
    if math.isfinite(product) and math.isfinite(rhs):
        log_rhs = math.log(dist.n) - 2.0 * math.log(fields["p_total"])
        log_residual = abs(math.log(d) + math.log(g) - log_rhs) / max(1.0, abs(log_rhs))
        residual = max(residual, log_residual)
    return product, residual


def analyze(dist: Distribution) -> IndicatorReport:
    """Compute every indicator of one distribution in a single pass.

    Raises AllImpossible when every probability is zero, since the
    mean-relative indicators are undefined there.
    """
    return _report(dist.n, dist.probs, dist._extremes)


def _report(n: int, probs: Sequence[float], extremes: tuple[float, float]) -> IndicatorReport:
    """analyze's report of N = ``n`` outcomes whose values summed are
    ``probs``, with ``extremes`` their ``(min, max)``; see _exact_fields."""
    summed, fields, rhs = _exact_fields(n, probs, extremes)
    if rhs is None:
        raise AllImpossible("indicators undefined: zero total probability")
    p_total = fields["p_total"]
    # A total below 1/2 is scaled by 2**k into [1, 2), exactly, so that the
    # entropy terms of a tiny vector do not underflow.
    k = 1 - math.frexp(p_total)[1] if p_total < 0.5 else 0
    h_bits = _entropy(*summed, k) / math.ldexp(p_total, k)
    return IndicatorReport(
        n_outcomes=n,
        **fields,
        entropy_bits=h_bits,
        entropy_rel=0.0 if n == 1 else h_bits / math.log2(n),
        avg_number_f=_or_inf(pow, 2.0, h_bits),
    )
