"""The fields that are not one rational quotient, measured against 60 digits.

The fields that are one int / int quotient are held bit for bit to exact
rationals in test_kernel.py. Entropy cannot be: it goes through a
logarithm. Nor can cv and cv_rel: they go through a square root. So each is
held here to a bound derived from its arithmetic, against a ``decimal``
reference at 60 significant digits (``Decimal.ln``, ``Decimal.exp`` and
``Decimal.sqrt`` are correctly rounded, so the reference is exact far below
one ulp of a double).

The error argument, with eps = 2**-53 and to first order in eps. A float x
with |x| in [2**e, 2**(e+1)) has ulp(x) = 2**(e-52) = 2*eps*2**e > eps*|x|,
so a relative error of k*eps is under k ulp.

* Each term p * log2(p) is within 3 eps: log2 is within 1 ulp (2 eps,
  assumed of the platform's libm, as CPython's math.log2 calls it), and the
  product rounds once more (eps).
* Every term has one sign (p <= 1), so their exact sum is within 3 eps of
  the true one, and fsum, which rounds that sum correctly, is within 4 eps.
* entropy_bits divides by p_total, itself rounded once from the exact sum
  (eps), and the division rounds (eps): within 6 eps, so 6 ulp.
* entropy_rel divides that by log2(N) (2 eps) and rounds (eps): 9 ulp.
* avg_number_f = 2**H: an absolute error of H is a relative error of F
  ln 2 times as large, and H's absolute error is 6 eps * H; pow rounds once
  more. So F is within (1 + 6 ln 2 * H) ulp.
* cv and cv_rel are each the correctly rounded square root of one correctly
  rounded int / int quotient, the exact CV^2 or CV^2 / (N - 1). The
  quotient is within 0.5 ulp, a relative error of at most eps (ulp(x) <=
  2 eps |x|); the root halves a relative error, to eps / 2, which is under
  0.5 ulp of the root; and the root rounds within 0.5 ulp more. So each is
  within 1 ulp.

The argument holds while every term is a normal float, so every non-zero
probability drawn here is at least 2**-1000. analyze forms the terms of a
total below 1/2 on p * 2**k, with 2**k p_total in [1, 2), which keeps them
normal on tiny vectors; test_kernel.py holds those to these bounds. The quotients
under the roots are normal floats at any input: a non-zero CV^2 is at
least about 2**-106 / N, since the values differ by at least one ulp.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext

from hypothesis import example, given, settings
from hypothesis import strategies as st

from equivar import Distribution, analyze

SMALLEST = 2.0**-1000
LN2 = math.log(2.0)


def ulps(computed: float, exact: Decimal) -> float:
    """|computed - exact| in units of the last place of exact (as a float)."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float(abs(Decimal(computed) - exact) / Decimal(math.ulp(float(exact))))


def reference(probs: list[float]) -> tuple[Decimal, Decimal, Decimal]:
    """entropy_bits, entropy_rel and avg_number_f of probs, to 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        ln2 = Decimal(2).ln()
        nonzero = [Decimal(p) for p in probs if p]
        h_nats = -sum(p * p.ln() for p in nonzero) / sum(nonzero)
        h_bits = h_nats / ln2
        n = len(probs)
        h_rel = h_nats / Decimal(n).ln() if n > 1 else Decimal(0)
        return h_bits, h_rel, h_nats.exp()


def cv_reference(probs: list[float]) -> tuple[Decimal, Decimal]:
    """cv and cv_rel of probs, to 60 digits, from the exact CV^2."""
    # Each value times 2**1074 is an integer; the scale cancels in CV^2.
    scaled = [num << (1075 - den.bit_length()) for num, den in map(float.as_integer_ratio, probs)]
    n, s = len(scaled), sum(scaled)
    spread, ss = n * sum(a * a for a in scaled) - s * s, s * s  # CV^2 = spread / ss
    with localcontext() as ctx:
        ctx.prec = 60
        cv = (Decimal(spread) / Decimal(ss)).sqrt()
        cv_rel = (Decimal(spread) / Decimal((n - 1) * ss)).sqrt() if n > 1 else Decimal(0)
        return cv, cv_rel


def vector(n: int, total: float, spread: int, seed: int) -> list[float]:
    """n values summing to about total, spread over ``spread`` binary orders."""
    rng = random.Random(seed)
    raw = [math.ldexp(rng.random(), -rng.randint(0, spread)) for _ in range(n)]
    scale = total / math.fsum(raw)
    return [p if p >= SMALLEST else 0.0 for p in (w * scale for w in raw)]


def vector_cases(test):
    """Run test on 100 drawn vectors and four fixed ones: complete and
    incomplete, narrow and wide, with totals down to 1e-290."""
    test = example(n=2, total=1e-290, spread=0, seed=3)(test)
    test = example(n=2000, total=1e-290, spread=900, seed=2)(test)
    test = example(n=2000, total=1.0, spread=0, seed=1)(test)
    test = example(n=1, total=1.0, spread=0, seed=0)(test)
    test = given(
        n=st.integers(1, 2000),
        total=st.one_of(st.just(1.0), st.floats(0.0, 290.0).map(lambda e: 10.0**-e)),
        spread=st.sampled_from([0, 20, 300, 900]),
        seed=st.integers(0, 2**32 - 1),
    )(test)
    return settings(max_examples=100, deadline=None)(test)


@vector_cases
def test_entropy_fields_are_within_their_derived_bounds(n, total, spread, seed):
    probs = vector(n, total, spread, seed)
    assert max(probs) >= SMALLEST  # the largest value is at least total / n
    report = analyze(Distribution(probs))
    h_bits, h_rel, f = reference(probs)
    assert ulps(report.entropy_bits, h_bits) <= 6
    assert ulps(report.entropy_rel, h_rel) <= 9
    assert ulps(report.avg_number_f, f) <= 1 + 6 * LN2 * report.entropy_bits


@vector_cases
def test_cv_fields_are_within_one_ulp(n, total, spread, seed):
    probs = vector(n, total, spread, seed)
    report = analyze(Distribution(probs))
    cv, cv_rel = cv_reference(probs)
    assert ulps(report.cv, cv) <= 1
    assert ulps(report.cv_rel, cv_rel) <= 1
