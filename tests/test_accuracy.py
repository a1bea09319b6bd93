"""The entropy side of the numerical contract, measured against 60 digits.

The algebraic fields are held bit for bit to exact rationals in
test_kernel.py. Entropy cannot be: it goes through a logarithm, so it is
held here to a bound derived from its arithmetic, against a ``decimal``
reference at 60 significant digits (``Decimal.ln`` and ``Decimal.exp`` are
correctly rounded, so the reference is exact far below one ulp of a double).

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

The argument holds while every term is a normal float, so every non-zero
probability drawn here is at least 2**-1000. Below that the terms lose
digits to underflow, a known loss pinned by its own tests.
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


def vector(n: int, total: float, spread: int, seed: int) -> list[float]:
    """n values summing to about total, spread over ``spread`` binary orders."""
    rng = random.Random(seed)
    raw = [math.ldexp(rng.random(), -rng.randint(0, spread)) for _ in range(n)]
    scale = total / math.fsum(raw)
    return [p if p >= SMALLEST else 0.0 for p in (w * scale for w in raw)]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(1, 2000),
    total=st.one_of(st.just(1.0), st.floats(0.0, 290.0).map(lambda e: 10.0**-e)),
    spread=st.sampled_from([0, 20, 300, 900]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=1, total=1.0, spread=0, seed=0)
@example(n=2000, total=1.0, spread=0, seed=1)
@example(n=2000, total=1e-290, spread=900, seed=2)
@example(n=2, total=1e-290, spread=0, seed=3)
def test_entropy_fields_are_within_their_derived_bounds(n, total, spread, seed):
    probs = vector(n, total, spread, seed)
    assert max(probs) >= SMALLEST  # the largest value is at least total / n
    report = analyze(Distribution(probs))
    h_bits, h_rel, f = reference(probs)
    assert ulps(report.entropy_bits, h_bits) <= 6
    assert ulps(report.entropy_rel, h_rel) <= 9
    assert ulps(report.avg_number_f, f) <= 1 + 6 * LN2 * report.entropy_bits
