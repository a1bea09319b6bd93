"""Variability and uncertainty indicators of discrete probability distributions.

Computes, for possibly incomplete probability vectors: the coefficient of
variation of the probabilities and its relative form, Shannon and order-1
Renyi entropy, and the equivalent-size numbers F = 2**H, D = 1/sum(p^2),
G = CV**2 + 1 tied together by D * G = N / p_total**2. Includes binomial
parameter sweeps, 8-direction ocean-area table processing, independent
Monte-Carlo/cross-path validators, and a CLI front end.
"""

__version__ = "0.1.0"

# Each module's __all__ decides what it makes public; the package re-exports them.
from . import distributions, errors, indicators, oracle, waveclimate
from .indicators import *
from .distributions import *
from .oracle import *
from .waveclimate import *

__all__ = [
    "__version__",
    "errors",
    *indicators.__all__,
    *distributions.__all__,
    *oracle.__all__,
    *waveclimate.__all__,
]
