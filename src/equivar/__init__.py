"""Variability and uncertainty indicators of discrete probability distributions.

Computes, for possibly incomplete probability vectors: the coefficient of
variation of the probabilities and its relative form, Shannon and order-1
Renyi entropy, and the equivalent-size numbers F = 2**H, D = 1/sum(p^2),
G = CV**2 + 1 tied together by D * G = N / p_total**2. Includes binomial
parameter sweeps, 8-direction ocean-area table processing, independent
Monte-Carlo/cross-path validators, and a CLI front end.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each module's __all__ decides what it makes public, and the package
# re-exports them in this order. ``import equivar`` loads none of them. A name
# is looked up on first use (PEP 562) by importing them in this order until one
# lists it, so a lookup loads the name's own module and every one before it.
_EXPORTERS = ("indicators", "distributions", "oracle", "waveclimate")


def __getattr__(name: str):
    if name in ("errors", "cli", *_EXPORTERS):
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        value = ["__version__", "errors", *(n for m in _EXPORTERS for n in __getattr__(m).__all__)]
    else:
        # No dunder is exported, so a probe such as doctest's __test__ loads no module.
        modules = () if name.startswith("__") else map(__getattr__, _EXPORTERS)
        module = next((m for m in modules if name in m.__all__), None)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(module, name)
    globals()[name] = value  # so a later lookup is a plain attribute read
    return value


def __dir__():
    return __getattr__("__all__")
