"""Exception types raised by distribution validation, parsing, and indicator evaluation."""

__all__ = [
    "EquivarError",
    "ValidationFailure",
    "EmptyInput",
    "NegativeProbability",
    "ProbabilityAboveOne",
    "SumExceedsOne",
    "NonFinite",
    "LabelLengthMismatch",
    "AllZeroCounts",
    "ZeroSize",
    "IndexOutOfRange",
    "ParameterOutOfRange",
    "AllImpossible",
    "IncompleteDistribution",
    "ParseError",
    "MalformedHeader",
    "BadFieldCount",
    "NonNumericProbability",
    "DuplicateAreaId",
    "UnknownArea",
]


class EquivarError(ValueError):
    """Base class for every error this package raises on bad input or bad state."""


class ValidationFailure(EquivarError):
    """A probability vector failed construction-time validation."""


class EmptyInput(ValidationFailure):
    """No data where at least one element is required."""


class NegativeProbability(ValidationFailure):
    """A probability is below zero."""


class ProbabilityAboveOne(ValidationFailure):
    """A probability exceeds one."""


class SumExceedsOne(ValidationFailure):
    """The probabilities sum to more than one (beyond the validation slack)."""


class NonFinite(ValidationFailure):
    """A probability is NaN or infinite."""


class LabelLengthMismatch(ValidationFailure):
    """Labels were supplied but their count differs from the probability count."""


class AllZeroCounts(ValidationFailure):
    """Every observation count is zero, so no probabilities can be formed."""


class ZeroSize(ValidationFailure):
    """A constructor was asked for a distribution with no outcomes."""


class IndexOutOfRange(ValidationFailure):
    """An outcome index lies outside the distribution."""


class ParameterOutOfRange(ValidationFailure):
    """A numeric parameter lies outside its documented domain."""


class AllImpossible(EquivarError):
    """Every probability is zero; mean-relative indicators are undefined."""


class IncompleteDistribution(EquivarError):
    """An operation that assumes total probability 1 received an incomplete vector."""


class ParseError(EquivarError):
    """An input could not be parsed; only its message names the offending row or entry."""


class MalformedHeader(ParseError):
    """The input header line does not match the required column layout."""


class BadFieldCount(ParseError):
    """A data row has the wrong number of fields."""


class NonNumericProbability(ParseError):
    """A probability field could not be read as a number."""


class DuplicateAreaId(ParseError):
    """The same area identifier appears more than once."""


class UnknownArea(EquivarError):
    """A requested area identifier is not present in the table."""
