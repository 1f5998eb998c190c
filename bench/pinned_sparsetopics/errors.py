"""Exception types shared across the package.

Everything user-facing derives from ValueError or FloatingPointError so
callers that only know the stdlib hierarchy still catch sensible things.
"""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class InvalidConfigError(ValueError):
    """A configuration combination is not allowed."""


class DomainViolationError(ValueError):
    """A point lies outside the domain of the objective (e.g. a zero
    coordinate handed to an interior-only objective)."""


class NonconcavePriorError(InvalidArgumentError):
    """Dirichlet prior with some alpha_k < 1; the resulting posterior
    objective is not concave and is refused outright."""


class InfeasibleRegionError(InvalidArgumentError):
    """Capped-simplex caps sum to less than one, so the feasible set is
    empty."""


class NumericFailureError(FloatingPointError):
    """A NaN or overflow surfaced where a finite value was required."""


class CorpusFormatError(ValueError):
    """A corpus file is malformed.  Carries a 1-based line number when one
    is known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CorpusBoundsError(CorpusFormatError):
    """An index in a corpus file is outside its declared range."""


class ModelFormatError(ValueError):
    """A serialized model file is malformed."""


class UnsupportedVersionError(ModelFormatError):
    """A serialized model declares a format version this code does not
    understand."""
