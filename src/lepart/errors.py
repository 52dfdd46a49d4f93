"""Exception types shared across the package, and the shared killing-rate check."""

import math


class LepartError(Exception):
    """Base class for all package errors."""


class ParameterError(LepartError, ValueError):
    """A numeric or combinatorial parameter is out of its admissible range."""


class FormatError(LepartError, ValueError):
    """Malformed edge-list text or serialized forest."""


class StructureError(LepartError, ValueError):
    """The graph or forest does not have the structure an operation requires."""


class SizeError(LepartError, ValueError):
    """Input too large for an exhaustive operation."""


class NumericError(LepartError, RuntimeError):
    """A factorization or solve failed where it should not."""


class UndefinedConditionalError(LepartError, ValueError):
    """A conditional expectation was requested on a probability-zero event."""


def check_q(q: float) -> None:
    """Raise ParameterError unless the killing rate q is positive and finite."""
    if not (math.isfinite(q) and q > 0):
        raise ParameterError(f"killing rate must be positive and finite, got q={q}")
