"""Exception types shared across the toolkit."""

from __future__ import annotations


class ResolventLimitsError(Exception):
    """Base class for all toolkit errors."""


class NonrealRequired(ResolventLimitsError):
    """Raised when an evaluation point must have a nonzero imaginary part."""


class AtomAtProbe(ResolventLimitsError):
    """Raised when a boundary-value probe point coincides with an atom."""


class NotHolder(ResolventLimitsError):
    """Raised when w^2 rho jumps at the probe point of a boundary value."""


class TooFewNodes(ResolventLimitsError):
    """Raised when a discretization budget cannot hold the requested model."""


class NoAtomAtLambda(ResolventLimitsError):
    """Raised when an eigenvalue operation finds no flagged node at the point."""


class EvaluatorFailure(ResolventLimitsError):
    """Wraps an evaluator exception together with the offending y value."""

    def __init__(self, y: float, cause: BaseException):
        super().__init__(f"evaluator failed at y={y!r}: {cause!r}")
        self.y = y
        self.cause = cause


class DegenerateFit(ResolventLimitsError):
    """Raised when a rate fit is requested on constant data: equal norms, or
    increments that vanish for too many radii to fit an exponent."""


class InvalidExponent(ResolventLimitsError):
    """Raised when a decay exponent violates its admissible range."""


class ConfigError(ResolventLimitsError):
    """Raised on malformed experiment configuration input."""
