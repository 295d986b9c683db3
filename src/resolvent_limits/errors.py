"""Exception types shared across the toolkit, and the one reader of the
numbers that public entry points take.

A number is an int or a float, numpy's included, never a bool or a str; an
int beyond the float range is not finite.  A rule is a range test of a finite
value (elementwise on an array) and its phrase.  Each refusal is a ValueError
that names the argument."""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

FINITE = (lambda v: True, "be finite")
NONNEGATIVE = (lambda v: v >= 0.0, "be nonnegative")
POSITIVE = (lambda v: v > 0.0, "be positive")
UNIT = (lambda v: (0.0 < v) & (v <= 1.0), "lie in (0, 1]")
OPEN_UNIT = (lambda v: (0.0 < v) & (v < 1.0), "lie in (0, 1)")


def real(name: str, value, rule=FINITE) -> float:
    """``value`` as a float: a finite number in the rule's range."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        x = float(value) if not isinstance(value, int) or abs(value) <= sys.float_info.max else math.inf
        if math.isfinite(x):
            if not rule[0](x):
                raise ValueError(f"{name} must {rule[1]}")
            return x
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def reals(name: str, values, rule=FINITE) -> np.ndarray:
    """``values`` as a float array of numbers ``real`` admits: a numpy int or
    float array is checked whole (float64 is returned as is), anything else
    element by element as ``name[i]``, since numpy reads [True, 2.0] as floats."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        array = values.astype(float, copy=False)
        if np.isfinite(array).all() and np.all(rule[0](array)):
            return array
        values = values.tolist()  # to name the first element refused
    return np.array([real(f"{name}[{i}]", v, rule) for i, v in enumerate(values)], dtype=float)


def point(name: str, value) -> complex:
    """``value`` as a complex with finite parts: a complex, or a number ``real`` admits."""
    if not isinstance(value, (complex, np.complexfloating)):
        return complex(real(name, value))
    if not cmath.isfinite(z := complex(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return z


def integer(name: str, value, lo: int) -> int:
    """``value`` as an int: an int or a numpy integer (no bool), >= ``lo`` and finite."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= lo:
        real(name, value)
        return int(value)
    raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


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


class InvalidExponent(ResolventLimitsError, ValueError):
    """Raised when a decay exponent violates its admissible range, NaN
    included."""


class ConfigError(ResolventLimitsError):
    """Raised on malformed experiment configuration input."""
