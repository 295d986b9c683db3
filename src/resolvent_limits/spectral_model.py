"""Parametric spectral measures and weight functions.

Densities and weights come from a closed catalog of families instead of
arbitrary callables.  That lets the quadrature layer place panel breakpoints
at the exact kink/cusp locations of each family and grade its panels toward
the cusps (``cusps()``), and to split a smooth_bump's shoulders on its seed
grid (``seeds()``).  Every family is continuous on its closed support,
so w^2 rho can jump only at a support edge; whether it does at a probe point
is the transform kernel's question.  Fitting a Holder exponent from a
family's increments is a rate fit, and lives with the others in
``limit_analysis``.  The JSON form of a measure and a weight in a config file
is read and written by ``cli``.  Each kind is one entry of its catalog's
table: its parameter names, each with its rule of ``errors.real`` (finite,
nonnegative, positive, or in (0, 1]).  Every number a record takes is read by
that reader and kept as a float, and so is the point a family or
``density_at`` is called at.

Density catalog (``DensityFamily.kind``):

``constant``     level on [a, b]
``affine``       level + slope * (x - center) on [a, b]; the only family that
                 may take negative values (used to exercise principal-value
                 machinery on sign-changing integrands)
``power_bump``   level * |x - center|**exponent on [a, b], exponent in (0, 1];
                 Holder exponent at the center is exactly ``exponent``; the
                 center may lie outside [a, b] (a piece cut away from it)
``smooth_bump``  level * exp(1 - 1/(1 - t^2)), t = (x - center)/half_width;
                 infinitely smooth, vanishes to all orders at the edges

Weight catalog (``WeightFunction.kind``):

``hat``          1 - |t|, kink at the center: a power_hat of exponent 1
``cosine_bump``  cos(pi * t / 2)^2
``power_hat``    1 - |t|**exponent, exponent in (0, 1]; Holder exponent at the
                 center is exactly ``exponent``
``plateau``      identically 1 on the (closed) support.  This family breaks
                 the vanish-at-endpoints rule on purpose: it exists so that
                 closed-form log/arctan oracles apply exactly in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import FINITE, NONNEGATIVE, POSITIVE, UNIT, real, reals

__all__ = ["DensityFamily", "SpectralMeasure", "WeightFunction", "Atom"]

_DENSITY_PARAMS = {
    "constant": {"level": NONNEGATIVE},
    "affine": {"level": FINITE, "slope": FINITE, "center": FINITE},
    "power_bump": {"level": NONNEGATIVE, "exponent": UNIT, "center": FINITE},
    "smooth_bump": {"level": NONNEGATIVE, "center": FINITE, "half_width": POSITIVE},
}
_WEIGHT_PARAMS = {
    "hat": {"center": FINITE, "half_width": POSITIVE},
    "cosine_bump": {"center": FINITE, "half_width": POSITIVE},
    "power_hat": {"center": FINITE, "half_width": POSITIVE, "exponent": UNIT},
    "plateau": {"center": FINITE, "half_width": POSITIVE},
}

# a smooth_bump's shoulders, t = 1 - 2^-k from its centre toward either
# support edge: at k = 7 the bump is exp(1 - 1/(1 - t^2)) < 1e-27 of its
# level, below rounding of the level, and at k = 6 it is not
_SHOULDERS = tuple(1.0 - 0.5 ** k for k in range(1, 8))


def _freeze_params(family, table: dict) -> None:
    """Read a family's parameters by the rules of its kind's entry in
    ``table``, and keep them as floats in a read-only copy: a built family's
    value never changes, so the transform kernel may reuse work keyed on it."""
    kind, params = family.kind, dict(family.parameters)
    if kind not in table:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {sorted(table)}")
    expected = table[kind]
    if params.keys() != expected.keys():
        raise ValueError(f"{kind} expects parameters {sorted(expected)}, got {sorted(params)}")
    for name, value in params.items():
        params[name] = real(f"{kind} {name}", value, expected[name])
    object.__setattr__(family, "parameters", MappingProxyType(params))


class _Family:
    """What a density piece and a weight share: the value at one point.  Each
    family defines its own vectorized ``values``."""

    def __call__(self, x: float) -> float:
        return float(self.values(np.asarray([real("x", x)]))[0])


@dataclass(frozen=True)
class DensityFamily(_Family):
    """One absolutely continuous density piece from the parametric catalog."""

    kind: str
    parameters: dict = field(default_factory=dict)
    support: tuple = ()

    def __post_init__(self):
        _freeze_params(self, _DENSITY_PARAMS)
        p = self.parameters
        support = reals("support", self.support).tolist()
        if len(support) not in (0, 2):
            raise ValueError(f"support must be an interval [lo, hi], got {self.support}")
        if self.kind == "smooth_bump":
            natural = (p["center"] - p["half_width"], p["center"] + p["half_width"])
            support = natural if not support else (
                max(support[0], natural[0]),
                min(support[1], natural[1]),
            )
        if not support:
            raise ValueError(f"{self.kind} requires an explicit support interval")
        # read again: a smooth_bump's computed edges overflow when |center| + half_width does
        lo, hi = reals("support", support).tolist()
        if not lo < hi:
            raise ValueError(f"support must have lo < hi, got {(lo, hi)}")
        object.__setattr__(self, "support", (lo, hi))

    def values(self, x) -> np.ndarray:
        """Vectorized evaluation; zero outside the support."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.support
        inside = (x >= lo) & (x <= hi)
        p = self.parameters
        if self.kind == "constant":
            raw = np.full_like(x, p["level"])
        elif self.kind == "affine":
            raw = p["level"] + p["slope"] * (x - p["center"])
        elif self.kind == "power_bump":
            raw = p["level"] * np.abs(x - p["center"]) ** p["exponent"]
        else:  # smooth_bump
            t = (x - p["center"]) / p["half_width"]
            raw = np.zeros_like(x)
            core = np.abs(t) < 1.0
            with np.errstate(divide="ignore", over="ignore"):
                raw[core] = p["level"] * np.exp(1.0 - 1.0 / (1.0 - t[core] ** 2))
        return np.where(inside, raw, 0.0)

    def breakpoints(self) -> tuple:
        """Interior kink/cusp locations the quadrature should split at."""
        if self.kind == "power_bump":
            c = self.parameters["center"]
            lo, hi = self.support
            if lo < c < hi:
                return (c,)
        return ()

    def cusps(self) -> tuple:
        """Points where the Holder exponent is below 1: a power_bump centre on
        the closed support (off it, the bump is smooth on the support)."""
        p = self.parameters
        lo, hi = self.support
        cusp = self.kind == "power_bump" and p["exponent"] < 1.0 and lo <= p["center"] <= hi
        return (p["center"],) if cusp else ()

    def seeds(self) -> tuple:
        """Points inside the support where a seed grid should split, though
        the family is smooth there: a smooth_bump's shoulders, where it falls
        from its level to below rounding of it."""
        if self.kind != "smooth_bump":
            return ()
        p = self.parameters
        lo, hi = self.support
        points = (p["center"] + side * t * p["half_width"] for t in _SHOULDERS for side in (-1.0, 1.0))
        return tuple(x for x in points if lo < x < hi)


@dataclass(frozen=True)
class Atom:
    """Point mass of the spectral measure: an eigenvalue with its weight."""

    location: float
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "location", real("atom location", self.location))
        object.__setattr__(self, "mass", real("atom mass", self.mass, POSITIVE))


@dataclass(frozen=True)
class SpectralMeasure:
    """Absolutely continuous catalog densities plus a finite list of atoms."""

    ac_parts: tuple = ()
    atoms: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "ac_parts", tuple(self.ac_parts))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        locs = [a.location for a in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be pairwise distinct")

    def density_values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x)
        for part in self.ac_parts:
            total += part.values(x)
        return total

    def density_at(self, x: float) -> float:
        """rho at x as the mean of its one-sided limits: a part counts on the
        side of x its support covers, so where one part ends and the next
        begins a continuous density reads its value, a jump its midpoint and
        an outer support edge half the value.  Off every part's edges it is
        the sum that ``density_values`` gives, bit for bit."""
        x = real("x", x)
        left = right = 0.0
        for part in self.ac_parts:
            lo, hi = part.support
            v = part(x)
            left += v if lo < x <= hi else 0.0
            right += v if lo <= x < hi else 0.0
        return (left + right) / 2

    def breakpoints(self) -> tuple:
        pts = set()
        for part in self.ac_parts:
            pts.update(part.support)
            pts.update(part.breakpoints())
        return tuple(sorted(pts))

    def cusps(self) -> tuple:
        """Cusps of the parts: where a part's Holder exponent is below 1."""
        return tuple(c for part in self.ac_parts for c in part.cusps())

    def seeds(self) -> tuple:
        """Seed points of the parts: where a seed grid splits a smooth part."""
        return tuple(s for part in self.ac_parts for s in part.seeds())


@dataclass(frozen=True)
class WeightFunction(_Family):
    """Compactly supported weight from the parametric catalog."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        _freeze_params(self, _WEIGHT_PARAMS)

    @property
    def support(self) -> tuple:
        c, h = self.parameters["center"], self.parameters["half_width"]
        return (c - h, c + h)

    def values(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        c, h = self.parameters["center"], self.parameters["half_width"]
        lo, hi = self.support
        t = (x - c) / h
        at = np.abs(t)
        # membership is decided on the stored support interval; the scaled
        # coordinate alone can round across the boundary by one ulp
        inside = (x >= lo) & (x <= hi)
        if self.kind == "plateau":  # closed support, no endpoint vanishing
            return np.where(inside, 1.0, 0.0)
        inside &= at < 1.0
        if self.kind == "cosine_bump":
            raw = np.cos(0.5 * np.pi * t) ** 2
        else:  # a hat is a power_hat of exponent 1
            raw = np.maximum(1.0 - at ** self.parameters.get("exponent", 1.0), 0.0)
        return np.where(inside, raw, 0.0)

    def breakpoints(self) -> tuple:
        if self.kind in ("hat", "power_hat"):
            return (self.parameters["center"],)
        return ()

    def cusps(self) -> tuple:
        """Points where the Holder exponent is below 1: a power_hat centre."""
        p = self.parameters
        return (p["center"],) if self.kind == "power_hat" and p["exponent"] < 1.0 else ()
