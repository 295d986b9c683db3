"""Parametric spectral measures and weight functions.

Densities and weights come from a closed catalog of families instead of
arbitrary callables.  That keeps configurations serializable and lets the
quadrature layer place panel breakpoints at the exact kink/cusp locations of
each family and grade its panels toward the cusps (``cusps()``).  Every family
is continuous on its closed support, so w^2 rho can jump only at a support
edge; whether it does at a probe point is the transform kernel's question.

Density catalog (``DensityFamily.kind``):

``constant``     level on [a, b]
``affine``       level + slope * (x - center) on [a, b]; the only family that
                 may take negative values (used to exercise principal-value
                 machinery on sign-changing integrands)
``power_bump``   level * |x - center|**exponent on [a, b], exponent in (0, 1];
                 Holder exponent at the center is exactly ``exponent``
``smooth_bump``  level * exp(1 - 1/(1 - t^2)), t = (x - center)/half_width;
                 infinitely smooth, vanishes to all orders at the edges

Weight catalog (``WeightFunction.kind``):

``hat``          1 - |t|, kink at the center
``cosine_bump``  cos(pi * t / 2)^2
``power_hat``    1 - |t|**exponent, exponent in (0, 1]; Holder exponent at the
                 center is exactly ``exponent``
``plateau``      identically 1 on the (closed) support.  This family breaks
                 the vanish-at-endpoints rule on purpose: it exists so that
                 closed-form log/arctan oracles apply exactly in tests.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, DegenerateSamples

__all__ = [
    "DensityFamily",
    "SpectralMeasure",
    "WeightFunction",
    "Atom",
    "HolderEstimate",
    "estimate_holder",
    "geometric_radii",
    "holder_increments",
    "read_number",
    "read_object",
]

_DENSITY_PARAMS = {
    "constant": frozenset({"level"}),
    "affine": frozenset({"level", "slope", "center"}),
    "power_bump": frozenset({"level", "exponent", "center"}),
    "smooth_bump": frozenset({"level", "center", "half_width"}),
}

_WEIGHT_PARAMS = {
    "hat": frozenset({"center", "half_width"}),
    "cosine_bump": frozenset({"center", "half_width"}),
    "power_hat": frozenset({"center", "half_width", "exponent"}),
    "plateau": frozenset({"center", "half_width"}),
}


def read_number(name: str, value) -> float:
    """A JSON number read without coercion: an integer or a finite float, and
    an integer is read as a float.  A bool, a string, NaN or an integer
    beyond the float range raises ConfigError."""
    if type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    if type(value) is not float or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def read_object(name: str, value, keys=None) -> dict:
    """A JSON object whose keys all lie in ``keys`` (any keys when None)."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {value!r}")
    unknown = set(value) - set(value if keys is None else keys)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")
    return value


def _read_parameters(name: str, value) -> dict:
    return {k: read_number(f"{name} {k}", v) for k, v in read_object(name, value).items()}


def _check_params(kind: str, params: dict, table: dict) -> None:
    if kind not in table:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {sorted(table)}")
    expected = table[kind]
    got = set(params)
    if got != expected:
        raise ValueError(f"{kind} expects parameters {sorted(expected)}, got {sorted(got)}")
    for name, value in params.items():
        if not math.isfinite(float(value)):
            raise ValueError(f"{kind} parameter {name}={value!r} is not finite")


@dataclass(frozen=True)
class DensityFamily:
    """One absolutely continuous density piece from the parametric catalog."""

    kind: str
    parameters: dict = field(default_factory=dict)
    support: tuple = ()

    def __post_init__(self):
        _check_params(self.kind, self.parameters, _DENSITY_PARAMS)
        p = self.parameters
        if self.kind in ("constant", "power_bump", "smooth_bump") and p["level"] < 0:
            raise ValueError(f"{self.kind} level must be nonnegative")
        if self.kind == "power_bump" and not 0.0 < p["exponent"] <= 1.0:
            raise ValueError("power_bump exponent must lie in (0, 1]")
        if len(self.support) not in (0, 2):
            raise ValueError(f"support must be an interval [lo, hi], got {self.support}")
        if self.kind == "smooth_bump":
            if p["half_width"] <= 0:
                raise ValueError("smooth_bump half_width must be positive")
            natural = (p["center"] - p["half_width"], p["center"] + p["half_width"])
            support = natural if not self.support else (
                max(self.support[0], natural[0]),
                min(self.support[1], natural[1]),
            )
            object.__setattr__(self, "support", (float(support[0]), float(support[1])))
        if not self.support:
            raise ValueError(f"{self.kind} requires an explicit support interval")
        lo, hi = (float(v) for v in self.support)
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"support must be a finite interval with lo < hi, got {self.support}")
        object.__setattr__(self, "support", (lo, hi))
        if self.kind == "power_bump" and not lo <= p["center"] <= hi:
            raise ValueError("power_bump center must lie inside the support")

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

    def __call__(self, x: float) -> float:
        return float(self.values(np.asarray([x]))[0])

    def breakpoints(self) -> tuple:
        """Interior kink/cusp locations the quadrature should split at."""
        if self.kind == "power_bump":
            c = self.parameters["center"]
            lo, hi = self.support
            if lo < c < hi:
                return (c,)
        return ()

    def cusps(self) -> tuple:
        """Points where the Holder exponent is below 1: a power_bump centre."""
        p = self.parameters
        return (p["center"],) if self.kind == "power_bump" and p["exponent"] < 1.0 else ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": dict(self.parameters),
            "support": list(self.support),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DensityFamily":
        d = read_object("measure ac_parts entry", d, ("kind", "parameters", "support"))
        return cls(
            kind=d["kind"],
            parameters=_read_parameters("measure parameters", d["parameters"]),
            support=tuple(read_number("measure support", v) for v in d.get("support", ())),
        )


@dataclass(frozen=True)
class Atom:
    """Point mass of the spectral measure: an eigenvalue with its weight."""

    location: float
    mass: float

    def __post_init__(self):
        if not math.isfinite(self.location):
            raise ValueError("atom location must be finite")
        if not (math.isfinite(self.mass) and self.mass > 0):
            raise ValueError("atom mass must be strictly positive")


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
        return float(self.density_values(np.asarray([x]))[0])

    def breakpoints(self) -> tuple:
        pts = set()
        for part in self.ac_parts:
            pts.update(part.support)
            pts.update(part.breakpoints())
        return tuple(sorted(pts))

    def cusps(self) -> tuple:
        """Cusps of the parts: where a part's Holder exponent is below 1."""
        return tuple(c for part in self.ac_parts for c in part.cusps())

    def restricted(self, lo: float, hi: float) -> "SpectralMeasure":
        """Densities truncated to [lo, hi]; atoms are NOT filtered here."""
        parts = []
        for part in self.ac_parts:
            a, b = part.support
            na, nb = max(a, lo), min(b, hi)
            if na < nb:
                parts.append(DensityFamily(part.kind, dict(part.parameters), (na, nb)))
        return SpectralMeasure(ac_parts=tuple(parts), atoms=())

    def to_dict(self) -> dict:
        return {
            "ac_parts": [p.to_dict() for p in self.ac_parts],
            "atoms": [{"location": a.location, "mass": a.mass} for a in self.atoms],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralMeasure":
        d = read_object("measure", d, ("ac_parts", "atoms"))
        atoms = [read_object("measure atom", a, ("location", "mass")) for a in d.get("atoms", [])]
        return cls(
            ac_parts=tuple(DensityFamily.from_dict(p) for p in d.get("ac_parts", [])),
            atoms=tuple(
                Atom(read_number("atom location", a["location"]), read_number("atom mass", a["mass"]))
                for a in atoms
            ),
        )


@dataclass(frozen=True)
class WeightFunction:
    """Compactly supported weight from the parametric catalog."""

    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_params(self.kind, self.parameters, _WEIGHT_PARAMS)
        p = self.parameters
        if p["half_width"] <= 0:
            raise ValueError("weight half_width must be positive")
        if self.kind == "power_hat" and not 0.0 < p["exponent"] <= 1.0:
            raise ValueError("power_hat exponent must lie in (0, 1]")

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
        if self.kind == "hat":
            raw = np.maximum(1.0 - at, 0.0)
            inside &= at < 1.0
        elif self.kind == "cosine_bump":
            raw = np.cos(0.5 * np.pi * t) ** 2
            inside &= at < 1.0
        elif self.kind == "power_hat":
            raw = np.maximum(1.0 - at ** self.parameters["exponent"], 0.0)
            inside &= at < 1.0
        else:  # plateau: closed support, no endpoint vanishing
            raw = np.ones_like(x)
        return np.where(inside, raw, 0.0)

    def __call__(self, x: float) -> float:
        return float(self.values(np.asarray([x]))[0])

    def breakpoints(self) -> tuple:
        if self.kind in ("hat", "power_hat"):
            return (self.parameters["center"],)
        return ()

    def cusps(self) -> tuple:
        """Points where the Holder exponent is below 1: a power_hat centre."""
        p = self.parameters
        return (p["center"],) if self.kind == "power_hat" and p["exponent"] < 1.0 else ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": dict(self.parameters),
            "support": list(self.support),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "WeightFunction":
        d = read_object("weight", d, ("kind", "parameters", "support"))
        w = cls(kind=d["kind"], parameters=_read_parameters("weight parameters", d["parameters"]))
        if "support" in d and tuple(read_number("weight support", v) for v in d["support"]) != w.support:
            raise ValueError("serialized weight support does not match its parameters")
        return w


@dataclass(frozen=True)
class HolderEstimate:
    """Fitted local Holder data: |f(x) - f(lam)| ~ constant * |x - lam|^alpha.

    ``alpha_hat`` is the least-squares slope of log-increments against
    log-radius, capped at 1.5; nonpositive values indicate the samples do not
    look Holder at all and are rejected by downstream consumers.
    """

    alpha_hat: float
    constant_hat: float
    fit_window: tuple
    residual: float


def geometric_radii(r_max: float = 0.125, ratio: float = 0.5, count: int = 10) -> tuple:
    """Strictly decreasing geometric radius ladder for estimate_holder."""
    if not (0 < ratio < 1 and r_max > 0 and count >= 1):
        raise ValueError("need r_max > 0, 0 < ratio < 1, count >= 1")
    return tuple(r_max * ratio ** k for k in range(count))


def holder_increments(f: Callable[[float], float], lam: float, radii: Sequence[float]) -> np.ndarray:
    """Two-sided increment (|f(lam + r) - f(lam)| + |f(lam - r) - f(lam)|) / 2
    for each radius r."""
    f0 = float(f(lam))
    return np.array([0.5 * (abs(float(f(lam + r)) - f0) + abs(float(f(lam - r)) - f0)) for r in radii])


def estimate_holder(lam: float, radii: Sequence[float], increments: Sequence[float]) -> HolderEstimate:
    """Fit a local Holder exponent at ``lam`` from the two-sided increments
    that ``holder_increments`` gives at ``radii``.

    The slope of log-increment against log-radius is the exponent, the
    exponentiated intercept the constant.

    Raises DegenerateSamples when more than half the radii produce zero
    increment (locally constant data; callers treat the exponent as 1).
    """
    radii = [float(r) for r in radii]
    if len(radii) < 8:
        raise ValueError("need at least 8 radii")
    if any(r <= 0 for r in radii) or any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be positive and strictly decreasing")

    incs = np.asarray(increments, dtype=float)
    if incs.shape != (len(radii),):
        raise ValueError(f"need one increment per radius, got {incs.shape} for {len(radii)} radii")
    zero = incs == 0.0
    if np.count_nonzero(zero) > len(radii) / 2:
        raise DegenerateSamples(
            f"{np.count_nonzero(zero)} of {len(radii)} increments vanish at lam={lam}"
        )

    rs = np.array(radii)[~zero]
    ds = incs[~zero]
    logr, logd = np.log(rs), np.log(ds)
    slope, intercept = np.polyfit(logr, logd, 1)
    fitted = slope * logr + intercept
    residual = float(np.sqrt(np.mean((logd - fitted) ** 2)))
    return HolderEstimate(
        alpha_hat=float(min(slope, 1.5)),
        constant_hat=float(np.exp(intercept)),
        fit_window=(float(rs.min()), float(rs.max())),
        residual=residual,
    )
