"""Weighted Cauchy transforms, principal values, and Plemelj boundary values.

For a measure with a.c. density ``rho`` and atoms ``(loc_j, m_j)`` and a
weight ``w``, the transform evaluated here is the scalar (quadratic-form)
shadow of the sandwiched resolvent:

    C(z) = integral of w(x)^2 rho(x) / (x - z) dx
         + sum over atoms of m_j * w(loc_j)^2 / (loc_j - z).

One singularity-subtraction kernel serves Im z != 0 and the boundary value
at Im z = 0+.  The a.c. hull is cut into pieces at every structure point and
at Re z.  On each piece [lo, hi], with phi = w^2 rho and c the value of phi at
clamp(Re z, lo, hi) taken from inside the piece,

    integral of phi / (x - z) = integral of (phi - c) / (x - z)
                                + c * [log(hi - z) - log(lo - z)].

The subtracted integrand is bounded near Re z for Lipschitz phi and only
integrably singular for Holder phi, so panel quadrature resolves it on seed
breakpoints graded geometrically (ratio ``GRADING``) toward two kinds of edge.
Toward the clamp point the grading goes down to half its distance from z, so
the panel error estimate sees the O(y |phi'|) term that lives within |Im z| of
Re z.  Toward a cusp of phi, an edge the catalog lists in ``cusps()`` (a
power_bump or power_hat centre, with Holder exponent below 1), it goes down to
one grading step above the width at which the quadrature freezes a panel there.
The seed grid then usually meets the target in one integrand call, at every y
and at y = 0+.  At Im z = 0+ the logs take the branch below the axis,
which yields the principal value plus the Plemelj jump ``i pi w(lam)^2
rho(lam)`` directly, valid when w^2 rho is Holder at ``lam``.  Catalog
families are continuous on their closed supports, and every support edge and
the cut at Re z are piece edges, so a nonzero jump of the one-sided values c
at Re z is exactly a jump of w^2 rho there; at y = 0+ it raises NotHolder.

Near/far splitting truncates densities at ``lam +- eps`` and routes atoms by
the open interval ``(lam - eps, lam + eps)``; the far part obeys the a priori
bound ``|C_far| <= (integral of w^2 d mu_far) / eps``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import AtomAtProbe, NonrealRequired, NotHolder
from .quadrature import DEFAULT_ABS_TOL, FREEZE, integrate_adaptive
from .spectral_model import SpectralMeasure, WeightFunction

__all__ = [
    "TransformValue",
    "SplitMeasure",
    "evaluate_offaxis",
    "principal_value",
    "plemelj_boundary",
    "near_far_split",
    "far_bound",
    "weighted_mass",
]

GRADING = 0.25  # ratio of successive seed distances toward the pole or a cusp


@dataclass(frozen=True)
class TransformValue:
    """Transform value with the quadrature's internal error accounting."""

    value: complex
    abs_error_estimate: float
    panels_used: int
    tolerance_met: bool = True


@dataclass(frozen=True)
class SplitMeasure:
    """Measure split into near and far parts around a probe point."""

    near: SpectralMeasure
    far: SpectralMeasure
    lam: float
    eps: float


def _phi_factory(measure: SpectralMeasure, weight: WeightFunction):
    def phi(x: np.ndarray) -> np.ndarray:
        return weight.values(x) ** 2 * measure.density_values(x)

    return phi


def _piece_edges(measure: SpectralMeasure, weight: WeightFunction, cuts: tuple = ()) -> list:
    """Edges of the pieces of the hull of {w^2 rho != 0}: the hull's ends and
    the structure points (support edges, kinks, cusps) and ``cuts`` inside it.
    Empty when the hull is."""
    if not measure.ac_parts:
        return []
    wlo, whi = weight.support
    a = max(min(p.support[0] for p in measure.ac_parts), wlo)
    b = min(max(p.support[1] for p in measure.ac_parts), whi)
    if not a < b:
        return []
    points = (*measure.breakpoints(), *weight.support, *weight.breakpoints(), *cuts)
    return sorted({a, b}.union(p for p in points if a < p < b))


def _inner_value(measure: SpectralMeasure, weight: WeightFunction, p: float, lo: float, hi: float) -> float:
    """w^2 rho at an edge p of the piece [lo, hi], as the limit from inside it.

    Every catalog family is continuous on its closed support, so summing the
    parts that cover the piece gives the one-sided value at a density jump.
    """
    rho = sum(part(p) for part in measure.ac_parts if part.support[0] <= lo and hi <= part.support[1])
    return weight(p) ** 2 * rho


def _transform(measure: SpectralMeasure, weight: WeightFunction, z: complex, abs_tol: float) -> TransformValue:
    """C(z) by singularity subtraction; Im z = 0 is read as 0+."""
    x0, y = z.real, z.imag
    total = sum(a.mass * weight(a.location) ** 2 / (a.location - z) for a in measure.atoms) + 0.0j
    edges = _piece_edges(measure, weight, cuts=(x0,))
    if not edges:
        return TransformValue(total, 0.0, 0)

    pieces = list(zip(edges[:-1], edges[1:]))
    near = [min(max(x0, lo), hi) for lo, hi in pieces]
    cs = np.array([_inner_value(measure, weight, p, lo, hi) for p, (lo, hi) in zip(near, pieces)])
    # sum of c_k [log(hi_k - z) - log(lo_k - z)], gathered edge by edge
    for e, rise in zip(edges, np.diff(cs, prepend=0.0, append=0.0)):
        if rise != 0.0:
            if e == x0 and y == 0.0:
                raise NotHolder(f"w^2 rho jumps at lam={x0}: the principal value diverges")
            total -= rise * cmath.log(complex(e - x0, -y))

    cusps = {*measure.cusps(), *weight.cusps()}
    seeds = []
    for p, (lo, hi) in zip(near, pieces):
        for e, side in ((lo, 1.0), (hi, -1.0)):
            # toward the pole down to half its distance from z; toward a cusp
            # down to one grading step above the freeze width there (nearer
            # in, node rounding swamps the panel error estimates)
            reach = abs(complex(e - x0, y))
            stops = [0.5 * reach] if e == p and reach else []
            if e in cusps:
                stops.append(FREEZE / GRADING * (abs(e) or hi - lo))
            step = GRADING * (hi - lo)
            while stops and min(stops) < step:
                seeds.append(e + side * step)
                step *= GRADING
    phi = _phi_factory(measure, weight)
    inner = np.array(edges[1:-1])

    def subtracted(x):
        # real at y = 0+, so a subnormal x - lam cannot overflow a complex division
        d = x - z if y else x - x0
        num = phi(x) - cs[np.searchsorted(inner, x, side="right")]
        # a node rounded onto Re z at y = 0 sits on an integrable singularity
        return np.divide(num, d, out=np.zeros_like(d), where=d != 0)

    res = integrate_adaptive(subtracted, edges[0], edges[-1], abs_tol=abs_tol, breakpoints=edges[1:-1] + seeds)
    return TransformValue(total + res.value, res.error, res.panels, res.tolerance_met)


def evaluate_offaxis(
    measure: SpectralMeasure,
    weight: WeightFunction,
    z: complex,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> TransformValue:
    """Evaluate C(z) for Im z != 0 with the singularity-subtraction kernel.

    Atoms are added in closed form.  Raises NonrealRequired on the real axis.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise NonrealRequired(f"evaluate_offaxis needs Im z != 0, got z={z}")
    return _transform(measure, weight, z, abs_tol)


def plemelj_boundary(
    measure: SpectralMeasure,
    weight: WeightFunction,
    lam: float,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> complex:
    """Boundary value C(lam + i0): principal value plus the jump term
    ``i pi w(lam)^2 rho(lam)``, from the kernel of ``evaluate_offaxis`` at y = 0+.

    An atom at ``lam`` raises AtomAtProbe.  Whether the limit exists is a
    question about w^2 rho at ``lam``, not about w or rho alone: the kernel
    raises NotHolder when w^2 rho jumps there, and nowhere else.
    """
    lam = float(lam)
    for atom in measure.atoms:
        if atom.location == lam:
            raise AtomAtProbe(f"atom at {atom.location} coincides with probe point")
    return complex(_transform(measure, weight, complex(lam, 0.0), abs_tol).value)


def principal_value(
    measure: SpectralMeasure,
    weight: WeightFunction,
    lam: float,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> float:
    """Principal value at ``lam``: the real part of ``plemelj_boundary``,
    which raises AtomAtProbe for an atom at ``lam`` and NotHolder when
    w^2 rho jumps there."""
    return plemelj_boundary(measure, weight, lam, abs_tol=abs_tol).real


def near_far_split(measure: SpectralMeasure, lam: float, eps: float) -> SplitMeasure:
    """Split the measure at ``lam +- eps``.

    Densities are truncated at the cut; atoms go near iff |loc - lam| < eps
    (the near zone is open, so an atom at distance exactly eps is far).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    near_parts = measure.restricted(lam - eps, lam + eps).ac_parts
    far_parts = []
    for part in measure.ac_parts:
        lo, hi = part.support
        for nlo, nhi in ((lo, min(hi, lam - eps)), (max(lo, lam + eps), hi)):
            if nlo < nhi:
                far_parts.append(
                    type(part)(part.kind, dict(part.parameters), (nlo, nhi))
                )
    near_atoms = tuple(a for a in measure.atoms if abs(a.location - lam) < eps)
    far_atoms = tuple(a for a in measure.atoms if abs(a.location - lam) >= eps)
    return SplitMeasure(
        near=SpectralMeasure(ac_parts=near_parts, atoms=near_atoms),
        far=SpectralMeasure(ac_parts=tuple(far_parts), atoms=far_atoms),
        lam=float(lam),
        eps=float(eps),
    )


def weighted_mass(
    measure: SpectralMeasure,
    weight: WeightFunction,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> tuple:
    """Total mass of w^2 d mu: quadrature over densities plus atom terms.

    Returns (value, error_estimate).
    """
    total = 0.0
    err = 0.0
    edges = _piece_edges(measure, weight)
    if edges:
        res = integrate_adaptive(
            _phi_factory(measure, weight), edges[0], edges[-1], abs_tol=abs_tol, breakpoints=edges[1:-1]
        )
        total, err = res.value.real, res.error
    for atom in measure.atoms:
        total += atom.mass * weight(atom.location) ** 2
    return float(total), float(err)


def far_bound(split: SplitMeasure, weight: WeightFunction) -> float:
    """A priori bound (integral of w^2 d mu_far) / eps for the far transform,
    valid uniformly in y (far points satisfy |x - lam - iy| >= eps)."""
    mass, err = weighted_mass(split.far, weight)
    return float((mass + err) / split.eps)
