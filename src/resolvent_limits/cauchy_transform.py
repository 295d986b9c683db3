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
breakpoints graded geometrically (ratio ``GRADING``) toward three kinds of
edge.  Toward Re z, and toward a cusp of phi (an edge the catalog lists in
``cusps()``: a power_bump or power_hat centre with Holder exponent below 1), it
goes down to one grading step above the width at which the quadrature freezes
a panel there, so the panel error estimate sees the O(y |phi'|) term that
lives within |Im z| of Re z at every y.  Toward the clamp point of a piece
that does not hold Re z it goes down to half that point's distance from Re z.
The catalog's ``seeds()`` add breakpoints, not piece edges, on a smooth_bump's
shoulders, where it falls from its level to below rounding of it.  No seed
depends on y, and the seed grid usually meets the target in one integrand
call, at every y and at y = 0+.

At Im z = 0+ the logs take the branch below the axis, which yields the
principal value plus the Plemelj jump ``i pi w(lam)^2 rho(lam)`` directly,
valid when w^2 rho is Holder at ``lam``.  Catalog families are continuous on
their closed supports, and every support edge and the cut at Re z are piece
edges, so a jump of the one-sided values c at Re z is exactly a jump of
w^2 rho there; at y = 0+ it raises NotHolder.  A step within rounding of c's
size (``FREEZE`` relative) is no jump: data continuous in exact arithmetic,
rounded differently on the two sides, has one.

A y-ladder at one lam calls the kernel again and again with the same data and
Re z, and everything but the y-dependent terms depends on those alone: the
piece edges, c, the rises of c at the edges, the atoms' m w(loc)^2, the seed
grid and phi - c on its nodes.  They form a plan, built whole; the last plan
is kept in one slot, reused while (measure, weight, Re z) compares equal;
measures and weights are frozen, their parameters included, so equal keys mean
equal data.  Every rung of a ladder, its boundary value and ``weighted_mass``
integrate the plan's phi - c over its one grid, and a rung that does not
bisect makes no catalog call: the quadrature's first integrand call is on the
grid's own node array, where the plan reads its stored phi - c.  Each shared
number is the one the same operations give for a fresh plan, so a shared plan
changes no result, bit for bit.

Near/far splitting truncates densities at ``lam +- eps`` and routes atoms by
the open interval ``(lam - eps, lam + eps)``; the far part obeys the a priori
bound ``|C_far| <= (integral of w^2 d mu_far) / eps``.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import POSITIVE, AtomAtProbe, NonrealRequired, NotHolder, point, real
from .quadrature import DEFAULT_ABS_TOL, FREEZE, integrate_adaptive, seed_grid
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

GRADING = 0.25  # ratio of successive seed distances toward Re z or a cusp


class TransformValue(NamedTuple):
    """Transform value with the quadrature's internal error accounting."""

    value: complex
    abs_error_estimate: float
    panels_used: int
    tolerance_met: bool = True


class SplitMeasure(NamedTuple):
    """Measure split into near and far parts around a probe point."""

    near: SpectralMeasure
    far: SpectralMeasure
    lam: float
    eps: float


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


def _graded(e: float, side: float, step: float, stop: float) -> list:
    """Seeds ``e + side * step`` while ``step`` exceeds ``stop``, each step
    GRADING times the last."""
    seeds = []
    while stop < step:
        seeds.append(e + side * step)
        step *= GRADING
    return seeds


class _Plan:
    """What C(z) needs from the data and Re z alone, shared by a ladder's
    rungs and built whole: the piece edges and their one-sided values c, the
    nonzero rises of c at the edges, the atoms' m w(loc)^2, the seed grid and
    phi - c on its nodes."""

    def __init__(self, measure: SpectralMeasure, weight: WeightFunction, x0: float):
        self.key = (measure, weight, x0)
        locations = [a.location for a in measure.atoms]
        w = weight.values(locations).tolist() if locations else []
        # an atom F cannot see adds nothing, and at y = 0 its term would divide by zero
        self.atoms = [(a.location, mw) for a, wa in zip(measure.atoms, w) if (mw := a.mass * wa ** 2)]
        self.edges = edges = _piece_edges(measure, weight, cuts=(x0,))
        if not edges:
            return
        lo, hi = np.array(edges[:-1]), np.array(edges[1:])
        near = np.clip(x0, lo, hi)
        rho = np.zeros(near.size)
        for part in measure.ac_parts:
            # the parts covering a piece give its inner value at an edge: each
            # catalog family is continuous on its closed support
            rho += np.where((part.support[0] <= lo) & (hi <= part.support[1]), part.values(near), 0.0)
        self.cs = np.array([wp ** 2 * r for wp, r in zip(weight.values(near).tolist(), rho.tolist())])
        below, above = np.append(0.0, self.cs), np.append(self.cs, 0.0)  # c on each side of each edge
        self.jumps = [(e, a - b) for e, b, a in zip(edges, below, above) if a != b]
        # at Re z, a step within rounding of c's size is no jump of phi
        self.jump_at_x0 = any(
            e == x0 and abs(a - b) > FREEZE * max(abs(a), abs(b)) for e, b, a in zip(edges, below, above)
        )
        self.inner = np.array(edges[1:-1])

        # toward Re z and toward a cusp the seeds go down to one grading step
        # above the freeze width there (nearer in, node rounding swamps the
        # panel error estimates); toward the clamp point of a piece that does
        # not hold Re z, down to half its distance from Re z.  So the panel
        # error estimate sees the O(y |phi'|) term within |Im z| of Re z at
        # every y, and one grid serves every rung
        sharp = {*measure.cusps(), *weight.cusps(), x0}
        breaks = [*edges[1:-1], *measure.seeds()]
        for p, a, b in zip(near.tolist(), edges[:-1], edges[1:]):
            for e, side in ((a, 1.0), (b, -1.0)):
                stop = FREEZE / GRADING * (abs(e) or b - a) if e in sharp else math.inf
                if e == p != x0:
                    stop = min(stop, 0.5 * abs(e - x0))
                breaks += _graded(e, side, GRADING * (b - a), stop)
        self.grid = seed_grid(edges[0], edges[-1], breaks)
        self.on_grid = self.numerator(self.grid.nodes.view())  # on a view, numerator computes

    def numerator(self, x: np.ndarray) -> np.ndarray:
        """phi - c at the nodes x, c the value of the piece holding each node;
        the stored values when x is the grid's own node array."""
        if x is self.grid.nodes:
            return self.on_grid
        measure, weight, _ = self.key
        return weight.values(x) ** 2 * measure.density_values(x) - self.cs[np.searchsorted(self.inner, x, side="right")]


_last_plan = None  # one slot: consecutive calls on one ladder share its plan


def _transform(measure: SpectralMeasure, weight: WeightFunction, z: complex, abs_tol: float) -> TransformValue:
    """C(z) by singularity subtraction; Im z = 0 is read as 0+."""
    global _last_plan
    abs_tol = real("abs_tol", abs_tol, POSITIVE)
    x0, y = z.real, z.imag
    plan = _last_plan
    if plan is None or plan.key != (measure, weight, x0):
        plan = _last_plan = _Plan(measure, weight, x0)
    if y == 0.0 and any(loc == x0 for loc, _ in plan.atoms):
        raise AtomAtProbe(f"atom at {x0} coincides with probe point")
    total = sum(mw / (loc - z) for loc, mw in plan.atoms) + 0.0j
    if not plan.edges:
        return TransformValue(total, 0.0, 0)

    if y == 0.0 and plan.jump_at_x0:
        raise NotHolder(f"w^2 rho jumps at lam={x0}: the principal value diverges")
    # sum of c_k [log(hi_k - z) - log(lo_k - z)], gathered edge by edge; at
    # y = 0 an edge at Re z is left with no rise or a rounding-level one
    for e, rise in plan.jumps:
        if y or e != x0:
            total -= rise * cmath.log(complex(e - x0, -y))

    def subtracted(x):
        num = plan.numerator(x)
        if abs(y) >= sys.float_info.min:
            return num / (x - z)
        # at a subnormal y numpy divides by (x - lam) - iy through 1/y, which
        # overflows, so a node on Re z, where phi - c is 0, gives 0; at y = 0+
        # the division is real, so a subnormal x - lam cannot overflow, and a
        # node rounded onto Re z sits on an integrable singularity
        d = x - z if y else x - x0
        return np.divide(num, d, out=np.zeros_like(d), where=(num != 0) if y else (d != 0))

    res = integrate_adaptive(subtracted, plan.grid, abs_tol=abs_tol)
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
    z = point("z", z)
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

    Whether the limit exists is a question about F and w^2 rho at ``lam``,
    not about w or rho alone: the kernel raises AtomAtProbe for an atom at
    ``lam`` that F sees (m w(lam)^2 != 0), NotHolder when w^2 rho jumps there,
    and nothing else.
    """
    return complex(_transform(measure, weight, complex(real("lam", lam), 0.0), abs_tol).value)


def principal_value(
    measure: SpectralMeasure,
    weight: WeightFunction,
    lam: float,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> float:
    """Principal value at ``lam``: the real part of ``plemelj_boundary``,
    which raises AtomAtProbe for an atom at ``lam`` that F sees and NotHolder
    when w^2 rho jumps there."""
    return plemelj_boundary(measure, weight, lam, abs_tol=abs_tol).real


def near_far_split(measure: SpectralMeasure, lam: float, eps: float) -> SplitMeasure:
    """Split the measure at ``lam +- eps``.

    Densities are truncated at the cut; atoms go near iff |loc - lam| < eps
    (the near zone is open, so an atom at distance exactly eps is far).
    """
    lam, eps = real("lam", lam), real("eps", eps, POSITIVE)
    cut_lo, cut_hi = lam - eps, lam + eps
    near_parts, far_parts = [], []
    for part in measure.ac_parts:
        lo, hi = part.support
        for pieces, a, b in (
            (far_parts, lo, min(hi, cut_lo)),
            (near_parts, max(lo, cut_lo), min(hi, cut_hi)),
            (far_parts, max(lo, cut_hi), hi),
        ):
            if a < b:
                pieces.append(type(part)(part.kind, part.parameters, (a, b)))
    near_atoms = tuple(a for a in measure.atoms if abs(a.location - lam) < eps)
    far_atoms = tuple(a for a in measure.atoms if abs(a.location - lam) >= eps)
    return SplitMeasure(
        near=SpectralMeasure(ac_parts=near_parts, atoms=near_atoms),
        far=SpectralMeasure(ac_parts=far_parts, atoms=far_atoms),
        lam=lam,
        eps=eps,
    )


def weighted_mass(
    measure: SpectralMeasure,
    weight: WeightFunction,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> tuple:
    """Total mass of w^2 d mu: the kernel's identity with kernel 1 in place of
    1/(x - z), integral of phi = integral of (phi - c) + sum of c_k (hi_k - lo_k),
    over a kernel plan with no cut and no pole (Re z = -inf), plus the atom
    terms, all summed by ``math.fsum`` (the same bits on every Python).  The
    plan is built apart from the one a ladder keeps.  Returns (value,
    error_estimate).
    """
    abs_tol = real("abs_tol", abs_tol, POSITIVE)
    plan = _Plan(measure, weight, -math.inf)
    terms, err = [mw for _, mw in plan.atoms], 0.0
    if plan.edges:
        res = integrate_adaptive(plan.numerator, plan.grid, abs_tol=abs_tol)
        pieces = zip(plan.cs.tolist(), plan.edges, plan.edges[1:])
        terms += [res.value.real, *(c * (hi - lo) for c, lo, hi in pieces)]
        err = res.error
    return math.fsum(terms), err


def far_bound(split: SplitMeasure, weight: WeightFunction) -> float:
    """A priori bound (integral of w^2 d mu_far) / eps for the far transform,
    valid uniformly in y (far points satisfy |x - lam - iy| >= eps)."""
    mass, err = weighted_mass(split.far, weight)
    return float((mass + err) / split.eps)
