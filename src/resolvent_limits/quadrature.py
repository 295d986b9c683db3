"""Adaptive Gauss-Legendre panel quadrature with batched panel evaluation.

The integrands reaching this layer are bounded or integrably singular only at
panel edges: the Cauchy-transform kernel subtracts the near-axis pole before
integrating, the catalog's kinks and cusps sit on breakpoints, and the kernel
seeds breakpoints graded geometrically toward the pole and toward each cusp.
So plain bisection driven by an embedded error estimate suffices, and the
seed grid alone usually meets the target.

A caller builds the seed grid with ``seed_grid`` and hands it to
``integrate_adaptive``; both are pure functions, so a caller that integrates
over one grid again and again (a y-ladder) may keep the grid and reuse it.
Per panel the integral is evaluated with an ORDER-point and a 2*ORDER-point
rule; the finer value is kept and the difference serves as the (conservative)
error estimate.  All seed panels go to the integrand in one call, on the
grid's read-only node array itself.  When their summed estimate meets the
absolute target, their sum is returned at once.  Otherwise the worst panel is
bisected, both children in one call, until the summed estimate meets the
target or MAX_PANELS panels are spent.  Either way panels are summed left to
right, and the returned estimate is the honest sum over panels;
``tolerance_met`` says whether it meets the target.
"""

from __future__ import annotations

import functools
import heapq
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = ["DEFAULT_ABS_TOL", "FREEZE", "PanelIntegral", "SeedGrid", "integrate_adaptive", "seed_grid"]

DEFAULT_ABS_TOL = 1e-10  # absolute quadrature target of every caller that sets none
# within this relative width of its own location a panel's nodes are rounded
# onto a handful of floats: its error is irreducible, and it is not split
FREEZE = 64 * np.finfo(float).eps
ORDER = 12  # points of the coarse rule; the fine rule has twice as many
MAX_PANELS = 4000  # panel budget of one integral


@functools.cache
def _rule():
    """Nodes of the ORDER- and 2*ORDER-point rules side by side, and their
    weights; built on first use, so importing the package leaves
    ``numpy.polynomial`` unloaded."""
    x1, w1 = np.polynomial.legendre.leggauss(ORDER)
    x2, w2 = np.polynomial.legendre.leggauss(2 * ORDER)
    return np.concatenate((x1, x2)), w1, w2


class PanelIntegral(NamedTuple):
    value: complex
    error: float
    panels: int
    tolerance_met: bool = True


class SeedGrid(NamedTuple):
    """Edges, half-widths and (read-only) nodes of the seed panels."""

    edges: np.ndarray
    half: np.ndarray
    nodes: np.ndarray


def _summed(vals, errs, abs_tol: float) -> PanelIntegral:
    """Panel values and error estimates summed left to right, one after
    another, with a zero start value added last.  Added first, the zero could
    only turn a -0 partial sum into +0, and a zero's sign is lost at the first
    nonzero term; added last, it turns a -0 total into +0 alike, since 0 + x
    is x for every x but -0.  So both orders give the same bits."""
    value = np.add.accumulate(vals)[-1] + 0j
    error = float(np.add.accumulate(errs)[-1] + 0.0)
    return PanelIntegral(value, error, len(errs), error <= abs_tol)


def _panels(lo: np.ndarray, hi: np.ndarray):
    """Half-widths of the panels [lo_k, hi_k] and the nodes of both rules on
    each, panel by panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half, (mid[:, None] + half[:, None] * _rule()[0]).ravel()


def seed_grid(a: float, b: float, breakpoints: Sequence[float] = ()) -> SeedGrid:
    """Seed panels of [a, b], split at the ``breakpoints`` inside it (kinks,
    cusps, support edges, graded seeds); no panel when b <= a."""
    edges = np.array(sorted({a, b}.union(float(p) for p in breakpoints if a < p < b)) if b > a else [])
    half, nodes = _panels(edges[:-1], edges[1:])
    nodes.flags.writeable = False  # a caller may hand the same nodes to every integrand
    return SeedGrid(edges, half, nodes)


def _eval_panels(f, half: np.ndarray, xs: np.ndarray):
    """Values and error estimates of the panels with half-widths ``half`` and
    nodes ``xs``, in one call of f."""
    _, w1, w2 = _rule()
    ys = np.asarray(f(xs)).reshape(half.size, 3 * ORDER)
    coarse = half * (ys[:, :ORDER] @ w1)
    fine = half * (ys[:, ORDER:] @ w2)
    return fine, np.abs(fine - coarse)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    grid: SeedGrid,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> PanelIntegral:
    """Integrate a vectorized integrand over a seed grid to an absolute target.

    ``f`` maps a 1-d ndarray of abscissae to integrand values (real or
    complex); its first call is on ``grid.nodes`` itself.
    """
    if not grid.half.size:
        return PanelIntegral(0.0 + 0.0j, 0.0, 0)

    vals, errs = _eval_panels(f, grid.half, grid.nodes)
    seeded = _summed(vals, errs, abs_tol)
    if seeded.tolerance_met:  # the seed grid meets the target: no heap
        return seeded
    live_error = seeded.error
    heap = [(-e, k, lo, hi, v, e) for k, (lo, hi, v, e) in enumerate(zip(grid.edges[:-1], grid.edges[1:], vals, errs))]
    heapq.heapify(heap)
    frozen = []  # panels too narrow to split further
    counter = len(heap)

    while counter < MAX_PANELS and heap and live_error > abs_tol:
        _, _, lo, hi, val, err = heapq.heappop(heap)
        live_error -= err
        if hi - lo <= FREEZE * max(abs(lo), abs(hi)):
            frozen.append((lo, hi, val, err))
            continue
        mid = 0.5 * (lo + hi)
        vals, errs = _eval_panels(f, *_panels(np.array([lo, mid]), np.array([mid, hi])))
        for plo, phi, pval, perr in zip((lo, mid), (mid, hi), vals, errs):
            heapq.heappush(heap, (-perr, counter, plo, phi, pval, perr))
            live_error += perr
            counter += 1

    panels = [(item[2], item[3], item[4], item[5]) for item in heap]
    panels.extend(frozen)
    panels.sort(key=lambda p: p[0])  # left to right, as the seed grid
    _, _, vals, errs = zip(*panels)
    return _summed(vals, errs, abs_tol)
