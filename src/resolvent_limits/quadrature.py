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
error estimate.  Both rules are module constants, written out as the exact
floats numpy's ``leggauss`` returns, so no run imports ``numpy.polynomial``
and no numpy or LAPACK build can move their bits.  All seed panels go to the
integrand in one call, on the grid's read-only node array itself.  When their
summed estimate meets the absolute target, their sum is returned at once.
Otherwise the worst panel is bisected, both children in one call, until the
summed estimate meets the target or MAX_PANELS panels are spent.  Either way
panels are summed left to right, and the returned estimate is the honest sum
over panels; ``tolerance_met`` says whether it meets the target.
"""

from __future__ import annotations

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


# The non-negative halves of the ORDER- and 2*ORDER-point Gauss-Legendre
# rules, (node, weight) pairs with the nodes ascending, in float.hex: the exact
# floats that numpy.polynomial.legendre.leggauss returns.  Its nodes are
# exactly antisymmetric and its weights exactly symmetric, so mirroring a half
# rebuilds its whole rule bit for bit.
_COARSE_HALF = (
    ("0x1.007a5f8f630e4p-3", "0x1.fe40ce6d4f022p-3"),
    ("0x1.78a8d20a8b19dp-2", "0x1.de3155c256aaep-3"),
    ("0x1.2cb4f05c077f9p-1", "0x1.a0163e6b1ab6bp-3"),
    ("0x1.8a30aeed88f36p-1", "0x1.47d7258f22d96p-3"),
    ("0x1.cee874ffb88b3p-1", "0x1.b60602bce61afp-4"),
    ("0x1.f68f1d8e42e81p-1", "0x1.8275d9dea6d53p-5"),
)
_FINE_HALF = (
    ("0x1.0660853eda2e8p-4", "0x1.060475e763731p-3"),
    ("0x1.8769542b94f8dp-3", "0x1.01b7117cf8bd6p-3"),
    ("0x1.429a8c588e910p-2", "0x1.f25cbce1d1fefp-4"),
    ("0x1.bc345d81e24b5p-2", "0x1.d91c78acb1b27p-4"),
    ("0x1.17417bac4d72bp-1", "0x1.b8177ba4a68d7p-4"),
    ("0x1.4bd2ee5fa1086p-1", "0x1.8fd8936444b19p-4"),
    ("0x1.7af18edb9ddd6p-1", "0x1.6108ef5044635p-4"),
    ("0x1.a3d74ce0d3700p-1", "0x1.2c6d5c2eff05ap-4"),
    ("0x1.c5d841864d0f5p-1", "0x1.e5c6255d25e9dp-5"),
    ("0x1.e06585a70aa4dp-1", "0x1.6ab884f57c940p-5"),
    ("0x1.f30f9f0cbf876p-1", "0x1.d375514486effp-6"),
    ("0x1.fd892de691982p-1", "0x1.9465bd311255dp-7"),
)


def _mirrored(half) -> tuple:
    """Ascending nodes and their weights of the whole rule on [-1, 1], read-only."""
    x, w = np.array([[float.fromhex(h) for h in pair] for pair in half]).T
    x, w = np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))
    x.flags.writeable = w.flags.writeable = False
    return x, w


_X1, _W1 = _mirrored(_COARSE_HALF)
_X2, _W2 = _mirrored(_FINE_HALF)
_NODES = np.concatenate((_X1, _X2))  # both rules side by side, as _panels places them
_NODES.flags.writeable = False


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
    return half, (mid[:, None] + half[:, None] * _NODES).ravel()


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
    ys = np.asarray(f(xs)).reshape(half.size, 3 * ORDER)
    coarse = half * (ys[:, :ORDER] @ _W1)
    fine = half * (ys[:, ORDER:] @ _W2)
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
