"""Adaptive Gauss-Legendre panel quadrature with batched panel evaluation.

The integrands reaching this layer are bounded or integrably singular only at
panel edges: the Cauchy-transform kernel subtracts the near-axis pole before
integrating, the catalog's kinks and cusps sit on breakpoints, and the kernel
seeds breakpoints graded geometrically toward the pole and toward each cusp.
So plain bisection driven by an embedded error estimate suffices, and the
seed grid alone usually meets the target.

Per panel the integral is evaluated with an n-point and a 2n-point rule; the
2n value is kept and the difference serves as the (conservative) error
estimate.  All seed panels go to the integrand in one call.  When their summed
estimate meets the absolute target, their sum is returned at once.  Otherwise
the worst panel is bisected, both children in one call, until the summed
estimate meets the target or the panel budget runs out.  Either way panels
are summed left to right, and the returned estimate is the honest sum over
panels; ``tolerance_met`` says whether it meets the target.

A y-ladder hands this layer the same seed grid rung after rung.  The last
seed grid sits in one slot, keyed by the value of (a, b, breakpoints, order):
its edges, half-widths and nodes.  A call with an equal key takes those
arrays instead of sorting the breakpoints and placing the nodes again; the
bisection rounds still build their own panels.  The arrays are the ones the
same operations gave on the first call (equal keys give equal panels: the
sign of a zero edge moves no midpoint or half-width), and the node array is
read-only, so no integrand can change it for the next; sharing the slot
changes no bit.
The Cauchy-transform kernel keeps its own one-slot memo, its plan, in the
same way (see ``cauchy_transform``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["DEFAULT_ABS_TOL", "FREEZE", "PanelIntegral", "integrate_adaptive"]

DEFAULT_ABS_TOL = 1e-10  # absolute quadrature target of every caller that sets none
# within this relative width of its own location a panel's nodes are rounded
# onto a handful of floats: its error is irreducible, and it is not split
FREEZE = 64 * np.finfo(float).eps

_RULES: dict = {}


def _rule(n: int):
    """Nodes of the n- and 2n-point rules side by side, and their weights."""
    if n not in _RULES:
        x1, w1 = np.polynomial.legendre.leggauss(n)
        x2, w2 = np.polynomial.legendre.leggauss(2 * n)
        _RULES[n] = (np.concatenate((x1, x2)), w1, w2)
    return _RULES[n]


@dataclass(frozen=True)
class PanelIntegral:
    value: complex
    error: float
    panels: int
    tolerance_met: bool = True


def _summed(vals, errs, abs_tol: float) -> PanelIntegral:
    """Panel values and error estimates summed left to right, one after
    another as Python's ``sum`` adds them; the leading zeros are its start
    values, so signed zeros come out as they do there."""
    value = np.add.accumulate(np.concatenate(([0j], vals)))[-1]
    error = float(np.add.accumulate(np.concatenate(([0.0], errs)))[-1])
    return PanelIntegral(value, error, len(errs), error <= abs_tol)


def _panels(lo: np.ndarray, hi: np.ndarray, order: int):
    """Half-widths of the panels [lo_k, hi_k] and the nodes of both rules on
    each, panel by panel."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half, (mid[:, None] + half[:, None] * _rule(order)[0]).ravel()


_last_grid = None  # one slot: (key, edges, half-widths, read-only nodes) of the last seed grid


def _seed_grid(a: float, b: float, breakpoints, order: int):
    """Edges, half-widths and nodes of the seed panels; equal to the last
    call's (compared by value), they are the last call's arrays."""
    global _last_grid
    key = (a, b, tuple(breakpoints), order)
    grid = _last_grid
    if grid is None or grid[0] != key:
        edges = np.array(sorted({a, b}.union(float(p) for p in breakpoints if a < p < b)))
        half, xs = _panels(edges[:-1], edges[1:], order)
        xs.flags.writeable = False  # the integrand sees the shared array
        grid = _last_grid = (key, edges, half, xs)
    return grid[1:]


def _eval_panels(f, half: np.ndarray, xs: np.ndarray, order: int):
    """Values and error estimates of the panels with half-widths ``half`` and
    nodes ``xs``, in one call of f."""
    _, w1, w2 = _rule(order)
    ys = np.asarray(f(xs)).reshape(half.size, 3 * order)
    coarse = half * (ys[:, :order] @ w1)
    fine = half * (ys[:, order:] @ w2)
    return fine, np.abs(fine - coarse)


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    abs_tol: float = DEFAULT_ABS_TOL,
    breakpoints: Sequence[float] = (),
    order: int = 12,
    max_panels: int = 4000,
) -> PanelIntegral:
    """Integrate a vectorized integrand over [a, b] to an absolute target.

    Parameters
    ----------
    f : callable
        Maps a 1-d ndarray of abscissae to integrand values (real or complex).
    breakpoints : sequence of float
        Interior structure points (kinks, cusps, support edges, graded seeds);
        initial panels never straddle them.
    """
    if not b > a:
        return PanelIntegral(0.0 + 0.0j, 0.0, 0)

    edges, half, xs = _seed_grid(a, b, breakpoints, order)
    vals, errs = _eval_panels(f, half, xs, order)
    live_error = float(np.sum(errs))
    if live_error <= abs_tol:  # the seed grid meets the target: no heap
        return _summed(vals, errs, abs_tol)
    heap = [(-e, k, lo, hi, v, e) for k, (lo, hi, v, e) in enumerate(zip(edges[:-1], edges[1:], vals, errs))]
    heapq.heapify(heap)
    frozen = []  # panels too narrow to split further
    counter = len(heap)

    while counter < max_panels and heap and live_error > abs_tol:
        _, _, lo, hi, val, err = heapq.heappop(heap)
        live_error -= err
        if hi - lo <= FREEZE * max(abs(lo), abs(hi)):
            frozen.append((lo, hi, val, err))
            continue
        mid = 0.5 * (lo + hi)
        vals, errs = _eval_panels(f, *_panels(np.array([lo, mid]), np.array([mid, hi]), order), order)
        for plo, phi, pval, perr in zip((lo, mid), (mid, hi), vals, errs):
            heapq.heappush(heap, (-perr, counter, plo, phi, pval, perr))
            live_error += perr
            counter += 1

    panels = [(item[2], item[3], item[4], item[5]) for item in heap]
    panels.extend(frozen)
    panels.sort(key=lambda p: p[0])  # left to right, as the seed grid
    _, _, vals, errs = zip(*panels)
    return _summed(vals, errs, abs_tol)
