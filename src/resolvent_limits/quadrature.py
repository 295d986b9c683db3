"""Adaptive Gauss-Legendre panel quadrature with batched panel evaluation.

The integrands reaching this layer are bounded or integrably singular only at
panel edges: the Cauchy-transform kernel subtracts the near-axis pole before
integrating and seeds breakpoints graded toward it, and the catalog's cusps
and kinks sit on breakpoints.  So plain bisection driven by an embedded error
estimate suffices.

Per panel the integral is evaluated with an n-point and a 2n-point rule; the
2n value is kept and the difference serves as the (conservative) error
estimate.  All seed panels go to the integrand in one call, and so do both
children of each bisection.  The worst panel is bisected until the summed
estimate meets the absolute target or the panel budget runs out.  The
returned estimate is always the honest sum over panels, and
``tolerance_met`` says whether it meets the target.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["DEFAULT_ABS_TOL", "PanelIntegral", "integrate_adaptive"]

DEFAULT_ABS_TOL = 1e-10  # absolute quadrature target of every caller that sets none

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


def _eval_panels(f, lo: np.ndarray, hi: np.ndarray, order: int):
    """Values and error estimates of the panels [lo_k, hi_k], in one call of f."""
    nodes, w1, w2 = _rule(order)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    xs = mid[:, None] + half[:, None] * nodes
    ys = np.asarray(f(xs.ravel())).reshape(xs.shape)
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

    edges = np.array(sorted({a, b}.union(float(p) for p in breakpoints if a < p < b)))
    vals, errs = _eval_panels(f, edges[:-1], edges[1:], order)
    heap = [(-e, k, lo, hi, v, e) for k, (lo, hi, v, e) in enumerate(zip(edges[:-1], edges[1:], vals, errs))]
    heapq.heapify(heap)
    frozen = []  # panels too narrow to split further
    counter = len(heap)
    live_error = float(np.sum(errs))

    while counter < max_panels and heap and live_error > abs_tol:
        _, _, lo, hi, val, err = heapq.heappop(heap)
        live_error -= err
        # within 64 ulps of its own location a panel's nodes are rounded onto
        # a handful of floats: its error is irreducible
        if hi - lo <= 64 * np.finfo(float).eps * max(abs(lo), abs(hi)):
            frozen.append((lo, hi, val, err))
            continue
        mid = 0.5 * (lo + hi)
        vals, errs = _eval_panels(f, np.array([lo, mid]), np.array([mid, hi]), order)
        for plo, phi, pval, perr in zip((lo, mid), (mid, hi), vals, errs):
            heapq.heappush(heap, (-perr, counter, plo, phi, pval, perr))
            live_error += perr
            counter += 1

    panels = [(item[2], item[3], item[4], item[5]) for item in heap]
    panels.extend(frozen)
    panels.sort(key=lambda p: p[0])  # deterministic summation order
    value = sum((p[2] for p in panels), 0.0 + 0.0j)
    error = float(sum(p[3] for p in panels))
    return PanelIntegral(value, error, len(panels), error <= abs_tol)
