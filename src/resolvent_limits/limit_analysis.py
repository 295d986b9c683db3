"""Boundary-limit probes along geometric y-schedules.

``limit_probe`` drives an evaluator over z = lam + i y_k for a decreasing
geometric schedule and classifies the outcome:

* DIVERGES: sample norms grow monotonically as y drops and log-norm against
  log-y fits a slope <= -0.5 with residual < 0.1 (the eigenvalue 1/y law
  shows up as slope -1);
* CONVERGES: successive differences shrink (10% slack absorbs quadrature
  noise) and the final difference is below tolerance; the reported limit is
  the last sample, Richardson-refined along the fitted rate when the rate fit
  is trustworthy (residual < 0.05);
* INCONCLUSIVE otherwise.

Matrix-valued samples are compared in operator norm: ``max |d|`` of the
diagonal for the identity embedding, the spectral norm of the difference of
the two m x m products otherwise.  Their scalar shadow in reports is the
trace, which for the identity embedding equals the discrete transform value.
The verdict order (divergence test first, tolerance-gated convergence second)
guarantees that shrinking the tolerance can only demote CONVERGES to
INCONCLUSIVE, never flip it to DIVERGES.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateFit, EvaluatorFailure, InvalidExponent
# operator_norm is not called here: samples compute their own norms.  The name
# stays because the benchmark's traced run (bench/tracing.py) wraps it.
from .matrix_oracle import MatrixModel, OperatorSample, operator_norm  # noqa: F401
from .cauchy_transform import TransformValue

__all__ = [
    "YSchedule",
    "LimitReport",
    "ProbeSample",
    "CompactnessReport",
    "StoneDensityResult",
    "limit_probe",
    "fit_divergence_rate",
    "compactness_probe",
    "stone_density",
]

CONVERGES = "CONVERGES"
DIVERGES = "DIVERGES"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class YSchedule:
    """Geometric ladder y_k = y_max * ratio^k down to y_min (at least 8)."""

    y_max: float = 0.1
    y_min: float = 1e-6
    ratio: float = 0.5

    def __post_init__(self):
        if not (0 < self.ratio < 1):
            raise ValueError("ratio must lie in (0, 1)")
        if not (0 < self.y_min <= self.y_max):
            raise ValueError("need 0 < y_min <= y_max")
        if len(self.values) < 8:
            raise ValueError("schedule must contain at least 8 values")

    @property
    def values(self) -> tuple:
        out = []
        y = self.y_max
        floor = self.y_min * (1.0 - 1e-12)
        while y >= floor:
            out.append(y)
            y *= self.ratio
        return tuple(out)


@dataclass(frozen=True)
class ProbeSample:
    y: float
    shadow: complex  # scalar value, or trace for matrix samples
    norm: float
    diff: float  # distance to the previous sample; nan for the first
    tag: str


@dataclass(frozen=True)
class LimitReport:
    lam: float
    schedule: YSchedule
    samples: tuple
    verdict: str
    fitted_rate: float
    limit_estimate: complex | None
    rate_residual: float


def _loglog_fit(xs: np.ndarray, ys: np.ndarray) -> tuple:
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return float(slope), rms


def _unpack(sample) -> tuple:
    """Normalize an evaluator result to (shadow, norm, tag)."""
    if isinstance(sample, OperatorSample):
        return sample.trace, float(sample.norm), "matrix"
    if isinstance(sample, TransformValue):
        v = complex(sample.value)
        return v, abs(v), "transform"
    v = complex(sample)
    return v, abs(v), "scalar"


def _ladder(evaluator: Callable[[complex], object], lam: float, schedule: YSchedule):
    """Yield (y, raw sample, (shadow, norm, tag)) down the schedule.

    Evaluator exceptions are re-raised as EvaluatorFailure carrying the
    offending y.
    """
    for y in schedule.values:
        try:
            raw = evaluator(complex(lam, y))
        except Exception as exc:
            raise EvaluatorFailure(y, exc) from exc
        yield y, raw, _unpack(raw)


def limit_probe(
    evaluator: Callable[[complex], object],
    lam: float,
    schedule: YSchedule,
    tolerance: float = 1e-6,
) -> LimitReport:
    """Probe lim of evaluator(lam + iy) as y runs down the schedule.

    The evaluator may return a complex number, a TransformValue or an
    OperatorSample.  Evaluator exceptions are re-raised as EvaluatorFailure
    carrying the offending y.
    """
    samples = []
    prev = None
    for y, raw, (shadow, norm, tag) in _ladder(evaluator, lam, schedule):
        if prev is None:
            diff = float("nan")
        elif isinstance(raw, OperatorSample):
            diff = raw.distance(prev)
        else:
            diff = abs(shadow - samples[-1].shadow)
        samples.append(ProbeSample(y=y, shadow=shadow, norm=norm, diff=diff, tag=tag))
        prev = raw

    ys = np.array([s.y for s in samples])
    norms = np.array([s.norm for s in samples])
    diffs = np.array([s.diff for s in samples[1:]])

    verdict = INCONCLUSIVE
    fitted_rate = 0.0
    rate_residual = 0.0
    limit_estimate: complex | None = None

    norm_slope, norm_res = (0.0, 0.0)
    if np.all(norms > 0) and not np.all(norms == norms[0]):
        norm_slope, norm_res = _loglog_fit(ys, norms)
    increasing = np.all(norms[1:] >= norms[:-1] * (1.0 - 1e-9)) and norms[-1] > norms[0]

    if increasing and norm_slope <= -0.5 and norm_res < 0.1:
        verdict = DIVERGES
        fitted_rate = norm_slope
        rate_residual = norm_res
    else:
        pos = diffs > 0
        if np.count_nonzero(pos) >= 2:
            fitted_rate, rate_residual = _loglog_fit(ys[:-1][pos], diffs[pos])
        nonincreasing = np.all(diffs[1:] <= diffs[:-1] * 1.1 + 1e-300)
        if diffs.size and nonincreasing and diffs[-1] <= tolerance:
            verdict = CONVERGES
            limit_estimate = samples[-1].shadow
            if fitted_rate > 0 and rate_residual < 0.05 and diffs[-1] > 0:
                # one-term Richardson step along the fitted power law
                rho = schedule.ratio ** fitted_rate
                step = samples[-1].shadow - samples[-2].shadow
                limit_estimate = samples[-1].shadow + step * rho / (1.0 - rho)

    return LimitReport(
        lam=float(lam),
        schedule=schedule,
        samples=tuple(samples),
        verdict=verdict,
        fitted_rate=float(fitted_rate),
        limit_estimate=limit_estimate,
        rate_residual=float(rate_residual),
    )


def fit_divergence_rate(norms: Sequence[float], ys: Sequence[float]) -> tuple:
    """Least-squares slope of log(norm) against log(y) plus RMS residual.

    A 1/y eigenvalue divergence fits slope -1.  Raises DegenerateFit when all
    norms coincide (no rate to fit).
    """
    norms = np.asarray(norms, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if norms.size != ys.size or norms.size < 4:
        raise ValueError("need equal-length inputs with at least 4 samples")
    if np.any(norms <= 0) or np.any(ys <= 0):
        raise ValueError("norms and ys must be positive")
    if np.all(norms == norms[0]):
        raise DegenerateFit("all norms equal; slope undefined")
    return _loglog_fit(ys, norms)


@dataclass(frozen=True)
class CompactnessReport:
    s: float
    truncation_radii: tuple
    singular_values: tuple
    sup_bounds: tuple


def compactness_probe(
    model: MatrixModel,
    s: float,
    truncation_radii: Sequence[float],
) -> CompactnessReport:
    """Numerical witness that F (1 + |H|)^{-s} is compact for s > 1/2.

    Emits the singular values of the finite model (diagonal magnitudes
    ``w_i sqrt(mu_i) (1 + |x_i|)^{-s}`` under the identity embedding) and, per
    truncation radius R, the tail sup ``max_{|x_i| > R} w_i (1 + |x_i|)^{-s}``,
    which is nonincreasing in R and exactly 0 once R covers the weight support.
    """
    if s <= 0.5:
        raise InvalidExponent(f"decay exponent s={s} must exceed 1/2")
    radii = [float(r) for r in truncation_radii]
    if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("truncation radii must be positive and increasing")

    damp = (1.0 + np.abs(model.nodes)) ** (-s)
    diag = model.rigging_diagonal() * damp
    if model.embedding is None:
        sigma = np.sort(np.abs(diag))[::-1]
    else:
        sigma = np.linalg.svd(model.embedding * diag, compute_uv=False)

    g = model.weights * damp
    bounds = []
    for r in radii:
        outside = np.abs(model.nodes) > r
        bounds.append(float(np.max(g[outside])) if np.any(outside) else 0.0)
    return CompactnessReport(
        s=float(s),
        truncation_radii=tuple(radii),
        singular_values=tuple(float(v) for v in sigma),
        sup_bounds=tuple(bounds),
    )


@dataclass(frozen=True)
class StoneDensityResult:
    density_estimates: tuple
    extrapolated: float


def stone_density(
    evaluator: Callable[[complex], object],
    lam: float,
    schedule: YSchedule,
) -> StoneDensityResult:
    """Spectral density from the transform: (1/pi) Im C(lam + iy), y down.

    The evaluator may return anything ``limit_probe`` accepts; a matrix
    sample contributes its trace.  The y -> 0 value is the intercept of a
    linear fit of the estimates against y over the tail half of the schedule
    (smallest y), where the Holder error term is negligible.  For catalog
    data this recovers w(lam)^2 rho(lam).
    """
    estimates = [shadow.imag / math.pi for _, _, (shadow, _, _) in _ladder(evaluator, lam, schedule)]
    ys = np.array(schedule.values)
    vals = np.array(estimates)
    tail = max(4, ys.size // 2)
    coeffs = np.polyfit(ys[-tail:], vals[-tail:], 1)
    return StoneDensityResult(
        density_estimates=tuple(float(v) for v in estimates),
        extrapolated=float(coeffs[1]),
    )
