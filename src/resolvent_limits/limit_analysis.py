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

Every line here is fitted by one closed-form least-squares helper: the 1/y
law of a probe's norms, the decay of its differences and the local Holder
exponent of a catalog function from its two-sided increments
(``estimate_holder``, the paper's condition on w^2 rho at lam), each through
log-log data, and the Stone density's tail against y.  A rung whose sample is
not finite is refused, so no fit or rule reads an inf or a NaN.

``_rungs`` is the one loop down a y-ladder: ``limit_probe`` and
``stone_density`` read it, and so does the CLI's compare-oracle, for both the
model's form and the quadrature transform.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NONNEGATIVE, OPEN_UNIT, POSITIVE, DegenerateFit, EvaluatorFailure, InvalidExponent, integer, real, reals
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
    "HolderEstimate",
    "geometric_radii",
    "holder_increments",
    "estimate_holder",
]

CONVERGES = "CONVERGES"
DIVERGES = "DIVERGES"
INCONCLUSIVE = "INCONCLUSIVE"

# the longest y-ladder a schedule may hold; the ladders in use hold at most 17 values
MAX_RUNGS = 10_000


@dataclass(frozen=True)
class YSchedule:
    """Geometric ladder of floats y_k = y_max * ratio^k down to y_min (at least 8, at most MAX_RUNGS),
    built once into the read-only tuple ``values``, which is not a field."""

    y_max: float = 0.1
    y_min: float = 1e-6
    ratio: float = 0.5

    def __post_init__(self):
        for name, rule in (("y_max", POSITIVE), ("y_min", POSITIVE), ("ratio", OPEN_UNIT)):
            object.__setattr__(self, name, real(name, getattr(self, name), rule))
        if not self.y_min <= self.y_max:
            raise ValueError("need y_min <= y_max")
        values = []
        y = self.y_max
        floor = self.y_min * (1.0 - 1e-12)
        while y >= floor:
            if len(values) == MAX_RUNGS:  # a ratio near 1 makes a ladder of any length
                raise ValueError(f"schedule would hold more than {MAX_RUNGS} values; at most {MAX_RUNGS} are allowed")
            values.append(y)
            y *= self.ratio
        if len(values) < 8:
            raise ValueError("schedule must contain at least 8 values")
        object.__setattr__(self, "values", tuple(values))


class ProbeSample(NamedTuple):
    y: float
    shadow: complex  # scalar value, or trace for matrix samples
    norm: float
    diff: float  # distance to the previous sample; nan for the first
    tag: str
    # the quadrature's accounting of a transform sample; None for the others
    abs_error_estimate: float | None = None
    panels: int | None = None
    tolerance_met: bool | None = None


class LimitReport(NamedTuple):
    lam: float
    schedule: YSchedule
    samples: tuple
    verdict: str
    fitted_rate: float
    limit_estimate: complex | None
    rate_residual: float


def _line_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple:
    """Least-squares line through the points (xs, ys): (slope, RMS residual,
    intercept), in closed form from centred two-pass sums.  Each sum is a
    ``math.fsum``, whose bits do not depend on the Python version (``sum``
    compensates from 3.12 on).  Raises DegenerateFit when all xs are equal;
    when all ys are, the line is exact, as the rounded mean of ys need not be."""
    if min(xs) == max(xs):
        raise DegenerateFit("all abscissae equal; slope undefined")
    if all(y == ys[0] for y in ys):
        return 0.0, 0.0, ys[0] + 0.0  # + 0.0: the mean of zeros is 0.0, never -0.0
    n = len(xs)
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    dxs = [x - mx for x in xs]
    dys = [y - my for y in ys]
    slope = math.fsum([dx * dy for dx, dy in zip(dxs, dys)]) / math.fsum([dx * dx for dx in dxs])
    rms = math.sqrt(math.fsum([(dy - slope * dx) ** 2 for dx, dy in zip(dxs, dys)]) / n)
    return slope, rms, my - slope * mx


def _loglog_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple:
    """Least-squares line through (log xs, log ys): (slope, RMS residual,
    intercept)."""
    return _line_fit(np.log(xs).tolist(), np.log(ys).tolist())


# numpy's floating-point warnings are off down the whole ladder, set once a
# call: the finiteness check in the loop is the one refusal of a rung
@np.errstate(all="ignore")
def _rungs(evaluator: Callable[[complex], object], lam: float, schedule: YSchedule) -> list:
    """One ProbeSample per rung down the schedule, each with its distance to
    the one before: the operator-norm distance between two matrix samples,
    |shadow difference| otherwise.

    Evaluator exceptions are re-raised as EvaluatorFailure carrying the
    offending y, and so is a FloatingPointError for the first rung whose
    shadow, norm or distance is not finite, with no overflow or invalid-value
    warning before it.  ``limit_probe``, ``stone_density`` and the CLI's
    compare-oracle (both of its ladders) read their samples here.
    """
    samples, last = [], None  # last: the previous rung's evaluator result
    for y in schedule.values:
        try:
            raw = evaluator(complex(lam, y))
        except Exception as exc:
            raise EvaluatorFailure(y, exc) from exc
        if isinstance(raw, OperatorSample):
            diff = raw.distance(last) if samples else math.nan
            sample = ProbeSample(y, raw.trace, float(raw.norm), diff, "matrix")
        else:
            transform = isinstance(raw, TransformValue)
            v = complex(raw.value if transform else raw)
            diff = abs(v - samples[-1].shadow) if samples else math.nan
            accounting = (raw.abs_error_estimate, raw.panels_used, raw.tolerance_met) if transform else ()
            sample = ProbeSample(y, v, abs(v), diff, "transform" if transform else "scalar", *accounting)
        if not (cmath.isfinite(sample.shadow) and math.isfinite(sample.norm) and (math.isfinite(diff) or not samples)):
            bad = f"shadow={sample.shadow!r}, norm={sample.norm!r}, diff={diff!r}"
            raise EvaluatorFailure(y, FloatingPointError(f"sample is not finite: {bad}"))
        samples.append(sample)
        last = raw
    return samples


def limit_probe(
    evaluator: Callable[[complex], object],
    lam: float,
    schedule: YSchedule,
    tolerance: float = 1e-6,
) -> LimitReport:
    """Probe lim of evaluator(lam + iy) as y runs down the schedule.

    The evaluator may return a complex number, a TransformValue or an
    OperatorSample.  Evaluator exceptions are re-raised as EvaluatorFailure
    carrying the offending y; a sample that is not finite raises one too.
    """
    lam, tolerance = real("lam", lam), real("tolerance", tolerance)
    samples = tuple(_rungs(evaluator, lam, schedule))
    ys = schedule.values
    norms = [s.norm for s in samples]
    diffs = [s.diff for s in samples[1:]]

    def report(verdict, rate, residual, limit=None):
        return LimitReport(lam, schedule, samples, verdict, rate, limit, residual)

    # only increasing norms are fitted: nothing else reads the slope
    rising = norms[-1] > norms[0] and all(b >= a * (1.0 - 1e-9) for a, b in zip(norms, norms[1:]))
    if rising and all(v > 0 for v in norms):
        slope, residual, _ = _loglog_fit(ys, norms)
        if slope <= -0.5 and residual < 0.1:
            return report(DIVERGES, slope, residual)

    rate = residual = 0.0
    positive = [(y, d) for y, d in zip(ys, diffs) if d > 0]  # diff k sits at ys[k]
    if len(positive) >= 2:
        rate, residual, _ = _loglog_fit(*zip(*positive))
    if not (all(b <= a * 1.1 + 1e-300 for a, b in zip(diffs, diffs[1:])) and diffs[-1] <= tolerance):
        return report(INCONCLUSIVE, rate, residual)
    limit = samples[-1].shadow
    if rate > 0 and residual < 0.05 and diffs[-1] > 0:
        # one-term Richardson step along the fitted power law
        rho = schedule.ratio ** rate
        limit += (limit - samples[-2].shadow) * rho / (1.0 - rho)
    return report(CONVERGES, rate, residual, limit)


def fit_divergence_rate(norms: Sequence[float], ys: Sequence[float]) -> tuple:
    """Least-squares slope of log(norm) against log(y) plus RMS residual.

    A 1/y eigenvalue divergence fits slope -1.  Raises DegenerateFit when all
    norms coincide, or all ys (no rate to fit).
    """
    norms, ys = reals("norms", norms, POSITIVE), reals("ys", ys, POSITIVE)
    if norms.size != ys.size or norms.size < 4:
        raise ValueError("need equal-length inputs with at least 4 samples")
    if np.all(norms == norms[0]):
        raise DegenerateFit("all norms equal; slope undefined")
    return _loglog_fit(ys, norms)[:2]


class CompactnessReport(NamedTuple):
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
    if s != s or not (s := real("s", s)) > 0.5:  # a NaN exponent does not exceed 1/2 either
        raise InvalidExponent(f"decay exponent s={s} must exceed 1/2")
    radii = reals("truncation_radii", truncation_radii, POSITIVE).tolist()
    if not (radii and all(a < b for a, b in zip(radii, radii[1:]))):
        raise ValueError("truncation_radii must be a nonempty and increasing list")
    if not model.nodes.size:
        raise ValueError("the model has no nodes: its measure has no atom and no density node of positive mass")

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
        s=s,
        truncation_radii=tuple(radii),
        singular_values=tuple(sigma.tolist()),
        sup_bounds=tuple(bounds),
    )


class StoneDensityResult(NamedTuple):
    transform_imag: tuple  # Im C(lam + iy) at each rung
    density_estimates: tuple
    extrapolated: float


def stone_density(
    evaluator: Callable[[complex], object],
    lam: float,
    schedule: YSchedule,
) -> StoneDensityResult:
    """Spectral density from the transform: (1/pi) Im C(lam + iy), y down.

    The evaluator may return anything ``limit_probe`` accepts; a matrix
    sample contributes its trace.  The y -> 0 value is the intercept of the
    least-squares line of the estimates against y, by the same closed form as
    every rate fit, over the tail half of the schedule (smallest y), where the
    Holder error term is negligible.  The tail's y are divided by its largest
    first: that keeps the intercept in exact arithmetic, and keeps the fit's
    squares of y from underflowing below about 1e-162.  For catalog data this
    recovers w(lam)^2 rho(lam).
    """
    imags = [s.shadow.imag for s in _rungs(evaluator, real("lam", lam), schedule)]
    estimates = [v / math.pi for v in imags]
    tail = max(4, len(estimates) // 2)
    ys = schedule.values[-tail:]
    return StoneDensityResult(
        transform_imag=tuple(imags),
        density_estimates=tuple(estimates),
        extrapolated=_line_fit([y / ys[0] for y in ys], estimates[-tail:])[2],
    )


class HolderEstimate(NamedTuple):
    """Fitted local Holder data: |f(x) - f(lam)| ~ constant * |x - lam|^alpha.

    ``alpha_hat`` is the least-squares slope of log-increments against
    log-radius, capped at 1.5; nonpositive values indicate the samples do not
    look Holder at all and are rejected by downstream consumers.
    """

    alpha_hat: float
    constant_hat: float
    fit_window: tuple
    residual: float


def geometric_radii(r_max: float, ratio: float, count: int) -> tuple:
    """Strictly decreasing geometric radius ladder for estimate_holder."""
    r_max = real("r_max", r_max, POSITIVE)
    ratio = real("ratio", ratio, OPEN_UNIT)
    count = integer("count", count, 1)
    return tuple(r_max * ratio ** k for k in range(count))


def holder_increments(f: Callable[[float], float], lam: float, radii: Sequence[float]) -> np.ndarray:
    """Two-sided increment (|f(lam + r) - f(lam)| + |f(lam - r) - f(lam)|) / 2
    for each radius r."""
    lam, radii = real("lam", lam), reals("radii", radii, POSITIVE).tolist()
    f0 = float(f(lam))
    return np.array([0.5 * (abs(float(f(lam + r)) - f0) + abs(float(f(lam - r)) - f0)) for r in radii])


def estimate_holder(lam: float, radii: Sequence[float], increments: Sequence[float]) -> HolderEstimate:
    """Fit a local Holder exponent at ``lam`` from the two-sided increments
    that ``holder_increments`` gives at ``radii``.

    The slope of log-increment against log-radius is the exponent, the
    exponentiated intercept the constant.

    Raises DegenerateFit when more than half the radii produce zero
    increment (locally constant data; callers treat the exponent as 1).
    """
    lam, radii = real("lam", lam), reals("radii", radii, POSITIVE).tolist()
    if len(radii) < 8:
        raise ValueError("need at least 8 radii")
    if not all(b < a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")

    incs = reals("increments", increments, NONNEGATIVE)
    if incs.shape != (len(radii),):
        raise ValueError(f"need one increment per radius, got {incs.shape} for {len(radii)} radii")
    zero = incs == 0.0
    if np.count_nonzero(zero) > len(radii) / 2:
        raise DegenerateFit(f"{np.count_nonzero(zero)} of {len(radii)} increments vanish at lam={lam}")

    rs = np.array(radii)[~zero]
    slope, residual, intercept = _loglog_fit(rs, incs[~zero])
    return HolderEstimate(
        alpha_hat=min(slope, 1.5),
        constant_hat=float(np.exp(intercept)),
        fit_window=(float(rs.min()), float(rs.max())),
        residual=residual,
    )
