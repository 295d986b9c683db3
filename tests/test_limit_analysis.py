import math
from dataclasses import FrozenInstanceError, asdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resolvent_limits import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    SAME,
    Atom,
    CompactnessReport,
    DegenerateFit,
    DensityFamily,
    EvaluatorFailure,
    HolderEstimate,
    InvalidExponent,
    LimitReport,
    MatrixModel,
    OperatorSample,
    ProbeSample,
    SpectralMeasure,
    SplitMeasure,
    StoneDensityResult,
    TransformValue,
    WeightFunction,
    YSchedule,
    compactness_probe,
    discretize,
    evaluate_offaxis,
    estimate_holder,
    fit_divergence_rate,
    geometric_radii,
    holder_increments,
    limit_probe,
    plemelj_boundary,
    regularized_resolvent,
    sandwiched_resolvent,
    stone_density,
)
from resolvent_limits.cli import ExperimentConfig, Tolerances
from resolvent_limits.limit_analysis import _line_fit, _loglog_fit, _rungs
from resolvent_limits.quadrature import PanelIntegral

PLATEAU = WeightFunction("plateau", {"center": 0.0, "half_width": 1.0})
FLAT = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 1.0}, (-1.0, 1.0)),))
SCHED = YSchedule()


def test_schedule_values_geometric_and_long_enough():
    s = YSchedule(y_max=0.1, y_min=1e-6, ratio=0.5)
    vals = s.values
    assert len(vals) >= 8
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.1
    assert vals[-1] >= 1e-6 * (1 - 1e-12)
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    assert all(abs(r - 0.5) < 1e-12 for r in ratios)


def test_schedule_validation():
    with pytest.raises(ValueError):
        YSchedule(y_max=0.1, y_min=0.09, ratio=0.5)  # too few entries
    with pytest.raises(ValueError):
        YSchedule(ratio=1.5)
    with pytest.raises(ValueError):
        YSchedule(y_max=-1.0)


def test_schedule_rejects_an_infinite_y_max():
    # the ladder from inf never reaches y_min, so building its values would never
    # end; an int beyond the float range is refused alike, not by OverflowError
    for y_max in math.inf, 10**400:
        with pytest.raises(ValueError, match="y_max must be finite"):
            YSchedule(y_max=y_max)


def test_schedule_rejects_an_overlong_ladder():
    # a ratio of 0.9999 from 0.1 down to 1e-6 is a ladder of 115,000 values; a
    # ratio just below 1 makes one of 1e17, or one that never ends once
    # y * ratio rounds back to y
    for ratio in 0.9999, math.nextafter(1.0, 0.0):
        with pytest.raises(ValueError, match="at most 10000 are allowed"):
            YSchedule(ratio=ratio)


def test_schedule_holds_a_ladder_of_exactly_the_longest_length():
    # a log-based count read this ladder as "about 1e+04" values and refused it
    assert len(YSchedule(0.1, 0.1 * 0.999**9999, 0.999).values) == 10_000
    with pytest.raises(ValueError, match="at most 10000 are allowed"):
        YSchedule(0.1, 0.1 * 0.999**10_000, 0.999)


def _ladder(y_max, y_min, ratio):
    """The ladder as the schedule's ``values`` property once rebuilt it on every access."""
    out = []
    y = float(y_max)
    floor = y_min * (1.0 - 1e-12)
    while y >= floor:
        out.append(y)
        y *= ratio
    return tuple(out)


@given(
    st.floats(1e-50, 1e50),
    st.floats(0.01, 0.999),
    st.sampled_from([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-13]),
    st.data(),
)
def test_schedule_values_are_the_geometric_loop_built_once(y_max, ratio, slack, data):
    # y_min near the k-th rung, so that ladders of 1 to 10101 values are drawn
    k = data.draw(st.integers(0, min(10_100, int(250 / -math.log10(ratio)))))
    y_min = y_max * ratio**k * slack
    reference = _ladder(y_max, y_min, ratio)
    if not (8 <= len(reference) <= 10_000 and y_min <= y_max):
        with pytest.raises(ValueError):
            YSchedule(y_max, y_min, ratio)
        return
    s = YSchedule(y_max, y_min, ratio)
    assert [v.hex() for v in s.values] == [v.hex() for v in reference]
    assert s.values is s.values
    # values is no field: the config echo and the reports see the three fields alone
    assert asdict(s) == {"y_max": s.y_max, "y_min": s.y_min, "ratio": s.ratio}
    other = YSchedule(s.y_max, s.y_min, s.ratio)
    object.__setattr__(other, "values", ())
    assert other == s and hash(other) == hash(s)
    with pytest.raises(FrozenInstanceError):
        s.values = ()


# each record that validates nothing, a NamedTuple: its fields in order, and the
# defaults of the trailing ones; _rungs builds a ProbeSample by position
PLAIN_RECORDS = {
    PanelIntegral: (("value", "error", "panels", "tolerance_met"), {"tolerance_met": True}),
    TransformValue: (("value", "abs_error_estimate", "panels_used", "tolerance_met"), {"tolerance_met": True}),
    ProbeSample: (
        ("y", "shadow", "norm", "diff", "tag", "abs_error_estimate", "panels", "tolerance_met"),
        dict.fromkeys(("abs_error_estimate", "panels", "tolerance_met")),
    ),
    LimitReport: (("lam", "schedule", "samples", "verdict", "fitted_rate", "limit_estimate", "rate_residual"), {}),
    CompactnessReport: (("s", "truncation_radii", "singular_values", "sup_bounds"), {}),
    StoneDensityResult: (("transform_imag", "density_estimates", "extrapolated"), {}),
    HolderEstimate: (("alpha_hat", "constant_hat", "fit_window", "residual"), {}),
    OperatorSample: (("z", "diag", "product", "norm"), {}),
    SplitMeasure: (("near", "far", "lam", "eps"), {}),
    ExperimentConfig: (
        (
            "measure", "weight", "lam", "schedule", "evaluator", "regularize", "n", "embedding_dim", "seed",
            "tolerances", "compactness_s", "compactness_radii", "holder_target", "holder_point", "holder_r_max",
            "holder_ratio", "holder_count", "output_prefix",
        ),
        {
            "lam": 0.0, "schedule": YSchedule(), "evaluator": "transform", "regularize": False, "n": 2000,
            "embedding_dim": SAME, "seed": 0, "tolerances": Tolerances(), "compactness_s": 1.0,
            "compactness_radii": (0.25, 0.5, 1.0, 2.0), "holder_target": "density", "holder_point": None,
            "holder_r_max": 0.125, "holder_ratio": 0.5, "holder_count": 10, "output_prefix": "run",
        },
    ),
}


@pytest.mark.parametrize("record", PLAIN_RECORDS, ids=lambda r: r.__name__)
def test_a_rung_record_keeps_its_fields_and_is_read_only(record):
    names, defaults = PLAIN_RECORDS[record]
    assert record._fields == names and record._field_defaults == defaults
    built = record(*range(len(names)))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(built, name, None)


def test_limit_probe_constant_evaluator():
    report = limit_probe(lambda z: 3.0 + 1.0j, 0.0, SCHED)
    assert report.verdict == CONVERGES
    assert report.limit_estimate == 3.0 + 1.0j
    assert all(s.diff == 0.0 for s in report.samples[1:])


def test_limit_probe_atom_divergence():
    model = MatrixModel(
        nodes=np.array([0.0]),
        masses=np.array([1.0]),
        weights=np.array([1.0]),
        atom_flags=np.array([True]),
    )
    report = limit_probe(lambda z: sandwiched_resolvent(model, z), 0.0, SCHED)
    assert report.verdict == DIVERGES
    assert report.fitted_rate == pytest.approx(-1.0, abs=1e-10)


def test_limit_probe_transform_reaches_plemelj():
    report = limit_probe(
        lambda z: evaluate_offaxis(FLAT, PLATEAU, z), 0.0, SCHED, tolerance=1e-4
    )
    assert report.verdict == CONVERGES
    assert abs(report.limit_estimate - 1j * math.pi) < 1e-3


def test_limit_probe_converges_past_an_atom_the_weight_cannot_see():
    # constant 1 on [-1, 2], hat weight vanishing at the atom at lam = 1
    measure = SpectralMeasure((DensityFamily("constant", {"level": 1.0}, (-1.0, 2.0)),), (Atom(1.0, 0.5),))
    hat = WeightFunction("hat", {"center": 0.0, "half_width": 1.0})
    report = limit_probe(lambda z: evaluate_offaxis(measure, hat, z), 1.0, YSchedule(1e-1, 1e-10, 0.1))
    assert report.verdict == CONVERGES
    assert abs(report.limit_estimate - (2.0 - 4.0 * math.log(2.0))) <= 1e-10


def test_samples_carry_the_quadrature_accounting():
    values = []

    def evaluator(z):
        values.append(evaluate_offaxis(FLAT, PLATEAU, z))
        return values[-1]

    report = limit_probe(evaluator, 0.3, SCHED)
    assert [(s.abs_error_estimate, s.panels, s.tolerance_met) for s in report.samples] == [
        (tv.abs_error_estimate, tv.panels_used, tv.tolerance_met) for tv in values
    ]
    model = discretize(FLAT, PLATEAU, 21)
    for ev in (lambda z: 1.0 / z, lambda z: sandwiched_resolvent(model, z)):
        for s in limit_probe(ev, 0.0, SCHED).samples:
            assert (s.abs_error_estimate, s.panels, s.tolerance_met) == (None, None, None)


def test_limit_probe_wraps_failures():
    def bad(z):
        raise RuntimeError("boom")

    with pytest.raises(EvaluatorFailure) as info:
        limit_probe(bad, 0.0, SCHED)
    assert info.value.y == SCHED.values[0]


@pytest.mark.parametrize("probe", [limit_probe, stone_density])
@pytest.mark.parametrize("at", [0, 5])
@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(0.0, math.nan), complex(math.inf, math.inf)])
def test_a_non_finite_rung_is_an_evaluator_failure(probe, at, bad):
    # a scalar evaluator that returns a non-finite value at one rung: no fit
    # or rule reads it, and the failure names that rung's y
    y_bad = SCHED.values[at]
    with pytest.raises(EvaluatorFailure) as info:
        probe(lambda z: bad if z.imag == y_bad else 1.0 + z.imag, 0.0, SCHED)
    assert info.value.y == y_bad
    assert isinstance(info.value.cause, FloatingPointError)


def test_a_diff_that_overflows_is_an_evaluator_failure():
    # every shadow and norm is finite, but the second rung's distance to the
    # first, |-1e308 - 1e308|, overflows
    with pytest.raises(EvaluatorFailure, match="diff=inf") as info:
        limit_probe(lambda z: 1e308 if z.imag == SCHED.values[0] else -1e308, 0.0, SCHED)
    assert info.value.y == SCHED.values[1]


def test_a_subnormal_transform_rung_warns_nothing():
    # the kernel's subtracted integrand divides phi - c by x - z; at a node on
    # Re z numpy's complex division of 0 by -iy would multiply by 1/y, which
    # overflows once y is subnormal, so the kernel gives that node 0.  Any
    # refusal of the ladder is the finiteness check's, never a warning
    # (pytest turns one into an error)
    bump = DensityFamily("power_bump", {"level": 1.0, "exponent": 0.5, "center": 0.3}, (-1.0, 1.0))
    cusp = SpectralMeasure(ac_parts=(bump,))
    weight = WeightFunction("plateau", {"center": 0.0, "half_width": 2.0})
    try:
        limit_probe(lambda z: evaluate_offaxis(cusp, weight, z), 0.3, YSchedule(1e-2, 1e-320, 0.5))
    except EvaluatorFailure as exc:
        assert isinstance(exc.cause, FloatingPointError), exc.cause


def test_a_transform_ladder_into_subnormal_y_keeps_every_rung():
    # a node on Re z has phi - c = 0, and at a subnormal y its term is 0, not
    # 0 / (0 - iy) = 0 * inf; below 1e-20 the O(y) move of Re C and the
    # quadrature's error are far below 1e-12 (above about 1e-18 the rungs sit
    # at the quadrature's floor, up to 7e-10 off)
    bump = DensityFamily("power_bump", {"level": 1.0, "exponent": 0.5, "center": 0.3}, (-1.0, 1.0))
    cusp = SpectralMeasure(ac_parts=(bump,))
    weight = WeightFunction("plateau", {"center": 0.0, "half_width": 2.0})
    schedule = YSchedule(1e-2, 1e-320, 0.5)
    rows = _rungs(lambda z: evaluate_offaxis(cusp, weight, z), 0.3, schedule)
    boundary = plemelj_boundary(cusp, weight, 0.3).real
    assert len(rows) == len(schedule.values) == 1057
    assert schedule.values[-1] < 2.0**-1022  # subnormal
    deep = [row.shadow.real for y, row in zip(schedule.values, rows) if y < 1e-20]
    assert len(deep) == 997 and all(abs(re - boundary) <= 1e-12 for re in deep)


def test_limit_probe_inconclusive_on_slow_drift():
    # log-divergent drift: diffs stay constant, norms not monotone enough
    report = limit_probe(lambda z: math.log(1.0 / z.imag), 0.0, SCHED, tolerance=1e-6)
    assert report.verdict == INCONCLUSIVE


def test_converges_with_a_richardson_step_past_the_last_sample():
    # 2 + y^2: the diffs fit rate 2, so the limit is extrapolated beyond the
    # last sample, which is y^2 = 1.5e-12 off
    report = limit_probe(lambda z: 2 + z.imag**2, 0.0, YSchedule(1e-2, 1e-6, 0.5))
    assert report.verdict == CONVERGES
    assert abs(report.samples[-1].shadow - 2) > 1e-12
    assert abs(report.limit_estimate - 2) <= 1e-15


def test_increasing_norms_off_the_one_over_y_law_are_inconclusive():
    # y^-0.3 grows monotonically but too slowly for the 1/y rule, and its
    # diffs grow too, so neither rule fires; the rate comes from the diffs
    report = limit_probe(lambda z: z.imag**-0.3, 0.0, YSchedule(1e-2, 1e-6, 0.5))
    norms = [s.norm for s in report.samples]
    assert norms == sorted(norms)
    assert report.verdict == INCONCLUSIVE
    assert report.fitted_rate == pytest.approx(-0.3, abs=1e-12)
    assert report.limit_estimate is None


def test_verdicts_mutually_exclusive_and_tolerance_monotone():
    ev = lambda z: evaluate_offaxis(FLAT, PLATEAU, z)
    loose = limit_probe(ev, 0.0, SCHED, tolerance=1e-4)
    tight = limit_probe(ev, 0.0, SCHED, tolerance=1e-12)
    assert loose.verdict == CONVERGES
    # shrinking tolerance may only demote CONVERGES to INCONCLUSIVE
    assert tight.verdict in (CONVERGES, INCONCLUSIVE)
    assert tight.verdict != DIVERGES


def test_fit_divergence_rate_exact_power_laws():
    ys = np.array([0.1 * 0.5 ** k for k in range(8)])
    slope, res = fit_divergence_rate(2.0 / ys, ys)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert res < 1e-12
    slope2, _ = fit_divergence_rate(3.0 / np.sqrt(ys), ys)
    assert slope2 == pytest.approx(-0.5, abs=1e-12)


def test_fit_divergence_rate_degenerate():
    ys = [0.1, 0.05, 0.025, 0.0125]
    with pytest.raises(DegenerateFit):
        fit_divergence_rate([2.0, 2.0, 2.0, 2.0], ys)
    with pytest.raises(ValueError):
        fit_divergence_rate([1.0, 2.0], [0.1, 0.05])


def test_a_fit_over_equal_abscissae_is_degenerate():
    # a least-squares line through points with one abscissa has no slope
    with pytest.raises(DegenerateFit):
        fit_divergence_rate([1.0, 2.0, 3.0, 4.0], [0.1, 0.1, 0.1, 0.1])
    with pytest.raises(DegenerateFit):
        _line_fit([0.1] * 3, [1.0, 2.0, 3.0])  # sum 0.30000000000000004, mean 0.10000000000000002
    assert _line_fit([0.1, 0.2], [1.0, 1.0]) == (0.0, 0.0, 1.0)


EPS = 2.0**-52


@given(
    st.integers(2, 39),
    st.floats(0.01, 0.99),
    st.floats(-8.0, 2.0),
    st.floats(-3.0, 3.0),
    st.floats(-40.0, 40.0),
    st.lists(st.floats(-1.0, 1.0), min_size=39, max_size=39),
    st.sampled_from([0.0, 1e-12, 1e-6, 0.1, 10.0]),
)
@example(7, 0.5, -1.0, 0.0, 1.4645e-201, [0.0] * 39, 0.0)  # equal ys: the rounded mean is not their value
@settings(max_examples=200)
def test_line_fit_matches_the_exact_line_of_its_floats(n, ratio, log_ymax, slope, intercept, noise, scale):
    """A log-log ladder as the probes fit it, against the least-squares line of
    the same floats in exact rational arithmetic.  With T = max|y| + |s| max|x|
    (the size of the terms of b = mean y - s mean x), the bounds are
    |slope error| <= 4 eps (|s| + sqrt(Syy/Sxx)), and |intercept error| and
    |RMS error| <= 4 eps T; the largest seen over 20000 random ladders were
    0.8, 1.7 and 0.6 eps of those scales."""
    xs = np.log([10.0**log_ymax * ratio**k for k in range(n)]).tolist()
    ys = [intercept + slope * x + scale * e for x, e in zip(xs, noise)]
    got_slope, got_rms, got_intercept = _line_fit(xs, ys)

    X, Y = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(X) / n, sum(Y) / n
    sxx, syy = sum((x - mx) ** 2 for x in X), sum((y - my) ** 2 for y in Y)
    s = sum((x - mx) * (y - my) for x, y in zip(X, Y)) / sxx
    b = my - s * mx
    rms = math.sqrt(sum((y - s * x - b) ** 2 for x, y in zip(X, Y)) / n)
    t = max(map(abs, ys)) + abs(float(s)) * max(map(abs, xs))
    assert abs(Fraction(got_slope) - s) <= 4 * EPS * (abs(float(s)) + math.sqrt(syy / sxx))
    assert abs(Fraction(got_intercept) - b) <= 4 * EPS * t
    assert abs(got_rms - rms) <= 4 * EPS * t


@given(st.floats(0.01, 100.0))
@settings(max_examples=25)
def test_fit_divergence_rate_scale_invariant(c):
    ys = np.array([0.1 * 0.5 ** k for k in range(10)])
    norms = 1.7 / ys ** 0.8
    base, _ = fit_divergence_rate(norms, ys)
    scaled, _ = fit_divergence_rate(c * norms, ys)
    assert scaled == pytest.approx(base, abs=1e-9)


def test_compactness_probe_example():
    model = MatrixModel(
        nodes=np.array([-1.0, 0.0, 1.0]),
        masses=np.ones(3),
        weights=np.ones(3),
        atom_flags=np.zeros(3, bool),
    )
    rep = compactness_probe(model, 1.0, [0.5, 2.0])
    assert rep.singular_values == (1.0, 0.5, 0.5)
    assert rep.sup_bounds == (0.5, 0.0)


def test_compactness_probe_rejects_small_exponent():
    model = discretize(FLAT, PLATEAU, 10)
    with pytest.raises(InvalidExponent):
        compactness_probe(model, 0.4, [1.0])
    with pytest.raises(InvalidExponent):
        compactness_probe(model, 0.5, [1.0])


def test_compactness_probe_rejects_nan_exponent():
    with pytest.raises(InvalidExponent):
        compactness_probe(discretize(FLAT, PLATEAU, 10), math.nan, [1.0])


@pytest.mark.parametrize("radii", [[], [0.0, 1.0], [0.5, 0.5], [1.0, 0.5], [math.nan, 0.5], [0.25, math.nan]])
def test_compactness_probe_rejects_radii_that_are_not_positive_and_increasing(radii):
    """[nan, 0.5] would give sup bounds (0.0, 0.23), which increase."""
    with pytest.raises(ValueError):
        compactness_probe(discretize(FLAT, PLATEAU, 10), 1.0, radii)


def test_compactness_probe_rejects_a_model_with_no_nodes():
    zero = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 0.0}, (-1.0, 1.0)),))
    for measure in (zero, SpectralMeasure()):
        model = discretize(measure, PLATEAU, 10)
        assert model.nodes.size == 0
        with pytest.raises(ValueError, match="no nodes"):
            compactness_probe(model, 1.0, [1.0])


def test_compactness_sup_bounds_monotone_to_zero():
    w = WeightFunction("hat", {"center": 0.0, "half_width": 1.0})
    model = discretize(FLAT, w, 101)
    rep = compactness_probe(model, 0.75, [0.1, 0.4, 0.7, 1.0, 2.0])
    bounds = rep.sup_bounds
    assert all(a >= b for a, b in zip(bounds, bounds[1:]))
    assert bounds[-2] == 0.0  # radius 1.0 already covers supp w
    assert bounds[-1] == 0.0
    sv = rep.singular_values
    assert all(a >= b for a, b in zip(sv, sv[1:]))


def test_stone_density_flat_arctan_oracle():
    # Im C(iy) = 2 arctan(1/y) for the flat unit configuration
    ev = lambda z: evaluate_offaxis(FLAT, PLATEAU, z)
    res = stone_density(ev, 0.0, SCHED)
    for y, d in zip(SCHED.values, res.density_estimates):
        assert d == pytest.approx(2.0 * math.atan(1.0 / y) / math.pi, abs=1e-8)
    assert res.extrapolated == pytest.approx(1.0, abs=1e-6)


def test_stone_density_outside_support():
    ev = lambda z: evaluate_offaxis(FLAT, PLATEAU, z)
    res = stone_density(ev, 3.0, SCHED)
    assert abs(res.extrapolated) < 1e-9


def test_stone_density_between_atoms():
    m = SpectralMeasure(atoms=(Atom(-0.5, 1.0), Atom(0.5, 1.0)))
    ev = lambda z: evaluate_offaxis(m, PLATEAU, z)
    res = stone_density(ev, 0.0, SCHED)
    assert abs(res.extrapolated) < 1e-9


def test_stone_density_matches_plemelj_jump():
    lam = 0.3
    ev = lambda z: evaluate_offaxis(FLAT, PLATEAU, z)
    res = stone_density(ev, lam, SCHED)
    jump = plemelj_boundary(FLAT, PLATEAU, lam).imag / math.pi
    assert res.extrapolated == pytest.approx(jump, rel=1e-4)


@pytest.mark.parametrize("y_max, y_min", [(1e-170, 1e-180), (1e-290, 1e-300)])
def test_stone_density_extrapolates_on_a_ladder_far_below_1e_162(y_max, y_min):
    # configs/stone_density.json's data: below about 1e-162 the squares of the
    # tail's y underflow to 0, so the fit runs on y over the tail's largest y,
    # which leaves the intercept that of the exact line through the same floats
    measure = SpectralMeasure((DensityFamily("smooth_bump", {"level": 1.2, "center": 0.0, "half_width": 0.8}),))
    weight = WeightFunction("cosine_bump", {"center": 0.0, "half_width": 1.0})
    sched = YSchedule(y_max=y_max, y_min=y_min, ratio=0.5)
    res = stone_density(lambda z: evaluate_offaxis(measure, weight, z), 0.2, sched)
    tail = max(4, len(sched.values) // 2)
    X = [Fraction(y) for y in sched.values[-tail:]]
    Y = [Fraction(d) for d in res.density_estimates[-tail:]]
    mx, my = sum(X) / tail, sum(Y) / tail
    slope = sum((x - mx) * (y - my) for x, y in zip(X, Y)) / sum((x - mx) ** 2 for x in X)
    assert abs(Fraction(res.extrapolated) - (my - slope * mx)) <= 4 * EPS * max(map(abs, Y))
    assert abs(res.extrapolated - weight(0.2) ** 2 * measure.density_at(0.2)) < 1e-12


def test_dichotomy_regularized_vs_raw():
    m = SpectralMeasure(
        ac_parts=(DensityFamily("constant", {"level": 0.005}, (-1.0, 1.0)),),
        atoms=(Atom(0.0, 1.0),),
    )
    model = discretize(m, PLATEAU, 13)
    sched = YSchedule(y_max=1e-2, y_min=1e-6, ratio=0.5)
    raw = limit_probe(lambda z: sandwiched_resolvent(model, z), 0.0, sched)
    reg = limit_probe(lambda z: regularized_resolvent(model, z, 0.0), 0.0, sched)
    assert raw.verdict == DIVERGES
    assert reg.verdict == CONVERGES


def _inline_holder_fit(radii, incs) -> tuple:
    """estimate_holder's fit written out: the closed-form least-squares line,
    from centred sums, through log-increment against log-radius over the
    nonzero increments."""
    zero = incs == 0.0
    rs = np.array(radii)[~zero]
    xs, ys = np.log(rs).tolist(), np.log(incs[~zero]).tolist()
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs, dys = [x - mx for x in xs], [y - my for y in ys]
    slope = math.fsum([dx * dy for dx, dy in zip(dxs, dys)]) / math.fsum([dx * dx for dx in dxs])
    residual = math.sqrt(math.fsum([(dy - slope * dx) ** 2 for dx, dy in zip(dxs, dys)]) / len(xs))
    intercept = my - slope * mx
    return min(slope, 1.5), float(np.exp(intercept)), (float(rs.min()), float(rs.max())), residual


@given(
    st.floats(0.1, 2.0),
    st.floats(0.05, 1.0),
    st.floats(-0.5, 0.5),
    st.floats(-0.2, 0.2),
    st.floats(0.02, 0.3),
    st.floats(0.2, 0.8),
    st.integers(8, 16),
)
@settings(max_examples=100)
def test_estimate_holder_is_the_inline_fit_bit_for_bit(level, expo, center, offset, r_max, ratio, count):
    bump = DensityFamily("power_bump", {"level": level, "exponent": expo, "center": center}, (-1.0, 1.0))
    lam = center + offset
    radii = geometric_radii(r_max, ratio, count)
    incs = holder_increments(bump, lam, radii)
    est = estimate_holder(lam, radii, incs)
    want = _inline_holder_fit(radii, incs)
    got = (est.alpha_hat, est.constant_hat, est.fit_window, est.residual)
    assert repr(got) == repr(want)
    assert [type(v) for v in got] == [type(v) for v in want]


def _numpy_rules(report, tolerance) -> tuple:
    """limit_probe's rules as the numpy array expressions they were before
    they ran over plain floats, driving the same fit, over the report's own
    samples: (verdict, rate, residual, limit)."""
    samples, schedule = report.samples, report.schedule
    ys = np.array([s.y for s in samples])
    norms = np.array([s.norm for s in samples])
    diffs = np.array([s.diff for s in samples[1:]])
    if np.all(norms[1:] >= norms[:-1] * (1.0 - 1e-9)) and norms[-1] > norms[0] and np.all(norms > 0):
        slope, residual, _ = _loglog_fit(ys, norms)
        if slope <= -0.5 and residual < 0.1:
            return DIVERGES, slope, residual, None
    rate = residual = 0.0
    pos = diffs > 0
    if np.count_nonzero(pos) >= 2:
        rate, residual, _ = _loglog_fit(ys[:-1][pos], diffs[pos])
    if not (np.all(diffs[1:] <= diffs[:-1] * 1.1 + 1e-300) and diffs[-1] <= tolerance):
        return INCONCLUSIVE, rate, residual, None
    limit = samples[-1].shadow
    if rate > 0 and residual < 0.05 and diffs[-1] > 0:
        rho = schedule.ratio**rate
        limit += (limit - samples[-2].shadow) * rho / (1.0 - rho)
    return CONVERGES, rate, residual, limit


@st.composite
def replayed_ladders(draw):
    """(schedule, values): one real value per rung, made to land on the rules'
    edges: equal norms, zero diffs, a norm step of exactly the 1e-9 slack, and
    a diff step of exactly the 10% slack."""
    schedules = [SCHED, YSchedule(1e-2, 1e-6, 0.5), YSchedule(1.0, 1e-6, 0.25), YSchedule(0.1, 1e-3, 0.8)]
    schedule = draw(st.sampled_from(schedules))
    ys = schedule.values
    kind = draw(st.sampled_from(["power", "norms", "diffs", "pool"]))
    if kind == "power":  # limit + c y^p, perturbed: the 1/y law, convergence with and without a rate
        limit, c = draw(st.floats(-2.0, 2.0)), draw(st.floats(1e-3, 2.0))
        p = draw(st.sampled_from([-1.0, -0.5, 1.0, 2.0]) | st.floats(-1.5, 2.5))
        noise = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
        values = [limit + c * y**p * (1.0 + noise * draw(st.floats(-1.0, 1.0))) for y in ys]
    elif kind == "norms":  # the 1/y law but for a few steps: equal, at the slack's edge, past it, or down
        step = st.sampled_from([1.0, 1.0 - 1e-9, 1.0 - 2e-9, 0.5])
        steps = draw(st.dictionaries(st.integers(1, len(ys) - 1), step, max_size=2))
        values = [draw(st.floats(1e-3, 1e3))]
        for k in range(1, len(ys)):
            values.append(values[-1] * steps.get(k, ys[k - 1] / ys[k]))
        if draw(st.booleans()):  # a zero first norm, which no log may read
            values[0] = 0.0
    elif kind == "diffs":
        # 0, t1, 0, t2, ...: the diffs t1, t1, t2, t2, ... are exact, so t2 = t1 * 1.1 + 1e-300 sits on the edge
        t, values = draw(st.floats(1e-12, 1.0)), []
        for k, _ in enumerate(ys):
            if k % 2:
                step = draw(st.sampled_from(["edge", "past", "same", "half", "zero"]))
                edge = t * 1.1 + 1e-300
                t = {"edge": edge, "past": math.nextafter(edge, math.inf), "same": t, "half": t * 0.5, "zero": 0.0}[step]
            values.append(t if k % 2 else 0.0)
    else:  # a few values repeated in any order
        pool = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3))
        values = [draw(st.sampled_from(pool)) for _ in ys]
    return schedule, values


@given(replayed_ladders(), st.sampled_from(["default", "last", "below"]))
@settings(max_examples=500)
def test_the_float_rules_decide_as_the_numpy_rules(ladder, tolerance_kind):
    schedule, values = ladder
    last = abs(complex(values[-1]) - complex(values[-2]))  # the last diff, as a rung computes it
    tolerance = {"default": 1e-6, "last": last, "below": math.nextafter(last, -math.inf)}[tolerance_kind]
    replay = iter(values)
    report = limit_probe(lambda z: next(replay), 0.0, schedule, tolerance)
    got = (report.verdict, report.fitted_rate, report.rate_residual, report.limit_estimate)
    assert repr(got) == repr(_numpy_rules(report, tolerance))
