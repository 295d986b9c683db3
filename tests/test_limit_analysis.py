import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvent_limits import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    Atom,
    DegenerateFit,
    DensityFamily,
    EvaluatorFailure,
    InvalidExponent,
    MatrixModel,
    SpectralMeasure,
    WeightFunction,
    YSchedule,
    compactness_probe,
    discretize,
    evaluate_offaxis,
    fit_divergence_rate,
    limit_probe,
    plemelj_boundary,
    regularized_resolvent,
    sandwiched_resolvent,
    stone_density,
)

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


def test_limit_probe_wraps_failures():
    def bad(z):
        raise RuntimeError("boom")

    with pytest.raises(EvaluatorFailure) as info:
        limit_probe(bad, 0.0, SCHED)
    assert info.value.y == SCHED.values[0]


def test_limit_probe_inconclusive_on_slow_drift():
    # log-divergent drift: diffs stay constant, norms not monotone enough
    report = limit_probe(lambda z: math.log(1.0 / z.imag), 0.0, SCHED, tolerance=1e-6)
    assert report.verdict == INCONCLUSIVE


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
