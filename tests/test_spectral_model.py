import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resolvent_limits import (
    Atom,
    DegenerateFit,
    DensityFamily,
    SpectralMeasure,
    WeightFunction,
    estimate_holder,
    geometric_radii,
    holder_increments,
    plemelj_boundary,
)

from conftest import density_families, weight_functions

RADII = geometric_radii(2.0 ** -3, 0.5, 10)  # 2^-3 .. 2^-12


def fit(f, lam, radii=RADII):
    return estimate_holder(lam, radii, holder_increments(f, lam, radii))


def test_constant_density_inside_and_outside():
    m = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 0.5}, (-1.0, 1.0)),))
    assert m.density_at(0.0) == 0.5
    assert m.density_at(2.0) == 0.0


def _constant_parts(*pieces):
    return SpectralMeasure(ac_parts=tuple(DensityFamily("constant", {"level": v}, (lo, hi)) for v, lo, hi in pieces))


def test_density_at_a_shared_edge_reads_the_value_once():
    # constant 1 on [-1, 1] written as two parts: 0 lies on both supports
    assert _constant_parts((1.0, -1.0, 0.0), (1.0, 0.0, 1.0)).density_at(0.0) == 1.0


def test_density_at_a_jump_reads_its_midpoint():
    # Stone's formula recovers the mean of the one-sided limits 1 and 3
    assert _constant_parts((1.0, -1.0, 0.0), (3.0, 0.0, 1.0)).density_at(0.0) == 2.0


def test_density_at_an_outer_edge_reads_half_the_value():
    m = _constant_parts((0.5, -1.0, 1.0))
    assert m.density_at(-1.0) == m.density_at(1.0) == 0.25


@given(st.lists(density_families(), min_size=1, max_size=3), st.floats(-3.0, 3.0))
def test_density_at_off_every_edge_is_the_closed_support_sum(parts, x):
    m = SpectralMeasure(ac_parts=tuple(parts))
    if all(x not in p.support for p in parts):
        assert m.density_at(x).hex() == float(m.density_values(np.asarray([x]))[0]).hex()


def test_power_bump_value_matches_direct_arithmetic():
    m = SpectralMeasure(
        ac_parts=(
            DensityFamily("power_bump", {"level": 1.0, "exponent": 0.5, "center": 0.0}, (-1.0, 1.0)),
        )
    )
    # independent check: plain scalar arithmetic
    assert m.density_at(0.25) == pytest.approx(abs(0.25) ** 0.5, abs=1e-15)
    assert m.density_at(0.25) == pytest.approx(0.5, abs=1e-15)


def test_hat_weight_peak_and_endpoint():
    w = WeightFunction("hat", {"center": 0.0, "half_width": 1.0})
    assert w(0.0) == 1.0
    assert w(1.0) == 0.0
    assert w(-1.0) == 0.0
    assert w(1.5) == 0.0


def test_cosine_bump_closed_form_point():
    w = WeightFunction("cosine_bump", {"center": 0.0, "half_width": 1.0})
    assert w(0.5) == pytest.approx(math.cos(math.pi / 4) ** 2, abs=1e-15)
    assert w(0.5) == pytest.approx(0.5, abs=1e-15)


def test_smooth_bump_seeds_halve_toward_each_edge_until_the_bump_is_below_rounding():
    level, center, h = 1.5, 0.25, 0.5
    bump = DensityFamily("smooth_bump", {"level": level, "center": center, "half_width": h})
    ts = [1.0 - 0.5 ** k for k in range(1, 8)]
    assert sorted(bump.seeds()) == sorted(center + side * t * h for t in ts for side in (-1.0, 1.0))
    outer, last = (math.exp(1.0 - 1.0 / (1.0 - t * t)) for t in ts[-2:])
    assert last * level < 0.5 * math.ulp(level) <= outer * level
    # a cut support keeps the seeds inside it; other families have none
    cut = DensityFamily("smooth_bump", dict(bump.parameters), (center, center + h))
    assert cut.seeds() == tuple(center + t * h for t in ts)
    assert DensityFamily("constant", {"level": 1.0}, (-1.0, 1.0)).seeds() == ()


def test_estimate_holder_sqrt_cusp():
    est = fit(lambda x: abs(x) ** 0.5, 0.0)
    assert 0.45 <= est.alpha_hat <= 0.55
    assert est.constant_hat > 0
    assert est.residual < 0.05


def test_estimate_holder_linear():
    est = fit(lambda x: x, 0.0)
    assert 0.95 <= est.alpha_hat <= 1.05


def test_estimate_holder_constant_degenerates():
    with pytest.raises(DegenerateFit):
        fit(lambda x: 3.25, 0.0)


def test_estimate_holder_rejects_bad_radii():
    with pytest.raises(ValueError):
        fit(lambda x: x, 0.0, [0.1, 0.2, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001])
    with pytest.raises(ValueError):
        fit(lambda x: x, 0.0, [0.1, 0.05])
    with pytest.raises(ValueError, match="one increment per radius"):
        estimate_holder(0.0, RADII, holder_increments(lambda x: x, 0.0, RADII[:-1]))


@pytest.mark.parametrize("k", [0, 4, 9])
def test_estimate_holder_rejects_a_nan_radius(k):
    radii = list(RADII)
    radii[k] = math.nan
    with pytest.raises(ValueError, match="strictly decreasing"):
        estimate_holder(0.0, radii, np.ones(len(radii)))


# families paired with a point where the declared exponent is attained
CATALOG_SHARP = [
    (DensityFamily("power_bump", {"level": 1.0, "exponent": 0.3, "center": 0.0}, (-1.0, 1.0)), 0.0, 0.3),
    (DensityFamily("power_bump", {"level": 2.0, "exponent": 0.5, "center": 0.2}, (-0.8, 1.2)), 0.2, 0.5),
    (DensityFamily("power_bump", {"level": 1.0, "exponent": 0.8, "center": 0.0}, (-1.0, 1.0)), 0.0, 0.8),
    (DensityFamily("power_bump", {"level": 1.0, "exponent": 1.0, "center": 0.0}, (-1.0, 1.0)), 0.0, 1.0),
    (DensityFamily("affine", {"level": 1.0, "slope": 0.7, "center": 0.0}, (-1.0, 1.0)), 0.1, 1.0),
    (DensityFamily("smooth_bump", {"level": 1.0, "center": 0.0, "half_width": 1.0}), 0.4, 1.0),
    (WeightFunction("hat", {"center": 0.0, "half_width": 1.0}), 0.0, 1.0),
    (WeightFunction("cosine_bump", {"center": 0.0, "half_width": 1.0}), 0.35, 1.0),
    (WeightFunction("power_hat", {"center": 0.0, "half_width": 1.0, "exponent": 0.4}), 0.0, 0.4),
    (WeightFunction("power_hat", {"center": 0.0, "half_width": 1.0, "exponent": 0.7}), 0.0, 0.7),
]


@pytest.mark.parametrize("family,point,alpha", CATALOG_SHARP)
def test_catalog_exponent_recovered(family, point, alpha):
    if isinstance(family, DensityFamily):
        f = lambda x: float(family.values(np.asarray([x]))[0])
    else:
        f = family
    est = fit(f, point)
    assert abs(est.alpha_hat - alpha) <= 0.1


@given(density_families(), st.floats(-3.0, 3.0))
def test_density_nonnegative_and_supported(family, x):
    v = float(family.values(np.asarray([x]))[0])
    lo, hi = family.support
    if x < lo or x > hi:
        assert v == 0.0
    elif family.kind != "affine":  # affine may be signed by design
        assert v >= 0.0


@given(weight_functions(), st.floats(-4.0, 4.0))
def test_weight_nonnegative_zero_outside(weight, x):
    v = weight(x)
    assert v >= 0.0
    lo, hi = weight.support
    if x < lo or x > hi:
        assert v == 0.0


@pytest.mark.parametrize("kind", ["hat", "cosine_bump", "power_hat"])
def test_continuous_weights_vanish_at_endpoints(kind):
    params = {"center": 0.3, "half_width": 0.7}
    if kind == "power_hat":
        params["exponent"] = 0.6
    w = WeightFunction(kind, params)
    lo, hi = w.support
    assert w(lo) == 0.0
    assert w(hi) == 0.0


# global (constant, exponent) of each weight kind for pairs inside its support
WEIGHT_HOLDER = {
    "hat": lambda p: (1.0 / p["half_width"], 1.0),
    "cosine_bump": lambda p: (0.5 * np.pi / p["half_width"], 1.0),
    "power_hat": lambda p: (p["half_width"] ** -p["exponent"], p["exponent"]),
    "plateau": lambda p: (1.0, 1.0),  # constant on its support
}


@given(weight_functions(), st.data())
def test_weight_holder_pair_bound(weight, data):
    lo, hi = weight.support
    x = data.draw(st.floats(lo, hi))
    x2 = data.draw(st.floats(lo, hi))
    c, alpha = WEIGHT_HOLDER[weight.kind](weight.parameters)
    assert abs(weight(x) - weight(x2)) <= (
        c * abs(x - x2) ** alpha + 1e-12
    )


def test_validation_errors():
    with pytest.raises(ValueError):
        DensityFamily("power_bump", {"level": 1.0, "exponent": 1.5, "center": 0.0}, (-1, 1))
    with pytest.raises(ValueError):
        DensityFamily("constant", {"level": -1.0}, (-1, 1))
    with pytest.raises(ValueError):
        DensityFamily("constant", {"level": 1.0}, (1.0, -1.0))
    with pytest.raises(ValueError):
        DensityFamily("mystery", {"level": 1.0}, (-1, 1))
    with pytest.raises(ValueError):
        WeightFunction("hat", {"center": 0.0, "half_width": -1.0})
    with pytest.raises(ValueError):
        Atom(0.0, 0.0)
    # an int beyond the float range is refused as an infinity is, not by OverflowError
    with pytest.raises(ValueError, match="support"):
        DensityFamily("constant", {"level": 1.0}, (-1.0, 10**400))
    with pytest.raises(ValueError, match="atom location"):
        Atom(10**400, 1.0)
    with pytest.raises(ValueError, match="atom mass"):
        Atom(0.0, 10**400)
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=(Atom(0.0, 1.0), Atom(0.0, 2.0)))


# a valid parameter set of every catalog kind
CATALOG = {
    "constant": {"level": 1.0},
    "affine": {"level": 1.0, "slope": 0.5, "center": 0.0},
    "power_bump": {"level": 1.0, "exponent": 0.5, "center": 0.0},
    "smooth_bump": {"level": 1.0, "center": 0.0, "half_width": 1.0},
    "hat": {"center": 0.0, "half_width": 1.0},
    "cosine_bump": {"center": 0.0, "half_width": 1.0},
    "power_hat": {"center": 0.0, "half_width": 1.0, "exponent": 0.5},
    "plateau": {"center": 0.0, "half_width": 1.0},
}


def _family(kind, params):
    if kind in ("constant", "affine", "power_bump", "smooth_bump"):
        return DensityFamily(kind, params, (-1.0, 1.0))
    return WeightFunction(kind, params)


@pytest.mark.parametrize(
    "kind,name,value",
    [
        # each ranged parameter just outside its range
        ("constant", "level", -1e-300),
        ("power_bump", "level", -1e-300),
        ("power_bump", "exponent", 0.0),
        ("power_bump", "exponent", 1.0 + 2.0**-52),
        ("smooth_bump", "level", -1e-300),
        ("smooth_bump", "half_width", 0.0),
        ("smooth_bump", "half_width", -0.0),
        ("hat", "half_width", 0.0),
        ("hat", "half_width", -0.0),
        ("cosine_bump", "half_width", 0.0),
        ("power_hat", "half_width", -0.0),
        ("power_hat", "exponent", 0.0),
        ("power_hat", "exponent", 1.0 + 2.0**-52),
        ("plateau", "half_width", 0.0),
        # values that are not finite numbers, as the config reader refuses them
        ("affine", "level", "1"),
        ("constant", "level", "1"),
        ("hat", "center", "0"),
        ("power_hat", "exponent", None),
        ("plateau", "half_width", True),
        ("affine", "slope", math.nan),
        ("cosine_bump", "center", -math.inf),
        # an int beyond the float range, which math.isfinite cannot convert
        pytest.param("constant", "level", 10**400, id="constant-level-huge-int"),
        pytest.param("hat", "center", 10**400, id="hat-center-huge-int"),
    ],
)
def test_a_parameter_outside_its_range_is_refused_by_kind_and_name(kind, name, value):
    with pytest.raises(ValueError, match=rf"^{kind} (parameter )?{name}\b"):
        _family(kind, {**CATALOG[kind], name: value})


@given(st.floats(-2.0, 2.0), st.floats(0.01, 2.0), st.lists(st.floats(-5.0, 5.0), max_size=8))
def test_a_hat_is_a_power_hat_of_exponent_one_bit_for_bit(center, half_width, xs):
    hat = WeightFunction("hat", {"center": center, "half_width": half_width})
    power = WeightFunction("power_hat", {"center": center, "half_width": half_width, "exponent": 1.0})
    # random points, and each support edge and the centre with the floats beside them
    edges = (center, *hat.support)
    points = np.array(xs + [np.nextafter(e, toward) for e in edges for toward in (-np.inf, e, np.inf)])
    assert hat.values(points).tobytes() == power.values(points).tobytes()


def test_smooth_bump_vanishes_smoothly_at_edges():
    f = DensityFamily("smooth_bump", {"level": 1.0, "center": 0.0, "half_width": 1.0})
    assert f(1.0) == 0.0
    assert f(0.0) == pytest.approx(1.0, abs=1e-15)
    # w^2 rho is continuous at the edge, so the boundary value exists there
    wide = WeightFunction("plateau", {"center": 0.0, "half_width": 2.0})
    plemelj_boundary(SpectralMeasure(ac_parts=(f,)), wide, 1.0)


def test_parameters_are_a_read_only_copy():
    density_params, weight_params = {"level": 1.0}, {"center": 0.0, "half_width": 1.0}
    part = DensityFamily("constant", density_params, (0.0, 1.0))
    weight = WeightFunction("hat", weight_params)
    density_params["level"] = weight_params["center"] = 0.5
    assert part.parameters == {"level": 1.0}
    assert weight.parameters == {"center": 0.0, "half_width": 1.0}
    for family in (part, weight):
        with pytest.raises(TypeError):
            family.parameters["level"] = 2.0
    # an int and a numpy float are numbers, kept as floats
    hat = WeightFunction("hat", {"center": np.float64(0.25), "half_width": 1})
    assert [type(v) for v in hat.parameters.values()] == [float, float]
