import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from resolvent_limits import (
    Atom,
    DegenerateSamples,
    DensityFamily,
    SpectralMeasure,
    WeightFunction,
    estimate_holder,
    geometric_radii,
    holder_increments,
    plemelj_boundary,
)

from conftest import density_families, spectral_measures, weight_functions

RADII = geometric_radii(2.0 ** -3, 0.5, 10)  # 2^-3 .. 2^-12


def fit(f, lam, radii=RADII):
    return estimate_holder(lam, radii, holder_increments(f, lam, radii))


def test_constant_density_inside_and_outside():
    m = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 0.5}, (-1.0, 1.0)),))
    assert m.density_at(0.0) == 0.5
    assert m.density_at(2.0) == 0.0


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


def test_estimate_holder_sqrt_cusp():
    est = fit(lambda x: abs(x) ** 0.5, 0.0)
    assert 0.45 <= est.alpha_hat <= 0.55
    assert est.constant_hat > 0
    assert est.residual < 0.05


def test_estimate_holder_linear():
    est = fit(lambda x: x, 0.0)
    assert 0.95 <= est.alpha_hat <= 1.05


def test_estimate_holder_constant_degenerates():
    with pytest.raises(DegenerateSamples):
        fit(lambda x: 3.25, 0.0)


def test_estimate_holder_rejects_bad_radii():
    with pytest.raises(ValueError):
        fit(lambda x: x, 0.0, [0.1, 0.2, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001])
    with pytest.raises(ValueError):
        fit(lambda x: x, 0.0, [0.1, 0.05])
    with pytest.raises(ValueError, match="one increment per radius"):
        estimate_holder(0.0, RADII, holder_increments(lambda x: x, 0.0, RADII[:-1]))


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


# exact round trips through the JSON text a config holds
@given(spectral_measures())
def test_measure_round_trip_exact(measure):
    assert SpectralMeasure.from_dict(json.loads(json.dumps(measure.to_dict()))) == measure


@given(weight_functions())
def test_weight_round_trip_exact(weight):
    assert WeightFunction.from_dict(json.loads(json.dumps(weight.to_dict()))) == weight


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
    with pytest.raises(ValueError):
        SpectralMeasure(atoms=(Atom(0.0, 1.0), Atom(0.0, 2.0)))


def test_smooth_bump_vanishes_smoothly_at_edges():
    f = DensityFamily("smooth_bump", {"level": 1.0, "center": 0.0, "half_width": 1.0})
    assert f(1.0) == 0.0
    assert f(0.0) == pytest.approx(1.0, abs=1e-15)
    # w^2 rho is continuous at the edge, so the boundary value exists there
    wide = WeightFunction("plateau", {"center": 0.0, "half_width": 2.0})
    plemelj_boundary(SpectralMeasure(ac_parts=(f,)), wide, 1.0)
