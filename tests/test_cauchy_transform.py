import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import resolvent_limits.cauchy_transform as ct
from resolvent_limits import (
    Atom,
    AtomAtProbe,
    DensityFamily,
    NonrealRequired,
    NotHolder,
    SpectralMeasure,
    WeightFunction,
    evaluate_offaxis,
    far_bound,
    near_far_split,
    plemelj_boundary,
    principal_value,
    weighted_mass,
)

from conftest import spectral_measures, weight_functions

PLATEAU = WeightFunction("plateau", {"center": 0.0, "half_width": 1.0})
FLAT = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 1.0}, (-1.0, 1.0)),))
EPS = np.finfo(float).eps


def plateau_closed_form(level, slope, a, b, atoms, z):
    """C(z) for level + slope*x on [a, b] under a plateau weight covering [a, b]
    and the atoms, and the sum of the magnitudes of its terms.

    slope (b - a) + (level + slope z) [log(b - z) - log(a - z)] + sum m/(loc - z);
    for real z the logs take the y -> 0+ branch, giving p.v. + i pi rho(lam).
    """
    z = complex(z)
    lb, la = (cmath.log(complex(p - z.real, -z.imag)) for p in (b, a))
    lead = level + slope * z
    value = slope * (b - a) + lead * (lb - la)
    scale = abs(slope * (b - a)) + abs(lead) * (abs(lb) + abs(la))
    for loc, mass in atoms:
        value += mass / (loc - z)
        scale += abs(mass / (loc - z))
    return value, scale


def test_single_atom_transform_is_exact():
    m = SpectralMeasure(atoms=(Atom(0.0, 1.0),))
    tv = evaluate_offaxis(m, PLATEAU, 1j)
    # 1/(0 - i) = i
    assert abs(tv.value - 1j) < 1e-15
    assert tv.abs_error_estimate == 0.0


def test_flat_transform_log_oracle_at_i():
    z = 1j
    closed_form = cmath.log((1.0 - z) / (-1.0 - z))  # = i pi / 2
    tv = evaluate_offaxis(FLAT, PLATEAU, z)
    assert abs(tv.value - closed_form) < 1e-12
    # independent quadrature oracle: fine trapezoid grid
    xs = np.linspace(-1.0, 1.0, 2_000_001)
    fs = 1.0 / (xs - z)
    oracle = complex(np.sum(0.5 * (fs[1:] + fs[:-1]) * np.diff(xs)))
    assert abs(tv.value - oracle) < 1e-10


def test_empty_measure_gives_zero():
    tv = evaluate_offaxis(SpectralMeasure(), PLATEAU, 0.3 + 0.2j)
    assert tv.value == 0.0
    assert tv.panels_used == 0


def test_offaxis_rejects_real_z():
    with pytest.raises(NonrealRequired):
        evaluate_offaxis(FLAT, PLATEAU, 0.5 + 0.0j)


@given(spectral_measures(), weight_functions(), st.floats(-2.0, 2.0), st.floats(1e-4, 1.0))
@settings(max_examples=25)
def test_herglotz_sign(measure, weight, x0, y):
    tv = evaluate_offaxis(measure, weight, complex(x0, y), abs_tol=1e-8)
    assert tv.value.imag >= -1e-9


@given(spectral_measures(), weight_functions(), st.floats(-2.0, 2.0), st.floats(-12.0, 0.0))
@settings(max_examples=25)
def test_conjugate_symmetry(measure, weight, x0, log_y):
    z = complex(x0, 10.0 ** log_y)
    up = evaluate_offaxis(measure, weight, z, abs_tol=1e-9).value
    down = evaluate_offaxis(measure, weight, z.conjugate(), abs_tol=1e-9).value
    assert abs(down - up.conjugate()) <= 1e-12 * max(1.0, abs(up))


@given(
    st.floats(-2.0, 0.0),
    st.floats(0.25, 2.0),
    st.floats(0.1, 2.0),
    st.sampled_from([0.0, -0.75, 0.4]) | st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.floats(-14.0, 0.0),
    st.lists(st.tuples(st.floats(0.1, 0.9), st.floats(0.1, 2.0)), max_size=2),
)
@settings(max_examples=40)
def test_closed_form_down_to_tiny_y(a, width, level, slope, t, log_y, atom_draws):
    b = a + width
    lam = a + t * width
    if not a < lam < b:
        lam = 0.5 * (a + b)
    # atoms at lam - d (first) and lam + d (second), inside the plateau
    atoms = [(lam - d if k == 0 else lam + d, m) for k, (d, m) in enumerate(atom_draws)]
    if slope == 0.0:
        part = DensityFamily("constant", {"level": level}, (a, b))
    else:
        part = DensityFamily("affine", {"level": level, "slope": slope, "center": 0.0}, (a, b))
    measure = SpectralMeasure((part,), tuple(Atom(loc, m) for loc, m in atoms))
    weight = WeightFunction("plateau", {"center": 0.5 * (a + b), "half_width": 0.5 * width + 1.0})
    abs_tol = 1e-10
    for z in (complex(lam, 10.0 ** log_y), complex(lam, 0.0)):
        ref, scale = plateau_closed_form(level, slope, a, b, atoms, z)
        if z.imag > 0.0:
            tv = evaluate_offaxis(measure, weight, z, abs_tol=abs_tol)
            assert tv.tolerance_met
            value = tv.value
        else:
            value = plemelj_boundary(measure, weight, lam, abs_tol=abs_tol)
        assert abs(value - ref) <= abs_tol + 64 * EPS * scale, z


def test_offaxis_reports_missed_target():
    m = SpectralMeasure(
        ac_parts=(DensityFamily("affine", {"level": 1.0, "slope": 0.5, "center": 0.0}, (-1.0, 1.0)),)
    )
    assert evaluate_offaxis(m, PLATEAU, complex(0.3, 1e-3)).tolerance_met
    tv = evaluate_offaxis(m, PLATEAU, complex(0.3, 1e-3), abs_tol=1e-30)
    assert tv.abs_error_estimate > 1e-30
    assert tv.tolerance_met is False


CUSP_LADDER = tuple(10.0 ** -k for k in range(1, 13))


def symmetric_cusp(c, expo, level, h):
    """level |x - c|^expo on [c - h, c + h] under a plateau weight covering it:
    C(c + iy) is purely imaginary, and C(c + i0) = 0."""
    part = DensityFamily("power_bump", {"level": level, "exponent": expo, "center": c}, (c - h, c + h))
    return SpectralMeasure((part,)), WeightFunction("plateau", {"center": c, "half_width": 1.25 * h})


@given(
    st.floats(-0.5, 0.5),
    st.floats(0.6, 1.0),
    st.floats(0.5, 1.5),
    st.floats(0.3, 1.0),
)
@example(0.0, 0.6, 1.5, 1.0)
@settings(max_examples=30)
def test_symmetric_cusp_ladder(c, expo, level, h):
    measure, weight = symmetric_cusp(c, expo, level, h)
    abs_tol = 1e-10
    for y in CUSP_LADDER:
        tv = evaluate_offaxis(measure, weight, complex(c, y), abs_tol=abs_tol)
        assert tv.tolerance_met, y
        assert abs(tv.value.real) <= abs_tol + 64 * EPS * abs(tv.value), y
    # On the axis the content of the last float on either side of c,
    # level ulp(c)^expo / expo, cannot be sampled; it falls below 1e-11 for
    # expo >= 0.75 but exceeds abs_tol near expo = 0.6.
    last_float = 2 * level * np.spacing(abs(c)) ** expo / expo
    assert abs(plemelj_boundary(measure, weight, c, abs_tol=abs_tol)) <= abs_tol + last_float


@pytest.mark.parametrize("c", [-0.5, -0.2, 0.0, 1e-3, 0.3, 0.5])
@pytest.mark.parametrize("expo", [0.75, 0.9, 1.0])
def test_cusp_rung_takes_one_integrand_call(monkeypatch, c, expo):
    # graded seeds resolve the cusp up front instead of one bisection per call
    calls = []
    integrate = ct.integrate_adaptive

    def counting(f, *args, **kwargs):
        def g(x):
            calls[-1] += 1
            return f(x)

        calls.append(0)
        return integrate(g, *args, **kwargs)

    monkeypatch.setattr(ct, "integrate_adaptive", counting)
    measure, weight = symmetric_cusp(c, expo, 1.5, 1.0)
    for y in CUSP_LADDER:
        evaluate_offaxis(measure, weight, complex(c, y))
    plemelj_boundary(measure, weight, c)
    assert len(calls) == len(CUSP_LADDER) + 1
    assert max(calls) <= 2, calls


def test_power_hat_cusp_boundary_meets_target():
    # transform-deep-y seed 10, cusp-power_hat#14: the exact value is 0, and
    # bisection one panel per call stopped at 1.44e-10 with the target missed.
    # plemelj_boundary returns a bare complex, so ask the kernel directly.
    c = 0.2986604149731032
    part = DensityFamily(
        "power_bump",
        {"level": 1.3081039331030082, "exponent": 0.6051905086311572, "center": c},
        (-0.7013395850268969, 1.2986604149731031),
    )
    weight = WeightFunction(
        "power_hat", {"center": c, "half_width": 1.1084140055848255, "exponent": 0.7086899537504361}
    )
    tv = ct._transform(SpectralMeasure((part,)), weight, complex(c, 0.0), 1e-10)
    assert tv.tolerance_met
    assert abs(tv.value) <= 1e-10


def test_cusp_estimate_covers_the_error_at_tiny_y():
    # power_bump exponent 0.45 at z = c + 1e-12 i; reference Im C from a
    # 50-digit quadrature of 2 level int_0^0.9 t^0.45 y / (t^2 + y^2) dt
    c = 0.73
    part = DensityFamily("power_bump", {"level": 1.1, "exponent": 0.45, "center": c}, (c - 0.9, c + 0.9))
    weight = WeightFunction("plateau", {"center": c, "half_width": 1.25})
    ref = 1.8092431655150677e-05j
    tv = evaluate_offaxis(SpectralMeasure((part,)), weight, complex(c, 1e-12))
    assert abs(tv.value - ref) <= tv.abs_error_estimate + 64 * EPS * abs(ref)


def test_principal_value_odd_symmetry():
    assert principal_value(FLAT, PLATEAU, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_principal_value_affine_through_zero():
    m = SpectralMeasure(
        ac_parts=(DensityFamily("affine", {"level": 0.0, "slope": 1.0, "center": 0.0}, (-1.0, 1.0)),)
    )
    # p.v. of x/(x-0) over [-1, 1] is the plain integral of 1
    assert principal_value(m, PLATEAU, 0.0) == pytest.approx(2.0, abs=1e-9)


def test_principal_value_shifted_window():
    m = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 1.0}, (0.0, 2.0)),))
    w = WeightFunction("plateau", {"center": 1.0, "half_width": 1.0})
    assert principal_value(m, w, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_principal_value_log_oracle_off_center():
    # p.v. over [-1, 1] of 1/(x - 0.5) = ln((1-0.5)/(0.5+1))
    truth = math.log((1.0 - 0.5) / (0.5 + 1.0))
    assert principal_value(FLAT, PLATEAU, 0.5) == pytest.approx(truth, abs=1e-10)


@pytest.mark.parametrize("lam", [-1.0 + 1e-9, -0.7, 0.0, 0.3, 0.999, 1.0 - 1e-9])
def test_principal_value_log_oracle_near_support_edges(lam):
    # p.v. over [-1, 1] of 1/(x - lam) = ln((1 - lam)/(1 + lam))
    truth = math.log((1.0 - lam) / (1.0 + lam))
    assert principal_value(FLAT, PLATEAU, lam) == pytest.approx(truth, abs=1e-10 + 64 * EPS * abs(truth))


def test_principal_value_guards():
    m = SpectralMeasure(ac_parts=FLAT.ac_parts, atoms=(Atom(0.5, 1.0),))
    with pytest.raises(AtomAtProbe):
        principal_value(m, PLATEAU, 0.5)
    with pytest.raises(NotHolder):
        principal_value(FLAT, PLATEAU, 1.0)  # density jump at the support edge


def test_plemelj_where_two_equal_constant_pieces_meet():
    # each piece ends at lam, but w^2 rho is the constant 1 across it
    halves = tuple(DensityFamily("constant", {"level": 1.0}, s) for s in ((-1.0, 0.0), (0.0, 1.0)))
    assert plemelj_boundary(SpectralMeasure(ac_parts=halves), PLATEAU, 0.0) == 1j * math.pi


def test_plemelj_at_a_density_edge_where_the_weight_vanishes():
    # w(x) = x on [0, 1], so w^2 rho = x^2 there and C(0 + i0) = integral of x = 1/2
    hat = WeightFunction("hat", {"center": 1.0, "half_width": 1.0})
    unit = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 1.0}, (0.0, 1.0)),))
    assert plemelj_boundary(unit, hat, 0.0) == pytest.approx(0.5, abs=1e-12)


@st.composite
def half_densities(draw, side):
    """A catalog piece with a support edge at 0 on the ``side`` (-1 or 1) of
    it, and its value at 0, one of a few exact numbers."""
    level = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    support = tuple(sorted((0.0, side * draw(st.floats(0.25, 1.0)))))
    h = draw(st.floats(0.25, 1.0))
    return draw(
        st.sampled_from(
            [
                (DensityFamily("constant", {"level": level}, support), level),
                # the slope points away from 0, so the piece stays nonnegative
                (DensityFamily("affine", {"level": level, "slope": side * h, "center": 0.0}, support), level),
                (DensityFamily("power_bump", {"level": level, "exponent": h, "center": 0.0}, support), 0.0),
                (DensityFamily("smooth_bump", {"level": level, "center": 0.0, "half_width": h}, support), level),
                (DensityFamily("smooth_bump", {"level": level, "center": side * h, "half_width": h}, support), 0.0),
            ]
        )
    )


@given(half_densities(-1), half_densities(1), weight_functions())
def test_plemelj_raises_exactly_when_w2_rho_jumps(left, right, weight):
    (below_part, below), (above_part, above) = left, right
    assume(not (weight.kind == "plateau" and 0.0 in weight.support))  # w itself jumps at 0
    measure = SpectralMeasure(ac_parts=(below_part, above_part))
    if weight(0.0) ** 2 * (below - above) != 0.0:
        with pytest.raises(NotHolder):
            plemelj_boundary(measure, weight, 0.0)
    else:
        assert cmath.isfinite(plemelj_boundary(measure, weight, 0.0))


def test_plemelj_flat_at_zero():
    assert abs(plemelj_boundary(FLAT, PLATEAU, 0.0) - 1j * math.pi) < 1e-9


def test_plemelj_vanishing_density_kills_jump():
    m = SpectralMeasure(
        ac_parts=(DensityFamily("affine", {"level": 0.0, "slope": 1.0, "center": 0.0}, (-1.0, 1.0)),)
    )
    v = plemelj_boundary(m, PLATEAU, 0.0)
    assert v.imag == 0.0
    assert v.real == pytest.approx(2.0, abs=1e-9)


def test_plemelj_log_oracle():
    truth = complex(math.log((1.0 - 0.5) / 1.5), math.pi)
    assert abs(plemelj_boundary(FLAT, PLATEAU, 0.5) - truth) < 1e-9


def test_boundary_convergence_toward_plemelj():
    lam = 0.3
    limit = plemelj_boundary(FLAT, PLATEAU, lam)
    ys = [0.1 * 0.5 ** k for k in range(10)]
    gaps = [abs(evaluate_offaxis(FLAT, PLATEAU, complex(lam, y)).value - limit) for y in ys]
    slope = np.polyfit(np.log(ys), np.log(gaps), 1)[0]
    assert slope >= 0.85  # Lipschitz data, log factor tolerated


def test_near_far_split_supports():
    sp = near_far_split(FLAT, 0.0, 0.5)
    assert [p.support for p in sp.near.ac_parts] == [(-0.5, 0.5)]
    assert sorted(p.support for p in sp.far.ac_parts) == [(-1.0, -0.5), (0.5, 1.0)]


def test_near_far_split_atom_routing():
    m = SpectralMeasure(atoms=(Atom(0.3, 1.0),))
    assert near_far_split(m, 0.0, 0.5).near.atoms == (Atom(0.3, 1.0),)
    edge = SpectralMeasure(atoms=(Atom(0.5, 1.0),))
    sp = near_far_split(edge, 0.0, 0.5)
    assert sp.near.atoms == ()
    assert sp.far.atoms == (Atom(0.5, 1.0),)  # open near zone: boundary atom is far


@given(st.floats(-0.7, 0.7), st.floats(0.05, 0.4), st.floats(-3.0, -1.0))
@settings(max_examples=20)
def test_split_additivity(lam, eps, log_y):
    y = 10.0 ** log_y
    m = SpectralMeasure(
        ac_parts=(DensityFamily("constant", {"level": 1.0}, (-1.0, 1.0)),),
        atoms=(Atom(0.65, 0.3),),
    )
    sp = near_far_split(m, lam, eps)
    z = complex(lam, y)
    cn = evaluate_offaxis(sp.near, PLATEAU, z)
    cf = evaluate_offaxis(sp.far, PLATEAU, z)
    ct = evaluate_offaxis(m, PLATEAU, z)
    budget = cn.abs_error_estimate + cf.abs_error_estimate + ct.abs_error_estimate + 1e-13
    assert abs(cn.value + cf.value - ct.value) <= budget


def test_far_bound_examples():
    # single far atom of weighted mass 1, eps = 0.25 -> bound 4
    m = SpectralMeasure(atoms=(Atom(0.5, 1.0),))
    sp = near_far_split(m, 0.0, 0.25)
    assert far_bound(sp, PLATEAU) == pytest.approx(4.0, abs=1e-12)
    # weighted far mass 2, eps = 0.5 -> bound 4
    m2 = SpectralMeasure(atoms=(Atom(0.6, 1.0), Atom(-0.6, 1.0)))
    sp2 = near_far_split(m2, 0.0, 0.5)
    assert far_bound(sp2, PLATEAU) == pytest.approx(4.0, abs=1e-12)
    # empty far measure -> 0
    sp3 = near_far_split(SpectralMeasure(atoms=(Atom(0.0, 1.0),)), 0.0, 0.5)
    assert far_bound(sp3, PLATEAU) == 0.0


def test_far_bound_dominates_far_transform():
    m = SpectralMeasure(
        ac_parts=(DensityFamily("constant", {"level": 1.0}, (-1.0, 1.0)),),
        atoms=(Atom(0.65, 0.3),),
    )
    for lam, eps, y in [(0.0, 0.25, 1e-2), (0.2, 0.1, 1e-3), (-0.4, 0.3, 1e-1)]:
        sp = near_far_split(m, lam, eps)
        cf = evaluate_offaxis(sp.far, PLATEAU, complex(lam, y))
        assert abs(cf.value) <= far_bound(sp, PLATEAU) + cf.abs_error_estimate + 1e-12


def test_weighted_mass_flat():
    mass, err = weighted_mass(FLAT, PLATEAU)
    assert mass == pytest.approx(2.0, abs=1e-10)
    assert err < 1e-10
