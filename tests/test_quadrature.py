import cmath
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resolvent_limits import quadrature
from resolvent_limits.quadrature import integrate_adaptive, seed_grid


def test_polynomial_exact():
    res = integrate_adaptive(lambda x: x ** 2, seed_grid(0.0, 1.0))
    assert res.value.real == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert abs(res.value.real - 1.0 / 3.0) <= max(res.error, 1e-14)


def test_exponential_closed_form():
    res = integrate_adaptive(np.exp, seed_grid(-1.0, 2.0), abs_tol=1e-12)
    assert res.value.real == pytest.approx(np.exp(2.0) - np.exp(-1.0), abs=1e-11)


def test_complex_pole_log_oracle():
    z = 0.3 + 0.05j
    res = integrate_adaptive(lambda x: 1.0 / (x - z), seed_grid(-1.0, 1.0), abs_tol=1e-12)
    truth = cmath.log((1.0 - z) / (-1.0 - z))
    assert abs(res.value - truth) < 1e-11
    assert abs(res.value - truth) <= max(res.error, 1e-12)


def test_sqrt_cusp():
    res = integrate_adaptive(lambda x: np.sqrt(np.abs(x)), seed_grid(-1.0, 1.0, [0.0]), abs_tol=1e-11)
    assert res.value.real == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_breakpoints_split_initial_panels():
    calls = []

    def f(x):
        calls.append(x)
        return np.ones_like(x)

    res = integrate_adaptive(f, seed_grid(0.0, 1.0, [0.25, 0.5]))
    assert res.value.real == pytest.approx(1.0, abs=1e-14)
    assert res.panels >= 3


def test_empty_interval():
    for b in 1.0, 0.5:
        grid = seed_grid(1.0, b, [0.75])
        assert grid.edges.size == grid.half.size == grid.nodes.size == 0
        res = integrate_adaptive(lambda x: x, grid)
        assert res.value == 0.0
        assert res.panels == 0


def test_error_estimate_is_honest_near_pole():
    # tight Lorentzian: estimate must cover the actual miss
    y = 1e-4
    z = complex(0.0, y)
    res = integrate_adaptive(lambda x: 1.0 / (x - z), seed_grid(-1.0, 1.0), abs_tol=1e-10)
    truth = cmath.log((1.0 - z) / (-1.0 - z))
    assert abs(res.value - truth) <= max(res.error, 1e-10)


def test_breakpoint_batches_share_one_call():
    calls = []

    def f(x):
        calls.append(x)
        return np.sqrt(x)

    grid = seed_grid(0.0, 1.0, [0.25, 0.5, 0.75])
    res = integrate_adaptive(f, grid)
    # four seed panels in the first call, on the grid's own nodes; every
    # later call holds the two children of one bisection toward the endpoint
    # singularity
    assert calls[0] is grid.nodes and grid.nodes.size == 4 * 36
    assert len(calls) > 1 and all(x.size == 2 * 36 for x in calls[1:])
    assert res.tolerance_met
    assert res.value.real == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_missed_target_is_reported():
    # the panel budget runs out long before the error reaches 1e-30
    z = complex(0.0, 1e-4)
    res = integrate_adaptive(lambda x: 1.0 / (x - z), seed_grid(-1.0, 1.0), abs_tol=1e-30)
    assert res.error > 1e-30
    assert res.tolerance_met is False


def _bits(res) -> tuple:
    return (res.value.real.hex(), res.value.imag.hex(), res.error.hex(), res.panels, res.tolerance_met)


def _pole(z):
    return lambda x: 1.0 / (x - z)


@given(st.lists(st.floats(-0.9, 0.9), min_size=8, max_size=40), st.floats(1e-3, 1e-1), st.sampled_from([-1, 0, 1]))
@example([-0.813, -0.688, -0.603, -0.555, -0.543, -0.202, 0.011, 0.114, 0.136, 0.192, 0.245, 0.52, 0.568, 0.678,
          0.711, 0.786], 0.022, 0)  # a pairwise sum of the errors falls one ulp below the left-to-right one
@settings(max_examples=60)
def test_a_missed_target_is_never_left_unbisected(points, y, ulps):
    # abs_tol sits on the rounding boundary of the seed panels' error sum:
    # the early return and tolerance_met must read one and the same sum
    f = _pole(complex(0.1, y))
    grid = seed_grid(-1.0, 1.0, points)
    _, errs = quadrature._eval_panels(f, grid.half, grid.nodes)
    for total in float(np.sum(errs)), sum(errs):
        abs_tol = float(np.nextafter(total, ulps * np.inf)) if ulps else total
        res = integrate_adaptive(f, grid, abs_tol=abs_tol)
        assert res.tolerance_met or res.panels > grid.half.size, (total, res)
        assert res.tolerance_met == (res.error <= abs_tol)


values = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0])


@given(st.lists(st.tuples(values, values), min_size=1, max_size=60), st.lists(st.floats(0.0, 1e300), min_size=1))
@example([(-0.0, -0.0)], [0.0])  # sum's start value turns -0.0 into 0.0
@example([(-0.0, 1.0), (-0.0, -1.0)], [0.0])
def test_summed_adds_left_to_right_as_sum_does(pairs, errs):
    vals = np.array([complex(re, im) for re, im in pairs])
    errs = np.array((errs * len(pairs))[: len(pairs)])
    error = float(sum(errs))
    # the elements are numpy scalars, which sum adds one by one; from Python
    # 3.12 on it compensates a sum of exact floats
    for v in (vals, vals.real, tuple(vals)):  # seed arrays, real integrands, bisected panels
        value = sum(v, 0.0 + 0.0j)
        want = quadrature.PanelIntegral(value, error, len(errs), error <= 1e-10)
        assert _bits(quadrature._summed(v, errs, 1e-10)) == _bits(want)


def test_an_integrand_cannot_write_into_the_shared_nodes():
    def writes(x):
        x *= 2.0
        return x

    grid = seed_grid(0.0, 1.0, [0.5])
    assert not grid.nodes.flags.writeable
    for _ in range(2):  # one grid, handed over twice as a ladder does
        with pytest.raises(ValueError, match="read-only"):
            integrate_adaptive(writes, grid)
    assert integrate_adaptive(lambda x: x, grid).value.real == pytest.approx(0.5, abs=1e-15)


def test_seed_grids_are_pure():
    # equal arguments give equal arrays, in a new grid each time
    first, second = seed_grid(-1.0, 1.0, [0.5, -0.25, 3.0, 0.5]), seed_grid(-1.0, 1.0, (-0.25, 0.5))
    assert first.edges.tolist() == [-1.0, -0.25, 0.5, 1.0]
    for a, b in zip(first, second):
        assert a is not b and a.tobytes() == b.tobytes()


# a 12-rung transform ladder and the boundary value at its lambda
TRANSFORM_RUN = """
from resolvent_limits import *
measure = SpectralMeasure(ac_parts=(DensityFamily("constant", {"level": 1.0}, (-1.0, 1.0)),))
weight = WeightFunction("plateau", {"center": 0.0, "half_width": 1.0})
limit_probe(lambda z: evaluate_offaxis(measure, weight, z), 0.25, YSchedule(0.1, 1e-12, 0.1))
plemelj_boundary(measure, weight, 0.25)
"""


def test_importing_the_package_leaves_numpy_polynomial_unloaded():
    # the Gauss rules are constants, so neither import (the benchmark's
    # setup_s, and every console-script run) nor a transform ladder with its
    # boundary value pays for numpy.polynomial
    src = os.path.dirname(os.path.dirname(quadrature.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for run in ("", TRANSFORM_RUN):
        code = (
            "import sys, resolvent_limits, resolvent_limits.cli\n"
            + run
            + "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "order, nodes, weights",
    [(quadrature.ORDER, quadrature._X1, quadrature._W1), (2 * quadrature.ORDER, quadrature._X2, quadrature._W2)],
    ids=["12", "24"],
)
def test_the_gauss_rules_are_leggauss_mirrored(order, nodes, weights):
    # within 2 ulps of numpy's rule, not bit for bit: the golden records pin
    # the bits, so a numpy build whose leggauss moves by an ulp fails no test
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(order)
    for got, ref in ((nodes, ref_nodes), (weights, ref_weights)):
        assert got.shape == (order,)
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
    assert np.all(np.diff(nodes) > 0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert abs(math.fsum(weights) - 2.0) <= 4 * np.spacing(2.0)
    assert quadrature._NODES.tolist() == [*quadrature._X1.tolist(), *quadrature._X2.tolist()]
