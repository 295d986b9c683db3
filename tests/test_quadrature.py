import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resolvent_limits import quadrature
from resolvent_limits.quadrature import integrate_adaptive


def test_polynomial_exact():
    res = integrate_adaptive(lambda x: x ** 2, 0.0, 1.0)
    assert res.value.real == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert abs(res.value.real - 1.0 / 3.0) <= max(res.error, 1e-14)


def test_exponential_closed_form():
    res = integrate_adaptive(np.exp, -1.0, 2.0, abs_tol=1e-12)
    assert res.value.real == pytest.approx(np.exp(2.0) - np.exp(-1.0), abs=1e-11)


def test_complex_pole_log_oracle():
    z = 0.3 + 0.05j
    res = integrate_adaptive(lambda x: 1.0 / (x - z), -1.0, 1.0, abs_tol=1e-12)
    truth = cmath.log((1.0 - z) / (-1.0 - z))
    assert abs(res.value - truth) < 1e-11
    assert abs(res.value - truth) <= max(res.error, 1e-12)


def test_sqrt_cusp():
    res = integrate_adaptive(lambda x: np.sqrt(np.abs(x)), -1.0, 1.0,
                             abs_tol=1e-11, breakpoints=[0.0])
    assert res.value.real == pytest.approx(4.0 / 3.0, abs=1e-10)


def test_breakpoints_split_initial_panels():
    calls = []

    def f(x):
        calls.append(x)
        return np.ones_like(x)

    res = integrate_adaptive(f, 0.0, 1.0, breakpoints=[0.25, 0.5])
    assert res.value.real == pytest.approx(1.0, abs=1e-14)
    assert res.panels >= 3


def test_empty_interval():
    res = integrate_adaptive(lambda x: x, 1.0, 1.0)
    assert res.value == 0.0
    assert res.panels == 0


def test_error_estimate_is_honest_near_pole():
    # tight Lorentzian: estimate must cover the actual miss
    y = 1e-4
    z = complex(0.0, y)
    res = integrate_adaptive(lambda x: 1.0 / (x - z), -1.0, 1.0, abs_tol=1e-10)
    truth = cmath.log((1.0 - z) / (-1.0 - z))
    assert abs(res.value - truth) <= max(res.error, 1e-10)


def test_breakpoint_batches_share_one_call():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.sqrt(x)

    res = integrate_adaptive(f, 0.0, 1.0, breakpoints=[0.25, 0.5, 0.75])
    # four seed panels in the first call; every later call holds the two
    # children of one bisection toward the endpoint singularity
    assert calls[0] == 4 * 36
    assert len(calls) > 1 and all(n == 2 * 36 for n in calls[1:])
    assert res.tolerance_met
    assert res.value.real == pytest.approx(2.0 / 3.0, abs=1e-10)


@pytest.mark.parametrize("kwargs", [{"max_panels": 2}, {"abs_tol": 1e-30}])
def test_missed_target_is_reported(kwargs):
    z = complex(0.0, 1e-4)
    res = integrate_adaptive(lambda x: 1.0 / (x - z), -1.0, 1.0, **kwargs)
    assert res.error > kwargs.get("abs_tol", 1e-10)
    assert res.tolerance_met is False


def _bits(res) -> tuple:
    return (res.value.real.hex(), res.value.imag.hex(), res.error.hex(), res.panels, res.tolerance_met)


def _fresh(*args, **kwargs):
    """integrate_adaptive with its seed-grid slot cleared first."""
    quadrature._last_grid = None
    return integrate_adaptive(*args, **kwargs)


def _pole(z):
    return lambda x: 1.0 / (x - z)


grids = st.lists(st.floats(-1.5, 1.5), max_size=8)
ends = st.sampled_from([(-1.0, 1.0), (-0.5, 1.0), (-1.0, 0.75)])


@given(st.lists(st.tuples(ends, grids, st.floats(1e-6, 1.0), st.sampled_from([6, 12])), min_size=1, max_size=6), st.data())
@settings(max_examples=40)
def test_a_shared_seed_grid_changes_no_bit(calls, data):
    # calls interleave grids and ends, and one breakpoint list changes in
    # place between two calls in a row; the fresh calls come after all of them
    shared = [0.0, 0.5]
    runs = []
    for ends, points, y, order in calls:
        f = _pole(complex(0.25, y))
        kwargs = dict(abs_tol=1e-9, order=order, max_panels=200)
        for step in (*ends, points), (-1.0, 1.0, points), (*ends, shared), None, (*ends, shared):
            if step is None:
                shared[data.draw(st.integers(0, len(shared) - 1))] = data.draw(st.floats(-1.5, 1.5))
                shared.append(data.draw(st.floats(-1.5, 1.5)))
                continue
            a, b, breakpoints = step
            got = integrate_adaptive(f, a, b, breakpoints=breakpoints, **kwargs)
            runs.append((f, a, b, list(breakpoints), kwargs, got))
    for f, a, b, breakpoints, kwargs, got in runs:
        assert _bits(got) == _bits(_fresh(f, a, b, breakpoints=breakpoints, **kwargs))


values = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0])


@given(st.lists(st.tuples(values, values), min_size=1, max_size=60), st.lists(st.floats(0.0, 1e300), min_size=1))
@example([(-0.0, -0.0)], [0.0])  # sum's start value turns -0.0 into 0.0
@example([(-0.0, 1.0), (-0.0, -1.0)], [0.0])
def test_summed_adds_left_to_right_as_sum_does(pairs, errs):
    vals = np.array([complex(re, im) for re, im in pairs])
    errs = np.array((errs * len(pairs))[: len(pairs)])
    error = float(sum(errs))
    for v in (vals, vals.real, tuple(vals)):  # seed arrays, real integrands, bisected panels
        value = sum(v, 0.0 + 0.0j)
        want = quadrature.PanelIntegral(value, error, len(errs), error <= 1e-10)
        assert _bits(quadrature._summed(v, errs, 1e-10)) == _bits(want)


def test_an_integrand_cannot_write_into_the_shared_nodes():
    def writes(x):
        x *= 2.0
        return x

    for _ in range(2):  # a fresh grid, then the shared one
        with pytest.raises(ValueError, match="read-only"):
            integrate_adaptive(writes, 0.0, 1.0, breakpoints=[0.5])
    assert integrate_adaptive(lambda x: x, 0.0, 1.0, breakpoints=[0.5]).value.real == pytest.approx(0.5, abs=1e-15)
