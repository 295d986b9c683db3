import cmath

import numpy as np
import pytest

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
