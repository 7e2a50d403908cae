import re

import numpy as np
import pytest

from fraclap.errors import NumericError, StiffnessError
from fraclap.integrators import (
    _DP_B,
    _DP_P,
    StepStats,
    bdf_integrate,
    rk45_integrate,
)


def linear_solver_factory(rate):
    """Solver provider for the scalar test problem y' = -rate * y."""

    def make_solver(t, c):
        return lambda b: b / (1.0 + c * rate)

    return make_solver


def decay_turning_nan(t_bad):
    """y' = -y whose derivative turns NaN for t > t_bad."""

    def rhs(t, y):
        return -y if t <= t_bad else np.full_like(y, np.nan)

    return rhs


def step_start(message):
    """The step start t and size h named in a non-finite step error."""
    t, h = re.search(r"t=(\S+) \(h=(\S+)\)", message).groups()
    return float(t), float(h)


@pytest.mark.parametrize("samples, t_end", [([0.0, np.nan, 1.0], 1.0),
                                            ([0.0, 1.0], np.nan)])
def test_nonfinite_samples_rejected(samples, t_end):
    # A NaN sample used to leave its row, and every later one, unwritten.
    with pytest.raises(ValueError, match="finite"):
        rk45_integrate(lambda t, y: -y, t_end, np.array([1.0]), samples)
    with pytest.raises(ValueError, match="finite"):
        bdf_integrate(lambda t, y: -y, linear_solver_factory(1.0), t_end,
                      np.array([1.0]), samples)


def test_dense_output_matrix_consistent_with_weights():
    # Interpolant at theta=1 must reproduce the fifth-order solution.
    assert np.abs(_DP_P.sum(axis=1) - np.append(_DP_B, 0.0)).max() <= 1e-14


def test_rk45_scalar_decay_accuracy():
    stats = StepStats()
    out = rk45_integrate(lambda t, y: -2.0 * y, 1.0, np.array([1.0]),
                         np.linspace(0, 1, 11), rtol=1e-9, atol=1e-12,
                         stats=stats)
    expected = np.exp(-2.0 * np.linspace(0, 1, 11))
    assert np.abs(out[:, 0] - expected).max() <= 1e-8
    assert stats.accepted > 0 and stats.rhs_evals >= 6 * stats.accepted


def test_rk45_dense_output_between_steps():
    # Forced single big step; the quartic interpolant carries the samples.
    out = rk45_integrate(lambda t, y: np.array([np.cos(t)]), 1.0,
                         np.array([0.0]), np.linspace(0, 1, 101),
                         rtol=1e-10, atol=1e-13)
    assert np.abs(out[:, 0] - np.sin(np.linspace(0, 1, 101))).max() <= 1e-9


def test_rk45_counts_rejections_under_tight_tolerance():
    # The decay rate jumps from 1 to 50 at t = 1: the steps grown on the
    # slow part overshoot the jump and are rejected.
    stats = StepStats()
    rk45_integrate(lambda t, y: -y * (1.0 if t < 1.0 else 50.0), 2.0,
                   np.array([1.0]), np.array([2.0]), rtol=1e-11, atol=1e-13,
                   stats=stats)
    assert stats.rejected >= 1


def test_rk45_stiffness_error_carries_partial():
    with pytest.raises(StiffnessError) as err:
        rk45_integrate(lambda t, y: -1e16 * y, 1.0, np.array([1.0]),
                       np.linspace(0, 1, 5), rtol=1e-6, atol=1e-9)
    times, states, _ = err.value.partial
    assert times.size >= 1 and states.shape[0] == times.size


def test_rk45_rejects_non_finite_state():
    with pytest.raises(NumericError, match="rk45 step .* non-finite") as err:
        rk45_integrate(decay_turning_nan(0.3), 1.0, np.ones(3),
                       np.linspace(0, 1, 5))
    t, h = step_start(str(err.value))
    assert t <= 0.3 < t + h


def test_rk45_rejects_bad_sample_times():
    with pytest.raises(ValueError):
        rk45_integrate(lambda t, y: -y, 1.0, np.array([1.0]),
                       np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        rk45_integrate(lambda t, y: -y, 1.0, np.array([1.0]),
                       np.array([0.5, 0.5]))


def test_bdf_scalar_decay_accuracy():
    stats = StepStats()
    out = bdf_integrate(lambda t, y: -2.0 * y, linear_solver_factory(2.0),
                        1.0, np.array([1.0]), np.linspace(0, 1, 11),
                        rtol=1e-8, atol=1e-11, stats=stats)
    expected = np.exp(-2.0 * np.linspace(0, 1, 11))
    assert np.abs(out[:, 0] - expected).max() <= 1e-6
    assert stats.linear_solves == stats.accepted + stats.rejected


def test_bdf_rejects_non_finite_state():
    with pytest.raises(NumericError, match="bdf step .* non-finite") as err:
        bdf_integrate(decay_turning_nan(0.3), linear_solver_factory(1.0), 1.0,
                      np.ones(3), np.linspace(0, 1, 5))
    t, h = step_start(str(err.value))
    assert t <= 0.3 < t + h


def test_bdf_reaches_high_order():
    # Smooth problem over a long window: order climbs past 2.
    orders = []

    def make_solver(t, c):
        orders.append(c)  # c = h / gamma(order); recorded per factorization
        return lambda b: b / (1.0 + c)

    bdf_integrate(lambda t, y: -y, make_solver, 20.0, np.array([1.0]),
                  np.array([20.0]), rtol=1e-10, atol=1e-13)
    assert len(orders) > 5


def test_bdf_complex_system():
    out = bdf_integrate(lambda t, y: -1j * y, linear_solver_factory(1j), 2.0,
                        np.array([1.0 + 0j]), np.array([2.0]),
                        rtol=1e-9, atol=1e-12)
    assert abs(out[0, 0] - np.exp(-2j)) <= 1e-6


def test_bdf_stationary_point_stays_put():
    out = bdf_integrate(lambda t, y: 0.0 * y, linear_solver_factory(0.0), 5.0,
                        np.array([0.3, 0.7]), np.linspace(0, 5, 7),
                        rtol=1e-6, atol=1e-9)
    assert np.abs(out - np.array([0.3, 0.7])).max() == 0.0


def test_both_cores_land_exactly_on_t_end():
    samples = np.array([0.0, 0.3333333333333333, 1.0])
    a = rk45_integrate(lambda t, y: -y, 1.0, np.array([1.0]), samples)
    b = bdf_integrate(lambda t, y: -y, linear_solver_factory(1.0), 1.0,
                      np.array([1.0]), samples)
    assert abs(a[-1, 0] - np.exp(-1)) <= 1e-5
    assert abs(b[-1, 0] - np.exp(-1)) <= 1e-4
