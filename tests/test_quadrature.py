import numpy as np
import pytest
from scipy.integrate import quad

import fraclap.quadrature
from fraclap import QuadratureError, SawtoothSchedule, SineSchedule, adaptive_simpson


def test_exact_on_cubic():
    # K15 integrates cubics exactly; no refinement needed.
    assert abs(adaptive_simpson(lambda t: t ** 3, 0.0, 2.0) - 4.0) <= 1e-13


def test_unit_eigenvalue_integrates_to_t():
    sched = SineSchedule(0.5, 0.4, 4 * np.pi)
    value = adaptive_simpson(lambda tau: 1.0 ** sched(tau), 0.0, 3.7)
    assert abs(value - 3.7) <= 1e-12


def test_vector_integrand_against_quad(monkeypatch):
    monkeypatch.setattr(fraclap.quadrature, "_TOL", 1e-11)
    sched = SineSchedule(0.5, 0.4, 4 * np.pi)
    lam = np.array([0.0, 0.5, 2.0, 4.0])

    def integrand(tau):
        return lam ** sched(tau)[:, None]

    result = adaptive_simpson(integrand, 0.0, 2.0)
    for i, l in enumerate(lam):
        if l == 0.0:
            assert result[i] == 0.0
            continue
        reference = quad(lambda tau: l ** sched(tau), 0.0, 2.0,
                         epsabs=1e-13, limit=200)[0]
        assert abs(result[i] - reference) <= 1e-9


def test_breakpoints_handle_sawtooth_jumps(monkeypatch):
    monkeypatch.setattr(fraclap.quadrature, "_TOL", 1e-11)
    sched = SawtoothSchedule(0.05, 0.75, 0.4)

    def integrand(tau):
        return 3.0 ** sched(tau)

    result = adaptive_simpson(integrand, 0.0, 1.7,
                              breakpoints=sched.breakpoints(0.0, 1.7))
    reference = quad(lambda tau: 3.0 ** sched(tau), 0.0, 1.7, epsabs=1e-13,
                     limit=400, points=[0.4, 0.8, 1.2, 1.6])[0]
    assert abs(result - reference) <= 1e-9


def test_complex_vector_integrand_with_sawtooth_jumps():
    # A complex integrand is integrated as it is, with the dtype kept.
    sched = SawtoothSchedule(0.05, 0.75, 0.4)
    lam = np.array([0.0, 0.5 + 1.0j, 2.0 - 0.7j, 3.0 + 0.1j])

    def integrand(tau):
        return lam ** sched(tau)[:, None]

    ends = np.array([0.9, 1.7])
    result = adaptive_simpson(integrand, 0.0, ends,
                              breakpoints=sched.breakpoints(0.0, 1.7))
    assert result.dtype == complex and result.shape == (2, 4)
    assert np.array_equal(result[:, 0], [0.0, 0.0])
    for k, end in enumerate(ends):
        for i, l in enumerate(lam[1:], start=1):
            for part in (np.real, np.imag):
                reference = quad(lambda tau: part(l ** sched(tau)), 0.0, end,
                                 epsabs=1e-13, limit=400,
                                 points=sched.breakpoints(0.0, end))[0]
                assert abs(part(result[k, i]) - reference) <= 1e-9


def test_complex_scalar_integrand():
    value = adaptive_simpson(lambda t: np.exp(1j * t), 0.0, np.pi)
    assert isinstance(value, complex) and abs(value - 2j) <= 1e-13
    empty = adaptive_simpson(lambda t: t * 1j, 1.0, 1.0)
    assert isinstance(empty, complex) and empty == 0.0


def test_zero_width_interval():
    assert adaptive_simpson(lambda t: t, 1.0, 1.0) == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        adaptive_simpson(lambda t: t, 1.0, 0.0)


@pytest.mark.parametrize("a, b", [(0.0, np.nan), (np.nan, 1.0),
                                  (0.0, np.inf), (0.0, [0.5, np.nan])])
def test_nonfinite_end_points_rejected(a, b):
    with pytest.raises(ValueError, match="finite"):
        adaptive_simpson(np.cos, a, b)


def test_budget_exhaustion_reports_interval(monkeypatch):
    monkeypatch.setattr(fraclap.quadrature, "_TOL", 1e-14)
    monkeypatch.setattr(fraclap.quadrature, "_MAX_INTERVALS", 8)
    with pytest.raises(QuadratureError) as err:
        adaptive_simpson(lambda t: np.sin(200.0 * t) ** 2, 0.0, 6.0)
    lo, hi = err.value.interval
    assert 0.0 <= lo < hi <= 6.0
