"""Property tests for the two routes of GeneralGenerator and closed-form Floquet.

Inputs are out-degree Laplacians of strongly connected random digraphs and
random-walk normalized Laplacians of connected weighted graphs, n <= 30
(n <= 8 where a monodromy is integrated), and nearly defective weak rings,
which take the Schur route.
Tolerances are multiples of the unit roundoff, scaled by n, the size of
the result and the condition number kappa(V) of the eigenvector matrix.
"""

import numpy as np
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import weak_ring
from fraclap import (
    GeneralGenerator,
    NumericError,
    directed_laplacians,
    floquet_exponents,
    parse_schedule,
)
from fraclap.matfun import power_from_factorization, triangular_factorization
from test_matfun_properties import EPS, alphas, laplacians, strong_digraphs

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
MONODROMY = settings(max_examples=20, deadline=None, derandomize=True)
PERIODIC = ("sin:0.5,0.4,12.566370614359172", "saw:0.2,0.9,0.5",
            "tri:0.1,0.8,0.5")
PERIOD = 0.5
# kappa(V) of the weak rings runs from 5e8 (n=8) to 7e9 (n=30).
weak_rings = st.sampled_from([8, 12, 20, 30]).map(
    lambda n: directed_laplacians(weak_ring(n))[0])


@PROPERTY
@given(laplacians, alphas)
def test_eigen_route_matches_schur_power(lap, alpha):
    gen = GeneralGenerator.from_matrix(lap)
    assume(gen.route == "eigen")
    n = lap.shape[0]
    power = gen.matrix(alpha)
    reference = power_from_factorization(triangular_factorization(lap), alpha)
    scale = max(1.0, np.abs(reference).max())
    assert not np.iscomplexobj(power)
    assert np.abs(power - reference).max() \
        <= 100 * EPS * gen.eigvec_condition * n * scale


@PROPERTY
@given(st.one_of(laplacians, weak_rings), alphas)
def test_powers_are_singular_m_matrices(lap, alpha):
    # L^alpha = int (I - e^{-tL}) t^{-1-alpha} dt / |Gamma(-alpha)| and e^{-tL}
    # is nonnegative, so no off-diagonal entry is positive; rows sum to 0.
    # The power is real, or a rounding residue too large to drop fails it.
    gen = GeneralGenerator.from_matrix(lap)
    n = lap.shape[0]
    try:
        power = gen.matrix(alpha)
    except NumericError as exc:
        assert f"alpha={alpha:g} has an imaginary part" in str(exc)
        return
    assert power.dtype == np.float64
    scale = max(1.0, np.abs(power).max())
    kappa = gen.eigvec_condition if gen.route == "eigen" else 1.0
    assert np.abs(power.sum(axis=1)).max() <= 100 * EPS * kappa * n * scale
    off = power[~np.eye(n, dtype=bool)]
    assert off.size == 0 or off.max() <= 1e-12 * scale


def _monodromy_multipliers(gen, schedule):
    """Eigenvalues of the monodromy matrix from an n^2-state DOP853 solve."""
    n = gen.n

    def rhs(t, flat):
        return -(flat.reshape(n, n) @ gen.matrix(schedule(t))).ravel()

    solution = scipy.integrate.solve_ivp(
        rhs, (0.0, PERIOD), np.eye(n).ravel(), method="DOP853",
        rtol=1e-12, atol=1e-14)
    return np.linalg.eigvals(solution.y[:, -1].reshape(n, n))


def _matched_error(values, reference):
    remaining = list(reference)
    worst = 0.0
    for v in values:
        i = int(np.argmin(np.abs(np.asarray(remaining) - v)))
        worst = max(worst, abs(remaining.pop(i) - v))
    return worst


@MONODROMY
@given(strong_digraphs().filter(lambda g: g.n <= 8),
       st.sampled_from(PERIODIC))
def test_floquet_matches_monodromy_on_both_routes(g, descriptor):
    lap = directed_laplacians(g)[0]
    schedule = parse_schedule(descriptor)
    eigen = GeneralGenerator.from_matrix(lap)
    assume(eigen.route == "eigen")
    schur = GeneralGenerator(triangular_factorization(lap), np.inf)
    multipliers = _monodromy_multipliers(schur, schedule)
    for gen in (eigen, schur):
        exponents = floquet_exponents(gen, schedule, PERIOD)
        assert np.all(np.diff(exponents.real) <= 0)
        assert np.all(np.abs(exponents.imag) <= np.pi / PERIOD)
        error = _matched_error(np.exp(PERIOD * exponents), multipliers)
        assert error <= 1e-10 * eigen.eigvec_condition
