"""Property tests of the paper's stability claims on directed graphs.

The steady state pi, from one real solve on the bordered Laplacian, is
checked for its residual, sign and sum over generated strongly connected
digraphs and over weak rings (the Schur route), and against the row of
V^-1 at the zero eigenvalue on the eigenvalue route.  Heat states stay
non-negative on both routes, for every schedule family.

For the uniform bound, inputs are out-degree Laplacians of strongly
connected random digraphs (n <= 30) on the eigenvalue route, so
L = V diag(lambda) V^-1.  Because p0 - pi has no component along the
zero eigenvalue, p(t) - pi = (p0 - pi) V diag(exp(-I(t))) V^-1 with
I_i(t) = int_0^t lambda_i^alpha(tau) dtau, which gives
||p(t) - pi||_2 <= kappa(V) ||p0 - pi||_2 max_{i>=2} exp(-Re I_i(t)).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import weak_ring
from fraclap import (
    DynamicsProblem,
    GeneralGenerator,
    Graph,
    IntegratorConfig,
    directed_laplacians,
    parse_schedule,
    random_initial_state,
    simulate,
    steady_state,
)
from fraclap.dynamics import _exponent_integrals
from test_matfun_properties import EPS, strong_digraphs

BOUND = settings(max_examples=20, deadline=None, derandomize=True)
POSITIVE = settings(max_examples=5, deadline=None, derandomize=True)
SCHEDULES = ("const:0.5", "sin:0.5,0.4,12.566370614359172", "saw:0.2,0.9,0.5")
RTOL, ATOL = 1e-10, 1e-12
WEAK_RINGS = (8, 12, 20, 30)
EVERY_FAMILY = SCHEDULES + ("tri:0.2,0.9,0.5", "expsat:2",
                            "spline:0=0.5;1=0.9;2=0.3")


def check_steady_state(g):
    """pi L = 0 to rounding, pi > 0 and sum(pi) = 1; returns (pi, L)."""
    lap = directed_laplacians(g)[0]
    pi = steady_state(g)
    assert np.abs(pi @ lap).max() <= max(1.0, np.abs(lap).max()) * g.n * EPS
    assert pi.min() > 0
    assert abs(pi.sum() - 1.0) <= g.n * EPS
    return pi, lap


@settings(max_examples=100, deadline=None, derandomize=True)
@given(strong_digraphs())
def test_steady_state_is_the_normalized_left_null_vector(g):
    pi, lap = check_steady_state(g)
    gen = GeneralGenerator.from_matrix(lap)
    if gen.route == "eigen":
        d = gen.factorization
        row = d.inverse[np.argmin(np.abs(d.eigenvalues))]
        assert np.abs(row / row.sum() - pi).max() \
            <= 10 * EPS * gen.eigvec_condition * g.n


@pytest.mark.parametrize("n", WEAK_RINGS)
def test_steady_state_of_weak_ring(n):
    # pi is c on the unit-weight arcs' tails and c / 1e-10 on the last node
    pi, _ = check_steady_state(weak_ring(n))
    expected = np.append(np.ones(n - 1), 1e10) / (n - 1 + 1e10)
    assert np.abs(pi - expected).max() <= n * EPS * expected.max()


def test_steady_state_rejects_a_transient_node():
    # 0 -> 1 leads into the closed class {1, 2}: a null vector exists, but
    # node 0 is never reached again, so the graph is refused
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)), directed=True)
    with pytest.raises(ValueError, match="strongly connected"):
        steady_state(g)


@pytest.mark.parametrize("method", ["exact", "bdf"])
@pytest.mark.parametrize("descriptor", SCHEDULES)
@BOUND
@given(strong_digraphs(), st.integers(0, 2**16))
def test_heat_distance_to_steady_state_obeys_the_eigenbasis_bound(
        descriptor, method, g, seed):
    gen = GeneralGenerator.from_matrix(directed_laplacians(g)[0])
    assume(gen.route == "eigen")
    schedule = parse_schedule(descriptor)
    p0 = random_initial_state("heat", g.n, seed)
    problem = DynamicsProblem("heat", gen, schedule, p0, 2.0)
    traj = simulate(problem, IntegratorConfig(method=method, rtol=RTOL,
                                              atol=ATOL, samples=21))
    pi = steady_state(g)
    lam = gen.clamped_eigenvalues()
    integrals = _exponent_integrals(lam, schedule, traj.times)
    decaying = np.delete(integrals, np.argmin(np.abs(lam)), axis=1)
    bound = gen.eigvec_condition * np.linalg.norm(p0 - pi) \
        * np.exp(-decaying.real).max(axis=1)
    # bdf: its global error, which reaches a few rtol on states of size 1
    # (4.5e-10 on the 2-cycle, where kappa(V) = 1 and the bound is tight);
    # exact: rounding in (p0 V) exp(-I) V^-1.
    slack = np.sqrt(g.n) * (100 * RTOL + 10 * ATOL) if method == "bdf" \
        else 100 * EPS * g.n * gen.eigvec_condition
    distance = np.linalg.norm(traj.states.real - pi, axis=1)
    assert np.all(distance <= bound + slack)


def assert_heat_stays_non_negative(gen, descriptor, method, p0):
    # L^alpha is a singular M-matrix and its powers commute, so the
    # propagator exp(-int L^alpha) is non-negative: a negative entry beyond
    # the error control and the rounding amplified by kappa(V) is a fault.
    config = IntegratorConfig(method=method, samples=21)
    traj = simulate(DynamicsProblem("heat", gen, parse_schedule(descriptor),
                                    p0, 2.0), config)
    slack = config.atol + 100 * EPS * gen.eigvec_condition * len(p0)
    assert traj.states.real.min() >= -slack


def heat_start(n, seed, point_mass):
    return np.eye(n)[seed % n] if point_mass \
        else random_initial_state("heat", n, seed)


@pytest.mark.parametrize("method", ["exact", "rk45", "bdf"])
@pytest.mark.parametrize("descriptor", EVERY_FAMILY)
@POSITIVE
@given(strong_digraphs(), st.integers(0, 2**16), st.booleans())
def test_heat_states_stay_non_negative_on_digraphs(descriptor, method, g,
                                                   seed, point_mass):
    gen = GeneralGenerator.from_matrix(directed_laplacians(g)[0])
    assume(method != "exact" or gen.route == "eigen")
    assert_heat_stays_non_negative(gen, descriptor, method,
                                   heat_start(g.n, seed, point_mass))


@pytest.mark.parametrize("method", ["rk45", "bdf"])
@pytest.mark.parametrize("descriptor", EVERY_FAMILY)
@POSITIVE
@given(st.sampled_from(WEAK_RINGS), st.integers(0, 2**16), st.booleans())
def test_heat_states_stay_non_negative_on_weak_rings(descriptor, method, n,
                                                     seed, point_mass):
    gen = GeneralGenerator.from_matrix(directed_laplacians(weak_ring(n))[0])
    assert gen.route == "schur"
    assert_heat_stays_non_negative(gen, descriptor, method,
                                   heat_start(n, seed, point_mass))
