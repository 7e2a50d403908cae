"""Property test of the paper's uniform stability bound on directed graphs.

Inputs are out-degree Laplacians of strongly connected random digraphs
(n <= 30) on the eigenvalue route, so L = V diag(lambda) V^-1.  Because
p0 - pi has no component along the zero eigenvalue,
p(t) - pi = (p0 - pi) V diag(exp(-I(t))) V^-1 with
I_i(t) = int_0^t lambda_i^alpha(tau) dtau, which gives
||p(t) - pi||_2 <= kappa(V) ||p0 - pi||_2 max_{i>=2} exp(-Re I_i(t)).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraclap import (
    DynamicsProblem,
    GeneralGenerator,
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
SCHEDULES = ("const:0.5", "sin:0.5,0.4,12.566370614359172", "saw:0.2,0.9,0.5")
RTOL, ATOL = 1e-10, 1e-12


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
