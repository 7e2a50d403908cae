"""Property tests for bdf steps iterated with a stale factorization.

Inputs are hop-coupling generators of connected graphs and out-degree
Laplacian generators of strongly connected digraphs, n <= 30, under a sine
and a sawtooth exponent.  Systems this small refactorize by default, so the
properties lower dynamics.STALE_SOLVER_MIN_N to hand stale factorizations
back at every size.  The reference is scipy's DOP853 on p' = -p G(alpha(t)),
restarted at every jump of the schedule.  The semigroup property under a
constant exponent is also checked for rk45 and the closed form, the latter
on symmetric and eigenvalue-route generators.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import (
    DynamicsProblem,
    GeneralGenerator,
    IntegratorConfig,
    KPathGenerator,
    SpectralGenerator,
    combinatorial_laplacian,
    directed_laplacians,
    parse_schedule,
    random_initial_state,
    simulate,
)
from fraclap import dynamics
from conftest import ring_with_chords
from test_graph_properties import graphs
from test_matfun_properties import strong_digraphs

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True)
SCHEDULES = ("sin:0.5,0.4,12.566370614359172", "saw:0.2,0.9,0.5")
CONFIG = IntegratorConfig(method="bdf")

generators = st.one_of(
    graphs(directed=st.just(False), connected=True)
    .filter(lambda g: g.n > 1).map(KPathGenerator.from_graph),
    strong_digraphs().map(
        lambda g: GeneralGenerator.from_matrix(directed_laplacians(g)[0])))
closed_form_generators = st.one_of(
    graphs(directed=st.just(False), connected=True)
    .filter(lambda g: g.n > 1)
    .map(lambda g: SpectralGenerator.from_matrix(combinatorial_laplacian(g))),
    strong_digraphs()
    .map(lambda g: GeneralGenerator.from_matrix(directed_laplacians(g)[0]))
    .filter(lambda gen: gen.route == "eigen"))
seeds = st.integers(0, 2 ** 16)


def reference(problem, times):
    """DOP853 on p' = -p G(alpha(t)), restarted at each schedule jump."""
    schedule, gen = problem.schedule, problem.generator
    edges = [0.0, *schedule.breakpoints(0.0, times[-1]), times[-1]]
    out = np.empty((times.size, gen.n))
    state = problem.initial_state
    for a, b in zip(edges[:-1], edges[1:]):
        inside = (times >= a) & (times <= b)
        t_eval = np.union1d(times[inside], [b])
        solution = scipy.integrate.solve_ivp(
            lambda t, p: -(p @ gen.matrix(schedule(t))), (a, b), state,
            method="DOP853", t_eval=t_eval, rtol=1e-11, atol=1e-14)
        out[inside] = solution.y.T[np.isin(t_eval, times[inside])]
        state = solution.y[:, -1]
    return out


def stale_at_every_size():
    return mock.patch.object(dynamics, "STALE_SOLVER_MIN_N", 1)


def heat_problem(gen, schedule, seed, horizon=1.0):
    return DynamicsProblem("heat", gen, parse_schedule(schedule),
                           random_initial_state("heat", gen.n, seed), horizon)


def assert_matches_reference(problem, traj):
    expected = reference(problem, traj.times)
    assert np.abs(traj.states - expected).max() \
        <= 500 * CONFIG.rtol * np.abs(expected).max()


@pytest.mark.parametrize("schedule", SCHEDULES)
@PROPERTY
@given(gen=generators, seed=seeds)
def test_stale_bdf_matches_dop853_and_keeps_the_heat_invariants(
        schedule, gen, seed):
    problem = heat_problem(gen, schedule, seed)
    with stale_at_every_size():
        traj = simulate(problem, CONFIG)
    assert_matches_reference(problem, traj)
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12
    assert traj.states.min() >= -10 * CONFIG.atol
    assert traj.stats.factorizations < traj.stats.linear_solves


def restart_gap(gen, seed, s, config):
    """max |p(1) - p(1 - s) restarted from p(s)| under const:0.6, and max |p(1)|."""
    whole = simulate(heat_problem(gen, "const:0.6", seed), config)
    first = simulate(heat_problem(gen, "const:0.6", seed, s), config)
    rest = simulate(DynamicsProblem("heat", gen, parse_schedule("const:0.6"),
                                    first.states[-1], 1.0 - s), config)
    return np.abs(rest.states[-1] - whole.states[-1]).max(), \
        np.abs(whole.states[-1]).max()


@PROPERTY
@given(generators, seeds, st.floats(0.2, 0.8))
def test_constant_exponent_restart_is_a_semigroup(gen, seed, s):
    # p(s + t) from p0 equals p(t) restarted from p(s), to the bdf tolerance.
    with stale_at_every_size():
        gap, scale = restart_gap(gen, seed, s,
                                 IntegratorConfig(method="bdf", samples=2))
    assert gap <= 500 * CONFIG.rtol * scale


@pytest.mark.parametrize("method, strategy, tolerance", [
    ("rk45", st.one_of(generators, closed_form_generators), 500 * CONFIG.rtol),
    ("exact", closed_form_generators, 1e-12),
], ids=["rk45", "exact"])
@PROPERTY
@given(data=st.data(), seed=seeds, s=st.floats(0.2, 0.8))
def test_constant_exponent_restart_is_a_semigroup_for(method, strategy,
                                                      tolerance, data, seed, s):
    gen = data.draw(strategy)
    gap, scale = restart_gap(gen, seed, s,
                             IntegratorConfig(method=method, samples=2))
    assert gap <= tolerance * scale


def test_sawtooth_jump_restarts_the_iteration():
    # At t = 0.5 alpha falls from 0.9 to 0.2: the iteration matrix of the
    # ramp no longer contracts, so the step takes a fresh factorization.
    # n = 120 is above STALE_SOLVER_MIN_N.
    gen = KPathGenerator.from_graph(ring_with_chords(120, 12, seed=4))
    problem = heat_problem(gen, "saw:0.2,0.9,0.5", 5)
    traj = simulate(problem, CONFIG)
    assert traj.stats.iteration_restarts >= 1
    assert traj.stats.factorizations < traj.stats.accepted
    assert_matches_reference(problem, traj)


def test_small_systems_factorize_afresh():
    # Below STALE_SOLVER_MIN_N every moved (c, alpha) is a new factorization.
    gen = KPathGenerator.from_graph(ring_with_chords(30, 5, seed=4))
    assert gen.n < dynamics.STALE_SOLVER_MIN_N
    traj = simulate(heat_problem(gen, SCHEDULES[0], 5), CONFIG)
    stats = traj.stats
    assert stats.iteration_restarts == 0
    assert stats.factorizations == stats.linear_solves \
        == stats.accepted + stats.rejected


def test_stale_bdf_schrodinger_matches_rk45():
    # Complex states take the LU route of the stale iteration.
    gen = KPathGenerator.from_graph(ring_with_chords(30, 5, seed=4))
    problem = DynamicsProblem("schrodinger", gen,
                              parse_schedule("saw:0.2,0.9,0.5"),
                              random_initial_state("schrodinger", gen.n, 3),
                              1.0)
    with stale_at_every_size():
        bdf = simulate(problem, IntegratorConfig(method="bdf", rtol=1e-8,
                                                 atol=1e-11))
    rk45 = simulate(problem, IntegratorConfig(rtol=1e-10, atol=1e-13))
    assert bdf.stats.factorizations < bdf.stats.accepted
    assert np.abs(bdf.states - rk45.states).max() <= 500 * 1e-8
