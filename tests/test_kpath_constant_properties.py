"""Property tests for hop-coupling dynamics under a constant exponent.

Under a constant exponent a the hop-coupling operator is one fixed symmetric
matrix K(a), so rk45, bdf and the closed form all run in its eigenbasis.
Inputs are connected undirected graphs on at most 30 nodes and a0 drawn in
(0, 1]; the reference is p0 expm(-t K(a)) (expm(-i t K(a)) for the
Schrodinger model), with a the exponent the schedule evaluates to.
"""

import logging
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ring_with_chords
from fraclap import (
    ConstantSchedule,
    DynamicsProblem,
    IntegratorConfig,
    KPathGenerator,
    exact_solution,
    parse_schedule,
    random_initial_state,
    simulate,
)
from fraclap import dynamics
from test_graph_properties import graphs

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
RTOL = IntegratorConfig().rtol
TOLERANCE = {"exact": 1e-12, "rk45": 500 * RTOL, "bdf": 500 * RTOL}
MODELS = ("heat", "schrodinger")

kpath_generators = graphs(directed=st.just(False), connected=True).filter(
    lambda g: g.n > 1).map(KPathGenerator.from_graph)
exponents = st.floats(0.0, 1.0, exclude_min=True)
seeds = st.integers(0, 2 ** 16)


def expm_reference(problem, times):
    """p0 expm(-f t K(a)) at each time, f = 1 (heat) or i (Schrodinger)."""
    generator = problem.generator.matrix(problem.schedule(0.0))
    return np.array([problem.initial_state
                     @ scipy.linalg.expm(-problem.factor * t * generator)
                     for t in times])


def constant_problem(gen, model, alpha, seed, horizon=1.0):
    return DynamicsProblem(model, gen, ConstantSchedule(alpha),
                           random_initial_state(model, gen.n, seed), horizon)


def assert_matches_expm(problem, method, samples=6):
    traj = simulate(problem, IntegratorConfig(method=method, samples=samples))
    expected = expm_reference(problem, traj.times)
    scale = np.abs(expected).max()
    assert np.abs(traj.states - expected).max() <= TOLERANCE[method] * scale
    if problem.model == "heat":
        assert not np.iscomplexobj(traj.states)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-12
    else:
        drift = np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max()
        assert drift <= TOLERANCE[method]


@pytest.mark.parametrize("model", MODELS)
@PROPERTY
@given(gen=kpath_generators, alpha=exponents, seed=seeds,
       horizon=st.floats(0.2, 2.0))
def test_constant_exponent_matches_expm_for_every_method(model, gen, alpha,
                                                         seed, horizon):
    problem = constant_problem(gen, model, alpha, seed, horizon)
    for method in ("exact", "rk45", "bdf"):
        assert_matches_expm(problem, method)


def test_constant_exponent_above_the_stale_gate_runs_in_the_eigenbasis():
    gen = KPathGenerator.from_graph(ring_with_chords(120, 12, seed=4))
    assert gen.n >= dynamics.STALE_SOLVER_MIN_N
    with mock.patch.object(dynamics, "_DenseSystem",
                           side_effect=AssertionError("state-space system")):
        for model in MODELS:
            problem = constant_problem(gen, model, 0.7, seed=5)
            for method in ("exact", "rk45", "bdf"):
                assert_matches_expm(problem, method)


@pytest.mark.parametrize("method", ["exact", "rk45", "bdf"])
def test_constant_run_assembles_the_hop_coupling_matrix_once(method):
    gen = KPathGenerator.from_graph(ring_with_chords(30, 5, seed=4))
    problem = constant_problem(gen, "heat", 0.5, seed=3)
    with mock.patch.object(KPathGenerator, "matrix", autospec=True,
                           side_effect=KPathGenerator.matrix) as matrix:
        simulate(problem, IntegratorConfig(method=method))
    assert matrix.call_count == 1
    assert matrix.call_args.args[1] == 0.5


def test_varying_exponent_has_no_hop_coupling_closed_form():
    gen = KPathGenerator.from_graph(ring_with_chords(30, 5, seed=4))
    problem = DynamicsProblem("heat", gen, parse_schedule("saw:0.2,0.9,0.5"),
                              random_initial_state("heat", gen.n, 3), 1.0)
    with pytest.raises(ValueError, match="hop-coupling"):
        exact_solution(problem)


def test_constant_route_logs_exponent_and_size(caplog):
    gen = KPathGenerator.from_graph(ring_with_chords(30, 5, seed=4))
    problem = constant_problem(gen, "heat", 0.25, seed=3)
    with caplog.at_level(logging.DEBUG, logger="fraclap"):
        simulate(problem, IntegratorConfig(method="bdf"))
    routed = [r.getMessage() for r in caplog.records
              if "eigenbasis of K(alpha)" in r.getMessage()]
    assert routed == ["constant hop-coupling exponent alpha=0.25: n=30 "
                      "solved in the eigenbasis of K(alpha)"]
