"""The route table: which system dynamics._system gives each run.

Five generator cases (symmetric, eigen-route digraph, Schur-route weak ring,
hop-coupling under a constant and under a varying exponent) crossed with
the three methods.  Each cell is either a system class or the message exact
rejects it with; the state-space cells also fix how a bdf step factorizes.
That a constant-exponent hop-coupling run assembles K(a) once over the
whole run is checked in test_kpath_constant_properties.py.
"""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from conftest import cycle_graph, directed_ring_with_chords, weak_ring
from fraclap import (
    ConstantSchedule,
    DynamicsProblem,
    GeneralGenerator,
    IntegratorConfig,
    KPathGenerator,
    SineSchedule,
    SpectralGenerator,
    combinatorial_laplacian,
    directed_laplacians,
    random_initial_state,
    simulate,
)
from fraclap.dynamics import _DenseSystem, _EigenSystem, _system
from fraclap.integrators import StepStats

CASES = ["symmetric", "eigen", "schur", "kpath-const", "kpath-varying"]
METHODS = ["rk45", "bdf", "exact"]
SINE = SineSchedule(0.5, 0.4, 4 * np.pi)
VARYING_KPATH = "hop-coupling generator needs a constant exponent"
SCHUR = r"kappa\(V\) = \S+ exceeds the limit 1e\+04, so .* on the Schur route"

# case -> (system for rk45 and bdf, system or rejection for exact)
ROUTES = {
    "symmetric": (_EigenSystem, _EigenSystem),
    "eigen": (_DenseSystem, _EigenSystem),
    "schur": (_DenseSystem, SCHUR),
    "kpath-const": (_EigenSystem, _EigenSystem),
    "kpath-varying": (_DenseSystem, VARYING_KPATH),
}


def problem_for(case, model="heat"):
    if case == "symmetric":
        gen = SpectralGenerator.from_matrix(
            combinatorial_laplacian(cycle_graph(6)))
    elif case == "eigen":
        digraph = directed_ring_with_chords(6, [(0, 3, 0.5), (4, 1, 2.0)])
        gen = GeneralGenerator.from_matrix(directed_laplacians(digraph)[0])
    elif case == "schur":
        gen = GeneralGenerator.from_matrix(directed_laplacians(weak_ring(8))[0])
    else:
        gen = KPathGenerator.from_graph(cycle_graph(8))
    assert gen.route == case.split("-")[0]
    schedule = ConstantSchedule(0.5) if case == "kpath-const" else SINE
    return DynamicsProblem(model, gen, schedule,
                           random_initial_state(model, gen.n, seed=1), 1.0)


def expected(case, method):
    integrated, exact = ROUTES[case]
    return exact if method == "exact" else integrated


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", CASES)
def test_system_of_each_route(case, method):
    problem = problem_for(case)
    want = expected(case, method)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            _system(problem, method, StepStats())
        with pytest.raises(ValueError, match=want):
            simulate(problem, IntegratorConfig(method=method))
        return
    with mock.patch.object(KPathGenerator, "matrix", autospec=True,
                           side_effect=KPathGenerator.matrix) as matrix:
        system, counting = _system(problem, method, StepStats())
    assert type(system) is want
    # K(a) of a constant hop-coupling exponent is built here, once
    assert matrix.call_count == (case == "kpath-const")
    assert counting.clamps == 0
    traj = simulate(problem, IntegratorConfig(method=method, samples=5))
    assert traj.states.shape == (5, problem.generator.n)


@pytest.mark.parametrize("case, model, cholesky", [
    ("eigen", "heat", False),
    ("schur", "heat", False),
    ("kpath-varying", "heat", True),
    ("kpath-varying", "schrodinger", False),
])
def test_state_space_takes_cholesky_only_for_kpath(case, model, cholesky):
    # I + c K(alpha) is symmetric positive definite for real c > 0; every
    # other state-space matrix, and a complex shift, is LU-factorized
    system, _ = _system(problem_for(case, model), "bdf", StepStats())
    assert type(system) is _DenseSystem
    with mock.patch.object(scipy.linalg, "cho_factor",
                           side_effect=scipy.linalg.cho_factor) as cho, \
            mock.patch.object(scipy.linalg, "lu_factor",
                              side_effect=scipy.linalg.lu_factor) as lu:
        solve = system.make_solver(0.0, 0.1)
    assert (cho.call_count, lu.call_count) == (cholesky, not cholesky)
    # the row-state solve of y (I + c G) = b
    shifted = np.eye(system.n) + 0.1 * system.factor * system.matrix(SINE(0.0))
    b = np.arange(system.n, dtype=float)
    assert np.abs(solve(b) @ shifted - b).max() <= 1e-12 * system.n
