import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    DATA,
    cycle_graph,
    directed_ring_with_chords,
    ring_with_chords,
    weak_ring,
)
import fraclap
from fraclap import (
    ConstantSchedule,
    ConvergenceError,
    DynamicsProblem,
    ExpSaturatingSchedule,
    GeneralGenerator,
    IntegratorConfig,
    KPathGenerator,
    NumericError,
    SawtoothSchedule,
    ScheduleError,
    SineSchedule,
    SpectralGenerator,
    SplineSchedule,
    StiffnessError,
    TriangularSchedule,
    combinatorial_laplacian,
    directed_laplacians,
    exact_solution,
    fractional_power_general,
    fractional_power_sym,
    load_graph,
    normalized_laplacians,
    random_initial_state,
    simulate,
    sym_eig,
)
from fraclap.dynamics import _system
from fraclap.integrators import StepStats
from fraclap.matfun import EigenFactorization

SINE = SineSchedule(0.5, 0.4, 4 * np.pi)


def c4_generator(c4):
    return SpectralGenerator.from_matrix(combinatorial_laplacian(c4))


def spectral_oracle_heat(lap, p0, t):
    """Independent constant-alpha=1 solution p0 @ exp(-t L) via eigh."""
    lam, x = np.linalg.eigh(lap)
    return (p0 @ x) * np.exp(-t * np.clip(lam, 0.0, None)) @ x.T


# ---------------------------------------------------------------------------
# Problem and config validation
# ---------------------------------------------------------------------------

def test_problem_rejects_bad_model(c4):
    with pytest.raises(ValueError, match="model"):
        DynamicsProblem("wave", c4_generator(c4), SINE,
                        np.full(4, 0.25), 1.0)


def test_problem_rejects_bad_mass(c4):
    with pytest.raises(ValueError, match="sums to"):
        DynamicsProblem("heat", c4_generator(c4), SINE,
                        np.array([0.5, 0.2, 0.2, 0.2]), 1.0)


def test_problem_rejects_negative_entries(c4):
    with pytest.raises(ValueError, match="negative"):
        DynamicsProblem("heat", c4_generator(c4), SINE,
                        np.array([1.2, -0.2, 0.0, 0.0]), 1.0)


def test_problem_rejects_unnormalized_wavefunction(c4):
    with pytest.raises(ValueError, match="norm"):
        DynamicsProblem("schrodinger", c4_generator(c4), SINE,
                        np.array([1.0, 1.0, 0, 0], dtype=complex), 1.0)


def test_problem_rejects_wrong_length(c4):
    with pytest.raises(ValueError, match="shape"):
        DynamicsProblem("heat", c4_generator(c4), SINE, np.ones(3) / 3, 1.0)


def test_problem_rejects_nonpositive_horizon(c4):
    with pytest.raises(ValueError, match="horizon"):
        DynamicsProblem("heat", c4_generator(c4), SINE,
                        np.full(4, 0.25), 0.0)


@pytest.mark.parametrize("model, state", [
    ("heat", [np.nan, 0.5, 0.25, 0.25]),
    ("heat", [np.inf, 0.5, 0.25, 0.25]),
    ("schrodinger", [np.nan, 1.0, 0.0, 0.0]),
    ("schrodinger", [1.0, complex(0.0, np.nan), 0.0, 0.0]),
])
def test_problem_rejects_nonfinite_state(c4, model, state):
    with pytest.raises(ValueError, match="not finite"):
        DynamicsProblem(model, c4_generator(c4), SINE, np.array(state), 1.0)


def test_exact_rejects_nonfinite_sample_times(c4):
    problem = DynamicsProblem("heat", c4_generator(c4), SINE,
                              np.full(4, 0.25), 1.0)
    with pytest.raises(ValueError, match="finite"):
        exact_solution(problem, [0.0, np.nan])


def test_exact_rejects_too_fine_schedule_before_quadrature(c4):
    # About 2e6 sawtooth jumps on [0, 2]: more than the quadrature's panels.
    problem = DynamicsProblem("heat", c4_generator(c4),
                              SawtoothSchedule(0.2, 0.9, 1e-6),
                              np.full(4, 0.25), 2.0)
    with pytest.raises(ScheduleError, match=r"breakpoints on \(0.0, 2.0\)"):
        exact_solution(problem)


def test_exact_passes_on_quadrature_message_without_component(c4, monkeypatch):
    # At least SINE's 7 breakpoints on [0, 1], which the schedule checks
    # against the same budget, and fewer than the run's 16 panels.
    monkeypatch.setattr(fraclap.quadrature, "_MAX_INTERVALS", 8)
    problem = DynamicsProblem("heat", c4_generator(c4), SINE,
                              np.full(4, 0.25), 1.0)
    with pytest.raises(ConvergenceError) as err:
        exact_solution(problem, np.linspace(0.0, 1.0, 10))
    assert "needs" in str(err.value) and "eigenvalue" not in str(err.value)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(method="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=1e-14)
    with pytest.raises(ValueError):
        IntegratorConfig(atol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(samples=1)


@pytest.mark.parametrize("samples", [2.5, 10.0, "5", np.float64(5)])
def test_config_rejects_non_integral_samples(samples):
    with pytest.raises(ValueError, match="integer"):
        IntegratorConfig(samples=samples)


def test_config_accepts_numpy_integer_samples(c4):
    problem = DynamicsProblem("heat", c4_generator(c4), SINE,
                              np.full(4, 0.25), 1.0)
    traj = simulate(problem, IntegratorConfig(samples=np.int64(5)))
    assert traj.states.shape == (5, 4)
    # exact_solution's default grid is the config's default
    assert len(exact_solution(problem).times) == IntegratorConfig().samples


@pytest.mark.parametrize("path", ["matrix", "rk45", "bdf", "exact",
                                  "floquet"])
def test_negative_eigenvalue_is_rejected_on_every_path(c4, path):
    # L - 0.5 I has the eigenvalue -0.5: the generator refuses it when it
    # is built, before any power, integrator or quadrature sees it
    shifted = combinatorial_laplacian(c4) - 0.5 * np.eye(4)
    with pytest.raises(ValueError, match="negative eigenvalue -5.000e-01"):
        gen = SpectralGenerator.from_matrix(shifted)
        if path == "matrix":
            gen.matrix(0.5)
        elif path == "floquet":
            fraclap.floquet_exponents(gen, SINE, 0.5)
        else:
            problem = DynamicsProblem("heat", gen, SINE, np.full(4, 0.25),
                                      1.0)
            simulate(problem, IntegratorConfig(method=path))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_kpath_generator_matrix_values(c4):
    gen = KPathGenerator.from_graph(c4)
    lap = combinatorial_laplacian(c4)
    assert np.array_equal(gen.matrix(30.0).round(8), lap)
    assert gen.matrix(0.0)[0, 2] == -1.0  # complete-graph coupling at alpha=0
    with pytest.raises(ValueError):
        gen.matrix(-1.0)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_general_generator_nrw_ring_matches_symmetric(alpha):
    # On a regular graph L_rw equals L_sym, and the smallest nonzero eigenvalue
    # 1 - cos(2 pi / 30) ~ 0.022 lies close to zero.
    rw, sym = normalized_laplacians(cycle_graph(30))
    power = GeneralGenerator.from_matrix(rw).matrix(alpha)
    expected = fractional_power_sym(sym_eig(sym), alpha)
    assert np.abs(power - expected).max() <= 1e-12
    assert np.abs(power.sum(axis=1)).max() <= 1e-12


# ---------------------------------------------------------------------------
# Right-hand sides in state space
# ---------------------------------------------------------------------------

def state_rhs(problem):
    """(t, p) -> -p @ G(t) through the system the integrators run on."""
    system, _ = _system(problem, "rk45", StepStats())
    return lambda t, state: system.exit(system.rhs(t, system.enter(state)))


def test_rhs_heat_basis_row(c4):
    problem = DynamicsProblem("heat", c4_generator(c4), ConstantSchedule(1.0),
                              np.full(4, 0.25), 1.0)
    rhs = state_rhs(problem)
    derivative = rhs(0.0, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.abs(derivative - [-2.0, 1.0, 0.0, 1.0]).max() <= 1e-12


def test_rhs_uniform_state_is_stationary(c4):
    problem = DynamicsProblem("heat", c4_generator(c4), SINE,
                              np.full(4, 0.25), 1.0)
    rhs = state_rhs(problem)
    for t in (0.0, 0.3, 2.0):
        assert np.abs(rhs(t, np.full(4, 0.25))).max() <= 1e-14


def test_rhs_schrodinger_rotates_real_states(c4):
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    problem = DynamicsProblem("schrodinger", c4_generator(c4), SINE, psi0, 1.0)
    rhs = state_rhs(problem)
    derivative = rhs(0.0, psi0)
    assert np.abs(derivative.real).max() <= 1e-14
    assert np.abs(derivative.imag).max() > 0.1


def test_rhs_dense_path_matches_eigen_path(digraph5):
    l_out, _ = directed_laplacians(digraph5)
    gen = GeneralGenerator.from_matrix(l_out)
    p0 = np.full(5, 0.2)
    problem = DynamicsProblem("heat", gen, ConstantSchedule(0.7), p0, 1.0)
    rhs = state_rhs(problem)
    from fraclap import fractional_power_general

    expected = -p0 @ fractional_power_general(l_out, 0.7)
    assert np.abs(rhs(0.0, p0) - expected).max() <= 1e-12


# ---------------------------------------------------------------------------
# Integration wrappers
# ---------------------------------------------------------------------------

def test_rk45_c4_reaches_uniform(c4):
    problem = DynamicsProblem("heat", c4_generator(c4), ConstantSchedule(1.0),
                              np.array([1.0, 0, 0, 0]), 10.0)
    traj = simulate(problem, IntegratorConfig(rtol=1e-6, atol=1e-9))
    assert traj.times[0] == 0.0 and traj.times[-1] == 10.0
    assert np.abs(traj.states[-1] - 0.25).max() <= 1e-5
    oracle = spectral_oracle_heat(combinatorial_laplacian(c4),
                                  np.array([1.0, 0, 0, 0]), 10.0)
    assert np.abs(traj.states[-1] - oracle).max() <= 1e-5
    assert traj.stats.accepted > 0 and traj.stats.rhs_evals > 0


def test_bdf_matches_rk45_constant_alpha(c4):
    problem = DynamicsProblem("heat", c4_generator(c4), ConstantSchedule(1.0),
                              np.array([1.0, 0, 0, 0]), 10.0)
    a = simulate(problem, IntegratorConfig(method="rk45"))
    b = simulate(problem, IntegratorConfig(method="bdf"))
    assert np.abs(a.states - b.states).max() <= 2e-5
    assert b.stats.linear_solves > 0


def test_bdf_uniform_initial_state_is_constant(karate):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(karate))
    problem = DynamicsProblem("heat", gen, SINE, np.full(34, 1 / 34), 10.0)
    traj = simulate(problem, IntegratorConfig(method="bdf"))
    assert np.abs(traj.states - 1 / 34).max() <= 1e-9


@pytest.mark.parametrize("schedule", [
    ConstantSchedule(0.5),
    SINE,
    ExpSaturatingSchedule(10.0),
    SawtoothSchedule(0.05, 0.75, 1.0),
    TriangularSchedule(0.05, 0.75, 1.0),
    SplineSchedule(tuple(float(k) for k in range(11)),
                   tuple(0.5 + 0.4 * np.sin(np.pi * k / 2) for k in range(11))),
], ids=["const", "sine", "expsat", "saw", "tri", "spline"])
@pytest.mark.parametrize("method", ["rk45", "bdf"])
def test_mass_conservation_all_schedules(karate, schedule, method):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(karate))
    p0 = random_initial_state("heat", 34, seed=5)
    problem = DynamicsProblem("heat", gen, schedule, p0, 10.0)
    config = IntegratorConfig(method=method, rtol=1e-6, atol=1e-9, samples=100)
    traj = simulate(problem, config)
    assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 10 * config.rtol
    assert traj.states.min() >= -10 * config.rtol  # positivity


def test_clamp_counter_reaches_trajectory_stats(karate):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(karate))
    p0 = random_initial_state("heat", 34, seed=5)
    problem = DynamicsProblem("heat", gen, ExpSaturatingSchedule(10.0), p0, 2.0)
    traj = simulate(problem, IntegratorConfig())
    assert traj.stats.clamp_count >= 1  # alpha(0) = 0 clamps at the origin


def test_schrodinger_norm_conservation(karate):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(karate))
    psi0 = random_initial_state("schrodinger", 34, seed=9)
    problem = DynamicsProblem("schrodinger", gen, SINE, psi0, 5.0)
    config = IntegratorConfig(method="rk45", rtol=1e-6, atol=1e-9)
    traj = simulate(problem, config)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.abs(norms - 1.0).max() <= 100 * config.rtol


def test_kpath_generator_dynamics_conserve_mass(c4):
    gen = KPathGenerator.from_graph(c4)
    p0 = np.array([1.0, 0, 0, 0])
    problem = DynamicsProblem("heat", gen, SINE, p0, 4.0)
    a = simulate(problem, IntegratorConfig(rtol=1e-8, atol=1e-11))
    b = simulate(problem, IntegratorConfig(method="bdf", rtol=1e-8,
                                           atol=1e-11))
    assert np.abs(a.states.sum(axis=1) - 1.0).max() <= 1e-7
    assert np.abs(a.states - b.states).max() <= 1e-5


def test_bdf_reuses_factorizations_for_constant_exponent(c4):
    # With a constant schedule the shifted matrix only changes when the step
    # or order does, so factorizations stay well below the solve count.
    from fraclap.dynamics import _EigenSystem
    from fraclap.integrators import StepStats, bdf_integrate
    from fraclap.schedules import ClampCountingSchedule

    gen = c4_generator(c4)
    stats = StepStats()
    system = _EigenSystem(gen, ClampCountingSchedule(ConstantSchedule(0.8)),
                          1.0, stats)
    q0 = system.enter(np.array([1.0, 0, 0, 0]))
    bdf_integrate(system.rhs, system.make_solver, 10.0, q0,
                  np.array([10.0]), rtol=1e-8, atol=1e-11, stats=stats)
    assert stats.factorizations < stats.linear_solves / 2


def test_stiffness_error_carries_trajectory():
    # One mode with an enormous rate forces the explicit step below the floor.
    decomp = EigenFactorization(eigenvalues=np.array([0.0, 1e16]),
                                vectors=np.eye(2), inverse=np.eye(2))
    problem = DynamicsProblem("heat", SpectralGenerator(decomp),
                              ConstantSchedule(1.0), np.array([0.5, 0.5]), 1.0)
    with pytest.raises(StiffnessError) as err:
        simulate(problem, IntegratorConfig())
    partial = err.value.partial
    assert partial.states.shape[1] == 2
    # the implicit integrator shrugs at the same problem; the stiff mode
    # (a synthetic non-Laplacian generator) decays to zero
    traj = simulate(problem, IntegratorConfig(method="bdf"))
    assert np.abs(traj.states[-1] - [0.5, 0.0]).max() <= 1e-6


# ---------------------------------------------------------------------------
# Exact solution
# ---------------------------------------------------------------------------

def test_exact_unit_eigenvalue_row():
    decomp = EigenFactorization(eigenvalues=np.array([0.0, 1.0]),
                                vectors=np.eye(2), inverse=np.eye(2))
    problem = DynamicsProblem("heat", SpectralGenerator(decomp), SINE,
                              np.array([0.3, 0.7]), 4.0)
    traj = exact_solution(problem, np.array([0.0, 1.0, 2.5, 4.0]))
    # 1^alpha(tau) integrates to t regardless of the schedule
    expected = 0.7 * np.exp(-np.array([0.0, 1.0, 2.5, 4.0]))
    assert np.abs(traj.states[:, 1] - expected).max() <= 1e-10
    assert np.abs(traj.states[:, 0] - 0.3).max() <= 1e-12


def test_exact_constant_alpha_matches_expm(c4):
    gen = c4_generator(c4)
    p0 = np.array([0.7, 0.1, 0.1, 0.1])
    problem = DynamicsProblem("heat", gen, ConstantSchedule(0.5), p0, 3.0)
    traj = exact_solution(problem, np.array([0.0, 1.0, 3.0]))
    power = gen.matrix(0.5)
    for row, t in zip(traj.states, [0.0, 1.0, 3.0]):
        assert np.abs(row - p0 @ scipy.linalg.expm(-t * power)).max() <= 1e-9


def test_exact_cross_validates_rk45_sine(c4):
    gen = c4_generator(c4)
    p0 = np.array([1.0, 0, 0, 0])
    problem = DynamicsProblem("heat", gen, SINE, p0, 2.0)
    times = np.linspace(0.0, 2.0, 9)
    reference = exact_solution(problem, times)
    traj = simulate(problem, IntegratorConfig(rtol=1e-9, atol=1e-12,
                                              samples=9))
    assert np.abs(traj.states - reference.states).max() <= 1e-6


def test_schrodinger_rk45_matches_unitary_flow(c4):
    gen = c4_generator(c4)
    psi0 = np.zeros(4, dtype=complex)
    psi0[0] = 1.0
    problem = DynamicsProblem("schrodinger", gen, SINE, psi0, 5.0)
    times = np.linspace(0.0, 5.0, 26)
    reference = exact_solution(problem, times)  # exactly unitary per mode
    traj = simulate(problem, IntegratorConfig(rtol=1e-9, atol=1e-12,
                                              samples=26))
    assert np.abs(traj.states - reference.states).max() <= 1e-6


def test_exact_rejects_general_generator():
    # A well-conditioned digraph takes the eigenvalue route, which has a
    # closed form; the nearly defective weak ring stays on the Schur route.
    l_out, _ = directed_laplacians(weak_ring(8))
    problem = DynamicsProblem("heat", GeneralGenerator.from_matrix(l_out),
                              SINE, np.full(8, 0.125), 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        exact_solution(problem)


@pytest.mark.parametrize("schedule", [ConstantSchedule(0.5),
                                      ExpSaturatingSchedule(2.0)],
                         ids=["const", "expsat"])
@pytest.mark.parametrize("method", ["rk45", "bdf"])
@pytest.mark.parametrize("model", ["heat", "schrodinger"])
def test_power_with_imaginary_residue_fails_the_run(model, method, schedule):
    # A spectrum not closed under conjugation, (0, 1+1j) with V = W = I,
    # has powers whose imaginary part exceeds the rounding bound at every
    # exponent; no step may drop it.
    eye = np.eye(2, dtype=complex)
    fac = EigenFactorization(eigenvalues=np.array([0.0, 1.0 + 1.0j]),
                             vectors=eye, inverse=eye)
    problem = DynamicsProblem(model, GeneralGenerator(fac, 1.0), schedule,
                              random_initial_state(model, 2, seed=2), 1.0)
    with pytest.raises(NumericError,
                       match=r"fractional power at alpha=\S+ has an imaginary"):
        simulate(problem, IntegratorConfig(method=method))


def _digraph30():
    """A directed 30-ring with 30 random chords of weight 0.5-2 (kappa ~ 40)."""
    rng = np.random.default_rng(3)
    chords = {}
    while len(chords) < 30:
        u, v = (int(x) for x in rng.integers(0, 30, size=2))
        if u != v and v != (u + 1) % 30:
            chords[(u, v)] = float(rng.uniform(0.5, 2.0))
    return directed_ring_with_chords(
        30, [(u, v, w) for (u, v), w in chords.items()])


def _eigen_route_laplacians():
    return {"digraph": directed_laplacians(_digraph30())[0],
            "karate_nrw": normalized_laplacians(load_graph(DATA / "karate.mtx"))[0]}


@pytest.mark.parametrize("name", ["digraph", "karate_nrw"])
@pytest.mark.parametrize("model", ["heat", "schrodinger"])
def test_exact_eigen_route_matches_bdf(name, model):
    lap = _eigen_route_laplacians()[name]
    gen = GeneralGenerator.from_matrix(lap)
    assert gen.route == "eigen"
    p0 = random_initial_state(model, lap.shape[0], seed=5)
    problem = DynamicsProblem(model, gen, SINE, p0, 1.0)
    exact = exact_solution(problem, np.linspace(0.0, 1.0, 50))
    bdf = simulate(problem, IntegratorConfig(method="bdf", rtol=1e-10,
                                             atol=1e-13, samples=50))
    assert np.abs(exact.states - bdf.states).max() \
        <= 1e-8 * np.abs(bdf.states).max()
    if model == "heat":
        assert not np.iscomplexobj(exact.states)
        assert np.abs(exact.states.sum(axis=1) - 1.0).max() <= 1e-12
        assert exact.states.min() >= -1e-12


@pytest.mark.parametrize("alpha", [1e-6, 0.3, 1.0])
@pytest.mark.parametrize("model", ["heat", "schrodinger"])
def test_eigen_system_on_complex_eigenvalues_matches_the_power(model, alpha):
    # The eigen-coordinate engine on an eigen-route digraph: entering the
    # basis, taking the decoupled right-hand side and leaving it again is
    # the state-space right-hand side -factor p L^alpha.
    from fraclap.dynamics import _EigenSystem
    from fraclap.schedules import ClampCountingSchedule

    gen = GeneralGenerator.from_matrix(directed_laplacians(_digraph30())[0])
    assert gen.route == "eigen"
    assert np.iscomplexobj(gen.clamped_eigenvalues())
    factor = 1.0 if model == "heat" else 1j
    system = _EigenSystem(gen, ClampCountingSchedule(ConstantSchedule(alpha)),
                          factor, StepStats())
    p = random_initial_state(model, gen.n, seed=6)
    got = system.exit(system.rhs(0.0, system.enter(p)))
    want = -factor * (p @ gen.matrix(alpha))
    assert np.abs(got - want).max() \
        <= 1e-12 * gen.eigvec_condition * np.abs(want).max()


def test_exact_names_the_complex_eigenvalue_its_quadrature_failed_on(
        monkeypatch):
    # One panel on [0, 5] and no budget left to bisect it.
    monkeypatch.setattr(fraclap.quadrature, "_MAX_INTERVALS", 2)
    gen = GeneralGenerator.from_matrix(directed_laplacians(_digraph30())[0])
    lam = gen.clamped_eigenvalues()
    assert np.iscomplexobj(lam)
    problem = DynamicsProblem("heat", gen, ExpSaturatingSchedule(10.0),
                              random_initial_state("heat", gen.n, seed=1), 5.0)
    with pytest.raises(ConvergenceError, match="for eigenvalue") as err:
        exact_solution(problem, [0.0, 5.0])
    assert any(f"eigenvalue {v!r} on interval" in str(err.value) for v in lam)


def test_exact_eigen_route_constant_alpha_matches_expm():
    lap = _eigen_route_laplacians()["digraph"]
    gen = GeneralGenerator.from_matrix(lap)
    p0 = random_initial_state("heat", 30, seed=8)
    problem = DynamicsProblem("heat", gen, ConstantSchedule(0.5), p0, 2.0)
    traj = exact_solution(problem, np.array([0.0, 0.5, 2.0]))
    power = gen.matrix(0.5)
    for row, t in zip(traj.states, [0.0, 0.5, 2.0]):
        assert np.abs(row - p0 @ scipy.linalg.expm(-t * power)).max() <= 1e-12


def test_schrodinger_exact_matches_rk45_karate(karate):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(karate))
    psi0 = random_initial_state("schrodinger", 34, seed=6)
    problem = DynamicsProblem("schrodinger", gen, SINE, psi0, 1.0)
    exact = exact_solution(problem, np.linspace(0.0, 1.0, 21))
    traj = simulate(problem, IntegratorConfig(rtol=1e-10, atol=1e-13,
                                              samples=21))
    assert np.abs(exact.states - traj.states).max() <= 1e-8
    # The two real products give the complex product's result.
    lam, basis = gen.clamped_eigenvalues(), gen.factorization.vectors
    from fraclap.dynamics import _exponent_integrals

    phase = np.exp(-1j * _exponent_integrals(lam, SINE, exact.times))
    direct = ((psi0 @ basis) * phase) @ basis.astype(complex).T
    assert np.abs(exact.states - direct).max() <= 1e-14


def test_defective_matrix_takes_schur_route():
    # A 30x30 Jordan block: the eigenvectors read off T are exactly
    # dependent, so V has no inverse and only the triangular factor applies.
    m = np.eye(30) + np.diag(np.ones(29), 1)
    gen = GeneralGenerator.from_matrix(m)
    assert gen.route == "schur" and gen.eigvec_condition == np.inf
    reference = scipy.linalg.fractional_matrix_power(m, 0.5)
    assert np.abs(gen.matrix(0.5) - reference).max() <= 1e-12


def test_generator_routes_and_condition(caplog):
    with caplog.at_level(logging.DEBUG, logger="fraclap"):
        eigen = GeneralGenerator.from_matrix(directed_laplacians(_digraph30())[0])
        weak = directed_laplacians(weak_ring(8))[0]
        schur = GeneralGenerator.from_matrix(weak)
        symmetric = SpectralGenerator.from_matrix(
            combinatorial_laplacian(cycle_graph(5)))
    assert eigen.route == "eigen" and 1.0 <= eigen.eigvec_condition <= 1e3
    assert schur.route == "schur" and schur.eigvec_condition > 1e8
    assert (symmetric.route, symmetric.eigvec_condition) == ("symmetric", None)
    built = [r.getMessage() for r in caplog.records
             if r.levelno == logging.DEBUG]
    assert len(built) == 3
    assert "route=eigen" in built[0] and "route=schur" in built[1]
    for alpha in (0.3, 0.5, 0.9):
        power = schur.matrix(alpha)
        assert np.abs(power.sum(axis=1)).max() <= 1e-12
        assert np.abs(power - fractional_power_general(weak, alpha)).max() == 0


@pytest.mark.parametrize("name, alpha, route", [
    ("digraph", 0.5, "eigen"), ("karate_nrw", 0.5, "eigen"),
    ("weak_ring30", 0.05, "schur")])
def test_library_power_takes_the_generator_route(name, alpha, route):
    lap = (directed_laplacians(weak_ring(30))[0] if name == "weak_ring30"
           else _eigen_route_laplacians()[name])
    gen = GeneralGenerator.from_matrix(lap)
    assert gen.route == route
    assert np.array_equal(fractional_power_general(lap, alpha),
                          gen.matrix(alpha))


def test_convergence_to_uniformity(c4, karate):
    # Horizon 20 / lambda_2^{alpha_min} pushes the deviation below 1e-6.
    for g in (c4, karate):
        lap = combinatorial_laplacian(g)
        gen = SpectralGenerator.from_matrix(lap)
        lam2 = np.linalg.eigvalsh(lap)[1]
        for schedule, alpha_min in ((SINE, 0.1),
                                    (TriangularSchedule(0.05, 0.75, 1.0), 0.05)):
            horizon = 20.0 / lam2 ** alpha_min
            p0 = random_initial_state("heat", g.n, seed=3)
            problem = DynamicsProblem("heat", gen, schedule, p0, horizon)
            traj = exact_solution(problem, np.array([0.0, horizon]))
            assert np.abs(traj.states[-1] - 1.0 / g.n).max() <= 1e-6


@pytest.mark.parametrize("schedule", [
    ConstantSchedule(0.5),
    SINE,
    ExpSaturatingSchedule(10.0),
    SawtoothSchedule(0.05, 0.75, 1.0),
    TriangularSchedule(0.05, 0.75, 1.0),
    SplineSchedule((0.0, 1.0, 2.0, 3.0, 4.0, 5.0),
                   (0.5, 0.9, 0.5, 0.1, 0.5, 0.9)),
], ids=["const", "sine", "expsat", "saw", "tri", "spline"])
def test_three_route_agreement_every_family(schedule):
    g = ring_with_chords(12, 6, seed=8)
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(g))
    p0 = random_initial_state("heat", 12, seed=31)
    problem = DynamicsProblem("heat", gen, schedule, p0, 5.0)
    times = np.linspace(0.0, 5.0, 20)
    routes = [
        simulate(problem, IntegratorConfig(
            method="rk45", rtol=1e-9, atol=1e-12, samples=20)).states,
        simulate(problem, IntegratorConfig(
            method="bdf", rtol=1e-9, atol=1e-12, samples=20)).states,
        exact_solution(problem, times).states,
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.abs(routes[i] - routes[j]).max() <= 1e-6


def test_directed_heat_conserves_mass(digraph10):
    l_out, _ = directed_laplacians(digraph10)
    gen = GeneralGenerator.from_matrix(l_out)
    p0 = random_initial_state("heat", 10, seed=1)
    problem = DynamicsProblem("heat", gen, SINE, p0, 5.0)
    for config in (IntegratorConfig(method="rk45", samples=50),
                   IntegratorConfig(method="bdf", samples=50)):
        traj = simulate(problem, config)
        assert np.abs(traj.states.sum(axis=1) - 1.0).max() <= 1e-5


def test_schedules_shape_transient_but_not_limit(karate):
    # Different exponent schedules produce visibly different transients while
    # sharing the uniform limit; this contrast is the method's whole point.
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(karate))
    p0 = random_initial_state("heat", 34, seed=2)
    finals, transients = [], []
    for schedule in (ConstantSchedule(0.1), ConstantSchedule(1.0), SINE,
                     ExpSaturatingSchedule(10.0)):
        problem = DynamicsProblem("heat", gen, schedule, p0, 40.0)
        traj = exact_solution(problem, np.array([0.0, 1.0, 40.0]))
        transients.append(traj.states[1])
        finals.append(traj.states[2])
    for state in finals:
        assert np.abs(state - 1 / 34).max() <= 1e-6
    gaps = [np.abs(a - b).max() for i, a in enumerate(transients)
            for b in transients[i + 1:]]
    assert min(gaps) > 1e-4


def test_sandwich_envelope_logged_not_asserted(c4, capsys):
    """Sawtooth trajectories are expected to stay inside the constant-alpha
    envelope; excursions are reported, not failed, because the bracketing is
    an empirical observation rather than a theorem."""
    gen = c4_generator(c4)
    p0 = np.array([1.0, 0, 0, 0])
    rtol = 1e-8
    config = IntegratorConfig(rtol=rtol, atol=1e-11, samples=120)
    saw = DynamicsProblem("heat", gen, SawtoothSchedule(0.05, 0.75, 1.0),
                          p0, 6.0)
    lo = DynamicsProblem("heat", gen, ConstantSchedule(0.05), p0, 6.0)
    hi = DynamicsProblem("heat", gen, ConstantSchedule(0.75), p0, 6.0)
    mid = simulate(saw, config).states
    lo_states = simulate(lo, config).states
    hi_states = simulate(hi, config).states
    upper = np.maximum(lo_states, hi_states) + 10 * rtol
    lower = np.minimum(lo_states, hi_states) - 10 * rtol
    excess = np.maximum(mid - upper, lower - mid).max()
    if excess > 0:
        print(f"sandwich envelope exceeded by {excess:.3e}")
    assert np.isfinite(excess)


# ---------------------------------------------------------------------------
# Random initial states
# ---------------------------------------------------------------------------

def test_random_initial_states_are_valid_and_reproducible():
    p = random_initial_state("heat", 20, seed=4)
    assert abs(p.sum() - 1.0) <= 1e-12 and p.min() >= 0.0
    assert np.array_equal(p, random_initial_state("heat", 20, seed=4))
    psi = random_initial_state("schrodinger", 20, seed=4)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12
    assert not np.array_equal(psi, random_initial_state("schrodinger", 20, 5))


# ---------------------------------------------------------------------------
# Import footprint
# ---------------------------------------------------------------------------

_SYMMETRIC_RUN = """\
import sys
import fraclap
from fraclap import dynamics, schedules, stability, trajio

graph = fraclap.load_graph(sys.argv[1])
generator = dynamics.SpectralGenerator.from_matrix(
    fraclap.combinatorial_laplacian(graph))
sine = schedules.parse_schedule("sin:0.5,0.4,12.566370614359172")
heat = dynamics.random_initial_state("heat", graph.n, 1)
for method in ("bdf", "rk45", "exact"):
    dynamics.simulate(dynamics.DynamicsProblem("heat", generator, sine, heat, 1.0),
                      dynamics.IntegratorConfig(method=method))
wave = dynamics.DynamicsProblem(
    "schrodinger", generator, sine,
    dynamics.random_initial_state("schrodinger", graph.n, 1), 1.0)
dynamics.simulate(wave, dynamics.IntegratorConfig(method="rk45"))
stability.floquet_exponents(generator, sine, 0.5)
samples = trajio._PARALLEL_MIN_ENTRIES // (graph.n + 1) + 1
long = dynamics.simulate(
    dynamics.DynamicsProblem("heat", generator, sine, heat, 1.0),
    dynamics.IntegratorConfig(method="exact", samples=samples))
trajio.write_trajectory(long, "heat", sys.argv[2])
assert trajio._usable_cpus() < 2 or trajio._idle_helper is not None
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_symmetric_route_runs_without_scipy(tmp_path):
    src = str(Path(fraclap.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _SYMMETRIC_RUN, str(DATA / "karate.mtx"),
         str(tmp_path / "heat.csv")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
