import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from conftest import directed_ring_with_chords
from fraclap import (
    ConstantSchedule,
    DynamicsProblem,
    ExpSaturatingSchedule,
    GeneralGenerator,
    Graph,
    KPathGenerator,
    SineSchedule,
    SpectralGenerator,
    SplineSchedule,
    antiderivative_commutator_residual,
    combinatorial_laplacian,
    decay_envelope,
    directed_laplacians,
    exact_solution,
    floquet_exponents,
    fractional_power_general,
    random_initial_state,
    steady_state,
    sym_eig,
)

SINE = SineSchedule(0.5, 0.4, 4 * np.pi)


# ---------------------------------------------------------------------------
# steady_state
# ---------------------------------------------------------------------------

def test_steady_state_uniform(c4, karate):
    assert np.array_equal(steady_state(c4), np.full(4, 0.25))
    assert np.array_equal(steady_state(karate), np.full(34, 1 / 34))


def test_steady_state_rejects_disconnected():
    g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(ValueError, match="largest component"):
        steady_state(g)


def test_steady_state_directed_left_null_vector(digraph10):
    pi = steady_state(digraph10)
    assert abs(pi.sum() - 1.0) <= 1e-12
    l_out, _ = directed_laplacians(digraph10)
    assert np.abs(pi @ l_out).max() <= 1e-10
    for alpha in (0.4, 0.7):
        assert np.abs(pi @ fractional_power_general(l_out, alpha)).max() <= 1e-8
    assert pi.min() > 0  # strongly connected: strictly positive


def test_steady_state_directed_requires_strong_connectivity():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)), directed=True)
    with pytest.raises(ValueError, match="strongly connected"):
        steady_state(g)


# ---------------------------------------------------------------------------
# Commutator residual
# ---------------------------------------------------------------------------

def test_commutator_residual_c4_sine(c4):
    d = sym_eig(combinatorial_laplacian(c4))
    assert antiderivative_commutator_residual(d, SINE, 1.0) <= 1e-9


def test_commutator_residual_constant_schedule(c4):
    d = sym_eig(combinatorial_laplacian(c4))
    for t in (0.5, 2.0, 7.0):
        assert antiderivative_commutator_residual(
            d, ConstantSchedule(0.6), t) <= 1e-12


def test_commutator_residual_karate_spline(karate):
    d = sym_eig(combinatorial_laplacian(karate))
    spline = SplineSchedule(
        tuple(float(k) for k in range(11)),
        tuple(0.5 + 0.4 * np.sin(np.pi * k / 2) for k in range(11)))
    assert antiderivative_commutator_residual(d, spline, 3.0) <= 1e-8


# ---------------------------------------------------------------------------
# Floquet exponents
# ---------------------------------------------------------------------------

def test_floquet_c4_sine_against_scalar_quadrature(c4):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(c4))
    exponents = floquet_exponents(gen, SINE, 0.5)
    assert np.abs(np.asarray(exponents).imag).max() == 0.0
    assert abs(exponents[0]) <= 1e-12  # conserved direction
    assert exponents[1].real < 0
    lam = gen.clamped_eigenvalues()
    reference = sorted(
        (-quad(lambda tau: l ** SINE(tau), 0.0, 0.5, epsabs=1e-13)[0] / 0.5
         if l > 0 else 0.0 for l in lam), reverse=True)
    assert np.abs(np.asarray(exponents).real - reference).max() <= 1e-8


def test_floquet_constant_schedule_gives_powers(c4):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(c4))
    exponents = floquet_exponents(gen, ConstantSchedule(0.5), 1.0)
    expected = sorted(-gen.clamped_eigenvalues() ** 0.5, reverse=True)
    assert np.abs(np.asarray(exponents).real - expected).max() <= 1e-10


def test_floquet_multiplier_consistency(karate):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(karate))
    period = 0.5
    exponents = np.asarray(floquet_exponents(gen, SINE, period))
    multipliers = np.exp(period * exponents)
    assert abs(multipliers[0] - 1.0) <= 1e-8
    assert np.abs(multipliers[1:]).max() < 1.0


def test_floquet_rejects_aperiodic_schedule(c4):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(c4))
    with pytest.raises(ValueError, match="periodic"):
        floquet_exponents(gen, ExpSaturatingSchedule(10.0), 0.5)
    for period in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="period"):
            floquet_exponents(gen, SINE, period)


def test_floquet_rejects_raw_matrices_and_other_generators(c4):
    lap = combinatorial_laplacian(c4)
    for source in (lap, sym_eig(lap), KPathGenerator.from_graph(c4)):
        with pytest.raises(ValueError, match="SpectralGenerator or a "
                                             "GeneralGenerator"):
            floquet_exponents(source, SINE, 0.5)


def test_floquet_directed_monodromy():
    g = directed_ring_with_chords(4, [(0, 2, 0.5)])
    l_out, _ = directed_laplacians(g)
    gen = GeneralGenerator.from_matrix(l_out)
    exponents = np.asarray(floquet_exponents(gen, SINE, 0.5))
    # conservation direction: one exponent at zero, the rest decaying
    assert abs(exponents[0].real) <= 1e-8
    assert exponents[1:].real.max() < -1e-3


def test_floquet_imaginary_parts_on_the_principal_branch():
    # A heavy directed 3-cycle: lambda = 10 (1 - e^{2 pi i k / 3}) has
    # |Im lambda| T = 4.33 > pi, so the exponents must wrap like log does.
    g = Graph(3, ((0, 1, 10.0), (1, 2, 10.0), (2, 0, 10.0)), directed=True)
    l_out, _ = directed_laplacians(g)
    period = 0.5
    exponents = floquet_exponents(GeneralGenerator.from_matrix(l_out),
                                  ConstantSchedule(1.0), period)
    monodromy = scipy.linalg.expm(-period * l_out)
    reference = np.log(np.linalg.eigvals(monodromy).astype(complex)) / period
    assert np.all(np.abs(exponents.imag) <= np.pi / period)
    assert np.abs(np.sort_complex(exponents) - np.sort_complex(reference)).max() \
        <= 1e-12


# ---------------------------------------------------------------------------
# Decay envelopes
# ---------------------------------------------------------------------------

def _c4_trajectory(c4, schedule, horizon=10.0, seed=12):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(c4))
    p0 = random_initial_state("heat", 4, seed=seed)
    problem = DynamicsProblem("heat", gen, schedule, p0, horizon)
    return exact_solution(problem, np.linspace(0.0, horizon, 200))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_decay_rate_matches_spectral_gap(c4, alpha):
    traj = _c4_trajectory(c4, ConstantSchedule(alpha))
    envelope = decay_envelope(traj, np.full(4, 0.25))
    expected = 2.0 ** alpha
    assert abs(envelope.rate - expected) <= 0.1 * expected
    assert envelope.amplitude > 0 and envelope.residual < 0.1


def test_decay_envelope_bounds_samples(c4):
    traj = _c4_trajectory(c4, ConstantSchedule(1.0))
    envelope = decay_envelope(traj, np.full(4, 0.25))
    deviations = np.linalg.norm(traj.states - 0.25, axis=1)
    cutoff = 0.25 * traj.times[-1]
    window = traj.times >= cutoff
    bound = envelope.amplitude * np.exp(-envelope.rate * traj.times[window])
    assert np.all(deviations[window] <= bound * (1 + 1e-9))


def test_decay_karate_sine_lower_bound(karate):
    lap = combinatorial_laplacian(karate)
    gen = SpectralGenerator.from_matrix(lap)
    lam2 = np.linalg.eigvalsh(lap)[1]
    p0 = random_initial_state("heat", 34, seed=21)
    horizon = 10.0
    problem = DynamicsProblem("heat", gen, SINE, p0, horizon)
    traj = exact_solution(problem, np.linspace(0.0, horizon, 120))
    dev = np.linalg.norm(traj.states - 1 / 34, axis=1)
    floor = min(lam2 ** SINE(t) for t in np.linspace(0, horizon, 1001))
    assert dev[-1] <= dev[0] * np.exp(-0.9 * floor * horizon)


def test_decay_envelope_needs_enough_samples(c4):
    traj = _c4_trajectory(c4, ConstantSchedule(1.0))
    short = type(traj)(times=traj.times[:8], states=traj.states[:8],
                       stats=traj.stats)
    with pytest.raises(ValueError, match="too short"):
        decay_envelope(short, np.full(4, 0.25))


def test_decay_envelope_rejects_complex_states(c4):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(c4))
    psi0 = random_initial_state("schrodinger", 4, seed=2)
    problem = DynamicsProblem("schrodinger", gen, SINE, psi0, 5.0)
    traj = exact_solution(problem, np.linspace(0.0, 5.0, 60))
    with pytest.raises(ValueError, match="heat"):
        decay_envelope(traj, np.full(4, 0.25))
