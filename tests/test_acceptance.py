"""Acceptance suite: every criterion checked at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one line per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import DATA, cycle_graph, hub_ring_graph, ring_with_chords
from fraclap import (
    ConstantSchedule,
    DynamicsProblem,
    ExpSaturatingSchedule,
    GeneralGenerator,
    IntegratorConfig,
    SawtoothSchedule,
    SineSchedule,
    SpectralGenerator,
    SplineSchedule,
    combinatorial_laplacian,
    directed_laplacians,
    exact_solution,
    floquet_exponents,
    fractional_power_general,
    fractional_power_sym,
    random_initial_state,
    simulate,
    antiderivative_commutator_residual,
    decay_envelope,
    sym_eig,
)
from fraclap.cli import main as cli_main

KARATE = str(DATA / "karate.mtx")
SINE = SineSchedule(0.5, 0.4, 4 * np.pi)
SPLINE_0_10 = SplineSchedule(
    tuple(float(k) for k in range(11)),
    tuple(0.5 + 0.4 * np.sin(np.pi * k / 2) for k in range(11)))

FIVE_FAMILIES = {
    "const": ConstantSchedule(0.5),
    "sine": SINE,
    "expsat": ExpSaturatingSchedule(10.0),
    "sawtooth": SawtoothSchedule(0.05, 0.75, 1.0),
    "spline": SPLINE_0_10,
}


@contextmanager
def criterion(number, label, budget=None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {number:2d}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] criterion {number:2d}: {label} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds {budget}s"


def c4_closed_form_power(alpha):
    diag = 2.0 ** (alpha - 2) * (2.0 ** alpha + 2)
    neighbor = -4.0 ** (alpha - 1)
    opposite = 2.0 ** (alpha - 2) * (2.0 ** alpha - 2)
    row = [diag, neighbor, opposite, neighbor]
    return np.array([np.roll(row, k) for k in range(4)])


def c4_closed_form_kpath(alpha):
    row = [2.0 ** -alpha + 2, -1.0, -(2.0 ** -alpha), -1.0]
    return np.array([np.roll(row, k) for k in range(4)])


def read_matrix(path):
    return np.array([[float(v) for v in ln.split(",")]
                     for ln in open(path).read().strip().split("\n")])


@pytest.fixture(scope="module")
def c4_edges(tmp_path_factory):
    path = tmp_path_factory.mktemp("accept") / "c4.edges"
    path.write_text("1 2\n2 3\n3 4\n4 1\n")
    return str(path)


@pytest.fixture(scope="module")
def karate_runs():
    """Criteria 4 and 5 share these ten integrations."""
    import fraclap

    g = fraclap.load_graph(KARATE)
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(g))
    # Seeded start with an ordinary Fiedler-mode loading: the slowest family
    # (expsat, effectively alpha=1) then clears the steady-state bound with
    # a ~4x margin at this horizon.
    p0 = random_initial_state("heat", 34, seed=9)
    runs = {}
    elapsed = time.perf_counter()
    for name, schedule in FIVE_FAMILIES.items():
        problem = DynamicsProblem("heat", gen, schedule, p0, 10.0)
        for method in ("rk45", "bdf"):
            config = IntegratorConfig(method=method, rtol=1e-6, atol=1e-9)
            runs[(name, method)] = simulate(problem, config)
    return runs, time.perf_counter() - elapsed


def test_criterion_01_c4_fractional_power_closed_form(c4_edges, tmp_path):
    with criterion(1, "C4 fractional power matches the closed form", budget=1.0):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            out = str(tmp_path / f"p{alpha}.csv")
            rc = cli_main(["power", "--graph", c4_edges,
                           "--alpha", repr(alpha), "--out", out])
            assert rc == 0
            assert np.abs(read_matrix(out)
                          - c4_closed_form_power(alpha)).max() <= 1e-12


def test_criterion_02_c4_kpath_closed_form(c4_edges, tmp_path):
    with criterion(2, "C4 k-path operator matches the closed form", budget=1.0):
        for alpha in (0.0, 1.0, 5.0):
            out = str(tmp_path / f"k{alpha}.csv")
            rc = cli_main(["kpath", "--graph", c4_edges,
                           "--kpath-alpha", repr(alpha), "--out", out])
            assert rc == 0
            matrix = read_matrix(out)
            assert np.abs(matrix - c4_closed_form_kpath(alpha)).max() <= 1e-12
            mid = 2.0 ** (1 - alpha) * (2.0 ** alpha + 1)
            expected = np.sort([0.0, 4.0, mid, mid])
            assert np.abs(np.linalg.eigvalsh(matrix) - expected).max() <= 1e-10
        out = str(tmp_path / "k30.csv")
        assert cli_main(["kpath", "--graph", c4_edges, "--kpath-alpha", "30",
                         "--out", out]) == 0
        lap = combinatorial_laplacian(cycle_graph(4))
        assert np.abs(read_matrix(out) - lap).max() <= 1e-8


def test_criterion_03_spectral_curves():
    with criterion(3, "C4 power spectrum follows {0, 2^a, 2^a, 4^a}"):
        decomp = sym_eig(combinatorial_laplacian(cycle_graph(4)))
        for alpha in np.linspace(0.0, 1.0, 102)[1:]:
            eig = np.linalg.eigvalsh(fractional_power_sym(decomp, alpha))
            expected = np.sort([0.0, 2.0 ** alpha, 2.0 ** alpha, 4.0 ** alpha])
            assert np.abs(eig - expected).max() <= 1e-10


def test_criterion_04_mass_conservation(karate_runs):
    runs, elapsed = karate_runs
    with criterion(4, "mass conserved for all five families x two integrators"):
        assert len(runs) == 10
        for (name, method), traj in runs.items():
            drift = np.abs(traj.states.sum(axis=1) - 1.0).max()
            assert drift <= 1e-5, f"{name}/{method}: mass drift {drift:.2e}"
        assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"


def test_criterion_05_steady_state(karate_runs):
    runs, _ = karate_runs
    with criterion(5, "all Karate runs land on the uniform state"):
        for (name, method), traj in runs.items():
            gap = np.abs(traj.states[-1] - 1.0 / 34).max()
            assert gap <= 1e-4, f"{name}/{method}: final gap {gap:.2e}"


def test_criterion_06_oracle_equivalence():
    with criterion(6, "rk45, bdf, and exact agree pairwise to 1e-6",
                   budget=30.0):
        graphs = [cycle_graph(4), ring_with_chords(20, 14, seed=6)]
        schedules = [SINE, ExpSaturatingSchedule(10.0)]
        horizon = 5.0
        times = np.linspace(0.0, horizon, 20)
        for g in graphs:
            gen = SpectralGenerator.from_matrix(combinatorial_laplacian(g))
            p0 = random_initial_state("heat", g.n, seed=13)
            for schedule in schedules:
                problem = DynamicsProblem("heat", gen, schedule, p0, horizon)
                results = [
                    simulate(problem, IntegratorConfig(
                        method="rk45", rtol=1e-9, atol=1e-9, samples=20)).states,
                    simulate(problem, IntegratorConfig(
                        method="bdf", rtol=1e-9, atol=1e-9, samples=20)).states,
                    exact_solution(problem, times).states,
                ]
                for i in range(3):
                    for j in range(i + 1, 3):
                        gap = np.abs(results[i] - results[j]).max()
                        assert gap <= 1e-6, f"pair ({i},{j}) gap {gap:.2e}"


def test_criterion_07_commutativity(karate):
    with criterion(7, "antiderivative commutes with the instantaneous power"):
        decomp = sym_eig(combinatorial_laplacian(karate))
        for schedule in (SINE, SPLINE_0_10):
            for t in (1.0, 3.0, 10.0):
                residual = antiderivative_commutator_residual(
                    decomp, schedule, t)
                assert residual <= 1e-8, f"residual {residual:.2e} at t={t}"


def test_criterion_08_stiffness_ratio():
    with criterion(8, "explicit steps >= 5x implicit steps on a stiff graph",
                   budget=60.0):
        g = hub_ring_graph(332, hub_weight=3.0)
        lap = combinatorial_laplacian(g)
        gen = SpectralGenerator.from_matrix(lap)
        assert gen.clamped_eigenvalues()[-1] >= 50.0
        p0 = random_initial_state("heat", g.n, seed=17)
        problem = DynamicsProblem("heat", gen, ExpSaturatingSchedule(10.0),
                                  p0, 10.0)
        explicit = simulate(problem, IntegratorConfig(
            method="rk45", rtol=1e-6, atol=1e-9))
        implicit = simulate(problem, IntegratorConfig(
            method="bdf", rtol=1e-6, atol=1e-9))
        ratio = explicit.stats.accepted / implicit.stats.accepted
        assert ratio >= 5.0, (
            f"step ratio {ratio:.1f} "
            f"({explicit.stats.accepted} vs {implicit.stats.accepted})")


def test_criterion_09_floquet_exponents():
    with criterion(9, "Floquet exponents for the sine schedule, period 1/2"):
        period = 0.5
        decomp = sym_eig(combinatorial_laplacian(cycle_graph(4)))
        exponents = np.asarray(floquet_exponents(SpectralGenerator(decomp),
                                                 SINE, period))
        assert np.abs(exponents.imag).max() == 0.0
        real = exponents.real
        assert abs(real[0]) <= 1e-8
        assert np.count_nonzero(np.abs(real) <= 1e-8) == 1  # multiplicity 1
        assert real[1] < -1e-3
        floor = min(2.0 ** SINE(t) for t in np.linspace(0, period, 2001))
        assert np.all(real[1:] <= -floor + 1e-6)
        lam = decomp.clamped_eigenvalues()
        reference = sorted(
            (-quad(lambda tau: l ** SINE(tau), 0, period, epsabs=1e-13)[0]
             / period if l > 0 else 0.0 for l in lam), reverse=True)
        assert np.abs(real - reference).max() <= 1e-8


def test_criterion_10_decay_rate():
    with criterion(10, "empirical decay rate within 10% of lambda_2^alpha"):
        gen = SpectralGenerator.from_matrix(
            combinatorial_laplacian(cycle_graph(4)))
        p0 = random_initial_state("heat", 4, seed=23)
        for alpha in (0.5, 1.0):
            problem = DynamicsProblem("heat", gen, ConstantSchedule(alpha),
                                      p0, 10.0)
            traj = exact_solution(problem, np.linspace(0.0, 10.0, 200))
            envelope = decay_envelope(traj, np.full(4, 0.25))
            expected = 2.0 ** alpha
            assert abs(envelope.rate - expected) <= 0.1 * expected


def test_criterion_11_schrodinger_never_settles(karate):
    with criterion(11, "Schrodinger flow keeps its norm and keeps moving"):
        for g in (cycle_graph(4), karate):
            gen = SpectralGenerator.from_matrix(combinatorial_laplacian(g))
            psi0 = np.zeros(g.n, dtype=complex)
            psi0[0] = 1.0  # localized start; the uniform state is stationary
            problem = DynamicsProblem("schrodinger", gen, SINE, psi0, 5.0)
            traj = simulate(problem, IntegratorConfig(
                method="rk45", rtol=1e-8, atol=1e-12, samples=200))
            norms = np.linalg.norm(traj.states, axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-5
            amplitude = np.abs(traj.states) ** 2
            prob_1 = amplitude[:, 0] / amplitude.sum(axis=1)
            late = traj.times >= 2.0
            assert prob_1[late].var() > 1e-6


def test_criterion_12_directed_sanity(digraph10):
    with criterion(12, "directed powers have zero row sums; mass conserved"):
        l_out, _ = directed_laplacians(digraph10)
        power = fractional_power_general(l_out, 0.7)
        assert np.abs(power.sum(axis=1)).max() <= 1e-8
        gen = GeneralGenerator.from_matrix(l_out)
        p0 = random_initial_state("heat", 10, seed=29)
        problem = DynamicsProblem("heat", gen, SINE, p0, 5.0)
        for method in ("rk45", "bdf"):
            traj = simulate(problem, IntegratorConfig(method=method,
                                                      samples=100))
            drift = np.abs(traj.states.sum(axis=1) - 1.0).max()
            assert drift <= 1e-5, f"{method}: mass drift {drift:.2e}"
