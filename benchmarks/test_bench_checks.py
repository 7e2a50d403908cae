"""Tests of the benchmark's own parts: inputs, checks and tracing.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench_checks  # noqa: E402
import bench_inputs  # noqa: E402
from bench_plan import JOBS  # noqa: E402
from bench_trace import Tracer, layer_metrics, self_times  # noqa: E402


def _job(workload, name):
    return next(job for job in JOBS[workload] if job["name"] == name)


@pytest.fixture(scope="module")
def directed(tmp_path_factory):
    graphs = bench_inputs.make_inputs("directed-sweep", 5,
                                      tmp_path_factory.mktemp("inputs"))
    return bench_checks.Checker("directed-sweep", graphs)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    first = bench_inputs.make_inputs("directed-sweep", 3, tmp_path / "a")
    again = bench_inputs.make_inputs("directed-sweep", 3, tmp_path / "b")
    other = bench_inputs.make_inputs("directed-sweep", 4, tmp_path / "c")
    for name in first:
        assert first[name]["edges"] == again[name]["edges"]
        assert (Path(first[name]["path"]).read_bytes()
                == Path(again[name]["path"]).read_bytes())
    assert any(first[name]["edges"] != other[name]["edges"] for name in first)


def test_kpath_input_has_the_target_diameter(tmp_path):
    info = bench_inputs.make_inputs("kpath-hops", 9, tmp_path)["kpath"]
    hops = bench_inputs.hop_matrix(info["n"], info["edges"])
    assert hops.max() == bench_inputs.KPATH_DIAMETER


def test_perturbed_trajectory_fails_its_check(directed, tmp_path):
    job = _job("directed-sweep", "dir30.heat.const.rk45")
    grid = np.linspace(0.0, job["horizon"], bench_checks.SAMPLES)
    p0 = np.full(30, 1.0 / 30)
    generator = directed._eig("dir30")(0.5)
    states = bench_checks.propagate(p0, generator, grid)
    results = {f"{job['name']}.times": grid, f"{job['name']}.states": states}
    roundtrip = {job["name"]: True}
    assert directed.check(job, results, tmp_path, roundtrip)["failures"] == []

    perturbed = states.copy()
    perturbed[100] += 1e-3 * np.sign(np.arange(30) - 14.5)
    results[f"{job['name']}.states"] = perturbed
    failures = directed.check(job, results, tmp_path, roundtrip)["failures"]
    assert any("error" in message for message in failures)


def test_failed_read_back_fails_the_job(directed, tmp_path):
    job = _job("directed-sweep", "dir30.heat.const.rk45")
    grid = np.linspace(0.0, job["horizon"], bench_checks.SAMPLES)
    states = bench_checks.propagate(np.full(30, 1.0 / 30),
                                    directed._eig("dir30")(0.5), grid)
    results = {f"{job['name']}.times": grid, f"{job['name']}.states": states}
    failures = directed.check(job, results, tmp_path,
                              {job["name"]: False})["failures"]
    assert any("bit for bit" in message for message in failures)


def test_perturbed_power_fails_its_check(directed, tmp_path):
    job = _job("directed-sweep", "dir60.power")
    exact = directed._eig("dir60")(job["alpha"])
    path = tmp_path / f"{job['name']}.csv"
    np.savetxt(path, exact, delimiter=",", fmt="%.17g")
    assert directed.check(job, {}, tmp_path, {})["failures"] == []

    exact[3, 7] += 1e-6
    np.savetxt(path, exact, delimiter=",", fmt="%.17g")
    assert directed.check(job, {}, tmp_path, {})["failures"]


def test_self_time_subtracts_direct_children():
    spans = [["job", 0.0, 10.0, None, "a"],
             ["integrators.integrate", 1.0, 9.0, 0, "a"],
             ["dynamics.matrix", 2.0, 5.0, 1, "a"],
             ["matfun.power", 2.5, 4.5, 2, "a"]]
    calls, total, own = self_times(spans)
    assert total["integrators.integrate"] == 8.0
    assert own["integrators.integrate"] == 5.0
    assert own["dynamics.matrix"] == 1.0
    metrics = layer_metrics(spans, {"integrators.rhs_evals": 4})
    assert metrics["dynamics.assemblies_per_rhs"] == 0.25
    assert metrics["matfun.power_calls"] == 1


def test_tracer_records_layers_and_restores_fraclap():
    import fraclap
    from fraclap import dynamics, integrators, stability

    originals = (dynamics.rk45_integrate, stability.rk45_integrate,
                 dynamics.GeneralGenerator.__dict__["from_matrix"],
                 fraclap.load_graph)
    tracer = Tracer()
    tracer.install()
    try:
        assert dynamics.rk45_integrate is not originals[0]
        assert dynamics.rk45_integrate is stability.rk45_integrate \
            is integrators.rk45_integrate
        g = fraclap.Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0),
                              (0, 2, 1.0)), directed=True)
        gen = dynamics.GeneralGenerator.from_matrix(
            fraclap.directed_laplacians(g)[0])
        problem = fraclap.DynamicsProblem(
            "heat", gen, fraclap.parse_schedule("sin:0.5,0.4,12.566370614359172"),
            np.full(4, 0.25), 0.2)
        traj = dynamics.simulate(problem, fraclap.IntegratorConfig(samples=5))
    finally:
        tracer.uninstall()
    assert (dynamics.rk45_integrate, stability.rk45_integrate,
            dynamics.GeneralGenerator.__dict__["from_matrix"],
            fraclap.load_graph) == originals
    metrics = layer_metrics(tracer.spans, tracer.counts)
    assert metrics["integrators.rhs_evals"] == traj.stats.rhs_evals
    assert metrics["integrators.steps"] == traj.stats.accepted
    assert metrics["dynamics.assemblies"] == metrics["matfun.power_calls"] > 0
    assert metrics["matfun.decompose_s"] > 0
    assert metrics["schedules.evals"] >= traj.stats.rhs_evals


def test_run_fails_without_the_program(tmp_path):
    copy = tmp_path / "benchmarks"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns(
        "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "kpath-hops",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
