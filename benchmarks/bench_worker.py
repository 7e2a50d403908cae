"""One workload in one fresh process: set-up, jobs, output files.

Usage: python3 bench_worker.py WORKLOAD INPUT_DIR OUT_DIR SEED TRACE READBACK

Runs the jobs of bench_plan.JOBS[WORKLOAD] through fraclap's library API and
writes, after the timed part, ``report.json`` (times, per-job status and, when
READBACK is 1, whether each trajectory CSV reads back bit for bit through
``read_trajectory``), ``results.npz`` (the trajectories and, on kpath-hops,
one generator matrix, for the checks) and, when TRACE is 1, ``spans.json``.
fraclap is imported from the PYTHONPATH the caller sets.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


class Workload:
    """Times solves and writes; keeps each trajectory in memory."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.solve_s = 0.0
        self.last_write = None
        self.errors: dict[str, str | None] = {}
        self.trajectories: dict[str, object] = {}

    @contextlib.contextmanager
    def job(self, name: str):
        """Run one job; an exception fails the job and the run goes on."""
        self.errors[name] = None
        self.tracer.job = name
        try:
            with self.tracer.span("job"):
                yield
        except Exception:
            self.errors[name] = traceback.format_exc()
            print(f"job {name} failed:\n{self.errors[name]}", file=sys.stderr)

    def solve(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.solve_s += time.perf_counter() - start

    def wrote(self):
        self.last_write = time.perf_counter()


class _NoTracer:
    job = None

    @contextlib.contextmanager
    def span(self, name):
        yield


def _write_exponents(trajio, exponents, path):
    """The CSV that ``fraclap floquet`` writes."""
    lines = ["re,im"] + [
        f"{trajio.format_float(e.real)},{trajio.format_float(e.imag)}"
        for e in exponents]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv) -> int:
    workload, input_dir, out_dir, seed, trace, readback = argv
    input_dir, out_dir, seed = Path(input_dir), Path(out_dir), int(seed)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import bench_plan

    graph_files = json.loads((input_dir / "graphs.json").read_text())

    t0 = time.perf_counter()
    import fraclap
    from fraclap import dynamics, graphs, matfun, schedules, stability, trajio

    if trace == "1":
        from bench_trace import Tracer
        tracer = Tracer()
        tracer.install()
    else:
        tracer = _NoTracer()
    run = Workload(tracer)

    loaded, generators, laplacians = {}, {}, {}
    for name, kind in bench_plan.GENERATORS[workload].items():
        info = graph_files[name]
        g = graphs.load_graph(info["path"], fmt=info["format"],
                              directed=info["directed"])
        loaded[name] = g
        if kind == "comb":
            generators[name] = dynamics.SpectralGenerator.from_matrix(
                graphs.combinatorial_laplacian(g))
        elif kind == "nrw":
            generators[name] = dynamics.GeneralGenerator.from_matrix(
                graphs.normalized_laplacians(g)[0])
        elif kind == "out":
            generators[name] = dynamics.GeneralGenerator.from_matrix(
                graphs.directed_laplacians(g)[0])
        elif kind == "out-matrix":
            laplacians[name] = graphs.directed_laplacians(g)[0]
        elif kind == "kpath":
            generators[name] = dynamics.KPathGenerator.from_graph(g)
    setup_s = time.perf_counter() - t0

    for job in bench_plan.JOBS[workload]:
        name, graph = job["name"], job["graph"]
        with run.job(name):
            out = out_dir / f"{name}.csv"
            if job["kind"] == "simulate":
                g, model = loaded[graph], job["model"]
                problem = dynamics.DynamicsProblem(
                    model=model, generator=generators[graph],
                    schedule=schedules.parse_schedule(job["schedule"]),
                    initial_state=dynamics.random_initial_state(model, g.n, seed),
                    horizon=job["horizon"])
                config = dynamics.IntegratorConfig(method=job["method"])
                traj = run.solve(dynamics.simulate, problem, config)
                trajio.write_trajectory(traj, model, out)
                run.trajectories[name] = traj
            elif job["kind"] == "floquet":
                exponents = run.solve(
                    stability.floquet_exponents, generators[graph],
                    schedules.parse_schedule(job["schedule"]), job["period"])
                _write_exponents(trajio, exponents, out)
            elif job["kind"] == "power":
                powered = run.solve(matfun.fractional_power_general,
                                    laplacians[graph], job["alpha"])
                trajio.write_matrix(powered, out)
            else:
                matrix = run.solve(graphs.transformed_k_path_laplacian,
                                   loaded[graph], job["alpha"])
                trajio.write_matrix(matrix, out)
            run.wrote()
    wall_s = (run.last_write or time.perf_counter()) - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Untimed: dump results for the checks, read the trajectories back.
    if trace == "1":
        tracer.uninstall()
        (out_dir / "spans.json").write_text(json.dumps(
            {"spans": tracer.spans, "counts": tracer.counts}))
    import numpy as np

    arrays, roundtrip = {}, {}
    for job in bench_plan.JOBS[workload]:
        name = job["name"]
        traj = run.trajectories.get(name)
        if traj is None:
            continue
        arrays[f"{name}.times"] = traj.times
        arrays[f"{name}.states"] = traj.states
        if readback != "1":
            continue
        columns, table = trajio.trajectory_table(traj, job["model"])
        back_columns, back = trajio.read_trajectory(out_dir / f"{name}.csv")
        roundtrip[name] = (back_columns == columns
                           and back.shape == table.shape
                           and back.tobytes() == table.tobytes())
    if workload == "kpath-hops":
        arrays["kpath.generator_matrix"] = generators["kpath"].matrix(
            bench_plan.KPATH_CHECK_ALPHA)
    np.savez(out_dir / "results.npz", **arrays)
    report = {
        "fraclap": str(Path(fraclap.__file__).resolve()),
        "setup_s": setup_s, "wall_s": wall_s, "solve_s": run.solve_s,
        "peak_rss_mb": peak_rss_mb, "errors": run.errors,
        "roundtrip": roundtrip,
    }
    (out_dir / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
