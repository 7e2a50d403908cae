"""fraclap benchmark: seeded workloads through the library API, checked.

    python3 benchmarks/run.py --workload spectral-sweep --seed 1 --seconds 30 --trace 0

Generates the workload's input graphs from the seed, then runs rounds until
the next one would overrun --seconds.  Each round runs the whole workload in
a fresh process (bench_worker.py) and checks every job's output against
numpy/scipy references (bench_checks.py).  The last line of standard output
is one JSON object with ``correct``, ``attempted`` and ``failed`` (jobs) and
``metrics``: the end-to-end metrics (median over rounds) with --trace 0, the
per-layer metrics of the traced rounds with --trace 1.  A traced run
alternates untraced and traced rounds and reports the difference of their
``wall_s`` as the tracing overhead.
"""

from __future__ import annotations

import os

# One BLAS thread in every process: with two OpenBLAS threads the first
# LAPACK call of a process sometimes took seconds instead of 0.17 s, and
# that cost lands in setup_s.  Set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# A round takes seconds; this only stops a hung workload process.
ROUND_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s",
                    "peak_rss_mb": "MB"}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_round(workload, seed, run_dir, index, traced, checker, jobs, first):
    """One fresh workload process plus the checks of its outputs.

    ``first`` maps each trajectory that read back bit for bit in an earlier
    round to the digests of its CSV and of its states.  Reading a CSV back
    through fraclap costs a tenth of the round, so later rounds skip it and
    require the same CSV bytes and states instead, which implies the same
    read-back.  With ``first`` None, this round reads back itself.
    """
    import numpy as np

    from bench_trace import layer_metrics

    out_dir = run_dir / f"round{index}"
    out_dir.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    worker = [sys.executable, str(HERE / "bench_worker.py"), workload,
              str(run_dir / "inputs"), str(out_dir), str(seed),
              "1" if traced else "0", "1" if first is None else "0"]
    try:
        returncode = subprocess.run(worker, env=env, stdout=sys.stderr,
                                    timeout=ROUND_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        returncode = "a timeout"
    report_path = out_dir / "report.json"
    if returncode != 0 or not report_path.is_file():
        print(f"workload process ended with {returncode}", file=sys.stderr)
        return {"failed": len(jobs), "wrong": 0, "measures": {},
                "first": first}
    report = json.loads(report_path.read_text())
    if not Path(report["fraclap"]).is_relative_to(SRC):
        raise SystemExit(f"fraclap was imported from {report['fraclap']}, "
                         f"not from {SRC}")
    failed = wrong = 0
    measures, digests = {}, {}
    with np.load(out_dir / "results.npz") as results:
        for job in jobs:
            name = job["name"]
            if f"{name}.states" in results:
                digests[name] = (
                    _digest((out_dir / f"{name}.csv").read_bytes()),
                    _digest(results[f"{name}.states"].tobytes()))
        roundtrip = report["roundtrip"] if first is None else {
            name: first.get(name) == digest for name, digest in digests.items()}
        for job in jobs:
            if report["errors"].get(job["name"]) is not None:
                failed += 1
                continue
            verdict = checker.check(job, results, out_dir, roundtrip)
            failures = verdict.pop("failures")
            for message in failures:
                print(f"check failed: {message}", file=sys.stderr)
            if failures:
                failed += 1
                wrong += 1
            measures[job["name"]] = verdict
    metrics = {key: report[key] for key in END_TO_END_UNITS}
    if traced:
        trace = json.loads((out_dir / "spans.json").read_text())
        metrics["layers"] = layer_metrics(trace["spans"], trace["counts"])
    shutil.rmtree(out_dir)
    if first is None:
        first = {name: digest for name, digest in digests.items()
                 if roundtrip.get(name)}
    return {"failed": failed, "wrong": wrong, "metrics": metrics,
            "traced": traced, "measures": measures, "first": first}


def summarize(rounds, trace: bool) -> dict:
    from bench_trace import LAYER_UNITS

    def median(key, selected):
        return statistics.median(r["metrics"][key] for r in selected)

    timed = [r for r in rounds if "metrics" in r]
    plain = [r for r in timed if not r["traced"]]
    if not trace:
        return {key: {"value": median(key, plain), "unit": unit}
                for key, unit in END_TO_END_UNITS.items()} if plain else {}
    traced = [r for r in timed if r["traced"]]
    if not (plain and traced):
        return {}
    metrics = {key: {"value": statistics.median(
        r["metrics"]["layers"][key] for r in traced), "unit": unit}
        for key, unit in LAYER_UNITS.items()}
    base, with_spans = median("wall_s", plain), median("wall_s", traced)
    metrics["trace.overhead_s"] = {"value": with_spans - base, "unit": "s"}
    metrics["trace.overhead_pct"] = {
        "value": 100.0 * (with_spans - base) / base, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from bench_plan import JOBS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "fraclap" / "__init__.py").is_file():
        print(f"error: no fraclap sources under {SRC}", file=sys.stderr)
        return 2

    from bench_checks import Checker
    from bench_inputs import make_inputs

    jobs = JOBS[args.workload]
    run_dir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        graphs = make_inputs(args.workload, args.seed, run_dir / "inputs")
        checker = Checker(args.workload, graphs)
        checker.prepare(jobs)
        rounds = []
        first = None
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            began = time.perf_counter()
            rounds.append(run_round(args.workload, args.seed, run_dir,
                                    len(rounds), traced, checker, jobs, first))
            first = rounds[-1]["first"]
            last = time.perf_counter() - began
            enough = len(rounds) >= (2 if args.trace else 1)
            if enough and time.perf_counter() - start + last > args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for i, r in enumerate(rounds):
        shown = {k: round(v, 4) for k, v in r.get("metrics", {}).items()
                 if k in END_TO_END_UNITS}
        print(f"round {i}{' traced' if r.get('traced') else ''}: {shown} "
              f"failed={r['failed']}")
    worst = {}
    for r in rounds:
        for measures in r["measures"].values():
            for key, value in measures.items():
                worst[key] = max(worst.get(key, value), value)
    print(f"blas_threads={BLAS_THREADS} rounds={len(rounds)} "
          f"checks(max)={ {k: float(f'{v:.3g}') for k, v in worst.items()} } "
          f"kappa(V)={ {k: float(f'{v:.3g}') for k, v in checker.kappa.items()} }")
    result = {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": len(jobs) * len(rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": summarize(rounds, bool(args.trace)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
