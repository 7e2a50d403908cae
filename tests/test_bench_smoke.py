"""Short traced benchmark runs against the library as it stands.

The benchmark worker and its tracer look fraclap's functions and classes up
by name, so a renamed or removed name shows up here as a failed job or a
non-zero exit.  The run works on a copy, so nothing lands in benchmarks/out.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# directed-sweep covers the non-symmetric routes; kpath-hops the hop-coupling
# generator on both of its routes, the constant exponent checked against expm.
@pytest.mark.parametrize("workload", ["directed-sweep", "kpath-hops"])
def test_workload_runs_traced_and_correct(tmp_path, workload):
    ignore = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "benchmarks", tmp_path / "benchmarks", ignore=ignore)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "benchmarks" / "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
