"""Serialization of trajectories, matrices, and spectra (CSV / JSON).

Floats are rendered with repr(), the shortest decimal form that round-trips
exactly, so written files can be compared bitwise and re-read without loss.
Every writer fills a temporary file in the target directory and renames it
over the target, so a failure part-way leaves the previous file untouched.
"""

from __future__ import annotations

import itertools
import json
import os
import uuid
from pathlib import Path

import numpy as np

from .dynamics import Trajectory

__all__ = [
    "format_float",
    "write_trajectory",
    "read_trajectory",
    "write_matrix",
    "write_spectrum",
    "write_json",
    "trajectory_table",
]


def format_float(x) -> str:
    return repr(float(x) + 0.0)  # +0.0 folds -0.0 into 0.0


def _csv_rows(table: np.ndarray):
    """format_float over a 2-D table, on Python floats rather than numpy scalars.

    Yields one newline-terminated line per row.
    """
    for row in table + 0.0:
        yield ",".join(map(repr, row.tolist())) + "\n"


def _write_atomic(path, chunks) -> None:
    """Write the text chunks to path through a temporary file and a rename."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def trajectory_table(traj: Trajectory, model: str):
    """Return (column names, 2-D float table) for a trajectory.

    Heat: t, p_1..p_n.  Schrodinger: t, re_i and im_i amplitude parts, then
    prob_i = |psi_i|^2 / sum_j |psi_j|^2.
    """
    n = traj.states.shape[1]
    if model == "heat":
        if np.iscomplexobj(traj.states) and np.abs(traj.states.imag).max() > 1e-9:
            raise ValueError("heat trajectory has non-negligible imaginary parts")
        columns = ["t"] + [f"p_{i}" for i in range(1, n + 1)]
        table = np.column_stack([traj.times, traj.states.real])
        return columns, table
    if model != "schrodinger":
        raise ValueError(f"unknown model {model!r}")
    columns = ["t"]
    for i in range(1, n + 1):
        columns += [f"re_{i}", f"im_{i}"]
    columns += [f"prob_{i}" for i in range(1, n + 1)]
    amplitude = np.abs(traj.states) ** 2
    prob = amplitude / amplitude.sum(axis=1, keepdims=True)
    inter = np.empty((traj.times.size, 2 * n))
    inter[:, 0::2] = traj.states.real
    inter[:, 1::2] = traj.states.imag
    table = np.column_stack([traj.times, inter, prob])
    return columns, table


def write_trajectory(traj: Trajectory, model: str, path, fmt: str = "csv") -> None:
    columns, table = trajectory_table(traj, model)
    if fmt == "csv":
        _write_atomic(path, itertools.chain([",".join(columns) + "\n"],
                                            _csv_rows(table)))
    elif fmt == "json":
        payload = {"model": model, "columns": columns,
                   "rows": [[float(v) for v in row] for row in table]}
        _write_atomic(path, [json.dumps(payload), "\n"])
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def read_trajectory(path, fmt: str | None = None):
    """Read a written trajectory back as (columns, table)."""
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    if fmt == "json":
        payload = json.loads(path.read_text())
        return payload["columns"], np.array(payload["rows"], dtype=float)
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    columns = lines[0].split(",")
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    return columns, table


def write_matrix(m: np.ndarray, path, fmt: str = "csv") -> None:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        raise ValueError("complex matrices have no CSV/JSON writer; "
                         "coerce or save parts separately")
    if fmt == "csv":
        _write_atomic(path, _csv_rows(m))
    elif fmt == "json":
        payload = {"rows": m.shape[0], "cols": m.shape[1],
                   "entries": [[float(v) for v in row] for row in m]}
        _write_atomic(path, [json.dumps(payload), "\n"])
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def write_spectrum(values: np.ndarray, path, fmt: str = "csv") -> None:
    values = np.asarray(values, dtype=float)
    if fmt == "csv":
        _write_atomic(path, ["\n".join(format_float(v) for v in values), "\n"])
    elif fmt == "json":
        payload = {"eigenvalues": [float(v) for v in values]}
        _write_atomic(path, [json.dumps(payload), "\n"])
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def write_json(obj, path) -> None:
    _write_atomic(path, [json.dumps(obj, indent=2, sort_keys=True), "\n"])
