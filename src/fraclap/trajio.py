"""Serialization of trajectories, matrices, and spectra (CSV / JSON).

Floats are rendered with repr(), the shortest decimal form that round-trips
exactly, so written files can be compared bitwise and re-read without loss.
Every writer fills a temporary file in the target directory and renames it
over the target, so a failure part-way leaves the previous file untouched.

A CSV table of at least _PARALLEL_MIN_ENTRIES float64 entries, written on a
machine that gives this process two or more CPUs, is formatted in two halves
at once: this process formats the first half of the rows while a helper
interpreter (``python -I -S``, standard library only) formats the second.
The helper starts with the first such table and serves every later one until
the process exits; it is killed and replaced after any failure.  The bytes
written are the same either way.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import struct
import subprocess
import sys
import threading
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
    "write_exponents",
    "write_json",
    "trajectory_table",
]


def format_float(x) -> str:
    return repr(float(x) + 0.0)  # +0.0 folds -0.0 into 0.0


# Tables below this many entries are formatted here alone.  One write of a
# 200-row table in a fresh process, helper start included, broke even with
# the serial loop near 48,000 entries and took 0.94 of its time at 65,600.
_PARALLEL_MIN_ENTRIES = 2**16
_REPLY_CHUNK = 256 * 1024

# The helper reads a (rows, cols) header as _SHAPE and rows * cols native
# float64 values, and answers with the text's length as _LENGTH and the text.
_SHAPE = struct.Struct("=qq")
_LENGTH = struct.Struct("=q")
_HELPER_CODE = """\
import sys
from array import array
from struct import Struct
shape, length = Struct("=qq"), Struct("=q")
source, sink = sys.stdin.buffer, sys.stdout.buffer
while len(head := source.read(16)) == 16:
    rows, cols = shape.unpack(head)
    data = source.read(8 * rows * cols)
    if len(data) != 8 * rows * cols:
        break
    values = array("d")
    values.frombytes(data)
    values = values.tolist()
    text = "".join([",".join(map(repr, values[i:i + cols])) + "\\n"
                    for i in range(0, rows * cols, cols)]).encode()
    sink.write(length.pack(len(text)))
    sink.write(text)
    sink.flush()
"""

_helper_lock = threading.Lock()
_idle_helper: subprocess.Popen | None = None


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _csv_rows(table: np.ndarray):
    """format_float over a 2-D table, on Python floats rather than numpy scalars.

    Yields newline-terminated text in row order.  A float64 table of at least
    _PARALLEL_MIN_ENTRIES entries, with two or more usable CPUs, is split:
    the second half of its rows goes to the helper interpreter while this
    process formats the first half, then the helper's text follows in whole
    lines, read _REPLY_CHUNK bytes at a time.  A dead helper or a short reply
    raises OSError; closing the generator early kills its helper.
    """
    table = table + 0.0
    if (table.size < _PARALLEL_MIN_ENTRIES or table.dtype != np.float64
            or not sys.executable or _usable_cpus() < 2):
        for row in table:
            yield ",".join(map(repr, row.tolist())) + "\n"
        return
    half = table.shape[0] // 2
    helper = _take_helper()
    try:
        _send(helper, np.ascontiguousarray(table[half:]))
        for row in table[:half]:
            yield ",".join(map(repr, row.tolist())) + "\n"
        yield from _reply(helper)
    except BaseException:
        _end_helper(helper, kill=True)
        raise
    _return_helper(helper)


def _take_helper() -> subprocess.Popen:
    """The idle helper if it is alive, else a new one; the caller owns it."""
    global _idle_helper
    with _helper_lock:
        helper, _idle_helper = _idle_helper, None
    if helper is not None and helper.poll() is None:
        return helper
    if helper is not None:
        _end_helper(helper, kill=False)
    return subprocess.Popen([sys.executable, "-I", "-S", "-c", _HELPER_CODE],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def _return_helper(helper: subprocess.Popen) -> None:
    global _idle_helper
    with _helper_lock:
        if _idle_helper is None:
            _idle_helper, helper = helper, None
    if helper is not None:
        _end_helper(helper, kill=False)


def _end_helper(helper: subprocess.Popen, kill: bool) -> None:
    if kill:
        helper.kill()
    helper.stdout.close()
    try:
        helper.stdin.close()
    except OSError:  # bytes left from a failed send cannot be flushed
        pass
    helper.wait()


@atexit.register
def _close_idle_helper() -> None:
    """Let the idle helper read end-of-file and exit, then reap it."""
    global _idle_helper
    with _helper_lock:
        helper, _idle_helper = _idle_helper, None
    if helper is not None:
        _end_helper(helper, kill=False)


def _forget_idle_helper() -> None:
    """In a forked child: the idle helper belongs to the parent."""
    global _idle_helper
    if _idle_helper is not None:
        _idle_helper.stdin.close()
        _idle_helper.stdout.close()
    _idle_helper = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_idle_helper)


def _send(helper: subprocess.Popen, rows: np.ndarray) -> None:
    helper.stdin.write(_SHAPE.pack(*rows.shape))
    helper.stdin.write(memoryview(rows).cast("B"))
    helper.stdin.flush()


def _reply(helper: subprocess.Popen):
    """The helper's text in chunks of whole lines."""
    head = helper.stdout.read(_LENGTH.size)
    if len(head) != _LENGTH.size:
        raise OSError("the CSV formatting helper ended without a reply")
    (remaining,) = _LENGTH.unpack(head)
    tail = b""
    while remaining:
        chunk = helper.stdout.read(min(remaining, _REPLY_CHUNK))
        if not chunk:
            raise OSError("the CSV formatting helper ended mid-reply")
        remaining -= len(chunk)
        text = tail + chunk
        cut = text.rfind(b"\n") + 1
        tail = text[cut:]
        if cut:
            yield text[:cut].decode()
    if tail:
        raise OSError("the CSV formatting helper sent an unterminated line")


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


def write_exponents(exponents: np.ndarray, period: float, path,
                    fmt: str = "csv") -> None:
    """Complex Floquet exponents: CSV rows re,im, or JSON with the period."""
    if fmt == "csv":
        _write_atomic(path, itertools.chain(["re,im\n"], (
            f"{format_float(e.real)},{format_float(e.imag)}\n"
            for e in exponents)))
    elif fmt == "json":
        write_json({"period": float(period),
                    "exponents": [[float(e.real), float(e.imag)]
                                  for e in exponents]}, path)
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def write_json(obj, path) -> None:
    _write_atomic(path, [json.dumps(obj, indent=2, sort_keys=True), "\n"])
