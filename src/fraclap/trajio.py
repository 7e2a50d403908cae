"""Serialization of trajectories, matrices, and spectra (CSV / JSON).

Floats are rendered with repr(), the shortest decimal form that round-trips
exactly, so written files can be compared bitwise and re-read without loss.
Each writer folds -0.0 into 0.0 once, so CSV and JSON hold the same values.
Every writer fills a temporary file in the target directory and renames it
over the target, so a failure part-way leaves the previous file untouched.

A CSV table of at least _DISTINCT_MIN_ENTRIES float64 entries that holds at
most half as many distinct values as entries (a hop-coupling matrix, a
Laplacian that is mostly zeros) formats each distinct value once and gathers
the strings row by row.  Any other table of at least _PARALLEL_MIN_ENTRIES
float64 entries, written on a machine that gives this process two or more
CPUs, is formatted in two halves at once: this process formats the first half
of the rows while a helper interpreter (``python -I -S``, standard library
only) formats the second.  The helper starts with the first such table and
serves every later one until the process exits; it is killed and replaced
after any failure.  The bytes written are the same on every path.
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
    "report_json",
    "trajectory_table",
]


def format_float(x) -> str:
    return repr(float(x) + 0.0)  # +0.0 folds -0.0 into 0.0


# Tables below this many entries are formatted here alone.  One write of a
# 200-row table in a fresh process, helper start included, broke even with
# the serial loop near 48,000 entries and took 0.94 of its time at 65,600.
_PARALLEL_MIN_ENTRIES = 2**16
# Tables below this many entries skip the distinct-value check.  On a 600 x
# 600 hop-coupling matrix of 641 distinct values (2 vCPU), write_matrix took
# 0.04 s, 0.009 s of it in np.unique, against 0.21 s for repr over every
# entry with the helper.
_DISTINCT_MIN_ENTRIES = 2**16
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
    """repr over a 2-D table the writer has folded, on Python floats.

    Yields newline-terminated text in row order.  A float64 table of at least
    _DISTINCT_MIN_ENTRIES entries with few distinct values takes
    _distinct_rows.  Otherwise a float64 table of at least
    _PARALLEL_MIN_ENTRIES entries, with two or more usable CPUs, is split:
    the second half of its rows goes to the helper interpreter while this
    process formats the first half, then the helper's text follows in whole
    lines, read _REPLY_CHUNK bytes at a time.  A dead helper or a short reply
    raises OSError; closing the generator early kills its helper.
    """
    if table.size >= _DISTINCT_MIN_ENTRIES and table.dtype == np.float64:
        rows = _distinct_rows(table)
        if rows is not None:
            yield from rows
            return
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


def _distinct_rows(table: np.ndarray):
    """The rows' text from one repr per distinct value, or None when the
    first row holds more distinct values than half its columns or the whole
    table more than half its entries.

    np.unique counts every NaN as one value and -0.0 as 0.0: repr gives all
    NaNs the same text, and the writers have folded -0.0 already.
    """
    if 2 * np.unique(table[0]).size > table.shape[1]:
        return None
    values, index = np.unique(table.ravel(), return_inverse=True)
    if 2 * values.size > table.size:
        return None
    text = np.array(list(map(repr, values.tolist())), dtype=object)
    return (",".join(text[row].tolist()) + "\n"
            for row in index.reshape(table.shape))


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


def _write(path, fmt: str, csv_chunks, json_text) -> None:
    """Write the CSV text chunks, or json_text() and a newline, to path
    through a temporary file and a rename.  Only fmt's text is made."""
    if fmt == "csv":
        chunks = csv_chunks
    elif fmt == "json":
        chunks = [json_text(), "\n"]
    else:
        raise ValueError(f"unknown output format {fmt!r}")
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
    table = table + 0.0
    _write(path, fmt, itertools.chain([",".join(columns) + "\n"],
                                      _csv_rows(table)),
           lambda: json.dumps({"model": model, "columns": columns,
                               "rows": table.tolist()}))


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
    m = m.astype(float, copy=False) + 0.0
    _write(path, fmt, _csv_rows(m),
           lambda: json.dumps({"rows": m.shape[0], "cols": m.shape[1],
                               "entries": m.tolist()}))


def write_spectrum(values: np.ndarray, path, fmt: str = "csv") -> None:
    values = np.asarray(values, dtype=float) + 0.0
    _write(path, fmt, _csv_rows(values[:, None]),
           lambda: json.dumps({"eigenvalues": values.tolist()}))


def write_exponents(exponents: np.ndarray, period: float, path,
                    fmt: str = "csv") -> None:
    """Complex Floquet exponents: CSV rows re,im, or JSON with the period."""
    exponents = np.asarray(exponents, dtype=complex)
    pairs = np.column_stack([exponents.real, exponents.imag]) + 0.0
    _write(path, fmt, itertools.chain(["re,im\n"], _csv_rows(pairs)),
           lambda: report_json({"period": float(period),
                                "exponents": pairs.tolist()}))


def report_json(obj) -> str:
    """The indented, key-sorted JSON of write_json, write_exponents and
    reports printed on stdout."""
    return json.dumps(obj, indent=2, sort_keys=True)


def write_json(obj, path) -> None:
    _write(path, "json", (), lambda: report_json(obj))
