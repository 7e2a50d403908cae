"""CSV tables formatted in two halves, one by a helper interpreter, or from
one repr per distinct value.

Every table here is compared with the serial reference below, so the split,
the helper's wire format, its failure handling and the distinct-value path
must all keep the bytes.
"""

import gc
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fraclap import (
    ConstantSchedule,
    DynamicsProblem,
    SpectralGenerator,
    combinatorial_laplacian,
    exact_solution,
    random_initial_state,
    transformed_k_path_laplacian,
)
from fraclap import trajio
from fraclap.trajio import format_float, read_trajectory, trajectory_table
from fraclap.trajio import write_matrix, write_trajectory
from conftest import cycle_graph, ring_with_chords

SRC = Path(__file__).resolve().parents[1] / "src"
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
           2.2250738585072009e-308, 1e-320, 1.7976931348623157e308]


def serial_csv(table):
    return "".join(",".join(format_float(v) for v in row) + "\n"
                   for row in table)


def big_table(rows=40, cols=400, seed=0):
    """Enough text that the helper's half overflows a 64 KB pipe."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(
        -300, 300, (rows, cols))


def use_helper(monkeypatch, min_entries=1):
    """Force the helper path: two usable CPUs and a low threshold."""
    monkeypatch.setattr(trajio, "_PARALLEL_MIN_ENTRIES", min_entries)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)


@pytest.fixture
def started(monkeypatch):
    """Every helper started during the test, in order."""
    trajio._close_idle_helper()
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    yield started
    trajio._close_idle_helper()
    for helper in started:
        assert helper.returncode is not None


def reaped(helper):
    return (helper.returncode is not None and helper.stdin.closed
            and helper.stdout.closed)


finite = st.floats(allow_nan=False, allow_infinity=False,
                   allow_subnormal=True, width=64)
tables = arrays(np.float64,
                st.tuples(st.sampled_from([1, 2, 3, 7, 8]),
                          st.sampled_from([1, 2, 5])),
                elements=finite | st.sampled_from(SPECIAL))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tables)
def test_split_rows_match_serial_reference(table):
    with pytest.MonkeyPatch.context() as mp:
        use_helper(mp)
        # the writers fold -0.0 before formatting, as format_float does
        text = "".join(trajio._csv_rows(table + 0.0))
        assert trajio._idle_helper is not None  # the helper path ran
    assert text == serial_csv(table)


def no_send(helper, rows):
    raise AssertionError("a table with few distinct values went to the helper")


repeated = arrays(np.float64,
                  st.tuples(st.integers(1, 9), st.sampled_from([1, 2, 3, 6])),
                  elements=st.sampled_from(SPECIAL + [1.0, -2.5, 1e300]))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(repeated)
def test_distinct_rows_match_serial_reference(table):
    # Heavy repetition, every special value, and the one- and two-column
    # tables of write_spectrum and write_exponents; a table with too many
    # distinct values falls through to the helper.
    with pytest.MonkeyPatch.context() as mp:
        use_helper(mp)
        mp.setattr(trajio, "_DISTINCT_MIN_ENTRIES", 1)
        text = "".join(trajio._csv_rows(table + 0.0))
    assert text == serial_csv(table)


def test_kpath_matrix_formats_each_distinct_value_once(monkeypatch, started,
                                                       tmp_path):
    # 300 x 300 entries, above the default threshold, of 343 distinct values
    use_helper(monkeypatch)
    monkeypatch.setattr(trajio, "_send", no_send)
    matrix = transformed_k_path_laplacian(ring_with_chords(300, 20), 0.5)
    assert matrix.size >= trajio._DISTINCT_MIN_ENTRIES
    write_matrix(matrix, tmp_path / "k.csv")
    assert (tmp_path / "k.csv").read_text() == serial_csv(matrix)
    assert started == []


def test_repeated_first_row_with_distinct_rows_uses_the_helper(monkeypatch,
                                                               started):
    use_helper(monkeypatch)
    monkeypatch.setattr(trajio, "_DISTINCT_MIN_ENTRIES", 1)
    table = big_table()
    table[0] = 0.0
    assert "".join(trajio._csv_rows(table)) == serial_csv(table)
    assert len(started) == 1


def test_wide_and_tall_tables_match_serial_reference(monkeypatch, started):
    use_helper(monkeypatch)
    # Replies of several chunks: many rows, and one row longer than a chunk.
    for table in (big_table(1, 9000), big_table(301, 3), big_table(60, 500),
                  big_table(2, 30000), np.asfortranarray(big_table(9, 50)),
                  np.random.default_rng(1).random((4, 6), np.float32)):
        chunks = list(trajio._csv_rows(table))
        assert all(c.endswith("\n") for c in chunks)
        assert "".join(chunks) == serial_csv(table)
    assert len(started) == 1  # one helper serves every table


def test_heat_trajectory_round_trips_bit_for_bit(monkeypatch, started,
                                                 tmp_path):
    use_helper(monkeypatch)
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(
        cycle_graph(30)))
    problem = DynamicsProblem("heat", gen, ConstantSchedule(0.7),
                              random_initial_state("heat", 30, seed=4), 2.0)
    traj = exact_solution(problem, np.linspace(0.0, 2.0, 41))
    path = tmp_path / "traj.csv"
    write_trajectory(traj, "heat", path)
    assert len(started) == 1
    _, table = trajectory_table(traj, "heat")
    columns, back = read_trajectory(path)
    assert columns[:2] == ["t", "p_1"]
    assert back.tobytes() == (table + 0.0).tobytes()


def test_helper_killed_between_tables_is_replaced(monkeypatch, started,
                                                  tmp_path):
    use_helper(monkeypatch)
    table = big_table()
    write_matrix(table, tmp_path / "a.csv")
    first = started[0]
    first.kill()
    first.wait()
    write_matrix(table, tmp_path / "b.csv")
    assert len(started) == 2 and reaped(first)
    assert (tmp_path / "b.csv").read_text() == serial_csv(table)


def test_helper_killed_during_table_raises_and_keeps_file(monkeypatch,
                                                          started, tmp_path):
    use_helper(monkeypatch)
    path = tmp_path / "m.csv"
    write_matrix(np.eye(3), path)
    before = path.read_bytes()
    rows = trajio._csv_rows

    def killing_rows(table):
        gen = rows(table)
        yield next(gen)  # the helper has its half, then it dies
        started[-1].kill()
        yield from gen

    monkeypatch.setattr(trajio, "_csv_rows", killing_rows)
    with pytest.raises(OSError, match="helper"):
        write_matrix(big_table(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.csv"]
    assert reaped(started[-1]) and trajio._idle_helper is None

    monkeypatch.setattr(trajio, "_csv_rows", rows)
    write_matrix(big_table(), path)
    assert path.read_text() == serial_csv(big_table())


def test_consumer_stopping_early_keeps_the_protocol(monkeypatch, started,
                                                    tmp_path):
    use_helper(monkeypatch)
    path = tmp_path / "m.csv"
    rows = trajio._csv_rows

    def failing_rows(table):
        gen = rows(table)
        yield next(gen)  # one row reaches the file, then the disk fills up
        raise OSError("no space left on device")

    monkeypatch.setattr(trajio, "_csv_rows", failing_rows)
    with pytest.raises(OSError, match="no space"):
        write_matrix(big_table(seed=1), path)
    monkeypatch.setattr(trajio, "_csv_rows", rows)
    for seed in (2, 3):
        write_matrix(big_table(seed=seed), path)
        assert path.read_text() == serial_csv(big_table(seed=seed))
    gc.collect()  # closes the abandoned generator, which kills its helper
    assert reaped(started[0])
    assert [h for h in started if h.returncode is None] == [
        trajio._idle_helper]


def test_closing_the_generator_kills_its_helper(monkeypatch, started):
    use_helper(monkeypatch)
    gen = trajio._csv_rows(big_table())
    next(gen)
    gen.close()
    assert len(started) == 1 and reaped(started[0])
    assert trajio._idle_helper is None


def test_threads_writing_at_once_each_get_their_own_helper(monkeypatch,
                                                          started, tmp_path):
    use_helper(monkeypatch)
    tables = [big_table(seed=seed) for seed in range(6)]
    errors = []

    def write(i):
        try:
            for _ in range(3):
                write_matrix(tables[i], tmp_path / f"{i}.csv")
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write, args=(i,))
                   for i in range(len(tables))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for i, table in enumerate(tables):
        assert (tmp_path / f"{i}.csv").read_text() == serial_csv(table)
    running = [h for h in started if h.returncode is None]
    assert running == [trajio._idle_helper]


@pytest.mark.parametrize("case", ["one cpu", "small table", "no executable"])
def test_serial_fallback_starts_no_process(monkeypatch, tmp_path, case):
    table = big_table(20, 40)
    if case == "one cpu":
        use_helper(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    elif case == "small table":
        use_helper(monkeypatch, min_entries=table.size + 1)
    else:
        use_helper(monkeypatch)
        monkeypatch.setattr(sys, "executable", "")

    def no_process(*args, **kwargs):
        raise AssertionError("the serial path started a process")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    write_matrix(table, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text() == serial_csv(table)


CLEAN_EXIT = """
import os, sys
import numpy as np
from fraclap import trajio
os.sched_getaffinity = lambda pid: {0, 1}
table = np.random.default_rng(5).random((200, 400))
assert table.size >= trajio._PARALLEL_MIN_ENTRIES
trajio.write_matrix(table, sys.argv[1])
print(trajio._idle_helper.pid)
"""


def test_process_with_helper_exits_cleanly(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", CLEAN_EXIT,
         str(tmp_path / "m.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    table = np.random.default_rng(5).random((200, 400))
    assert (tmp_path / "m.csv").read_text() == serial_csv(table)
    with pytest.raises(ProcessLookupError):  # reaped by the exiting parent
        os.kill(int(proc.stdout), 0)


FORKED = """
import os, sys
import numpy as np
from fraclap import trajio
os.sched_getaffinity = lambda pid: {0, 1}
table = np.random.default_rng(5).random((200, 400))
trajio.write_matrix(table, sys.argv[1] + ".parent")
helper = trajio._idle_helper
pid = os.fork()
if pid == 0:  # the parent's idle helper is not the child's to use
    fresh = trajio._idle_helper is None
    trajio.write_matrix(table, sys.argv[1] + ".child")
    trajio._close_idle_helper()
    os._exit(0 if fresh else 1)
assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
trajio.write_matrix(table, sys.argv[1] + ".again")
assert trajio._idle_helper is helper
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_helper(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", FORKED,
         str(tmp_path / "m")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    expected = serial_csv(np.random.default_rng(5).random((200, 400)))
    for side in ("parent", "child", "again"):
        assert (tmp_path / f"m.{side}").read_text() == expected
