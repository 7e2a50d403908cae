import json

import numpy as np
import pytest

from fraclap import trajio

from fraclap import (
    ConstantSchedule,
    DynamicsProblem,
    SineSchedule,
    SpectralGenerator,
    Trajectory,
    combinatorial_laplacian,
    exact_solution,
    random_initial_state,
)
from fraclap.integrators import StepStats
from fraclap.trajio import (
    format_float,
    read_trajectory,
    trajectory_table,
    write_exponents,
    write_json,
    write_matrix,
    write_spectrum,
    write_trajectory,
)


def heat_traj(c4, samples):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(c4))
    problem = DynamicsProblem("heat", gen, ConstantSchedule(0.8),
                              np.array([1.0, 0, 0, 0]), float(samples[-1]))
    return exact_solution(problem, np.asarray(samples, dtype=float))


def test_format_float_round_trips():
    for x in (0.1, 1 / 3, 1e-17, 12345.678901234567, -0.0):
        assert float(format_float(x)) == x + 0.0
    assert format_float(-0.0) == "0.0"


def test_two_sample_heat_csv_shape(c4, tmp_path):
    traj = heat_traj(c4, [0.0, 1.0])
    path = tmp_path / "traj.csv"
    write_trajectory(traj, "heat", path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "t,p_1,p_2,p_3,p_4"
    assert all(len(ln.split(",")) == 5 for ln in lines)


def test_csv_round_trip_is_exact(c4, tmp_path):
    traj = heat_traj(c4, np.linspace(0.0, 2.0, 17))
    path = tmp_path / "traj.csv"
    write_trajectory(traj, "heat", path)
    columns, table = read_trajectory(path)
    _, expected = trajectory_table(traj, "heat")
    assert columns[0] == "t"
    assert np.array_equal(table, expected)


def test_json_round_trip_is_exact(c4, tmp_path):
    traj = heat_traj(c4, np.linspace(0.0, 2.0, 9))
    path = tmp_path / "traj.json"
    write_trajectory(traj, "heat", path, fmt="json")
    columns, table = read_trajectory(path)
    _, expected = trajectory_table(traj, "heat")
    assert np.array_equal(table, expected)
    payload = json.loads(path.read_text())
    assert payload["model"] == "heat"


def test_schrodinger_prob_columns_sum_to_one(c4, tmp_path):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(c4))
    psi0 = random_initial_state("schrodinger", 4, seed=3)
    problem = DynamicsProblem("schrodinger", gen,
                              SineSchedule(0.5, 0.4, 4 * np.pi), psi0, 3.0)
    traj = exact_solution(problem, np.linspace(0.0, 3.0, 12))
    path = tmp_path / "psi.csv"
    write_trajectory(traj, "schrodinger", path)
    columns, table = read_trajectory(path)
    assert len(columns) == 1 + 2 * 4 + 4
    prob = table[:, -4:]
    assert np.abs(prob.sum(axis=1) - 1.0).max() <= 1e-6
    # amplitudes reassemble the stored states exactly
    re = table[:, 1:9:2]
    im = table[:, 2:9:2]
    assert np.array_equal(re + 1j * im, traj.states)


def test_write_matrix_csv_and_json(tmp_path):
    m = np.array([[1.5, -0.25], [-0.25, 1.5]])
    write_matrix(m, tmp_path / "m.csv")
    rows = [[float(v) for v in ln.split(",")]
            for ln in (tmp_path / "m.csv").read_text().strip().split("\n")]
    assert np.array_equal(np.array(rows), m)
    write_matrix(m, tmp_path / "m.json", fmt="json")
    payload = json.loads((tmp_path / "m.json").read_text())
    assert payload["rows"] == 2 and np.array_equal(payload["entries"], m)


def test_write_matrix_rejects_complex(tmp_path):
    with pytest.raises(ValueError, match="complex"):
        write_matrix(np.eye(2) * (1 + 1j), tmp_path / "m.csv")


def test_write_spectrum(tmp_path):
    write_spectrum(np.array([0.0, 2.0, 4.0]), tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_text() == "0.0\n2.0\n4.0\n"


def test_unknown_format_rejected(c4, tmp_path):
    traj = heat_traj(c4, [0.0, 1.0])
    with pytest.raises(ValueError, match="format"):
        write_trajectory(traj, "heat", tmp_path / "x.bin", fmt="bin")


def test_failed_write_keeps_previous_file(c4, tmp_path, monkeypatch):
    path = tmp_path / "traj.csv"
    write_trajectory(heat_traj(c4, [0.0, 1.0]), "heat", path)
    before = path.read_bytes()
    rows = trajio._csv_rows

    def failing_rows(table):
        gen = rows(table)
        yield next(gen)  # one row reaches the file, then the disk fills up
        raise OSError("no space left on device")

    monkeypatch.setattr(trajio, "_csv_rows", failing_rows)
    with pytest.raises(OSError, match="no space"):
        write_trajectory(heat_traj(c4, np.linspace(0.0, 1.0, 5)), "heat", path)
    with pytest.raises(OSError, match="no space"):
        write_matrix(np.eye(3), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]


def test_failed_exponents_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "floq.csv"
    write_exponents(np.array([0.0, -1.5 + 0.25j]), 2.0, path)
    before = path.read_bytes()
    assert before == b"re,im\n0.0,0.0\n-1.5,0.25\n"
    rows = trajio._csv_rows

    def failing_rows(table):
        gen = rows(table)
        yield next(gen)  # the header and one row reach the file, then it fills
        raise OSError("no space left on device")

    monkeypatch.setattr(trajio, "_csv_rows", failing_rows)
    with pytest.raises(OSError, match="no space"):
        write_exponents(np.array([0.0, -2.0, -3.0]), 2.0, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["floq.csv"]


def test_writers_replace_files_whole(tmp_path):
    path = tmp_path / "out.json"
    write_json({"a": [1, 2, 3]}, path)
    write_json({"b": 1}, path)
    assert json.loads(path.read_text()) == {"b": 1}
    write_spectrum(np.array([1.0]), path)
    assert path.read_text() == "1.0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


# ---------------------------------------------------------------------------
# Written bytes
# ---------------------------------------------------------------------------

def test_heat_trajectory_json_bytes(tmp_path):
    traj = Trajectory(np.array([0.0, 0.5]),
                      np.array([[1.0, 0.0], [0.75, 0.25]]), StepStats())
    write_trajectory(traj, "heat", tmp_path / "p.json", fmt="json")
    assert (tmp_path / "p.json").read_bytes() == (
        b'{"model": "heat", "columns": ["t", "p_1", "p_2"], '
        b'"rows": [[0.0, 1.0, 0.0], [0.5, 0.75, 0.25]]}\n')


def test_schrodinger_trajectory_json_bytes(tmp_path):
    states = np.array([[1.0, 0.0], [0.5 - 0.5j, -0.5j]])
    traj = Trajectory(np.array([0.0, 0.25]), states, StepStats())
    write_trajectory(traj, "schrodinger", tmp_path / "psi.json", fmt="json")
    assert (tmp_path / "psi.json").read_bytes() == (
        b'{"model": "schrodinger", "columns": ["t", "re_1", "im_1", "re_2", '
        b'"im_2", "prob_1", "prob_2"], "rows": [[0.0, 1.0, 0.0, 0.0, 0.0, '
        b'1.0, 0.0], [0.25, 0.5, -0.5, -0.0, -0.5, 0.6666666666666667, '
        b'0.33333333333333326]]}\n')


def test_matrix_json_bytes(tmp_path):
    write_matrix(np.array([[1.5, -0.0], [-0.25, 2]]), tmp_path / "m.json",
                 fmt="json")
    assert (tmp_path / "m.json").read_bytes() == (
        b'{"rows": 2, "cols": 2, "entries": [[1.5, -0.0], [-0.25, 2.0]]}\n')


def test_spectrum_csv_and_json_bytes(tmp_path):
    values = np.array([-0.0, 1e-17, 2.5])
    write_spectrum(values, tmp_path / "s.csv")
    assert (tmp_path / "s.csv").read_bytes() == b"0.0\n1e-17\n2.5\n"
    write_spectrum(values, tmp_path / "s.json", fmt="json")
    assert (tmp_path / "s.json").read_bytes() == (
        b'{"eigenvalues": [-0.0, 1e-17, 2.5]}\n')


def test_exponents_csv_and_json_bytes(tmp_path):
    exponents = np.array([complex(-0.0, 0.0), -1.5 + 0.25j,
                          complex(-2.0, -0.0), 1 / 3 - 1j])
    write_exponents(exponents, 0.5, tmp_path / "f.csv")
    assert (tmp_path / "f.csv").read_bytes() == (
        b"re,im\n0.0,0.0\n-1.5,0.25\n-2.0,0.0\n"
        b"0.3333333333333333,-1.0\n")
    write_exponents(exponents, 0.5, tmp_path / "f.json", fmt="json")
    assert (tmp_path / "f.json").read_bytes() == (
        b'{\n  "exponents": [\n    [\n      -0.0,\n      0.0\n    ],\n'
        b'    [\n      -1.5,\n      0.25\n    ],\n'
        b'    [\n      -2.0,\n      -0.0\n    ],\n'
        b'    [\n      0.3333333333333333,\n      -1.0\n    ]\n  ],\n'
        b'  "period": 0.5\n}\n')
