import argparse
import json

import numpy as np
import pytest

from conftest import DATA, ring_with_chords
from fraclap import (
    DynamicsProblem,
    GeneralGenerator,
    KPathGenerator,
    SpectralGenerator,
    combinatorial_laplacian,
    directed_laplacians,
    graphs,
    load_graph,
    normalized_laplacians,
    parse_schedule,
    transformed_k_path_laplacian,
    triangular_factorization,
)
from fraclap.cli import _build_parser, _sidecar, main
from fraclap.dynamics import Trajectory
from fraclap.integrators import StepStats
from fraclap.matfun import power_from_factorization
from fraclap.trajio import read_trajectory

KARATE = str(DATA / "karate.mtx")


@pytest.fixture
def c4_path(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("1 2\n2 3\n3 4\n4 1\n")
    return str(path)


@pytest.fixture
def digraph_path(tmp_path):
    path = tmp_path / "ring.edges"
    path.write_text("1 2\n2 3\n3 4\n4 1\n1 3 0.5\n")
    return str(path)


def read_matrix(path):
    return np.array([[float(v) for v in ln.split(",")]
                     for ln in open(path).read().strip().split("\n")])


def test_laplacian_command(c4_path, tmp_path):
    out = str(tmp_path / "L.csv")
    assert main(["laplacian", "--graph", c4_path, "--out", out]) == 0
    lap = read_matrix(out)
    assert np.array_equal(lap[0], [2.0, -1.0, 0.0, -1.0])


def test_power_command_closed_form(c4_path, tmp_path):
    out = str(tmp_path / "P.csv")
    assert main(["power", "--graph", c4_path, "--alpha", "0.5",
                 "--out", out]) == 0
    power = read_matrix(out)
    diag = 2.0 ** -1.5 * (2.0 ** 0.5 + 2)
    assert abs(power[0, 0] - diag) <= 1e-12
    assert abs(power[0, 1] + 0.5) <= 1e-12


def test_kpath_command(c4_path, tmp_path):
    out = str(tmp_path / "K.csv")
    assert main(["kpath", "--graph", c4_path, "--kpath-alpha", "1.0",
                 "--out", out]) == 0
    matrix = read_matrix(out)
    assert abs(matrix[0, 0] - 2.5) <= 1e-15
    assert abs(matrix[0, 2] + 0.5) <= 1e-15


@pytest.mark.parametrize("alpha", ["nan", "inf"])
def test_kpath_command_nonfinite_alpha_exits_two(c4_path, tmp_path, alpha):
    assert main(["kpath", "--graph", c4_path, "--kpath-alpha", alpha,
                 "--out", str(tmp_path / "K.csv")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["c4.edges"]


def test_spectrum_command(c4_path, tmp_path):
    out = str(tmp_path / "S.csv")
    assert main(["spectrum", "--graph", c4_path, "--out", out]) == 0
    values = [float(v) for v in open(out).read().split()]
    assert np.abs(np.array(values) - [0.0, 2.0, 2.0, 4.0]).max() <= 1e-10
    out2 = str(tmp_path / "S2.csv")
    assert main(["spectrum", "--graph", c4_path, "--laplacian", "kpath",
                 "--kpath-alpha", "1.0", "--out", out2]) == 0
    values = [float(v) for v in open(out2).read().split()]
    assert np.abs(np.array(values) - [0.0, 3.0, 3.0, 4.0]).max() <= 1e-10


def test_spectrum_command_json(c4_path, tmp_path):
    out = tmp_path / "S.json"
    assert main(["spectrum", "--graph", c4_path, "--out-format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert list(payload) == ["eigenvalues"]
    lap = combinatorial_laplacian(load_graph(c4_path))
    assert np.abs(np.array(payload["eigenvalues"])
                  - np.linalg.eigvalsh(lap)).max() <= 1e-12


def test_simulate_karate_shape_and_stats(tmp_path):
    out = str(tmp_path / "traj.csv")
    rc = main(["simulate", "--graph", KARATE, "--model", "heat",
               "--alpha", "expsat:10", "--integrator", "bdf",
               "--t-end", "10", "--seed", "11", "--out", out])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 201
    assert all(len(ln.split(",")) == 35 for ln in lines)
    stats = json.load(open(out + ".stats.json"))
    assert stats["mass_max_error"] <= 1e-8
    assert stats["accepted_steps"] > 0 and stats["linear_solves"] > 0
    assert 0 < stats["factorizations"] <= stats["linear_solves"]
    assert stats["empirical_decay_rate"] is not None


def test_simulate_exact_reaches_uniform(c4_path, tmp_path):
    out = str(tmp_path / "traj.csv")
    rc = main(["simulate", "--graph", c4_path, "--alpha", "const:1",
               "--integrator", "exact", "--t-end", "10", "--seed", "3",
               "--out", out])
    assert rc == 0
    _, table = read_trajectory(out)
    assert table[-1, 0] == 10.0
    assert np.abs(table[-1, 1:] - 0.25).max() <= 1e-5


@pytest.mark.parametrize("integrator", ["exact", "rk45"])
def test_simulate_stats_count_quadrature_panels(c4_path, tmp_path, integrator):
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--graph", c4_path, "--alpha",
                 "sin:0.5,0.4,12.566370614359172", "--integrator", integrator,
                 "--t-end", "2", "--seed", "3", "--out", out]) == 0
    panels = json.load(open(out + ".stats.json"))["quadrature_panels"]
    if integrator == "exact":
        assert panels >= 199  # at least one panel per sample interval
    else:
        assert panels == 0


def test_simulate_is_byte_deterministic(c4_path, tmp_path):
    args = ["simulate", "--graph", c4_path, "--alpha",
            "sin:0.5,0.4,12.566370614359172", "--integrator", "rk45",
            "--t-end", "2", "--seed", "42"]
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    assert open(out1 + ".stats.json").read() == open(out2 + ".stats.json").read()
    out3 = str(tmp_path / "c.csv")
    assert main(["simulate", "--graph", c4_path, "--alpha",
                 "sin:0.5,0.4,12.566370614359172", "--integrator", "rk45",
                 "--t-end", "2", "--seed", "43", "--out", out3]) == 0
    assert open(out1, "rb").read() != open(out3, "rb").read()


def test_simulate_schrodinger_json(c4_path, tmp_path):
    out = str(tmp_path / "psi.json")
    rc = main(["simulate", "--graph", c4_path, "--model", "schrodinger",
               "--alpha", "sin:0.5,0.4,12.566370614359172",
               "--integrator", "rk45", "--t-end", "2", "--samples", "40",
               "--seed", "5", "--out", out, "--out-format", "json"])
    assert rc == 0
    payload = json.loads(open(out).read())
    prob = np.array(payload["rows"])[:, -4:]
    assert np.abs(prob.sum(axis=1) - 1.0).max() <= 1e-6
    stats = json.load(open(out + ".stats.json"))
    assert stats["norm_max_error"] <= 1e-4
    assert "min_heat_entry" not in stats


def test_simulate_directed_out_laplacian(digraph_path, tmp_path):
    out = str(tmp_path / "d.csv")
    rc = main(["simulate", "--graph", digraph_path, "--directed",
               "--laplacian", "out", "--alpha", "const:0.7",
               "--integrator", "rk45", "--t-end", "2", "--samples", "50",
               "--seed", "1", "--out", out])
    assert rc == 0
    _, table = read_trajectory(out)
    assert np.abs(table[:, 1:].sum(axis=1) - 1.0).max() <= 1e-5


# Schrodinger runs on directed kinds exit 2 (see below); the library's
# agreement on them is test_dynamics.py::test_exact_eigen_route_matches_bdf.
@pytest.mark.parametrize("model", ["heat"])
def test_simulate_directed_exact_matches_bdf(digraph_path, tmp_path, model):
    tables = {}
    for integrator in ("exact", "bdf"):
        out = str(tmp_path / f"{integrator}.csv")
        assert main(["simulate", "--graph", digraph_path, "--directed",
                     "--laplacian", "out", "--model", model,
                     "--alpha", "sin:0.5,0.4,12.566370614359172",
                     "--integrator", integrator, "--rtol", "1e-10",
                     "--atol", "1e-13", "--t-end", "1", "--samples", "40",
                     "--seed", "2", "--out", out]) == 0
        tables[integrator] = read_trajectory(out)[1]
        stats = json.load(open(out + ".stats.json"))
        assert stats["generator_route"] == "eigen"
        assert 1.0 <= stats["eigvec_condition"] <= 1e4
    assert np.abs(tables["exact"] - tables["bdf"]).max() <= 1e-8


@pytest.mark.parametrize("integrator", ["rk45", "exact"])
@pytest.mark.parametrize("kind", ["out", "in"])
def test_simulate_schrodinger_on_directed_kind_exits_two(kind, integrator,
                                                         tmp_path, capsys):
    # -i L^alpha is not skew-Hermitian on a digraph: no norm is conserved.
    path = tmp_path / "dg.edges"
    path.write_text("1 2\n2 3\n3 1\n1 3 0.5\n")
    out = tmp_path / "psi.csv"
    assert main(["simulate", "--graph", str(path), "--directed",
                 "--laplacian", kind, "--model", "schrodinger",
                 "--integrator", integrator, "--out", str(out)]) == 2
    assert "conserves no norm" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dg.edges"]


def test_simulate_kpath_saw_bdf_records_positivity(tmp_path):
    # n = 120 hands stale factorizations to bdf; the jump at t = 0.5 makes
    # at least one step re-solve with a fresh one.
    path = tmp_path / "ring.edges"
    path.write_text("".join(f"{u + 1} {v + 1}\n" for u, v, _ in
                            ring_with_chords(120, 12, seed=4).edges))
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--graph", str(path), "--laplacian", "kpath",
                 "--alpha", "saw:0.2,0.9,0.5", "--integrator", "bdf",
                 "--t-end", "1", "--seed", "5", "--out", out]) == 0
    states = read_trajectory(out)[1][:, 1:]
    stats = json.load(open(out + ".stats.json"))
    assert stats["min_heat_entry"] == states.min() >= -10 * 1e-9
    assert stats["entries_below_atol"] == np.count_nonzero(states < -1e-9)
    assert stats["iteration_restarts"] >= 1
    assert stats["factorizations"] < stats["linear_solves"]
    assert stats["mass_max_error"] <= 1e-12


@pytest.mark.parametrize("integrator, bound", [("exact", 1e-12),
                                               ("rk45", 1e-6), ("bdf", 1e-5)])
def test_simulate_nrw_schrodinger_reports_the_conserved_norm(
        integrator, bound, tmp_path):
    # -i L_rw^alpha conserves |psi D^-1/2|, not |psi|, which drifts by 5%.
    out = str(tmp_path / "psi.csv")
    assert main(["simulate", "--graph", KARATE, "--laplacian", "nrw",
                 "--model", "schrodinger", "--integrator", integrator,
                 "--t-end", "2", "--seed", "3", "--out", out]) == 0
    stats = json.load(open(out + ".stats.json"))
    assert stats["norm_max_error"] <= bound


def test_sidecar_counts_heat_entries_below_atol(c4_path):
    g = load_graph(c4_path)
    problem = DynamicsProblem(
        "heat", SpectralGenerator.from_matrix(combinatorial_laplacian(g)),
        parse_schedule("const:0.5"), np.full(4, 0.25), 1.0)
    states = np.array([[0.25, 0.25, 0.25, 0.25],
                       [0.5, 0.5 + 2.5e-9, -2e-9, -5e-10]])
    traj = Trajectory(np.array([0.0, 1.0]), states, StepStats())
    args = argparse.Namespace(model="heat", integrator="bdf", seed=0,
                              samples=2, t_end=1.0, laplacian="nsym",
                              atol=1e-9)
    payload = _sidecar(traj, args, g, problem)
    assert payload["min_heat_entry"] == -2e-9
    assert payload["entries_below_atol"] == 1


def test_simulate_sidecar_names_symmetric_route(c4_path, tmp_path):
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--graph", c4_path, "--t-end", "1",
                 "--out", out]) == 0
    stats = json.load(open(out + ".stats.json"))
    assert stats["generator_route"] == "symmetric"
    assert stats["eigvec_condition"] is None
    assert stats["iteration_restarts"] == 0


def test_power_command_general_kinds_match_schur(digraph_path, tmp_path):
    karate = load_graph(KARATE)
    digraph = load_graph(digraph_path, directed=True)
    cases = ((["--graph", KARATE, "--laplacian", "nrw"],
              normalized_laplacians(karate)[0]),
             (["--graph", digraph_path, "--directed", "--laplacian", "out"],
              directed_laplacians(digraph)[0]))
    for i, (argv, lap) in enumerate(cases):
        out = str(tmp_path / f"P{i}.csv")
        assert main(["power", *argv, "--alpha", "0.5", "--out", out]) == 0
        reference = power_from_factorization(triangular_factorization(lap),
                                             0.5)
        assert np.abs(read_matrix(out) - reference).max() <= 1e-12


# kind -> (needs a directed graph, library Laplacian, generator class)
KINDS = {
    "comb": (False, combinatorial_laplacian, SpectralGenerator),
    "nsym": (False, lambda g: normalized_laplacians(g)[1], SpectralGenerator),
    "nrw": (False, lambda g: normalized_laplacians(g)[0], GeneralGenerator),
    "out": (True, lambda g: directed_laplacians(g)[0], GeneralGenerator),
    "in": (True, lambda g: directed_laplacians(g)[1], GeneralGenerator),
    "kpath": (False, lambda g: transformed_k_path_laplacian(g, 1.5),
              KPathGenerator),
}
ROUTES = {SpectralGenerator: "symmetric", GeneralGenerator: "eigen",
          KPathGenerator: "kpath"}


@pytest.fixture
def kind_graph(tmp_path):
    """directed -> (CLI graph arguments, loaded graph); a weighted 4-cycle
    with one chord, so that nrw and nsym differ."""
    path = tmp_path / "chorded.edges"
    path.write_text("1 2\n2 3\n3 4\n4 1\n1 3 0.5\n")
    return {
        directed: (["--graph", str(path), "--kpath-alpha", "1.5"]
                   + (["--directed"] if directed else []),
                   load_graph(str(path), directed=directed))
        for directed in (False, True)}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_laplacian_command_writes_library_matrix(kind, kind_graph, tmp_path):
    directed, laplacian, _ = KINDS[kind]
    argv, g = kind_graph[directed]
    out = str(tmp_path / "L.csv")
    assert main(["laplacian", *argv, "--laplacian", kind, "--out", out]) == 0
    assert np.array_equal(read_matrix(out), laplacian(g))


@pytest.mark.parametrize("kind", sorted(set(KINDS) - {"kpath"}))
def test_power_command_uses_kind_generator(kind, kind_graph, tmp_path):
    directed, laplacian, generator = KINDS[kind]
    argv, g = kind_graph[directed]
    out = str(tmp_path / "P.csv")
    assert main(["power", *argv, "--laplacian", kind, "--alpha", "0.5",
                 "--out", out]) == 0
    expected = generator.from_matrix(laplacian(g)).matrix(0.5)
    assert np.array_equal(read_matrix(out), expected)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_simulate_builds_kind_generator(kind, kind_graph, tmp_path):
    directed, _, generator = KINDS[kind]
    argv, _ = kind_graph[directed]
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", *argv, "--laplacian", kind, "--t-end", "1",
                 "--samples", "5", "--out", out]) == 0
    stats = json.load(open(out + ".stats.json"))
    assert stats["generator_route"] == ROUTES[generator]


@pytest.mark.parametrize("command", ["laplacian", "power", "simulate"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_kind_on_graph_of_wrong_direction_exits_two(kind, command, kind_graph,
                                                    tmp_path):
    argv, _ = kind_graph[not KINDS[kind][0]]
    out = tmp_path / "x.csv"
    assert main([command, *argv, "--laplacian", kind,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_kind_from_config_exits_two(c4_path, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"laplacian": "kpth", "kpath_alpha": 1.0}))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(config), "--graph", c4_path,
                 "--out", str(out)]) == 2
    assert not out.exists()


def test_spectrum_command_nrw(tmp_path):
    out = str(tmp_path / "S.csv")
    assert main(["spectrum", "--graph", KARATE, "--laplacian", "nrw",
                 "--out", out]) == 0
    values = np.array([float(v) for v in open(out).read().split()])
    rw = normalized_laplacians(load_graph(KARATE))[0]
    assert np.abs(values - np.sort(np.linalg.eigvals(rw).real)).max() <= 1e-12


def test_simulate_stats_expose_stiffness_gap(tmp_path):
    # hub-dominated graph: the explicit integrator needs far more steps
    from conftest import hub_ring_graph

    g = hub_ring_graph(332, hub_weight=3.0)
    path = tmp_path / "hub.edges"
    path.write_text("\n".join(f"{u + 1} {v + 1} {w}" for u, v, w in g.edges))
    counts = {}
    for method in ("rk45", "bdf"):
        out = str(tmp_path / f"{method}.csv")
        rc = main(["simulate", "--graph", str(path), "--alpha", "expsat:10",
                   "--integrator", method, "--t-end", "10", "--seed", "2",
                   "--samples", "50", "--out", out])
        assert rc == 0
        counts[method] = json.load(open(out + ".stats.json"))["accepted_steps"]
    assert counts["rk45"] >= 5 * counts["bdf"]


def test_decay_command_reports_floor(c4_path, tmp_path):
    out = str(tmp_path / "decay.json")
    rc = main(["decay", "--graph", c4_path, "--alpha", "const:1",
               "--integrator", "exact", "--t-end", "10", "--seed", "3",
               "--out", out])
    assert rc == 0
    report = json.load(open(out))
    assert abs(report["rate"] - 2.0) <= 0.2
    assert report["rate_floor"] == pytest.approx(2.0)
    assert report["satisfies_floor"] is True


def test_floquet_command(c4_path, tmp_path):
    out = str(tmp_path / "floq.csv")
    rc = main(["floquet", "--graph", c4_path, "--alpha",
               "sin:0.5,0.4,12.566370614359172", "--period", "0.5",
               "--out", out])
    assert rc == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "re,im"
    values = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert values.shape == (4, 2)
    assert abs(values[0, 0]) <= 1e-12 and values[1, 0] < 0
    assert np.abs(values[:, 1]).max() == 0.0


def test_floquet_command_json_reads_back(c4_path, tmp_path):
    csv_out, json_out = str(tmp_path / "floq.csv"), str(tmp_path / "floq.json")
    argv = ["floquet", "--graph", c4_path, "--alpha",
            "sin:0.5,0.4,12.566370614359172", "--period", "0.5"]
    assert main(argv + ["--out", csv_out]) == 0
    assert main(argv + ["--out", json_out, "--out-format", "json"]) == 0
    payload = json.load(open(json_out))
    assert payload["period"] == 0.5
    rows = open(csv_out).read().strip().split("\n")[1:]
    assert payload["exponents"] == [[float(v) for v in ln.split(",")]
                                    for ln in rows]


@pytest.mark.parametrize("argv", [
    ["floquet", "--directed", "--laplacian", "out",
     "--alpha", "sin:0.5,0.3,6.283185307179586", "--period", "1"],
    ["simulate", "--graph", KARATE, "--model", "schrodinger",
     "--t-end", "2", "--samples", "5", "--seed", "3"]])
def test_csv_and_json_write_the_same_values(argv, tmp_path):
    """Both formats fold -0.0 into 0.0, so their number texts agree."""
    digraph = tmp_path / "dg.edges"
    digraph.write_text("1 2\n2 3\n3 1\n1 3 0.5\n")
    if "--graph" not in argv:
        argv = argv + ["--graph", str(digraph)]
    assert main(argv + ["--out", str(tmp_path / "o.csv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "o.json"),
                        "--out-format", "json"]) == 0
    csv_rows = [ln.split(",") for ln in
                (tmp_path / "o.csv").read_text().splitlines()[1:]]
    payload = json.loads((tmp_path / "o.json").read_text())
    json_rows = payload.get("exponents") or payload.get("rows")
    assert [[repr(v) for v in row] for row in json_rows] == csv_rows
    values = np.array(json_rows)
    assert not np.signbit(values[values == 0]).any()


@pytest.mark.parametrize("period", ["nan", "inf"])
def test_floquet_nonfinite_period_exits_two(c4_path, tmp_path, period):
    assert main(["floquet", "--graph", c4_path, "--alpha",
                 "sin:0.5,0.4,12.566370614359172", "--period", period,
                 "--out", str(tmp_path / "floq.csv")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["c4.edges"]


def test_config_file_with_flag_override(c4_path, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "graph": c4_path, "alpha": "const:0.5", "integrator": "exact",
        "t_end": 4.0, "seed": 9,
    }))
    out1 = str(tmp_path / "a.csv")
    assert main(["simulate", "--config", str(config), "--out", out1]) == 0
    _, table = read_trajectory(out1)
    assert table[-1, 0] == 4.0
    # explicit flag wins over the config file
    out2 = str(tmp_path / "b.csv")
    assert main(["simulate", "--config", str(config), "--t-end", "1",
                 "--out", out2]) == 0
    _, table = read_trajectory(out2)
    assert table[-1, 0] == 1.0


def test_config_file_unknown_key_exits_two(c4_path, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"t_edn": 5, "t-end": 1}))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--config", str(config), "--graph", c4_path,
                 "--out", str(out)]) == 2
    assert "unknown keys ['t_edn']" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_not_utf8_exits_two_naming_it(c4_path, tmp_path,
                                                  capsys):
    config = tmp_path / "run.json"
    config.write_bytes(b"\xff\xfe")
    assert main(["simulate", "--config", str(config), "--graph", c4_path,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert f"config file {config}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.edges",
                                                          "run.json"]


@pytest.mark.parametrize("entry", [
    {"samples": 3.7}, {"seed": 1.9}, {"model": "quantum"},
    {"laplacian": "bogus"}, {"directed": "no"}, {"out": ["x"]},
    {"config": "other.json"}])
def test_config_value_the_flag_would_reject_exits_two(entry, c4_path, tmp_path,
                                                      capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entry))
    assert main(["simulate", "--config", str(config), "--graph", c4_path,
                 "--t-end", "1", "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert str(config) in err and next(iter(entry)) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c4.edges",
                                                          "run.json"]


def test_config_number_given_as_string_is_parsed_like_the_flag(c4_path,
                                                               tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"t_end": "5"}))
    out = str(tmp_path / "a.csv")
    assert main(["simulate", "--config", str(config), "--graph", c4_path,
                 "--integrator", "exact", "--out", out]) == 0
    assert read_trajectory(out)[1][-1, 0] == 5.0


@pytest.mark.parametrize("entries, flags, graph", [
    ({"t_end": 2.5}, ["--t-end", "2.5"], "c4"),
    ({"rtol": 1e-8}, ["--rtol", "1e-8"], "c4"),
    ({"atol": 1e-11}, ["--atol", "1e-11"], "c4"),
    ({"samples": 17}, ["--samples", "17"], "c4"),
    ({"seed": 9}, ["--seed", "9"], "c4"),
    ({"alpha": "saw:0.2,0.9,0.5"}, ["--alpha", "saw:0.2,0.9,0.5"], "c4"),
    ({"integrator": "bdf"}, ["--integrator", "bdf"], "c4"),
    ({"model": "schrodinger"}, ["--model", "schrodinger"], "c4"),
    ({"laplacian": "kpath", "kpath_alpha": 1.5},
     ["--laplacian", "kpath", "--kpath-alpha", "1.5"], "c4"),
    ({"out_format": "json"}, ["--out-format", "json"], "c4"),
    ({"directed": True, "laplacian": "out"}, ["--directed", "--laplacian", "out"],
     "ring"),
    ({"largest_component": True}, ["--largest-component"], "two"),
    # null leaves an option unset, and floquet's period is ignored here
    ({"t_end": None, "period": 0.5}, [], "c4"),
])
def test_config_value_runs_like_the_flag(entries, flags, graph, c4_path,
                                         digraph_path, tmp_path):
    two = tmp_path / "two.edges"
    two.write_text("1 2\n2 3\n3 1\n4 5\n")
    graph = {"c4": c4_path, "ring": digraph_path, "two": str(two)}[graph]
    config = tmp_path / "run.json"
    config.write_text(json.dumps(entries))
    by_file, by_flag = str(tmp_path / "file.csv"), str(tmp_path / "flag.csv")
    assert main(["simulate", "--config", str(config), "--graph", graph,
                 "--out", by_file]) == 0
    assert main(["simulate", *flags, "--graph", graph, "--out", by_flag]) == 0
    for suffix in ("", ".stats.json"):
        assert open(by_file + suffix, "rb").read() \
            == open(by_flag + suffix, "rb").read()


def test_largest_component_flag(tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("1 2\n2 3\n3 1\n4 5\n")
    out = str(tmp_path / "L.csv")
    assert main(["laplacian", "--graph", str(path), "--largest-component",
                 "--out", out]) == 0
    assert read_matrix(out).shape == (3, 3)


# ---------------------------------------------------------------------------
# --out
# ---------------------------------------------------------------------------

_OUT_COMMANDS = {
    "laplacian": [],
    "power": [],
    "kpath": ["--kpath-alpha", "1"],
    "spectrum": [],
    "simulate": ["--integrator", "exact"],
    "floquet": ["--alpha", "sin:0.5,0.4,12.566370614359172", "--period", "0.5"],
}


@pytest.mark.parametrize("command", sorted(_OUT_COMMANDS))
def test_missing_out_exits_two_before_the_graph_is_read(
        command, c4_path, tmp_path, monkeypatch, capsys):
    calls = []
    load_graph = graphs.load_graph

    def spy(*args, **kwargs):
        calls.append(args)
        return load_graph(*args, **kwargs)

    monkeypatch.setattr(graphs, "load_graph", spy)
    monkeypatch.chdir(tmp_path)
    argv = [command, "--graph", c4_path, *_OUT_COMMANDS[command]]
    assert main(argv) == 2
    assert "--out is required" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["c4.edges"]
    # the same run with --out reads the graph once and writes its file
    assert main(argv + ["--out", "x.out"]) == 0
    assert len(calls) == 1 and (tmp_path / "x.out").exists()


def test_out_from_a_config_file_satisfies_the_check(c4_path, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"out": str(tmp_path / "a.csv")}))
    assert main(["spectrum", "--graph", c4_path, "--config", str(config)]) == 0
    assert main(["spectrum", "--graph", c4_path,
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_decay_without_out_prints_the_report(c4_path, tmp_path, monkeypatch,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["decay", "--graph", c4_path, "--alpha", "const:1",
            "--integrator", "exact", "--t-end", "10", "--seed", "3"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == ["c4.edges"]
    assert printed == json.dumps(json.loads(printed), indent=2,
                                 sort_keys=True) + "\n"
    assert main(argv + ["--out", "decay.json"]) == 0
    assert (tmp_path / "decay.json").read_text() == printed


def test_only_decay_defaults_to_json():
    parser = _build_parser()
    for command in sorted(_OUT_COMMANDS):
        assert parser.parse_args([command]).out_format == "csv"
    assert parser.parse_args(["decay"]).out_format == "json"


@pytest.mark.parametrize("source", ["flag", "config"])
def test_decay_csv_exits_two_before_the_graph_is_read(
        source, c4_path, tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(graphs, "load_graph",
                        lambda *args, **kwargs: calls.append(args))
    monkeypatch.chdir(tmp_path)
    argv = ["decay", "--graph", c4_path, "--out", "d.csv"]
    if source == "flag":
        argv += ["--out-format", "csv"]
    else:
        (tmp_path / "run.json").write_text('{"out_format": "csv"}')
        argv += ["--config", "run.json"]
    assert main(argv) == 2
    assert "decay writes its report as JSON only" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "d.csv").exists()


def test_decay_writes_json_to_any_out_name(c4_path, tmp_path):
    argv = ["decay", "--graph", c4_path, "--alpha", "const:1",
            "--integrator", "exact", "--t-end", "10"]
    assert main(argv + ["--out", str(tmp_path / "d.csv")]) == 0
    assert main(argv + ["--out", str(tmp_path / "d.json"),
                        "--out-format", "json"]) == 0
    report = (tmp_path / "d.csv").read_text()
    assert json.loads(report)["satisfies_floor"] is True
    assert report == (tmp_path / "d.json").read_text()


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_exit_code_config_errors(c4_path, digraph_path, tmp_path):
    out = str(tmp_path / "x.csv")
    # directed kind on an undirected graph and vice versa
    assert main(["simulate", "--graph", c4_path, "--laplacian", "out",
                 "--out", out]) == 2
    assert main(["simulate", "--graph", digraph_path, "--directed",
                 "--laplacian", "comb", "--out", out]) == 2
    # malformed schedule, negative horizon, missing inputs
    assert main(["simulate", "--graph", c4_path, "--alpha", "wavelet:1",
                 "--out", out]) == 2
    assert main(["simulate", "--graph", c4_path, "--t-end", "-2",
                 "--out", out]) == 2
    assert main(["simulate", "--out", out]) == 2
    assert main(["simulate", "--graph", c4_path]) == 2
    # exact integrator on a Schur-route generator: a directed 8-ring whose
    # closing arc weighs 1e-10 has kappa(V) ~ 5e8
    weak = tmp_path / "weak.edges"
    weak.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 8))
                    + "8 1 1e-10\n")
    assert main(["simulate", "--graph", str(weak), "--directed",
                 "--laplacian", "out", "--integrator", "exact",
                 "--out", out]) == 2
    # nothing was written by any of the rejected runs
    assert not (tmp_path / "x.csv").exists()


_SINE = "sin:0.5,0.4,12.566370614359172"


@pytest.mark.parametrize("argv, message", [
    (["floquet", "--laplacian", "kpath", "--kpath-alpha", "1",
      "--alpha", _SINE, "--period", "0.5"],
     "floquet analysis needs a fractional Laplacian kind"),
    (["floquet", "--alpha", _SINE], "--period is required"),
    (["decay", "--model", "schrodinger"],
     "decay analysis applies to the heat model"),
    (["decay", "--laplacian", "nsym"],
     "decay analysis needs the comb or kpath kind"),
    (["spectrum", "--directed", "--laplacian", "out"],
     "spectrum needs an undirected graph"),
    (["laplacian", "--laplacian", "kpath"],
     "--kpath-alpha is required for the kpath kind"),
    (["power", "--alpha", _SINE],
     f"power needs a constant exponent, got schedule {_SINE!r}"),
    (["simulate", "--config", "run.json"],
     "config file must hold a JSON object"),
    (["power", "--laplacian", "kpath", "--kpath-alpha", "1"],
     "power applies to fractional kinds; use the kpath command"),
])
def test_rejected_command_exits_two_with_its_message(
        argv, message, c4_path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text('["t_end", 2]')
    before = sorted(p.name for p in tmp_path.iterdir())
    load_graph, loaded = graphs.load_graph, []
    monkeypatch.setattr(graphs, "load_graph",
                        lambda *a, **k: loaded.append(a) or load_graph(*a, **k))
    assert main(argv + ["--graph", c4_path, "--out", "x.out"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    # Only the graph's direction and the kpath kind's --kpath-alpha are
    # checked after the load; every other refusal reads no graph.
    assert len(loaded) == (argv[0] in ("spectrum", "laplacian"))


@pytest.mark.parametrize("flag, value", [
    ("--t-end", "inf"), ("--t-end", "nan"), ("--rtol", "inf"),
    ("--rtol", "nan"), ("--atol", "inf"), ("--atol", "nan")])
def test_nonfinite_run_setting_exits_two(c4_path, tmp_path, flag, value):
    assert main(["simulate", "--graph", c4_path, flag, value,
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["c4.edges"]


def test_exit_code_numeric_failure(tmp_path):
    # enormous edge weight makes the explicit integrator collapse its step
    path = tmp_path / "hot.edges"
    path.write_text("1 2 1e15\n")
    out = str(tmp_path / "x.csv")
    rc = main(["simulate", "--graph", str(path), "--alpha", "const:1",
               "--integrator", "rk45", "--t-end", "1", "--out", out])
    assert rc == 3
    assert not (tmp_path / "x.csv").exists()


def test_weak_ring_power_and_simulate_succeed(tmp_path):
    # A directed 30-ring whose closing arc weighs 1e-10 (kappa(V) ~ 6.5e9)
    # takes the Schur route; its zero eigenvalue deflates, so the power is
    # real to rounding and every run completes.
    weak = tmp_path / "weak.edges"
    weak.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 30))
                    + "30 1 1e-10\n")
    lap = directed_laplacians(load_graph(str(weak), directed=True))[0]
    common = ["--graph", str(weak), "--directed", "--laplacian", "out"]
    out = str(tmp_path / "P.csv")
    assert main(["power", "--alpha", "0.5", *common, "--out", out]) == 0
    power = read_matrix(out)
    assert np.abs(power @ power - lap).max() <= 1e-12
    for integrator in ("rk45", "bdf"):
        out = str(tmp_path / f"{integrator}.csv")
        assert main(["simulate", "--integrator", integrator, "--t-end", "1",
                     *common, "--out", out]) == 0
        stats = json.load(open(out + ".stats.json"))
        assert stats["generator_route"] == "schur"
        assert stats["mass_max_error"] <= 1e-10


@pytest.mark.parametrize("descriptor", [
    "sin:nan,0.1,1", "sin:0.5,nan,1", "sin:0.5,0.4,nan", "sin:0.5,0.4,inf",
    "expsat:nan", "expsat:inf", "saw:0.2,0.9,nan", "saw:0.2,0.9,inf",
    "tri:0.2,0.9,nan", "spline:0=0.5;nan=0.6;2=0.7"])
def test_non_finite_schedule_parameter_exits_two(descriptor, c4_path,
                                                 tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--graph", c4_path, "--alpha", descriptor,
                 "--t-end", "1", "--out", str(out)]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_expsat_rate_whose_probe_window_overflows_exits_two(c4_path, tmp_path,
                                                           capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--graph", c4_path, "--alpha", "expsat:1e-320",
                 "--t-end", "1", "--out", str(out)]) == 2
    assert "probe window" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "x.csv.stats.json").exists()


def test_exit_code_io_failure(c4_path, tmp_path):
    out = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    rc = main(["simulate", "--graph", c4_path, "--t-end", "1", "--out", out])
    assert rc == 4


def test_exit_code_unreadable_graph(tmp_path):
    out = str(tmp_path / "x.csv")
    rc = main(["simulate", "--graph", str(tmp_path / "missing.edges"),
               "--out", out])
    assert rc == 2


def test_argparse_errors_exit_two(capsys):
    assert main(["simulate", "--integrator", "rk999"]) == 2
    capsys.readouterr()
