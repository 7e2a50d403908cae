import json

import numpy as np
import pytest

from conftest import DATA
from fraclap import (
    GeneralGenerator,
    KPathGenerator,
    SpectralGenerator,
    combinatorial_laplacian,
    directed_laplacians,
    fractional_power_general,
    load_graph,
    normalized_laplacians,
    transformed_k_path_laplacian,
)
from fraclap.cli import main
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


def test_simulate_directed_out_laplacian(digraph_path, tmp_path):
    out = str(tmp_path / "d.csv")
    rc = main(["simulate", "--graph", digraph_path, "--directed",
               "--laplacian", "out", "--alpha", "const:0.7",
               "--integrator", "rk45", "--t-end", "2", "--samples", "50",
               "--seed", "1", "--out", out])
    assert rc == 0
    _, table = read_trajectory(out)
    assert np.abs(table[:, 1:].sum(axis=1) - 1.0).max() <= 1e-5


@pytest.mark.parametrize("model", ["heat", "schrodinger"])
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


def test_simulate_sidecar_names_symmetric_route(c4_path, tmp_path):
    out = str(tmp_path / "traj.csv")
    assert main(["simulate", "--graph", c4_path, "--t-end", "1",
                 "--out", out]) == 0
    stats = json.load(open(out + ".stats.json"))
    assert stats["generator_route"] == "symmetric"
    assert stats["eigvec_condition"] is None


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
        reference = fractional_power_general(lap, 0.5)
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


def test_largest_component_flag(tmp_path):
    path = tmp_path / "two.edges"
    path.write_text("1 2\n2 3\n3 1\n4 5\n")
    out = str(tmp_path / "L.csv")
    assert main(["laplacian", "--graph", str(path), "--largest-component",
                 "--out", out]) == 0
    assert read_matrix(out).shape == (3, 3)


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


def test_exit_code_numeric_failure(tmp_path):
    # enormous edge weight makes the explicit integrator collapse its step
    path = tmp_path / "hot.edges"
    path.write_text("1 2 1e15\n")
    out = str(tmp_path / "x.csv")
    rc = main(["simulate", "--graph", str(path), "--alpha", "const:1",
               "--integrator", "rk45", "--t-end", "1", "--out", out])
    assert rc == 3
    assert not (tmp_path / "x.csv").exists()


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
