import numpy as np
import pytest

from conftest import (
    cycle_graph,
    directed_ring_with_chords,
    k_path_laplacian,
    ring_with_chords,
)
from fraclap import (
    Graph,
    GraphParseError,
    adjacency_and_degrees,
    all_pairs_distances,
    combinatorial_laplacian,
    connectivity,
    directed_laplacians,
    load_graph,
    normalized_laplacians,
    transformed_k_path_laplacian,
)

C4_LAPLACIAN = np.array([
    [2.0, -1.0, 0.0, -1.0],
    [-1.0, 2.0, -1.0, 0.0],
    [0.0, -1.0, 2.0, -1.0],
    [-1.0, 0.0, -1.0, 2.0],
])


# ---------------------------------------------------------------------------
# Graph type
# ---------------------------------------------------------------------------

def test_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, ((0, 0, 1.0),))


def test_graph_rejects_duplicate_undirected_pair():
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((0, 1, 1.0), (1, 0, 2.0)))


def test_graph_rejects_nonpositive_weight():
    with pytest.raises(ValueError, match="weight"):
        Graph(2, ((0, 1, 0.0),))


@pytest.mark.parametrize("weight", [float("inf"), float("nan")])
def test_graph_rejects_nonfinite_weight(weight):
    with pytest.raises(ValueError, match="not positive and finite"):
        Graph(2, ((0, 1, weight),))


def test_graph_rejects_out_of_range_index():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, ((0, 2, 1.0),))


def test_graph_rejects_a_non_integer_node_count():
    with pytest.raises(ValueError, match="integer"):
        Graph(2.5, ((0, 1, 1.0),))
    assert Graph(np.int64(3), ((0, 1, 1.0),)).n == 3


def test_graph_rejects_a_non_integer_index():
    with pytest.raises(ValueError, match="indices must be integers"):
        Graph(3, ((0, 1.5, 1.0),))
    assert Graph(3, ((np.int64(0), np.int64(2), 1.0),)).m == 1


@pytest.mark.parametrize("edge", [("a", 1, 1.0), (None, 1, 1.0),
                                  (0, "2", 1.0)])
def test_graph_rejects_an_index_that_is_not_a_number(edge):
    with pytest.raises(ValueError, match=r"out of range: indices must be "
                                         r"integers in 0\.\.2"):
        Graph(3, (edge,))


@pytest.mark.parametrize("weight", ["2", None, 1 + 0j, np.complex128(1)])
def test_graph_rejects_a_weight_that_is_not_a_real_number(weight):
    with pytest.raises(ValueError, match="not positive and finite"):
        Graph(3, ((0, 1, weight),))


def test_directed_graph_keeps_antiparallel_edges():
    g = Graph(2, ((0, 1, 1.0), (1, 0, 1.0)), directed=True)
    assert g.m == 2


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_load_edge_list_c4(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("1 2\n2 3\n3 4\n4 1\n")
    g = load_graph(path)
    assert g.n == 4 and g.m == 4 and not g.directed
    assert all(w == 1.0 for _, _, w in g.edges)


def test_load_edge_list_comments_and_weights(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("% header\n# another\n1 2 3.5\n2 3\n")
    g = load_graph(path)
    assert g.edges[0][2] == 3.5 and g.edges[1][2] == 1.0


def test_load_edge_list_self_loop_rejected(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("1 2\n2 2\n")
    with pytest.raises(GraphParseError, match="self-loop") as err:
        load_graph(path)
    assert err.value.line == 2


MTX_HEADER = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n"


MALFORMED_ENTRIES = [
    ("text.edges", "1 2\nnot an edge at all\n", 2),
    ("zero_index.mtx", MTX_HEADER + "0 1 1.0\n", 4),
    ("index_above_n.mtx", MTX_HEADER + "2 7 1.0\n", 4),
    ("negative_weight.mtx", MTX_HEADER + "2 3 -1.0\n", 4),
    ("zero_weight.edges", "1 2\n% comment\n1 3 0\n", 3),
    ("nan_weight.edges", "1 2 nan\n", 1),
    ("inf_weight.edges", "1 2\n2 3 inf\n", 2),
    ("inf_weight.mtx", MTX_HEADER + "2 3 inf\n", 4),
    ("size_not_integer.mtx",
     "%%MatrixMarket matrix coordinate real general\n% c\n3 3 x\n", 3),
    ("size_zero.mtx", "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
     2),
]


@pytest.mark.parametrize("name, text, line", MALFORMED_ENTRIES,
                         ids=[case[0] for case in MALFORMED_ENTRIES])
def test_load_malformed_entry_names_path_and_line(tmp_path, name, text, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(GraphParseError) as err:
        load_graph(path)
    assert err.value.line == line
    assert str(err.value).startswith(f"{path}:{line}: ")


# One edge per rule, placed after the good edge (0, 1) on nodes 0..2.  words
# renders the message with nodes numbered from base and the pair's first edge
# named at; a Graph numbers from 0, a file from 1.
EDGE_RULES = [
    ("range", False, (-1, 2, 1.0), lambda b, at:
     f"edge ({b - 1}, {b + 2}) out of range: indices must be integers in "
     f"{b}..{b + 2}"),
    ("self-loop", False, (2, 2, 1.0),
     lambda b, at: f"self-loop at node {b + 2}"),
    ("zero weight", False, (1, 2, 0.0), lambda b, at:
     f"edge ({b + 1}, {b + 2}) has weight 0.0, not positive and finite"),
    ("nan weight", False, (1, 2, float("nan")), lambda b, at:
     f"edge ({b + 1}, {b + 2}) has weight nan, not positive and finite"),
    ("inf weight", True, (2, 1, float("inf")), lambda b, at:
     f"edge ({b + 2}, {b + 1}) has weight inf, not positive and finite"),
    ("undirected duplicate", False, (1, 0, 2.0),
     lambda b, at: f"duplicate edge ({b + 1}, {b}), first seen at {at}"),
    ("directed duplicate", True, (0, 1, 2.0),
     lambda b, at: f"duplicate edge ({b}, {b + 1}), first seen at {at}"),
]


@pytest.mark.parametrize("rule, directed, bad, words", EDGE_RULES,
                         ids=[case[0] for case in EDGE_RULES])
def test_one_rule_set_for_graph_edge_list_and_matrix_market(
        tmp_path, rule, directed, bad, words):
    with pytest.raises(ValueError) as err:
        Graph(3, ((0, 1, 1.0), bad), directed=directed)
    assert str(err.value) == words(0, "edges[0]")

    u, v, w = bad[0] + 1, bad[1] + 1, bad[2]
    kind = "general" if directed else "symmetric"
    files = {
        "g.edges": f"1 2 1.0\n% comment\n{u} {v} {w}\n",
        "g.mtx": f"%%MatrixMarket matrix coordinate real {kind}\n"
                 f"3 3 2\n% comment\n1 2 1.0\n% comment\n{u} {v} {w}\n",
    }
    for name, text in files.items():
        path = tmp_path / name
        path.write_text(text)
        first, line = (1, 3) if name == "g.edges" else (4, 6)
        with pytest.raises(GraphParseError) as err:
            load_graph(path, directed=directed)
        assert err.value.line == line
        assert str(err.value) == f"{path}:{line}: {words(1, f'line {first}')}"


def test_load_non_utf8_file_names_path_and_line(tmp_path):
    path = tmp_path / "latin.edges"
    path.write_bytes(b"1 2\n2 3 \xff\n")
    with pytest.raises(GraphParseError, match="not UTF-8") as err:
        load_graph(path)
    assert err.value.line == 2
    assert str(err.value).startswith(f"{path}:2: ")


def test_load_edge_list_duplicate_rejected(tmp_path):
    path = tmp_path / "dup.edges"
    path.write_text("1 2\n2 1\n")
    with pytest.raises(GraphParseError, match="duplicate"):
        load_graph(path)


def test_load_karate_matrix_market(karate):
    assert karate.n == 34 and karate.m == 78 and not karate.directed


def test_load_matrix_market_general_is_directed(tmp_path):
    path = tmp_path / "d.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 2 1.0\n2 3 2.0\n")
    g = load_graph(path)
    assert g.directed and g.edges[1][2] == 2.0


def test_load_matrix_market_bad_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a header\n1 1 0\n")
    with pytest.raises(GraphParseError, match="header"):
        load_graph(path)


# ---------------------------------------------------------------------------
# Degrees and Laplacians
# ---------------------------------------------------------------------------

def test_adjacency_and_degrees_c4(c4):
    a, d, d_in, d_out = adjacency_and_degrees(c4)
    assert np.array_equal(d, 2.0 * np.eye(4))
    assert np.array_equal(d, d_in) and np.array_equal(d, d_out)
    assert a[0, 1] == a[1, 0] == 1.0 and a[0, 2] == 0.0


def test_degrees_directed_path():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)), directed=True)
    _, _, d_in, d_out = adjacency_and_degrees(g)
    assert np.array_equal(np.diag(d_out), [1.0, 1.0, 0.0])
    assert np.array_equal(np.diag(d_in), [0.0, 1.0, 1.0])


def test_degrees_weighted_single_edge():
    g = Graph(2, ((0, 1, 3.0),))
    _, d, _, _ = adjacency_and_degrees(g)
    assert np.array_equal(d, np.diag([3.0, 3.0]))


def test_combinatorial_laplacian_c4(c4):
    assert np.array_equal(combinatorial_laplacian(c4), C4_LAPLACIAN)


def test_combinatorial_laplacian_single_edge():
    lap = combinatorial_laplacian(Graph(2, ((0, 1, 1.0),)))
    assert np.array_equal(lap, [[1.0, -1.0], [-1.0, 1.0]])


def test_combinatorial_laplacian_karate_row_sums(karate):
    lap = combinatorial_laplacian(karate)
    assert lap.shape == (34, 34)
    assert np.array_equal(lap, lap.T)
    assert np.abs(lap @ np.ones(34)).max() == 0.0


def test_combinatorial_laplacian_rejects_directed():
    g = Graph(2, ((0, 1, 1.0),), directed=True)
    with pytest.raises(ValueError, match="directed_laplacians"):
        combinatorial_laplacian(g)


def test_directed_laplacians_two_cycle():
    g = Graph(2, ((0, 1, 1.0), (1, 0, 1.0)), directed=True)
    l_out, l_in = directed_laplacians(g)
    assert np.array_equal(l_out, [[1.0, -1.0], [-1.0, 1.0]])
    assert np.array_equal(l_in, l_out)


def test_directed_laplacian_sink_row_is_zero():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)), directed=True)
    l_out, _ = directed_laplacians(g)
    assert np.array_equal(l_out[2], np.zeros(3))


def test_directed_laplacian_null_vectors(digraph5):
    l_out, l_in = directed_laplacians(digraph5)
    one = np.ones(5)
    assert np.abs(l_out @ one).max() <= 1e-12
    assert np.abs(one @ l_in).max() <= 1e-12


def test_normalized_laplacians_c4(c4):
    rw, sym = normalized_laplacians(c4)
    a, _, _, _ = adjacency_and_degrees(c4)
    assert np.allclose(rw, np.eye(4) - a / 2.0, atol=1e-15)
    # D^{-1} W is row stochastic
    assert np.abs((np.eye(4) - rw).sum(axis=1) - 1.0).max() <= 1e-14
    assert np.allclose(sym, rw, atol=1e-15)  # degree-regular graph


def test_normalized_laplacians_single_edge():
    rw, _ = normalized_laplacians(Graph(2, ((0, 1, 1.0),)))
    assert np.allclose(rw, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)


def test_normalized_laplacians_isolated_vertex_named():
    g = Graph(3, ((0, 1, 1.0),))
    with pytest.raises(ValueError, match="vertex 2"):
        normalized_laplacians(g)


# ---------------------------------------------------------------------------
# Distances and connectivity
# ---------------------------------------------------------------------------

def test_distances_c4(c4):
    dm = all_pairs_distances(c4)
    assert dm.diameter == 2
    assert sorted(set(dm.hops.ravel())) == [0.0, 1.0, 2.0]
    assert np.array_equal(dm.hops, dm.hops.T)


def test_distances_disconnected():
    g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    dm = all_pairs_distances(g)
    assert np.isinf(dm.hops[0, 2]) and np.isinf(dm.hops[3, 1])
    assert dm.diameter == 1


def test_distances_karate_connected(karate):
    dm = all_pairs_distances(karate)
    assert np.all(np.isfinite(dm.hops))
    assert dm.diameter == 5


def test_distances_directed_asymmetric():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)), directed=True)
    dm = all_pairs_distances(g)
    assert dm.hops[0, 2] == 2.0 and dm.hops[2, 0] == 1.0


def test_connectivity_c4(c4):
    report = connectivity(c4)
    assert report.is_connected and len(report.components) == 1
    assert report.node_map == (0, 1, 2, 3)


def test_connectivity_largest_component_extraction():
    # 5-node component (0..4 ring) and 2-node component (5, 6)
    edges = tuple((i, (i + 1) % 5, 1.0) for i in range(5)) + ((5, 6, 2.0),)
    g = Graph(7, edges)
    report = connectivity(g)
    assert not report.is_connected
    assert [len(c) for c in report.components] == [5, 2]
    sub = report.largest_component
    assert sub.n == 5 and sub.m == 5
    assert report.node_map == (0, 1, 2, 3, 4)
    assert connectivity(sub).is_connected


def test_connectivity_directed_path_not_strong():
    g = Graph(3, ((0, 1, 1.0), (1, 2, 1.0)), directed=True)
    report = connectivity(g)
    assert not report.is_connected
    assert len(report.components) == 3


def test_connectivity_directed_ring_strong(digraph5):
    assert connectivity(digraph5).is_connected


# ---------------------------------------------------------------------------
# k-path Laplacians
# ---------------------------------------------------------------------------

def test_k_path_c4_k2(c4):
    expected = np.array([
        [1.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, -1.0],
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 1.0],
    ])
    assert np.array_equal(k_path_laplacian(c4, 2), expected)


def test_k_path_beyond_diameter_is_zero(c4):
    assert np.array_equal(k_path_laplacian(c4, 3), np.zeros((4, 4)))


def test_k_path_k1_equals_combinatorial_for_unit_weights():
    g = ring_with_chords(12, 6, seed=3)
    assert np.array_equal(k_path_laplacian(g, 1), combinatorial_laplacian(g))


def test_k_path_rejects_disconnected():
    g = Graph(4, ((0, 1, 1.0), (2, 3, 1.0)))
    with pytest.raises(ValueError, match="connected"):
        transformed_k_path_laplacian(g, 1.0)


def test_transformed_k_path_c4_alpha1(c4):
    expected = np.array([
        [2.5, -1.0, -0.5, -1.0],
        [-1.0, 2.5, -1.0, -0.5],
        [-0.5, -1.0, 2.5, -1.0],
        [-1.0, -0.5, -1.0, 2.5],
    ])
    assert np.abs(transformed_k_path_laplacian(c4, 1.0) - expected).max() <= 1e-15


def test_transformed_k_path_c4_eigenvalue_curve(c4):
    for alpha in (0.0, 0.5, 1.0, 2.0, 5.0):
        eig = np.linalg.eigvalsh(transformed_k_path_laplacian(c4, alpha))
        mid = 2.0 ** (1 - alpha) * (2.0 ** alpha + 1)
        expected = np.sort([0.0, 4.0, mid, mid])
        assert np.abs(eig - expected).max() <= 1e-10


def test_transformed_k_path_large_alpha_approaches_laplacian(c4):
    lg = transformed_k_path_laplacian(c4, 30.0)
    assert np.abs(lg - combinatorial_laplacian(c4)).max() <= 1e-8


def test_transformed_k_path_rejects_negative_alpha(c4):
    with pytest.raises(ValueError):
        transformed_k_path_laplacian(c4, -0.5)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_transformed_k_path_rejects_nonfinite_alpha(c4, alpha):
    with pytest.raises(ValueError, match="finite"):
        transformed_k_path_laplacian(c4, alpha)


# ---------------------------------------------------------------------------
# Structural invariants on random graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_k_path_rows_sum_to_zero_exactly(seed):
    g = ring_with_chords(20, 10, seed=seed)
    dm = all_pairs_distances(g)
    for k in range(1, dm.diameter + 1):
        lap = k_path_laplacian(g, k)
        assert np.abs(lap @ np.ones(g.n)).max() == 0.0


@pytest.mark.parametrize("seed", range(4))
def test_laplacian_m_matrix_sign_pattern(seed):
    g = ring_with_chords(25, 15, seed=seed, weights=True)
    lap = combinatorial_laplacian(g)
    off = lap - np.diag(np.diag(lap))
    assert off.max() <= 0.0
    assert np.diag(lap).min() >= 0.0
    # diagonal dominance with zero row sums
    assert np.abs(np.diag(lap) - np.abs(off).sum(axis=1)).max() <= 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.7, 2.5])
def test_transformed_k_path_positive_semidefinite(alpha):
    g = ring_with_chords(18, 9, seed=5)
    eig = np.linalg.eigvalsh(transformed_k_path_laplacian(g, alpha))
    assert eig.min() >= -1e-10


def test_directed_laplacian_null_vectors_random():
    g = directed_ring_with_chords(9, [(0, 4, 1.5), (6, 2, 0.25), (3, 8, 1.0)])
    l_out, l_in = directed_laplacians(g)
    assert np.abs(l_out @ np.ones(9)).max() <= 1e-12
    assert np.abs(np.ones(9) @ l_in).max() <= 1e-12
