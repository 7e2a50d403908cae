"""Property tests for hop distances, components and the hop-coupling operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclap.stability
from conftest import k_path_laplacian
from fraclap import (
    Graph,
    KPathGenerator,
    all_pairs_distances,
    connectivity,
    steady_state,
    transformed_k_path_laplacian,
)
from fraclap.graphs import _hop_coupling

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
ALPHAS = (0.0, 0.5, 1.0, 2.5)


@st.composite
def graphs(draw, directed=st.booleans(), connected=False):
    """Simple graphs on at most 30 nodes with arbitrary positive weights.

    With connected=True the first n - 1 edges form a random spanning tree.
    """
    n = draw(st.integers(1, 30))
    is_directed = draw(directed)
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] \
        if connected else []
    if n > 1:
        m = draw(st.integers(0, 3 * n))
        extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(1, n - 1)),
                              min_size=m, max_size=m))
        pairs += [(u, (u + shift) % n) for u, shift in extra]
    keys = {}
    for u, v in pairs:
        key = (u, v) if is_directed else (min(u, v), max(u, v))
        keys.setdefault(key, draw(st.floats(0.1, 10.0)))
    return Graph(n, tuple((u, v, w) for (u, v), w in keys.items()),
                 directed=is_directed)


def arc_pattern(g: Graph) -> np.ndarray:
    arcs = np.zeros((g.n, g.n), dtype=bool)
    for u, v, _ in g.edges:
        arcs[u, v] = True
        if not g.directed:
            arcs[v, u] = True
    return arcs


@PROPERTY
@given(graphs())
def test_distances_solve_the_bfs_equations(g):
    hops = all_pairs_distances(g).hops
    arcs = arc_pattern(g)
    # 1 + min over out-neighbours w of hops[w, v]; inf with no finite route.
    through = 1.0 + np.where(arcs[:, :, None], hops[None, :, :], np.inf).min(axis=1)
    expected = np.where(arcs, 1.0, through)
    np.fill_diagonal(expected, 0.0)
    assert np.array_equal(hops, expected)


@PROPERTY
@given(graphs())
def test_components_are_mutual_reachability_classes(g):
    report = connectivity(g)
    comps = [list(c) for c in report.components]
    assert sorted(u for c in comps for u in c) == list(range(g.n))
    assert comps == sorted(comps, key=lambda c: (-len(c), c))
    label = np.empty(g.n, dtype=int)
    for i, c in enumerate(comps):
        label[c] = i
    hops = all_pairs_distances(g).hops
    mutual = np.isfinite(hops) & np.isfinite(hops.T)
    assert np.array_equal(label[:, None] == label[None, :], mutual)
    assert report.is_connected == (len(comps) == 1)
    assert report.node_map == report.components[0]


def induced_subgraph(g: Graph, nodes) -> Graph:
    """The subgraph of g on nodes, node nodes[i] relabelled i, by a loop."""
    new = {}
    for i, u in enumerate(nodes):
        new[u] = i
    edges = []
    for u, v, w in g.edges:
        if u in new and v in new:
            edges.append((new[u], new[v], w))
    return Graph(len(nodes), tuple(edges), directed=g.directed)


@PROPERTY
@given(graphs())
def test_largest_component_is_the_induced_relabelled_subgraph(g):
    report = connectivity(g)
    assert report.largest_component == induced_subgraph(g, report.node_map)


def test_largest_component_is_built_only_when_read(monkeypatch):
    reports = []

    def recording(g):
        reports.append(connectivity(g))
        return reports[-1]

    monkeypatch.setattr(fraclap.stability, "connectivity", recording)
    g = Graph(4, ((0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)))
    steady_state(g)
    report = connectivity(g)
    assert report.is_connected and report.node_map == (0, 1, 2, 3)
    for r in reports + [report]:
        assert "largest_component" not in vars(r)
    assert report.largest_component == g
    assert "largest_component" in vars(report)


def test_many_components_come_back_largest_first_then_by_smallest_node():
    # 5,000 disjoint edges over shuffled nodes, and one triangle on the last
    # three nodes, which comes first although its smallest node is largest
    pairs = np.random.default_rng(3).permutation(10_000).reshape(-1, 2)
    triangle = ((10_000, 10_001, 1.0), (10_001, 10_002, 1.0),
                (10_000, 10_002, 1.0))
    g = Graph(10_003, tuple((u, v, 1.0) for u, v in pairs.tolist()) + triangle)
    expected = [(10_000, 10_001, 10_002)] + sorted(
        tuple(sorted(p)) for p in pairs.tolist())
    assert connectivity(g).components == tuple(expected)


@PROPERTY
@given(graphs(directed=st.just(False), connected=True))
def test_kpath_generator_matrix_is_the_transformed_laplacian(g):
    gen = KPathGenerator.from_graph(g)
    distances = all_pairs_distances(g)
    for alpha in ALPHAS:
        matrix = gen.matrix(alpha)
        assert np.array_equal(matrix, transformed_k_path_laplacian(g, alpha))
        layers = sum((float(k) ** (-alpha) * k_path_laplacian(g, k)
                      for k in range(1, distances.diameter + 1)),
                     np.zeros((g.n, g.n)))
        assert np.abs(matrix - layers).max() <= 1e-12 * g.n


@PROPERTY
@given(graphs(directed=st.just(False)))
def test_kpath_generator_rejects_disconnected_graphs(g):
    if connectivity(g).is_connected:
        assert KPathGenerator.from_graph(g).n == g.n
    else:
        with pytest.raises(ValueError, match="needs a connected graph"):
            KPathGenerator.from_graph(g)


@PROPERTY
@given(graphs(directed=st.just(True)))
def test_kpath_generator_rejects_directed_graphs(g):
    with pytest.raises(ValueError, match="needs an undirected graph"):
        KPathGenerator.from_graph(g)


def power_hop_coupling(hops, alpha):
    """The hop-coupling operator by np.power on every hop-matrix entry."""
    coupling = -np.power(hops, -float(alpha), out=np.zeros_like(hops),
                         where=hops > 0)
    np.fill_diagonal(coupling, -coupling.sum(axis=1))
    return coupling


@PROPERTY
@given(graphs(directed=st.just(False), connected=True))
def test_hop_coupling_table_gather_is_bit_equal_to_power(g):
    distances = all_pairs_distances(g)
    index = distances.hops.astype(np.intp)
    for alpha in (0.0, 0.3, 1.0, 2.5):
        gathered = _hop_coupling(index, distances.diameter, alpha)
        reference = power_hop_coupling(distances.hops, alpha)
        assert gathered.dtype == reference.dtype
        assert gathered.tobytes() == reference.tobytes()
