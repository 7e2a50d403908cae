"""Shared fixtures and deterministic graph builders."""

from pathlib import Path

import numpy as np
import pytest

from fraclap import Graph, all_pairs_distances, load_graph

DATA = Path(__file__).parent / "data"


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n, 1.0) for i in range(n)))


def ring_with_chords(n: int, n_chords: int, seed: int = 0,
                     weights: bool = False) -> Graph:
    """Connected undirected graph: an n-ring plus random chords."""
    rng = np.random.default_rng(seed)
    edges = {(i, (i + 1) % n): 1.0 for i in range(n)}
    edges = {(min(u, v), max(u, v)): w for (u, v), w in edges.items()}
    while len(edges) < n + n_chords:
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges:
            continue
        edges[key] = float(rng.uniform(0.5, 2.0)) if weights else 1.0
    return Graph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def directed_ring_with_chords(n: int, chords=()) -> Graph:
    """Strongly connected digraph: directed n-ring plus extra arcs."""
    edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    edges += [(u, v, w) for u, v, w in chords]
    return Graph(n, tuple(edges), directed=True)


def weak_ring(n: int, weight: float = 1e-10) -> Graph:
    """Directed n-ring whose closing arc (n-1 -> 0) has a tiny weight.

    Its Laplacian is nearly a Jordan block: kappa(V) is about 5.3e8 at n=8.
    """
    edges = [(i, i + 1, 1.0) for i in range(n - 1)] + [(n - 1, 0, weight)]
    return Graph(n, tuple(edges), directed=True)


def k_path_laplacian(g: Graph, k: int) -> np.ndarray:
    """Laplacian-like coupling of node pairs at hop distance exactly k.

    Off-diagonal entries are -1 where d(u, v) = k; the diagonal holds the
    count of nodes at distance exactly k, so each row sums to zero.  The zero
    matrix for k past the diameter.  One mask of the hop matrix per k: an
    oracle independent of the weight-table gather in graphs._hop_coupling.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = all_pairs_distances(g).hops == k
    lap = np.where(mask, -1.0, 0.0)
    np.fill_diagonal(lap, mask.sum(axis=1))
    return lap


def hub_ring_graph(n: int, hub_weight: float = 1.0) -> Graph:
    """Ring plus a hub node adjacent to everything: large spectral radius."""
    edges = {(i, (i + 1) % n): 1.0 for i in range(n)}
    for j in range(2, n - 1):
        key = (0, j)
        if key not in edges:
            edges[key] = hub_weight
    return Graph(n, tuple((u, v, w) for (u, v), w in sorted(edges.items())))


@pytest.fixture
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture(scope="session")
def karate() -> Graph:
    return load_graph(DATA / "karate.mtx")


@pytest.fixture
def digraph5() -> Graph:
    return directed_ring_with_chords(5, [(0, 2, 0.5), (3, 1, 2.0)])


@pytest.fixture
def digraph10() -> Graph:
    return directed_ring_with_chords(
        10, [(0, 3, 2.0), (5, 2, 1.5), (7, 4, 0.5), (8, 1, 1.0)])
