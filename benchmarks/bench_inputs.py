"""Seeded input graphs for the benchmark workloads.

Every graph is written as a Matrix Market or edge-list file, so the workload
process measures ``load_graph`` on it.  The edge lists are also returned, so
that the checks can build their own Laplacians without calling fraclap.

Workload cost must not depend on the seed, or runs with different seeds
would spread more than a code change moves them:

* spectral-sweep graphs are 3-regular (ring plus a random perfect matching),
  so the spectral radius, and with it the step counts, barely move;
* the directed-sweep graphs have a fixed structure (built from construction
  constants) whose nodes the seed relabels.  The Schur recurrence costs more
  or less depending on how the eigenvalues cluster, and a relabelling keeps
  the spectrum;
* the k-path graph is a ring with random chords, redrawn until its hop
  diameter is exactly KPATH_DIAMETER, which fixes the number of hop layers.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

SPECTRAL_N = 1000
KPATH_N = 600
KPATH_CHORDS = 50
KPATH_DIAMETER = 41
MAX_DRAWS = 10_000

# name -> (nodes, construction constant) of the fixed directed-sweep bases.
DIRECTED_BASES = {"dir30": (30, 1000), "dir10": (10, 1001), "dir60": (60, 1011)}
NRW_BASE = ("nrw24", 24, 1003)


def ring_matching(n: int, rng) -> list[tuple[int, int]]:
    """Undirected n-ring plus a random perfect matching on non-ring pairs."""
    ring = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    for _ in range(MAX_DRAWS):
        perm = rng.permutation(n)
        pairs = {(int(min(a, b)), int(max(a, b)))
                 for a, b in zip(perm[0::2], perm[1::2])}
        if not pairs & ring:
            return sorted(ring | pairs)
    raise RuntimeError("no valid matching drawn")


def ring_derangement(n: int, rng) -> list[tuple[int, int]]:
    """Directed n-ring plus one arc i -> perm[i] per node (out-degree 2)."""
    for _ in range(MAX_DRAWS):
        perm = rng.permutation(n)
        if all(perm[i] != i and perm[i] != (i + 1) % n for i in range(n)):
            return sorted({(i, (i + 1) % n) for i in range(n)}
                          | {(i, int(perm[i])) for i in range(n)})
    raise RuntimeError("no valid derangement drawn")


def ring_chords(n: int, chords: int, rng) -> list[tuple[int, int]]:
    """Undirected n-ring plus `chords` distinct random chords."""
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def hop_matrix(n: int, edges) -> np.ndarray:
    """Undirected all-pairs hop distances from scipy's shortest paths."""
    rows = [u for u, v, *_ in edges]
    cols = [v for u, v, *_ in edges]
    adj = scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)),
                                  shape=(n, n))
    return scipy.sparse.csgraph.shortest_path(adj, directed=False,
                                              unweighted=True)


def kpath_graph(rng) -> list[tuple[int, int]]:
    for _ in range(MAX_DRAWS):
        edges = ring_chords(KPATH_N, KPATH_CHORDS, rng)
        if hop_matrix(KPATH_N, edges).max() == KPATH_DIAMETER:
            return edges
    raise RuntimeError("no k-path graph with the target diameter drawn")


def relabel(edges, rng, n: int):
    perm = rng.permutation(n)
    return sorted((int(perm[u]), int(perm[v])) for u, v in edges)


def write_mtx(path: Path, n: int, edges, symmetric: bool) -> None:
    kind = "symmetric" if symmetric else "general"
    lines = [f"%%MatrixMarket matrix coordinate real {kind}",
             f"{n} {n} {len(edges)}"]
    # Symmetric files list the lower triangle, as Matrix Market asks.
    lines += [f"{max(u, v) + 1} {min(u, v) + 1} {w!r}" if symmetric
              else f"{u + 1} {v + 1} {w!r}" for u, v, w in edges]
    path.write_text("\n".join(lines) + "\n")


def write_edge_list(path: Path, edges) -> None:
    path.write_text("".join(f"{u + 1} {v + 1} {w!r}\n" for u, v, w in edges))


def _entry(path, n, edges, directed, fmt):
    return {"path": str(path), "n": n, "directed": directed, "format": fmt,
            "edges": [[u, v, w] for u, v, w in edges]}


def make_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Write the workload's graph files; return {name: graph description}."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    graphs = {}
    if workload == "spectral-sweep":
        for name in ("spectral_a", "spectral_b"):
            edges = [(u, v, round(float(rng.uniform(0.5, 1.5)), 6))
                     for u, v in ring_matching(SPECTRAL_N, rng)]
            path = directory / f"{name}.mtx"
            write_mtx(path, SPECTRAL_N, edges, symmetric=True)
            graphs[name] = _entry(path, SPECTRAL_N, edges, False, "mtx")
    elif workload == "directed-sweep":
        for name, (n, constant) in DIRECTED_BASES.items():
            base = ring_derangement(n, np.random.default_rng(constant))
            edges = [(u, v, 1.0) for u, v in relabel(base, rng, n)]
            path = directory / f"{name}.edges"
            write_edge_list(path, edges)
            graphs[name] = _entry(path, n, edges, True, "edgelist")
        name, n, constant = NRW_BASE
        base = ring_matching(n, np.random.default_rng(constant))
        edges = [(min(u, v), max(u, v), 1.0) for u, v in relabel(base, rng, n)]
        path = directory / f"{name}.mtx"
        write_mtx(path, n, edges, symmetric=True)
        graphs[name] = _entry(path, n, edges, False, "mtx")
    elif workload == "kpath-hops":
        edges = [(u, v, 1.0) for u, v in kpath_graph(rng)]
        path = directory / "kpath.edges"
        write_edge_list(path, edges)
        graphs["kpath"] = _entry(path, KPATH_N, edges, False, "edgelist")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (directory / "graphs.json").write_text(json.dumps(graphs))
    return graphs
