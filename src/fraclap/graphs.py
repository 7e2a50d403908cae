"""Graph ingestion, structural queries, and Laplacian matrix construction.

Graphs are simple (no self-loops, no duplicate edges) with positive, finite
edge weights.  Matrices are plain dense ``numpy`` arrays: the largest network
of interest here has ~1000 nodes, so O(n^2) storage is cheap and keeps every
downstream kernel simple.  scipy loads on first use, for the csgraph
traversals behind distances and connectivity.  A Graph computes the hop
matrix of the k-path operators once, when Graph.k_path_distances is first
read, and every later reader shares that read-only array.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import GraphParseError

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "Graph",
    "DistanceMatrix",
    "ConnectivityReport",
    "load_graph",
    "adjacency_and_degrees",
    "combinatorial_laplacian",
    "directed_laplacians",
    "normalized_laplacians",
    "all_pairs_distances",
    "connectivity",
    "transformed_k_path_laplacian",
]


@dataclass(frozen=True)
class Graph:
    """A simple weighted graph with 0-based node indices.

    Undirected graphs store each unordered pair exactly once, canonicalized
    as (min, max); the expansion to a symmetric weight matrix happens in the
    matrix builders.  n and each index are integers (any ``__index__`` type).
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    directed: bool = False

    def __post_init__(self):
        if not hasattr(type(self.n), "__index__") or self.n < 1:
            raise ValueError(f"graph needs an integer n >= 1, got {self.n!r}")
        seen = {}
        canonical = []
        for i, (u, v, w) in enumerate(self.edges):
            if not (hasattr(type(u), "__index__")
                    and hasattr(type(v), "__index__")
                    and 0 <= u < self.n and 0 <= v < self.n):
                raise _EdgeError("edge ({u}, {v}) out of range: indices must "
                                 "be integers in {lo}..{hi}", self, i)
            if u == v:
                raise _EdgeError("self-loop at node {u}", self, i)
            if not (isinstance(w, numbers.Real) and 0 < w < np.inf):
                raise _EdgeError("edge ({u}, {v}) has weight {w}, not "
                                 "positive and finite", self, i)
            key = (u, v) if self.directed or u < v else (v, u)
            if key in seen:
                raise _EdgeError("duplicate edge ({u}, {v}), first seen at "
                                 "{first}", self, i, seen[key])
            seen[key] = i
            canonical.append((key[0], key[1], float(w)))
        object.__setattr__(self, "edges", tuple(canonical))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def k_path_distances(self) -> DistanceMatrix:
        """Hop distances for the k-path operators, computed on first read.

        hops is a read-only np.intp matrix, shared by every reader.  A
        directed or disconnected graph raises ValueError on every read.
        """
        if self.directed:
            raise ValueError("the k-path Laplacian needs an undirected graph")
        distances = all_pairs_distances(self)
        if not np.all(np.isfinite(distances.hops)):
            raise ValueError("the k-path Laplacian needs a connected graph")
        hops = distances.hops.astype(np.intp)
        hops.flags.writeable = False
        return DistanceMatrix(hops=hops, diameter=distances.diameter)


class _EdgeError(ValueError):
    """graph.edges[index] breaks a rule, worded by a str.format template.

    describe(base, where) numbers nodes from base and names the pair's first
    edge where(first): edges[i] for a Graph, a line for the file loaders.
    Base 0 shows indices as given, which need not be numbers.
    """

    def __init__(self, words, graph, index, first=None):
        u, v, w = graph.edges[index]
        self.index = index
        self.describe = lambda base, where: words.format(
            u=u + base if base else u, v=v + base if base else v, w=w,
            lo=base, hi=graph.n - 1 + base,
            first=where(index if first is None else first))
        super().__init__(self.describe(0, "edges[{}]".format))


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs hop distances; unreachable pairs hold ``inf``.

    ``diameter`` is the largest finite entry.  Graph.k_path_distances holds
    those of a connected graph as a read-only ``np.intp`` matrix.
    """

    hops: np.ndarray
    diameter: int


@dataclass(frozen=True)
class ConnectivityReport:
    """Component structure of a graph.

    ``components`` are sorted largest first, then by smallest node.  For
    directed graphs they are the strongly connected ones and ``is_connected``
    means strongly connected.  ``largest_component``, built when first read,
    is the induced subgraph on the biggest component with nodes relabeled
    0..k-1; ``node_map[i]`` gives the original index of new node i.
    """

    graph: Graph
    components: tuple[tuple[int, ...], ...]

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    @property
    def node_map(self) -> tuple[int, ...]:
        return self.components[0]

    @cached_property
    def largest_component(self) -> Graph:
        back = {u: i for i, u in enumerate(self.node_map)}
        edges = tuple((back[u], back[v], w) for u, v, w in self.graph.edges
                      if u in back and v in back)
        return Graph(n=len(back), edges=edges, directed=self.graph.directed)


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------

def load_graph(path, fmt: str | None = None, directed: bool = False) -> Graph:
    """Load a graph from an edge-list or Matrix Market file.

    Indices in files are 1-based and converted to 0-based.  Missing weights
    default to 1.0.  An entry whose fields do not convert, or that breaks one
    of Graph's edge rules, is rejected.

    Args:
        path: file location.
        fmt: "edgelist" or "mtx"; inferred from the extension when None.
        directed: direction flag for edge lists.  Matrix Market files decide
            from the header ("symmetric" -> undirected, "general" -> directed).

    Raises:
        GraphParseError: malformed content or bytes that are not UTF-8,
            the message led by path:line and .line the offending line.
    """
    path = Path(path)
    if fmt is None:
        fmt = "mtx" if path.suffix.lower() in (".mtx", ".mm") else "edgelist"
    if fmt not in ("edgelist", "mtx"):
        raise ValueError(f"unknown graph format {fmt!r}")
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise GraphParseError(f"cannot read file: {exc}", path=str(path)) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise GraphParseError(f"not UTF-8 text: byte {data[exc.start]:#04x} "
                              f"at offset {exc.start}", str(path), line) from exc
    if fmt == "mtx":
        return _parse_matrix_market(text, str(path))
    return _parse_edge_list(text, str(path), directed)


def _parse_edge_list(text: str, path: str, directed: bool) -> Graph:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("%", "#")):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphParseError(
                f"expected 'src dst [weight]', got {line!r}", path, lineno)
        entries.append((lineno, parts))
    if not entries:
        raise GraphParseError("no edges found", path)
    return _read_entries(entries, None, directed, path)


def _parse_matrix_market(text: str, path: str) -> Graph:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("%%MatrixMarket"):
        raise GraphParseError("missing %%MatrixMarket header", path, 1)
    header = lines[0].lower().split()
    if "coordinate" not in header:
        raise GraphParseError("only coordinate format is supported", path, 1)
    pattern = "pattern" in header
    if not pattern and not ("real" in header or "integer" in header):
        raise GraphParseError("field must be real, integer, or pattern", path, 1)
    symmetric = "symmetric" in header
    if not symmetric and "general" not in header:
        raise GraphParseError("symmetry must be general or symmetric", path, 1)

    size_seen = False
    n = nnz = 0
    entries = []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if not size_seen:
            try:  # a field count other than 3 fails the unpacking too
                rows, cols, nnz = (int(p) for p in parts)
            except ValueError as exc:
                raise GraphParseError("expected size line 'rows cols nnz' of "
                                      f"integers, got {line!r}", path,
                                      lineno) from exc
            if not 0 < rows == cols:
                raise GraphParseError("adjacency matrix must be square with "
                                      "at least one row", path, lineno)
            n = rows
            size_seen = True
            continue
        expected = 2 if pattern else 3
        if len(parts) != expected:
            raise GraphParseError(
                f"expected {expected} fields per entry", path, lineno)
        entries.append((lineno, parts))
    if not size_seen:
        raise GraphParseError("missing size line", path)
    if len(entries) != nnz:
        raise GraphParseError(
            f"header promises {nnz} entries, found {len(entries)}", path)
    return _read_entries(entries, n, not symmetric, path)


def _read_entries(entries, n, directed, path):
    """Graph from (line number, ['src', 'dst', optional 'weight']) entries.

    Indices are 1-based; n is the file's node count, or None for the largest
    index.  A field that does not convert, or an edge that breaks one of
    Graph's rules, raises GraphParseError naming its line.
    """
    edges = []
    for lineno, parts in entries:
        try:
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise GraphParseError(str(exc), path, lineno) from exc
        edges.append((u, v, w))
    if n is None:  # at least 1, so an index below 1 fails on its own line
        n = max(1, max(max(u, v) for u, v, _ in edges) + 1)
    try:
        return Graph(n=n, edges=tuple(edges), directed=directed)
    except _EdgeError as exc:
        message = exc.describe(1, lambda i: f"line {entries[i][0]}")
        raise GraphParseError(message, path, entries[exc.index][0]) from exc


# ---------------------------------------------------------------------------
# Matrix builders
# ---------------------------------------------------------------------------

def adjacency_and_degrees(g: Graph):
    """Return (A, d_out, d_in): the dense adjacency and the degree vectors.

    A carries the edge weights; degrees are weighted row/column sums.  For an
    undirected graph d_out = d_in.
    """
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = w
        if not g.directed:
            a[v, u] = w
    return a, a.sum(axis=1), a.sum(axis=0)


def combinatorial_laplacian(g: Graph) -> np.ndarray:
    """L = D - W for an undirected graph; exactly symmetric with L @ 1 = 0."""
    if g.directed:
        raise ValueError(
            "combinatorial_laplacian needs an undirected graph; "
            "use directed_laplacians")
    lap = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        lap[u, v] = -w
        lap[v, u] = -w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def directed_laplacians(g: Graph):
    """Return (L_out, L_in) = (D_out - W, D_in - W) for a directed graph."""
    if not g.directed:
        raise ValueError("directed_laplacians needs a directed graph")
    a, d_out, d_in = adjacency_and_degrees(g)
    return np.diag(d_out) - a, np.diag(d_in) - a


def normalized_laplacians(g: Graph):
    """Return (random-walk, symmetric) normalized Laplacians.

    rw = I - D^{-1} W (D^{-1} W is row-stochastic) and
    sym = I - D^{-1/2} W D^{-1/2}.  Every vertex must have nonzero degree.
    """
    if g.directed:
        raise ValueError("normalized_laplacians needs an undirected graph")
    a, deg, _ = adjacency_and_degrees(g)
    isolated = np.nonzero(deg == 0)[0]
    if isolated.size:
        raise ValueError(f"isolated vertex {int(isolated[0])} has zero degree")
    rw = np.eye(g.n) - a / deg[:, None]
    root = np.sqrt(deg)
    sym = np.eye(g.n) - a / np.outer(root, root)
    sym = 0.5 * (sym + sym.T)
    return rw, sym


# ---------------------------------------------------------------------------
# Distances and connectivity
# ---------------------------------------------------------------------------

def _arc_matrix(g: Graph) -> scipy.sparse.csr_matrix:
    """Sparse 0/1 pattern of the stored edges.

    Undirected edges are stored once; the csgraph routines read both
    directions when called with ``directed=False``.
    """
    import scipy.sparse

    arcs = np.array([(u, v) for u, v, _ in g.edges], dtype=np.intp).reshape(-1, 2)
    return scipy.sparse.csr_matrix(
        (np.ones(len(arcs)), (arcs[:, 0], arcs[:, 1])), shape=(g.n, g.n))


def all_pairs_distances(g: Graph) -> DistanceMatrix:
    """Unweighted shortest-path (hop) distances between all pairs; weights are ignored.

    Directed graphs use directed paths, so the result need not be symmetric.
    """
    from scipy.sparse.csgraph import shortest_path

    hops = shortest_path(_arc_matrix(g), directed=g.directed, unweighted=True)
    finite = hops[np.isfinite(hops)]
    diameter = int(finite.max()) if finite.size else 0
    return DistanceMatrix(hops=hops, diameter=diameter)


def connectivity(g: Graph) -> ConnectivityReport:
    """Component report; directed graphs are judged by strong connectivity."""
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(
        _arc_matrix(g), directed=g.directed, connection="strong")
    # a stable sort groups the nodes by label, each group in increasing order
    ends = np.cumsum(np.bincount(labels))[:-1]
    groups = np.split(np.argsort(labels, kind="stable"), ends)
    comps = sorted((tuple(c.tolist()) for c in groups),
                   key=lambda c: (-len(c), c[0]))
    return ConnectivityReport(graph=g, components=tuple(comps))


# ---------------------------------------------------------------------------
# k-path Laplacians
# ---------------------------------------------------------------------------

def _hop_coupling(hops: np.ndarray, diameter: int, alpha: float) -> np.ndarray:
    """L_1 + sum_k k^{-alpha} L_k, gathered from a diameter + 1 weight table.

    hops is the integer (np.intp) hop matrix of a connected graph.  Pairs at
    hop distance d > 0 couple with weight -d^{-alpha}, looked up in
    [0, -1^{-alpha}, ..., -diameter^{-alpha}]; the diagonal is minus the row
    sum, so each row sums to zero.  alpha must be finite and >= 0 (a NaN
    would fill the matrix with NaNs and inf would drop every layer past L_1).
    """
    if not 0 <= alpha < np.inf:
        raise ValueError(
            "alpha must be finite and >= 0 for the hop-coupling operator, "
            f"got {alpha}")
    d = np.arange(diameter + 1, dtype=float)
    weights = -np.power(d, -float(alpha), out=np.zeros_like(d), where=d > 0)
    coupling = weights[hops]
    np.fill_diagonal(coupling, -coupling.sum(axis=1))
    return coupling


def transformed_k_path_laplacian(g: Graph, alpha: float) -> np.ndarray:
    """Mellin-weighted sum L_1 + sum_{k>=2} k^{-alpha} L_k up to the diameter."""
    distances = g.k_path_distances
    return _hop_coupling(distances.hops, distances.diameter, alpha)
