"""Property tests for the Schur-Parlett fractional power of general matrices.

Inputs are out-degree Laplacians of strongly connected digraphs and
random-walk normalized Laplacians of connected undirected graphs, n <= 30.
Tolerances are multiples of the unit roundoff, scaled by n, the size of the
result and, where an eigenvector basis enters, its condition number.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import Graph, directed_laplacians, normalized_laplacians
from fraclap.matfun import (
    BLOCKING_DELTA,
    EIGENVALUE_CLAMP,
    power_from_factorization,
    triangular_factorization,
)
from test_graph_properties import graphs

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
EPS = np.finfo(float).eps


@st.composite
def strong_digraphs(draw):
    """A random Hamiltonian cycle plus random arcs, weights in [0.1, 10]."""
    n = draw(st.integers(2, 30))
    order = draw(st.permutations(range(n)))
    arcs = {(order[i], order[(i + 1) % n]) for i in range(n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(1, n - 1)), max_size=3 * n))
    arcs |= {(u, (u + shift) % n) for u, shift in extra}
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=len(arcs),
                            max_size=len(arcs)))
    return Graph(n, tuple((u, v, w) for (u, v), w in zip(sorted(arcs), weights)),
                 directed=True)


laplacians = st.one_of(
    strong_digraphs().map(lambda g: directed_laplacians(g)[0]),
    graphs(directed=st.just(False), connected=True)
    .filter(lambda g: g.n > 1)
    .map(lambda g: normalized_laplacians(g)[0]))
alphas = st.floats(0.01, 1.0)


def eigenbasis_power(lap, alpha):
    """V diag(lambda^alpha) V^-1 with 0^alpha := 0, and the condition of V."""
    values, vectors = np.linalg.eig(lap)
    powered = np.array([0.0 if abs(v) <= EIGENVALUE_CLAMP
                        else np.exp(alpha * np.log(v)) for v in values])
    return (vectors * powered) @ np.linalg.inv(vectors), np.linalg.cond(vectors)


@PROPERTY
@given(laplacians, alphas)
def test_power_matches_eigenbasis_power(lap, alpha):
    n = lap.shape[0]
    power = power_from_factorization(triangular_factorization(lap), alpha)
    reference, kappa = eigenbasis_power(lap, alpha)
    scale = max(1.0, np.abs(power).max())
    assert np.abs(power - reference).max() <= 100 * EPS * kappa * n * scale


@PROPERTY
@given(laplacians, alphas)
def test_power_has_zero_row_sums(lap, alpha):
    n = lap.shape[0]
    power = power_from_factorization(triangular_factorization(lap), alpha)
    scale = max(1.0, np.abs(power).max())
    assert np.abs(power.sum(axis=1)).max() <= 100 * EPS * n * scale


@st.composite
def exponent_pairs(draw):
    """(alpha, beta) with alpha + beta <= 1."""
    alpha = draw(st.floats(0.01, 0.99))
    return alpha, draw(st.floats(0.01, 1.0 - alpha))


@PROPERTY
@given(laplacians, exponent_pairs())
def test_powers_add_exponents(lap, pair):
    alpha, beta = pair
    n = lap.shape[0]
    fac = triangular_factorization(lap)
    pa = power_from_factorization(fac, alpha)
    pb = power_from_factorization(fac, beta)
    pab = power_from_factorization(fac, alpha + beta)
    kappa = np.linalg.cond(np.linalg.eig(lap)[1])
    scale = max(1.0, np.abs(pab).max(), np.abs(pa).max() * np.abs(pb).max())
    assert np.abs(pa @ pb - pab).max() <= 100 * EPS * kappa * n * scale


@PROPERTY
@given(laplacians)
def test_reordered_factorization_is_unitary_and_triangular(lap):
    n = lap.shape[0]
    fac = triangular_factorization(lap)
    q, t = fac.unitary, fac.triangular
    assert np.all(np.tril(t, -1) == 0)
    assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 100 * EPS * n
    assert np.abs(q @ t @ q.conj().T - lap).max() \
        <= 100 * EPS * n * np.abs(lap).max()


@PROPERTY
@given(laplacians)
def test_blocks_are_separated_clusters(lap):
    n = lap.shape[0]
    fac = triangular_factorization(lap)
    starts = np.array(fac.starts)
    assert starts[0] == 0 and starts[-1] == n and np.all(np.diff(starts) > 0)
    diag = np.diag(fac.triangular)
    zero = np.abs(diag) <= EIGENVALUE_CLAMP
    block = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    for lo, hi in zip(starts[:-1], starts[1:]):
        assert zero[lo:hi].all() or not zero[lo:hi].any()
    apart = (block[:, None] != block[None, :]) & (zero[:, None] == zero[None, :])
    assert np.all(np.abs(diag[:, None] - diag[None, :])[apart] > BLOCKING_DELTA)
