"""Stress tests for the triangular-factor power on clustered spectra.

scipy.linalg.fractional_matrix_power (an independent Schur-Pade
implementation) serves as the oracle wherever it is applicable.
"""

import numpy as np
import pytest
import scipy.linalg

from conftest import directed_ring_with_chords
from fraclap import (
    Graph,
    combinatorial_laplacian,
    directed_laplacians,
    fractional_power_sym,
    sym_eig,
    triangular_factorization,
)
from fraclap.matfun import power_from_factorization


def schur_power(m, alpha):
    """The triangular-factor power, called by name: most inputs here have
    kappa(V) near 1, so fractional_power_general would take the eigen route."""
    return power_from_factorization(triangular_factorization(m), alpha)


def complete_graph(n):
    return Graph(n, tuple((i, j, 1.0) for i in range(n)
                          for j in range(i + 1, n)))


def star_graph(leaves):
    return Graph(leaves + 1, tuple((0, j, 1.0) for j in range(1, leaves + 1)))


def hypercube_q3():
    edges = tuple((u, v, 1.0) for u in range(8) for v in range(u + 1, 8)
                  if bin(u ^ v).count("1") == 1)
    return Graph(8, edges)


@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.9])
def test_complete_graph_closed_form(alpha):
    # K_n: L = n P with P the projector onto the zero-sum subspace, so
    # L^alpha = n^(alpha-1) (n I - J).  One (n-1)-fold eigenvalue cluster.
    n = 8
    lap = combinatorial_laplacian(complete_graph(n))
    expected = n ** (alpha - 1) * (n * np.eye(n) - np.ones((n, n)))
    assert np.abs(fractional_power_sym(sym_eig(lap), alpha)
                  - expected).max() <= 1e-12
    general = schur_power(lap, alpha)
    assert np.abs(general - expected).max() <= 1e-8


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_star_graph_cluster_block(alpha):
    lap = combinatorial_laplacian(star_graph(9))  # eigenvalue 1 has mult. 8
    symmetric = fractional_power_sym(sym_eig(lap), alpha)
    general = schur_power(lap, alpha)
    assert np.abs(general - symmetric).max() <= 1e-8


@pytest.mark.parametrize("alpha", [0.25, 0.6, 1.0])
def test_hypercube_repeated_clusters(alpha):
    lap = combinatorial_laplacian(hypercube_q3())  # spectrum 0, 2^3, 4^3, 6
    symmetric = fractional_power_sym(sym_eig(lap), alpha)
    general = schur_power(lap, alpha)
    assert np.abs(general - symmetric).max() <= 1e-8


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
def test_against_scipy_on_singular_laplacian(alpha, karate):
    lap = combinatorial_laplacian(karate)
    mine = schur_power(lap, alpha)
    truth = fractional_power_sym(sym_eig(lap), alpha)
    assert np.abs(mine - truth).max() <= 1e-12
    # scipy's Schur-Pade route loses accuracy near the singular eigenvalue
    # for small alpha (its error, not ours), so it is only a loose oracle.
    with np.errstate(all="ignore"):
        reference = scipy.linalg.fractional_matrix_power(lap, alpha)
    assert np.all(np.isfinite(reference))
    assert np.abs(mine - reference.real).max() <= 5e-6


@pytest.mark.parametrize("seed", range(4))
def test_against_scipy_on_shifted_digraphs(seed):
    rng = np.random.default_rng(seed)
    n = 12
    taken = {(i, (i + 1) % n) for i in range(n)}
    chords = []
    while len(chords) < 6:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u == v or (u, v) in taken:
            continue
        taken.add((u, v))
        chords.append((u, v, float(rng.uniform(0.2, 2.0))))
    g = directed_ring_with_chords(n, chords)
    l_out, _ = directed_laplacians(g)
    shifted = l_out + np.eye(12)  # nonsingular, safely in scipy's domain
    for alpha in (0.4, 0.75):
        mine = schur_power(shifted, alpha)
        reference = scipy.linalg.fractional_matrix_power(shifted, alpha)
        assert np.abs(mine - reference).max() <= 1e-9
        # unshifted: structural zero row sums survive the deflation
        power = schur_power(l_out, alpha)
        assert np.abs(np.asarray(power).sum(axis=1)).max() <= 1e-8


def test_interleaved_eigenvalue_clusters():
    # Close pairs {1.0, 1.05} and {5.0, 5.05} arrive interleaved on the
    # diagonal of a nonsingular matrix, whose power is expm(alpha log M).
    t = np.array([
        [1.0, 0.3, 0.1, 0.2],
        [0.0, 5.0, 0.4, 0.1],
        [0.0, 0.0, 1.05, 0.3],
        [0.0, 0.0, 0.0, 5.05],
    ])
    rng = np.random.default_rng(1)
    q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    matrix = q @ t @ q.T
    for alpha in (0.3, 0.7):
        mine = schur_power(matrix, alpha)
        reference = scipy.linalg.fractional_matrix_power(matrix, alpha)
        assert np.abs(mine - reference).max() <= 1e-10


def test_tight_cluster_taylor_block():
    # Eigenvalues 2 +- 5e-3 with a strong coupling: nearly a Jordan block.
    t = np.array([[2.005, 1.0], [0.0, 1.995]])
    for alpha in (0.3, 0.9):
        mine = schur_power(t, alpha)
        reference = scipy.linalg.fractional_matrix_power(t, alpha)
        assert np.abs(mine - reference).max() <= 1e-11
