import numpy as np
import pytest
import scipy.linalg

from conftest import (
    cycle_graph,
    directed_ring_with_chords,
    ring_with_chords,
    weak_ring,
)
from fraclap import (
    EigenFactorization,
    Graph,
    NumericError,
    combinatorial_laplacian,
    directed_laplacians,
    fractional_power_general,
    fractional_power_sym,
    sym_eig,
    triangular_factorization,
)
from fraclap.matfun import general_factorization, power_from_factorization


def c4_power_closed_form(alpha: float) -> np.ndarray:
    """Circulant closed form of the C4 fractional Laplacian."""
    diag = 2.0 ** (alpha - 2) * (2.0 ** alpha + 2)
    neighbor = -4.0 ** (alpha - 1)
    opposite = 2.0 ** (alpha - 2) * (2.0 ** alpha - 2)
    row = [diag, neighbor, opposite, neighbor]
    return np.array([np.roll(row, k) for k in range(4)])


def exp_series(a: np.ndarray, terms: int = 40) -> np.ndarray:
    """Plain Taylor series for exp(a); independent of the Pade route."""
    total = np.zeros_like(a, dtype=float)
    term = np.eye(a.shape[0])
    for k in range(terms):
        total = total + term
        term = term @ a / (k + 1)
    return total


# ---------------------------------------------------------------------------
# sym_eig
# ---------------------------------------------------------------------------

def test_sym_eig_c4(c4):
    d = sym_eig(combinatorial_laplacian(c4))
    assert np.abs(d.eigenvalues - [0.0, 2.0, 2.0, 4.0]).max() <= 1e-10
    assert np.abs(d.vectors.T @ d.vectors - np.eye(4)).max() <= 1e-12
    # The inverse of an orthogonal V is its transpose, shared, not copied.
    assert d.inverse.base is d.vectors


def test_sym_eig_diagonal_sorts_and_permutes():
    d = sym_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.array_equal(d.eigenvalues, [1.0, 2.0, 3.0])
    assert np.array_equal(np.abs(d.vectors), np.eye(3)[:, [1, 2, 0]])


def test_sym_eig_reconstruction_and_residual(karate):
    lap = combinatorial_laplacian(karate)
    d = sym_eig(lap)
    assert abs(d.eigenvalues[0]) <= 1e-10
    assert d.eigenvalues[1] > 0
    recon = (d.vectors * d.eigenvalues) @ d.inverse
    assert np.abs(recon - lap).max() <= 1e-10 * np.abs(lap).max()
    for i in (0, 1, 17, 33):
        residual = lap @ d.vectors[:, i] - d.eigenvalues[i] * d.vectors[:, i]
        assert np.abs(residual).max() <= 1e-10 * max(1.0, abs(d.eigenvalues[i]))


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# fractional_power_sym
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
def test_fractional_power_c4_closed_form(c4, alpha):
    d = sym_eig(combinatorial_laplacian(c4))
    power = fractional_power_sym(d, alpha)
    assert np.abs(power - c4_power_closed_form(alpha)).max() <= 1e-12


def test_fractional_power_alpha_one_is_identity_case(karate):
    lap = combinatorial_laplacian(karate)
    assert np.abs(fractional_power_sym(sym_eig(lap), 1.0) - lap).max() <= 1e-10


def test_fractional_power_quarter_spectrum(c4):
    d = sym_eig(combinatorial_laplacian(c4))
    eig = np.linalg.eigvalsh(fractional_power_sym(d, 0.25))
    expected = np.sort([0.0, 2.0 ** 0.25, 2.0 ** 0.25, 4.0 ** 0.25])
    assert np.abs(eig - expected).max() <= 1e-10


@pytest.mark.parametrize("alpha", [0.0, -0.5, 1.0 + 1e-9, 2.0])
def test_fractional_power_rejects_bad_alpha(c4, alpha):
    d = sym_eig(combinatorial_laplacian(c4))
    with pytest.raises(ValueError, match="alpha"):
        fractional_power_sym(d, alpha)


def test_fractional_power_clamps_tiny_eigenvalues():
    d = EigenFactorization(eigenvalues=np.array([-5e-11, 1e-15, 1.0]),
                           vectors=np.eye(3), inverse=np.eye(3))
    power = fractional_power_sym(d, 0.25)
    assert power[0, 0] == 0.0 and power[1, 1] == 0.0 and power[2, 2] == 1.0


def test_fractional_power_rejects_negative_spectrum():
    d = EigenFactorization(eigenvalues=np.array([-0.5, 1.0]),
                           vectors=np.eye(2), inverse=np.eye(2))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        fractional_power_sym(d, 0.5)


def test_fractional_power_zero_rows(karate):
    d = sym_eig(combinatorial_laplacian(karate))
    power = fractional_power_sym(d, 0.5)
    assert np.abs(power @ np.ones(34)).max() <= 1e-10


# ---------------------------------------------------------------------------
# fractional_power_general
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0])
def test_general_power_agrees_with_symmetric(c4, alpha):
    lap = combinatorial_laplacian(c4)  # kappa(V) = 1: the eigen route
    general = fractional_power_general(lap, alpha)
    symmetric = fractional_power_sym(sym_eig(lap), alpha)
    assert not np.iscomplexobj(general)
    assert np.abs(general - symmetric).max() <= 1e-8


def test_general_power_directed_two_cycle():
    g_l = np.array([[1.0, -1.0], [-1.0, 1.0]])
    power = fractional_power_general(g_l, 0.5)
    expected = fractional_power_sym(sym_eig(g_l), 0.5)
    assert np.abs(power - expected).max() <= 1e-10


def test_general_power_digraph_row_sums_and_cross_check(digraph5):
    l_out, _ = directed_laplacians(digraph5)
    power = fractional_power_general(l_out, 0.7)
    assert np.abs(power @ np.ones(5)).max() <= 1e-8
    # independent dense-eigendecomposition route (L_out is diagonalizable)
    values, vectors = np.linalg.eig(l_out)
    powered = np.array([0.0 if abs(v) <= 1e-10 else np.exp(0.7 * np.log(v))
                        for v in values])
    reference = (vectors * powered) @ np.linalg.inv(vectors)
    assert np.abs(reference.imag).max() <= 1e-8
    assert np.abs(power - reference.real).max() <= 1e-8


def test_general_power_at_alpha_one_is_the_laplacian():
    # Eigen route: (V lambda) V^-1 rebuilds L up to rounding amplified by
    # kappa(V).
    rng = np.random.default_rng(11)
    n = 40
    chords = {}
    while len(chords) < n:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and v != (u + 1) % n:
            chords[(u, v)] = float(rng.uniform(0.5, 2.0))
    lap = directed_laplacians(directed_ring_with_chords(
        n, [(u, v, w) for (u, v), w in chords.items()]))[0]
    fac, kappa = general_factorization(lap)
    assert isinstance(fac, EigenFactorization)
    error = np.abs(power_from_factorization(fac, 1.0) - lap).max()
    assert error <= 100 * np.finfo(float).eps * kappa * n * np.abs(lap).max()


def test_general_power_rejects_bad_alpha(digraph5):
    l_out, _ = directed_laplacians(digraph5)
    with pytest.raises(ValueError, match="alpha"):
        fractional_power_general(l_out, 1.5)


def test_triangular_factorization_invariants(digraph5):
    l_out, _ = directed_laplacians(digraph5)
    fac = triangular_factorization(l_out)
    q, t = fac.unitary, fac.triangular
    assert np.abs(q.conj().T @ q - np.eye(5)).max() <= 1e-12
    assert np.abs(q @ t @ q.conj().T - l_out).max() <= 1e-10 * np.abs(l_out).max()
    assert np.abs(np.tril(t, -1)).max() <= 1e-12


def test_general_power_rejects_zero_jordan_block():
    # Nilpotent 2x2: zero eigenvalue with a 2x2 Jordan block.
    with pytest.raises(NumericError, match="not defined on the spectrum"):
        power_from_factorization(
            triangular_factorization(np.array([[0.0, 1.0], [0.0, 0.0]])), 0.5)


def test_general_power_small_weight_two_cycle():
    # Eigenvalues 0 and 0.06: the nonzero one lies close to the deflated zero.
    g = Graph(2, ((0, 1, 0.03), (1, 0, 0.03)), directed=True)
    l_out, _ = directed_laplacians(g)
    power = power_from_factorization(triangular_factorization(l_out), 0.5)
    expected = np.sqrt(0.06) / 2 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.abs(power - expected).max() <= 1e-12
    assert np.abs(power.sum(axis=1)).max() <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_general_power_small_weight_three_cycle(alpha):
    # Both nonzero eigenvalues have modulus 0.02 * sqrt(3), close to zero.
    g = Graph(3, ((0, 1, 0.02), (1, 2, 0.02), (2, 0, 0.02)), directed=True)
    l_out, _ = directed_laplacians(g)
    power = power_from_factorization(triangular_factorization(l_out), alpha)
    values, vectors = np.linalg.eig(l_out)
    powered = np.array([0.0 if abs(v) <= 1e-10 else np.exp(alpha * np.log(v))
                        for v in values])
    reference = (vectors * powered) @ np.linalg.inv(vectors)
    assert np.abs(power - reference).max() <= 1e-12
    assert np.abs(power.sum(axis=1)).max() <= 1e-12


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
def test_general_power_wide_cluster_six_cycle(alpha):
    # The nonzero eigenvalues 0.1 (1 - exp(2 pi i k / 6)) lie about 0.1
    # apart and about as close to each other as to zero, so the
    # nonsingular block's logarithm sees a small, spread-out spectrum.
    g = Graph(6, tuple((i, (i + 1) % 6, 0.1) for i in range(6)), directed=True)
    l_out, _ = directed_laplacians(g)
    power = power_from_factorization(triangular_factorization(l_out), alpha)
    values, vectors = np.linalg.eig(l_out)
    powered = np.array([0.0 if abs(v) <= 1e-10 else np.exp(alpha * np.log(v))
                        for v in values])
    reference = (vectors * powered) @ np.linalg.inv(vectors)
    assert np.abs(power - reference).max() <= 1e-13
    assert np.abs(power.sum(axis=1)).max() <= 1e-13


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.9])
@pytest.mark.parametrize("n", [20, 30])
def test_weak_ring_powers_compose_to_the_laplacian(n, alpha):
    # kappa(V) ~ 6.5e9 at n=30: the Schur-route input.  With the zero
    # eigenvalue deflated, L^alpha L^(1-alpha) = L holds to rounding.
    lap = directed_laplacians(weak_ring(n))[0]
    fac = triangular_factorization(lap)
    power = power_from_factorization(fac, alpha)
    complement = power_from_factorization(fac, 1.0 - alpha)
    assert np.abs(power @ complement - lap).max() <= 1e-12
    assert np.abs(power.sum(axis=1)).max() <= 1e-12


# ---------------------------------------------------------------------------
# scipy.linalg.expm, the reference of the dynamics tests
# ---------------------------------------------------------------------------

def test_expm_zero_matrix():
    assert np.array_equal(scipy.linalg.expm(np.zeros((3, 3))), np.eye(3))


def test_expm_diagonal():
    result = scipy.linalg.expm(np.diag([1.0, -2.0]))
    assert np.abs(result - np.diag([np.e, np.exp(-2.0)])).max() <= 1e-14


def test_expm_c4_semigroup_is_stochastic(c4):
    lap = combinatorial_laplacian(c4)
    result = scipy.linalg.expm(-lap)
    series = exp_series(-lap, terms=30)
    assert np.abs(result - series).max() <= 1e-12
    assert np.abs(result.sum(axis=1) - 1.0).max() <= 1e-12
    assert result.min() >= 0.0


@pytest.mark.parametrize("seed", range(3))
def test_expm_matches_series_at_norm_ten(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((8, 8))
    a *= 10.0 / np.abs(a).sum(axis=0).max()
    result = scipy.linalg.expm(a)
    series = exp_series(a, terms=80)
    rel = np.abs(result - series).max() / np.abs(series).max()
    assert rel <= 1e-10


# ---------------------------------------------------------------------------
# Power-family invariants on random graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,alpha", [(s, a) for s in range(3)
                                        for a in (0.25, 0.5, 0.75)])
def test_power_is_m_matrix(seed, alpha):
    g = ring_with_chords(22, 12, seed=seed)
    power = fractional_power_sym(sym_eig(combinatorial_laplacian(g)), alpha)
    off = power - np.diag(np.diag(power))
    assert off.max() <= 1e-12
    assert np.diag(power).min() >= 0.0


def test_power_family_commutes():
    g = ring_with_chords(15, 8, seed=11)
    d = sym_eig(combinatorial_laplacian(g))
    for a, b in ((0.3, 0.9), (0.5, 1.0), (0.25, 0.75)):
        pa = fractional_power_sym(d, a)
        pb = fractional_power_sym(d, b)
        assert np.abs(pa @ pb - pb @ pa).max() <= 1e-9


@pytest.mark.parametrize("alpha", [0.25, 0.6, 1.0])
def test_spectral_mapping(alpha):
    g = ring_with_chords(17, 6, seed=2)
    d = sym_eig(combinatorial_laplacian(g))
    eig = np.linalg.eigvalsh(fractional_power_sym(d, alpha))
    assert np.abs(eig - d.clamped_eigenvalues() ** alpha).max() <= 1e-10
