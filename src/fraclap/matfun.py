"""Eigendecompositions and matrix functions for Laplacian matrices.

Symmetric matrices go through an orthogonal eigendecomposition; general
(directed-graph) matrices go through a unitary triangular factorization.
general_factorization makes the one route decision for a general matrix:
when the eigenvector matrix read off that factorization is well conditioned,
powers are V diag(lambda^alpha) V^-1; otherwise they are read off the
triangular factor T, which replaces the Jordan canonical form (not
computable in floating point).  T is ordered with its zero eigenvalues
first, so the singular part of z^alpha deflates to a zero block and scipy's
matrix logarithm and exponential (Al-Mohy & Higham, SISC 2012; Higham & Lin,
SIMAX 2011) evaluate the power on the nonsingular rest.  scipy loads on
first use, by the triangular factorization and its powers, so the symmetric
route runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, NumericError

__all__ = [
    "TriangularFactorization",
    "EigenFactorization",
    "sym_eig",
    "fractional_power_sym",
    "fractional_power_general",
    "power_from_factorization",
    "triangular_factorization",
    "general_factorization",
]

# Eigenvalues this close to zero are treated as an exact zero before powering;
# floating-point eigensolvers perturb the structural zero of a Laplacian and
# z^alpha amplifies tiny positives badly ((1e-15)^0.25 ~ 5.6e-4).
EIGENVALUE_CLAMP = 1e-10
# Largest condition number of the eigenvector matrix for which a general
# matrix takes the eigenvalue route; rounding in V diag(lambda^alpha) V^-1
# grows like eps * kappa(V).
EIGVEC_CONDITION_LIMIT = 1e4


def _clamped(values: np.ndarray) -> np.ndarray:
    values = values.copy()
    values[np.abs(values) <= EIGENVALUE_CLAMP] = 0.0
    return values


@dataclass(frozen=True)
class TriangularFactorization:
    """Unitary Q and upper-triangular T with Q T Q* equal to the input.

    The first `zeros` diagonal entries of T are the eigenvalues within
    EIGENVALUE_CLAMP of zero, so T = [[Z, B], [0, C]] with C nonsingular.
    """

    unitary: np.ndarray
    triangular: np.ndarray
    zeros: int

    @property
    def n(self) -> int:
        return self.triangular.shape[0]

    def clamped_eigenvalues(self) -> np.ndarray:
        return _clamped(np.diag(self.triangular))

    @cached_property
    def log_nonsingular(self) -> np.ndarray:
        """Principal logarithm of C, computed once, by the first power."""
        import scipy.linalg

        k = self.zeros
        return scipy.linalg.logm(self.triangular[k:, k:])


@dataclass(frozen=True)
class EigenFactorization:
    """Eigenvector columns V and W = V^-1 with V diag(lambda) W equal to the input.

    For a symmetric input (sym_eig) V is orthogonal and W the transposed
    view V.T.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def clamped_eigenvalues(self) -> np.ndarray:
        return _clamped(self.eigenvalues)


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def sym_eig(m: np.ndarray) -> EigenFactorization:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Raises ValueError if the matrix is not numerically symmetric and
    ConvergenceError if the iteration fails (with a residual report).
    """
    m = _require_square(m)
    scale = max(1.0, np.abs(m).max())
    asym = np.abs(m - m.T).max()
    if asym > 1e-9 * scale:
        raise ValueError(f"matrix is not symmetric (max |M - M^T| = {asym:.3e})")
    sym = 0.5 * (m + m.T)
    try:
        lam, x = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        residual = np.abs(sym).max()
        raise ConvergenceError(
            f"symmetric eigensolver did not converge (input scale {residual:.3e})"
        ) from exc
    return EigenFactorization(eigenvalues=lam, vectors=x, inverse=x.T)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def _semidefinite(d: EigenFactorization) -> np.ndarray:
    """Clamped eigenvalues, ValueError if one is genuinely negative."""
    lam = d.clamped_eigenvalues()
    if lam.min(initial=0.0) < 0:
        raise ValueError(
            f"matrix has a negative eigenvalue {lam.min():.3e}; "
            "fractional powers need a positive semidefinite input")
    return lam


def fractional_power_sym(d: EigenFactorization, alpha: float) -> np.ndarray:
    """V diag(lambda^alpha) V^T of a sym_eig factorization, with 0^alpha := 0.

    Eigenvalues within EIGENVALUE_CLAMP of zero are zeroed first; genuinely
    negative eigenvalues are rejected (_semidefinite).
    """
    alpha = _check_alpha(alpha)
    powered = _semidefinite(d) ** alpha
    out = (d.vectors * powered) @ d.inverse
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# General (non-symmetric) fractional powers via a triangular factorization
# ---------------------------------------------------------------------------

def triangular_factorization(m: np.ndarray) -> TriangularFactorization:
    """Complex unitary triangular (Schur) factorization, zero eigenvalues first.

    The ordering is independent of the exponent, so powers of one
    factorization share it.
    """
    import scipy.linalg

    m = _require_square(m)
    try:
        t, q, zeros = scipy.linalg.schur(
            m.astype(complex), output="complex",
            sort=lambda z: abs(z) <= EIGENVALUE_CLAMP)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"triangular factorization failed: {exc}") from exc
    return TriangularFactorization(unitary=q, triangular=t, zeros=zeros)


def general_factorization(m: np.ndarray) -> tuple[
        EigenFactorization | TriangularFactorization, float]:
    """The factorization powers of a general matrix are read from, and kappa(V).

    The eigenvectors Y of the triangular factor T come from LAPACK's
    triangular back substitution (numpy.linalg.eig on T, which finds T
    already triangular), so V = Q Y is what a full eigensolver returns after
    its own Schur step.  When kappa(V), the 2-norm condition number, is at
    most EIGVEC_CONDITION_LIMIT the diagonalization is returned (each power
    is one product); otherwise the triangular factorization, whose powers
    need neither diagonalizability nor a bound on kappa.  A singular V (the
    input is not diagonalizable) gives kappa = inf.
    """
    schur = triangular_factorization(m)
    lam, y = np.linalg.eig(schur.triangular)
    vectors = schur.unitary @ y
    try:
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        return schur, float("inf")
    condition = float(np.linalg.cond(vectors))
    if condition > EIGVEC_CONDITION_LIMIT:
        return schur, condition
    return EigenFactorization(eigenvalues=lam, vectors=vectors,
                              inverse=inverse), condition


def _triangular_power(fac: TriangularFactorization,
                      alpha: float) -> np.ndarray:
    """f(T) for f(z) = z^alpha with 0^alpha := 0, T = [[Z, B], [0, C]].

    z^alpha has no derivatives at 0, so only a semisimple zero eigenvalue is
    representable, and then Z = 0.  F = f(T) is [[0, X], [0, f(C)]] with
    f(C) = expm(alpha log C), and F T = T F gives X C = B f(C) (Higham,
    Functions of Matrices, ch. 9).
    """
    import scipy.linalg

    t, k = fac.triangular, fac.zeros
    z = t[:k, :k]
    if np.abs(np.triu(z, 1)).max(initial=0.0) \
            > 1e-12 * max(1.0, np.abs(z).max(initial=0.0)):
        raise NumericError(
            "z^alpha is not defined on the spectrum: zero eigenvalue with "
            "nontrivial Jordan structure")
    f = np.zeros_like(t)
    if k < fac.n:
        f[k:, k:] = scipy.linalg.expm(alpha * fac.log_nonsingular)
        f[:k, k:] = scipy.linalg.solve_triangular(
            t[k:, k:], (t[:k, k:] @ f[k:, k:]).T, trans="T").T
    return f


def power_from_factorization(fac: TriangularFactorization | EigenFactorization,
                             alpha: float) -> np.ndarray:
    """Fractional power rebuilt from a precomputed factorization, as float64.

    An EigenFactorization gives (V diag(lambda^alpha)) W, one product, with
    lambda^alpha numpy's principal branch of the clamped eigenvalues (so
    0^alpha = 0); a TriangularFactorization gives Q f(T) Q*
    (_triangular_power).  The power of a real matrix with no eigenvalue on
    the negative real axis, such as any Laplacian here, is real (Higham,
    Functions of Matrices, Thm 1.18), so an imaginary part past rounding
    (_real_part) is NumericError.
    """
    alpha = _check_alpha(alpha)
    if isinstance(fac, EigenFactorization):
        out = (fac.vectors * np.power(fac.clamped_eigenvalues(), alpha)) \
            @ fac.inverse
    else:
        ft = _triangular_power(fac, alpha)
        out = fac.unitary @ ft @ fac.unitary.conj().T
    return _real_part(out, f"fractional power at alpha={alpha:g}")


def _real_part(values: np.ndarray, what: str) -> np.ndarray:
    """Real part of values, or NumericError naming what when the imaginary
    part exceeds 1e-8 times the largest real entry (1e-8 when that is < 1)."""
    if not np.iscomplexobj(values):
        return values
    residue = np.abs(values.imag).max()
    if not residue <= 1e-8 * max(1.0, np.abs(values.real).max()):
        raise NumericError(f"{what} has an imaginary part up to {residue:.3e}")
    return values.real.copy()


def fractional_power_general(m: np.ndarray, alpha: float) -> np.ndarray:
    """Fractional power of a general (directed-graph) Laplacian.

    The eigenvalues must lie in the closed right half-plane with a semisimple
    zero, which holds for the out-degree Laplacian of a strongly connected
    graph.  The route is general_factorization's, so the result equals
    GeneralGenerator.from_matrix(m).matrix(alpha) bit for bit.  Returns a
    float64 array, or raises NumericError when the imaginary residue exceeds
    rounding (see power_from_factorization).
    """
    return power_from_factorization(general_factorization(m)[0], alpha)
