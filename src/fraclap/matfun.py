"""Eigendecompositions and matrix functions for Laplacian matrices.

Symmetric matrices go through an orthogonal eigendecomposition; general
(directed-graph) matrices go through a unitary triangular factorization.
general_factorization makes the one route decision for a general matrix:
when the eigenvector matrix read off that factorization is well conditioned,
powers are V diag(lambda^alpha) V^-1; otherwise a blocked triangular
recurrence computes f(T), which replaces the Jordan canonical form (not
computable in floating point).  scipy loads on first use, by the triangular
factorization and its powers, so the symmetric route runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass

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
# Eigenvalues of a triangular factorization linked by steps of at most this
# distance share one diagonal block of the Schur-Parlett recurrence.
BLOCKING_DELTA = 0.1
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

    The diagonal of T is ordered so that each cluster of eigenvalues closer
    than BLOCKING_DELTA is contiguous; block i spans rows and columns
    starts[i]:starts[i + 1].
    """

    unitary: np.ndarray
    triangular: np.ndarray
    starts: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.triangular.shape[0]

    def clamped_eigenvalues(self) -> np.ndarray:
        return _clamped(np.diag(self.triangular))


@dataclass(frozen=True)
class EigenFactorization:
    """Eigenvector columns V and W = V^-1 with V diag(lambda) W equal to the input.

    condition is the 2-norm condition number of V, which bounds how much
    rounding in V diag(f(lambda)) W is amplified.  For a symmetric input
    (sym_eig) V is orthogonal, W is the transposed view V.T and condition
    is 1.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    inverse: np.ndarray
    condition: float

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
    return EigenFactorization(eigenvalues=lam, vectors=x, inverse=x.T,
                              condition=1.0)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def fractional_power_sym(d: EigenFactorization, alpha: float) -> np.ndarray:
    """V diag(lambda^alpha) V^T of a sym_eig factorization, with 0^alpha := 0.

    Eigenvalues within EIGENVALUE_CLAMP of zero are zeroed first; genuinely
    negative eigenvalues are rejected.
    """
    alpha = _check_alpha(alpha)
    lam = d.clamped_eigenvalues()
    if lam[0] < 0:
        raise ValueError(
            f"matrix has a negative eigenvalue {lam[0]:.3e}; "
            "fractional powers need a positive semidefinite input")
    powered = lam ** alpha
    out = (d.vectors * powered) @ d.inverse
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# General (non-symmetric) fractional powers via triangular recurrence
# ---------------------------------------------------------------------------

def triangular_factorization(m: np.ndarray) -> TriangularFactorization:
    """Complex unitary triangular (Schur-type) factorization of a matrix.

    The diagonal is clustered with radius BLOCKING_DELTA and reordered so
    that every cluster is contiguous; both steps are independent of the
    exponent, so powers of one factorization share them.
    """
    import scipy.linalg

    m = _require_square(m)
    t, q = scipy.linalg.schur(m.astype(complex), output="complex")
    labels = _cluster_eigenvalues(np.diag(t))
    t, q, starts = _reorder_clusters(t, q, labels)
    return TriangularFactorization(unitary=q, triangular=t, starts=starts)


def _cluster_eigenvalues(diag: np.ndarray) -> np.ndarray:
    """Labels of the eigenvalue classes linked by steps of at most BLOCKING_DELTA.

    A zero eigenvalue never joins a nonzero one: z^alpha has no Taylor
    expansion about a point near 0, while the Sylvester recurrence between a
    zero block and a nonzero one only divides by their distinct eigenvalues.
    """
    import scipy.sparse.csgraph

    zero = np.abs(diag) <= EIGENVALUE_CLAMP
    linked = (np.abs(diag[:, None] - diag[None, :]) <= BLOCKING_DELTA) \
        & (zero[:, None] == zero[None, :])
    _, labels = scipy.sparse.csgraph.connected_components(linked,
                                                          directed=False)
    return labels


def _reorder_clusters(t: np.ndarray, q: np.ndarray, labels: np.ndarray):
    """Move equal labels together, clusters in order of first appearance.

    Returns the reordered (t, q) and the block boundaries: block i spans
    starts[i]:starts[i + 1].
    """
    import scipy.linalg

    work = labels.tolist()
    pos = 0
    starts = [0]
    for lab in dict.fromkeys(work):
        for _ in range(work.count(lab)):
            src = work.index(lab, pos)
            if src != pos:
                # LAPACK positions are 1-based.
                t, q, info = scipy.linalg.lapack.ztrexc(t, q, src + 1, pos + 1)
                if info != 0:
                    raise NumericError(f"eigenvalue reordering failed (info={info})")
                work.insert(pos, work.pop(src))
            pos += 1
        starts.append(pos)
    return t, q, tuple(starts)


def general_factorization(m: np.ndarray) -> tuple[
        EigenFactorization | TriangularFactorization, float]:
    """The factorization powers of a general matrix are read from, and kappa(V).

    The eigenvectors Y of the triangular factor T come from LAPACK's
    triangular back substitution (numpy.linalg.eig on T, which finds T
    already triangular), so V = Q Y is what a full eigensolver returns after
    its own Schur step.  When kappa(V), the 2-norm condition number, is at
    most EIGVEC_CONDITION_LIMIT the diagonalization is returned (each power
    is one product); otherwise the triangular factorization, whose
    block-column recurrence needs neither diagonalizability nor a bound on
    kappa.  A singular V (the input is not diagonalizable) gives kappa = inf.
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
                              inverse=inverse, condition=condition), condition


def _principal_power(lam, alpha):
    """lam^alpha on the principal branch with 0^alpha := 0, elementwise.

    alpha is a float or an array that broadcasts against lam.
    """
    lam = np.asarray(lam, dtype=complex)
    zero = np.abs(lam) <= EIGENVALUE_CLAMP
    return np.where(zero, 0.0, np.exp(alpha * np.log(np.where(zero, 1.0, lam))))


def _power_block(tb: np.ndarray, alpha: float) -> np.ndarray:
    """z^alpha of a small triangular block with clustered eigenvalues.

    A Taylor expansion about the mean eigenvalue serves a cluster whose
    radius is small relative to its distance from the origin.  A cluster is
    a chain of eigenvalues less than BLOCKING_DELTA apart, so near the
    origin it can be too wide for the series to converge; such a block goes
    to scipy's Schur-Pade fractional power (Higham & Lin, SIMAX 2011), which
    needs only a nonsingular block but costs several times more.
    """
    diag = np.diag(tb)
    mu = diag.mean()
    if np.min(np.abs(diag)) <= EIGENVALUE_CLAMP:
        # Zero eigenvalue clustered with others: z^alpha has no derivatives
        # at 0, so only a diagonal (semisimple) block is representable.
        strict = tb - np.diag(diag)
        if np.abs(strict).max() <= 1e-12 * max(1.0, np.abs(tb).max()):
            return np.zeros_like(tb)
        raise NumericError(
            "z^alpha is not defined on the spectrum: zero eigenvalue with "
            "nontrivial Jordan structure")
    m = tb.shape[0]
    nil = tb - mu * np.eye(m)
    coeff = _principal_power(mu, alpha)
    total = coeff * np.eye(m, dtype=complex)
    term = np.eye(m, dtype=complex)
    for j in range(1, 2 * m + 60):
        term = term @ nil
        coeff = coeff * (alpha - (j - 1)) / (j * mu)
        update = coeff * term
        total = total + update
        if np.abs(update).max() <= 1e-16 * max(1.0, np.abs(total).max()):
            return total
        if not np.all(np.isfinite(total)):
            break
    import scipy.linalg

    total = scipy.linalg.fractional_matrix_power(tb, alpha)
    if np.all(np.isfinite(total)):
        return total
    raise ConvergenceError(
        "triangular block evaluation of z^alpha did not converge "
        f"(cluster around {mu:.6g}, size {m})")


def _triangular_power(t: np.ndarray, starts: tuple[int, ...],
                      alpha: float) -> np.ndarray:
    """Block-column recurrence for f(T), f(z) = z^alpha, T upper triangular.

    With the leading columns of F = f(T) done, block column J = [lo, hi)
    solves T[:lo, :lo] X - X T_JJ = F[:lo, :lo] T[:lo, J] - T[:lo, J] F_JJ,
    which follows from F T = T F (Higham, Functions of Matrices, ch. 9).
    """
    import scipy.linalg

    f = np.zeros_like(t)
    for lo, hi in zip(starts[:-1], starts[1:]):
        t_jj = t[lo:hi, lo:hi]
        if hi - lo == 1:
            f[lo, lo] = _principal_power(t[lo, lo], alpha)
        else:
            f[lo:hi, lo:hi] = _power_block(t_jj, alpha)
        if lo == 0:
            continue
        rhs = f[:lo, :lo] @ t[:lo, lo:hi] - t[:lo, lo:hi] @ f[lo:hi, lo:hi]
        x, scale, info = scipy.linalg.lapack.ztrsyl(t[:lo, :lo], t_jj, rhs,
                                                    isgn=-1)
        if info < 0:
            raise NumericError(f"triangular Sylvester solve failed (info={info})")
        f[:lo, lo:hi] = x / scale
    return f


def power_from_factorization(fac: TriangularFactorization | EigenFactorization,
                             alpha: float) -> np.ndarray:
    """Fractional power rebuilt from a precomputed factorization, as float64.

    An EigenFactorization gives (V diag(lambda^alpha)) W, one product; a
    TriangularFactorization gives Q f(T) Q* by the block-column recurrence.
    The power of a real matrix with no eigenvalue on the negative real axis,
    such as any Laplacian here, is real (Higham, Functions of Matrices, Thm
    1.18), so an imaginary part past rounding (_real_part) is NumericError.
    """
    alpha = _check_alpha(alpha)
    if isinstance(fac, EigenFactorization):
        out = (fac.vectors * _principal_power(fac.eigenvalues, alpha)) \
            @ fac.inverse
    else:
        ft = _triangular_power(fac.triangular, fac.starts, alpha)
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
