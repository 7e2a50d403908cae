"""Eigendecompositions and matrix functions for Laplacian matrices.

Symmetric matrices go through an orthogonal eigendecomposition; general
(directed-graph) matrices go through a unitary triangular factorization with
a blocked triangular recurrence for f(T).  The latter replaces the Jordan
canonical form, which is not computable in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, NumericError

__all__ = [
    "SpectralDecomposition",
    "TriangularFactorization",
    "sym_eig",
    "fractional_power_sym",
    "fractional_power_general",
    "power_from_factorization",
    "triangular_factorization",
    "matrix_exponential",
    "apply_spectral_function",
]

# Eigenvalues this close to zero are treated as an exact zero before powering;
# floating-point eigensolvers perturb the structural zero of a Laplacian and
# z^alpha amplifies tiny positives badly ((1e-15)^0.25 ~ 5.6e-4).
EIGENVALUE_CLAMP = 1e-10


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def clamped_eigenvalues(self) -> np.ndarray:
        lam = self.eigenvalues.copy()
        lam[np.abs(lam) <= EIGENVALUE_CLAMP] = 0.0
        return lam


@dataclass(frozen=True)
class TriangularFactorization:
    """Unitary Q and upper-triangular T with Q T Q* equal to the input."""

    unitary: np.ndarray
    triangular: np.ndarray

    @property
    def n(self) -> int:
        return self.triangular.shape[0]


def _require_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return m


def sym_eig(m: np.ndarray) -> SpectralDecomposition:
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
    return SpectralDecomposition(eigenvalues=lam, basis=x)


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


def fractional_power_sym(d: SpectralDecomposition, alpha: float) -> np.ndarray:
    """X diag(lambda^alpha) X^T with 0^alpha := 0.

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
    out = (d.basis * powered) @ d.basis.T
    return 0.5 * (out + out.T)


def apply_spectral_function(d: SpectralDecomposition,
                            f: Callable[[float], complex]) -> np.ndarray:
    """X diag(f(lambda)) X^T for a scalar function f finite on the spectrum."""
    values = np.array([f(lam) for lam in d.eigenvalues])
    bad = np.nonzero(~np.isfinite(values))[0]
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"f is not finite at eigenvalue {d.eigenvalues[i]!r} (index {i})")
    if np.iscomplexobj(values) and np.abs(values.imag).max() == 0.0:
        values = values.real
    return (d.basis * values) @ d.basis.T


# ---------------------------------------------------------------------------
# General (non-symmetric) fractional powers via triangular recurrence
# ---------------------------------------------------------------------------

def triangular_factorization(m: np.ndarray) -> TriangularFactorization:
    """Complex unitary triangular (Schur-type) factorization of a matrix."""
    m = _require_square(m)
    t, q = scipy.linalg.schur(m.astype(complex), output="complex")
    return TriangularFactorization(unitary=q, triangular=t)


def _swap_adjacent(t: np.ndarray, q: np.ndarray, k: int) -> None:
    """Exchange diagonal entries k and k+1 of upper-triangular t in place.

    Applies a 2x2 unitary similarity built from the eigenvector of the
    trailing eigenvalue; q accumulates the transformation.
    """
    a = t[k, k]
    b = t[k, k + 1]
    c = t[k + 1, k + 1]
    v = np.array([b, c - a])
    r = np.linalg.norm(v)
    if r == 0.0:
        return
    v1, v2 = v / r
    rot = np.array([[v1, -np.conj(v2)], [v2, np.conj(v1)]])
    t[k:k + 2, :] = rot.conj().T @ t[k:k + 2, :]
    t[:, k:k + 2] = t[:, k:k + 2] @ rot
    q[:, k:k + 2] = q[:, k:k + 2] @ rot
    t[k + 1, k] = 0.0


def _cluster_eigenvalues(diag: np.ndarray, delta: float) -> list[int]:
    """Union-find grouping of eigenvalues closer than delta.

    A zero eigenvalue never joins a nonzero one: z^alpha has no Taylor
    expansion about a point near 0, while the Sylvester recurrence between a
    zero block and a nonzero one only divides by their distinct eigenvalues.
    """
    n = diag.shape[0]
    zero = np.abs(diag) <= EIGENVALUE_CLAMP
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(diag[i] - diag[j]) <= delta and zero[i] == zero[j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    return [find(i) for i in range(n)]


def _reorder_clusters(t: np.ndarray, q: np.ndarray, labels: list[int]) -> list[int]:
    """Bubble equal labels together; returns block sizes in final order."""
    order: list[int] = []
    for lab in labels:
        if lab not in order:
            order.append(lab)
    work = list(labels)
    pos = 0
    sizes = []
    for lab in order:
        count = work.count(lab)
        for _ in range(count):
            src = work.index(lab, pos)
            for k in range(src - 1, pos - 1, -1):
                _swap_adjacent(t, q, k)
                work[k], work[k + 1] = work[k + 1], work[k]
            pos += 1
        sizes.append(count)
    return sizes


def _power_scalar(lam: complex, alpha: float) -> complex:
    if abs(lam) <= EIGENVALUE_CLAMP:
        return 0.0
    return np.exp(alpha * np.log(lam))


def _power_block(tb: np.ndarray, alpha: float) -> np.ndarray:
    """z^alpha of a small triangular block with clustered eigenvalues.

    Uses a Taylor expansion about the mean eigenvalue; valid because the
    cluster radius is small relative to the distance from the origin.
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
    coeff = _power_scalar(mu, alpha)
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
    raise ConvergenceError(
        "triangular block evaluation of z^alpha did not converge "
        f"(cluster around {mu:.6g}, size {m})")


def _triangular_power(t: np.ndarray, alpha: float, delta: float) -> np.ndarray:
    """Blocked recurrence for f(T), f(z) = z^alpha, T upper triangular."""
    n = t.shape[0]
    labels = _cluster_eigenvalues(np.diag(t), delta)
    if len(set(labels)) < n:
        t = t.copy()
        q_extra = np.eye(n, dtype=complex)
        sizes = _reorder_clusters(t, q_extra, labels)
    else:
        q_extra = None
        sizes = [1] * n
    starts = np.concatenate(([0], np.cumsum(sizes))).astype(int)
    nb = len(sizes)
    f = np.zeros_like(t)
    blocks = [(starts[i], starts[i + 1]) for i in range(nb)]
    for (lo, hi) in blocks:
        if hi - lo == 1:
            f[lo, lo] = _power_scalar(t[lo, lo], alpha)
        else:
            f[lo:hi, lo:hi] = _power_block(t[lo:hi, lo:hi], alpha)
    # Off-diagonal blocks by superdiagonals: T_II Y - Y T_JJ = C.
    for offset in range(1, nb):
        for i in range(nb - offset):
            j = i + offset
            i0, i1 = blocks[i]
            j0, j1 = blocks[j]
            c = (f[i0:i1, i0:i1] @ t[i0:i1, j0:j1]
                 - t[i0:i1, j0:j1] @ f[j0:j1, j0:j1])
            for k in range(i + 1, j):
                k0, k1 = blocks[k]
                c = c + (f[i0:i1, k0:k1] @ t[k0:k1, j0:j1]
                         - t[i0:i1, k0:k1] @ f[k0:k1, j0:j1])
            if i1 - i0 == 1 and j1 - j0 == 1:
                f[i0, j0] = c[0, 0] / (t[i0, i0] - t[j0, j0])
            else:
                f[i0:i1, j0:j1] = scipy.linalg.solve_sylvester(
                    t[i0:i1, i0:i1], -t[j0:j1, j0:j1], c)
    if q_extra is not None:
        f = q_extra @ f @ q_extra.conj().T
    return f


def power_from_factorization(fac: TriangularFactorization, alpha: float,
                             blocking_delta: float = 0.1) -> np.ndarray:
    """Fractional power rebuilt from a precomputed triangular factorization."""
    alpha = _check_alpha(alpha)
    ft = _triangular_power(fac.triangular, alpha, blocking_delta)
    out = fac.unitary @ ft @ fac.unitary.conj().T
    scale = max(1.0, np.abs(out.real).max())
    if np.abs(out.imag).max() <= 1e-8 * scale:
        return out.real.copy()
    return out


def fractional_power_general(m: np.ndarray, alpha: float,
                             blocking_delta: float = 0.1) -> np.ndarray:
    """Fractional power of a general (directed-graph) Laplacian.

    The eigenvalues must lie in the closed right half-plane with a semisimple
    zero, which holds for the out-degree Laplacian of a strongly connected
    graph.  Returns a real array when the imaginary residue is negligible,
    otherwise the complex result.
    """
    return power_from_factorization(triangular_factorization(m), alpha,
                                    blocking_delta)


# ---------------------------------------------------------------------------
# Matrix exponential
# ---------------------------------------------------------------------------

# Degree-m diagonal Pade numerator coefficients and swap radii for the
# scaling-and-squaring method.
_PADE_COEFFS = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0),
}
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 5.371920351148152e0,
}
_MAX_SQUARINGS = 64


def _pade_uv(a: np.ndarray, degree: int):
    b = _PADE_COEFFS[degree]
    n = a.shape[0]
    ident = np.eye(n, dtype=a.dtype)
    a2 = a @ a
    if degree < 13:
        even = b[0] * ident
        odd = b[1] * ident
        apow = ident
        for k in range(2, degree + 1, 2):
            apow = apow @ a2
            even = even + b[k] * apow
            if k + 1 <= degree:
                odd = odd + b[k + 1] * apow
        return a @ odd, even
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    return u, v


def matrix_exponential(m: np.ndarray) -> np.ndarray:
    """exp(M) by scaling and squaring with diagonal Pade approximants."""
    m = _require_square(m)
    a = m.astype(complex) if np.iscomplexobj(m) else m.astype(float)
    norm = np.abs(a).sum(axis=0).max() if a.size else 0.0
    squarings = 0
    degree = 13
    for deg in (3, 5, 7, 9):
        if norm <= _PADE_THETA[deg]:
            degree = deg
            break
    if degree == 13 and norm > _PADE_THETA[13]:
        squarings = int(np.ceil(np.log2(norm / _PADE_THETA[13])))
        if squarings > _MAX_SQUARINGS:
            raise NumericError(
                f"matrix norm {norm:.3e} too large for the exponential")
        a = a / (2.0 ** squarings)
    u, v = _pade_uv(a, degree)
    try:
        result = scipy.linalg.solve(v - u, v + u)
    except scipy.linalg.LinAlgError as exc:
        raise NumericError("Pade denominator is singular") from exc
    for _ in range(squarings):
        result = result @ result
    if not np.all(np.isfinite(result)):
        raise NumericError("matrix exponential overflowed")
    return result
