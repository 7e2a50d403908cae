"""Variable-order heat and Schrodinger dynamics on networks.

The state convention is the row-vector one: p'(t) = -p(t) @ G(t) where the
generator G(t) is either a fractional Laplacian power L^{alpha(t)} or the
alpha(t)-weighted hop-coupling operator.  For symmetric generators every
integration runs in the shared eigenbasis, where the system decouples into
scalar equations q_i' = -lambda_i^{alpha(t)} q_i; entry/exit basis changes
cost O(n^2) once while each right-hand-side call is O(n).  Non-symmetric
generators integrate in state space (error control stays on p, where an
eigenbasis with condition number kappa(V) would amplify it), but a
diagonalizable one assembles each L^alpha as one product V diag(lambda^alpha)
V^-1 and has the same closed-form solution as a symmetric one.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    NumericError,
    QuadratureError,
    StiffnessError,
)
from .graphs import DistanceMatrix, Graph, _hop_coupling, _k_path_distances
from .integrators import StepStats, bdf_integrate, rk45_integrate
from .matfun import (
    EigenFactorization,
    SpectralDecomposition,
    TriangularFactorization,
    _principal_power,
    _real_if_negligible,
    eigen_factorization,
    fractional_power_sym,
    power_from_factorization,
    sym_eig,
    triangular_factorization,
)
from .quadrature import adaptive_simpson
from .schedules import AlphaSchedule, ClampCountingSchedule

__all__ = [
    "SpectralGenerator",
    "GeneralGenerator",
    "KPathGenerator",
    "fractional_generator",
    "DynamicsProblem",
    "IntegratorConfig",
    "Trajectory",
    "build_rhs",
    "integrate_rk45",
    "integrate_bdf",
    "exact_solution",
    "simulate",
    "random_initial_state",
]

# Largest condition number of the eigenvector matrix for which a
# non-symmetric generator takes the eigenvalue route; rounding in
# V diag(lambda^alpha) V^-1 grows like eps * kappa(V).
EIGVEC_CONDITION_LIMIT = 1e4

_log = logging.getLogger(__name__)


def _log_built(generator) -> None:
    _log.debug("%s built: n=%d route=%s kappa(V)=%s",
               type(generator).__name__, generator.n, generator.route,
               generator.eigvec_condition)


# ---------------------------------------------------------------------------
# Generator families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralGenerator:
    """L^alpha for a symmetric Laplacian; all powers share one eigenbasis."""

    decomposition: SpectralDecomposition
    route = "symmetric"
    eigvec_condition = None

    def __post_init__(self):
        _log_built(self)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SpectralGenerator":
        return cls(sym_eig(m))

    @property
    def n(self) -> int:
        return self.decomposition.n

    @property
    def is_symmetric(self) -> bool:
        return True

    @property
    def basis(self) -> np.ndarray:
        return self.decomposition.basis

    def clamped_eigenvalues(self) -> np.ndarray:
        return self.decomposition.clamped_eigenvalues()

    def matrix(self, alpha: float) -> np.ndarray:
        return fractional_power_sym(self.decomposition, alpha)


@dataclass(frozen=True)
class GeneralGenerator:
    """L^alpha for a non-symmetric Laplacian, on one of two routes.

    One triangular factorization Q T Q* is computed and the eigenvectors of
    T are read off it.  When kappa(V) <= EIGVEC_CONDITION_LIMIT the
    generator keeps the diagonalization (route "eigen": each power is one
    product); otherwise it keeps the triangular factorization (route
    "schur": the block-column recurrence, which needs neither
    diagonalizability nor a bound on kappa).  eigvec_condition is kappa(V),
    or inf when V is singular.
    """

    factorization: EigenFactorization | TriangularFactorization
    eigvec_condition: float

    def __post_init__(self):
        _log_built(self)

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "GeneralGenerator":
        schur = triangular_factorization(m)
        try:
            eigen = eigen_factorization(schur)
        except NumericError:
            return cls(schur, float("inf"))
        if eigen.condition <= EIGVEC_CONDITION_LIMIT:
            return cls(eigen, eigen.condition)
        return cls(schur, eigen.condition)

    @property
    def route(self) -> str:
        return ("eigen" if isinstance(self.factorization, EigenFactorization)
                else "schur")

    @property
    def n(self) -> int:
        return self.factorization.n

    @property
    def is_symmetric(self) -> bool:
        return False

    def clamped_eigenvalues(self) -> np.ndarray:
        return self.factorization.clamped_eigenvalues()

    def matrix(self, alpha: float) -> np.ndarray:
        return power_from_factorization(self.factorization, alpha)


@dataclass(frozen=True)
class KPathGenerator:
    """Hop-coupling operator L_1 + sum_k k^{-alpha} L_k with alpha from the schedule.

    Symmetric at every instant, but different alphas are not simultaneously
    diagonalizable, so there is no shared-eigenbasis fast path and no
    closed-form solution; only direct numerical integration applies.
    """

    distances: DistanceMatrix
    route = "kpath"
    eigvec_condition = None

    def __post_init__(self):
        _log_built(self)

    @classmethod
    def from_graph(cls, g: Graph) -> "KPathGenerator":
        return cls(distances=_k_path_distances(g))

    @property
    def n(self) -> int:
        return self.distances.hops.shape[0]

    @property
    def is_symmetric(self) -> bool:
        return True

    def matrix(self, alpha: float) -> np.ndarray:
        return _hop_coupling(self.distances.hops, alpha)


def fractional_generator(source) -> SpectralGenerator | GeneralGenerator:
    """Wrap a Laplacian (or its eigendecomposition) in the right generator."""
    if isinstance(source, (SpectralGenerator, GeneralGenerator, KPathGenerator)):
        return source
    if isinstance(source, SpectralDecomposition):
        return SpectralGenerator(source)
    m = np.asarray(source)
    if np.abs(m - m.T).max() <= 1e-9 * max(1.0, np.abs(m).max()):
        return SpectralGenerator.from_matrix(m)
    return GeneralGenerator.from_matrix(m)


# ---------------------------------------------------------------------------
# Problems and trajectories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DynamicsProblem:
    """A heat or Schrodinger initial value problem on a network.

    Heat states are probability vectors (nonnegative, summing to one);
    Schrodinger states are complex amplitudes with unit 2-norm.
    """

    model: str
    generator: SpectralGenerator | GeneralGenerator | KPathGenerator
    schedule: AlphaSchedule
    initial_state: np.ndarray
    horizon: float

    def __post_init__(self):
        if self.model not in ("heat", "schrodinger"):
            raise ValueError(f"model must be 'heat' or 'schrodinger', got {self.model!r}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        state = np.asarray(self.initial_state)
        if state.shape != (self.generator.n,):
            raise ValueError(
                f"initial state has shape {state.shape}, expected ({self.generator.n},)")
        if self.model == "heat":
            if np.iscomplexobj(state) and np.abs(state.imag).max() > 0:
                raise ValueError("heat initial state must be real")
            state = state.real.astype(float)
            if state.min() < -1e-12:
                raise ValueError(f"heat initial state has negative entry {state.min()}")
            if abs(state.sum() - 1.0) > 1e-12:
                raise ValueError(f"heat initial state sums to {state.sum()!r}, not 1")
        else:
            state = state.astype(complex)
            nrm = np.linalg.norm(state)
            if abs(nrm - 1.0) > 1e-12:
                raise ValueError(f"schrodinger initial state has norm {nrm!r}, not 1")
        object.__setattr__(self, "initial_state", state)

    @property
    def factor(self) -> complex:
        return 1.0 if self.model == "heat" else 1j


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk45"
    rtol: float = 1e-6
    atol: float = 1e-9
    samples: int = 200

    def __post_init__(self):
        if self.method not in ("rk45", "bdf", "exact"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.rtol < 1e-13:
            raise ValueError("rtol must be >= 1e-13")
        if not self.atol > 0:
            raise ValueError("atol must be positive")
        if self.samples < 2:
            raise ValueError("need at least 2 output samples")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    stats: StepStats


def random_initial_state(model: str, n: int, seed: int) -> np.ndarray:
    """Seeded random start: uniform on the simplex (heat) or complex sphere."""
    rng = np.random.default_rng(seed)
    if model == "heat":
        return rng.dirichlet(np.ones(n))
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


# ---------------------------------------------------------------------------
# Right-hand sides and per-run systems
# ---------------------------------------------------------------------------

def build_rhs(problem: DynamicsProblem):
    """Return the state-space derivative function (t, state) -> -state @ G(t).

    For symmetric generators the product is evaluated through the cached
    eigenbasis (diagonal powering per call, no matrix assembly).
    """
    system = _make_system(problem, problem.schedule, StepStats())

    def rhs(t, state):
        return system.exit(system.rhs(t, system.enter(state)))

    return rhs


class _System:
    """Per-run dynamics whose BDF solver is reused while (c, alpha) holds."""

    def __init__(self, schedule, factor, stats):
        self.schedule = schedule
        self.factor = factor
        self.stats = stats
        self._key = None
        self._solver = None

    def make_solver(self, t, c):
        alpha = self.schedule(t)
        if self._key is not None:
            c0, a0 = self._key
            if abs(c - c0) <= 1e-12 * abs(c0) and abs(alpha - a0) <= 1e-12:
                return self._solver
        self._solver = self._factorize(c, alpha)
        self._key = (c, alpha)
        self.stats.factorizations += 1
        return self._solver


class _EigenSystem(_System):
    """Decoupled scalar dynamics in the eigenbasis of a symmetric generator."""

    def __init__(self, generator: SpectralGenerator, schedule, factor, stats):
        super().__init__(schedule, factor, stats)
        self.basis = generator.basis
        self.lam = generator.clamped_eigenvalues()

    def enter(self, state):
        return state @ self.basis

    def exit(self, coords):
        return coords @ self.basis.T

    def rhs(self, t, coords):
        return -self.factor * (self.lam ** self.schedule(t)) * coords

    def _factorize(self, c, alpha):
        denom = 1.0 + c * self.factor * self.lam ** alpha
        return lambda b: b / denom


class _DenseSystem(_System):
    """State-space dynamics with per-call generator assembly.

    Only the matrix of the latest exponent is kept: under a continuous
    schedule bdf re-reads just the one it assembled for make_solver.
    """

    def __init__(self, generator, schedule, factor, stats):
        super().__init__(schedule, factor, stats)
        self.matrix = functools.lru_cache(maxsize=1)(generator.matrix)
        self.symmetric = generator.is_symmetric
        self.n = generator.n

    def enter(self, state):
        return state

    def exit(self, coords):
        return coords

    def rhs(self, t, state):
        return -self.factor * (state @ self.matrix(self.schedule(t)))

    def _factorize(self, c, alpha):
        m = self.matrix(alpha)
        shifted = np.eye(self.n, dtype=np.result_type(float, m.dtype,
                                                      type(self.factor))) \
            + c * self.factor * m
        if self.symmetric and not np.iscomplexobj(shifted):
            # I + c L^alpha is symmetric positive definite for c > 0.
            factorized = scipy.linalg.cho_factor(shifted)
            return lambda b: scipy.linalg.cho_solve(factorized, b)
        factorized = scipy.linalg.lu_factor(shifted.T)
        return lambda b: scipy.linalg.lu_solve(factorized, b)


def _make_system(problem, schedule, stats):
    if isinstance(problem.generator, SpectralGenerator):
        return _EigenSystem(problem.generator, schedule, problem.factor, stats)
    return _DenseSystem(problem.generator, schedule, problem.factor, stats)


def _sample_grid(problem, config):
    return np.linspace(0.0, problem.horizon, config.samples)


def _finish(problem, samples, states, stats, clamps):
    if problem.model == "heat" and np.iscomplexobj(states) \
            and np.abs(states.imag).max() <= 1e-12:
        states = states.real.copy()
    stats.clamp_count = clamps
    return Trajectory(times=samples, states=states, stats=stats)


def integrate_rk45(problem: DynamicsProblem,
                   config: IntegratorConfig | None = None) -> Trajectory:
    """Explicit embedded 5(4) integration of the problem."""
    return _integrate(problem, config, "rk45")


def integrate_bdf(problem: DynamicsProblem,
                  config: IntegratorConfig | None = None) -> Trajectory:
    """Implicit variable-order (1-5) BDF integration of the problem.

    Each step solves one linear system; the factorization is reused while the
    step size, order, and alpha(t) stay unchanged to within 1e-12.
    """
    return _integrate(problem, config, "bdf")


def _integrate(problem, config, method):
    """Run the rk45 or bdf core on the problem's system.

    A StiffnessError from the core is raised again with the partial
    trajectory, mapped back to state space, attached.
    """
    config = config if config is not None else IntegratorConfig(method=method)
    if config.method != method:
        raise ValueError(
            f"config.method is {config.method!r}, expected {method!r}")
    counting = ClampCountingSchedule(problem.schedule)
    stats = StepStats()
    system = _make_system(problem, counting, stats)
    samples = _sample_grid(problem, config)
    y0 = system.enter(problem.initial_state)
    try:
        if method == "rk45":
            coords = rk45_integrate(system.rhs, problem.horizon, y0, samples,
                                    rtol=config.rtol, atol=config.atol,
                                    stats=stats)
        else:
            coords = bdf_integrate(system.rhs, system.make_solver,
                                   problem.horizon, y0, samples,
                                   rtol=config.rtol, atol=config.atol,
                                   stats=stats)
    except StiffnessError as exc:
        partial_times, partial_coords, _ = exc.partial
        partial = _finish(problem, partial_times, system.exit(partial_coords),
                          stats, counting.clamps)
        raise StiffnessError(str(exc), partial=partial) from None
    return _finish(problem, samples, system.exit(coords), stats, counting.clamps)


def _exponent_integrals(lam, schedule, times, stats=None):
    """I_i(t) = int_0^t lam_i^{alpha(tau)} dtau at each time, one row per time.

    Complex eigenvalues (principal branch, 0^alpha := 0) are integrated as
    one real integrand [Re lam^alpha, Im lam^alpha] and returned complex.
    A quadrature failure surfaces as ConvergenceError naming the eigenvalue.
    """
    times = np.asarray(times, dtype=float)
    if np.iscomplexobj(lam):
        def integrand(tau):
            powered = _principal_power(lam, schedule(tau)[:, None])
            return np.concatenate([powered.real, powered.imag], axis=1)
    else:
        def integrand(tau):
            return lam ** schedule(tau)[:, None]

    try:
        integrals = adaptive_simpson(
            integrand, 0.0, times,
            breakpoints=schedule.breakpoints(0.0, times[-1]), stats=stats)
    except QuadratureError as exc:
        bad = exc.component % lam.size if exc.component is not None else 0
        raise ConvergenceError(
            f"exponent quadrature failed for eigenvalue {lam[bad]!r} "
            f"on interval {exc.interval}") from exc
    if np.iscomplexobj(lam):
        return integrals[:, :lam.size] + 1j * integrals[:, lam.size:]
    return integrals


def _closed_form_factors(generator):
    """(lambda, V, W) with V diag(lambda) W the generator's Laplacian."""
    if isinstance(generator, SpectralGenerator):
        return generator.clamped_eigenvalues(), generator.basis, \
            generator.basis.T
    if isinstance(generator, GeneralGenerator) and generator.route == "eigen":
        fac = generator.factorization
        return fac.clamped_eigenvalues(), fac.vectors, fac.inverse
    if isinstance(generator, GeneralGenerator):
        raise ValueError(
            "the closed-form solution needs a symmetric generator or a "
            "diagonalizable one: kappa(V) = "
            f"{generator.eigvec_condition:.3g} exceeds the limit "
            f"{EIGVEC_CONDITION_LIMIT:.0e}, so this generator is on the "
            "Schur route")
    raise ValueError(
        "the closed-form solution needs a fractional Laplacian generator; "
        "hop-coupling exponents do not share an eigenbasis")


def _real_product(x, m):
    """x @ m for a real m, as two real products when x is complex."""
    if not np.iscomplexobj(x) or np.iscomplexobj(m):
        return x @ m
    out = np.empty((x.shape[0], m.shape[1]), dtype=complex)
    out.real = np.ascontiguousarray(x.real) @ m
    out.imag = np.ascontiguousarray(x.imag) @ m
    return out


def exact_solution(problem: DynamicsProblem, sample_times=None) -> Trajectory:
    """Closed-form solution p0 exp(-integral of L^{alpha(tau)} dtau).

    Valid because all powers of one diagonalizable Laplacian V diag(lambda) W
    commute (shared eigenbasis): each eigen-coordinate obeys a scalar
    equation whose exponent integral I_i(t) = int_0^t lambda_i^{alpha(tau)}
    dtau comes from one batched adaptive Gauss-Kronrod (G7-K15) pass over
    all sample times and eigenvalues, with total error estimate below
    1e-10 per eigenvalue (per real and imaginary part when lambda is
    complex).  Every sample is then formed in one product
    ((p0 V) * exp(-I)) @ W (exp(-iI) for the Schrodinger model), where W is
    V^T for a symmetric generator and V^-1 for an eigenvalue-route
    non-symmetric one; Schur-route and hop-coupling generators are rejected.
    A heat state keeps its real part, after a check that the imaginary
    residue is rounding noise.  stats.quadrature_panels counts the panels
    evaluated and stats.clamp_count the clamped Gauss nodes.
    """
    lam, vectors, inverse = _closed_form_factors(problem.generator)
    counting = ClampCountingSchedule(problem.schedule)
    if sample_times is None:
        sample_times = np.linspace(0.0, problem.horizon, 200)
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0 or np.any(np.diff(samples) <= 0):
        raise ValueError("sample times must be strictly increasing")
    if samples[0] < 0 or samples[-1] > problem.horizon + 1e-12:
        raise ValueError("sample times must lie within [0, horizon]")

    stats = StepStats()
    integrals = _exponent_integrals(lam, counting, samples, stats)
    phase = -integrals if problem.model == "heat" else -1j * integrals
    coords0 = problem.initial_state @ vectors
    states = _real_product(coords0 * np.exp(phase), inverse)
    if problem.model == "heat" and np.iscomplexobj(states):
        states = _real_if_negligible(states)
        if np.iscomplexobj(states):
            raise NumericError(
                "closed-form heat states have an imaginary part up to "
                f"{np.abs(states.imag).max():.3e}")
    return _finish(problem, samples, states, stats, counting.clamps)


def simulate(problem: DynamicsProblem, config: IntegratorConfig) -> Trajectory:
    """Dispatch on config.method: rk45, bdf, or exact."""
    if config.method == "rk45":
        return integrate_rk45(problem, config)
    if config.method == "bdf":
        return integrate_bdf(problem, config)
    return exact_solution(problem, _sample_grid(problem, config))
