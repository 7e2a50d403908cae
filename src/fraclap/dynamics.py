"""Variable-order heat and Schrodinger dynamics on networks.

The state convention is the row-vector one: p'(t) = -p(t) @ G(t) where the
generator G(t) is either a fractional Laplacian power L^{alpha(t)} or the
alpha(t)-weighted hop-coupling operator.  All powers of one diagonalizable
Laplacian V diag(lambda) W share its eigenbasis, where the system decouples
into q_i' = -lambda_i^{alpha(t)} q_i.  _system makes the one route decision
of every run: eigen-coordinates (_EigenSystem, entry and exit O(n^2) once,
each right-hand side O(n)) or state space (_DenseSystem).  rk45 and bdf on
a non-symmetric generator run in state space, where error control stays on
p rather than being amplified by kappa(V), the condition number of the
eigenbasis; there L^alpha is one product V diag(lambda^alpha) V^-1.
scipy loads on first use, when a state-space bdf step factorizes.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, QuadratureError, StiffnessError
from .graphs import Graph, _hop_coupling
from .integrators import (
    StaleSolver,
    StepStats,
    _check_samples,
    bdf_integrate,
    rk45_integrate,
)
from .matfun import (
    EIGVEC_CONDITION_LIMIT,
    EigenFactorization,
    TriangularFactorization,
    _real_part,
    _semidefinite,
    fractional_power_sym,
    general_factorization,
    power_from_factorization,
    sym_eig,
)
from .quadrature import adaptive_simpson
from .schedules import AlphaSchedule, ClampCountingSchedule, ConstantSchedule

__all__ = [
    "SpectralGenerator",
    "GeneralGenerator",
    "KPathGenerator",
    "DynamicsProblem",
    "IntegratorConfig",
    "Trajectory",
    "exact_solution",
    "simulate",
    "random_initial_state",
]

# Smallest state dimension at which a state-space system hands its last
# factorization back stale for bdf to iterate with.  Below it a fresh
# factorization costs less than the iteration's extra solves and right-hand
# sides.  Measured on bdf heat runs to t=1 (hop-coupling and out-degree
# generators, sin and saw exponents, one BLAS thread): iterating took
# 0.98-1.35x the time of refactorizing at n <= 64, 0.76-1.01x at n = 96 and
# 0.79-0.92x at n = 112-128.
STALE_SOLVER_MIN_N = 100

_log = logging.getLogger(__name__)


def _log_built(generator) -> None:
    _log.debug("%s built: n=%d route=%s kappa(V)=%s",
               type(generator).__name__, generator.n, generator.route,
               generator.eigvec_condition)


# ---------------------------------------------------------------------------
# Generator families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _FactoredGenerator:
    """A fractional Laplacian power L^alpha read off one factorization of L."""

    factorization: EigenFactorization | TriangularFactorization

    def __post_init__(self):
        _log_built(self)

    @property
    def n(self) -> int:
        return self.factorization.n

    def clamped_eigenvalues(self) -> np.ndarray:
        return self.factorization.clamped_eigenvalues()


@dataclass(frozen=True)
class SpectralGenerator(_FactoredGenerator):
    """L^alpha for a symmetric positive semidefinite Laplacian; all powers
    share one eigenbasis."""

    factorization: EigenFactorization
    route = "symmetric"
    eigvec_condition = None

    def __post_init__(self):
        _semidefinite(self.factorization)
        super().__post_init__()

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SpectralGenerator":
        return cls(sym_eig(m))

    def matrix(self, alpha: float) -> np.ndarray:
        return fractional_power_sym(self.factorization, alpha)


@dataclass(frozen=True)
class GeneralGenerator(_FactoredGenerator):
    """L^alpha for a non-symmetric Laplacian, on the route matfun picks.

    matfun.general_factorization keeps the diagonalization (route "eigen":
    each power is one product) or the triangular factorization (route
    "schur": powers of the triangular factor).  eigvec_condition is kappa(V),
    or inf when V is singular.
    """

    eigvec_condition: float

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "GeneralGenerator":
        return cls(*general_factorization(m))

    @property
    def route(self) -> str:
        return ("eigen" if isinstance(self.factorization, EigenFactorization)
                else "schur")

    def matrix(self, alpha: float) -> np.ndarray:
        return power_from_factorization(self.factorization, alpha)


@dataclass(frozen=True)
class KPathGenerator:
    """Hop-coupling operator L_1 + sum_k k^{-alpha} L_k with alpha from the schedule.

    Symmetric at every instant, but different alphas are not simultaneously
    diagonalizable: under a varying exponent there is no shared-eigenbasis
    fast path and no closed-form solution, only integration in state space.
    Under a constant exponent simulate and exact_solution assemble the one
    matrix once and solve in its eigenbasis.  hops is the graph's read-only
    integer hop matrix (Graph.k_path_distances), shared with every other
    reader of that Graph; each matrix(alpha) gathers its entries from a table
    of the diameter + 1 hop weights.
    """

    hops: np.ndarray
    diameter: int
    route = "kpath"
    eigvec_condition = None

    def __post_init__(self):
        _log_built(self)

    @classmethod
    def from_graph(cls, g: Graph) -> "KPathGenerator":
        distances = g.k_path_distances
        return cls(hops=distances.hops, diameter=distances.diameter)

    @property
    def n(self) -> int:
        return self.hops.shape[0]

    def matrix(self, alpha: float) -> np.ndarray:
        return _hop_coupling(self.hops, self.diameter, alpha)


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
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        state = np.asarray(self.initial_state)
        if state.shape != (self.generator.n,):
            raise ValueError(
                f"initial state has shape {state.shape}, expected ({self.generator.n},)")
        bad = np.flatnonzero(~np.isfinite(state))
        if bad.size:
            raise ValueError(f"initial state entry {bad[0]} is {state[bad[0]]}, "
                             "not finite")
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
        if not 1e-13 <= self.rtol < np.inf:
            raise ValueError(f"rtol must be finite and >= 1e-13, got {self.rtol}")
        if not 0 < self.atol < np.inf:
            raise ValueError(f"atol must be positive and finite, got {self.atol}")
        # an integer type, as operator.index requires: no float, no str
        if not hasattr(type(self.samples), "__index__") or self.samples < 2:
            raise ValueError(f"need an integer of at least 2 output samples, "
                             f"got {self.samples!r}")


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

class _System:
    """Per-run dynamics whose BDF solver is reused while (c, alpha) holds.

    Once (c, alpha) has moved, a system with reuses_stale hands its last
    factorization back as a StaleSolver for bdf to iterate with; the others
    factorize afresh.
    """

    reuses_stale = False

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
            if self.reuses_stale:
                return StaleSolver(self._solver,
                                   functools.partial(self._refresh, c, alpha))
        return self._refresh(c, alpha)

    def _refresh(self, c, alpha):
        self._solver = self._factorize(c, alpha)
        self._key = (c, alpha)
        self.stats.factorizations += 1
        return self._solver


class _EigenSystem(_System):
    """Decoupled scalar dynamics q_i' = -factor lam_i^alpha q_i in the
    eigenbasis V diag(lam) W of a generator with an EigenFactorization.

    enter maps states to coordinates (p V) and exit maps them back (q W).
    lam may be complex (principal branch, 0^alpha = 0 on the clamped
    zeros).  Its factorization is an O(n) division, so it never hands back
    a stale one.
    """

    def __init__(self, generator: _FactoredGenerator, schedule, factor, stats):
        super().__init__(schedule, factor, stats)
        self.vectors = generator.factorization.vectors
        self.inverse = generator.factorization.inverse
        self.lam = generator.clamped_eigenvalues()

    def enter(self, state):
        return state @ self.vectors

    def exit(self, coords):
        """coords @ W, as two real products when only coords is complex."""
        w = self.inverse
        if not np.iscomplexobj(coords) or np.iscomplexobj(w):
            return coords @ w
        out = np.empty(coords.shape[:-1] + w.shape[1:], dtype=complex)
        out.real = np.ascontiguousarray(coords.real) @ w
        out.imag = np.ascontiguousarray(coords.imag) @ w
        return out

    def rhs(self, t, coords):
        return -self.factor * (self.lam ** self.schedule(t)) * coords

    def _factorize(self, c, alpha):
        denom = 1.0 + c * self.factor * self.lam ** alpha
        return lambda b: b / denom


class _DenseSystem(_System):
    """State-space dynamics with per-call generator assembly.

    Only the matrix of the latest exponent is kept: within a bdf step every
    right-hand side and a fresh factorization read the one at the step's
    end.  From STALE_SOLVER_MIN_N states on, the last factorization is
    handed back stale once (c, alpha) moves.
    """

    def __init__(self, generator, schedule, factor, stats):
        super().__init__(schedule, factor, stats)
        self.reuses_stale = generator.n >= STALE_SOLVER_MIN_N
        self.matrix = functools.lru_cache(maxsize=1)(generator.matrix)
        # The only symmetric generator that runs in state space.
        self.symmetric = generator.route == "kpath"
        self.n = generator.n

    def enter(self, state):
        return state

    def exit(self, coords):
        return coords

    def rhs(self, t, state):
        return -self.factor * (state @ self.matrix(self.schedule(t)))

    def _factorize(self, c, alpha):
        import scipy.linalg

        m = self.matrix(alpha)
        shifted = np.eye(self.n) + c * self.factor * m
        # The factorizations check their input; a non-finite b surfaces as a
        # non-finite bdf step, so the solves skip scipy's O(n^2) check.
        if self.symmetric and not np.iscomplexobj(shifted):
            # I + c L^alpha is symmetric positive definite for c > 0.
            factorized = scipy.linalg.cho_factor(shifted)
            return lambda b: scipy.linalg.cho_solve(factorized, b,
                                                    check_finite=False)
        factorized = scipy.linalg.lu_factor(shifted.T)
        return lambda b: scipy.linalg.lu_solve(factorized, b,
                                               check_finite=False)


def _system(problem, method, stats):
    """(system, clamp counter) of a run: the one route decision.

    A hop-coupling generator under a constant exponent a is one fixed
    symmetric matrix K(a): a is read once through the clamp counter, K(a)
    assembled once and factored by SpectralGenerator.from_matrix, and the
    run solves the generator K(a)^1.  Other runs count their schedule at
    each evaluation.  Symmetric generators run in eigen-coordinates for
    every method, eigen-route ones for exact, and the rest in state space;
    exact rejects the Schur route and kpath under a varying exponent.
    """
    counting = ClampCountingSchedule(problem.schedule)
    generator, schedule = problem.generator, counting
    if generator.route == "kpath" and isinstance(problem.schedule,
                                                 ConstantSchedule):
        alpha = counting(0.0)
        _log.debug("constant hop-coupling exponent alpha=%r: n=%d solved in "
                   "the eigenbasis of K(alpha)", alpha, generator.n)
        generator = SpectralGenerator.from_matrix(generator.matrix(alpha))
        schedule = ConstantSchedule(1.0)
    route = generator.route
    if route == "symmetric" or (route == "eigen" and method == "exact"):
        return (_EigenSystem(generator, schedule, problem.factor, stats),
                counting)
    if method != "exact":
        return (_DenseSystem(generator, schedule, problem.factor, stats),
                counting)
    if route == "kpath":
        raise ValueError(
            "the closed-form solution of a hop-coupling generator needs a "
            "constant exponent; under a varying one its operators do not "
            "share an eigenbasis")
    raise ValueError(
        "the closed-form solution needs a symmetric generator or a "
        f"diagonalizable one: kappa(V) = {generator.eigvec_condition:.3g} "
        f"exceeds the limit {EIGVEC_CONDITION_LIMIT:.0e}, so this generator "
        "is on the Schur route")


def _sample_grid(problem, config):
    return np.linspace(0.0, problem.horizon, config.samples)


def _finish(samples, states, stats, clamps):
    stats.clamp_count = clamps
    return Trajectory(times=samples, states=states, stats=stats)


def _integrate(problem, config):
    """Run the rk45 or bdf core on the problem's system.

    A StiffnessError from the core is raised again with the partial
    trajectory, mapped back to state space, attached.
    """
    stats = StepStats()
    system, counting = _system(problem, config.method, stats)
    samples = _sample_grid(problem, config)
    y0 = system.enter(problem.initial_state)
    try:
        if config.method == "rk45":
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
        partial = _finish(partial_times, system.exit(partial_coords), stats,
                          counting.clamps)
        raise StiffnessError(str(exc), partial=partial) from None
    return _finish(samples, system.exit(coords), stats, counting.clamps)


def _exponent_integrals(lam, schedule, times, stats=None):
    """I_i(t) = int_0^t lam_i^{alpha(tau)} dtau at each time, one row per time.

    lam is real or complex (numpy's principal branch; the clamped zeros
    give 0^alpha = 0), and the integrals have its dtype.  A quadrature
    failure surfaces as ConvergenceError naming the eigenvalue, or carrying
    the quadrature's message when no component failed.
    """
    times = np.asarray(times, dtype=float)
    try:
        return adaptive_simpson(
            lambda tau: lam ** schedule(tau)[:, None], 0.0, times,
            breakpoints=schedule.breakpoints(0.0, times[-1]), stats=stats)
    except QuadratureError as exc:
        if exc.component is None:
            raise ConvergenceError(
                f"exponent quadrature failed: {exc}") from exc
        raise ConvergenceError(
            f"exponent quadrature failed for eigenvalue "
            f"{lam[exc.component]!r} on interval {exc.interval}") from exc


def exact_solution(problem: DynamicsProblem, sample_times=None) -> Trajectory:
    """Closed-form solution p0 exp(-integral of L^{alpha(tau)} dtau).

    Valid because all powers of one diagonalizable Laplacian V diag(lambda) W
    commute (shared eigenbasis): each eigen-coordinate obeys a scalar
    equation whose exponent integral I_i(t) = int_0^t lambda_i^{alpha(tau)}
    dtau comes from one batched adaptive Gauss-Kronrod (G7-K15) pass over
    all sample times and eigenvalues, with total error estimate below
    1e-10 per eigenvalue (in modulus when lambda is complex).  Every sample
    is then formed in the integrators' eigen-coordinates (_EigenSystem) as
    exit(enter(p0) * exp(-I)) (exp(-iI) for the Schrodinger model), where
    exit multiplies by W = V^T for a symmetric generator and W = V^-1 for
    an eigen-route one.  _system rejects the generators without a shared
    eigenbasis.  A heat state keeps its real part; an imaginary residue
    past the rounding bound of fractional powers (matfun._real_part) raises
    NumericError.  stats.quadrature_panels counts the panels evaluated and
    stats.clamp_count the clamped Gauss nodes (for a constant hop-coupling
    exponent, its one clamped read).
    """
    stats = StepStats()
    system, counting = _system(problem, "exact", stats)
    if sample_times is None:
        sample_times = _sample_grid(problem, IntegratorConfig())
    samples = _check_samples(sample_times, problem.horizon)

    integrals = _exponent_integrals(system.lam, system.schedule, samples,
                                    stats)
    states = system.exit(system.enter(problem.initial_state)
                         * np.exp(-problem.factor * integrals))
    if problem.model == "heat":
        states = _real_part(states, "closed-form heat states")
    return _finish(samples, states, stats, counting.clamps)


def simulate(problem: DynamicsProblem, config: IntegratorConfig) -> Trajectory:
    """Solve the problem by config.method: rk45, bdf, or exact.

    rk45 is an explicit embedded 5(4) integration and exact the closed form
    (exact_solution) on config.samples equispaced times.  bdf is an implicit
    variable-order (1-5) BDF integration: a factorization of I + c G(alpha)
    is exact while the step size, order (through c) and alpha(t) stay
    unchanged to within 1e-12, and each step is then one linear solve.  Once
    they move, a state-space system of at least STALE_SOLVER_MIN_N states
    keeps its last factorization and iterates with it (simplified Newton, at
    most four solves), factorizing afresh only for a step whose iteration
    fails its rate test (counted in stats.iteration_restarts).  Smaller
    state-space systems, and symmetric eigenbasis systems (an O(n)
    division), factorize afresh.  _system picks each run's system.
    """
    if config.method == "exact":
        return exact_solution(problem, _sample_grid(problem, config))
    return _integrate(problem, config)
