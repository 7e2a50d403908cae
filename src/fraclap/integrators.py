"""Adaptive time steppers: explicit Dormand-Prince 5(4) and implicit BDF 1-5.

Both cores are dimension-agnostic over 1-D state arrays (real or complex) and
emit states at caller-supplied sample times through their native dense-output
interpolants.  The BDF core exploits linearity: with a solver factorized for
the step's own (t, c) the implicit equation is one direct linear solve.  With
a stale solver, factorized for an earlier (c, alpha), it runs at most four
simplified Newton iterations and falls back to a fresh factorization when
they converge too slowly (Shampine & Reichelt, "The MATLAB ODE Suite", 1997).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericError, StiffnessError

__all__ = ["StepStats", "StaleSolver", "rk45_integrate", "bdf_integrate"]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0

# Dormand-Prince 5(4) tableau, error weights, and quartic dense-output matrix.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = tuple(map(np.array, (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)))
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
_DP_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


@dataclass
class StepStats:
    """Counters of one integration.

    The cores count steps, right-hand sides and solves; rhs_evals and
    linear_solves include those of the simplified Newton iterations a stale
    BDF solver runs.  iteration_restarts counts the BDF steps whose stale
    iteration failed its rate test and were solved again with a fresh
    factorization.  The solver provider counts factorizations and the
    dynamics layer records schedule clamps.  The closed-form solver counts
    the exponent-quadrature panels it evaluated, refinements included.
    """

    accepted: int = 0
    rejected: int = 0
    rhs_evals: int = 0
    linear_solves: int = 0
    factorizations: int = 0
    iteration_restarts: int = 0
    clamp_count: int = 0
    quadrature_panels: int = 0


@dataclass(frozen=True)
class StaleSolver:
    """A BDF solver factorized for an earlier (c, alpha) than the step's.

    solve applies the stale factorization of I - c0 J0; refresh() factorizes
    for the step's own (t, c) and returns that exact solver.  A bare callable
    returned by make_solver is exact for the (t, c) it was asked for.
    """

    solve: Callable[[np.ndarray], np.ndarray]
    refresh: Callable[[], Callable[[np.ndarray], np.ndarray]]


def _norm(x, scale):
    """The max-norm of x / scale, the error measure of both cores."""
    return float(np.max(np.abs(x) / scale))


def _require_finite(method, err_norm, y_new, t, h):
    """Reject a step whose error estimate or state is NaN or infinite.

    A NaN error norm compares as an accepted step, so without this check the
    failure surfaces later, or never, as something else.
    """
    if not (np.isfinite(err_norm) and np.isfinite(y_new).all()):
        raise NumericError(
            f"{method} step from t={t:.6g} (h={h:.3e}) produced a non-finite "
            "state or error estimate")


def _default_first_step(t_end):
    return min(1e-3, t_end / 100.0)


def _check_samples(sample_times, t_end):
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or samples.size == 0:
        raise ValueError("sample_times must be a nonempty 1-D array")
    # A NaN fails every comparison below, leaving its rows unwritten.
    if not np.isfinite(samples).all() or not np.isfinite(t_end):
        raise ValueError("sample_times and t_end must be finite")
    if np.any(np.diff(samples) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if samples[0] < 0 or samples[-1] > t_end:
        raise ValueError("sample_times must lie within [0, t_end]")
    return samples


class _Samples:
    """States at the sample times, filled in order as steps are accepted."""

    def __init__(self, sample_times, t_end, y0):
        self.times = _check_samples(sample_times, t_end)
        self.states = np.empty((self.times.size, y0.size), dtype=y0.dtype)
        self.filled = 0
        self.fill(0.0, y0, None)

    def fill(self, t, y, interpolate):
        """Fill samples up to t: y at st == t, interpolate(st) before it."""
        while self.filled < self.times.size and self.times[self.filled] <= t:
            st = self.times[self.filled]
            self.states[self.filled] = y if st == t else interpolate(st)
            self.filled += 1

    def prefix(self):
        """Copies of the (times, states) filled so far."""
        return self.times[:self.filled].copy(), self.states[:self.filled].copy()


def rk45_integrate(rhs, t_end, y0, sample_times, *, rtol=1e-6, atol=1e-9,
                   stats=None):
    """Dormand-Prince 5(4) with PI step control and max-norm error measure.

    Returns the (len(sample_times), n) array of interpolated states.  Raises
    StiffnessError (with the partial result attached) when the step size
    underflows below 1e-14 * t_end.
    """
    stats = stats if stats is not None else StepStats()
    y = np.array(y0)
    samples = _Samples(sample_times, t_end, y)
    f = np.asarray(rhs(0.0, y))
    stats.rhs_evals += 1
    h = _default_first_step(t_end)
    t = 0.0
    err_prev = None
    rejected_last = False
    k = np.empty((7, y.size), dtype=np.result_type(y, f))

    def dense(st):  # quartic interpolant of the step from t, read when called
        theta = (st - t) / h
        powers = np.array([theta, theta ** 2, theta ** 3, theta ** 4])
        return y + h * (k.T @ (_DP_P @ powers))

    while t < t_end:
        # Relative slack avoids a spurious one-ulp step after the last one.
        remaining = t_end - t
        final = h >= remaining * (1.0 - 1e-12)
        if final:
            h = remaining
        if h < 1e-14 * t_end:
            raise StiffnessError(
                f"rk45 step underflow at t={t:.6g} (h={h:.3e}); "
                "the problem looks stiff, try the bdf integrator",
                partial=(*samples.prefix(), stats))
        k[0] = f
        for s in range(1, 6):
            k[s] = rhs(t + _DP_C[s] * h, y + h * (_DP_A[s] @ k[:s]))
        y_new = y + h * (_DP_B @ k[:6])
        k[6] = f_new = np.asarray(rhs(t + h, y_new))
        stats.rhs_evals += 6
        err = h * (_DP_E @ k)
        en = _norm(err, atol + rtol * np.maximum(np.abs(y), np.abs(y_new)))
        _require_finite("rk45", en, y_new, t, h)

        if en > 1.0:
            stats.rejected += 1
            h *= max(_MIN_FACTOR, _SAFETY * en ** -0.2)
            rejected_last = True
            continue

        t_new = t_end if final else t + h
        samples.fill(t_new, y_new, dense)
        stats.accepted += 1
        t = t_new
        y = y_new
        f = f_new  # first-same-as-last: stage 7 seeds the next step

        if en == 0.0:
            factor = _MAX_FACTOR
        elif err_prev is None:
            factor = _SAFETY * en ** -0.2
        else:
            factor = _SAFETY * en ** -0.14 * err_prev ** 0.08
        factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
        if rejected_last:
            factor = min(1.0, factor)
        h *= factor
        err_prev = max(en, 1e-10)
        rejected_last = False

    return samples.states


# ---------------------------------------------------------------------------
# BDF, orders 1-5, backward-difference formulation
# ---------------------------------------------------------------------------

_MAX_ORDER = 5
_GAMMA = np.hstack(([0.0], np.cumsum(1.0 / np.arange(1, _MAX_ORDER + 1))))
_ERROR_CONST = 1.0 / np.arange(1, _MAX_ORDER + 3)
# Simplified Newton with a stale solver, as scipy's solve_bdf_system: at most
# this many iterations, converged when the predicted remaining correction is
# below max(10 eps / rtol, min(0.03, sqrt(rtol))) in the step's error norm.
_NEWTON_MAXITER = 4


def _simplified_newton(rhs, t, y_predict, f, c, psi, solve, scale, tol, stats):
    """Correction of a BDF step iterated with a stale solve, or None.

    Solves corr = c rhs(t, y_predict + corr) - psi; f is rhs(t, y_predict).
    None means the contraction rate test failed: the iteration diverges or
    would not reach tol within _NEWTON_MAXITER iterations.
    """
    corr = np.zeros_like(psi)
    dy_norm_old = None
    for k in range(_NEWTON_MAXITER):
        if k:
            f = np.asarray(rhs(t, y_predict + corr))
            stats.rhs_evals += 1
        dy = solve(c * f - psi - corr)
        stats.linear_solves += 1
        dy_norm = _norm(dy, scale)
        rate = None if dy_norm_old is None else dy_norm / dy_norm_old
        if rate is not None and (
                rate >= 1
                or rate ** (_NEWTON_MAXITER - k) / (1 - rate) * dy_norm > tol):
            return None
        corr = corr + dy
        if dy_norm == 0 or (rate is not None
                            and rate / (1 - rate) * dy_norm < tol):
            return corr
        dy_norm_old = dy_norm
    return None


def _change_ratio(order, factor):
    m = np.zeros((order + 1, order + 1))
    rows = np.arange(1, order + 1)[:, None]
    m[1:, 1:] = (rows - 1 - factor * rows.T) / rows
    m[0] = 1.0
    return np.cumprod(m, axis=0)


def _rescale_differences(d, order, factor):
    """Remap the difference array to a grid with step scaled by factor."""
    ru = _change_ratio(order, factor) @ _change_ratio(order, 1.0)
    d[:order + 1] = ru.T @ d[:order + 1]


def bdf_integrate(rhs, make_solver, t_end, y0, sample_times, *, rtol=1e-6,
                  atol=1e-9, stats=None):
    """Variable-step, variable-order BDF for the linear system y' = rhs(t, y).

    make_solver(t, c) returns either a callable solving (I - c J(t)) x = b,
    where J(t) is the Jacobian of the rhs, or a StaleSolver factorized for an
    earlier (c, alpha).  Because the problem is linear one exact solve
    advances the step.  A stale solver is iterated with instead (simplified
    Newton, at most four iterations, scipy's rate test with tolerance
    max(10 eps / rtol, min(0.03, sqrt(rtol))) in the step's error norm);
    when the rate test fails the step calls refresh() and takes the exact
    solve, counted in stats.iteration_restarts.  When to factorize
    afresh and counting factorizations are the solver provider's job;
    solves and right-hand sides, iterations included, are counted here.
    """
    stats = stats if stats is not None else StepStats()
    y = np.array(y0)
    samples = _Samples(sample_times, t_end, y)
    f0 = np.asarray(rhs(0.0, y))
    stats.rhs_evals += 1
    h = _default_first_step(t_end)
    d = np.zeros((_MAX_ORDER + 3, y.size), dtype=np.result_type(y, f0))
    d[0] = y
    d[1] = h * f0
    order = 1
    n_equal = 0
    t = 0.0
    newton_tol = max(10 * np.finfo(float).eps / rtol, min(0.03, rtol ** 0.5))

    def dense(st):  # polynomial through order + 1 points, read when called
        x = (st - (t - np.arange(order) * h)) / (h * np.arange(1, order + 1))
        return d[0] + np.cumprod(x) @ d[1:order + 1]

    while t < t_end:
        # Unlike the explicit core, arbitrarily small steps are legitimate
        # (stiff transients); give up only when t + h stops advancing.
        if t + h == t or h < 1e-300:
            raise ConvergenceError(
                f"bdf step size underflow at t={t:.6g} "
                f"(h={h:.3e}, order={order}): no representable progress")
        remaining = t_end - t
        final = h >= remaining * (1.0 - 1e-12)
        if final and h != remaining:
            _rescale_differences(d, order, remaining / h)
            h = remaining
            n_equal = 0
        t_new = t_end if final else t + h

        y_predict = d[:order + 1].sum(axis=0)
        psi = (_GAMMA[1:order + 1] @ d[1:order + 1]) / _GAMMA[order]
        c = h / _GAMMA[order]
        solver = make_solver(t_new, c)
        fp = np.asarray(rhs(t_new, y_predict))
        stats.rhs_evals += 1
        corr = None
        if isinstance(solver, StaleSolver):
            corr = _simplified_newton(
                rhs, t_new, y_predict, fp, c, psi, solver.solve,
                atol + rtol * np.abs(y_predict), newton_tol, stats)
            if corr is None:
                stats.iteration_restarts += 1
                solver = solver.refresh()
        if corr is None:
            corr = solver(c * fp - psi)
            stats.linear_solves += 1
        y_new = y_predict + corr

        scale = atol + rtol * np.abs(y_new)
        err_norm = _norm(_ERROR_CONST[order] * corr, scale)
        _require_finite("bdf", err_norm, y_new, t, h)
        if err_norm > 1.0:
            stats.rejected += 1
            factor = max(_MIN_FACTOR,
                         _SAFETY * err_norm ** (-1.0 / (order + 1)))
            _rescale_differences(d, order, factor)
            h *= factor
            n_equal = 0
            continue

        stats.accepted += 1
        n_equal += 1
        d[order + 2] = corr - d[order + 1]
        d[order + 1] = corr
        for i in range(order, -1, -1):
            d[i] = d[i] + d[i + 1]
        t = t_new
        samples.fill(t, d[0], dense)

        if n_equal < order + 1:
            continue

        # Held order and step long enough: consider switching either one.
        err_m = (_norm(_ERROR_CONST[order - 1] * d[order], scale)
                 if order > 1 else np.inf)
        err_p = (_norm(_ERROR_CONST[order + 1] * d[order + 2], scale)
                 if order < _MAX_ORDER else np.inf)
        norms = np.array([err_m, err_norm, err_p])
        with np.errstate(divide="ignore"):
            factors = norms ** (-1.0 / np.arange(order, order + 3))
        best = int(np.argmax(factors))
        order += best - 1
        factor = min(_MAX_FACTOR, _SAFETY * factors[best])
        if factor <= 0 or not np.isfinite(factor):
            factor = 1.0
        _rescale_differences(d, order, factor)
        h *= factor
        n_equal = 0

    return samples.states
