"""Independent checks of every job's output, with numpy and scipy alone.

Nothing here imports fraclap.  The references are built from the benchmark's
own edge lists: Laplacians, eigendecompositions (``numpy.linalg.eigh`` /
``eig``), exponent integrals (``scipy.integrate.quad_vec`` over the schedule
breakpoints), ODE solutions (``scipy.integrate.solve_ivp`` DOP853), matrix
exponentials (``scipy.linalg.expm``) and hop distances
(``scipy.sparse.csgraph.shortest_path``).  The integrators are held to a
tolerance tied to their rtol; the closed forms to near machine precision.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import scipy.integrate
import scipy.linalg

from bench_inputs import hop_matrix
from bench_plan import GENERATORS, KPATH_CHECK_ALPHA

ALPHA_MIN = 1e-6
ZERO_EIGENVALUE = 1e-10
SAMPLES = 200          # IntegratorConfig's default number of output samples
RTOL, ATOL = 1e-6, 1e-9  # IntegratorConfig's default tolerances

# Largest error allowed, relative to the largest reference entry.  The
# integrators' global error is held to a multiple of their local rtol.
TOLERANCE = {"exact": 1e-9, "bdf": 500 * RTOL, "rk45": 500 * RTOL}
CLOSED_FORM_TOL = 1e-9   # Floquet multipliers, powers, hop-coupling matrices
MASS_TOL = 1e-10
# Entries may dip below zero, and ||p - 1/n||_2 may rise, by integrator
# noise of the order of atol per entry.
NEGATIVE_SLACK = 10 * ATOL


def schedule_function(descriptor: str):
    """(alpha(t) for arrays, jump points inside (t0, t1)) of a descriptor."""
    family, _, body = descriptor.partition(":")
    params = [float(p) for p in body.split(",")]
    jumps = lambda t0, t1: []  # noqa: E731
    if family == "const":
        raw = lambda t: np.full_like(np.asarray(t, float), params[0])  # noqa: E731
    elif family == "sin":
        base, amp, omega = params
        raw = lambda t: base + amp * np.sin(omega * np.asarray(t))  # noqa: E731
    elif family == "expsat":
        raw = lambda t: 1.0 - np.exp(-params[0] * np.asarray(t))  # noqa: E731
    elif family == "saw":
        lo, hi, period = params

        def raw(t):
            phase = np.asarray(t) / period
            return lo + (hi - lo) * (phase - np.floor(phase))

        def jumps(t0, t1):
            k0, k1 = math.floor(t0 / period) + 1, math.ceil(t1 / period) - 1
            return [k * period for k in range(k0, k1 + 1)
                    if t0 < k * period < t1]
    else:
        raise ValueError(f"no reference for schedule {descriptor!r}")
    return (lambda t: np.clip(raw(t), ALPHA_MIN, 1.0)), jumps


def laplacian(info, kind: str) -> np.ndarray:
    """Dense Laplacian of a graph description: comb, out or nrw (I - D^-1 A)."""
    n = info["n"]
    adj = np.zeros((n, n))
    for u, v, w in info["edges"]:
        adj[u, v] = w
        if not info["directed"]:
            adj[v, u] = w
    degree = adj.sum(axis=1)
    if kind == "nrw":
        return np.eye(n) - adj / degree[:, None]
    return np.diag(degree) - adj


def powered(lam, alpha):
    """lam**alpha on the principal branch, with near-zero eigenvalues -> 0."""
    lam = np.asarray(lam)
    safe = np.where(np.abs(lam) <= ZERO_EIGENVALUE, 1.0, lam)
    return np.where(np.abs(lam) <= ZERO_EIGENVALUE, 0.0,
                    np.exp(alpha * np.log(safe.astype(complex))))


class EigPower:
    """L^alpha = V diag(lam^alpha) V^-1 from numpy.linalg.eig."""

    def __init__(self, matrix):
        self.lam, self.vectors = np.linalg.eig(matrix)
        self.inverse = np.linalg.inv(self.vectors)
        self.kappa = float(np.linalg.cond(self.vectors))

    def __call__(self, alpha):
        return ((self.vectors * powered(self.lam, alpha)) @ self.inverse).real


def exponent_integrals(lam, descriptor, times):
    """I[k, i] = integral_0^times[k] of lam_i^alpha(tau), over every jump."""
    alpha, jumps = schedule_function(descriptor)
    lam = np.asarray(lam)
    zero = np.abs(lam) <= ZERO_EIGENVALUE
    log_lam = np.log(np.where(zero, 1.0, lam))
    if not np.iscomplexobj(lam):
        log_lam = log_lam.real

    def integrand(t):
        return np.where(zero, 0.0, np.exp(alpha(t) * log_lam))

    out = np.zeros((len(times), lam.size), dtype=log_lam.dtype)
    for k in range(1, len(times)):
        a, b = times[k - 1], times[k]
        piece, _ = scipy.integrate.quad_vec(
            integrand, a, b, epsabs=1e-14, epsrel=1e-13, norm="max",
            points=jumps(a, b) or None)
        out[k] = out[k - 1] + piece
    return out


def ode_reference(power, descriptor, p0, times):
    """p' = -p L^alpha(t) by DOP853, restarted at every schedule jump."""
    alpha, jumps = schedule_function(descriptor)
    edges = [times[0], *jumps(times[0], times[-1]), times[-1]]
    out = np.empty((len(times), len(p0)))
    state = np.asarray(p0, dtype=float)
    for a, b in zip(edges[:-1], edges[1:]):
        inside = (times >= a) & (times <= b)
        t_eval = np.union1d(times[inside], [b])
        solution = scipy.integrate.solve_ivp(
            lambda t, p: -(p @ power(alpha(t))), (a, b), state,
            method="DOP853", t_eval=t_eval, rtol=1e-12, atol=1e-15)
        out[inside] = solution.y.T[np.isin(t_eval, times[inside])]
        state = solution.y[:, -1]
    return out


def propagate(p0, generator, times):
    """p0 expm(-t G) on a uniform grid, one expm for the step."""
    step = scipy.linalg.expm(-(times[1] - times[0]) * generator)
    out = np.empty((len(times), len(p0)))
    out[0] = p0
    for k in range(1, len(times)):
        out[k] = out[k - 1] @ step
    return out


def kpath_matrix(hops, alpha):
    """L_1 + sum_k k^-alpha L_k, summed from the benchmark's own hop matrix."""
    weights = np.zeros_like(hops)
    off = hops > 0
    weights[off] = hops[off] ** (-alpha)
    matrix = -weights
    np.fill_diagonal(matrix, weights.sum(axis=1))
    return matrix


def relative_error(x, ref) -> float:
    return float(np.abs(x - ref).max() / np.abs(ref).max())


def matched_error(values, reference) -> float:
    """Largest distance once each value is paired with its own reference."""
    remaining = list(reference)
    worst = 0.0
    for v in values:
        i = int(np.argmin(np.abs(np.asarray(remaining) - v)))
        worst = max(worst, abs(remaining.pop(i) - v))
    return worst


class Checker:
    """Checks the jobs of one workload; caches references across rounds."""

    def __init__(self, workload: str, graphs: dict):
        self.workload = workload
        self.graphs = graphs
        self.cache = {}
        self.kappa = {}

    def _memo(self, key, build):
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def _eigh(self, graph):
        def build():
            lam, vectors = np.linalg.eigh(laplacian(self.graphs[graph], "comb"))
            lam[np.abs(lam) <= ZERO_EIGENVALUE] = 0.0
            return lam, vectors
        return self._memo(("eigh", graph), build)

    def _eig(self, graph):
        def build():
            kind = GENERATORS[self.workload][graph]
            power = EigPower(laplacian(self.graphs[graph],
                                       "nrw" if kind == "nrw" else "out"))
            self.kappa[graph] = power.kappa
            return power
        return self._memo(("eig", graph), build)

    def _integrals(self, graph, schedule, times):
        lam = (self._eigh(graph)[0]
               if GENERATORS[self.workload][graph] == "comb"
               else self._eig(graph).lam)
        return self._memo(("integrals", graph, schedule, tuple(times)),
                          lambda: exponent_integrals(lam, schedule, times))

    def prepare(self, jobs) -> None:
        """Build every reference that does not depend on a job's output."""
        for job in jobs:
            graph, kind = job["graph"], GENERATORS[self.workload][job["graph"]]
            if kind == "kpath":
                self._hops(graph)
            elif job["kind"] == "floquet":
                self._integrals(graph, job["schedule"], (0.0, job["period"]))
            elif kind == "comb":
                self._integrals(graph, job["schedule"],
                                tuple(np.linspace(0.0, job["horizon"], SAMPLES)))
            else:
                self._eig(graph)

    def _hops(self, graph):
        info = self.graphs[graph]
        return self._memo(("hops", graph),
                          lambda: hop_matrix(info["n"], info["edges"]))

    def check(self, job, results, out_dir: Path, roundtrip) -> dict:
        """Return {measure: value} plus "failures": [messages]."""
        kind = job["kind"]
        if kind == "simulate":
            return self._simulate(job, results, roundtrip)
        path = out_dir / f"{job['name']}.csv"
        if kind == "floquet":
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            return self._floquet(job, table[:, 0] + 1j * table[:, 1])
        matrix = np.loadtxt(path, delimiter=",", ndmin=2)
        if kind == "power":
            return self._power(job, matrix)
        return self._kpath(job, matrix, results)

    def _simulate(self, job, results, roundtrip):
        name, graph = job["name"], job["graph"]
        times = results[f"{name}.times"]
        states = results[f"{name}.states"]
        grid = np.linspace(0.0, job["horizon"], SAMPLES)
        failures = []
        if times.shape != grid.shape or np.abs(times - grid).max() > 1e-14:
            return {"failures": [f"{name}: unexpected sample times"]}
        if not roundtrip.get(name, False):
            failures.append(f"{name}: CSV does not read back bit for bit")
        p0 = states[0]
        kind = GENERATORS[self.workload][graph]
        if kind == "comb":
            _, vectors = self._eigh(graph)
            integrals = self._integrals(graph, job["schedule"], tuple(grid))
            phase = 1j if job["model"] == "schrodinger" else 1.0
            reference = self._memo(
                ("closed", graph, job["schedule"], p0.tobytes()),
                lambda: ((p0 @ vectors) * np.exp(-phase * integrals))
                @ vectors.T)
        elif kind == "kpath" and job["schedule"].startswith("const:"):
            alpha = float(job["schedule"].partition(":")[2])
            generator = kpath_matrix(self._hops(graph), alpha)
            reference = self._memo(("propagate", name, p0.tobytes()),
                                   lambda: propagate(p0, generator, grid))
        elif kind == "kpath":
            reference = None
        elif job["schedule"].startswith("const:"):
            alpha = float(job["schedule"].partition(":")[2])
            generator = self._eig(graph)(alpha)
            reference = self._memo(("propagate", name, p0.tobytes()),
                                   lambda: propagate(p0, generator, grid))
        else:
            power = self._eig(graph)
            reference = self._memo(
                ("ode", name, p0.tobytes()),
                lambda: ode_reference(power, job["schedule"], p0, grid))
        measures = {}
        if reference is not None:
            error = relative_error(states, reference)
            measures["error"] = error
            if not error <= TOLERANCE[job["method"]]:
                failures.append(f"{name}: error {error:.3e} against the "
                                f"reference exceeds {TOLERANCE[job['method']]:.1e}")
        if job["model"] == "schrodinger":
            drift = float(np.abs(np.linalg.norm(states, axis=1) - 1.0).max())
            measures["norm_drift"] = drift
            if not drift <= TOLERANCE[job["method"]]:
                failures.append(f"{name}: norm drifts by {drift:.3e}")
            return {**measures, "failures": failures}
        if np.iscomplexobj(states):
            failures.append(f"{name}: heat states are complex")
            states = states.real
        drift = float(np.abs(states.sum(axis=1) - 1.0).max())
        lowest = float(states.min())
        measures.update(mass_drift=drift, negative=max(0.0, -lowest))
        if not drift <= MASS_TOL:
            failures.append(f"{name}: mass drifts by {drift:.3e}")
        if not lowest >= -NEGATIVE_SLACK:
            failures.append(f"{name}: negative entry {lowest:.3e}")
        if not self.graphs[graph]["directed"] and kind != "nrw":
            gap = np.linalg.norm(states - 1.0 / states.shape[1], axis=1)
            rise = float(np.diff(gap).max())
            measures["max_rise"] = rise
            if not rise <= 10 * ATOL * math.sqrt(states.shape[1]):
                failures.append(f"{name}: ||p - 1/n|| rises by {rise:.3e}")
        return {**measures, "failures": failures}

    def _floquet(self, job, exponents):
        period = job["period"]
        integral = self._integrals(job["graph"], job["schedule"],
                                   (0.0, period))[1]
        # Compare multipliers exp(T e): the imaginary part of a logarithm is
        # only defined up to 2 pi / T.
        error = matched_error(np.exp(period * exponents), np.exp(-integral))
        failures = []
        if len(exponents) != len(integral) or not error <= CLOSED_FORM_TOL:
            failures.append(f"{job['name']}: multipliers off by {error:.3e}")
        if not np.all(np.diff(exponents.real) <= 1e-12):
            failures.append(f"{job['name']}: exponents not sorted")
        return {"error": error, "failures": failures}

    def _power(self, job, matrix):
        power = self._eig(job["graph"])
        reference = power(job["alpha"])
        error = relative_error(matrix, reference)
        row_sums = float(np.abs(matrix.sum(axis=1)).max())
        failures = []
        if not error <= CLOSED_FORM_TOL:
            failures.append(f"{job['name']}: L^alpha off by {error:.3e}")
        if not row_sums <= CLOSED_FORM_TOL:
            failures.append(f"{job['name']}: row sums up to {row_sums:.3e}")
        return {"error": error, "row_sums": row_sums, "failures": failures}

    def _kpath(self, job, matrix, results):
        hops = self._hops(job["graph"])
        failures = []
        off = ~np.eye(len(hops), dtype=bool)
        found = np.rint((-matrix[off]) ** (-1.0 / job["alpha"]))
        if not np.array_equal(found, hops[off]):
            failures.append(f"{job['name']}: hop distances differ from "
                            "shortest_path")
        error = relative_error(matrix, kpath_matrix(hops, job["alpha"]))
        generator = results["kpath.generator_matrix"]
        generator_error = relative_error(
            generator, kpath_matrix(hops, KPATH_CHECK_ALPHA))
        for label, value in (("matrix", error), ("generator", generator_error)):
            if not value <= CLOSED_FORM_TOL:
                failures.append(f"{job['name']}: {label} off by {value:.3e}")
        return {"error": error, "generator_error": generator_error,
                "failures": failures}
