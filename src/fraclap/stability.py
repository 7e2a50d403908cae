"""Stability diagnostics: steady states, Floquet exponents, decay envelopes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import (
    KPathGenerator,
    Trajectory,
    _exponent_integrals,
    fractional_generator,
)
from .errors import NumericError
from .graphs import Graph, connectivity, directed_laplacians
# Not called here: kept as stability.rk45_integrate, the attribute that
# benchmarks/test_bench_checks.py checks the tracer patches and restores.
from .integrators import rk45_integrate  # noqa: F401
from .matfun import SpectralDecomposition, fractional_power_sym
from .schedules import AlphaSchedule

__all__ = [
    "DecayEnvelope",
    "steady_state",
    "antiderivative_commutator_residual",
    "floquet_exponents",
    "decay_envelope",
]


def steady_state(g: Graph) -> np.ndarray:
    """Limit distribution of the heat dynamics on a connected graph.

    Undirected: the uniform vector 1/n.  Directed (strongly connected): the
    left null vector of the out-degree Laplacian, normalized to sum 1; it is
    also the left null vector of every fractional power.
    """
    report = connectivity(g)
    if not report.is_connected:
        kind = "strongly connected" if g.directed else "connected"
        raise ValueError(
            f"graph is not {kind} ({len(report.components)} components); "
            "restrict to the largest component first")
    if not g.directed:
        return np.full(g.n, 1.0 / g.n)
    l_out, _ = directed_laplacians(g)
    values, vectors = np.linalg.eig(l_out.T)
    idx = int(np.argmin(np.abs(values)))
    scale = max(1.0, np.abs(l_out).max())
    if np.abs(values[idx]) > 1e-8 * scale:
        raise NumericError(
            f"no numerical null vector: smallest |eigenvalue| = {np.abs(values[idx]):.3e}")
    vec = vectors[:, idx]
    vec = vec / vec[int(np.argmax(np.abs(vec)))]
    if np.abs(vec.imag).max() > 1e-8:
        raise NumericError("left null vector has a non-negligible imaginary part")
    vec = vec.real
    total = vec.sum()
    if abs(total) < 1e-12:
        raise NumericError("left null vector sums to zero; cannot normalize")
    return vec / total


def antiderivative_commutator_residual(d: SpectralDecomposition,
                                       schedule: AlphaSchedule,
                                       t: float) -> float:
    """Max-norm of [L^{alpha(t)}, integral_0^t L^{alpha(tau)} dtau].

    Exactly zero in theory (all powers share the eigenbasis); the returned
    value measures quadrature plus matrix-product roundoff.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    lam = d.clamped_eigenvalues()
    integrals = _exponent_integrals(lam, schedule, [t])[0]
    power_now = fractional_power_sym(d, schedule(t))
    antider = (d.basis * integrals) @ d.basis.T
    residual = power_now @ antider - antider @ power_now
    return float(np.abs(residual).max())


def _check_periodic(schedule, period):
    if not period > 0:
        raise ValueError("period must be positive")
    probes = np.linspace(0.0, period, 17)
    for t in probes:
        if abs(schedule(t) - schedule(t + period)) > 1e-8:
            raise ValueError(
                f"schedule is not {period}-periodic (mismatch at t={t:.6g})")


def floquet_exponents(source, schedule: AlphaSchedule, period: float
                      ) -> np.ndarray:
    """Characteristic exponents of one period of the dynamics.

    All powers of one Laplacian commute, so the monodromy
    exp(-int_0^T L^{alpha(tau)} dtau) has the eigenvalues
    exp(-int_0^T lambda_i^{alpha(tau)} dtau), even for a Laplacian that is
    not diagonalizable (Higham, Functions of Matrices, ch. 9).  The
    exponents are -(1/T) int_0^T lambda_i^{alpha(tau)} dtau, with lambda_i
    from eigh (symmetric source) or from the triangular factor of a general
    one, and the integrals from the batched Gauss-Kronrod quadrature of
    exact_solution (tolerance 1e-10 per eigenvalue and part).  Imaginary
    parts are reduced to the principal branch (-pi/T, pi/T], so each
    exponent equals log(multiplier) / T.  Exponents are sorted by
    decreasing real part (the conserved direction comes first).
    """
    _check_periodic(schedule, period)
    generator = fractional_generator(source)
    if isinstance(generator, KPathGenerator):
        raise ValueError("Floquet exponents need a fractional Laplacian "
                         "generator, not the hop-coupling one")
    integrals = _exponent_integrals(generator.clamped_eigenvalues(), schedule,
                                    [period])[0]
    exponents = (-integrals / period).astype(complex)
    if np.iscomplexobj(integrals):
        exponents.imag = np.angle(np.exp(-1j * integrals.imag)) / period + 0.0
    return exponents[np.argsort(-exponents.real, kind="stable")]


@dataclass(frozen=True)
class DecayEnvelope:
    """Fitted bound ||p(t) - p_inf|| <= amplitude * exp(-rate * t)."""

    amplitude: float
    rate: float
    residual: float


def decay_envelope(traj: Trajectory, reference: np.ndarray) -> DecayEnvelope:
    """Fit the decay of a heat trajectory toward its steady state.

    The deviation e(t) = ||p(t) - reference||_2 lives on the complement of
    the conserved direction, so a clean exponential envelope exists there.
    log e(t) is fitted on the samples past the transient window, the first
    quarter of the time span; at least 10 usable samples are required.
    """
    if np.iscomplexobj(traj.states) and np.abs(traj.states.imag).max() > 0:
        raise ValueError("decay envelopes apply to the heat model (real states)")
    deviations = np.linalg.norm(traj.states.real - np.asarray(reference), axis=1)
    times = traj.times
    cutoff = times[0] + 0.25 * (times[-1] - times[0])
    floor = max(deviations.max() * 1e-12, 1e-300)
    usable = (times >= cutoff) & (deviations > floor)
    if int(usable.sum()) < 10:
        raise ValueError(
            f"trajectory too short past the transient: {int(usable.sum())} "
            "usable samples, need 10")
    tt = times[usable]
    log_e = np.log(deviations[usable])
    slope, intercept = np.polyfit(tt, log_e, 1)
    rate = -float(slope)
    fitted = intercept + slope * tt
    residual = float(np.sqrt(np.mean((log_e - fitted) ** 2)))
    amplitude = float(np.exp(np.max(log_e + rate * tt)))
    return DecayEnvelope(amplitude=amplitude, rate=rate, residual=residual)
