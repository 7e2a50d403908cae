"""Property tests for vectorized schedules and the closed-form solver.

Schedules are drawn from every parametric family with random parameters;
graphs are connected random undirected graphs on at most 30 nodes.  The
closed form is checked per eigenvalue against scipy's quad_vec and as a
whole against the bdf and rk45 integrators.
"""

import numpy as np
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fraclap import (
    DynamicsProblem,
    IntegratorConfig,
    ScheduleError,
    SpectralGenerator,
    combinatorial_laplacian,
    exact_solution,
    parse_schedule,
    random_initial_state,
    render_schedule,
    simulate,
)
from fraclap.schedules import ClampCountingSchedule
from test_graph_properties import graphs

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True)
SOLVERS = settings(max_examples=100, deadline=None, derandomize=True)


def _unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def descriptors(draw):
    """A schedule descriptor of a random family, floats in repr form."""
    r = repr
    family = draw(st.sampled_from(["sin", "saw", "tri", "expsat", "spline"]))
    if family == "sin":
        base = draw(_unit(0.05, 0.95))
        amp = draw(_unit(0.0, min(base, 1.0 - base)))
        return f"sin:{r(base)},{r(amp)},{r(draw(_unit(0.5, 20.0)))}"
    if family in ("saw", "tri"):
        lo = draw(_unit(0.01, 1.0))
        hi = draw(_unit(lo, 1.0))
        return f"{family}:{r(lo)},{r(hi)},{r(draw(_unit(0.1, 3.0)))}"
    if family == "expsat":
        return f"expsat:{r(draw(_unit(0.1, 20.0)))}"
    gaps = draw(st.lists(_unit(0.25, 1.0), min_size=1, max_size=4))
    times = np.concatenate([[0.0], np.cumsum(gaps)]).tolist()
    values = draw(st.lists(_unit(0.3, 0.7), min_size=len(times),
                           max_size=len(times)))
    return "spline:" + ";".join(f"{r(t)}={r(v)}" for t, v in zip(times, values))


def _schedule(text):
    try:
        return parse_schedule(text)
    except ScheduleError:  # a spline overshooting (0, 1] on its probe window
        assume(False)


@PROPERTY
@given(descriptors())
def test_render_inverts_parse(text):
    schedule = _schedule(text)
    assert render_schedule(schedule) == text
    assert parse_schedule(render_schedule(schedule)) == schedule


@PROPERTY
@given(descriptors(), st.lists(_unit(0.0, 10.0), min_size=1, max_size=40))
def test_array_evaluation_matches_scalar_bit_for_bit(text, times):
    schedule = _schedule(text)
    # Exact period multiples hit the sawtooth jump and the triangle peak.
    period = schedule.period or 1.0
    ts = np.array(times + [k * period / 2 for k in range(4)])
    vector, scalar = ClampCountingSchedule(schedule), ClampCountingSchedule(schedule)
    values = vector(ts)
    expected = np.array([scalar(float(t)) for t in ts])
    assert values.tobytes() == expected.tobytes()
    assert vector.clamps == scalar.clamps
    assert schedule(ts).tobytes() == expected.tobytes()


def _problem(g, text, horizon, seed):
    gen = SpectralGenerator.from_matrix(combinatorial_laplacian(g))
    p0 = random_initial_state("heat", g.n, seed=seed)
    return DynamicsProblem("heat", gen, _schedule(text), p0, horizon)


connected = graphs(directed=st.just(False), connected=True).filter(
    lambda g: g.n > 1)


@SOLVERS
@given(connected, descriptors(), _unit(0.2, 2.0), st.integers(0, 2 ** 16))
def test_exact_matches_quad_vec_per_eigenvalue(g, text, horizon, seed):
    problem = _problem(g, text, horizon, seed)
    # Few samples leave wide panels, so the refinement runs too.
    times = np.array([0.0, horizon / 3, horizon])
    traj = exact_solution(problem, times)
    lam = problem.generator.clamped_eigenvalues()
    basis = problem.generator.factorization.vectors
    schedule = problem.schedule
    integrals = [np.zeros_like(lam)]
    for t0, t1 in zip(times[:-1], times[1:]):
        step, _ = scipy.integrate.quad_vec(
            lambda tau: lam ** schedule(tau), t0, t1, epsabs=1e-12,
            epsrel=1e-12, norm="max",
            points=schedule.breakpoints(t0, t1) or None, limit=10000)
        integrals.append(integrals[-1] + step)
    reference = (problem.initial_state @ basis) * np.exp(-np.array(integrals))
    assert np.abs(traj.states @ basis - reference).max() <= 1e-9


@SOLVERS
@given(connected, descriptors(), _unit(0.2, 2.0), st.integers(0, 2 ** 16))
def test_exact_agrees_with_bdf_and_rk45(g, text, horizon, seed):
    problem = _problem(g, text, horizon, seed)
    samples = 8
    exact = exact_solution(problem, np.linspace(0.0, horizon, samples)).states
    for method in ("bdf", "rk45"):
        states = simulate(problem, IntegratorConfig(
            method=method, rtol=1e-9, atol=1e-9, samples=samples)).states
        assert np.abs(states - exact).max() <= 1e-6, method
