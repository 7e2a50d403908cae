"""Time-dependent exponent schedules alpha(t) mapping into (0, 1].

Six parametric families are provided.  Evaluation clamps into
[ALPHA_MIN, 1] so that schedules touching 0 (the exponential ramp at t=0,
splines overshooting between knots) stay inside the admissible range of the
fractional power.  Clamp events can be counted per integration run through
ClampCountingSchedule.  Schedules take a float or an ndarray of times and
return a float or an ndarray of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property

import numpy as np

from . import quadrature
from .errors import ScheduleError

__all__ = [
    "ALPHA_MIN",
    "AlphaSchedule",
    "ConstantSchedule",
    "SineSchedule",
    "ExpSaturatingSchedule",
    "SawtoothSchedule",
    "TriangularSchedule",
    "SplineSchedule",
    "ClampCountingSchedule",
    "parse_schedule",
    "render_schedule",
]

ALPHA_MIN = 1e-6


class AlphaSchedule:
    """Base class: subclasses implement ``raw``; calls are clamped.

    A family's descriptor name is its ``family``; its dataclass fields, in
    order, are the descriptor's parameters.
    """

    family: str | None = None
    period: float | None = None

    def raw(self, t):
        """Unclamped alpha at a float time or an ndarray of times."""
        raise NotImplementedError

    def __call__(self, t):
        return _clamp(self.raw(t))

    def breakpoints(self, t0: float, t1: float) -> tuple[float, ...]:
        """Non-smooth points strictly inside (t0, t1), for quadrature."""
        return ()


def _is_array(raw) -> bool:
    # Cheaper than np.ndim on the scalar path the integrators take per step.
    return isinstance(raw, np.ndarray) and raw.ndim > 0


def _clamp(raw):
    if _is_array(raw):
        return np.clip(raw, ALPHA_MIN, 1.0)
    return min(1.0, max(ALPHA_MIN, float(raw)))


def _require_finite(name: str, *params: float) -> None:
    # A NaN fails every comparison, so it slips past checks written as
    # "reject if out of range" and evaluates to a silently clamped alpha;
    # an infinity overflows the probe.
    if not all(math.isfinite(p) for p in params):
        raise ScheduleError(f"{name} parameters must be finite, got {params}")


@dataclass(frozen=True)
class ConstantSchedule(AlphaSchedule):
    family = "const"
    value: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ScheduleError(f"constant alpha must lie in (0, 1], got {self.value}")

    def raw(self, t):
        return np.full(np.shape(t), self.value) if _is_array(t) else self.value


@dataclass(frozen=True)
class SineSchedule(AlphaSchedule):
    """base + amplitude * sin(angular_frequency * t)."""

    family = "sin"
    base: float
    amplitude: float
    angular_frequency: float

    def __post_init__(self):
        _require_finite("sine", self.base, self.amplitude,
                        self.angular_frequency)
        if self.amplitude < 0:
            raise ScheduleError("sine amplitude must be >= 0")
        if self.angular_frequency <= 0:
            raise ScheduleError("sine angular frequency must be > 0")
        if self.base + self.amplitude > 1.0 + 1e-12:
            raise ScheduleError(
                f"sine range exceeds 1: base+amp = {self.base + self.amplitude}")
        if self.base - self.amplitude < 0.0:
            raise ScheduleError(
                f"sine range dips below 0: base-amp = {self.base - self.amplitude}")

    def raw(self, t):
        return self.base + self.amplitude * np.sin(self.angular_frequency * t)

    def breakpoints(self, t0, t1):
        # Quarter-period pieces are monotone, which defeats the aliasing a
        # dyadic-period sine produces on bisection-based quadrature grids.
        return _periodic_interior_points(self.period / 4.0, t0, t1)

    @property
    def period(self):
        return 2.0 * math.pi / self.angular_frequency


@dataclass(frozen=True)
class ExpSaturatingSchedule(AlphaSchedule):
    """1 - exp(-rate * t): starts at 0 (clamped) and saturates at 1."""

    family = "expsat"
    rate: float

    def __post_init__(self):
        _require_finite("saturation", self.rate)
        if self.rate <= 0:
            raise ScheduleError("saturation rate must be > 0")

    def raw(self, t):
        return 1.0 - np.exp(-self.rate * t)


def _periodic_interior_points(step: float, t0: float, t1: float):
    first = math.floor(t0 / step) + 1
    last = math.ceil(t1 / step) - 1
    # Counted before the tuple is built: the quadrature cannot take more
    # panels than its budget, and a tiny period would exhaust memory first.
    if last - first + 1 > quadrature._MAX_INTERVALS:
        raise ScheduleError(
            f"schedule has {last - first + 1} breakpoints on ({t0}, {t1}), "
            f"more than the quadrature budget of {quadrature._MAX_INTERVALS} "
            "panels")
    return tuple(k * step for k in range(first, last + 1)
                 if t0 < k * step < t1)


@dataclass(frozen=True)
class _BandSchedule(AlphaSchedule):
    """Periodic schedule between lo and hi; ``name`` labels its errors."""

    lo: float
    hi: float
    # field() keeps AlphaSchedule.period from becoming this field's default.
    period: float = field()

    def __post_init__(self):
        lo, hi, name = self.lo, self.hi, self.name
        _require_finite(name, lo, hi, self.period)
        if not 0.0 < lo <= hi <= 1.0:
            raise ScheduleError(f"{name} needs 0 < lo <= hi <= 1, got ({lo}, {hi})")
        if self.period <= 0:
            raise ScheduleError(f"{name} period must be > 0")


class SawtoothSchedule(_BandSchedule):
    """Periodic linear ramp lo -> hi with a jump back to lo at each period."""

    family, name = "saw", "sawtooth"

    def raw(self, t):
        phase = t / self.period - np.floor(t / self.period)
        return self.lo + (self.hi - self.lo) * phase

    def breakpoints(self, t0, t1):
        return _periodic_interior_points(self.period, t0, t1)


class TriangularSchedule(_BandSchedule):
    """Continuous up-down ramp between lo and hi with the given period."""

    family, name = "tri", "triangular"

    def raw(self, t):
        phase = t / self.period - np.floor(t / self.period)
        frac = np.where(phase <= 0.5, 2.0 * phase, 2.0 * (1.0 - phase))
        return self.lo + (self.hi - self.lo) * frac

    def breakpoints(self, t0, t1):
        return _periodic_interior_points(self.period / 2.0, t0, t1)


@dataclass(frozen=True)
class SplineSchedule(AlphaSchedule):
    """Not-a-knot cubic through the given knots, clamped into (0, 1]."""

    family = "spline"
    knot_times: tuple[float, ...]
    knot_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.knot_times) != len(self.knot_values):
            raise ScheduleError("spline needs matching knot times and values")
        if len(self.knot_times) < 2:
            raise ScheduleError("spline needs at least two knots")
        _require_finite("spline knot time", *self.knot_times)
        times = np.asarray(self.knot_times, dtype=float)
        if np.any(np.diff(times) <= 0):
            raise ScheduleError("spline knot times must be strictly increasing")
        for t, v in zip(self.knot_times, self.knot_values):
            if not 0.0 < v <= 1.0:
                raise ScheduleError(
                    f"spline knot value {v} at t={t} outside (0, 1]")

    @cached_property
    def _spline(self):
        # Imported here: scipy.interpolate (and the scipy.optimize it pulls
        # in) would otherwise dominate the cost of importing the package.
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.knot_times, self.knot_values,
                           bc_type="not-a-knot")

    def raw(self, t):
        return self._spline(t)

    def breakpoints(self, t0, t1):
        return tuple(t for t in self.knot_times if t0 < t < t1)


class ClampCountingSchedule:
    """Per-run wrapper that counts clamped evaluations.

    The wrapped schedule stays immutable; each integration run owns one
    counter, which keeps concurrent runs independent.  An array call counts
    each clamped entry.
    """

    def __init__(self, schedule: AlphaSchedule):
        self.schedule = schedule
        self.clamps = 0

    def __call__(self, t):
        raw = self.schedule.raw(t)
        if _is_array(raw):
            self.clamps += int(np.count_nonzero((raw < ALPHA_MIN) | (raw > 1.0)))
        elif raw < ALPHA_MIN or raw > 1.0:
            self.clamps += 1
        return _clamp(raw)

    def breakpoints(self, t0, t1):
        return self.schedule.breakpoints(t0, t1)


# ---------------------------------------------------------------------------
# Descriptor grammar
# ---------------------------------------------------------------------------
#   const:<c> | sin:<base>,<amp>,<freq> | expsat:<rate> | saw:<lo>,<hi>,<T>
#   | tri:<lo>,<hi>,<T> | spline:<t0>=<v0>;<t1>=<v1>;...

_FAMILIES = {cls.family: cls for cls in (
    ConstantSchedule, SineSchedule, ExpSaturatingSchedule, SawtoothSchedule,
    TriangularSchedule, SplineSchedule)}
_PROBE_POINTS = 1000
_MAX_CLAMP_FRACTION = 0.2


def parse_schedule(text: str) -> AlphaSchedule:
    """Parse a schedule descriptor string.

    Parameters are validated per family; the resulting schedule is probed at
    1000 points and rejected if it spends more than 20% of the probe window
    outside (0, 1] (clamping is meant for edge touches, not whole regimes).
    """
    text = text.strip()
    if ":" not in text:
        raise ScheduleError(
            f"bad schedule descriptor {text!r}: expected '<family>:<params>'")
    family, _, body = text.partition(":")
    family = family.strip().lower()
    try:
        schedule = _build_family(family, body)
    except ScheduleError:
        raise
    except ValueError as exc:
        raise ScheduleError(f"bad schedule descriptor {text!r}: {exc}") from exc
    _probe_range(schedule)
    return schedule


def _build_family(family: str, body: str) -> AlphaSchedule:
    cls = _FAMILIES.get(family)
    if cls is None:
        raise ScheduleError(f"unknown schedule family {family!r}")
    if cls is SplineSchedule:
        times, values = [], []
        for piece in body.split(";"):
            if not piece.strip():
                continue
            t_text, _, v_text = piece.partition("=")
            if not v_text:
                raise ScheduleError(
                    f"spline knot {piece!r} must look like '<t>=<v>'")
            times.append(float(t_text))
            values.append(float(v_text))
        return SplineSchedule(tuple(times), tuple(values))
    params, count = body.split(","), len(fields(cls))
    if len(params) != count:
        raise ValueError(f"{family} takes {count} "
                         f"parameter{'s' * (count > 1)}, got {len(params)}")
    return cls(*(float(p) for p in params))


def _probe_window(schedule: AlphaSchedule) -> tuple[float, float]:
    if isinstance(schedule, SplineSchedule):
        return schedule.knot_times[0], schedule.knot_times[-1]
    if schedule.period is not None:
        return 0.0, schedule.period
    if isinstance(schedule, ExpSaturatingSchedule):
        return 0.0, 10.0 / schedule.rate
    return 0.0, 1.0


def _probe_range(schedule: AlphaSchedule) -> None:
    lo, hi = _probe_window(schedule)
    # expsat's window (0, 10/rate) overflows for a rate below ~5.6e-308;
    # its probe points would be NaN and pass every comparison.
    if not math.isfinite(hi):
        raise ScheduleError(
            f"{schedule.family} probe window ({lo!r}, {hi!r}) overflows; "
            "adjust its parameters")
    if hi <= lo:
        return
    raws = schedule.raw(np.linspace(lo, hi, _PROBE_POINTS))
    clamped = np.count_nonzero((raws < ALPHA_MIN) | (raws > 1.0))
    if clamped > _MAX_CLAMP_FRACTION * _PROBE_POINTS:
        raise ScheduleError(
            f"schedule leaves (0, 1] on {clamped} of {_PROBE_POINTS} probe "
            "points; adjust its parameters")


def render_schedule(schedule: AlphaSchedule) -> str:
    """Inverse of parse_schedule; floats use shortest round-trip form."""
    family = next((name for name, cls in _FAMILIES.items()
                   if isinstance(schedule, cls)), None)
    if family is None:
        raise TypeError(
            f"cannot render schedule of type {type(schedule).__name__}")
    if family == "spline":
        knots = ";".join(f"{t!r}={v!r}" for t, v in
                         zip(schedule.knot_times, schedule.knot_values))
        return f"spline:{knots}"
    return f"{family}:" + ",".join(repr(v) for v in astuple(schedule))
