import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fraclap import (
    ConstantSchedule,
    ExpSaturatingSchedule,
    SawtoothSchedule,
    ScheduleError,
    SineSchedule,
    SplineSchedule,
    TriangularSchedule,
    parse_schedule,
    render_schedule,
)
from fraclap import quadrature
from fraclap.schedules import ALPHA_MIN, ClampCountingSchedule


def test_constant_everywhere():
    s = ConstantSchedule(0.75)
    for t in (0.0, 1.0, 17.3):
        assert s(t) == 0.75


def test_sine_value_at_zero_is_base():
    s = SineSchedule(0.5, 0.4, 4 * math.pi)
    assert s(0.0) == 0.5
    assert abs(s(1 / 8) - 0.9) <= 1e-12  # quarter period of sin(4 pi t)
    assert abs(s.period - 0.5) <= 1e-15


def test_expsat_clamps_at_origin():
    s = ExpSaturatingSchedule(10.0)
    assert s(0.0) == ALPHA_MIN
    assert abs(s(1.0) - (1 - math.exp(-10))) <= 1e-15
    assert s(100.0) == pytest.approx(1.0, abs=1e-12)


def test_clamp_counter_tracks_events():
    counting = ClampCountingSchedule(ExpSaturatingSchedule(10.0))
    assert counting(0.0) == ALPHA_MIN
    assert counting(1.0) > 0.9
    assert counting.clamps == 1


def test_sawtooth_ramp_and_jump():
    s = SawtoothSchedule(0.05, 0.75, 1.0)
    assert s(0.0) == 0.05
    assert abs(s(0.5) - 0.40) <= 1e-12
    assert s(0.999999) > 0.74
    assert abs(s(1.0) - 0.05) <= 1e-12  # jump at the period boundary
    assert s.breakpoints(0.0, 2.5) == (1.0, 2.0)


def test_triangular_is_continuous_and_peaks():
    s = TriangularSchedule(0.05, 0.75, 1.0)
    assert s(0.0) == 0.05
    assert abs(s(0.5) - 0.75) <= 1e-12
    assert abs(s(1.0) - 0.05) <= 1e-12
    left, right = s(0.5 - 1e-9), s(0.5 + 1e-9)
    assert abs(left - right) <= 1e-8
    assert s.breakpoints(0.0, 1.2) == (0.5, 1.0)


def test_spline_interpolates_knots():
    times = tuple(range(7))
    values = tuple(0.5 + 0.4 * math.sin(math.pi * k / 2) for k in range(7))
    s = SplineSchedule(times, values)
    for t, v in zip(times, values):
        assert abs(s.raw(t) - v) <= 1e-12
    assert s.breakpoints(0.5, 4.5) == (1.0, 2.0, 3.0, 4.0)


def test_schedule_output_always_in_range():
    schedules = [
        ExpSaturatingSchedule(3.0),
        SplineSchedule((0.0, 1.0, 2.0, 3.0), (0.9, 1.0, 0.1, 0.9)),
        SawtoothSchedule(0.05, 0.75, 0.3),
    ]
    ts = np.linspace(0.0, 5.0, 400)
    for s in schedules:
        vals = np.array([s(t) for t in ts])
        assert vals.min() >= ALPHA_MIN and vals.max() <= 1.0


# ---------------------------------------------------------------------------
# Descriptor grammar
# ---------------------------------------------------------------------------

def test_parse_sine_descriptor():
    s = parse_schedule("sin:0.5,0.4,12.566370614359172")
    assert isinstance(s, SineSchedule)
    for t in (0.0, 0.1, 0.37):
        assert abs(s(t) - (0.5 + 0.4 * math.sin(4 * math.pi * t))) <= 1e-12


def test_parse_constant_descriptor():
    s = parse_schedule("const:0.5")
    assert s == ConstantSchedule(0.5)


def test_parse_spline_descriptor_literal_knots():
    s = parse_schedule("spline:0=0.5;1=0.882;2=0.5;3=0.118;4=0.5;5=0.882;6=0.5")
    assert isinstance(s, SplineSchedule)
    assert s.knot_times == (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert s.knot_values == (0.5, 0.882, 0.5, 0.118, 0.5, 0.882, 0.5)
    assert abs(s.raw(1.0) - 0.882) <= 1e-12


def test_parse_rejects_sine_exceeding_one():
    with pytest.raises(ScheduleError, match="exceeds 1"):
        parse_schedule("sin:0.7,0.4,6.0")


def test_parse_rejects_unknown_family():
    with pytest.raises(ScheduleError, match="unknown"):
        parse_schedule("cosine:0.5")


def test_parse_rejects_bad_grammar():
    with pytest.raises(ScheduleError):
        parse_schedule("0.5")
    with pytest.raises(ScheduleError):
        parse_schedule("sin:0.5,0.4")
    with pytest.raises(ScheduleError):
        parse_schedule("spline:1;2")


@pytest.mark.parametrize("descriptor, message", [
    ("sin:0.5,0.4", "sin takes 3 parameters, got 2"),
    ("saw:0.2,0.9,1,2", "saw takes 3 parameters, got 4"),
    ("const:0.5,0.2", "const takes 1 parameter, got 2"),
    ("expsat:1,2", "expsat takes 1 parameter, got 2"),
])
def test_parse_names_family_on_wrong_parameter_count(descriptor, message):
    with pytest.raises(ScheduleError, match=message):
        parse_schedule(descriptor)


def test_parse_rejects_expsat_rate_whose_probe_window_overflows():
    # 10 / 1e-310 is inf: the probe points would be NaN and pass unchecked
    with pytest.raises(ScheduleError, match="expsat probe window"):
        parse_schedule("expsat:1e-310")
    assert parse_schedule("expsat:1e-300") == ExpSaturatingSchedule(1e-300)


def test_parse_rejects_unsorted_spline_knots():
    with pytest.raises(ScheduleError, match="increasing"):
        parse_schedule("spline:0=0.5;0=0.6;1=0.7")


def test_parse_rejects_constant_out_of_range():
    with pytest.raises(ScheduleError):
        parse_schedule("const:0")
    with pytest.raises(ScheduleError):
        parse_schedule("const:1.2")


def test_parse_rejects_band_out_of_range():
    with pytest.raises(ScheduleError):
        parse_schedule("saw:0,0.75,1")
    with pytest.raises(ScheduleError):
        parse_schedule("tri:0.5,1.5,1")


@pytest.mark.parametrize("descriptor", [
    "const:0.75",
    "sin:0.5,0.4,12.566370614359172",
    "expsat:10.0",
    "saw:0.05,0.75,1.0",
    "tri:0.05,0.75,1.0",
    "spline:0.0=0.5;1.0=0.9;2.0=0.5;3.0=0.1;4.0=0.5",
])
def test_render_parse_round_trip(descriptor):
    schedule = parse_schedule(descriptor)
    assert parse_schedule(render_schedule(schedule)) == schedule


def test_band_families_keep_their_names_in_errors():
    with pytest.raises(ScheduleError, match="sawtooth period must be > 0"):
        parse_schedule("saw:0.2,0.9,-1")
    with pytest.raises(ScheduleError, match="triangular needs 0 < lo"):
        parse_schedule("tri:0.5,1.5,1")
    assert SawtoothSchedule(0.2, 0.9, 0.7).period == 0.7
    assert TriangularSchedule(0.2, 0.9, 1.3).period == 1.3
    assert ExpSaturatingSchedule(1.0).period is None


def test_render_subclass_as_its_family_and_reject_others():
    class Shifted(SineSchedule):
        pass

    assert render_schedule(Shifted(0.5, 0.25, 2.0)) == "sin:0.5,0.25,2.0"
    for other in (ClampCountingSchedule(ConstantSchedule(0.5)), object()):
        with pytest.raises(TypeError, match="cannot render schedule of type"):
            render_schedule(other)


def test_too_many_breakpoints_fail_before_they_are_built(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_INTERVALS", 8)
    assert len(SawtoothSchedule(0.2, 0.9, 0.125).breakpoints(0.0, 1.0)) == 7
    message = (r"schedule has 9 breakpoints on \(0.0, 1.0\), more than the "
               "quadrature budget of 8 panels")
    with pytest.raises(ScheduleError, match=message):
        SawtoothSchedule(0.2, 0.9, 0.1).breakpoints(0.0, 1.0)
    with pytest.raises(ScheduleError, match="breakpoints"):
        SineSchedule(0.5, 0.4, 20.0).breakpoints(0.0, 2.0)


def test_import_leaves_scipy_interpolate_unloaded():
    import fraclap

    src = str(Path(fraclap.__file__).resolve().parents[1])
    code = "import sys, fraclap; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=src),
                         timeout=60)
    assert out.stdout.strip() == "False"
    spline = SplineSchedule((0.0, 1.0, 2.0), (0.2, 0.8, 0.5))
    assert spline(1.0) == 0.8  # the spline still builds on first use
