"""RTD conversion, duty-cycle timelines, and setpoint ramp tests."""

import numpy as np
import pytest

from ndsense import chip


CAL = chip.RtdCalibration(R0=1032.0, T0=25.0)


# ---------------------------------------------------------------- RTD readout

def test_rtd_roundtrip_exact():
    temps = np.linspace(-10.0, 80.0, 37)
    back = chip.rtd_temperature(chip.rtd_resistance(temps, CAL), CAL)
    assert np.max(np.abs(back - temps)) < 1e-9


def test_rtd_temperature_at_reference():
    assert chip.rtd_temperature(CAL.R0, CAL) == pytest.approx(25.0)
    # one full degree with the default slope
    r = CAL.R0 * (1.0 + CAL.eta)
    assert chip.rtd_temperature(r, CAL) == pytest.approx(26.0, rel=1e-12)


def test_rtd_validation():
    with pytest.raises(ValueError, match="R0"):
        chip.RtdCalibration(R0=-1.0, T0=25.0)
    with pytest.raises(ValueError, match="eta"):
        chip.RtdCalibration(R0=1000.0, T0=25.0, eta=0.0)
    with pytest.raises(ValueError, match="resistance"):
        chip.rtd_temperature(-5.0, CAL)


# ---------------------------------------------------------- duty-cycle timing

def test_duty_cycle_defaults():
    d = chip.DutyCycleSchedule()
    assert d.period == pytest.approx(0.2)
    assert d.mw_on == pytest.approx(0.16)
    assert d.heater_on == pytest.approx(0.03)
    assert d.buffer == pytest.approx(0.005)
    assert d.switch_edge == pytest.approx(0.0005)


def test_duty_cycle_rejects_overfull_period():
    # 0.18 + 2*0.005 + 0.03 = 0.22 > 0.2
    with pytest.raises(ValueError, match="exceeds period"):
        chip.DutyCycleSchedule(mw_on=0.18)
    with pytest.raises(ValueError, match="switch_edge"):
        chip.DutyCycleSchedule(switch_edge=0.005)
    with pytest.raises(ValueError, match="positive"):
        chip.DutyCycleSchedule(mw_on=0.0)


def test_timeline_default_first_period():
    events = chip.schedule_timeline(chip.DutyCycleSchedule(), duration=0.2)
    first = [(e.t, e.channel, e.state) for e in events[:4]]
    assert first == [(0.0, "mw", 1), (0.16, "mw", 0),
                     (0.165, "heater", 1), (0.195, "heater", 0)]


def _channel_overlap(events):
    state = {"mw": 0, "heater": 0}
    for e in sorted(events, key=lambda e: (e.t, e.state)):
        state[e.channel] = e.state
        if state["mw"] and state["heater"]:
            return True
    return False


def test_timeline_channels_never_overlap():
    for d in (chip.DutyCycleSchedule(),
              chip.DutyCycleSchedule(period=0.1, mw_on=0.05, heater_on=0.02,
                                     buffer=0.002, switch_edge=0.0001),
              chip.DutyCycleSchedule(heater_on=0.0)):
        events = chip.schedule_timeline(d, duration=2.0)
        assert not _channel_overlap(events)


def test_timeline_heater_can_be_disabled():
    events = chip.schedule_timeline(chip.DutyCycleSchedule(heater_on=0.0), 1.0)
    assert all(e.channel == "mw" for e in events)


def test_timeline_clock_grid_alignment():
    d = chip.DutyCycleSchedule(period=0.2000037)
    events = chip.schedule_timeline(d, duration=3.0)
    ticks = np.array([e.t for e in events]) / chip.CLOCK_S
    assert np.max(np.abs(ticks - np.round(ticks))) < 1e-6


def test_timeline_trims_to_duration():
    events = chip.schedule_timeline(chip.DutyCycleSchedule(), duration=0.5)
    assert all(e.t <= 0.5 + 1e-12 for e in events)
    # the third period starts at 0.4 but its mw-off at 0.56 is cut
    assert (0.4, "mw", 1) in [(e.t, e.channel, e.state) for e in events]
    assert not any(e.t > 0.5 for e in events)
    with pytest.raises(ValueError, match="duration"):
        chip.schedule_timeline(chip.DutyCycleSchedule(), 0.0)


# ------------------------------------------------------------- setpoint ramps

def test_setpoint_series_flat_when_single_setpoint():
    sched = chip.TemperatureSchedule(steps=((0.0, 30.0),))
    times, temps = chip.setpoint_series(sched, dt=1.0, duration=100.0)
    assert np.allclose(temps, 30.0)
    assert times[0] == 0.0 and times[-1] == pytest.approx(100.0)


def test_setpoint_series_first_order_settling():
    # default tau settles a step to 99% after 120 s
    sched = chip.TemperatureSchedule(steps=((0.0, 30.0), (300.0, 34.0)))
    times, temps = chip.setpoint_series(sched, dt=0.5, duration=600.0)
    i = int(np.searchsorted(times, 420.0))
    assert times[i] == pytest.approx(420.0)
    assert temps[i] == pytest.approx(34.0 - 4.0 * 0.01, rel=1e-9)
    # still settled at the first level right before the step
    j = int(np.searchsorted(times, 299.5))
    assert temps[j] == pytest.approx(30.0, abs=1e-9)


def test_setpoint_series_continuous_across_steps():
    sched = chip.TemperatureSchedule(steps=((0.0, 20.0), (60.0, 28.0),
                                            (90.0, 22.0)))
    _, temps = chip.setpoint_series(sched, dt=0.1, duration=400.0)
    # a first-order lag cannot jump: bound the largest sample-to-sample move
    # by the steepest possible slope right after a step
    max_slope = 8.0 / sched.tau_s
    assert np.max(np.abs(np.diff(temps))) <= max_slope * 0.1 * 1.01


def test_setpoint_series_default_duration():
    sched = chip.TemperatureSchedule(steps=((0.0, 30.0), (100.0, 35.0)))
    times, _ = chip.setpoint_series(sched, dt=1.0)
    assert times[-1] >= 100.0 + 5.0 * sched.tau_s - 1.0


def test_temperature_schedule_validation():
    with pytest.raises(ValueError, match="at least one"):
        chip.TemperatureSchedule(steps=())
    with pytest.raises(ValueError, match="increasing"):
        chip.TemperatureSchedule(steps=((0.0, 30.0), (0.0, 34.0)))
    with pytest.raises(ValueError, match="time constant"):
        chip.TemperatureSchedule(steps=((0.0, 30.0),), tau_s=0.0)
    with pytest.raises(ValueError, match="dt"):
        chip.setpoint_series(chip.TemperatureSchedule(steps=((0.0, 30.0),)),
                             dt=0.0)


def test_staircase_schedule_structure():
    sched = chip.staircase_schedule(24.0, step_C=4.0, dwell_s=300.0,
                                    n_levels=5)
    assert sched.steps == tuple((k * 300.0, 24.0 + 4.0 * k)
                                for k in range(5))


def test_alternating_schedule_structure():
    sched = chip.alternating_schedule(30.0, delta_C=10.6,
                                      half_period_s=1800.0, n_cycles=2)
    temps = [T for _, T in sched.steps]
    assert temps == [30.0, 40.6, 30.0, 40.6]
    times = [t for t, _ in sched.steps]
    assert times == [0.0, 1800.0, 3600.0, 5400.0]


# ----------------------------------------------------------------- CSV export

def test_timeline_csv(tmp_path):
    events = chip.schedule_timeline(chip.DutyCycleSchedule(), 0.4)
    path = tmp_path / "timeline.csv"
    chip.timeline_to_csv(events, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_s,channel,state"
    assert len(lines) == len(events) + 1
    t, channel, state = lines[1].split(",")
    assert float(t) == 0.0 and channel == "mw" and int(state) == 1


def test_setpoints_csv(tmp_path):
    sched = chip.staircase_schedule(24.0, n_levels=2, dwell_s=60.0)
    times, temps = chip.setpoint_series(sched, dt=10.0, duration=120.0)
    path = tmp_path / "setpoints.csv"
    chip.setpoints_to_csv(times, temps, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t_s,T_C"
    assert len(lines) == times.size + 1
    got = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(got[:, 0], times, atol=1e-6)
    assert np.allclose(got[:, 1], temps, atol=1e-6)
