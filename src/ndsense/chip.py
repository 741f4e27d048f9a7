"""Sensing-chip support: RTD conversion, duty-cycle timelines, setpoint ramps.

Everything here is deterministic plumbing around the measurement: the
resistance thermometer readout, the interleaved microwave/heater gating
on the shared 100 kHz clock, and first-order temperature ramps between
setpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._table import write_table

__all__ = [
    "RtdCalibration",
    "DutyCycleSchedule",
    "TemperatureSchedule",
    "TimelineEvent",
    "rtd_temperature",
    "rtd_resistance",
    "schedule_timeline",
    "setpoint_series",
    "staircase_schedule",
    "alternating_schedule",
    "timeline_to_csv",
    "setpoints_to_csv",
    "DEFAULT_ETA_PER_C",
    "DEFAULT_ETA_SIGMA_PER_C",
    "CLOCK_S",
]

DEFAULT_ETA_PER_C = 2.44e-3
DEFAULT_ETA_SIGMA_PER_C = 0.12e-3
CLOCK_S = 1e-5  # global synchronization clock period
SETPOINT_COLUMNS = ("t_s", "T_C")  # header of setpoints_to_csv

# first-order lag constant such that a step settles to 99% in 2 minutes
DEFAULT_RAMP_TAU_S = 120.0 / np.log(100.0)


@dataclass(frozen=True)
class RtdCalibration:
    """Linear RTD response R(T) = R0 * (1 + eta * (T - T0))."""

    R0: float
    T0: float
    eta: float = DEFAULT_ETA_PER_C

    def __post_init__(self):
        if self.R0 <= 0:
            raise ValueError("R0 must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")


def rtd_temperature(R: float, cal: RtdCalibration, with_sigma: bool = False):
    """Temperature (C) from an RTD resistance: T = T0 + (R/R0 - 1)/eta.

    With `with_sigma` the eta calibration uncertainty
    (`DEFAULT_ETA_SIGMA_PER_C`) is propagated and (T, sigma_T) is returned.
    """
    R = np.asarray(R, dtype=float)
    if (R <= 0).any():
        raise ValueError("resistance must be positive")
    ratio = R / cal.R0 - 1.0
    t = cal.T0 + ratio / cal.eta
    t = float(t) if t.ndim == 0 else t
    if not with_sigma:
        return t
    sigma = np.abs(ratio) * DEFAULT_ETA_SIGMA_PER_C / cal.eta ** 2
    sigma = float(sigma) if np.ndim(sigma) == 0 else sigma
    return t, sigma


def rtd_resistance(T: float, cal: RtdCalibration):
    """Exact inverse of rtd_temperature."""
    T = np.asarray(T, dtype=float)
    r = cal.R0 * (1.0 + cal.eta * (T - cal.T0))
    return float(r) if r.ndim == 0 else r


@dataclass(frozen=True)
class DutyCycleSchedule:
    """Interleaved microwave and heater gating within one period.

    Per period: microwave on during [0, mw_on), heater on during
    [mw_on + buffer, mw_on + buffer + heater_on); switch_edge bounds the
    solid-state switch transition time eating into the buffer.
    """

    period: float = 0.2
    mw_on: float = 0.16
    heater_on: float = 0.03
    buffer: float = 0.005
    switch_edge: float = 0.0005

    def __post_init__(self):
        if min(self.period, self.mw_on, self.buffer) <= 0 or self.heater_on < 0:
            raise ValueError("schedule durations must be positive")
        if self.switch_edge < 0 or self.switch_edge >= self.buffer:
            raise ValueError("switch_edge must satisfy 0 <= switch_edge < buffer")
        if self.mw_on + 2.0 * self.buffer + self.heater_on > self.period + 1e-12:
            raise ValueError(
                "schedule rejected: mw_on + 2*buffer + heater_on exceeds period")

    def scans_per_second(self, n_points: int) -> float:
        """Complete n_points-tick sweeps per second that fit in the microwave gate."""
        return int(self.mw_on / (CLOCK_S * n_points)) / self.period


@dataclass(frozen=True)
class TimelineEvent:
    t: float        # s, on the 10 us clock grid
    channel: str    # "mw" or "heater"
    state: int      # 1 = on, 0 = off


def _snap(t: float) -> float:
    return round(t / CLOCK_S) * CLOCK_S


def schedule_timeline(d: DutyCycleSchedule, duration: float) -> list:
    """Explicit on/off event list over `duration`, clock-grid aligned."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    events = []
    n_periods = int(np.ceil(duration / d.period))
    for k in range(n_periods):
        t0 = k * d.period
        if t0 >= duration:
            break
        events.append(TimelineEvent(_snap(t0), "mw", 1))
        events.append(TimelineEvent(_snap(t0 + d.mw_on), "mw", 0))
        if d.heater_on > 0:
            h0 = t0 + d.mw_on + d.buffer
            events.append(TimelineEvent(_snap(h0), "heater", 1))
            events.append(TimelineEvent(_snap(h0 + d.heater_on), "heater", 0))
    return [e for e in events if e.t <= duration + 1e-12]


@dataclass(frozen=True)
class TemperatureSchedule:
    """Setpoint steps (start time s, target C) with a first-order ramp."""

    steps: tuple
    tau_s: float = DEFAULT_RAMP_TAU_S

    def __post_init__(self):
        steps = tuple((float(t), float(T)) for t, T in self.steps)
        object.__setattr__(self, "steps", steps)
        if not steps:
            raise ValueError("schedule needs at least one setpoint")
        times = [t for t, _ in steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("setpoint times must be strictly increasing")
        if self.tau_s <= 0:
            raise ValueError("ramp time constant must be positive")


def setpoint_series(s: TemperatureSchedule, dt: float,
                    duration: float | None = None):
    """Sampled substrate temperature: exponential approach to each setpoint.

    The series starts settled at the first setpoint. Returns (times, T_C).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    t_end = duration if duration is not None else \
        s.steps[-1][0] + 5.0 * s.tau_s
    times = np.arange(0.0, t_end + 0.5 * dt, dt)
    out = np.empty_like(times)
    current = s.steps[0][1]
    step_times = [t for t, _ in s.steps]
    step_temps = [T for _, T in s.steps]
    for i, (t0, target) in enumerate(zip(step_times, step_temps)):
        t1 = step_times[i + 1] if i + 1 < len(step_times) else np.inf
        sel = (times >= t0) & (times < t1)
        out[sel] = target + (current - target) * np.exp(-(times[sel] - t0) / s.tau_s)
        if np.isfinite(t1):
            current = target + (current - target) * np.exp(-(t1 - t0) / s.tau_s)
    out[times < step_times[0]] = s.steps[0][1]
    return times, out


def staircase_schedule(start_C: float, step_C: float = 4.0,
                       dwell_s: float = 900.0, n_levels: int = 4,
                       tau_s: float = DEFAULT_RAMP_TAU_S) -> TemperatureSchedule:
    """Monotone staircase: n_levels setpoints spaced dwell_s apart."""
    steps = tuple((k * dwell_s, start_C + k * step_C) for k in range(n_levels))
    return TemperatureSchedule(steps=steps, tau_s=tau_s)


def alternating_schedule(base_C: float, delta_C: float = 10.6,
                         half_period_s: float = 1800.0, n_cycles: int = 2,
                         tau_s: float = DEFAULT_RAMP_TAU_S) -> TemperatureSchedule:
    """Square-wave cycling between base_C and base_C + delta_C."""
    steps = []
    for k in range(2 * n_cycles):
        steps.append((k * half_period_s, base_C + (delta_C if k % 2 else 0.0)))
    return TemperatureSchedule(steps=tuple(steps), tau_s=tau_s)


def timeline_to_csv(events, path) -> None:
    write_table(path, [("t_s", [e.t for e in events], "%.5f"),
                       ("channel", [e.channel for e in events], "%s"),
                       ("state", [e.state for e in events], "%d")])


def setpoints_to_csv(times, temps, path) -> None:
    write_table(path, [(name, col, "%.6f")
                       for name, col in zip(SETPOINT_COLUMNS, (times, temps))])
