"""Spans around the calls the CLI makes into each ndsense layer.

``Tracer.install()`` replaces module and class attributes that the CLI and
the layers look up at call time (``ndsense.tracker.track``,
``ndsense.rheology.msd``, ``Trajectory.to_csv``, ...) with wrappers that
record a span (name, start, end, parent) and a few counts taken from the
arguments and return values. Spans stay in memory; ``layer_metrics()``
turns them into per-layer self times. Nothing under ``src/`` changes.

Per-element kernels that layers call in their own loops
(``segmentation.directionality_ratio``, ``tracker.fit_orbit``) are not
wrapped: a span per window or per orbit would measure the tracer.
"""

from __future__ import annotations

import functools
import time

import ndsense.chip
import ndsense.media
import ndsense.odmr
import ndsense.rheology
import ndsense.segmentation
import ndsense.tracker
from ndsense.trajectory import Trajectory

# (owner, attribute, span name). The span name's prefix before "." is the layer.
_FUNCTIONS = [
    (ndsense.media, "simulate_brownian", "media.simulate_brownian"),
    (ndsense.media, "simulate_viscoelastic", "media.simulate_viscoelastic"),
    (ndsense.media, "inject_directed", "media.inject_directed"),
    (ndsense.media, "viscosity_at", "media.viscosity_at"),
    (ndsense.media, "stokes_einstein_D", "media.stokes_einstein_D"),
    (ndsense.tracker, "track", "tracker.track"),
    (ndsense.chip, "staircase_schedule", "chip.staircase_schedule"),
    (ndsense.chip, "alternating_schedule", "chip.alternating_schedule"),
    (ndsense.chip, "setpoint_series", "chip.setpoint_series"),
    (ndsense.chip, "setpoints_to_csv", "chip.setpoints_to_csv"),
    (ndsense.chip, "schedule_timeline", "chip.schedule_timeline"),
    (ndsense.chip, "timeline_to_csv", "chip.timeline_to_csv"),
    (ndsense.odmr, "simulate_shift_series", "odmr.simulate_shift_series"),
    (ndsense.odmr, "default_lineshape", "odmr.default_lineshape"),
    (ndsense.odmr, "shift_series_to_temperature", "odmr.shift_series_to_temperature"),
    (ndsense.odmr, "allan_deviation", "odmr.allan_deviation"),
    (ndsense.odmr, "allan_sensitivity", "odmr.allan_sensitivity"),
    (ndsense.odmr, "calibrate_kappa", "odmr.calibrate_kappa"),
    (ndsense.odmr.TemperatureSeries, "to_csv", "odmr.TemperatureSeries.to_csv"),
    (ndsense.rheology, "msd", "rheology.msd"),
    (ndsense.rheology, "fit_diffusion", "rheology.fit_diffusion"),
    (ndsense.rheology, "anomalous_exponent", "rheology.anomalous_exponent"),
    (ndsense.rheology, "complex_modulus", "rheology.complex_modulus"),
    (ndsense.rheology, "psd", "rheology.psd"),
    (ndsense.rheology, "external_force_spectrum", "rheology.external_force_spectrum"),
    (ndsense.rheology, "fit_hydrodynamic_radius", "rheology.fit_hydrodynamic_radius"),
    (ndsense.rheology.MsdCurve, "to_csv", "rheology.MsdCurve.to_csv"),
    (ndsense.rheology.ComplexModulus, "to_csv", "rheology.ComplexModulus.to_csv"),
    (ndsense.rheology.PsdCurve, "to_csv", "rheology.PsdCurve.to_csv"),
    (ndsense.rheology.ForceSpectrum, "to_csv", "rheology.ForceSpectrum.to_csv"),
    (ndsense.segmentation, "gamma_null", "segmentation.gamma_null"),
    (ndsense.segmentation, "segment", "segmentation.segment"),
    (ndsense.segmentation, "class_exponents", "segmentation.class_exponents"),
    (ndsense.segmentation, "labels_to_csv", "segmentation.labels_to_csv"),
    # The per-sample tables (truth, estimate, tracker diagnostics) make up
    # the trajectory layer's I/O.
    (Trajectory, "to_csv", "trajectory.write"),
    (ndsense.tracker.TrackDiagnostics, "to_csv", "trajectory.write"),
]
# Classmethods: the wrapper goes around the underlying function.
_CLASSMETHODS = [
    (Trajectory, "from_csv", "trajectory.read"),
    (ndsense.odmr.TemperatureSeries, "from_csv", "odmr.TemperatureSeries.from_csv"),
]

# Per-layer metric each span's self time is charged to. The first entry
# whose prefix matches the span name wins.
_SELF_TIME = [
    ("media.", "media.synth_s"),
    ("trajectory.write", "trajectory.write_s"),
    ("trajectory.read", "trajectory.read_s"),
    ("tracker.", "tracker.track_s"),
    ("odmr.simulate_shift_series", "odmr.shift_series_s"),
    ("odmr.", "odmr.post_s"),
    ("rheology.msd", "rheology.msd_s"),
    ("rheology.", "rheology.spectra_s"),
    ("segmentation.class_exponents", "segmentation.class_exponents_s"),
    ("segmentation.", "segmentation.segment_s"),
    ("chip.", "chip.s"),
    ("cli.", "cli.self_s"),
]
TIME_METRICS = [metric for _, metric in _SELF_TIME]


class Tracer:
    """In-memory span recorder for one process.

    ``spans`` holds [name, start, end, parent index or -1]; ``counts`` holds
    the counters the hooks in ``_count`` update.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._undo: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; return its result."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()
        _count(self.counts, name, args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        for owner, attr, name in _FUNCTIONS:
            orig = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(name, orig))
            self._undo.append((owner, attr, orig))
        for owner, attr, name in _CLASSMETHODS:
            orig = owner.__dict__[attr]
            setattr(owner, attr, classmethod(self._wrap(name, orig.__func__)))
            self._undo.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self) -> dict:
        """Seconds of self time (span minus its children) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - c
        return out

    def layer_metrics(self) -> dict:
        """Per-layer self times and the counts-derived ratios, by metric name."""
        metrics = {m: 0.0 for m in TIME_METRICS}
        for name, secs in self.self_times().items():
            metric = next(m for prefix, m in _SELF_TIME if name.startswith(prefix))
            metrics[metric] += secs
        c = self.counts
        orbits = c.get("orbits", 0)
        fits = c.get("fits", 0)
        floor_lags = c.get("floor_lags", 0)
        metrics.update({
            "trajectory.rows": c.get("rows", 0),
            "tracker.orbits": orbits,
            "tracker.us_per_orbit":
                1e6 * metrics["tracker.track_s"] / orbits if orbits else 0.0,
            "tracker.locked_frac": c.get("locked", 0) / orbits if orbits else 0.0,
            "odmr.fits": fits,
            "odmr.ms_per_fit":
                1e3 * metrics["odmr.shift_series_s"] / fits if fits else 0.0,
            "odmr.converged_frac": 1.0 - c.get("excluded", 0) / fits if fits else 0.0,
            "rheology.msd_calls": c.get("msd_calls", 0),
            "rheology.msd_lags": c.get("msd_lags", 0),
            "rheology.floored_frac":
                c.get("floored", 0) / floor_lags if floor_lags else 0.0,
            "segmentation.windows": c.get("windows", 0),
        })
        return metrics


def _add(counts: dict, key: str, value) -> None:
    counts[key] = counts.get(key, 0) + value


def _count(counts: dict, name: str, args, kwargs, result) -> None:
    """Counts read from one call's arguments and return value."""
    if name == "trajectory.write":
        _add(counts, "rows", len(args[0].times))
    elif name == "trajectory.read":
        _add(counts, "rows", len(result))
    elif name == "tracker.track":
        diag = result[1]
        _add(counts, "orbits", len(diag.times))
        _add(counts, "locked", int(diag.locked.sum()))
    elif name == "odmr.simulate_shift_series":
        _add(counts, "fits", len(result.times))
        _add(counts, "excluded", int(result.n_excluded))
    elif name == "rheology.msd":
        _add(counts, "msd_calls", 1)
        _add(counts, "msd_lags", len(result.taus))
        # only the CLI's own MSD applies the noise floor; the per-segment
        # curves inside class_exponents pass noise_floor_nm2=0
        if result.meta["noise_floor_nm2"] > 0:
            _add(counts, "floored", int(result.meta["floored"].sum()))
            _add(counts, "floor_lags", len(result.taus))
    elif name == "segmentation.segment":
        traj, null = args[0], args[1]
        _add(counts, "windows", len(traj) - null.N)
