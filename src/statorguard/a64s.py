"""Sub-harmonic injection insulation monitoring and fault location.

A low-frequency test signal injected at the machine neutral sees the
stator insulation as a first-order RC load.  Discretizing that load with
the bilinear (trapezoidal) map turns identification into a two-parameter
linear regression on consecutive samples of the neutral voltage and
injected current; a 2-state Kalman adaptive filter tracks the regression
parameters, from which the insulation resistance and time constant are
extracted, a scalar filter refines the capacitance, and a drop detector
on the resistance estimate raises the trip.  When the machine is also
spinning, the fundamental-frequency neutral voltage of a fault feeds a
closed-form position estimate.

A64SEstimator.run steps only the recursions (the filter, the smoothers,
the capacitance filter and the latch's streak) in one loop over bounded
chunks of used samples; the rest is numpy.  Its per-step reference, the
same arithmetic as separate kernels in the same operation order, lives in
tests/oracles.py, and the tests hold run() to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .plantsim import Subharmonic64SConfig, _by_frame, _freeze_columns
from .signalcore import (TimeSeries, _first_true, _seconds, extract_phasor,
                         reconstruct_narrowband, write_table)

__all__ = [
    "SubharmonicFrames",
    "InsulationDetectorConfig",
    "CalibrationError",
    "A64SEstimatorConfig",
    "A64STrace",
    "A64SEstimator",
    "frames_from_timeseries",
    "write_a64s_trace_csv",
    "HEALTHY_SENTINEL",
]

# Location reported while no fault is active.
HEALTHY_SENTINEL = 2.0

_CHUNK = 4096  # used samples per pass of A64SEstimator.run's loop


class CalibrationError(RuntimeError):
    """Raised when the healthy baseline cannot be established."""


@dataclass(frozen=True)
class SubharmonicFrames:
    """Processed measurement samples for the injection scheme, as
    read-only numpy columns (float64, valid bool); any sequence is
    accepted and copied once, and assigning a cell or a column raises.
    A sample's index is its position.

    v_n and i_n are the injection-band (narrowband-filtered) neutral
    voltage and injected current on the relay side, finite; v_n60 is the
    extracted fundamental-frequency neutral magnitude referred to the
    machine side, finite and >= 0, used only by the locator.
    """

    v_n: np.ndarray
    i_n: np.ndarray
    v_n60: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        _freeze_columns(self, ("v_n60",), ("v_n", "i_n"))

    def __len__(self) -> int:
        return len(self.v_n)


@dataclass(frozen=True)
class InsulationDetectorConfig:
    """Drop detector on the insulation-resistance estimate.

    All three counts are in used samples: those the estimator took in
    (A64STrace.valid), not frame indices, so invalid or priming samples
    move neither the baseline window nor the persistence count.  The
    baseline is learned over baseline_window used samples after the
    first baseline_start of them (letting the estimator settle first); a
    trip is declared after persistence consecutive used samples below
    drop_fraction of the baseline.
    """

    baseline_start: int = 1000
    baseline_window: int = 250
    drop_fraction: float = 0.5
    persistence: int = 25

    def __post_init__(self):
        if self.baseline_start < 0 or self.baseline_window < 1:
            raise ValueError("baseline_start >= 0 and baseline_window >= 1 required")
        if not 0.0 < self.drop_fraction < 1.0:
            raise ValueError("drop_fraction must be in (0, 1)")
        if self.persistence < 1:
            raise ValueError("persistence must be >= 1")


def frames_from_timeseries(
    v_ts: TimeSeries,
    i_ts: TimeSeries,
    circuit: Subharmonic64SConfig,
) -> SubharmonicFrames:
    """Pre-filter raw neutral-voltage / injected-current records into
    estimator frames.

    Both channels are narrowband-filtered at the injection frequency over
    2 cycles (the same linear filter on both preserves their
    discrete-time circuit relation exactly once warmed up); the
    fundamental component of the voltage channel is extracted separately
    over 3 cycles, referred to the machine side, for the locator.
    """
    if v_ts.fs != i_ts.fs or len(v_ts) != len(i_ts) or v_ts.t0 != i_ts.t0:
        raise ValueError("voltage and current records must share fs, t0, length")
    ph_v = extract_phasor(v_ts, circuit.f_inj, 2)
    ph_i = extract_phasor(i_ts, circuit.f_inj, 2)
    ph_60 = extract_phasor(v_ts, circuit.f1, 3)
    v_band = reconstruct_narrowband(ph_v).samples
    i_band = reconstruct_narrowband(ph_i).samples
    valid = ph_v.valid & ph_i.valid & ph_60.valid
    return SubharmonicFrames(
        v_n=v_band,
        i_n=i_band,
        v_n60=np.where(valid, ph_60.magnitude * circuit.turns_ratio, 0.0),
        valid=valid,
    )


@dataclass(frozen=True)
class A64SEstimatorConfig:
    """Tunables of the full estimation chain."""

    # measurement noise sized to the narrowband residual floor at percent
    # level channel noise; an overweighted R makes the prior wash out at
    # the weakly excited drive-gain direction's harmonic rate instead
    theta_process_noise: float = 1e-8
    theta_measurement_noise: float = 4e-3
    theta_initial_variance: float = 1.0
    c0_initial: float = 1e-6
    c0_initial_variance: float = 1e-10
    c0_process_noise: float = 1e-16
    c0_measurement_noise: float = 1e-6
    smoothing_rate: float = 10.0
    detector: InsulationDetectorConfig = field(default_factory=InsulationDetectorConfig)

    def __post_init__(self):
        # the filters' and the smoother's rules, checked once for every run;
        # chained comparisons are False for NaN, and a NaN or infinite
        # filter setting would leave the estimates NaN
        for name in ("theta_process_noise", "c0_process_noise"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        for name in ("theta_measurement_noise", "theta_initial_variance", "c0_initial_variance",
                     "c0_measurement_noise", "c0_initial"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        # an infinite rate means no smoothing
        if not self.smoothing_rate > 0:
            raise ValueError("smoothing_rate must be positive")


@dataclass
class A64STrace:
    """Per-sample record of one estimator run plus summary fields.

    A run's columns are read-only numpy arrays, float64 and a bool
    ``trip``; v_n and i_n are the frames' own arrays.  valid (the used
    samples) is a tuple of bools, so that ``sum`` of it counts them; an
    unused sample repeats the last estimates, with the sentinel x_hat."""

    fs: float
    t_index: Sequence[int] = range(0)
    v_n: Sequence[float] = ()
    i_n: Sequence[float] = ()
    a0_hat: Sequence[float] = ()
    kd_hat: Sequence[float] = ()
    tau0_hat: Sequence[float] = ()
    rs_hat: Sequence[float] = ()
    c0_hat: Sequence[float] = ()
    x_hat: Sequence[float] = ()
    trip: Sequence[bool] = ()
    valid: Sequence[bool] = ()
    baseline: Optional[float] = None
    onset_index: Optional[int] = None

    @property
    def first_trip_index(self) -> Optional[int]:
        return _first_true(self.trip)

    @property
    def tripped(self) -> bool:
        return self.first_trip_index is not None

    def columns(self) -> Dict[str, np.ndarray]:
        """Time in seconds and every per-sample signal, by CSV column name,
        as float64 arrays and a bool ``trip`` (time constant in ms,
        resistance in ohms, capacitance in µF): a run's own arrays, a
        hand-built trace's sequences through ``np.asarray``."""
        a = np.asarray
        return {"t": _seconds(self.t_index, self.fs), "vn": a(self.v_n), "in": a(self.i_n),
                "a0_hat": a(self.a0_hat), "kd_hat": a(self.kd_hat),
                "tau0_hat_ms": a(self.tau0_hat) * 1e3, "rs_hat_ohm": a(self.rs_hat),
                "c0_hat_uF": a(self.c0_hat) * 1e6, "x_hat": a(self.x_hat),
                "trip": a(self.trip)}

    def final_estimates(self, tail: int = 250) -> Tuple[float, float, float]:
        """(resistance, capacitance, time constant) medians over the last
        tail valid samples."""
        valid = self.valid
        rows = _last(tail, (k for k in range(len(valid) - 1, -1, -1) if valid[k]))
        if not rows:
            raise ValueError("trace holds no valid samples")
        rs, c0, tau0 = (float(np.median(np.asarray(column)[rows]))
                        for column in (self.rs_hat, self.c0_hat, self.tau0_hat))
        return rs, c0, tau0

    def final_location(self, tail: int = 250) -> float:
        """Median located position over the last tail tripped samples, or
        the healthy sentinel when the run never tripped."""
        x_hat = np.asarray(self.x_hat)
        located = np.flatnonzero(np.asarray(self.trip, dtype=bool) & (x_hat != HEALTHY_SENTINEL))
        rows = _last(tail, reversed(located.tolist()))
        if not rows:
            return HEALTHY_SENTINEL
        return float(np.median(x_hat[rows]))


def _last(tail: int, backwards) -> list:
    """The first tail items of an iterator that walks a trace from its
    end, in record order; the walk stops there."""
    if tail < 1:
        raise ValueError(f"tail must be >= 1, got {tail!r}")
    rows = list(islice(backwards, tail))
    rows.reverse()
    return rows


class A64SEstimator:
    """Full identification chain for one monitored machine."""

    def __init__(
        self,
        circuit: Subharmonic64SConfig,
        cfg: Optional[A64SEstimatorConfig] = None,
    ):
        self.circuit = circuit
        self.cfg = cfg or A64SEstimatorConfig()

    def run(self, frames: SubharmonicFrames, fs: float,
            onset_index: Optional[int] = None) -> A64STrace:
        """Trace of the estimation chain over a record sampled at fs
        samples per second."""
        if not 0.0 < fs < math.inf:
            raise ValueError(f"fs must be positive and finite, got {fs!r}")
        cfg, circuit = self.cfg, self.circuit
        n = len(frames)
        # a sample is used when it and the one before it are valid: the
        # first valid sample after an invalid one only primes the regression
        used = np.zeros(n, dtype=bool)
        np.logical_and(frames.valid[1:], frames.valid[:-1], out=used[1:])
        rows = np.flatnonzero(used)
        m = len(rows)
        # regression vector: negated previous voltage, summed current
        phi0s = -frames.v_n[rows - 1]
        phi1s = frames.i_n[rows - 1] + frames.i_n[rows]
        v_ns = frames.v_n[rows]
        period = 1.0 / fs
        # the configs have checked their tunables; the loop keeps every
        # state in locals and steps the whole chain inline
        theta_q, theta_r = cfg.theta_process_noise, cfg.theta_measurement_noise
        p_initial = float(cfg.theta_initial_variance)
        a0 = kd = p01 = 0.0
        p00 = p11 = p_initial
        # first-order smoother factor; an infinite rate bypasses smoothing
        gamma = cfg.smoothing_rate
        alpha = 1.0 if math.isinf(gamma) else 1.0 - math.exp(-gamma * period)
        half_period = 0.5 * period
        rs_scale = circuit.turns_ratio**2 / period
        ratio_memory = gain_memory = None
        c0_hat, c0_var = cfg.c0_initial, cfg.c0_initial_variance
        c0_q, c0_r = cfg.c0_process_noise, cfg.c0_measurement_noise
        # drop latch, in used samples: the baseline is sealed between chunks
        # as the median over [skip, seal), and from seal on a streak of
        # persistence estimates below drop_level trips (-inf unarmed or tripped)
        detector = cfg.detector
        skip, persistence = detector.baseline_start, detector.persistence
        seal = skip + detector.baseline_window
        baseline, drop_level, streak = None, -math.inf, 0
        first = m  # the used sample that trips
        out = np.empty((5, m))
        # chunks of _CHUNK used samples, with one more stop where the window fills
        stops = sorted({*range(_CHUNK, m, _CHUNK), min(seal, m), m})
        for start, stop in zip([0, *stops], stops):
            steps = [], [], [], [], []
            a0_col, kd_col, tau0_col, rs_col, c0_col = (step.append for step in steps)
            for phi0, phi1, v_n in zip(phi0s[start:stop].tolist(), phi1s[start:stop].tolist(),
                                       v_ns[start:stop].tolist()):
                # 2-state filter on (a0, kd) with the symmetric covariance
                # [[p00, p01], [p01, p11]]: the covariance is propagated first
                # (information-form shrink plus process noise), then the gain
                # derives from the updated covariance
                pp0 = p00 * phi0 + p01 * phi1
                pp1 = p01 * phi0 + p11 * phi1
                denom = theta_r + (phi0 * pp0 + phi1 * pp1)
                p00 = p00 - pp0 * pp0 / denom + theta_q
                p01 = p01 - pp0 * pp1 / denom
                p11 = p11 - pp1 * pp1 / denom + theta_q
                innovation = v_n - (phi0 * a0 + phi1 * kd)
                a0 += (p00 * phi0 + p01 * phi1) / theta_r * innovation
                kd += (p01 * phi0 + p11 * phi1) / theta_r * innovation

                # extraction: a0 inverts to the time constant through the
                # bilinear map (frozen for a step at the degenerate point -1),
                # kd then to the machine-side resistance; both channels are
                # low-pass smoothed and clamped at zero, and a memory of None
                # restarts its smoother
                one_plus = 1.0 + a0
                if not -1e-12 < one_plus < 1e-12:
                    ratio_raw = (1.0 - a0) / one_plus
                    if ratio_memory is None:
                        ratio_memory = ratio_raw
                    else:
                        ratio_memory += alpha * (ratio_raw - ratio_memory)
                ratio = ratio_memory or 0.0
                tau0 = half_period * (0.0 if ratio < 0.0 else ratio)
                gain_raw = (period + 2.0 * tau0) * kd
                if gain_memory is None:
                    gain_memory = gain_raw
                else:
                    gain_memory += alpha * (gain_raw - gain_memory)
                rs = rs_scale * (0.0 if gain_memory < 0.0 else gain_memory)

                # scalar capacitance filter, regressing tau0 on rs (tau0 = rs * c0)
                c0_var = c0_var * c0_r / (c0_r + rs * rs * c0_var) + c0_q
                c0_hat = c0_hat + c0_var * rs / c0_r * (tau0 - rs * c0_hat)

                streak = streak + 1 if rs < drop_level else 0
                if streak >= persistence:
                    first = start + len(steps[0])
                    drop_level = -math.inf
                    # the circuit just changed structurally; re-open the
                    # filter so the faulted parameters are re-identified
                    # quickly instead of creeping in at the tracking rate
                    p00 = p11 = p_initial
                    p01 = 0.0
                    ratio_memory = gain_memory = None
                a0_col(a0)
                kd_col(kd)
                tau0_col(tau0)
                rs_col(rs)
                c0_col(c0_hat)
            out[:, start:stop] = steps
            # a NaN estimate would never trip, nor seal a usable baseline
            bad = start + np.flatnonzero(~np.isfinite(out[3, start:stop]))
            if len(bad):
                raise CalibrationError(f"the estimator diverged: resistance estimate "
                                       f"{out[3, bad[0]].item()!r} at sample {rows[bad[0]]}")
            if stop == seal:
                window = out[3, skip:seal]
                baseline = float(np.median(window))
                if not baseline > 0:
                    raise CalibrationError(f"baseline resistance {baseline!r} is not positive")
                drop_level = detector.drop_fraction * baseline
                if window.min() < drop_level:
                    raise CalibrationError("baseline window already contains a resistance drop")

        x_hat = np.full(m, HEALTHY_SENTINEL)
        if first < m:
            # from the trip on, undo the parallel drop (healthy insulation and
            # fault path) to get the fault branch, then invert its divider:
            # x = v_n60 / (un * r_n) * |r_n + rf + j*omega*r_n*tau0_f|, through
            # math.hypot, as np.hypot may differ in the last bit
            rs_f = out[3, first:]
            located = first + np.flatnonzero(~((rs_f <= 0) | (rs_f >= baseline)))
            rs_f, c0_f = out[3:, located]
            r_n = circuit.r_n_primary
            rf_hat = 1.0 / (1.0 / rs_f - 1.0 / baseline)
            tau0_f = rf_hat * np.where(c0_f < 0.0, 0.0, c0_f)
            span = map(math.hypot, (r_n + rf_hat).tolist(),
                       (2.0 * math.pi * circuit.f1 * r_n * tau0_f).tolist())
            x_hat[located] = (frames.v_n60[rows[located]] / (circuit.un * r_n)
                              * np.fromiter(span, float, len(located)))
        counts = np.cumsum(used)
        a0_hat, kd_hat, tau0_hat, rs_hat, c0_hat = map(
            _by_frame, out, [counts] * 5, (0.0, 0.0, 0.0, 0.0, cfg.c0_initial))
        trip = np.arange(n) >= (rows[first] if first < m else n)
        trip.flags.writeable = False
        return A64STrace(fs=fs, t_index=range(n), v_n=frames.v_n, i_n=frames.i_n, a0_hat=a0_hat,
                         kd_hat=kd_hat, tau0_hat=tau0_hat, rs_hat=rs_hat, c0_hat=c0_hat,
                         x_hat=_by_frame(x_hat, counts * used, HEALTHY_SENTINEL), trip=trip,
                         valid=tuple(used.tolist()), baseline=baseline, onset_index=onset_index)

    def run_timeseries(self, v_ts: TimeSeries, i_ts: TimeSeries,
                       onset_index: Optional[int] = None) -> A64STrace:
        frames = frames_from_timeseries(v_ts, i_ts, self.circuit)
        return self.run(frames, v_ts.fs, onset_index=onset_index)


def write_a64s_trace_csv(trace: A64STrace, path, long=None) -> None:
    """Write an estimator trace as CSV, one row per sample; ``long`` (a
    file open for bytes and a label) also melts it into that file, as
    write_table does."""
    write_table(path, trace.columns(), long)
