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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .plantsim import Subharmonic64SConfig
from .signalcore import TimeSeries, extract_phasor, reconstruct_narrowband, write_table

__all__ = [
    "SubharmonicFrames",
    "ThetaKafState",
    "C0KafState",
    "ExtractorState",
    "InsulationDetectorConfig",
    "DetectionEvent",
    "CalibrationError",
    "A64SEstimatorConfig",
    "A64STrace",
    "A64SEstimator",
    "tustin_coeffs",
    "regression_step",
    "theta_kaf_update",
    "extract_params",
    "c0_kaf_update",
    "a64s_detect",
    "locate_fault",
    "locator_consistent",
    "frames_from_timeseries",
    "write_a64s_trace_csv",
    "HEALTHY_SENTINEL",
]

# Location reported while no fault is active.
HEALTHY_SENTINEL = 2.0


class CalibrationError(RuntimeError):
    """Raised when the healthy baseline cannot be established."""


@dataclass
class SubharmonicFrames:
    """Processed measurement samples for the injection scheme, as columns;
    a sample's index is its position.

    v_n and i_n are the injection-band (narrowband-filtered) neutral
    voltage and injected current on the relay side; v_n60 is the
    extracted fundamental-frequency neutral magnitude referred to the
    machine side, used only by the locator.
    """

    v_n: List[float]
    i_n: List[float]
    v_n60: List[float]
    valid: List[bool]

    def __post_init__(self):
        if any(len(col) != len(self.v_n) for col in (self.i_n, self.v_n60, self.valid)):
            raise ValueError("frame columns must have equal length")
        for name in ("v_n", "i_n", "v_n60"):
            if not all(map(math.isfinite, getattr(self, name))):
                raise ValueError(f"{name} must be finite (no NaN or inf)")
        if min(self.v_n60, default=0.0) < 0:
            raise ValueError("v_n60 must be >= 0")

    def __len__(self) -> int:
        return len(self.v_n)


@dataclass
class ThetaKafState:
    """Two-state Kalman adaptive filter over the regression parameters
    (feedback coefficient, drive gain) of the discretized insulation
    load, with the one-sample signal memories the regression needs."""

    theta_hat: np.ndarray = field(default_factory=lambda: np.zeros(2))
    cov: np.ndarray = field(default_factory=lambda: np.eye(2))
    process_noise: float = 1e-4
    measurement_noise: float = 0.25
    prev_vn: Optional[float] = None
    prev_in: Optional[float] = None
    t: int = 0

    def __post_init__(self):
        self.theta_hat = np.asarray(self.theta_hat, dtype=float).reshape(2)
        self.cov = np.asarray(self.cov, dtype=float).reshape(2, 2)
        if self.cov[0, 1] != self.cov[1, 0]:
            raise ValueError("cov must be symmetric")
        if self.measurement_noise <= 0:
            raise ValueError("measurement_noise must be positive")
        if self.process_noise < 0:
            raise ValueError("process_noise must be >= 0")


@dataclass
class C0KafState:
    """Scalar filter refining the capacitance from the extracted time
    constant and resistance (time constant = resistance * capacitance)."""

    c0_hat: float = 1e-6
    variance: float = 1e-10
    process_noise: float = 1e-16
    measurement_noise: float = 1e-6

    def __post_init__(self):
        if self.variance <= 0:
            raise ValueError("variance must be positive")
        if self.measurement_noise <= 0:
            raise ValueError("measurement_noise must be positive")
        if self.process_noise < 0:
            raise ValueError("process_noise must be >= 0")


@dataclass
class ExtractorState:
    """Parameter extraction stage: inverts the bilinear map, low-pass
    smooths both channels, and clamps to physical (non-negative) values.

    period is the sampling period; gamma the smoother rate (1/s,
    math.inf bypasses smoothing); turns_ratio refers the drive gain back
    to machine-side ohms.
    """

    period: float
    turns_ratio: float
    gamma: float = 10.0
    ratio_memory: Optional[float] = None
    gain_memory: Optional[float] = None
    tau0_hat: float = 0.0
    rs_hat: float = 0.0
    degenerate: bool = False

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.turns_ratio <= 0:
            raise ValueError("turns_ratio must be positive")

    @property
    def smoothing_alpha(self) -> float:
        if math.isinf(self.gamma):
            return 1.0
        return 1.0 - math.exp(-self.gamma * self.period)


@dataclass(frozen=True)
class InsulationDetectorConfig:
    """Drop detector on the insulation-resistance estimate.

    The baseline is learned over baseline_window samples starting at
    baseline_start (letting the estimator settle first); a trip is
    declared after persistence consecutive samples below drop_fraction
    of the baseline.
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


@dataclass(frozen=True)
class DetectionEvent:
    """A latched detector event: sample index, kind, and the resistance
    estimate that sealed it."""

    index: int
    kind: str
    rs_value: float


def tustin_coeffs(k3: float, tau0: float, period: float) -> Tuple[float, float]:
    """Bilinear-map coefficients (drive gain, feedback coefficient) of a
    first-order gain/time-constant load sampled at the given period."""
    if period <= 0:
        raise ValueError("period must be positive")
    if tau0 < 0:
        raise ValueError("tau0 must be >= 0")
    denom = period + 2.0 * tau0
    return k3 * period / denom, (period - 2.0 * tau0) / denom


# The per-sample chain as plain float arithmetic: A64SEstimator.run keeps
# its state in locals and calls these directly; the streaming functions
# below are thin views over them, so both run the same arithmetic.

def _regressors(prev_vn: float, prev_in: float, i_n: float) -> Tuple[float, float]:
    """Regression vector of a sample with a valid predecessor; the second
    entry is the summed current."""
    return -prev_vn, prev_in + i_n


def _theta_step(a0, kd, p00, p01, p11, process_noise, measurement_noise, v_n, phi0, phi1):
    """One 2-state filter step on (a0, kd) with the symmetric covariance
    [[p00, p01], [p01, p11]]; returns (a0, kd, p00, p01, p11, innovation).

    Covariance is propagated first (information-form shrink plus process
    noise), then the gain derives from the updated covariance; this
    reduces to the scalar recursion when one regressor vanishes.
    """
    pp0 = p00 * phi0 + p01 * phi1
    pp1 = p01 * phi0 + p11 * phi1
    denom = measurement_noise + (phi0 * pp0 + phi1 * pp1)
    p00 = p00 - pp0 * pp0 / denom + process_noise
    p01 = p01 - pp0 * pp1 / denom
    p11 = p11 - pp1 * pp1 / denom + process_noise
    innovation = v_n - (phi0 * a0 + phi1 * kd)
    a0 += (p00 * phi0 + p01 * phi1) / measurement_noise * innovation
    kd += (p01 * phi0 + p11 * phi1) / measurement_noise * innovation
    return a0, kd, p00, p01, p11, innovation


def _extract_step(a0, kd, ratio_memory, gain_memory, alpha, period, rs_scale):
    """Smoothed, clamped (time constant, resistance) of (a0, kd); returns
    (tau0, rs, ratio_memory, gain_memory, degenerate).  rs_scale is
    turns_ratio**2 / period; a memory of None restarts its smoother."""
    one_plus = 1.0 + a0
    degenerate = abs(one_plus) < 1e-12
    if not degenerate:
        ratio_raw = (1.0 - a0) / one_plus
        if ratio_memory is None:
            ratio_memory = ratio_raw
        else:
            ratio_memory += alpha * (ratio_raw - ratio_memory)
    ratio = ratio_memory or 0.0
    tau0 = 0.5 * period * (0.0 if ratio < 0.0 else ratio)

    gain_raw = (period + 2.0 * tau0) * kd
    if gain_memory is None:
        gain_memory = gain_raw
    else:
        gain_memory += alpha * (gain_raw - gain_memory)
    rs = rs_scale * (0.0 if gain_memory < 0.0 else gain_memory)
    return tau0, rs, ratio_memory, gain_memory, degenerate


def _c0_step(c0_hat, variance, process_noise, measurement_noise, tau0, rs):
    """One scalar capacitance step; returns (c0_hat, variance)."""
    variance = (variance * measurement_noise / (measurement_noise + rs * rs * variance)
                + process_noise)
    return c0_hat + variance * rs / measurement_noise * (tau0 - rs * c0_hat), variance


def regression_step(
    state: ThetaKafState, v_n: float, i_n: float
) -> Optional[Tuple[np.ndarray, float]]:
    """Form the regression vector from consecutive valid samples and
    update the signal memories.  Returns None on a priming sample (no
    usable prior), otherwise (phi, summed current)."""
    prev_vn, prev_in = state.prev_vn, state.prev_in
    state.prev_vn, state.prev_in = v_n, i_n
    if prev_vn is None or prev_in is None:
        return None
    phi0, u = _regressors(prev_vn, prev_in, i_n)
    return np.array([phi0, u]), u


def theta_kaf_update(
    state: ThetaKafState, v_n: float, phi: np.ndarray
) -> Tuple[ThetaKafState, float]:
    """One 2-state filter step; returns the new state and the innovation.
    A non-finite measurement or regressor is a ValueError."""
    phi0, phi1 = (float(x) for x in np.asarray(phi, dtype=float).reshape(2))
    v_n = float(v_n)
    if not (math.isfinite(v_n) and math.isfinite(phi0) and math.isfinite(phi1)):
        raise ValueError("v_n and phi must be finite")
    cov = state.cov
    a0, kd, p00, p01, p11, innovation = _theta_step(
        float(state.theta_hat[0]), float(state.theta_hat[1]),
        float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]),
        state.process_noise, state.measurement_noise, v_n, phi0, phi1)
    new_state = replace(state, theta_hat=np.array([a0, kd]),
                        cov=np.array([[p00, p01], [p01, p11]]), t=state.t + 1)
    return new_state, innovation


def extract_params(state: ExtractorState, theta_hat: np.ndarray) -> Tuple[float, float]:
    """Turn the tracked regression parameters into smoothed, clamped
    machine-side estimates (time constant s, insulation resistance ohms).

    The feedback coefficient inverts to the time constant through the
    bilinear map; the drive gain then inverts to the resistance, referred
    across the neutral transformer.  A feedback coefficient at the
    degenerate point -1 freezes the time constant for that step.
    """
    tau0, rs, state.ratio_memory, state.gain_memory, state.degenerate = _extract_step(
        float(theta_hat[0]), float(theta_hat[1]), state.ratio_memory, state.gain_memory,
        state.smoothing_alpha, state.period, state.turns_ratio**2 / state.period)
    state.tau0_hat = tau0
    state.rs_hat = rs
    return tau0, rs


def c0_kaf_update(state: C0KafState, tau0_hat: float, rs_hat: float) -> C0KafState:
    """Scalar capacitance refinement step: regress the extracted time
    constant on the extracted resistance.  A non-finite input or a
    negative resistance is a ValueError."""
    if not (math.isfinite(tau0_hat) and math.isfinite(rs_hat)):
        raise ValueError("tau0_hat and rs_hat must be finite")
    if rs_hat < 0:
        raise ValueError("rs_hat must be >= 0")
    c0_hat, variance = _c0_step(state.c0_hat, state.variance, state.process_noise,
                                state.measurement_noise, tau0_hat, rs_hat)
    return replace(state, c0_hat=c0_hat, variance=variance)


def locate_fault(
    v_n60: float,
    un: float,
    r_n: float,
    rs_f: float,
    tau0_f: float,
    fault_active: bool = True,
    f1: float = 60.0,
) -> float:
    """Fault position from the fundamental neutral voltage.

    Inverts the divider formed by the fault resistance against the
    grounding resistance shunted by the winding capacitance: the faulted
    winding fraction is proportional to the measured fundamental neutral
    magnitude scaled by the divider's impedance magnitude.  rs_f is the
    fault-path resistance, tau0_f = rs_f times the winding capacitance.
    With no active fault the sentinel 2 is returned.  Computed positions
    above 1.2 indicate inconsistent inputs (see locator_consistent).
    """
    if not fault_active:
        return HEALTHY_SENTINEL
    if un <= 0 or r_n <= 0:
        raise ValueError("un and r_n must be positive")
    if v_n60 < 0 or rs_f < 0 or tau0_f < 0:
        raise ValueError("v_n60, rs_f, tau0_f must be >= 0")
    omega = 2.0 * math.pi * f1
    return (v_n60 / (un * r_n)) * math.hypot(r_n + rs_f, omega * r_n * tau0_f)


def locator_consistent(x: float) -> bool:
    """True when a location output is physically interpretable: either
    the healthy sentinel or a position at most 20% beyond the winding."""
    return x == HEALTHY_SENTINEL or 0.0 <= x <= 1.2


class _DropLatch:
    """Streaming baseline learner + persistence trip latch on rs_hat."""

    def __init__(self, cfg: InsulationDetectorConfig):
        self.cfg = cfg
        self._seen = 0
        self._window: List[float] = []
        self.baseline: Optional[float] = None
        self._streak = 0
        self.tripped = False
        self.trip_index: Optional[int] = None
        self.trip_value: Optional[float] = None

    def update(self, index: int, rs_hat: float) -> bool:
        cfg = self.cfg
        self._seen += 1
        pos = self._seen - 1
        if self.baseline is None:
            if pos < cfg.baseline_start:
                return False
            self._window.append(rs_hat)
            if len(self._window) >= cfg.baseline_window:
                baseline = float(np.median(self._window))
                if baseline <= 0:
                    raise CalibrationError("baseline resistance is not positive")
                if min(self._window) < cfg.drop_fraction * baseline:
                    raise CalibrationError(
                        "baseline window already contains a resistance drop"
                    )
                self.baseline = baseline
            return False
        if self.tripped:
            return True
        if rs_hat < cfg.drop_fraction * self.baseline:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= cfg.persistence:
            self.tripped = True
            self.trip_index = index
            self.trip_value = rs_hat
        return self.tripped


def a64s_detect(
    rs_stream: Sequence[float], cfg: Optional[InsulationDetectorConfig] = None
) -> List[DetectionEvent]:
    """Run the drop detector over a resistance-estimate stream.

    Raises CalibrationError when the stream cannot supply a clean
    baseline (too short, or the baseline window itself contains a drop).
    """
    cfg = cfg or InsulationDetectorConfig()
    needed = cfg.baseline_start + cfg.baseline_window
    if len(rs_stream) < needed:
        raise CalibrationError(
            f"stream of {len(rs_stream)} samples cannot fill the "
            f"{needed}-sample baseline"
        )
    latch = _DropLatch(cfg)
    events: List[DetectionEvent] = []
    for idx, rs in enumerate(rs_stream):
        was = latch.tripped
        latch.update(idx, float(rs))
        if latch.tripped and not was:
            events.append(DetectionEvent(index=latch.trip_index, kind="trip",
                                         rs_value=latch.trip_value))
    return events


def frames_from_timeseries(
    v_ts: TimeSeries,
    i_ts: TimeSeries,
    circuit: Subharmonic64SConfig,
    injection_cycles: int = 2,
    fundamental_cycles: int = 3,
) -> SubharmonicFrames:
    """Pre-filter raw neutral-voltage / injected-current records into
    estimator frames.

    Both channels are narrowband-filtered at the injection frequency
    (the same linear filter on both preserves their discrete-time
    circuit relation exactly once warmed up); the fundamental component
    of the voltage channel is extracted separately, referred to the
    machine side, for the locator.
    """
    if v_ts.fs != i_ts.fs or len(v_ts) != len(i_ts) or v_ts.t0 != i_ts.t0:
        raise ValueError("voltage and current records must share fs, t0, length")
    ph_v = extract_phasor(v_ts, circuit.f_inj, injection_cycles)
    ph_i = extract_phasor(i_ts, circuit.f_inj, injection_cycles)
    ph_60 = extract_phasor(v_ts, circuit.f1, fundamental_cycles)
    v_band = reconstruct_narrowband(ph_v).samples
    i_band = reconstruct_narrowband(ph_i).samples
    valid = ph_v.valid & ph_i.valid & ph_60.valid
    return SubharmonicFrames(
        v_n=v_band.tolist(),
        i_n=i_band.tolist(),
        v_n60=np.where(valid, ph_60.magnitude * circuit.turns_ratio, 0.0).tolist(),
        valid=valid.tolist(),
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


@dataclass
class A64STrace:
    """Per-sample record of one estimator run plus summary fields."""

    fs: float
    t_index: List[int] = field(default_factory=list)
    v_n: List[float] = field(default_factory=list)
    i_n: List[float] = field(default_factory=list)
    a0_hat: List[float] = field(default_factory=list)
    kd_hat: List[float] = field(default_factory=list)
    tau0_hat: List[float] = field(default_factory=list)
    rs_hat: List[float] = field(default_factory=list)
    c0_hat: List[float] = field(default_factory=list)
    x_hat: List[float] = field(default_factory=list)
    trip: List[bool] = field(default_factory=list)
    valid: List[bool] = field(default_factory=list)
    baseline: Optional[float] = None
    onset_index: Optional[int] = None

    @property
    def first_trip_index(self) -> Optional[int]:
        for idx, tripped in zip(self.t_index, self.trip):
            if tripped:
                return idx
        return None

    @property
    def tripped(self) -> bool:
        return self.first_trip_index is not None

    def columns(self) -> Dict[str, List]:
        """Time in seconds and every per-sample signal, by CSV column name
        (time constant in ms, resistance in ohms, capacitance in µF)."""
        return {"t": [i / self.fs for i in self.t_index], "vn": self.v_n, "in": self.i_n,
                "a0_hat": self.a0_hat, "kd_hat": self.kd_hat,
                "tau0_hat_ms": [v * 1e3 for v in self.tau0_hat], "rs_hat_ohm": self.rs_hat,
                "c0_hat_uF": [v * 1e6 for v in self.c0_hat], "x_hat": self.x_hat,
                "trip": self.trip}

    def final_estimates(self, tail: int = 250) -> Tuple[float, float, float]:
        """(resistance, capacitance, time constant) medians over the last
        tail valid samples."""
        rows = [
            (r, c, tau)
            for r, c, tau, ok in zip(self.rs_hat, self.c0_hat, self.tau0_hat, self.valid)
            if ok
        ][-tail:]
        if not rows:
            raise ValueError("trace holds no valid samples")
        arr = np.array(rows)
        med = np.median(arr, axis=0)
        return float(med[0]), float(med[1]), float(med[2])

    def final_location(self, tail: int = 250) -> float:
        """Median located position over the last tail tripped samples, or
        the healthy sentinel when the run never tripped."""
        xs = [
            x for x, t in zip(self.x_hat, self.trip)
            if t and x != HEALTHY_SENTINEL
        ][-tail:]
        if not xs:
            return HEALTHY_SENTINEL
        return float(np.median(xs))


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
        cfg = self.cfg
        period = 1.0 / fs
        # the state objects check the settings; the loop keeps their values
        # in locals and steps them through the kernels the streaming
        # functions use
        theta = ThetaKafState(
            cov=cfg.theta_initial_variance * np.eye(2),
            process_noise=cfg.theta_process_noise,
            measurement_noise=cfg.theta_measurement_noise,
        )
        extractor = ExtractorState(period=period, turns_ratio=self.circuit.turns_ratio,
                                   gamma=cfg.smoothing_rate)
        c0 = C0KafState(
            c0_hat=cfg.c0_initial, variance=cfg.c0_initial_variance,
            process_noise=cfg.c0_process_noise,
            measurement_noise=cfg.c0_measurement_noise,
        )
        theta_q, theta_r = theta.process_noise, theta.measurement_noise
        p_initial = float(theta.cov[0, 0])
        a0 = kd = p01 = 0.0
        p00 = p11 = p_initial
        alpha = extractor.smoothing_alpha
        rs_scale = extractor.turns_ratio**2 / period
        ratio_memory = gain_memory = None
        tau0 = rs = 0.0
        c0_hat, c0_var = c0.c0_hat, c0.variance
        c0_q, c0_r = c0.process_noise, c0.measurement_noise
        prev_vn = prev_in = None
        latch = _DropLatch(cfg.detector)
        tripped = False
        det_count = 0
        r_n = self.circuit.r_n_primary
        sentinel = HEALTHY_SENTINEL

        trace = A64STrace(fs=fs, onset_index=onset_index, t_index=list(range(len(frames))),
                          v_n=list(frames.v_n), i_n=list(frames.i_n))
        a0_col, kd_col, tau0_col, rs_col, c0_col, x_col, trip_col, valid_col = (
            col.append for col in (trace.a0_hat, trace.kd_hat, trace.tau0_hat, trace.rs_hat,
                                   trace.c0_hat, trace.x_hat, trace.trip, trace.valid))
        for v_n, i_n, v_n60, valid in zip(frames.v_n, frames.i_n, frames.v_n60, frames.valid):
            x_hat = sentinel
            if valid and prev_vn is not None:
                phi0, phi1 = _regressors(prev_vn, prev_in, i_n)
                prev_vn, prev_in = v_n, i_n
                a0, kd, p00, p01, p11, _ = _theta_step(a0, kd, p00, p01, p11,
                                                       theta_q, theta_r, v_n, phi0, phi1)
                tau0, rs, ratio_memory, gain_memory, _ = _extract_step(
                    a0, kd, ratio_memory, gain_memory, alpha, period, rs_scale)
                c0_hat, c0_var = _c0_step(c0_hat, c0_var, c0_q, c0_r, tau0, rs)
                was_tripped = tripped
                tripped = latch.update(det_count, rs)
                det_count += 1
                if tripped and not was_tripped:
                    # the circuit just changed structurally; re-open the filter
                    # so the faulted parameters are re-identified quickly
                    # instead of creeping in at the steady tracking rate
                    p00 = p11 = p_initial
                    p01 = 0.0
                    ratio_memory = gain_memory = None
                if tripped and latch.baseline is not None:
                    x_hat = self._locate(v_n60, rs, c0_hat, latch.baseline, r_n)
                used = True
            else:
                # an invalid sample clears the regression memory; the next
                # valid one only primes it
                prev_vn, prev_in = (v_n, i_n) if valid else (None, None)
                used = False
            a0_col(a0)
            kd_col(kd)
            tau0_col(tau0)
            rs_col(rs)
            c0_col(c0_hat)
            x_col(x_hat)
            trip_col(tripped)
            valid_col(used)
        trace.baseline = latch.baseline
        return trace

    def run_timeseries(self, v_ts: TimeSeries, i_ts: TimeSeries,
                       onset_index: Optional[int] = None) -> A64STrace:
        frames = frames_from_timeseries(v_ts, i_ts, self.circuit)
        return self.run(frames, v_ts.fs, onset_index=onset_index)

    def _locate(self, v_n60: float, rs_hat: float, c0_hat: float,
                baseline: float, r_n: float) -> float:
        if rs_hat <= 0 or rs_hat >= baseline:
            return HEALTHY_SENTINEL
        # The measured drop is the parallel combination of the healthy
        # insulation and the fault path; undo it to get the fault branch.
        rf_hat = 1.0 / (1.0 / rs_hat - 1.0 / baseline)
        tau0_f = rf_hat * max(c0_hat, 0.0)
        return locate_fault(v_n60, self.circuit.un, r_n, rf_hat, tau0_f,
                            fault_active=True, f1=self.circuit.f1)


def write_a64s_trace_csv(trace: A64STrace, path) -> None:
    """Write an estimator trace as CSV, one row per sample."""
    write_table(path, trace.columns())
