"""Adaptive third-harmonic ratio protection with a fixed-ratio baseline.

A healthy high-impedance-grounded machine splits its third-harmonic EMF
between the neutral and terminal in a ratio that wanders with load and
power factor.  The adaptive scheme tracks that ratio with a scalar Kalman
adaptive filter and trips on the energy of the tracking residual; the
baseline scheme freezes a commissioning-time ratio and trips when the
measured point leaves a fixed wedge around it.  Both share the same
operate/restraint machinery so their security can be compared on equal
footing.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Deque, Iterable, List, Optional, Sequence, Tuple

from .plantsim import HarmonicFrame

__all__ = [
    "RatioKafState",
    "DetectorConfig",
    "Calibration64RAT",
    "SchemeTrace",
    "RatioSchemeState",
    "kaf_update",
    "operate_restraint",
    "ratio_step",
    "calibrate_64rat",
    "AdaptiveRatioDetector",
    "FixedRatioDetector",
    "write_trace_csv",
]


@dataclass(frozen=True)
class RatioKafState:
    """Scalar Kalman adaptive filter over the neutral/terminal ratio.

    rho_hat is the tracked ratio estimate, variance its error variance.
    process_noise sets how fast the filter believes the true ratio can
    wander (per-sample variance), measurement_noise the variance of the
    neutral-magnitude measurement.  t counts absorbed frames.
    """

    rho_hat: float = 0.5
    variance: float = 1.0
    process_noise: float = 1e-8
    measurement_noise: float = 1e-4
    initial_variance: float = 1.0
    t: int = 0

    def __post_init__(self):
        if self.variance <= 0 or self.initial_variance <= 0:
            raise ValueError("variance and initial_variance must be positive")
        if self.measurement_noise <= 0:
            raise ValueError("measurement_noise must be positive")
        if self.process_noise < 0:
            raise ValueError("process_noise must be >= 0")


@dataclass(frozen=True)
class DetectorConfig:
    """Trip-logic settings shared by the adaptive and fixed schemes.

    window is the learning length L: the operate energy is inhibited for
    the first L frames and afterwards summed over a sliding window of
    L+1 frames.  sensitivity is the operate/restraint threshold factor.
    persistence is how many consecutive frames the trip inequality must
    hold; None means the window length.
    """

    window: int = 12
    sensitivity: float = 0.005
    persistence: Optional[int] = None

    def __post_init__(self):
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if self.sensitivity <= 0:
            raise ValueError("sensitivity must be positive")
        if self.persistence is not None and self.persistence < 1:
            raise ValueError("persistence must be >= 1")

    @property
    def hold(self) -> int:
        """Effective persistence requirement in frames."""
        return self.window if self.persistence is None else self.persistence


@dataclass(frozen=True)
class Calibration64RAT:
    """Commissioning result for the fixed-ratio scheme: the frozen ratio
    setting and the wedge half-width (relative) that encloses all healthy
    calibration points including the guard band."""

    ratio: float
    beta_ng: float

    @property
    def threshold(self) -> float:
        """Operate/restraint sensitivity equivalent to the wedge: a point
        on the wedge boundary has residual beta_ng*ratio*V_P3, so the
        energy-ratio threshold is beta_ng squared (approximating the
        measured ratio by the setting in the restraint term)."""
        return self.beta_ng**2


def kaf_update(state: RatioKafState, frame: HarmonicFrame) -> Tuple[RatioKafState, float]:
    """One ratio-filter step on a valid frame; returns the new state and
    the innovation (measured neutral magnitude minus prediction).

    Variance is propagated first, then the gain is formed from the
    updated variance; a zero terminal magnitude degenerates gracefully
    (no correction, variance grows by the process noise).
    """
    if not frame.valid:
        raise ValueError("kaf_update requires a valid frame")
    v_p3 = frame.v_p3
    variance = (
        state.variance * state.measurement_noise
        / (state.measurement_noise + state.variance * v_p3**2)
        + state.process_noise
    )
    gain = variance * v_p3 / state.measurement_noise
    residual = frame.v_n3 - state.rho_hat * v_p3
    new_state = replace(
        state,
        rho_hat=state.rho_hat + gain * residual,
        variance=variance,
        t=state.t + 1,
    )
    return new_state, residual


def operate_restraint(
    residuals: Sequence[float],
    vn3s: Sequence[float],
    cfg: DetectorConfig,
    t: int,
) -> Tuple[float, float]:
    """Operate and restraint energies at frame count t.

    The operate energy is identically zero through the learning window
    (first L frames) and afterwards sums the squared residuals over the
    last L+1 frames.  The restraint energy is the running sum of squared
    neutral magnitudes during learning and the matching windowed sum
    afterwards.  Callers supply the last min(t, L+1) values of each.
    """
    if t <= cfg.window:
        return 0.0, math.fsum(v * v for v in vn3s)
    return (
        math.fsum(r * r for r in residuals),
        math.fsum(v * v for v in vn3s),
    )


@dataclass
class SchemeTrace:
    """Per-frame record of one detector run plus trip summary."""

    scheme: str
    fs: float
    sensitivity: float
    t_index: List[int] = field(default_factory=list)
    v_p3: List[float] = field(default_factory=list)
    v_n3: List[float] = field(default_factory=list)
    rho_hat: List[float] = field(default_factory=list)
    residual: List[float] = field(default_factory=list)
    operate: List[float] = field(default_factory=list)
    restraint: List[float] = field(default_factory=list)
    trip: List[bool] = field(default_factory=list)
    valid: List[bool] = field(default_factory=list)
    onset_index: Optional[int] = None

    def append(self, t_index, v_p3, v_n3, rho_hat, residual, operate, restraint, trip, valid):
        if self.t_index and t_index <= self.t_index[-1]:
            raise ValueError("t_index must be strictly increasing")
        if operate < 0 or restraint < 0:
            raise ValueError("operate and restraint energies must be >= 0")
        self.t_index.append(t_index)
        self.v_p3.append(v_p3)
        self.v_n3.append(v_n3)
        self.rho_hat.append(rho_hat)
        self.residual.append(residual)
        self.operate.append(operate)
        self.restraint.append(restraint)
        self.trip.append(bool(trip))
        self.valid.append(bool(valid))

    @property
    def first_trip_index(self) -> Optional[int]:
        for idx, tripped in zip(self.t_index, self.trip):
            if tripped:
                return idx
        return None

    @property
    def tripped(self) -> bool:
        return self.first_trip_index is not None

    @property
    def detection_latency_samples(self) -> Optional[int]:
        """Frames from onset to trip; None when either is missing."""
        if self.onset_index is None or self.first_trip_index is None:
            return None
        return self.first_trip_index - self.onset_index

    def margin(self, start_index: int = 0) -> float:
        """Largest operate/(sensitivity*restraint) seen from start_index
        on; > 1 means the trip inequality was crossed at least once."""
        worst = 0.0
        for idx, jao, jar in zip(self.t_index, self.operate, self.restraint):
            if idx < start_index or jar <= 0.0:
                continue
            worst = max(worst, jao / (self.sensitivity * jar))
        return worst


@dataclass
class RatioSchemeState:
    """Mutable run state of a ratio scheme.

    The residual's ratio comes from the Kalman filter when kaf_template is
    set (adaptive scheme: the filter starts at the first valid frame, from
    ``ratio`` or, when that is None, from that frame's own ratio) and is
    otherwise the frozen ``ratio`` setting (fixed scheme).
    """

    cfg: DetectorConfig
    ratio: Optional[float]
    kaf_template: Optional[RatioKafState] = None
    kaf: Optional[RatioKafState] = None
    residuals: Deque[float] = field(default_factory=deque)
    vn3s: Deque[float] = field(default_factory=deque)
    t: int = 0
    streak: int = 0
    tripped: bool = False
    last_operate: float = 0.0
    last_restraint: float = 0.0

    def __post_init__(self):
        maxlen = self.cfg.window + 1
        self.residuals = deque(self.residuals, maxlen=maxlen)
        self.vn3s = deque(self.vn3s, maxlen=maxlen)

    @property
    def rho(self) -> float:
        """Ratio the trace reports: the tracked estimate once the filter
        runs, else the setting (0.0 for an adaptive scheme still waiting
        to seed its filter from the first valid frame)."""
        if self.kaf is not None:
            return self.kaf.rho_hat
        return self.ratio or 0.0


def ratio_step(state: RatioSchemeState, frame: HarmonicFrame, trace: SchemeTrace) -> SchemeTrace:
    """Advance a ratio scheme by one frame, appending to the trace.

    Invalid frames (phasor warm-up, supervision dropout) are recorded but
    do not advance the filter, the windows, or the trip logic.
    """
    residual = 0.0
    if frame.valid:
        if state.kaf_template is None:
            residual = frame.v_n3 - state.ratio * frame.v_p3
        else:
            if state.kaf is None:
                rho0 = state.ratio
                if rho0 is None:
                    rho0 = frame.v_n3 / frame.v_p3 if frame.v_p3 > 0 else 0.5
                state.kaf = replace(state.kaf_template, rho_hat=rho0,
                                    variance=state.kaf_template.initial_variance, t=0)
            state.kaf, residual = kaf_update(state.kaf, frame)
        state.t += 1
        state.residuals.append(residual)
        state.vn3s.append(frame.v_n3)
        jao, jar = operate_restraint(state.residuals, state.vn3s, state.cfg, state.t)
        if not state.tripped:
            if jao > state.cfg.sensitivity * jar:
                state.streak += 1
            else:
                state.streak = 0
            if state.streak >= state.cfg.hold:
                state.tripped = True
        state.last_operate, state.last_restraint = jao, jar
    trace.append(frame.t_index, frame.v_p3, frame.v_n3, state.rho, residual,
                 state.last_operate, state.last_restraint, state.tripped, frame.valid)
    return trace


def calibrate_64rat(
    healthy_points: Sequence[Tuple[float, float]], guard: float = 0.15
) -> Calibration64RAT:
    """Fit the fixed-ratio setting from healthy (V_P3, V_N3) pairs.

    The ratio is the least-squares slope through the origin; beta_ng is
    the smallest relative wedge half-width enclosing every point,
    inflated by the guard fraction.  Collinear points therefore give
    beta_ng = 0 (nothing for the guard to inflate).
    """
    pts = [(float(p), float(n)) for p, n in healthy_points]
    if len(pts) < 2:
        raise ValueError("need at least 2 calibration points")
    if guard < 0:
        raise ValueError("guard must be >= 0")
    sxx = math.fsum(p * p for p, _ in pts)
    if sxx == 0.0:
        raise ValueError("all terminal magnitudes are zero; cannot calibrate")
    sxy = math.fsum(p * n for p, n in pts)
    ratio = sxy / sxx
    if ratio <= 0:
        raise ValueError(f"calibration slope must be positive, got {ratio}")
    worst = 0.0
    for p, n in pts:
        if p <= 0:
            continue
        worst = max(worst, abs(n / p - ratio) / ratio)
    return Calibration64RAT(ratio=ratio, beta_ng=worst * (1.0 + guard))


class AdaptiveRatioDetector:
    """Batch/streaming wrapper over ratio_step with a Kalman-tracked ratio."""

    def __init__(
        self,
        cfg: Optional[DetectorConfig] = None,
        process_noise: float = 1e-8,
        measurement_noise: float = 1e-4,
        initial_variance: float = 1.0,
        rho0: Optional[float] = None,
    ):
        self.cfg = cfg or DetectorConfig()
        self._template = RatioKafState(
            rho_hat=rho0 if rho0 is not None else 0.5,
            variance=initial_variance,
            process_noise=process_noise,
            measurement_noise=measurement_noise,
            initial_variance=initial_variance,
        )
        self._rho0 = rho0

    def new_state(self) -> RatioSchemeState:
        return RatioSchemeState(cfg=self.cfg, ratio=self._rho0, kaf_template=self._template)

    def run(
        self,
        frames: Iterable[HarmonicFrame],
        fs: float,
        onset_index: Optional[int] = None,
    ) -> SchemeTrace:
        trace = SchemeTrace(scheme="a64g2", fs=fs, sensitivity=self.cfg.sensitivity,
                            onset_index=onset_index)
        state = self.new_state()
        for frame in frames:
            ratio_step(state, frame, trace)
        return trace


class FixedRatioDetector:
    """Batch/streaming wrapper over ratio_step with a frozen ratio."""

    def __init__(self, ratio: float, cfg: Optional[DetectorConfig] = None):
        if ratio <= 0:
            raise ValueError("ratio must be positive")
        self.cfg = cfg or DetectorConfig()
        self.ratio = ratio

    @classmethod
    def from_calibration(
        cls, calibration: Calibration64RAT, window: int = 12,
        persistence: Optional[int] = None,
    ) -> "FixedRatioDetector":
        """Build the baseline with its wedge-equivalent sensitivity."""
        cfg = DetectorConfig(window=window, sensitivity=calibration.threshold,
                             persistence=persistence)
        return cls(ratio=calibration.ratio, cfg=cfg)

    def new_state(self) -> RatioSchemeState:
        return RatioSchemeState(cfg=self.cfg, ratio=self.ratio)

    def run(
        self,
        frames: Iterable[HarmonicFrame],
        fs: float,
        onset_index: Optional[int] = None,
    ) -> SchemeTrace:
        trace = SchemeTrace(scheme="ng64g2", fs=fs, sensitivity=self.cfg.sensitivity,
                            onset_index=onset_index)
        state = self.new_state()
        for frame in frames:
            ratio_step(state, frame, trace)
        return trace


def write_trace_csv(trace: SchemeTrace, path) -> None:
    """Write a detector trace in the shared column layout."""
    lines = ["t,VP3,VN3,rho_hat,residual,JAO,JAR,trip"]
    for i in range(len(trace.t_index)):
        t = trace.t_index[i] / trace.fs
        lines.append(
            f"{t!r},{trace.v_p3[i]!r},{trace.v_n3[i]!r},{trace.rho_hat[i]!r},"
            f"{trace.residual[i]!r},{trace.operate[i]!r},{trace.restraint[i]!r},"
            f"{int(trace.trip[i])}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
