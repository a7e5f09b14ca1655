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
import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from .plantsim import HarmonicFrames
from .signalcore import write_table

__all__ = [
    "DetectorConfig",
    "Calibration64RAT",
    "SchemeTrace",
    "restraint_column",
    "calibrate_64rat",
    "AdaptiveRatioDetector",
    "FixedRatioDetector",
    "write_trace_csv",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Trip-logic settings shared by the adaptive and fixed schemes.

    window is the learning length L: the operate energy is inhibited for
    the first L frames and afterwards summed over a sliding window of
    L+1 frames.  sensitivity is the operate/restraint threshold factor,
    finite and at least the smallest normal float (a NaN or infinite one
    would never trip, a subnormal one makes the margin overflow).
    persistence is how many consecutive frames the trip inequality must
    hold; None means the window length.
    """

    window: int = 12
    sensitivity: float = 0.005
    persistence: Optional[int] = None

    def __post_init__(self):
        if self.window < 2:
            raise ValueError(f"window must be >= 2, got {self.window}")
        if not sys.float_info.min <= self.sensitivity < math.inf:
            raise ValueError(f"sensitivity must be finite and at least "
                             f"{sys.float_info.min!r}, got {self.sensitivity!r}")
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


def _kaf_step(rho_hat: float, variance: float, process_noise: float,
              measurement_noise: float, v_p3: float, v_n3: float) -> Tuple[float, float, float]:
    """One ratio-filter step on a valid frame's terminal and neutral
    magnitudes; returns the new ratio, the new variance and the
    innovation (measured neutral magnitude minus prediction).

    Variance is propagated first, then the gain is formed from the
    updated variance; a zero terminal magnitude degenerates gracefully
    (no correction, variance grows by the process noise).
    """
    variance = (variance * measurement_noise / (measurement_noise + variance * v_p3**2)
                + process_noise)
    gain = variance * v_p3 / measurement_noise
    residual = v_n3 - rho_hat * v_p3
    return rho_hat + gain * residual, variance, residual


@dataclass
class SchemeTrace:
    """Per-frame record of one detector run plus trip summary."""

    scheme: str
    fs: float
    sensitivity: float
    t_index: Sequence[int] = range(0)
    v_p3: Sequence[float] = ()
    v_n3: Sequence[float] = ()
    rho_hat: List[float] = field(default_factory=list)
    residual: List[float] = field(default_factory=list)
    operate: List[float] = field(default_factory=list)
    restraint: Sequence[float] = ()
    trip: List[bool] = field(default_factory=list)
    valid: Sequence[bool] = ()
    onset_index: Optional[int] = None
    margin_peak: float = 0.0
    margin_index: Optional[int] = None

    @property
    def first_trip_index(self) -> Optional[int]:
        try:
            return self.trip.index(True)
        except ValueError:
            return None

    @property
    def tripped(self) -> bool:
        return self.first_trip_index is not None

    def columns(self) -> Dict[str, List]:
        """Time in seconds and every per-frame signal, by CSV column name."""
        return {"t": [i / self.fs for i in self.t_index], "VP3": self.v_p3,
                "VN3": self.v_n3, "rho_hat": self.rho_hat, "residual": self.residual,
                "JAO": self.operate, "JAR": self.restraint, "trip": self.trip}

    def margin(self) -> float:
        """Largest operate/(sensitivity*restraint) over the frames with a
        positive restraint; > 1 means the trip inequality was crossed at
        least once.  The scheme loop tracks it in margin_peak, and the
        first frame that reaches it in margin_index (None while it is 0).
        It is infinite when the quotient overflows, as it does when
        sensitivity*restraint underflows to 0 or the operate energy to inf."""
        return self.margin_peak


def restraint_column(frames: HarmonicFrames, window: int) -> Tuple[float, ...]:
    """The restraint energy JAR at every frame of a record: the sum of the
    squared neutral magnitudes of the last window+1 valid frames, repeated
    on invalid frames.  It depends only on the frames and the window, so
    both ratio schemes of one record can share it."""
    fsum = math.fsum
    vn3_sq: Deque[float] = deque(maxlen=window + 1)
    push = vn3_sq.append
    jar = 0.0
    column: List[float] = []
    append = column.append
    for vn, ok in zip(frames.v_n3, frames.valid):
        if ok:
            push(vn * vn)
            jar = fsum(vn3_sq)
        append(jar)
    return tuple(column)


def _advance(trace: SchemeTrace, cfg: DetectorConfig, ratio: Optional[float],
             kaf: Optional[Tuple[float, float, float]], frames: HarmonicFrames,
             restraint: Sequence[float]) -> None:
    """Run a ratio scheme over checked frames and their restraint column,
    filling a fresh trace with one row per frame and its margin.

    kaf holds the adaptive scheme's filter settings (process noise,
    measurement noise, initial variance); the filter starts at the first
    valid frame from ``ratio`` or, when that is None, from that frame's
    own ratio.  Without kaf (fixed scheme) the residual uses the frozen
    ``ratio``.  Invalid frames are recorded with the last ratio and
    energies but do not advance the filter, the operate window (the
    squared residuals of the last L+1 valid frames), or the trip logic.
    """
    window, sensitivity, hold = cfg.window, cfg.sensitivity, cfg.hold
    if kaf is not None:
        process_noise, measurement_noise, initial_variance = kaf
    rho_hat = variance = None
    residual_sq: Deque[float] = deque(maxlen=window + 1)
    t = streak = 0
    tripped = False
    peak, peak_index = 0.0, None
    fsum = math.fsum
    rho = ratio or 0.0
    jao = 0.0
    push_residual = residual_sq.append
    rho_col, residual_col, operate_col, trip_col = (
        col.append for col in (trace.rho_hat, trace.residual, trace.operate, trace.trip))
    for idx, vp, vn, ok, jar in zip(range(len(frames)), frames.v_p3, frames.v_n3,
                                    frames.valid, restraint):
        residual = 0.0
        if ok:
            if kaf is None:
                residual = vn - ratio * vp
            else:
                if rho_hat is None:
                    rho_hat = ratio if ratio is not None else vn / vp if vp > 0 else 0.5
                    variance = initial_variance
                rho_hat, variance, residual = _kaf_step(
                    rho_hat, variance, process_noise, measurement_noise, vp, vn)
                rho = rho_hat
            t += 1
            push_residual(residual * residual)
            if t > window:
                jao = fsum(residual_sq)
            floor = sensitivity * jar
            if not tripped:
                streak = streak + 1 if jao > floor else 0
                tripped = streak >= hold
            # invalid frames repeat these energies, so only a valid frame
            # can raise the margin
            if jar > 0.0:
                try:
                    margin = jao / floor
                except ZeroDivisionError:
                    margin = math.inf
                if margin > peak:
                    peak, peak_index = margin, idx
        rho_col(rho)
        residual_col(residual)
        operate_col(jao)
        trip_col(tripped)
    trace.t_index = range(len(frames))
    trace.v_p3, trace.v_n3, trace.valid = frames.v_p3, frames.v_n3, frames.valid
    trace.restraint = restraint
    trace.margin_peak, trace.margin_index = peak, peak_index


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


class _RatioDetector:
    """Batch runner over a whole record.  A subclass sets scheme, cfg, the
    ratio (frozen, or the adaptive filter's prior) and _kaf (the adaptive
    filter's settings, None for the fixed scheme)."""

    _kaf: Optional[Tuple[float, float, float]] = None

    def run(self, frames: HarmonicFrames, fs: float, onset_index: Optional[int] = None,
            restraint: Optional[Sequence[float]] = None) -> SchemeTrace:
        """Trace of the scheme over a record sampled at fs frames per
        second.  restraint is the record's restraint_column(frames,
        self.cfg.window), built here when None; a caller running both
        schemes on one record builds it once."""
        if not 0.0 < fs < math.inf:
            raise ValueError(f"fs must be positive and finite, got {fs!r}")
        restraint = (restraint_column(frames, self.cfg.window) if restraint is None
                     else tuple(restraint))
        if len(restraint) != len(frames):
            raise ValueError("the restraint column must have one value per frame")
        trace = SchemeTrace(scheme=self.scheme, fs=fs, sensitivity=self.cfg.sensitivity,
                            onset_index=onset_index)
        _advance(trace, self.cfg, self._ratio, self._kaf, frames, restraint)
        return trace


class AdaptiveRatioDetector(_RatioDetector):
    """Ratio scheme with a Kalman-tracked ratio.

    process_noise sets how fast the filter believes the true ratio can
    wander (per-frame variance, finite and >= 0), measurement_noise the
    variance of the neutral-magnitude measurement and initial_variance
    the filter's starting error variance (both finite and positive).
    rho0 is the starting ratio; None takes the first valid frame's own.
    """

    scheme = "a64g2"

    def __init__(
        self,
        cfg: Optional[DetectorConfig] = None,
        process_noise: float = 1e-8,
        measurement_noise: float = 1e-4,
        initial_variance: float = 1.0,
        rho0: Optional[float] = None,
    ):
        self.cfg = cfg or DetectorConfig()
        # chained comparisons are False for NaN, so NaN is rejected too;
        # a NaN or infinite setting would leave the filter blind
        if not 0.0 <= process_noise < math.inf:
            raise ValueError(f"process_noise must be finite and >= 0, got {process_noise!r}")
        for name, value in (("measurement_noise", measurement_noise),
                            ("initial_variance", initial_variance)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if rho0 is not None and not (math.isfinite(rho0) and rho0 > 0):
            raise ValueError(f"rho0 must be a positive finite ratio, got {rho0}")
        self._kaf = (process_noise, measurement_noise, initial_variance)
        self._ratio = rho0


class FixedRatioDetector(_RatioDetector):
    """Ratio scheme with a frozen ratio."""

    scheme = "ng64g2"

    def __init__(self, ratio: float, cfg: Optional[DetectorConfig] = None):
        if not 0.0 < ratio < math.inf:
            raise ValueError(f"ratio must be positive and finite, got {ratio!r}")
        self.cfg = cfg or DetectorConfig()
        self.ratio = ratio

    @property
    def _ratio(self) -> float:
        return self.ratio

    @classmethod
    def from_calibration(
        cls, calibration: Calibration64RAT, window: int = 12,
        persistence: Optional[int] = None,
    ) -> "FixedRatioDetector":
        """Build the baseline with its wedge-equivalent sensitivity."""
        cfg = DetectorConfig(window=window, sensitivity=calibration.threshold,
                             persistence=persistence)
        return cls(ratio=calibration.ratio, cfg=cfg)


def write_trace_csv(trace: SchemeTrace, path, long=None) -> None:
    """Write a detector trace as CSV, one row per frame; ``long`` (an open
    file and a label) also melts it into that file, as write_table does."""
    write_table(path, trace.columns(), long)
