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
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .plantsim import HarmonicFrames, _by_frame
from .signalcore import _first_true, _seconds, write_table

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


def _kaf_track(rho_hat: float, variance: float, process_noise: float, measurement_noise: float,
               v_p3: Sequence[float], v_n3: Sequence[float], ratios: List[float],
               residuals: List[float]) -> float:
    """The ratio filter stepped over valid frames' terminal and neutral
    magnitudes, one step per frame on Python floats; appends each step's
    new ratio and innovation (measured neutral magnitude minus
    prediction) to ratios and residuals, and returns the last variance.
    A step that raises leaves the lists holding the steps before it.

    Variance is propagated first, then the gain is formed from the
    updated variance; a zero terminal magnitude degenerates gracefully
    (no correction, variance grows by the process noise).
    """
    add_ratio, add_residual = ratios.append, residuals.append
    for vp, vn in zip(v_p3, v_n3):
        variance = (variance * measurement_noise / (measurement_noise + variance * vp**2)
                    + process_noise)
        residual = vn - rho_hat * vp
        rho_hat += variance * vp / measurement_noise * residual
        add_ratio(rho_hat)
        add_residual(residual)
    return variance


@dataclass
class SchemeTrace:
    """Per-frame record of one detector run plus trip summary.

    A run's columns are read-only numpy arrays, float64 and a bool
    ``trip``; v_p3, v_n3 are the frames' own arrays and restraint the
    column the run built.  valid holds the frames' flags as a tuple of
    bools, so that ``sum`` of it counts them as an int."""

    scheme: str
    fs: float
    sensitivity: float
    t_index: Sequence[int] = range(0)
    v_p3: Sequence[float] = ()
    v_n3: Sequence[float] = ()
    rho_hat: Sequence[float] = ()
    residual: Sequence[float] = ()
    operate: Sequence[float] = ()
    restraint: Sequence[float] = ()
    trip: Sequence[bool] = ()
    valid: Sequence[bool] = ()
    margin_peak: float = 0.0
    margin_index: Optional[int] = None

    @property
    def first_trip_index(self) -> Optional[int]:
        return _first_true(self.trip)

    @property
    def tripped(self) -> bool:
        return self.first_trip_index is not None

    def columns(self) -> Dict[str, np.ndarray]:
        """Time in seconds and every per-frame signal, by CSV column name:
        a run's own arrays, float64 and a bool ``trip``.  A hand-built
        trace's sequences go through ``np.asarray``, so a column holding
        None stays an object column, which write_table writes cell by
        cell."""
        a = np.asarray
        return {"t": _seconds(self.t_index, self.fs), "VP3": a(self.v_p3),
                "VN3": a(self.v_n3), "rho_hat": a(self.rho_hat), "residual": a(self.residual),
                "JAO": a(self.operate), "JAR": a(self.restraint), "trip": a(self.trip)}

    def margin(self) -> float:
        """Largest operate/(sensitivity*restraint) over the frames with a
        positive restraint; > 1 means the trip inequality was crossed at
        least once.  The scheme run records it in margin_peak, and the
        first frame that reaches it in margin_index (None while it is 0).
        It is infinite when the quotient overflows, as it does when
        sensitivity*restraint underflows to 0 or the operate energy to inf."""
        return self.margin_peak


def _window_sums(values: np.ndarray, width: int) -> np.ndarray:
    """The sum of every full window of ``width`` consecutive values,
    oldest first, each added left to right: ((v0 + v1) + v2) + ...  A
    window that overflows sums to inf, one holding a NaN to NaN."""
    count = len(values) - width + 1
    if count <= 0:
        return np.zeros(0)
    sums = values[:count].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, width):
            sums += values[k:k + count]
    return sums


def restraint_column(frames: HarmonicFrames, window: int) -> np.ndarray:
    """The restraint energy JAR at every frame of a record, as a read-only
    array: the sum of the squared neutral magnitudes of the last window+1
    valid frames, repeated on invalid frames.  It depends only on the
    frames and the window, not on the scheme."""
    counts = np.cumsum(frames.valid)
    squares = np.zeros(window + (int(counts[-1]) if len(counts) else 0))
    squares[window:] = frames.v_n3[frames.valid]
    with np.errstate(over="ignore"):
        squares *= squares
    return _by_frame(_window_sums(squares, window + 1), counts, 0.0)


def _advance(trace: SchemeTrace, detector: "_RatioDetector", valid: np.ndarray) -> None:
    """Run a ratio scheme over the record a fresh trace holds (its frames,
    whose valid flags are given here as an array, and their restraint
    column), filling in the computed columns and the margin.

    The fixed scheme's residual uses its frozen ratio.  The adaptive
    scheme's filter starts at the first valid frame from rho0 or, when
    that is None, from that frame's own ratio.  Invalid frames are
    recorded with the last ratio and energies but do not advance the
    filter, the operate window (the squared residuals of the last L+1
    valid frames), or the trip logic.  Only the filter steps one frame at
    a time, on Python floats.  A filter step that squares past the float
    range raises its OverflowError; an operate window that overflows is
    inf, and so is its margin.
    """
    cfg = detector.cfg
    window, n = cfg.window, len(valid)
    counts = np.cumsum(valid)
    m = int(counts[-1]) if n else 0
    v_p3, v_n3 = trace.v_p3[valid], trace.v_n3[valid]
    if isinstance(detector, FixedRatioDetector):
        ratio = detector.ratio
        # one value, read-only, seen n times
        trace.rho_hat = np.broadcast_to(float(ratio), n)
        with np.errstate(all="ignore"):
            residual = v_n3 - ratio * v_p3
    else:
        # the filter steps on Python floats: numpy's square differs from
        # vp**2 in the last bit, and numpy scalars warn where it raises
        v_p3, v_n3 = v_p3.tolist(), v_n3.tolist()
        rho_hat = detector.rho0
        if rho_hat is None and m:
            vp, vn = v_p3[0], v_n3[0]
            rho_hat = vn / vp if vp > 0 else 0.5
        ratios: List[float] = []
        residuals: List[float] = []
        _kaf_track(rho_hat, detector.initial_variance, detector.process_noise,
                   detector.measurement_noise, v_p3, v_n3, ratios, residuals)
        trace.rho_hat = _by_frame(ratios, counts, detector.rho0 or 0.0)
        residual = residuals
    operate, jar = np.zeros(m), trace.restraint[valid]
    with np.errstate(all="ignore"):
        squares = np.square(residual)
        operate[window:] = _window_sums(squares, window + 1)
        floor = cfg.sensitivity * jar
        # the trip latches at the first valid frame ending a run of hold
        # valid frames whose operate energy exceeds the floor
        run = np.arange(1, m + 1)
        last = np.where(operate > floor, 0, run)
        run -= np.maximum.accumulate(last, out=last)
        margin = operate / floor
    hits = np.flatnonzero(run >= cfg.hold)
    # the frame of valid frame k (from 0) is the first whose count exceeds k
    first = int(np.searchsorted(counts, hits[0] + 1)) if len(hits) else n
    # a floor that underflows to 0 makes the margin infinite; a NaN margin,
    # or a frame without restraint, never raises it
    margin[floor == 0.0] = math.inf
    margin[np.isnan(margin) | ~(jar > 0.0)] = 0.0
    if m:
        peak = int(np.argmax(margin))
        if margin[peak] > 0.0:
            trace.margin_peak = float(margin[peak])
            trace.margin_index = int(np.searchsorted(counts, peak + 1))
    trace.residual = _by_frame(residual, counts * valid, 0.0)
    trace.operate = _by_frame(operate, counts, 0.0)
    trip = np.zeros(n, dtype=bool)
    trip[first:] = True
    trip.flags.writeable = False
    trace.trip = trip


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
    """Batch runner over a whole record, for a frozen dataclass of a
    scheme's settings that sets scheme and cfg."""

    def __post_init__(self):
        if not isinstance(self.cfg, DetectorConfig):
            raise ValueError(f"cfg must be a DetectorConfig, got {self.cfg!r}")

    def run(self, frames: HarmonicFrames, fs: float) -> SchemeTrace:
        """Trace of the scheme over a record sampled at fs frames per
        second.  The restraint column is restraint_column(frames,
        self.cfg.window), which is infinite where a neutral magnitude
        squares, or a window of squares sums, past the float range: that
        would blind the scheme, so it raises ValueError."""
        if not 0.0 < fs < math.inf:
            raise ValueError(f"fs must be positive and finite, got {fs!r}")
        restraint = restraint_column(frames, self.cfg.window)
        bad = np.flatnonzero(np.isinf(restraint))
        if len(bad):
            raise ValueError(f"restraint must be finite and >= 0, got "
                             f"{restraint[bad[0]].item()!r} at frame {bad[0]}")
        trace = SchemeTrace(scheme=self.scheme, fs=fs, sensitivity=self.cfg.sensitivity,
                            t_index=range(len(frames)), v_p3=frames.v_p3, v_n3=frames.v_n3,
                            restraint=restraint, valid=tuple(frames.valid.tolist()))
        _advance(trace, self, frames.valid)
        return trace


@dataclass(frozen=True)
class AdaptiveRatioDetector(_RatioDetector):
    """Ratio scheme with a Kalman-tracked ratio.

    process_noise sets how fast the filter believes the true ratio can
    wander (per-frame variance, finite and >= 0), measurement_noise the
    variance of the neutral-magnitude measurement and initial_variance
    the filter's starting error variance (both finite and positive).
    rho0 is the starting ratio; None takes the first valid frame's own.
    """

    cfg: DetectorConfig = DetectorConfig()
    process_noise: float = 1e-8
    measurement_noise: float = 1e-4
    initial_variance: float = 1.0
    rho0: Optional[float] = None

    scheme = "a64g2"

    def __post_init__(self):
        super().__post_init__()
        # chained comparisons are False for NaN, so NaN is rejected too;
        # a NaN or infinite setting would leave the filter blind
        if not 0.0 <= self.process_noise < math.inf:
            raise ValueError(f"process_noise must be finite and >= 0, got {self.process_noise!r}")
        for name in ("measurement_noise", "initial_variance"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if self.rho0 is not None and not (math.isfinite(self.rho0) and self.rho0 > 0):
            raise ValueError(f"rho0 must be a positive finite ratio, got {self.rho0}")


@dataclass(frozen=True)
class FixedRatioDetector(_RatioDetector):
    """Ratio scheme with a frozen ratio, positive and finite."""

    ratio: float
    cfg: DetectorConfig = DetectorConfig()

    scheme = "ng64g2"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.ratio < math.inf:
            raise ValueError(f"ratio must be positive and finite, got {self.ratio!r}")

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
    """Write a detector trace as CSV, one row per frame; ``long`` (a file
    open for bytes and a label) also melts it into that file, as
    write_table does."""
    write_table(path, trace.columns(), long)
