"""Waveform synthesis, sliding-window phasor extraction, and CSV ingestion.

Shared signal layer for the protection schemes.  Both the third-harmonic
ratio scheme and the sub-harmonic injection scheme consume uniformly
sampled waveforms and per-sample narrowband phasor streams; this module
owns those two representations and the conversions between them.

Phase convention: a tone ``A*cos(2*pi*f*t + phi)`` extracts to magnitude
``A`` and phase ``phi``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "TimeSeries",
    "PhasorSeries",
    "synth_waveform",
    "extract_phasor",
    "reconstruct_narrowband",
    "ingest_csv",
    "write_csv",
]

# Max relative jitter of the time column accepted as "uniformly sampled".
_UNIFORMITY_TOL = 1e-6


@dataclass
class TimeSeries:
    """Uniformly sampled real waveform.

    fs is in Hz, t0 is the absolute time of samples[0] in seconds.
    """

    fs: float
    t0: float
    samples: np.ndarray

    def __post_init__(self):
        if not self.fs > 0:
            raise ValueError(f"fs must be positive, got {self.fs}")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or len(self.samples) < 1:
            raise ValueError("samples must be a non-empty 1-D array")

    def __len__(self) -> int:
        return len(self.samples)

    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) / self.fs


@dataclass
class PhasorSeries:
    """Per-sample narrowband phasor stream at a single frequency.

    One frame per input sample.  Frames before the first full analysis
    window are emitted with valid=False rather than omitted, so the frame
    index stays aligned with the source sample index.
    """

    f0: float
    window_cycles: int
    window_samples: int
    fs: float
    t0: float
    magnitude: np.ndarray
    phase: np.ndarray
    valid: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.magnitude)

    def complex_values(self) -> np.ndarray:
        """Frames as complex phasors magnitude*exp(j*phase)."""
        return self.magnitude * np.exp(1j * self.phase)


def synth_waveform(
    tones: Sequence[Tuple[float, float, float]],
    fs: float,
    duration: float,
    noise_std: float = 0.0,
    seed: Optional[int] = None,
    t0: float = 0.0,
) -> TimeSeries:
    """Sum of cosine tones plus white Gaussian noise.

    Args:
        tones: iterable of (freq_hz, amplitude, phase_rad); each tone is
            amplitude*cos(2*pi*freq*t + phase) evaluated at absolute time.
        fs: sample rate, must exceed twice the highest tone frequency.
        duration: length in seconds; the sample count is round(duration*fs).
        noise_std: standard deviation of additive white Gaussian noise.
        seed: RNG seed for the noise; ignored when noise_std == 0.
    """
    if not fs > 0:
        raise ValueError(f"fs must be positive, got {fs}")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    tones = list(tones)
    for f, _, _ in tones:
        if f < 0:
            raise ValueError(f"tone frequency must be >= 0, got {f}")
        if fs <= 2.0 * f:
            raise ValueError(
                f"fs={fs} cannot represent a {f} Hz tone (needs fs > {2 * f})"
            )
    n = int(round(duration * fs))
    if n < 1:
        raise ValueError("duration too short for one sample")
    t = t0 + np.arange(n) / fs
    x = np.zeros(n)
    for f, amp, ph in tones:
        x += amp * np.cos(2.0 * np.pi * f * t + ph)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        x = x + rng.normal(0.0, noise_std, size=n)
    return TimeSeries(fs=fs, t0=t0, samples=x)


def _snap_window(target: float, f0: float, fs: float) -> int:
    """Smallest window >= ~target samples whose bin is self-orthogonal.

    A window of N samples rejects the negative-frequency image of an f0
    tone exactly iff 2*f0*N/fs is an integer.  Searching a few cycles
    above the requested length finds such an N whenever fs/f0 is rational
    with a modest denominator; otherwise fall back to plain rounding.
    """
    lo = max(2, int(math.floor(target)))
    hi = lo + int(math.ceil(3 * fs / f0)) + 2
    for n in range(lo, hi + 1):
        k = 2.0 * f0 * n / fs
        if abs(k - round(k)) < 1e-9:
            return n
    return max(2, int(round(target)))


def extract_phasor(
    ts: TimeSeries,
    f0: float,
    window_cycles: int = 3,
    snap_orthogonal: bool = True,
    recompute_every: int = 10,
) -> PhasorSeries:
    """Sliding single-bin DFT of ts at frequency f0.

    The window sum is maintained recursively (add the newest demodulated
    sample, drop the oldest) and re-anchored with an exact recomputation
    every ``recompute_every`` windows to bound float drift.

    With snap_orthogonal the window length is nudged up from
    window_cycles*fs/f0 to the nearest sample count making the bin exactly
    self-orthogonal; for a pure f0 cosine the magnitude and phase are then
    exact after one full window.  Tones at frequencies f with
    (f - f0)*N/fs and (f + f0)*N/fs both integral contribute exactly zero.
    """
    if f0 <= 0:
        raise ValueError(f"f0 must be positive, got {f0}")
    if f0 >= ts.fs / 2.0:
        raise ValueError(f"f0={f0} is at or above Nyquist for fs={ts.fs}")
    if window_cycles < 1:
        raise ValueError(f"window_cycles must be >= 1, got {window_cycles}")
    target = window_cycles * ts.fs / f0
    n_win = _snap_window(target, f0, ts.fs) if snap_orthogonal else max(2, int(round(target)))
    n = len(ts)
    if n_win > n:
        raise ValueError(f"window of {n_win} samples exceeds series length {n}")

    t = ts.times()
    y = ts.samples * np.exp(-2j * np.pi * f0 * t)

    sums = np.zeros(n, dtype=complex)
    n_out = n - n_win + 1
    block = max(1, recompute_every) * n_win
    out = np.empty(n_out, dtype=complex)
    for s in range(0, n_out, block):
        e = min(s + block, n_out)
        anchor = y[s : s + n_win].sum()
        out[s] = anchor
        if e > s + 1:
            add = np.cumsum(y[s + n_win : e - 1 + n_win])
            drop = np.cumsum(y[s : e - 1])
            out[s + 1 : e] = anchor + add - drop
    sums[n_win - 1 :] = out

    phasor = (2.0 / n_win) * sums
    magnitude = np.abs(phasor)
    phase = np.angle(phasor)
    valid = np.zeros(n, dtype=bool)
    valid[n_win - 1 :] = True
    magnitude[~valid] = 0.0
    phase[~valid] = 0.0
    return PhasorSeries(
        f0=f0,
        window_cycles=window_cycles,
        window_samples=n_win,
        fs=ts.fs,
        t0=ts.t0,
        magnitude=magnitude,
        phase=phase,
        valid=valid,
    )


def reconstruct_narrowband(ph: PhasorSeries) -> TimeSeries:
    """Time-domain reconstruction of a phasor stream at its own frequency.

    Sample i becomes magnitude[i]*cos(2*pi*f0*t_i + phase[i]); invalid
    warm-up frames reconstruct to zero.  Used to pre-filter raw waveforms
    to a single band before parameter identification.
    """
    t = ph.t0 + np.arange(len(ph)) / ph.fs
    x = ph.magnitude * np.cos(2.0 * np.pi * ph.f0 * t + ph.phase)
    x = np.where(ph.valid, x, 0.0)
    return TimeSeries(fs=ph.fs, t0=ph.t0, samples=x)


def ingest_csv(path) -> Dict[str, TimeSeries]:
    """Read a waveform CSV with header ``t,<chan>[,<chan>...]``.

    The time column must be uniform within 1 ppm of its median step.
    Missing cells and non-finite values (NaN, inf) are rejected.  Returns one TimeSeries per
    channel column, all sharing fs and t0.
    """
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if len(header) < 2 or header[0] != "t":
            raise ValueError(f"{path}: header must be 't,<chan>,...', got {header}")
        names = header[1:]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
            try:
                vals = [float(c) for c in row]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell ({exc})")
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{path}:{lineno}: non-finite cell (NaN or inf)")
            rows.append(vals)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    data = np.asarray(rows)
    t = data[:, 0]
    dt = np.diff(t)
    dt_med = float(np.median(dt))
    if dt_med <= 0:
        raise ValueError(f"{path}: time column not increasing")
    if np.max(np.abs(dt - dt_med)) > _UNIFORMITY_TOL * dt_med:
        raise ValueError(f"{path}: time column non-uniform beyond 1 ppm")
    fs = 1.0 / dt_med
    return {
        name: TimeSeries(fs=fs, t0=float(t[0]), samples=data[:, i + 1].copy())
        for i, name in enumerate(names)
    }


def write_csv(path, channels: Mapping[str, TimeSeries]) -> None:
    """Write channels sharing one time base as ``t,<chan>,...`` CSV."""
    if not channels:
        raise ValueError("no channels to write")
    series = list(channels.values())
    ref = series[0]
    for s in series[1:]:
        if abs(s.fs - ref.fs) > 1e-9 * ref.fs or abs(s.t0 - ref.t0) > 1e-12 or len(s) != len(ref):
            raise ValueError("all channels must share fs, t0 and length")
    t = ref.times()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + list(channels.keys()))
        cols = [s.samples for s in series]
        for i in range(len(ref)):
            writer.writerow([repr(float(t[i]))] + [repr(float(c[i])) for c in cols])
