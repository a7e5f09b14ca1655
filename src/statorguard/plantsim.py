"""Lumped-parameter plant models for stator ground-fault studies.

Two circuits are modeled:

* The third-harmonic path of a high-impedance-grounded machine: the
  winding's triplen EMF drives a ladder of distributed shunt capacitances,
  with the neutral tied to ground through the (referred) grounding
  resistor and the terminal through external capacitance.  A ground fault
  anywhere along the winding reshapes how that EMF divides between the
  neutral and terminal measurement points.

* The sub-harmonic injection path: a low-frequency source behind a
  band-pass filter resistance drives the neutral grounding network in
  parallel with the machine's insulation (resistance in parallel with the
  total winding-to-ground capacitance), referred across the neutral
  distribution transformer.

Both are desk-scale stand-ins for a physical rig: component values are
config, solvers are exact for the stated lumped model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .signalcore import TimeSeries, extract_phasor

__all__ = [
    "MachineConfig",
    "FaultSpec",
    "DisturbanceSpec",
    "Subharmonic64SConfig",
    "Scenario64G2Result",
    "HarmonicFrames",
    "DISTURBANCE_KINDS",
    "grounding_resistor_sizing",
    "e3_of_operating_point",
    "emf_split_fraction",
    "check_operating_point",
    "third_harmonic_solve",
    "neutral_60hz_component",
    "simulate_64s_timeseries",
    "simulate_64g2_scenario",
    "frames_from_64g2_waveforms",
    "constant_speed",
    "ramp_speed",
]

DISTURBANCE_KINDS = (
    "neutral_pt_scale",
    "terminal_pt_scale",
    "load_step",
    "pf_swing",
    "gen_start",
    "gen_stop",
)


@dataclass
class MachineConfig:
    """Third-harmonic equivalent of the machine and its grounding.

    e3 is the total third-harmonic EMF (volts, rated operating point),
    distributed along ``segments`` series winding segments.  cs is the
    total winding-to-ground capacitance, ct the extra capacitance lumped
    at the terminal (bus/surge capacitance).  The neutral is grounded
    through rn ohms behind a turns_ratio:1 distribution transformer; in
    the per-phase third-harmonic circuit that path appears as
    3*turns_ratio**2*rn because the triplen EMFs of the three phases are
    co-phasal and share the one neutral.

    e3_coeffs (c0, c1, c2) scale the EMF with operating point:
    e3*(c0 + c1*load_pu + c2*(1 - |pf|)).  alpha_coeffs (a0, a1, a2) set
    the fraction of EMF developed in the neutral-side half of the winding,
    alpha = a0 + a1*(load_pu - 0.75) + a2*(1 - |pf|)*sign(pf); flux
    redistribution with load and excitation shifts the split, which is
    what makes the healthy V_N3/V_P3 ratio wander across operating points.
    """

    e3: float = 10.0
    cs: float = 7.5e-6
    ct: float = 0.75e-6
    turns_ratio: float = 2.0
    rn: float = 350.0
    segments: int = 96
    f1: float = 60.0
    e3_coeffs: Tuple[float, float, float] = (0.4, 0.6, 0.0)
    alpha_coeffs: Tuple[float, float, float] = (0.5, 0.02, 0.40)

    def __post_init__(self):
        if self.e3 <= 0 or self.cs <= 0 or self.ct < 0:
            raise ValueError("e3, cs must be positive and ct >= 0")
        if self.turns_ratio <= 0 or self.rn <= 0 or self.f1 <= 0:
            raise ValueError("turns_ratio, rn, f1 must be positive")
        if not 4 <= self.segments <= 512:
            raise ValueError(f"segments must be in [4, 512], got {self.segments}")
        c0, c1, _ = self.e3_coeffs
        if c0 < 0 or c1 < 0:
            raise ValueError("e3_coeffs c0, c1 must be >= 0")
        if c0 + c1 > 1.5:
            raise ValueError("e3_coeffs c0 + c1 must be <= 1.5")

    @property
    def neutral_ground_ohms(self) -> float:
        """Referred neutral path in the per-phase triplen circuit."""
        return 3.0 * self.turns_ratio**2 * self.rn


@dataclass
class FaultSpec:
    """Single stator ground fault: position x in [0,1] from the neutral,
    resistance rf in ohms (0 = bolted, math.inf = none), onset t_on s."""

    x: float
    rf: float
    t_on: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.x <= 1.0:
            raise ValueError(f"fault position x must be in [0, 1], got {self.x}")
        if self.rf < 0:
            raise ValueError(f"fault resistance must be >= 0, got {self.rf}")
        if self.t_on < 0:
            raise ValueError(f"t_on must be >= 0, got {self.t_on}")

    def onset_index(self, fs: float, n: int) -> Optional[int]:
        """First faulted sample of an n-sample record at fs, clamped to
        [0, n]; None when rf is infinite (no fault)."""
        if math.isinf(self.rf):
            return None
        return min(n, max(0, int(round(self.t_on * fs))))


@dataclass
class DisturbanceSpec:
    """Non-fault system event.

    kind: one of neutral_pt_scale, terminal_pt_scale, load_step, pf_swing,
    gen_start, gen_stop.  magnitude is the target value: a channel scale
    fraction in (0, 1] for the PT kinds, a target load_pu for load_step, a
    target power factor (negative = leading) for pf_swing; unused for
    gen_start/gen_stop.  The effect ramps linearly from t_on to t_off and
    holds; PT scaling with t_off=None applies instantly (switching event),
    while deterioration studies should give it a ramp.
    """

    kind: str
    magnitude: float = 0.0
    t_on: float = 0.0
    t_off: Optional[float] = None

    def __post_init__(self):
        if self.kind not in DISTURBANCE_KINDS:
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.t_on < 0:
            raise ValueError("t_on must be >= 0")
        if self.t_off is not None and self.t_off <= self.t_on:
            raise ValueError("t_off must exceed t_on")
        if self.kind in ("neutral_pt_scale", "terminal_pt_scale"):
            if not 0.0 < self.magnitude <= 1.0:
                raise ValueError("PT scale fraction must be in (0, 1]")
        elif self.kind == "load_step":
            if not 0.0 <= self.magnitude <= 1.2:
                raise ValueError("load_step target must be in [0, 1.2] pu")
        elif self.kind == "pf_swing":
            if not 0.8 <= abs(self.magnitude) <= 1.0:
                raise ValueError("pf target must satisfy 0.8 <= |pf| <= 1")
        elif self.t_off is None:
            raise ValueError(f"{self.kind} needs t_off (ramp duration)")


@dataclass
class Subharmonic64SConfig:
    """Injection-scheme circuit constants (secondary side of the neutral
    distribution transformer unless noted).

    turns_ratio: neutral transformer ratio N (primary:secondary).
    rn: grounding resistor on the secondary, ohms.
    rbpf: band-pass filter series resistance, ohms.
    vs_rms: injection source voltage, volts rms.
    f_inj: injection frequency, Hz.
    rs: machine insulation resistance, primary ohms.
    c0: total winding-to-ground capacitance, farads (primary).
    un: rated line-to-ground fundamental voltage, primary volts.
    residual_60hz_frac: fraction of un appearing at the neutral as
        fundamental-frequency residual unbalance while the machine spins.
    """

    turns_ratio: float = 2.0
    rn: float = 250.0
    rbpf: float = 8.0
    vs_rms: float = 25.0
    f_inj: float = 20.0
    rs: float = 2500.0
    c0: float = 7.5e-6
    un: float = 138.56
    f1: float = 60.0
    residual_60hz_frac: float = 0.002

    def __post_init__(self):
        for name in ("turns_ratio", "rn", "rbpf", "vs_rms", "f_inj", "rs", "c0", "un", "f1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.f_inj >= self.f1:
            raise ValueError("injection frequency must sit below the fundamental")
        if not 0.0 <= self.residual_60hz_frac < 0.1:
            raise ValueError("residual_60hz_frac must be in [0, 0.1)")

    @property
    def r_n_primary(self) -> float:
        """Grounding resistance referred to the machine side."""
        return self.turns_ratio**2 * self.rn


def _frozen_column(values, dtype=float) -> np.ndarray:
    """values as a read-only 1-d array of dtype.  A column that already is
    one, owning its data, is returned itself, so records built from
    another record's columns share them; anything else is copied, so a
    caller's array is never frozen or aliased."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype and values.ndim == 1
            and values.flags.owndata and not values.flags.writeable):
        return values
    if dtype is bool and not isinstance(values, np.ndarray):
        values = list(map(bool, values))
    column = np.array(values, dtype=dtype)
    if column.ndim != 1:
        raise ValueError(f"a frame column must be one-dimensional, got shape {column.shape}")
    column.flags.writeable = False
    return column


def _by_frame(values: Sequence[float], index: np.ndarray, fill: float) -> np.ndarray:
    """A read-only per-frame column from one value per counted frame
    (valid, or used): values[k - 1] where index holds k, fill where 0."""
    table = np.empty(len(values) + 1)
    table[0], table[1:] = fill, values
    column = table[index]
    column.flags.writeable = False
    return column


def _freeze_columns(frames, magnitudes: Tuple[str, ...], signals: Tuple[str, ...] = ()) -> None:
    """Store each column of a frozen frame record as a read-only array
    (float64, valid bool) and check them once, in valid and invalid
    frames alike: equal lengths, every magnitude finite and >= 0, every
    signal finite.  A bad value raises ValueError naming its column."""
    valid = _frozen_column(frames.valid, bool)
    object.__setattr__(frames, "valid", valid)
    for name in magnitudes + signals:
        column = _frozen_column(getattr(frames, name))
        object.__setattr__(frames, name, column)
        if len(column) != len(valid):
            raise ValueError(f"frame columns must have equal length: {name} has "
                             f"{len(column)}, valid {len(valid)}")
        rule = "finite and >= 0" if name in magnitudes else "finite"
        # min() only once every value is finite
        if not np.isfinite(column).all() or (
                name in magnitudes and len(column) and column.min() < 0.0):
            raise ValueError(f"{name} must be {rule}")


@dataclass(frozen=True)
class HarmonicFrames:
    """Third-harmonic measurement frames as read-only numpy columns:
    terminal and neutral magnitudes (float64, finite and >= 0) and
    whether each frame may advance a detector (bool).  Any sequence is
    accepted and copied once; assigning a cell or a column raises.  A
    frame's index is its position."""

    v_p3: np.ndarray
    v_n3: np.ndarray
    valid: np.ndarray

    def __post_init__(self):
        _freeze_columns(self, ("v_p3", "v_n3"))

    def __len__(self) -> int:
        return len(self.v_p3)


@dataclass
class Scenario64G2Result:
    """Waveforms and frames from one 64G2 scenario."""

    frames: HarmonicFrames
    v_p3_wave: TimeSeries
    v_n3_wave: TimeSeries
    fs: float
    onset_index: Optional[int]


def grounding_resistor_sizing(turns_ratio: float, f1: float, c_total: float) -> float:
    """Secondary grounding resistor matching the capacitive charging
    impedance at the fundamental: rn = 1/(N**2 * 2*pi*f1 * C)."""
    if turns_ratio <= 0 or f1 <= 0 or c_total <= 0:
        raise ValueError("turns_ratio, f1, c_total must all be positive")
    return 1.0 / (turns_ratio**2 * 2.0 * math.pi * f1 * c_total)


def e3_of_operating_point(cfg: MachineConfig, load_pu, pf):
    """Third-harmonic EMF magnitude at an operating point (affine model);
    load_pu and pf are scalars or equal-length per-sample arrays."""
    check_operating_point(load_pu, pf)
    return _e3(cfg, load_pu, pf)


def _e3(cfg: MachineConfig, load_pu, pf):
    c0, c1, c2 = cfg.e3_coeffs
    return cfg.e3 * (c0 + c1 * np.asarray(load_pu, dtype=float) + c2 * (1.0 - np.abs(pf)))


def emf_split_fraction(cfg: MachineConfig, load_pu, pf):
    """Fraction of the triplen EMF developed in the neutral-side half of
    the winding, clipped away from the degenerate extremes; scalars or
    equal-length per-sample arrays."""
    check_operating_point(load_pu, pf)
    return _split(cfg, load_pu, pf)


def _split(cfg: MachineConfig, load_pu, pf):
    a0, a1, a2 = cfg.alpha_coeffs
    alpha = (a0 + a1 * (np.asarray(load_pu, dtype=float) - 0.75)
             + a2 * (1.0 - np.abs(pf)) * np.sign(pf))
    return np.clip(alpha, 0.05, 0.95)


def check_operating_point(load_pu, pf) -> None:
    """Reject a load (scalar or per-sample) outside [0, 1.2] pu or a power
    factor with |pf| outside [0.8, 1]; NaN lies outside both, and an empty
    array passes."""
    load_arr = np.asarray(load_pu, dtype=float)
    pf_abs = np.abs(np.asarray(pf, dtype=float))
    # min() and max() are NaN when any value is, and NaN fails both bounds
    if load_arr.size and not (0.0 <= load_arr.min() and load_arr.max() <= 1.2):
        raise ValueError(f"load_pu must be in [0, 1.2], got {load_pu}")
    if pf_abs.size and not (0.8 <= pf_abs.min() and pf_abs.max() <= 1.0):
        raise ValueError(f"power factor must satisfy 0.8 <= |pf| <= 1, got {pf}")


@lru_cache(maxsize=None)  # one entry per segment count, at most 509
def _cumulative_emf_coeffs(segments: int) -> Tuple[np.ndarray, np.ndarray, float, float]:
    """Per-node cumulative EMF fractions as c_i = p_i + q_i*alpha, as
    read-only arrays, and the sums of p and q over the nodes past the
    neutral.

    The split profile puts fraction alpha of the EMF uniformly in the
    neutral-side half of the winding and 1-alpha in the terminal-side
    half, so the cumulative fraction at normalized position x is
    2*alpha*x for x <= 1/2 and alpha + 2*(1-alpha)*(x-1/2) above; both
    branches are affine in alpha, which keeps the solve closed-form.
    """
    x = np.arange(segments + 1) / segments
    p = np.where(x <= 0.5, 0.0, 2.0 * x - 1.0)
    q = np.where(x <= 0.5, 2.0 * x, 2.0 - 2.0 * x)
    p.flags.writeable = q.flags.writeable = False
    return p, q, float(p[1:].sum()), float(q[1:].sum())


def third_harmonic_solve(cfg: MachineConfig, fault: Optional[FaultSpec] = None,
                         load_pu=1.0, pf=1.0, freq_scale=1.0):
    """Steady-state third-harmonic phasors (V_N3, V_P3) at the neutral and
    terminal measurement points; load_pu, pf and freq_scale (per-unit
    speed, scaling both EMF and frequency) are scalars or equal-length
    per-sample arrays.

    The winding is segments series EMF sources (split per
    emf_split_fraction) with shunt capacitance cs/segments at each of the
    interior and terminal nodes, ct extra at the terminal, the neutral
    node grounded through 3*N**2*rn, and the faulted node (nearest tap to
    fault.x) grounded through rf.  With ideal series sources every node
    potential is the neutral potential plus the cumulative EMF, so charge
    balance over the ground paths gives the neutral potential in closed
    form; rf == 0 pins the faulted node exactly instead.
    """
    check_operating_point(load_pu, pf)
    return _ladder(cfg, fault, load_pu, pf, freq_scale)


def _ladder(cfg: MachineConfig, fault: Optional[FaultSpec], load_pu, pf, freq_scale):
    """third_harmonic_solve at an operating point already checked."""
    freq_scale = np.asarray(freq_scale, dtype=float)
    e3 = _e3(cfg, load_pu, pf) * freq_scale
    alpha = _split(cfg, load_pu, pf)
    m = cfg.segments
    p, q, p_sum, q_sum = _cumulative_emf_coeffs(m)
    omega = 2.0 * math.pi * 3.0 * cfg.f1 * freq_scale
    y_sum = 1j * omega * (cfg.cs + cfg.ct) + 1.0 / cfg.neutral_ground_ohms
    yc_sum = 1j * omega * (cfg.cs / m * (p_sum + q_sum * alpha) + cfg.ct)
    if fault is None or math.isinf(fault.rf):
        v_n = -e3 * yc_sum / y_sum
    else:
        k = int(round(fault.x * m))
        c_k = p[k] + q[k] * alpha
        if fault.rf == 0.0:
            # Bolted fault pins node k to ground; the chain fixes the rest.
            v_n = np.complex128(-e3 * c_k)
        else:
            g_f = 1.0 / fault.rf
            v_n = -e3 * (yc_sum + g_f * c_k) / (y_sum + g_f)
    return v_n, v_n + e3


def neutral_60hz_component(cfg: Subharmonic64SConfig, x: float, rf: float) -> float:
    """Fundamental-frequency neutral voltage magnitude (primary volts)
    driven through a fault at position x with resistance rf.

    The faulted winding fraction impresses x*un across the series path of
    rf and the grounding resistance shunted by the winding capacitance."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if rf < 0:
        raise ValueError(f"rf must be >= 0, got {rf}")
    if math.isinf(rf):
        return 0.0
    r_n = cfg.r_n_primary
    omega = 2.0 * math.pi * cfg.f1
    return x * cfg.un * r_n / math.hypot(r_n + rf, omega * cfg.c0 * rf * r_n)


def constant_speed(value: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Speed profile: constant per-unit speed."""

    def profile(t: np.ndarray) -> np.ndarray:
        return np.full_like(np.asarray(t, dtype=float), float(value))

    return profile


def ramp_speed(
    t_start: float, t_end: float, v_start: float, v_end: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Speed profile: linear ramp between two per-unit speeds, held flat
    outside the ramp interval."""
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")

    def profile(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        frac = np.clip((t - t_start) / (t_end - t_start), 0.0, 1.0)
        return v_start + (v_end - v_start) * frac

    return profile


def simulate_64s_timeseries(
    cfg: Subharmonic64SConfig,
    events: Sequence[FaultSpec] = (),
    duration: float = 2.0,
    fs: float = 1000.0,
    noise_std: float = 0.0,
    speed_profile: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    seed: Optional[int] = None,
) -> Tuple[TimeSeries, TimeSeries]:
    """Injection-circuit response: neutral voltage and injected current.

    The single state is the neutral node voltage (capacitor voltage of the
    referred insulation), integrated trapezoidally so that the discrete
    V_N/I_N relation is exactly the bilinear map of the continuous
    circuit.  Each active fault parallels its rf with the insulation
    resistance from its onset sample onward.

    Machine-side additions: when a fault is active and the machine spins,
    a fundamental-frequency component sized by neutral_60hz_component
    (scaled by per-unit speed, referred to the secondary) rides on V_N, as
    does a small residual-unbalance fundamental term whenever speed > 0.
    speed_profile None means machine at rest (injection-only, offline).

    noise_std is relative: each channel gets white Gaussian noise with
    standard deviation noise_std times that channel's clean RMS.
    """
    if duration <= 0 or fs <= 0:
        raise ValueError("duration and fs must be positive")
    if fs < 20.0 * cfg.f_inj:
        raise ValueError(f"fs={fs} too low for {cfg.f_inj} Hz injection (need >= {20 * cfg.f_inj})")
    if noise_std < 0:
        raise ValueError("noise_std must be >= 0")

    n = int(round(duration * fs))
    dt = 1.0 / fs
    t = np.arange(n) * dt
    vs = cfg.vs_rms * math.sqrt(2.0) * np.sin(2.0 * math.pi * cfg.f_inj * t)

    n2 = cfg.turns_ratio**2
    c_ref = n2 * cfg.c0            # referred capacitance, secondary side
    g_fixed = 1.0 / cfg.rbpf + 1.0 / cfg.rn

    # Piecewise-constant machine conductance: insulation plus active faults.
    onsets = [ev.onset_index(fs, n) for ev in events]
    bounds = sorted({0} | {k for k in onsets if k is not None}) + [n]
    v_node = np.empty(n)
    v_prev = 0.0
    drive_prev = 0.0
    for b0, b1 in zip(bounds[:-1], bounds[1:]):
        if b1 <= b0:
            continue
        g_machine = 1.0 / cfg.rs
        for ev, k_on in zip(events, onsets):
            if k_on is not None and k_on <= b0:
                g_machine = math.inf if ev.rf == 0.0 else g_machine + 1.0 / ev.rf
        drive = vs[b0:b1] / cfg.rbpf
        if math.isinf(g_machine):
            # Bolted fault clamps the node.
            v_node[b0:b1] = 0.0
            v_prev = 0.0
            drive_prev = drive[-1]
            continue
        # Primary-side conductance seen from the secondary scales by N**2.
        g_total = g_fixed + g_machine * n2
        # Trapezoid on c_ref*dv/dt = vs/rbpf - g_total*v:
        #   v[k]*(1 + h*g) = v[k-1]*(1 - h*g) + h*(d[k] + d[k-1]),  h = dt/(2*c_ref)
        # as a first-order transposed direct form whose two taps are both b,
        # in scipy.signal.lfilter's operation order: the tests hold the node
        # voltage to lfilter's bit for bit.
        h = dt / (2.0 * c_ref)
        a0c = 1.0 + h * g_total
        b = h / a0c
        a1 = -(1.0 - h * g_total) / a0c
        # Seed the state so the first output sees the carried-over node
        # voltage and drive sample (a float: numpy scalars slow the loop).
        z = float(b * drive_prev - a1 * v_prev)
        seg = []
        append = seg.append
        for x in (b * drive).tolist():
            y = z + x
            append(y)
            z = x - y * a1
        v_node[b0:b1] = seg
        v_prev = y
        drive_prev = drive[-1]

    # Injected current from the node balance (exact per sample).
    i_n = (vs - v_node) / cfg.rbpf - v_node / cfg.rn

    # Machine-coupled fundamental terms on the neutral voltage channel.
    v_out = v_node.copy()
    if speed_profile is not None:
        speed = np.clip(np.asarray(speed_profile(t), dtype=float), 0.0, None)
        phase_fund = 2.0 * math.pi * cfg.f1 * np.cumsum(speed) * dt
        if cfg.residual_60hz_frac > 0:
            resid = cfg.residual_60hz_frac * cfg.un * speed / cfg.turns_ratio
            v_out = v_out + resid * np.sin(phase_fund + 2.0)
        for ev, k_on in zip(events, onsets):
            if k_on is None or k_on >= n:
                continue
            amp = neutral_60hz_component(cfg, ev.x, ev.rf) / cfg.turns_ratio
            term = amp * speed * np.sin(phase_fund)
            term[:k_on] = 0.0
            v_out = v_out + term

    if noise_std > 0:
        rng = np.random.default_rng(seed)
        for arr in (v_out, i_n):
            rms = float(np.sqrt(np.mean(arr**2)))
            arr += rng.normal(0.0, noise_std * max(rms, 1e-30), size=n)

    return (
        TimeSeries(fs=fs, t0=0.0, samples=v_out),
        TimeSeries(fs=fs, t0=0.0, samples=i_n),
    )


def _effect_ramp(t: np.ndarray, t_on: float, t_off: Optional[float]) -> np.ndarray:
    """0 before t_on, 1 after t_off (or instantly when t_off is None),
    linear between."""
    if t_off is None:
        return (t >= t_on).astype(float)
    return np.clip((t - t_on) / (t_off - t_on), 0.0, 1.0) * (t >= t_on)


def _disturbance_trajectories(t: np.ndarray, load_pu: float, pf: float,
                              disturbances: Sequence[DisturbanceSpec]):
    """Per-sample load, power factor, per-unit speed, and neutral and
    terminal channel scales under the disturbances, in that order."""
    load_t = np.full_like(t, load_pu)
    pf_t = np.full_like(t, pf)
    speed_t, scale_n, scale_p = np.ones_like(t), np.ones_like(t), np.ones_like(t)
    for d in disturbances:
        ramp = _effect_ramp(t, d.t_on, d.t_off)
        if d.kind == "load_step":
            # the ramp can end an ulp above a 1.2 pu target (from 0.12 pu,
            # say); keep it inside the operating range the ladder accepts
            load_t = np.minimum(load_t + (d.magnitude - load_t) * ramp, 1.2)
        elif d.kind == "pf_swing":
            # A lag->lead transition passes through unity pf (reactive
            # power through zero), so interpolate the power angle rather
            # than the signed pf value.
            phi_from = np.sign(pf_t) * np.arccos(np.clip(np.abs(pf_t), 0.0, 1.0))
            phi_to = math.copysign(math.acos(min(abs(d.magnitude), 1.0)),
                                   d.magnitude)
            phi = phi_from + (phi_to - phi_from) * ramp
            pf_t = np.where(phi == 0.0, 1.0, np.sign(phi) * np.cos(phi))
        elif d.kind == "neutral_pt_scale":
            scale_n = scale_n * (1.0 + (d.magnitude - 1.0) * ramp)
        elif d.kind == "terminal_pt_scale":
            scale_p = scale_p * (1.0 + (d.magnitude - 1.0) * ramp)
        elif d.kind == "gen_start":
            speed_t = np.minimum(speed_t, ramp)
        elif d.kind == "gen_stop":
            speed_t = np.minimum(speed_t, 1.0 - ramp)
    return load_t, pf_t, speed_t, scale_n, scale_p


def _run_starts(columns: Sequence[np.ndarray], cut: Optional[int]) -> np.ndarray:
    """First sample of each run of samples equal bit for bit in every one
    of the equal-length columns, with a run also starting at sample cut
    when it lies inside the record."""
    n = len(columns[0])
    change = np.zeros(n, dtype=bool)
    change[:1] = True  # no run in an empty record
    for column in columns:
        # compare the bits, so that -0.0 and 0.0 (or two NaNs) never share a run
        bits = column.view(np.int64)
        change[1:] |= bits[1:] != bits[:-1]
    if cut is not None and 0 < cut < n:
        change[cut] = True
    return np.flatnonzero(change)


def simulate_64g2_scenario(
    cfg: MachineConfig,
    fault: Optional[FaultSpec] = None,
    disturbances: Sequence[DisturbanceSpec] = (),
    load_pu: float = 1.0,
    pf: float = 1.0,
    duration: float = 1.0,
    fs: float = 1000.0,
    noise_std: float = 0.05,
    window_cycles: int = 3,
    supervision_frac: float = 0.1,
    seed: Optional[int] = 0,
) -> Scenario64G2Result:
    """End-to-end third-harmonic measurement scenario.

    The record splits into runs of samples at one operating point (load/pf
    trajectories from load_step/pf_swing disturbances, per-unit speed from
    gen_start/gen_stop ramps scaling both EMF and frequency), with one more
    cut at the fault onset.  The ladder is solved once per run, healthy
    before the onset and faulted from it, and each sample takes its run's
    solve, bit for bit the scalar solve at that sample's operating point;
    a ramp is a run per sample.  From the node phasors it synthesizes the
    3*f1 waveforms at both measurement points, applies PT-scale
    disturbances to their channels, adds noise, and extracts fixed-bin
    phasors at 3*f1.

    Frames are marked invalid during phasor warm-up, whenever the
    terminal magnitude sinks below supervision_frac of its rated healthy
    value (minimum-signal supervision), and whenever per-unit speed is
    more than 0.2 away from nominal (frequency supervision: the fixed-bin
    phasor extraction is only meaningful near rated speed)."""
    check_operating_point(load_pu, pf)
    if duration <= 0 or fs <= 0:
        raise ValueError("duration and fs must be positive")
    if fs <= 6.0 * cfg.f1:
        raise ValueError(f"fs={fs} cannot carry the third harmonic of f1={cfg.f1}")

    n = int(round(duration * fs))
    dt = 1.0 / fs
    t = np.arange(n) * dt
    load_t, pf_t, speed_t, scale_n, scale_p = _disturbance_trajectories(
        t, load_pu, pf, disturbances)

    onset = None if fault is None else fault.onset_index(fs, n)
    starts = _run_starts((load_t, pf_t, speed_t), onset)
    load_r, pf_r, speed_r = load_t[starts], pf_t[starts], speed_t[starts]
    check_operating_point(load_r, pf_r)
    v_n_r, v_p_r = _ladder(cfg, None, load_r, pf_r, speed_r)
    if onset is not None:
        v_n_f, v_p_f = _ladder(cfg, fault, load_r, pf_r, speed_r)
        faulted = starts >= onset
        v_n_r = np.where(faulted, v_n_f, v_n_r)
        v_p_r = np.where(faulted, v_p_f, v_p_r)
    lengths = np.diff(starts, append=n)
    # Waveforms from instantaneous magnitude/angle with accumulated phase.
    theta = 2.0 * math.pi * 3.0 * cfg.f1 * np.cumsum(speed_t) * dt

    def wave(v_r: np.ndarray, scale: np.ndarray) -> np.ndarray:
        return (np.repeat(np.abs(v_r), lengths)
                * np.cos(theta + np.repeat(np.angle(v_r), lengths)) * scale)

    wave_p = wave(v_p_r, scale_p)
    wave_n = wave(v_n_r, scale_n)
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        wave_p = wave_p + rng.normal(0.0, noise_std, size=n)
        wave_n = wave_n + rng.normal(0.0, noise_std, size=n)

    result = _frames_64g2(
        TimeSeries(fs=fs, t0=0.0, samples=wave_p),
        TimeSeries(fs=fs, t0=0.0, samples=wave_n),
        cfg, load_pu, pf, window_cycles, supervision_frac,
        in_band=np.abs(speed_t - 1.0) <= 0.2,
    )
    return replace(result, onset_index=onset)


def frames_from_64g2_waveforms(
    vp3_wave: TimeSeries,
    vn3_wave: TimeSeries,
    cfg: MachineConfig,
    load_pu: float = 1.0,
    pf: float = 1.0,
    window_cycles: int = 3,
    supervision_frac: float = 0.1,
    in_band: Optional[np.ndarray] = None,
) -> Scenario64G2Result:
    """Turn terminal/neutral third-harmonic waveforms into phasor streams
    and detector frames.

    Phasors are extracted at 3*f1 over window_cycles cycles.  A frame is
    invalid during phasor warm-up, whenever the terminal magnitude sinks
    below supervision_frac of its healthy value at the (load_pu, pf)
    operating point (minimum-signal supervision), and wherever the
    optional in_band mask is False; supervision_frac must lie in [0, 1).
    The result has no onset_index; the simulator fills it in.
    """
    check_operating_point(load_pu, pf)
    return _frames_64g2(vp3_wave, vn3_wave, cfg, load_pu, pf, window_cycles,
                        supervision_frac, in_band)


def _frames_64g2(vp3_wave: TimeSeries, vn3_wave: TimeSeries, cfg: MachineConfig,
                 load_pu, pf, window_cycles: int, supervision_frac: float,
                 in_band: Optional[np.ndarray]) -> Scenario64G2Result:
    """frames_from_64g2_waveforms at an operating point already checked."""
    if vp3_wave.fs != vn3_wave.fs or len(vp3_wave) != len(vn3_wave):
        raise ValueError("terminal and neutral waveforms must share fs and length")
    if not 0.0 <= supervision_frac < 1.0:
        raise ValueError(f"supervision_frac must be in [0, 1), got {supervision_frac}")
    ph_p = extract_phasor(vp3_wave, 3.0 * cfg.f1, window_cycles)
    ph_n = extract_phasor(vn3_wave, 3.0 * cfg.f1, window_cycles)

    vp3_rated = float(abs(_ladder(cfg, None, load_pu, pf, 1.0)[1]))
    valid = ph_p.valid & (ph_p.magnitude >= supervision_frac * vp3_rated)
    if in_band is not None:
        valid = valid & in_band
    return Scenario64G2Result(
        frames=HarmonicFrames(
            v_p3=ph_p.magnitude,
            v_n3=ph_n.magnitude,
            valid=valid,
        ),
        v_p3_wave=vp3_wave,
        v_n3_wave=vn3_wave,
        fs=vp3_wave.fs,
        onset_index=None,
    )
