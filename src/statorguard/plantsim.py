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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.signal import lfilter

from .signalcore import PhasorSeries, TimeSeries, extract_phasor

__all__ = [
    "MachineConfig",
    "FaultSpec",
    "DisturbanceSpec",
    "Subharmonic64SConfig",
    "Scenario64G2Result",
    "HarmonicFrames",
    "grounding_resistor_sizing",
    "e3_of_operating_point",
    "emf_split_fraction",
    "check_operating_point",
    "third_harmonic_solve",
    "subharmonic_transfer",
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


@dataclass
class HarmonicFrames:
    """Third-harmonic measurement frames as columns: terminal and neutral
    magnitudes, the operating point they were taken at, and whether each
    frame may advance a detector.  A frame's index is its position."""

    v_p3: List[float]
    v_n3: List[float]
    load_pu: List[float]
    pf: List[float]
    valid: List[bool]

    def __post_init__(self):
        if any(len(col) != len(self.v_p3)
               for col in (self.v_n3, self.load_pu, self.pf, self.valid)):
            raise ValueError("frame columns must have equal length")

    def __len__(self) -> int:
        return len(self.v_p3)


@dataclass
class Scenario64G2Result:
    """Waveforms, phasor streams, and frames from one 64G2 scenario."""

    frames: HarmonicFrames
    v_p3_wave: TimeSeries
    v_n3_wave: TimeSeries
    phasor_p: PhasorSeries
    phasor_n: PhasorSeries
    fs: float
    onset_index: Optional[int]
    vp3_rated: float


def grounding_resistor_sizing(turns_ratio: float, f1: float, c_total: float) -> float:
    """Secondary grounding resistor matching the capacitive charging
    impedance at the fundamental: rn = 1/(N**2 * 2*pi*f1 * C)."""
    if turns_ratio <= 0 or f1 <= 0 or c_total <= 0:
        raise ValueError("turns_ratio, f1, c_total must all be positive")
    return 1.0 / (turns_ratio**2 * 2.0 * math.pi * f1 * c_total)


def e3_of_operating_point(cfg: MachineConfig, load_pu: float, pf: float) -> float:
    """Third-harmonic EMF magnitude at an operating point (affine model)."""
    check_operating_point(load_pu, pf)
    c0, c1, c2 = cfg.e3_coeffs
    return cfg.e3 * (c0 + c1 * load_pu + c2 * (1.0 - abs(pf)))


def emf_split_fraction(cfg: MachineConfig, load_pu: float, pf: float) -> float:
    """Fraction of the triplen EMF developed in the neutral-side half of
    the winding; clipped away from the degenerate extremes."""
    check_operating_point(load_pu, pf)
    a0, a1, a2 = cfg.alpha_coeffs
    alpha = a0 + a1 * (load_pu - 0.75) + a2 * (1.0 - abs(pf)) * math.copysign(1.0, pf)
    return float(np.clip(alpha, 0.05, 0.95))


def check_operating_point(load_pu, pf) -> None:
    """Reject a load (scalar or per-sample) outside [0, 1.2] pu or a power
    factor with |pf| outside [0.8, 1]."""
    load_arr = np.asarray(load_pu, dtype=float)
    pf_arr = np.asarray(pf, dtype=float)
    if np.any(load_arr < 0) or np.any(load_arr > 1.2):
        raise ValueError(f"load_pu must be in [0, 1.2], got {load_pu}")
    if np.any(np.abs(pf_arr) < 0.8) or np.any(np.abs(pf_arr) > 1.0):
        raise ValueError(f"power factor must satisfy 0.8 <= |pf| <= 1, got {pf}")


def _cumulative_emf_coeffs(segments: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node cumulative EMF fractions as c_i = p_i + q_i*alpha.

    The split profile puts fraction alpha of the EMF uniformly in the
    neutral-side half of the winding and 1-alpha in the terminal-side
    half, so the cumulative fraction at normalized position x is
    2*alpha*x for x <= 1/2 and alpha + 2*(1-alpha)*(x-1/2) above; both
    branches are affine in alpha, which keeps the solve closed-form.
    """
    x = np.arange(segments + 1) / segments
    p = np.where(x <= 0.5, 0.0, 2.0 * x - 1.0)
    q = np.where(x <= 0.5, 2.0 * x, 2.0 - 2.0 * x)
    return p, q


def third_harmonic_solve(
    cfg: MachineConfig,
    fault: Optional[FaultSpec] = None,
    load_pu: float = 1.0,
    pf: float = 1.0,
    freq_scale: float = 1.0,
) -> Tuple[complex, complex]:
    """Steady-state third-harmonic phasors (V_N3, V_P3) at the neutral and
    terminal measurement points.

    The winding is segments series EMF sources (split per
    emf_split_fraction) with shunt capacitance cs/segments at each of the
    interior and terminal nodes, ct extra at the terminal, the neutral
    node grounded through 3*N**2*rn, and the faulted node (nearest tap to
    fault.x) grounded through rf.  With ideal series sources every node
    potential is the neutral potential plus the cumulative EMF, so charge
    balance over the ground paths gives the neutral potential in closed
    form; rf == 0 pins the faulted node exactly instead.
    """
    e3 = e3_of_operating_point(cfg, load_pu, pf) * freq_scale
    alpha = emf_split_fraction(cfg, load_pu, pf)
    m = cfg.segments
    p, q = _cumulative_emf_coeffs(m)
    c_nodes = p + q * alpha

    omega = 2.0 * math.pi * 3.0 * cfg.f1 * freq_scale
    y_nodes = np.zeros(m + 1, dtype=complex)
    y_nodes[1:] = 1j * omega * cfg.cs / m
    y_nodes[m] += 1j * omega * cfg.ct
    y_nodes[0] += 1.0 / cfg.neutral_ground_ohms

    if fault is not None and not math.isinf(fault.rf):
        k = int(round(fault.x * m))
        if fault.rf == 0.0:
            # Bolted fault pins node k to ground; the chain fixes the rest.
            v_n = complex(-e3 * c_nodes[k])
            return v_n, v_n + e3
        y_nodes[k] += 1.0 / fault.rf

    v_n = -e3 * np.sum(y_nodes * c_nodes) / np.sum(y_nodes)
    return complex(v_n), complex(v_n + e3)


def subharmonic_transfer(
    cfg: Subharmonic64SConfig, rs_eff: float, omega: float
) -> Tuple[complex, complex]:
    """Injection-circuit transfer functions (H1, H2) at angular frequency
    omega: H1 = I_N/V_s in siemens, H2 = V_N/V_s dimensionless, for
    machine insulation resistance rs_eff (primary ohms).

    H1 = K1*(1 + tau0*s)/(1 + a*tau0*s), H2 = K2/(1 + a*tau0*s) with
    tau0 = rs_eff*c0 and the gains set by the resistive divider among the
    band-pass resistance, grounding resistor, and referred insulation.
    """
    if rs_eff <= 0:
        raise ValueError("rs_eff must be positive")
    n2 = cfg.turns_ratio**2
    denom = n2 * cfg.rn * cfg.rbpf + rs_eff * (cfg.rn + cfg.rbpf)
    k1 = n2 * cfg.rn / denom
    k2 = cfg.rn * rs_eff / denom
    a = n2 * cfg.rn * cfg.rbpf / denom
    tau0 = rs_eff * cfg.c0
    s = 1j * omega
    h1 = k1 * (1.0 + tau0 * s) / (1.0 + a * tau0 * s)
    h2 = k2 / (1.0 + a * tau0 * s)
    return h1, h2


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
        h = dt / (2.0 * c_ref)
        a0c = 1.0 + h * g_total
        b_coeffs = np.array([h, h]) / a0c
        a_coeffs = np.array([1.0, -(1.0 - h * g_total) / a0c])
        # Seed the filter state so the first output sees the carried-over
        # node voltage and drive sample.
        zi = np.array([b_coeffs[1] * drive_prev - a_coeffs[1] * v_prev])
        seg, _ = lfilter(b_coeffs, a_coeffs, drive, zi=zi)
        v_node[b0:b1] = seg
        v_prev = seg[-1]
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
    freq_band: float = 0.2,
    seed: Optional[int] = 0,
) -> Scenario64G2Result:
    """End-to-end third-harmonic measurement scenario.

    Per sample: evaluate the ladder at the instantaneous operating point
    (load/pf trajectories from load_step/pf_swing disturbances, per-unit
    speed from gen_start/gen_stop ramps scaling both EMF and frequency),
    synthesize the 3*f1 waveforms at both measurement points from the
    complex node phasors, apply PT-scale disturbances to their channels,
    add noise, and extract fixed-bin phasors at 3*f1.

    Frames are marked invalid during phasor warm-up, whenever the
    terminal magnitude sinks below supervision_frac of its rated healthy
    value (minimum-signal supervision), and whenever per-unit speed is
    more than freq_band away from nominal (frequency supervision: the
    fixed-bin phasor extraction is only meaningful near rated speed)."""
    check_operating_point(load_pu, pf)
    if duration <= 0 or fs <= 0:
        raise ValueError("duration and fs must be positive")
    if fs <= 6.0 * cfg.f1:
        raise ValueError(f"fs={fs} cannot carry the third harmonic of f1={cfg.f1}")

    n = int(round(duration * fs))
    dt = 1.0 / fs
    t = np.arange(n) * dt

    load_t = np.full(n, float(load_pu))
    pf_t = np.full(n, float(pf))
    speed_t = np.ones(n)
    scale_n = np.ones(n)
    scale_p = np.ones(n)
    for d in disturbances:
        ramp = _effect_ramp(t, d.t_on, d.t_off)
        if d.kind == "load_step":
            load_t = load_t + (d.magnitude - load_t) * ramp
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

    # Vectorized ladder solve across the whole record.
    c0e, c1e, c2e = cfg.e3_coeffs
    e3_t = cfg.e3 * (c0e + c1e * load_t + c2e * (1.0 - np.abs(pf_t))) * speed_t
    a0a, a1a, a2a = cfg.alpha_coeffs
    alpha_t = np.clip(
        a0a + a1a * (load_t - 0.75) + a2a * (1.0 - np.abs(pf_t)) * np.sign(pf_t),
        0.05,
        0.95,
    )
    m = cfg.segments
    p, q = _cumulative_emf_coeffs(m)
    sum_p, sum_q = float(p[1:].sum()), float(q[1:].sum())
    omega_t = 2.0 * math.pi * 3.0 * cfg.f1 * speed_t

    onset = None if fault is None else fault.onset_index(fs, n)
    active = np.zeros(n, dtype=bool)
    if onset is not None:
        active[onset:] = True

    y_sum = 1j * omega_t * (cfg.cs + cfg.ct) + 1.0 / cfg.neutral_ground_ohms
    yc_sum = 1j * omega_t * (cfg.cs / m * (sum_p + sum_q * alpha_t) + cfg.ct)
    if onset is not None:
        k = int(round(fault.x * m))
        c_k = p[k] + q[k] * alpha_t
        if fault.rf == 0.0:
            v_n_t = np.where(active, -e3_t * c_k, -e3_t * yc_sum / y_sum)
        else:
            g_f = 1.0 / fault.rf
            v_n_t = np.where(
                active,
                -e3_t * (yc_sum + g_f * c_k) / (y_sum + g_f),
                -e3_t * yc_sum / y_sum,
            )
    else:
        v_n_t = -e3_t * yc_sum / y_sum
    v_p_t = v_n_t + e3_t

    # Waveforms from instantaneous magnitude/angle with accumulated phase.
    theta = 2.0 * math.pi * 3.0 * cfg.f1 * np.cumsum(speed_t) * dt
    wave_p = np.abs(v_p_t) * np.cos(theta + np.angle(v_p_t)) * scale_p
    wave_n = np.abs(v_n_t) * np.cos(theta + np.angle(v_n_t)) * scale_n
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        wave_p = wave_p + rng.normal(0.0, noise_std, size=n)
        wave_n = wave_n + rng.normal(0.0, noise_std, size=n)

    result = frames_from_64g2_waveforms(
        TimeSeries(fs=fs, t0=0.0, samples=wave_p),
        TimeSeries(fs=fs, t0=0.0, samples=wave_n),
        cfg, load_pu, pf, window_cycles, supervision_frac,
        load_t=load_t, pf_t=pf_t, in_band=np.abs(speed_t - 1.0) <= freq_band,
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
    load_t: Optional[np.ndarray] = None,
    pf_t: Optional[np.ndarray] = None,
    in_band: Optional[np.ndarray] = None,
) -> Scenario64G2Result:
    """Turn terminal/neutral third-harmonic waveforms into phasor streams
    and detector frames.

    Phasors are extracted at 3*f1 over window_cycles cycles.  A frame is
    invalid during phasor warm-up, whenever the terminal magnitude sinks
    below supervision_frac of its healthy value at the (load_pu, pf)
    operating point (minimum-signal supervision), and wherever the
    optional in_band mask is False.  Frames carry load_t/pf_t as their
    per-sample operating point when given, else load_pu/pf.  The result
    has no onset_index; the simulator fills it in.
    """
    if vp3_wave.fs != vn3_wave.fs or len(vp3_wave) != len(vn3_wave):
        raise ValueError("terminal and neutral waveforms must share fs and length")
    n = len(vp3_wave)
    ph_p = extract_phasor(vp3_wave, 3.0 * cfg.f1, window_cycles)
    ph_n = extract_phasor(vn3_wave, 3.0 * cfg.f1, window_cycles)

    _, vp3_rated_c = third_harmonic_solve(cfg, None, load_pu, pf)
    vp3_rated = abs(vp3_rated_c)
    valid = ph_p.valid & (ph_p.magnitude >= supervision_frac * vp3_rated)
    if in_band is not None:
        valid = valid & in_band
    return Scenario64G2Result(
        # one shared float per column when the operating point is fixed
        frames=HarmonicFrames(
            v_p3=ph_p.magnitude.tolist(),
            v_n3=ph_n.magnitude.tolist(),
            load_pu=[float(load_pu)] * n if load_t is None else load_t.tolist(),
            pf=[float(pf)] * n if pf_t is None else pf_t.tolist(),
            valid=valid.tolist(),
        ),
        v_p3_wave=vp3_wave,
        v_n3_wave=vn3_wave,
        phasor_p=ph_p,
        phasor_n=ph_n,
        fs=vp3_wave.fs,
        onset_index=None,
        vp3_rated=vp3_rated,
    )
