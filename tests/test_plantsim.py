"""Plant models: winding ladder, injection circuit, scenario synthesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statorguard.plantsim import (
    DisturbanceSpec,
    FaultSpec,
    HarmonicFrame,
    MachineConfig,
    Subharmonic64SConfig,
    constant_speed,
    e3_of_operating_point,
    emf_split_fraction,
    frames_from_64g2_waveforms,
    grounding_resistor_sizing,
    neutral_60hz_component,
    ramp_speed,
    simulate_64g2_scenario,
    simulate_64s_timeseries,
    subharmonic_transfer,
    third_harmonic_solve,
)
from statorguard.signalcore import extract_phasor

import oracles


# ---------------------------------------------------------------- configs

def test_machine_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(segments=2)
    with pytest.raises(ValueError):
        MachineConfig(segments=1000)
    with pytest.raises(ValueError):
        MachineConfig(ct=-1e-9)
    with pytest.raises(ValueError):
        MachineConfig(e3_coeffs=(1.0, 1.0, 0.0))  # c0 + c1 > 1.5
    with pytest.raises(ValueError):
        MachineConfig(rn=0.0)


def test_neutral_ground_referral():
    cfg = MachineConfig(turns_ratio=2.0, rn=350.0)
    assert cfg.neutral_ground_ohms == pytest.approx(3.0 * 4.0 * 350.0)


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(x=-0.1, rf=50.0)
    with pytest.raises(ValueError):
        FaultSpec(x=1.1, rf=50.0)
    with pytest.raises(ValueError):
        FaultSpec(x=0.5, rf=-1.0)


def test_disturbance_spec_validation():
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="unknown", magnitude=0.5, t_on=0.1)
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="neutral_pt_scale", magnitude=0.0, t_on=0.1)
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="pf_swing", magnitude=0.5, t_on=0.1, t_off=0.2)
    with pytest.raises(ValueError):
        DisturbanceSpec(kind="gen_start", t_on=0.5, t_off=None)


def test_grounding_resistor_sizing_matches_hand_formula():
    # 1 / (N^2 * 2*pi*f * C) for N=2, f=60, C=7.5 uF
    want = 1.0 / (4.0 * 2.0 * math.pi * 60.0 * 7.5e-6)
    assert grounding_resistor_sizing(2.0, 60.0, 7.5e-6) == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------ ladder solve

@given(
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_ladder_matches_mna_oracle(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 513))
    cfg = MachineConfig(
        e3=float(rng.uniform(1.0, 50.0)),
        cs=float(rng.uniform(1e-7, 2e-5)),
        ct=float(rng.uniform(0.0, 2e-6)),
        turns_ratio=float(rng.uniform(1.0, 30.0)),
        rn=float(rng.uniform(5.0, 2000.0)),
        segments=m,
    )
    load = float(rng.uniform(0.0, 1.2))
    pf = float(rng.choice([1.0, 0.92, 0.85, -0.85, -0.95]))
    if rng.random() < 0.7:
        k = int(rng.integers(0, m + 1))
        rf = 0.0 if rng.random() < 0.15 else float(rng.uniform(1.0, 1e4))
        fault = FaultSpec(x=k / m, rf=rf)
        fault_node = k
    else:
        fault, fault_node, rf = None, None, None
    vn, vp = third_harmonic_solve(cfg, fault, load, pf)
    on, op = oracles.dense_ladder_solve(
        e3_of_operating_point(cfg, load, pf), cfg.cs, cfg.ct,
        cfg.neutral_ground_ohms, m, emf_split_fraction(cfg, load, pf),
        fault_node=fault_node, rf=rf, omega=2.0 * math.pi * 3.0 * cfg.f1,
    )
    scale = max(abs(on), abs(op))
    assert abs(vn - on) <= 1e-9 * scale
    assert abs(vp - op) <= 1e-9 * scale


def test_bolted_fault_pins_neutral_voltage():
    cfg = MachineConfig()
    e3 = e3_of_operating_point(cfg, 1.0, 1.0)
    vn0, _ = third_harmonic_solve(cfg, FaultSpec(x=0.0, rf=0.0), 1.0, 1.0)
    assert abs(vn0) < 1e-12
    vn1, vp1 = third_harmonic_solve(cfg, FaultSpec(x=1.0, rf=0.0), 1.0, 1.0)
    assert vn1 == pytest.approx(-e3, rel=1e-12)
    assert abs(vp1) < 1e-9


def test_infinite_fault_resistance_is_healthy():
    cfg = MachineConfig()
    vn_h, vp_h = third_harmonic_solve(cfg, None, 0.8, 1.0)
    vn_f, vp_f = third_harmonic_solve(cfg, FaultSpec(x=0.4, rf=math.inf), 0.8, 1.0)
    assert vn_f == vn_h and vp_f == vp_h


def test_ratio_invariant_to_emf_magnitude():
    """The neutral/terminal split depends only on the circuit, so scaling
    the total EMF scales both voltages together."""
    lo = MachineConfig(e3=5.0)
    hi = MachineConfig(e3=35.0)
    for fault in (None, FaultSpec(x=0.25, rf=200.0)):
        vn_lo, vp_lo = third_harmonic_solve(lo, fault, 0.9, 1.0)
        vn_hi, vp_hi = third_harmonic_solve(hi, fault, 0.9, 1.0)
        assert abs(vn_hi / vn_lo - 7.0) < 1e-9
        assert abs(vp_hi / vp_lo - 7.0) < 1e-9
        assert abs(abs(vn_lo) / abs(vp_lo) - abs(vn_hi) / abs(vp_hi)) < 1e-12


def test_midwinding_fault_residual_smallest_in_symmetric_machine():
    """With no terminal-side lumped capacitance and a centered EMF split,
    a mid-winding fault barely moves the voltage ratio: the ratio change
    has an interior minimum at x = 0.5."""
    cfg = MachineConfig(ct=0.0, alpha_coeffs=(0.5, 0.0, 0.0))
    vn_h, vp_h = third_harmonic_solve(cfg, None, 1.0, 1.0)
    rho_h = abs(vn_h) / abs(vp_h)
    taps = [0.3, 0.4, 0.5, 0.6, 0.7]
    deltas = []
    for x in taps:
        vn, vp = third_harmonic_solve(cfg, FaultSpec(x=x, rf=50.0), 1.0, 1.0)
        deltas.append(abs(abs(vn) / abs(vp) - rho_h))
    assert np.argmin(deltas) == taps.index(0.5)
    assert deltas[taps.index(0.5)] < 0.1 * max(deltas)


def test_emf_split_fraction_clipped_and_monotone_in_load():
    cfg = MachineConfig(alpha_coeffs=(0.5, 0.2, 0.0))
    lo = emf_split_fraction(cfg, 0.0, 1.0)
    hi = emf_split_fraction(cfg, 1.2, 1.0)
    assert 0.05 <= lo < hi <= 0.95
    wild = MachineConfig(alpha_coeffs=(0.5, 10.0, 0.0))
    assert emf_split_fraction(wild, 1.2, 1.0) == 0.95


# --------------------------------------------------------- injection plant

def test_subharmonic_transfer_against_hand_values():
    """At DC the source-to-current gain collapses to the resistive
    divider K1 = N^2*rn/denom with denom = N^2*rn*rbpf + rs*(rn+rbpf),
    and at any frequency the voltage/current transfer pair is linked by
    the referred machine impedance (rs/N^2)/(1 + j*w*rs*c0)."""
    cfg = Subharmonic64SConfig()
    n2 = cfg.turns_ratio**2
    denom = n2 * cfg.rn * cfg.rbpf + cfg.rs * (cfg.rn + cfg.rbpf)
    k1 = n2 * cfg.rn / denom
    h1_dc, _ = subharmonic_transfer(cfg, cfg.rs, 0.0)
    assert abs(h1_dc) == pytest.approx(k1, rel=1e-9)
    for rs_eff in (cfg.rs, 86.9, 714.3):
        for omega in (2.0 * math.pi * cfg.f_inj, 500.0):
            h1, h2 = subharmonic_transfer(cfg, rs_eff, omega)
            z_machine = (rs_eff / n2) / (1.0 + 1j * omega * rs_eff * cfg.c0)
            assert h2 / h1 == pytest.approx(z_machine, rel=1e-12)


def test_64s_discrete_relation_holds_exactly():
    """The simulated neutral voltage and injected current satisfy the
    trapezoidal discrete form of the node ODE sample for sample; this is
    what makes offline and online processing agree."""
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(cfg, [], duration=1.0, fs=1000.0, noise_std=0.0)
    _assert_discrete_relation(cfg, cfg.rs, v.samples, i.samples, 5, len(v))


def test_64s_discrete_relation_after_fault():
    cfg = Subharmonic64SConfig()
    rf = 90.0
    onset = 0.5
    v, i = simulate_64s_timeseries(cfg, [FaultSpec(x=0.3, rf=rf, t_on=onset)],
                                   duration=1.0, fs=1000.0, noise_std=0.0)
    rs_eff = cfg.rs * rf / (cfg.rs + rf)
    _assert_discrete_relation(cfg, rs_eff, v.samples, i.samples, 502, len(v))


def _assert_discrete_relation(cfg, rs_eff, v, i_n, start, stop):
    n2 = cfg.turns_ratio**2
    k3 = rs_eff / n2
    tau0 = rs_eff * cfg.c0
    t_s = 1e-3
    kd = k3 * t_s / (t_s + 2.0 * tau0)
    a0 = (t_s - 2.0 * tau0) / (t_s + 2.0 * tau0)
    lhs = v[start:stop]
    rhs = -a0 * v[start - 1: stop - 1] + kd * (i_n[start:stop] + i_n[start - 1: stop - 1])
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(v)))


def test_64s_steady_state_matches_transfer_function():
    """Settled sinusoidal amplitudes from the time stepper agree with the
    continuous-frequency divider to within the bilinear warp (< 1%)."""
    cfg = Subharmonic64SConfig()
    omega = 2.0 * math.pi * cfg.f_inj
    for rf in (None, 90.0):
        if rf is None:
            events, rs_eff = [], cfg.rs
        else:
            events = [FaultSpec(x=0.5, rf=rf, t_on=0.0)]
            rs_eff = cfg.rs * rf / (cfg.rs + rf)
        v, i = simulate_64s_timeseries(cfg, events, duration=2.0, fs=1000.0,
                                       noise_std=0.0)
        h1, _ = subharmonic_transfer(cfg, rs_eff, omega)
        # i_n = (vs - v)/rbpf - v/rn with v = H_v * vs
        n2 = cfg.turns_ratio**2
        g_node = 1.0 / cfg.rbpf + 1.0 / cfg.rn + n2 / rs_eff
        h_v = (1.0 / cfg.rbpf) / (g_node + 1j * omega * n2 * cfg.c0)
        vs_amp = cfg.vs_rms * math.sqrt(2.0)
        ph_v = extract_phasor(v, cfg.f_inj, window_cycles=2)
        ph_i = extract_phasor(i, cfg.f_inj, window_cycles=2)
        want_v = abs(h_v) * vs_amp
        want_i = abs((1.0 - h_v) / cfg.rbpf - h_v / cfg.rn) * vs_amp
        assert ph_v.magnitude[-1] == pytest.approx(want_v, rel=0.01)
        assert ph_i.magnitude[-1] == pytest.approx(want_i, rel=0.01)
        assert abs(h1) * vs_amp == pytest.approx(want_i, rel=1e-9)


def test_64s_bolted_fault_clamps_node():
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(cfg, [FaultSpec(x=0.2, rf=0.0, t_on=0.5)],
                                   duration=1.0, fs=1000.0, noise_std=0.0)
    assert np.max(np.abs(v.samples[520:])) < 1e-12
    assert np.max(np.abs(i.samples[520:])) > 0.1  # injection still drives current


def test_neutral_60hz_component_limits():
    cfg = Subharmonic64SConfig()
    assert neutral_60hz_component(cfg, 0.0, 90.0) == 0.0
    assert neutral_60hz_component(cfg, 0.7, math.inf) == 0.0
    # bolted: the full per-unit EMF fraction appears across the divider
    assert neutral_60hz_component(cfg, 0.7, 0.0) == pytest.approx(0.7 * cfg.un, rel=1e-12)
    r_n = cfg.r_n_primary
    rf = 90.0
    want = 0.5 * cfg.un * r_n / math.hypot(r_n + rf,
                                           2.0 * math.pi * cfg.f1 * cfg.c0 * rf * r_n)
    assert neutral_60hz_component(cfg, 0.5, rf) == pytest.approx(want, rel=1e-12)


def test_64s_determinism_and_noise_seeding():
    cfg = Subharmonic64SConfig()
    v1, i1 = simulate_64s_timeseries(cfg, [], duration=0.5, noise_std=0.01, seed=42)
    v2, i2 = simulate_64s_timeseries(cfg, [], duration=0.5, noise_std=0.01, seed=42)
    v3, _ = simulate_64s_timeseries(cfg, [], duration=0.5, noise_std=0.01, seed=43)
    assert np.array_equal(v1.samples, v2.samples)
    assert np.array_equal(i1.samples, i2.samples)
    assert not np.array_equal(v1.samples, v3.samples)


def test_64s_speed_profile_adds_fundamental_residual():
    cfg = Subharmonic64SConfig()
    v_rest, _ = simulate_64s_timeseries(cfg, [], duration=1.0, noise_std=0.0)
    v_run, _ = simulate_64s_timeseries(cfg, [], duration=1.0, noise_std=0.0,
                                       speed_profile=constant_speed(1.0))
    diff = v_run.samples - v_rest.samples
    ph = extract_phasor(
        type(v_rest)(fs=1000.0, t0=0.0, samples=diff), cfg.f1, window_cycles=3)
    want = cfg.residual_60hz_frac * cfg.un / cfg.turns_ratio
    assert ph.magnitude[-1] == pytest.approx(want, rel=1e-6)


# ----------------------------------------------------------- 64g2 scenario

def test_64g2_frames_track_circuit_ratio():
    cfg = MachineConfig()
    sim = simulate_64g2_scenario(cfg, None, duration=0.5, noise_std=0.0, seed=0)
    vn, vp = third_harmonic_solve(cfg, None, 1.0, 1.0)
    frames = [f for f in sim.frames if f.valid]
    assert frames
    for f in frames[::25]:
        assert f.v_p3 == pytest.approx(abs(vp), rel=1e-6)
        assert f.v_n3 == pytest.approx(abs(vn), rel=1e-6)


def test_64g2_fault_onset_index_and_step():
    cfg = MachineConfig()
    sim = simulate_64g2_scenario(cfg, FaultSpec(x=0.0, rf=50.0, t_on=0.27),
                                 duration=0.6, noise_std=0.0, seed=0)
    assert sim.onset_index == 270
    vn_f, vp_f = third_harmonic_solve(cfg, FaultSpec(x=0.0, rf=50.0), 1.0, 1.0)
    settled = sim.frames[270 + 2 * sim.phasor_p.window_samples]
    assert settled.v_n3 == pytest.approx(abs(vn_f), rel=1e-6)
    assert settled.v_p3 == pytest.approx(abs(vp_f), rel=1e-6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_harmonic_frame_rejects_bad_magnitudes(bad):
    with pytest.raises(ValueError):
        HarmonicFrame(t_index=0, v_p3=bad, v_n3=1.0)
    with pytest.raises(ValueError):
        HarmonicFrame(t_index=0, v_p3=1.0, v_n3=bad)


def test_64g2_replayed_waveforms_give_the_simulated_frames():
    cfg = MachineConfig()
    sim = simulate_64g2_scenario(cfg, FaultSpec(x=0.1, rf=200.0, t_on=0.3),
                                 load_pu=0.8, pf=0.9, duration=0.6, seed=4)
    replay = frames_from_64g2_waveforms(sim.v_p3_wave, sim.v_n3_wave, cfg,
                                        load_pu=0.8, pf=0.9)
    assert replay.frames == sim.frames
    assert replay.vp3_rated == sim.vp3_rated


def test_64g2_warmup_and_supervision():
    cfg = MachineConfig()
    sim = simulate_64g2_scenario(
        cfg, None,
        disturbances=[DisturbanceSpec(kind="gen_stop", t_on=0.1, t_off=1.1)],
        duration=1.5, noise_std=0.0, seed=0)
    warm = sim.phasor_p.window_samples - 1
    assert not any(f.valid for f in sim.frames[:warm])
    # by the end of the rundown the machine is at rest: blocked frames
    assert not any(f.valid for f in sim.frames[-200:])


def test_64g2_freq_supervision_blocks_off_nominal_speed():
    cfg = MachineConfig()
    sim = simulate_64g2_scenario(
        cfg, None,
        disturbances=[DisturbanceSpec(kind="gen_start", t_on=0.0, t_off=1.0)],
        duration=1.5, noise_std=0.0, seed=0)
    # speed < 0.8 before t = 0.8 s: all frames blocked
    assert not any(f.valid for f in sim.frames[:799])
    assert any(f.valid for f in sim.frames[900:])


def test_64g2_pt_scale_multiplies_one_channel():
    cfg = MachineConfig()
    base = simulate_64g2_scenario(cfg, None, duration=0.8, noise_std=0.0, seed=0)
    scaled = simulate_64g2_scenario(
        cfg, None,
        disturbances=[DisturbanceSpec(kind="neutral_pt_scale", magnitude=0.875,
                                      t_on=0.0, t_off=None)],
        duration=0.8, noise_std=0.0, seed=0)
    assert np.allclose(scaled.v_n3_wave.samples, 0.875 * base.v_n3_wave.samples)
    assert np.array_equal(scaled.v_p3_wave.samples, base.v_p3_wave.samples)


def test_64g2_pf_swing_passes_through_unity():
    """A lag-to-lead swing transitions through unity power factor, so the
    pf trajectory never approaches zero."""
    cfg = MachineConfig()
    sim = simulate_64g2_scenario(
        cfg, None, disturbances=[DisturbanceSpec(kind="pf_swing", magnitude=-0.85,
                                                 t_on=0.1, t_off=0.5)],
        load_pu=1.0, pf=0.85, duration=0.7, noise_std=0.0, seed=0)
    pfs = np.array([f.pf for f in sim.frames])
    assert np.min(np.abs(pfs)) >= 0.85 - 1e-9
    assert np.max(np.abs(pfs)) <= 1.0 + 1e-12
    assert pfs[0] == pytest.approx(0.85)
    assert pfs[-1] == pytest.approx(-0.85)
    # reaches unity mid-swing
    assert np.max(pfs) == pytest.approx(1.0, abs=1e-6)


def test_64g2_determinism():
    cfg = MachineConfig()
    a = simulate_64g2_scenario(cfg, None, duration=0.4, seed=9)
    b = simulate_64g2_scenario(cfg, None, duration=0.4, seed=9)
    assert np.array_equal(a.v_p3_wave.samples, b.v_p3_wave.samples)
    assert np.array_equal(a.v_n3_wave.samples, b.v_n3_wave.samples)


def test_ramp_speed_clamps_outside_interval():
    prof = ramp_speed(1.0, 2.0, 1.0, 0.5)
    t = np.array([0.0, 1.0, 1.5, 2.0, 5.0])
    assert np.allclose(prof(t), [1.0, 1.0, 0.75, 0.5, 0.5])
