"""Injection-based insulation estimation, detection, and fault location."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statorguard.a64s import (
    HEALTHY_SENTINEL,
    A64SEstimator,
    C0KafState,
    CalibrationError,
    ExtractorState,
    InsulationDetectorConfig,
    SubharmonicFrames,
    ThetaKafState,
    a64s_detect,
    c0_kaf_update,
    extract_params,
    frames_from_timeseries,
    locate_fault,
    locator_consistent,
    regression_step,
    theta_kaf_update,
    tustin_coeffs,
)
from statorguard.plantsim import (
    FaultSpec,
    Subharmonic64SConfig,
    neutral_60hz_component,
    simulate_64s_timeseries,
)
from statorguard.signalcore import TimeSeries

import oracles


# ----------------------------------------------------------- discretization

def test_tustin_coeffs_hand_example():
    """Healthy default circuit: K3 = 2500/4 = 625 ohm, tau0 = 18.75 ms,
    T = 1 ms give Kd = 0.625/0.0385 and a0 = -0.0365/0.0385."""
    kd, a0 = tustin_coeffs(625.0, 18.75e-3, 1e-3)
    assert kd == pytest.approx(0.625 / 0.0385, rel=1e-12)
    assert a0 == pytest.approx(-0.0365 / 0.0385, rel=1e-12)


def test_tustin_zero_time_constant():
    kd, a0 = tustin_coeffs(625.0, 0.0, 1e-3)
    assert kd == pytest.approx(625.0)
    assert a0 == pytest.approx(1.0)


@given(
    tau0=st.floats(0.0, 0.1),
    rs=st.floats(10.0, 1e5),
)
@settings(max_examples=200, deadline=None)
def test_extract_inverts_tustin_exactly(tau0, rs):
    """extract_params with the smoother bypassed is the exact inverse of
    the bilinear discretization over the full parameter range."""
    n = 2.0
    k3 = rs / n**2
    kd, a0 = tustin_coeffs(k3, tau0, 1e-3)
    state = ExtractorState(period=1e-3, turns_ratio=n, gamma=math.inf)
    tau0_hat, rs_hat = extract_params(state, np.array([a0, kd]))
    assert tau0_hat == pytest.approx(tau0, rel=1e-12, abs=1e-15)
    assert rs_hat == pytest.approx(rs, rel=1e-12)


def test_extract_params_clamps_negative_channels():
    state = ExtractorState(period=1e-3, turns_ratio=2.0, gamma=math.inf)
    # a0 < -1 implies a negative time constant: clamp to zero
    tau0_hat, rs_hat = extract_params(state, np.array([-1.5, 10.0]))
    assert tau0_hat == 0.0
    assert rs_hat >= 0.0


def test_extract_params_degenerate_ratio_freezes():
    state = ExtractorState(period=1e-3, turns_ratio=2.0, gamma=math.inf)
    extract_params(state, np.array([-0.5, 10.0]))
    tau0_good = state.tau0_hat
    # a feedback coefficient of exactly -1 is a degenerate difference
    # equation: the time-constant channel freezes, the gain channel
    # keeps tracking
    tau0_hat, rs_hat = extract_params(state, np.array([-1.0, 5.0]))
    assert state.degenerate
    assert tau0_hat == tau0_good == pytest.approx(1.5e-3)
    assert rs_hat == pytest.approx(80.0)


def test_extractor_smoothing_has_unit_dc_gain():
    state = ExtractorState(period=1e-3, turns_ratio=2.0, gamma=10.0)
    kd, a0 = tustin_coeffs(625.0, 18.75e-3, 1e-3)
    for _ in range(6000):
        tau0_hat, rs_hat = extract_params(state, np.array([a0, kd]))
    assert tau0_hat == pytest.approx(18.75e-3, rel=1e-6)
    assert rs_hat == pytest.approx(2500.0, rel=1e-6)


# ------------------------------------------------------------- theta filter

def _run_theta(kd, a0, n_steps, meas_noise, proc_noise, drive_seed=0):
    rng = np.random.default_rng(drive_seed)
    i_n = rng.normal(0.0, 1.0, size=n_steps)
    v = oracles.difference_equation_response(kd, a0, i_n)
    state = ThetaKafState(process_noise=proc_noise, measurement_noise=meas_noise)
    for t in range(n_steps):
        reg = regression_step(state, float(v[t]), float(i_n[t]))
        if reg is None:
            continue
        phi, _ = reg
        state, _ = theta_kaf_update(state, float(v[t]), phi)
    return state, v, i_n


def test_theta_kaf_converges_on_noiseless_data():
    kd, a0 = tustin_coeffs(625.0, 18.75e-3, 1e-3)
    state, _, _ = _run_theta(kd, a0, 200, meas_noise=1e-8, proc_noise=0.0)
    theta_true = np.array([a0, kd])
    assert np.linalg.norm(state.theta_hat - theta_true) < 1e-6


def test_theta_kaf_equals_batch_least_squares():
    """With zero process noise the vector filter is exactly recursive
    least squares; compare against the closed-form batch error."""
    kd, a0 = tustin_coeffs(400.0, 5e-3, 1e-3)
    rng = np.random.default_rng(5)
    i_n = rng.normal(size=60)
    v = oracles.difference_equation_response(kd, a0, i_n)
    meas = 0.3
    state = ThetaKafState(process_noise=0.0, measurement_noise=meas)
    phis = []
    for t in range(60):
        reg = regression_step(state, float(v[t]), float(i_n[t]))
        if reg is None:
            continue
        phi, _ = reg
        phis.append(phi)
        state, _ = theta_kaf_update(state, float(v[t]), phi)
    theta_true = np.array([a0, kd])
    want_err = oracles.batch_vector_rls_error(
        np.zeros(2) - theta_true, np.array(phis), np.eye(2), meas)
    assert np.allclose(state.theta_hat - theta_true, want_err, atol=1e-8)


def test_regression_step_primes_on_first_sample():
    state = ThetaKafState()
    assert regression_step(state, 1.0, 2.0) is None
    reg = regression_step(state, 3.0, 4.0)
    assert reg is not None
    phi, summed = reg
    assert np.allclose(phi, [-1.0, 6.0])
    assert summed == 6.0


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_theta_covariance_stays_symmetric_positive_definite(seed):
    rng = np.random.default_rng(seed)
    state = ThetaKafState()
    for _ in range(300):
        phi = rng.normal(0.0, 10.0, size=2)
        state, _ = theta_kaf_update(state, float(rng.normal()), phi)
        assert np.allclose(state.cov, state.cov.T, atol=1e-12)
        eig = np.linalg.eigvalsh(state.cov)
        assert eig.min() > 0.0


# ---------------------------------------------------------------- c0 filter

def test_c0_kaf_fixed_point():
    """Feeding a consistent (tau0, rs) pair drives the capacitance
    estimate to tau0/rs and holds it there."""
    state = C0KafState(c0_hat=1e-6, variance=1e-10, process_noise=1e-16,
                       measurement_noise=1e-6)
    rs, c_true = 2500.0, 7.5e-6
    for _ in range(4000):
        state = c0_kaf_update(state, rs * c_true, rs)
    assert state.c0_hat == pytest.approx(c_true, rel=1e-6)
    settled = c0_kaf_update(state, rs * c_true, rs)
    assert settled.c0_hat == pytest.approx(state.c0_hat, rel=1e-9)


def test_c0_kaf_variance_positive():
    state = C0KafState()
    for _ in range(100):
        state = c0_kaf_update(state, 1e-2, 100.0)
        assert state.variance > 0.0


# ------------------------------------------------------------------ locator

@pytest.mark.parametrize("x", [0.0, 0.1, 0.5, 0.9, 1.0])
@pytest.mark.parametrize("rf", [50.0, 90.0, 500.0, 1000.0])
def test_locator_inverts_divider_exactly(x, rf):
    cfg = Subharmonic64SConfig()
    v60 = neutral_60hz_component(cfg, x, rf)
    got = locate_fault(v60, cfg.un, cfg.r_n_primary, rf, rf * cfg.c0,
                       fault_active=True, f1=cfg.f1)
    assert got == pytest.approx(x, abs=1e-9)


def test_locator_sentinel_when_healthy():
    cfg = Subharmonic64SConfig()
    out = locate_fault(0.3, cfg.un, cfg.r_n_primary, 90.0, 1e-3,
                       fault_active=False)
    assert out == HEALTHY_SENTINEL
    assert locator_consistent(out)


def test_locator_consistency_flag():
    assert locator_consistent(0.0)
    assert locator_consistent(1.15)
    assert not locator_consistent(1.3)
    assert not locator_consistent(-0.01)


# ------------------------------------------------------------ drop detector

def _rs_stream(n_pre, n_post, pre=2500.0, post=86.9):
    return [pre] * n_pre + [post] * n_post


def test_a64s_detect_trips_on_sustained_drop():
    cfg = InsulationDetectorConfig(baseline_start=1000, baseline_window=250,
                                   drop_fraction=0.5, persistence=25)
    events = a64s_detect(_rs_stream(1500, 300), cfg)
    assert len(events) == 1
    assert events[0].kind == "trip"
    assert events[0].index == 1500 + 25 - 1
    assert events[0].rs_value == pytest.approx(86.9)


def test_a64s_detect_ignores_short_dip():
    cfg = InsulationDetectorConfig(baseline_start=1000, baseline_window=250,
                                   drop_fraction=0.5, persistence=25)
    stream = _rs_stream(1400, 0) + [100.0] * 24 + [2500.0] * 200
    assert a64s_detect(stream, cfg) == []


def test_a64s_detect_requires_full_baseline():
    cfg = InsulationDetectorConfig(baseline_start=1000, baseline_window=250)
    with pytest.raises(CalibrationError):
        a64s_detect([2500.0] * 1100, cfg)


def test_a64s_detect_rejects_contaminated_baseline():
    """A resistance drop landing inside the baseline window must raise
    rather than silently sealing a corrupted baseline."""
    cfg = InsulationDetectorConfig(baseline_start=1000, baseline_window=250,
                                   drop_fraction=0.5, persistence=25)
    stream = [2500.0] * 1200 + [80.0] * 300
    with pytest.raises(CalibrationError):
        a64s_detect(stream, cfg)


# ------------------------------------------------------------ full pipeline

def test_frames_from_timeseries_validation():
    v = TimeSeries(fs=1000.0, t0=0.0, samples=np.zeros(500))
    i = TimeSeries(fs=500.0, t0=0.0, samples=np.zeros(500))
    with pytest.raises(ValueError):
        frames_from_timeseries(v, i, Subharmonic64SConfig())


def test_subharmonic_frames_check_columns_once_per_record():
    with pytest.raises(ValueError):
        SubharmonicFrames(v_n=[0.0, 0.0], i_n=[0.0], v_n60=[0.0, 0.0], valid=[True, True])
    with pytest.raises(ValueError):
        SubharmonicFrames(v_n=[0.0], i_n=[0.0], v_n60=[0.0], valid=[True, False])
    with pytest.raises(ValueError):
        SubharmonicFrames(v_n=[0.0, 0.0], i_n=[0.0, 0.0], v_n60=[0.0, -1.0],
                          valid=[True, True])
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(cfg, [], duration=0.5, noise_std=0.0, seed=0)
    frames = frames_from_timeseries(v, i, cfg)
    assert len(frames) == len(v) == 500
    assert all(x == 0.0 for x, ok in zip(frames.v_n60, frames.valid) if not ok)


def test_healthy_pipeline_estimates_and_sentinel():
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(cfg, [], duration=2.0, noise_std=0.0, seed=0)
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    rs, c0, tau0 = trace.final_estimates()
    assert rs == pytest.approx(cfg.rs, rel=0.02)
    assert c0 == pytest.approx(cfg.c0, rel=0.02)
    assert tau0 == pytest.approx(cfg.rs * cfg.c0, rel=0.02)
    assert not trace.tripped
    assert trace.final_location() == HEALTHY_SENTINEL
    assert all(x == HEALTHY_SENTINEL for x in trace.x_hat)


def test_faulted_pipeline_recovers_parallel_resistance_and_location():
    cfg = Subharmonic64SConfig()
    rf, x = 500.0, 0.67
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=x, rf=rf, t_on=1.6)], duration=3.0, noise_std=0.0,
        seed=0, speed_profile=lambda t: np.ones_like(t))
    trace = A64SEstimator(cfg).run_timeseries(v, i, onset_index=1600)
    assert trace.tripped
    assert trace.first_trip_index is not None
    assert trace.first_trip_index - 1600 <= 500
    rs, _, _ = trace.final_estimates()
    rs_want = cfg.rs * rf / (cfg.rs + rf)
    assert rs == pytest.approx(rs_want, rel=0.05)
    assert trace.final_location() == pytest.approx(x, abs=0.05)


def test_pipeline_offline_replay_matches_online(tmp_path):
    """Writing the records to CSV and replaying them reproduces the
    verdict exactly; estimates agree to the fs re-inference rounding."""
    from statorguard.signalcore import ingest_csv, write_csv

    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=0.25, rf=90.0, t_on=1.6)], duration=2.5,
        noise_std=0.01, seed=3, speed_profile=lambda t: np.ones_like(t))
    online = A64SEstimator(cfg).run_timeseries(v, i, onset_index=1600)
    path = tmp_path / "rec.csv"
    write_csv(path, {"vn": v, "in": i})
    back = ingest_csv(path)
    offline = A64SEstimator(cfg).run_timeseries(back["vn"], back["in"],
                                                onset_index=1600)
    assert offline.first_trip_index == online.first_trip_index
    assert offline.final_estimates() == pytest.approx(
        online.final_estimates(), rel=1e-9)
    assert offline.final_location() == pytest.approx(
        online.final_location(), rel=1e-9)
    assert np.allclose(offline.rs_hat, online.rs_hat, rtol=1e-9)


def test_pipeline_fault_before_baseline_is_absorbed():
    """A fault present from before the baseline window is learned as the
    baseline: the detector stays quiet and the healthy reference is lost.
    This is the documented blind spot of drop-style detection."""
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=0.5, rf=90.0, t_on=0.2)], duration=2.5,
        noise_std=0.0, seed=0, speed_profile=lambda t: np.ones_like(t))
    trace = A64SEstimator(cfg).run_timeseries(v, i, onset_index=200)
    assert not trace.tripped
    rs_want = cfg.rs * 90.0 / (cfg.rs + 90.0)
    assert trace.baseline == pytest.approx(rs_want, rel=0.05)


def test_trace_csv_header(tmp_path):
    from statorguard.a64s import write_a64s_trace_csv

    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(cfg, [], duration=1.6, noise_std=0.0, seed=0)
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    path = tmp_path / "a64s.csv"
    write_a64s_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,vn,in,a0_hat,kd_hat,tau0_hat_ms,rs_hat_ohm,c0_hat_uF,x_hat,trip"
    assert len(lines) == len(v) + 1
