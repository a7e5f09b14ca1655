"""Injection-based insulation estimation, detection, and fault location."""

import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statorguard import a64s
from statorguard.a64s import (
    HEALTHY_SENTINEL,
    A64SEstimator,
    A64SEstimatorConfig,
    CalibrationError,
    InsulationDetectorConfig,
    SubharmonicFrames,
    frames_from_timeseries,
)
from statorguard.plantsim import (
    FaultSpec,
    Subharmonic64SConfig,
    neutral_60hz_component,
    simulate_64s_timeseries,
)
from statorguard.signalcore import TimeSeries

import oracles
from oracles import locate_fault, locator_consistent, tustin_coeffs


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


def _extract(a0, kd, memories=(None, None), alpha=1.0, period=1e-3, turns_ratio=2.0):
    """The extraction kernel at sampling period 1 ms; alpha 1 bypasses the
    smoother (an infinite smoothing rate)."""
    return oracles._extract_step(a0, kd, *memories, alpha, period, turns_ratio**2 / period)


@given(
    tau0=st.floats(0.0, 0.1),
    rs=st.floats(10.0, 1e5),
)
@settings(max_examples=200, deadline=None)
def test_extract_inverts_tustin_exactly(tau0, rs):
    """Extraction with the smoother bypassed is the exact inverse of the
    bilinear discretization over the full parameter range."""
    n = 2.0
    k3 = rs / n**2
    kd, a0 = tustin_coeffs(k3, tau0, 1e-3)
    tau0_hat, rs_hat, *_ = _extract(a0, kd, turns_ratio=n)
    assert tau0_hat == pytest.approx(tau0, rel=1e-12, abs=1e-15)
    assert rs_hat == pytest.approx(rs, rel=1e-12)


def test_extract_params_clamps_negative_channels():
    # a0 < -1 implies a negative time constant: clamp to zero
    tau0_hat, rs_hat, *_ = _extract(-1.5, 10.0)
    assert tau0_hat == 0.0
    assert rs_hat >= 0.0


def test_extract_params_degenerate_ratio_freezes():
    tau0_good, _, ratio_memory, gain_memory, degenerate = _extract(-0.5, 10.0)
    assert not degenerate
    # a feedback coefficient of exactly -1 is a degenerate difference
    # equation: the time-constant channel freezes, the gain channel
    # keeps tracking
    tau0_hat, rs_hat, _, _, degenerate = _extract(-1.0, 5.0, (ratio_memory, gain_memory))
    assert degenerate
    assert tau0_hat == tau0_good == pytest.approx(1.5e-3)
    assert rs_hat == pytest.approx(80.0)


def test_extractor_smoothing_has_unit_dc_gain():
    alpha = 1.0 - math.exp(-10.0 * 1e-3)
    kd, a0 = tustin_coeffs(625.0, 18.75e-3, 1e-3)
    memories = (None, None)
    for _ in range(6000):
        tau0_hat, rs_hat, *memories, _ = _extract(a0, kd, memories, alpha)
    assert tau0_hat == pytest.approx(18.75e-3, rel=1e-6)
    assert rs_hat == pytest.approx(2500.0, rel=1e-6)


# ------------------------------------------------------------- theta filter

def _run_theta(kd, a0, n_steps, meas_noise, proc_noise, drive_seed=0):
    """The 2-state filter from theta = 0, P = I over a driven noiseless
    record; the first sample only primes the regression.  Returns the
    final (a0, kd, p00, p01, p11) and the regression vectors."""
    rng = np.random.default_rng(drive_seed)
    i_n = rng.normal(0.0, 1.0, size=n_steps)
    v = oracles.difference_equation_response(kd, a0, i_n)
    state = (0.0, 0.0, 1.0, 0.0, 1.0)
    phis = []
    for t in range(1, n_steps):
        # previous voltage and summed current, as A64SEstimator.run forms them
        phi = (-float(v[t - 1]), float(i_n[t - 1]) + float(i_n[t]))
        phis.append(phi)
        *state, _ = oracles._theta_step(*state, proc_noise, meas_noise, float(v[t]), *phi)
    return state, phis


def test_theta_kaf_converges_on_noiseless_data():
    kd, a0 = tustin_coeffs(625.0, 18.75e-3, 1e-3)
    state, _ = _run_theta(kd, a0, 200, meas_noise=1e-8, proc_noise=0.0)
    theta_true = np.array([a0, kd])
    assert np.linalg.norm(np.array(state[:2]) - theta_true) < 1e-6


def test_theta_kaf_equals_batch_least_squares():
    """With zero process noise the vector filter is exactly recursive
    least squares; compare against the closed-form batch error."""
    kd, a0 = tustin_coeffs(400.0, 5e-3, 1e-3)
    meas = 0.3
    state, phis = _run_theta(kd, a0, 60, meas_noise=meas, proc_noise=0.0, drive_seed=5)
    theta_true = np.array([a0, kd])
    want_err = oracles.batch_vector_rls_error(
        np.zeros(2) - theta_true, np.array(phis), np.eye(2), meas)
    assert np.allclose(np.array(state[:2]) - theta_true, want_err, atol=1e-8)


def test_regression_step_primes_on_first_sample():
    """The first valid sample, and the first after an invalid one, only
    primes the regression; the next is used with the regression vector
    (-previous voltage, summed current)."""
    v_n, i_n = [1.0, 3.0, 2.0, 5.0, 4.0, 1.0], [2.0, 4.0, 1.0, 3.0, 2.0, 6.0]
    frames = SubharmonicFrames(v_n=v_n, i_n=i_n, v_n60=[0.0] * 6,
                               valid=[True, True, True, False, True, True])
    est = A64SEstimator(Subharmonic64SConfig())
    trace = est.run(frames, 1000.0)
    assert trace.valid == (False, True, True, False, False, True)
    cfg = est.cfg
    p0 = cfg.theta_initial_variance
    a0, kd, *_ = oracles._theta_step(0.0, 0.0, p0, 0.0, p0, cfg.theta_process_noise,
                                     cfg.theta_measurement_noise, 3.0, -1.0, 6.0)
    assert (trace.a0_hat[:2].tolist(), trace.kd_hat[:2].tolist()) == ([0.0, a0], [0.0, kd])


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_theta_covariance_stays_symmetric_positive_definite(seed):
    rng = np.random.default_rng(seed)
    a0, kd, p00, p01, p11 = 0.0, 0.0, 1.0, 0.0, 1.0
    for _ in range(300):
        phi0, phi1 = rng.normal(0.0, 10.0, size=2)
        a0, kd, p00, p01, p11, _ = oracles._theta_step(
            a0, kd, p00, p01, p11, 1e-4, 0.25, float(rng.normal()), float(phi0), float(phi1))
        eig = np.linalg.eigvalsh(np.array([[p00, p01], [p01, p11]]))
        assert eig.min() > 0.0


# ---------------------------------------------------------------- c0 filter

def test_c0_kaf_fixed_point():
    """Feeding a consistent (tau0, rs) pair drives the capacitance
    estimate to tau0/rs and holds it there."""
    c0_hat, variance = 1e-6, 1e-10
    rs, c_true = 2500.0, 7.5e-6
    for _ in range(4000):
        c0_hat, variance = oracles._c0_step(c0_hat, variance, 1e-16, 1e-6, rs * c_true, rs)
    assert c0_hat == pytest.approx(c_true, rel=1e-6)
    settled, _ = oracles._c0_step(c0_hat, variance, 1e-16, 1e-6, rs * c_true, rs)
    assert settled == pytest.approx(c0_hat, rel=1e-9)


def test_c0_kaf_variance_positive():
    c0_hat, variance = 1e-6, 1e-10
    for _ in range(100):
        c0_hat, variance = oracles._c0_step(c0_hat, variance, 1e-16, 1e-6, 1e-2, 100.0)
        assert variance > 0.0


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


def _latch_states(stream, cfg):
    """The drop latch fed a resistance stream: its latch and the tripped
    flag after each sample."""
    latch = oracles._DropLatch(cfg)
    return latch, [latch.update(rs) for rs in stream]


def test_a64s_detect_trips_on_sustained_drop():
    cfg = InsulationDetectorConfig(baseline_start=1000, baseline_window=250,
                                   drop_fraction=0.5, persistence=25)
    stream = _rs_stream(1500, 300)
    latch, tripped = _latch_states(stream, cfg)
    assert latch.baseline == 2500.0
    assert tripped.index(True) == 1500 + 25 - 1
    assert stream[tripped.index(True)] == pytest.approx(86.9)
    assert all(tripped[1500 + 25 - 1:])


def test_a64s_detect_ignores_short_dip():
    cfg = InsulationDetectorConfig(baseline_start=1000, baseline_window=250,
                                   drop_fraction=0.5, persistence=25)
    stream = _rs_stream(1400, 0) + [100.0] * 24 + [2500.0] * 200
    latch, tripped = _latch_states(stream, cfg)
    assert latch.baseline == 2500.0
    assert not any(tripped)


def test_a64s_detect_requires_full_baseline():
    """A stream too short to fill the baseline leaves the latch unarmed:
    no baseline, no trip."""
    cfg = InsulationDetectorConfig(baseline_start=1000, baseline_window=250)
    latch, tripped = _latch_states([2500.0] * 1100, cfg)
    assert latch.baseline is None
    assert not latch.tripped and not any(tripped)


def test_a64s_detect_rejects_contaminated_baseline():
    """A resistance drop landing inside the baseline window must raise
    rather than silently sealing a corrupted baseline."""
    cfg = InsulationDetectorConfig(baseline_start=1000, baseline_window=250,
                                   drop_fraction=0.5, persistence=25)
    stream = [2500.0] * 1200 + [80.0] * 300
    with pytest.raises(CalibrationError):
        _latch_states(stream, cfg)


# ------------------------------------------------------------ full pipeline

def test_frames_from_timeseries_validation():
    v = TimeSeries(fs=1000.0, t0=0.0, samples=np.zeros(500))
    i = TimeSeries(fs=500.0, t0=0.0, samples=np.zeros(500))
    with pytest.raises(ValueError):
        frames_from_timeseries(v, i, Subharmonic64SConfig())


def test_subharmonic_frames_check_columns_once_per_record():
    """The record checks its column lengths and values when it is built,
    so no bad record reaches run()."""
    with pytest.raises(ValueError):
        SubharmonicFrames(v_n=[0.0, 0.0], i_n=[0.0], v_n60=[0.0, 0.0], valid=[True, True])
    with pytest.raises(ValueError):
        SubharmonicFrames(v_n=[0.0], i_n=[0.0], v_n60=[0.0], valid=[True, False])
    estimator = A64SEstimator(Subharmonic64SConfig())
    with pytest.raises(ValueError, match="v_n60"):
        estimator.run(SubharmonicFrames(v_n=[0.0, 0.0], i_n=[0.0, 0.0], v_n60=[0.0, -1.0],
                                        valid=[True, True]), 1000.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("v_n", "i_n", "v_n60"):
            columns = {"v_n": [0.0, 1.0], "i_n": [0.0, 1.0], "v_n60": [0.0, 1.0],
                       "valid": [True, False]}
            columns[name] = [0.0, bad]
            with pytest.raises(ValueError, match=name):
                estimator.run(SubharmonicFrames(**columns), 1000.0)
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(cfg, [], duration=0.5, noise_std=0.0, seed=0)
    frames = frames_from_timeseries(v, i, cfg)
    assert len(frames) == len(v) == 500
    assert all(x == 0.0 for x, ok in zip(frames.v_n60, frames.valid) if not ok)


def _fault_record_90_ohm():
    """A 90 ohm fault at x = 0.25 from 1.6 s of a noiseless 2.5 s record at
    rated speed; the default estimator trips on it at sample 1799."""
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=0.25, rf=90.0, t_on=1.6)], duration=2.5, noise_std=0.0,
        seed=2, speed_profile=lambda t: np.ones_like(t))
    return cfg, frames_from_timeseries(v, i, cfg)


def _fault_record_500_ohm():
    """A 500 ohm fault at x = 0.67 from 1.6 s of a noisy 3 s record at
    rated speed (seed 4); the default estimator trips on it."""
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=0.67, rf=500.0, t_on=1.6)], duration=3.0, noise_std=0.01,
        seed=4, speed_profile=lambda t: np.ones_like(t))
    return cfg, frames_from_timeseries(v, i, cfg)


def _invalid_stretch(frames):
    """The record with samples 1400-1419 (between the baseline window and
    the fault) marked invalid."""
    valid = frames.valid.copy()
    valid[1400:1420] = False
    return replace(frames, valid=valid)


@pytest.mark.parametrize("column", ["v_n", "i_n", "v_n60"])
def test_a_cell_set_to_nan_after_construction_is_refused(column):
    cfg, frames = _fault_record_90_ohm()
    assert A64SEstimator(cfg).run(frames, 1000.0).first_trip_index == 1799
    with pytest.raises(ValueError, match="read-only"):
        getattr(frames, column)[1700] = math.nan
    cells = getattr(frames, column).tolist()
    cells[1700] = math.nan
    with pytest.raises(ValueError, match=f"^{column} "):
        replace(frames, **{column: cells})
    assert A64SEstimator(cfg).run(frames, 1000.0).first_trip_index == 1799


def test_subharmonic_frames_cannot_change_after_construction():
    """Shortening a column after construction used to truncate the run
    silently (2,500 frames, 1,000 estimate rows, no trip); the record now
    refuses every change, and the trace shares its columns."""
    cfg, frames = _fault_record_90_ohm()
    with pytest.raises(ValueError, match="cannot delete array elements"):
        del frames.i_n[1000:]
    with pytest.raises(ValueError, match="read-only"):
        frames.valid[0] = False
    with pytest.raises(FrozenInstanceError):
        frames.i_n = frames.i_n[:1000]
    trace = A64SEstimator(cfg).run(frames, 1000.0)
    assert trace.first_trip_index == 1799
    assert len(trace.rs_hat) == len(trace.t_index) == len(frames) == 2500
    assert trace.v_n is frames.v_n and trace.i_n is frames.i_n
    assert replace(frames, valid=frames.valid).v_n60 is frames.v_n60


def test_estimator_settings_cannot_change_after_construction():
    """The estimator is a frozen record of its circuit and tunables, like
    its config sections: assigning either raises, and a changed estimator
    is built by replace."""
    cfg, frames = _fault_record_90_ohm()
    estimator = A64SEstimator(cfg)
    assert estimator.cfg == A64SEstimatorConfig()
    for name, value in (("cfg", A64SEstimatorConfig(smoothing_rate=1.0)),
                        ("circuit", Subharmonic64SConfig(rs=1e3))):
        with pytest.raises(FrozenInstanceError):
            setattr(estimator, name, value)
    assert estimator.run(frames, 1000.0).first_trip_index == 1799
    slow = replace(estimator, cfg=A64SEstimatorConfig(smoothing_rate=1.0))
    assert slow.circuit is cfg and slow.cfg.smoothing_rate == 1.0


@pytest.mark.parametrize("tunables", [None, {"smoothing_rate": 1.0}])
def test_the_estimator_refuses_a_cfg_that_is_not_its_config(tunables):
    """cfg used to default to None, read as A64SEstimatorConfig();
    anything else would fail later, in run(), so the constructor and
    replace refuse it by name."""
    refusal = rf"^cfg must be an A64SEstimatorConfig, got {re.escape(repr(tunables))}$"
    with pytest.raises(ValueError, match=refusal):
        A64SEstimator(Subharmonic64SConfig(), tunables)
    with pytest.raises(ValueError, match=refusal):
        replace(A64SEstimator(Subharmonic64SConfig()), cfg=tunables)


@pytest.mark.parametrize("column", ["v_n", "i_n", "v_n60"])
@pytest.mark.parametrize("valid", [True, False])
def test_subharmonic_frames_check_every_replaced_column(column, valid):
    """A short column or a NaN or infinite cell is refused by name, and so
    is a negative v_n60, in a valid frame or an invalid one; v_n and i_n
    may be negative."""
    frames = SubharmonicFrames(v_n=[1.0] * 3, i_n=[1.0] * 3, v_n60=[1.0] * 3,
                               valid=[True, valid, True])
    with pytest.raises(ValueError, match=f"equal length: {column} has 2"):
        replace(frames, **{column: [1.0, 1.0]})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^{column} must be finite"):
            replace(frames, **{column: [1.0, bad, 1.0]})
    if column == "v_n60":
        with pytest.raises(ValueError, match="^v_n60 must be finite and >= 0"):
            replace(frames, v_n60=[1.0, -1.0, 1.0])
    else:
        assert getattr(replace(frames, **{column: [1.0, -1.0, 1.0]}), column)[1] == -1.0


@pytest.mark.parametrize("name", [
    "theta_process_noise", "theta_measurement_noise", "theta_initial_variance",
    "c0_initial", "c0_initial_variance", "c0_process_noise", "c0_measurement_noise",
])
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_estimator_config_rejects_a_non_finite_filter_setting(name, bad):
    """An infinite filter setting used to run: no trip on the 90 ohm
    record, and NaN baseline, rs_hat or c0_hat."""
    with pytest.raises(ValueError, match=name):
        A64SEstimatorConfig(**{name: bad})


def test_infinite_smoothing_rate_bypasses_the_smoother():
    cfg, frames = _fault_record_90_ohm()
    trace = A64SEstimator(cfg, A64SEstimatorConfig(smoothing_rate=math.inf)).run(frames, 1000.0)
    assert trace.tripped and math.isfinite(trace.baseline)


def test_a64s_detect_refuses_a_nan_baseline():
    cfg = InsulationDetectorConfig(baseline_start=0, baseline_window=3)
    with pytest.raises(CalibrationError, match="nan"):
        _latch_states([math.nan] * 3, cfg)


# absolute floors for values that pass near 0: the filter starts at
# theta = 0, and the located position is an O(1) quantity
_ORACLE_ATOL = {"a0_hat": 1e-12, "kd_hat": 1e-12, "tau0_hat": 1e-15, "rs_hat": 1e-9,
                "c0_hat": 1e-18, "x_hat": 1e-12}


def test_estimator_matches_naive_matrix_oracle_through_a_trip():
    """The scalar kernel run() uses agrees with the numpy matrix form of
    the filter updates on a noisy record that trips, through the
    post-trip covariance reset and the locator, as recorded and with an
    invalid stretch between the baseline window and the fault."""
    cfg, frames = _fault_record_500_ohm()
    est = A64SEstimator(cfg)
    for invalid_stretch in (False, True):
        if invalid_stretch:
            frames = _invalid_stretch(frames)
        trace = est.run(frames, 1000.0)
        want, baseline = oracles.naive_a64s_run(
            frames.v_n.tolist(), frames.i_n.tolist(), frames.v_n60.tolist(),
            frames.valid.tolist(), 1000.0, cfg.turns_ratio, cfg.un, cfg.r_n_primary, cfg.f1,
            est.cfg)
        assert trace.tripped
        # the first valid sample after the stretch only primes the regression
        assert trace.valid[1400:1421] == (not invalid_stretch,) * 21
        for name, atol in _ORACLE_ATOL.items():
            np.testing.assert_allclose(getattr(trace, name), want[name], rtol=1e-9,
                                       atol=atol, err_msg=name)
        assert trace.trip.tolist() == want["trip"]
        assert list(trace.valid) == want["valid"]
        assert trace.first_trip_index == want["trip"].index(True)
        assert trace.baseline == pytest.approx(baseline, rel=1e-9)


_COLUMNS = ("a0_hat", "kd_hat", "tau0_hat", "rs_hat", "c0_hat", "x_hat", "trip", "valid")


def _assert_run_is_the_step_chain(est, frames, fs=1000.0):
    """run() gives the per-step oracle chain's eight columns and baseline
    bit for bit (float ==, so a last-digit change fails); returns the
    trace."""
    trace = est.run(frames, fs)
    want, baseline = oracles.stepwise_a64s_run(frames, fs, est.circuit, est.cfg)
    for name in _COLUMNS:
        assert np.asarray(getattr(trace, name)).tolist() == want[name], name
    assert trace.baseline == baseline
    return trace


def test_streaming_steps_reproduce_run_exactly():
    """Chaining the per-step kernels, with an invalid stretch mid-record,
    gives run()'s columns bit for bit: over a no-fault record, and over a
    faulted one through the trip, the post-trip reset and the locator."""
    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(cfg, [], duration=2.0, noise_std=0.01, seed=2)
    frames = _invalid_stretch(frames_from_timeseries(v, i, cfg))
    trace = _assert_run_is_the_step_chain(A64SEstimator(cfg), frames)
    assert not trace.tripped
    assert trace.x_hat.tolist() == [HEALTHY_SENTINEL] * len(trace.x_hat)

    cfg, frames = _fault_record_500_ohm()
    est = A64SEstimator(cfg)
    for record in (frames, _invalid_stretch(frames)):
        trace = _assert_run_is_the_step_chain(est, record)
        assert trace.tripped and trace.baseline is not None
        assert any(x != HEALTHY_SENTINEL for x in trace.x_hat)


def test_located_positions_are_locate_fault():
    """Every located sample of a tripped run is locate_fault of that
    sample's fault branch, undone from the parallel drop against the
    baseline, bit for bit: the estimator's inline locator is the oracle's
    closed-form divider inversion."""
    cfg, frames = _fault_record_500_ohm()
    trace = A64SEstimator(cfg).run(frames, 1000.0)
    located = [k for k, x in enumerate(trace.x_hat) if x != HEALTHY_SENTINEL]
    assert located and all(trace.trip[k] for k in located)
    for k in located:
        rs, c0 = trace.rs_hat[k], trace.c0_hat[k]
        rf = 1.0 / (1.0 / rs - 1.0 / trace.baseline)
        want = locate_fault(frames.v_n60[k], cfg.un, cfg.r_n_primary, rf, rf * max(c0, 0.0),
                            f1=cfg.f1)
        assert trace.x_hat[k] == want, k


def _exact_record(kd_values):
    """A record that steps the estimator below through kd_values exactly:
    per value a priming sample (v_n 0), an update sample (v_n the value,
    a regression vector of (-0, 1)) and an invalid sample that clears the
    regression memory."""
    v_n, i_n, valid = [], [], []
    for value in kd_values:
        v_n += [0.0, value, 0.0]
        i_n += [0.5, 0.5, 0.0]
        valid += [True, True, False]
    return SubharmonicFrames(v_n=v_n, i_n=i_n, v_n60=[1.0] * len(v_n), valid=valid)


def _exact_estimator(**c0):
    """An estimator whose kd gain stays 1 (p11 = 1 / 2 + 1 / 2), so that kd
    becomes each update's v_n and a0 stays 0: the resistance estimate,
    about 8 * kd ohms, is then a function of kd alone.  The first update
    sets the baseline, and one sample below half of it trips."""
    detector = InsulationDetectorConfig(baseline_start=0, baseline_window=1,
                                        drop_fraction=0.5, persistence=1)
    cfg = A64SEstimatorConfig(theta_process_noise=0.5, theta_measurement_noise=1.0,
                              theta_initial_variance=1.0, smoothing_rate=math.inf,
                              detector=detector, **c0)
    return A64SEstimator(Subharmonic64SConfig(), cfg)


def test_a_tripped_resistance_back_at_the_baseline_locates_nothing():
    """After a trip, an estimate equal to the baseline is no fault branch
    (its parallel undo would divide by zero): the sample keeps the
    sentinel."""
    est = _exact_estimator()
    trace = _assert_run_is_the_step_chain(est, _exact_record([1.0, 0.0, 1.0]))
    assert trace.baseline == 8.0 and trace.first_trip_index == 4
    assert trace.rs_hat.tolist() == [0.0, 8.0, 8.0, 8.0, 0.0, 0.0, 0.0, 8.0, 8.0]
    assert trace.x_hat.tolist() == [HEALTHY_SENTINEL] * 9


def test_a_negative_capacitance_estimate_locates_with_no_capacitance():
    """A c0 filter that overshoots below zero locates as if the winding had
    no capacitance: tau0_f is rf * max(c0, 0), not rf * |c0|."""
    est = _exact_estimator(c0_initial=1.0, c0_initial_variance=1.0, c0_process_noise=1.0,
                           c0_measurement_noise=1.0)
    trace = _assert_run_is_the_step_chain(est, _exact_record([1.0, 2.0**-10]))
    rs, c0 = trace.rs_hat[4], trace.c0_hat[4]
    assert trace.first_trip_index == 4 and trace.baseline == 8.0 and 0.0 < rs < 0.01
    assert c0 < -60.0
    rf = 1.0 / (1.0 / rs - 1.0 / 8.0)
    cfg = est.circuit
    assert trace.x_hat[4] == locate_fault(1.0, cfg.un, cfg.r_n_primary, rf, 0.0, f1=cfg.f1)
    assert trace.x_hat[4] != HEALTHY_SENTINEL


def test_a_resistance_at_the_drop_level_does_not_count():
    """The latch counts estimates strictly below drop_fraction of the
    baseline: 4 ohms against a baseline of 8 does not trip, 3.992 ohms
    does."""
    est = _exact_estimator()
    trace = _assert_run_is_the_step_chain(est, _exact_record([1.0, 0.5]))
    assert trace.baseline == 8.0 and trace.rs_hat[4] == 4.0
    assert not trace.tripped
    trace = _assert_run_is_the_step_chain(est, _exact_record([1.0, 0.499]))
    assert trace.rs_hat[4] < 4.0 and trace.first_trip_index == 4


@pytest.mark.parametrize("chunk", [1, 7, 1250, 4095])
def test_run_is_the_step_chain_at_any_chunk_size(monkeypatch, chunk):
    """The loop's chunks of used samples leave no trace in the columns:
    one sample per chunk, 7, exactly up to the seal of the default
    baseline (used sample 1250) and one short of the default size."""
    monkeypatch.setattr(a64s, "_CHUNK", chunk)
    cfg, frames = _fault_record_500_ohm()
    est = A64SEstimator(cfg)
    for record in (frames, _invalid_stretch(frames)):
        assert _assert_run_is_the_step_chain(est, record).tripped


@pytest.mark.parametrize("chunk", [3, 4])
def test_a_chunk_may_start_or_end_on_the_trip(monkeypatch, chunk):
    """Used samples 0-4 sit at frames 1, 4, 7, 10 and 13, and used sample
    3 trips.  The seal adds a stop at used sample 1; chunks of 3 then
    start on the trip, chunks of 4 end on it."""
    monkeypatch.setattr(a64s, "_CHUNK", chunk)
    trace = _assert_run_is_the_step_chain(_exact_estimator(),
                                          _exact_record([1.0, 1.0, 1.0, 0.0, 1.0]))
    assert trace.first_trip_index == 10
    assert trace.rs_hat[10:].tolist() == [0.0, 0.0, 0.0, 8.0, 8.0]


@pytest.mark.parametrize("valid", [[], [True], [True, False], [True, True], [False] * 5])
def test_a_record_too_short_to_step_holds_the_initial_state(valid):
    """Frames before the first used sample hold the filter's initial
    state (0, and c0_initial for the capacitance) and the sentinel; none
    of these records trips or arms the latch."""
    frames = SubharmonicFrames(v_n=[1.0] * len(valid), i_n=[0.5] * len(valid),
                               v_n60=[1.0] * len(valid), valid=valid)
    est = A64SEstimator(Subharmonic64SConfig())
    trace = _assert_run_is_the_step_chain(est, frames)
    # only the record of two valid frames steps one, its second
    held = len(valid) - (valid == [True, True])
    for name, fill in (("a0_hat", 0.0), ("kd_hat", 0.0), ("tau0_hat", 0.0), ("rs_hat", 0.0),
                       ("c0_hat", est.cfg.c0_initial)):
        assert getattr(trace, name)[:held].tolist() == [fill] * held, name
    assert trace.x_hat.tolist() == [HEALTHY_SENTINEL] * len(valid)
    assert not trace.tripped and trace.baseline is None


def test_an_estimate_that_overflows_after_the_seal_is_refused():
    """An infinite resistance estimate after the baseline is sealed used
    to run on without a word, never below the drop level; it now names
    the sample where the estimator diverged."""
    est = _exact_estimator()
    with pytest.raises(CalibrationError,
                       match=r"^the estimator diverged: resistance estimate inf at sample 4$"):
        est.run(_exact_record([1.0, 1e308, 1.0]), 1000.0)
    with pytest.raises(CalibrationError, match="diverged: resistance estimate inf at sample 4$"):
        oracles.stepwise_a64s_run(_exact_record([1.0, 1e308, 1.0]), 1000.0, est.circuit,
                                  est.cfg)
    cfg = InsulationDetectorConfig(baseline_start=0, baseline_window=3)
    with pytest.raises(CalibrationError, match="diverged: resistance estimate nan at sample 4$"):
        _latch_states([2500.0] * 4 + [math.nan], cfg)


@st.composite
def _short_records(draw):
    """A short random record with a random valid mask, and an estimator
    whose detector learns its baseline within a few used samples, so
    that trips and contaminated or non-positive baselines all occur."""
    n = draw(st.integers(2, 60))
    cell = st.floats(-5.0, 5.0, allow_nan=False)
    frames = SubharmonicFrames(
        v_n=draw(st.lists(cell, min_size=n, max_size=n)),
        i_n=draw(st.lists(cell, min_size=n, max_size=n)),
        v_n60=draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)),
        # mostly valid, so that most records arm the latch
        valid=draw(st.lists(st.sampled_from([True, True, True, False]), min_size=n,
                            max_size=n)))
    detector = InsulationDetectorConfig(
        baseline_start=draw(st.integers(0, 5)), baseline_window=draw(st.integers(1, 5)),
        drop_fraction=draw(st.sampled_from([0.2, 0.5, 0.9])),
        persistence=draw(st.integers(1, 3)))
    cfg = A64SEstimatorConfig(detector=detector,
                              smoothing_rate=draw(st.sampled_from([10.0, 500.0, math.inf])))
    return frames, A64SEstimator(Subharmonic64SConfig(), cfg)


@given(_short_records())
@settings(max_examples=300, deadline=None)
def test_run_is_the_step_chain_on_short_random_records(record):
    """run() raises CalibrationError exactly when the per-step chain does
    (with the same message) and otherwise matches it in every column and
    the baseline."""
    frames, est = record
    try:
        oracles.stepwise_a64s_run(frames, 1000.0, est.circuit, est.cfg)
    except CalibrationError as exc:
        with pytest.raises(CalibrationError) as got:
            est.run(frames, 1000.0)
        assert str(got.value) == str(exc)
        return
    _assert_run_is_the_step_chain(est, frames)


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
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    assert trace.tripped
    assert trace.first_trip_index is not None
    assert trace.first_trip_index - 1600 <= 500
    rs, _, _ = trace.final_estimates()
    rs_want = cfg.rs * rf / (cfg.rs + rf)
    assert rs == pytest.approx(rs_want, rel=0.05)
    assert trace.final_location() == pytest.approx(x, abs=0.05)


@pytest.mark.parametrize("tail", [0, -1, -250])
def test_final_summaries_refuse_an_empty_tail(tail):
    """A tail below one used to read as the whole record (0) or as the
    record less its first rows (negative)."""
    cfg, frames = _fault_record_90_ohm()
    trace = A64SEstimator(cfg).run(frames, 1000.0)
    with pytest.raises(ValueError, match="tail"):
        trace.final_estimates(tail)
    with pytest.raises(ValueError, match="tail"):
        trace.final_location(tail)


def test_final_summaries_are_the_medians_of_the_last_rows():
    """The summaries are the medians over the last tail used (or located)
    samples, also for a tail longer than the record."""
    cfg, frames = _fault_record_90_ohm()
    trace = A64SEstimator(cfg).run(frames, 1000.0)
    used = [k for k, ok in enumerate(trace.valid) if ok]
    located = [k for k, (x, t) in enumerate(zip(trace.x_hat, trace.trip))
               if t and x != HEALTHY_SENTINEL]
    assert len(located) > 10
    for tail in (1, 7, 250, 10**6):
        rows = used[-tail:]
        assert trace.final_estimates(tail) == tuple(
            float(np.median([column[k] for k in rows]))
            for column in (trace.rs_hat, trace.c0_hat, trace.tau0_hat))
        assert trace.final_location(tail) == float(
            np.median([trace.x_hat[k] for k in located[-tail:]]))


def test_pipeline_offline_replay_matches_online(tmp_path):
    """Writing the records to CSV and replaying them reproduces the
    verdict exactly; estimates agree to the fs re-inference rounding."""
    from statorguard.signalcore import ingest_csv, write_csv

    cfg = Subharmonic64SConfig()
    v, i = simulate_64s_timeseries(
        cfg, [FaultSpec(x=0.25, rf=90.0, t_on=1.6)], duration=2.5,
        noise_std=0.01, seed=3, speed_profile=lambda t: np.ones_like(t))
    online = A64SEstimator(cfg).run_timeseries(v, i)
    path = tmp_path / "rec.csv"
    write_csv(path, {"vn": v, "in": i})
    back = ingest_csv(path)
    offline = A64SEstimator(cfg).run_timeseries(back["vn"], back["in"])
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
    trace = A64SEstimator(cfg).run_timeseries(v, i)
    assert not trace.tripped
    rs_want = cfg.rs * 90.0 / (cfg.rs + 90.0)
    assert trace.baseline == pytest.approx(rs_want, rel=0.05)


@pytest.mark.parametrize("fs", [math.nan, -1.0, 0.0, math.inf])
def test_estimator_rejects_an_impossible_sample_rate(fs):
    frames = SubharmonicFrames(v_n=[0.0, 1.0], i_n=[0.0, 1.0], v_n60=[0.0, 0.0],
                               valid=[True, True])
    with pytest.raises(ValueError, match="fs"):
        A64SEstimator(Subharmonic64SConfig()).run(frames, fs)


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
