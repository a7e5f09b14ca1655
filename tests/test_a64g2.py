"""Adaptive and fixed third-harmonic ratio schemes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statorguard.a64g2 import (
    AdaptiveRatioDetector,
    Calibration64RAT,
    DetectorConfig,
    FixedRatioDetector,
    RatioKafState,
    SchemeTrace,
    calibrate_64rat,
    kaf_update,
    operate_restraint,
    ratio_step,
)
from statorguard.plantsim import HarmonicFrame

import oracles


def _frame(i, vp, vn, valid=True):
    return HarmonicFrame(t_index=i, v_p3=vp, v_n3=vn, valid=valid)


# ------------------------------------------------------------- ratio KAF

def test_kaf_update_worked_example():
    """One update from (rho=1, P=1, Q=0, R=1) on a frame (VP=1, VN=2)
    gives exactly P=0.5, K=0.5, rho=1.5."""
    state = RatioKafState(rho_hat=1.0, variance=1.0, process_noise=0.0,
                          measurement_noise=1.0)
    new, residual = kaf_update(state, _frame(0, 1.0, 2.0))
    assert new.variance == 0.5
    assert residual == 1.0
    assert new.rho_hat == 1.5


def test_kaf_update_rejects_invalid_frames():
    state = RatioKafState()
    with pytest.raises(ValueError):
        kaf_update(state, _frame(0, 1.0, 1.0, valid=False))
    with pytest.raises(ValueError):
        kaf_update(state, HarmonicFrame(t_index=0, v_p3=-1.0, v_n3=1.0))


def test_kaf_zero_terminal_voltage_is_inert():
    """A zero regressor cannot move the estimate and only grows the
    variance by the process noise."""
    state = RatioKafState(rho_hat=0.7, variance=2.0, process_noise=0.1,
                          measurement_noise=1.0)
    new, residual = kaf_update(state, _frame(0, 0.0, 5.0))
    assert new.rho_hat == 0.7
    assert new.variance == pytest.approx(2.1)
    assert residual == 5.0


@given(
    seed=st.integers(0, 2**31 - 1),
    rho_true=st.floats(0.2, 3.0),
    n_steps=st.integers(1, 40),
)
@settings(max_examples=60, deadline=None)
def test_kaf_with_zero_process_noise_equals_batch_least_squares(seed, rho_true, n_steps):
    """With Q=0 the ratio KAF is recursive least squares: its estimation
    error after any number of consistent frames matches the closed-form
    batch solution."""
    rng = np.random.default_rng(seed)
    vps = rng.uniform(0.5, 10.0, size=n_steps)
    state = RatioKafState(rho_hat=0.0, variance=4.0, process_noise=0.0,
                          measurement_noise=2.5)
    for i, vp in enumerate(vps):
        state, _ = kaf_update(state, _frame(i, float(vp), float(rho_true * vp)))
    want_err = oracles.batch_scalar_rls_error(0.0 - rho_true, vps, 4.0, 2.5)
    assert state.rho_hat - rho_true == pytest.approx(want_err, abs=1e-9)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_kaf_variance_stays_positive_and_monotone_without_process_noise(seed):
    rng = np.random.default_rng(seed)
    state = RatioKafState(variance=1.0, process_noise=0.0, measurement_noise=1e-4)
    prev = state.variance
    for i in range(50):
        state, _ = kaf_update(
            state, _frame(i, float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0))))
        assert 0.0 < state.variance <= prev + 1e-15
        prev = state.variance


def test_kaf_scale_invariance():
    """Scaling both channels by c and the measurement noise by c^2 leaves
    the ratio estimate path identical and scales residual energy by c^2."""
    rng = np.random.default_rng(12)
    frames = [(float(v), float(n)) for v, n in
              zip(rng.uniform(1, 5, 30), rng.uniform(1, 6, 30))]
    for c in (0.1, 3.0, 17.0):
        s_base = RatioKafState(rho_hat=0.5, variance=1.0, process_noise=1e-8,
                               measurement_noise=1e-4)
        s_scaled = RatioKafState(rho_hat=0.5, variance=1.0, process_noise=1e-8,
                                 measurement_noise=1e-4 * c * c)
        for i, (vp, vn) in enumerate(frames):
            s_base, r_base = kaf_update(s_base, _frame(i, vp, vn))
            s_scaled, r_scaled = kaf_update(s_scaled, _frame(i, c * vp, c * vn))
            assert s_scaled.rho_hat == pytest.approx(s_base.rho_hat, rel=1e-12)
            assert r_scaled == pytest.approx(c * r_base, rel=1e-9)


# --------------------------------------------------- operate / restraint

def test_operate_zero_through_window_prefix():
    """The operate energy is identically zero until a full window of
    post-start residuals exists; the restraint accumulates from the
    first frame."""
    cfg = DetectorConfig(window=12, sensitivity=0.005)
    rng = np.random.default_rng(0)
    residuals = list(rng.uniform(-2, 2, 40))
    vns = list(rng.uniform(1, 3, 40))
    for t in range(40):
        lo = max(0, t - cfg.window)
        jao, jar = operate_restraint(residuals[lo: t + 1], vns[lo: t + 1], cfg, t)
        if t <= cfg.window:
            assert jao == 0.0
            assert jar == pytest.approx(oracles.windowed_energy(vns, t, t))
        else:
            assert jao == pytest.approx(
                oracles.windowed_energy(residuals, cfg.window, t))
            assert jar == pytest.approx(
                oracles.windowed_energy(vns, cfg.window, t))


def test_two_sample_crossover_never_trips():
    """An operate/restraint crossing that lasts only two frames is shorter
    than the persistence count and never latches a trip."""
    det = FixedRatioDetector(ratio=1.0,
                             cfg=DetectorConfig(window=12, sensitivity=0.005))
    frames = [_frame(i, 10.0, 10.0) for i in range(60)]
    # two frames of residual 4 push J_AO over beta*J_AR ...
    frames += [_frame(i, 10.0, 14.0) for i in (60, 61)]
    # ... then a much larger healthy signal swells the restraint, ending
    # the crossing while the burst is still inside the operate window
    frames += [_frame(i, 100.0, 100.0) for i in range(62, 140)]
    trace = det.run(frames, fs=1000.0)
    crossing = [jao > 0.005 * jar
                for jao, jar in zip(trace.operate, trace.restraint)]
    assert crossing[60] and crossing[61]
    assert sum(crossing) == 2
    assert not trace.tripped


def test_step_change_trips_after_persistence_count():
    """A sustained ratio step trips exactly `window` frames after the
    threshold crossing when the crossing is immediate."""
    cfg = DetectorConfig(window=12, sensitivity=0.005)
    det = AdaptiveRatioDetector(
        cfg=cfg, process_noise=0.0, measurement_noise=1e-4, rho0=1.0)
    onset = 60
    frames = [_frame(i, 1.0, 1.0 if i < onset else 3.0) for i in range(120)]
    # nearly frozen gain: rho_hat stays ~1, every post-onset residual ~2
    det.process_noise = 0.0
    trace = det.run(frames, fs=1000.0, onset_index=onset)
    assert trace.tripped
    assert trace.first_trip_index == onset + cfg.window - 1


def test_trip_latches():
    cfg = DetectorConfig(window=12, sensitivity=0.005)
    det = AdaptiveRatioDetector(cfg=cfg, process_noise=0.0,
                                measurement_noise=1e-4, rho0=1.0)
    frames = [_frame(i, 1.0, 1.0 if i < 40 else 3.0) for i in range(80)]
    frames += [_frame(i, 1.0, 1.0) for i in range(80, 160)]
    trace = det.run(frames, fs=1000.0)
    assert trace.tripped
    assert trace.trip[-1]  # still tripped after conditions clear


def test_invalid_frames_freeze_the_detector():
    cfg = DetectorConfig(window=12, sensitivity=0.005)
    det = AdaptiveRatioDetector(cfg=cfg, rho0=1.0)
    frames = [_frame(i, 1.0, 1.0) for i in range(40)]
    frames += [_frame(i, 0.01, 5.0, valid=False) for i in range(40, 80)]
    frames += [_frame(i, 1.0, 1.0) for i in range(80, 140)]
    trace = det.run(frames, fs=1000.0)
    assert not trace.tripped
    rho = np.array(trace.rho_hat)
    assert np.allclose(rho[45:75], rho[39])  # held during the blocked stretch


@pytest.mark.parametrize("detector", [
    AdaptiveRatioDetector(cfg=DetectorConfig(window=12, sensitivity=0.005)),
    FixedRatioDetector(ratio=1.0, cfg=DetectorConfig(window=12, sensitivity=0.005)),
])
def test_streaming_steps_match_batch_run(detector):
    frames = [_frame(i, 1.0, 1.0, valid=i % 7 != 3) for i in range(60)]
    frames += [_frame(i, 1.0, 2.5) for i in range(60, 120)]
    batch = detector.run(frames, fs=1000.0)
    assert batch.tripped
    state = detector.new_state()
    streamed = SchemeTrace(scheme=batch.scheme, fs=1000.0, sensitivity=batch.sensitivity)
    for frame in frames:
        ratio_step(state, frame, streamed)
    assert streamed == batch


def test_first_valid_frame_seeds_ratio():
    det = AdaptiveRatioDetector(cfg=DetectorConfig(window=12, sensitivity=0.005))
    frames = [_frame(0, 2.0, 3.0)] + [_frame(i, 2.0, 3.0) for i in range(1, 30)]
    trace = det.run(frames, fs=1000.0)
    assert trace.rho_hat[0] == pytest.approx(1.5)
    assert not trace.tripped


# ------------------------------------------------------------ calibration

def test_calibrate_least_squares_slope_and_guard():
    points = [(1.0, 0.3), (2.0, 1.0)]
    cal = calibrate_64rat(points, guard=0.2)
    want_ratio = (1.0 * 0.3 + 2.0 * 1.0) / (1.0 + 4.0)
    assert cal.ratio == pytest.approx(want_ratio)
    devs = [abs(0.3 / 1.0 - cal.ratio), abs(1.0 / 2.0 - cal.ratio)]
    assert cal.beta_ng == pytest.approx(1.2 * max(devs) / cal.ratio)
    assert cal.threshold == pytest.approx(cal.beta_ng**2)


def test_calibrate_collinear_points_give_zero_guard():
    points = [(1.0, 0.7), (2.0, 1.4), (3.0, 2.1)]
    cal = calibrate_64rat(points, guard=0.2)
    assert cal.ratio == pytest.approx(0.7)
    assert cal.beta_ng == pytest.approx(0.0, abs=1e-12)


def test_calibrate_input_validation():
    with pytest.raises(ValueError):
        calibrate_64rat([(1.0, 0.5)])
    with pytest.raises(ValueError):
        calibrate_64rat([(0.0, 0.5), (0.0, 0.7)])
    with pytest.raises(ValueError):
        calibrate_64rat([(1.0, -0.5), (2.0, -0.7)])


def test_fixed_detector_uses_threshold_from_calibration():
    cal = Calibration64RAT(ratio=1.2, beta_ng=0.15)
    det = FixedRatioDetector.from_calibration(cal, window=12)
    frames = [_frame(i, 1.0, 1.2) for i in range(60)]
    trace = det.run(frames, fs=1000.0)
    assert not trace.tripped
    assert trace.scheme == "ng64g2"
    # a sustained deviation just past the guard band trips
    bad = [_frame(i, 1.0, 1.2 * (1.0 + 1.3 * 0.15)) for i in range(60, 140)]
    trace2 = det.run(frames + bad, fs=1000.0, onset_index=60)
    assert trace2.tripped


def test_fixed_scheme_margin_scales_with_guard():
    """Halving beta_ng quadruples the operate/restraint margin."""
    frames = [_frame(i, 1.0, 1.25) for i in range(80)]
    m = []
    for beta in (0.2, 0.1):
        det = FixedRatioDetector.from_calibration(
            Calibration64RAT(ratio=1.2, beta_ng=beta), window=12)
        m.append(det.run(frames, fs=1000.0).margin())
    assert m[1] == pytest.approx(4.0 * m[0], rel=1e-9)


# ----------------------------------------------------------------- traces

def test_trace_csv_roundtrip(tmp_path):
    from statorguard.a64g2 import write_trace_csv

    det = AdaptiveRatioDetector(cfg=DetectorConfig(window=12, sensitivity=0.005))
    frames = [_frame(i, 2.0, 2.2) for i in range(40)]
    trace = det.run(frames, fs=1000.0)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,VP3,VN3,rho_hat,residual,JAO,JAR,trip"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 2.0


def test_margin_handles_zero_restraint():
    det = AdaptiveRatioDetector(cfg=DetectorConfig(window=12, sensitivity=0.005))
    frames = [_frame(i, 0.0, 0.0, valid=False) for i in range(20)]
    trace = det.run(frames, fs=1000.0)
    assert trace.margin() == 0.0
