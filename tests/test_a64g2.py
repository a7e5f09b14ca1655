"""Adaptive and fixed third-harmonic ratio schemes."""

import dataclasses
import functools
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statorguard import a64g2
from statorguard.a64g2 import (
    AdaptiveRatioDetector,
    Calibration64RAT,
    DetectorConfig,
    FixedRatioDetector,
    calibrate_64rat,
    restraint_column,
)
from statorguard.plantsim import (
    DisturbanceSpec,
    FaultSpec,
    HarmonicFrames,
    MachineConfig,
    simulate_64g2_scenario,
)

import oracles


def _frame(i, vp, vn, valid=True):
    """One frame row (t_index, v_p3, v_n3, valid)."""
    return i, vp, vn, valid


def _frames(rows):
    """Column frames from rows whose t_index is their position."""
    t_index, vp, vn, valid = (list(col) for col in zip(*rows))
    assert t_index == list(range(len(rows)))
    return HarmonicFrames(v_p3=vp, v_n3=vn, valid=valid)


def _columns(frames):
    """The frames' columns as Python floats and bools, as the oracles
    read them."""
    return frames.v_p3.tolist(), frames.v_n3.tolist(), frames.valid.tolist()


# ------------------------------------------------------------- ratio KAF

def _kaf_step(rho_hat, variance, process_noise, measurement_noise, v_p3, v_n3):
    """One frame of a64g2._kaf_track: the new ratio, variance and innovation."""
    ratios, residuals = [], []
    variance = a64g2._kaf_track(rho_hat, variance, process_noise, measurement_noise,
                                [v_p3], [v_n3], ratios, residuals)
    return ratios[0], variance, residuals[0]


def test_kaf_update_worked_example():
    """One update from (rho=1, P=1, Q=0, R=1) on a frame (VP=1, VN=2)
    gives exactly P=0.5, K=0.5, rho=1.5."""
    rho_hat, variance, residual = _kaf_step(1.0, 1.0, 0.0, 1.0, 1.0, 2.0)
    assert variance == 0.5
    assert residual == 1.0
    assert rho_hat == 1.5


def test_kaf_update_rejects_invalid_frames(monkeypatch):
    """A negative magnitude is refused where its frames are built, so
    neither the ratio filter nor the restraint column takes it in."""
    steps = []
    monkeypatch.setattr(a64g2, "_kaf_track", lambda *args: steps.append(args))
    rows = [_frame(0, -1.0, 1.0)] + [_frame(i, 1.0, 1.0) for i in range(1, 5)]
    with pytest.raises(ValueError, match="finite and >= 0"):
        AdaptiveRatioDetector().run(_frames(rows), fs=1000.0)
    with pytest.raises(ValueError, match="finite and >= 0"):
        restraint_column(_frames(rows), 12)
    assert steps == []


def test_kaf_zero_terminal_voltage_is_inert():
    """A zero regressor cannot move the estimate and only grows the
    variance by the process noise."""
    rho_hat, variance, residual = _kaf_step(0.7, 2.0, 0.1, 1.0, 0.0, 5.0)
    assert rho_hat == 0.7
    assert variance == pytest.approx(2.1)
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
    rho_hat, variance = 0.0, 4.0
    for vp in vps:
        rho_hat, variance, _ = _kaf_step(rho_hat, variance, 0.0, 2.5,
                                               float(vp), float(rho_true * vp))
    want_err = oracles.batch_scalar_rls_error(0.0 - rho_true, vps, 4.0, 2.5)
    assert rho_hat - rho_true == pytest.approx(want_err, abs=1e-9)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_kaf_variance_stays_positive_and_monotone_without_process_noise(seed):
    rng = np.random.default_rng(seed)
    rho_hat, variance = 0.5, 1.0
    for i in range(50):
        prev = variance
        rho_hat, variance, _ = _kaf_step(
            rho_hat, variance, 0.0, 1e-4,
            float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 5.0)))
        assert 0.0 < variance <= prev + 1e-15


def test_kaf_scale_invariance():
    """Scaling both channels by c and the measurement noise by c^2 leaves
    the ratio estimate path identical and scales residual energy by c^2."""
    rng = np.random.default_rng(12)
    frames = [(float(v), float(n)) for v, n in
              zip(rng.uniform(1, 5, 30), rng.uniform(1, 6, 30))]
    for c in (0.1, 3.0, 17.0):
        base = scaled = (0.5, 1.0)
        for vp, vn in frames:
            *base, r_base = _kaf_step(*base, 1e-8, 1e-4, vp, vn)
            *scaled, r_scaled = _kaf_step(*scaled, 1e-8, 1e-4 * c * c, c * vp, c * vn)
            assert scaled[0] == pytest.approx(base[0], rel=1e-12)
            assert r_scaled == pytest.approx(c * r_base, rel=1e-9)


# --------------------------------------------------- operate / restraint

def test_operate_zero_through_window_prefix():
    """The operate energy is identically zero through the first L frames
    and then sums the squared residuals of the last L+1; the restraint
    accumulates from the first frame."""
    cfg = DetectorConfig(window=12, sensitivity=0.005)
    rng = np.random.default_rng(0)
    vps = list(rng.uniform(1, 3, 40))
    vns = list(rng.uniform(1, 3, 40))
    residuals = [vn - vp for vp, vn in zip(vps, vns)]
    frames = HarmonicFrames(v_p3=vps, v_n3=vns, valid=[True] * 40)
    trace = FixedRatioDetector(ratio=1.0, cfg=cfg).run(frames, fs=1000.0)
    assert trace.restraint.tolist() == restraint_column(frames, cfg.window).tolist()
    for t, (jao, jar) in enumerate(zip(trace.operate, trace.restraint)):
        if t < cfg.window:
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
    trace = det.run(_frames(frames), fs=1000.0)
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
    trace = det.run(_frames(frames), fs=1000.0, onset_index=onset)
    assert trace.tripped
    assert trace.first_trip_index == onset + cfg.window - 1


def test_trip_latches():
    cfg = DetectorConfig(window=12, sensitivity=0.005)
    det = AdaptiveRatioDetector(cfg=cfg, process_noise=0.0,
                                measurement_noise=1e-4, rho0=1.0)
    frames = [_frame(i, 1.0, 1.0 if i < 40 else 3.0) for i in range(80)]
    frames += [_frame(i, 1.0, 1.0) for i in range(80, 160)]
    trace = det.run(_frames(frames), fs=1000.0)
    assert trace.tripped
    assert trace.trip[-1]  # still tripped after conditions clear


def test_invalid_frames_freeze_the_detector():
    cfg = DetectorConfig(window=12, sensitivity=0.005)
    det = AdaptiveRatioDetector(cfg=cfg, rho0=1.0)
    frames = [_frame(i, 1.0, 1.0) for i in range(40)]
    frames += [_frame(i, 0.01, 5.0, valid=False) for i in range(40, 80)]
    frames += [_frame(i, 1.0, 1.0) for i in range(80, 140)]
    trace = det.run(_frames(frames), fs=1000.0)
    assert not trace.tripped
    rho = np.array(trace.rho_hat)
    assert np.allclose(rho[45:75], rho[39])  # held during the blocked stretch


@functools.cache
def _record(name):
    if name == "gen_stop_chatter":
        # the security sweep's gen_stop record at seed 48: minimum-signal
        # supervision chatters around 1.48 s and the adaptive scheme trips there
        return simulate_64g2_scenario(
            MachineConfig(), None, [DisturbanceSpec(kind="gen_stop", t_on=0.5, t_off=5.5)],
            duration=6.0, seed=221267776)
    return simulate_64g2_scenario(MachineConfig(), FaultSpec(x=0.1, rf=200.0, t_on=0.3),
                                  duration=1.0, seed=3)


@pytest.mark.parametrize("record", ["gen_stop_chatter", "fault"])
@pytest.mark.parametrize("cfg,settings", [
    (DetectorConfig(), dict(process_noise=1e-8, measurement_noise=1e-4,
                            initial_variance=1.0, rho0=None)),
    (DetectorConfig(window=8, persistence=3), dict(process_noise=1e-6, measurement_noise=1e-3,
                                                   initial_variance=0.5, rho0=1.1)),
    (DetectorConfig(sensitivity=0.155**2), dict(ratio=1.233)),
], ids=["adaptive", "adaptive_rho0", "fixed"])
def test_ratio_schemes_match_naive_oracle_exactly(record, cfg, settings):
    """Every trace column equals the longhand per-frame arithmetic, on a
    record whose supervision chatters and on one whose fault trips."""
    sim = _record(record)
    frames = sim.frames
    flips = sum(a and not b for a, b in zip(frames.valid, frames.valid[1:]))
    assert flips >= 3 if record == "gen_stop_chatter" else flips == 0
    columns = (*_columns(frames), cfg.window, cfg.sensitivity, cfg.hold)
    if "ratio" in settings:
        trace = FixedRatioDetector(cfg=cfg, **settings).run(frames, sim.fs)
        want = oracles.naive_ratio_run(*columns, ratio=settings["ratio"])
    else:
        trace = AdaptiveRatioDetector(cfg=cfg, **settings).run(frames, sim.fs)
        want = oracles.naive_ratio_run(*columns, ratio=settings["rho0"], kaf=(
            settings["process_noise"], settings["measurement_noise"],
            settings["initial_variance"]))
    assert trace.tripped or record == "gen_stop_chatter"
    for name, column in want.items():
        assert getattr(trace, name).tolist() == column, name
    assert trace.t_index == range(len(frames))
    assert trace.v_p3 is frames.v_p3 and trace.v_n3 is frames.v_n3
    assert trace.valid == tuple(frames.valid.tolist())


# from subnormal to about 1e150, whose squares still sum without overflow
_magnitude = st.floats(min_value=0.0, max_value=1e150)


@st.composite
def _settings(draw):
    window = draw(st.integers(min_value=2, max_value=20))
    return DetectorConfig(window=window, persistence=draw(st.integers(1, window)))


@settings(max_examples=80, deadline=None)
@given(
    fixed=st.booleans(),
    cfg=_settings(),
    prefix=st.integers(min_value=1, max_value=8),
    middle=st.lists(st.tuples(_magnitude, _magnitude, st.booleans()), min_size=1, max_size=60),
)
def test_run_matches_naive_oracle_in_every_column_margin_and_peak(fixed, cfg, prefix, middle):
    """The batch run equals the longhand oracle in every column, margin
    and peak frame included: an all-invalid prefix (zero restraint),
    invalid frames in the middle, and a sustained deviation that trips."""
    if fixed:
        detector, kaf = FixedRatioDetector(ratio=1.0, cfg=cfg), None
    else:
        detector, kaf = AdaptiveRatioDetector(cfg=cfg, process_noise=0.0, rho0=1.0), (
            0.0, 1e-4, 1.0)
    rows = [(0.0, 0.0, False)] * prefix + middle + [(1.0, 1.0, True)] * 20
    rows += [(1.0, 3.0, i % 5 != 2) for i in range(40)]
    frames = _frames([_frame(i, *row) for i, row in enumerate(rows)])
    trace = detector.run(frames, fs=1000.0)
    assert trace.tripped and trace.restraint[:prefix].tolist() == [0.0] * prefix
    want = oracles.naive_ratio_run(*_columns(frames), cfg.window, cfg.sensitivity, cfg.hold,
                                   ratio=1.0, kaf=kaf)
    for name, column in want.items():
        assert getattr(trace, name).tolist() == column, name
    assert trace.t_index == range(len(rows))
    assert trace.v_p3 is frames.v_p3 and trace.v_n3 is frames.v_n3
    assert trace.valid == tuple(frames.valid.tolist())
    peak = oracles.naive_margin(trace)
    assert trace.margin() == peak
    # an invalid frame repeats an earlier frame's energies, so the first
    # frame at the peak is a valid one
    ratios = [oracles.margin_at(jao, cfg.sensitivity * jar) if jar > 0.0 else 0.0
              for jao, jar in zip(trace.operate.tolist(), trace.restraint.tolist())]
    assert trace.margin_index == ratios.index(peak)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.one_of(_magnitude, st.floats(0.0, 1e300), st.sampled_from(
    [0.0, 1.0, 0.25, 2.0**-54, 2.0**-53, 5e-324, 1e-320, 1e308, sys.float_info.max,
     math.inf])), max_size=40),
    width=st.integers(1, 21))
def test_window_sums_are_left_to_right_sums_of_every_window(values, width):
    """Every window, those that sum past the float range to inf
    included, is summed as the oracle's loop sums it."""
    got = a64g2._window_sums(np.array(values, dtype=float), width)
    want = [oracles.sum_left_to_right(values[j:j + width])
            for j in range(len(values) - width + 1)]
    assert got.tolist() == want


def test_window_sums_round_after_every_addition():
    """1 + 2**-53 is a tie that rounds to even, 1.0, and so does adding
    the second 2**-53; fsum (and the builtin sum from Python 3.12 on)
    rounds the exact sum once, to 1 + 2**-52.  A restraint window of
    1 and four 2**-54 squares sums as the kernel's windows do."""
    values = [1.0, 2.0**-53, 2.0**-53]
    assert a64g2._window_sums(np.array(values), 3).tolist() == [1.0]
    assert oracles.sum_left_to_right(values) == 1.0
    assert math.fsum(values) == 1.0 + 2.0**-52
    frames = _frames([_frame(i, 1.0, vn) for i, vn in enumerate([1.0] + [2.0**-27] * 4)])
    column = restraint_column(frames, 4)
    assert column.tolist() == [1.0] * 5
    assert column.tolist() == oracles.naive_ratio_run(*_columns(frames), 4, 0.005, 4,
                                                      ratio=1.0)["restraint"]


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("channel", ["v_p3", "v_n3"])
@pytest.mark.parametrize("magnitude", [1e154, 1e155, 1e200])
def test_an_overflowing_energy_raises_what_the_oracle_raises(fixed, channel, magnitude):
    """A neutral magnitude whose square overflows, or whose window of
    squares does, makes the restraint infinite, which both refuse at its
    first frame (the fixed scheme used to go blind on it, margin 0.0); a
    terminal magnitude whose square overflows raises the filter's
    OverflowError; any other overflow runs on to the oracle's inf and NaN
    energies."""
    cfg = DetectorConfig(window=3, persistence=2)
    rows = [(1.0, 1.2)] * 6 + [(magnitude, 1.2) if channel == "v_p3" else (1.0, magnitude)] * 2
    rows += [(1.0, 1.2)] * 6
    frames = _frames([_frame(i, *row) for i, row in enumerate(rows)])
    kaf = None if fixed else (1e-8, 1e-4, 1.0)
    detector = (FixedRatioDetector(ratio=1.2, cfg=cfg) if fixed
                else AdaptiveRatioDetector(cfg=cfg, rho0=1.2))
    columns = (*_columns(frames), cfg.window, cfg.sensitivity, cfg.hold)
    if channel == "v_n3":
        # 1e154 squares to 1e308, and two of them sum past the float range
        frame = 6 if magnitude * magnitude == math.inf else 7
        refusal = f"^restraint must be finite and >= 0, got inf at frame {frame}$"
        with pytest.raises(ValueError, match=refusal):
            oracles.naive_ratio_run(*columns, ratio=1.2, kaf=kaf)
        with pytest.raises(ValueError, match=refusal):
            detector.run(frames, fs=1000.0)
        return
    try:
        want = oracles.naive_ratio_run(*columns, ratio=1.2, kaf=kaf)
    except ArithmeticError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            detector.run(frames, fs=1000.0)
        return
    trace = detector.run(frames, fs=1000.0)
    for name, column in want.items():
        np.testing.assert_array_equal(getattr(trace, name), column, err_msg=name)


def test_an_operate_window_that_overflows_runs_on_to_a_later_filter_overflow():
    """Frame 2's operate window sums past the float range to inf, which
    raises nothing; frame 3's terminal magnitude squares past it in the
    ratio filter, whose OverflowError kernel and oracle both raise."""
    rows = [(1.0, 7e153), (1.0, 5e153), (1.0, 7e153), (1e155, 0.0), (1.0, 1.0)]
    cfg = DetectorConfig(window=2)
    kaf = (1e-4, 1e-4, 1.0)
    detector = AdaptiveRatioDetector(cfg=cfg, process_noise=1e-4, rho0=1.2)
    head = _frames([_frame(i, *row) for i, row in enumerate(rows[:3])])
    want = oracles.naive_ratio_run(*_columns(head), cfg.window, cfg.sensitivity, cfg.hold,
                                   ratio=1.2, kaf=kaf)
    assert want["operate"] == [0.0, 0.0, math.inf]
    assert detector.run(head, fs=1000.0).operate.tolist() == want["operate"]
    frames = _frames([_frame(i, *row) for i, row in enumerate(rows)])
    overflow = r"^\(34, 'Numerical result out of range'\)$"
    with pytest.raises(OverflowError, match=overflow):
        oracles.naive_ratio_run(*_columns(frames), cfg.window, cfg.sensitivity, cfg.hold,
                                ratio=1.2, kaf=kaf)
    with pytest.raises(OverflowError, match=overflow):
        detector.run(frames, fs=1000.0)


def test_the_adaptive_filter_starts_at_one_half_on_a_zero_terminal_magnitude():
    """Without rho0 the filter starts at the first valid frame's own
    ratio, or at 0.5 where that frame's V_P3 is 0; a zero V_P3 leaves the
    ratio as it is for that step."""
    rows = [(2.0, 1.0, False), (0.0, 0.3, True)] + [(1.0, 1.2, True)] * 6
    frames = _frames([_frame(i, *row) for i, row in enumerate(rows)])
    cfg = DetectorConfig(window=3)
    kaf = (1e-8, 1e-4, 1.0)
    trace = AdaptiveRatioDetector(cfg=cfg).run(frames, fs=1000.0)
    assert trace.rho_hat[:2].tolist() == [0.0, 0.5]
    want = oracles.naive_ratio_run(*_columns(frames), cfg.window, cfg.sensitivity, cfg.hold,
                                   ratio=None, kaf=kaf)
    for name, column in want.items():
        assert getattr(trace, name).tolist() == column, name


def test_the_ratio_filter_squares_the_terminal_magnitude_as_python_does():
    """At 1.01808, Python's vp**2 (libm pow) is 1.0364868864000003 where
    numpy's square and vp*vp give 1.0364868864, and on this record the
    two squares give different ratios from the first frame on; the
    adaptive trace is the oracle's bit for bit, so the filter steps on
    Python floats."""
    vp = 1.01808
    cfg = DetectorConfig(window=3)
    v_n3 = [0.68, 1.64, 1.21, 1.07, 0.81, 1.23, 1.84, 1.08, 1.41, 1.65, 1.54, 0.9]
    frames = _frames([_frame(i, vp, vn) for i, vn in enumerate(v_n3)])
    detector = AdaptiveRatioDetector(cfg=cfg, process_noise=1e-6, measurement_noise=1e-3,
                                     rho0=1.0)
    trace = detector.run(frames, fs=1000.0)
    want = oracles.naive_ratio_run(*_columns(frames), cfg.window, cfg.sensitivity, cfg.hold,
                                   ratio=1.0, kaf=(1e-6, 1e-3, 1.0))
    for name, column in want.items():
        assert getattr(trace, name).tolist() == column, name


@pytest.mark.parametrize("fixed", [True, False], ids=["fixed", "adaptive"])
def test_a_record_without_a_valid_frame_matches_the_oracle(fixed):
    cfg = DetectorConfig(window=3)
    frames = _frames([_frame(i, 1.0 + i, 2.0, False) for i in range(8)])
    detector = FixedRatioDetector(ratio=1.2, cfg=cfg) if fixed else AdaptiveRatioDetector(cfg=cfg)
    trace = detector.run(frames, fs=1000.0)
    want = oracles.naive_ratio_run(*_columns(frames), cfg.window, cfg.sensitivity, cfg.hold,
                                   ratio=1.2 if fixed else None,
                                   kaf=None if fixed else (1e-8, 1e-4, 1.0))
    for name, column in want.items():
        assert getattr(trace, name).tolist() == column, name
    assert trace.rho_hat.tolist() == [1.2 if fixed else 0.0] * 8
    assert (trace.margin(), trace.margin_index, trace.first_trip_index) == (0.0, None, None)


def test_margin_index_is_the_first_frame_at_the_peak():
    """Frames 5 to 7 all reach the peak (6 is invalid and repeats 5, 7
    has the same energies again); the first of them is kept."""
    det = FixedRatioDetector(ratio=1.0, cfg=DetectorConfig(window=2, sensitivity=0.5))
    rows = [(1.0, 1.0, False), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 2.0), (1.0, 2.0),
            (1.0, 2.0, False), (1.0, 1.0)]
    trace = det.run(_frames([_frame(i, *row) for i, row in enumerate(rows)]), fs=1000.0)
    ratios = [jao / (0.5 * jar) if jar > 0 else 0.0
              for jao, jar in zip(trace.operate.tolist(), trace.restraint.tolist())]
    assert trace.margin() == max(ratios) == oracles.naive_margin(trace)
    assert [i for i, r in enumerate(ratios) if r == max(ratios)] == [5, 6, 7]
    assert trace.margin_index == 5


def test_margin_is_infinite_when_sensitivity_times_restraint_underflows():
    det = FixedRatioDetector(ratio=1.0, cfg=DetectorConfig(window=2,
                                                          sensitivity=sys.float_info.min))
    trace = det.run(_frames([_frame(i, 1e-9, 2e-9) for i in range(6)]), fs=1000.0)
    assert trace.restraint[-1] > 0.0
    assert trace.margin() == math.inf and trace.margin_index == 0


def test_batch_run_checks_every_magnitude_before_writing_a_row(monkeypatch):
    """A bad magnitude in the middle of a record stops run() before the
    scheme loop writes any trace row."""
    calls = []
    monkeypatch.setattr(a64g2, "_advance", lambda *args: calls.append(args))
    rows = [_frame(i, 1.0, 1.0) for i in range(10)] + [_frame(10, 1.0, math.nan)]
    rows += [_frame(i, 1.0, 1.0) for i in range(11, 20)]
    for detector in (AdaptiveRatioDetector(), FixedRatioDetector(ratio=1.0)):
        with pytest.raises(ValueError, match="finite"):
            detector.run(_frames(rows), fs=1000.0)
    with pytest.raises(ValueError, match="finite"):
        restraint_column(_frames(rows), 12)
    assert calls == []


def test_run_reads_a_given_restraint_column():
    frames = _frames([_frame(i, 1.0, 1.0 + 0.01 * i, i % 4 != 1) for i in range(40)])
    restraint = restraint_column(frames, 12)
    for detector in (AdaptiveRatioDetector(), FixedRatioDetector(ratio=1.0)):
        assert oracles.plain_fields(detector.run(frames, fs=1000.0, restraint=restraint)) == (
            oracles.plain_fields(detector.run(frames, fs=1000.0)))
        with pytest.raises(ValueError, match="one value per frame"):
            detector.run(frames, fs=1000.0, restraint=restraint[:-1])


@functools.cache
def _bolted_terminal_fault():
    return simulate_64g2_scenario(MachineConfig(), FaultSpec(x=0.0, rf=50.0, t_on=0.5),
                                  duration=1.0, seed=0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("scheme", ["adaptive", "fixed"])
def test_run_refuses_a_restraint_column_that_is_not_finite_and_non_negative(scheme, bad):
    """A NaN or infinite column used to blind the scheme (a bolted
    terminal fault reported no trip and margin 0.0), a negative one to
    trip it with margin 0.0; the column is refused, by name and frame."""
    sim = _bolted_terminal_fault()
    detector = AdaptiveRatioDetector() if scheme == "adaptive" else FixedRatioDetector(ratio=1.2)
    restraint = list(restraint_column(sim.frames, 12))
    own = detector.run(sim.frames, sim.fs, restraint=restraint)
    assert own.tripped and own.margin() > 100.0
    restraint[600] = bad
    with pytest.raises(ValueError, match=rf"^restraint must be finite and >= 0, got "
                                         rf"{bad!r} at frame 600$"):
        detector.run(sim.frames, sim.fs, restraint=restraint)
    with pytest.raises(ValueError, match="^restraint must be finite and >= 0"):
        detector.run(sim.frames, sim.fs, restraint=[bad] * len(sim.frames))


@pytest.mark.parametrize("sensitivity", [math.nan, math.inf, 1e-320, 0.0, -0.1])
def test_detector_config_rejects_a_sensitivity_that_cannot_trip_or_overflows(sensitivity):
    # a NaN or infinite sensitivity never trips; a subnormal one makes
    # operate/(sensitivity*restraint) overflow
    with pytest.raises(ValueError, match="sensitivity"):
        DetectorConfig(sensitivity=sensitivity)


@pytest.mark.parametrize("ratio", [math.inf, math.nan, 0.0])
def test_fixed_detector_rejects_an_impossible_ratio(ratio):
    with pytest.raises(ValueError, match="ratio"):
        FixedRatioDetector(ratio=ratio)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_ratio_schemes_reject_bad_magnitudes(bad):
    """A non-finite or negative magnitude on either channel is an error
    before both schemes' batch run and the restraint column, valid or
    not: its frames cannot be built."""
    detectors = (AdaptiveRatioDetector(), FixedRatioDetector(ratio=1.0))
    for vp, vn in ((bad, 1.0), (1.0, bad)):
        for valid in (True, False):
            rows = [_frame(0, 1.0, 1.0), _frame(1, vp, vn, valid)]
            for detector in detectors:
                with pytest.raises(ValueError):
                    detector.run(_frames(rows), fs=1000.0)
            with pytest.raises(ValueError):
                restraint_column(_frames(rows), 12)


def test_harmonic_frames_reject_columns_of_unequal_length():
    with pytest.raises(ValueError):
        HarmonicFrames(v_p3=[1.0, 1.0], v_n3=[1.0], valid=[True, True])
    with pytest.raises(ValueError):
        HarmonicFrames(v_p3=[1.0], v_n3=[1.0], valid=[True, True])
    assert len(_frames([_frame(0, 1.0, 1.0), _frame(1, 1.0, 1.0)])) == 2


def test_harmonic_frames_cannot_change_after_construction():
    """Shortening a column after construction used to truncate the run
    silently (900 frames, 250 trip rows, no trip); the record now refuses
    every change, and the trace shares its columns."""
    sim = simulate_64g2_scenario(MachineConfig(), FaultSpec(x=0.0, rf=50.0, t_on=0.27),
                                 duration=0.9, seed=1)
    frames = sim.frames
    with pytest.raises(ValueError, match="cannot delete array elements"):
        del frames.v_n3[250:]
    with pytest.raises(ValueError, match="read-only"):
        frames.valid[0] = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        frames.v_n3 = frames.v_n3[:250]
    trace = AdaptiveRatioDetector().run(frames, sim.fs)
    assert trace.first_trip_index == 284
    assert len(trace.trip) == len(trace.t_index) == len(frames) == 900
    assert trace.v_p3 is frames.v_p3 and trace.valid == tuple(frames.valid.tolist())
    assert dataclasses.replace(frames, valid=frames.valid).v_n3 is frames.v_n3


def test_frame_and_trace_columns_are_shared_read_only_arrays():
    """The frames hold read-only arrays, which a replaced record and every
    trace share; a caller's own array is copied, never frozen or aliased;
    columns() hands the writer the trace's own arrays."""
    sim = simulate_64g2_scenario(MachineConfig(), FaultSpec(x=0.0, rf=50.0, t_on=0.27),
                                 duration=0.5, seed=1)
    frames = sim.frames
    for name, dtype in (("v_p3", np.float64), ("v_n3", np.float64), ("valid", np.bool_)):
        column = getattr(frames, name)
        assert type(column) is np.ndarray and column.dtype == dtype
        assert not column.flags.writeable
    moved = dataclasses.replace(frames, valid=~frames.valid)
    assert moved.v_p3 is frames.v_p3 and moved.v_n3 is frames.v_n3
    own = frames.v_n3.copy()
    copied = dataclasses.replace(frames, v_n3=own)
    assert own.flags.writeable and not copied.v_n3.flags.writeable
    own[0] = -1.0
    assert copied.v_n3[0] == frames.v_n3[0]
    restraint = restraint_column(frames, 12)
    for detector in (AdaptiveRatioDetector(), FixedRatioDetector(ratio=1.2)):
        trace = detector.run(frames, sim.fs, restraint=restraint)
        assert trace.v_p3 is frames.v_p3 and trace.v_n3 is frames.v_n3
        assert trace.restraint is restraint
        columns = trace.columns()
        assert columns["JAO"] is trace.operate and columns["rho_hat"] is trace.rho_hat
        for name, column in columns.items():
            assert column.dtype == (np.bool_ if name == "trip" else np.float64), name
            assert name == "t" or not column.flags.writeable, name


@pytest.mark.parametrize("column", ["v_p3", "v_n3"])
@pytest.mark.parametrize("valid", [True, False])
def test_harmonic_frames_check_every_replaced_column(column, valid):
    """A short column, or a NaN, infinite or negative magnitude, is refused
    by name, in a valid frame or an invalid one."""
    frames = HarmonicFrames(v_p3=[1.0] * 3, v_n3=[1.0] * 3, valid=[True, valid, True])
    with pytest.raises(ValueError, match=f"equal length: {column} has 2"):
        dataclasses.replace(frames, **{column: [1.0, 1.0]})
    for bad in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match=f"^{column} must be finite and >= 0"):
            dataclasses.replace(frames, **{column: [1.0, bad, 1.0]})


def test_first_valid_frame_seeds_ratio():
    det = AdaptiveRatioDetector(cfg=DetectorConfig(window=12, sensitivity=0.005))
    frames = [_frame(0, 2.0, 3.0)] + [_frame(i, 2.0, 3.0) for i in range(1, 30)]
    trace = det.run(_frames(frames), fs=1000.0)
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


@pytest.mark.parametrize("rho0", [-5.0, 0.0, float("nan"), float("inf")])
def test_adaptive_detector_rejects_an_impossible_ratio_prior(rho0):
    # a neutral/terminal magnitude ratio is positive and finite, as the
    # fixed scheme's frozen ratio must be
    with pytest.raises(ValueError, match="rho0"):
        AdaptiveRatioDetector(rho0=rho0)


@pytest.mark.parametrize("name,value", [
    ("process_noise", math.nan), ("process_noise", math.inf), ("process_noise", -1e-9),
    ("measurement_noise", math.nan), ("measurement_noise", math.inf), ("measurement_noise", 0.0),
    ("initial_variance", math.nan), ("initial_variance", math.inf), ("initial_variance", -1.0),
])
def test_adaptive_detector_rejects_an_impossible_filter_setting(name, value):
    # a NaN or infinite setting would run without error and never trip,
    # leaving rho_hat NaN
    with pytest.raises(ValueError, match=name):
        AdaptiveRatioDetector(**{name: value})


@pytest.mark.parametrize("fs", [math.nan, -1.0, 0.0, math.inf])
def test_ratio_schemes_reject_an_impossible_sample_rate(fs):
    frames = _frames([_frame(i, 1.0, 1.0) for i in range(5)])
    for detector in (AdaptiveRatioDetector(), FixedRatioDetector(ratio=1.0)):
        with pytest.raises(ValueError, match="fs"):
            detector.run(frames, fs=fs)


def test_fixed_detector_uses_threshold_from_calibration():
    cal = Calibration64RAT(ratio=1.2, beta_ng=0.15)
    det = FixedRatioDetector.from_calibration(cal, window=12)
    frames = [_frame(i, 1.0, 1.2) for i in range(60)]
    trace = det.run(_frames(frames), fs=1000.0)
    assert not trace.tripped
    assert trace.scheme == "ng64g2"
    # a sustained deviation just past the guard band trips
    bad = [_frame(i, 1.0, 1.2 * (1.0 + 1.3 * 0.15)) for i in range(60, 140)]
    trace2 = det.run(_frames(frames + bad), fs=1000.0, onset_index=60)
    assert trace2.tripped


def test_fixed_scheme_margin_scales_with_guard():
    """Halving beta_ng quadruples the operate/restraint margin."""
    frames = [_frame(i, 1.0, 1.25) for i in range(80)]
    m = []
    for beta in (0.2, 0.1):
        det = FixedRatioDetector.from_calibration(
            Calibration64RAT(ratio=1.2, beta_ng=beta), window=12)
        m.append(det.run(_frames(frames), fs=1000.0).margin())
    assert m[1] == pytest.approx(4.0 * m[0], rel=1e-9)


# ----------------------------------------------------------------- traces

def test_trace_csv_roundtrip(tmp_path):
    from statorguard.a64g2 import write_trace_csv

    det = AdaptiveRatioDetector(cfg=DetectorConfig(window=12, sensitivity=0.005))
    frames = [_frame(i, 2.0, 2.2) for i in range(40)]
    trace = det.run(_frames(frames), fs=1000.0)
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
    trace = det.run(_frames(frames), fs=1000.0)
    assert trace.margin() == 0.0
