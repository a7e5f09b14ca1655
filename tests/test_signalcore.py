"""Phasor extraction, reconstruction, and waveform I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statorguard.signalcore import (
    PhasorSeries,
    TimeSeries,
    extract_phasor,
    ingest_csv,
    reconstruct_narrowband,
    synth_waveform,
    write_csv,
)

import oracles


def test_timeseries_validation():
    with pytest.raises(ValueError):
        TimeSeries(fs=0.0, t0=0.0, samples=np.ones(4))
    with pytest.raises(ValueError):
        TimeSeries(fs=1000.0, t0=0.0, samples=np.array([]))
    with pytest.raises(ValueError):
        TimeSeries(fs=1000.0, t0=0.0, samples=np.ones((2, 2)))


def test_synth_waveform_validation():
    with pytest.raises(ValueError):
        synth_waveform([(600.0, 1.0, 0.0)], fs=1000.0, duration=0.1)
    with pytest.raises(ValueError):
        synth_waveform([(60.0, 1.0, 0.0)], fs=1000.0, duration=-1.0)
    with pytest.raises(ValueError):
        synth_waveform([(60.0, 1.0, 0.0)], fs=1000.0, duration=0.1, noise_std=-0.1)


@given(
    amp=st.floats(0.01, 100.0),
    phase=st.floats(-math.pi, math.pi),
    f0=st.sampled_from([20.0, 60.0, 180.0]),
)
@settings(max_examples=60, deadline=None)
def test_pure_tone_is_recovered_exactly(amp, phase, f0):
    ts = synth_waveform([(f0, amp, phase)], fs=1000.0, duration=0.5)
    ph = extract_phasor(ts, f0, window_cycles=3)
    idx = np.flatnonzero(ph.valid)
    assert np.allclose(ph.magnitude[idx], amp, rtol=1e-9, atol=1e-12)
    err = np.angle(np.exp(1j * (ph.phase[idx] - phase)))
    assert np.max(np.abs(err)) < 1e-9


def test_window_snap_values():
    """At fs=1000 the snapped windows are self-orthogonal sample counts:
    100 samples for 20 Hz (2 cycles), 50 for 60 Hz, 25 for 180 Hz."""
    for f0, cycles, expect in [(20.0, 2, 100), (60.0, 3, 50), (180.0, 3, 25)]:
        ts = synth_waveform([(f0, 1.0, 0.0)], fs=1000.0, duration=0.5)
        ph = extract_phasor(ts, f0, window_cycles=cycles)
        assert ph.window_samples == expect
        # bin self-orthogonality: 2*f0*N/fs integral
        assert abs(2.0 * f0 * ph.window_samples / 1000.0 -
                   round(2.0 * f0 * ph.window_samples / 1000.0)) < 1e-9


@pytest.mark.parametrize("f_want,f_reject,cycles", [(20.0, 60.0, 2), (60.0, 20.0, 3)])
def test_cross_tone_rejection(f_want, f_reject, cycles):
    """20 Hz and 60 Hz windows at fs=1000 null each other exactly:
    (f +/- f0)*N/fs are integers for the snapped windows."""
    ts = synth_waveform([(f_want, 3.0, 0.4), (f_reject, 50.0, -1.1)],
                        fs=1000.0, duration=0.5)
    ph = extract_phasor(ts, f_want, window_cycles=cycles)
    idx = np.flatnonzero(ph.valid)
    assert np.allclose(ph.magnitude[idx], 3.0, rtol=1e-9, atol=1e-9)


def test_fundamental_and_harmonic_reject_each_other_at_180():
    ts = synth_waveform([(180.0, 2.5, 0.2), (60.0, 40.0, 0.9)],
                        fs=1000.0, duration=0.5)
    ph = extract_phasor(ts, 180.0, window_cycles=3)
    idx = np.flatnonzero(ph.valid)
    assert np.allclose(ph.magnitude[idx], 2.5, rtol=1e-9, atol=1e-9)


@given(seed=st.integers(0, 2**31 - 1), k_off=st.integers(0, 200))
@settings(max_examples=40, deadline=None)
def test_sliding_dft_matches_brute_force(seed, k_off):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=400)
    ts = TimeSeries(fs=1000.0, t0=0.0, samples=x)
    ph = extract_phasor(ts, 60.0, window_cycles=3)
    k = ph.window_samples - 1 + k_off
    want = oracles.brute_force_phasor(x, 1000.0, 60.0, ph.window_samples, k)
    got = ph.magnitude[k] * np.exp(1j * ph.phase[k])
    assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_reanchoring_bounds_drift_over_long_records():
    rng = np.random.default_rng(7)
    x = rng.normal(size=20000) * 100.0
    ts = TimeSeries(fs=1000.0, t0=0.0, samples=x)
    ph = extract_phasor(ts, 60.0, window_cycles=3, recompute_every=10)
    for k in (19998, 19999):
        want = oracles.brute_force_phasor(x, 1000.0, 60.0, ph.window_samples, k)
        got = ph.magnitude[k] * np.exp(1j * ph.phase[k])
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_extraction_is_linear():
    rng = np.random.default_rng(3)
    x = rng.normal(size=300)
    y = rng.normal(size=300)
    a, b = 2.5, -1.75
    ph_x = extract_phasor(TimeSeries(1000.0, 0.0, x), 60.0)
    ph_y = extract_phasor(TimeSeries(1000.0, 0.0, y), 60.0)
    ph_mix = extract_phasor(TimeSeries(1000.0, 0.0, a * x + b * y), 60.0)
    mix = ph_mix.complex_values()
    want = a * ph_x.complex_values() + b * ph_y.complex_values()
    idx = np.flatnonzero(ph_mix.valid)
    assert np.max(np.abs(mix[idx] - want[idx])) < 1e-9


def test_warmup_frames_marked_invalid():
    ts = synth_waveform([(60.0, 1.0, 0.0)], fs=1000.0, duration=0.2)
    ph = extract_phasor(ts, 60.0, window_cycles=3)
    assert not ph.valid[: ph.window_samples - 1].any()
    assert ph.valid[ph.window_samples - 1 :].all()
    assert (ph.magnitude[: ph.window_samples - 1] == 0.0).all()


def test_reconstruction_roundtrip_pure_tone():
    ts = synth_waveform([(20.0, 4.0, 1.0)], fs=1000.0, duration=0.5)
    ph = extract_phasor(ts, 20.0, window_cycles=2)
    rec = reconstruct_narrowband(ph)
    idx = np.flatnonzero(ph.valid)
    assert np.allclose(rec.samples[idx], ts.samples[idx], atol=1e-9)


def test_reconstruction_suppresses_out_of_band_tone():
    ts = synth_waveform([(20.0, 4.0, 1.0), (60.0, 30.0, 0.3)],
                        fs=1000.0, duration=0.5)
    clean = synth_waveform([(20.0, 4.0, 1.0)], fs=1000.0, duration=0.5)
    ph = extract_phasor(ts, 20.0, window_cycles=2)
    rec = reconstruct_narrowband(ph)
    idx = np.flatnonzero(ph.valid)
    assert np.allclose(rec.samples[idx], clean.samples[idx], atol=1e-8)


def test_noise_variance_shrinks_through_narrowband_filter():
    """White noise through an N-sample single-bin window keeps 2/N of its
    variance in the reconstruction."""
    rng = np.random.default_rng(11)
    sigma = 1.0
    x = rng.normal(0.0, sigma, size=200000)
    ph = extract_phasor(TimeSeries(1000.0, 0.0, x), 20.0, window_cycles=2)
    rec = reconstruct_narrowband(ph)
    got_var = np.var(rec.samples[ph.valid])
    want_var = 2.0 / ph.window_samples * sigma**2
    assert got_var == pytest.approx(want_var, rel=0.05)


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(5)
    a = TimeSeries(fs=1000.0, t0=0.25, samples=rng.normal(size=64))
    b = TimeSeries(fs=1000.0, t0=0.25, samples=rng.normal(size=64))
    path = tmp_path / "waves.csv"
    write_csv(path, {"vn": a, "in": b})
    back = ingest_csv(path)
    assert set(back) == {"vn", "in"}
    for orig, name in [(a, "vn"), (b, "in")]:
        assert back[name].fs == pytest.approx(orig.fs, rel=1e-9)
        assert back[name].t0 == pytest.approx(orig.t0, abs=1e-12)
        assert np.array_equal(back[name].samples, orig.samples)


def test_ingest_rejects_nonuniform_time(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x\n0.0,1.0\n0.001,2.0\n0.005,3.0\n")
    with pytest.raises(ValueError):
        ingest_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_ingest_rejects_non_finite_cells(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"t,x\n0.0,1.0\n0.001,{cell}\n0.002,3.0\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite"):
        ingest_csv(path)


def test_extract_phasor_validation():
    ts = synth_waveform([(60.0, 1.0, 0.0)], fs=1000.0, duration=0.04)
    with pytest.raises(ValueError):
        extract_phasor(ts, -5.0)
    with pytest.raises(ValueError):
        extract_phasor(ts, 600.0)
    with pytest.raises(ValueError):
        extract_phasor(ts, 60.0, window_cycles=0)
    with pytest.raises(ValueError):
        extract_phasor(ts, 60.0, window_cycles=3)  # window longer than record
