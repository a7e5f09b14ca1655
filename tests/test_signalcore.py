"""Phasor extraction, reconstruction, and waveform I/O."""

import csv
import io
import math
import os
import random
import struct
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statorguard import signalcore
from statorguard.a64g2 import SchemeTrace
from statorguard.signalcore import (
    PhasorSeries,
    TimeSeries,
    extract_phasor,
    ingest_csv,
    reconstruct_narrowband,
    write_csv,
    write_table,
)

import oracles
from oracles import synth_waveform


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
    ph = extract_phasor(ts, 60.0, window_cycles=3)
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
    mix = oracles.complex_values(ph_mix)
    want = a * oracles.complex_values(ph_x) + b * oracles.complex_values(ph_y)
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


def test_csv_lines_end_with_lf_and_ingest_reads_crlf_too(tmp_path):
    ts = TimeSeries(fs=1000.0, t0=0.0, samples=np.arange(5.0))
    path = tmp_path / "waves.csv"
    write_csv(path, {"vn": ts})
    lf = path.read_bytes()
    assert lf.startswith(b"t,vn\n0.0,0.0\n") and b"\r" not in lf
    path.write_bytes(lf.replace(b"\n", b"\r\n"))
    assert np.array_equal(ingest_csv(path)["vn"].samples, ts.samples)


def test_write_csv_rejects_a_channel_named_t(tmp_path):
    ts = TimeSeries(fs=1000.0, t0=0.0, samples=np.ones(3))
    with pytest.raises(ValueError, match="time column"):
        write_csv(tmp_path / "w.csv", {"t": ts})


def test_write_table_cell_rule(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, {
        "f": [0.1, 1e-20, np.float64(1 / 3)],
        "b": [True, False, True],
        "i": [3, -4, 0],
        "s": ["a", "b_c", ""],
        "n": [None, 2.5, None],
    })
    assert path.read_bytes() == (b"f,b,i,s,n\n0.1,1,3,a,\n1e-20,0,-4,b_c,2.5\n"
                                 b"0.3333333333333333,1,0,,\n")


def test_write_table_without_columns_writes_an_empty_header(tmp_path):
    path = tmp_path / "empty.csv"
    write_table(path, {})
    assert path.read_bytes() == b"\n"


def test_write_table_rejects_unequal_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "bad.csv", {"a": [1.0, 2.0], "b": [1.0]})


def test_write_table_quotes_string_cells_as_the_csv_module_does(tmp_path):
    names = ["gen,stop", 'say "hi"', "line\nbreak", "cr\rx", "plain", ""]
    path = tmp_path / "table.csv"
    write_table(path, {"scenario": names, "a,b": [1.5] * 6,
                       "mixed": [None, 2, "x,y", True, 0.5, 'q"']})
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "a,b", "mixed"]
    assert [row[0] for row in rows[1:]] == names
    assert [row[2] for row in rows[1:]] == ["", "2", "x,y", "1", "0.5", 'q"']
    assert path.read_bytes().splitlines()[1:3] == [b'"gen,stop",1.5,', b'"say ""hi""",1.5,2']


# --------------------------------------------------- two-process emission

class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be formatted")


def _mixed_table(n):
    """A table of n rows with float, int, bool, None, numeric str and
    mixed columns, the time column first."""
    rng = np.random.default_rng(n)
    return {
        "t": [i / 1000.0 for i in range(n)],
        "f": rng.normal(scale=1e3, size=n).tolist(),
        "i": [7 * i - 5 for i in range(n)],
        "b": [i % 3 == 0 for i in range(n)],
        "none": [None] * n,
        "s": [str(i % 11 / 4) for i in range(n)],
        "m": [(None, 2.5, 3, True, "4.25")[i % 5] for i in range(n)],
    }


def _emitted(columns, directory, in_memory=False):
    """The table and its melt as write_table writes them beside a long.csv
    header (in_memory: into an io.BytesIO, saved afterwards), and as the
    naive csv-module oracle writes them."""
    ours, naive = directory / "ours", directory / "naive"
    ours.mkdir(parents=True)
    naive.mkdir()
    with io.BytesIO() if in_memory else open(ours / "long.csv", "wb") as sink:
        sink.write(b"trace,signal,t,value\n")
        write_table(ours / "trace_tbl.csv", columns, (sink, "tbl"))
        if in_memory:
            (ours / "long.csv").write_bytes(sink.getvalue())
    trace = SimpleNamespace(columns=lambda: dict(columns))
    oracles.naive_emit_csv(SimpleNamespace(traces={"tbl": trace}), naive)
    return ([(ours / name).read_bytes() for name in ("trace_tbl.csv", "long.csv")],
            [(naive / name).read_bytes() for name in ("trace_tbl.csv", "long.csv")])


# write_table splits a large table only where it may run on two CPUs
_SPLITS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


@pytest.mark.parametrize("rows,split", [(signalcore._FORK_ROWS + 1, True),
                                        (signalcore._FORK_ROWS - 1, False)])
def test_write_table_matches_the_naive_oracle_either_side_of_the_cutoff(
        tmp_path, forks, rows, split):
    assert rows % signalcore._BLOCK
    ours, naive = _emitted(_mixed_table(rows), tmp_path)
    assert ours == naive
    assert len(forks) == (split and _SPLITS)
    assert sorted(os.listdir(tmp_path / "ours")) == ["long.csv", "trace_tbl.csv"]


def test_write_table_splits_a_table_whose_long_file_is_in_memory(tmp_path, forks):
    ours, naive = _emitted(_mixed_table(signalcore._FORK_ROWS + 1), tmp_path, in_memory=True)
    assert ours == naive
    assert len(forks) == _SPLITS


def test_write_table_without_fork_writes_the_same_bytes_serially(tmp_path, monkeypatch):
    monkeypatch.delattr(os, "fork")
    ours, naive = _emitted(_mixed_table(2 * signalcore._FORK_ROWS + 3), tmp_path)
    assert ours == naive


def test_write_table_formats_both_halves_itself_when_fork_fails(tmp_path, monkeypatch):
    def failing_fork():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", failing_fork)
    ours, naive = _emitted(_mixed_table(signalcore._FORK_ROWS + 5), tmp_path)
    assert ours == naive


def test_a_cell_error_in_the_childs_half_is_raised_in_the_parent(tmp_path, forks):
    columns = _mixed_table(signalcore._FORK_ROWS + 7)
    columns["m"][-1] = _Unprintable()
    out = tmp_path / "out"
    out.mkdir()
    with open(tmp_path / "long.csv", "wb") as sink:
        with pytest.raises(RuntimeError, match="cell cannot be formatted") as excinfo:
            write_table(out / "table.csv", columns, (sink, "tbl"))
    assert len(forks) == _SPLITS
    assert excinfo.traceback[-1].name == "__str__"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(out) == []


@pytest.mark.skipif(not _SPLITS, reason="a child is forked only on two or more CPUs")
def test_a_failing_part_here_kills_and_reaps_the_child(forks):
    cpus = os.sched_getaffinity(0)

    def failing():
        raise RuntimeError("this process's part failed")

    def sleeping():
        time.sleep(60)
        yield "never loaded"

    start = time.monotonic()
    with pytest.raises(RuntimeError, match="part failed"):
        with signalcore.in_two_processes(failing, sleeping):
            pass
    assert time.monotonic() - start < 30
    assert len(forks) == 1 and os.sched_getaffinity(0) == cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# theirs' items: small ones around one of more than 1 MiB
_ITEMS = ["first", "x" * (1 << 20) + "y", {"row": 3, "value": 2.5}, [1.5, None]]


@pytest.fixture
def parts(monkeypatch):
    """The temporary files in_two_processes makes, as it makes them."""
    made = []
    make = tempfile.TemporaryFile

    def recording(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    return made


def _two_processes(on_first_item=lambda: None):
    """Theirs' items and the calls made here, through in_two_processes;
    on_first_item runs once the first item is loaded."""
    calls = []

    def mine():
        calls.append("mine")
        return "mine's result"

    def theirs():
        calls.append("theirs")
        return (item for item in _ITEMS)

    with signalcore.in_two_processes(mine, theirs) as (result, items):
        loaded = [next(items)]
        on_first_item()
        loaded.extend(items)
    assert result == "mine's result"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return loaded, calls


def test_in_two_processes_loads_a_childs_items_in_order_one_at_a_time(forks, parts):
    def part_not_read_to_its_end():
        if _SPLITS:
            part, = parts
            assert part.tell() < os.fstat(part.fileno()).st_size

    loaded, calls = _two_processes(part_not_read_to_its_end)
    assert loaded == _ITEMS
    assert calls == (["mine"] if _SPLITS else ["mine", "theirs"])
    assert len(forks) == len(parts) == _SPLITS


def test_in_two_processes_iterates_theirs_here_when_no_child_delivers(no_child, parts):
    assert _two_processes() == (_ITEMS, ["mine", "theirs"])
    # a file is made only for a child
    assert len(parts) == (_SPLITS and no_child != "fork_absent")


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_in_two_processes_on_one_cpu_forks_no_child_and_makes_no_file(one_cpu, forks, parts):
    assert _two_processes() == (_ITEMS, ["mine", "theirs"])
    assert forks == parts == []


def test_the_melt_keeps_any_label_and_column_name_as_it_was(tmp_path):
    """The melted lines reach the sink as UTF-8 bytes; non-ASCII text
    comes back unchanged, and a lone surrogate, which UTF-8 cannot encode,
    raises as long.csv's text writer did and leaves no table file."""
    sink = io.BytesIO()
    label, name = "l\u00e4bel", "\u00e4,\u00f6"
    write_table(tmp_path / "t.csv", {"t": [0.0, 0.5], name: [1.0, None]}, (sink, label))
    assert sink.getvalue().decode() == f'{label},"{name}",0.0,1.0\n{label},"{name}",0.5,\n'
    with pytest.raises(UnicodeEncodeError):
        write_table(tmp_path / "s.csv", {"t": [0.0], name: [1.0]}, (io.BytesIO(), "l\ud800"))
    assert os.listdir(tmp_path) == ["t.csv"]


class _FullSink(io.BytesIO):
    """A long.csv sink on a full disk."""

    def writelines(self, lines):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("rows", [signalcore._FORK_ROWS + 7, 10])
def test_write_table_removes_its_file_when_a_write_fails(tmp_path, rows):
    with pytest.raises(OSError, match="No space left"):
        write_table(tmp_path / "table.csv", _mixed_table(rows), (_FullSink(), "tbl"))
    assert os.listdir(tmp_path) == []


def test_a_cell_error_in_a_serial_table_leaves_no_file(tmp_path):
    columns = _mixed_table(3 * signalcore._BLOCK)
    columns["m"][-1] = _Unprintable()
    with pytest.raises(RuntimeError, match="cell cannot be formatted"):
        write_table(tmp_path / "table.csv", columns)
    assert os.listdir(tmp_path) == []


def test_write_table_leaves_a_file_it_cannot_open_as_it_was(tmp_path):
    path = tmp_path / "table.csv"
    path.mkdir()
    with pytest.raises(OSError):
        write_table(path, {"a": [1.0]})
    assert path.is_dir()


# ------------------------------------------------------------ float cells

def _float_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Where orjson's notation differs from repr's, and the extremes: signed
# zeros, the smallest subnormal and normal, both sides of 1e-4 and 1e16,
# the largest finite values, NaN and the infinities.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0), -1e-4,
                math.nextafter(1e16, 0.0), 1e16, math.nextafter(1e16, math.inf), -1e16,
                1.7976931348623157e308, -1.7976931348623157e308,
                math.nan, math.inf, -math.inf]

_ANY_FLOAT = st.one_of(st.integers(0, 2**64 - 1).map(_float_bits), st.floats())


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANY_FLOAT, max_size=200), st.booleans(), st.randoms(use_true_random=False),
       st.booleans())
def test_float_cells_are_repr(xs, edges, rnd, as_array):
    if edges:
        xs = xs + _EDGE_FLOATS
        rnd.shuffle(xs)
    values = np.array(xs, dtype=np.float64) if as_array else xs
    assert signalcore._floats(values) == list(map(float.__repr__, xs))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-5, 1e16, exclude_max=True).flatmap(
    lambda x: st.sampled_from([x, -x])), max_size=300))
def test_float_cells_orjson_writes_without_exponent_are_repr(xs):
    # no e and no null in orjson's text; repr's 1e-05 notation starts
    # below 1e-4
    assert signalcore._floats(xs) == list(map(float.__repr__, xs))


def _edge_table(n):
    """A table of n rows whose float and mixed columns hold the edge
    values between ordinary ones."""
    rng = random.Random(n)
    edges = [rng.choice(_EDGE_FLOATS) if rng.random() < 0.2 else rng.gauss(0.0, 1e3)
             for _ in range(n)]
    tiny = [rng.uniform(-1e-4, 1e-4) * 10.0 ** -rng.randrange(30) for _ in range(n)]
    return {
        "t": [i / 1000.0 for i in range(n)],
        "edges": edges,
        "tiny": tiny,
        "huge": [v * 1e300 for v in tiny],
        "edges_or_none": [None if i % 4 == 0 else v for i, v in enumerate(edges)],
    }


@pytest.mark.parametrize("rows", [signalcore._FORK_ROWS + 3, signalcore._FORK_ROWS - 3])
def test_edge_float_cells_match_the_naive_oracle_either_side_of_the_cutoff(tmp_path, rows):
    ours, naive = _emitted(_edge_table(rows), tmp_path)
    assert ours == naive


def _as_arrays(columns):
    return {name: np.asarray(column) for name, column in columns.items()}


@pytest.mark.parametrize("rows", [signalcore._FORK_ROWS + 3, signalcore._FORK_ROWS - 3])
def test_float_arrays_write_the_bytes_of_float_lists(tmp_path, rows):
    """The edge values as float64 arrays (edges_or_none, holding None, as
    an object array) write what the same values in lists write."""
    columns = _edge_table(rows)
    arrays = _as_arrays(columns)
    assert [arrays[name].dtype for name in ("t", "edges", "tiny", "huge")] == [np.float64] * 4
    ours, naive = _emitted(arrays, tmp_path / "arrays")
    assert ours == naive == _emitted(columns, tmp_path / "lists")[0]


def test_a_bool_array_writes_the_bytes_of_a_bool_list(tmp_path):
    n = 3 * signalcore._BLOCK + 5
    bits = [i % 3 == 0 or i % 7 == 0 for i in range(n)]
    columns = {"t": [i / 1000.0 for i in range(n)], "trip": bits}
    ours, naive = _emitted(_as_arrays(columns), tmp_path / "arrays")
    assert ours == naive == _emitted(columns, tmp_path / "lists")[0]
    table, long = ours
    assert table.splitlines()[1:4] == [b"0.0,1", b"0.001,0", b"0.002,0"]
    assert long.splitlines()[1:3] == [b"tbl,trip,0.0,1.0", b"tbl,trip,0.001,0.0"]


def test_int_and_object_arrays_take_the_per_cell_rules(tmp_path):
    mixed = [None, 2.5, 3, True, "4.25", -0.0]
    columns = {"t": np.arange(6) / 4.0, "i": np.arange(-3, 3), "o": np.array(mixed, dtype=object)}
    ours, naive = _emitted(columns, tmp_path)
    assert ours == naive
    assert ours[0] == (b"t,i,o\n0.0,-3,\n0.25,-2,2.5\n0.5,-1,3\n0.75,0,1\n1.0,1,4.25\n"
                       b"1.25,2,-0.0\n")


def test_a_column_that_is_a_strided_view_writes_its_own_values(tmp_path):
    n = 2 * signalcore._BLOCK + 9
    data = np.random.default_rng(5).normal(scale=1e3, size=(n, 3))
    data[::17, 1] = 1e-7
    data[5, 1] = math.nan
    columns = {"t": data[:, 0], "x": data[:, 1]}
    assert not columns["x"].flags.c_contiguous
    ours, naive = _emitted(columns, tmp_path / "view")
    assert ours == naive == _emitted({k: v.tolist() for k, v in columns.items()},
                                     tmp_path / "lists")[0]


# strings float() reads, which the table quotes for their LF (the csv
# module's writer, the oracle, quotes no lone CR under an LF terminator)
_QUOTED = ["\n1.5", "2.5\n", " -3e-7\r\n", "\n4"]


def _cells(kind, n, rng):
    """n cells of one kind, drawn from rng."""
    floats = rng.normal(scale=1e3, size=n)
    edges = rng.random(n) < 0.1
    floats[edges] = rng.choice(_EDGE_FLOATS, size=int(edges.sum()))
    if kind == "float_array":
        return floats
    if kind == "float_list":
        return floats.tolist()
    if kind == "bool_array":
        return floats > 0
    if kind == "bool_view":
        return np.stack([floats > 0, floats < 0], axis=1)[:, 1]
    if kind == "int_list":
        return rng.integers(-10**6, 10**6, size=n).tolist()
    if kind == "int_array":
        return rng.integers(-10**6, 10**6, size=n)
    if kind == "none":
        return [None] * n
    if kind == "quoted":
        return [_QUOTED[i] for i in rng.integers(0, len(_QUOTED), size=n)]
    pick = rng.integers(0, 6, size=n)
    return [(None, float(v), int(v) if math.isfinite(v) else 7, v > 0, _QUOTED[i % 4],
             "8.25")[k] for i, (k, v) in enumerate(zip(pick.tolist(), floats.tolist()))]


_KINDS = ["float_array", "float_list", "bool_array", "bool_view", "int_list", "int_array",
          "none", "quoted", "mixed"]
# names the header and the melt quote, and plain ones
_NAMES = ["a,b", 'q"x', "line\nname", "c", "d", "e", "f", "g", "h", "i", "j", "k"]
_ROWS = [0, 1, signalcore._BLOCK - 1, signalcore._BLOCK, signalcore._BLOCK + 1,
         2 * signalcore._BLOCK + 3]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(_KINDS), min_size=0, max_size=11), st.sampled_from(_ROWS),
       st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
def test_rows_and_melted_lines_are_assembled_as_the_naive_oracle_writes_them(
        kinds, rows, time_array, split, seed):
    """Tables 1 to 12 columns wide, the time column first, of every cell
    kind, at row counts around a write block, on the serial path and on
    the two-process split path."""
    rng = np.random.default_rng(seed)
    names = rng.permutation(_NAMES)[:len(kinds)].tolist()
    times = np.arange(rows) / 1000.0
    columns = {"t": times if time_array else times.tolist(),
               **{name: _cells(kind, rows, rng) for name, kind in zip(names, kinds)}}
    with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
        patch.setattr(signalcore, "_FORK_ROWS", 0 if split else 10**9)
        ours, naive = _emitted(columns, Path(directory))
    assert ours == naive


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e6), st.integers(0, 3000), st.integers(0, 100))
def test_sample_times_are_the_index_over_fs_bit_for_bit(fs, n, start):
    index = range(start, start + n)
    expected = [i / fs for i in index]
    for given_index in (index, list(index)):
        times = signalcore._seconds(given_index, fs)
        assert times.dtype == np.float64 and times.tolist() == expected


def test_a_trace_column_is_read_as_floats_unless_a_value_is_no_number():
    """A hand-built trace's sequence goes to the writer as a float64
    array, or as an object array when a value is no number."""

    def column(values):
        return SchemeTrace(scheme="a64g2", fs=1000.0, sensitivity=1.0,
                           rho_hat=values).columns()["rho_hat"]

    numbers = column((1.5, 2, True, np.float64(0.25)))
    assert numbers.dtype == np.float64 and numbers.tolist() == [1.5, 2.0, 1.0, 0.25]
    nan = column([math.nan, 1.0])
    assert nan.dtype == np.float64 and math.isnan(nan[0]) and nan[1] == 1.0
    for values in ([1.5, None], [0.5, _Unprintable()]):
        assert column(values).dtype == object and column(values).tolist() == values


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


# Malformed recordings and the exact error each raises; {} is the path.
_BAD_RECORDINGS = [
    ("ragged row", "t,x\n0.0,1.0\n0.001,2.0,3.0\n", "{}:3: expected 2 cells, got 3"),
    ("every row one cell too many", "t,x\n0.0,1.0,9.0\n0.001,2.0,9.0\n",
     "{}:2: expected 2 cells, got 3"),
    ("missing cell", "t,x\n0.0,1.0\n0.001,\n",
     "{}:3: non-numeric cell (could not convert string to float: '')"),
    ("non-numeric cell", "t,x\n0.0,1.0\n0.001,abc\n",
     "{}:3: non-numeric cell (could not convert string to float: 'abc')"),
    ("empty file", "", "{}: empty file"),
    ("bad header", "time,x\n0.0,1.0\n0.001,2.0\n",
     "{}: header must be 't,<chan>,...', got ['time', 'x']"),
    ("header without channel", "t\n0.0\n0.001\n", "{}: header must be 't,<chan>,...', got ['t']"),
    ("header only", "t,x\n", "{}: need at least 2 samples"),
    ("single sample", "t,x\n0.0,1.0\n", "{}: need at least 2 samples"),
    ("single sample among blank rows", "t,x\n\n0.0,1.0\n,\n", "{}: need at least 2 samples"),
    ("non-finite after blank rows", "t,x\n0.0,1.0\n\n,\n0.003,nan\n",
     "{}:5: non-finite cell (NaN or inf)"),
    ("CRLF non-numeric cell", "t,x\r\n0.0,1.0\r\n0.001,abc\r\n",
     "{}:3: non-numeric cell (could not convert string to float: 'abc')"),
    ("hash inside a cell", "t,x\n0.0,1.0 # x\n0.001,2.0\n",
     "{}:2: non-numeric cell (could not convert string to float: '1.0 # x')"),
    ("comment line", "t,x\n# note\n0.0,1.0\n0.001,2.0\n", "{}:2: expected 2 cells, got 1"),
    ("time not increasing", "t,x\n0.0,1.0\n0.0,2.0\n", "{}: time column not increasing"),
    ("repeated channel name", "t,vp3,vn3,vn3\n0.0,1.0,1.0,5.0\n0.001,1.0,1.0,5.0\n",
     "{}: header repeats the channel name 'vn3'"),
    ("channel named like the time column", "t,t,x\n0.0,0.0,1.0\n0.001,0.001,2.0\n",
     "{}: header repeats the channel name 't'"),
    ("empty channel name", "t,,vn3\n0.0,1.0,1.0\n0.001,1.0,1.0\n",
     "{}: header column 2 has an empty channel name"),
    ("blank channel name", "t,vp3, \n0.0,1.0,1.0\n0.001,1.0,1.0\n",
     "{}: header column 3 has an empty channel name"),
]


@pytest.mark.parametrize("text,message", [case[1:] for case in _BAD_RECORDINGS],
                         ids=[case[0] for case in _BAD_RECORDINGS])
def test_ingest_error_names_the_file_and_line(tmp_path, text, message):
    path = tmp_path / "rec.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as excinfo:
        ingest_csv(path)
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == message.format(path)


# Recordings the row walk reads although numpy's parser refuses them.
_ODD_RECORDINGS = [
    ("blank and empty-cell rows", "t,x\n\n0.0,1.0\n,\n  ,  \n0.001,2.0\n\n0.002,3.0\n"),
    ("quoted numeric cells", 't,x\n"0.0","1.0"\n0.001,"2.0"\n"0.002",3.0\n'),
    ("underscore digits", "t,x\n0.0,1_0e-1\n0.001,2_0e-1\n0.002,3_0e-1\n"),
    ("CRLF with blank rows", "t,x\r\n0.0,1.0\r\n\r\n0.001,2.0\r\n,\r\n0.002,3.0\r\n"),
    ("spaces, signs and a quoted header", '"t", x \n +0.0 , +1.0 \n0.001,\t2.0\n0.002,3e0\n'),
]


@pytest.mark.parametrize("text", [case[1] for case in _ODD_RECORDINGS],
                         ids=[case[0] for case in _ODD_RECORDINGS])
def test_ingest_reads_what_the_row_walk_accepts(tmp_path, text):
    path = tmp_path / "rec.csv"
    path.write_bytes(text.encode())
    channels = ingest_csv(path)
    assert list(channels) == ["x"]
    assert channels["x"].samples.tolist() == [1.0, 2.0, 3.0]
    assert channels["x"].fs == pytest.approx(1000.0, rel=1e-9) and channels["x"].t0 == 0.0


# Float64 values every generated column carries: both zeros, subnormals,
# the normal limits and exponents out to +-308.
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                2.2250738585072014e-308, -1e-308, 1e308, -1.7976931348623157e308,
                1.7976931348623157e308]
_FORMATS = {"repr": repr, "%.17g": "%.17g".__mod__, "%e": "%e".__mod__}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_channels=st.integers(1, 3), n_rows=st.integers(0, 12),
       fmt=st.sampled_from(sorted(_FORMATS)), plus=st.booleans(),
       pad=st.sampled_from(["", " ", "\t", "  "]))
def test_numpy_ingest_equals_the_row_walk_bit_for_bit(data, n_channels, n_rows, fmt, plus, pad):
    floats = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=n_rows, max_size=n_rows)
    columns = [[i / 1000.0 for i in range(n_rows + len(_EDGE_FLOATS))]]
    columns += [data.draw(floats) + _EDGE_FLOATS for _ in range(n_channels)]

    def cell(value):
        text = _FORMATS[fmt](value)
        return pad + ("+" + text if plus and not text.startswith("-") else text) + pad

    lines = [",".join(["t"] + [f"c{j}" for j in range(n_channels)])]
    lines += [",".join(map(cell, row)) for row in zip(*columns)]
    body = "\n".join(lines[1:]) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.csv"
        path.write_text(lines[0] + "\n" + body)
        assert signalcore._loadtxt(io.StringIO(body), n_channels + 1) is not None
        fast = ingest_csv(path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signalcore, "_loadtxt", lambda fh, width: None)
            walked = ingest_csv(path)
    assert list(fast) == list(walked)
    for name in fast:
        assert (fast[name].fs, fast[name].t0) == (walked[name].fs, walked[name].t0)
        assert fast[name].samples.tobytes() == walked[name].samples.tobytes()


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
