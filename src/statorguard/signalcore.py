"""Waveform synthesis, sliding-window phasor extraction, and CSV input/output.

Shared signal layer for the protection schemes.  Both the third-harmonic
ratio scheme and the sub-harmonic injection scheme consume uniformly
sampled waveforms and per-sample narrowband phasor streams; this module
owns those two representations and the conversions between them, and
the one CSV writer (``write_table``) behind every CSV file the package
emits.

Phase convention: a tone ``A*cos(2*pi*f*t + phi)`` extracts to magnitude
``A`` and phase ``phi``.
"""

from __future__ import annotations

import csv
import gc
import io
import math
import os
import pickle
import re
import signal
import tempfile
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import (IO, Any, BinaryIO, Callable, Dict, Iterable, Iterator, List, Mapping,
                    NoReturn, Optional, Sequence, Tuple, Union)

import numpy as np
import orjson

__all__ = [
    "TimeSeries",
    "PhasorSeries",
    "extract_phasor",
    "reconstruct_narrowband",
    "ingest_csv",
    "write_csv",
    "write_table",
    "output_file",
    "in_two_processes",
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
) -> PhasorSeries:
    """Sliding single-bin DFT of ts at frequency f0.

    The window sum is maintained recursively (add the newest demodulated
    sample, drop the oldest) and re-anchored with an exact recomputation
    every 10 windows to bound float drift.

    The window length is nudged up from window_cycles*fs/f0 to the
    nearest sample count making the bin exactly self-orthogonal (plain
    rounding when none is near); for a pure f0 cosine the magnitude and
    phase are then exact after one full window.  Tones at frequencies f with
    (f - f0)*N/fs and (f + f0)*N/fs both integral contribute exactly zero.
    """
    if f0 <= 0:
        raise ValueError(f"f0 must be positive, got {f0}")
    if f0 >= ts.fs / 2.0:
        raise ValueError(f"f0={f0} is at or above Nyquist for fs={ts.fs}")
    if window_cycles < 1:
        raise ValueError(f"window_cycles must be >= 1, got {window_cycles}")
    target = window_cycles * ts.fs / f0
    n_win = _snap_window(target, f0, ts.fs)
    n = len(ts)
    if n_win > n:
        raise ValueError(f"window of {n_win} samples exceeds series length {n}")

    t = ts.times()
    y = ts.samples * np.exp(-2j * np.pi * f0 * t)

    # each window's sum in its own slot of one array, block by block
    n_out = n - n_win + 1
    sums = np.empty(n_out, dtype=complex)
    block = 10 * n_win
    for s in range(0, n_out, block):
        e = min(s + block, n_out)
        anchor = y[s : s + n_win].sum()
        sums[s] = anchor
        if e > s + 1:
            rest = sums[s + 1 : e]
            np.cumsum(y[s + n_win : e - 1 + n_win], out=rest)
            rest += anchor
            rest -= np.cumsum(y[s : e - 1])
    np.multiply(2.0 / n_win, sums, out=sums)  # (2 / n_win) * sums, in place

    warm = n_win - 1
    magnitude = np.empty(n)
    magnitude[:warm] = 0.0
    np.abs(sums, out=magnitude[warm:])
    phase = np.empty(n)
    phase[:warm] = 0.0
    np.arctan2(sums.imag, sums.real, out=phase[warm:])  # np.angle's arithmetic
    valid = np.zeros(n, dtype=bool)
    valid[warm:] = True
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
    Every channel needs a name of its own.  Missing cells and non-finite
    values (NaN, inf) are rejected.  Returns one TimeSeries per channel
    column, all sharing fs and t0.

    The file is read once as bytes and decoded as UTF-8, the encoding
    ``write_table`` writes.  The body is then parsed by the first of three
    tiers that accepts it, all giving the same floats bit for bit: orjson
    reads a body of JSON floats, as ``write_csv``, ``repr``, ``%.17g`` and
    ``%e`` write them; numpy reads any other body of numbers in one pass;
    and the row walk reads what both refuse, skipping blank rows and
    reading any cell ``float`` reads, and names the first bad line.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    # the lines as a text file opened with newline="" gives them to csv
    lines = (match.group().decode() for match in _LINE.finditer(raw))
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if len(header) < 2 or header[0] != "t":
        raise ValueError(f"{path}: header must be 't,<chan>,...', got {header}")
    names = header[1:]
    for i, name in enumerate(names, start=2):
        if not name:
            raise ValueError(f"{path}: header column {i} has an empty channel name")
        if name in header[:i - 1]:
            raise ValueError(f"{path}: header repeats the channel name {name!r}")
    # the body starts after the lines the header took; the tiers read it
    # from raw in place, with no copy of it
    start = max(m.end() for m in islice(_LINE.finditer(raw), reader.line_num))
    data = _orjson_rows(memoryview(raw)[start:], len(header))
    if data is None:
        fh = io.BytesIO(raw)
        fh.seek(start)
        data = _loadtxt(io.TextIOWrapper(fh, encoding="utf-8", newline=""), len(header))
    if data is None:
        data = _walk_rows(path, reader, len(header))  # from the line after the header
    if len(data) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
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


# A line with its end (CRLF, CR or LF), or a last line without one.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")

# Every byte a body of JSON floats may hold: the characters of a number,
# the comma, CRLF or LF line ends, and padding.
_JSON_BYTES = b"0123456789.eE+-,\r\n \t"

# Lines per orjson.loads call: one call for all 180,000 floats of a 60 s
# recording raised a 64S replay's peak memory from 68.6 to 70.9 MB.
_PARSE_LINES = 4096


def _orjson_rows(body, width: int) -> Optional[np.ndarray]:
    """The body, bytes or a memoryview of them, as a (rows, width) array
    of finite floats when it is rows of exactly ``width`` JSON floats,
    else None.

    A body with a CR that ends no CRLF is refused: csv ends a line there,
    JSON reads it as a space.  Each line must hold ``width - 1`` commas,
    checked from the positions of the commas and LFs, so that ragged rows
    cannot make up the total.  orjson then parses ``_PARSE_LINES`` lines
    per call into the array; a chunk with a byte outside ``_JSON_BYTES``
    (a letter, a quote) is refused before its parse.  A JSON int (``1``,
    ``-0``) refuses the body: orjson reads ``-0`` as ``0``, where
    ``float`` keeps its sign.  orjson reads JSON floats as ``float`` does,
    bit for bit; it raises on a value out of range."""
    if not body:
        return None
    chars = np.frombuffer(body, dtype=np.uint8)
    crs = np.flatnonzero(chars == ord("\r"))
    if len(crs) and (crs[-1] + 1 == len(chars) or (chars[crs + 1] != ord("\n")).any()):
        return None
    ends = np.flatnonzero(chars == ord("\n"))
    if chars[-1] != ord("\n"):
        ends = np.append(ends, len(chars))
    rows = len(ends)
    commas = np.flatnonzero(chars == ord(","))
    if len(commas) != rows * (width - 1):
        return None
    grid = commas.reshape(rows, width - 1)
    if (grid[1:, 0] < ends[:-1]).any() or (grid[:, -1] > ends).any():
        return None
    data = np.empty((rows, width))
    flat = data.reshape(-1)
    for first in range(0, rows, _PARSE_LINES):
        last = min(first + _PARSE_LINES, rows)
        start = int(ends[first - 1]) + 1 if first else 0
        chunk = bytes(body[start:int(ends[last - 1])])
        if chunk.translate(None, _JSON_BYTES):
            return None
        try:
            values = orjson.loads(b"[" + chunk.replace(b"\n", b",") + b"]")
        except orjson.JSONDecodeError:
            return None
        if {*map(type, values)} != {float}:
            return None
        flat[first * width:last * width] = values
    if not np.isfinite(data).all():
        return None
    return data


def _loadtxt(fh, width: int) -> Optional[np.ndarray]:
    """The rest of fh as a (rows, width) array of finite floats, or None
    when numpy cannot read it as one (the row walk then decides, and
    raises any decoding error where it reaches the bad bytes)."""
    try:
        body = fh.read()
    except UnicodeDecodeError:
        return None
    # numpy warns on a body without data; comments=None keeps '#' a bad
    # cell; a list of lines costs less memory than a StringIO of the body
    if not body or body.isspace():
        return None
    try:
        data = np.loadtxt(body.split("\n"), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape[1] != width or not np.isfinite(data).all():
        return None
    return data


def _walk_rows(path, reader, width: int) -> np.ndarray:
    """The csv rows after the header as floats, row by row: blank rows are
    skipped, and the first ragged, non-numeric or non-finite row raises
    with its line number."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise ValueError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
        try:
            vals = [float(c) for c in row]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric cell ({exc})")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"{path}:{lineno}: non-finite cell (NaN or inf)")
        rows.append(vals)
    return np.asarray(rows)


def _first_true(flags: Sequence[bool]) -> Optional[int]:
    """The index of the first True of a trace's flags (its ``trip``), None
    when there is none."""
    flags = np.asarray(flags, dtype=bool)
    first = int(flags.argmax()) if len(flags) else 0
    return first if len(flags) and flags[first] else None


def _seconds(index: Sequence[int], fs: float) -> np.ndarray:
    """``[i / fs for i in index]`` as a float64 array, bit for bit; a
    range, as every trace's sample index is, is read without a Python
    loop."""
    if isinstance(index, range):
        index = np.arange(index.start, index.stop, index.step)
    return np.asarray(index, dtype=float) / fs


def write_csv(path, channels: Mapping[str, TimeSeries]) -> None:
    """Write channels sharing one time base as ``t,<chan>,...`` CSV."""
    if not channels:
        raise ValueError("no channels to write")
    if "t" in channels:
        raise ValueError("channel name 't' is taken by the time column")
    series = list(channels.values())
    ref = series[0]
    for s in series[1:]:
        if abs(s.fs - ref.fs) > 1e-9 * ref.fs or abs(s.t0 - ref.t0) > 1e-12 or len(s) != len(ref):
            raise ValueError("all channels must share fs, t0 and length")
    write_table(path, {"t": ref.times(), **{name: s.samples for name, s in channels.items()}})


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _text(value) -> str:
    """A cell as ``str`` gives it, quoted as ``csv.QUOTE_MINIMAL`` would:
    wrapped in double quotes, each one doubled, when it holds a comma, a
    double quote, CR or LF."""
    text = str(value)
    if _NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


# The one cell rule of every CSV file, by value type: floats as repr
# writes them (round-trips exactly), bools as 0/1, ints in decimal,
# strings as they are (quoted when they must be); None is an empty cell,
# anything else goes by str, quoted the same way.  A float64 array, or a
# column of floats, goes through ``_floats`` in blocks rather than
# float.__repr__ per cell, and a bool array through ``_bools``.
_CELL = {float: float.__repr__, bool: int.__repr__, int: int.__repr__, str: _text}

# Rows formatted and written per block; at 4096 rows the cell strings of
# a block raised the peak memory of a 60 s 64S replay by 6 MB.
_BLOCK = 1024

# Tables with at least this many rows are formatted by two processes, and
# harness writes a 64G2 record's two trace files of this many rows the
# same way.  Measured on two vCPUs in a 57 MB process holding a 60 s
# replay's result, best of 11 in each of three runs, serial against
# split: one 64G2 trace with its long.csv melt 21-32 against 25-37 ms at
# 12,288 rows, 47-51 against 45-50 at 24,576, 62-76 against 55-57 at
# 32,768; both trace files with long.csv 43-68 against 35-52 ms at 12,288
# rows, 98-100 against 78-92 at 24,576.  The lone table breaks even
# between 16,384 and 24,576 rows; the trace files win from about 12,000
# rows.  One size serves both.
_FORK_ROWS = 24576


def _cell(value) -> str:
    return "" if value is None else _CELL.get(type(value), _text)(value)


def _floats(values: Sequence[float]) -> List[str]:
    """``float.__repr__`` of each of ``values`` (exact floats, or a float64
    array), from one ``orjson.dumps`` call: orjson writes the same
    shortest round-trip digits about ten times faster.  Its notation
    differs for nonzero values below 1e-4 in magnitude (``0.00001``,
    ``1e-6``), for values of 1e16 and above (``1e16``) and for NaN and
    infinities (``null``); those cells, picked by value with one numpy
    mask over the block, are formatted by ``repr`` instead."""
    if not len(values):
        return []
    if isinstance(values, np.ndarray):
        # orjson reads only C-contiguous arrays, such as a column's block
        raw = orjson.dumps(np.ascontiguousarray(values), option=orjson.OPT_SERIALIZE_NUMPY)
    else:
        raw = orjson.dumps(values)
    cells = raw[1:-1].decode().split(",")
    size = np.abs(np.asarray(values))
    for i in np.flatnonzero(((size < 1e-4) & (size != 0)) | ~(size < 1e16)).tolist():
        cells[i] = float.__repr__(values[i])
    return cells


def _bools(values: np.ndarray, texts: Tuple[str, str] = ("0", "1")) -> List[str]:
    """The cells of a bool array by lookup: ``texts[0]`` for False,
    ``texts[1]`` for True, taken from an object array by numpy."""
    return np.array(texts, dtype=object).take(values.view(np.uint8)).tolist()


def _rule(column: Sequence[Any]) -> Callable[[Sequence[Any]], List[str]]:
    """The cells of a block of ``column``: a float64 or bool array by its
    dtype, a column whose cells share one type by that type's rule, any
    other column cell by cell."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return _floats
        if column.dtype == np.bool_:
            return _bools
    kinds = set(map(type, column))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is float:
        return _floats
    rule = _CELL.get(kind, _cell)
    return lambda part: list(map(rule, part))


def _melted(values) -> List[str]:
    """Melted cells: each value as a float, None as an empty cell."""
    present = [float(v) for v in values if v is not None]
    cells = _floats(present)
    if len(present) == len(values):
        return cells
    rest = iter(cells)
    return ["" if v is None else next(rest) for v in values]


@contextmanager
def output_file(path, binary: bool = False) -> Iterator[IO]:
    """``path`` opened for writing as UTF-8 text with LF line ends, or as
    bytes (binary), and removed again, once closed, when the ``with``
    block raises, so a failed write leaves no partial file.  A file that
    could not be opened is left as it was."""
    fh = open(path, "wb") if binary else open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
    except BaseException:
        os.unlink(path)
        raise


def write_table(path, columns: Mapping[str, Sequence[Any]],
                long: Optional[Tuple[BinaryIO, str]] = None) -> None:
    """Write equal-length columns as CSV: a header line of the column
    names, then one LF-terminated row per index, formatted and written in
    blocks of rows.  A float64 or bool array is converted by its dtype's
    rule, a column of one type by that type's rule, any other column
    (an int or object array among them) cell by cell.

    ``long``, a file open for writing bytes and a label, also melts the
    table into that file: for each column after the first, in sorted name
    order, one ``label,<column>,<first column's cell>,<value>`` line per
    row, the value as a float (None an empty cell), in UTF-8.  A float
    cell's string serves both files.  The melted lines are joined per
    column and block, kept as bytes in an unnamed temporary file, and
    written as they are once the table is done; a label or name that
    UTF-8 cannot encode, such as a lone surrogate, raises
    ``UnicodeEncodeError``.

    The texts come from ``_format_rows``.  A table of at least
    ``_FORK_ROWS`` rows is formatted in two halves by ``in_two_processes``:
    this process formats the first half, writing its table texts as it
    goes, while theirs formats the second; each file then takes its texts
    from the two halves in turn, so the bytes written are the same either
    way.  When a cell cannot be formatted or a write fails, the table file
    is removed and the error raised."""
    if len({len(column) for column in columns.values()}) > 1:
        raise ValueError("table columns differ in length")
    names, data = list(columns), list(columns.values())
    rules = list(map(_rule, data))
    sink, sections = None, []
    if long:
        sink, label = long
        sections = [(j, f"{_text(label)},{_text(names[j])},")
                    for j in sorted(range(1, len(names)), key=names.__getitem__)]
    n = len(data[0]) if data else 0

    def texts(start, stop):
        return _format_rows(data, rules, sections, start, stop)

    with output_file(path) as fh:
        fh.write(",".join(map(_text, names)) + "\n")
        if n < _FORK_ROWS:
            own = texts(0, n)
            fh.writelines(islice(own, len(range(0, n, _BLOCK))))
            if sections:
                sink.writelines(own)
            return
        # the block boundary nearest the middle
        mid = (n + _BLOCK) // (2 * _BLOCK) * _BLOCK
        own_blocks, their_blocks = mid // _BLOCK, len(range(mid, n, _BLOCK))

        def first_half() -> Iterator[Union[str, bytes]]:
            own = texts(0, mid)
            fh.writelines(islice(own, own_blocks))
            return own

        with in_two_processes(first_half, lambda: texts(mid, n)) as (own, theirs):
            fh.writelines(islice(theirs, their_blocks))
            for _ in sections:
                sink.writelines(islice(own, own_blocks))
                sink.writelines(islice(theirs, their_blocks))


def _format_rows(data, rules, sections, start: int, stop: int
                 ) -> Iterator[Union[str, bytes]]:
    """The texts of rows [start, stop) of the table: each block's table
    rows as one str, then, for each long section ``(column, line prefix)``,
    that column's melted lines as UTF-8 bytes, one span per block.  Each
    text is one ``"".join`` over a list laid out in advance and filled by
    slice assignment: a row's cells at a stride of twice the width, with
    a comma between them and LF at its end, and a melted line as its
    prefix, the first column's cell and a comma (made once per block for
    every section), its value and LF.  The melted lines are encoded once
    and wait in an unnamed temporary file rather than in memory, where a
    60 s 64G2 trace's would take about 20 MB."""
    width = len(data)
    separators = [","] * (2 * width - 1) + ["\n"]
    spans: List[List[Tuple[int, int]]] = [[] for _ in sections]
    end = 0
    with tempfile.TemporaryFile() if sections else nullcontext() as spool:
        for lo in range(start, stop, _BLOCK):
            block = [column[lo:min(lo + _BLOCK, stop)] for column in data]
            cells = [rule(part) for rule, part in zip(rules, block)]
            rows = len(cells[0])
            table = separators * rows
            for j, column in enumerate(cells):
                table[2 * j::2 * width] = column
            yield "".join(table)
            if not sections:
                continue
            times = [t + "," for t in cells[0]]
            for span, (j, prefix) in zip(spans, sections):
                rule = rules[j]
                melt = [prefix, "", "", "\n"] * rows
                melt[1::4] = times
                melt[2::4] = (cells[j] if rule is _floats else
                              _bools(block[j], ("0.0", "1.0")) if rule is _bools else
                              _melted(block[j]))
                size = spool.write("".join(melt).encode())
                span.append((end, size))
                end += size
        for span in spans:
            for offset, size in span:
                spool.seek(offset)
                yield spool.read(size)


@contextmanager
def in_two_processes(mine: Callable[[], Any], theirs: Callable[[], Iterable[Any]]
                     ) -> Iterator[Tuple[Any, Iterator[Any]]]:
    """Call ``mine()`` here while a forked child iterates ``theirs()``;
    yield mine's result and an iterator over theirs' items, in order.

    The child pickles each item, as it is produced, into an unnamed
    temporary file, and this process loads them one at a time as the
    iterator is read.  Each item is dumped and loaded by a pickler of its
    own: one pickler for the whole stream would keep every loaded item
    alive through its memo.

    A child is forked only where the os module can fork and this process
    may run on more than one CPU.  While both work, this process runs on
    the lowest of its CPUs and the child on the others: left to itself,
    the scheduler kept a forked child on its parent's CPU, at half speed
    each, in about a third of the forks of two CPU-bound processes on an
    idle 2-vCPU machine.  Where no child is forked, the fork fails or the
    child exits non-zero, the iterator is ``iter(theirs())``, called here
    after ``mine()``, so an error of theirs is raised here; without a fork
    no temporary file is made.  The child is always reaped; when
    ``mine()`` raises, it is killed first."""
    cpus = (os.sched_getaffinity(0) if hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") else ())
    if len(cpus) < 2:
        yield mine(), iter(theirs())
        return
    with tempfile.TemporaryFile() as part:
        # numpy's OpenBLAS threads make every statorguard process
        # multi-threaded.  OpenBLAS stops its threads at a fork (its
        # pthread_atfork handler), and the sweep cells and the table
        # formatting take no lock another thread could hold.
        # Python 3.12 and later warn about this fork with a
        # DeprecationWarning; CI runs 3.10 and 3.11.
        try:
            pid = os.fork()
        except OSError:
            pid = None
        if pid == 0:
            _child(theirs, part, cpus - {min(cpus)})
        ok = False
        try:
            if pid is not None:
                os.sched_setaffinity(0, {min(cpus)})
            result = mine()
        except BaseException:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            if pid is not None:
                os.sched_setaffinity(0, cpus)
                ok = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        part.seek(0)
        yield result, (_loaded(part) if ok else iter(theirs()))


def _loaded(part: BinaryIO) -> Iterator[Any]:
    """The items pickled one after another into ``part``, loaded one at a
    time; a child that exited 0 wrote them all."""
    while True:
        try:
            item = pickle.load(part)
        except EOFError:
            return
        yield item


def _child(theirs, part, cpus) -> NoReturn:
    """The forked child: on ``cpus``, pickle each item of ``theirs()``
    into ``part`` and flush it, then leave without flushing or closing
    anything of the parent's or running its exit handlers; the exit
    status is 0 only when every item was written."""
    code = 1
    try:
        # a collection here could finalize the parent's garbage, such as a
        # file object that would flush the parent's buffered bytes again
        gc.disable()
        os.sched_setaffinity(0, cpus)
        for item in theirs():
            pickle.dump(item, part, pickle.HIGHEST_PROTOCOL)
        part.flush()
        code = 0
    finally:
        os._exit(code)
