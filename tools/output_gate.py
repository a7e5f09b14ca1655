"""Byte-identity gate for the files the CLI writes.

Runs short CLI commands in a temporary directory: ``simulate`` and
``detect-64g2`` on a 64G2 fault that trips, ``detect-64g2 --input`` on the
simulated waveforms, ``simulate`` and ``detect-64s`` on a 64S fault that
trips, ``detect-64s --input`` on its simulated waveforms (fs re-inferred
from the CSV time column), both detections again on two no-fault records
(the 64G2 ``gen_stop`` record of the seed-48 security sweep, whose
supervision dropouts and adaptive trip cover the scheme kernel's
invalid-frame path, and the 64S ``gen_stop_64s`` speed ramp; every
detection with ``--format csv``), ``calibrate`` at the default
commissioning points, both sweeps at seed 0, and the security sweep again
on a base that sets keys only one kind reads (its 64g2 cells read the
profile and detector settings, its 64s cells the estimator's), and the
sensitivity sweep again on a base whose profile, detector, adaptive
filter and onset settings every cell inherits, and the default
sensitivity sweep once more with this process pinned to one CPU, where
the sweep runs every cell itself instead of sharing them with a forked
child.  A 30 s 64G2 detection with a fixed calibration, whose 30,000
frames reach the two-process path of their trace files, runs twice: as
it is, and pinned to one CPU, where no child is forked.  So does a 30 s
64S detection, whose 30,000-row trace reaches the two-process row split
of its trace file with a long.csv melt.  The SHA-256 of
every file they write is compared with ``output_digests.json`` next to
this script.  A change meant to keep behaviour must leave every digest
as it is.  The gate fails on a digest that differs, on a recorded one
that no run wrote (MISSING) and on one that is not recorded (NEW).

    python tools/output_gate.py            # compare; exit 1 on a mismatch
    python tools/output_gate.py --record   # rewrite output_digests.json
    python tools/output_gate.py --against HEAD~1   # what moved, and how far

The digests hold for one numpy build (the Python 3.11 CI job's); another
build may differ in the last bits of a float.

``--against <rev>`` says what a digest cannot: it runs the same commands
on this checkout and on a ``git archive`` copy of the revision, both in
child processes, and compares the files they write.  In each JSON file
it names every verdict field that differs (``tripped``,
``first_trip_index``, ``detected``, ``latency_samples``,
``misoperation``, the sensitivity sweep's per-scheme ``detected_*`` and
``latency_*``, the ``blind_zone`` intervals and the ``misoperations``
list) and every other field, a float that differs by more than RTOL
relative included; a sweep report's ``digest``, a hash of its other
fields, is shown but judged through them.  For each CSV it gives per
column the largest absolute and relative difference of the numeric
cells and the first data row (0 = the row under the header) that
differs, and any change in the header or the row count.  It exits 0
when every file is identical or differs only in floats within RTOL, 2
when a verdict (a trace's ``trip`` column included) or another exact
field (a label, a row count, a file) moved, and 3 when only floats
moved beyond RTOL.  The digests and their comparison are not touched.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

import statorguard
from statorguard.cli import main

DIGESTS = Path(__file__).with_name("output_digests.json")
ROOT = Path(__file__).resolve().parent.parent

# the largest relative difference --against accepts in a float that is
# meant not to have moved: a few ulps of a reordered sum, far below any
# physical resolution of the study
RTOL = 1e-12
# report fields and trace columns that carry a verdict, compared exactly;
# a key under "blind_zone" or "misoperations" is one too, except a float's
VERDICT_KEYS = {"tripped", "first_trip_index", "detected", "latency_samples", "misoperation",
                "detected_adaptive", "detected_fixed", "latency_adaptive_samples",
                "latency_fixed_samples", "blind_zone", "misoperations", "trip"}
# a sweep report's SHA-256 of its other fields: it moves with any of them,
# so it is shown but judged through them
DERIVED_KEYS = {"digest"}
# exit codes of --against
SAME, VERDICTS_MOVED, FLOATS_MOVED = 0, 2, 3

FAULT_64G2 = {"kind": "64g2", "seed": 11, "fault": {"x": 0.0, "rf": 50.0, "t_on": 0.3},
              "profile": {"duration": 0.9}}
FAULT_64S = {"kind": "64s", "seed": 2, "noise": 0.0,
             "fault": {"x": 0.25, "rf": 90.0, "t_on": 1.6},
             "profile": {"duration": 2.5, "speed": 1.0}}
GEN_STOP_64G2 = {"kind": "64g2", "seed": 221267776,
                 "disturbances": [{"kind": "gen_stop", "t_on": 0.5, "t_off": 5.5}],
                 "profile": {"duration": 6.0}}
GEN_STOP_64S = {"kind": "64s", "seed": 5,
                "profile": {"duration": 3.5, "speed": {"t_start": 0.5, "t_end": 3.0,
                                                       "start": 1.0, "end": 0.0}}}
MIXED_BASE = {"profile": {"load_pu": 0.9, "window_cycles": 4}, "detector": {"persistence": 14},
              "estimator": {"smoothing_rate": 12.0}}
LONG_64G2 = {"kind": "64g2", "seed": 3, "fault": {"x": 0.05, "rf": 100.0, "t_on": 25.0},
             "profile": {"duration": 30.0}, "calibration": {"ratio": 1.22, "beta_ng": 0.148}}
LONG_64S = {"kind": "64s", "seed": 6, "fault": {"x": 0.3, "rf": 500.0, "t_on": 25.0},
            "profile": {"duration": 30.0, "speed": 1.0}}
SENSITIVITY_BASE = {"profile": {"window_cycles": 6, "supervision_frac": 0.12},
                    "detector": {"window": 14, "persistence": 10},
                    "kaf": {"rho0": 1.2, "measurement_noise": 0.01},
                    "onset_sample": 200,
                    "grid": {"taps": [0, 0.5, 1], "rfs": [50], "loads": [0.75], "pfs": [0.9]}}


def _runs(tmp: Path):
    """(run name, CLI arguments) in order; a run writes to tmp/<name>."""
    g2, s = tmp / "fault_64g2.json", tmp / "fault_64s.json"
    g2.write_text(json.dumps(FAULT_64G2))
    s.write_text(json.dumps(FAULT_64S))
    stop_g2, stop_s = tmp / "gen_stop_64g2.json", tmp / "gen_stop_64s.json"
    stop_g2.write_text(json.dumps(GEN_STOP_64G2))
    stop_s.write_text(json.dumps(GEN_STOP_64S))
    sweep = tmp / "sweep.json"
    sweep.write_text("{}")
    mixed = tmp / "mixed.json"
    mixed.write_text(json.dumps(MIXED_BASE))
    sens_base = tmp / "sensitivity_base.json"
    sens_base.write_text(json.dumps(SENSITIVITY_BASE))
    long_g2 = tmp / "long_64g2.json"
    long_g2.write_text(json.dumps(LONG_64G2))
    long_s = tmp / "long_64s.json"
    long_s.write_text(json.dumps(LONG_64S))
    return [
        ("simulate-64g2", ["simulate", "--config", str(g2)]),
        ("detect-64g2", ["detect-64g2", "--config", str(g2), "--format", "csv"]),
        ("detect-64g2-input", ["detect-64g2", "--config", str(g2), "--format", "csv",
                               "--input", str(tmp / "simulate-64g2" / "waveforms.csv")]),
        ("simulate-64s", ["simulate", "--config", str(s)]),
        ("detect-64s", ["detect-64s", "--config", str(s), "--format", "csv"]),
        ("detect-64s-input", ["detect-64s", "--config", str(s), "--format", "csv",
                              "--input", str(tmp / "simulate-64s" / "waveforms.csv")]),
        ("detect-64g2-gen-stop", ["detect-64g2", "--config", str(stop_g2), "--format", "csv"]),
        ("detect-64s-gen-stop", ["detect-64s", "--config", str(stop_s), "--format", "csv"]),
        ("calibrate", ["calibrate", "--config", str(sweep), "--seed", "0"]),
        ("sweep-sensitivity", ["sweep-sensitivity", "--config", str(sweep), "--seed", "0"]),
        ("sweep-security", ["sweep-security", "--config", str(sweep), "--seed", "0"]),
        ("sweep-security-mixed", ["sweep-security", "--config", str(mixed), "--seed", "0"]),
        ("sweep-sensitivity-base", ["sweep-sensitivity", "--config", str(sens_base),
                                    "--seed", "0"]),
        ("sweep-sensitivity-one-cpu", ["sweep-sensitivity", "--config", str(sweep),
                                       "--seed", "0"]),
        ("detect-64g2-long", ["detect-64g2", "--config", str(long_g2), "--format", "csv"]),
        ("detect-64g2-long-one-cpu", ["detect-64g2", "--config", str(long_g2),
                                      "--format", "csv"]),
        ("detect-64s-long", ["detect-64s", "--config", str(long_s), "--format", "csv"]),
        ("detect-64s-long-one-cpu", ["detect-64s", "--config", str(long_s), "--format", "csv"]),
    ]


# runs made with this process pinned to one CPU
ONE_CPU = {"sweep-sensitivity-one-cpu", "detect-64g2-long-one-cpu",
           "detect-64s-long-one-cpu"}


@contextlib.contextmanager
def _one_cpu():
    """This process pinned to its lowest allowed CPU, then restored."""
    if not hasattr(os, "sched_getaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def write_outputs(tmp: Path) -> List[str]:
    """Make every run, each writing to tmp/<run> (its config files are
    written to tmp); returns the run names."""
    tmp.mkdir(parents=True, exist_ok=True)
    names = []
    for run, args in _runs(tmp):
        pinned = _one_cpu() if run in ONE_CPU else contextlib.nullcontext()
        with pinned, contextlib.redirect_stdout(io.StringIO()):
            code = main(args + ["--out", str(tmp / run)])
        if code != 0:
            raise SystemExit(f"{run}: statorguard exited {code}")
        names.append(run)
    return names


def compute() -> dict:
    """Digest of every file each run writes, keyed '<run>/<file name>'."""
    digests = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for run in write_outputs(tmp):
            for path in sorted((tmp / run).iterdir()):
                digests[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class _Diff:
    """The differences found in one file: lines to print, and whether an
    exact field or a float beyond RTOL moved."""

    def __init__(self):
        self.lines: List[str] = []
        self.exact = self.floats = False

    def moved(self, line: str) -> None:
        self.lines.append(line)
        self.exact = True


def _float_pair(a: Any, b: Any) -> bool:
    """True when a and b are numbers, one of them a float, so that they
    compare within RTOL."""
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return numbers and (isinstance(a, float) or isinstance(b, float))


def _differences(x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where two float arrays differ (NaN equals NaN here), and their
    absolute and relative differences there (0 elsewhere, inf where one
    side is not finite)."""
    with np.errstate(invalid="ignore", over="ignore"):
        moved = ~((x == y) | (np.isnan(x) & np.isnan(y)))
        absolute = np.where(moved, np.abs(x - y), 0.0)
        rel = np.where(moved, absolute / np.maximum(np.abs(x), np.abs(y)), 0.0)
    absolute[np.isnan(absolute)] = math.inf
    rel[np.isnan(rel)] = math.inf
    return moved, absolute, rel


def _compare_json(a: Any, b: Any, path: str, diff: _Diff, verdict: bool = False) -> None:
    """Every leaf of two JSON values that differs: a verdict's exactly, a
    float's beyond RTOL."""
    where = path or "/"
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key not in a or key not in b:
                diff.moved(f"  {where}: key {key!r} only in the {'new' if key in b else 'old'}")
            elif key in DERIVED_KEYS:
                if a[key] != b[key]:
                    diff.lines.append(f"  {path}/{key}: {a[key]!r} -> {b[key]!r} (derived)")
            else:
                _compare_json(a[key], b[key], f"{path}/{key}", diff,
                              verdict or key in VERDICT_KEYS)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diff.moved(f"  {where}: {len(a)} items -> {len(b)}"
                       + (" (verdict)" if verdict else ""))
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(x, y, f"{path}/{i}", diff, verdict)
    elif _float_pair(a, b) and "/blind_zone" not in path:
        _, (absolute,), (rel,) = _differences(np.array([a], float), np.array([b], float))
        if rel > RTOL:
            diff.lines.append(f"  {where}: {a!r} -> {b!r} (abs {absolute:.3g}, rel {rel:.3g})")
            diff.floats = True
        elif absolute:
            diff.lines.append(f"  {where}: {a!r} -> {b!r} (rel {rel:.3g}, within {RTOL:g})")
    elif a != b or type(a) is not type(b):
        diff.moved(f"  {where}: {a!r} -> {b!r}" + (" (verdict)" if verdict else ""))


def _numbers(cells: List[str]):
    """The cells as a float64 array, or None when one is not a number."""
    try:
        return np.array(cells, dtype=float)
    except ValueError:
        return None


def _compare_csv(old: Path, new: Path, diff: _Diff) -> None:
    """Header and row count, then per column the largest absolute and
    relative difference of its numeric cells and the first row that
    differs; a trip column, and a cell that is not a number, compare
    exactly."""
    tables = []
    for path in (old, new):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        tables.append((rows[0] if rows else [], rows[1:]))
    (head_a, rows_a), (head_b, rows_b) = tables
    if head_a != head_b:
        diff.moved(f"  header {','.join(head_a)} -> {','.join(head_b)}")
        return
    if len(rows_a) != len(rows_b):
        diff.moved(f"  {len(rows_a)} rows -> {len(rows_b)}")
    n = min(len(rows_a), len(rows_b))
    for j, name in enumerate(head_a):
        cells_a = [row[j] for row in rows_a[:n]]
        cells_b = [row[j] for row in rows_b[:n]]
        if cells_a == cells_b:
            continue
        x, y = _numbers(cells_a), _numbers(cells_b)
        if x is None or y is None or name in VERDICT_KEYS:
            first = next(i for i, (p, q) in enumerate(zip(cells_a, cells_b)) if p != q)
            diff.moved(f"  column {name}: row {first} {cells_a[first]!r} -> "
                       f"{cells_b[first]!r}" + (" (verdict)" if name in VERDICT_KEYS else ""))
            continue
        moved, absolute, rel = _differences(x, y)
        if not moved.any():
            diff.moved(f"  column {name}: the same numbers, written differently")
            continue
        worst = float(rel.max())
        diff.lines.append(
            f"  column {name}: max abs {absolute.max():.3g}, max rel {worst:.3g}"
            f"{' BEYOND ' if worst > RTOL else ' within '}{RTOL:g}, "
            f"{int(moved.sum())} rows differ, first row {int(np.argmax(moved))}")
        diff.floats |= worst > RTOL


def compare_outputs(old: Path, new: Path) -> Tuple[List[str], int]:
    """Report lines for every file of a run (<dir>/<run>/<file>) under two
    output directories (old, then new) that differs, and the exit code:
    SAME, VERDICTS_MOVED or FLOATS_MOVED."""
    files = {p.relative_to(d).as_posix() for d in (old, new) for p in d.glob("*/*")
             if p.is_file()}
    lines: List[str] = []
    counts = {"identical": 0, "floats within tolerance": 0, "floats beyond tolerance": 0,
              "verdicts or exact fields moved": 0}
    for name in sorted(files):
        a, b = old / name, new / name
        diff = _Diff()
        if not (a.is_file() and b.is_file()):
            diff.moved(f"  only in the {'new' if b.is_file() else 'old'} output")
        elif a.read_bytes() == b.read_bytes():
            counts["identical"] += 1
            continue
        elif name.endswith(".json"):
            _compare_json(json.loads(a.read_text()), json.loads(b.read_text()), "", diff)
        elif name.endswith(".csv"):
            _compare_csv(a, b, diff)
        else:
            diff.moved("  bytes differ")
        kind = ("verdicts or exact fields moved" if diff.exact else
                "floats beyond tolerance" if diff.floats else "floats within tolerance")
        counts[kind] += 1
        lines += [f"{name}: {kind}"] + diff.lines
    lines.append(", ".join(f"{n} {kind}" for kind, n in counts.items()) + f" (RTOL {RTOL:g})")
    code = (VERDICTS_MOVED if counts["verdicts or exact fields moved"] else
            FLOATS_MOVED if counts["floats beyond tolerance"] else SAME)
    return lines, code


def _write_in(tree: Path, out: Path) -> None:
    """Every run made by a child process on the package under tree/src,
    writing to out."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--write", str(out)],
                          cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"output_gate: the runs in {tree} failed:\n{proc.stderr}")
    # the child names the package it imported, which must be tree's
    if Path(lines[-1]).resolve() != (tree / "src" / "statorguard").resolve():
        raise SystemExit(f"output_gate: the runs in {tree} imported {lines[-1]}")


def against(rev: str) -> int:
    """Compare this checkout's outputs with those of a revision; prints
    the report and returns its exit code."""
    tmp = Path(tempfile.mkdtemp(prefix="output_gate-"))
    try:
        sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout.strip()
        tree = tmp / "rev"
        tree.mkdir()
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        _write_in(tree, tmp / "old")
        _write_in(ROOT, tmp / "new")
        lines, code = compare_outputs(tmp / "old", tmp / "new")
    except subprocess.CalledProcessError as exc:
        raise SystemExit(f"output_gate: {' '.join(exc.cmd[:2])} failed: {exc.stderr}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{rev} ({sha[:12]}) -> this checkout")
    print("\n".join(lines))
    return code


def main_gate(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write the digests instead of comparing them")
    parser.add_argument("--against", metavar="REV",
                        help="compare the files with those a git revision writes")
    parser.add_argument("--write", type=Path, metavar="DIR",
                        help="only make the runs, writing to DIR/<run>")
    args = parser.parse_args(argv)
    if args.against is not None:
        return against(args.against)
    if args.write is not None:
        write_outputs(args.write)
        print(Path(statorguard.__file__).parent)
        return 0
    got = compute()
    if args.record:
        DIGESTS.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"recorded {len(got)} digests in {DIGESTS}")
        return 0
    want = json.loads(DIGESTS.read_text())
    bad = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    for key in bad:
        print(f"MISMATCH {key}: expected {want[key]}, got {got[key]}")
    missing, new = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    for key in missing:
        print(f"MISSING {key}: expected {want[key]}, no run wrote it")
    for key in new:
        print(f"NEW {key}: got {got[key]}, not recorded")
    print(f"{len(want) - len(bad) - len(missing)}/{len(want)} recorded output digests match"
          + (f"; {len(new)} new" if new else ""))
    return 1 if bad or missing or new else 0


if __name__ == "__main__":
    sys.exit(main_gate())
