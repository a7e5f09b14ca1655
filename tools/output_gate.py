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
it is, and pinned to one CPU, where no child is forked.  The SHA-256 of
every file they write is compared with ``output_digests.json`` next to
this script.  A change meant to keep behaviour must leave every digest
as it is.  The gate fails on a digest that differs, on a recorded one
that no run wrote (MISSING) and on one that is not recorded (NEW).

    python tools/output_gate.py            # compare; exit 1 on a mismatch
    python tools/output_gate.py --record   # rewrite output_digests.json

The digests hold for one numpy build (the Python 3.11 CI job's); another
build may differ in the last bits of a float.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from statorguard.cli import main

DIGESTS = Path(__file__).with_name("output_digests.json")

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
    ]


# runs made with this process pinned to one CPU
ONE_CPU = {"sweep-sensitivity-one-cpu", "detect-64g2-long-one-cpu"}


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


def compute() -> dict:
    """Digest of every file each run writes, keyed '<run>/<file name>'."""
    digests = {}
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        for run, args in _runs(tmp):
            out = tmp / run
            pinned = _one_cpu() if run in ONE_CPU else contextlib.nullcontext()
            with pinned, contextlib.redirect_stdout(io.StringIO()):
                code = main(args + ["--out", str(out)])
            if code != 0:
                raise SystemExit(f"{run}: statorguard exited {code}")
            for path in sorted(out.iterdir()):
                digests[f"{run}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def main_gate(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--record", action="store_true",
                        help="write the digests instead of comparing them")
    args = parser.parse_args(argv)
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
