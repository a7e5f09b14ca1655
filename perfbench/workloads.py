"""The four benchmark workloads and their behaviour fingerprints.

A study is one call of a workload's entry point.  ``build`` creates a
workload's inputs (the set-up the benchmark times) and returns a
``Workload`` whose ``study`` runs one study and whose ``fingerprint``
reduces its output to the fields the correctness gate compares.

This module imports statorguard only inside ``build``, so the
orchestrator can read workload names without importing the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

WORKLOADS = ("sensitivity_sweep", "security_sweep", "replay_64g2_60s", "replay_64s_60s")
SIZES = ("full", "tiny")

# The stored fingerprints, rewritten by record.py.
FINGERPRINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprints.json")
# Fingerprints are recorded for input seeds 0..RECORDED_SEEDS-1; --seed n
# selects input set n mod RECORDED_SEEDS, so every seed is gated.
RECORDED_SEEDS = 64
# Relative tolerance for float fields of a fingerprint (margins,
# calibration ratio/beta_ng, 64S resistance and location).  Integers,
# booleans, strings and None compare exactly.
RTOL = 1e-6

FS = 1000.0
# harness.calibrate_from_config commissions with 0.35 s healthy records.
COMMISSIONING_RECORD_S = 0.35
# Replay recordings: (record length, fault onset) in seconds.
REPLAY_S = {"full": (60.0, 40.0), "tiny": (6.0, 4.0)}
# Fixed-ratio calibration handed to the 64G2 replay, so the CLI does not
# commission (the values commissioning gives at seed 0, rounded).
REPLAY_CALIBRATION = {"ratio": 1.22, "beta_ng": 0.148}
TINY_GRID = {"taps": (0.0, 0.5), "rfs": (50.0,), "loads": (1.0,)}
TINY_SECURITY = ("neutral_scale_60", "speed_600rpm")


def input_seed(seed: int) -> int:
    return seed % RECORDED_SEEDS


@dataclass
class Workload:
    name: str
    # seconds of signal one study simulates or ingests
    signal_s: float
    study: Callable[[], Any]
    fingerprint: Callable[[Any], Dict[str, Any]]


def build(name: str, seed: int, size: str, workdir: str) -> Workload:
    """Create the inputs of workload ``name`` under ``workdir``."""
    return _BUILDERS[name](input_seed(seed), size, workdir)


def _commissioning_s() -> float:
    from statorguard import harness
    return len(harness.default_calibration_points()) * COMMISSIONING_RECORD_S


def _sensitivity(seed: int, size: str, workdir: str) -> Workload:
    from statorguard import harness
    grid = harness.SweepGrid(**TINY_GRID) if size == "tiny" else None
    cells = len((grid or harness.SweepGrid()).cells())
    # sweep_sensitivity's default cell record: onset, detection window, 0.25 s tail
    cell_s = harness.DEFAULT_ONSET_SAMPLE / FS + harness.DETECTION_WINDOW_S + 0.25

    def study():
        return harness.sweep_sensitivity(grid, {"seed": seed})

    def fingerprint(report) -> Dict[str, Any]:
        return {
            "blind_zone": report.blind_zone,
            "detected": {
                "a64g2": sum(c["detected_adaptive"] for c in report.cells),
                "ng64g2": sum(c["detected_fixed"] for c in report.cells),
            },
            # per cell: detected (adaptive, fixed), latency (adaptive, fixed)
            "cells": [[c["detected_adaptive"], c["detected_fixed"],
                       c["latency_adaptive_samples"], c["latency_fixed_samples"]]
                      for c in report.cells],
            "calibration": report.calibration,
        }

    return Workload("sensitivity_sweep", cells * cell_s + _commissioning_s(),
                    study, fingerprint)


def _security(seed: int, size: str, workdir: str) -> Workload:
    from statorguard import harness
    catalog = harness.default_security_catalog()
    scenarios = None
    if size == "tiny":
        scenarios = [s for s in catalog if s["name"] in TINY_SECURITY]
    signal_s = sum(s["profile"]["duration"] for s in scenarios or catalog)

    def study():
        return harness.sweep_security(scenarios, {"seed": seed})

    def fingerprint(report) -> Dict[str, Any]:
        return {
            "misoperations": [[m["scenario"], m["scheme"]] for m in report.misoperations],
            "margins": {f"{c['scenario']}/{c['scheme']}": c["margin"] for c in report.cells},
            "calibration": report.calibration,
        }

    return Workload("security_sweep", signal_s + _commissioning_s(), study, fingerprint)


def _replay(argv: List[str], workdir: str) -> tuple:
    """Study and fingerprint of one CLI replay writing into workdir/out."""
    from statorguard import cli
    out = os.path.join(workdir, "out")
    argv = argv + ["--out", out]

    def study():
        # the CLI prints a JSON summary; keep it off the worker's stdout
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def fingerprint(exit_code) -> Dict[str, Any]:
        if exit_code != 0:
            return {"exit_code": exit_code}
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        return {
            "exit_code": exit_code,
            "verdicts": report["verdicts"],
            "rows": {f: csv_rows(os.path.join(out, f))
                     for f in sorted(os.listdir(out)) if f.endswith(".csv")},
        }

    return study, fingerprint


def csv_rows(path: str) -> int:
    """Data rows of a CSV file (lines after the header)."""
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            lines += block.count(b"\n")
    return lines - 1


def _write_config(workdir: str, config: Dict[str, Any]) -> str:
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path


def _replay_64g2(seed: int, size: str, workdir: str) -> Workload:
    from statorguard import plantsim, signalcore
    duration, onset = REPLAY_S[size]
    fault = {"x": 0.0, "rf": 50.0, "t_on": onset}
    sim = plantsim.simulate_64g2_scenario(
        plantsim.MachineConfig(), plantsim.FaultSpec(**fault),
        duration=duration, fs=FS, seed=seed)
    recording = os.path.join(workdir, "recording_64g2.csv")
    signalcore.write_csv(recording, {"vp3": sim.v_p3_wave, "vn3": sim.v_n3_wave})
    config = _write_config(workdir, {"kind": "64g2", "fault": fault,
                                     "calibration": REPLAY_CALIBRATION})
    study, fingerprint = _replay(
        ["detect-64g2", "--input", recording, "--config", config, "--format", "csv"],
        workdir)
    return Workload("replay_64g2_60s", duration, study, fingerprint)


def _replay_64s(seed: int, size: str, workdir: str) -> Workload:
    from statorguard import plantsim, signalcore
    duration, onset = REPLAY_S[size]
    fault = {"x": 0.25, "rf": 500.0, "t_on": onset}
    v_ts, i_ts = plantsim.simulate_64s_timeseries(
        plantsim.Subharmonic64SConfig(), [plantsim.FaultSpec(**fault)],
        duration=duration, fs=FS, noise_std=0.05,
        speed_profile=plantsim.constant_speed(1.0), seed=seed)
    recording = os.path.join(workdir, "recording_64s.csv")
    signalcore.write_csv(recording, {"vn": v_ts, "in": i_ts})
    config = _write_config(workdir, {"kind": "64s", "fault": fault})
    study, fingerprint = _replay(
        ["detect-64s", "--input", recording, "--config", config, "--format", "json"],
        workdir)
    return Workload("replay_64s_60s", duration, study, fingerprint)


_BUILDERS = {
    "sensitivity_sweep": _sensitivity,
    "security_sweep": _security,
    "replay_64g2_60s": _replay_64g2,
    "replay_64s_60s": _replay_64s,
}


def load_fingerprint(name: str, size: str, seed: int) -> Dict[str, Any]:
    """The stored fingerprint of (workload, size, input seed); KeyError if
    none was recorded."""
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        stored = json.load(fh)
    return stored["fingerprints"][size][name][str(input_seed(seed))]


def compare(expected: Any, actual: Any, path: str = "") -> List[str]:
    """Differences between two fingerprints, one line each.  Floats match
    within RTOL; everything else matches exactly."""
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and not isinstance(expected, bool) and not isinstance(actual, bool)
                and math.isclose(expected, actual, rel_tol=RTOL, abs_tol=0.0)):
            return []
        return [f"{path or '/'}: expected {expected!r}, got {actual!r}"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        diffs = []
        for key in sorted(set(expected) | set(actual)):
            if key not in actual or key not in expected:
                diffs.append(f"{path}/{key}: present in only one fingerprint")
            else:
                diffs.extend(compare(expected[key], actual[key], f"{path}/{key}"))
        return diffs
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        if len(expected) != len(actual):
            return [f"{path or '/'}: expected {len(expected)} items, got {len(actual)}"]
        diffs = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            diffs.extend(compare(e, a, f"{path}/{i}"))
        return diffs
    if expected != actual or type(expected) is not type(actual):
        return [f"{path or '/'}: expected {expected!r}, got {actual!r}"]
    return []
