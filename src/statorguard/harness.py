"""Scenario orchestration, reliability studies, and report emission.

A scenario is a JSON-friendly dict (sections: kind, seed, machine or
sub64s, fault, disturbances, profile, noise, plus detector/estimator
tuning).  run_scenario executes the full pipeline for one scenario;
sweep_sensitivity and sweep_security run the grid and disturbance
studies behind the reliability claims; emit_report writes deterministic
JSON/CSV artifacts.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import numbers
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields as dc_fields, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, get_type_hints

import numpy as np

from .a64g2 import (
    AdaptiveRatioDetector,
    Calibration64RAT,
    DetectorConfig,
    FixedRatioDetector,
    SchemeTrace,
    calibrate_64rat,
    restraint_column,
    write_trace_csv,
)
from .a64s import (
    A64SEstimator,
    A64SEstimatorConfig,
    InsulationDetectorConfig,
    write_a64s_trace_csv,
)
from .plantsim import (
    DisturbanceSpec,
    FaultSpec,
    MachineConfig,
    Scenario64G2Result,
    Subharmonic64SConfig,
    check_operating_point,
    constant_speed,
    frames_from_64g2_waveforms,
    ramp_speed,
    simulate_64g2_scenario,
    simulate_64s_timeseries,
)
# extract_phasor is not called here; it stays importable from harness
# because perfbench/tracing.py wraps it by that binding.
from .signalcore import TimeSeries, extract_phasor, output_file, write_table  # noqa: F401

__all__ = [
    "ConfigError",
    "ScenarioResult",
    "SweepGrid",
    "ReliabilityReport",
    "load_config",
    "run_scenario",
    "simulate_waveforms",
    "calibrate_from_config",
    "default_calibration_points",
    "default_security_catalog",
    "sweep_sensitivity",
    "sweep_security",
    "emit_report",
    "write_json",
    "DETECTION_WINDOW_S",
    "DEFAULT_ONSET_SAMPLE",
]

# A fault counts as detected when the trip lands within this long of onset.
DETECTION_WINDOW_S = 0.5
DEFAULT_ONSET_SAMPLE = 270
_SCHEMES = ("adaptive", "fixed")

# Allowed keys of every config level read here by hand.  Sections backed
# by a dataclass (machine, sub64s, fault, disturbances, detector, grid,
# estimator.detector) reject unknown keys through its constructor.  One
# scenario file is meant to be reusable across simulate, detect,
# calibrate and the sweeps, so the top level admits every section any of
# them reads.
_KEYS = {
    "config": frozenset((
        "kind", "seed", "noise", "profile", "machine", "sub64s", "fault",
        "disturbances", "schemes", "calibration", "kaf", "detector",
        "estimator", "onset_sample", "grid", "scenarios",
    )),
    "profile": frozenset((
        "duration", "fs", "load_pu", "pf", "speed", "window_cycles",
        "supervision_frac",
    )),
    "profile.speed": frozenset(("t_start", "t_end", "start", "end")),
    "calibration": frozenset(("ratio", "beta_ng", "guard", "points", "duration")),
    "calibration.points": frozenset(("load_pu", "pf")),
    "kaf": frozenset(("process_noise", "measurement_noise", "initial_variance", "rho0")),
    "estimator": frozenset(f.name for f in dc_fields(A64SEstimatorConfig)),
    "scenarios": frozenset(("name", "kind", "disturbances", "profile", "fault")),
}


class ConfigError(ValueError):
    """A scenario/sweep configuration is malformed or inconsistent."""


def load_config(path) -> Dict[str, Any]:
    """Read a JSON scenario config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _check_keys(value, level: str) -> None:
    """Reject a value that is not an object holding only keys of level."""
    if not isinstance(value, dict):
        raise ConfigError(f"{level} must be an object")
    unknown = set(value) - _KEYS[level]
    if unknown:
        raise ConfigError(f"{level}: unknown keys {sorted(unknown)}; "
                          f"recognized: {sorted(_KEYS[level])}")


def _section(config: Dict[str, Any], name: str) -> Dict[str, Any]:
    """Section name of a checked config; absent or null reads as empty."""
    return config.get(name) or {}


def _number(section: Dict[str, Any], key: str, default, where: str, cast=float):
    """section[key] (or default) as a finite number converted by cast; an
    int cast also requires an integral value."""
    value = section.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"'{where}{key}' must be a finite number, got {value!r}")
    if cast is int and value != int(value):
        raise ConfigError(f"'{where}{key}' must be an integer, got {value!r}")
    return cast(value)


def _check_config(config) -> str:
    """Reject unknown keys at every level read by hand and an incomplete
    calibration setting; returns the scenario kind."""
    _check_keys(config, "config")
    for name in ("profile", "calibration", "kaf", "estimator"):
        if config.get(name) is not None:
            _check_keys(config[name], name)
    speed = _section(config, "profile").get("speed")
    if isinstance(speed, dict):
        _check_keys(speed, "profile.speed")
    calibration = _section(config, "calibration")
    points = calibration.get("points") or []
    if not isinstance(points, list):
        raise ConfigError("calibration.points must be a list")
    for point in points:
        _check_keys(point, "calibration.points")
    schemes = config.get("schemes", list(_SCHEMES))
    if not isinstance(schemes, list) or not schemes or any(s not in _SCHEMES for s in schemes):
        raise ConfigError(f"'schemes' must be a non-empty list drawn from {_SCHEMES}, "
                          f"got {schemes!r}")
    if ("ratio" in calibration) != ("beta_ng" in calibration):
        raise ConfigError("calibration needs both 'ratio' and 'beta_ng' (a fixed "
                          "setting) or neither (commission from healthy runs)")
    kind = config.get("kind", "64g2")
    if kind not in ("64g2", "64s"):
        raise ConfigError(f"'kind' must be '64g2' or '64s', got {kind!r}")
    if kind == "64g2" and "sub64s" in config and "machine" not in config:
        raise ConfigError("64g2 scenario given only a sub64s section; wrong kind?")
    if kind == "64s" and "machine" in config and "sub64s" not in config:
        raise ConfigError("64s scenario given only a machine section; wrong kind?")
    return kind


@functools.cache
def _int_fields(cls) -> frozenset:
    """Names of the int (or optional int) fields of a config dataclass."""
    hints = get_type_hints(cls)
    return frozenset(f.name for f in dc_fields(cls) if hints[f.name] in (int, Optional[int]))


def _build(cls, data: Dict[str, Any], section: str):
    """cls built from a config section; lists become tuples and an int
    field takes only an integral number, read as _number reads it."""
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be an object")
    int_fields = _int_fields(cls)
    kwargs = dict(data)
    for key, value in kwargs.items():
        if isinstance(value, list):
            kwargs[key] = tuple(value)
        elif key in int_fields and value is not None:
            kwargs[key] = _number(kwargs, key, None, f"{section}.", int)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {section!r}: {exc}") from exc


@contextmanager
def _config_errors():
    """Report a ValueError as a ConfigError, around a simulator or settings
    object whose every argument here comes from the config."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _derive_seed(base_seed: int, *branch: int) -> int:
    return int(np.random.SeedSequence([int(base_seed), *[int(b) for b in branch]])
               .generate_state(1)[0])


@dataclass
class ScenarioResult:
    """Outcome of one scenario: machine-readable verdicts plus the full
    per-sample traces keyed by scheme name."""

    kind: str
    name: str
    seed: int
    verdicts: Dict[str, Dict[str, Any]]
    traces: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "verdicts": self.verdicts,
        }


@dataclass
class SweepGrid:
    """Axes of the sensitivity study."""

    taps: Tuple[float, ...] = (0.0, 0.03, 0.06, 0.09, 0.125, 0.25, 0.375,
                               0.5, 0.625, 0.75, 0.875, 1.0)
    rfs: Tuple[float, ...] = (50.0, 1000.0)
    loads: Tuple[float, ...] = (0.5, 1.0)
    pfs: Tuple[float, ...] = (1.0,)

    def __post_init__(self):
        self.taps = tuple(float(x) for x in self.taps)
        self.rfs = tuple(float(r) for r in self.rfs)
        self.loads = tuple(float(l) for l in self.loads)
        self.pfs = tuple(float(p) for p in self.pfs)
        if not (self.taps and self.rfs and self.loads and self.pfs):
            raise ConfigError("sweep grid axes must be non-empty")
        if any(not 0.0 <= x <= 1.0 for x in self.taps):
            raise ConfigError("grid taps must lie in [0, 1]")
        if any(not 0.0 <= r < math.inf for r in self.rfs):
            raise ConfigError("grid fault resistances must be finite and >= 0")

    def cells(self) -> List[Tuple[float, float, float, float]]:
        return [
            (x, rf, load, pf)
            for x in sorted(self.taps)
            for rf in sorted(self.rfs)
            for load in sorted(self.loads)
            for pf in sorted(self.pfs)
        ]


@dataclass
class ReliabilityReport:
    """Machine-readable outcome of a sweep study."""

    study: str
    cells: List[Dict[str, Any]] = field(default_factory=list)
    blind_zone: List[List[float]] = field(default_factory=list)
    misoperations: List[Dict[str, Any]] = field(default_factory=list)
    calibration: Optional[Dict[str, float]] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "study": self.study,
            "cells": self.cells,
            "blind_zone": self.blind_zone,
            "misoperations": self.misoperations,
            "calibration": self.calibration,
            "meta": self.meta,
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _seed(config: Dict[str, Any]) -> int:
    seed = _number(config, "seed", 0, "", int)
    if seed < 0:
        raise ConfigError(f"'seed' must be >= 0, got {seed}")
    return seed


def _noise_from(config: Dict[str, Any]) -> float:
    noise = _number(config, "noise", 0.05, "")
    if noise < 0:
        raise ConfigError("'noise' must be a number >= 0")
    return noise


def _machine_from(config: Dict[str, Any]) -> MachineConfig:
    return _build(MachineConfig, config.get("machine", {}), "machine")


def _fault_from(config: Dict[str, Any]) -> Optional[FaultSpec]:
    section = config.get("fault")
    return _build(FaultSpec, section, "fault") if section else None


def _speed_profile_from(profile: Dict[str, Any]):
    spec = profile.get("speed")
    if spec is None:
        return None
    if not isinstance(spec, dict):
        return constant_speed(_number(profile, "speed", None, "profile."))
    t_start, t_end, start, end = (_number(spec, key, None, "profile.speed.")
                                  for key in ("t_start", "t_end", "start", "end"))
    try:
        return ramp_speed(t_start, t_end, start, end)
    except ValueError as exc:
        raise ConfigError(f"speed ramp: {exc}") from exc


def _channels(input_channels: Dict[str, TimeSeries], *names: str) -> List[TimeSeries]:
    """The named channels of a recording, matched case-insensitively; two
    columns whose names differ only in case are a config error."""
    column = {}  # lower-cased channel name -> the column's own name
    for name in input_channels:
        other = column.setdefault(name.lower(), name)
        if other != name:
            raise ConfigError(f"input CSV columns {other!r} and {name!r} "
                              "name the same channel (names ignore case)")
    if any(name not in column for name in names):
        quoted = " and ".join(repr(name) for name in names)
        raise ConfigError(f"input CSV must provide {quoted} channels")
    return [input_channels[column[name]] for name in names]


def default_calibration_points() -> List[Tuple[float, float]]:
    """Operating points for commissioning the fixed-ratio scheme: a load
    ladder at unity power factor plus lagging/leading extremes."""
    points = [(load, 1.0) for load in (0.5, 0.625, 0.75, 0.875, 1.0)]
    for load in (0.5, 0.75, 1.0):
        points.append((load, 0.85))
        points.append((load, -0.85))
    return points


def calibrate_from_config(config: Dict[str, Any]) -> Tuple[Calibration64RAT, List[Dict[str, float]]]:
    """Commission the fixed-ratio scheme from healthy runs across the
    calibration operating points; returns the calibration and the
    per-point medians that produced it."""
    _check_config(config)
    machine = _machine_from(config)
    noise = _noise_from(config)
    seed = _seed(config)
    cal_section = _section(config, "calibration")
    guard = _number(cal_section, "guard", 0.15, "calibration.")
    points_spec = cal_section.get("points")
    if points_spec is None:
        op_points = default_calibration_points()
    else:
        op_points = [(_number(p, "load_pu", None, "calibration.points."),
                      _number(p, "pf", None, "calibration.points."))
                     for p in points_spec]
    # checked here rather than left to calibrate_64rat, so that a bad
    # setting is a config error and costs no healthy run
    if len(op_points) < 2:
        raise ConfigError(f"calibration needs at least 2 points, got {len(op_points)}")
    if guard < 0:
        raise ConfigError(f"'calibration.guard' must be >= 0, got {guard}")
    fs = _number(_section(config, "profile"), "fs", 1000.0, "profile.")
    duration = _number(cal_section, "duration", 0.35, "calibration.")

    measured: List[Tuple[float, float]] = []
    details: List[Dict[str, float]] = []
    for i, (load, pf) in enumerate(op_points):
        with _config_errors():
            sim = simulate_64g2_scenario(
                machine, fault=None, disturbances=(), load_pu=load, pf=pf,
                duration=duration, fs=fs, noise_std=noise,
                seed=_derive_seed(seed, 7000, i),
            )
        vp = np.array(sim.frames.v_p3)[sim.frames.valid]
        vn = np.array(sim.frames.v_n3)[sim.frames.valid]
        if vp.size == 0:
            raise ConfigError(f"calibration point load={load}, pf={pf} produced no valid frames")
        point = (float(np.median(vp)), float(np.median(vn)))
        measured.append(point)
        details.append({"load_pu": load, "pf": pf, "v_p3": point[0], "v_n3": point[1]})
    return _usable(calibrate_64rat(measured, guard=guard)), details


def _usable(calibration: Calibration64RAT) -> Calibration64RAT:
    """calibration, after checking that beta_ng**2, the fixed scheme's
    sensitivity, is one DetectorConfig accepts: it is 0 for collinear
    commissioning points and under- or overflows for an extreme setting."""
    try:
        threshold = calibration.threshold
    except OverflowError:
        threshold = math.inf
    if not sys.float_info.min <= threshold < math.inf:
        raise ConfigError(f"'calibration.beta_ng' = {calibration.beta_ng!r} gives the fixed "
                          f"scheme the sensitivity beta_ng**2 = {threshold!r}, which must be "
                          f"finite and at least {sys.float_info.min!r}")
    return calibration


def _resolve_calibration(config: Dict[str, Any]) -> Calibration64RAT:
    section = _section(config, "calibration")
    if "ratio" in section and "beta_ng" in section:
        ratio, beta_ng = (_number(section, key, None, "calibration.")
                          for key in ("ratio", "beta_ng"))
        if not (ratio > 0 and beta_ng > 0):
            raise ConfigError(f"a fixed calibration needs ratio > 0 and beta_ng > 0, "
                              f"got ratio={ratio!r}, beta_ng={beta_ng!r}")
        return _usable(Calibration64RAT(ratio=ratio, beta_ng=beta_ng))
    calibration, _ = calibrate_from_config(config)
    return calibration


def _fault_verdict(first: Optional[int], onset: Optional[int], fs: float) -> Dict[str, Any]:
    """Latency and detection against the fault onset; without a fault,
    whether the scheme misoperated."""
    if onset is None:
        return {"misoperation": first is not None}
    latency = None if first is None else first - onset
    return {
        "latency_samples": latency,
        "detected": latency is not None and 0 <= latency <= DETECTION_WINDOW_S * fs,
    }


def _scenario_64g2(config: Dict[str, Any],
                   input_channels: Optional[Dict[str, TimeSeries]] = None) -> Scenario64G2Result:
    """Frames of a 64g2 scenario, from ingested waveforms or the simulator."""
    machine = _machine_from(config)
    fault = _fault_from(config)
    disturbances = [
        _build(DisturbanceSpec, d, f"disturbances[{i}]")
        for i, d in enumerate(config.get("disturbances", []))
    ]
    profile = _section(config, "profile")
    load_pu = _number(profile, "load_pu", 1.0, "profile.")
    pf = _number(profile, "pf", 1.0, "profile.")
    duration = _number(profile, "duration", 1.0, "profile.")
    fs = _number(profile, "fs", 1000.0, "profile.")
    window_cycles = _number(profile, "window_cycles", 3, "profile.", int)
    supervision_frac = _number(profile, "supervision_frac", 0.1, "profile.")
    noise = _noise_from(config)
    seed = _seed(config)
    # settings are checked before any recording is read, so that a bad
    # setting is a config error and only a bad recording a runtime one
    if window_cycles < 1:
        raise ConfigError(f"'profile.window_cycles' must be >= 1, got {window_cycles}")
    if not 0.0 <= supervision_frac < 1.0:
        raise ConfigError(f"'profile.supervision_frac' must be in [0, 1), got {supervision_frac}")
    with _config_errors():
        check_operating_point(load_pu, pf)

    if input_channels is None:
        with _config_errors():
            return simulate_64g2_scenario(
                machine, fault, disturbances, load_pu, pf, duration, fs, noise,
                window_cycles=window_cycles, supervision_frac=supervision_frac, seed=seed,
            )
    vp3, vn3 = _channels(input_channels, "vp3", "vn3")
    sim = frames_from_64g2_waveforms(vp3, vn3, machine, load_pu, pf,
                                     window_cycles, supervision_frac)
    return replace(sim, onset_index=_onset_index(fault, vp3))


def _onset_index(fault: Optional[FaultSpec], ts: TimeSeries) -> Optional[int]:
    """Fault onset sample of a replayed or 64s record; the 64g2 simulator
    applies the same FaultSpec.onset_index rule."""
    return None if fault is None else fault.onset_index(ts.fs, len(ts))


def _run_64g2(config: Dict[str, Any], name: str,
              input_channels: Optional[Dict[str, TimeSeries]] = None) -> ScenarioResult:
    det_cfg = _build(DetectorConfig, config.get("detector", {}), "detector")
    schemes = config.get("schemes", _SCHEMES)
    section = _section(config, "kaf")
    kaf = {k: _number(section, k, None, "kaf.") for k, v in section.items() if v is not None}
    with _config_errors():
        adaptive = AdaptiveRatioDetector(cfg=det_cfg, **kaf)
    if "fixed" in schemes:
        calibration = _resolve_calibration(config)
        with _config_errors():
            fixed = FixedRatioDetector.from_calibration(
                calibration, window=det_cfg.window, persistence=det_cfg.persistence)
    sim = _scenario_64g2(config, input_channels)
    # both schemes read one restraint column; building it checks the magnitudes
    restraint = restraint_column(sim.frames, det_cfg.window)

    verdicts: Dict[str, Dict[str, Any]] = {}
    traces: Dict[str, Any] = {}
    if "adaptive" in schemes:
        trace = adaptive.run(sim.frames, sim.fs, onset_index=sim.onset_index,
                             restraint=restraint)
        verdicts["a64g2"] = _verdict_64g2(trace)
        traces["a64g2"] = trace
    if "fixed" in schemes:
        trace = fixed.run(sim.frames, sim.fs, onset_index=sim.onset_index,
                          restraint=restraint)
        verdict = _verdict_64g2(trace)
        verdict["calibration"] = {"ratio": calibration.ratio,
                                  "beta_ng": calibration.beta_ng}
        verdicts["ng64g2"] = verdict
        traces["ng64g2"] = trace
    return ScenarioResult(kind="64g2", name=name, seed=_seed(config),
                          verdicts=verdicts, traces=traces)


def _verdict_64g2(trace: SchemeTrace) -> Dict[str, Any]:
    first = trace.first_trip_index
    margin = trace.margin()
    if margin == math.inf:
        raise ValueError(f"the {trace.scheme} margin is infinite: sensitivity "
                         f"{trace.sensitivity!r} times the restraint underflows to 0")
    return {
        "tripped": first is not None,
        "first_trip_index": first,
        "margin": margin,
        **_fault_verdict(first, trace.onset_index, trace.fs),
    }


def _estimator_cfg_from(config: Dict[str, Any]) -> A64SEstimatorConfig:
    section = _section(config, "estimator")
    detector = _build(InsulationDetectorConfig, section.get("detector", {}),
                      "estimator.detector")
    tunables = {k: _number(section, k, None, "estimator.")
                for k in section if k != "detector"}
    with _config_errors():
        return A64SEstimatorConfig(detector=detector, **tunables)


def _scenario_64s(config: Dict[str, Any],
                  input_channels: Optional[Dict[str, TimeSeries]] = None,
                  ) -> Tuple[Subharmonic64SConfig, TimeSeries, TimeSeries, Optional[int]]:
    """Circuit, neutral voltage and current, and fault onset sample of a
    64s scenario, from ingested waveforms or the simulator."""
    circuit = _build(Subharmonic64SConfig, config.get("sub64s", {}), "sub64s")
    fault = _fault_from(config)
    if config.get("disturbances"):
        raise ConfigError("64s scenarios model speed via profile.speed, not disturbances")
    profile = _section(config, "profile")
    duration = _number(profile, "duration", 3.0, "profile.")
    fs = _number(profile, "fs", 1000.0, "profile.")
    speed_profile = _speed_profile_from(profile)
    noise = _noise_from(config)
    seed = _seed(config)

    if input_channels is None:
        with _config_errors():
            v_ts, i_ts = simulate_64s_timeseries(
                circuit, [fault] if fault is not None else [], duration=duration, fs=fs,
                noise_std=noise, speed_profile=speed_profile, seed=seed,
            )
    else:
        v_ts, i_ts = _channels(input_channels, "vn", "in")
    return circuit, v_ts, i_ts, _onset_index(fault, v_ts)


def _run_64s(config: Dict[str, Any], name: str,
             input_channels: Optional[Dict[str, TimeSeries]] = None) -> ScenarioResult:
    est_cfg = _estimator_cfg_from(config)
    circuit, v_ts, i_ts, onset_index = _scenario_64s(config, input_channels)

    estimator = A64SEstimator(circuit, est_cfg)
    trace = estimator.run_timeseries(v_ts, i_ts, onset_index=onset_index)
    first = trace.first_trip_index
    verdict: Dict[str, Any] = {
        "tripped": first is not None,
        "first_trip_index": first,
        "baseline_ohms": trace.baseline,
    }
    try:
        rs_final, c0_final, tau0_final = trace.final_estimates()
        verdict["rs_final_ohms"] = rs_final
        verdict["c0_final_farads"] = c0_final
        verdict["tau0_final_s"] = tau0_final
    except ValueError:
        pass
    verdict["x_final"] = trace.final_location()
    verdict.update(_fault_verdict(first, onset_index, v_ts.fs))
    return ScenarioResult(kind="64s", name=name, seed=_seed(config),
                          verdicts={"a64s": verdict}, traces={"a64s": trace})


def run_scenario(config: Dict[str, Any], name: str = "scenario",
                 input_channels: Optional[Dict[str, TimeSeries]] = None) -> ScenarioResult:
    """Execute one scenario end to end (simulate, or use ingested
    waveforms, then detect) and return verdicts plus traces."""
    if _check_config(config) == "64g2":
        return _run_64g2(config, name, input_channels)
    return _run_64s(config, name, input_channels)


def simulate_waveforms(config: Dict[str, Any]) -> Tuple[str, Dict[str, TimeSeries], Optional[int]]:
    """Simulate a scenario's measurement waveforms, parsed exactly as
    run_scenario parses them; returns the kind, the channels (vp3/vn3 for
    64g2, vn/in for 64s) and the fault onset sample."""
    kind = _check_config(config)
    if kind == "64g2":
        sim = _scenario_64g2(config)
        return kind, {"vp3": sim.v_p3_wave, "vn3": sim.v_n3_wave}, sim.onset_index
    _, v_ts, i_ts, onset = _scenario_64s(config)
    return kind, {"vn": v_ts, "in": i_ts}, onset


def sweep_sensitivity(grid: Optional[SweepGrid], base_config: Dict[str, Any]) -> ReliabilityReport:
    """Fault-coverage study: run every (tap, Rf, load, pf) cell through
    both ratio schemes and derive the blind zone at the minimum fault
    resistance.  grid None takes the base config's 'grid' section, or
    the default SweepGrid when it has none."""
    base = copy.deepcopy(base_config)
    base.setdefault("kind", "64g2")
    if _check_config(base) != "64g2":
        raise ConfigError("sensitivity sweep applies to 64g2 configs")
    if set(base.get("schemes", _SCHEMES)) != set(_SCHEMES):
        raise ConfigError("the sensitivity sweep compares both ratio schemes; "
                          "'schemes' must list 'adaptive' and 'fixed'")
    if grid is None:
        grid = _build(SweepGrid, base["grid"], "grid") if base.get("grid") else SweepGrid()
    seed = _seed(base)
    profile = _section(base, "profile")
    fs = _number(profile, "fs", 1000.0, "profile.")
    onset = _number(base, "onset_sample", DEFAULT_ONSET_SAMPLE, "", int)
    calibration = _resolve_calibration(base)

    rows: List[Dict[str, Any]] = []
    for index, (x, rf, load, pf) in enumerate(grid.cells()):
        cfg = copy.deepcopy(base)
        cfg["fault"] = {"x": x, "rf": rf, "t_on": onset / fs}
        cfg["profile"] = {"duration": (onset / fs) + DETECTION_WINDOW_S + 0.25,
                          **profile, "load_pu": load, "pf": pf}
        cfg["seed"] = _derive_seed(seed, 1, index)
        cfg["calibration"] = {"ratio": calibration.ratio, "beta_ng": calibration.beta_ng}
        result = run_scenario(cfg, name=f"cell_{index}")
        rows.append({
            "x": x, "rf": rf, "load_pu": load, "pf": pf,
            "detected_adaptive": bool(result.verdicts["a64g2"]["detected"]),
            "detected_fixed": bool(result.verdicts["ng64g2"]["detected"]),
            "latency_adaptive_samples": result.verdicts["a64g2"]["latency_samples"],
            "latency_fixed_samples": result.verdicts["ng64g2"]["latency_samples"],
        })

    min_rf = min(grid.rfs)
    blind_taps = []
    for tap in sorted(set(grid.taps)):
        tap_rows = [r for r in rows if r["x"] == tap and r["rf"] == min_rf]
        if tap_rows and all(
            not r["detected_adaptive"] and not r["detected_fixed"] for r in tap_rows
        ):
            blind_taps.append(tap)
    blind_zone = _contiguous_intervals(blind_taps, sorted(set(grid.taps)))

    return ReliabilityReport(
        study="sensitivity",
        cells=rows,
        blind_zone=blind_zone,
        calibration={"ratio": calibration.ratio, "beta_ng": calibration.beta_ng},
        meta={
            "seed": seed,
            "fs": fs,
            "onset_sample": onset,
            "min_rf": min_rf,
            "detection_window_s": DETECTION_WINDOW_S,
            "grid": {"taps": list(grid.taps), "rfs": list(grid.rfs),
                     "loads": list(grid.loads), "pfs": list(grid.pfs)},
        },
    )


def _contiguous_intervals(blind_taps: List[float], all_taps: List[float]) -> List[List[float]]:
    if not blind_taps:
        return []
    blind = set(blind_taps)
    intervals: List[List[float]] = []
    start = None
    prev = None
    for tap in all_taps:
        if tap in blind:
            if start is None:
                start = tap
            prev = tap
        else:
            if start is not None:
                intervals.append([start, prev])
                start = None
    if start is not None:
        intervals.append([start, prev])
    return intervals


def default_security_catalog() -> List[Dict[str, Any]]:
    """Non-fault disturbance scenarios: instrument-channel deterioration,
    load/power-factor events, and start/stop speed ramps, for the ratio
    schemes; speed scenarios also exercise the injection scheme."""
    ramp = {"t_on": 0.3, "t_off": 1.3}
    catalog: List[Dict[str, Any]] = [
        {"name": "neutral_scale_12p5", "kind": "64g2",
         "disturbances": [{"kind": "neutral_pt_scale", "magnitude": 0.875, **ramp}],
         "profile": {"duration": 2.0}},
        {"name": "neutral_scale_60", "kind": "64g2",
         "disturbances": [{"kind": "neutral_pt_scale", "magnitude": 0.4, **ramp}],
         "profile": {"duration": 2.0}},
        {"name": "terminal_scale_60", "kind": "64g2",
         "disturbances": [{"kind": "terminal_pt_scale", "magnitude": 0.4,
                           "t_on": 0.3, "t_off": 2.3}],
         "profile": {"duration": 3.0}},
        {"name": "load_step_4to3kw", "kind": "64g2",
         "disturbances": [{"kind": "load_step", "magnitude": 0.75, "t_on": 0.5}],
         "profile": {"load_pu": 1.0, "duration": 1.5}},
        {"name": "load_step_5to3kw", "kind": "64g2",
         "disturbances": [{"kind": "load_step", "magnitude": 0.6, "t_on": 0.5}],
         "profile": {"load_pu": 1.0, "duration": 1.5}},
        {"name": "pf_swing_full_load", "kind": "64g2",
         "disturbances": [{"kind": "pf_swing", "magnitude": -0.85, "t_on": 0.5, "t_off": 1.0}],
         "profile": {"load_pu": 1.0, "pf": 0.85, "duration": 2.0}},
        {"name": "pf_swing_no_load", "kind": "64g2",
         "disturbances": [{"kind": "pf_swing", "magnitude": -0.85, "t_on": 0.5, "t_off": 1.0}],
         "profile": {"load_pu": 0.0, "pf": 0.85, "duration": 2.0}},
        {"name": "gen_start", "kind": "64g2",
         "disturbances": [{"kind": "gen_start", "t_on": 0.0, "t_off": 5.0}],
         "profile": {"duration": 6.0}},
        {"name": "gen_stop", "kind": "64g2",
         "disturbances": [{"kind": "gen_stop", "t_on": 0.5, "t_off": 5.5}],
         "profile": {"duration": 6.0}},
        {"name": "gen_start_64s", "kind": "64s",
         "profile": {"duration": 3.5, "speed": {"t_start": 0.5, "t_end": 3.0,
                                                "start": 0.0, "end": 1.0}}},
        {"name": "gen_stop_64s", "kind": "64s",
         "profile": {"duration": 3.5, "speed": {"t_start": 0.5, "t_end": 3.0,
                                                "start": 1.0, "end": 0.0}}},
        {"name": "speed_600rpm", "kind": "64s",
         "profile": {"duration": 3.0, "speed": {"t_start": 1.0, "t_end": 1.5,
                                                "start": 1.0, "end": 1.0 / 3.0}}},
    ]
    return catalog


def sweep_security(scenarios: Optional[List[Dict[str, Any]]],
                   base_config: Dict[str, Any]) -> ReliabilityReport:
    """Misoperation study: run each non-fault scenario through the ratio
    schemes (and the injection scheme for speed scenarios); any trip is a
    misoperation.  scenarios None takes the base config's 'scenarios'
    list, or the default catalog when it has none."""
    base = copy.deepcopy(base_config)
    _check_config(base)
    catalog = scenarios if scenarios is not None else base.get("scenarios")
    if catalog is None:
        catalog = default_security_catalog()
    seed = _seed(base)
    calibration = _resolve_calibration({**base, "kind": "64g2"})
    rows: List[Dict[str, Any]] = []
    misoperations: List[Dict[str, Any]] = []
    for index, scenario in enumerate(catalog):
        _check_keys(scenario, "scenarios")
        if scenario.get("fault"):
            raise ConfigError(
                f"security scenario {scenario.get('name', index)!r} must not contain a fault")
        cfg = copy.deepcopy(base)
        cfg.pop("fault", None)
        cfg.pop("disturbances", None)
        cfg["kind"] = scenario.get("kind", "64g2")
        if "disturbances" in scenario:
            cfg["disturbances"] = copy.deepcopy(scenario["disturbances"])
        profile = dict(_section(cfg, "profile"))
        profile.update(scenario.get("profile", {}))
        cfg["profile"] = profile
        cfg["seed"] = _derive_seed(seed, 2, index)
        if cfg["kind"] == "64g2":
            cfg["calibration"] = {"ratio": calibration.ratio,
                                  "beta_ng": calibration.beta_ng}
        else:
            profile.setdefault("speed", 1.0)
        name = scenario.get("name", f"scenario_{index}")
        result = run_scenario(cfg, name=name)
        for scheme, verdict in result.verdicts.items():
            tripped = bool(verdict["tripped"])
            row = {"scenario": name, "scheme": scheme, "tripped": tripped,
                   "margin": verdict.get("margin")}
            rows.append(row)
            if tripped:
                misoperations.append(row)
    return ReliabilityReport(
        study="security",
        cells=rows,
        misoperations=misoperations,
        calibration={"ratio": calibration.ratio, "beta_ng": calibration.beta_ng},
        meta={"seed": seed, "scenario_count": len(catalog)},
    )


def emit_report(obj, out_dir, fmt: str = "json") -> List[str]:
    """Write a scenario result or sweep report to disk.

    Always writes report.json (sorted keys, no timestamps, so identical
    inputs give identical bytes); scenario results also get per-scheme
    trace CSVs; fmt 'csv' adds tabular and long-format (trace, signal,
    t, value) files.  Each trace writer also melts its trace into
    long.csv, from the cell strings of the trace CSV: every signal of a
    trace in sorted name order, values as floats.  When a writer raises,
    every file this call wrote is removed and the error raised."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output directory {out}: {exc}") from exc
    written: List[str] = []
    try:
        _emit(obj, out, fmt, written)
    except BaseException:
        # each writer removes its own partial file; these are complete
        for path in written:
            Path(path).unlink(missing_ok=True)
        raise
    return written


def _emit(obj, out: Path, fmt: str, written: List[str]) -> None:
    """emit_report's writers, each file's path appended to ``written``
    once the file is complete."""
    if isinstance(obj, ReliabilityReport):
        payload = obj.to_dict()
        payload["digest"] = obj.digest()
        written.append(write_json(out / "report.json", payload))
        if fmt == "csv":
            written.append(_write_rows_csv(out / "cells.csv", obj.cells))
            written.append(_write_rows_csv(out / "misoperations.csv", obj.misoperations))
        return

    if isinstance(obj, ScenarioResult):
        written.append(write_json(out / "report.json", obj.to_dict()))
        long_path = out / "long.csv"
        opened = output_file(long_path) if fmt == "csv" else nullcontext()
        with opened as long:
            if long:
                long.write("trace,signal,t,value\n")
            for scheme, trace in obj.traces.items():
                path = out / f"trace_{scheme}.csv"
                writer = write_trace_csv if isinstance(trace, SchemeTrace) else write_a64s_trace_csv
                writer(trace, path, (long, scheme) if long else None)
                written.append(str(path))
        if fmt == "csv":
            written.append(str(long_path))
        return

    raise ConfigError(f"cannot emit a report for {type(obj).__name__}")


def write_json(path: Path, payload) -> str:
    """Write payload as sorted, indented JSON (identical inputs give
    identical bytes); returns the path written.  A NaN or infinite number
    raises ValueError and leaves no file, as JSON has no such values."""
    with output_file(path) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
    return str(path)


def _write_rows_csv(path: Path, rows: List[Dict[str, Any]]) -> str:
    keys = sorted(rows[0]) if rows else []
    write_table(path, {k: [row.get(k) for row in rows] for k in keys})
    return str(path)
