"""Scenario orchestration, reliability studies, and report emission.

A scenario is a JSON-friendly dict, which one reader checks against the
schema _Scenario declares before anything runs.  run_scenario executes
the full pipeline for one scenario;
sweep_sensitivity and sweep_security run the grid and disturbance
studies behind the reliability claims; emit_report writes deterministic
JSON/CSV artifacts.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import numbers
import shutil
import sys
import tempfile
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass, field, is_dataclass, replace
from pathlib import Path
from typing import (Any, BinaryIO, Callable, Dict, Iterator, List, Literal, Optional, Tuple,
                    Union, get_args, get_origin, get_type_hints)

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
from .a64s import A64SEstimator, A64SEstimatorConfig, write_a64s_trace_csv
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
from . import signalcore
# extract_phasor is not called here; it stays importable from harness
# because perfbench/tracing.py wraps it by that binding.
from .signalcore import (TimeSeries, extract_phasor, in_two_processes, output_file,  # noqa: F401
                         write_table)

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


# The config schema: a section with no library type to read it into has a
# record below.  _build reads every section by its type's constructor.
# A run reads the top-level sections and profile keys _READS gives its kind.
_BOTH = {"kind", "seed", "noise", "fault", "profile", "profile.duration", "profile.fs"}
_READS = {"64g2": {*_BOTH, "machine", "disturbances", "schemes", "calibration", "kaf", "detector",
                   "profile.load_pu", "profile.pf", "profile.window_cycles",
                   "profile.supervision_frac"},
          "64s": {*_BOTH, "sub64s", "estimator", "profile.speed"}}
_SWEEP_ONLY = {"grid", "scenarios", "onset_sample"}


@dataclass(frozen=True)
class _SpeedRamp:
    """profile.speed as a linear per-unit speed ramp from start at t_start
    to end at t_end (seconds), held flat outside."""

    t_start: float
    t_end: float
    start: float
    end: float

    def __post_init__(self):
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")


@dataclass(frozen=True)
class _Profile:
    """Record and operating point.  duration None is 1 s for 64g2 and 3 s
    for 64s; speed (64s only) None is a machine at rest, a number a
    constant per-unit speed."""

    duration: Optional[float] = None
    fs: float = 1000.0
    load_pu: float = 1.0
    pf: float = 1.0
    speed: Optional[Union[float, _SpeedRamp]] = None
    window_cycles: int = 3
    supervision_frac: float = 0.1

    def __post_init__(self):
        if self.window_cycles < 1:
            raise ValueError(f"window_cycles must be >= 1, got {self.window_cycles}")
        # at 1 or above the floor would mark every frame invalid
        if not 0.0 <= self.supervision_frac < 1.0:
            raise ValueError(f"supervision_frac must be in [0, 1), got {self.supervision_frac}")
        check_operating_point(self.load_pu, self.pf)


@dataclass(frozen=True)
class _Point:
    """One commissioning operating point."""

    load_pu: float
    pf: float


@dataclass(frozen=True)
class _Commissioning:
    """The calibration section: a fixed setting (ratio and beta_ng), or,
    with neither, how to commission the fixed scheme from healthy runs of
    duration seconds at points (None: default_calibration_points())."""

    ratio: Optional[float] = None
    beta_ng: Optional[float] = None
    guard: float = 0.15
    points: Optional[Tuple[_Point, ...]] = None
    duration: float = 0.35

    def __post_init__(self):
        # checked here rather than left to calibrate_64rat, so that a bad
        # setting costs no healthy run
        if (self.ratio is None) != (self.beta_ng is None):
            raise ValueError("needs both 'ratio' and 'beta_ng' (a fixed setting) or "
                             "neither (commission from healthy runs)")
        if self.ratio is not None and not (self.ratio > 0 and self.beta_ng > 0):
            raise ValueError(f"a fixed calibration needs ratio > 0 and beta_ng > 0, "
                             f"got ratio={self.ratio!r}, beta_ng={self.beta_ng!r}")
        if self.points is not None and len(self.points) < 2:
            raise ValueError(f"needs at least 2 points, got {len(self.points)}")
        if self.guard < 0:
            raise ValueError(f"guard must be >= 0, got {self.guard}")


@dataclass(frozen=True)
class _Entry:
    """One security-catalog scenario: its kind, disturbances and non-null
    profile keys replace the base's in its cell.  They are read as a
    config of that kind, which refuses a key the kind never reads; a fault
    is refused."""

    name: Optional[str] = None
    kind: Literal["64g2", "64s"] = "64g2"
    disturbances: Optional[Tuple[dict, ...]] = None
    profile: Optional[dict] = None
    fault: Optional[dict] = None

    def __post_init__(self):
        if self.fault:
            raise ValueError("a security scenario must not contain a fault")


@dataclass(frozen=True)
class _Scenario:
    """Every top-level setting of a config; _read refuses one the kind does
    not read, but admits the sweeps' own.  kaf is the adaptive detector,
    with the trip settings of the detector section."""

    kind: Literal["64g2", "64s"] = "64g2"
    seed: int = 0
    noise: float = 0.05
    profile: _Profile = _Profile()
    machine: Optional[MachineConfig] = None
    sub64s: Optional[Subharmonic64SConfig] = None
    fault: Optional[FaultSpec] = None
    disturbances: Tuple[DisturbanceSpec, ...] = ()
    schemes: Tuple[Literal["adaptive", "fixed"], ...] = _SCHEMES
    calibration: _Commissioning = _Commissioning()
    kaf: Optional[AdaptiveRatioDetector] = None
    detector: DetectorConfig = DetectorConfig()
    estimator: A64SEstimatorConfig = A64SEstimatorConfig()
    onset_sample: int = DEFAULT_ONSET_SAMPLE
    grid: Optional[SweepGrid] = None
    scenarios: Optional[Tuple[_Entry, ...]] = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"'seed' must be >= 0, got {self.seed}")
        if self.onset_sample < 0:
            raise ValueError(f"'onset_sample' must be >= 0, got {self.onset_sample}")
        if self.noise < 0:
            raise ValueError(f"'noise' must be >= 0, got {self.noise}")
        if not self.schemes:
            raise ValueError("'schemes' must name at least one scheme")


@functools.cache
def _schema(cls) -> Dict[str, Any]:
    """The settings of cls, the parameters of its constructor, each with
    its type hint."""
    hints = get_type_hints(cls if is_dataclass(cls) else cls.__init__)
    return {name: hints[name] for name in inspect.signature(cls).parameters}


def _build(cls, data, section: str, **given):
    """cls built from config section data (null reads as empty): each key
    a setting of cls read by _value, a null one as absent, and the given
    arguments, which data may not hold, passed as they are.  A ValueError
    or TypeError of the constructor is reported as a ConfigError."""
    where = section or "config"
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"'{where}' must be an object, got {data!r}")
    schema = _schema(cls)
    accepted = schema.keys() - given.keys()
    unknown = data.keys() - accepted
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; "
                          f"recognized: {sorted(accepted)}")
    prefix = f"{section}." if section else ""
    kwargs = {key: _value(schema[key], value, prefix + key)
              for key, value in data.items() if value is not None}
    try:
        return cls(**kwargs, **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(hint, value, where: str):
    """A config value read as its type hint.  A float or int takes a
    finite number that is not a boolean, an int an integral one; the one
    infinity allowed is fault.rf's, which means no fault.  A tuple takes a
    list, a class an object built by _build."""
    if hint is float or hint is int:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not (math.isfinite(value) or where == "fault.rf" and value == math.inf)):
            raise ConfigError(f"'{where}' must be a finite number, got {value!r}")
        if hint is float:
            return float(value)
        if value != int(value):
            raise ConfigError(f"'{where}' must be an integer, got {value!r}")
        return int(value)
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        # Optional[X] (a null never gets here), or profile.speed's number or ramp
        options = [arg for arg in args if arg is not type(None)]
        return _value(options[-1] if isinstance(value, dict) else options[0], value, where)
    if origin is Literal:
        if value not in args:
            raise ConfigError(f"'{where}' must be one of {list(args)}, got {value!r}")
        return value
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"'{where}' must be a list, got {value!r}")
        items = (args[0],) * len(value) if args[-1] is Ellipsis else args
        if len(items) != len(value):
            raise ConfigError(f"'{where}' must hold {len(items)} values, got {len(value)}")
        return tuple(_value(item, v, f"{where}[{i}]")
                     for i, (item, v) in enumerate(zip(items, value)))
    if hint is str or hint is dict:
        if not isinstance(value, hint):
            raise ConfigError(f"'{where}' must be a {hint.__name__}, got {value!r}")
        return value
    return _build(hint, value, where)


def _read(config, any_kind: bool = False) -> _Scenario:
    """The config's record: the one reader of a config dict, which then
    refuses a non-null key that its kind (any_kind: either kind) never
    reads.  A record reads as itself, so a run can commission from it and
    a sweep can run its cells."""
    if isinstance(config, _Scenario):
        return config
    if not isinstance(config, dict):
        raise ConfigError(f"config must be an object, got {config!r}")
    scenario = _build(_Scenario, {**config, "kaf": None}, "")
    # the adaptive detector takes the detector section's trip settings
    kaf = _build(AdaptiveRatioDetector, config.get("kaf"), "kaf", cfg=scenario.detector)
    given = {**config, **{"profile." + k: v for k, v in (config.get("profile") or {}).items()}}
    unread = [key for key, value in given.items()
              if not (value is None or key in _READS[scenario.kind] or key in _SWEEP_ONLY)]
    if unread and not any_kind:
        raise ConfigError(f"a {scenario.kind} scenario never reads {unread}")
    return replace(scenario, kaf=kaf)


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
        try:
            check_operating_point(self.loads, self.pfs)
        except ValueError as exc:
            raise ConfigError(f"grid loads and pfs: {exc}") from exc

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
    scenario = _read(config)
    commissioning = scenario.calibration
    if commissioning.ratio is not None:
        raise ConfigError("calibrate commissions the fixed scheme and reads no fixed setting: "
                          "omit 'calibration.ratio' and 'calibration.beta_ng'")
    points = commissioning.points
    op_points = (default_calibration_points() if points is None
                 else [(p.load_pu, p.pf) for p in points])
    machine = scenario.machine or MachineConfig()

    measured: List[Tuple[float, float]] = []
    details: List[Dict[str, float]] = []
    for i, (load, pf) in enumerate(op_points):
        with _config_errors():
            sim = simulate_64g2_scenario(
                machine, fault=None, disturbances=(), load_pu=load, pf=pf,
                duration=commissioning.duration, fs=scenario.profile.fs,
                noise_std=scenario.noise, seed=_derive_seed(scenario.seed, 7000, i),
            )
        valid = sim.frames.valid
        vp, vn = sim.frames.v_p3[valid], sim.frames.v_n3[valid]
        if vp.size == 0:
            raise ConfigError(f"calibration point load={load}, pf={pf} produced no valid frames")
        point = (float(np.median(vp)), float(np.median(vn)))
        measured.append(point)
        details.append({"load_pu": load, "pf": pf, "v_p3": point[0], "v_n3": point[1]})
    return _usable(calibrate_64rat(measured, guard=commissioning.guard)), details


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


def _resolve_calibration(scenario: _Scenario) -> Calibration64RAT:
    """The fixed setting of the calibration section, or one commissioned
    through calibrate_from_config."""
    section = scenario.calibration
    if section.ratio is not None:
        return _usable(Calibration64RAT(ratio=section.ratio, beta_ng=section.beta_ng))
    calibration, _ = calibrate_from_config(scenario)
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


def _scenario_64g2(scenario: _Scenario,
                   input_channels: Optional[Dict[str, TimeSeries]] = None) -> Scenario64G2Result:
    """Frames of a 64g2 scenario, from ingested waveforms or the simulator."""
    machine = scenario.machine or MachineConfig()
    profile = scenario.profile
    if input_channels is None:
        with _config_errors():
            return simulate_64g2_scenario(
                machine, scenario.fault, scenario.disturbances, profile.load_pu, profile.pf,
                1.0 if profile.duration is None else profile.duration, profile.fs,
                scenario.noise, window_cycles=profile.window_cycles,
                supervision_frac=profile.supervision_frac, seed=scenario.seed,
            )
    vp3, vn3 = _channels(input_channels, "vp3", "vn3")
    onset = _onset_index(scenario.fault, vp3, replay=True)
    sim = frames_from_64g2_waveforms(vp3, vn3, machine, profile.load_pu, profile.pf,
                                     profile.window_cycles, profile.supervision_frac)
    return replace(sim, onset_index=onset)


def _onset_index(fault: Optional[FaultSpec], ts: TimeSeries, replay: bool) -> Optional[int]:
    """Fault onset sample of a replayed or 64s record; the 64g2 simulator
    applies the same FaultSpec.onset_index rule.  A replay's fault is the
    label its verdicts are scored against, so one whose onset lies past
    the record's last sample is a config error."""
    onset = None if fault is None else fault.onset_index(ts.fs, len(ts))
    if replay and onset == len(ts):
        raise ConfigError(f"fault.t_on {fault.t_on!r} s lies past the end of the replayed "
                          f"record, which is {len(ts) / ts.fs:g} s long ({len(ts)} samples)")
    return onset


def _run_64g2(scenario: _Scenario, name: str,
              input_channels: Optional[Dict[str, TimeSeries]] = None) -> ScenarioResult:
    """Both ratio schemes, or the one the config selects, on one record."""
    det_cfg = scenario.detector
    detectors = [scenario.kaf] if "adaptive" in scenario.schemes else []
    if "fixed" in scenario.schemes:
        calibration = _resolve_calibration(scenario)
        with _config_errors():
            detectors.append(FixedRatioDetector.from_calibration(
                calibration, window=det_cfg.window, persistence=det_cfg.persistence))
    sim = _scenario_64g2(scenario, input_channels)
    # both schemes read one restraint column
    restraint = restraint_column(sim.frames, det_cfg.window)

    verdicts: Dict[str, Dict[str, Any]] = {}
    traces: Dict[str, Any] = {}
    for detector in detectors:
        trace = detector.run(sim.frames, sim.fs, onset_index=sim.onset_index,
                             restraint=restraint)
        verdicts[trace.scheme] = _verdict_64g2(trace)
        traces[trace.scheme] = trace
    if "ng64g2" in verdicts:
        verdicts["ng64g2"]["calibration"] = {"ratio": calibration.ratio,
                                             "beta_ng": calibration.beta_ng}
    return ScenarioResult(kind="64g2", name=name, seed=scenario.seed,
                          verdicts=verdicts, traces=traces)


def _verdict_64g2(trace: SchemeTrace) -> Dict[str, Any]:
    first = trace.first_trip_index
    margin = trace.margin()
    if margin == math.inf:
        index = trace.margin_index
        operate, floor = ((0.0, 0.0) if index is None else
                          (float(trace.operate[index]),
                           trace.sensitivity * float(trace.restraint[index])))
        # operate/floor overflowed: blame the factor further from 1
        if operate * floor < 1.0:
            cause = (f"sensitivity {trace.sensitivity!r} times the restraint underflows "
                     f"to {floor:.3g}")
        else:
            cause = (f"it overflows at frame {index}, with operate energy {operate:.3g} "
                     f"against restraint {trace.restraint[index]:.3g}")
            if trace.scheme == "a64g2":
                cause += f"; the ratio filter diverged, to {trace.rho_hat[index]:.3g}"
        raise ValueError(f"the {trace.scheme} margin is infinite: {cause}")
    return {
        "tripped": first is not None,
        "first_trip_index": first,
        "margin": margin,
        **_fault_verdict(first, trace.onset_index, trace.fs),
    }


def _scenario_64s(scenario: _Scenario,
                  input_channels: Optional[Dict[str, TimeSeries]] = None,
                  ) -> Tuple[Subharmonic64SConfig, TimeSeries, TimeSeries, Optional[int]]:
    """Circuit, neutral voltage and current, and fault onset sample of a
    64s scenario, from ingested waveforms or the simulator."""
    circuit = scenario.sub64s or Subharmonic64SConfig()
    profile = scenario.profile
    if input_channels is None:
        speed = profile.speed
        if isinstance(speed, _SpeedRamp):
            speed_profile = ramp_speed(speed.t_start, speed.t_end, speed.start, speed.end)
        else:
            speed_profile = None if speed is None else constant_speed(speed)
        with _config_errors():
            v_ts, i_ts = simulate_64s_timeseries(
                circuit, [scenario.fault] if scenario.fault is not None else [],
                duration=3.0 if profile.duration is None else profile.duration,
                fs=profile.fs, noise_std=scenario.noise,
                speed_profile=speed_profile, seed=scenario.seed,
            )
    else:
        v_ts, i_ts = _channels(input_channels, "vn", "in")
    return circuit, v_ts, i_ts, _onset_index(scenario.fault, v_ts,
                                             replay=input_channels is not None)


def _run_64s(scenario: _Scenario, name: str,
             input_channels: Optional[Dict[str, TimeSeries]] = None) -> ScenarioResult:
    circuit, v_ts, i_ts, onset_index = _scenario_64s(scenario, input_channels)

    estimator = A64SEstimator(circuit, scenario.estimator)
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
    return ScenarioResult(kind="64s", name=name, seed=scenario.seed,
                          verdicts={"a64s": verdict}, traces={"a64s": trace})


def run_scenario(config: Dict[str, Any], name: str = "scenario",
                 input_channels: Optional[Dict[str, TimeSeries]] = None) -> ScenarioResult:
    """Execute one scenario end to end (simulate, or use ingested
    waveforms, then detect) and return verdicts plus traces.  A replay
    refuses disturbances, which only the simulator would apply."""
    scenario = _read(config)
    if input_channels is not None and scenario.disturbances:
        raise ConfigError("a replayed record never reads 'disturbances': "
                          "they shape only a simulated one")
    run = _run_64g2 if scenario.kind == "64g2" else _run_64s
    return run(scenario, name, input_channels)


def simulate_waveforms(config: Dict[str, Any]) -> Tuple[str, Dict[str, TimeSeries], Optional[int]]:
    """Simulate a scenario's measurement waveforms, parsed exactly as
    run_scenario parses them; returns the kind, the channels (vp3/vn3 for
    64g2, vn/in for 64s) and the fault onset sample."""
    scenario = _read(config)
    if scenario.kind == "64g2":
        sim = _scenario_64g2(scenario)
        return scenario.kind, {"vp3": sim.v_p3_wave, "vn3": sim.v_n3_wave}, sim.onset_index
    _, v_ts, i_ts, onset = _scenario_64s(scenario)
    return scenario.kind, {"vn": v_ts, "in": i_ts}, onset


def _run_cells(run_cell: Callable[[int], Any], count: int) -> List[Any]:
    """``[run_cell(i) for i in range(count)]``, with the odd-indexed cells
    run by a forked child where ``in_two_processes`` forks one.  Each
    process runs its cells in index order and stops at its first failing
    cell; the cells neither delivered then run here in index order, so the
    error raised is the first failing cell's, as in one process."""

    def run(first: int) -> Iterator[Any]:
        with suppress(Exception):  # a failed cell runs again below, for its error
            for index in range(first, count, 2):
                yield run_cell(index)

    with in_two_processes(lambda: list(run(0)), lambda: run(1)) as (even, odd):
        done = dict(zip(range(0, count, 2), even))
        done.update(zip(range(1, count, 2), odd))
    return [done[index] if index in done else run_cell(index) for index in range(count)]


def sweep_sensitivity(grid: Optional[SweepGrid], base_config: Dict[str, Any]) -> ReliabilityReport:
    """Fault-coverage study: run every (tap, Rf, load, pf) cell through
    both ratio schemes and derive the blind zone at the minimum fault
    resistance.  grid None takes the base config's 'grid' section, or
    the default SweepGrid when it has none.  A cell is the base's record
    with the commissioned calibration, a derived seed, the cell's fault
    at onset_sample and its load and pf; its duration is the base's, or
    the onset, the detection window and 0.25 s when the base has none.
    A base fault is refused, as every cell sets its own."""
    base = _read(base_config)
    if base.kind != "64g2":
        raise ConfigError("sensitivity sweep applies to 64g2 configs")
    if base.fault is not None:
        raise ConfigError("the sensitivity sweep sets each cell's fault from its grid; "
                          "the base config must not contain a 'fault'")
    if set(base.schemes) != set(_SCHEMES):
        raise ConfigError("the sensitivity sweep compares both ratio schemes; "
                          "'schemes' must list 'adaptive' and 'fixed'")
    if grid is None:
        grid = base.grid or SweepGrid()
    seed, fs, onset = base.seed, base.profile.fs, base.onset_sample
    calibration = _resolve_calibration(base)
    fixed = {"ratio": calibration.ratio, "beta_ng": calibration.beta_ng}
    duration = base.profile.duration
    if duration is None:
        duration = onset / fs + DETECTION_WINDOW_S + 0.25
    base = replace(base, calibration=_Commissioning(**fixed),
                   profile=replace(base.profile, duration=duration))

    cells = grid.cells()

    def run_cell(index: int) -> Dict[str, Any]:
        x, rf, load, pf = cells[index]
        cell = replace(base, fault=FaultSpec(x, rf, onset / fs), seed=_derive_seed(seed, 1, index),
                       profile=replace(base.profile, load_pu=load, pf=pf))
        result = run_scenario(cell, name=f"cell_{index}")
        return {
            "x": x, "rf": rf, "load_pu": load, "pf": pf,
            "detected_adaptive": bool(result.verdicts["a64g2"]["detected"]),
            "detected_fixed": bool(result.verdicts["ng64g2"]["detected"]),
            "latency_adaptive_samples": result.verdicts["a64g2"]["latency_samples"],
            "latency_fixed_samples": result.verdicts["ng64g2"]["latency_samples"],
        }

    rows = _run_cells(run_cell, len(cells))

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
        calibration=fixed,
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
    list, or the default catalog when it has none.  A cell is the base's
    record with the commissioned calibration, a derived seed, and the
    entry's kind, disturbances and non-null profile keys; a fault is
    refused in the base as in an entry."""
    base = _read(base_config, any_kind=True)
    if base.fault is not None:
        raise ConfigError("the security sweep runs no-fault scenarios; "
                          "the base config must not contain a 'fault'")
    catalog = base.scenarios if scenarios is None else _value(Tuple[_Entry, ...], scenarios,
                                                              "scenarios")
    if catalog is None:
        catalog = _value(Tuple[_Entry, ...], default_security_catalog(), "scenarios")
    # every entry's own keys are read, and refused, before any run
    entries = [(entry, _read({"kind": entry.kind, "disturbances": entry.disturbances,
                              "profile": entry.profile})) for entry in catalog]
    calibration = _resolve_calibration(base)
    fixed = {"ratio": calibration.ratio, "beta_ng": calibration.beta_ng}
    # a 64s cell runs at speed 1.0 unless its base or entry sets one
    speed = 1.0 if base.profile.speed is None else base.profile.speed
    base = replace(base, calibration=_Commissioning(**fixed),
                   profile=replace(base.profile, speed=speed))

    def run_cell(index: int) -> List[Dict[str, Any]]:
        entry, own = entries[index]
        profile = {key: getattr(own.profile, key)
                   for key, value in (entry.profile or {}).items() if value is not None}
        cell = replace(base, kind=own.kind, disturbances=own.disturbances,
                       seed=_derive_seed(base.seed, 2, index),
                       profile=replace(base.profile, **profile))
        name = f"scenario_{index}" if entry.name is None else entry.name
        result = run_scenario(cell, name=name)
        return [{"scenario": name, "scheme": scheme, "tripped": bool(verdict["tripped"]),
                 "margin": verdict.get("margin")}
                for scheme, verdict in result.verdicts.items()]

    rows = [row for cell in _run_cells(run_cell, len(entries)) for row in cell]
    misoperations = [row for row in rows if row["tripped"]]
    return ReliabilityReport(
        study="security",
        cells=rows,
        misoperations=misoperations,
        calibration=fixed,
        meta={"seed": base.seed, "scenario_count": len(catalog)},
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
        opened = output_file(long_path, binary=True) if fmt == "csv" else nullcontext()
        with opened as long:
            if long:
                long.write(b"trace,signal,t,value\n")
            _write_traces(list(obj.traces.items()), out, long, written)
        if fmt == "csv":
            written.append(str(long_path))
        return

    raise ConfigError(f"cannot emit a report for {type(obj).__name__}")


def _write_traces(traces: List[Tuple[str, Any]], out: Path, long: Optional[BinaryIO],
                  written: List[str]) -> None:
    """Write each trace's CSV file, and its long.csv sections when long is
    open, in order.  Two traces of at least ``_FORK_ROWS`` rows each are
    written by ``in_two_processes``: this process writes the first, while
    the child writes the second trace's file and melts it into an unnamed
    temporary file made before the fork.  Once the child is done, that
    file is copied into long.csv in bounded chunks, after the first
    trace's sections.  Where no child delivers, the file is emptied and
    the second trace written here.  When either fails, the second trace's
    file is removed too, since a child killed because this process raised
    may leave part of it."""

    def write(scheme: str, trace, sink) -> str:
        path = out / f"trace_{scheme}.csv"
        writer = write_trace_csv if isinstance(trace, SchemeTrace) else write_a64s_trace_csv
        writer(trace, path, (sink, scheme) if sink is not None else None)
        return str(path)

    if len(traces) != 2 or min(len(trace.t_index) for _, trace in traces) < signalcore._FORK_ROWS:
        for scheme, trace in traces:
            written.append(write(scheme, trace, long))
        return
    first, second = traces
    second_path = out / f"trace_{second[0]}.csv"
    try:
        with tempfile.TemporaryFile() if long else nullcontext() as melt:
            def theirs() -> tuple:
                # here, after a child that did not deliver, melt may hold part
                if melt:
                    melt.seek(0)
                    melt.truncate()
                write(*second, melt)
                if melt:
                    # a child leaves by os._exit, which flushes nothing
                    melt.flush()
                return ()

            # theirs has run, in the child or here, once the block is entered
            with in_two_processes(lambda: written.append(write(*first, long)), theirs):
                pass
            if melt:
                melt.seek(0)
                shutil.copyfileobj(melt, long)
    except BaseException:
        with suppress(OSError):
            second_path.unlink()
        raise
    written.append(str(second_path))


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
