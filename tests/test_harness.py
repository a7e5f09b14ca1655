"""Scenario orchestration, sweeps, report emission, and the CLI."""

import copy
import csv
import functools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
import typing
from pathlib import Path

import numpy as np
import pytest

import statorguard
from statorguard import a64g2, harness, signalcore
from statorguard.a64g2 import (AdaptiveRatioDetector, DetectorConfig, FixedRatioDetector,
                               SchemeTrace)
from statorguard.a64s import A64SEstimatorConfig, A64STrace, CalibrationError
from statorguard.cli import main as cli_main
from statorguard.harness import (
    ConfigError,
    ReliabilityReport,
    calibrate_from_config,
    SweepGrid,
    default_calibration_points,
    default_security_catalog,
    emit_report,
    load_config,
    run_scenario,
    sweep_security,
    sweep_sensitivity,
)
from statorguard.plantsim import HarmonicFrames
from statorguard.signalcore import TimeSeries, ingest_csv, write_csv

import oracles

# Commissioning the fixed scheme from scratch costs eleven healthy runs;
# unit tests pin the calibration instead and leave commissioning to its
# own test.
CAL = {"ratio": 1.233, "beta_ng": 0.155}


def _fault_config(**overrides):
    cfg = {
        "kind": "64g2",
        "seed": 11,
        "fault": {"x": 0.0, "rf": 50.0, "t_on": 0.3},
        "profile": {"duration": 0.9},
        "calibration": dict(CAL),
    }
    cfg.update(overrides)
    return cfg


def test_star_import_binds_every_public_name():
    """A name left in statorguard.__all__ after its object is gone breaks
    `from statorguard import *`."""
    namespace = {}
    exec("from statorguard import *", namespace)
    assert set(statorguard.__all__) <= namespace.keys()


# ------------------------------------------------------------ config layer

def test_load_config_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "64g2", "seed": 3}))
    assert load_config(path) == {"kind": "64g2", "seed": 3}


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_bad_kind_rejected():
    with pytest.raises(ConfigError):
        run_scenario({"kind": "64x"})


def test_kind_section_mismatch_rejected():
    with pytest.raises(ConfigError):
        run_scenario({"kind": "64g2", "sub64s": {}})
    with pytest.raises(ConfigError):
        run_scenario({"kind": "64s", "machine": {}})


@pytest.mark.parametrize("speed", [0.5, {"t_start": 0.1, "t_end": 0.5, "start": 1.0, "end": 0.5}])
def test_64g2_speed_profile_is_a_config_error(tmp_path, capsys, speed):
    """A 64g2 run never read profile.speed: at half speed it tripped at
    the rated-speed frame 314 with identical verdicts."""
    cfg = _fault_config(seed=3, profile={"duration": 0.9, "speed": speed})
    with pytest.raises(ConfigError, match=r"a 64g2 scenario never reads \['profile.speed'\]"):
        run_scenario(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["detect-64g2", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "profile.speed" in capsys.readouterr().err
    entry = {"name": "steady", "kind": "64g2", "profile": {"duration": 0.5}}
    # a 64s base's speed sets its 64s cells only; a 64g2 entry's own is refused
    report = sweep_security([entry], {"kind": "64s", "seed": 3, "profile": {"speed": speed}})
    assert [row["scenario"] for row in report.cells] == ["steady", "steady"]
    with pytest.raises(ConfigError, match=r"a 64g2 scenario never reads \['profile.speed'\]"):
        sweep_security([{**entry, "profile": {"speed": speed}}], {"kind": "64s"})


# 64s: the 90 ohm fault that trips; 64g2: the 50 ohm fault at the neutral
_KIND_BASES = {
    "64s": {"kind": "64s", "seed": 2, "noise": 0.0, "sub64s": {},
            "fault": {"x": 0.25, "rf": 90.0, "t_on": 1.6},
            "profile": {"duration": 2.5, "speed": 1.0}},
    "64g2": {**_fault_config(), "machine": {}},
}
_UNREAD = [
    ("64s", "machine", {}),
    ("64s", "disturbances", [{"kind": "load_step", "magnitude": 0.75, "t_on": 0.5}]),
    ("64s", "schemes", ["fixed"]),
    ("64s", "calibration", dict(CAL)),
    ("64s", "kaf", {}),
    ("64s", "detector", {"persistence": 999}),
    ("64s", "profile.load_pu", 0.5),
    ("64s", "profile.pf", 0.9),
    ("64s", "profile.window_cycles", 4),
    ("64s", "profile.supervision_frac", 0.5),
    ("64g2", "sub64s", {}),
    ("64g2", "estimator", {"smoothing_rate": 12.0}),
    ("64g2", "profile.speed", 1.0),
]


def _with_unread(kind, key, value):
    config = copy.deepcopy(_KIND_BASES[kind])
    section, _, name = key.partition(".")
    if name:
        config[section][name] = value
    else:
        config[key] = value
    return config


@pytest.mark.parametrize("kind,key,value", _UNREAD)
def test_a_key_the_kind_never_reads_is_a_config_error(tmp_path, capsys, kind, key, value):
    """Most of these once ran, with verdicts identical to the run without
    them; each is now one error naming the dotted key and the kind."""
    config = _with_unread(kind, key, value)
    message = f"a {kind} scenario never reads ['{key}']"
    with pytest.raises(ConfigError) as info:
        run_scenario(config)
    assert str(info.value) == message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_main([f"detect-{kind}", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_every_setting_is_read_by_a_kind_or_a_sweep():
    """Every settable field is declared: read by at least one kind or by
    the sweeps alone, and every declared key is a field."""
    settings = set(harness._schema(harness._Scenario))
    settings |= {f"profile.{name}" for name in harness._schema(harness._Profile)}
    reads = harness._READS["64g2"] | harness._READS["64s"]
    assert reads | harness._SWEEP_ONLY == settings
    assert not reads & harness._SWEEP_ONLY


@pytest.mark.parametrize("kind", ["64g2", "64s"])
def test_sweep_only_sections_are_admitted_on_both_kinds(kind):
    """One file serves every command of its kind, its sweeps' too."""
    sweeps = {"grid": {"taps": [0.5]}, "onset_sample": 100,
              "scenarios": [{"name": "steady", "kind": "64g2"}]}
    config = {"kind": kind, "calibration": dict(CAL)} if kind == "64g2" else {"kind": kind}
    config["profile"] = {"duration": 0.5}
    assert run_scenario({**config, **sweeps}).verdicts == run_scenario(config).verdicts


def test_a_security_cell_gets_only_its_kinds_base_keys(monkeypatch):
    """A 64g2 base's 64s settings reach the 64s cells, its 64g2 settings
    the 64g2 cells, and each cell runs as the dict of its kind's keys."""
    base = {"seed": 1, "calibration": dict(CAL), "detector": {"persistence": 14},
            "kaf": {"rho0": 1.2}, "sub64s": {"rs": 2.0e5}, "estimator": {"smoothing_rate": 12.0},
            "profile": {"load_pu": 0.9, "fs": 1000.0}}
    catalog = [{"name": "steady", "kind": "64g2", "profile": {"duration": 0.5}},
               {"name": "spin", "kind": "64s", "profile": {"duration": 1.5}}]
    cells, results = [], []

    def spy(config, name="scenario", input_channels=None):
        cells.append(config)
        results.append(run_scenario(config, name, input_channels))
        return results[-1]

    monkeypatch.setattr(harness, "run_scenario", spy)
    # the spy sees only this process's cells, so none runs in a child
    monkeypatch.delattr(os, "fork")
    report = sweep_security(catalog, base)
    assert [(row["scenario"], row["scheme"]) for row in report.cells] == [
        ("steady", "a64g2"), ("steady", "ng64g2"), ("spin", "a64s")]
    read = harness._read(base, any_kind=True)
    g2, s = cells
    assert (g2.kind, s.kind) == ("64g2", "64s")
    assert g2.detector == read.detector == harness.DetectorConfig(persistence=14)
    assert vars(g2.kaf) == vars(read.kaf) and g2.kaf._ratio == 1.2
    assert (g2.profile.load_pu, g2.profile.fs, g2.profile.duration) == (0.9, 1000.0, 0.5)
    assert (s.sub64s, s.estimator) == (read.sub64s, read.estimator)
    assert (s.sub64s.rs, s.estimator.smoothing_rate) == (2.0e5, 12.0)
    assert (s.profile.speed, s.profile.fs, s.profile.duration) == (1.0, 1000.0, 1.5)
    for index, cell in enumerate(cells):
        assert cell.fault is None
        assert cell.calibration == harness._Commissioning(**CAL)
        assert cell.seed == harness._derive_seed(1, 2, index)
    # the dicts a cell ran as before records: the base keys its kind reads
    g2_dict = {"kind": "64g2", "seed": g2.seed, "calibration": dict(CAL),
               "detector": base["detector"], "kaf": base["kaf"],
               "profile": {"load_pu": 0.9, "fs": 1000.0, "duration": 0.5}}
    s_dict = {"kind": "64s", "seed": s.seed, "sub64s": base["sub64s"],
              "estimator": base["estimator"],
              "profile": {"speed": 1.0, "fs": 1000.0, "duration": 1.5}}
    assert [result.verdicts for result in results] == [
        run_scenario(g2_dict).verdicts, run_scenario(s_dict).verdicts]


def test_a_null_base_setting_reads_as_absent_in_sweep_cells(monkeypatch):
    """A null base duration or speed takes the sweep's own default: the
    cells used to run 1.0 s records and a 64s rotor at rest."""
    base = {"seed": 0, "calibration": dict(CAL), "onset_sample": 990,
            "grid": {"taps": [0.0], "rfs": [50.0], "loads": [1.0], "pfs": [1.0]}}
    null = {**base, "profile": {"duration": None}}
    assert sweep_sensitivity(None, null).digest() == sweep_sensitivity(None, base).digest()
    durations, speeds = [], []

    def spy(config, name="scenario", input_channels=None):
        durations.append(harness._read(config).profile.duration)
        speeds.append(harness._read(config).profile.speed)
        return run_scenario(config, name, input_channels)

    monkeypatch.setattr(harness, "run_scenario", spy)
    sweep_sensitivity(None, null)
    assert durations == [0.99 + harness.DETECTION_WINDOW_S + 0.25]
    speeds.clear()
    sweep_security([{"name": "spin", "kind": "64s", "profile": {"duration": 1.0}}],
                   {"calibration": dict(CAL), "profile": {"speed": None}})
    assert speeds == [1.0]


def test_every_security_entry_is_read_before_the_first_cell(monkeypatch):
    """An entry key its kind never reads fails the study before any cell
    or commissioning run; it used to fail after the entries before it."""
    def never(*args, **kwargs):
        raise AssertionError("a cell or commissioning run started")

    monkeypatch.setattr(harness, "run_scenario", never)
    monkeypatch.setattr(harness, "calibrate_from_config", never)
    catalog = [{"name": "steady", "kind": "64g2", "profile": {"duration": 0.5}},
               {"name": "spin", "kind": "64s", "profile": {"duration": 1.5, "load_pu": 0.5}}]
    with pytest.raises(ConfigError, match=r"a 64s scenario never reads \['profile.load_pu'\]"):
        sweep_security(catalog, {})


def test_a_security_entry_key_its_kind_never_reads_is_a_config_error():
    entry = {"name": "spin", "kind": "64s", "profile": {"duration": 1.5, "load_pu": 0.5}}
    with pytest.raises(ConfigError, match=r"a 64s scenario never reads \['profile.load_pu'\]"):
        sweep_security([entry], {"calibration": dict(CAL)})
    entry = {"name": "spin", "kind": "64s", "disturbances": [], "profile": {"duration": 1.5}}
    with pytest.raises(ConfigError, match=r"a 64s scenario never reads \['disturbances'\]"):
        sweep_security([entry], {"calibration": dict(CAL)})


def test_unknown_machine_key_rejected():
    with pytest.raises(ConfigError):
        run_scenario(_fault_config(machine={"frequency": 60.0}))


def test_bad_disturbance_rejected():
    cfg = _fault_config(fault=None)
    cfg.pop("fault")
    cfg["disturbances"] = [{"kind": "lightning", "t_on": 0.1}]
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_unknown_kaf_key_rejected():
    with pytest.raises(ConfigError):
        run_scenario(_fault_config(kaf={"gain": 2.0}))


def test_unknown_scheme_rejected():
    with pytest.raises(ConfigError):
        run_scenario(_fault_config(schemes=["adaptive", "magic"]))


def test_64s_rejects_disturbances():
    cfg = {"kind": "64s", "disturbances": [{"kind": "load_step", "t_on": 0.1}]}
    with pytest.raises(ConfigError):
        run_scenario(cfg)


def test_unknown_estimator_key_rejected():
    cfg = {"kind": "64s", "estimator": {"speed": 2.0}}
    with pytest.raises(ConfigError):
        run_scenario(cfg)


@pytest.mark.parametrize("config", [
    {"kind": "64g2", "profle": {"duration": 0.5}},
    {"kind": "64g2", "profile": {"duraton": 0.5}, "calibration": dict(CAL)},
    {"kind": "64g2", "profile": {"duration": 0.5}, "calibration": {"ratoi": 1.0}},
    {"kind": "64s", "profile": {"duration": 0.5, "speed": {"t_strat": 0.1}}},
])
def test_unknown_keys_rejected_at_every_level(config):
    # a typo must fail loudly, not fall back to defaults or to commissioning
    with pytest.raises(ConfigError, match="unknown keys"):
        run_scenario(config)


@pytest.mark.parametrize("half", [{"ratio": 1.2}, {"beta_ng": 0.15}])
def test_half_calibration_rejected(half):
    cfg = _fault_config(calibration=half)
    with pytest.raises(ConfigError, match="beta_ng"):
        run_scenario(cfg)
    with pytest.raises(ConfigError, match="beta_ng"):
        calibrate_from_config(cfg)


@pytest.mark.parametrize("fixed", [
    {"ratio": -1.0, "beta_ng": 0.1}, {"ratio": 0.0, "beta_ng": 0.1},
    {"ratio": 1.2, "beta_ng": -0.1}, {"ratio": 1.2, "beta_ng": 0.0},
])
def test_non_positive_fixed_calibration_is_config_error(tmp_path, capsys, fixed):
    cfg = _fault_config(calibration=fixed, schemes=["fixed"])
    with pytest.raises(ConfigError, match="ratio > 0 and beta_ng > 0"):
        run_scenario(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["detect-64g2", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_non_numeric_profile_value_rejected():
    with pytest.raises(ConfigError, match="duration"):
        run_scenario(_fault_config(profile={"duration": "abc"}))


@pytest.mark.parametrize("overrides", [
    {"seed": 1.5},
    {"seed": -1},
    {"profile": {"duration": 0.5, "window_cycles": 2.7}},
    {"profile": {"duration": -1}},
    {"profile": {"duration": 0.5, "fs": 100}},
    {"profile": {"duration": 0.5, "pf": 0.5}},
    {"profile": {"duration": 0.5, "window_cycles": 0}},
])
def test_out_of_range_or_non_integral_setting_is_config_error(overrides):
    with pytest.raises(ConfigError):
        run_scenario(_fault_config(**overrides))


@pytest.mark.parametrize("overrides", [
    {"detector": {"persistence": 2.5}},
    {"detector": {"window": 12.5}},
    {"machine": {"segments": 96.5}},
    {"kind": "64s", "estimator": {"detector": {"persistence": 2.5}}},
    {"kind": "64s", "estimator": {"detector": {"baseline_window": True}}},
])
def test_non_integral_int_field_of_a_section_is_config_error(overrides):
    with pytest.raises(ConfigError, match="must be an integer|must be a finite number"):
        run_scenario(_fault_config(**overrides))


def test_integral_float_int_field_reads_as_its_integer():
    cfg = _fault_config(profile={"duration": 0.4})
    a = run_scenario({**cfg, "detector": {"persistence": 3.0}, "machine": {"segments": 96.0}})
    b = run_scenario({**cfg, "detector": {"persistence": 3}, "machine": {"segments": 96}})
    assert a.verdicts == b.verdicts


def test_integral_float_reads_as_its_integer():
    cfg = _fault_config(profile={"duration": 0.4})
    a = run_scenario({**cfg, "seed": 2.0})
    b = run_scenario({**cfg, "seed": 2})
    assert a.seed == b.seed == 2
    assert a.verdicts == b.verdicts


def test_sweep_onset_sample_must_be_an_integer():
    grid = SweepGrid(taps=(0.0,), rfs=(50.0,), loads=(1.0,))
    with pytest.raises(ConfigError, match="onset_sample"):
        sweep_sensitivity(grid, {"onset_sample": 270.5, "calibration": dict(CAL)})


def test_a_negative_onset_sample_is_a_config_error():
    """The sweep's fault onset must lie in the record; it used to fail
    at the first cell, after commissioning, naming 'fault'."""
    with pytest.raises(ConfigError, match="'onset_sample' must be >= 0"):
        sweep_sensitivity(None, {"onset_sample": -5})


def _numeric_settings(hint, path=()):
    """The path of every float or int setting under a config type hint:
    keys, and (0, n) for the first item of an n-item list."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in (float, int):
        yield path
    elif origin is typing.Union:
        for arg in args:
            yield from _numeric_settings(arg, path)
    elif origin is tuple:
        size = 1 if args[-1] is Ellipsis else len(args)
        yield from _numeric_settings(args[0], path + ((0, size),))
    elif isinstance(hint, type) and origin is None and hint not in (str, dict, type(None)):
        for name, field_hint in harness._schema(hint).items():
            # the adaptive detector's trip settings come from the detector section
            if not (hint is AdaptiveRatioDetector and name == "cfg"):
                yield from _numeric_settings(field_hint, path + (name,))


def _config_at(path, value):
    """The config that sets the setting at path to value; the other items
    of a fixed-length list are 0.5."""
    for step in reversed(path):
        value = [value] + [0.5] * (step[1] - 1) if isinstance(step, tuple) else {step: value}
    return value


def test_every_numeric_setting_takes_only_a_finite_number():
    """One number rule at every level: true, NaN and the infinities are a
    config error naming the dotted key.  fault.rf = Infinity is no fault."""
    keys, missed = [], []
    for path in _numeric_settings(harness._Scenario):
        key = "".join("[0]" if isinstance(s, tuple) else f".{s}" for s in path).lstrip(".")
        keys.append(key)
        for bad in (True, math.nan, math.inf, -math.inf):
            if key == "fault.rf" and bad == math.inf:
                continue
            try:
                harness._read(_config_at(path, bad))
            except ConfigError as exc:
                if f"'{key}'" in str(exc):
                    continue
            missed.append((key, bad))
    assert not missed
    assert {"seed", "profile.speed", "profile.speed.t_end", "machine.e3_coeffs[0]",
            "sub64s.rs", "fault.rf", "disturbances[0].t_off", "calibration.points[0].pf",
            "kaf.rho0", "detector.sensitivity", "estimator.detector.persistence",
            "onset_sample", "grid.rfs[0]"} <= set(keys)


@pytest.mark.parametrize("config", [
    {"detector": {"sensitivity": True}},  # was silently blind
    {"machine": {"e3": True}},  # tripped before the onset
    {"kind": "64s", "sub64s": {"rs": True}},  # learned a 1.003 ohm baseline
])
def test_cli_boolean_setting_is_a_config_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_fault_config(), **config}))
    command = f"detect-{config.get('kind', '64g2')}"
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    section, settings = next((k, v) for k, v in config.items() if k != "kind")
    assert err.startswith("config error:") and f"'{section}.{next(iter(settings))}'" in err
    assert not (tmp_path / "out").exists()


def test_null_reads_as_absent():
    nulls = _fault_config(seed=None, noise=None, machine=None, detector=None, schemes=None,
                          profile={"duration": 0.4, "fs": None})
    absent = _fault_config(profile={"duration": 0.4})
    absent.pop("seed")
    a, b = run_scenario(nulls), run_scenario(absent)
    assert a.seed == b.seed == 0
    assert a.verdicts == b.verdicts


def test_default_calibration_points_cover_load_and_pf():
    points = default_calibration_points()
    assert len(points) == 11
    assert all(0.0 <= load <= 1.0 for load, _ in points)
    assert {pf for _, pf in points} == {1.0, 0.85, -0.85}


# ---------------------------------------------------------- scenario runs

def test_fault_scenario_trips_both_schemes():
    result = run_scenario(_fault_config(), name="hard_fault")
    assert set(result.verdicts) == {"a64g2", "ng64g2"}
    for verdict in result.verdicts.values():
        assert verdict["tripped"]
        assert verdict["detected"]
        assert verdict["first_trip_index"] >= 300
        assert verdict["latency_samples"] <= 500
    assert result.to_dict()["kind"] == "64g2"
    assert "traces" not in result.to_dict()


def test_healthy_scenario_reports_misoperation_flag():
    cfg = _fault_config()
    cfg.pop("fault")
    result = run_scenario(cfg)
    for verdict in result.verdicts.values():
        assert not verdict["tripped"]
        assert not verdict["misoperation"]
        assert verdict["margin"] < 1.0


def test_scenario_deterministic():
    a = run_scenario(_fault_config())
    b = run_scenario(_fault_config())
    assert a.verdicts == b.verdicts


def test_seed_changes_noise_draws():
    a = run_scenario(_fault_config(seed=1))
    b = run_scenario(_fault_config(seed=2))
    assert a.verdicts["a64g2"]["margin"] != b.verdicts["a64g2"]["margin"]


def test_scheme_selection_limits_verdicts():
    result = run_scenario(_fault_config(schemes=["adaptive"]))
    assert set(result.verdicts) == {"a64g2"}


def test_fixed_scheme_alone_matches_both_schemes():
    both = run_scenario(_fault_config())
    fixed = run_scenario(_fault_config(schemes=["fixed"]))
    assert set(fixed.verdicts) == set(fixed.traces) == {"ng64g2"}
    assert fixed.verdicts["ng64g2"] == both.verdicts["ng64g2"]
    assert (oracles.plain_fields(fixed.traces["ng64g2"])
            == oracles.plain_fields(both.traces["ng64g2"]))


def _cli_config_error(tmp_path, capsys, cfg):
    """stderr of detect-64g2 on cfg, which must exit 1 with a config error."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["detect-64g2", "--config", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    return err


@pytest.mark.parametrize("calibration", [
    {"ratio": 1.2, "beta_ng": 1e-200},  # beta_ng**2 underflows to 0
    {"ratio": 1.2, "beta_ng": 1e-160},  # beta_ng**2 is subnormal
    {"ratio": 1.2, "beta_ng": 1e200},  # beta_ng**2 overflows
    # identical noiseless commissioning points are collinear: beta_ng == 0
    {"points": [{"load_pu": 1.0, "pf": 1.0}, {"load_pu": 1.0, "pf": 1.0}]},
], ids=["underflow", "subnormal", "overflow", "collinear"])
def test_fixed_sensitivity_out_of_range_is_a_beta_ng_config_error(tmp_path, capsys, calibration):
    cfg = _fault_config(calibration=calibration, noise=0.0)
    with pytest.raises(ConfigError, match="calibration.beta_ng"):
        run_scenario(cfg)
    assert "calibration.beta_ng" in _cli_config_error(tmp_path, capsys, cfg)


def test_commissioning_collinear_points_is_a_calibrate_config_error(tmp_path, capsys):
    """calibrate does not hand out a beta_ng that every detection rejects."""
    cfg = {"noise": 0.0, "calibration": {
        "points": [{"load_pu": 1.0, "pf": 1.0}, {"load_pu": 1.0, "pf": 1.0}]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli_main(["calibrate", "--config", str(path), "--out", str(out)]) == 1
    assert "calibration.beta_ng" in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


@pytest.mark.parametrize("sensitivity", [1e-320, math.nan, math.inf])
def test_sensitivity_out_of_range_is_a_config_error(tmp_path, capsys, sensitivity):
    # 1e-320 used to report "margin": Infinity; NaN and inf never tripped
    cfg = _fault_config(detector={"sensitivity": sensitivity}, schemes=["adaptive"])
    assert "sensitivity" in _cli_config_error(tmp_path, capsys, cfg)
    assert not (tmp_path / "report.json").exists()


def test_an_infinite_margin_is_an_error_not_a_report():
    trace = SchemeTrace(scheme="a64g2", fs=1000.0, sensitivity=1e-300, margin_peak=math.inf)
    with pytest.raises(ValueError, match="underflows"):
        harness._verdict_64g2(trace)


@pytest.mark.parametrize("v_p3,ratio,floor", [(1e-9, 1.0, "0"), (1e-5, 10.0, "2.67e-317")])
def test_an_infinite_margin_from_an_underflowing_floor_names_the_underflow(v_p3, ratio, floor):
    """A floor of 0 makes the margin infinite, and so does a subnormal one
    under an operate energy of ordinary size."""
    cfg = DetectorConfig(window=2, sensitivity=sys.float_info.min)
    frames = HarmonicFrames(v_p3=[v_p3] * 6, v_n3=[2 * v_p3] * 6, valid=[True] * 6)
    trace = FixedRatioDetector(ratio=ratio, cfg=cfg).run(frames, fs=1000.0)
    assert trace.margin() == math.inf and trace.operate[trace.margin_index] < 1.0
    with pytest.raises(ValueError, match="^the ng64g2 margin is infinite: sensitivity .* "
                                         f"times the restraint underflows to {floor}$"):
        harness._verdict_64g2(trace)


@pytest.mark.parametrize("latency,detected", [(0, True), (500, True), (501, False),
                                               (-1, False)])
def test_a_trip_is_detected_up_to_the_end_of_the_detection_window(latency, detected):
    """At 1 kHz the 0.5 s window ends 500 samples after the onset: a trip
    there is detected, one sample later it is not, nor one before the
    onset."""
    onset, n = 100, 700
    trace = SchemeTrace(scheme="a64g2", fs=1000.0, sensitivity=1.0, t_index=range(n),
                        trip=[i >= onset + latency for i in range(n)], onset_index=onset)
    verdict = harness._verdict_64g2(trace)
    assert verdict["latency_samples"] == latency
    assert verdict["detected"] is detected


# process_noise 1e-5 makes the adaptive filter's error gain fall below -1
DIVERGING_KAF = {"seed": 5, "calibration": {"ratio": 1.233, "beta_ng": 0.155},
                 "kaf": {"process_noise": 1e-5},
                 "fault": {"x": 0.0, "rf": 50.0, "t_on": 0.27}, "profile": {"duration": 1.02}}


def test_a_diverging_adaptive_filter_is_named_as_the_cause_of_an_infinite_margin():
    """The restraint at the frame is 71.3, so nothing underflows: the
    ratio estimate grows until the operate energy overflows."""
    with pytest.raises(ValueError) as excinfo:
        run_scenario(DIVERGING_KAF)
    assert str(excinfo.value) == (
        "the a64g2 margin is infinite: it overflows at frame 383, with operate energy inf "
        "against restraint 71.3; the ratio filter diverged, to -2.9e+154")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_non_finite_numbers(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        harness.write_json(path, {"margin": bad})
    assert not path.exists()


# ----------------------------------------------------------------- sweeps

def _small_grid():
    return SweepGrid(taps=(0.0, 0.5, 1.0), rfs=(50.0,), loads=(1.0,), pfs=(1.0,))


def test_sweep_grid_validation():
    with pytest.raises(ConfigError):
        SweepGrid(taps=())
    with pytest.raises(ConfigError):
        SweepGrid(taps=(0.0, 1.5))
    with pytest.raises(ConfigError):
        SweepGrid(rfs=(-1.0,))
    for rf in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="finite"):
            SweepGrid(rfs=(rf,))


def test_sensitivity_sweep_structure_and_dominance():
    report = sweep_sensitivity(_small_grid(), {"seed": 5, "calibration": dict(CAL)})
    assert report.study == "sensitivity"
    assert len(report.cells) == 3
    assert [c["x"] for c in report.cells] == [0.0, 0.5, 1.0]
    for cell in report.cells:
        # the adaptive scheme sees everything the fixed scheme sees
        assert cell["detected_adaptive"] or not cell["detected_fixed"]
    assert report.meta["min_rf"] == 50.0
    for lo, hi in report.blind_zone:
        assert 0.0 <= lo <= hi <= 1.0


def test_sensitivity_sweep_digest_stable_across_runs():
    base = {"seed": 5, "calibration": dict(CAL)}
    first = sweep_sensitivity(_small_grid(), base)
    second = sweep_sensitivity(_small_grid(), base)
    assert first.digest() == second.digest()
    assert first.to_dict() == second.to_dict()


# ---------------------------------------------- sweeps in two processes

# a sweep shares its cells with a forked child only where it may run on two CPUs
_SPLITS = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1

_SWEEPS = {"sensitivity": lambda base: sweep_sensitivity(None, base),
           "security": lambda base: sweep_security(None, base)}


def _one_process(run_cell, count):
    return [run_cell(index) for index in range(count)]


@functools.cache
def _serial_digest(sweep, seed):
    """The sweep's digest with every cell run here, in index order."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_run_cells", _one_process)
        return _SWEEPS[sweep]({"seed": seed, "calibration": dict(CAL)}).digest()


def _no_child():
    """No child of this process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@pytest.mark.parametrize("seed", [0, 7, 48])
@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_a_sweep_in_two_processes_writes_the_one_process_report(forks, sweep, seed):
    report = _SWEEPS[sweep]({"seed": seed, "calibration": dict(CAL)})
    assert report.digest() == _serial_digest(sweep, seed)
    assert len(forks) == _SPLITS
    assert _no_child()


@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_a_sweep_runs_the_childs_cells_itself_when_no_child_delivers_them(sweep, no_child):
    report = _SWEEPS[sweep]({"seed": 7, "calibration": dict(CAL)})
    assert report.digest() == _serial_digest(sweep, 7)
    assert _no_child()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_a_sweep_on_one_cpu_forks_no_child(one_cpu, forks, sweep):
    report = _SWEEPS[sweep]({"seed": 7, "calibration": dict(CAL)})
    assert report.digest() == _serial_digest(sweep, 7)
    assert forks == []


def _sweep_error(base):
    grid = SweepGrid(taps=(0.0, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0), rfs=(50.0,))
    with pytest.raises(Exception) as excinfo:
        sweep_sensitivity(grid, base)
    return type(excinfo.value), str(excinfo.value)


def test_a_failing_sensitivity_cell_raises_the_one_process_error(monkeypatch, forks):
    # process_noise 1e-5 makes the adaptive filter diverge in every cell
    base = {"seed": 5, "calibration": dict(CAL), "kaf": {"process_noise": 1e-5}}
    error = _sweep_error(base)
    assert error[0] is ValueError and "ratio filter diverged" in error[1]
    assert len(forks) == _SPLITS and _no_child()
    monkeypatch.setattr(harness, "_run_cells", _one_process)
    assert _sweep_error(base) == error


@pytest.mark.parametrize("failing", [{3, 6}, {2, 5}, {5}])
def test_the_first_failing_cell_in_index_order_is_raised(monkeypatch, forks, failing):
    """Of the seven cells, 1, 3 and 5 run in the child, the others here."""
    run = harness.run_scenario

    def failing_cells(config, name="scenario", input_channels=None):
        if int(name.removeprefix("cell_")) in failing:
            raise RuntimeError(f"{name} failed")
        return run(config, name, input_channels)

    monkeypatch.setattr(harness, "run_scenario", failing_cells)
    base = {"seed": 5, "calibration": dict(CAL)}
    assert _sweep_error(base) == (RuntimeError, f"cell_{min(failing)} failed")
    assert len(forks) == _SPLITS and _no_child()
    monkeypatch.setattr(harness, "_run_cells", _one_process)
    assert _sweep_error(base) == (RuntimeError, f"cell_{min(failing)} failed")


def test_sensitivity_sweep_reads_grid_from_config():
    grid = {"taps": [0.0, 0.5, 1.0], "rfs": [50.0], "loads": [1.0], "pfs": [1.0]}
    base = {"seed": 5, "calibration": dict(CAL)}
    from_config = sweep_sensitivity(None, {**base, "grid": grid})
    assert from_config.digest() == sweep_sensitivity(_small_grid(), base).digest()


@pytest.mark.parametrize("axis,value", [("pfs", 0.5), ("loads", 1.5)])
def test_grid_operating_point_is_a_grid_error_before_commissioning(monkeypatch, axis, value):
    """An operating point the machine model refuses is a grid error, found
    before the eleven healthy commissioning runs."""
    def commission(config):
        raise AssertionError("commissioned before checking the grid")

    monkeypatch.setattr(harness, "calibrate_from_config", commission)
    with pytest.raises(ConfigError, match=r"^grid: grid loads and pfs: "):
        sweep_sensitivity(None, {"grid": {axis: [value]}})
    with pytest.raises(ConfigError, match=r"^grid loads and pfs: "):
        sweep_sensitivity(SweepGrid(**{axis: (value,)}), {})


def test_calibrate_refuses_a_fixed_setting(tmp_path, capsys):
    """calibrate commissions; it used to ignore a fixed setting and return
    a ratio of 1.2198."""
    config = {"calibration": {"ratio": 1.0, "beta_ng": 0.1}}
    with pytest.raises(ConfigError, match="'calibration.ratio'"):
        calibrate_from_config(config)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli_main(["calibrate", "--config", str(path), "--out", str(out)]) == 1
    assert "'calibration.ratio'" in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


def test_calibrate_refuses_a_64s_config(tmp_path, capsys):
    """calibrate commissions the 64g2 fixed scheme; on a 64s config it
    used to exit 0 with a default-machine calibration, sub64s unread."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "64s", "sub64s": {"rs": 1e5}}))
    out = tmp_path / "out"
    assert cli_main(["calibrate", "--config", str(path), "--out", str(out)]) == 1
    assert "config error: calibrate" in capsys.readouterr().err
    assert not (out / "calibration.json").exists()


def test_sensitivity_sweep_rejects_64s_config():
    with pytest.raises(ConfigError):
        sweep_sensitivity(None, {"kind": "64s"})


def test_security_sweep_rejects_fault_scenarios():
    catalog = [{"name": "bad", "kind": "64g2",
                "fault": {"x": 0.0, "rf": 50.0, "t_on": 0.1}}]
    with pytest.raises(ConfigError):
        sweep_security(catalog, {"calibration": dict(CAL)})


_BASE_FAULT = {"x": 0.0, "rf": 0.0, "t_on": 0.1}


@pytest.mark.parametrize("command,sweep", [("sweep-sensitivity", sweep_sensitivity),
                                           ("sweep-security", sweep_security)])
def test_a_sweep_refuses_a_base_fault(tmp_path, capsys, command, sweep):
    """Each cell of either sweep sets its own fault (the security sweep's
    none), so a base fault used to be dropped without a word."""
    base = {"calibration": dict(CAL), "fault": dict(_BASE_FAULT)}
    with pytest.raises(ConfigError, match="must not contain a 'fault'"):
        sweep(None, base)
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base))
    out = tmp_path / "out"
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "must not contain a 'fault'" in capsys.readouterr().err
    assert not out.exists()


def test_security_sweep_small_catalog_quiet():
    catalog = [{
        "name": "load_step", "kind": "64g2",
        "disturbances": [{"kind": "load_step", "magnitude": 0.75, "t_on": 0.5}],
        "profile": {"load_pu": 1.0, "duration": 1.2},
    }]
    report = sweep_security(catalog, {"seed": 4, "calibration": dict(CAL)})
    assert report.study == "security"
    assert {row["scheme"] for row in report.cells} == {"a64g2", "ng64g2"}
    assert report.misoperations == []
    assert report.meta["scenario_count"] == 1


def test_cells_csv_quotes_scenario_names_with_commas_and_quotes(tmp_path):
    names = ["gen,stop", 'say "hi"']
    catalog = [{
        "name": name, "kind": "64g2",
        "disturbances": [{"kind": "load_step", "magnitude": 0.75, "t_on": 0.5}],
        "profile": {"load_pu": 1.0, "duration": 1.2},
    } for name in names]
    report = sweep_security(catalog, {"seed": 4, "calibration": dict(CAL)})
    emit_report(report, tmp_path, fmt="csv")
    with open(tmp_path / "cells.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["margin", "scenario", "scheme", "tripped"]
    assert len(rows) == 4 and all(len(row) == 4 for row in rows)
    assert sorted({row[1] for row in rows}) == sorted(names)


def test_default_security_catalog_is_fault_free():
    catalog = default_security_catalog()
    assert len(catalog) >= 10
    assert all("fault" not in entry for entry in catalog)
    kinds = {entry["kind"] for entry in catalog}
    assert kinds == {"64g2", "64s"}


# --------------------------------------------------------------- emission

def test_emit_report_json_round_trip(tmp_path):
    report = ReliabilityReport(
        study="sensitivity",
        cells=[{"x": 0.0, "detected_adaptive": True}],
        blind_zone=[[0.5, 0.5]],
        calibration={"ratio": 1.2, "beta_ng": 0.1},
        meta={"seed": 0},
    )
    written = emit_report(report, tmp_path / "out", fmt="json")
    assert written == [str(tmp_path / "out" / "report.json")]
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert payload["digest"] == report.digest()
    assert payload["blind_zone"] == [[0.5, 0.5]]


def test_emit_report_identical_bytes(tmp_path):
    report = ReliabilityReport(study="security", cells=[{"a": 1.5}], meta={})
    emit_report(report, tmp_path / "one")
    emit_report(report, tmp_path / "two")
    assert (tmp_path / "one" / "report.json").read_bytes() == \
        (tmp_path / "two" / "report.json").read_bytes()


def test_emit_report_csv_adds_tables(tmp_path):
    report = ReliabilityReport(
        study="sensitivity",
        cells=[{"x": 0.0, "rf": 50.0, "detected_adaptive": True,
                "latency_adaptive_samples": None}],
        misoperations=[],
    )
    written = emit_report(report, tmp_path, fmt="csv")
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert names == {"report.json", "cells.csv", "misoperations.csv"}
    # a None latency is an empty cell; no rows leave only the empty header
    assert (tmp_path / "cells.csv").read_bytes() == (
        b"detected_adaptive,latency_adaptive_samples,rf,x\n1,,50.0,0.0\n")
    assert (tmp_path / "misoperations.csv").read_bytes() == b"\n"


def test_emit_scenario_result_traces(tmp_path):
    result = run_scenario(_fault_config(), name="emitted")
    written = emit_report(result, tmp_path, fmt="csv")
    names = {p.rsplit("/", 1)[-1] for p in written}
    assert names == {"report.json", "trace_a64g2.csv", "trace_ng64g2.csv",
                     "long.csv"}
    long_lines = (tmp_path / "long.csv").read_text().strip().splitlines()
    assert long_lines[0] == "trace,signal,t,value"
    assert any(line.startswith("a64g2,JAO,") for line in long_lines[1:])


# A 64s fault that trips within a short noiseless run.
_64S_FAULT = {"kind": "64s", "seed": 2, "noise": 0.0,
              "fault": {"x": 0.25, "rf": 90.0, "t_on": 1.6},
              "profile": {"duration": 2.5, "speed": 1.0}}


@pytest.fixture(scope="module", params=["64g2", "64s"])
def emitted(request, tmp_path_factory):
    """One tripping scenario of each kind, emitted with fmt='csv'."""
    result = run_scenario(_fault_config() if request.param == "64g2" else _64S_FAULT)
    out = tmp_path_factory.mktemp(f"emit_{request.param}")
    emit_report(result, out, fmt="csv")
    return result, out


def _read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in rows]


def test_long_csv_holds_the_trace_cells_as_floats(emitted):
    result, out = emitted
    expected = []
    for scheme in result.traces:
        header, rows = _read_csv(out / f"trace_{scheme}.csv")
        for name in sorted(header[1:]):
            j = header.index(name)
            expected += [[scheme, name, row[0], repr(float(row[j]))] for row in rows]
    header, rows = _read_csv(out / "long.csv")
    assert header == ["trace", "signal", "t", "value"]
    assert rows == expected


def test_trip_is_integer_in_trace_files_and_float_in_long_csv(emitted):
    result, out = emitted
    for scheme in result.traces:
        header, rows = _read_csv(out / f"trace_{scheme}.csv")
        assert {row[header.index("trip")] for row in rows} == {"0", "1"}
    _, rows = _read_csv(out / "long.csv")
    assert {row[3] for row in rows if row[1] == "trip"} == {"0.0", "1.0"}


def test_trace_columns_are_float_or_bool_arrays_with_the_index_times(emitted):
    result, _ = emitted
    for trace in result.traces.values():
        columns = trace.columns()
        assert {name: column.dtype for name, column in columns.items()} == {
            name: np.bool_ if name == "trip" else np.float64 for name in columns}
        assert columns["t"].tolist() == [i / trace.fs for i in trace.t_index]
        assert columns["trip"].tolist() == trace.trip.tolist()
        if isinstance(trace, A64STrace):
            assert columns["tau0_hat_ms"].tolist() == [v * 1e3 for v in trace.tau0_hat.tolist()]
            assert columns["c0_hat_uF"].tolist() == [v * 1e6 for v in trace.c0_hat.tolist()]


def test_a_hand_built_trace_writes_its_ints_as_floats_and_none_as_an_empty_cell(tmp_path):
    trace = SchemeTrace(scheme="a64g2", fs=1000.0, sensitivity=1.0, t_index=range(2),
                        v_p3=(1, 2.5), v_n3=(0.5, 0.5), rho_hat=[2.0, None],
                        residual=[0.0, -0.0], operate=[0.0, 3], restraint=(1.0, 1.0),
                        trip=[False, True])
    a64g2.write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text() == (
        "t,VP3,VN3,rho_hat,residual,JAO,JAR,trip\n"
        "0.0,1.0,0.5,2.0,0.0,0.0,1.0,0\n0.001,2.5,0.5,,-0.0,3.0,1.0,1\n")


def test_emitted_trace_and_long_csv_match_the_naive_oracle(emitted, tmp_path):
    result, out = emitted
    oracles.naive_emit_csv(result, tmp_path)
    for name in [f"trace_{scheme}.csv" for scheme in result.traces] + ["long.csv"]:
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_emitted_margins_equal_the_naive_post_pass(emitted):
    result, out = emitted
    ratio = {k: t for k, t in result.traces.items() if isinstance(t, SchemeTrace)}
    assert bool(ratio) == (result.kind == "64g2")
    report = json.loads((out / "report.json").read_text())
    for scheme, trace in ratio.items():
        assert trace.margin() == oracles.naive_margin(trace)
        assert report["verdicts"][scheme]["margin"] == trace.margin()
        assert "margin_index" not in report["verdicts"][scheme]


@functools.cache
def _security_sweep(seed):
    """The default security sweep at seed and every scenario result it ran."""
    results = []
    run = harness.run_scenario

    def spy(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_scenario", spy)
        # the spy sees only this process's cells, so none runs in a child
        patch.delattr(os, "fork")
        report = sweep_security(None, {"seed": seed})
    return report, results


@pytest.mark.parametrize("seed", [0, 48])
def test_security_sweep_margins_equal_the_naive_post_pass(seed):
    report, results = _security_sweep(seed)
    margins = {(r.name, scheme): trace.margin() for r in results
               for scheme, trace in r.traces.items() if isinstance(trace, SchemeTrace)}
    assert len(margins) == 2 * sum(r.kind == "64g2" for r in results) == 18
    for result in results:
        for scheme, trace in result.traces.items():
            if isinstance(trace, SchemeTrace):
                assert trace.margin() == oracles.naive_margin(trace), (result.name, scheme)
    for row in report.cells:
        if row["scheme"] != "a64s":
            assert row["margin"] == margins[row["scenario"], row["scheme"]]


def test_margin_peak_frame_of_the_seed_48_gen_stop_trip():
    """The adaptive scheme's misoperation on gen_stop at seed 48: its
    margin peaks at one frame, four frames before the trip, and that frame
    stays out of the report and its digest."""
    report, results = _security_sweep(48)
    (result,) = [r for r in results if r.name == "gen_stop"]
    trace = result.traces["a64g2"]
    assert trace.margin() == 1.5752834939747133
    assert (trace.margin_index, trace.first_trip_index) == (1482, 1486)
    ratios = [jao / (trace.sensitivity * jar) if jar > 0 else 0.0
              for jao, jar in zip(trace.operate, trace.restraint)]
    assert [i for i, r in enumerate(ratios) if r == trace.margin()] == [1482]
    assert "margin_index" not in json.dumps(report.to_dict())
    assert "margin_index" not in json.dumps(result.to_dict())


def test_emit_melts_none_bool_and_mixed_columns_like_the_naive_oracle(tmp_path):
    # a trace three write blocks long whose columns hold None, ints,
    # floats and bools side by side
    result = run_scenario(_fault_config(profile={"duration": 3.2}), name="mixed")
    trace = copy.deepcopy(result.traces["a64g2"])
    assert len(trace.t_index) > 3 * signalcore._BLOCK
    trace.rho_hat = [None if i % 7 == 0 else v for i, v in enumerate(trace.rho_hat.tolist())]
    trace.residual = [int(v > 0) if i % 5 == 0 else v
                      for i, v in enumerate(trace.residual.tolist())]
    trace.operate = [None] * len(trace.operate)
    result.traces = {"mixed": trace, "ng64g2": result.traces["ng64g2"]}
    emit_report(result, tmp_path / "emitted", fmt="csv")
    oracles.naive_emit_csv(result, tmp_path)
    for name in ("trace_mixed.csv", "trace_ng64g2.csv", "long.csv"):
        assert ((tmp_path / "emitted" / name).read_bytes()
                == (tmp_path / name).read_bytes()), name


def test_every_emitted_csv_ends_lines_with_lf(emitted):
    _, out = emitted
    for path in out.glob("*.csv"):
        data = path.read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), path.name


def test_emit_report_writes_each_trace_through_its_module_binding(emitted, monkeypatch,
                                                                  tmp_path):
    # perfbench/tracing.py times trace emission by wrapping these two
    # harness bindings; emission that bypassed them would read as 0 s.
    result, _ = emitted
    calls = []
    for name in ("write_trace_csv", "write_a64s_trace_csv"):
        def spy(trace, *args, _name=name, _write=getattr(harness, name)):
            calls.append((_name, trace))
            _write(trace, *args)
        monkeypatch.setattr(harness, name, spy)
    emit_report(result, tmp_path, fmt="csv")
    expected = [("write_a64s_trace_csv" if isinstance(trace, A64STrace) else "write_trace_csv",
                 trace) for trace in result.traces.values()]
    assert [name for name, _ in calls] == [name for name, _ in expected]
    assert all(got is want for (_, got), (_, want) in zip(calls, expected))


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be formatted")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_report_removes_what_it_wrote_when_a_writer_fails(tmp_path, fmt):
    result = run_scenario(_fault_config(), name="broken")
    trace = copy.deepcopy(result.traces["ng64g2"])
    trace.operate = [_Unprintable()] + trace.operate[1:].tolist()
    result.traces["ng64g2"] = trace
    (tmp_path / "keep.txt").write_text("not emit_report's\n")
    with pytest.raises(RuntimeError, match="cell cannot be formatted"):
        emit_report(result, tmp_path, fmt=fmt)
    assert os.listdir(tmp_path) == ["keep.txt"]


# A record of just over four write blocks, long enough for both two-process paths
# of a 64g2 scenario once _FORK_ROWS is lowered to two blocks.
_LONG_64G2 = _fault_config(profile={"duration": 4.1}, fault={"x": 0.0, "rf": 50.0, "t_on": 3.0})


@pytest.fixture
def split(monkeypatch):
    """_FORK_ROWS lowered so that _LONG_64G2 takes both two-process paths."""
    monkeypatch.setattr(signalcore, "_FORK_ROWS", 2 * signalcore._BLOCK)


def _outputs(out, fmt="csv", config=_LONG_64G2):
    """The bytes of every file emit_report writes for config's result."""
    emit_report(run_scenario(config, name="long"), out, fmt=fmt)
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@functools.cache
def _one_process_outputs(fmt):
    """_outputs with every part in this process, as below _FORK_ROWS."""
    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        patch.setattr(signalcore, "_FORK_ROWS", 10**9)
        return _outputs(Path(out), fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_long_64g2_record_in_two_processes_writes_the_one_process_files(
        tmp_path, split, forks, fmt):
    outputs = _outputs(tmp_path, fmt)
    assert set(outputs) == ({"report.json", "trace_a64g2.csv", "trace_ng64g2.csv"}
                            | ({"long.csv"} if fmt == "csv" else set()))
    assert outputs == _one_process_outputs(fmt)
    # one fork, for the trace files; both schemes run here
    assert len(forks) == _SPLITS
    assert _no_child()


def test_a_long_64g2_record_gives_the_one_process_files_when_no_child_delivers(
        tmp_path, split, no_child):
    assert _outputs(tmp_path) == _one_process_outputs("csv")
    assert _no_child()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_long_64g2_record_on_one_cpu_forks_no_child(tmp_path, split, one_cpu, forks):
    assert _outputs(tmp_path) == _one_process_outputs("csv")
    assert forks == []


class _LoggedReads:
    """A file whose reads log the size asked for."""

    def __init__(self, file, sizes):
        self.file, self.sizes = file, sizes

    def read(self, size=-1):
        self.sizes.append(size)
        return self.file.read(size)


def _child_fails_after_its_melt(monkeypatch):
    """A child that writes the second trace and its whole melt, then more
    bytes into the shared file, and exits 3."""
    here = os.getpid()
    write = harness.write_trace_csv

    def writer(trace, path, long=None):
        write(trace, path, long)
        if os.getpid() != here:
            long[0].write(b"left by a failed child\n" * 10_000)
            long[0].flush()
            os._exit(3)

    monkeypatch.setattr(harness, "write_trace_csv", writer)


@pytest.mark.parametrize("how", ["as_it_is", "one_cpu", "child_fails"])
def test_a_split_emission_hands_over_the_second_melt_in_a_shared_file(
        request, monkeypatch, tmp_path, split, how):
    """The second trace's melt reaches long.csv through one temporary file
    that the child shares; where no child delivers, this process empties
    it before writing the second trace itself; the other ways a fork
    delivers nothing take that path too, and the files they write are
    checked by the no_child test above.  Either way the file is copied in
    bounded chunks, and every file is the one-process file."""
    if how == "one_cpu":
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no CPU affinity")
        request.getfixturevalue("one_cpu")
    elif how == "child_fails":
        _child_fails_after_its_melt(monkeypatch)
    sizes = []
    copy_file = shutil.copyfileobj

    def logged_copy(source, target, *args):
        copy_file(_LoggedReads(source, sizes), target, *args)

    monkeypatch.setattr(shutil, "copyfileobj", logged_copy)
    assert _outputs(tmp_path) == _one_process_outputs("csv")
    assert len(sizes) > 2 and all(0 < size <= 1 << 20 for size in sizes)
    assert _no_child()


def test_a_short_64g2_record_forks_no_child(tmp_path, forks):
    _outputs(tmp_path, config=_fault_config())
    assert forks == []


def _failing_runs(monkeypatch, failing):
    """The ratio schemes named in failing raise when they run."""
    advance = a64g2._advance

    def failing_advance(trace, *args):
        if trace.scheme in failing:
            raise RuntimeError(f"{trace.scheme} failed")
        advance(trace, *args)

    monkeypatch.setattr(a64g2, "_advance", failing_advance)


@pytest.mark.parametrize("failing", [{"a64g2", "ng64g2"}, {"a64g2"}, {"ng64g2"}])
def test_a_failing_scheme_raises_its_error_adaptive_first(monkeypatch, forks, failing):
    _failing_runs(monkeypatch, failing)
    first = "a64g2" if "a64g2" in failing else "ng64g2"
    with pytest.raises(RuntimeError, match=f"^{first} failed$"):
        run_scenario(_LONG_64G2)
    assert forks == []


def test_an_adaptive_verdict_error_comes_before_a_fixed_scheme_error(monkeypatch, forks):
    """The adaptive scheme and its verdict run before the fixed scheme, so
    the verdict's error is raised though the fixed scheme would fail."""
    _failing_runs(monkeypatch, {"ng64g2"})
    # process_noise 1e-5 makes the adaptive filter diverge
    config = {**_LONG_64G2, "kaf": {"process_noise": 1e-5}}
    with pytest.raises(ValueError, match="^the a64g2 margin is infinite"):
        run_scenario(config)
    assert forks == []


@pytest.mark.parametrize("broken", ["a64g2", "ng64g2"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_failing_writer_of_a_split_emission_leaves_no_file(tmp_path, split, forks,
                                                             broken, fmt):
    """The first trace is written here, the second by the child and, when
    the child fails, here again."""
    result = run_scenario(_LONG_64G2, name="broken")
    trace = copy.deepcopy(result.traces[broken])
    trace.operate = trace.operate[:-1].tolist() + [_Unprintable()]
    result.traces[broken] = trace
    (tmp_path / "keep.txt").write_text("not emit_report's\n")
    with pytest.raises(RuntimeError, match="cell cannot be formatted"):
        emit_report(result, tmp_path, fmt=fmt)
    assert os.listdir(tmp_path) == ["keep.txt"]
    # written here again, unpinned, the second trace forks for its row split
    assert len(forks) == (1 + (broken == "ng64g2")) * _SPLITS and _no_child()


@pytest.mark.skipif(not _SPLITS, reason="a child is forked only on two or more CPUs")
def test_a_child_killed_because_this_process_failed_leaves_no_partial_file(
        monkeypatch, tmp_path, split):
    result = run_scenario(_LONG_64G2)
    here = os.getpid()
    second = tmp_path / "trace_ng64g2.csv"

    def writer(trace, path, long=None):
        if os.getpid() != here:
            Path(path).write_text("t,VP3\n0.0,")
            time.sleep(60)
        # the child has begun its file; fail here while it is left unfinished
        deadline = time.monotonic() + 30
        while not second.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        raise RuntimeError("the first trace failed")

    monkeypatch.setattr(harness, "write_trace_csv", writer)
    with pytest.raises(RuntimeError, match="the first trace failed"):
        emit_report(result, tmp_path, fmt="csv")
    assert os.listdir(tmp_path) == []
    assert _no_child()


def test_a_split_emission_writes_each_trace_through_its_module_binding(
        monkeypatch, tmp_path, split, forks):
    # test_emit_report_writes_each_trace_through_its_module_binding on the
    # two-process path: a child's calls reach no list of this process, so
    # the spy logs them to a file
    expected = _one_process_outputs("csv")
    log = tmp_path / "calls.log"
    write = harness.write_trace_csv

    def spy(trace, path, *args):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {trace.scheme} {Path(path).name}\n")
        write(trace, path, *args)

    monkeypatch.setattr(harness, "write_trace_csv", spy)
    out = tmp_path / "out"
    assert _outputs(out) == expected
    calls = sorted((line.split() for line in log.read_text().splitlines()),
                   key=lambda call: call[1])
    assert [call[1:] for call in calls] == [["a64g2", "trace_a64g2.csv"],
                                            ["ng64g2", "trace_ng64g2.csv"]]
    first, second = (int(call[0]) for call in calls)
    assert first == os.getpid()
    assert (second != os.getpid()) == bool(_SPLITS)
    assert len(forks) == _SPLITS


def test_emit_report_validation(tmp_path):
    with pytest.raises(ConfigError):
        emit_report(ReliabilityReport(study="x"), tmp_path, fmt="yaml")
    with pytest.raises(ConfigError):
        emit_report({"random": "dict"}, tmp_path)


# -------------------------------------------------------------------- CLI

@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """One simulated 64g2 fault scenario shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "scenario.json"
    config.write_text(json.dumps(_fault_config()))
    sim_dir = root / "sim"
    code = cli_main(["simulate", "--config", str(config), "--out", str(sim_dir)])
    assert code == 0
    return {"root": root, "config": config,
            "waveforms": sim_dir / "waveforms.csv"}


def test_cli_simulate_writes_waveforms(cli_workspace):
    data = cli_workspace["waveforms"].read_bytes()
    assert data.startswith(b"t,vp3,vn3\n")
    assert b"\r" not in data


def test_cli_detect_matches_ingested_waveforms(cli_workspace, tmp_path, capsys):
    code = cli_main(["detect-64g2", "--config", str(cli_workspace["config"]),
                     "--out", str(tmp_path / "direct")])
    assert code == 0
    direct = json.loads(capsys.readouterr().out)
    code = cli_main(["detect-64g2", "--config", str(cli_workspace["config"]),
                     "--input", str(cli_workspace["waveforms"]),
                     "--out", str(tmp_path / "replay")])
    assert code == 0
    replay = json.loads(capsys.readouterr().out)
    for scheme in ("a64g2", "ng64g2"):
        assert (replay["report"]["verdicts"][scheme]["first_trip_index"]
                == direct["report"]["verdicts"][scheme]["first_trip_index"])
    assert (tmp_path / "replay" / "trace_a64g2.csv").exists()


@pytest.mark.parametrize("kind,duration", [("64g2", 0.9), ("64s", 2.0)])
def test_infinite_fault_resistance_gives_one_verdict_simulated_or_replayed(
        tmp_path, capsys, kind, duration):
    # rf = inf is "no fault": both paths report misoperation, not latency
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "kind": kind, "seed": 3, "fault": {"x": 0.0, "rf": math.inf, "t_on": 0.3},
        "profile": {"duration": duration},
        **({"calibration": dict(CAL)} if kind == "64g2" else {}),
    }))
    assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    verdicts = []
    for replay in ([], ["--input", str(tmp_path / "waveforms.csv")]):
        assert cli_main([f"detect-{kind}", "--config", str(config),
                         "--out", str(tmp_path / "detect"), *replay]) == 0
        verdicts.append(json.loads(capsys.readouterr().out)["report"]["verdicts"])
    simulated, replayed = verdicts
    assert set(simulated) == set(replayed)
    for scheme, verdict in simulated.items():
        assert set(verdict) == set(replayed[scheme])
        assert "misoperation" in verdict and "latency_samples" not in verdict


def test_cli_detect_single_scheme_flag(cli_workspace, tmp_path, capsys):
    code = cli_main(["detect-64g2", "--config", str(cli_workspace["config"]),
                     "--adaptive", "--out", str(tmp_path)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert list(out["report"]["verdicts"]) == ["a64g2"]


def test_cli_locate_prints_position(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "kind": "64s", "seed": 2, "noise": 0.0,
        "fault": {"x": 0.25, "rf": 90.0, "t_on": 1.6},
        "profile": {"duration": 2.5, "speed": 1.0},
    }))
    code = cli_main(["locate", "--config", str(config)])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tripped"]
    assert out["x_hat"] == pytest.approx(0.25, abs=0.05)


def test_cli_report_reemits(cli_workspace, tmp_path, capsys):
    report = ReliabilityReport(study="security", cells=[], meta={"seed": 0})
    emit_report(report, tmp_path / "orig")
    code = cli_main(["report", "--input", str(tmp_path / "orig" / "report.json"),
                     "--out", str(tmp_path / "again")])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["digest"] == report.digest()
    again = json.loads((tmp_path / "again" / "report.json").read_text())
    assert again["digest"] == report.digest()


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "64x"}))
    assert cli_main(["simulate", "--config", str(bad)]) == 1
    capsys.readouterr()


_DETECTIONS = {"detect-64g2": "64g2", "detect-64s": "64s", "locate": "64s"}


@pytest.mark.parametrize("command", sorted(_DETECTIONS))
def test_cli_detection_refuses_a_config_of_the_other_kind(tmp_path, capsys, monkeypatch,
                                                          command):
    monkeypatch.chdir(tmp_path)
    other = "64s" if _DETECTIONS[command] == "64g2" else "64g2"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": other, "seed": 1, "profile": {"duration": 3.0}}))
    assert cli_main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "64g2" in err and "64s" in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command", sorted(_DETECTIONS))
def test_cli_detection_gives_a_config_without_kind_its_own(tmp_path, capsys, command):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 1, "profile": {"duration": 1.0}}))
    out = [] if command == "locate" else ["--out", str(tmp_path / "out")]
    assert cli_main([command, "--config", str(path), *out]) == 0
    printed = json.loads(capsys.readouterr().out)
    if command == "locate":
        assert set(printed) == {"x_hat", "tripped", "rs_final_ohms"}
    else:
        assert printed["report"]["kind"] == _DETECTIONS[command]


def test_cli_rejects_unknown_top_level_key(tmp_path, capsys):
    # a typoed section must fail loudly, not fall back to defaults
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 0, "sweep": {"rfs": [50.0]}}))
    assert cli_main(["sweep-sensitivity", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "sweep" in err and "recognized" in err


@pytest.mark.parametrize("config", [
    {"kind": "64s", "disturbances": [{"kind": "load_step", "magnitude": 0.75, "t_on": 0.1}]},
    {"kind": "64g2", "sub64s": {}},
])
def test_cli_simulate_rejects_what_detect_rejects(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    command = "detect-" + config["kind"]
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


def test_cli_non_numeric_profile_value_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "64g2", "profile": {"duration": "abc"}}))
    assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,config", [
    ("detect-64g2", {"profile": {"duration": -1}}),
    ("detect-64g2", {"profile": {"fs": 100}}),
    ("detect-64g2", {"profile": {"pf": 0.5}}),
    ("detect-64g2", {"profile": {"window_cycles": 0}}),
    ("detect-64s", {"kind": "64s", "profile": {"duration": -1}}),
    ("simulate", {"profile": {"duration": -1}}),
    ("simulate", {"kind": "64s", "profile": {"duration": -1}}),
    ("sweep-sensitivity", {"grid": {"taps": [0.0], "rfs": [50.0], "loads": [1.0],
                                    "pfs": [0.5]}}),
    ("calibrate", {"calibration": {"points": [{"load_pu": 2.0, "pf": 1.0},
                                              {"load_pu": 1.0, "pf": 1.0}]}}),
    ("detect-64g2", {"seed": 1.5}),
    ("detect-64g2", {"profile": {"window_cycles": 2.7}}),
    ("sweep-sensitivity", {"onset_sample": 270.5}),
    ("detect-64g2", {"detector": {"persistence": 2.5}}),
    ("detect-64g2", {"machine": {"segments": 96.5}}),
    ("detect-64s", {"kind": "64s", "estimator": {"detector": {"persistence": 2.5}}}),
])
def test_cli_out_of_range_or_non_integral_setting_is_config_error(tmp_path, capsys,
                                                                  command, config):
    if command != "calibrate" and config.get("kind") != "64s":
        config = {"calibration": dict(CAL), **config}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


_BAD_KAF_AND_SCHEMES = [
    ("detect-64g2", {"kaf": {"process_noise": -1}}),
    ("detect-64g2", {"kaf": {"measurement_noise": 0}}),
    ("detect-64g2", {"kaf": {"initial_variance": 0}}),
    ("detect-64g2", {"schemes": 5}),
    ("detect-64g2", {"schemes": []}),
    ("detect-64g2", {"kaf": {"rho0": -5}}),
    ("detect-64g2", {"kaf": {"rho0": 0}}),
    ("detect-64g2", {"kaf": {"rho0": float("nan")}}),
    ("sweep-sensitivity", {"schemes": ["adaptive"]}),
    ("sweep-sensitivity", {"schemes": ["fixed"]}),
]
_BAD_ESTIMATOR = [
    {"theta_measurement_noise": 0},
    {"smoothing_rate": -1},
    {"c0_initial_variance": 0},
    {"c0_measurement_noise": -1},
    {"theta_initial_variance": -1},
    {"c0_initial": -1e-6},
    {"c0_initial": 0},
]


@pytest.mark.parametrize("command,config", _BAD_KAF_AND_SCHEMES + [
    ("detect-64s", {"kind": "64s", "estimator": estimator}) for estimator in _BAD_ESTIMATOR
])
def test_cli_bad_filter_setting_or_schemes_is_config_error(tmp_path, capsys, command, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"calibration": dict(CAL), **config}))
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command,config", _BAD_KAF_AND_SCHEMES)
def test_bad_kaf_setting_or_schemes_is_config_error(command, config):
    with pytest.raises(ConfigError):
        if command == "detect-64g2":
            run_scenario(_fault_config(**config))
        else:
            sweep_sensitivity(None, {"calibration": dict(CAL), **config})


@pytest.mark.parametrize("estimator", _BAD_ESTIMATOR)
def test_bad_estimator_setting_is_config_error(estimator):
    with pytest.raises(ValueError):
        A64SEstimatorConfig(**estimator)
    with pytest.raises(ConfigError, match=next(iter(estimator))):
        run_scenario({"kind": "64s", "estimator": estimator})


def test_cli_negative_seed_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_fault_config()))
    assert cli_main(["detect-64g2", "--config", str(path), "--seed", "-1",
                     "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("profile", [{"pf": 0.5}, {"window_cycles": 0}])
def test_cli_replay_with_out_of_range_profile_is_config_error(cli_workspace, tmp_path,
                                                             capsys, profile):
    """A bad setting is a config error also when the frames come from a
    recording, which is checked only after the settings."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "64g2", "calibration": dict(CAL),
                                "profile": profile}))
    assert cli_main(["detect-64g2", "--config", str(path),
                     "--input", str(cli_workspace["waveforms"]), "--out", str(tmp_path)]) == 1
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("frac", [5, 1.0, -1])
def test_supervision_frac_outside_unit_interval_is_config_error(cli_workspace, frac):
    """A floor at or above the rated terminal magnitude would mark every
    frame invalid and leave both schemes silently blind."""
    config = _fault_config(profile={"duration": 0.9, "supervision_frac": frac})
    with pytest.raises(ConfigError, match="supervision_frac"):
        run_scenario(config)
    with pytest.raises(ConfigError, match="supervision_frac"):
        run_scenario(config, input_channels=ingest_csv(cli_workspace["waveforms"]))


@pytest.mark.parametrize("frac", [5, 1.0, -1])
@pytest.mark.parametrize("replay", [False, True])
def test_cli_supervision_frac_outside_unit_interval_is_config_error(
        cli_workspace, tmp_path, capsys, frac, replay):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_fault_config(profile={"duration": 0.9,
                                                      "supervision_frac": frac})))
    argv = ["detect-64g2", "--config", str(path), "--out", str(tmp_path / "out")]
    if replay:
        argv += ["--input", str(cli_workspace["waveforms"])]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "supervision_frac" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("frac", [0, 0.1])
@pytest.mark.parametrize("replay", [False, True])
def test_cli_supervision_frac_inside_unit_interval_runs(cli_workspace, tmp_path, capsys,
                                                       frac, replay):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_fault_config(profile={"duration": 0.9,
                                                      "supervision_frac": frac})))
    argv = ["detect-64g2", "--config", str(path), "--out", str(tmp_path / "out")]
    if replay:
        argv += ["--input", str(cli_workspace["waveforms"])]
    assert cli_main(argv) == 0
    verdicts = json.loads(capsys.readouterr().out)["report"]["verdicts"]
    assert verdicts["a64g2"]["detected"] and verdicts["ng64g2"]["detected"]


@pytest.mark.parametrize("command", ["calibrate", "detect-64g2", "sweep-sensitivity",
                                     "sweep-security"])
@pytest.mark.parametrize("calibration", [
    {"points": []},
    {"points": [{"load_pu": 1.0, "pf": 1.0}]},
    {"guard": -0.1},
])
def test_cli_bad_commissioning_setting_is_config_error(tmp_path, capsys, command,
                                                       calibration):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "64g2", "profile": {"duration": 0.5},
                                "calibration": calibration}))
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "calibration" in err


def _recording_with_case_twins(cli_workspace, path):
    """The shared fault recording as t,vp3,VN3,vn3, the lower-case vn3 all
    zeros."""
    channels = ingest_csv(cli_workspace["waveforms"])
    vn3 = channels["vn3"]
    write_csv(path, {"vp3": channels["vp3"], "VN3": vn3,
                     "vn3": TimeSeries(fs=vn3.fs, t0=vn3.t0, samples=0.0 * vn3.samples)})
    return path


def test_channel_names_equal_but_for_case_are_a_config_error(cli_workspace, tmp_path):
    channels = ingest_csv(_recording_with_case_twins(cli_workspace, tmp_path / "twins.csv"))
    with pytest.raises(ConfigError, match="'VN3' and 'vn3'"):
        run_scenario(_fault_config(), input_channels=channels)


def test_cli_replay_with_case_twin_channels_is_config_error(cli_workspace, tmp_path, capsys):
    recording = _recording_with_case_twins(cli_workspace, tmp_path / "twins.csv")
    assert cli_main(["detect-64g2", "--config", str(cli_workspace["config"]),
                     "--input", str(recording), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "'VN3' and 'vn3'" in err
    assert not (tmp_path / "out").exists()


# a 0.9 s record of each kind, 900 samples at 1 kHz; the label moves
_LABELLED = {"64g2": _fault_config(),
             "64s": {"kind": "64s", "seed": 2, "fault": {"x": 0.25, "rf": 90.0, "t_on": 0.3},
                     "profile": {"duration": 0.9, "speed": 1.0}}}


def _relabelled(kind, t_on):
    config = copy.deepcopy(_LABELLED[kind])
    config["fault"]["t_on"] = t_on
    return config


@pytest.mark.parametrize("kind", ["64g2", "64s"])
def test_a_replay_labelled_past_the_records_end_is_a_config_error(kind):
    _, channels, _ = harness.simulate_waveforms(_LABELLED[kind])
    assert len(next(iter(channels.values()))) == 900
    # the last sample, 0.899 s, is still a label
    result = run_scenario(_relabelled(kind, 0.899), input_channels=channels)
    assert "latency_samples" in next(iter(result.verdicts.values()))
    for t_on in (0.9, 5.0):
        with pytest.raises(ConfigError, match=rf"fault\.t_on {t_on} s lies past the end "
                                              r"of the replayed record, which is 0\.9 s long"):
            run_scenario(_relabelled(kind, t_on), input_channels=channels)


@pytest.mark.parametrize("kind", ["64g2", "64s"])
def test_cli_replay_labelled_past_the_records_end_exits_1(tmp_path, capsys, kind):
    _, channels, _ = harness.simulate_waveforms(_LABELLED[kind])
    recording = tmp_path / "recording.csv"
    write_csv(recording, channels)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_relabelled(kind, 5.0)))
    assert cli_main([f"detect-{kind}", "--config", str(path), "--input", str(recording),
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "fault.t_on 5.0 s" in err
    assert not (tmp_path / "out").exists()


_DISTURBED = [{"kind": "load_step", "magnitude": 0.75, "t_on": 0.5},
              {"kind": "terminal_pt_scale", "magnitude": 0.4, "t_on": 0.2, "t_off": 0.6}]


def test_a_64g2_replay_refuses_disturbances(cli_workspace, tmp_path, capsys):
    """Disturbances shape only a simulated record; a replay that took them
    gave the verdicts of the undisturbed recording."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_fault_config(disturbances=_DISTURBED)))
    argv = ["detect-64g2", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli_main(argv + ["--input", str(cli_workspace["waveforms"])]) == 1
    err = capsys.readouterr().err
    assert "config error:" in err and "'disturbances'" in err
    assert not (tmp_path / "out").exists()
    # the same config simulates its disturbances
    assert cli_main(argv) == 0
    with pytest.raises(ConfigError, match="never reads 'disturbances'"):
        run_scenario(_fault_config(disturbances=_DISTURBED[:1]),
                     input_channels=ingest_csv(cli_workspace["waveforms"]))
    # an empty list disturbs nothing, so a replay takes it
    run_scenario(_fault_config(disturbances=[]),
                 input_channels=ingest_csv(cli_workspace["waveforms"]))


def test_cli_replay_of_broken_data_stays_a_runtime_error(tmp_path, capsys):
    recording = tmp_path / "short.csv"
    recording.write_text("t,vp3,vn3\n0,1,1\n0.001,1,1\n0.002,1,1\n")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "64g2", "calibration": dict(CAL)}))
    assert cli_main(["detect-64g2", "--config", str(path), "--input", str(recording),
                     "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_exit_code(capsys):
    assert cli_main(["detect-64g2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("command,flag", [
    ("locate", ["--out", "out"]),
    ("locate", ["--format", "csv"]),
    ("simulate", ["--format", "csv"]),
    ("calibrate", ["--format", "csv"]),
    ("report", ["--config", "cfg.json"]),
    ("report", ["--seed", "1"]),
])
def test_cli_flag_the_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, flag):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(_fault_config()))
    emit_report(ReliabilityReport(study="security"), tmp_path)
    given = (["--input", str(tmp_path / "report.json")] if command == "report"
             else ["--config", str(config)])
    assert cli_main([command, *given, *flag]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and flag[0] in err


def test_cli_runtime_error_exit_code(cli_workspace, capsys):
    code = cli_main(["detect-64g2", "--config", str(cli_workspace["config"]),
                     "--input", "/nonexistent/waves.csv"])
    assert code == 2
    capsys.readouterr()


def test_cli_entry_point_subprocess(tmp_path):
    # the child imports the package these tests import, installed or not
    package_root = str(Path(statorguard.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    # calibrate commissions, so the config gives no fixed setting
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(_fault_config(calibration=None)))
    proc = subprocess.run(
        [sys.executable, "-m", "statorguard.cli", "calibrate",
         "--config", str(config),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ratio"] > 0
    assert len(payload["points"]) == 11
    stored = json.loads((tmp_path / "calibration.json").read_text())
    assert stored["ratio"] == payload["ratio"]


_SCIPY_BLOCKED_CLI = """
import json, sys
sys.modules["scipy"] = None  # from here on, any scipy import raises ImportError
from statorguard.cli import main
config, out = sys.argv[1:]
codes = [main(["simulate", "--config", config, "--out", out]),
         main(["detect-64s", "--config", config, "--input", out + "/waveforms.csv",
               "--out", out])]
print(json.dumps({"codes": codes, "scipy": sorted(
    name for name in sys.modules if name.partition(".")[0] == "scipy")}))
"""

_SCIPY_AFTER_IMPORT = """
import json, sys
import statorguard.cli
print(json.dumps(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy")))
"""


def test_cli_runs_and_imports_without_scipy(tmp_path):
    """scipy is a test-only dependency: the CLI simulates and replays a
    64S record with every scipy import refused, and importing the CLI
    loads no scipy module when scipy is installed."""
    package_root = str(Path(statorguard.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "64s", "seed": 4, "noise": 0.01,
                                  "fault": {"x": 0.3, "rf": 90.0, "t_on": 0.8},
                                  "profile": {"duration": 1.5}}))
    blocked = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED_CLI, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, env=env)
    assert blocked.returncode == 0, blocked.stderr
    lines = blocked.stdout.splitlines()
    assert json.loads(lines[-1]) == {"codes": [0, 0], "scipy": ["scipy"]}
    assert json.loads(lines[-2])["report"]["verdicts"]["a64s"]["first_trip_index"] is not None
    loaded = subprocess.run([sys.executable, "-c", _SCIPY_AFTER_IMPORT],
                            capture_output=True, text=True, timeout=300, env=env)
    assert loaded.returncode == 0, loaded.stderr
    assert json.loads(loaded.stdout) == []


# a 90 ohm fault at 1.1 s lands inside the default baseline window
# (used samples 1000-1249), so the window already holds the drop
_CONTAMINATED_BASELINE_64S = {"kind": "64s", "seed": 2,
                              "fault": {"x": 0.3, "rf": 90.0, "t_on": 1.1},
                              "profile": {"duration": 2.5, "speed": 1.0}}


def test_contaminated_64s_baseline_raises_through_run_scenario():
    with pytest.raises(CalibrationError,
                       match="baseline window already contains a resistance drop"):
        run_scenario(copy.deepcopy(_CONTAMINATED_BASELINE_64S))


def test_contaminated_64s_baseline_is_a_cli_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_CONTAMINATED_BASELINE_64S))
    out = tmp_path / "out"
    assert cli_main(["detect-64s", "--config", str(path), "--out", str(out)]) == 2
    assert ("error: baseline window already contains a resistance drop"
            in capsys.readouterr().err)
    assert not out.exists()


# a process noise of 1e-4 makes the 64S filter go NaN at frame 445, before
# the baseline window; the error used to blame a NaN baseline
_DIVERGING_64S = {"kind": "64s", "seed": 1, "profile": {"duration": 3.5, "speed": 1.0},
                  "estimator": {"theta_process_noise": 1e-4},
                  "fault": {"x": 0.3, "rf": 1000.0, "t_on": 1.6}}


def test_a_diverging_64s_estimator_is_named_through_run_scenario_and_the_cli(tmp_path, capsys):
    message = "the estimator diverged: resistance estimate nan at sample 445"
    with pytest.raises(CalibrationError, match=f"^{message}$"):
        run_scenario(copy.deepcopy(_DIVERGING_64S))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_DIVERGING_64S))
    assert cli_main(["detect-64s", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
