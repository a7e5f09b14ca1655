"""Scenario orchestration, sweeps, report emission, and the CLI."""

import copy
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import statorguard
from statorguard import harness, signalcore
from statorguard.a64s import A64SEstimatorConfig, A64STrace
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


def test_sensitivity_sweep_reads_grid_from_config():
    grid = {"taps": [0.0, 0.5, 1.0], "rfs": [50.0], "loads": [1.0], "pfs": [1.0]}
    base = {"seed": 5, "calibration": dict(CAL)}
    from_config = sweep_sensitivity(None, {**base, "grid": grid})
    assert from_config.digest() == sweep_sensitivity(_small_grid(), base).digest()


def test_sensitivity_sweep_rejects_64s_config():
    with pytest.raises(ConfigError):
        sweep_sensitivity(None, {"kind": "64s"})


def test_security_sweep_rejects_fault_scenarios():
    catalog = [{"name": "bad", "kind": "64g2",
                "fault": {"x": 0.0, "rf": 50.0, "t_on": 0.1}}]
    with pytest.raises(ConfigError):
        sweep_security(catalog, {"calibration": dict(CAL)})


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


def test_emitted_trace_and_long_csv_match_the_naive_oracle(emitted, tmp_path):
    result, out = emitted
    oracles.naive_emit_csv(result, tmp_path)
    for name in [f"trace_{scheme}.csv" for scheme in result.traces] + ["long.csv"]:
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_emit_melts_none_bool_and_mixed_columns_like_the_naive_oracle(tmp_path):
    # a trace three write blocks long whose columns hold None, ints,
    # floats and bools side by side
    result = run_scenario(_fault_config(profile={"duration": 3.2}), name="mixed")
    trace = copy.deepcopy(result.traces["a64g2"])
    assert len(trace.t_index) > 3 * signalcore._BLOCK
    trace.rho_hat = [None if i % 7 == 0 else v for i, v in enumerate(trace.rho_hat)]
    trace.residual = [int(v > 0) if i % 5 == 0 else v for i, v in enumerate(trace.residual)]
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
    if command != "calibrate":
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


def test_cli_runtime_error_exit_code(cli_workspace, capsys):
    code = cli_main(["detect-64g2", "--config", str(cli_workspace["config"]),
                     "--input", "/nonexistent/waves.csv"])
    assert code == 2
    capsys.readouterr()


def test_cli_entry_point_subprocess(cli_workspace, tmp_path):
    # the child imports the package these tests import, installed or not
    package_root = str(Path(statorguard.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "statorguard.cli", "calibrate",
         "--config", str(cli_workspace["config"]),
         "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ratio"] > 0
    assert len(payload["points"]) == 11
    stored = json.loads((tmp_path / "calibration.json").read_text())
    assert stored["ratio"] == payload["ratio"]
