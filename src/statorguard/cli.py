"""Command-line front end.

Subcommands cover the full workflow: simulate a scenario to waveform
CSVs, run either detection scheme on simulated or ingested waveforms,
locate a fault, commission the fixed-ratio scheme, run the sensitivity
and security sweeps, and re-emit stored reports.  Exit codes: 0 on
success, 1 for configuration errors, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .harness import ConfigError
from .signalcore import ingest_csv, write_csv


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="statorguard",
                     description="Stator ground-fault protection studies")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", help="simulate a scenario to waveform CSVs")

    # the detections share one handler: a config that names no kind takes
    # the command's, one that names another is refused, and detect-64g2's
    # flags select its schemes
    for name, kind, channels, text in (
            ("detect-64g2", "64g2", "vp3/vn3", "run the third-harmonic ratio schemes"),
            ("detect-64s", "64s", "vn/in", "run the injection-based scheme"),
            ("locate", "64s", "vn/in", "estimate the fault position along the winding")):
        p = sub.add_parser(name, help=text)
        p.set_defaults(kind=kind, schemes=None)
        p.add_argument("--input", default=None,
                       help=f"waveform CSV with {channels} channels (default: simulate)")
    group = sub.choices["detect-64g2"].add_mutually_exclusive_group()
    group.add_argument("--adaptive", dest="schemes", action="store_const", const=["adaptive"],
                       help="run only the adaptive scheme")
    group.add_argument("--fixed", dest="schemes", action="store_const", const=["fixed"],
                       help="run only the fixed-ratio scheme")

    sub.add_parser("calibrate", help="commission the fixed-ratio scheme")
    sub.add_parser("sweep-sensitivity", help="fault-coverage study")
    sub.add_parser("sweep-security", help="non-fault misoperation study")

    p = sub.add_parser("report", help="re-emit a stored report.json")
    p.add_argument("--input", required=True, help="existing report.json")

    # each command takes only the flags it reads: report reads no config,
    # locate writes no file, and only a command that emits a report takes
    # its format
    for name, p in sub.choices.items():
        if name != "report":
            p.add_argument("--config", required=True, help="scenario config JSON")
            p.add_argument("--seed", type=int, default=None,
                           help="override the config's RNG seed")
        if name != "locate":
            p.add_argument("--out", default=None, help="output directory")
        if name not in ("simulate", "locate", "calibrate"):
            p.add_argument("--format", choices=("json", "csv"), default="json",
                           help="report format (csv adds tabular/long files)")
    return parser


def _load(args) -> dict:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _emit_and_print(obj, args, default_dir: str):
    out = args.out or default_dir
    written = harness.emit_report(obj, out, fmt=args.format)
    payload = obj.to_dict()
    if isinstance(obj, harness.ReliabilityReport):
        payload["digest"] = obj.digest()
    print(json.dumps({"written": written, "report": payload}, sort_keys=True, allow_nan=False))


def _cmd_simulate(args) -> int:
    kind, channels, onset_index = harness.simulate_waveforms(_load(args))
    out = Path(args.out or "statorguard_out")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "waveforms.csv"
    write_csv(path, channels)
    first = next(iter(channels.values()))
    summary = {"kind": kind, "samples": len(first), "fs": first.fs,
               "written": [str(path)]}
    if kind == "64g2":
        summary["onset_index"] = onset_index
    print(json.dumps(summary, sort_keys=True, allow_nan=False))
    return 0


def _cmd_detect(args) -> int:
    config = _load(args)
    kind = config.get("kind")
    if kind not in (None, args.kind):
        raise ConfigError(f"{args.command} runs a {args.kind} scenario; "
                          f"the config's kind is {kind!r}")
    config["kind"] = args.kind
    if args.schemes:
        config["schemes"] = args.schemes
    channels = ingest_csv(args.input) if args.input else None
    result = harness.run_scenario(config, name=args.command.replace("-", "_"),
                                  input_channels=channels)
    if args.command != "locate":
        _emit_and_print(result, args, "statorguard_out")
        return 0
    verdict = result.verdicts["a64s"]
    print(json.dumps({"x_hat": verdict.get("x_final"),
                      "tripped": verdict["tripped"],
                      "rs_final_ohms": verdict.get("rs_final_ohms")},
                     sort_keys=True, allow_nan=False))
    return 0


def _cmd_calibrate(args) -> int:
    config = _load(args)
    # calibrate_from_config reads any record, as the sweeps commission the
    # 64g2 cells of a 64s base through it
    if config.get("kind") == "64s":
        raise ConfigError("calibrate commissions the 64g2 fixed-ratio scheme; "
                          "a 64s config has no calibration")
    calibration, points = harness.calibrate_from_config(config)
    payload = {"ratio": calibration.ratio, "beta_ng": calibration.beta_ng,
               "threshold": calibration.threshold, "points": points}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        harness.write_json(out / "calibration.json", payload)
    print(json.dumps(payload, sort_keys=True, allow_nan=False))
    return 0


def _cmd_sweep(args) -> int:
    study = (harness.sweep_sensitivity if args.command == "sweep-sensitivity"
             else harness.sweep_security)
    _emit_and_print(study(None, _load(args)), args, "statorguard_out")
    return 0


def _cmd_report(args) -> int:
    data = harness.load_config(args.input)
    if not isinstance(data, dict) or "study" not in data:
        raise ConfigError(f"{args.input} does not look like a sweep report")
    report = harness.ReliabilityReport(
        study=data["study"],
        cells=data.get("cells", []),
        blind_zone=data.get("blind_zone", []),
        misoperations=data.get("misoperations", []),
        calibration=data.get("calibration"),
        meta=data.get("meta", {}),
    )
    _emit_and_print(report, args, "statorguard_out")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "detect-64g2": _cmd_detect,
    "detect-64s": _cmd_detect,
    "locate": _cmd_detect,
    "calibrate": _cmd_calibrate,
    "sweep-sensitivity": _cmd_sweep,
    "sweep-security": _cmd_sweep,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
