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


def _add_common(parser, config_required=True):
    parser.add_argument("--config", required=config_required,
                        help="scenario config JSON")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's RNG seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="report format (csv adds tabular/long files)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="statorguard",
                     description="Stator ground-fault protection studies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a scenario to waveform CSVs")
    _add_common(p)

    p = sub.add_parser("detect-64g2", help="run the third-harmonic ratio schemes")
    _add_common(p)
    p.add_argument("--input", default=None,
                   help="waveform CSV with vp3/vn3 channels (default: simulate)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--adaptive", action="store_true",
                       help="run only the adaptive scheme")
    group.add_argument("--fixed", action="store_true",
                       help="run only the fixed-ratio scheme")

    p = sub.add_parser("detect-64s", help="run the injection-based scheme")
    _add_common(p)
    p.add_argument("--input", default=None,
                   help="waveform CSV with vn/in channels (default: simulate)")

    p = sub.add_parser("locate", help="estimate the fault position along the winding")
    _add_common(p)
    p.add_argument("--input", default=None,
                   help="waveform CSV with vn/in channels (default: simulate)")

    p = sub.add_parser("calibrate", help="commission the fixed-ratio scheme")
    _add_common(p)

    p = sub.add_parser("sweep-sensitivity", help="fault-coverage study")
    _add_common(p)

    p = sub.add_parser("sweep-security", help="non-fault misoperation study")
    _add_common(p)

    p = sub.add_parser("report", help="re-emit a stored report.json")
    _add_common(p, config_required=False)
    p.add_argument("--input", required=True, help="existing report.json")

    return parser


def _load(args) -> dict:
    config = harness.load_config(args.config) if args.config else {}
    if args.seed is not None:
        config["seed"] = args.seed
    return config


def _emit_and_print(obj, args, default_dir: str):
    out = args.out or default_dir
    written = harness.emit_report(obj, out, fmt=args.format)
    payload = obj.to_dict()
    if isinstance(obj, harness.ReliabilityReport):
        payload["digest"] = obj.digest()
    print(json.dumps({"written": written, "report": payload}, sort_keys=True))


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
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_detect_64g2(args) -> int:
    config = _load(args)
    config["kind"] = "64g2"
    if args.adaptive:
        config["schemes"] = ["adaptive"]
    elif args.fixed:
        config["schemes"] = ["fixed"]
    channels = ingest_csv(args.input) if args.input else None
    result = harness.run_scenario(config, name="detect_64g2", input_channels=channels)
    _emit_and_print(result, args, "statorguard_out")
    return 0


def _cmd_detect_64s(args) -> int:
    config = _load(args)
    config["kind"] = "64s"
    channels = ingest_csv(args.input) if args.input else None
    result = harness.run_scenario(config, name="detect_64s", input_channels=channels)
    _emit_and_print(result, args, "statorguard_out")
    return 0


def _cmd_locate(args) -> int:
    config = _load(args)
    config["kind"] = "64s"
    channels = ingest_csv(args.input) if args.input else None
    result = harness.run_scenario(config, name="locate", input_channels=channels)
    verdict = result.verdicts["a64s"]
    print(json.dumps({"x_hat": verdict.get("x_final"),
                      "tripped": verdict["tripped"],
                      "rs_final_ohms": verdict.get("rs_final_ohms")},
                     sort_keys=True))
    return 0


def _cmd_calibrate(args) -> int:
    config = _load(args)
    calibration, points = harness.calibrate_from_config(config)
    payload = {"ratio": calibration.ratio, "beta_ng": calibration.beta_ng,
               "threshold": calibration.threshold, "points": points}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        harness.write_json(out / "calibration.json", payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_sweep_sensitivity(args) -> int:
    report = harness.sweep_sensitivity(None, _load(args))
    _emit_and_print(report, args, "statorguard_out")
    return 0


def _cmd_sweep_security(args) -> int:
    report = harness.sweep_security(None, _load(args))
    _emit_and_print(report, args, "statorguard_out")
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
    "detect-64g2": _cmd_detect_64g2,
    "detect-64s": _cmd_detect_64s,
    "locate": _cmd_locate,
    "calibrate": _cmd_calibrate,
    "sweep-sensitivity": _cmd_sweep_sensitivity,
    "sweep-security": _cmd_sweep_security,
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
