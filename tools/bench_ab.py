"""Paired A/B benchmark of this checkout against a git revision.

Runs ``perfbench/run.py --workload <w> --seed <s> --seconds <n>`` in pairs:
once in this checkout and once in a temporary copy of ``--rev`` (``git
archive``), the side that goes first alternating from pair to pair, since
the machine's speed drifts within minutes.  The copy is removed at the
end, also when a run fails or the script is interrupted.  For each
end-to-end metric of ``BENCHMARK.json`` it then prints both sides'
medians and quartiles, the change of the median, whether that change is
larger than the revision's interquartile range, and in how many pairs
this checkout is better.  It exits 1 when any run fails or reports an
incorrect study, after the summary of the pairs that did run.

    python tools/bench_ab.py --rev HEAD~1 --workload replay_64s_60s --pairs 10
    python tools/bench_ab.py --rev HEAD~1 --workload security_sweep replay_64g2_60s \
        --pairs 6 --out BENCH_<short-sha>.json

Several workloads run one after the other.  ``--out`` records, per
workload, each metric's medians, quartiles and pairs won, with the
machine, the Python, numpy and orjson versions and both sides' git
SHAs (the checkout's HEAD, and whether uncommitted changes ran on top of
it), into a JSON file.  An existing file keeps its other workloads, so a
workload run later adds to it.

A handful of pairs can read a change either way on a machine that drifts;
count the pairs this checkout wins before reading its medians.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

Result = Optional[Dict[str, Any]]


def result_of(code: int, stdout: str) -> Result:
    """The JSON object a perfbench run prints as its last stdout line, or
    None when the run exited non-zero, printed no such line, or reports
    an incorrect study."""
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) and result.get("correct") is True else None


def _quartiles(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(metric: Dict[str, Any], pairs: List[Tuple[Dict, Dict]]) -> Dict[str, Any]:
    """One end-to-end metric over pairs of (revision's result, this
    checkout's result): each side's median and quartiles, and the pairs
    in which this checkout is better (a tie counts for neither)."""
    name, lower = metric["name"], metric["better"] == "lower"
    base = [b["metrics"][name]["value"] for b, _ in pairs]
    ours = [o["metrics"][name]["value"] for _, o in pairs]
    sides = {}
    for side, values in (("rev", base), ("tree", ours)):
        q1, q3 = _quartiles(values)
        sides[side] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                       "values": values}
    return {"unit": metric["unit"], "better": metric["better"], **sides,
            "tree_wins": sum((o < b) if lower else (o > b) for b, o in zip(base, ours)),
            "pairs": len(pairs)}


def summarize(end_to_end: List[Dict[str, Any]], pairs: List[Tuple[Dict, Dict]],
              rev: str) -> List[str]:
    """One line per end-to-end metric over pairs of (revision's result,
    this checkout's result)."""
    lines = [f"{len(pairs)} pairs; rev = {rev}, tree = this checkout"]
    for metric in end_to_end:
        got = compare(metric, pairs)
        base, tree = got["rev"], got["tree"]
        med_b, med_o = base["median"], tree["median"]
        change = (med_o - med_b) / med_b * 100 if med_b else float("nan")
        beyond = "beyond" if abs(med_o - med_b) > base["q3"] - base["q1"] else "within"
        lines.append(
            f"  {metric['name']:15s} rev {med_b:.4g} ({base['q1']:.4g}-{base['q3']:.4g})  "
            f"tree {med_o:.4g} ({tree['q1']:.4g}-{tree['q3']:.4g}) {metric['unit']}  "
            f"{change:+.1f}%, {beyond} rev IQR  tree better in {got['tree_wins']} of {len(pairs)}")
    return lines


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _env(rev_sha: str) -> Dict[str, Any]:
    """The machine and versions a record was taken with; the tree side is
    this checkout's HEAD, plus its uncommitted changes when dirty."""
    import numpy
    import orjson
    cpu = platform.processor()
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "orjson": orjson.__version__, "rev_sha": rev_sha,
            "tree_sha": _git("rev-parse", "HEAD"),
            "tree_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))}


def record(path: Path, workload: str, entry: Dict[str, Any]) -> None:
    """Write entry as workload's record in the JSON file at path, keeping
    the file's other workloads."""
    workloads = json.loads(path.read_text())["workloads"] if path.exists() else {}
    workloads[workload] = entry
    path.write_text(json.dumps({"workloads": workloads}, indent=2, sort_keys=True) + "\n")


def _run(where: Path, workload: str, args) -> Result:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=where, capture_output=True, text=True)
    result = result_of(proc.returncode, proc.stdout)
    if result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
    return result


def _pairs(tree: Path, workload: str, args) -> Tuple[List[Tuple[Dict, Dict]], int]:
    """The pairs of (revision's, this checkout's) results that both ran,
    and the number of pairs with a failed or incorrect run."""
    pairs: List[Tuple[Dict, Dict]] = []
    failed = 0
    for i in range(args.pairs):
        sides = [("rev", tree), ("tree", ROOT)]
        got = {side: _run(where, workload, args)
               for side, where in (sides if i % 2 else sides[::-1])}
        print(f"{workload} pair {i + 1}/{args.pairs}:", *(
            f"{side} study_s " + ("FAILED" if result is None else
                                  f"{result['metrics']['study_s']['value']:.4f}")
            for side, result in got.items()), file=sys.stderr, flush=True)
        if None in got.values():
            failed += 1
        else:
            pairs.append((got["rev"], got["tree"]))
    return pairs, failed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, nargs="+",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="study time of each run (default: BENCHMARK.json's)")
    parser.add_argument("--out", type=Path, help="JSON file to record each workload's pairs in")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    tmp = tempfile.mkdtemp(prefix="bench_ab-")
    tree = Path(tmp) / "rev"
    failed = 0
    try:
        rev_sha = _git("rev-parse", "--verify", f"{args.rev}^{{commit}}")
        tree.mkdir()
        archive = subprocess.run(["git", "archive", rev_sha], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        env = _env(rev_sha)
        for workload in args.workload:
            pairs, lost = _pairs(tree, workload, args)
            failed += lost
            if pairs:
                print("\n".join([workload] + summarize(spec["end_to_end"], pairs, args.rev)))
            if args.out is not None:
                record(args.out, workload, {
                    "env": env, "seed": args.seed, "seconds": args.seconds,
                    "failed_pairs": lost,
                    "metrics": {m["name"]: compare(m, pairs) for m in spec["end_to_end"]}
                    if pairs else {}})
    except subprocess.CalledProcessError as exc:
        print(f"bench_ab: {' '.join(exc.cmd[:2])} failed: {exc.stderr}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if failed:
        print(f"bench_ab: {failed} pairs had a failed or incorrect run", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
