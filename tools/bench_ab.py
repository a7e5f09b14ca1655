"""Paired A/B benchmark of this checkout against a git revision.

Runs ``perfbench/run.py --workload <w> --seed <s> --seconds <n>`` in pairs:
once in this checkout and once in a temporary ``git worktree`` of
``--rev``, the side that goes first alternating from pair to pair, since
the machine's speed drifts within minutes.  The worktree is removed at the
end, also when a run fails or the script is interrupted.  For each
end-to-end metric of ``BENCHMARK.json`` it then prints both sides'
medians and quartiles, the change of the median, whether that change is
larger than the revision's interquartile range, and in how many pairs
this checkout is better.  It exits 1 when any run fails or reports an
incorrect study, after the summary of the pairs that did run.

    python tools/bench_ab.py --rev HEAD~1 --workload replay_64s_60s --pairs 10

A handful of pairs can read a change either way on a machine that drifts;
count the pairs this checkout wins before reading its medians.
"""

from __future__ import annotations

import argparse
import json
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


def summarize(end_to_end: List[Dict[str, Any]], pairs: List[Tuple[Dict, Dict]],
              rev: str) -> List[str]:
    """One line per end-to-end metric over pairs of (revision's result,
    this checkout's result)."""
    lines = [f"{len(pairs)} pairs; rev = {rev}, tree = this checkout"]
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        ours = [o["metrics"][name]["value"] for _, o in pairs]
        wins = sum((o < b) if lower else (o > b) for b, o in zip(base, ours))
        med_b, med_o = statistics.median(base), statistics.median(ours)
        q1, q3 = _quartiles(base)
        o1, o3 = _quartiles(ours)
        change = (med_o - med_b) / med_b * 100 if med_b else float("nan")
        beyond = "beyond" if abs(med_o - med_b) > q3 - q1 else "within"
        lines.append(
            f"  {name:15s} rev {med_b:.4g} ({q1:.4g}-{q3:.4g})  tree {med_o:.4g} "
            f"({o1:.4g}-{o3:.4g}) {metric['unit']}  {change:+.1f}%, {beyond} rev IQR  "
            f"tree better in {wins} of {len(pairs)}")
    return lines


def _run(where: Path, args) -> Result:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=where, capture_output=True, text=True)
    result = result_of(proc.returncode, proc.stdout)
    if result is None:
        sys.stderr.write(proc.stdout + proc.stderr)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="study time of each run (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    tmp = tempfile.mkdtemp(prefix="bench_ab-")
    tree = Path(tmp) / "rev"
    pairs: List[Tuple[Dict, Dict]] = []
    failed = 0
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(tree), args.rev],
                       cwd=ROOT, check=True, capture_output=True, text=True)
        for i in range(args.pairs):
            sides = [("rev", tree), ("tree", ROOT)]
            got = {side: _run(where, args) for side, where in (sides if i % 2 else sides[::-1])}
            print(f"pair {i + 1}/{args.pairs}:", *(
                f"{side} study_s " + ("FAILED" if result is None else
                                      f"{result['metrics']['study_s']['value']:.4f}")
                for side, result in got.items()), file=sys.stderr, flush=True)
            if None in got.values():
                failed += 1
            else:
                pairs.append((got["rev"], got["tree"]))
    except subprocess.CalledProcessError as exc:
        print(f"bench_ab: git worktree add failed: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(tree)],
                       cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    if pairs:
        print("\n".join(summarize(spec["end_to_end"], pairs, args.rev)))
    if failed:
        print(f"bench_ab: {failed} of {args.pairs} pairs had a failed or incorrect run",
              file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
