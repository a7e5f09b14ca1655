"""Smoke test of the benchmark itself, at the tiny size (about a minute).

Run from the repository root:

    python3 perfbench/selfcheck.py

It checks that every metric BENCHMARK.json names is emitted with its
unit on every workload, that two traced runs give identical counts, that
layer self times account for at least 90% of a serial traced study, that
a deliberately wrong stored fingerprint makes studies fail, and that the
benchmark refuses to run where there is no statorguard source.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (needs HERE on sys.path)


def _bench(*extra, run_py=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, run_py, "--size", "tiny",
           "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_metrics_and_counts():
    end_to_end, per_layer, names = _declared()
    assert set(names) <= set(workloads.WORKLOADS), names
    counts = [name for name, unit in per_layer.items() if unit in ("count", "bytes")]
    # every workload, also the one BENCHMARK.json leaves out of the gate
    for name in workloads.WORKLOADS:
        code, result, proc = _bench("--workload", name, "--seed", "0", "--trace", "0")
        assert code == 0 and result, proc.stderr
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == end_to_end, (name, got)
        assert all(v["value"] > 0 for v in result["metrics"].values()), result

        traced = []
        for _ in range(2):
            code, result, proc = _bench("--workload", name, "--seed", "0", "--trace", "1")
            assert code == 0 and result and result["correct"], proc.stderr
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == per_layer, (name, got)
            traced.append({k: result["metrics"][k]["value"] for k in counts})
            share = result["metrics"]["trace.layer_self_share"]["value"]
            # the threaded sweep overlaps cells, so only serial studies must
            # have their wall time accounted for by layer self times
            assert name == "sensitivity_sweep" or share >= 0.9, (name, share)
        assert traced[0] == traced[1], (name, traced)
        print(f"ok  {name}: metrics and units, repeatable counts {traced[0]}")


def _copy_bench(tmp):
    """A copy of perfbench/ under tmp, for checks that alter its files."""
    copy = os.path.join(tmp, "perfbench")
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy


def check_wrong_fingerprint():
    with open(workloads.FINGERPRINTS, encoding="utf-8") as fh:
        stored = json.load(fh)
    verdict = stored["fingerprints"]["tiny"]["replay_64s_60s"]["0"]["verdicts"]["a64s"]
    verdict["rs_final_ohms"] *= 1.0 + 100 * workloads.RTOL
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as tmp:
        copy = _copy_bench(tmp)
        with open(os.path.join(copy, "fingerprints.json"), "w", encoding="utf-8") as fh:
            json.dump(stored, fh)
        code, result, proc = _bench("--workload", "replay_64s_60s", "--seed", "0",
                                    "--trace", "0", run_py=os.path.join(copy, "run.py"))
    assert code != 0 and result, proc.stdout
    assert not result["correct"] and result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    print(f"ok  wrong fingerprint: {result['failed']} of {result['attempted']} studies failed")


def check_refuses_without_source():
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as tmp:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        _copy_bench(tmp)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "security_sweep",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without ./src/statorguard")


def main() -> int:
    check_refuses_without_source()
    check_wrong_fingerprint()
    check_metrics_and_counts()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
