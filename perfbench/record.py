"""Record the behaviour fingerprints the benchmark checks studies against.

Run from the repository root, once, on a commit whose behaviour is the
reference, and only again when a change is meant to alter behaviour:

    python3 perfbench/record.py --jobs 2

It runs one study per (size, workload, input seed) and rewrites
perfbench/fingerprints.json.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import multiprocessing
import os
import platform
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402  (needs HERE on sys.path)

# size -> input seeds recorded; the self-check runs the tiny size at seed 0
RECORD = {"full": range(workloads.RECORDED_SEEDS), "tiny": range(1)}


def _fingerprint(task):
    size, name, seed = task
    with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".perfbench_out")) as tmp:
        workload = workloads.build(name, seed, size, tmp)
        return task, workload.fingerprint(workload.study())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--jobs", type=int, default=1)
    args = p.parse_args(argv)
    os.makedirs(os.path.join(os.getcwd(), ".perfbench_out"), exist_ok=True)
    os.environ.setdefault("STATORGUARD_THREADS", "1")

    import numpy
    import scipy
    from run import git_sha

    tasks = [(size, name, seed) for size, seeds in RECORD.items()
             for name in workloads.WORKLOADS for seed in seeds]
    stored = {size: {name: {} for name in workloads.WORKLOADS} for size in RECORD}
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(args.jobs, mp_context=ctx) as pool:
        for (size, name, seed), fingerprint in pool.map(_fingerprint, tasks):
            stored[size][name][str(seed)] = fingerprint
            print(f"{size} {name} seed {seed}", flush=True)
    payload = {
        "rtol": workloads.RTOL,
        "recorded_with": {"git_sha": git_sha(os.getcwd()),
                          "python": platform.python_version(),
                          "numpy": numpy.__version__, "scipy": scipy.__version__},
        "fingerprints": stored,
    }
    with open(workloads.FINGERPRINTS, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
