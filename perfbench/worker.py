"""One benchmark process: set up a workload, then run its studies.

Started by run.py, never by hand.  It imports statorguard from the
checkout's ``src``, builds the workload's inputs and prints ``READY``;
run.py times set-up as process start to that line.  In phase ``setup`` it
then exits.  In phase ``run`` it runs untraced studies in a closed loop
for ``--seconds``; in phase ``trace`` it alternates untraced and traced
studies.  Every study is checked against the stored fingerprint.  The
last stdout line is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

import refspeed
import workloads


def _parse(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", required=True, choices=workloads.SIZES)
    p.add_argument("--phase", required=True, choices=("setup", "run", "trace"))
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    return p.parse_args(argv)


class Checker:
    """Runs studies and counts the ones that fail: raise, exit non-zero
    or differ from the stored fingerprint."""

    def __init__(self, workload: workloads.Workload, expected: Dict[str, Any]):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def run(self, around=contextlib.nullcontext) -> float:
        """One study; returns its wall time.  ``around()`` is entered just
        around the study call, so the fingerprint check stays outside it."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with around():
                output = self.workload.study()
        except Exception as exc:  # noqa: BLE001 - a raising study is a failed study
            elapsed = time.perf_counter() - start
            self._fail(f"study raised {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        diffs = workloads.compare(self.expected, self.workload.fingerprint(output))
        if diffs:
            self._fail("; ".join(diffs[:5]))
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def _closed_loop(seconds: float, steps) -> None:
    """Run the steps round-robin until the next one would end past
    ``seconds``; every step runs at least once."""
    start = time.perf_counter()
    last = 0.0
    rounds = 0
    while rounds == 0 or time.perf_counter() - start + last <= seconds:
        t = time.perf_counter()
        for step in steps:
            step()
        last = time.perf_counter() - t
        rounds += 1


def _phase_run(args, checker: Checker) -> Dict[str, Any]:
    # The reference loop runs between studies; each study is scaled by the
    # loop timings just before and just after it.
    times: List[float] = []
    ref_times: List[float] = []
    loops = [refspeed.loop_s()]

    def step():
        wall = checker.run()
        loops.append(refspeed.loop_s())
        times.append(wall)
        ref_times.append(refspeed.ref_seconds(wall, loops[-2:]))

    _closed_loop(args.seconds, [step])
    return {"study_times": times, "study_ref_times": ref_times,
            "loop_s": statistics.median(loops)}


def _phase_trace(args, checker: Checker) -> Dict[str, Any]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    untraced: List[float] = []
    traced: List[float] = []
    one_worker: List[float] = []

    def traced_study():
        study_id = len(traced)
        traced.append(checker.run(lambda: tracer.study(study_id)))
        tracer.count_written(study_id)

    def one_worker_study():
        os.environ["STATORGUARD_THREADS"] = "1"
        try:
            one_worker.append(checker.run())
        finally:
            os.environ["STATORGUARD_THREADS"] = pinned

    pinned = os.environ["STATORGUARD_THREADS"]
    steps = [lambda: untraced.append(checker.run()), traced_study]
    if args.workload == "sensitivity_sweep":
        steps.append(one_worker_study)
    _closed_loop(args.seconds, steps)

    metrics = layer_metrics(tracer.spans, len(traced))
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(traced)
    metrics["harness.sweep.thread_speedup"] = (
        statistics.median(one_worker) / untraced_s if one_worker else 0.0)
    metrics["trace.study_s_untraced"] = untraced_s
    metrics["trace.study_s_traced"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    if args.spans:
        tracer.write(args.spans, {"workload": args.workload, "seed": args.seed,
                                  "size": args.size, "traced_studies": len(traced)})
    return {"layer_metrics": metrics}


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    import statorguard

    source = os.path.realpath(os.path.dirname(statorguard.__file__))
    if not source.startswith(os.path.realpath(args.root) + os.sep):
        print(f"statorguard imported from {source}, not from the checkout", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed, args.size, args.workdir)
    print("READY", flush=True)
    if args.phase == "setup":
        return 0

    expected = workloads.load_fingerprint(args.workload, args.size, args.seed)
    checker = Checker(workload, expected)
    if args.phase == "run":
        result = _phase_run(args, checker)
    else:
        result = _phase_trace(args, checker)
    import numpy
    import scipy

    result.update({
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "signal_s": workload.signal_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
