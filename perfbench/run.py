"""statorguard benchmark: four seeded workloads, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload sensitivity_sweep --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

With ``--trace 0`` it measures set-up several times in fresh processes,
then runs closed-loop studies for ``--seconds`` in one more fresh process
and reports the end-to-end metrics; their times are in reference seconds
(refspeed.py), which take out the machine's own changes of speed.  With ``--trace 1`` one process
alternates untraced and traced studies and reports per-layer metrics
from the spans, which it writes to ``.perfbench_out/``.  Every study is
checked against the fingerprint stored for its input seed.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md.
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
import threading
import time
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import refspeed  # noqa: E402  (needs HERE on sys.path)
import workloads  # noqa: E402

# Set-up is measured this many times per run, each in a fresh process;
# one of them is the process that then runs the studies.
SETUP_SAMPLES = 3
# Reference-loop timings taken before and again after each set-up sample.
LOOPS_AROUND_SETUP = 3
# Every process of one run must have ended this long after the run starts.
RUN_DEADLINE_S = 170.0
# Sweep workers in the benchmark's processes (the program default is
# min(8, nproc)); pinned so runs on the same machine compare.
SWEEP_WORKERS = min(2, os.cpu_count() or 1)

END_TO_END = {
    "setup_s": "s",
    "study_s": "s",
    "signal_s_per_s": "s/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "signalcore.ingest_csv.us_per_sample": "us/sample",
    "signalcore.extract_phasor.us_per_sample": "us/sample",
    "signalcore.extract_phasor.calls": "count",
    "plantsim.simulate_64g2.self_us_per_sample": "us/sample",
    "plantsim.simulate_64g2.calls": "count",
    "plantsim.simulate_64s.us_per_sample": "us/sample",
    "a64g2.adaptive.us_per_frame": "us/frame",
    "a64g2.fixed.us_per_frame": "us/frame",
    "a64g2.frames": "count",
    "a64g2.valid_frame_ratio": "ratio",
    "a64g2.write_trace_csv.s": "s",
    "a64s.frames.self_us_per_sample": "us/sample",
    "a64s.estimator.us_per_sample": "us/sample",
    "a64s.valid_frame_ratio": "ratio",
    "a64s.write_trace_csv.s": "s",
    "harness.run_scenario.self_ms": "ms",
    "harness.calibrate.calls": "count",
    "harness.calibrate.ms": "ms",
    "harness.frames_64g2.self_us_per_sample": "us/sample",
    "harness.emit.self_s": "s",
    "harness.emit.bytes": "bytes",
    "harness.emit.us_per_row": "us/row",
    "harness.sweep.self_ms": "ms",
    "harness.sweep.cores_used": "cores",
    "harness.sweep.cell_wait_share": "ratio",
    "harness.sweep.cell_busy_ms": "ms",
    "harness.sweep.cell_wait_ms": "ms",
    "harness.sweep.thread_speedup": "x",
    "cli.main.self_ms": "ms",
    "trace.layer_self_share": "ratio",
    "trace.study_s_untraced": "s",
    "trace.study_s_traced": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                   help="one workload, or all four in turn (one block each)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny shrinks every workload, for the self-check")
    return p.parse_args(argv)


class _Runner:
    """Starts worker processes for one benchmark run."""

    def __init__(self, args, root: str, tmp: str):
        self.args = args
        self.root = root
        self.tmp = tmp
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, STATORGUARD_THREADS=str(SWEEP_WORKERS))
        self.spawned = 0

    def spawn(self, phase: str, spans: str = "") -> Tuple[float, Dict[str, Any]]:
        """Run one worker; returns (seconds to READY, its result)."""
        self.spawned += 1
        workdir = os.path.join(self.tmp, f"{phase}-{self.spawned}")
        os.mkdir(workdir)
        a = self.args
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--root", self.root, "--workload", a.workload, "--seed", str(a.seed),
               "--size", a.size, "--phase", phase, "--seconds", str(a.seconds),
               "--workdir", workdir]
        if spans:
            cmd += ["--spans", spans]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=self.env, cwd=self.root)
        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            shutil.rmtree(workdir, ignore_errors=True)
        if ready.strip() != "READY" or code != 0:
            raise BenchError(f"{phase} worker failed (exit {code})")
        if phase == "setup":
            return setup_s, {}
        return setup_s, json.loads(rest.strip().splitlines()[-1])


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _setup_sample(runner: _Runner, phase: str) -> Tuple[float, float, Dict[str, Any]]:
    """Spawn one worker; returns its set-up time in wall and in reference
    seconds, timing the reference loop here just before and after it."""
    loops = [refspeed.loop_s() for _ in range(LOOPS_AROUND_SETUP)]
    setup_s, result = runner.spawn(phase)
    loops += [refspeed.loop_s() for _ in range(LOOPS_AROUND_SETUP)]
    return setup_s, refspeed.ref_seconds(setup_s, loops), result


def _measure(runner: _Runner) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    # Set-up-only processes go before and after the studying one, so the
    # set-up samples span the run rather than one moment of the machine.
    before = (SETUP_SAMPLES - 1) // 2
    samples = [_setup_sample(runner, "setup") for _ in range(before)]
    samples.append(_setup_sample(runner, "run"))
    result = samples[-1][2]
    samples += [_setup_sample(runner, "setup") for _ in range(SETUP_SAMPLES - 1 - before)]
    setups = [s[0] for s in samples]
    ref_setups = [s[1] for s in samples]
    times, ref_times = result["study_times"], result["study_ref_times"]
    study_s = statistics.median(ref_times)
    metrics = {
        "setup_s": statistics.median(ref_setups),
        "study_s": study_s,
        "signal_s_per_s": result["signal_s"] / study_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"setup_s: median of {len(setups)} fresh processes; "
        f"wall median {statistics.median(setups):.4f} s",
        "study_s: median of {} studies, quartiles {:.4f} / {:.4f} s; "
        "wall median {:.4f} s, quartiles {:.4f} / {:.4f} s".format(
            len(times), *_quartiles(ref_times), statistics.median(times), *_quartiles(times)),
        f"reference loop: median {result['loop_s']:.5f} s "
        f"(reference {refspeed.REF_LOOP_S} s); time metrics are in reference seconds",
        f"signal per study: {result['signal_s']:.2f} s",
    ]
    return metrics, result, notes


def _trace(runner: _Runner) -> Tuple[Dict[str, float], Dict[str, Any], List[str]]:
    a = runner.args
    spans = os.path.join(os.path.dirname(runner.tmp),
                         f"spans-{a.workload}-{a.size}-seed{a.seed}.jsonl")
    _, result = runner.spawn("trace", spans=spans)
    metrics = result["layer_metrics"]
    return metrics, result, [f"spans written to {os.path.relpath(spans, runner.root)}"]


def git_sha(root: str) -> str:
    """HEAD of the checkout, or "unknown" where it is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _run_one(args, root: str) -> int:
    """Run one workload, print its table and its JSON line."""
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=out_dir)
    runner = _Runner(args, root, tmp)
    try:
        metrics, result, notes = (_trace if args.trace else _measure)(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed = result["attempted"], result["failed"]
    env = {"nproc": os.cpu_count(), "cpu": _cpu_model(),
           "python": platform.python_version(), "numpy": result["numpy"],
           "scipy": result["scipy"], "git_sha": git_sha(root),
           "sweep_workers": SWEEP_WORKERS}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"(input set {workloads.input_seed(args.seed)}) size={args.size} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:44s} {metrics[name]:14.6g} {unit}")
    print(f"  {'ops_failed_ratio':44s} {failed / attempted:14.6g} ratio "
          f"({failed} of {attempted} studies)")
    for note in notes:
        print("  " + note)
    for error in result["errors"]:
        print("  FAILED: " + error)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }), flush=True)
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "statorguard", "__init__.py")):
        print("perfbench: ./src/statorguard not found; run from the repository root",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            workloads.load_fingerprint(name, args.size, args.seed)
    except (OSError, ValueError, KeyError) as exc:
        print(f"perfbench: no stored fingerprint for {name}/{args.size}: {exc!r}",
              file=sys.stderr)
        return 2
    codes = [_run_one(argparse.Namespace(**{**vars(args), "workload": name}), root)
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
