"""Span tracing of statorguard from outside the package.

The tracer replaces the public calls into each layer with wrappers that
record a span: name, start, end, parent span, study id, thread and the
thread-CPU time spent inside.  Spans stay in memory and are written out
once, at the end of the run.

Wrappers are installed at the caller's binding, not in the defining
module: ``harness`` does ``from .plantsim import simulate_64g2_scenario``,
so only ``harness.simulate_64g2_scenario`` sees the harness's calls.
They are installed only while a traced study runs, so untraced studies in
the same process run the original functions.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from workloads import csv_rows


def _samples_of_arg0(args, kwargs, result):
    return {"samples": len(args[0])}


def _frames_of_trace(args, kwargs, result):
    return {"frames": len(result.t_index), "valid": sum(result.valid)}


def _rows_of_trace_arg(args, kwargs, result):
    return {"rows": len(args[0].t_index)}


# (module of the caller's binding, attribute, span name, counts of one call)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("cli", "ingest_csv", "signalcore.ingest_csv",
     lambda a, k, r: {"samples": len(next(iter(r.values())))}),
    ("plantsim", "extract_phasor", "signalcore.extract_phasor", _samples_of_arg0),
    ("harness", "extract_phasor", "signalcore.extract_phasor", _samples_of_arg0),
    ("a64s", "extract_phasor", "signalcore.extract_phasor", _samples_of_arg0),
    ("harness", "simulate_64g2_scenario", "plantsim.simulate_64g2",
     lambda a, k, r: {"samples": len(r.frames)}),
    ("harness", "simulate_64s_timeseries", "plantsim.simulate_64s",
     lambda a, k, r: {"samples": len(r[0])}),
    ("a64g2", "AdaptiveRatioDetector.run", "a64g2.adaptive", _frames_of_trace),
    ("a64g2", "FixedRatioDetector.run", "a64g2.fixed", _frames_of_trace),
    ("harness", "write_trace_csv", "a64g2.write_trace_csv", _rows_of_trace_arg),
    ("a64s", "frames_from_timeseries", "a64s.frames", _samples_of_arg0),
    ("a64s", "A64SEstimator.run", "a64s.estimator", _frames_of_trace),
    ("harness", "write_a64s_trace_csv", "a64s.write_trace_csv", _rows_of_trace_arg),
    ("harness", "sweep_sensitivity", "harness.sweep_sensitivity", None),
    ("harness", "sweep_security", "harness.sweep_security", None),
    ("harness", "run_scenario", "harness.run_scenario", None),
    ("harness", "calibrate_from_config", "harness.calibrate", None),
    ("harness", "frames_from_64g2_waveforms", "harness.frames_64g2", _samples_of_arg0),
    # emit_report returns the written paths; their bytes and rows are
    # counted after the study, outside every span
    ("harness", "emit_report", "harness.emit", lambda a, k, r: {"paths": list(r)}),
)


class Span:
    __slots__ = ("id", "name", "parent", "study", "thread", "start", "end", "cpu", "counts")

    def __init__(self, span_id, name, parent, study):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.study = study
        self.thread = threading.get_ident()
        self.counts: Dict[str, Any] = {}
        self.cpu = time.thread_time()
        self.start = time.perf_counter()
        self.end = self.start

    def to_dict(self, t0: float) -> Dict[str, Any]:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "study": self.study, "thread": self.thread,
                "start_s": self.start - t0, "end_s": self.end - t0,
                "cpu_s": self.cpu, "counts": self.counts}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.t0 = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._study: Optional[int] = None
        self._study_stack: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        # A pool thread starts with an empty stack: its spans belong to the
        # span the study thread has open (the sweep waiting on the pool).
        parent = (stack or self._study_stack)[-1].id
        span = Span(next(self._ids), name, parent, self._study)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def study(self, study_id: int):
        """Trace one study: open its root span and install the wrappers."""
        undo = []
        for module_name, attr, name, count in TARGETS:
            owner = importlib.import_module(f"statorguard.{module_name}")
            for part in attr.split(".")[:-1]:
                owner = getattr(owner, part)
            leaf = attr.rsplit(".", 1)[-1]
            original = getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(name, original, count))
            undo.append((owner, leaf, original))
        self._study = study_id
        root = Span(next(self._ids), "study", None, study_id)
        stack = self._stack()
        stack.append(root)
        self._study_stack = stack
        try:
            yield
        finally:
            self._close(root)
            self._study = None
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    def count_written(self, study_id: int) -> None:
        """Turn the paths emit_report returned in a study into bytes and
        rows; called after the study, so no span or study time includes it."""
        for span in self.spans:
            if span.study == study_id and "paths" in span.counts:
                paths = span.counts.pop("paths")
                span.counts["bytes"] = sum(os.path.getsize(p) for p in paths)
                span.counts["rows"] = sum(csv_rows(p) for p in paths if p.endswith(".csv"))

    def write(self, path: str, header: Dict[str, Any]) -> None:
        """Write a header line, then one JSON object per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.to_dict(self.t0), sort_keys=True) + "\n")


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its children cover.
    Children on pool threads can overlap; their union is subtracted."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered, edge = 0.0, span.start
        for child in sorted(children[span.id], key=lambda c: c.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: List[Span], studies: int) -> Dict[str, float]:
    """Per-layer metrics over ``studies`` traced studies.  A layer the
    workload never calls reports 0."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(name, attr="duration"):
        group = by_name.get(name, [])
        if attr == "duration":
            return sum(s.end - s.start for s in group)
        if attr == "self":
            return sum(own[s.id] for s in group)
        return sum(s.counts.get(attr, 0) for s in group)

    def calls(name):
        return len(by_name.get(name, [])) / studies

    def us_per(name, count, time_of="duration"):
        return 1e6 * _ratio(total(name, time_of), total(name, count))

    detectors = ("a64g2.adaptive", "a64g2.fixed")
    g2_frames = sum(total(n, "frames") for n in detectors)
    sweeps = by_name.get("harness.sweep_sensitivity", []) + by_name.get("harness.sweep_security", [])
    sweep_ids = {s.id for s in sweeps}
    cells = [s for s in by_name.get("harness.run_scenario", []) if s.parent in sweep_ids]
    cell_cpu = sum(s.cpu for s in cells)
    cell_wall = sum(s.end - s.start for s in cells)
    layer_self = sum(own[s.id] for s in spans if s.name != "study")
    return {
        "signalcore.ingest_csv.us_per_sample": us_per("signalcore.ingest_csv", "samples"),
        "signalcore.extract_phasor.us_per_sample": us_per("signalcore.extract_phasor", "samples"),
        "signalcore.extract_phasor.calls": calls("signalcore.extract_phasor"),
        "plantsim.simulate_64g2.self_us_per_sample":
            us_per("plantsim.simulate_64g2", "samples", "self"),
        "plantsim.simulate_64g2.calls": calls("plantsim.simulate_64g2"),
        "plantsim.simulate_64s.us_per_sample": us_per("plantsim.simulate_64s", "samples"),
        "a64g2.adaptive.us_per_frame": us_per("a64g2.adaptive", "frames"),
        "a64g2.fixed.us_per_frame": us_per("a64g2.fixed", "frames"),
        "a64g2.frames": g2_frames / studies,
        "a64g2.valid_frame_ratio": _ratio(sum(total(n, "valid") for n in detectors), g2_frames),
        "a64g2.write_trace_csv.s": total("a64g2.write_trace_csv") / studies,
        "a64s.frames.self_us_per_sample": us_per("a64s.frames", "samples", "self"),
        "a64s.estimator.us_per_sample": us_per("a64s.estimator", "frames"),
        "a64s.valid_frame_ratio":
            _ratio(total("a64s.estimator", "valid"), total("a64s.estimator", "frames")),
        "a64s.write_trace_csv.s": total("a64s.write_trace_csv") / studies,
        "harness.run_scenario.self_ms": 1e3 * total("harness.run_scenario", "self") / studies,
        "harness.calibrate.calls": calls("harness.calibrate"),
        "harness.calibrate.ms": 1e3 * total("harness.calibrate") / studies,
        "harness.frames_64g2.self_us_per_sample": us_per("harness.frames_64g2", "samples", "self"),
        "harness.emit.self_s": total("harness.emit", "self") / studies,
        "harness.emit.bytes": total("harness.emit", "bytes") / studies,
        "harness.emit.us_per_row": us_per("harness.emit", "rows"),
        "harness.sweep.self_ms": 1e3 * sum(own[s.id] for s in sweeps) / studies,
        "harness.sweep.cores_used": _ratio(cell_cpu, sum(s.end - s.start for s in sweeps)),
        "harness.sweep.cell_wait_share": _ratio(cell_wall - cell_cpu, cell_wall),
        "harness.sweep.cell_busy_ms": 1e3 * _ratio(cell_cpu, len(cells)),
        "harness.sweep.cell_wait_ms": 1e3 * _ratio(cell_wall - cell_cpu, len(cells)),
        "cli.main.self_ms": 1e3 * total("cli.main", "self") / studies,
        "trace.layer_self_share": _ratio(layer_self, total("study")),
    }
