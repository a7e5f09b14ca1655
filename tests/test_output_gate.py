"""The file comparison of tools/output_gate.py --against on small
hand-made output directories."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "output_gate.py"
_SPEC = importlib.util.spec_from_file_location("output_gate", _PATH)
output_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_gate)

REPORT = {"kind": "64g2", "verdicts": {"a64g2": {
    "detected": True, "first_trip_index": 314, "latency_samples": 14,
    "margin": 223.18526821872888, "tripped": True}}}
TRACE = [("t", "JAO", "JAR", "trip"), ("0.0", "0.0", "0.0", "0"),
         ("0.001", "0.5", "1.25", "0"), ("0.002", "399.00000000000006", "2.5", "1")]


def _outputs(root, report=REPORT, trace=TRACE):
    """root/detect-64g2 holding a report.json and a trace CSV."""
    run = root / "detect-64g2"
    run.mkdir(parents=True)
    (run / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))
    (run / "trace_a64g2.csv").write_text("".join(",".join(row) + "\n" for row in trace))
    return root


def _report(**verdict):
    a64g2 = dict(REPORT["verdicts"]["a64g2"], **verdict)
    return dict(REPORT, verdicts={"a64g2": a64g2})


def test_identical_outputs_exit_zero(tmp_path):
    lines, code = output_gate.compare_outputs(_outputs(tmp_path / "old"),
                                              _outputs(tmp_path / "new"))
    assert code == output_gate.SAME
    assert lines == ["2 identical, 0 floats within tolerance, 0 floats beyond tolerance, "
                     "0 verdicts or exact fields moved (RTOL 1e-12)"]


def test_a_moved_trip_index_is_a_verdict_move(tmp_path):
    new = _outputs(tmp_path / "new", report=_report(first_trip_index=315, latency_samples=15))
    lines, code = output_gate.compare_outputs(_outputs(tmp_path / "old"), new)
    assert code == output_gate.VERDICTS_MOVED
    assert lines[:3] == ["detect-64g2/report.json: verdicts or exact fields moved",
                         "  /verdicts/a64g2/first_trip_index: 314 -> 315 (verdict)",
                         "  /verdicts/a64g2/latency_samples: 14 -> 15 (verdict)"]


def test_a_one_ulp_float_move_is_within_tolerance(tmp_path):
    # 399.00000000000006 is the float after 399.0, 5.7e-14 away
    trace = TRACE[:3] + [("0.002", "399.0", "2.5", "1")]
    new = _outputs(tmp_path / "new", report=_report(margin=223.1852682187289), trace=trace)
    lines, code = output_gate.compare_outputs(_outputs(tmp_path / "old"), new)
    assert code == output_gate.SAME
    assert lines == [
        "detect-64g2/report.json: floats within tolerance",
        "  /verdicts/a64g2/margin: 223.18526821872888 -> 223.1852682187289 "
        "(rel 1.27e-16, within 1e-12)",
        "detect-64g2/trace_a64g2.csv: floats within tolerance",
        "  column JAO: max abs 5.68e-14, max rel 1.42e-16 within 1e-12, "
        "1 rows differ, first row 2",
        "0 identical, 2 floats within tolerance, 0 floats beyond tolerance, "
        "0 verdicts or exact fields moved (RTOL 1e-12)"]


@pytest.mark.parametrize("trace,line,code", [
    (TRACE[:2] + [("0.001", "0.5", "1.2500001", "0")] + TRACE[3:],
     "  column JAR: max abs 1e-07, max rel 8e-08 BEYOND 1e-12, 1 rows differ, first row 1",
     output_gate.FLOATS_MOVED),
    (TRACE[:3], "  3 rows -> 2", output_gate.VERDICTS_MOVED),
    (TRACE[:2] + [("0.001", "", "1.25", "0")] + TRACE[3:],
     "  column JAO: row 1 '0.5' -> ''", output_gate.VERDICTS_MOVED),
    (TRACE[:2] + [("0.001", "0.5", "1.25", "1")] + TRACE[3:],
     "  column trip: row 1 '0' -> '1' (verdict)", output_gate.VERDICTS_MOVED),
], ids=["float_beyond", "row_count", "empty_cell", "trip"])
def test_trace_changes_beyond_the_tolerance(tmp_path, trace, line, code):
    new = _outputs(tmp_path / "new", trace=trace)
    lines, got = output_gate.compare_outputs(_outputs(tmp_path / "old"), new)
    assert got == code
    assert line in lines


def test_a_sweep_digest_is_judged_through_the_fields_it_hashes(tmp_path):
    old, new = ({"study": "security", "digest": digest, "blind_zone": [[0.0, 0.03]],
                 "misoperations": [{"margin": margin, "scenario": "a", "tripped": True}]}
                for digest, margin in (("ab", 1.300493026017158), ("cd", 1.3004930260171583)))
    for root, report in ((tmp_path / "old", old), (tmp_path / "new", new)):
        (root / "sweep").mkdir(parents=True)
        (root / "sweep" / "report.json").write_text(json.dumps(report))
    lines, code = output_gate.compare_outputs(tmp_path / "old", tmp_path / "new")
    assert code == output_gate.SAME
    assert "  /digest: 'ab' -> 'cd' (derived)" in lines
    new["blind_zone"] = [[0.0, 0.06]]
    (tmp_path / "new" / "sweep" / "report.json").write_text(json.dumps(new))
    lines, code = output_gate.compare_outputs(tmp_path / "old", tmp_path / "new")
    assert code == output_gate.VERDICTS_MOVED
    assert "  /blind_zone/0/1: 0.03 -> 0.06 (verdict)" in lines
