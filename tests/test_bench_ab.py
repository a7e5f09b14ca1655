"""The summary of tools/bench_ab.py on canned perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_SPEC = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_ab)

END_TO_END = [{"name": "study_s", "unit": "s", "better": "lower"},
              {"name": "signal_s_per_s", "unit": "s/s", "better": "higher"}]


def _stdout(study_s, signal, correct=True):
    """A perfbench run's stdout: its table, then the JSON line."""
    line = json.dumps({"correct": correct, "attempted": 5, "failed": 0 if correct else 1,
                       "metrics": {"study_s": {"value": study_s, "unit": "s"},
                                   "signal_s_per_s": {"value": signal, "unit": "s/s"}}})
    return f"perfbench replay_64s_60s seed=0\n  study_s {study_s} s\n{line}\n"


def _pair(rev_study_s, tree_study_s):
    """Two correct results whose signal rate is 60 s of signal per study."""
    return tuple(bench_ab.result_of(0, _stdout(s, 60.0 / s)) for s in (rev_study_s, tree_study_s))


def test_result_of_reads_the_last_line_of_a_correct_run():
    assert bench_ab.result_of(0, _stdout(0.3, 180.0))["metrics"]["study_s"]["value"] == 0.3


@pytest.mark.parametrize("code,stdout", [
    (1, _stdout(0.3, 180.0)),  # non-zero exit
    (0, _stdout(0.3, 180.0, correct=False)),  # a study failed its fingerprint
    (0, "perfbench: ./src/statorguard not found\n"),  # no JSON line
    (0, ""),
])
def test_result_of_refuses_a_failed_or_incorrect_run(code, stdout):
    assert bench_ab.result_of(code, stdout) is None


def test_summary_gives_medians_quartiles_and_wins_per_metric():
    # (revision, this checkout) per pair; the checkout is faster in 4 of 5
    studies = [(0.33, 0.31), (0.34, 0.30), (0.32, 0.33), (0.35, 0.31), (0.33, 0.29)]
    pairs = [_pair(b, o) for b, o in studies]
    head, study, signal = bench_ab.summarize(END_TO_END, pairs, "abc123")
    assert head == "5 pairs; rev = abc123, tree = this checkout"
    # rev median 0.33, quartiles 0.325-0.345; tree median 0.31, 0.295-0.32
    assert study == ("  study_s         rev 0.33 (0.325-0.345)  tree 0.31 (0.295-0.32) s  "
                     "-6.1%, beyond rev IQR  tree better in 4 of 5")
    # higher is better: the same four pairs win
    assert signal.startswith("  signal_s_per_s  rev 181.8")
    assert signal.endswith("+6.5%, beyond rev IQR  tree better in 4 of 5")


def test_summary_of_one_pair_within_the_spread():
    _, study, _ = bench_ab.summarize(END_TO_END, [_pair(0.3, 0.3)], "HEAD")
    assert study.endswith("+0.0%, within rev IQR  tree better in 0 of 1")


def test_compare_gives_each_sides_median_quartiles_runs_and_wins():
    pairs = [_pair(b, o) for b, o in [(0.33, 0.31), (0.34, 0.30), (0.32, 0.33), (0.35, 0.31)]]
    got = bench_ab.compare(END_TO_END[0], pairs)
    assert got["rev"]["values"] == [0.33, 0.34, 0.32, 0.35]
    assert got["tree"]["median"] == pytest.approx(0.31)
    assert (got["tree_wins"], got["pairs"], got["better"]) == (3, 4, "lower")


def test_out_records_each_workload_with_its_env_and_keeps_the_others(monkeypatch, tmp_path):
    """main with canned perfbench runs: the revision is copied by git
    archive, and each workload's record joins those already in the file."""
    out = tmp_path / "BENCH_test.json"
    out.write_text(json.dumps({"workloads": {"replay_64s_60s": {"kept": True}}}))
    studies = iter([0.33, 0.31, 0.30, 0.34] * 2)  # rev first in odd pairs
    runs = []

    names = [m["name"] for m in json.loads((bench_ab.ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]]

    def canned(where, workload, args):
        runs.append((where, workload))
        value = next(studies)
        return {"correct": True, "metrics": {name: {"value": value} for name in names}}

    monkeypatch.setattr(bench_ab, "_run", canned)
    code = bench_ab.main(["--rev", "HEAD", "--workload", "security_sweep", "replay_64g2_60s",
                          "--pairs", "2", "--out", str(out)])
    assert code == 0
    assert [w for _, w in runs] == ["security_sweep"] * 4 + ["replay_64g2_60s"] * 4
    # the revision's copy holds the benchmark, and is gone after the run
    copies = {where for where, _ in runs} - {bench_ab.ROOT}
    assert len(copies) == 1 and not copies.pop().exists()
    saved = json.loads(out.read_text())["workloads"]
    assert saved["replay_64s_60s"] == {"kept": True}
    entry = saved["security_sweep"]
    assert entry["env"]["rev_sha"] == entry["env"]["tree_sha"]
    assert {"cpu", "python", "numpy", "orjson", "tree_dirty", "rev_fs",
            "tree_fs"} <= set(entry["env"])
    study = entry["metrics"]["study_s"]
    # pair 1 runs the checkout first (0.33), pair 2 the revision first (0.30)
    assert study["rev"]["values"] == [0.31, 0.30] and study["tree"]["values"] == [0.33, 0.34]
    assert study["tree_wins"] == 0 and entry["failed_pairs"] == 0


# /proc/self/mountinfo: id, parent, device, root, mount point, mount
# options, optional fields, "-", type, source, super block options
_MOUNTINFO = """\
28 1 254:0 / / rw,relatime - ext4 /dev/vda rw,discard
29 28 254:16 / /data ro,nosuid shared:7 - xfs /dev/vdb ro,attr2
31 28 0:27 / /data/scratch rw,relatime - tmpfs tmpfs rw,size=8222320k
32 31 0:28 / /data/scratch rw,noatime master:1 shared:2 - btrfs /dev/vdc rw,ssd
33 28 0:29 / /my\\040bench rw - ext4 /dev/vdd rw,noauto_da_alloc
"""


@pytest.mark.parametrize("path,mount", [
    # the longest mount point that is a prefix of the path's components
    ("/data/bench/.perfbench_out", ("xfs", "ro,nosuid", "ro,attr2")),
    ("/data", ("xfs", "ro,nosuid", "ro,attr2")),
    ("/database/.perfbench_out", ("ext4", "rw,relatime", "rw,discard")),
    # stacked on one mount point: the last one listed
    ("/data/scratch/rev/.perfbench_out", ("btrfs", "rw,noatime", "rw,ssd")),
    # a space in a mount point is written as \\040
    ("/my bench/.perfbench_out", ("ext4", "rw", "rw,noauto_da_alloc")),
])
def test_mount_is_the_longest_mount_point_prefix(path, mount):
    found = bench_ab._mount(path, _MOUNTINFO)
    assert (found["type"], found["options"], found["super_options"]) == mount


def test_mount_is_null_without_mountinfo():
    assert bench_ab._mount("/data/.perfbench_out", None) is None
    assert bench_ab._mount("/data/.perfbench_out", "") is None
