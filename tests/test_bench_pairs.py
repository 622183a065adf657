"""tools/bench_pairs.py: seed lists, run order and the summary arithmetic."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs",
    Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_parse_seeds():
    assert bench_pairs.parse_seeds("0-3,10") == [0, 1, 2, 3, 10]
    assert bench_pairs.parse_seeds("7") == [7]


def test_schedule_alternates_sides_and_takes_turns():
    jobs = bench_pairs.schedule({"a": [1, 2, 3], "b": [5]})
    assert jobs == [("a", 1, True), ("b", 5, True), ("a", 2, False),
                    ("a", 3, True)]


def _run(side, seed, run_s, mib_s, digest="d"):
    return {"side": side, "workload": "w", "seed": seed, "exit": 0,
            "csv_sha256": digest, "line": {"correct": True, "metrics": {
                "run_s": {"value": run_s, "unit": "s"},
                "app_mib_per_s": {"value": mib_s, "unit": "MiB/s"}}}}


def test_summary_quartiles_ratio_and_better_pairs():
    runs = [_run("parent", 1, 1.0, 10), _run("change", 1, 0.5, 10),
            _run("change", 2, 0.9, 12), _run("parent", 2, 2.0, 11),
            _run("parent", 3, 3.0, 9), _run("change", 3, 3.0, 8, "x")]
    out = bench_pairs.summarize(
        runs, {"run_s": "lower", "app_mib_per_s": "higher"})["w"]
    assert out["seeds"] == [1, 2, 3]
    assert out["csv_sha256_equal_pairs"] == "2/3"
    run_s = out["run_s"]
    assert run_s["parent_q1_median_q3"] == [1.5, 2.0, 2.5]
    assert run_s["change_q1_median_q3"] == [0.7, 0.9, 1.95]
    assert run_s["change_over_parent"] == pytest.approx(0.45)
    assert run_s["change_better_pairs"] == "2/3"  # the tie counts for neither
    assert out["app_mib_per_s"]["change_better_pairs"] == "1/3"
    assert run_s["per_seed"] == {"parent": [1.0, 2.0, 3.0],
                                 "change": [0.5, 0.9, 3.0]}


@pytest.mark.parametrize("unpinned", [False, True])
def test_run_once_unpinned_keeps_simbench_from_pinning(tmp_path, unpinned):
    if not hasattr(bench_pairs.os, "sched_setaffinity"):
        pytest.skip("this platform has no CPU affinity")
    cpus = bench_pairs.os.sched_getaffinity(0)
    (tmp_path / "simbench").mkdir()
    (tmp_path / "simbench" / "run.py").write_text(
        "import json, os, sys\n"
        f"os.sched_setaffinity(0, {{{min(cpus)}}})\n"
        "print(json.dumps({'argv': sys.argv[1:], 'main': __name__,\n"
        "                  'cpus': sorted(os.sched_getaffinity(0))}))\n")
    out = bench_pairs.run_once(tmp_path, "w", 3, unpinned)
    assert out["exit"] == 0
    assert out["line"] == {
        "argv": ["--workload", "w", "--seed", "3", "--trace", "0"],
        "main": "__main__",
        "cpus": sorted(cpus) if unpinned else [min(cpus)]}


def test_copy_probe_puts_this_trees_probe_into_the_parent(tmp_path):
    bench_pairs.copy_probe(tmp_path)
    assert ((tmp_path / "tools" / "probe_round.py").read_bytes()
            == (bench_pairs.ROOT / "tools" / "probe_round.py").read_bytes())


@pytest.mark.parametrize("fails", [False, True])
def test_probe_counts_takes_the_median_line(tmp_path, fails):
    # a stand-in probe that echoes its arguments into its median line, or
    # fails without printing one
    (tmp_path / "tools").mkdir()
    (tmp_path / "tools" / "probe_round.py").write_text(
        "import json, sys\n"
        + ("sys.exit('probe broke')\n" if fails else "")
        + "print(json.dumps({'round': 0, 'heap_pushes': 5}))\n"
        "median = {'heap_pushes': 5, 'argv': sys.argv[1:]}\n"
        "print(json.dumps({'workload': sys.argv[2], 'median': median}))\n")
    got = bench_pairs.probe_counts(tmp_path, "w")
    if fails:
        assert got == {"error": "probe broke"}
    else:
        assert got == {"heap_pushes": 5, "argv": [
            "--workload", "w", "--seed", str(bench_pairs.COUNT_SEED),
            "--rounds", str(bench_pairs.COUNT_ROUNDS)]}


def test_bench_files_load_with_or_without_counts(tmp_path):
    old = bench_pairs.load_bench(bench_pairs.ROOT / "BENCH_23.json")
    assert old["counts"] == {} and old["summary"]
    path = tmp_path / "BENCH_new.json"
    counts = {"w": {"parent": {"heap_pushes": 9},
                    "change": {"heap_pushes": 7}}}
    path.write_text(json.dumps({"summary": {}, "counts": counts}))
    assert bench_pairs.load_bench(path)["counts"] == counts
