"""tools/bench_pairs.py: seed lists, run order and the summary arithmetic."""

from __future__ import annotations

import importlib.util
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
