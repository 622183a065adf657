"""Run simbench on a parent revision and on the working tree, in pairs.

    python3 tools/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        --run seq-stream-16=1-10 --run skip-mixed-32=0,1,2,3,10 \\
        [--what TEXT] [--unpinned] [--counts]

The parent's committed files are unpacked with `git archive` into a
temporary directory. For each workload and seed, `simbench/run.py --workload
W --seed N --trace 0` runs at simbench's default length on both sides back
to back, the parent first on a workload's 1st, 3rd, 5th... pair and the
working tree first on the others; workloads take turns, so a drift in the
host's speed falls on every workload alike. The output holds every run's
last line and, per workload and end-to-end metric, each side's quartiles,
the change/parent ratio of the medians and the number of pairs in which the
change reads better, with the direction of "better" taken from
BENCHMARK.json. With --unpinned, simbench runs with os.sched_setaffinity
made a no-op, so its process keeps every CPU it was given instead of pinning
itself to one. With --counts, this tree's tools/probe_round.py is copied
into the parent's archive and run on each side, parent first, for every
workload at seed 1 over 8 rounds; the output gains both sides' median
counts, and the opcode counts of one more round, per workload under
"counts". A BENCH file made without --counts has
no such key, and load_bench() reads it as having no counts. This script
reads simbench/ and BENCHMARK.json but never writes to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE = Path("tools") / "probe_round.py"
COUNT_SEED, COUNT_ROUNDS = 1, 8  # the probe's seed and rounds per side
# Runs simbench/run.py as its own __main__, with pinning disabled.
UNPINNED = ("import os, runpy; os.sched_setaffinity = lambda *_: None; "
            "runpy.run_path('simbench/run.py', run_name='__main__')")


def parse_seeds(text: str) -> list[int]:
    """'1-3,10' -> [1, 2, 3, 10]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def schedule(plan: dict[str, list[int]]) -> list[tuple[str, int, bool]]:
    """(workload, seed, parent_first) jobs, workloads taking turns."""
    jobs = []
    for i in range(max(map(len, plan.values()), default=0)):
        for workload, seeds in plan.items():
            if i < len(seeds):
                jobs.append((workload, seeds[i], i % 2 == 0))
    return jobs


def run_once(tree: Path, workload: str, seed: int, unpinned: bool) -> dict:
    cmd = [sys.executable, *(["-c", UNPINNED] if unpinned
                             else ["simbench/run.py"]),
           "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"csv_sha256 ([0-9a-f]{64})", proc.stdout)
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        line = {"correct": False, "error": proc.stderr.strip()[-2000:]}
    return {"exit": proc.returncode,
            "csv_sha256": digest.group(1) if digest else None, "line": line}


def copy_probe(tree: Path) -> None:
    """Put this tree's round probe into tree, so both sides count alike."""
    (tree / PROBE).parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(ROOT / PROBE, tree / PROBE)


def probe_counts(tree: Path, workload: str) -> dict:
    """The median counts the probe prints for workload in tree, or the
    tail of its error output if it printed none."""
    proc = subprocess.run(
        [sys.executable, str(PROBE), "--workload", workload, "--seed",
         str(COUNT_SEED), "--rounds", str(COUNT_ROUNDS)],
        cwd=tree, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])["median"]
    except (IndexError, KeyError, json.JSONDecodeError):
        return {"error": proc.stderr.strip()[-2000:]}


def load_bench(path: Path) -> dict:
    """A BENCH file; one made without --counts reads as having none."""
    doc = json.loads(Path(path).read_text())
    doc.setdefault("counts", {})
    return doc


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], linearly interpolated between order statistics."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: both sides' quartiles, the ratio of their
    medians and the pairs in which the change reads better (ties count for
    neither); plus how many pairs printed the same csv_sha256."""
    pairs: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(
            run["seed"], {})[run["side"]] = run
    summary = {}
    for workload, by_seed in pairs.items():
        seeds = [s for s, sides in by_seed.items() if len(sides) == 2]
        same = sum(by_seed[s]["parent"]["csv_sha256"]
                   == by_seed[s]["change"]["csv_sha256"] for s in seeds)
        out = summary[workload] = {
            "seeds": seeds, "csv_sha256_equal_pairs": f"{same}/{len(seeds)}"}
        for metric, direction in better.items():
            per_seed = {side: [by_seed[s][side]["line"].get("metrics", {})
                               .get(metric, {}).get("value") for s in seeds]
                        for side in ("parent", "change")}
            if not seeds or None in per_seed["parent"] + per_seed["change"]:
                continue
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in
                       zip(per_seed["parent"], per_seed["change"]))
            parent_q = quartiles(per_seed["parent"])
            change_q = quartiles(per_seed["change"])
            out[metric] = {
                "parent_q1_median_q3": parent_q,
                "change_q1_median_q3": change_q,
                "change_over_parent": (change_q[1] / parent_q[1]
                                       if parent_q[1] else None),
                "change_better_pairs": f"{wins}/{len(seeds)}",
                "per_seed": per_seed,
            }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision")
    parser.add_argument("--run", action="append", required=True,
                        metavar="WORKLOAD=SEEDS",
                        help="e.g. seq-stream-16=1-10; may repeat")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--what", default="", help="what the change is")
    parser.add_argument("--unpinned", action="store_true",
                        help="keep simbench from pinning itself to one CPU")
    parser.add_argument("--counts", action="store_true",
                        help="add both sides' tools/probe_round.py counts")
    args = parser.parse_args(argv)

    plan = {}
    for item in args.run:
        workload, _, seeds = item.partition("=")
        plan[workload] = parse_seeds(seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
        capture_output=True, text=True).stdout.strip()

    runs = []
    counts = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", parent_rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive,
                       check=True)
        for workload, seed, parent_first in schedule(plan):
            sides = [("parent", parent), ("change", ROOT)]
            for side, tree in sides if parent_first else sides[::-1]:
                result = run_once(tree, workload, seed, args.unpinned)
                runs.append({"side": side, "workload": workload,
                             "seed": seed, **result})
                metrics = result["line"].get("metrics", {})
                print(f"{workload} seed {seed} {side}: exit "
                      f"{result['exit']} " + " ".join(
                          f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                      flush=True)
        if args.counts:
            copy_probe(parent)
            for workload in plan:
                counts[workload] = {side: probe_counts(tree, workload)
                                    for side, tree in (("parent", parent),
                                                       ("change", ROOT))}
                print(f"{workload} counts: " + " ".join(
                    f"{side} heap_pushes={c.get('heap_pushes')} "
                    f"bytecodes={c.get('bytecodes')}"
                    for side, c in counts[workload].items()), flush=True)

    order = "; ".join(f"{w}: seeds {','.join(map(str, s))}"
                      for w, s in plan.items())
    doc = {
        "what": args.what,
        "parent": parent_rev,
        "command": "python3 simbench/run.py --workload W --seed N --trace 0 "
                   "(default --seconds); each entry is the last line it "
                   "prints." + (" Run unpinned: os.sched_setaffinity was a "
                                "no-op." if args.unpinned else ""),
        "order": order + ". For each seed and workload the two sides ran "
                 "back to back, the parent first on a workload's 1st, 3rd, "
                 "5th... pair and the change first on the others; "
                 "workloads took turns.",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "runs": runs,
        "summary": summarize(runs, better),
        "summary_key": "per workload and metric: quartiles and median of "
                       "each side over its seeds, the change/parent median "
                       "ratio, and the number of seeds whose change run "
                       "reads better than its parent run (ties count for "
                       "neither); csv_sha256_equal_pairs counts the seeds at "
                       "which both sides printed the same CSV digest",
    }
    if args.counts:
        doc["counts"] = counts
        doc["counts_command"] = (
            f"python3 {PROBE} --workload W --seed {COUNT_SEED} --rounds "
            f"{COUNT_ROUNDS}, this tree's probe on both sides; each entry "
            "is the median line it prints")
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
