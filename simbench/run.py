"""Host-cost benchmark of the remfio simulator.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 simbench/run.py --workload all

NAME is one of seq-stream-16, stream-window64k, skip-mixed-32 (see
workloads.py and README.md). With --trace 0 the run reports the end-to-end
metrics from untraced rounds; with --trace 1 it reports the per-layer
metrics from one traced round, untraced solo rounds and micro-timings.
Either way the program's outputs are checked, the simulated results and the
digest of the emitted CSVs are printed, and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The exit
code is 1 when a check fails and 2 when the benchmark cannot run at all.
--workload all runs every workload both ways, each in its own process.

remfio is imported from the src/ directory next to this one and from
nowhere else; all pool files and outputs go under simbench/_work/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

MIN_ROUNDS = 3
# Host times are reported in reference seconds: each measured time is scaled
# by REF_CALIBRATION_S over the time a fixed pure-Python loop took just
# before it. On a shared host whose speed drifts by a third within minutes,
# raw wall times taken at different times cannot be compared; their ratio
# to the loop stayed within a few percent.
REF_CALIBRATION_S = 0.020
# Timed rounds cycle through this many stagger draws of the seed, so that a
# run's median does not rest on one draw's luck in how clients overlap.
STAGGER_DRAWS = 8
MIN_SETUPS = 3
SETUP_SECONDS = 2.0  # small pools are seeded more often, for a steadier median


def _cannot_run(why: str):
    print(f"simbench: {why}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "remfio" / "__init__.py").is_file():
        _cannot_run(f"no remfio sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import remfio
    if Path(remfio.__file__).resolve().parent != SRC / "remfio":
        _cannot_run(f"imported remfio from {remfio.__file__}, not {SRC}")


def _pin_to_one_cpu() -> None:
    """Run on one CPU. The runtime keeps one task runnable at a time, so the
    simulator cannot use a second CPU; when the OS wakes the next task's
    carrier thread on another CPU instead, each handoff costs about twice
    as much and round times turn bimodal."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _say(line: str = "") -> None:
    print(line, flush=True)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def calibration_s() -> float:
    """Host time of a fixed loop of integer and dict work, the kind of
    bytecode the simulator runs; the yardstick for the host's speed."""
    t0 = time.perf_counter()
    total, table = 0, {}
    for i in range(200_000):
        total += i
        table[i & 1023] = total
    return time.perf_counter() - t0


def _scaled(measured) -> list[float]:
    """Reference seconds of (host seconds, calibration seconds, ...) rows."""
    return [row[0] * REF_CALIBRATION_S / row[1] for row in measured]


def _median_us(seconds) -> float:
    return statistics.median(seconds) * 1e6


def _recorded_digest(workload: str, seed: int) -> str | None:
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded.get(workload, {}).get(str(seed))


class Run:
    """One invocation: a workload, a seed, a private work directory."""

    def __init__(self, workload: str, seed: int, seconds: float):
        import workloads
        self.w = workloads.WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.dir = WORK / f"{workload}-{os.getpid()}"
        self.pool_dir = self.dir / "pool"
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.expected = None  # checks.Expected, from the pool files
        self.digests: dict = {}  # stagger draw -> sha256 of its CSVs

    def fail(self, where: str, messages) -> None:
        for m in messages:
            self.failures.append(f"{where}: {m}")
            _say(f"CHECK FAILED {where}: {m}")

    def seed_pool(self, times: int = 1, seconds: float = 0.0):
        """Seed a fresh pool at least `times` times and for `seconds`;
        returns the last pool and (host seconds, calibration seconds) of
        each seeding."""
        from workloads import seed_fresh_pool
        spent = []
        start = time.perf_counter()
        while len(spent) < times or time.perf_counter() - start < seconds:
            shutil.rmtree(self.pool_dir, ignore_errors=True)
            cal = calibration_s()
            pool = seed_fresh_pool(self.w, self.seed, self.pool_dir)
            spent.append((pool.setup_s, cal))
        return pool, spent

    def checked_round(self, pool):
        """An untimed round that also hashes every byte each client reads."""
        import checks
        from workloads import run_round
        self.expected = checks.expected_outputs(self.w, pool)
        rnd = run_round(self.w, self.seed, self.pool_dir, digest=True,
                        watch_threads=True)
        self.check(rnd, 0, "checked round")
        return rnd

    def check(self, rnd, rep: int, what: str) -> None:
        """The first round of each stagger draw gets every output and model
        check; later rounds of that draw must emit byte-identical CSVs."""
        import checks
        from workloads import csv_digest
        self.attempted += len(rnd.records)
        self.failed += sum(1 for r in rnd.records if r.open_error)
        digest = csv_digest(self.w, rnd, self.dir / "csv")
        if rep not in self.digests:
            self.digests[rep] = digest
            self.fail("output", checks.output_checks(rnd, self.expected))
            self.fail("model", checks.model_checks(self.w, rnd))
        elif digest != self.digests[rep]:
            self.fail("determinism", [
                f"{what} emitted CSV digest {digest[:16]} != "
                f"{self.digests[rep][:16]} of the same seed and draw"])

    def report_simulated(self, rnd, host_s: float) -> None:
        import checks
        sim = checks.simulated_results(self.w, rnd)
        _say(f"simulated results ({self.w.name}, seed {self.seed}; "
             "printed, not gated):")
        for k, v in sim.items():
            _say(f"  {k:28s} {v:.6g}")
        _say(f"  {'host_s_per_simulated_s':28s} {host_s / rnd.end:.6g}")
        digest = self.digests[0]
        recorded = _recorded_digest(self.w.name, self.seed)
        if recorded is None:
            verdict = "no digest recorded for this seed"
        elif recorded == digest:
            verdict = "matches the recorded digest"
        else:
            verdict = f"model changed: recorded digest was {recorded}"
        _say(f"  csv_sha256 {digest} ({verdict})")

    # -- untraced: end-to-end metrics -----------------------------------------

    def end_to_end(self) -> dict:
        from workloads import MiB, run_round
        start = time.perf_counter()
        pool, setups = self.seed_pool(MIN_SETUPS, SETUP_SECONDS)
        checked = self.checked_round(pool)
        rounds = []  # (host seconds, calibration seconds, MiB consumed)
        while (len(rounds) < MIN_ROUNDS
               or time.perf_counter() - start < self.seconds):
            rep = len(rounds) % STAGGER_DRAWS
            gc.collect()  # no round pays for its predecessor's garbage
            cal = calibration_s()
            t0 = time.perf_counter()
            rnd = run_round(self.w, self.seed, self.pool_dir, rep=rep)
            rounds.append((time.perf_counter() - t0, cal, rnd.consumed / MiB))
            self.check(rnd, rep, f"timed round {len(rounds)}")
        scaled = _scaled(rounds)
        run_s = statistics.median(scaled)
        rates = [mib / s for (_, _, mib), s in zip(rounds, scaled)]
        self.report_simulated(checked, run_s)
        _say(f"run_s of {len(rounds)} timed rounds, measured: "
             + " ".join(f"{host:.4f}" for host, _, _ in rounds))
        _say(f"setup_s of {len(setups)} seedings, measured: "
             + " ".join(f"{host:.4f}" for host, _ in setups))
        cals = [cal for _, cal in setups] + [cal for _, cal, _ in rounds]
        _say(f"calibration loop: median {statistics.median(cals) * 1e3:.2f} "
             f"ms, reference {REF_CALIBRATION_S * 1e3:.2f} ms")
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "run_s": _metric(run_s, "s"),
            "app_mib_per_s": _metric(statistics.median(rates), "MiB/s"),
            "setup_s": _metric(statistics.median(_scaled(setups)), "s"),
            "peak_rss_mib": _metric(rss_mib, "MiB"),
            "peak_threads": _metric(checked.peak_threads, "count"),
        }

    # -- traced: per-layer metrics --------------------------------------------

    def per_layer(self) -> dict:
        import micro
        from tracing import Tracer
        from workloads import run_round
        start = time.perf_counter()
        pool, _ = self.seed_pool()
        checked = self.checked_round(pool)

        gc.collect()
        t0 = time.perf_counter()
        plain = run_round(self.w, self.seed, self.pool_dir,
                          time_reads=self.w.clients == 1)
        plain_s = time.perf_counter() - t0
        self.check(plain, 0, "untraced round")

        tracer = Tracer()
        gc.collect()
        with tracer.installed():
            t0 = time.perf_counter()
            traced = run_round(self.w, self.seed, self.pool_dir)
            traced_s = time.perf_counter() - t0
        self.check(traced, 0, "traced round")
        self.report_simulated(checked, plain_s)
        _say(f"tracing overhead: traced round {traced_s:.4f} s - untraced "
             f"round {plain_s:.4f} s = {traced_s - plain_s:.4f} s "
             f"({traced_s / plain_s - 1:+.1%}), {len(tracer.spans)} spans")
        self.print_spans(tracer)

        read_host_s = plain.read_host_s or self.solo_reads()
        m = micro.run_batches(self.dir, start + self.seconds)
        grants, moved = tracer.grants, tracer.bytes
        consumed = sum(r.bytes_consumed for r in traced.records)
        wire = sum(r.bytes_wire for r in traced.records)
        counts = {
            "runtime.spawns": tracer.calls("runtime.spawn"),
            "runtime.sleeps": tracer.calls("runtime.sleep"),
            "runtime.timers": tracer.calls("runtime.call_at"),
            "netemu.connects": tracer.calls("netemu.connect"),
            "netemu.sends": tracer.calls("netemu.send"),
            "netemu.link_grants": grants["netemu"],
            "diskserver.disk_grants": grants["diskserver"],
            "headnode.opens": traced.head_counters["opens_ok"],
            "headnode.lookups": traced.head_counters["lookups"],
            "client.read_calls": tracer.calls("client.rf_read"),
        }
        metrics = {name: _metric(value, "count")
                   for name, value in counts.items()}
        metrics.update({
            "netemu.bytes_per_grant": _metric(
                moved["netemu.granted"] / grants["netemu"], "B"),
            "diskserver.sent_to_read_ratio": _metric(
                moved["netemu.payload_sent"] / moved["diskserver.granted"],
                "ratio"),
            "client.useful_wire_ratio": _metric(consumed / wire, "ratio"),
            "wire.encode_host_s": _metric(
                sum(tracer.host_durations("wire.encode_frame")), "s"),
            "client.open_host_us": _metric(
                _median_us(tracer.host_durations("client.rf_open")), "us"),
            "client.read_host_us": _metric(_median_us(read_host_s), "us"),
        })
        for name, value in m.items():
            unit = "MiB/s" if name.endswith("_mib_s") else "us"
            metrics[name] = _metric(value, unit)
        tracer.write(WORK / f"spans-{self.w.name}.tsv")
        return metrics

    def solo_reads(self) -> list[float]:
        """Host time per rf_read of one client of each mode, run alone, so
        that no other task's work falls inside a parked call."""
        from workloads import run_round, seed_fresh_pool
        times = []
        for mode in dict.fromkeys(self.w.modes):
            solo = self.w.solo(mode)
            pool_dir = self.dir / f"solo-{mode.name.lower()}"
            seed_fresh_pool(solo, self.seed, pool_dir)
            rnd = run_round(solo, self.seed, pool_dir, time_reads=True)
            times += rnd.read_host_s
        return times

    def print_spans(self, tracer) -> None:
        _say("spans of the traced round: name, calls, host s, host self s, "
             "virtual s")
        for name, (calls, host, own, virt) in sorted(tracer.by_name().items()):
            _say(f"  {name:26s} {calls:8d} {host:10.4f} {own:10.4f} "
                 f"{virt:12.4f}")


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a process of its own
    so that peak memory and thread counts are the workload's own."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            _say(f"== {name} trace={trace}")
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            _say("\n".join(lines[:-1]) if proc.returncode == 0
                 else proc.stdout)
            if proc.returncode != 0:
                _say(f"!! {name} trace={trace} exited {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            for metric, m in result["metrics"].items():
                _say(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
            _say(f"  correct={result['correct']} attempted="
                 f"{result['attempted']} failed={result['failed']}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    _import_program()
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    run = Run(args.workload, args.seed, args.seconds)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    correct = not run.failures
    _say(json.dumps({"correct": correct, "attempted": run.attempted,
                     "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
