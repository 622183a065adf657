"""The benchmark's workloads, its pool set-up and its one-round runner.

A round builds a fresh virtual-time universe (network, headnode, one disk
server) over an already seeded pool and runs every client of a workload to
its end, exactly as remfio.bench.run_benchmark does: same token, same
default queue and disk models, same stagger draws, same client loop. The one
difference is that a workload may assign read modes to its clients round
robin, which run_benchmark cannot; the self-test checks that the two give
byte-identical CSVs where both apply.

Everything is reached through remfio's public API, looked up on the module
objects at call time so that the tracer in tracing.py can wrap it.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import remfio
import remfio.bench
from remfio import ReadMode, Sequential, Skip

KiB = 1024
MiB = 1024 * 1024
PROFILE = "wan"


@dataclass(frozen=True)
class Workload:
    name: str
    modes: tuple  # assigned to clients round robin
    clients: int
    file_size: int
    pattern: object  # remfio Sequential or Skip
    block_size: int  # bytes asked for per rf_read
    window: int
    stagger: float  # clients start uniformly in [0, stagger) virtual seconds

    def mode_of(self, client: int) -> ReadMode:
        return self.modes[client % len(self.modes)]

    def spec(self) -> remfio.WorkloadSpec:
        """The run_benchmark spec of this workload (first mode only)."""
        return remfio.WorkloadSpec(
            pattern=self.pattern, file_size=self.file_size,
            block_size=self.block_size, mode=self.modes[0],
            clients=self.clients, stagger_window=self.stagger,
            net_profile=PROFILE, window=self.window)

    def reads(self) -> list[tuple[int, int]]:
        """(offset, length) of every byte range a client consumes, in order."""
        if isinstance(self.pattern, Sequential):
            return [(0, self.file_size)] if self.file_size else []
        stride = self.pattern.read_block * (self.pattern.skip_blocks + 1)
        return [(start, min(self.pattern.read_block, self.file_size - start))
                for start in range(0, self.file_size, stride)]

    def consumed_per_client(self) -> int:
        return sum(n for _, n in self.reads())

    def solo(self, mode: ReadMode) -> "Workload":
        """One client of this workload in `mode`, alone and unstaggered."""
        return replace(self, name=f"{self.name}/solo-{mode.name.lower()}",
                       modes=(mode,), clients=1, stagger=0.0)


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    # the bulk push path: per-chunk costs dominate
    Workload("seq-stream-16", modes=(ReadMode.STREAM,), clients=16,
             file_size=16 * MiB, pattern=Sequential(), block_size=64 * KiB,
             window=1 * MiB, stagger=1.0),
    # the window fragments into sub-KiB pump grants: per-slice cost dominates
    Workload("stream-window64k", modes=(ReadMode.STREAM,), clients=1,
             file_size=64 * MiB, pattern=Sequential(), block_size=1 * MiB,
             window=64 * KiB, stagger=0.0),
    # opens, seeks, spawns, small frames and push restarts
    Workload("skip-mixed-32", modes=tuple(ReadMode), clients=32,
             file_size=16 * MiB, pattern=Skip(1 * MiB, 9), block_size=1 * MiB,
             window=1 * MiB, stagger=0.0),
)}

# Shrunken variants with the same shape, for the self-test.
SMALL = {
    "seq-stream-16": replace(WORKLOADS["seq-stream-16"], clients=4,
                             file_size=2 * MiB, stagger=0.2),
    "stream-window64k": replace(WORKLOADS["stream-window64k"],
                                file_size=4 * MiB),
    "skip-mixed-32": replace(WORKLOADS["skip-mixed-32"], clients=8,
                             file_size=4 * MiB, pattern=Skip(256 * KiB, 9),
                             block_size=128 * KiB),
}


def program_seed(seed: int) -> int:
    """The seed the program receives for benchmark seed `seed`: always six
    digits. remfio.bench puts the seed into every file's namespace path, and
    a path one byte longer changes the lookup and open frames enough to
    reshape the whole fragmented-window schedule (stream-window64k ran 18 %
    faster with seed 10 than with seeds 1-9), so the seed's digit count
    would otherwise change the work a round does."""
    return 100_000 + seed % 900_000


# -- pool set-up --------------------------------------------------------------


@dataclass
class Pool:
    entries: list  # remfio NamespaceEntry per client, as the headnode holds it
    locations: dict  # namespace path -> file in the pool directory
    setup_s: float  # host seconds spent in seed_pool


def seed_fresh_pool(w: Workload, seed: int, pool_dir: Path) -> Pool:
    """Seed and register the workload's files in an empty pool directory."""
    if pool_dir.exists() and any(pool_dir.iterdir()):
        raise ValueError(f"pool directory {pool_dir} is not empty")
    rt = remfio.VirtualRuntime()

    def scenario():
        net = remfio.EmulatedNetwork(rt)
        head = remfio.Headnode(rt, net, shared_token=remfio.bench.BENCH_TOKEN)
        srv = remfio.DiskServer(rt, net, pool_dir=pool_dir,
                                shared_token=remfio.bench.BENCH_TOKEN)
        t0 = time.perf_counter()
        entries = remfio.bench.seed_pool(head, srv, w.clients, w.file_size,
                                         program_seed(seed))
        elapsed = time.perf_counter() - t0
        locations = {e.path: srv.pool_location(e.path) for e in entries}
        return Pool(entries, locations, elapsed)

    return rt.run(scenario)


# -- one round ----------------------------------------------------------------


@dataclass
class Round:
    records: list  # remfio.bench.ClientRecord per client
    opened: list  # virtual time each client called rf_open
    closed: list  # virtual time each client's rf_close returned
    end: float  # virtual time the last client finished
    head_counters: dict
    read_digests: list | None = None  # sha256 of each client's bytes
    peak_threads: int = 0
    read_host_s: list = field(default_factory=list)

    @property
    def consumed(self) -> int:
        return sum(r.bytes_consumed for r in self.records)


def run_round(w: Workload, seed: int, pool_dir: Path, *, rep: int = 0,
              digest: bool = False, watch_threads: bool = False,
              time_reads: bool = False) -> Round:
    """Run every client of `w` once against the seeded pool.

    rep picks the seed's stagger draw, as run_benchmark's repetition index
    does. digest hashes what each client read; watch_threads samples the
    process's live thread count after every task spawn; time_reads records
    the host time of each rf_read call. All three are off in timed rounds.
    """
    rt = remfio.VirtualRuntime()
    profile = remfio.builtin_profiles()[PROFILE]
    n = w.clients
    hashers = [hashlib.sha256() for _ in range(n)] if digest else None
    peak = [threading.active_count()]
    read_host_s: list = []
    if watch_threads:
        spawn = rt.spawn

        def watched_spawn(*args, **kwargs):
            task = spawn(*args, **kwargs)
            peak[0] = max(peak[0], threading.active_count())
            return task

        rt.spawn = watched_spawn

    def scenario():
        net = remfio.EmulatedNetwork(rt)
        head = remfio.Headnode(rt, net, shared_token=remfio.bench.BENCH_TOKEN)
        head.start()
        srv = remfio.DiskServer(rt, net, pool_dir=pool_dir,
                                shared_token=remfio.bench.BENCH_TOKEN)
        srv.start()
        entries = remfio.bench.seed_pool(head, srv, n, w.file_size,
                                         program_seed(seed))
        # run_benchmark's draws
        rng = random.Random(f"stagger:{program_seed(seed)}:{rep}")
        starts = [rng.uniform(0, w.stagger) for _ in range(n)]
        records: list = [None] * n
        opened = [0.0] * n
        closed = [0.0] * n

        def read(handle, i, length):
            if time_reads:
                t0 = time.perf_counter()
                data = remfio.rf_read(handle, length)
                read_host_s.append(time.perf_counter() - t0)
            else:
                data = remfio.rf_read(handle, length)
            if hashers is not None:
                hashers[i].update(data)
            return data

        def one_client(i):
            rt.sleep(starts[i])
            mode = w.mode_of(i)
            cfg = remfio.ClientConfig(rt, net, token=remfio.bench.BENCH_TOKEN,
                                      mode=mode, profile=profile,
                                      emulated_window=w.window)
            opened[i] = rt.now()
            try:
                handle = remfio.rf_open(entries[i].path, cfg)
            except remfio.OpenError:
                records[i] = remfio.bench.ClientRecord(
                    i, mode.name.lower(), 0.0, 0.0, 0, 0, 0.0, True)
                closed[i] = rt.now()
                return
            if isinstance(w.pattern, Sequential):
                while read(handle, i, w.block_size):
                    pass
            else:
                for start, length in w.reads():
                    remfio.rf_seek(handle, start)
                    while length > 0:
                        got = read(handle, i, min(w.block_size, length))
                        if not got:
                            break
                        length -= len(got)
            c = remfio.rf_close(handle)
            closed[i] = rt.now()
            records[i] = remfio.bench.ClientRecord(
                i, mode.name.lower(), c.open_time, c.read_time,
                c.bytes_consumed, c.bytes_wire, c.rate)

        tasks = [rt.spawn(one_client, i, name=f"bench-client-{i}")
                 for i in range(n)]
        for t in tasks:
            rt.join(t)
        return Round(records, opened, closed, rt.now(), dict(head.counters))

    result = rt.run(scenario)
    if hashers is not None:
        result.read_digests = [h.hexdigest() for h in hashers]
    result.peak_threads = peak[0]
    result.read_host_s = read_host_s
    return result


def csv_digest(w: Workload, rnd: Round, out_dir: Path) -> str:
    """sha256 over the CSVs remfio.bench.emit_csv writes for this round."""
    summary = remfio.RunSummary(w.spec(), rnd.records)
    return files_digest(remfio.bench.emit_csv(summary, out_dir))


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        p = Path(p)
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()
