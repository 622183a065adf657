"""Benchmark harness: pool seeding, concurrent client runs, sweeps, CSV.

A benchmark run builds a fresh virtual-time universe (network, headnode, one
disk server), seeds the pool with one unique file per client, launches the
clients with start times drawn uniformly inside the stagger window, drives
each through its workload pattern to end of file, and collects the handle
counters into ClientRecords.

Everything is deterministic given (spec, seed): file content comes from the
counter RNG in remfio.content, stagger draws come from a Random seeded with
(seed, repetition), and the virtual scheduler orders all events totally. Two
runs with the same inputs therefore produce byte-identical CSV files.

The pool directory persists between runs; files are named by seed, size and
index, so re-running or sweeping reuses already-seeded bytes instead of
regenerating them.
"""

from __future__ import annotations

import contextlib
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from .client import ClientConfig, rf_close, rf_open, rf_read, rf_seek
from .content import content_chunks
from .diskserver import DiskServer
from .errors import NotFoundError, OpenError
from .headnode import Headnode, OpenQueueModel
from .netemu import EmulatedNetwork, builtin_profiles
from .runtime import VirtualRuntime
from .wire import ReadMode

MiB = 1024 * 1024

BENCH_TOKEN = "bench"

CLIENT_COLUMNS = ["client_id", "mode", "open_time_s", "read_time_s",
                  "bytes_consumed", "bytes_wire", "rate_bytes_per_s",
                  "open_error"]
AGGREGATE_COLUMNS = ["axis_value", "clients", "aggregate_rate",
                     "mean_open_time_s", "rms_open_time_s",
                     "total_waste_bytes", "error_count"]

SWEEP_AXES = ("clients", "mode", "iobufsize", "window")


# -- workload definition --------------------------------------------------------


@dataclass(frozen=True)
class Sequential:
    """Read the whole file front to back in block_size calls."""


@dataclass(frozen=True)
class Skip:
    """Read read_block bytes, skip skip_blocks further blocks, repeat."""

    read_block: int
    skip_blocks: int

    def __post_init__(self):
        if self.read_block <= 0:
            raise ValueError("read_block must be positive")
        if self.skip_blocks < 0:
            raise ValueError("skip_blocks must be >= 0")


Pattern = Sequential | Skip


def parse_pattern(text: str) -> Pattern:
    """CLI pattern syntax: 'seq' or 'skip:READBYTES:SKIPBLOCKS'."""
    if text == "seq":
        return Sequential()
    if text.startswith("skip:"):
        parts = text.split(":")
        if len(parts) == 3:
            return Skip(int(parts[1]), int(parts[2]))
    raise ValueError(f"bad pattern {text!r}: expected seq or skip:BYTES:N")


def parse_mode(text: str) -> ReadMode:
    try:
        return ReadMode[text.upper()]
    except KeyError:
        names = ", ".join(m.name.lower() for m in ReadMode)
        raise ValueError(f"bad mode {text!r}: expected one of {names}") from None


@dataclass(frozen=True)
class WorkloadSpec:
    pattern: Pattern = Sequential()
    file_size: int = 16 * MiB
    block_size: int = MiB
    mode: ReadMode = ReadMode.NORMAL
    clients: int = 1
    stagger_window: float = 1.0
    iobufsize: int = 131072
    net_profile: str = "wan"
    window: int = MiB
    repetitions: int = 1

    def __post_init__(self):
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.file_size < 0:
            raise ValueError("file_size must be >= 0")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.file_size and self.block_size > self.file_size:
            raise ValueError("block_size must not exceed file_size")
        if self.stagger_window < 0:
            raise ValueError("stagger_window must be >= 0")
        if self.iobufsize <= 0:
            raise ValueError("iobufsize must be positive")
        if self.window <= 0:
            raise ValueError("window must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass(frozen=True)
class ClientRecord:
    client_id: int
    mode: str
    open_time: float
    read_time: float
    bytes_consumed: int
    bytes_wire: int
    rate: float
    open_error: bool = False

    @property
    def waste(self) -> int:
        return self.bytes_wire - self.bytes_consumed


@dataclass
class RunSummary:
    spec: WorkloadSpec
    records: list[ClientRecord]
    axis_value: object = None  # the swept value; defaults to client count

    def __post_init__(self):
        if self.axis_value is None:
            self.axis_value = self.spec.clients

    @property
    def successful(self) -> list[ClientRecord]:
        return [r for r in self.records if not r.open_error]

    @property
    def aggregate_rate(self) -> float:
        return sum(r.rate for r in self.successful)

    @property
    def mean_open_time(self) -> float:
        ok = self.successful
        return sum(r.open_time for r in ok) / len(ok) if ok else 0.0

    @property
    def rms_open_time(self) -> float:
        ok = self.successful
        if not ok:
            return 0.0
        return math.sqrt(sum(r.open_time ** 2 for r in ok) / len(ok))

    @property
    def total_waste(self) -> int:
        return sum(r.waste for r in self.successful)

    @property
    def error_count(self) -> int:
        return len(self.records) - len(self.successful)


# -- pool seeding ----------------------------------------------------------------


def bench_path(seed: int, file_size: int, index: int) -> str:
    """Namespace path of one seeded benchmark file."""
    return f"/bench/s{seed}/z{file_size}/f{index:04d}"


def seed_pool(headnode: Headnode, diskserver: DiskServer, count: int,
              file_size: int, seed: int) -> list:
    """Create `count` deterministic files on the server and register them.

    Files already present in the pool (same path, same size) are reused.
    Aborts before writing anything if the filesystem clearly lacks space;
    a failure mid-seed removes every file this call created.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if file_size < 0:
        raise ValueError("file_size must be >= 0")
    todo = []
    for i in range(count):
        path = bench_path(seed, file_size, i)
        have = diskserver.pool.get(path)
        if have is None or have.size != file_size:
            todo.append((i, path))
    free = shutil.disk_usage(diskserver.pool_dir).free
    need = len(todo) * file_size
    if need and free < need + 64 * MiB:
        raise OSError(f"seeding needs {need} bytes free, found {free}")

    try:
        for i, path in todo:
            diskserver.import_file(path, content_chunks(seed, i, file_size))
    except OSError:
        for _, path in todo:
            diskserver.pool.pop(path, None)
            diskserver.pool_location(path).unlink(missing_ok=True)
        raise

    entries = []
    for i in range(count):
        path = bench_path(seed, file_size, i)
        pf = diskserver.pool[path]
        try:
            entry = headnode.lookup(path)
        except NotFoundError:
            entry = headnode.register_file(path, pf.size, diskserver.address,
                                           pf.checksum)
        entries.append(entry)
    return entries


# -- running ---------------------------------------------------------------------


def run_benchmark(spec: WorkloadSpec, *, seed: int = 0, pool_dir=None,
                  paper_fidelity: bool = False,
                  queue_model: OpenQueueModel | None = None) -> RunSummary:
    """Execute one workload; returns per-client records plus aggregates.

    repetitions > 1 repeats the whole workload in fresh universes (stagger
    draws differ per repetition) and averages each client's times and wire
    bytes (to the nearest byte: a push reader's waste depends on timing);
    consumed bytes must agree across repetitions, and rates are recomputed
    from the averaged times.
    """
    _check_fidelity(spec, paper_fidelity)
    if spec.net_profile not in builtin_profiles():
        raise ValueError(f"unknown net profile {spec.net_profile!r}")
    with _pool_dir(pool_dir) as pd:
        reps = [_run_once(spec, seed, rep, pd, queue_model)
                for rep in range(spec.repetitions)]
    return RunSummary(spec, _merge_reps(reps))


def _check_fidelity(spec: WorkloadSpec, paper_fidelity: bool) -> None:
    if (paper_fidelity and spec.mode is ReadMode.STREAM
            and isinstance(spec.pattern, Skip)):
        raise ValueError("paper-fidelity runs exclude STREAM from skip "
                         "workloads")


@contextlib.contextmanager
def _pool_dir(path):
    """The given pool directory, or a temporary one for the run."""
    if path is not None:
        yield Path(path)
        return
    with tempfile.TemporaryDirectory(prefix="remfio-pool-") as tmp:
        yield Path(tmp)


def _run_once(spec, seed, rep, pool_dir, queue_model):
    rt = VirtualRuntime()

    def scenario():
        net = EmulatedNetwork(rt)
        head = Headnode(rt, net, shared_token=BENCH_TOKEN,
                        queue_model=queue_model or OpenQueueModel())
        head.start()
        srv = DiskServer(rt, net, pool_dir=pool_dir,
                         shared_token=BENCH_TOKEN)
        srv.start()
        entries = seed_pool(head, srv, spec.clients, spec.file_size, seed)
        profile = builtin_profiles()[spec.net_profile]
        rng = random.Random(f"stagger:{seed}:{rep}")
        starts = [rng.uniform(0, spec.stagger_window)
                  for _ in range(spec.clients)]
        records: list = [None] * spec.clients

        def one_client(i):
            rt.sleep(starts[i])
            cfg = ClientConfig(rt, net, token=BENCH_TOKEN, mode=spec.mode,
                               iobufsize=spec.iobufsize, profile=profile,
                               emulated_window=spec.window)
            name = spec.mode.name.lower()
            try:
                handle = rf_open(entries[i].path, cfg)
            except OpenError:
                records[i] = ClientRecord(i, name, 0.0, 0.0, 0, 0, 0.0, True)
                return
            _drive(handle, spec)
            c = rf_close(handle)
            records[i] = ClientRecord(i, name, c.open_time, c.read_time,
                                      c.bytes_consumed, c.bytes_wire, c.rate)

        tasks = [rt.spawn(one_client, i, name=f"bench-client-{i}")
                 for i in range(spec.clients)]
        for t in tasks:
            rt.join(t)
        return records

    return rt.run(scenario)


def _drive(handle, spec: WorkloadSpec) -> None:
    """Run the workload pattern against one open handle, to end of file."""
    if isinstance(spec.pattern, Sequential):
        while rf_read(handle, spec.block_size):
            pass
        return
    stride = spec.pattern.read_block * (spec.pattern.skip_blocks + 1)
    size = handle.file_size
    burst_start = 0
    while burst_start < size:
        rf_seek(handle, burst_start)
        burst = min(spec.pattern.read_block, size - burst_start)
        while burst > 0:
            got = rf_read(handle, min(spec.block_size, burst))
            if not got:
                break
            burst -= len(got)
        burst_start += stride


def _merge_reps(reps: list[list[ClientRecord]]) -> list[ClientRecord]:
    if len(reps) == 1:
        return reps[0]
    merged = []
    for per_client in zip(*reps):
        first = per_client[0]
        if any(r.open_error for r in per_client):
            merged.append(ClientRecord(first.client_id, first.mode,
                                       0.0, 0.0, 0, 0, 0.0, True))
            continue
        if len({r.bytes_consumed for r in per_client}) != 1:
            raise AssertionError(
                f"client {first.client_id}: consumed bytes differ across "
                "repetitions of a deterministic workload")
        n = len(per_client)
        open_t = sum(r.open_time for r in per_client) / n
        read_t = sum(r.read_time for r in per_client) / n
        wire = round(sum(r.bytes_wire for r in per_client) / n)
        denom = open_t + read_t
        rate = first.bytes_consumed / denom if denom > 0 else 0.0
        merged.append(ClientRecord(first.client_id, first.mode, open_t,
                                   read_t, first.bytes_consumed, wire, rate))
    return merged


# -- sweeps ----------------------------------------------------------------------


def run_sweep(base_spec: WorkloadSpec, axis: str, values, *, seed: int = 0,
              pool_dir=None, paper_fidelity: bool = False) -> list[RunSummary]:
    """One run per axis value, fixed seed; every value validated up front."""
    if axis not in SWEEP_AXES:
        raise ValueError(f"bad axis {axis!r}: expected one of {SWEEP_AXES}")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    specs = []
    for v in values:
        spec = replace(base_spec, **{axis: v})  # re-runs field validation
        if (paper_fidelity and axis == "mode" and v is ReadMode.STREAM
                and isinstance(spec.pattern, Skip)):
            continue  # replicating the original methodology: no STREAM skips
        _check_fidelity(spec, paper_fidelity)
        specs.append((v, spec))
    with _pool_dir(pool_dir) as pd:
        return [replace(run_benchmark(spec, seed=seed, pool_dir=pd,
                                      paper_fidelity=paper_fidelity),
                        axis_value=v)
                for v, spec in specs]


# -- CSV emission -----------------------------------------------------------------


def emit_csv(result, out_dir) -> list[Path]:
    """Write clients CSV(s) and the aggregate CSV; returns paths written.

    A single RunSummary produces clients.csv + aggregate.csv (one data row).
    A sweep series produces clients-<axis_value>.csv per point plus one
    combined aggregate.csv. Output is deterministic byte-for-byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    series = [result] if isinstance(result, RunSummary) else list(result)
    if not series:
        raise ValueError("nothing to emit")
    written = []
    single = len(series) == 1 and isinstance(result, RunSummary)
    for s in series:
        name = "clients.csv" if single else f"clients-{axis_label(s.axis_value)}.csv"
        p = out / name
        rows = [[r.client_id, r.mode, repr(r.open_time), repr(r.read_time),
                 r.bytes_consumed, r.bytes_wire, repr(r.rate),
                 int(r.open_error)] for r in s.records]
        _write_csv(p, CLIENT_COLUMNS, rows)
        written.append(p)
    agg = out / "aggregate.csv"
    rows = [[axis_label(s.axis_value), s.spec.clients, repr(s.aggregate_rate),
             repr(s.mean_open_time), repr(s.rms_open_time), s.total_waste,
             s.error_count] for s in series]
    _write_csv(agg, AGGREGATE_COLUMNS, rows)
    written.append(agg)
    return written


def axis_label(value) -> str:
    """Human spelling of a sweep axis value (mode names, not enum ints)."""
    return value.name.lower() if isinstance(value, ReadMode) else str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines += [",".join(str(cell) for cell in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
