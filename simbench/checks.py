"""Output checks, model-property checks and the simulated results of a round.

Every check returns a list of failure messages; an empty list is a pass.
Expected values are computed apart from the program: byte counts from the
workload's pattern, digests from the pool files read directly with hashlib,
bounds from the link, disk and broker parameters the model is built on.

The simulated results are printed and digested but never gated: a
correction of the model must be free to move them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import remfio
from remfio import ReadMode

from workloads import PROFILE, Pool, Round, Workload


@dataclass
class Expected:
    consumed: int  # bytes each client must consume
    read_digests: list  # sha256 of each client's ranges, read from the pool
    pool_checksums: list  # (path, blake2b-64 of the pool file, registered)


def expected_outputs(w: Workload, pool: Pool) -> Expected:
    """Read every pool file directly and derive what clients must see.

    Files are read in slices, so the check adds little to the process's
    peak memory, which the benchmark reports as the program's.
    """
    digests, checksums = [], []
    for entry in pool.entries:
        with open(pool.locations[entry.path], "rb") as f:
            whole = hashlib.blake2b(digest_size=8)
            for piece in _slices(f, 0, entry.size):
                whole.update(piece)
            checksums.append((entry.path,
                              int.from_bytes(whole.digest(), "big"),
                              entry.checksum))
            h = hashlib.sha256()
            for offset, length in w.reads():
                for piece in _slices(f, offset, length):
                    h.update(piece)
            digests.append(h.hexdigest())
    return Expected(w.consumed_per_client(), digests, checksums)


def _slices(f, offset: int, length: int, size: int = 1 << 20):
    f.seek(offset)
    while length > 0:
        piece = f.read(min(size, length))
        if not piece:
            return
        yield piece
        length -= len(piece)


def output_checks(rnd: Round, exp: Expected) -> list[str]:
    fails = []
    for path, actual, registered in exp.pool_checksums:
        if actual != registered:
            fails.append(f"pool file {path}: blake2b {actual:#x} but the "
                         f"headnode registered {registered:#x}")
    for r in rnd.records:
        if r.open_error:
            fails.append(f"client {r.client_id}: open failed")
            continue
        if r.bytes_consumed != exp.consumed:
            fails.append(f"client {r.client_id}: consumed {r.bytes_consumed}"
                         f" bytes, pattern implies {exp.consumed}")
        if r.mode == ReadMode.NORMAL.name.lower():
            if r.bytes_wire != r.bytes_consumed:
                fails.append(f"client {r.client_id}: NORMAL wire "
                             f"{r.bytes_wire} != consumed {r.bytes_consumed}")
        elif r.bytes_wire < r.bytes_consumed:
            fails.append(f"client {r.client_id}: {r.mode} wire "
                         f"{r.bytes_wire} < consumed {r.bytes_consumed}")
    if rnd.read_digests is not None:
        for i, (got, want) in enumerate(zip(rnd.read_digests,
                                            exp.read_digests)):
            if got != want:
                fails.append(f"client {i}: sha256 of bytes read {got[:16]} "
                             f"!= pool file's {want[:16]}")
    return fails


# -- model properties ---------------------------------------------------------


def _profile() -> remfio.LinkProfile:
    return remfio.builtin_profiles()[PROFILE]


def window_cap(w: Workload, rnd: Round) -> list[str]:
    """A lone window-limited stream runs at window/rtt, within 10 %."""
    ceiling = w.window / _profile().rtt
    fails = []
    for r in rnd.records:
        rate = r.bytes_consumed / r.read_time if r.read_time > 0 else 0.0
        error = abs(rate - ceiling) / ceiling
        if error > 0.10:
            fails.append(f"client {r.client_id}: transfer rate "
                         f"{rate / remfio.bench.MiB:.3f} MiB/s is "
                         f"{error:.1%} off window/rtt "
                         f"{ceiling / remfio.bench.MiB:.3f} MiB/s")
    return fails


def conservation(w: Workload, rnd: Round) -> list[str]:
    """The wire never carries more than the link or the disk can supply."""
    span = makespan(rnd)
    payload = sum(r.bytes_wire for r in rnd.records)
    fails = []
    for what, rate in (("link shared_bandwidth", _profile().shared_bandwidth),
                       ("disk sequential_bandwidth",
                        remfio.DiskModel().sequential_bandwidth)):
        load = payload / (rate * span)
        if load > 1.10:
            fails.append(f"payload {payload} B over {span:.4f} s is "
                         f"{load:.3f} x the {what} (need <= 1.10)")
    return fails


def serialized_opens(w: Workload, rnd: Round) -> list[str]:
    """Opens issued together queue at the broker: the k-th shortest open
    (k from 0) waits for k earlier services and its own."""
    service = remfio.OpenQueueModel().service_time_per_open
    times = sorted(r.open_time for r in rnd.records if not r.open_error)
    return [f"open #{k}: {t * 1e3:.2f} ms < {(k + 1) * service * 1e3:.0f} ms"
            for k, t in enumerate(times) if t < (k + 1) * service - 1e-12]


MODEL_CHECKS = {
    "seq-stream-16": conservation,
    "stream-window64k": window_cap,
    "skip-mixed-32": serialized_opens,
}


def model_checks(w: Workload, rnd: Round) -> list[str]:
    return MODEL_CHECKS[w.name](w, rnd)


# -- simulated results --------------------------------------------------------


def makespan(rnd: Round) -> float:
    """Virtual seconds from the first rf_open to the last rf_close."""
    return max(rnd.closed) - min(rnd.opened)


def simulated_results(w: Workload, rnd: Round) -> dict:
    summary = remfio.RunSummary(w.spec(), rnd.records)
    ok = summary.successful
    consumed = sum(r.bytes_consumed for r in ok)
    span = makespan(rnd)
    return {
        "aggregate_rate_mib_s": summary.aggregate_rate / remfio.bench.MiB,
        "makespan_throughput_mib_s": consumed / span / remfio.bench.MiB,
        "mean_open_time_s": summary.mean_open_time,
        "rms_open_time_s": summary.rms_open_time,
        "total_waste_mib": summary.total_waste / remfio.bench.MiB,
        "makespan_s": span,
        "simulated_end_s": rnd.end,
    }
