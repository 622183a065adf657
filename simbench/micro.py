"""Micro-timings: host cost of single calls into each layer.

Each function runs a fixed number of operations and returns one figure:
microseconds per operation, or MiB per second for content generation and
pool import. run_batches repeats the whole set until a deadline and reports
the median of each figure, so one slow batch on a busy host does not move it.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import remfio
import remfio.bench
import remfio.content
import remfio.wire
from remfio.errors import ConnectionClosedError
from remfio.wire import DataChunk, ReadRequest

from workloads import PROFILE

MiB = 1024 * 1024
CHUNK = DataChunk(1, 1 << 30, bytes(range(256)) * 1024)  # 256 KiB payload
REQUEST = ReadRequest(1, 1 << 30, 1 << 20)


def _in_runtime(body):
    rt = remfio.VirtualRuntime()
    return rt.run(body, rt)


def sleep_handoff_us(n: int = 2000) -> float:
    """Two tasks sleeping in turn: every sleep hands the baton over."""
    def body(rt):
        def ticker(phase):
            rt.sleep(phase)
            for _ in range(n):
                rt.sleep(1e-3)

        t0 = time.perf_counter()
        tasks = [rt.spawn(ticker, 0.0), rt.spawn(ticker, 0.5e-3)]
        for t in tasks:
            rt.join(t)
        return (time.perf_counter() - t0) / (2 * n) * 1e6
    return _in_runtime(body)


def channel_roundtrip_us(n: int = 2000) -> float:
    def body(rt):
        req, resp = rt.channel(), rt.channel()

        def echo():
            for _ in range(n):
                resp.put(req.get())

        task = rt.spawn(echo)
        t0 = time.perf_counter()
        for i in range(n):
            req.put(i)
            resp.get()
        elapsed = time.perf_counter() - t0
        rt.join(task)
        return elapsed / n * 1e6
    return _in_runtime(body)


def call_at_us(n: int = 5000) -> float:
    """Schedule n timer callbacks and let virtual time run through them."""
    def body(rt):
        fired = []
        start = rt.now()
        t0 = time.perf_counter()
        for i in range(n):
            rt.call_at(start + (i + 1) * 1e-6, lambda: fired.append(None))
        rt.sleep((n + 1) * 1e-6)
        elapsed = time.perf_counter() - t0
        if len(fired) != n:
            raise RuntimeError(f"{len(fired)} of {n} timer callbacks ran")
        return elapsed / n * 1e6
    return _in_runtime(body)


def rate_grant_us(n: int = 2000) -> float:
    def body(rt):
        limiter = rt.rate_limiter(1 << 30)
        t0 = time.perf_counter()
        for _ in range(n):
            limiter.acquire("k", 1024)
        return (time.perf_counter() - t0) / n * 1e6
    return _in_runtime(body)


def spawn_join_us(n: int = 300) -> float:
    def body(rt):
        t0 = time.perf_counter()
        for _ in range(n):
            rt.join(rt.spawn(lambda: None))
        return (time.perf_counter() - t0) / n * 1e6
    return _in_runtime(body)


def _send_us(msg, n: int) -> float:
    """Host time per EmuConnection.send of msg on a wan link whose far end
    drains everything; DataChunks first wait for a receiver credit. The
    window is made too large to bind, as it is for a reader that shares
    the link with others, so each frame costs one pump grant."""
    def body(rt):
        net = remfio.EmulatedNetwork(rt)

        def drain(conn):
            try:
                while True:
                    conn.recv()
            except ConnectionClosedError:
                pass

        net.listen("sink:1", drain)
        conn = net.connect("sink:1", remfio.builtin_profiles()[PROFILE],
                           window=1 << 30)
        credit = rt.channel(capacity=1)
        conn.on_data_credit = lambda: credit.try_put(None)
        chunk = isinstance(msg, DataChunk)
        t0 = time.perf_counter()
        for _ in range(n):
            if chunk:
                while not conn.try_reserve_data_credit():
                    credit.get()
            conn.send(msg, credit_reserved=chunk)
        elapsed = time.perf_counter() - t0
        conn.close()
        return elapsed / n * 1e6
    return _in_runtime(body)


def send_chunk_us() -> float:
    return _send_us(CHUNK, 200)


def send_small_us() -> float:
    return _send_us(REQUEST, 2000)


def _codec_us(msg, n: int) -> tuple[float, float]:
    t0 = time.perf_counter()
    for _ in range(n):
        frame = remfio.wire.encode_frame(msg)
    t1 = time.perf_counter()
    for _ in range(n):
        decoded, _used = remfio.wire.decode_frame(frame)
    t2 = time.perf_counter()
    if decoded != msg:
        raise RuntimeError(f"codec round trip changed {type(msg).__name__}")
    return (t1 - t0) / n * 1e6, (t2 - t1) / n * 1e6


def content_gen_mib_s(size: int = 32 * MiB) -> float:
    t0 = time.perf_counter()
    for _ in remfio.content.content_chunks(0, 0, size):
        pass
    return size / MiB / (time.perf_counter() - t0)


def import_mib_s(pool_dir: Path, size: int = 16 * MiB) -> float:
    """DiskServer.import_file of pre-generated content, write and checksum."""
    chunks = list(remfio.content.content_chunks(0, 0, size))

    def body(rt):
        net = remfio.EmulatedNetwork(rt)
        srv = remfio.DiskServer(rt, net, pool_dir=pool_dir,
                                shared_token=remfio.bench.BENCH_TOKEN)
        t0 = time.perf_counter()
        srv.import_file("/micro/import", chunks)
        return size / MiB / (time.perf_counter() - t0)
    return _in_runtime(body)


def one_batch(pool_dir: Path) -> dict:
    enc_chunk, dec_chunk = _codec_us(CHUNK, 200)
    enc_req, dec_req = _codec_us(REQUEST, 5000)
    return {
        "runtime.sleep_handoff_us": sleep_handoff_us(),
        "runtime.channel_roundtrip_us": channel_roundtrip_us(),
        "runtime.call_at_us": call_at_us(),
        "runtime.rate_grant_us": rate_grant_us(),
        "runtime.spawn_join_us": spawn_join_us(),
        "netemu.send_chunk_us": send_chunk_us(),
        "netemu.send_small_us": send_small_us(),
        "wire.encode_chunk_us": enc_chunk,
        "wire.decode_chunk_us": dec_chunk,
        "wire.encode_request_us": enc_req,
        "wire.decode_request_us": dec_req,
        "content.gen_mib_s": content_gen_mib_s(),
        "diskserver.import_mib_s": import_mib_s(pool_dir),
    }


def run_batches(pool_dir: Path, deadline: float, min_batches: int = 3) -> dict:
    """Median of each figure over batches run until the perf_counter
    deadline, and at least min_batches of them."""
    batches = []
    while len(batches) < min_batches or time.perf_counter() < deadline:
        batches.append(one_batch(pool_dir))
    return {k: statistics.median(b[k] for b in batches) for k in batches[0]}
