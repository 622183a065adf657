"""End-to-end checks that gate the package; each test prints one verdict line.

Every test here drives the full stack (namespace, open broker, disk server,
client library, emulated network) in virtual time and asserts a behaviour the
system is built to exhibit: exact data fidelity in every read mode, the
throughput ordering of the modes under contention, the cost of aggressive
buffering on partial reads, window-capped single-stream throughput,
queue-limited open times, fair bandwidth sharing, and bit-identical
reproducibility of benchmark output. Run with -s to see the verdict lines.
"""

from __future__ import annotations

import dataclasses
import random
import string
import time

import numpy as np

from remfio.bench import (
    Sequential,
    Skip,
    WorkloadSpec,
    emit_csv,
    run_benchmark,
    run_sweep,
)
from remfio.client import ClientConfig, rf_close, rf_open, rf_read, rf_seek
from remfio.content import file_content
from remfio.diskserver import DiskServer
from remfio.headnode import Headnode, OpenQueueModel
from remfio.netemu import ZERO_PROFILE, EmulatedNetwork, builtin_profiles
from remfio.runtime import VirtualRuntime
from remfio.wire import (
    DataChunk,
    ErrorCode,
    ErrorReply,
    NsLookup,
    NsLookupReply,
    OpenReply,
    OpenRequest,
    ReadMode,
    ReadRequest,
    StreamStart,
    decode_frame,
    encode_frame,
)

KiB = 1024
MiB = 1024 * 1024
TOKEN = "acceptance"


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def _stack(rt, files):
    """One headnode plus one disk server, seeded with `files` (path, size)."""
    net = EmulatedNetwork(rt)
    head = Headnode(rt, net, shared_token=TOKEN)
    head.start()
    srv = DiskServer(rt, net, shared_token=TOKEN)
    srv.start()
    for index, (path, size) in enumerate(files):
        pf = srv.seed_file(path, 1, index, size)
        head.register_file(path, size, srv.address, pf.checksum)
    return net


# -- wire codec ---------------------------------------------------------------


def test_codec_bulk_roundtrip():
    # 10,000 random messages across every type must round-trip exactly, and
    # every strict prefix of every frame must decode to "need more bytes".
    rng = random.Random(20087)
    alphabet = string.ascii_letters + string.digits + "/._-"

    def rand_str(limit=40):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(limit + 1)))
        if rng.random() < 0.1:
            text += "é中"  # multi-byte characters must survive
        return text

    def u63():
        return rng.randrange(1 << 63)

    def u32():
        return rng.randrange(1 << 32)

    generators = [
        lambda: OpenRequest(path=rand_str(), mode=rng.choice(list(ReadMode)),
                            iobufsize=rng.randrange(1 << 31), token=rand_str()),
        lambda: OpenReply(handle_id=u32(), file_size=u63()),
        lambda: ReadRequest(handle_id=u32(), offset=u63(),
                            length=rng.randrange(1 << 31)),
        lambda: DataChunk(handle_id=u32(), offset=u63(),
                          payload=rng.randbytes(rng.randrange(400))),
        lambda: StreamStart(handle_id=u32(), offset=u63()),
        lambda: ErrorReply(code=rng.choice(list(ErrorCode)), detail=rand_str()),
        lambda: NsLookup(path=rand_str()),
        lambda: NsLookupReply(replica_address=rand_str(), file_size=u63(),
                              checksum=rng.randrange(1 << 64)),
    ]

    t0 = time.perf_counter()
    count = 10_000
    prefixes = 0
    for i in range(count):
        msg = generators[i % len(generators)]()
        frame = encode_frame(msg)
        decoded, consumed = decode_frame(frame)
        assert decoded == msg and consumed == len(frame)
        decoded, consumed = decode_frame(frame + b"\xff\xff")
        assert decoded == msg and consumed == len(frame)  # trailing bytes untouched
        for cut in range(len(frame)):
            assert decode_frame(frame[:cut]) is None
            prefixes += 1
    elapsed = time.perf_counter() - t0
    _verdict("wire codec bulk roundtrip", elapsed < 5.0,
             f"{count} messages, {prefixes} prefixes, {elapsed:.2f}s")


# -- data fidelity ------------------------------------------------------------


def test_every_mode_matches_local_reads():
    # 200 random read/seek scripts per mode against one 4 MiB file, each read
    # compared byte-for-byte with a local copy of the same content.
    size = 4 * MiB
    local = file_content(1, 0, size)
    scripts = 200
    ops = 10
    compared = [0]
    t0 = time.perf_counter()

    for mode in ReadMode:
        rt = VirtualRuntime()

        def scenario():
            net = _stack(rt, [("/f", size)])
            cfg = ClientConfig(rt, net, token=TOKEN, mode=mode,
                               profile=ZERO_PROFILE)
            for script in range(scripts):
                rng = random.Random(f"script:{mode.name}:{script}")
                h = rf_open("/f", cfg)
                pos = 0
                for _ in range(ops):
                    roll = rng.random()
                    if roll < 0.55:
                        n = rng.randrange(1, 192 * KiB)
                    elif roll < 0.80:
                        pos = rng.randrange(size + 1)
                        rf_seek(h, pos)
                        continue
                    elif roll < 0.90:
                        pos = max(0, min(size, pos + rng.randrange(-64 * KiB,
                                                                   64 * KiB)))
                        rf_seek(h, pos)
                        continue
                    else:
                        # long reads that cross chunk boundaries, often into EOF
                        n = rng.randrange(1, 3) * 256 * KiB + rng.randrange(3)
                    data = rf_read(h, n)
                    assert data == local[pos:pos + n], (mode.name, script, pos, n)
                    pos += len(data)
                    compared[0] += len(data)
                rf_close(h)

        rt.run(scenario)

    elapsed = time.perf_counter() - t0
    _verdict("all modes match local reads", elapsed < 30.0,
             f"{scripts} scripts x {len(ReadMode)} modes, "
             f"{compared[0]} bytes compared, {elapsed:.1f}s")


# -- throughput ordering under contention -------------------------------------


def test_sequential_mode_ordering():
    # 16 clients reading 16 MiB files end to end over the contended wan
    # profile: push modes beat the buffered mode, which beats one-request-
    # per-read, with a wide margin between the extremes.
    spec = WorkloadSpec(pattern=Sequential(), file_size=16 * MiB,
                        block_size=64 * KiB, clients=16, net_profile="wan")
    order = [ReadMode.NORMAL, ReadMode.READBUF, ReadMode.READAHEAD,
             ReadMode.STREAM]
    t0 = time.perf_counter()
    series = run_sweep(spec, "mode", order, seed=0)
    elapsed = time.perf_counter() - t0
    normal, readbuf, readahead, stream = [s.aggregate_rate for s in series]
    ok = (stream >= readahead >= readbuf > normal
          and stream / normal >= 1.5
          and elapsed < 60.0)
    _verdict("sequential mode ordering", ok,
             f"stream={stream / MiB:.1f} readahead={readahead / MiB:.1f} "
             f"readbuf={readbuf / MiB:.1f} normal={normal / MiB:.1f} MiB/s, "
             f"stream/normal={stream / normal:.2f}, {elapsed:.1f}s")


def test_skip_reads_reverse_the_ordering():
    # Reading 1 MiB then skipping 9: the push mode drags the whole file over
    # the wire and loses to plain request-per-read, which transfers no waste.
    spec = WorkloadSpec(pattern=Skip(1 * MiB, 9), file_size=32 * MiB,
                        block_size=1 * MiB, clients=16, net_profile="wan")
    t0 = time.perf_counter()
    series = run_sweep(spec, "mode", [ReadMode.NORMAL, ReadMode.READAHEAD],
                       seed=0)
    elapsed = time.perf_counter() - t0
    normal, readahead = series
    ra_consumed = sum(r.bytes_consumed for r in readahead.successful)
    ok = (normal.aggregate_rate > readahead.aggregate_rate
          and normal.total_waste == 0
          and readahead.total_waste >= 5 * ra_consumed
          and elapsed < 60.0)
    _verdict("skip reads reverse the ordering", ok,
             f"normal={normal.aggregate_rate / MiB:.1f} "
             f"readahead={readahead.aggregate_rate / MiB:.1f} MiB/s, "
             f"normal waste={normal.total_waste}, "
             f"readahead waste={readahead.total_waste} "
             f"({readahead.total_waste / ra_consumed:.1f}x consumed), "
             f"{elapsed:.1f}s")


# -- client buffer sizing -----------------------------------------------------


def test_buffer_size_effects():
    # Oversized client buffers on skip reads waste bandwidth: the rate at an
    # 8 MiB buffer must fall to half the 128 KiB rate or less. On sequential
    # reads with the application block matched to the buffer, size must not
    # matter: rates stay inside a +/-20% band.
    sizes = [128 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB]

    skip = WorkloadSpec(pattern=Skip(1 * MiB, 9), file_size=32 * MiB,
                        block_size=1 * MiB, mode=ReadMode.READBUF, clients=16,
                        net_profile="wan")
    series = run_sweep(skip, "iobufsize", sizes, seed=0)
    skip_rates = [s.aggregate_rate for s in series]
    drop = skip_rates[-1] / skip_rates[0]

    seq = WorkloadSpec(pattern=Sequential(), file_size=16 * MiB,
                       mode=ReadMode.READBUF, clients=16, net_profile="wan")
    seq_rates = []
    for value in sizes:
        one = run_benchmark(dataclasses.replace(seq, iobufsize=value,
                                                block_size=value), seed=0)
        seq_rates.append(one.aggregate_rate)
    # half-width of the rate band relative to its midpoint
    spread = (max(seq_rates) - min(seq_rates)) / (max(seq_rates) + min(seq_rates))

    ok = drop <= 0.50 and spread <= 0.20
    _verdict("buffer size effects", ok,
             f"skip rate at 8MiB/128KiB buffer={drop:.2f} (need <=0.50), "
             f"matched sequential spread=+/-{spread * 100:.1f}% (need <=20%)")


# -- transport window cap -----------------------------------------------------


def test_window_cap_effects():
    # With ample windows the window size must not matter (30 contending
    # clients, skip reads): max/min aggregate stays within 1.2x. A single
    # client squeezed to a 64 KiB window is capped at window/rtt.
    spec = WorkloadSpec(pattern=Skip(1 * MiB, 9), file_size=32 * MiB,
                        block_size=1 * MiB, mode=ReadMode.NORMAL, clients=30,
                        net_profile="wan")
    windows = [512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB, 16 * MiB]
    series = run_sweep(spec, "window", windows, seed=0)
    rates = [s.aggregate_rate for s in series]
    ratio = max(rates) / min(rates)

    single = WorkloadSpec(pattern=Sequential(), file_size=64 * MiB,
                          block_size=1 * MiB, mode=ReadMode.STREAM, clients=1,
                          net_profile="wan", window=64 * KiB,
                          stagger_window=0.0)
    record = run_benchmark(single, seed=0).records[0]
    ceiling = 64 * KiB / 0.012  # window drained once per round trip
    error = abs(record.rate - ceiling) / ceiling

    ok = ratio <= 1.2 and error <= 0.10
    _verdict("window cap effects", ok,
             f"30-client max/min={ratio:.3f} (need <=1.2), single 64KiB-window "
             f"rate={record.rate / MiB:.2f} vs {ceiling / MiB:.2f} MiB/s "
             f"(off by {error * 100:.1f}%, need <=10%)")


# -- open brokering under load ------------------------------------------------


def test_open_time_scales_linearly_with_batch():
    # Simultaneous opens serialize behind the broker's fixed 50 ms service
    # time, so the batch mean must grow linearly with batch size and predict
    # the analytic value service * (n + 1) / 2 at n = 20.
    def open_batch(n):
        rt = VirtualRuntime()
        times = []

        def scenario():
            net = _stack(rt, [("/f", 64 * KiB)])
            cfg = ClientConfig(rt, net, token=TOKEN, profile=ZERO_PROFILE)
            done = rt.channel(capacity=n)

            def one():
                h = rf_open("/f", cfg)
                done.put(h.counters.open_time)
                rf_close(h)

            for _ in range(n):
                rt.spawn(one)
            for _ in range(n):
                times.append(done.get())

        rt.run(scenario)
        return sum(times) / len(times)

    batches = [1, 4, 8, 16, 32, 64]
    means = np.array([open_batch(n) for n in batches])
    design = np.vstack([batches, np.ones(len(batches))]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, means, rcond=None)
    fitted = slope * np.array(batches) + intercept
    ss_res = float(np.sum((means - fitted) ** 2))
    ss_tot = float(np.sum((means - means.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot
    predicted = slope * 20 + intercept
    analytic = 0.050 * (20 + 1) / 2
    error = abs(predicted - analytic) / analytic

    ok = slope > 0 and r_squared >= 0.8 and error <= 0.15
    _verdict("open time scales with batch size", ok,
             f"slope={slope * 1000:.2f} ms/client, R2={r_squared:.4f} "
             f"(need >=0.8), mean at n=20: {predicted * 1000:.1f} ms vs "
             f"{analytic * 1000:.0f} ms (off by {error * 100:.1f}%, need <=15%)")


# -- bandwidth accounting -----------------------------------------------------


def test_bandwidth_conservation_and_fair_shares():
    # 8 clients streaming concurrently through one 100 MiB/s pipe: the wire
    # never carries more than the pipe allows, and every client gets an equal
    # share. Handles are opened first so the measurement window covers only
    # the saturated transfer phase, not the serialized opens.
    n = 8
    size = 32 * MiB
    wan = builtin_profiles()["wan"]
    rt = VirtualRuntime()
    counters = []
    span = {}

    def scenario():
        net = _stack(rt, [(f"/f{i}", size) for i in range(n)])
        cfg = ClientConfig(rt, net, token=TOKEN, mode=ReadMode.STREAM,
                           profile=wan)
        handles = [rf_open(f"/f{i}", cfg) for i in range(n)]
        done = rt.channel(capacity=n)
        span["start"] = rt.now()

        def drain(h):
            while rf_read(h, MiB):
                pass
            rf_close(h)
            done.put(h.counters)

        for h in handles:
            rt.spawn(drain, h)
        for _ in range(n):
            counters.append(done.get())
        span["end"] = rt.now()

    rt.run(scenario)
    elapsed = span["end"] - span["start"]
    payload = sum(c.bytes_wire for c in counters)
    load = payload / (wan.shared_bandwidth * elapsed)
    shares = [c.bytes_consumed / c.read_time for c in counters]
    mean_share = sum(shares) / len(shares)
    max_dev = max(abs(s - mean_share) / mean_share for s in shares)

    ok = load <= 1.10 and max_dev <= 0.15
    _verdict("bandwidth conservation and fair shares", ok,
             f"payload/(bandwidth*elapsed)={load:.3f} (need <=1.10), "
             f"worst share deviation={max_dev * 100:.1f}% (need <=15%)")


# -- reproducibility ----------------------------------------------------------


def test_identical_seeds_identical_csv(tmp_path):
    # Two virtual-time runs of the same seeded workload must emit
    # byte-identical CSVs: same stagger, same contention, same arithmetic.
    spec = WorkloadSpec(pattern=Sequential(), file_size=8 * MiB,
                        block_size=256 * KiB, mode=ReadMode.STREAM, clients=6,
                        net_profile="wan")
    paths = {}
    for tag in ("a", "b"):
        result = run_benchmark(spec, seed=7)
        paths[tag] = emit_csv(result, tmp_path / tag)
    pairs = list(zip(paths["a"], paths["b"]))
    same = all(x.read_bytes() == y.read_bytes() for x, y in pairs)
    sizes = [x.stat().st_size for x, _ in pairs]
    _verdict("identical seeds, identical output", same and len(pairs) == 2,
             f"{len(pairs)} files compared byte-for-byte ({sizes} bytes)")
