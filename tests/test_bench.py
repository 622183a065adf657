"""Harness tests: seeding, single runs, repetition/averaging, sweeps, CSV."""

from __future__ import annotations

import hashlib

import pytest

from remfio.bench import (
    AGGREGATE_COLUMNS,
    CLIENT_COLUMNS,
    ClientRecord,
    RunSummary,
    Sequential,
    Skip,
    WorkloadSpec,
    _run_once,
    bench_path,
    emit_csv,
    parse_mode,
    parse_pattern,
    run_benchmark,
    run_sweep,
    seed_pool,
)
from remfio.diskserver import DiskServer
from remfio.headnode import Headnode, OpenQueueModel
from remfio.netemu import EmulatedNetwork
from remfio.runtime import VirtualRuntime
from remfio.wire import ReadMode

KiB = 1024
MiB = 1024 * 1024
TOKEN = "bench"


def _stack(tmp_path):
    rt = VirtualRuntime()
    net = EmulatedNetwork(rt)
    head = Headnode(rt, net, shared_token=TOKEN)
    srv = DiskServer(rt, net, pool_dir=tmp_path / "pool", shared_token=TOKEN)
    return rt, head, srv


# -- argument parsing ---------------------------------------------------------


def test_parse_pattern():
    assert parse_pattern("seq") == Sequential()
    assert parse_pattern("skip:1048576:9") == Skip(MiB, 9)
    for bad in ("skipping", "skip:1", "skip:1:2:3", "sequential"):
        with pytest.raises(ValueError):
            parse_pattern(bad)


def test_parse_mode():
    assert parse_mode("stream") is ReadMode.STREAM
    assert parse_mode("NORMAL") is ReadMode.NORMAL
    with pytest.raises(ValueError):
        parse_mode("turbo")


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(clients=0)
    with pytest.raises(ValueError):
        WorkloadSpec(file_size=MiB, block_size=2 * MiB)
    with pytest.raises(ValueError):
        WorkloadSpec(repetitions=0)
    with pytest.raises(ValueError):
        Skip(0, 9)
    WorkloadSpec(file_size=0, block_size=MiB)  # empty files are legal


# -- seeding --------------------------------------------------------------------


def test_seed_pool_deterministic_and_reused(tmp_path):
    _, head, srv = _stack(tmp_path)
    first = seed_pool(head, srv, 4, 64 * KiB, seed=9)
    sums = [e.checksum for e in first]

    _, head2, srv2 = _stack(tmp_path / "other")
    again = seed_pool(head2, srv2, 4, 64 * KiB, seed=9)
    assert [e.checksum for e in again] == sums

    # same pool dir: nothing is re-imported, entries are identical
    mtimes = [srv.pool_location(e.path).stat().st_mtime_ns for e in first]
    third = seed_pool(head, srv, 4, 64 * KiB, seed=9)
    assert [e.checksum for e in third] == sums
    assert [srv.pool_location(e.path).stat().st_mtime_ns
            for e in third] == mtimes


def test_seed_pool_hundred_distinct_entries(tmp_path):
    _, head, srv = _stack(tmp_path)
    entries = seed_pool(head, srv, 100, 4 * KiB, seed=3)
    assert len({e.path for e in entries}) == 100
    assert len({e.checksum for e in entries}) == 100
    assert all(e.size == 4 * KiB for e in entries)
    assert head.namespace_size == 100


def test_seed_pool_count_zero(tmp_path):
    _, head, srv = _stack(tmp_path)
    assert seed_pool(head, srv, 0, MiB, seed=1) == []
    assert head.namespace_size == 0


def test_seed_pool_insufficient_space_aborts_before_writing(tmp_path):
    _, head, srv = _stack(tmp_path)
    with pytest.raises(OSError):
        seed_pool(head, srv, 2, 1 << 60, seed=1)
    assert srv.pool == {}
    assert head.namespace_size == 0


def test_seed_pool_midway_failure_cleans_up(tmp_path):
    _, head, srv = _stack(tmp_path)
    real = srv.import_file
    calls = {"n": 0}

    def failing(path, chunks, **kw):
        calls["n"] += 1
        if calls["n"] == 3:
            raise OSError("disk full")
        return real(path, chunks, **kw)

    srv.import_file = failing
    with pytest.raises(OSError):
        seed_pool(head, srv, 4, 8 * KiB, seed=2)
    assert srv.pool == {}
    assert head.namespace_size == 0
    assert not any(p.suffix == ".dat" for p in (tmp_path / "pool").iterdir())


# -- single runs ------------------------------------------------------------------


def test_single_client_lan_sequential_near_disk_rate(tmp_path):
    spec = WorkloadSpec(file_size=64 * MiB, block_size=MiB,
                        mode=ReadMode.NORMAL, clients=1, stagger_window=0.0,
                        net_profile="lan")
    s = run_benchmark(spec, seed=1, pool_dir=tmp_path / "pool")
    assert len(s.records) == 1
    r = s.records[0]
    assert r.bytes_consumed == 64 * MiB
    # disk at 80 MiB/s is the bottleneck on the LAN profile
    assert r.rate == pytest.approx(80 * MiB, rel=0.20)


def test_skip_pattern_consumes_a_tenth(tmp_path):
    spec = WorkloadSpec(pattern=Skip(MiB, 9), file_size=16 * MiB,
                        block_size=MiB, mode=ReadMode.NORMAL, clients=2,
                        stagger_window=0.5)
    s = run_benchmark(spec, seed=1, pool_dir=tmp_path / "pool")
    for r in s.records:
        assert abs(r.bytes_consumed - 16 * MiB // 10) <= MiB
        assert r.waste == 0  # request-reply mode moves only what is read
        assert r.rate * (r.open_time + r.read_time) == pytest.approx(
            r.bytes_consumed, rel=1e-9)


def test_zero_byte_files_give_zero_rate(tmp_path):
    spec = WorkloadSpec(file_size=0, clients=2, stagger_window=0.0)
    s = run_benchmark(spec, seed=1, pool_dir=tmp_path / "pool")
    assert [r.rate for r in s.records] == [0.0, 0.0]
    assert s.error_count == 0
    assert s.aggregate_rate == 0.0


def test_open_errors_recorded_not_raised(tmp_path):
    spec = WorkloadSpec(file_size=64 * KiB, block_size=64 * KiB, clients=8,
                        stagger_window=0.0)
    s = run_benchmark(spec, seed=1, pool_dir=tmp_path / "pool",
                      queue_model=OpenQueueModel(queue_cap=2))
    assert 1 <= s.error_count <= 7
    ok = s.successful
    assert len(ok) + s.error_count == 8
    assert all(r.bytes_consumed == 64 * KiB for r in ok)
    errored = [r for r in s.records if r.open_error]
    assert all(r.rate == 0.0 and r.bytes_wire == 0 for r in errored)
    # aggregate counts only the clients that actually opened
    assert s.aggregate_rate == pytest.approx(sum(r.rate for r in ok))


def test_identical_seeds_identical_records_and_csv(tmp_path):
    spec = WorkloadSpec(file_size=MiB, block_size=128 * KiB,
                        mode=ReadMode.READBUF, clients=3)
    a = run_benchmark(spec, seed=7, pool_dir=tmp_path / "pool-a")
    b = run_benchmark(spec, seed=7, pool_dir=tmp_path / "pool-b")
    assert a.records == b.records
    pa = emit_csv(a, tmp_path / "out-a")
    pb = emit_csv(b, tmp_path / "out-b")
    for fa, fb in zip(pa, pb):
        assert fa.read_bytes() == fb.read_bytes()
    c = run_benchmark(spec, seed=8, pool_dir=tmp_path / "pool-a")
    assert c.records != a.records  # stagger draws moved


def test_repetitions_average_per_client_times(tmp_path):
    spec = WorkloadSpec(file_size=MiB, block_size=256 * KiB, clients=2,
                        repetitions=3)
    s = run_benchmark(spec, seed=4, pool_dir=tmp_path / "pool")
    assert len(s.records) == 2
    for r in s.records:
        assert r.bytes_consumed == MiB
        assert r.rate * (r.open_time + r.read_time) == pytest.approx(
            r.bytes_consumed, rel=1e-9)
    one = run_benchmark(WorkloadSpec(file_size=MiB, block_size=256 * KiB,
                                     clients=2),
                        seed=4, pool_dir=tmp_path / "pool")
    # averaged times differ from any single repetition's draw
    assert s.records[0].open_time != one.records[0].open_time


def test_repetitions_average_wire_bytes_of_push_skips(tmp_path):
    # a STREAM reader's waste depends on how the stagger draw overlaps the
    # clients, so repetitions agree on consumed bytes only; wire bytes are
    # averaged to the nearest byte
    spec = WorkloadSpec(pattern=Skip(64 * KiB, 7), file_size=4 * MiB,
                        block_size=64 * KiB, mode=ReadMode.STREAM, clients=2,
                        stagger_window=0.2, repetitions=2)
    s = run_benchmark(spec, seed=0, pool_dir=tmp_path / "pool")
    reps = [_run_once(spec, 0, rep, tmp_path / "pool", None)
            for rep in range(2)]
    assert any(a.bytes_wire != b.bytes_wire for a, b in zip(*reps))
    for i, r in enumerate(s.records):
        assert r.bytes_consumed == 4 * MiB // 8
        assert r.bytes_wire == round(
            (reps[0][i].bytes_wire + reps[1][i].bytes_wire) / 2)


def test_paper_fidelity_rejects_stream_skip(tmp_path):
    spec = WorkloadSpec(pattern=Skip(MiB, 9), file_size=4 * MiB,
                        mode=ReadMode.STREAM)
    with pytest.raises(ValueError):
        run_benchmark(spec, seed=1, pool_dir=tmp_path / "pool",
                      paper_fidelity=True)


# -- sweeps ----------------------------------------------------------------------


def test_sweep_validates_before_running(tmp_path):
    spec = WorkloadSpec(file_size=MiB)
    with pytest.raises(ValueError):
        run_sweep(spec, "chunkiness", [1])
    with pytest.raises(ValueError):
        run_sweep(spec, "clients", [])
    with pytest.raises(ValueError):
        run_sweep(spec, "clients", [4, 0, 8])  # bad value, nothing runs
    with pytest.raises(ValueError):
        run_sweep(spec, "iobufsize", [128 * KiB, -1])


def test_sweep_iobufsize_readbuf_skip_rate_declines(tmp_path):
    # needs enough clients that the waste contends for shared bandwidth;
    # with an idle pipe, fewer round trips would win instead
    spec = WorkloadSpec(pattern=Skip(MiB, 9), file_size=16 * MiB,
                        block_size=MiB, mode=ReadMode.READBUF, clients=8,
                        stagger_window=0.2)
    series = run_sweep(spec, "iobufsize", [128 * KiB, 4 * MiB], seed=5,
                       pool_dir=tmp_path / "pool")
    assert [s.axis_value for s in series] == [128 * KiB, 4 * MiB]
    small, big = series
    assert big.aggregate_rate < small.aggregate_rate
    assert big.total_waste > small.total_waste
    assert small.total_waste == 0  # fills never exceed the read block


def test_sweep_modes_with_paper_fidelity_drops_stream(tmp_path):
    spec = WorkloadSpec(pattern=Skip(MiB, 9), file_size=4 * MiB,
                        block_size=MiB, clients=1, stagger_window=0.0)
    series = run_sweep(spec, "mode", [ReadMode.NORMAL, ReadMode.STREAM],
                       seed=1, pool_dir=tmp_path / "pool",
                       paper_fidelity=True)
    assert [s.axis_value for s in series] == [ReadMode.NORMAL]


# -- CSV -------------------------------------------------------------------------


def test_emit_csv_layout(tmp_path):
    spec = WorkloadSpec(file_size=256 * KiB, block_size=64 * KiB, clients=4,
                        stagger_window=0.1)
    s = run_benchmark(spec, seed=2, pool_dir=tmp_path / "pool")
    paths = emit_csv(s, tmp_path / "out")
    names = sorted(p.name for p in paths)
    assert names == ["aggregate.csv", "clients.csv"]
    clients = (tmp_path / "out" / "clients.csv").read_text().splitlines()
    assert clients[0] == ",".join(CLIENT_COLUMNS)
    assert len(clients) == 5  # header + one row per client
    assert clients[1].startswith("0,normal,")
    agg = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
    assert agg[0] == ",".join(AGGREGATE_COLUMNS)
    assert len(agg) == 2
    assert agg[1].split(",")[0] == "4"  # axis defaults to the client count


def test_emit_csv_sweep_series(tmp_path):
    spec = WorkloadSpec(file_size=256 * KiB, block_size=64 * KiB,
                        stagger_window=0.0)
    series = run_sweep(spec, "mode",
                       [ReadMode.NORMAL, ReadMode.STREAM], seed=2,
                       pool_dir=tmp_path / "pool")
    paths = emit_csv(series, tmp_path / "out")
    names = sorted(p.name for p in paths)
    assert names == ["aggregate.csv", "clients-normal.csv",
                     "clients-stream.csv"]
    agg = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 3
    assert agg[1].split(",")[0] == "normal"
    assert agg[2].split(",")[0] == "stream"


def test_emit_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "out")


def test_summary_statistics_arithmetic():
    recs = [
        ClientRecord(0, "normal", 0.1, 0.3, 400, 400, 1000.0),
        ClientRecord(1, "normal", 0.3, 0.1, 800, 900, 2000.0),
        ClientRecord(2, "normal", 0.0, 0.0, 0, 0, 0.0, True),
    ]
    s = RunSummary(WorkloadSpec(), recs, axis_value=3)
    assert s.aggregate_rate == 3000.0
    assert s.mean_open_time == pytest.approx(0.2)
    assert s.rms_open_time == pytest.approx((0.05) ** 0.5)
    assert s.total_waste == 100
    assert s.error_count == 1


def test_bench_path_shape():
    assert bench_path(7, 1024, 3) == "/bench/s7/z1024/f0003"


# -- recorded schedules ------------------------------------------------------------


def _small_runs():
    wan = {f"wan-{mode.name.lower()}-{label}": WorkloadSpec(
               pattern=pattern, file_size=2 * MiB, block_size=64 * KiB,
               mode=mode, clients=4)
           for mode in ReadMode
           for label, pattern in (("seq", Sequential()),
                                  ("skip", Skip(128 * KiB, 3)))}
    return {
        **wan,
        "wan-stream-window64k": WorkloadSpec(
            file_size=2 * MiB, block_size=MiB, mode=ReadMode.STREAM,
            window=64 * KiB, stagger_window=0.0),
        "zero-normal-skip": WorkloadSpec(
            pattern=Skip(128 * KiB, 3), file_size=2 * MiB,
            block_size=64 * KiB, clients=4, stagger_window=0.0,
            net_profile="zero"),
        "lan-stream-seq": WorkloadSpec(
            file_size=2 * MiB, block_size=64 * KiB, mode=ReadMode.STREAM,
            clients=4, net_profile="lan"),
    }


# sha256 over the emitted CSVs of each run; a change that keeps the model must
# keep these, a change that alters the model re-records them and says so
RECORDED_CSV_DIGESTS = {
    "wan-normal-seq":
        "096d29423d16104dee4710806f416971f12e3f476b161c26de31eff09f2c5174",
    "wan-normal-skip":
        "31dcb4603d4e2b1b373a3d54e659f505546571d2236c16a5ae9299945997beff",
    "wan-readbuf-seq":
        "cb928dd361e66d4d76b8ff7800024b76544070113627a00db6c9517de0352013",
    "wan-readbuf-skip":
        "2a173c89acee63a8a51a84731c1f252f4d572eb8a0ecfccd5d95e511df7bbd01",
    "wan-readahead-seq":
        "51e463ae243d2cf3dfe4b1732e77e41ca27f6d79cdb1f1871aca91481417708a",
    "wan-readahead-skip":
        "5d01a95ae8f65051ede9c9b1a0cca0900a1c7c56210f7b0e5f2b43351197cea7",
    "wan-stream-seq":
        "009ea51e4208b788381941f267c14d4a0e85b7faee457a0bac5179cd9cff5590",
    "wan-stream-skip":
        "d0c716ff8e785ccb5cfb5ad3fe8d7735308fcbb864a8e48bc81c2094c7d68492",
    "wan-stream-window64k":
        "6168faa5f959c95fef7d7b603db8e7e1336dcc0cee4ba73fb8cca409ac8bdc36",
    "zero-normal-skip":
        "dbcbbd426a5a85d6684178edc7446a5714e2e279c1be082d99a59023087b5d93",
    "lan-stream-seq":
        "3b3fcaeba507d39cc8e41ea8894bda7d8647f9add8f38ee78f1a9a1704595b90",
}


def test_small_runs_match_recorded_csv_digests(tmp_path):
    digests = {}
    for name, spec in _small_runs().items():
        h = hashlib.sha256()
        for p in emit_csv(run_benchmark(spec, seed=7), tmp_path / name):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        digests[name] = h.hexdigest()
    assert digests == RECORDED_CSV_DIGESTS
