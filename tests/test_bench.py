"""Harness tests: seeding, single runs, repetition/averaging, sweeps, CSV."""

from __future__ import annotations

import builtins
import hashlib
import os
import shutil
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

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
from remfio import content
from remfio.client import ClientConfig, rf_close, rf_open, rf_read
from remfio.content import checksum_bytes, file_content
from remfio.diskserver import MANIFEST_NAME, DiskServer, PoolFile
from remfio.errors import DeadlockError
from remfio.headnode import Headnode, OpenQueueModel
from remfio.netemu import ZERO_PROFILE, EmuConnection, EmulatedNetwork
from remfio.runtime import VirtualRateLimiter, VirtualRuntime
from remfio.wire import DataChunk, ReadMode

KiB = 1024
MiB = 1024 * 1024
TOKEN = "bench"


def _stack(pool_dir=None):
    rt = VirtualRuntime()
    net = EmulatedNetwork(rt)
    head = Headnode(rt, net, shared_token=TOKEN)
    srv = DiskServer(rt, net, pool_dir=pool_dir, shared_token=TOKEN)
    return rt, head, srv


@pytest.fixture
def pool_reads(monkeypatch):
    """The pool files (*.dat) opened for reading while the test runs."""
    reads = []
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if str(file).endswith(".dat") and "r" in mode:
            reads.append(str(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    return reads


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
    _, head, srv = _stack(tmp_path / "pool")
    first = seed_pool(head, srv, 4, 64 * KiB, seed=9)
    sums = [e.checksum for e in first]

    _, head2, srv2 = _stack(tmp_path / "other" / "pool")
    again = seed_pool(head2, srv2, 4, 64 * KiB, seed=9)
    assert [e.checksum for e in again] == sums

    # same pool dir: nothing is re-imported, entries are identical
    mtimes = [srv.pool_location(e.path).stat().st_mtime_ns for e in first]
    third = seed_pool(head, srv, 4, 64 * KiB, seed=9)
    assert [e.checksum for e in third] == sums
    assert [srv.pool_location(e.path).stat().st_mtime_ns
            for e in third] == mtimes


def test_seed_pool_allocates_about_one_tile(tmp_path):
    # file content is handed over as views of one memoized tile per seed,
    # stored as two copies of its 1 MiB, so seeding two 16 MiB files
    # allocates that tile once and never a file's worth of bytes, and
    # seeding two more from the same seed builds no tile; a file of another
    # seed is seeded first, so that the imports seeding makes on first use
    # are not counted
    _, head, srv = _stack(tmp_path / "pool")
    seed_pool(head, srv, 1, 64 * KiB, seed=2)
    content._tile_view.cache_clear()
    peaks = []
    for count in (2, 4):
        tracemalloc.start()
        try:
            seed_pool(head, srv, count, 16 * MiB, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2 * content.TILE + 512 * KiB
    assert peaks[1] <= 64 * KiB


def test_seed_pool_hundred_distinct_entries():
    _, head, srv = _stack()
    entries = seed_pool(head, srv, 100, 4 * KiB, seed=3)
    assert len({e.path for e in entries}) == 100
    assert len({e.checksum for e in entries}) == 100
    assert all(e.size == 4 * KiB for e in entries)
    assert head.namespace_size == 100


def test_seed_pool_count_zero():
    _, head, srv = _stack()
    assert seed_pool(head, srv, 0, MiB, seed=1) == []
    assert head.namespace_size == 0


def test_seed_pool_insufficient_space_aborts_before_writing(tmp_path):
    _, head, srv = _stack(tmp_path / "pool")
    with pytest.raises(OSError):
        seed_pool(head, srv, 2, 1 << 60, seed=1)
    assert srv.pool == {}
    assert head.namespace_size == 0


def test_seed_pool_midway_failure_cleans_up(tmp_path):
    _, head, srv = _stack(tmp_path / "pool")
    real = srv.seed_file
    calls = {"n": 0}

    def failing(*args):
        calls["n"] += 1
        if calls["n"] == 3:
            raise OSError("disk full")
        return real(*args)

    srv.seed_file = failing
    with pytest.raises(OSError):
        seed_pool(head, srv, 4, 8 * KiB, seed=2)
    assert srv.pool == {}
    assert head.namespace_size == 0
    assert not any(p.suffix == ".dat" for p in (tmp_path / "pool").iterdir())


def test_a_parents_four_column_pool_is_reseeded_once(tmp_path, pool_reads):
    # a pool kept from before the manifest's key column: its keyless rows
    # are skipped, so a seeded file is written again once, from the tile
    # formula, and served from the tile from then on; a file imported then
    # is not in the pool
    pool = tmp_path / "pool"
    _, _, empty = _stack(pool)  # names the pool files
    path = bench_path(9, 64 * KiB, 0)
    old = bytes(64 * KiB)  # bytes from before the tile formula
    rows = []
    for p, data in ((path, old), ("/user/a", b"user bytes")):
        location = empty.pool_location(p)
        location.write_bytes(data)
        rows.append(f"{p}\t{location.name}\t{len(data)}\t"
                    f"{checksum_bytes(data)}\n")
    (pool / MANIFEST_NAME).write_text("".join(rows))

    _, head, srv = _stack(pool)
    assert srv.pool == {}
    [entry] = seed_pool(head, srv, 1, 64 * KiB, seed=9)
    new = file_content(9, 0, 64 * KiB)
    assert entry.checksum == srv.pool[path].checksum == checksum_bytes(new)
    assert srv.pool[path].key == (9, 0)
    assert srv.pool_location(path).read_bytes() == new
    rows = (pool / MANIFEST_NAME).read_text().splitlines()
    assert rows[-1].split("\t")[-1] == "9:0"

    rt2, head2, srv2 = _stack(pool)
    mtime = srv2.pool_location(path).stat().st_mtime_ns
    seed_pool(head2, srv2, 1, 64 * KiB, seed=9)
    assert srv2.pool_location(path).stat().st_mtime_ns == mtime
    assert len((pool / MANIFEST_NAME).read_text().splitlines()) == 3
    assert set(srv2.pool) == {path}
    assert srv2.pool[path].key == (9, 0)

    def scenario():
        head2.start()
        srv2.start()
        cfg = ClientConfig(rt2, srv2._net, token=TOKEN, profile=ZERO_PROFILE)
        h = rf_open(path, cfg)
        data = rf_read(h, 64 * KiB)
        rf_close(h)
        return data, list(pool_reads)

    assert rt2.run(scenario) == (new, [])


def test_a_pool_of_another_content_formula_is_reseeded_once(tmp_path):
    # a pool written under an earlier content formula, in the parent's
    # five-column lines or naming another formula: its keyed lines are
    # skipped, not served with checksums of other bytes, so each file is
    # written again once, from this formula, and kept from then on
    pool = tmp_path / "pool"
    _, _, empty = _stack(pool)  # names the pool files
    old = bytes(64 * KiB)  # bytes of an earlier formula
    rows = []
    for i, formula in ((0, None), (1, "philox4x64")):
        path = bench_path(9, 64 * KiB, i)
        location = empty.pool_location(path)
        location.write_bytes(old)
        columns = [path, location.name, len(old), checksum_bytes(old),
                   formula, f"9:{i}"]
        rows.append("\t".join(str(c) for c in columns if c is not None)
                    + "\n")
    (pool / MANIFEST_NAME).write_text("".join(rows))

    _, head, srv = _stack(pool)
    assert srv.pool == {}
    entries = seed_pool(head, srv, 2, 64 * KiB, seed=9)
    for i, entry in enumerate(entries):
        new = file_content(9, i, 64 * KiB)
        assert srv.pool_location(entry.path).read_bytes() == new
        assert entry.checksum == checksum_bytes(new)
    rows = (pool / MANIFEST_NAME).read_text().splitlines()
    assert [row.split("\t")[4:] for row in rows[2:]] == [
        [content.FORMULA, "9:0"], [content.FORMULA, "9:1"]]

    _, head2, srv2 = _stack(pool)
    assert srv2.pool == srv.pool
    mtimes = [srv2.pool_location(e.path).stat().st_mtime_ns for e in entries]
    seed_pool(head2, srv2, 2, 64 * KiB, seed=9)
    assert [srv2.pool_location(e.path).stat().st_mtime_ns
            for e in entries] == mtimes
    assert len((pool / MANIFEST_NAME).read_text().splitlines()) == 4


@pytest.mark.parametrize("cut,lost", [
    (lambda text: text[:-2], True),  # inside the key, losing the line break
    (lambda text: text.rsplit("\t", 1)[0], True),  # the whole key column
    (lambda text: text.rsplit("\t", 1)[0] + "\n", True),  # keyless line
    (lambda text: text + "/a\tx.dat\t12", False),  # a line of the next append
], ids=["in-key", "key", "keyless", "next-line"])
def test_a_manifest_line_cut_short_is_skipped(tmp_path, cut, lost):
    # an append that fails part way, as on a full disk, leaves the last
    # manifest line cut short: the pool still loads, without that line,
    # seed_pool seeds its file again, and the new line is kept
    pool = tmp_path / "pool"
    _, head, srv = _stack(pool)
    seed_pool(head, srv, 2, 4 * KiB, seed=3)
    first, last = (bench_path(3, 4 * KiB, i) for i in (0, 1))
    mtime = srv.pool_location(first).stat().st_mtime_ns
    (pool / MANIFEST_NAME).write_text(cut((pool / MANIFEST_NAME).read_text()))

    _, head2, srv2 = _stack(pool)
    assert set(srv2.pool) == ({first} if lost else {first, last})
    seed_pool(head2, srv2, 2, 4 * KiB, seed=3)
    assert srv2.pool == srv.pool
    assert srv2.pool_location(first).stat().st_mtime_ns == mtime
    assert srv2.pool_location(last).read_bytes() == file_content(3, 1, 4 * KiB)

    _, head3, srv3 = _stack(pool)
    assert srv3.pool == srv.pool


def test_a_round_after_seeding_opens_no_pool_file(tmp_path, pool_reads):
    # seeded files are served from the seed's tile in every mode, across
    # seeks; the on-disk copies are only written
    spec = WorkloadSpec(pattern=Skip(64 * KiB, 2), file_size=MiB,
                        block_size=32 * KiB, clients=3, stagger_window=0.0,
                        net_profile="lan")
    series = run_sweep(spec, "mode", list(ReadMode), seed=4,
                       pool_dir=tmp_path / "pool")
    assert all(r.bytes_consumed == 6 * 64 * KiB
               for s in series for r in s.records)
    assert any(p.suffix == ".dat" for p in (tmp_path / "pool").iterdir())
    assert pool_reads == []


def test_a_run_without_a_pool_dir_touches_no_disk(tmp_path, monkeypatch):
    # without a pool_dir, seeding only registers files: no directory is
    # made and no file is written, so a full disk stops nothing, and each
    # file's bytes are made once in the process, however many runs, sweep
    # points and repetitions seed it
    made, written, generated = [], [], Counter()
    real_open, real_replace, real_mkdir = builtins.open, os.replace, os.mkdir
    real_chunks = content.content_chunks

    def watched_open(file, mode="r", *args, **kwargs):
        if any(c in mode for c in "wax+"):
            written.append(file)
        return real_open(file, mode, *args, **kwargs)

    def watched_replace(src, dst, *args, **kwargs):
        written.append(dst)
        return real_replace(src, dst, *args, **kwargs)

    def watched_mkdir(path, *args, **kwargs):
        made.append(path)
        return real_mkdir(path, *args, **kwargs)

    def counted_chunks(seed, index, size):
        generated[seed, index, size] += 1
        return real_chunks(seed, index, size)

    monkeypatch.setattr(shutil, "disk_usage",
                        lambda path: SimpleNamespace(total=0, used=0, free=0))
    monkeypatch.setattr(builtins, "open", watched_open)
    monkeypatch.setattr(os, "replace", watched_replace)
    monkeypatch.setattr(os, "mkdir", watched_mkdir)
    monkeypatch.setattr(content, "content_chunks", counted_chunks)
    monkeypatch.chdir(tmp_path)
    content.cached_file_checksum.cache_clear()
    spec = WorkloadSpec(file_size=MiB + 5, block_size=256 * KiB, clients=3,
                        stagger_window=0.1, repetitions=2)
    one = run_benchmark(spec, seed=11)
    series = run_sweep(spec, "mode", [ReadMode.NORMAL, ReadMode.READBUF,
                                      ReadMode.STREAM], seed=11)
    assert all(r.bytes_consumed == MiB + 5
               for s in (one, *series) for r in s.records)
    assert made == written == []
    assert list(tmp_path.iterdir()) == []
    assert generated == {(11, i, MiB + 5): 1 for i in range(3)}


# -- single runs ------------------------------------------------------------------


def test_single_client_lan_sequential_near_disk_rate():
    spec = WorkloadSpec(file_size=64 * MiB, block_size=MiB,
                        mode=ReadMode.NORMAL, clients=1, stagger_window=0.0,
                        net_profile="lan")
    s = run_benchmark(spec, seed=1)
    assert len(s.records) == 1
    r = s.records[0]
    assert r.bytes_consumed == 64 * MiB
    # disk at 80 MiB/s is the bottleneck on the LAN profile
    assert r.rate == pytest.approx(80 * MiB, rel=0.20)


def test_skip_pattern_consumes_a_tenth():
    spec = WorkloadSpec(pattern=Skip(MiB, 9), file_size=16 * MiB,
                        block_size=MiB, mode=ReadMode.NORMAL, clients=2,
                        stagger_window=0.5)
    s = run_benchmark(spec, seed=1)
    for r in s.records:
        assert abs(r.bytes_consumed - 16 * MiB // 10) <= MiB
        assert r.waste == 0  # request-reply mode moves only what is read
        assert r.rate * (r.open_time + r.read_time) == pytest.approx(
            r.bytes_consumed, rel=1e-9)


def test_zero_byte_files_give_zero_rate():
    spec = WorkloadSpec(file_size=0, clients=2, stagger_window=0.0)
    s = run_benchmark(spec, seed=1)
    assert [r.rate for r in s.records] == [0.0, 0.0]
    assert s.error_count == 0
    assert s.aggregate_rate == 0.0


def test_open_errors_recorded_not_raised():
    spec = WorkloadSpec(file_size=64 * KiB, block_size=64 * KiB, clients=8,
                        stagger_window=0.0)
    s = run_benchmark(spec, seed=1, queue_model=OpenQueueModel(queue_cap=2))
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
    a = run_benchmark(spec, seed=7)
    b = run_benchmark(spec, seed=7)
    assert a.records == b.records
    pa = emit_csv(a, tmp_path / "out-a")
    pb = emit_csv(b, tmp_path / "out-b")
    for fa, fb in zip(pa, pb):
        assert fa.read_bytes() == fb.read_bytes()
    c = run_benchmark(spec, seed=8)
    assert c.records != a.records  # stagger draws moved


@pytest.mark.parametrize("profile", ["wan", "zero"])
def test_records_do_not_depend_on_file_content(monkeypatch, profile):
    # content independence: served from another seed's tile, every file
    # holds other bytes, and no mode's records change; the reads cross
    # content blocks and seek, so pushes restart mid-block
    spec = WorkloadSpec(pattern=Skip(320 * KiB, 1), file_size=2 * MiB + 5,
                        block_size=96 * KiB, clients=3, stagger_window=0.01,
                        net_profile=profile, window=256 * KiB)

    def records():
        return [run_benchmark(replace(spec, mode=m), seed=5).records
                for m in ReadMode]

    want = records()
    tile_view, swapped = content._tile_view, []

    def other_tile(seed):
        swapped.append(seed)
        return tile_view(seed + 1)

    monkeypatch.setattr(content, "_tile_view", other_tile)
    assert records() == want
    assert swapped  # the sessions cut their reads from the other tile


def test_repetitions_average_per_client_times():
    spec = WorkloadSpec(file_size=MiB, block_size=256 * KiB, clients=2,
                        repetitions=3)
    s = run_benchmark(spec, seed=4)
    assert len(s.records) == 2
    for r in s.records:
        assert r.bytes_consumed == MiB
        assert r.rate * (r.open_time + r.read_time) == pytest.approx(
            r.bytes_consumed, rel=1e-9)
    one = run_benchmark(WorkloadSpec(file_size=MiB, block_size=256 * KiB,
                                     clients=2), seed=4)
    # averaged times differ from any single repetition's draw
    assert s.records[0].open_time != one.records[0].open_time


def test_repetitions_average_wire_bytes_of_push_skips():
    # a STREAM reader's waste depends on how the stagger draw overlaps the
    # clients, so repetitions agree on consumed bytes only; wire bytes are
    # averaged to the nearest byte
    spec = WorkloadSpec(pattern=Skip(64 * KiB, 7), file_size=4 * MiB,
                        block_size=64 * KiB, mode=ReadMode.STREAM, clients=2,
                        stagger_window=0.2, repetitions=2)
    s = run_benchmark(spec, seed=0)
    reps = [_run_once(spec, 0, rep, None, None)
            for rep in range(2)]
    assert any(a.bytes_wire != b.bytes_wire for a, b in zip(*reps))
    for i, r in enumerate(s.records):
        assert r.bytes_consumed == 4 * MiB // 8
        assert r.bytes_wire == round(
            (reps[0][i].bytes_wire + reps[1][i].bytes_wire) / 2)


# -- sweeps ----------------------------------------------------------------------


def test_sweep_validates_before_running():
    spec = WorkloadSpec(file_size=MiB)
    with pytest.raises(ValueError):
        run_sweep(spec, "chunkiness", [1])
    with pytest.raises(ValueError):
        run_sweep(spec, "clients", [])
    with pytest.raises(ValueError):
        run_sweep(spec, "clients", [4, 0, 8])  # bad value, nothing runs
    with pytest.raises(ValueError):
        run_sweep(spec, "iobufsize", [128 * KiB, -1])


def test_sweep_iobufsize_readbuf_skip_rate_declines():
    # needs enough clients that the waste contends for shared bandwidth;
    # with an idle pipe, fewer round trips would win instead
    spec = WorkloadSpec(pattern=Skip(MiB, 9), file_size=16 * MiB,
                        block_size=MiB, mode=ReadMode.READBUF, clients=8,
                        stagger_window=0.2)
    series = run_sweep(spec, "iobufsize", [128 * KiB, 4 * MiB], seed=5)
    assert [s.axis_value for s in series] == [128 * KiB, 4 * MiB]
    small, big = series
    assert big.aggregate_rate < small.aggregate_rate
    assert big.total_waste > small.total_waste
    assert small.total_waste == 0  # fills never exceed the read block


# -- CSV -------------------------------------------------------------------------


def test_emit_csv_layout(tmp_path):
    spec = WorkloadSpec(file_size=256 * KiB, block_size=64 * KiB, clients=4,
                        stagger_window=0.1)
    s = run_benchmark(spec, seed=2)
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
                       [ReadMode.NORMAL, ReadMode.STREAM], seed=2)
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


def _mode_runs(profile: str, **kw):
    """Each mode, read sequentially and skipping, by 4 clients on profile."""
    return {f"{profile}-{mode.name.lower()}-{label}": WorkloadSpec(
                pattern=pattern, file_size=2 * MiB, block_size=64 * KiB,
                mode=mode, clients=4, net_profile=profile, **kw)
            for mode in ReadMode
            for label, pattern in (("seq", Sequential()),
                                   ("skip", Skip(128 * KiB, 3)))}


def _wan_runs():
    return _mode_runs("wan")


def _small_runs():
    # zero starts every client at once: same-instant ties are densest there
    return {
        **_wan_runs(),
        "wan-stream-window64k": WorkloadSpec(
            file_size=2 * MiB, block_size=MiB, mode=ReadMode.STREAM,
            window=64 * KiB, stagger_window=0.0),
        **_mode_runs("zero", stagger_window=0.0),
        **_mode_runs("lan"),
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
        "cea7775853459e97d8adcc3a0d08784a7ccc1ba85583b69237f5b77f5bd6e5c6",
    "wan-stream-window64k":
        "6168faa5f959c95fef7d7b603db8e7e1336dcc0cee4ba73fb8cca409ac8bdc36",
    "zero-normal-seq":
        "1f45ed573893dd3b4a3573a2c8b6558204bb4dcca6cee22b7ca9f9f9197dc836",
    "zero-normal-skip":
        "dbcbbd426a5a85d6684178edc7446a5714e2e279c1be082d99a59023087b5d93",
    "zero-readbuf-seq":
        "2bf9b424cd26057e37bf53f661b9c5f35a671e5d1d40318fba553189eb0889d6",
    "zero-readbuf-skip":
        "4e9459f92c1c2ad5c4bdce1378b1d42a7efc0f37b8ee4efdc3f60f1f66103cb7",
    "zero-readahead-seq":
        "6d6f36fd1e075d2f73e674b7111cfa74ef96c3d80e79b7f5c2207f64d75950a4",
    "zero-readahead-skip":
        "9fde1be8af5b036ffa310c85fdbb0d752bdb9d1e614fd4422d4ea7d989f1e7f8",
    "zero-stream-seq":
        "0d5c72a51ea3eab1cfa50f1959df78a6c0e5c22d77db6f363cd009738ae31c6b",
    "zero-stream-skip":
        "0030600b6ba5593999b398a1bb547285dabe64e8bdfba74f1c63d2b95fa46a33",
    "lan-normal-seq":
        "bb2928aa409a0f1206442b9f4e8f16117d6f6410d110d4b8abd752a3a98c2169",
    "lan-normal-skip":
        "434232740f6a1ac4a75b6e99d3e228098a5a8354014eb0e1cb0460b90e6c2a48",
    "lan-readbuf-seq":
        "59c12afe1a4b934da2edd25c50f02d7c7bd0e548bf04fa8f68836d1b9b7866b5",
    "lan-readbuf-skip":
        "a0d339680861f9e1540e39d34e980a9eeff3df574886b83cce58124db97e02b5",
    "lan-readahead-seq":
        "52f12149aa3dc59c2a2f1f1a89cde2e93332848963145ae0906909998a01e020",
    "lan-readahead-skip":
        "457cc7f6df939e4e54df1c5c4e872e69176d804812cf3403c4ba5a8adb7713a6",
    "lan-stream-seq":
        "3b3fcaeba507d39cc8e41ea8894bda7d8647f9add8f38ee78f1a9a1704595b90",
    "lan-stream-skip":
        "f83e8cf3f1ae5d3fca13c1000df8bf7f103ab6910121834c868fb5714f07aa4d",
}


def test_small_runs_match_recorded_csv_digests(tmp_path):
    digests = {}
    for name, spec in _small_runs().items():
        h = hashlib.sha256()
        for p in emit_csv(run_benchmark(spec, seed=7), tmp_path / name):
            h.update(p.name.encode() + b"\0" + p.read_bytes())
        digests[name] = h.hexdigest()
    assert digests == RECORDED_CSV_DIGESTS


def _frame_kind(msg) -> str:
    if isinstance(msg, DataChunk) and not msg.payload:
        return "empty DataChunk"
    return type(msg).__name__


@pytest.mark.parametrize("name", sorted(_wan_runs()))
def test_every_frame_kind_sent_is_read(monkeypatch, name):
    # a kind of frame that goes out but that no end ever reads is a protocol
    # path no client uses: it costs link time and shows nothing
    # an end reads a frame either from recv() or in a serve() handler
    sent, read = Counter(), Counter()
    send, recv = EmuConnection.send, EmuConnection.recv
    serve = EmuConnection.serve

    def counted_send(conn, msg, **kw):
        send(conn, msg, **kw)
        sent[_frame_kind(msg)] += 1

    def counted_recv(conn):
        msg = recv(conn)
        read[_frame_kind(msg)] += 1
        return msg

    def counted_serve(conn, handler):
        def counted_handler(msg):
            if msg is not None:
                read[_frame_kind(msg)] += 1
            handler(msg)
        serve(conn, counted_handler)

    monkeypatch.setattr(EmuConnection, "send", counted_send)
    monkeypatch.setattr(EmuConnection, "recv", counted_recv)
    monkeypatch.setattr(EmuConnection, "serve", counted_serve)
    run_benchmark(_wan_runs()[name], seed=7)
    assert sent["DataChunk"] > 0
    assert {kind: n for kind, n in sent.items() if not read[kind]} == {}


@pytest.mark.parametrize("mode", [ReadMode.STREAM, ReadMode.READBUF])
def test_grants_and_frames_go_through_the_traced_entry_points(monkeypatch,
                                                              mode):
    # simbench's tracer counts grants by wrapping VirtualRateLimiter.acquire
    # with exactly (limiter, key, nbytes), keywords refused, and frames by
    # wrapping EmuConnection.send: a session that asked for a grant or sent
    # a chunk some other way would crash a traced run or drop its counts
    grants, counts, servers = Counter(), Counter(), []
    acquire, send, read = (VirtualRateLimiter.acquire, EmuConnection.send,
                           PoolFile.read)
    start = DiskServer.start

    def traced_acquire(limiter, key, nbytes):
        grants[limiter] += 1
        return acquire(limiter, key, nbytes)

    def traced_send(conn, msg, **kw):
        if isinstance(msg, DataChunk):
            counts["sends"] += 1
            counts["sent_bytes"] += len(msg.payload)
        return send(conn, msg, **kw)

    def counted_read(pool_file, offset, n):
        counts["reads"] += 1
        return read(pool_file, offset, n)

    def noted_start(srv):
        servers.append(srv)
        start(srv)

    def counted_deliver(conn, msg, frame_len):
        counts["delivered"] += isinstance(msg, DataChunk)
        deliver(conn, msg, frame_len)

    deliver = EmuConnection._deliver
    monkeypatch.setattr(VirtualRateLimiter, "acquire", traced_acquire)
    monkeypatch.setattr(EmuConnection, "send", traced_send)
    monkeypatch.setattr(EmuConnection, "_deliver", counted_deliver)
    monkeypatch.setattr(PoolFile, "read", counted_read)
    monkeypatch.setattr(DiskServer, "start", noted_start)
    spec = WorkloadSpec(file_size=2 * MiB, block_size=64 * KiB, mode=mode,
                        clients=3, iobufsize=192 * KiB)
    summary = run_benchmark(spec, seed=3)
    assert [r.bytes_consumed for r in summary.records] == [2 * MiB] * 3
    (srv,) = servers
    assert counts["reads"] > 0
    assert grants[srv._pump] == counts["reads"]  # a disk grant per chunk
    assert counts["sends"] == counts["delivered"] == counts["reads"]
    assert counts["sent_bytes"] == 3 * 2 * MiB  # whole files, nothing more
    assert sum(grants.values()) > grants[srv._pump]  # link grants too


@pytest.mark.parametrize("fault", ["read", "credit"])
@pytest.mark.parametrize("mode", [ReadMode.STREAM, ReadMode.READBUF])
def test_a_session_fault_stops_the_run_with_its_own_exception(monkeypatch,
                                                              mode, fault):
    # a session's reader and sender are event-loop callbacks: an exception
    # in one stops the world and the run raises it, not the deadlock the
    # stalled clients would otherwise meet
    class DiskGone(OSError):
        pass

    def broken(*args, **kwargs):
        raise DiskGone(fault)

    if fault == "read":
        monkeypatch.setattr(PoolFile, "read", broken)
    else:
        monkeypatch.setattr(EmuConnection, "try_reserve_data_credit", broken)
    spec = WorkloadSpec(file_size=MiB, block_size=64 * KiB, mode=mode,
                        clients=2)
    with pytest.raises(DiskGone, match=fault) as info:
        run_benchmark(spec, seed=3)
    assert not isinstance(info.value, DeadlockError)


@pytest.mark.parametrize("mode, profile", [(ReadMode.STREAM, "wan"),
                                           (ReadMode.READBUF, "lan")],
                         ids=["stream-wan", "readbuf-lan"])
def test_only_clients_take_carrier_threads(monkeypatch, mode, profile):
    # the headnode's and disk server's connections are served by event-loop
    # callbacks: a run spawns only its clients, and starts one carrier
    # thread per client at most
    started = []
    start = threading.Thread.start
    spawned = []
    spawn = VirtualRuntime.spawn

    def counted_start(thread, *args, **kwargs):
        started.append(thread)
        return start(thread, *args, **kwargs)

    def noted_spawn(rt, *args, **kwargs):
        task = spawn(rt, *args, **kwargs)
        spawned.append(task.name)
        return task

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    monkeypatch.setattr(VirtualRuntime, "spawn", noted_spawn)
    spec = WorkloadSpec(file_size=2 * MiB, block_size=256 * KiB, mode=mode,
                        clients=4, stagger_window=0.05, iobufsize=64 * KiB,
                        net_profile=profile)
    summary = run_benchmark(spec, seed=5)
    assert [r.bytes_consumed for r in summary.records] == [2 * MiB] * 4
    assert 0 < len(started) <= spec.clients
    assert sorted(spawned) == [f"bench-client-{i}"
                               for i in range(spec.clients)]
