"""Disk server tests: pool, content fidelity, disk model, stream control."""

from __future__ import annotations

import numpy as np
import pytest

from remfio import diskserver, wire
from remfio.content import (BLOCK, FORMULA, checksum_bytes, content_chunks,
                            file_content)
from remfio.diskserver import DiskModel, DiskServer
from remfio.headnode import session_token
from remfio.netemu import WAN_PROFILE, ZERO_PROFILE, EmulatedNetwork
from remfio.runtime import VirtualRuntime

TOKEN = "shared-secret"
KiB = 1024
MiB = 1024 * 1024


def _mk_server(rt, pool_dir=None, *, disk=None):
    net = EmulatedNetwork(rt)
    srv = DiskServer(rt, net, pool_dir=pool_dir, shared_token=TOKEN,
                     disk=disk or DiskModel())
    return net, srv


def _seed(srv, path, size, seed=1, index=0):
    srv.import_file(path, content_chunks(seed, index, size))
    return file_content(seed, index, size)


def _open(net, srv, path, mode, *, iobufsize=128 * KiB, handle=1,
          profile=ZERO_PROFILE):
    req = wire.OpenRequest(path=path, mode=mode, iobufsize=iobufsize,
                           token=session_token(handle, TOKEN))
    conn = net.connect(srv.address, profile, first_msg=req)
    return conn, conn.recv()


def _read_range(conn, handle, offset, length, size):
    """One ReadRequest round trip; collects the whole (possibly multi-chunk,
    possibly EOF-clamped) reply."""
    conn.send(wire.ReadRequest(handle, offset, length))
    expected = max(0, min(offset + length, size) - min(offset, size))
    got = bytearray()
    if expected == 0:
        chunk = conn.recv()
        assert isinstance(chunk, wire.DataChunk) and chunk.payload == b""
        return b""
    while len(got) < expected:
        chunk = conn.recv()
        got.extend(chunk.payload)
    return bytes(got)


def _assert_quiet(rt, conn):
    """Nothing more reaches conn within 1 s."""
    rt.sleep(1.0)
    assert len(conn._queue) == 0


# -- pool management -----------------------------------------------------------


def test_import_and_reload_pool(tmp_path):
    # seeded files reload from the manifest; an imported file lives in the
    # server's memory only, so a server on the same pool_dir lacks it
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path / "pool")
    data_a = _seed(srv, "/pool/a", 300 * KiB, index=0)
    seeded = srv.seed_file("/pool/b", 1, 1, 77)
    assert srv.pool["/pool/a"].size == 300 * KiB
    assert srv.pool["/pool/a"].checksum == checksum_bytes(data_a)

    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path / "pool")
    assert srv2.pool == {"/pool/b": seeded}
    assert srv2.pool["/pool/b"].size == 77
    assert srv2.pool_location("/pool/b").read_bytes() == file_content(1, 1, 77)


def test_import_writes_nothing_under_pool_dir(tmp_path):
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path / "pool")
    data = _seed(srv, "/pool/a", 300 * KiB)
    assert list((tmp_path / "pool").iterdir()) == []
    assert srv.pool["/pool/a"].read(0, 300 * KiB) == data
    assert srv.pool["/pool/a"].read(100, 7) == data[100:107]
    assert srv.pool["/pool/a"].read(300 * KiB - 3, 64) == data[-3:]


def test_seed_file_keeps_its_key_in_the_manifest(tmp_path):
    # seed_file writes and hashes the content, and records the content
    # formula and (seed, index) in a fifth and sixth column; an import of the same bytes gets the same size and
    # checksum, no key and no manifest line
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path / "pool")
    size = 300 * KiB
    seeded = srv.seed_file("/pool/s", 7, 3, size)
    imported = srv.import_file("/pool/i", content_chunks(7, 3, size))
    data = file_content(7, 3, size)
    location = srv.pool_location("/pool/s")
    assert location.read_bytes() == data
    assert (seeded.size, seeded.checksum) == (size, checksum_bytes(data))
    assert (imported.size, imported.checksum) == (size, checksum_bytes(data))
    assert (seeded.key, imported.key) == ((7, 3), None)
    rows = [line.split("\t") for line in
            (tmp_path / "pool" / "pool-manifest.tsv").read_text().splitlines()]
    assert rows == [["/pool/s", location.name, str(size),
                     str(seeded.checksum), FORMULA, "7:3"]]

    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path / "pool")
    assert srv2.pool == {"/pool/s": seeded}


def test_reimport_keeps_last_record(tmp_path):
    # a re-import replaces the file in memory; a re-seed appends a manifest
    # line, and the loader keeps the last line per path
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path / "pool")
    _seed(srv, "/pool/a", 100, index=0)
    newer = _seed(srv, "/pool/a", 200, index=5)
    assert srv.pool["/pool/a"].size == 200
    assert srv.pool["/pool/a"].checksum == checksum_bytes(newer)
    assert srv.pool["/pool/a"].read(0, 300) == newer
    srv.seed_file("/pool/s", 1, 0, 100)
    reseeded = srv.seed_file("/pool/s", 1, 5, 200)
    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path / "pool")
    assert srv2.pool == {"/pool/s": reseeded}
    assert reseeded.checksum == checksum_bytes(file_content(1, 5, 200))


def test_import_checksum_mismatch_rejected():
    rt = VirtualRuntime()
    _, srv = _mk_server(rt)
    with pytest.raises(ValueError):
        srv.import_file("/pool/x", [b"abc"], checksum=1234)
    assert srv.pool == {}


def test_rejected_reimport_keeps_old_bytes_and_record():
    rt = VirtualRuntime()
    _, srv = _mk_server(rt)
    old = srv.import_file("/a", [b"old-bytes"])
    with pytest.raises(ValueError):
        srv.import_file("/a", [b"NEW"], checksum=123)
    assert srv.pool["/a"] == old
    assert srv.pool["/a"].read(0, 64) == b"old-bytes"


def test_a_failed_seed_write_leaves_no_partial_file_and_no_entry(
        tmp_path, monkeypatch):
    # the write fails midway: its partial file is removed, the pool and the
    # manifest keep what they held, and the error reaches the caller
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path / "pool")
    ok = srv.seed_file("/pool/ok", 1, 0, 2)

    def failing_write(seed, index, size, write):
        write(b"x" * 100)
        raise OSError("disk full")

    monkeypatch.setattr(diskserver, "file_checksum", failing_write)
    with pytest.raises(OSError, match="disk full"):
        srv.seed_file("/pool/b", 1, 1, 3 * KiB)
    assert set(srv.pool) == {"/pool/ok"}
    assert sorted(p.name for p in (tmp_path / "pool").iterdir()) == sorted(
        [srv.pool_location("/pool/ok").name, "pool-manifest.tsv"])
    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path / "pool")
    assert srv2.pool == {"/pool/ok": ok}


@pytest.mark.parametrize("char", ["\t", "\n", "\r"],
                         ids=["tab", "newline", "return"])
def test_import_rejects_manifest_separators_in_path(tmp_path, char):
    # seed_file, the one writer of manifest lines, refuses a path holding
    # a separator before it writes anything
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path / "pool")
    ok = srv.seed_file("/pool/ok", 1, 0, 2)
    with pytest.raises(ValueError):
        srv.seed_file(f"/pool/a{char}b", 1, 1, 3)
    assert set(srv.pool) == {"/pool/ok"}
    assert sorted(p.name for p in (tmp_path / "pool").iterdir()) == sorted(
        [srv.pool_location("/pool/ok").name, "pool-manifest.tsv"])
    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path / "pool")  # the pool still reloads
    assert srv2.pool == {"/pool/ok": ok}


CHUNK = wire.MAX_CHUNK_PAYLOAD


@pytest.mark.parametrize("size", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1,
                                  BLOCK - 1, BLOCK, BLOCK + 1, 3 * MiB + 5])
def test_a_seeded_file_has_one_checksum_with_or_without_a_pool_dir(tmp_path,
                                                                   size):
    # a server given a pool_dir hashes a seeded file as it writes it, and
    # one without hashes nothing it has hashed before: both register the
    # one checksum of the file's bytes
    rt = VirtualRuntime()
    _, on_disk = _mk_server(rt, tmp_path / "pool")
    _, in_memory = _mk_server(rt)
    for index in (0, 1, 7):
        path = f"/pool/{index}"
        written = on_disk.seed_file(path, 5, index, size)
        registered = in_memory.seed_file(path, 5, index, size)
        data = file_content(5, index, size)
        assert registered == written
        assert written.checksum == checksum_bytes(data)
        assert on_disk.pool_location(path).read_bytes() == data


@pytest.mark.parametrize("kind", [memoryview, bytearray, bytes])
def test_import_accepts_bytes_like_chunks(kind):
    # content_chunks yields memoryviews; any bytes-like chunk gives the
    # same file bytes and checksum
    rt = VirtualRuntime()
    _, srv = _mk_server(rt)
    size = 2 * MiB + 5
    data = file_content(3, 2, size)
    chunks = [kind(c) for c in content_chunks(3, 2, size)]
    pf = srv.import_file("/pool/a", chunks, checksum=checksum_bytes(data))
    assert pf.size == size
    assert pf.read(0, size) == data
    cut = [kind(data[i:i + 333 * KiB]) for i in range(0, size, 333 * KiB)]
    other = srv.import_file("/pool/b", cut)
    assert (other.size, other.checksum) == (size, pf.checksum)
    assert other.read(0, size) == data


def test_import_counts_bytes_of_a_wide_memoryview():
    rt = VirtualRuntime()
    _, srv = _mk_server(rt)
    words = np.arange(3, dtype="<u8")
    pf = srv.import_file("/pool/w", [memoryview(words)])
    assert pf.size == 24
    assert pf.checksum == checksum_bytes(words.tobytes())
    assert pf.read(0, 24) == words.tobytes()


# -- open path -------------------------------------------------------------------


def test_open_and_first_read_checksum_verified():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        data = _seed(srv, "/pool/a", 4 * MiB)
        srv.start()
        conn, reply = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL)
        assert reply == wire.OpenReply(1, 4 * MiB)
        got = _read_range(conn, 1, 0, 128 * KiB, 4 * MiB)
        assert got == data[:128 * KiB]
        assert checksum_bytes(got) == checksum_bytes(data[:128 * KiB])
        conn.close()

    rt.run(scenario)


def test_open_bad_token_rejected():
    # a forged mac, and heads that str.isdigit() accepts but that are no
    # u64 handle id: each is refused, none crashes the server
    for i, head in enumerate(["1", "\u00b2", str(1 << 64)]):
        rt = VirtualRuntime()

        def scenario():
            net, srv = _mk_server(rt)
            _seed(srv, "/pool/a", KiB)
            srv.start()
            req = wire.OpenRequest("/pool/a", wire.ReadMode.NORMAL, 128 * KiB,
                                   token=f"{head}:0000000000000000")
            conn = net.connect(srv.address, ZERO_PROFILE, first_msg=req)
            err = conn.recv()
            assert isinstance(err, wire.ErrorReply)
            assert err.code == wire.ErrorCode.AUTH
            assert srv.sessions == {}
            assert srv.counters["auth_failures"] == 1
            conn.close()

        rt.run(scenario)


def test_open_unknown_pool_file_stale_replica():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        srv.start()
        conn, err = _open(net, srv, "/pool/ghost", wire.ReadMode.NORMAL)
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.STALE_REPLICA
        conn.close()

    rt.run(scenario)


def test_same_handle_twice_is_protocol_error():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        _seed(srv, "/pool/a", KiB)
        srv.start()
        conn1, ok = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL, handle=7)
        assert isinstance(ok, wire.OpenReply)
        conn2, err = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL, handle=7)
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.PROTOCOL
        conn1.close()
        conn2.close()

    rt.run(scenario)


# -- reads: clamping, isolation ----------------------------------------------------


def test_eof_clamp_and_empty_reads():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 1 * MiB + 10
        data = _seed(srv, "/pool/a", size)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL)
        got = _read_range(conn, 1, size - 10, MiB, size)
        assert got == data[-10:]
        assert _read_range(conn, 1, size, 4 * KiB, size) == b""
        conn.close()

    rt.run(scenario)


def test_two_sessions_keep_independent_offsets():
    # interleaved reads from two handles on the same file never interfere
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        data = _seed(srv, "/pool/a", 2 * MiB)
        srv.start()
        c1, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL, handle=1)
        c2, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL, handle=2)
        pos1, pos2 = 0, MiB
        for _ in range(8):
            got1 = _read_range(c1, 1, pos1, 32 * KiB, 2 * MiB)
            got2 = _read_range(c2, 2, pos2, 16 * KiB, 2 * MiB)
            assert got1 == data[pos1:pos1 + 32 * KiB]
            assert got2 == data[pos2:pos2 + 16 * KiB]
            pos1 += 32 * KiB
            pos2 += 16 * KiB
        c1.close()
        c2.close()

    rt.run(scenario)


# -- disk cost model ---------------------------------------------------------------


def test_sequential_read_costs_only_bandwidth_time():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        _seed(srv, "/pool/a", MiB)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL)
        t0 = rt.now()
        _read_range(conn, 1, 0, 512 * KiB, MiB)
        _read_range(conn, 1, 512 * KiB, 512 * KiB, MiB)
        elapsed = rt.now() - t0
        assert elapsed == pytest.approx(MiB / (80 * MiB), abs=1e-9)
        conn.close()

    rt.run(scenario)


def test_k_discontiguous_reads_charge_k_seeks():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        _seed(srv, "/pool/a", 4 * MiB)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL)
        offsets = [MiB, 0, 2 * MiB, 512 * KiB, 3 * MiB]  # all discontiguous
        t0 = rt.now()
        for off in offsets:
            _read_range(conn, 1, off, 4 * KiB, 4 * MiB)
        elapsed = rt.now() - t0
        modelled = len(offsets) * 0.008 + len(offsets) * 4 * KiB / (80 * MiB)
        assert elapsed >= len(offsets) * 0.008
        assert elapsed == pytest.approx(modelled, abs=1e-9)
        conn.close()

    rt.run(scenario)


# -- streams -----------------------------------------------------------------------


def test_readahead_stream_pushes_whole_file_in_order():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 2 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.READAHEAD,
                        iobufsize=128 * KiB)
        conn.send(wire.StreamStart(1, 0))
        got = bytearray()
        offsets = []
        while len(got) < size:
            chunk = conn.recv()
            offsets.append(chunk.offset)
            assert len(chunk.payload) <= 128 * KiB
            assert chunk.offset == len(got)
            got.extend(chunk.payload)
        assert bytes(got) == data
        assert offsets == list(range(0, size, 128 * KiB))
        _assert_quiet(rt, conn)  # the push ends silently at the end of file
        assert srv.sessions[1].bytes_sent_wire == size
        conn.close()

    rt.run(scenario)


def test_stream_from_eof_sends_nothing():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 256 * KiB
        _seed(srv, "/pool/a", size)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.READAHEAD)
        conn.send(wire.StreamStart(1, size))
        _assert_quiet(rt, conn)
        assert srv.sessions[1].bytes_sent_wire == 0
        conn.close()

    rt.run(scenario)


def test_stream_start_on_live_push_restarts_it():
    # a second StreamStart abandons the push in progress: what still arrives
    # of the old push lies within its in-flight allowance, and the new push
    # then delivers the file from its own offset to the end, in order
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 8 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.READAHEAD,
                        profile=WAN_PROFILE)
        conn.send(wire.StreamStart(1, 0))
        got = 0
        while got < MiB:
            got += len(conn.recv().payload)
        conn.send(wire.StreamStart(1, 4 * MiB))
        while True:
            msg = conn.recv()
            assert isinstance(msg, wire.DataChunk), msg
            if msg.offset >= 4 * MiB:
                break
            assert msg.offset < MiB + 16 * 128 * KiB
        tail = bytearray()
        while True:
            assert msg.offset == 4 * MiB + len(tail)
            tail.extend(msg.payload)
            if len(tail) == size - 4 * MiB:
                break
            msg = conn.recv()
        assert bytes(tail) == data[4 * MiB:]
        _assert_quiet(rt, conn)
        assert srv.counters["protocol_errors"] == 0
        conn.close()

    rt.run(scenario)


def test_stream_interrupt_waste_is_bounded():
    # consume 1 MiB then restart the push at the end of the file, which
    # stops it: the server may already have sent at most the 16-chunk
    # in-flight allowance beyond what was consumed, and consuming that
    # returns credits that a live push would use to send more
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 8 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.STREAM,
                           profile=WAN_PROFILE)
        dconn = net.connect(srv.address, WAN_PROFILE,
                            first_msg=wire.StreamStart(1, 0))
        got = bytearray()
        while len(got) < MiB:
            chunk = dconn.recv()
            got.extend(chunk.payload)
        control.send(wire.StreamStart(1, size))
        rt.sleep(2.0)
        assert bytes(got) == data[:len(got)]
        session = srv.sessions[1]
        sent = session.bytes_sent_wire
        allowance = 16 * wire.MAX_CHUNK_PAYLOAD
        assert MiB <= sent <= MiB + allowance
        while len(got) < sent:
            got.extend(dconn.recv().payload)
        assert bytes(got) == data[:sent]
        _assert_quiet(rt, dconn)
        assert session.bytes_sent_wire == sent  # nothing left after the stop
        control.close()
        dconn.close()
        rt.sleep(0.1)
        assert srv.sessions == {}
        assert session.bytes_sent_wire == sent

    rt.run(scenario)


@pytest.mark.parametrize("mode", [wire.ReadMode.READAHEAD,
                                  wire.ReadMode.STREAM],
                         ids=["readahead", "stream"])
def test_read_request_on_push_session_is_protocol_error(mode):
    # push sessions take no ReadRequest: it is refused, and the push it
    # arrives in the middle of goes on to deliver the whole file in order
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 4 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", mode, profile=WAN_PROFILE)
        if mode is wire.ReadMode.STREAM:
            pushed = net.connect(srv.address, WAN_PROFILE,
                                 first_msg=wire.StreamStart(1, 0))
        else:
            control.send(wire.StreamStart(1, 0))
            pushed = control
        got = bytearray()
        replies = []
        while len(got) < size:
            msg = pushed.recv()
            if isinstance(msg, wire.ErrorReply):
                replies.append(msg)
                continue
            assert msg.offset == len(got)
            got.extend(msg.payload)
            if len(got) == MiB:
                control.send(wire.ReadRequest(1, 3 * MiB, 128 * KiB))
        assert bytes(got) == data
        if mode is wire.ReadMode.STREAM:
            replies.append(control.recv())
        _assert_quiet(rt, pushed)
        assert [r.code for r in replies] == [wire.ErrorCode.PROTOCOL]
        assert srv.counters["protocol_errors"] == 1
        assert srv.sessions[1].bytes_sent_wire == size
        control.close()
        pushed.close()

    rt.run(scenario)


def test_stream_seek_restarts_at_new_offset():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 16 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.STREAM,
                           profile=WAN_PROFILE)
        dconn = net.connect(srv.address, WAN_PROFILE,
                            first_msg=wire.StreamStart(1, 0))
        got = 0
        while got < MiB:
            got += len(dconn.recv().payload)
        # the client's seek on a stream: one StreamStart at the target
        control.send(wire.StreamStart(1, 8 * MiB))
        # drain until the new stream shows up; old in-flight chunks all sit
        # below the consumed prefix plus the in-flight allowance
        while True:
            chunk = dconn.recv()
            if chunk.offset >= 8 * MiB:
                break
            assert chunk.offset < MiB + 16 * wire.MAX_CHUNK_PAYLOAD
        assert chunk.offset == 8 * MiB
        assert chunk.payload == data[8 * MiB:8 * MiB + len(chunk.payload)]
        control.close()
        dconn.close()

    rt.run(scenario)


def test_stream_session_holds_no_handler_task():
    # the data connection is handed to the session and the control
    # connection is served by a callback, so no handler task parks on
    # either: a streaming STREAM session runs only its reader and sender
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 4 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.STREAM,
                           profile=WAN_PROFILE)
        dconn = net.connect(srv.address, WAN_PROFILE,
                            first_msg=wire.StreamStart(1, 0))
        first = dconn.recv()
        assert first.payload == data[:len(first.payload)]
        assert (_server_getters(control), _server_getters(dconn)) == (1, 0)
        session = srv.sessions[1]
        control.close()
        dconn.close()
        rt.sleep(1.0)
        assert session.data_conn._closed and session.control_conn._closed
        assert _server_getters(control) == 0

    rt.run(scenario)


# -- control connection served by callback ------------------------------------


def _server_getters(conn) -> int:
    """Getters queued on the server end of conn: the one serve() loop on a
    live control connection, none on a data connection. A reply sent from
    inside the loop that called the loop again would queue a second."""
    return len(conn._peer._queue._getters)


def test_readbuf_requests_are_served_with_no_handler_task():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        data = _seed(srv, "/pool/a", MiB)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.READBUF,
                        iobufsize=16 * KiB, profile=WAN_PROFILE)
        for i in range(20):
            assert _server_getters(conn) == 1
            offset = i * 48 * KiB
            got = _read_range(conn, 1, offset, 20 * KiB, MiB)
            assert got == data[offset:offset + 20 * KiB]
        assert _server_getters(conn) == 1
        assert srv.counters["protocol_errors"] == 0
        conn.close()

    rt.run(scenario)


def test_stream_restarts_are_served_with_no_handler_task():
    # restart offsets off the chunk grid: only the new push can send them
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 4 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.STREAM,
                           profile=WAN_PROFILE)
        dconn = net.connect(srv.address, WAN_PROFILE,
                            first_msg=wire.StreamStart(1, 0))
        for target in (MiB + 7, 2 * MiB + 7, 3 * MiB + 7):
            dconn.recv()
            assert (_server_getters(control), _server_getters(dconn)) == (1, 0)
            control.send(wire.StreamStart(1, target))
            while (chunk := dconn.recv()).offset != target:
                pass
            assert chunk.payload == data[target:target + len(chunk.payload)]
        assert (_server_getters(control), _server_getters(dconn)) == (1, 0)
        assert srv.counters["protocol_errors"] == 0
        control.close()
        dconn.close()

    rt.run(scenario)


def test_control_hang_up_ends_the_session_from_the_callback():
    # while open, the session's callback is the only waiter on its control
    # connection; rtt/2 after the client hangs up it has ended the session
    # and left nothing waiting
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        _seed(srv, "/pool/a", MiB)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL,
                        profile=WAN_PROFILE)
        session = srv.sessions[1]
        queue = session.control_conn._queue
        assert _server_getters(conn) == 1
        conn.close()
        rt.sleep(WAN_PROFILE.rtt / 2 + 1e-9)
        assert srv.sessions == {}
        assert session.control_conn._closed
        assert not queue._getters
        rt.sleep(1.0)
        assert not rt._tasks and not queue._getters

    rt.run(scenario)


def test_refusal_after_the_open_goes_out_from_a_callback_of_its_own():
    # a ReadRequest on a push session is refused from a callback of its
    # own, not from the control loop, which would then be called again
    # once the refusal is out; nothing is spawned and the session serves on
    rt = VirtualRuntime()
    spawned = []
    spawn = rt.spawn

    def recording_spawn(fn, *args, name="task"):
        spawned.append(name)
        return spawn(fn, *args, name=name)

    rt.spawn = recording_spawn

    def scenario():
        net, srv = _mk_server(rt)
        data = _seed(srv, "/pool/a", MiB)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.READAHEAD,
                           profile=WAN_PROFILE)
        control.send(wire.ReadRequest(1, 0, 64 * KiB))
        err = control.recv()
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.PROTOCOL
        assert srv.counters["protocol_errors"] == 1
        rt.sleep(WAN_PROFILE.rtt)
        assert not spawned
        assert _server_getters(control) == 1
        control.send(wire.StreamStart(1, 0))
        chunk = control.recv()
        assert chunk.offset == 0
        assert chunk.payload == data[:len(chunk.payload)]
        control.close()

    rt.run(scenario)


def test_data_conn_with_unknown_handle_rejected():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        srv.start()
        conn = net.connect(srv.address, ZERO_PROFILE,
                           first_msg=wire.StreamStart(99, 0))
        err = conn.recv()
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.STALE_HANDLE
        conn.close()

    rt.run(scenario)


def _stream_start_on_control(mode):
    def case(net, srv):
        control, _ = _open(net, srv, "/pool/a", mode)
        control.send(wire.StreamStart(1, 0))
        return control, [control]
    return case


def _extra_data_conn(mode):
    # READAHEAD takes no data connection; STREAM takes exactly one
    def case(net, srv):
        control, _ = _open(net, srv, "/pool/a", mode)
        conns = [control]
        if mode is wire.ReadMode.STREAM:
            conns.append(net.connect(srv.address, ZERO_PROFILE,
                                     first_msg=wire.StreamStart(1, 0)))
        refused = net.connect(srv.address, ZERO_PROFILE,
                              first_msg=wire.StreamStart(1, 0))
        return refused, conns + [refused]
    return case


def _bad_first_message(net, srv):
    conn = net.connect(srv.address, ZERO_PROFILE,
                       first_msg=wire.ReadRequest(1, 0, KiB))
    return conn, [conn]


def _hang_up_before_first_message(net, srv):
    conn = net.connect(srv.address, ZERO_PROFILE)
    conn.close()
    return None, [conn]


@pytest.mark.parametrize("case", [
    _bad_first_message,
    _stream_start_on_control(wire.ReadMode.NORMAL),
    _stream_start_on_control(wire.ReadMode.READBUF),
    _stream_start_on_control(wire.ReadMode.STREAM),
    _extra_data_conn(wire.ReadMode.READAHEAD),
    _extra_data_conn(wire.ReadMode.STREAM),
    _hang_up_before_first_message,
], ids=["first-message-read-request", "stream-start-on-normal",
        "stream-start-on-readbuf", "stream-start-before-data-conn",
        "data-conn-for-readahead", "second-data-conn-for-stream",
        "hang-up-before-first-message"])
def test_protocol_refusals_leave_no_server_task(case):
    # each case returns the connection its refusal arrives on (None when
    # the client hung up first, so nothing can arrive) and every connection
    # it made; once those close, every server end is closed and no
    # callback is left waiting on one
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        _seed(srv, "/pool/a", MiB)
        srv.start()
        refused, conns = case(net, srv)
        if refused is None:
            rt.sleep(1.0)
            assert srv.counters["protocol_errors"] == 0
        else:
            err = refused.recv()
            assert isinstance(err, wire.ErrorReply)
            assert err.code == wire.ErrorCode.PROTOCOL
            assert srv.counters["protocol_errors"] == 1
        for conn in conns:
            conn.close()
        rt.sleep(1.0)
        assert srv.sessions == {}
        for conn in conns:
            assert conn._peer._closed and _server_getters(conn) == 0

    rt.run(scenario)


# -- shared bandwidth ---------------------------------------------------------------


def test_two_streams_fair_share_disk_bandwidth():
    # 80 MiB/s disk, two concurrent streams: each sees about 40 MiB/s
    rt = VirtualRuntime()
    rates = {}

    def scenario():
        net, srv = _mk_server(rt)
        size = 8 * MiB
        _seed(srv, "/pool/a", size, index=0)
        _seed(srv, "/pool/b", size, index=1)
        srv.start()

        def one_client(handle, path):
            control, _ = _open(net, srv, path, wire.ReadMode.STREAM,
                               handle=handle)
            dconn = net.connect(srv.address, ZERO_PROFILE,
                                first_msg=wire.StreamStart(handle, 0))
            t0 = rt.now()
            got = 0
            while got < size:
                got += len(dconn.recv().payload)
            rates[handle] = size / (rt.now() - t0)
            control.close()
            dconn.close()

        tasks = [rt.spawn(one_client, 1, "/pool/a", name="c1"),
                 rt.spawn(one_client, 2, "/pool/b", name="c2")]
        for t in tasks:
            rt.join(t)

    rt.run(scenario)
    for rate in rates.values():
        assert rate == pytest.approx(40 * MiB, rel=0.15)


def test_disk_shared_by_byte_whatever_the_slice_size():
    # a READBUF session with iobufsize 1 KiB reads a long range in 1 KiB
    # disk slices; a push session reads 256 KiB ones; each gets half the disk
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 16 * MiB
        _seed(srv, "/pool/a", size, index=0)
        _seed(srv, "/pool/b", size, index=1)
        srv.start()
        granted = {1: 0, 2: 0}
        acquire = srv._pump.acquire

        def logged_acquire(key, n):
            acquire(key, n)
            granted[key] += n

        srv._pump.acquire = logged_acquire

        def drain(conn):
            while True:
                conn.recv()

        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.READBUF,
                           iobufsize=KiB, handle=1)
        control.send(wire.ReadRequest(1, 0, size))
        rt.spawn(drain, control)
        _open(net, srv, "/pool/b", wire.ReadMode.STREAM, handle=2)
        rt.spawn(drain, net.connect(srv.address, ZERO_PROFILE,
                                    first_msg=wire.StreamStart(2, 0)))
        rt.sleep(0.1)  # both sessions are still reading
        return granted[1] / (granted[1] + granted[2])

    assert rt.run(scenario) == pytest.approx(0.5, abs=0.05)


def test_aggregate_disk_rate_never_exceeds_cap():
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        grants = []
        acquire = srv._pump.acquire

        def logged_acquire(key, n):
            acquire(key, n)
            grants.append((rt.now(), n))

        srv._pump.acquire = logged_acquire
        size = 32 * MiB
        for i in range(3):
            _seed(srv, f"/pool/f{i}", size, index=i)
        srv.start()

        def one_client(handle):
            control, _ = _open(net, srv, f"/pool/f{handle - 1}",
                               wire.ReadMode.STREAM, handle=handle)
            dconn = net.connect(srv.address, ZERO_PROFILE,
                                first_msg=wire.StreamStart(handle, 0))
            got = 0
            while got < size:
                got += len(dconn.recv().payload)
            control.close()
            dconn.close()

        tasks = [rt.spawn(one_client, h, name=f"c{h}") for h in (1, 2, 3)]
        for t in tasks:
            rt.join(t)

        cap = 80 * MiB
        total = sum(n for _, n in grants)
        elapsed = grants[-1][0] - grants[0][0]
        assert total / elapsed <= cap * 1.1
        # sliding 1 s windows stay under cap too
        for t_start, _ in grants[::16]:
            in_window = sum(n for t, n in grants
                            if t_start <= t < t_start + 1.0)
            assert in_window <= cap * 1.1

    rt.run(scenario)


def test_hang_up_ends_session_and_keeps_its_stats():
    # closing the control connection is the whole close: the server forgets
    # the session, closes its own end, and the session's counters stay
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        _seed(srv, "/pool/a", MiB)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL)
        _read_range(conn, 1, 0, 256 * KiB, MiB)
        session = srv.sessions[1]
        assert session.bytes_sent_wire == 256 * KiB
        conn.close()
        rt.sleep(0.01)
        assert srv.sessions == {}
        assert session.control_conn._closed  # the server hung up its end
        assert session.bytes_sent_wire == 256 * KiB
        assert srv.counters["protocol_errors"] == 0

    rt.run(scenario)


@pytest.mark.parametrize("mode", [wire.ReadMode.READAHEAD,
                                  wire.ReadMode.STREAM],
                         ids=["readahead", "stream"])
def test_hang_up_mid_push_ends_the_session(mode):
    # the client hangs up in the middle of a push, with no message first:
    # rtt/2 later the session is gone, its pipeline stops sending once the
    # chunks already on their way are out, and its tasks end without the
    # control handler waiting for them
    rt = VirtualRuntime()
    half_rtt = WAN_PROFILE.rtt / 2

    def scenario():
        net, srv = _mk_server(rt)
        size = 16 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", mode, profile=WAN_PROFILE)
        if mode is wire.ReadMode.STREAM:
            pushed = net.connect(srv.address, WAN_PROFILE,
                                 first_msg=wire.StreamStart(1, 0))
        else:
            control.send(wire.StreamStart(1, 0))
            pushed = control
        got = bytearray()
        while len(got) < MiB:
            got.extend(pushed.recv().payload)
        assert bytes(got) == data[:len(got)]
        session = srv.sessions[1]
        assert 0 < session.bytes_sent_wire < size  # still pushing
        control.close()
        pushed.close()
        rt.sleep(half_rtt + 1e-9)
        assert srv.sessions == {}
        rt.sleep(0.1)  # the chunks that were already being sent are out
        sent = session.bytes_sent_wire
        assert sent <= len(got) + 16 * wire.MAX_CHUNK_PAYLOAD
        rt.sleep(1.0)
        assert session.bytes_sent_wire == sent
        assert not rt._tasks

    rt.run(scenario)


def test_closing_the_data_connection_stops_the_push():
    # a STREAM client that hangs up only its data connection: the reader
    # stops charging the disk within a few chunks of what went out, though
    # the control connection and the session stay
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt)
        size = 64 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.STREAM,
                           profile=WAN_PROFILE)
        dconn = net.connect(srv.address, WAN_PROFILE,
                            first_msg=wire.StreamStart(1, 0))
        got = bytearray()
        while len(got) < MiB:
            got.extend(dconn.recv().payload)
        assert bytes(got) == data[:len(got)]
        dconn.close()
        rt.sleep(2.0)
        session = srv.sessions[1]
        sent = session.bytes_sent_wire
        assert sent <= len(got) + 16 * wire.MAX_CHUNK_PAYLOAD
        assert session.current_offset <= sent + 4 * wire.MAX_CHUNK_PAYLOAD
        rt.sleep(1.0)
        assert session.bytes_sent_wire == sent
        assert session.current_offset <= sent + 4 * wire.MAX_CHUNK_PAYLOAD
        control.close()
        rt.sleep(0.1)
        assert srv.sessions == {}

    rt.run(scenario)
