"""Disk server tests: pool, content fidelity, disk model, stream control."""

from __future__ import annotations

import numpy as np
import pytest

from remfio import wire
from remfio.content import checksum_bytes, content_chunks, file_content
from remfio.diskserver import DiskModel, DiskServer
from remfio.headnode import session_token
from remfio.netemu import WAN_PROFILE, ZERO_PROFILE, EmulatedNetwork
from remfio.runtime import VirtualRuntime

TOKEN = "shared-secret"
KiB = 1024
MiB = 1024 * 1024


def _mk_server(rt, tmp_path, *, disk=None):
    net = EmulatedNetwork(rt)
    srv = DiskServer(rt, net, pool_dir=tmp_path / "pool", shared_token=TOKEN,
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
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path)
    data_a = _seed(srv, "/pool/a", 300 * KiB, index=0)
    _seed(srv, "/pool/b", 77, index=1)
    assert srv.pool["/pool/a"].size == 300 * KiB
    assert srv.pool["/pool/a"].checksum == checksum_bytes(data_a)

    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path)
    assert set(srv2.pool) == {"/pool/a", "/pool/b"}
    assert srv2.pool["/pool/b"].size == 77
    with open(srv2.pool["/pool/a"].location, "rb") as f:
        assert f.read() == data_a


def test_seed_file_keeps_its_key_in_the_manifest(tmp_path):
    # seed_file writes and hashes the content as import_file would, and
    # records (seed, index) in a fifth column; import_file leaves it empty
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path)
    size = 300 * KiB
    seeded = srv.seed_file("/pool/s", 7, 3, size)
    imported = srv.import_file("/pool/i", content_chunks(7, 3, size))
    data = file_content(7, 3, size)
    assert seeded.location.read_bytes() == data
    assert (seeded.size, seeded.checksum) == (size, checksum_bytes(data))
    assert (imported.size, imported.checksum) == (size, checksum_bytes(data))
    assert (seeded.key, imported.key) == ((7, 3), None)
    rows = [line.split("\t") for line in
            (tmp_path / "pool" / "pool-manifest.tsv").read_text().splitlines()]
    assert [row[4] for row in rows] == ["7:3", ""]

    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path)
    assert srv2.pool == {"/pool/s": seeded, "/pool/i": imported}


def test_reimport_keeps_last_record(tmp_path):
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path)
    _seed(srv, "/pool/a", 100, index=0)
    newer = _seed(srv, "/pool/a", 200, index=5)
    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path)
    assert srv2.pool["/pool/a"].size == 200
    assert srv2.pool["/pool/a"].checksum == checksum_bytes(newer)


def test_import_checksum_mismatch_rejected(tmp_path):
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path)
    with pytest.raises(ValueError):
        srv.import_file("/pool/x", [b"abc"], checksum=1234)


def test_rejected_reimport_keeps_old_bytes_and_record(tmp_path):
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path)
    old = srv.import_file("/a", [b"old-bytes"])
    with pytest.raises(ValueError):
        srv.import_file("/a", [b"NEW"], checksum=123)
    assert srv.pool["/a"] == old
    assert old.location.read_bytes() == b"old-bytes"
    assert sorted(p.name for p in (tmp_path / "pool").iterdir()) == sorted(
        [old.location.name, "pool-manifest.tsv"])  # no partial file left
    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path)
    assert srv2.pool["/a"] == old
    assert srv2.pool["/a"].location.read_bytes() == b"old-bytes"


@pytest.mark.parametrize("char", ["\t", "\n", "\r"],
                         ids=["tab", "newline", "return"])
def test_import_rejects_manifest_separators_in_path(tmp_path, char):
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path)
    srv.import_file("/pool/ok", [b"ok"])
    with pytest.raises(ValueError):
        srv.import_file(f"/pool/a{char}b", [b"abc"])
    assert set(srv.pool) == {"/pool/ok"}
    rt2 = VirtualRuntime()
    _, srv2 = _mk_server(rt2, tmp_path)  # the pool still reloads
    assert set(srv2.pool) == {"/pool/ok"}


@pytest.mark.parametrize("kind", [memoryview, bytearray, bytes])
def test_import_accepts_bytes_like_chunks(tmp_path, kind):
    # content_chunks yields memoryviews; any bytes-like chunk gives the
    # same pool bytes and checksum
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path)
    size = 2 * MiB + 5
    data = file_content(3, 2, size)
    chunks = [kind(c) for c in content_chunks(3, 2, size)]
    pf = srv.import_file("/pool/a", chunks, checksum=checksum_bytes(data))
    assert pf.size == size
    assert pf.location.read_bytes() == data
    cut = [kind(data[i:i + 333 * KiB]) for i in range(0, size, 333 * KiB)]
    other = srv.import_file("/pool/b", cut)
    assert (other.size, other.checksum) == (size, pf.checksum)
    assert other.location.read_bytes() == data


def test_import_counts_bytes_of_a_wide_memoryview(tmp_path):
    rt = VirtualRuntime()
    _, srv = _mk_server(rt, tmp_path)
    words = np.arange(3, dtype="<u8")
    pf = srv.import_file("/pool/w", [memoryview(words)])
    assert pf.size == 24
    assert pf.checksum == checksum_bytes(words.tobytes())
    assert pf.location.read_bytes() == words.tobytes()


# -- open path -------------------------------------------------------------------


def test_open_and_first_read_checksum_verified(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        data = _seed(srv, "/pool/a", 4 * MiB)
        srv.start()
        conn, reply = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL)
        assert reply == wire.OpenReply(1, 4 * MiB)
        got = _read_range(conn, 1, 0, 128 * KiB, 4 * MiB)
        assert got == data[:128 * KiB]
        assert checksum_bytes(got) == checksum_bytes(data[:128 * KiB])
        conn.close()

    rt.run(scenario)


def test_open_bad_token_rejected(tmp_path):
    # a forged mac, and heads that str.isdigit() accepts but that are no
    # u64 handle id: each is refused, none crashes the server
    for i, head in enumerate(["1", "\u00b2", str(1 << 64)]):
        rt = VirtualRuntime()

        def scenario():
            net, srv = _mk_server(rt, tmp_path / str(i))
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


def test_open_unknown_pool_file_stale_replica(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        srv.start()
        conn, err = _open(net, srv, "/pool/ghost", wire.ReadMode.NORMAL)
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.STALE_REPLICA
        conn.close()

    rt.run(scenario)


def test_same_handle_twice_is_protocol_error(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_eof_clamp_and_empty_reads(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        size = 1 * MiB + 10
        data = _seed(srv, "/pool/a", size)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL)
        got = _read_range(conn, 1, size - 10, MiB, size)
        assert got == data[-10:]
        assert _read_range(conn, 1, size, 4 * KiB, size) == b""
        conn.close()

    rt.run(scenario)


def test_two_sessions_keep_independent_offsets(tmp_path):
    # interleaved reads from two handles on the same file never interfere
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_sequential_read_costs_only_bandwidth_time(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_k_discontiguous_reads_charge_k_seeks(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_readahead_stream_pushes_whole_file_in_order(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_stream_from_eof_sends_nothing(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        size = 256 * KiB
        _seed(srv, "/pool/a", size)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.READAHEAD)
        conn.send(wire.StreamStart(1, size))
        _assert_quiet(rt, conn)
        assert srv.sessions[1].bytes_sent_wire == 0
        conn.close()

    rt.run(scenario)


def test_stream_start_on_live_push_restarts_it(tmp_path):
    # a second StreamStart abandons the push in progress: what still arrives
    # of the old push lies within its in-flight allowance, and the new push
    # then delivers the file from its own offset to the end, in order
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_stream_interrupt_waste_is_bounded(tmp_path):
    # consume 1 MiB then restart the push at the end of the file, which
    # stops it: the server may already have sent at most the 16-chunk
    # in-flight allowance beyond what was consumed, and consuming that
    # returns credits that a live push would use to send more
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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
def test_read_request_on_push_session_is_protocol_error(tmp_path, mode):
    # push sessions take no ReadRequest: it is refused, and the push it
    # arrives in the middle of goes on to deliver the whole file in order
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_stream_seek_restarts_at_new_offset(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_stream_session_holds_no_handler_task(tmp_path):
    # the data connection is handed to the session and the control
    # connection is served by a callback, so no handler task parks on
    # either: a streaming STREAM session runs only its reader and sender
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        size = 4 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.STREAM,
                           profile=WAN_PROFILE)
        dconn = net.connect(srv.address, WAN_PROFILE,
                            first_msg=wire.StreamStart(1, 0))
        first = dconn.recv()
        assert first.payload == data[:len(first.payload)]
        handlers = [t.name for t in rt._tasks
                    if t.name.startswith(f"srv-{srv.address}-")]
        assert len(handlers) == 0
        session = srv.sessions[1]
        control.close()
        dconn.close()
        rt.sleep(1.0)
        assert session.data_conn.closed
        assert not [t for t in rt._tasks if t.name.startswith("srv-")]

    rt.run(scenario)


# -- control connection served by callback ------------------------------------


def _handler_tasks(rt) -> list:
    return [t.name for t in rt._tasks if t.name.startswith("srv-")]


def test_readbuf_requests_are_served_with_no_handler_task(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        data = _seed(srv, "/pool/a", MiB)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.READBUF,
                        iobufsize=16 * KiB, profile=WAN_PROFILE)
        for i in range(20):
            assert not _handler_tasks(rt)
            offset = i * 48 * KiB
            got = _read_range(conn, 1, offset, 20 * KiB, MiB)
            assert got == data[offset:offset + 20 * KiB]
        assert not _handler_tasks(rt)
        assert srv.counters["protocol_errors"] == 0
        conn.close()

    rt.run(scenario)


def test_stream_restarts_are_served_with_no_handler_task(tmp_path):
    # restart offsets off the chunk grid: only the new push can send them
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        size = 4 * MiB
        data = _seed(srv, "/pool/a", size)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.STREAM,
                           profile=WAN_PROFILE)
        dconn = net.connect(srv.address, WAN_PROFILE,
                            first_msg=wire.StreamStart(1, 0))
        for target in (MiB + 7, 2 * MiB + 7, 3 * MiB + 7):
            dconn.recv()
            assert not _handler_tasks(rt)
            control.send(wire.StreamStart(1, target))
            while (chunk := dconn.recv()).offset != target:
                pass
            assert chunk.payload == data[target:target + len(chunk.payload)]
        assert not _handler_tasks(rt)
        assert srv.counters["protocol_errors"] == 0
        control.close()
        dconn.close()

    rt.run(scenario)


def test_control_hang_up_ends_the_session_from_the_callback(tmp_path):
    # while open, the session's callback is the only waiter on its control
    # connection; rtt/2 after the client hangs up it has ended the session
    # and left nothing waiting
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        _seed(srv, "/pool/a", MiB)
        srv.start()
        conn, _ = _open(net, srv, "/pool/a", wire.ReadMode.NORMAL,
                        profile=WAN_PROFILE)
        session = srv.sessions[1]
        queue = session.control_conn._queue
        assert not _handler_tasks(rt)
        assert len(queue._getters) == 1
        conn.close()
        rt.sleep(WAN_PROFILE.rtt / 2 + 1e-9)
        assert srv.sessions == {}
        assert session.control_conn._closed
        assert not queue._getters
        rt.sleep(1.0)
        assert not [t.name for t in rt._tasks if t.name.startswith("ds-")]
        assert session._fh.closed

    rt.run(scenario)


def test_refusal_after_the_open_goes_out_from_a_short_task(tmp_path):
    # a ReadRequest on a push session is refused from a task of its own,
    # which ends once the refusal is out; the session serves on
    rt = VirtualRuntime()
    refusers = []
    spawn = rt.spawn

    def recording_spawn(fn, *args, name="task"):
        task = spawn(fn, *args, name=name)
        if name.startswith("ds-refuse-"):
            refusers.append(task)
        return task

    rt.spawn = recording_spawn

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
        data = _seed(srv, "/pool/a", MiB)
        srv.start()
        control, _ = _open(net, srv, "/pool/a", wire.ReadMode.READAHEAD,
                           profile=WAN_PROFILE)
        control.send(wire.ReadRequest(1, 0, 64 * KiB))
        err = control.recv()
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.PROTOCOL
        assert srv.counters["protocol_errors"] == 1
        assert [t.name for t in refusers] == ["ds-refuse-1"]
        assert refusers[0].finished and refusers[0].exc is None
        assert not _handler_tasks(rt)
        control.send(wire.StreamStart(1, 0))
        chunk = control.recv()
        assert chunk.offset == 0
        assert chunk.payload == data[:len(chunk.payload)]
        control.close()

    rt.run(scenario)


def test_data_conn_with_unknown_handle_rejected(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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
    return None, []


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
def test_protocol_refusals_leave_no_server_task(tmp_path, case):
    # each case returns the connection its refusal arrives on (None when
    # the client hung up first, so nothing can arrive) and every connection
    # it made; once those close, no handler or pipeline task is left
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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
        assert not [t.name for t in rt._tasks
                    if t.name.startswith(("srv-", "ds-"))]

    rt.run(scenario)


# -- shared bandwidth ---------------------------------------------------------------


def test_two_streams_fair_share_disk_bandwidth(tmp_path):
    # 80 MiB/s disk, two concurrent streams: each sees about 40 MiB/s
    rt = VirtualRuntime()
    rates = {}

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_disk_shared_by_byte_whatever_the_slice_size(tmp_path):
    # a READBUF session with iobufsize 1 KiB reads a long range in 1 KiB
    # disk slices; a push session reads 256 KiB ones; each gets half the disk
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_aggregate_disk_rate_never_exceeds_cap(tmp_path):
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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


def test_hang_up_ends_session_and_keeps_its_stats(tmp_path):
    # closing the control connection is the whole close: the server forgets
    # the session, closes its own end, and the session's counters stay
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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
def test_hang_up_mid_push_ends_the_session(tmp_path, mode):
    # the client hangs up in the middle of a push, with no message first:
    # rtt/2 later the session is gone, its pipeline stops sending once the
    # chunks already on their way are out, and its tasks end and its file
    # closes without the control handler waiting for them
    rt = VirtualRuntime()
    half_rtt = WAN_PROFILE.rtt / 2

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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
        assert not [t.name for t in rt._tasks
                    if t.name in ("ds-read-1", "ds-send-1")]
        assert session._fh.closed

    rt.run(scenario)


def test_closing_the_data_connection_stops_the_push(tmp_path):
    # a STREAM client that hangs up only its data connection: the reader
    # stops charging the disk within a few chunks of what went out, though
    # the control connection and the session stay
    rt = VirtualRuntime()

    def scenario():
        net, srv = _mk_server(rt, tmp_path)
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
