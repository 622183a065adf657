"""Client library tests: mode contracts, counters, seek semantics, errors.

Every test runs the full stack (headnode + disk server + client) inside one
virtual-time universe, with file content generated from a seeded counter RNG
so expected bytes are computable without touching the pool files.
"""

from __future__ import annotations

import array
import random

import numpy as np
import pytest

from remfio import content, diskserver
from remfio.client import (
    ClientConfig,
    _address,
    _joined,
    rf_close,
    rf_open,
    rf_read,
    rf_seek,
)
from remfio.content import BLOCK, content_range, file_content
from remfio.diskserver import DiskModel, DiskServer
from remfio.errors import (
    AuthError,
    ConnectionClosedError,
    EncodeError,
    HandleBusyError,
    NotFoundError,
    ProtocolError,
    QueueOverflowError,
    RangeError,
    StaleHandleError,
    StaleReplicaError,
    TransportError,
)
from remfio.headnode import Headnode, OpenQueueModel
from remfio.netemu import (
    DATA_CREDITS,
    WAN_PROFILE,
    ZERO_PROFILE,
    EmulatedNetwork,
    LinkProfile,
)
from remfio.runtime import VirtualRuntime
from remfio.wire import (
    MAX_CHUNK_PAYLOAD,
    DataChunk,
    NsLookupReply,
    OpenReply,
    ReadMode,
    StreamStart,
)

TOKEN = "shared-secret"
KiB = 1024
MiB = 1024 * 1024
SERVICE = 0.050  # headnode per-open service time
ALL_MODES = [ReadMode.NORMAL, ReadMode.READBUF, ReadMode.READAHEAD,
             ReadMode.STREAM]


def _stack(rt, pool_dir, files, *, queue_model=None, disk=None):
    """Start a headnode and one disk server; seed and register `files`.

    pool_dir: the server's, None for a pool that writes no file. files:
    iterable of (path, size); each is seeded with seed_file from seed 1,
    index = its position in the list, so sessions serve it from the seed's
    tile. Returns (net, head, srv, {path: bytes}).
    """
    net = EmulatedNetwork(rt)
    head = Headnode(rt, net, shared_token=TOKEN,
                    queue_model=queue_model or OpenQueueModel())
    head.start()
    srv = DiskServer(rt, net, pool_dir=pool_dir, shared_token=TOKEN,
                     disk=disk or DiskModel())
    srv.start()
    contents = {}
    for index, (path, size) in enumerate(files):
        pf = srv.seed_file(path, 1, index, size)
        head.register_file(path, size, srv.address, pf.checksum)
        contents[path] = file_content(1, index, size)
    return net, head, srv, contents


def _config(rt, net, mode, **kw):
    kw.setdefault("profile", ZERO_PROFILE)
    return ClientConfig(rt, net, token=TOKEN, mode=mode, **kw)


# -- open path ----------------------------------------------------------------


def test_open_reports_size_and_costs_service_time():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", 64 * KiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        assert h.file_size == 64 * KiB
        assert h.logical_position == 0
        # zero-rtt profile: open time is exactly the brokering service time
        assert h.counters.open_time == pytest.approx(SERVICE, abs=1e-9)
        rf_close(h)

    rt.run(scenario)


@pytest.mark.parametrize("mode,legs", [
    (ReadMode.NORMAL, 3),
    (ReadMode.READBUF, 3),
    (ReadMode.READAHEAD, 3),
    (ReadMode.STREAM, 4),  # extra round trip to set up the data connection
])
def test_open_time_counts_connection_legs(mode, legs):
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", 256 * KiB)])
        h = rf_open("/pool/a", _config(rt, net, mode, profile=WAN_PROFILE))
        expected = legs * WAN_PROFILE.rtt + SERVICE
        assert h.counters.open_time == pytest.approx(expected, rel=1e-4)
        rf_close(h)

    rt.run(scenario)


def test_open_unknown_path_raises_not_found():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [])
        with pytest.raises(NotFoundError):
            rf_open("/pool/ghost", _config(rt, net, ReadMode.NORMAL))

    rt.run(scenario)


def test_unencodable_path_leaves_no_server_task():
    # the lookup riding the handshake cannot be encoded, so the connect
    # fails before the headnode's handler is started
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [])
        cfg = _config(rt, net, ReadMode.NORMAL)
        for _ in range(3):
            with pytest.raises(EncodeError):
                rf_open("/bad\ud800", cfg)
        return list(rt._heap)  # no starter's timer, nor anything else

    assert rt.run(scenario) == []


def test_open_wrong_token_raises_auth():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", KiB)])
        cfg = ClientConfig(rt, net, token="wrong", mode=ReadMode.NORMAL)
        with pytest.raises(AuthError):
            rf_open("/pool/a", cfg)

    rt.run(scenario)


def test_reply_of_the_wrong_type_raises_protocol_error():
    # a replica that answers the session open with a namespace reply: the
    # client raises at once and hangs up, rather than waiting for more
    rt = VirtualRuntime()
    hung_up = []

    def replica(conn):
        conn.recv()
        conn.send(NsLookupReply("fake:1", KiB, 0))
        with pytest.raises(ConnectionClosedError):
            conn.recv()
        hung_up.append(rt.now())

    def scenario():
        net, head, _, _ = _stack(rt, None, [])
        net.listen("fake:1", replica)
        head.register_file("/pool/a", KiB, "fake:1", 0)
        with pytest.raises(ProtocolError, match="expected OpenReply"):
            rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        rt.sleep(1.0)
        assert hung_up

    rt.run(scenario)


def test_a_chunk_with_bytes_at_eof_raises_protocol_error():
    # a replica that answers a NORMAL read at EOF with bytes instead of the
    # one empty chunk: the client raises rather than return bytes past EOF
    rt = VirtualRuntime()

    def replica(conn):
        conn.recv()
        conn.send(OpenReply(7, KiB))
        request = conn.recv()
        assert conn.try_reserve_data_credit()
        conn.send(DataChunk(7, request.offset, b"x"), credit_reserved=True)

    def scenario():
        net, head, _, _ = _stack(rt, None, [])
        net.listen("fake:1", replica)
        head.register_file("/pool/a", KiB, "fake:1", 0)
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        rf_seek(h, KiB)
        with pytest.raises(ProtocolError, match="empty chunk at EOF"):
            rf_read(h, 64)
        rf_close(h)

    rt.run(scenario)


def test_client_config_keeps_its_documented_defaults():
    # the README's 128 KiB buffer, a window equal to the WAN profile's
    # 1 MiB, and the headnode's conventional ports
    cfg = ClientConfig(runtime=None, network=None)
    assert (cfg.headnode, cfg.token, cfg.mode) == ("head", "", ReadMode.NORMAL)
    assert cfg.iobufsize == 128 * KiB
    assert cfg.emulated_window == MiB == WAN_PROFILE.per_connection_window
    assert cfg.profile is WAN_PROFILE
    assert (cfg.ns_port, cfg.open_port) == (5010, 5015)


def test_open_queue_overflow_surfaces_to_caller():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(
            rt, None, [("/pool/a", KiB)],
            queue_model=OpenQueueModel(queue_cap=1))
        outcome = []

        def opener():
            try:
                h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
                outcome.append("ok")
                rf_close(h)
            except QueueOverflowError:
                outcome.append("rejected")

        tasks = [rt.spawn(opener, name=f"open-{i}") for i in range(3)]
        for t in tasks:
            rt.join(t)
        # all three arrive while the first is in service: two bounced
        assert sorted(outcome) == ["ok", "rejected", "rejected"]

    rt.run(scenario)


# -- NORMAL mode ----------------------------------------------------------------


def test_normal_one_request_per_read_and_no_prefetch():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 16 * MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        data = contents["/pool/a"]
        for i in range(16):
            block = rf_read(h, MiB)
            assert block == data[i * MiB:(i + 1) * MiB]
            # wire grows by exactly what the call returned: no buffering
            assert h.counters.bytes_wire == (i + 1) * MiB
        assert h.request_count == 16
        c = rf_close(h)
        assert c.bytes_consumed == c.bytes_wire == 16 * MiB

    rt.run(scenario)


def test_normal_reads_at_eof_still_issue_requests():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 100)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        assert rf_read(h, 64) == contents["/pool/a"][:64]
        assert rf_read(h, 64) == contents["/pool/a"][64:]  # short at EOF
        assert rf_read(h, 64) == b""
        assert rf_read(h, 64) == b""
        assert h.request_count == 4
        assert h.counters.bytes_consumed == 100
        rf_close(h)

    rt.run(scenario)


def test_normal_skip_pattern_has_zero_waste():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 8 * MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        data = contents["/pool/a"]
        pos = 0
        while pos < 8 * MiB:
            rf_seek(h, pos)
            assert rf_read(h, 256 * KiB) == data[pos:pos + 256 * KiB]
            pos += MiB
        c = rf_close(h)
        assert c.bytes_wire == c.bytes_consumed == 8 * 256 * KiB

    rt.run(scenario)


def test_normal_read_time_is_disk_bound_on_free_link():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        rf_read(h, MiB)
        # zero-rtt, infinite-bandwidth link: only the disk pump charges time
        assert h.counters.read_time == pytest.approx(
            MiB / (80 * MiB), abs=1e-9)
        c = rf_close(h)
        assert c.rate * (c.open_time + c.read_time) == pytest.approx(
            c.bytes_consumed, rel=1e-9)

    rt.run(scenario)


# -- READBUF mode ----------------------------------------------------------------


def test_readbuf_fill_law_sequential():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 16 * MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READBUF, iobufsize=128 * KiB))
        out = bytearray()
        while True:
            block = rf_read(h, MiB)
            if not block:
                break
            out += block
        assert bytes(out) == contents["/pool/a"]
        assert h.request_count == 128  # 16 MiB / 128 KiB fills
        c = rf_close(h)
        assert c.bytes_wire == 16 * MiB

    rt.run(scenario)


def test_readbuf_buffer_hit_causes_no_traffic():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READBUF, iobufsize=128 * KiB))
        data = contents["/pool/a"]
        assert rf_read(h, KiB) == data[:KiB]
        assert rf_read(h, KiB) == data[KiB:2 * KiB]
        rf_seek(h, 100 * KiB)  # still inside the first fill
        assert rf_read(h, KiB) == data[100 * KiB:101 * KiB]
        assert h.request_count == 1
        assert h.counters.bytes_wire == 128 * KiB
        rf_close(h)

    rt.run(scenario)


def test_readbuf_fill_clamped_at_eof():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 100 * KiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READBUF, iobufsize=128 * KiB))
        assert rf_read(h, 1) == contents["/pool/a"][:1]
        assert h.counters.bytes_wire == 100 * KiB  # whole file, not 128 KiB
        assert rf_read(h, 200 * KiB) == contents["/pool/a"][1:]
        assert h.request_count == 1
        rf_close(h)

    rt.run(scenario)


def test_readbuf_seek_outside_buffer_invalidates():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 4 * MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READBUF, iobufsize=128 * KiB))
        data = contents["/pool/a"]
        rf_read(h, KiB)
        rf_seek(h, 2 * MiB)
        assert rf_read(h, KiB) == data[2 * MiB:2 * MiB + KiB]
        rf_seek(h, 0)  # backward, outside the live buffer again
        assert rf_read(h, KiB) == data[:KiB]
        assert h.request_count == 3
        assert h.counters.bytes_wire == 3 * 128 * KiB
        rf_close(h)

    rt.run(scenario)


def test_readbuf_oversized_buffer_on_skip_pattern_wastes_wire():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 64 * MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READBUF, iobufsize=8 * MiB))
        data = contents["/pool/a"]
        pos = 0
        while pos < 64 * MiB:
            rf_seek(h, pos)
            assert rf_read(h, MiB) == data[pos:pos + MiB]
            pos += 10 * MiB  # read 1 MiB, skip 9 MiB
        c = rf_close(h)
        # fills: 8 MiB at each of 0,10,...,50 MiB; EOF-clamped 4 MiB at 60
        assert c.bytes_consumed == 7 * MiB
        assert c.bytes_wire == 6 * 8 * MiB + 4 * MiB
        assert c.bytes_wire - c.bytes_consumed >= 5 * c.bytes_consumed

    rt.run(scenario)


# -- READAHEAD mode ---------------------------------------------------------------


def test_readahead_sequential_never_requests():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 4 * MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READAHEAD, iobufsize=128 * KiB))
        out = bytearray()
        while True:
            block = rf_read(h, 100 * KiB)
            if not block:
                break
            out += block
            assert len(h._buf) <= h.iobufsize  # buffer bound invariant
        assert bytes(out) == contents["/pool/a"]
        assert h.request_count == 0  # the push satisfied every read
        c = rf_close(h)
        assert c.bytes_wire == c.bytes_consumed == 4 * MiB  # zero waste

    rt.run(scenario)


def test_readahead_forward_seek_discards_pushed_bytes():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 8 * MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READAHEAD, iobufsize=128 * KiB))
        data = contents["/pool/a"]
        assert rf_read(h, 128 * KiB) == data[:128 * KiB]
        rf_seek(h, 4 * MiB)
        assert rf_read(h, 128 * KiB) == data[4 * MiB:4 * MiB + 128 * KiB]
        assert h.request_count == 0
        # every pushed byte up to the end of the second read arrived once
        assert h.counters.bytes_wire == 4 * MiB + 128 * KiB
        assert h.counters.bytes_consumed == 256 * KiB
        rf_close(h)

    rt.run(scenario)


def test_readahead_backward_seek_restarts_stream():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 2 * MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READAHEAD, iobufsize=128 * KiB))
        data = contents["/pool/a"]
        assert rf_read(h, 256 * KiB) == data[:256 * KiB]
        rf_seek(h, 64 * KiB)
        assert rf_read(h, 256 * KiB) == data[64 * KiB:320 * KiB]
        assert h.request_count == 0
        rf_close(h)

    rt.run(scenario)


def test_readahead_seek_within_buffer_is_free():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READAHEAD, iobufsize=128 * KiB))
        data = contents["/pool/a"]
        rf_read(h, 64 * KiB)  # buffer now holds [0, 128 KiB)
        wire_before = h.counters.bytes_wire
        rf_seek(h, 32 * KiB)
        assert rf_read(h, 16 * KiB) == data[32 * KiB:48 * KiB]
        assert h.counters.bytes_wire == wire_before
        rf_close(h)

    rt.run(scenario)


def test_readahead_reread_after_eof():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 512 * KiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, ReadMode.READAHEAD, iobufsize=128 * KiB))
        data = contents["/pool/a"]
        assert rf_read(h, MiB) == data  # short read: whole file
        assert rf_read(h, MiB) == b""
        rf_seek(h, 0)
        assert rf_read(h, 64 * KiB) == data[:64 * KiB]
        rf_close(h)

    rt.run(scenario)


# -- STREAM mode -----------------------------------------------------------------


def test_stream_sequential_never_requests():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 4 * MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.STREAM))
        out = bytearray()
        while True:
            block = rf_read(h, 512 * KiB)
            if not block:
                break
            out += block
        assert bytes(out) == contents["/pool/a"]
        assert h.request_count == 0
        c = rf_close(h)
        assert c.bytes_wire == c.bytes_consumed == 4 * MiB

    rt.run(scenario)


def test_stream_seeks_restart_in_both_directions():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 4 * MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.STREAM))
        data = contents["/pool/a"]
        assert rf_read(h, 64 * KiB) == data[:64 * KiB]
        rf_seek(h, 2 * MiB)
        assert rf_read(h, 64 * KiB) == data[2 * MiB:2 * MiB + 64 * KiB]
        rf_seek(h, MiB)
        assert rf_read(h, 64 * KiB) == data[MiB:MiB + 64 * KiB]
        rf_seek(h, 4 * MiB)  # EOF is a legal target
        assert rf_read(h, 64 * KiB) == b""
        rf_close(h)

    rt.run(scenario)


def test_stream_restart_sends_one_control_frame_and_close_none():
    # a restart is one StreamStart; a close sends nothing on either
    # connection, and returns at the virtual instant it was called
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 4 * MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.STREAM,
                                       profile=WAN_PROFILE))
        data = contents["/pool/a"]
        sent = []

        def counting(send):
            def counted_send(msg, **kw):
                sent.append(msg)
                send(msg, **kw)
            return counted_send

        h._control.send = counting(h._control.send)
        h._data.send = counting(h._data.send)
        assert rf_read(h, 64 * KiB) == data[:64 * KiB]
        rf_seek(h, 2 * MiB)
        assert sent == [StreamStart(h.handle_id, 2 * MiB)]
        assert rf_read(h, 64 * KiB) == data[2 * MiB:2 * MiB + 64 * KiB]
        t0 = rt.now()
        rf_close(h)
        assert rt.now() == t0
        assert sent == [StreamStart(h.handle_id, 2 * MiB)]

    rt.run(scenario)


def test_stream_bytes_wire_is_exact_after_a_seek_that_waits():
    # a seek's StreamStart waits for its share of a client-to-server link
    # that bulk senders keep busy, while the old push's chunks still arrive
    # on the other direction: bytes_wire counts them as soon as the seek
    # returns, though no read ran, and stops changing at close
    rt = VirtualRuntime()
    slow = LinkProfile("slow", rtt=0.012, shared_bandwidth=2 * MiB,
                       per_connection_window=MiB)

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 8 * MiB)])
        net.accept("sink", lambda conn: conn.serve(lambda msg: None))

        def flood():
            conn = net.connect("sink", slow)
            for i in range(8):
                assert conn.try_reserve_data_credit()
                conn.send(DataChunk(0, i, bytes(MAX_CHUNK_PAYLOAD)),
                          credit_reserved=True)

        h = rf_open("/pool/a", _config(rt, net, ReadMode.STREAM,
                                       profile=slow))
        assert rf_read(h, 64 * KiB) == contents["/pool/a"][:64 * KiB]
        rt.spawn(flood, name="flood")
        rt.sleep(0.1)  # the flood holds the link
        t0, arrived = rt.now(), h._data.delivered_payload
        rf_seek(h, 4 * MiB)
        assert rt.now() > t0  # the StreamStart waited ...
        assert h._data.delivered_payload > arrived  # ... as chunks came in
        wire = h._control.delivered_payload + h._data.delivered_payload
        assert h.counters.bytes_wire == wire
        assert h.counters.bytes_consumed == 64 * KiB
        counters = rf_close(h)
        assert counters.bytes_wire == wire
        rt.sleep(1.0)
        assert h.counters is counters and counters.bytes_wire == wire

    rt.run(scenario)


@pytest.mark.parametrize("profile", [ZERO_PROFILE, WAN_PROFILE],
                         ids=lambda p: p.name)
def test_stream_intake_is_bounded_by_credits(profile):
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 16 * MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.STREAM,
                                       profile=profile))
        assert rf_read(h, MiB) == contents["/pool/a"][:MiB]
        rt.sleep(5.0)  # plenty of time for an unbounded reader to drain all
        c = rf_close(h)
        # intake stalls once the server has sent the DATA_CREDITS chunks
        # the reader has not consumed
        assert c.bytes_consumed == MiB
        assert MiB <= c.bytes_wire <= MiB + DATA_CREDITS * 256 * KiB

    rt.run(scenario)


def test_stream_open_spawns_no_more_tasks_than_readahead():
    def live_tasks_after_open(mode):
        rt = VirtualRuntime()

        def scenario():
            net, _, _, _ = _stack(rt, None, [("/pool/a", 4 * MiB)])
            h = rf_open("/pool/a", _config(rt, net, mode))
            rt.sleep(0.001)  # let the server's connection handlers settle
            names = sorted(t.name for t in rt._tasks)
            rf_close(h)
            return names

        return rt.run(scenario)

    stream = live_tasks_after_open(ReadMode.STREAM)
    readahead = live_tasks_after_open(ReadMode.READAHEAD)
    assert len(stream) == len(readahead), (stream, readahead)


# -- position correctness ----------------------------------------------------------


@pytest.mark.parametrize("mode", ALL_MODES)
def test_one_byte_read_correct_after_any_seek(mode):
    rt = VirtualRuntime()
    size = 3 * MiB + 17

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", size)])
        h = rf_open("/pool/a", _config(rt, net, mode, iobufsize=128 * KiB))
        data = contents["/pool/a"]
        offsets = [17, 2 * MiB, 0, MiB - 1, size - 1, 128 * KiB, size,
                   64 * KiB, 64 * KiB + 1]
        for off in offsets:
            assert rf_seek(h, off) == off
            got = rf_read(h, 1)
            assert got == data[off:off + 1]
            assert h.logical_position == min(off + 1, size)
        rf_close(h)

    rt.run(scenario)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_random_scripts_match_local_file(mode):
    rt = VirtualRuntime()
    size = MiB

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", size)])
        data = contents["/pool/a"]
        rng = random.Random(77)
        for script in range(6):
            h = rf_open("/pool/a",
                        _config(rt, net, mode, iobufsize=64 * KiB))
            pos = 0
            for _ in range(12):
                if rng.random() < 0.4:
                    pos = rng.randrange(size + 1)
                    rf_seek(h, pos)
                n = rng.randrange(1, 96 * KiB)
                assert rf_read(h, n) == data[pos:pos + n]
                pos = min(pos + n, size)
            rf_close(h)

    rt.run(scenario)


# scripts of reads and seeks on a 1 MiB file, pushed in four 256 KiB chunks:
# reads from a chunk's first byte that end inside it, at its end and one
# byte past it; a read to EOF and one at EOF; and seeks backward and forward
# after a wait has let pushed chunks queue up, so that a chunk from before a
# restart, or one that a forward seek skips, arrives first
_CHUNK = 256 * KiB
_PUSH_SCRIPTS = {
    "sequential": [("read", 100 * KiB), ("read", 156 * KiB),
                   ("read", _CHUNK), ("read", _CHUNK + 1), ("read", MiB),
                   ("read", 10)],
    "seeks": [("read", _CHUNK + KiB), ("wait", 0.1), ("seek", 0),
              ("read", 100 * KiB), ("wait", 0.1), ("seek", 3 * _CHUNK),
              ("read", _CHUNK), ("seek", _CHUNK), ("seek", 2 * _CHUNK),
              ("read", _CHUNK + 1), ("read", MiB), ("seek", MiB),
              ("read", 5)],
}


@pytest.mark.parametrize("script", sorted(_PUSH_SCRIPTS))
@pytest.mark.parametrize("profile", [ZERO_PROFILE, WAN_PROFILE],
                         ids=["zero", "wan"])
@pytest.mark.parametrize("mode", [ReadMode.READAHEAD, ReadMode.STREAM])
def test_push_reads_from_a_chunk_start_are_exact(mode, profile, script):
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", MiB)])
        data = file_content(1, 0, MiB)
        h = rf_open("/pool/a", _config(rt, net, mode, profile=profile,
                                       iobufsize=_CHUNK))
        pos = 0
        for op, n in _PUSH_SCRIPTS[script]:
            if op == "wait":
                rt.sleep(n)
                continue
            if op == "seek":
                pos = rf_seek(h, n)
                continue
            got = rf_read(h, n)
            assert bytes(got) == data[pos:pos + n], (op, pos, n)
            pos = min(pos + n, MiB)
            assert h.logical_position == pos
        assert h.request_count == 0  # the push served every read
        rf_close(h)

    rt.run(scenario)


@pytest.mark.parametrize("fault", ["shifted", "wrong block"])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_exact_bytes_check_catches_a_wrong_cut_of_the_tile(
        monkeypatch, mode, fault):
    # a server that cuts a seeded file's range one byte late, or from
    # another block of the 2-block file, is caught by comparing what the
    # client read with the file's content
    def faulty(seed, index, size, offset, n):
        offset = offset + 1 if fault == "shifted" else offset ^ BLOCK
        return content_range(seed, index, size, offset, n)

    monkeypatch.setattr(diskserver, "content_range", faulty)
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 2 * BLOCK)])
        h = rf_open("/pool/a", _config(rt, net, mode, iobufsize=128 * KiB))
        got = rf_read(h, 512 * KiB)
        rf_close(h)
        return got, contents["/pool/a"][:512 * KiB]

    got, want = rt.run(scenario)
    assert len(got) == len(want)
    assert got != want


@pytest.mark.parametrize("mode", ALL_MODES)
def test_an_imported_file_is_served_exactly(tmp_path, mode):
    # an imported file's bytes are kept in memory, not in the pool
    # directory, and served exactly in every mode, across seeks both ways
    rt = VirtualRuntime()
    size = MiB + 3
    data = random.Random(5).randbytes(size)

    def scenario():
        net, head, srv, _ = _stack(rt, tmp_path / "pool", [])
        pf = srv.import_file("/pool/a", [data[:1000], data[1000:]])
        head.register_file("/pool/a", size, srv.address, pf.checksum)
        h = rf_open("/pool/a", _config(rt, net, mode, iobufsize=64 * KiB,
                                       profile=WAN_PROFILE))
        got = [rf_read(h, 200 * KiB)]
        rf_seek(h, 700 * KiB + 1)
        got.append(rf_read(h, size))
        rf_seek(h, 10)
        got.append(rf_read(h, 100))
        rf_close(h)
        return got, list((tmp_path / "pool").iterdir())

    got, files = rt.run(scenario)
    assert got == [data[:200 * KiB], data[700 * KiB + 1:], data[10:110]]
    assert files == []


def test_a_file_the_server_lacks_raises_stale_replica():
    # the namespace names a replica whose server does not hold the file:
    # the open is refused with STALE_REPLICA, which the client raises as a
    # typed error, and no session is left
    rt = VirtualRuntime()

    def scenario():
        net, head, srv, _ = _stack(rt, None, [])
        head.register_file("/pool/ghost", MiB, srv.address, 0)
        with pytest.raises(StaleReplicaError):
            rf_open("/pool/ghost", _config(rt, net, ReadMode.NORMAL,
                                           profile=WAN_PROFILE))
        rt.sleep(1.0)
        assert srv.sessions == {}
        return srv.counters["stale_replicas"]

    assert rt.run(scenario) == 1


@pytest.mark.parametrize("call", ["read", "seek"])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_call_on_a_busy_handle_raises_handle_busy(mode, call):
    # a second task calls the handle while a read waits on the network:
    # the call is refused at once, the waiting read returns exact bytes,
    # the position stays within the file and the handle serves on
    rt = VirtualRuntime()
    size = 4 * MiB

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", size)])
        data = contents["/pool/a"]
        h = rf_open("/pool/a", _config(rt, net, mode, profile=WAN_PROFILE))
        reader = rt.spawn(rf_read, h, 2 * MiB, name="reader")
        rt.sleep(0.001)
        assert not reader.finished
        with pytest.raises(HandleBusyError):
            if call == "read":
                rf_read(h, 64 * KiB)
            else:
                rf_seek(h, 3 * MiB)
        assert rt.join(reader) == data[:2 * MiB]
        assert h.logical_position == 2 * MiB
        assert rf_read(h, 64 * KiB) == data[2 * MiB:2 * MiB + 64 * KiB]
        assert h.logical_position == 2 * MiB + 64 * KiB <= size
        rf_close(h)

    rt.run(scenario)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_close_from_another_task_ends_a_waiting_read(mode):
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", 4 * MiB)])
        h = rf_open("/pool/a", _config(rt, net, mode, profile=WAN_PROFILE))
        reader = rt.spawn(rf_read, h, 2 * MiB, name="reader")
        rt.sleep(0.001)
        rf_close(h)
        with pytest.raises(ConnectionClosedError):
            rt.join(reader)
        with pytest.raises(StaleHandleError):
            rf_read(h, KiB)

    rt.run(scenario)


# -- what rf_read returns ------------------------------------------------------


@pytest.mark.parametrize("mode", ALL_MODES)
def test_rf_read_returns_a_read_only_view_in_every_case(mode):
    # the type never depends on how a read meets the chunks: inside one
    # chunk, across chunks, cut short at EOF, and the empty read at EOF
    rt = VirtualRuntime()
    size = MiB + 3

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", size)])
        h = rf_open("/pool/a", _config(rt, net, mode, iobufsize=64 * KiB))
        got = [(rf_read(h, KiB), 0, KiB),
               (rf_read(h, 300 * KiB), KiB, 301 * KiB)]
        rf_seek(h, size - 10)
        got += [(rf_read(h, 100), size - 10, size),
                (rf_read(h, 100), size, size)]
        rf_close(h)
        return got, contents["/pool/a"]

    got, data = rt.run(scenario)
    for view, start, end in got:
        assert type(view) is memoryview and view.readonly, (start, end)
        assert view == data[start:end], (start, end)
        if len(view):
            with pytest.raises(TypeError):
                view[0] = 0
    assert len(got[-1][0]) == 0


def test_a_chunk_aligned_stream_read_is_a_view_of_the_tile():
    # the mechanism, in every mode: a 64 KiB read inside one chunk or fill
    # shares memory with the seed's tile, and so does a 1 MiB read of a
    # whole content block, which several chunks or fills carried: no byte
    # was copied on the way
    tile = content._tile_view(1).obj
    for mode in ALL_MODES:
        rt = VirtualRuntime()

        def scenario():
            net, _, _, contents = _stack(rt, None, [("/pool/a", 3 * BLOCK)])
            h = rf_open("/pool/a", _config(rt, net, mode,
                                           iobufsize=128 * KiB))
            got = [(rf_read(h, 64 * KiB), i * 64 * KiB) for i in range(4)]
            rf_seek(h, BLOCK)
            got.append((rf_read(h, BLOCK), BLOCK))
            rf_close(h)
            return got, contents["/pool/a"]

        got, data = rt.run(scenario)
        for view, start in got:
            assert view.obj is tile and view.readonly, (mode, start)
            assert view == data[start:start + len(view)], (mode, start)
        assert len(got[-1][0]) == BLOCK


@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_read_across_a_content_block_is_exact(mode):
    # a read across a content block's end joins two rotations of the tile
    # in one copy, and still holds the file's bytes
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", 3 * BLOCK)])
        h = rf_open("/pool/a", _config(rt, net, mode, iobufsize=128 * KiB))
        rf_seek(h, BLOCK - 300 * KiB)
        got = rf_read(h, BLOCK)
        rf_close(h)
        return got, contents["/pool/a"]

    got, data = rt.run(scenario)
    assert got.obj is not content._tile_view(1).obj and got.readonly
    assert got == data[BLOCK - 300 * KiB:2 * BLOCK - 300 * KiB]


@pytest.mark.parametrize("mode", ALL_MODES)
def test_a_spanning_read_of_an_imported_file_is_a_view_of_its_bytes(mode):
    # an imported file's chunks are slices of its one bytes object, so a
    # read across them is one view of that object, holding the file's bytes
    rt = VirtualRuntime()
    size = 3 * MiB + 3
    data = random.Random(6).randbytes(size)

    def scenario():
        net, head, srv, _ = _stack(rt, None, [])
        pf = srv.import_file("/pool/a", [data[:1000], data[1000:]])
        head.register_file("/pool/a", size, srv.address, pf.checksum)
        h = rf_open("/pool/a", _config(rt, net, mode, iobufsize=128 * KiB))
        rf_seek(h, 5000)
        got = rf_read(h, 2 * MiB)
        rf_close(h)
        return got, pf.data

    got, kept = rt.run(scenario)
    assert got.obj is kept and got.readonly
    assert got == data[5000:5000 + 2 * MiB]


def test_parts_are_one_view_only_where_they_lie_end_to_end():
    buf = bytes(range(256)) * 4
    other = bytes(reversed(buf))
    view, far = memoryview(buf), memoryview(other)
    got = _joined([view[10:20], view[20:50], view[50:51]])
    assert got.obj is buf and got.readonly and got == buf[10:51]
    words = np.arange(16, dtype="<u8")  # a buffer of 8-byte items
    wide = memoryview(words).cast("B")
    got = _joined([wide[8:16], wide[16:40]])
    assert got.obj is words and got == words.tobytes()[8:40]
    copies = {
        "two buffers": [view[-10:], far[:10]],
        "out of order in one buffer": [view[20:30], view[10:20]],
        "overlapping": [view[10:30], view[20:40]],
        "with a gap": [view[10:20], view[21:30]],
        "no parts": [],
    }
    for case, parts in copies.items():
        got = _joined(parts)
        assert type(got.obj) is bytes and got.readonly, case
        assert got.obj is not buf and got.obj is not other, case
        assert got == b"".join(parts), case


def test_address_is_where_numpy_sees_the_first_byte():
    buf = bytes(range(64))
    mutable = bytearray(buf)
    view = memoryview(buf)
    cases = {
        "bytes": buf,
        "bytearray": mutable,
        "read-only slice": memoryview(mutable).toreadonly()[5:20],
        "view of a view": memoryview(view[3:])[2:9],
        "array.array": array.array("d", [1.0, 2.0, 3.0]),
        "empty view": view[7:7],
        "tile": content._tile_view(1)[12345:],
    }
    for case, data in cases.items():
        assert _address(data) == np.frombuffer(data, np.uint8).ctypes.data, \
            case
    with pytest.raises(BufferError):
        _address(view[::2])  # not contiguous


def test_kept_bytes_survive_the_tile_memo_evicting_their_seed(monkeypatch):
    # a DataChunk payload and an rf_read result keep their tile alive after
    # the memo forgets the seed, and still equal the file
    sent = []

    def recording_chunk(*args):
        sent.append(DataChunk(*args))
        return sent[-1]

    monkeypatch.setattr(diskserver, "DataChunk", recording_chunk)
    rt = VirtualRuntime()
    size = 3 * BLOCK

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", size)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.STREAM))
        rf_seek(h, 2 * BLOCK)
        got = rf_read(h, 64 * KiB)
        rf_close(h)
        return got

    got = rt.run(scenario)
    chunk = sent[0]
    old_tile = content._tile_view(1).obj
    assert got.obj is old_tile and chunk.payload.obj is old_tile
    content._tile_view.cache_clear()
    for seed in range(2, 6):
        content_range(seed, 0, size, 0, 1)
    assert content._tile_view(1).obj is not old_tile
    data = file_content(1, 0, size)
    assert got == data[2 * BLOCK:2 * BLOCK + 64 * KiB]
    assert chunk.payload == data[chunk.offset:chunk.offset
                                 + len(chunk.payload)]


# -- counters and lifecycle ---------------------------------------------------------


@pytest.mark.parametrize("mode", ALL_MODES)
def test_rate_identity_holds_exactly(mode):
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", 2 * MiB)])
        h = rf_open("/pool/a",
                    _config(rt, net, mode, profile=WAN_PROFILE,
                            iobufsize=128 * KiB))
        while rf_read(h, 192 * KiB):
            pass
        c = rf_close(h)
        assert c.rate * (c.open_time + c.read_time) == pytest.approx(
            c.bytes_consumed, rel=1e-9)

    rt.run(scenario)


def test_close_without_reads_reports_zero_rate():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", KiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        c = rf_close(h)
        assert c.rate == 0.0
        assert c.bytes_consumed == 0

    rt.run(scenario)


def test_double_close_is_flagged_noop():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", KiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        rf_read(h, 100)
        first = rf_close(h)
        again = rf_close(h)
        assert again is first
        assert h.double_close
        assert again.bytes_consumed == 100

    rt.run(scenario)


def test_use_after_close_raises_stale_handle():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", KiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        rf_close(h)
        with pytest.raises(StaleHandleError):
            rf_read(h, 1)
        with pytest.raises(StaleHandleError):
            rf_seek(h, 0)

    rt.run(scenario)


def test_bad_read_and_seek_arguments():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", KiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        with pytest.raises(ValueError):
            rf_read(h, 0)
        with pytest.raises(RangeError):
            rf_seek(h, -1)
        with pytest.raises(RangeError):
            rf_seek(h, KiB + 1)
        assert h.logical_position == 0  # failed seeks leave position alone
        rf_close(h)

    rt.run(scenario)


def test_connection_loss_preserves_position():
    rt = VirtualRuntime()

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL))
        assert rf_read(h, 100) == contents["/pool/a"][:100]
        h._control.close()  # simulated transport failure under the handle
        with pytest.raises(TransportError):
            rf_read(h, 100)
        assert h.logical_position == 100

    rt.run(scenario)


def test_stream_data_connection_loss_raises_transport_error():
    rt = VirtualRuntime()

    def scenario():
        net, _, srv, contents = _stack(rt, None, [("/pool/a", 16 * MiB)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.STREAM))
        assert rf_read(h, 100) == contents["/pool/a"][:100]
        srv.sessions[h.handle_id].data_conn.close()  # server end goes away
        with pytest.raises(ConnectionClosedError):
            while True:  # the chunks already delivered are still served
                assert rf_read(h, 64 * KiB)
        assert 100 < h.logical_position < 16 * MiB
        rf_close(h)

    rt.run(scenario)


def test_config_rejects_bad_sizes():
    rt = VirtualRuntime()
    net = EmulatedNetwork(rt)
    with pytest.raises(ValueError):
        ClientConfig(rt, net, iobufsize=0)
    with pytest.raises(ValueError):
        ClientConfig(rt, net, emulated_window=-1)


# -- per-open state ------------------------------------------------------------------


def _container_sizes(*objs) -> dict:
    """Length of every dict, list and set attribute of each object."""
    return {(i, type(o).__name__, name): len(value)
            for i, o in enumerate(objs) for name, value in vars(o).items()
            if isinstance(value, (dict, list, set))}


def test_per_open_state_does_not_grow_with_opens():
    # servers, rate limiters and the runtime keep nothing per closed handle:
    # the containers they hold are the same size after 10 open/read/close
    # cycles as after 100
    rt = VirtualRuntime()
    sizes = []

    def scenario():
        net, head, srv, contents = _stack(rt, None, [("/pool/a", 64 * KiB)])

        def cycles(first, last):
            for i in range(first, last):
                mode = ALL_MODES[i % len(ALL_MODES)]
                h = rf_open("/pool/a", _config(rt, net, mode))
                assert rf_read(h, 16 * KiB) == contents["/pool/a"][:16 * KiB]
                rf_close(h)
            rt.sleep(1.0)  # let every teardown settle
            assert not rt._tasks and head._in_broker == 0
            sizes.append(_container_sizes(rt, head, srv, net, srv._pump,
                                          *net._pumps.values()))

        cycles(0, 10)
        cycles(10, 100)

    rt.run(scenario)
    after_10, after_100 = sizes
    assert after_100 == after_10
