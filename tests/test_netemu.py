"""Emulator tests: latency, caps, fairness, conservation, determinism."""

from __future__ import annotations

import dataclasses

import pytest

from remfio import netemu, wire
from remfio.errors import (
    ConnectionClosedError,
    EncodeError,
    EndpointRefusedError,
    TransportError,
)
from remfio.netemu import (
    LAN_PROFILE,
    WAN_PROFILE,
    ZERO_PROFILE,
    EmulatedNetwork,
    LinkProfile,
    throughput_cap,
)
from remfio.runtime import VirtualRuntime

KiB = 1024
MiB = 1024 * 1024


def _chunk(offset: int, size: int) -> wire.DataChunk:
    return wire.DataChunk(handle_id=1, offset=offset, payload=b"\xab" * size)


def _echo_handler(conn):
    try:
        while True:
            conn.send(conn.recv())
    except ConnectionClosedError:
        pass


def _push_chunks(conn, count: int, size: int, rt):
    """Server-side helper: push `count` chunks respecting data credits."""
    kick = rt.channel(capacity=1)
    conn.on_data_credit = lambda: kick.try_put(None)
    for i in range(count):
        while not conn.try_reserve_data_credit():
            kick.get()
        conn.send(_chunk(i * size, size), credit_reserved=True)


# -- throughput_cap arithmetic ------------------------------------------------


def test_cap_window_bound_single_connection():
    # 1 MiB / 12 ms ~ 83.3 MiB/s, below the 100 MiB/s share
    cap = throughput_cap(WAN_PROFILE, 1)
    assert cap == pytest.approx((1 * MiB) / 0.012)
    assert cap == pytest.approx(83.33 * MiB, rel=0.01)


def test_cap_fair_share_bound_many_connections():
    cap = throughput_cap(WAN_PROFILE, 32)
    assert cap == pytest.approx(100 * MiB / 32)  # 3.125 MiB/s, window-irrelevant


def test_cap_small_window():
    prof = LinkProfile("w64", rtt=0.012, shared_bandwidth=100 * MiB,
                       per_connection_window=64 * 1024)
    assert throughput_cap(prof, 1) == pytest.approx(64 * 1024 / 0.012)


def test_cap_zero_rtt():
    assert throughput_cap(ZERO_PROFILE, 4) == float("inf")
    prof = LinkProfile("z", rtt=0.0, shared_bandwidth=80 * MiB,
                       per_connection_window=1)
    assert throughput_cap(prof, 2) == pytest.approx(40 * MiB)


# -- connection setup ---------------------------------------------------------


def test_connect_costs_one_rtt_wan():
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("head:5015", _echo_handler)
        t0 = rt.now()
        net.connect("head:5015", WAN_PROFILE)
        return rt.now() - t0

    assert rt.run(main) == pytest.approx(0.012)


def test_connect_zero_rtt_immediate():
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", _echo_handler)
        t0 = rt.now()
        net.connect("svc", ZERO_PROFILE)
        return rt.now() - t0

    assert rt.run(main) == 0.0


def test_connect_unknown_endpoint_refused():
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        with pytest.raises(EndpointRefusedError):
            net.connect("nowhere:1", WAN_PROFILE)

    rt.run(main)


def test_refused_first_msg_leaves_nothing_scheduled():
    rt = VirtualRuntime()
    started = []

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", started.append)
        with pytest.raises(TransportError, match="reserved credit"):
            net.connect("svc", WAN_PROFILE, first_msg=_chunk(0, 1024))
        with pytest.raises(EncodeError):
            net.connect("svc", WAN_PROFILE,
                        first_msg=wire.NsLookup(path="/bad\ud800"))
        assert rt.now() == 0.0
        assert not rt._heap  # no handler spawn, delivery or window release
        rt.sleep(1.0)

    rt.run(main)
    assert started == []


@pytest.mark.parametrize("window", [0, -1])
def test_connect_rejects_a_window_below_one_byte(window):
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", _echo_handler)
        with pytest.raises(ValueError, match="window must be > 0"):
            net.connect("svc", WAN_PROFILE, window=window,
                        first_msg=wire.NsLookup(path="/x"))
        return rt.now()

    assert rt.run(main) == 0.0


def test_first_msg_reply_in_one_rtt():
    """A request riding the handshake is answered ~1 rtt after connect started;
    without it the same exchange needs ~2 rtt."""
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", _echo_handler)
        probe = wire.NsLookup(path="/x")

        t0 = rt.now()
        conn = net.connect("svc", WAN_PROFILE, first_msg=probe)
        conn.recv()
        fast = rt.now() - t0

        t0 = rt.now()
        conn2 = net.connect("svc", WAN_PROFILE)
        conn2.send(probe)
        conn2.recv()
        slow = rt.now() - t0
        return fast, slow

    fast, slow = rt.run(main)
    assert fast == pytest.approx(0.012, rel=0.02)
    assert slow == pytest.approx(0.024, rel=0.02)


# -- delivery semantics -------------------------------------------------------


def test_conservation_in_order_no_duplication():
    rt = VirtualRuntime()
    seen = []

    def main():
        net = EmulatedNetwork(rt)

        def sink(conn):
            try:
                while True:
                    seen.append(conn.recv())
            except ConnectionClosedError:
                pass

        net.listen("svc", sink)
        conn = net.connect("svc", LAN_PROFILE)
        sizes = [1, 100, 64 * 1024, 7, 256 * 1024 - 16, 0, 12345]
        sent = []
        for i, size in enumerate(sizes):
            msg = wire.DataChunk(handle_id=9, offset=i * MiB, payload=b"\x5a" * size)
            assert conn.try_reserve_data_credit()
            conn.send(msg, credit_reserved=True)
            sent.append(msg)
        rt.sleep(1.0)
        assert seen == sent
        assert conn.sent_bytes == conn._peer.delivered_bytes
        assert conn.sent_payload == conn._peer.delivered_payload == sum(sizes)
        conn.close()

    rt.run(main)


def test_steady_throughput_matches_cap_window_bound():
    """Bulk push on WAN: delivered rate within 10% of min(share, window/rtt)."""
    rt = VirtualRuntime()
    total = 32 * MiB
    size = 256 * 1024
    count = total // size

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", lambda conn: _push_chunks(conn, count, size, rt))
        conn = net.connect("svc", WAN_PROFILE)
        t0 = rt.now()
        got = 0
        while got < total:
            msg = conn.recv()
            got += len(msg.payload)
        return total / (rt.now() - t0)

    rate = rt.run(main)
    assert rate == pytest.approx(throughput_cap(WAN_PROFILE, 1), rel=0.10)


def test_steady_throughput_matches_cap_bandwidth_bound():
    """Big window: the 100 MiB/s shared ceiling binds instead."""
    rt = VirtualRuntime()
    prof = LinkProfile("fat", rtt=0.012, shared_bandwidth=100 * MiB,
                       per_connection_window=4 * MiB)
    total = 32 * MiB
    size = 256 * 1024

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", lambda conn: _push_chunks(conn, total // size, size, rt))
        conn = net.connect("svc", prof)
        t0 = rt.now()
        got = 0
        while got < total:
            got += len(conn.recv().payload)
        return total / (rt.now() - t0)

    rate = rt.run(main)
    assert rate == pytest.approx(100 * MiB, rel=0.10)


def test_fairness_across_connections():
    """4 saturating same-direction flows each get ~1/4 of the link +-15%."""
    rt = VirtualRuntime()
    size = 256 * 1024
    per_conn = 8 * MiB

    def main():
        net = EmulatedNetwork(rt)

        def handler(conn):
            conn.recv()  # wait for the start marker so pushes overlap fully
            _push_chunks(conn, per_conn // size, size, rt)

        net.listen("svc", handler)
        prof = LinkProfile("fat", rtt=0.012, shared_bandwidth=100 * MiB,
                           per_connection_window=4 * MiB)
        conns = [net.connect("svc", prof) for _ in range(4)]
        for conn in conns:
            conn.send(wire.NsLookup(path="/go"))
        rates = {}

        def drain(i):
            got = len(conns[i].recv().payload)
            t_first = rt.now()
            while got < per_conn:
                got += len(conns[i].recv().payload)
            rates[i] = (got - size) / (rt.now() - t_first)

        tasks = [rt.spawn(drain, i) for i in range(4)]
        for t in tasks:
            rt.join(t)
        return rates

    rates = rt.run(main)
    fair = 25 * MiB
    for rate in rates.values():
        assert abs(rate - fair) / fair < 0.15


def _log_grants(pump) -> list:
    """Record (key, nbytes) for every grant the limiter serves."""
    grants = []
    acquire = pump.acquire

    def logged(key, nbytes):
        acquire(key, nbytes)
        grants.append((key, nbytes))

    pump.acquire = logged
    return grants


def test_link_shared_by_byte_whatever_the_slice_size():
    """A 1 KiB-window and a 256 KiB-window flow each get half the link."""
    rt = VirtualRuntime()
    prof = LinkProfile("share", rtt=0.0, shared_bandwidth=10 * MiB,
                       per_connection_window=256 * KiB)

    def main():
        net = EmulatedNetwork(rt)
        grants = _log_grants(net._pump(prof, "rev"))
        net.listen("svc", lambda conn: _push_chunks(conn, 64, 256 * KiB, rt))
        small = net.connect("svc", prof, window=KiB)
        net.connect("svc", prof)
        rt.sleep(0.4)  # both flows are still pushing
        mine = [n for key, n in grants if key == small._peer.conn_id]
        assert max(mine) == KiB  # the small flow really sends 1 KiB slices
        return sum(mine) / sum(n for _, n in grants)

    assert rt.run(main) == pytest.approx(0.5, abs=0.05)


def test_small_window_is_sent_in_large_slices():
    """Sender-side silly-window avoidance: a 64 KiB window on the WAN goes
    out in slices of at least 16 KiB on average, not ever smaller pieces."""
    rt = VirtualRuntime()
    total, size = 4 * MiB, 256 * KiB

    def main():
        net = EmulatedNetwork(rt)
        grants = _log_grants(net._pump(WAN_PROFILE, "rev"))
        net.listen("svc", lambda conn: _push_chunks(conn, total // size, size, rt))
        conn = net.connect("svc", WAN_PROFILE, window=64 * KiB)
        got = 0
        while got < total:
            got += len(conn.recv().payload)
        return sum(n for _, n in grants) / len(grants)

    assert rt.run(main) >= 16 * KiB


def test_concurrent_senders_share_one_connection():
    """Two tasks sending on one small-window connection interleave whole
    frames: every frame arrives once, each task's in its order; a close
    while both wait for window fails both sends."""
    rt = VirtualRuntime()
    prof = LinkProfile("small", rtt=0.012, shared_bandwidth=100 * MiB,
                       per_connection_window=4 * KiB)

    def main():
        net = EmulatedNetwork(rt)
        got = []

        def handler(conn):
            try:
                while True:
                    got.append(conn.recv().path)
            except ConnectionClosedError:
                pass

        net.listen("svc", handler)
        conn = net.connect("svc", prof)

        def sender(tag, count):
            for i in range(count):
                conn.send(wire.NsLookup(path=f"/{tag}/{i}/" + "x" * 3000))

        tasks = [rt.spawn(sender, tag, 10) for tag in "ab"]
        for t in tasks:
            rt.join(t)
        rt.sleep(1.0)
        for tag in "ab":
            mine = [p for p in got if p.startswith(f"/{tag}/")]
            assert [p.split("/")[2] for p in mine] == [str(i) for i in range(10)]
        assert len(got) == 20

        tasks = [rt.spawn(sender, tag, 10) for tag in "cd"]
        rt.sleep(0.03)  # both are waiting for window
        conn._peer.close()
        for t in tasks:
            with pytest.raises(TransportError):
                rt.join(t)

    rt.run(main)


def test_cap_enforced_over_every_1s_window():
    rt = VirtualRuntime()
    prof = LinkProfile("slow", rtt=0.012, shared_bandwidth=8 * MiB,
                       per_connection_window=4 * MiB)
    total, size = 24 * MiB, 256 * 1024

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", lambda conn: _push_chunks(conn, total // size, size, rt))
        conn = net.connect("svc", prof)
        log = []
        got = 0
        while got < total:
            msg = conn.recv()
            log.append((rt.now(), wire.frame_size(msg)))
            got += len(msg.payload)
        return log

    log = rt.run(main)
    cap = throughput_cap(prof, 1)
    times = [t for t, _ in log]
    lo = 0
    for hi in range(len(log)):
        while times[hi] - times[lo] > 1.0:
            lo += 1
        window_bytes = sum(n for _, n in log[lo : hi + 1])
        assert window_bytes <= cap * 1.1


def test_data_credit_backpressure():
    """A sender without a consuming peer stalls at exactly 16 chunks."""
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        reserved = []

        def handler(conn):
            for i in range(netemu.DATA_CREDITS + 4):
                ok = conn.try_reserve_data_credit()
                reserved.append(ok)
                if ok:
                    conn.send(_chunk(i * 1024, 1024), credit_reserved=True)

        net.listen("svc", handler)
        conn = net.connect("svc", LAN_PROFILE)
        rt.sleep(1.0)
        assert reserved.count(True) == netemu.DATA_CREDITS
        assert reserved.count(False) == 4
        # consuming one chunk returns one credit rtt/2 later
        conn.recv()
        rt.sleep(1.0)
        server_end = conn._peer
        assert server_end.try_reserve_data_credit()

    rt.run(main)


def test_close_propagates_to_peer():
    rt = VirtualRuntime()
    outcome = {}

    def main():
        net = EmulatedNetwork(rt)

        def handler(conn):
            try:
                while True:
                    conn.recv()
            except ConnectionClosedError:
                outcome["server_saw_close"] = rt.now()

        def receiver(conn):
            with pytest.raises(ConnectionClosedError):
                conn.recv()
            outcome["receiver_woken"] = rt.now()

        net.listen("svc", handler)
        conn = net.connect("svc", WAN_PROFILE)
        reader = rt.spawn(receiver, conn)
        conn.send(wire.NsLookup(path="/a"))
        rt.sleep(0.1)
        outcome["closed"] = rt.now()
        conn.close()  # wakes the recv parked on this same end
        rt.join(reader)
        rt.sleep(0.1)
        with pytest.raises(ConnectionClosedError):
            conn.recv()

    rt.run(main)
    assert "server_saw_close" in outcome
    assert outcome["receiver_woken"] == outcome["closed"]


def test_recv_after_reported_peer_close_raises_again_at_once():
    # once a recv has reported the peer's close, every later recv raises
    # too, without parking on the empty queue
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", lambda conn: conn.close())
        conn = net.connect("svc", WAN_PROFILE)
        with pytest.raises(ConnectionClosedError):
            conn.recv()
        reported = rt.now()
        for _ in range(2):
            with pytest.raises(ConnectionClosedError):
                conn.recv()
        assert rt.now() == reported
        conn.close()

    rt.run(main)


def _served_timeline(use_serve: bool) -> list:
    """(virtual time, message) as a server end hands each one over, None at
    the end; by serve(), or by a task looping on recv()."""
    rt = VirtualRuntime()
    seen = []

    def note(msg):
        seen.append((rt.now(), msg))

    def handler(conn):
        rt.sleep(0.1)  # the first two messages are waiting by then
        if use_serve:
            conn.serve(note)
            return
        try:
            while True:
                note(conn.recv())
        except ConnectionClosedError:
            note(None)

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", handler)
        conn = net.connect("svc", WAN_PROFILE)
        conn.send(wire.NsLookup(path="/a"))
        conn.send(wire.NsLookup(path="/b"))
        rt.sleep(0.2)
        conn.send(wire.NsLookup(path="/c"))
        rt.sleep(0.1)
        conn.close()
        rt.sleep(0.1)

    rt.run(main)
    return seen


def test_serve_hands_over_what_a_recv_loop_sees_when_it_sees_it():
    served = _served_timeline(use_serve=True)
    assert served == _served_timeline(use_serve=False)
    assert [msg for _, msg in served] == [
        wire.NsLookup(path="/a"), wire.NsLookup(path="/b"),
        wire.NsLookup(path="/c"), None]
    assert served[0][0] == served[1][0] == pytest.approx(
        WAN_PROFILE.rtt / 2 + 0.1)


def test_a_callback_reply_continues_once_the_frame_is_out():
    # an echo served by callbacks: try_send_then calls its continuation
    # once the reply is out, or at once if the connection refuses it, and
    # never calls the serve() loop again, which would queue a second getter
    rt = VirtualRuntime()
    results = []

    def on_connect(conn):
        def echo(msg):
            reply = wire.NsLookup(path="/gone") if msg is None else msg
            conn.try_send_then(reply, lambda: results.append(
                (msg, conn.sent_bytes, len(conn._queue._getters), rt.now())))

        conn.serve(echo)

    def main():
        net = EmulatedNetwork(rt)
        net.accept("svc", on_connect)
        a, b = wire.NsLookup(path="/a"), wire.NsLookup(path="/b")
        conn = net.connect("svc", WAN_PROFILE, first_msg=a)
        assert conn.recv() == a
        conn.send(b)
        assert conn.recv() == b
        conn.close()
        rt.sleep(0.1)
        return a, b

    a, b = rt.run(main)
    n = wire.frame_size(a)
    assert [r[:3] for r in results] == [(a, n, 1), (b, 2 * n, 1),
                                        (None, 2 * n, 0)]
    assert [round(r[3], 6) for r in results] == [0.006, 0.018, 0.030]


@pytest.mark.parametrize("first_msg", [False, True],
                         ids=["connect", "connect-first-msg"])
def test_a_callback_starter_that_connects_raises(first_msg):
    # connecting blocks, and a starter runs inline in the event loop: the
    # run stops with a RuntimeError naming the blocking call instead of
    # hanging or waking the starter twice
    rt = VirtualRuntime()
    net = EmulatedNetwork(rt)
    msg = wire.NsLookup(path="/a") if first_msg else None

    def main():
        net.listen("svc", _echo_handler)
        net.accept("wrong", lambda conn: net.connect(
            "svc", WAN_PROFILE, first_msg=msg))
        net.connect("wrong", WAN_PROFILE)
        rt.sleep(1.0)

    with pytest.raises(RuntimeError, match="made a blocking call"):
        rt.run(main)
    assert not rt._tasks


def test_determinism_identical_delivery_timelines():
    def run_once():
        rt = VirtualRuntime()

        def main():
            net = EmulatedNetwork(rt)
            total, size = 4 * MiB, 256 * 1024
            net.listen("svc", lambda conn: _push_chunks(conn, total // size, size, rt))
            conn = net.connect("svc", WAN_PROFILE)
            log = []
            got = 0
            while got < total:
                msg = conn.recv()
                log.append((rt.now(), wire.frame_size(msg)))
                got += len(msg.payload)
            return log

        return rt.run(main)

    assert run_once() == run_once()


def test_a_link_name_keeps_one_rtt_and_rate_per_network():
    rt = VirtualRuntime()
    fast = LinkProfile("x", rtt=0.001, shared_bandwidth=100 * MiB,
                       per_connection_window=1 * MiB)

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", _echo_handler)
        net.connect("svc", fast).close()
        for other in (dataclasses.replace(fast, shared_bandwidth=1 * MiB),
                      dataclasses.replace(fast, rtt=0.002)):
            with pytest.raises(ValueError, match="'x'"):
                net.connect("svc", other)
        # the window belongs to the connection, not to the link
        wide = dataclasses.replace(fast, per_connection_window=4 * MiB)
        net.connect("svc", wide).close()
        rt.sleep(0.01)
        assert not [t for t in rt._tasks if t.name.startswith("srv-")]
        # another network holds its own names
        other_net = EmulatedNetwork(rt)
        other_net.listen("svc", _echo_handler)
        other_net.connect(
            "svc", dataclasses.replace(fast, shared_bandwidth=1 * MiB)).close()

    rt.run(main)


def test_uneven_windows_each_get_their_own_bound():
    """A 64 KiB-window flow and a 4 MiB-window flow share wan, each at its
    closed form over the middle half of a 4 s run."""
    rt = VirtualRuntime()
    prof = WAN_PROFILE
    frame = 64 * KiB
    payload = frame - 16 - wire.HEADER_LEN  # one frame fills the small window
    small_window, big_window = frame, 4 * MiB
    run = 4.0
    want = {
        # one frame in flight, sent again as soon as its window returns
        small_window: small_window / prof.rtt,
        # 16 credits in flight bind before 4 MiB of window does; a credit
        # comes back one transmission plus one rtt after it was taken
        big_window: netemu.DATA_CREDITS * frame
        / (prof.rtt + frame / prof.shared_bandwidth),
    }

    def push(conn):
        kick = rt.channel(capacity=1)
        conn.on_data_credit = lambda: kick.try_put(None)
        offset = 0
        while rt.now() < run:
            while not conn.try_reserve_data_credit():
                kick.get()
            conn.send(wire.DataChunk(1, offset, bytes(payload)),
                      credit_reserved=True)
            offset += payload
        conn.close()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", push)
        logs = {}

        def drain(window):
            conn = net.connect("svc", prof, window=window)
            log = logs[window] = []
            try:
                while True:
                    msg = conn.recv()
                    log.append((rt.now(), wire.frame_size(msg)))
            except ConnectionClosedError:
                pass

        for t in [rt.spawn(drain, w) for w in want]:
            rt.join(t)
        return logs

    logs = rt.run(main)
    for window, log in logs.items():
        assert {n for _, n in log} == {frame}
        got = sum(n for t, n in log if run / 4 <= t < 3 * run / 4) / (run / 2)
        assert got == pytest.approx(want[window], rel=0.05), window


def test_builtin_profiles_match_documented_paths():
    assert WAN_PROFILE.rtt == pytest.approx(0.012)
    assert WAN_PROFILE.shared_bandwidth == 100 * MiB
    assert LAN_PROFILE.rtt == pytest.approx(0.0002)
    assert LAN_PROFILE.shared_bandwidth == 119 * MiB
    assert WAN_PROFILE.per_connection_window == 1 * MiB


# -- window and credit returns, owed in ledgers ---------------------------------


def test_a_sender_refused_before_any_chunk_is_consumed_wakes_at_the_first_return():
    """The sender holds no credit while all 16 chunks wait unconsumed, so no
    return is owed when it is refused; it still wakes at the first one, rtt/2
    after the receiver takes a chunk."""
    rt = VirtualRuntime()
    woken = []

    def handler(conn):
        kick = rt.channel(capacity=1)
        conn.on_data_credit = lambda: kick.try_put(None)
        for i in range(netemu.DATA_CREDITS):
            assert conn.try_reserve_data_credit()
            conn.send(_chunk(i * KiB, KiB), credit_reserved=True)
        assert not conn.try_reserve_data_credit()
        kick.get()
        woken.append(rt.now())
        assert conn.try_reserve_data_credit()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", handler)
        conn = net.connect("svc", LAN_PROFILE)
        rt.sleep(0.5)  # every chunk has arrived, and none is consumed
        assert woken == []
        t0 = rt.now()
        conn.recv()
        rt.sleep(0.5)
        assert woken == [t0 + LAN_PROFILE.rtt / 2]

    rt.run(main)


def test_two_senders_on_a_small_window_finish_at_their_recorded_times():
    """Two tasks share one 64 KiB window on the WAN. Both finish, at the
    virtual times recorded when every window return was a timer of its own:
    keeping returns in a ledger moves no event."""
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        got = []

        def handler(conn):
            try:
                while True:
                    got.append((rt.now(), conn.recv().path[:6]))
            except ConnectionClosedError:
                pass

        net.listen("svc", handler)
        conn = net.connect("svc", WAN_PROFILE, window=64 * KiB)

        def sender(tag, count, size):
            for i in range(count):
                conn.send(wire.NsLookup(path=f"/{tag}/{i:02d}/".ljust(size, "x")))
            return rt.now()

        tasks = [rt.spawn(sender, "a", 12, 20000),
                 rt.spawn(sender, "b", 12, 9000)]
        ends = [rt.join(t) for t in tasks]
        rt.sleep(1.0)
        return ends, got

    ends, got = rt.run(main)
    assert ends == [0.07250100326538085, 0.06065841674804687]
    assert len(got) == 24
    assert got[-1] == (0.07823868560791016, "/a/11/")


def test_a_return_due_now_counts_only_once_the_entry_that_owed_it_ends():
    """On a zero-rtt link a credit is due back at the very instant its chunk
    is consumed, but it counts only after the event that consumed it, where
    its timer would have run."""
    rt = VirtualRuntime()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", lambda conn: _push_chunks(
            conn, netemu.DATA_CREDITS, KiB, rt))
        conn = net.connect("svc", ZERO_PROFILE)
        rt.sleep(1.0)  # all 16 chunks have arrived; the server has no credit
        server_end, t = conn._peer, rt.now()
        conn.recv()
        assert not server_end.try_reserve_data_credit()
        rt.sleep(0)
        assert rt.now() == t
        assert server_end.try_reserve_data_credit()

    rt.run(main)


@pytest.mark.parametrize("profile, window", [(ZERO_PROFILE, None),
                                             (WAN_PROFILE, 64 * KiB)],
                         ids=["zero", "wan-64k"])
def test_ledgers_hold_no_more_than_is_in_flight(profile, window):
    """Free window plus the bytes owed back is the window at every send, and
    over 10,000 frames neither ledger outgrows what can be in flight: the
    window's amounts, or 16 credits."""
    rt = VirtualRuntime()
    frames, size = 10_000, 12 * KiB

    def handler(conn):
        kick = rt.channel(capacity=1)
        conn.on_data_credit = lambda: kick.try_put(None)
        full = conn._window_avail
        # a slice is at least window // 8 unless it ends its frame, and a
        # frame that ends in a shorter one also owes a longer one
        most = 2 * (full // conn._min_slice) + 1
        longest = [0, 0]  # window and credit ledger lengths
        for i in range(frames):
            while not conn.try_reserve_data_credit():
                kick.get()
            conn.send(_chunk(i * size, size), credit_reserved=True)
            owed = conn._window_back
            assert conn._window_avail + sum(n for _, _, n in owed) == full
            longest = [max(longest[0], len(owed)),
                       max(longest[1], len(conn._credit_back))]
        assert longest[0] <= most and longest[1] <= netemu.DATA_CREDITS
        conn.close()

    def main():
        net = EmulatedNetwork(rt)
        net.listen("svc", handler)
        conn = net.connect("svc", profile, window=window)
        try:
            while True:
                conn.recv()
        except ConnectionClosedError:
            pass

    rt.run(main)
