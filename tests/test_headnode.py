"""Headnode tests: namespace, open queue timing, overflow, session tokens."""

from __future__ import annotations

import random

import numpy as np
import pytest

from remfio import wire
from remfio.bench import WorkloadSpec, run_benchmark
from remfio.errors import (
    AlreadyRegisteredError,
    ConnectionClosedError,
    NotFoundError,
)
from remfio.headnode import (
    Headnode,
    OpenQueueModel,
    session_token,
    verify_session_token,
)
from remfio.netemu import WAN_PROFILE, ZERO_PROFILE, EmulatedNetwork
from remfio.runtime import VirtualRuntime

KiB = 1024
MiB = 1024 * 1024
TOKEN = "shared-secret"


def _mk_head(rt, *, queue_model=None):
    net = EmulatedNetwork(rt)
    head = Headnode(rt, net, shared_token=TOKEN,
                    queue_model=queue_model or OpenQueueModel())
    return net, head


def _open_request(path: str, token: str = TOKEN) -> wire.OpenRequest:
    return wire.OpenRequest(path=path, mode=wire.ReadMode.NORMAL,
                            iobufsize=131072, token=token)


# -- namespace (in-process) ---------------------------------------------------


def test_register_and_lookup():
    rt = VirtualRuntime()
    _, head = _mk_head(rt)
    entry = head.register_file("/pool/f000", 16 * 1024 * 1024, "ds1:5001", 0xC0FFEE)
    assert head.lookup("/pool/f000") == entry
    assert entry.size == 16 * 1024 * 1024
    assert entry.replica_address == "ds1:5001"


def test_register_duplicate_rejected():
    rt = VirtualRuntime()
    _, head = _mk_head(rt)
    head.register_file("/pool/f000", 1, "ds1:5001", 1)
    with pytest.raises(AlreadyRegisteredError):
        head.register_file("/pool/f000", 2, "ds2:5001", 2)


def test_lookup_unknown_path():
    rt = VirtualRuntime()
    _, head = _mk_head(rt)
    with pytest.raises(NotFoundError):
        head.lookup("/pool/missing")


def test_register_100_files_all_enumerable():
    # shadow map oracle: every registered path comes back exactly once
    rt = VirtualRuntime()
    _, head = _mk_head(rt)
    rng = random.Random(7)
    shadow = {}
    for i in range(100):
        path = f"/pool/f{i:03d}"
        size = rng.randrange(1, 1 << 30)
        checksum = rng.getrandbits(64)
        head.register_file(path, size, "ds1:5001", checksum)
        shadow[path] = (size, checksum)
    assert head.namespace_size == 100
    for path, (size, checksum) in shadow.items():
        entry = head.lookup(path)
        assert (entry.size, entry.checksum) == (size, checksum)


# -- namespace over the wire --------------------------------------------------


def test_ns_lookup_over_wire():
    rt = VirtualRuntime()

    def scenario():
        net, head = _mk_head(rt)
        head.register_file("/pool/a", 4096, "ds1:5001", 42)
        head.start()

        def lookup(path):
            conn = net.connect(head.ns_address, ZERO_PROFILE,
                               first_msg=wire.NsLookup(path))
            reply = conn.recv()
            conn.close()
            return reply

        assert lookup("/pool/a") == wire.NsLookupReply("ds1:5001", 4096, 42)
        err = lookup("/pool/nope")
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.NOT_FOUND
        assert head.counters["lookups"] == 2

    rt.run(scenario)


def _port(head, port):
    """The address of one headnode port and a request it answers at once."""
    if port == "ns":
        return head.ns_address, wire.NsLookup("/pool/a")
    return head.open_address, _open_request("/pool/a", "bad")


@pytest.mark.parametrize("port", ["ns", "open"])
def test_client_closing_with_a_request_in_flight(port):
    # the client hangs up right behind its request: the reply finds it gone,
    # and the handler drops it instead of crashing the run
    rt = VirtualRuntime()

    def scenario():
        net, head = _mk_head(rt)
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()
        address, msg = _port(head, port)
        conn = net.connect(address, WAN_PROFILE)
        conn.send(msg)
        conn.close()
        rt.sleep(1.0)
        served = head.counters["lookups"] + head.counters["auth_failures"]
        assert served == 1
        far = conn._peer  # the headnode's end
        assert far.sent_bytes == 0  # the reply never went out
        # the callbacks left nothing behind: no getter, no open in the broker
        assert far._closed and not far._queue._getters
        assert head._in_broker == 0

    rt.run(scenario)


@pytest.mark.parametrize("port", ["ns", "open"])
def test_a_client_that_hangs_up_without_a_request_is_not_counted(port):
    # the headnode's end finds the stream ended instead of a request: it
    # closes, sends nothing and counts nothing
    rt = VirtualRuntime()

    def scenario():
        net, head = _mk_head(rt)
        head.start()
        address, _ = _port(head, port)
        conn = net.connect(address, WAN_PROFILE)
        conn.close()
        rt.sleep(1.0)
        far = conn._peer  # the headnode's end
        assert far._closed and far.sent_bytes == 0
        assert not far._queue._getters
        assert not any(head.counters.values())

    rt.run(scenario)


@pytest.mark.parametrize("port", ["ns", "open"])
def test_second_request_on_a_connection_gets_no_reply(port):
    # the headnode answers one request per connection and hangs up: a
    # second request sent behind the first is never answered
    rt = VirtualRuntime()

    def scenario():
        net, head = _mk_head(rt)
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()
        address, msg = _port(head, port)
        conn = net.connect(address, WAN_PROFILE, first_msg=msg)
        conn.send(msg)  # the first reply, and the hang-up, are still on the way
        assert isinstance(conn.recv(), (wire.NsLookupReply, wire.ErrorReply))
        with pytest.raises(ConnectionClosedError):
            conn.recv()
        rt.sleep(1.0)
        served = head.counters["lookups"] + head.counters["auth_failures"]
        assert served == 1
        conn.close()

    rt.run(scenario)


@pytest.mark.parametrize("port", ["ns", "open"])
def test_request_on_the_wrong_port_is_protocol_error(port):
    # each port answers only its own request type: the other one is
    # refused at once, counted as a protocol error and nothing else, and
    # the handler ends
    rt = VirtualRuntime()

    def scenario():
        net, head = _mk_head(rt)
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()
        address, _ = _port(head, port)
        _, msg = _port(head, "open" if port == "ns" else "ns")
        conn = net.connect(address, WAN_PROFILE, first_msg=msg)
        err = conn.recv()
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.PROTOCOL
        assert rt.now() == pytest.approx(WAN_PROFILE.rtt, abs=1e-3)
        assert head.counters.pop("protocol_errors") == 1
        assert not any(head.counters.values())
        far = conn._peer  # the headnode's end
        conn.close()
        rt.sleep(1.0)
        assert far._closed and not far._queue._getters
        assert head._in_broker == 0

    rt.run(scenario)


# -- open brokering timing ----------------------------------------------------


def test_single_open_takes_one_service_time():
    rt = VirtualRuntime()
    observed = {}

    def scenario():
        net, head = _mk_head(rt)
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()
        t0 = rt.now()
        conn = net.connect(head.open_address, ZERO_PROFILE,
                           first_msg=_open_request("/pool/a"))
        reply = conn.recv()
        observed["latency"] = rt.now() - t0
        observed["reply"] = reply
        conn.close()

    rt.run(scenario)
    assert isinstance(observed["reply"], wire.OpenReply)
    assert observed["reply"].file_size == 1024
    assert observed["latency"] == pytest.approx(0.050, abs=1e-9)


def test_simultaneous_batch_of_20_means_525ms():
    # one FIFO, 50 ms service: k-th reply lands at 50k ms, mean = 525 ms
    rt = VirtualRuntime()
    latencies = []

    def scenario():
        net, head = _mk_head(rt)
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()

        def one_client():
            t0 = rt.now()
            conn = net.connect(head.open_address, ZERO_PROFILE,
                               first_msg=_open_request("/pool/a"))
            reply = conn.recv()
            assert isinstance(reply, wire.OpenReply)
            latencies.append(rt.now() - t0)
            conn.close()

        tasks = [rt.spawn(one_client, name=f"c{i}") for i in range(20)]
        for t in tasks:
            rt.join(t)

    rt.run(scenario)
    assert len(latencies) == 20
    mean = sum(latencies) / len(latencies)
    assert mean == pytest.approx(0.050 * (20 + 1) / 2, abs=1e-9)
    assert sorted(latencies) == pytest.approx(
        [0.050 * k for k in range(1, 21)], abs=1e-9)


def test_open_latency_monotone_and_linear_in_batch_size():
    # mean latency over a simultaneous batch must grow ~ linearly with N;
    # millisecond-scale start jitter keeps repetitions from being identical
    batch_sizes = [1, 2, 4, 8, 16, 32]
    reps = 5
    means = {n: [] for n in batch_sizes}
    for rep in range(reps):
        for n in batch_sizes:
            rt = VirtualRuntime()
            latencies = []

            def scenario(n=n, rep=rep):
                net, head = _mk_head(rt)
                head.register_file("/pool/a", 1024, "ds1:5001", 1)
                head.start()
                jitter = random.Random(1000 * rep + n)

                def one_client(delay):
                    rt.sleep(delay)
                    t0 = rt.now()
                    conn = net.connect(head.open_address, ZERO_PROFILE,
                                       first_msg=_open_request("/pool/a"))
                    assert isinstance(conn.recv(), wire.OpenReply)
                    latencies.append(rt.now() - t0)
                    conn.close()

                tasks = [rt.spawn(one_client, jitter.uniform(0, 0.001),
                                  name=f"c{i}") for i in range(n)]
                for t in tasks:
                    rt.join(t)

            rt.run(scenario)
            means[n].append(sum(latencies) / len(latencies))

    mean_by_n = [float(np.mean(means[n])) for n in batch_sizes]
    for lo, hi in zip(mean_by_n, mean_by_n[1:]):
        assert hi >= lo - 1e-9
    slope, intercept = np.polyfit(batch_sizes, mean_by_n, 1)
    assert slope > 0
    fitted = slope * np.array(batch_sizes) + intercept
    residual = np.sum((np.array(mean_by_n) - fitted) ** 2)
    total = np.sum((np.array(mean_by_n) - np.mean(mean_by_n)) ** 2)
    assert 1 - residual / total >= 0.8


def test_a_client_that_hangs_up_in_the_broker_queue_loses_only_its_reply():
    # five valid opens arrive together on wan; client 1 hangs up while its
    # open waits behind client 0's. Its slot is served all the same, its
    # reply is dropped, the broker empties, and the opens behind it keep
    # their linear service times
    rt = VirtualRuntime()
    service = OpenQueueModel().service_time_per_open
    ends, far_ends = {}, {}

    def scenario():
        net, head = _mk_head(rt)
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()

        def one_client(i):
            conn = net.connect(head.open_address, WAN_PROFILE,
                               first_msg=_open_request("/pool/a"))
            far_ends[i] = conn._peer
            if i == 1:
                conn.close()
                return
            assert isinstance(conn.recv(), wire.OpenReply)
            ends[i] = rt.now()
            conn.close()

        tasks = [rt.spawn(one_client, i, name=f"c{i}") for i in range(5)]
        for t in tasks:
            rt.join(t)
        rt.sleep(1.0)
        return head

    head = rt.run(scenario)  # no DeadlockError
    assert far_ends[1].sent_bytes == 0
    assert head._in_broker == 0
    assert head.counters["opens_ok"] == 5  # client 1's slot was served
    assert sorted(ends) == [0, 2, 3, 4]
    for i, end in ends.items():
        assert end == pytest.approx(WAN_PROFILE.rtt + (i + 1) * service,
                                    abs=1e-4)


def test_reply_link_wait_delays_only_its_own_open():
    # 12 STREAM clients open at once on wan, so the k-th shortest open
    # (from 0) queued behind k others. Its three replies (lookup, brokered
    # open, disk open) share the servers' link with the 256 KiB chunks
    # already being pushed, so each may wait about one chunk's transmit
    # time; that wait must not push back the opens queued behind it
    spec = WorkloadSpec(file_size=2 * MiB, mode=wire.ReadMode.STREAM,
                        clients=12, stagger_window=0.0, net_profile="wan")
    summary = run_benchmark(spec, seed=0)
    service = OpenQueueModel().service_time_per_open
    link_wait = 3 * 256 * KiB / WAN_PROFILE.shared_bandwidth
    opens = sorted(r.open_time for r in summary.records)
    assert len(opens) == 12
    for k, t in enumerate(opens):
        assert t <= 4 * WAN_PROFILE.rtt + (k + 1) * service + link_wait


# -- queue overflow -----------------------------------------------------------


def test_overflow_rejects_exactly_the_excess():
    # cap 4, 10 opens in the same instant: 4 queued, 6 rejected, none dropped
    rt = VirtualRuntime()
    outcomes = []

    def scenario():
        net, head = _mk_head(rt, queue_model=OpenQueueModel(queue_cap=4))
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()

        def one_client():
            conn = net.connect(head.open_address, ZERO_PROFILE,
                               first_msg=_open_request("/pool/a"))
            outcomes.append(conn.recv())
            conn.close()

        tasks = [rt.spawn(one_client, name=f"c{i}") for i in range(10)]
        for t in tasks:
            rt.join(t)

    rt.run(scenario)
    ok = [m for m in outcomes if isinstance(m, wire.OpenReply)]
    rejected = [m for m in outcomes if isinstance(m, wire.ErrorReply)]
    assert len(ok) == 4
    assert len(rejected) == 6
    assert all(m.code == wire.ErrorCode.QUEUE_OVERFLOW for m in rejected)


def test_overflow_counted_in_metrics():
    rt = VirtualRuntime()

    def scenario():
        net, head = _mk_head(rt, queue_model=OpenQueueModel(queue_cap=4))
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()

        def one_client():
            conn = net.connect(head.open_address, ZERO_PROFILE,
                               first_msg=_open_request("/pool/a"))
            conn.recv()
            conn.close()

        tasks = [rt.spawn(one_client, name=f"c{i}") for i in range(10)]
        for t in tasks:
            rt.join(t)
        assert head.counters["queue_overflow"] == 6
        assert head.counters["opens_ok"] == 4
        assert head.counters["open_errors"] == 6

    rt.run(scenario)


def test_queue_cap_counts_the_open_in_service():
    # cap 1, opens 10 ms apart: the second arrives while the first is in
    # its 50 ms service, so nothing is free for it, though nothing waits
    rt = VirtualRuntime()
    outcomes = {}

    def scenario():
        net, head = _mk_head(rt, queue_model=OpenQueueModel(queue_cap=1))
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()

        def one_client(i):
            rt.sleep(0.010 * i)
            conn = net.connect(head.open_address, ZERO_PROFILE,
                               first_msg=_open_request("/pool/a"))
            outcomes[i] = conn.recv()
            conn.close()

        tasks = [rt.spawn(one_client, i, name=f"c{i}") for i in range(2)]
        for t in tasks:
            rt.join(t)
        assert head.counters["queue_overflow"] == 1

    rt.run(scenario)
    assert isinstance(outcomes[0], wire.OpenReply)
    assert isinstance(outcomes[1], wire.ErrorReply)
    assert outcomes[1].code == wire.ErrorCode.QUEUE_OVERFLOW


# -- auth and not-found over the wire ------------------------------------------


def test_wrong_shared_token_rejected():
    rt = VirtualRuntime()

    def scenario():
        net, head = _mk_head(rt)
        head.register_file("/pool/a", 1024, "ds1:5001", 1)
        head.start()
        conn = net.connect(head.open_address, ZERO_PROFILE,
                           first_msg=_open_request("/pool/a", token="wrong"))
        err = conn.recv()
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.AUTH
        assert head.counters["auth_failures"] == 1
        conn.close()

    rt.run(scenario)


def test_open_unregistered_path_not_found_after_service():
    # the miss is only discovered once the open has been served
    rt = VirtualRuntime()

    def scenario():
        net, head = _mk_head(rt)
        head.start()
        t0 = rt.now()
        conn = net.connect(head.open_address, ZERO_PROFILE,
                           first_msg=_open_request("/pool/missing"))
        err = conn.recv()
        assert isinstance(err, wire.ErrorReply)
        assert err.code == wire.ErrorCode.NOT_FOUND
        assert rt.now() - t0 == pytest.approx(0.050, abs=1e-9)
        assert head.counters["not_found"] == 1
        conn.close()

    rt.run(scenario)


# -- handle ids ------------------------------------------------------------------


def test_ticket_soundness_unique_handles():
    # 50 opens over the wire, one per connection, arriving 1 ms apart: every
    # reply carries a fresh handle id, and the serialized FIFO hands them out
    # in increasing order of arrival
    rt = VirtualRuntime()
    replies = [None] * 50

    def scenario():
        net, head = _mk_head(rt)
        for i in range(5):
            head.register_file(f"/pool/f{i}", 1024, "ds1:5001", i)
        head.start()

        def one_open(i):
            rt.sleep(i * 0.001)
            conn = net.connect(head.open_address, ZERO_PROFILE,
                               first_msg=_open_request(f"/pool/f{i % 5}"))
            replies[i] = conn.recv()
            conn.close()

        for task in [rt.spawn(one_open, i) for i in range(50)]:
            rt.join(task)

    rt.run(scenario)
    assert all(isinstance(r, wire.OpenReply) for r in replies)
    handles = [r.handle_id for r in replies]
    assert len(set(handles)) == 50
    assert handles == sorted(handles)


def test_session_token_shape():
    tok = session_token(17, "s3cret")
    assert tok.startswith("17:")
    assert verify_session_token(tok, "s3cret") == 17
    assert verify_session_token("17:deadbeef00112233", "s3cret") is None
    assert verify_session_token("garbage", "s3cret") is None
    # heads that str.isdigit() accepts but that are no u64 handle id
    for head in ("\u00b2", str(1 << 64), "9" * 5000):
        assert verify_session_token(f"{head}:0000000000000000",
                                    "s3cret") is None
