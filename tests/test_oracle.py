"""Model oracle: generated op programs on one shared link, and closed forms.

Each generated program runs inside a single VirtualRuntime.run: several
client tasks open handles in all four modes on one shared `wan` link, with
mixed windows and iobufsizes, then read, seek and close them in an
interleaved order, some closing mid-stream, while a small open queue
overflows. The invariants are the module docstrings' claims under uneven
mixes: exact bytes, NORMAL wire bytes equal to consumed bytes, typed errors
only, no deadlock, and no per-open state left behind.

The analytic checks run one client alone and compare its simulated times
with the closed forms of the link, disk and broker models.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remfio.client import rf_close, rf_open, rf_read, rf_seek
from remfio.diskserver import DiskModel
from remfio.errors import QueueOverflowError, RemfioError
from remfio.headnode import OpenQueueModel
from remfio.netemu import WAN_PROFILE, LinkProfile, throughput_cap
from remfio.runtime import VirtualRuntime
from remfio.wire import DataChunk, ReadMode, ReadRequest, frame_size

from test_client import SERVICE, _config, _container_sizes, _stack

KiB = 1024
MiB = 1024 * 1024
ALL_MODES = list(ReadMode)


@st.composite
def _handles(draw, nfiles):
    return (draw(st.integers(0, nfiles - 1)),
            draw(st.sampled_from(ALL_MODES)),
            draw(st.sampled_from([16 * KiB, 64 * KiB, MiB])),  # window
            draw(st.sampled_from([KiB, 16 * KiB, 128 * KiB])))  # iobufsize


@st.composite
def _clients(draw, nfiles):
    handles = draw(st.lists(_handles(nfiles), min_size=1, max_size=3))
    ops = draw(st.lists(st.tuples(
        st.integers(0, len(handles) - 1),
        st.sampled_from(["read", "read", "seek", "close"]),
        st.integers(0, 1 << 20)), min_size=3, max_size=12))
    delay = draw(st.sampled_from([0.0, 0.0, 0.004, 0.05]))
    return delay, handles, ops


@st.composite
def _programs(draw):
    sizes = draw(st.lists(st.integers(0, 160 * KiB), min_size=1, max_size=3))
    queue_cap = draw(st.sampled_from([1, 2, 64]))
    clients = draw(st.lists(_clients(len(sizes)), min_size=2, max_size=6))
    return sizes, queue_cap, clients


READ_LENGTHS = [1, 1000, 4 * KiB, 64 * KiB + 3, 200 * KiB]


def _run_program(sizes, queue_cap, clients) -> None:
    rt = VirtualRuntime()
    files = [(f"/pool/f{i}", size) for i, size in enumerate(sizes)]
    errors = []

    def client(net, contents, delay, handles, ops):
        rt.sleep(delay)
        open_ = []
        for index, mode, window, iobufsize in handles:
            path, size = files[index]
            config = _config(rt, net, mode, profile=WAN_PROFILE,
                             emulated_window=window, iobufsize=iobufsize)
            try:
                h = rf_open(path, config)
            except QueueOverflowError as exc:
                errors.append(exc)
                continue
            open_.append([h, contents[path], 0])
        for which, op, arg in ops:
            if not open_:
                break
            entry = open_[which % len(open_)]
            h, data, pos = entry
            if op == "read":
                n = READ_LENGTHS[arg % len(READ_LENGTHS)]
                assert rf_read(h, n) == data[pos:pos + n]
                entry[2] = min(pos + n, len(data))
            elif op == "seek":
                entry[2] = arg % (len(data) + 1)
                assert rf_seek(h, entry[2]) == entry[2]
            else:
                _close(h)
                open_.remove(entry)
        for h, _, _ in open_:
            _close(h)

    def _close(h):
        c = rf_close(h)
        if h.mode is ReadMode.NORMAL:
            assert c.bytes_wire == c.bytes_consumed

    def guarded(*args):
        try:
            client(*args)
        except RemfioError as exc:
            errors.append(exc)

    def scenario():
        net, head, srv, contents = _stack(
            rt, None, files,
            queue_model=OpenQueueModel(queue_cap=queue_cap))
        # one warm-up cycle per mode creates the lazily made link pumps
        for mode in ALL_MODES:
            rf_close(rf_open(files[0][0], _config(rt, net, mode,
                                                  profile=WAN_PROFILE)))
        rt.sleep(1.0)

        def sizes_now():
            return _container_sizes(rt, head, srv, net, srv._pump,
                                    *net._pumps.values())

        before = sizes_now()
        tasks = [rt.spawn(guarded, net, contents, *c, name=f"client-{i}")
                 for i, c in enumerate(clients)]
        for t in tasks:
            rt.join(t)
        rt.sleep(5.0)  # let every teardown settle
        assert sizes_now() == before

    rt.run(scenario)
    # the only error a healthy installation raises is a full open queue
    assert all(isinstance(e, QueueOverflowError) for e in errors), errors


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_programs())
def test_generated_programs_keep_the_model_invariants(program):
    _run_program(*program)


# -- closed forms for a solo client --------------------------------------------


@pytest.mark.parametrize("window", [64 * KiB, 256 * KiB])
def test_solo_stream_read_time_matches_throughput_cap(window):
    # tolerance half an rtt: the push starts while the open's last leg is
    # under way, and the first chunk's one-way delay is not part of the
    # steady rate
    rt = VirtualRuntime()
    size = 2 * MiB
    profile = LinkProfile("wan", WAN_PROFILE.rtt, WAN_PROFILE.shared_bandwidth,
                          window)

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", size)])
        h = rf_open("/pool/a", _config(rt, net, ReadMode.STREAM,
                                       profile=WAN_PROFILE,
                                       emulated_window=window))
        assert rf_read(h, size) == contents["/pool/a"]
        return rf_close(h).read_time

    read_time = rt.run(scenario)
    assert read_time == pytest.approx(size / throughput_cap(profile, 1),
                                      abs=WAN_PROFILE.rtt / 2)


def test_solo_normal_read_costs_rtt_plus_disk_plus_link():
    # exact up to float rounding: a read of one chunk or less is the request's
    # link grant and leg, one disk grant, then the reply's link grant and leg,
    # none overlapped
    rt = VirtualRuntime()
    disk = DiskModel()
    lengths = [KiB, 64 * KiB, 256 * KiB, 1]

    def scenario():
        net, _, _, contents = _stack(rt, None, [("/pool/a", MiB)])
        data = contents["/pool/a"]
        h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL,
                                       profile=WAN_PROFILE))
        pos = 0
        for n in lengths:
            before = h.counters.read_time
            assert rf_read(h, n) == data[pos:pos + n]
            frames = (frame_size(ReadRequest(h.handle_id, pos, n))
                      + frame_size(DataChunk(h.handle_id, pos, bytes(n))))
            expected = (WAN_PROFILE.rtt + n / disk.sequential_bandwidth
                        + frames / WAN_PROFILE.shared_bandwidth)
            assert h.counters.read_time - before == pytest.approx(
                expected, rel=1e-6)
            pos += n
        rf_close(h)

    rt.run(scenario)


def test_simultaneous_opens_queue_linearly():
    # the i-th open to finish waited for i earlier services and its own;
    # tolerance 0.1 ms covers the serialized sub-microsecond frame grants
    rt = VirtualRuntime()
    k = 8

    def scenario():
        net, _, _, _ = _stack(rt, None, [("/pool/a", KiB)])
        times = []

        def opener():
            h = rf_open("/pool/a", _config(rt, net, ReadMode.NORMAL,
                                           profile=WAN_PROFILE))
            times.append(h.counters.open_time)
            rf_close(h)

        tasks = [rt.spawn(opener) for _ in range(k)]
        for t in tasks:
            rt.join(t)
        return sorted(times)

    times = rt.run(scenario)
    for i, t in enumerate(times):
        assert t == pytest.approx(3 * WAN_PROFILE.rtt + (i + 1) * SERVICE,
                                  abs=1e-4)
