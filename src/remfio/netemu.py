"""In-process network emulator: RTT, shared bandwidth, per-connection windows.

Connections between in-process endpoints are shaped by a LinkProfile:

* one-way latency of rtt/2 on every frame, rtt on connection setup;
* shared_bandwidth split byte-fairly among connections actively
  transmitting in the same direction of the same named link, whatever the
  size of their slices;
* a per-connection in-flight window: at most `window` un-acknowledged
  bytes, each slice's share returning one rtt after the slice is admitted
  (ack clocking), which yields the steady-state cap of exactly window/rtt.
  A sender admits a slice only once window // 8 bytes, or the rest of its
  frame, are free (sender-side silly-window avoidance), so a small window
  is sent in a few large slices instead of ever smaller ones;
* a 16-frame in-flight cap on DataChunk frames per connection (receiver
  flow control); senders reserve a credit before transmitting a chunk and
  the credit returns rtt/2 after the receiver application consumes it.

Runs on a VirtualRuntime: timing is event-driven and bit-deterministic.

The steady per-connection throughput is min(fair bandwidth share,
window/rtt); throughput_cap() computes it for planning and assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import ConnectionClosedError, EndpointRefusedError, TransportError
from .runtime import Task, VirtualRuntime
from .wire import DataChunk, Message, frame_size

MiB = 1024 * 1024

DATA_CREDITS = 16  # max in-flight unconsumed DataChunk frames per connection


@dataclass(frozen=True)
class LinkProfile:
    """Shaping parameters for one named link."""

    name: str
    rtt: float  # seconds, round trip
    shared_bandwidth: float  # bytes/s, all same-direction connections combined
    per_connection_window: int  # bytes in flight per connection

    def __post_init__(self):
        if self.rtt < 0:
            raise ValueError(f"rtt must be >= 0: {self.rtt}")
        if self.shared_bandwidth <= 0:
            raise ValueError(f"shared_bandwidth must be > 0: {self.shared_bandwidth}")
        if self.per_connection_window <= 0:
            raise ValueError(f"window must be > 0: {self.per_connection_window}")


WAN_PROFILE = LinkProfile("wan", rtt=0.012, shared_bandwidth=100 * MiB,
                          per_connection_window=1 * MiB)
LAN_PROFILE = LinkProfile("lan", rtt=0.0002, shared_bandwidth=119 * MiB,
                          per_connection_window=1 * MiB)
ZERO_PROFILE = LinkProfile("zero", rtt=0.0, shared_bandwidth=float("inf"),
                           per_connection_window=1 << 62)


def builtin_profiles() -> dict[str, LinkProfile]:
    return {p.name: p for p in (WAN_PROFILE, LAN_PROFILE, ZERO_PROFILE)}


def throughput_cap(profile: LinkProfile, active_connections: int) -> float:
    """Steady-state per-connection ceiling in bytes/s."""
    if active_connections < 1:
        raise ValueError("active_connections must be >= 1")
    share = profile.shared_bandwidth / active_connections
    if profile.rtt == 0:
        return share
    return min(share, profile.per_connection_window / profile.rtt)


_CLOSED = object()  # queued behind a stream's last message


class EmulatedNetwork:
    """Registry of listening services plus shared per-link bandwidth pumps."""

    def __init__(self, runtime: VirtualRuntime):
        self._rt = runtime
        self._services: dict[str, object] = {}
        self._pumps: dict = {}
        self._links: dict[str, LinkProfile] = {}  # name -> first profile
        self._conn_seq = 0

    def listen(self, address: str, handler) -> None:
        """Register handler(conn) to be spawned for each inbound connection."""
        if address in self._services:
            raise ValueError(f"address already listening: {address}")
        self._services[address] = handler

    def _pump(self, profile: LinkProfile, direction: str):
        """The rate limiter shared by one direction of a named link.

        Made on first use, so a profile that carries no traffic gets no
        limiter.
        """
        key = (profile.name, direction)
        pump = self._pumps.get(key)
        if pump is None:
            pump = self._pumps[key] = self._rt.rate_limiter(
                profile.shared_bandwidth)
        return pump

    def connect(
        self,
        address: str,
        profile: LinkProfile,
        *,
        first_msg: Message | None = None,
        window: int | None = None,
    ) -> "EmuConnection":
        """Open a shaped connection; costs one rtt before it returns.

        first_msg, when given, rides the handshake (the reply can arrive as
        soon as 1 rtt after the call, instead of rtt for setup plus another
        round trip). A first_msg that send() would refuse raises here before
        anything is scheduled, so the far end's handler never starts.
        Connecting blocks, so a generator task's call raises RuntimeError.

        A link name stands for one rtt and shared_bandwidth in a network:
        a profile that reuses a name with others raises ValueError. Its
        per_connection_window may differ, as it belongs to the connection.
        """
        self._rt._blocking_call()
        if window is not None and window <= 0:
            raise ValueError(f"window must be > 0: {window}")
        link = self._links.setdefault(profile.name, profile)
        if (link.rtt, link.shared_bandwidth) != (profile.rtt,
                                                 profile.shared_bandwidth):
            raise ValueError(f"link {profile.name!r} is already shaped as "
                             f"{link}, not {profile}")
        rt = self._rt
        t0 = rt.now()
        handler = self._services.get(address)
        if handler is None:
            rt.sleep(profile.rtt)
            raise EndpointRefusedError(f"no listener at {address}")
        self._conn_seq += 1
        cid = self._conn_seq
        w = window if window is not None else profile.per_connection_window
        near = EmuConnection(self, profile, w, f"c{cid}i", address)
        far = EmuConnection(self, profile, w, f"c{cid}a", address)
        near._peer = far
        far._peer = near
        if first_msg is not None:
            near._admit(first_msg, False)
        rt.call_later(profile.rtt / 2, lambda: rt.spawn(
            handler, far, name=f"srv-{address}-{cid}"))
        if first_msg is not None:
            near.send(first_msg)
        elapsed = rt.now() - t0
        if elapsed < profile.rtt:
            rt.sleep(profile.rtt - elapsed)
        return near


class EmuConnection:
    """One end of an emulated connection.

    sent_bytes / delivered_bytes count whole frames; sent_payload /
    delivered_payload count DataChunk payload bytes only (the package-wide
    bytes-on-wire statistic).
    """

    def __init__(self, net: EmulatedNetwork, profile: LinkProfile,
                 window: int, conn_id: str, address: str):
        self._net = net
        self._rt = net._rt
        self.profile = profile
        self.conn_id = conn_id
        self.address = address
        self._peer: EmuConnection | None = None
        # direction key: frames sent by the initiating end share one pump,
        # frames sent by accepting ends (the servers) share the other
        self._direction = "fwd" if conn_id.endswith("i") else "rev"
        self._queue = net._rt.channel()
        self._window_avail = window
        self._min_slice = max(1, window // 8)
        self._window_kick = net._rt.channel(capacity=1)
        self._credits = DATA_CREDITS
        self.on_data_credit = None  # callback, fired on credit return
        self._closed = False
        self._peer_closed = False
        self.sent_bytes = 0
        self.sent_payload = 0
        self.delivered_bytes = 0
        self.delivered_payload = 0

    # -- flow-control credits (DataChunk frames only) ----------------------

    def try_reserve_data_credit(self) -> bool:
        if self._credits > 0:
            self._credits -= 1
            return True
        return False

    def _return_credit(self) -> None:
        self._credits += 1
        cb = self.on_data_credit
        if cb is not None:
            cb()

    # -- data path ----------------------------------------------------------

    def send(self, msg: Message, *, credit_reserved: bool = False,
             _trying: bool = False) -> None:
        """Transmit one frame; waits for window space and bandwidth share.

        The frame goes out in slices, each as large as the free window allows
        and none smaller than window // 8 unless it ends the frame; it is
        delivered whole, rtt/2 after its last slice. Tasks sending on one
        connection at once interleave whole slices, so each task's frames
        arrive in the order it sent them.

        The waits are one state machine, _Transmit: a carrier task blocks in
        each, a generator task yields after send() and a callback returns.

        DataChunk frames must have a credit reserved beforehand via
        try_reserve_data_credit (receiver flow control); all other message
        types bypass credits.
        """
        tx = _Transmit(self, msg, self._admit(msg, credit_reserved), _trying)
        rt, cur = self._rt, self._rt._current
        if type(cur) is not Task or cur._gen is not None:
            rt._switch(None)  # a generator task yields next
            rt._current = tx  # and the frame steps on as a callback
        tx.step()
        rt._current = cur

    def _admit(self, msg: Message, credit_reserved: bool) -> int:
        """msg's frame length, or the error send() raises before it waits."""
        if self._closed:
            raise TransportError(f"send on closed connection {self.conn_id}")
        if self._peer_closed:
            raise TransportError(f"peer closed {self.conn_id}")
        if isinstance(msg, DataChunk) and not credit_reserved:
            raise TransportError("DataChunk sends require a reserved credit")
        return frame_size(msg)

    def try_send(self, msg: Message, *, credit_reserved: bool = False) -> bool:
        """send(), except that a closed connection drops the frame; returns
        whether it went out: False at once, with no wait, if refused."""
        try:
            self.send(msg, credit_reserved=credit_reserved, _trying=True)
        except TransportError:
            return False
        return True

    def _release_window(self, nbytes: int):
        def cb():
            self._window_avail += nbytes
            self._window_kick.try_put(None)
        return cb

    def _deliver(self, msg: Message, frame_len: int) -> None:
        if self._closed:
            return  # receiver gone; bytes vanish
        self.delivered_bytes += frame_len
        if isinstance(msg, DataChunk):
            self.delivered_payload += len(msg.payload)
        self._queue.put(msg)

    def recv(self) -> Message:
        """Next in-order message; raises ConnectionClosedError at stream end."""
        if self._closed:
            raise ConnectionClosedError(f"recv on closed connection {self.conn_id}")
        if self._peer_closed and len(self._queue) == 0:
            raise ConnectionClosedError(f"peer closed {self.conn_id}")
        msg = self._take(self._queue.get())
        if msg is None:
            raise ConnectionClosedError(f"peer closed {self.conn_id}")
        return msg

    def wait_recv(self):
        """A generator body that returns once recv() would not wait: how a
        generator task waits for a message."""
        if not self.closed:
            yield from self._queue.wait()

    def serve(self, handler: Callable[[Message | None], None]) -> None:
        """Hand each message to handler(msg) as it arrives, then None once
        the stream ends or this end closes, in place of a task looping on
        recv().

        Messages already waiting are handed over at once; after that the
        handler is called where a parked recv() would wake, inline in the
        event loop like a timer callback, so it must not block.
        """
        queue = self._queue

        def drain() -> None:
            while not self._closed:
                if len(queue) == 0:
                    if self._peer_closed:
                        break
                    queue.when_ready(drain)
                    return
                msg = self._take(queue.get())
                if msg is None:
                    break
                handler(msg)
            handler(None)

        drain()

    def _take(self, msg) -> Message | None:
        """A message just taken off the queue, or None at the stream's end."""
        if msg is _CLOSED:
            self._peer_closed = True
            return None
        if isinstance(msg, DataChunk):
            peer = self._peer
            self._rt.call_later(self.profile.rtt / 2, peer._return_credit)
        return msg

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._queue.put(_CLOSED)  # wake a recv() parked on this end
        peer = self._peer
        self._rt.call_later(self.profile.rtt / 2, lambda: peer._notify_closed())
        self._window_kick.try_put(None)  # unwedge a blocked sender

    def _notify_closed(self) -> None:
        if self._closed:
            return
        self._peer_closed = True
        self._queue.put(_CLOSED)
        # wake anything parked on window space or credits so it can bail out
        self._window_kick.try_put(None)
        cb = self.on_data_credit
        if cb is not None:
            cb()

    @property
    def closed(self) -> bool:
        """True once either end has closed; sends will fail, recv drains."""
        return self._closed or self._peer_closed


class _Transmit:
    """A frame on its way out. Each wait, for window space or a link grant,
    queues the current waiter: a carrier task, blocked in it, or this
    object, which steps on as a callback and then resumes the sender."""

    def __init__(self, conn, msg, frame_len: int, trying: bool) -> None:
        self.conn, self.msg, self.trying = conn, msg, trying
        self.frame_len = self.remaining = frame_len
        self.pump = conn._net._pump(conn.profile, conn._direction)
        self.caller = conn._rt._current
        self.windowed = False  # waiting for a window kick

    def step(self) -> bool:
        """Go on to the frame's next wait; True once the frame is out."""
        conn, rt, kick = self.conn, self.conn._rt, self.conn._window_kick
        while self.remaining > 0:
            if self.windowed:
                if not len(kick):
                    kick._getters.append(rt._current)
                    rt._switch(None)
                    if rt._current is self:
                        return False
                    continue
                kick.get()
                self.windowed = False
                if conn.closed:
                    kick.try_put(None)  # wake the next sender
                    raise TransportError(
                        f"connection {conn.conn_id} closed mid-send")
            # sender-side silly-window avoidance (RFC 1122 4.2.3.4): wait for
            # an eighth of the window, or the rest of the frame, to be free
            if conn._window_avail < min(self.remaining, conn._min_slice):
                self.windowed = True
                continue
            take = min(self.remaining, conn._window_avail)
            conn._window_avail -= take
            rt.call_later(conn.profile.rtt, conn._release_window(take))
            self.remaining -= take
            self.pump.acquire(conn.conn_id, take)  # to transmit end
            if rt._current is self:
                return False
        msg, frame_len, peer = self.msg, self.frame_len, conn._peer
        conn.sent_bytes += frame_len
        if isinstance(msg, DataChunk):
            conn.sent_payload += len(msg.payload)
        rt.call_later(conn.profile.rtt / 2,
                      lambda: peer._deliver(msg, frame_len))
        return True

    def __call__(self) -> None:
        """Step on where a wait ended; then resume the frame's sender."""
        try:
            if not self.step():
                return
            value = exc = None
        except TransportError as err:
            value, exc = None, err
        if self.trying:
            value, exc = exc is None, None
        rt, caller = self.conn._rt, self.caller
        if type(caller) is Task:
            rt._step(caller, exc, value)
        elif exc is not None:
            raise exc
        else:
            rt._current = caller
            caller()
