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
A window or credit return counts once the runtime has run past the position
its timer would take, and is an event only while a sender waits on it: so
on_data_credit fires at a credit return only after a reservation failed.

The steady per-connection throughput is min(fair bandwidth share,
window/rtt); throughput_cap() computes it for planning and assertions.
"""

from __future__ import annotations

from collections import deque
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
        """Spawn handler(conn) as a task named srv-<address>-<cid> for each
        inbound connection: a handler that may block."""
        rt = self._rt
        self.accept(address, lambda conn: rt.spawn(
            handler, conn, name=f"srv-{address}-{conn.conn_id[1:-1]}"))

    def accept(self, address: str,
               on_connect: Callable[["EmuConnection"], None]) -> None:
        """Call on_connect(conn) for each inbound connection, rtt/2 after
        the connect, inline in the event loop: like a timer callback, it
        must not block."""
        if address in self._services:
            raise ValueError(f"address already listening: {address}")
        self._services[address] = on_connect

    def _pump(self, profile: LinkProfile, direction: str):
        """The rate limiter shared by one direction of a named link.

        Made for the first connection, so a profile that no connection uses
        gets no limiter.
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
        Connecting blocks, so a callback's call raises RuntimeError.

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
        start = self._services.get(address)
        if start is None:
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
        rt.call_later(profile.rtt / 2, lambda: start(far))
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
        self._rt = net._rt
        self.profile = profile
        self._latency = profile.rtt / 2  # one way
        self.conn_id = conn_id
        self.address = address
        self._peer: EmuConnection | None = None
        # direction key: frames sent by the initiating end share one pump,
        # frames sent by accepting ends (the servers) share the other
        self._pump = net._pump(profile, "fwd" if conn_id.endswith("i") else "rev")
        self._queue = net._rt.channel()
        self._window_avail = window
        self._min_slice = max(1, window // 8)
        self._kicked = False  # a kick left for the window senders
        self._kick_waiters: deque = deque()
        self._window_back = _Ledger(self._rt, self._window_returned)
        self._credits = DATA_CREDITS
        self._credit_back = _Ledger(self._rt, self._credits_returned)
        self.on_data_credit = None  # fired by the next return after a refusal
        self._closed = False  # by this end
        self.closed = False  # by either end: sends will fail, recv drains
        self.sent_bytes = 0
        self.sent_payload = 0
        self.delivered_bytes = 0
        self.delivered_payload = 0

    # -- flow-control credits (DataChunk frames only) ----------------------

    def try_reserve_data_credit(self) -> bool:
        # only a sender out of credits needs the returns counted
        self._credits = self._credits or self._credit_back.settle()
        if self._credits > 0:
            self._credits -= 1
            return True
        self._credit_back.wait()
        return False

    def _credits_returned(self, n: int) -> None:
        """n credits back, or none at a close: wake a refused sender."""
        self._credits += n
        cb = self.on_data_credit
        if cb is not None:
            cb()

    def _window_returned(self, n: int) -> None:
        """n bytes of window back: kick, as their timers would have."""
        self._window_avail += n
        waiters = self._kick_waiters
        if not self._kicked:  # _kick, inline: a window return is hot
            self._kicked = True
            if waiters:
                self._rt._push(self._rt._now, waiters.popleft())
        if waiters:  # a sender still waits
            self._window_back.wait()

    def _kick(self) -> None:
        """Leave a kick for the window senders, waking the first that waits;
        while one is left, as before the sender it woke runs, none wakes."""
        if not self._kicked:
            self._kicked = True
            if self._kick_waiters:
                self._rt._push(self._rt._now, self._kick_waiters.popleft())

    # -- data path ----------------------------------------------------------

    def send(self, msg: Message, *, credit_reserved: bool = False,
             _trying: bool = False) -> None:
        """Transmit one frame; waits for window space and bandwidth share.

        The frame goes out in slices, each as large as the free window allows
        and none smaller than window // 8 unless it ends the frame; it is
        delivered whole, rtt/2 after its last slice. Tasks sending on one
        connection at once interleave whole slices, so each task's frames
        arrive in the order it sent them.

        The waits are one state machine, _Transmit: a task blocks in each,
        and a callback returns from send() and is called again once the
        frame is out.

        DataChunk frames must have a credit reserved beforehand via
        try_reserve_data_credit (receiver flow control); all other message
        types bypass credits.
        """
        tx = _Transmit(self, msg, self._admit(msg, credit_reserved), _trying)
        rt = self._rt
        cur = tx.caller
        if cur.__class__ is not Task:
            rt._current = tx  # the frame steps on as a callback
        tx(sending=True)
        rt._current = cur

    def _admit(self, msg: Message, credit_reserved: bool) -> int:
        """msg's frame length, or the error send() raises before it waits."""
        if self._closed:
            raise TransportError(f"send on closed connection {self.conn_id}")
        if self.closed:
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

    def try_send_then(self, msg: Message, then: Callable[[], None]) -> None:
        """try_send() from a callback, which is not called again: then() is,
        once the frame is out or dropped, or at once if it is refused. A
        reply sent from serve()'s handler thus does not re-enter serve()."""
        rt = self._rt
        cur, rt._current = rt._current, then
        sent = self.try_send(msg)
        rt._current = cur
        if not sent:
            then()

    def _deliver(self, msg: Message, frame_len: int) -> None:
        if self._closed:
            return  # receiver gone; bytes vanish
        self.delivered_bytes += frame_len
        if isinstance(msg, DataChunk):
            self.delivered_payload += len(msg.payload)
        self._queue.try_put(msg)  # unbounded: never refused

    def recv(self) -> Message:
        """Next in-order message; raises ConnectionClosedError at stream end."""
        if self._closed:
            raise ConnectionClosedError(f"recv on closed connection {self.conn_id}")
        if self.closed and len(self._queue) == 0:
            raise ConnectionClosedError(f"peer closed {self.conn_id}")
        msg = self._take(self._queue.get())
        if msg is None:
            raise ConnectionClosedError(f"peer closed {self.conn_id}")
        return msg

    def when_readable(self, fn: Callable[[], None]) -> None:
        """Call fn() once recv() would not wait: at once if it would not
        now, else where a parked recv() would wake, inline in the event loop
        like a timer callback."""
        if self.closed or len(self._queue):
            fn()
        else:
            self._queue.when_ready(fn)

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
                    if self.closed:
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
            self.closed = True
            return None
        if isinstance(msg, DataChunk):
            self._peer._credit_back.add(self._latency, 1)
        return msg

    def close(self) -> None:
        if self._closed:
            return
        self._closed = self.closed = True
        self._queue.put(_CLOSED)  # wake a recv() parked on this end
        peer = self._peer
        self._rt.call_later(self._latency, lambda: peer._notify_closed())
        self._kick()  # unwedge a blocked sender

    def _notify_closed(self) -> None:
        if self._closed:
            return
        self.closed = True
        self._queue.put(_CLOSED)
        # wake anything parked on window space or credits so it can bail out
        self._kick()
        self._credits_returned(0)


class _Ledger(list):
    """What an ack clock owes a connection: (time, seq, amount), FIFO by the
    position each one's timer would take, reserved as its push would. One
    is settled, counted as back, once the runtime has run past it; only
    while a waiter needs it is it armed, pushed there to run fire(amount)."""

    __slots__ = ("_rt", "_fire", "_armed", "_waiting", "_bell")

    def __init__(self, rt: VirtualRuntime, fire: Callable[[int], None]):
        super().__init__()
        self._rt, self._fire = rt, fire
        self._armed = self._waiting = False
        self._bell = self._ring  # bound once, not at every arming

    def add(self, dt: float, amount: int) -> None:
        rt = self._rt
        self.append((rt._now + dt, next(rt._seqs), amount))
        if self._waiting:
            self.wait()

    def settle(self) -> int:
        """Drop the amounts the runtime has run past; return their sum."""
        n, passed = 0, (self._rt._now, self._rt._at + 1)
        while self and self[0] < passed:
            n += self.pop(0)[2]
        return n

    def wait(self) -> None:
        """Arm the first amount, or the next one added; none may be due at
        this position, so settle() first."""
        self._waiting = True
        if self and not self._armed:
            self._armed = True
            t, seq, _ = self[0]
            self._rt._arm(t, seq, self._bell)

    def _ring(self) -> None:
        self._armed = self._waiting = False
        self._fire(self.pop(0)[2])  # the armed amount, now first


class _Transmit:
    """A frame on its way out. Each wait, for window space or a link grant,
    queues the current waiter: a carrier task, blocked in it, or this
    object, which steps on as a callback and then resumes the sender."""

    def __init__(self, conn, msg, frame_len: int, trying: bool) -> None:
        self.conn, self.msg, self.trying = conn, msg, trying
        self.frame_len = self.remaining = frame_len
        self.caller = conn._rt._current
        self.windowed = False  # waiting for a window kick

    def __call__(self, sending: bool = False) -> None:
        """Go on to the frame's next wait, from send() or where a wait
        ended; once the frame is out, or dropped by try_send, a callback
        that waited on it is called again."""
        conn = self.conn
        rt, back = conn._rt, conn._window_back
        while self.remaining > 0:
            # returns the runtime has run past come back here, and kick
            if back and back[0][0] <= rt._now and (n := back.settle()):
                conn._window_returned(n)
            if self.windowed and conn._kicked:
                conn._kicked = self.windowed = False  # the kick is taken
                if conn.closed:
                    conn._kick()  # wake the next sender
                    if sending or not self.trying:
                        raise TransportError(
                            f"connection {conn.conn_id} closed mid-send")
                    break  # dropped by a callback's try_send
            if not self.windowed:
                # sender-side silly-window avoidance (RFC 1122 4.2.3.4): wait
                # for an eighth of the window, or the frame's rest, to be free
                avail, take = conn._window_avail, self.remaining
                if avail >= take or avail >= conn._min_slice:
                    if avail < take:
                        take = avail
                    conn._window_avail = avail - take
                    back.add(conn.profile.rtt, take)
                    self.remaining -= take
                    conn._pump.acquire(conn.conn_id, take)  # to transmit end
                    if rt._current is self:
                        return  # called again at the grant's end
                    continue
                self.windowed = True
                if conn._kicked:
                    continue  # take the kick left
            cur = rt._current  # the window is short, no kick left: wait
            conn._kick_waiters.append(cur)
            back.wait()
            if cur is self and not rt._stopping:
                return  # called again at the kick
            rt._switch(None)
        else:  # the frame is out
            conn.sent_bytes += self.frame_len
            if isinstance(self.msg, DataChunk):
                conn.sent_payload += len(self.msg.payload)
            rt._push(rt._now + conn._latency, self._arrive)
        if not sending:
            rt._current = self.caller
            self.caller()

    def _arrive(self) -> None:
        """The frame reaches the far end, rtt/2 after its last slice."""
        self.conn._peer._deliver(self.msg, self.frame_len)
