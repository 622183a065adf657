"""Wall-clock transport: the emulator's connection surface over real TCP.

SocketNetwork mirrors EmulatedNetwork's listen/connect API on loopback
sockets so the same headnode, disk server and client code runs in real time
for demonstration runs. Logical addresses ("host:port") map to ephemeral
OS ports; the profile's rtt is imposed as a connect delay plus half-rtt
delivery delay per message, and sends are paced through a shared token
bucket at the profile's bandwidth.

Differences from the virtual emulator, by design: the per-connection window
and the 16-chunk push credit system are not simulated — real TCP flow
control plus a bounded receive queue provide the backpressure instead. The
virtual emulator remains the measurement instrument; this transport is for
watching the system run on actual sockets.
"""

from __future__ import annotations

import socket
import threading

from .errors import (
    ChannelClosedError,
    ConnectionClosedError,
    EndpointRefusedError,
    TransportError,
)
from .netemu import ZERO_PROFILE, LinkProfile, link_pump
from .wire import DataChunk, FrameDecoder, Message, encode_frame

RECV_QUEUE_FRAMES = 16  # per-connection reordering-free delivery buffer


class _Eof:
    def __repr__(self) -> str:
        return "<eof>"


_EOF = _Eof()


class SocketNetwork:
    """Registry of loopback listeners plus shared bandwidth pacing."""

    def __init__(self, runtime, *, host: str = "127.0.0.1"):
        if hasattr(runtime, "call_later"):
            raise TypeError("SocketNetwork needs a WallRuntime "
                            "(virtual time uses remfio.netemu)")
        self._rt = runtime
        self._host = host
        self._ports: dict[str, int] = {}
        self._profiles: dict[str, LinkProfile] = {}
        self._listeners: list[socket.socket] = []
        self._pumps: dict = {}

    def listen(self, address: str, handler) -> None:
        """Bind a real socket for the logical address; spawn handler per
        inbound connection."""
        if address in self._ports:
            raise ValueError(f"address already listening: {address}")
        srv = socket.create_server((self._host, 0))
        self._ports[address] = srv.getsockname()[1]
        self._listeners.append(srv)
        self._rt.spawn(self._accept_loop, srv, address, handler,
                       name=f"accept-{address}")

    def _accept_loop(self, srv, address, handler) -> None:
        n = 0
        while True:
            try:
                sock, _ = srv.accept()
            except OSError:
                return  # listener closed
            n += 1
            # shape the acceptor end with whatever profile the dialing side
            # last used for this address (recorded before the TCP dial, so
            # it is in place by the time accept() returns)
            profile = self._profiles.get(address, ZERO_PROFILE)
            conn = SockConnection(self, sock, profile, direction="down")
            self._rt.spawn(handler, conn, name=f"srv-{address}-{n}")

    def connect(self, address: str, profile: LinkProfile, *,
                first_msg: Message | None = None,
                window: int | None = None) -> "SockConnection":
        """Dial a logical address; costs one rtt, like the emulator."""
        del window  # real TCP flow control stands in for the window model
        self._profiles[address] = profile
        port = self._ports.get(address)
        if port is None:
            self._rt.sleep(profile.rtt)
            raise EndpointRefusedError(f"no listener at {address}")
        sock = socket.create_connection((self._host, port))
        conn = SockConnection(self, sock, profile, direction="up")
        if first_msg is not None:
            conn.send(first_msg)
        self._rt.sleep(profile.rtt)
        return conn

    def close(self) -> None:
        """Stop all listeners (open connections are closed by their owners)."""
        for srv in self._listeners:
            try:
                srv.close()
            except OSError:
                pass
        self._listeners.clear()
        self._ports.clear()


class SockConnection:
    """One endpoint of a shaped loopback connection.

    Counter semantics match EmuConnection: sent_/delivered_bytes count whole
    frames, sent_/delivered_payload count DataChunk payload only, and
    delivery counts at frame arrival (the reader thread), not at recv().
    """

    def __init__(self, net: SocketNetwork, sock: socket.socket,
                 profile: LinkProfile, *, direction: str):
        self._net = net
        self._rt = net._rt
        self._sock = sock
        self.profile = profile
        self._pump = link_pump(net._pumps, net._rt, profile, direction)
        self._inbox = net._rt.channel(capacity=RECV_QUEUE_FRAMES)
        self._send_lock = threading.Lock()
        self._closed = False
        self._peer_closed = False
        self.sent_bytes = 0
        self.sent_payload = 0
        self.delivered_bytes = 0
        self.delivered_payload = 0
        self.on_data_credit = None  # kept for surface parity; never fired
        self._rt.spawn(self._reader, name=f"sock-rd-{sock.fileno()}")

    # -- inbound ---------------------------------------------------------------

    def _reader(self) -> None:
        decoder = FrameDecoder()
        half_rtt = self.profile.rtt / 2
        try:
            while True:
                data = self._sock.recv(65536)
                if not data:
                    break
                arrival = self._rt.now()
                self.delivered_bytes += len(data)
                for msg in decoder.feed(data):
                    if isinstance(msg, DataChunk):
                        self.delivered_payload += len(msg.payload)
                    self._inbox.put((msg, arrival + half_rtt))
        except (OSError, ChannelClosedError):
            pass
        try:
            self._inbox.put(_EOF)
        except ChannelClosedError:
            pass

    def recv(self) -> Message:
        """Next in-order message; raises ConnectionClosedError at stream
        end."""
        if self._closed:
            raise ConnectionClosedError("recv on closed connection")
        try:
            item = self._inbox.get()
        except ChannelClosedError:
            raise ConnectionClosedError("connection torn down") from None
        if item is _EOF:
            self._peer_closed = True
            raise ConnectionClosedError("peer closed connection")
        msg, deliver_at = item
        dt = deliver_at - self._rt.now()
        if dt > 0:
            self._rt.sleep(dt)
        return msg

    # -- outbound --------------------------------------------------------------

    def send(self, msg: Message, *, credit_reserved: bool = False) -> None:
        del credit_reserved  # push credits are a virtual-mode device
        if self._closed or self._peer_closed:
            raise TransportError("send on closed connection")
        frame = encode_frame(msg)
        self._pump.acquire(id(self), len(frame))
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except OSError as exc:
            self._peer_closed = True
            raise TransportError(f"send failed: {exc}") from exc
        self.sent_bytes += len(frame)
        if isinstance(msg, DataChunk):
            self.sent_payload += len(msg.payload)

    def try_reserve_data_credit(self) -> bool:
        return True  # TCP backpressure bounds in-flight data instead

    # -- lifecycle ---------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed or self._peer_closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._inbox.close()  # wakes a reader blocked on a full queue
