"""POSIX-like remote file client: rf_open / rf_read / rf_seek / rf_close.

One ClientHandle speaks for one open file and implements the four read-mode
behaviours:

  NORMAL    one ReadRequest round trip per rf_read call, no client buffer.
  READBUF   internal buffer of iobufsize; a miss issues exactly one fill
            request of min(iobufsize, bytes to EOF) at the miss position.
  READAHEAD READBUF plus server push: after open the server streams chunks
            down the control connection; the client serves reads from the
            pushed flow, discards pushed bytes that precede a forward seek
            target, and restarts the stream on a backward seek.
  STREAM    a second (data) connection carries the pushed chunks, which
            rf_read takes from it directly: there is no background receiver,
            and the connection's DataChunk credits bound the intake; any
            out-of-position seek restarts the stream.

A restart is one StreamStart at the new offset, which makes the server
abandon the push in progress. Close sends nothing: hanging up the control
connection ends the server's session, and any push with it. A push ends
silently at the end of the file: the client knows the file size from the
open, and never reads past it. Pushed chunks carry their file offset, and
both push modes track the next offset the live stream will deliver. A chunk
whose offset does not match is a leftover from before a restart and is
dropped; because any restarted stream re-reads the same file sequentially,
this single rule keeps the delivered byte sequence exact across seeks in
both directions.

rf_read returns a read-only memoryview in every mode, also when it is
empty. Each chunk or fill is kept as one read-only view, which a read inside
it slices. The parts of a read that spans chunks or fills are returned as
one view of their buffer when they lie end to end in one: the payloads of a
seeded pool file are views of its seed's content tile, and a read that lies
inside one content block is one view of the tile, so no byte is copied
between the pool content and the caller. Only a read across content blocks
is joined, once. bytes(result) makes an owned copy.

Counters per handle: open_time, read_time, bytes_consumed, bytes_wire
(DataChunk payload bytes that actually arrived over the network, including
pushed bytes the client later discarded). No read updates the last two:
while the handle is open, handle.counters sets them from the position and
seeks and from what arrived on its connections; close freezes them. The
transfer rate reported at close is bytes_consumed / (open_time + read_time).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

from .errors import (
    AuthError,
    HandleBusyError,
    NotFoundError,
    ProtocolError,
    QueueOverflowError,
    RangeError,
    StaleHandleError,
    StaleReplicaError,
)
from .headnode import DEFAULT_NS_PORT, DEFAULT_OPEN_PORT, session_token
from .netemu import WAN_PROFILE, LinkProfile
from .wire import (
    DataChunk,
    ErrorCode,
    ErrorReply,
    NsLookup,
    NsLookupReply,
    OpenReply,
    OpenRequest,
    ReadMode,
    StreamStart,
)
from .wire import ReadRequest

_ERROR_TYPES = {
    ErrorCode.NOT_FOUND: NotFoundError,
    ErrorCode.AUTH: AuthError,
    ErrorCode.QUEUE_OVERFLOW: QueueOverflowError,
    ErrorCode.STALE_REPLICA: StaleReplicaError,
    ErrorCode.STALE_HANDLE: StaleHandleError,
}


def _expect(msg, want):
    """Narrow a reply to the wanted type, surfacing ErrorReply as a typed
    exception."""
    if isinstance(msg, ErrorReply):
        exc = _ERROR_TYPES.get(ErrorCode(msg.code), ProtocolError)
        raise exc(msg.detail)
    if not isinstance(msg, want):
        raise ProtocolError(
            f"expected {want.__name__}, got {type(msg).__name__}")
    return msg


@dataclass
class ClientConfig:
    """Everything a client needs to reach and speak to the installation."""

    runtime: object
    network: object
    headnode: str = "head"
    token: str = ""
    mode: ReadMode = ReadMode.NORMAL
    iobufsize: int = 131072
    emulated_window: int = 1024 * 1024
    profile: LinkProfile = WAN_PROFILE
    ns_port: int = DEFAULT_NS_PORT
    open_port: int = DEFAULT_OPEN_PORT

    def __post_init__(self) -> None:
        if self.iobufsize <= 0:
            raise ValueError("iobufsize must be positive")
        if self.emulated_window <= 0:
            raise ValueError("emulated_window must be positive")


@dataclass
class HandleCounters:
    open_time: float = 0.0
    read_time: float = 0.0
    bytes_consumed: int = 0
    bytes_wire: int = 0

    @property
    def rate(self) -> float:
        """bytes_consumed / (open_time + read_time); 0 when nothing moved."""
        denom = self.open_time + self.read_time
        if denom <= 0.0 or self.bytes_consumed == 0:
            return 0.0
        return self.bytes_consumed / denom


class ClientHandle:
    """One open remote file. A read or seek during another call on it
    raises HandleBusyError; a close may come from any task."""

    def __init__(self, config: ClientConfig, path: str, handle_id: int,
                 file_size: int, control, data=None) -> None:
        self._rt = config.runtime
        self.path = path
        self.handle_id = handle_id
        self.mode = config.mode
        self.iobufsize = config.iobufsize
        self.file_size = file_size
        self.logical_position = 0
        self._rewound = 0  # net bytes seeks moved the position back
        self._counters = HandleCounters()
        self.double_close = False
        self.request_count = 0  # ReadRequests issued (NORMAL calls and fills)
        self._control = control
        self._data = data
        self._buf = b""  # or a read-only view of a chunk or fill
        self._buf_start = 0
        self._expected = 0  # next offset the live push stream will deliver
        self._closed = False
        self._busy = False  # a read or seek is in progress

    # -- counters ------------------------------------------------------------

    @property
    def counters(self) -> HandleCounters:
        """The handle's counters, brought up to date while it is open."""
        c = self._counters
        if not self._closed:
            c.bytes_consumed = self.logical_position + self._rewound
            c.bytes_wire = self._control.delivered_payload + (
                0 if self._data is None else self._data.delivered_payload)
        return c

    def _enter(self, call: str) -> None:
        """Start a read or seek: refuse it on a closed or busy handle."""
        if self._closed:
            raise StaleHandleError(f"{call} on closed handle {self.handle_id}")
        if self._busy:
            raise HandleBusyError(
                f"{call} on handle {self.handle_id} during another call")
        self._busy = True

    # -- read ------------------------------------------------------------------

    def read(self, length: int) -> memoryview:
        """Return up to `length` bytes from the current position, as a
        read-only memoryview; bytes(result) makes an owned copy.

        Short only at EOF; advances the position by what was returned. A
        read inside one received chunk is a view of that chunk's payload,
        which may be shared with the server's pool content. A read across
        chunks is one view of their buffer when they lie end to end in one,
        as a seeded file's do inside one content block; only a read across
        content blocks is joined in one copy.
        """
        pos, buf = self.logical_position, self._buf
        off = pos - self._buf_start
        if self._busy or self._closed:
            self._enter("read")  # raises
        if 0 <= off and 0 < length <= len(buf) - off:
            data = buf[off:off + length]  # inside the held chunk: no wait
        else:
            rt = self._rt
            t0 = rt._now
            self._busy = True
            try:
                if length <= 0:
                    raise ValueError("read length must be positive")
                if self.mode is ReadMode.NORMAL:
                    data = self._request(pos, length)
                else:
                    data = self._read_buffered(pos, length)
            finally:
                self._busy = False
                self._counters.read_time += rt._now - t0
            length = len(data)
        self.logical_position = pos + length
        return data

    def _request(self, pos: int, length: int) -> memoryview:
        """One ReadRequest round trip: a read-only view of the bytes before
        EOF, empty at EOF; the chunks are joined by _joined."""
        self._control.send(ReadRequest(self.handle_id, pos, length))
        self.request_count += 1
        expected = min(length, max(0, self.file_size - pos))
        if expected == 0:
            if _expect(self._control.recv(), DataChunk).payload != b"":
                raise ProtocolError("expected empty chunk at EOF")
            return memoryview(b"")
        parts = []
        while expected > 0:
            parts.append(_expect(self._control.recv(), DataChunk).payload)
            expected -= len(parts[-1])
        return _joined(parts)

    def _read_buffered(self, pos: int, length: int) -> memoryview:
        """Serve from the buffer, at pos; refill it on a miss.

        READBUF refills with one request of iobufsize, clamped at EOF; the
        push modes take the next pushed chunk that reaches the position.
        A lone part is returned as a slice of the buffer, not a copy; more
        are joined by _joined. A pushed chunk whose offset is not the live
        stream's next is stale, from before a restart, and is dropped.
        """
        end = min(pos + length, self.file_size)
        parts = []
        while pos < end:
            buf = self._buf
            off = pos - self._buf_start
            if 0 <= off < len(buf):
                take = min(end - pos, len(buf) - off)
                parts.append(buf[off:off + take])
                pos += take
            elif self.mode is ReadMode.READBUF:
                self._buf = self._request(
                    pos, min(self.iobufsize, self.file_size - pos))
                self._buf_start = pos
            else:  # the data connection in STREAM, else the control one
                msg = _expect((self._data or self._control).recv(), DataChunk)
                if msg.offset == self._expected:
                    self._expected += len(msg.payload)
                    if self._expected > pos:  # else skipped-over bytes
                        self._buf = memoryview(msg.payload).toreadonly()
                        self._buf_start = msg.offset
        return parts[0] if len(parts) == 1 else _joined(parts)

    # -- seek ------------------------------------------------------------------

    def seek(self, offset: int) -> int:
        """Move the logical position; returns the new (always correct)
        position."""
        self._enter("seek")
        try:
            if not 0 <= offset <= self.file_size:
                raise RangeError(
                    f"seek to {offset} outside [0, {self.file_size}]")
            if self.mode is ReadMode.STREAM:
                if offset != self.logical_position:
                    self._restart_stream(offset)
            elif self.mode is ReadMode.READAHEAD:
                start = self._buf_start
                if start <= offset < start + len(self._buf):
                    pass  # buffer retained; reads keep serving from it
                elif offset < self._expected:
                    # the stream has already passed this offset
                    self._restart_stream(offset)
                else:
                    self._buf = b""  # ahead of the stream: let it catch up
            self._rewound += self.logical_position - offset
            self.logical_position = offset
            return self.logical_position
        finally:
            self._busy = False

    def _restart_stream(self, offset: int) -> None:
        self._control.send(StreamStart(self.handle_id, offset))
        self._expected = offset
        self._buf = b""
        self._buf_start = offset

    # -- close -----------------------------------------------------------------

    def close(self) -> HandleCounters:
        """Freeze and return counters, then hang up, which ends the
        server's session and any stream; takes no virtual time."""
        if self._closed:
            self.double_close = True
            return self._counters
        counters = self.counters
        self._closed = True
        self._control.close()
        if self._data is not None:
            self._data.close()
        return counters


class _PyBuffer(ctypes.Structure):
    """CPython's Py_buffer, as PyObject_GetBuffer fills it in."""
    _fields_ = [("buf", ctypes.c_void_p), ("obj", ctypes.c_void_p),
                ("len", ctypes.c_ssize_t), ("itemsize", ctypes.c_ssize_t),
                ("readonly", ctypes.c_int), ("ndim", ctypes.c_int),
                ("format", ctypes.c_char_p), ("shape", ctypes.c_void_p),
                ("strides", ctypes.c_void_p),
                ("suboffsets", ctypes.c_void_p),
                ("internal", ctypes.c_void_p)]


_get_buffer = ctypes.PYFUNCTYPE(
    ctypes.c_int, ctypes.py_object, ctypes.POINTER(_PyBuffer), ctypes.c_int)(
    ("PyObject_GetBuffer", ctypes.pythonapi))
_release_buffer = ctypes.PYFUNCTYPE(None, ctypes.POINTER(_PyBuffer))(
    ("PyBuffer_Release", ctypes.pythonapi))


def _address(data) -> int:
    """The address of data's first byte; data is a contiguous buffer."""
    view = _PyBuffer()
    _get_buffer(data, view, 0)  # PyBUF_SIMPLE; raises BufferError if not
    try:
        return view.buf
    finally:
        _release_buffer(view)


def _joined(parts: list) -> memoryview:
    """The parts, in order, as one read-only memoryview. Parts that lie end
    to end in one buffer, each starting where the one before it ended, are
    one view of that buffer, with no copy; any others are joined in one
    copy."""
    if len(parts) == 1:
        return memoryview(parts[0]).toreadonly()
    views = [memoryview(p) for p in parts]
    if views:
        obj = views[0].obj
        start = end = _address(views[0])
        for v in views:
            if v.obj is not obj or _address(v) != end:
                break
            end += v.nbytes
        else:
            base = _address(obj)
            return memoryview(obj).cast("B")[start - base:end - base
                                             ].toreadonly()
    return memoryview(b"".join(views))


def _ask(config: ClientConfig, address: str, request, want):
    """Connect to address with request riding the handshake; return the
    connection and its reply, narrowed to want. The connection is closed if
    the reply is anything else."""
    conn = config.network.connect(address, config.profile, first_msg=request,
                                  window=config.emulated_window)
    try:
        return conn, _expect(conn.recv(), want)
    except BaseException:
        conn.close()
        raise


def rf_open(path: str, config: ClientConfig) -> ClientHandle:
    """Open a remote file: namespace lookup, brokered open, disk session.

    Push modes additionally start their stream before this returns. The
    whole sequence is timed into the handle's open_time counter.
    """
    rt, net = config.runtime, config.network
    t0 = rt.now()
    conn, located = _ask(config, f"{config.headnode}:{config.ns_port}",
                         NsLookup(path), NsLookupReply)
    conn.close()
    conn, brokered = _ask(config, f"{config.headnode}:{config.open_port}",
                          OpenRequest(path, config.mode, config.iobufsize,
                                      config.token), OpenReply)
    conn.close()
    handle_id = brokered.handle_id
    control, opened = _ask(config, located.replica_address,
                           OpenRequest(path, config.mode, config.iobufsize,
                                       session_token(handle_id, config.token)),
                           OpenReply)

    data = None
    if config.mode is ReadMode.READAHEAD:
        control.send(StreamStart(handle_id, 0))
    elif config.mode is ReadMode.STREAM:
        data = net.connect(located.replica_address, config.profile,
                           first_msg=StreamStart(handle_id, 0),
                           window=config.emulated_window)

    handle = ClientHandle(config, path, handle_id, opened.file_size,
                          control, data)
    handle._counters.open_time = rt.now() - t0
    return handle


def rf_read(handle: ClientHandle, length: int) -> memoryview:
    return handle.read(length)


def rf_seek(handle: ClientHandle, offset: int) -> int:
    return handle.seek(offset)


def rf_close(handle: ClientHandle) -> HandleCounters:
    return handle.close()
