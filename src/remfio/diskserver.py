"""Disk server: serves pool-file bytes under the four read modes.

Every session runs a small pipeline of event-loop callbacks, with no task:

  control callback --(jobs)--> reader --(one chunk)--> sender --> connection

A connection's first message is read by a callback as well, which opens a
session, attaches a data connection or sends a refusal. The control
callback (EmuConnection.serve) turns each request into a job and never
waits; a refusal it makes goes out from a callback of its own. The reader
and the sender run until they must wait, and are called again where the
wait ends: the reader at a job, a seek's end, a disk grant's end or the
sender taking its chunk; the sender at a chunk, a kick (a credit back, a
new epoch, a closed connection) or a frame's end. A job
asks for one byte range of the file. In NORMAL and READBUF a ReadRequest is
a range job; in READAHEAD and STREAM a StreamStart is a push job that runs
to the end of the file, and a ReadRequest is refused. A session's chunks go
out on one connection: the data connection in STREAM, the control
connection otherwise. The reader charges the disk cost model (seek latency
on discontiguous access, sequential bandwidth shared byte-fairly across
sessions); the sender handles per-connection flow-control credits. Jobs and
chunks carry the session epoch they were made in. A StreamStart on a push
session, and the session's shutdown, bump the epoch: the reader abandons
the push in progress and the sender drops a stale chunk. The reader also
stops a job once the connection its chunks go out on has closed, so a
STREAM client that hangs up only its data connection takes no more disk
share. A push that reaches the end of the file sends nothing more; a range
read of no bytes gets one empty chunk. bytes_sent_wire is the payload that
actually went out on that connection. A session ends when its control
connection closes, whichever end closes it; shutdown forgets it and closes
its connections, and its reader and sender then park for good. Every
refusal is an ErrorReply, counted and sent by one method; one that comes
before a session exists also closes the connection.

Where a session's bytes come from: the disk model charges a read's time, so
fetching the bytes is host work only, and a session reads no file. A seeded
file's reads are cut from its seed's tile (content_range); an imported
file's bytes are kept in memory for the server's life. Either way a read is
a read-only view, not a copy, and it travels as the DataChunk payload: a
read inside one block of a seeded file reaches the client as a view of the
tile itself.

Pool layout on disk, only given a pool_dir: the seeded files, named by a hash
of the namespace path so that checkers can read them, plus an append-only
manifest with one line per seed_file write: path, filename, size, checksum,
content.FORMULA and the content key "seed:index", tab-separated. Imported
files have none.
"""

from __future__ import annotations

import hashlib
import os
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .content import (FORMULA, cached_file_checksum, checksum_bytes,
                      content_range, file_checksum)
from .errors import ConnectionClosedError
from .headnode import verify_session_token
from .wire import (
    MAX_CHUNK_PAYLOAD,
    DataChunk,
    ErrorCode,
    ErrorReply,
    OpenReply,
    OpenRequest,
    ReadMode,
    ReadRequest,
    StreamStart,
)

DEFAULT_DATA_PORT = 5001

MANIFEST_NAME = "pool-manifest.tsv"

_PUSH_MODES = (ReadMode.READAHEAD, ReadMode.STREAM)

# the counter each refusal adds one to; a stale handle is not counted
_REFUSAL_COUNTERS = {
    ErrorCode.AUTH: "auth_failures",
    ErrorCode.STALE_REPLICA: "stale_replicas",
    ErrorCode.PROTOCOL: "protocol_errors",
}


@dataclass(frozen=True)
class DiskModel:
    """Cost model for the physical disk behind a server.

    seek_latency is charged whenever a session's access is discontiguous
    with its previous one; sequential_bandwidth is the aggregate byte rate,
    fair-shared among sessions with in-flight reads.
    """

    seek_latency: float = 0.008
    sequential_bandwidth: float = 80 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.seek_latency <= 0:
            raise ValueError("seek_latency must be positive")
        if self.sequential_bandwidth <= 0:
            raise ValueError("sequential_bandwidth must be positive")


@dataclass
class PoolFile:
    """One file in the pool: a seeded file, whose bytes are cut from its
    seed's tile, or an imported one, whose bytes are kept here."""

    path: str
    size: int
    checksum: int
    key: tuple[int, int] | None = None  # (seed, index) of a seeded file
    data: bytes = field(default=b"", repr=False)  # an imported file's bytes

    def read(self, offset: int, n: int) -> memoryview:
        """Bytes [offset, offset + n) of the file, clamped to its size, as a
        read-only view: of the seed's tile or of the imported bytes."""
        if self.key is not None:
            return content_range(*self.key, self.size, offset, n)
        return memoryview(self.data)[offset:offset + n]


def _pool_filename(path: str) -> str:
    return hashlib.sha1(path.encode("utf-8")).hexdigest()[:16] + ".dat"


class DiskServer:
    """Serves file bytes over one data port with a modelled disk cost."""

    def __init__(self, runtime, network, *, pool_dir=None, shared_token: str,
                 host: str = "ds1", port: int = DEFAULT_DATA_PORT,
                 disk: DiskModel = DiskModel()) -> None:
        self._rt = runtime
        self._net = network
        self._shared = shared_token
        self.host = host
        self.port = port
        self.disk = disk
        self.pool_dir = None if pool_dir is None else Path(pool_dir)
        self.pool: dict[str, PoolFile] = {}
        self._pump = runtime.rate_limiter(disk.sequential_bandwidth)
        self.sessions: dict[int, _Session] = {}
        self.counters = {
            "opens_ok": 0,
            "auth_failures": 0,
            "stale_replicas": 0,
            "protocol_errors": 0,
        }
        if self.pool_dir is not None:
            self._manifest = self.pool_dir / MANIFEST_NAME
            if not self.pool_dir.exists():
                self.pool_dir.mkdir(parents=True, exist_ok=True)
            names = set(os.listdir(self.pool_dir))
            if MANIFEST_NAME in names:
                self._load_pool(names)

    def start(self) -> None:
        self._net.accept(self.address, lambda conn: conn.when_readable(
            lambda: self._serve(conn)))

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- pool management -----------------------------------------------------

    def pool_location(self, path: str) -> Path:
        """Filesystem location the pool_dir maps a namespace path to."""
        return self.pool_dir / _pool_filename(path)

    def import_file(self, path: str,
                    chunks: Iterable[bytes | bytearray | memoryview],
                    *, checksum: int | None = None) -> PoolFile:
        """Add a file of the given bytes to the pool, kept in memory for the
        server's life. Chunks may be any bytes-like objects; the size counts
        their bytes and the checksum is the blake2b-64 of their
        concatenation. A checksum= that does not match raises ValueError and
        leaves any earlier file at the path in place."""
        data = b"".join(chunks)
        digest = checksum_bytes(data)
        if checksum is not None and checksum != digest:
            raise ValueError(f"content checksum mismatch for {path}: "
                             f"expected {checksum:#x}, got {digest:#x}")
        self.pool[path] = PoolFile(path, len(data), digest, data=data)
        return self.pool[path]

    def seed_file(self, path: str, seed: int, index: int,
                  size: int) -> PoolFile:
        """Add pool file `index` of remfio.content's seed `seed` with its key
        (seed, index): sessions cut its bytes from the seed's tile. Without
        a pool_dir its checksum is memoized; with one, the file is written
        to pool_location(path) by way of a temporary file, hashed in the same
        pass and recorded in the manifest. A path holding a tab or a line
        break is rejected before anything is written."""
        if any(c in path for c in "\t\n\r"):
            raise ValueError(f"pool path holds a tab or line break: {path!r}")
        if self.pool_dir is None:
            digest = cached_file_checksum(seed, index, size)
            self.pool[path] = PoolFile(path, size, digest, (seed, index))
            return self.pool[path]
        location = self.pool_location(path)
        partial = location.with_name(location.name + ".partial")
        try:
            with open(partial, "wb") as f:
                digest = file_checksum(seed, index, size, f.write)
            os.replace(partial, location)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        self.pool[path] = PoolFile(path, size, digest, (seed, index))
        with open(self._manifest, "a", encoding="utf-8") as f:
            f.write(f"{path}\t{location.name}\t{size}\t{digest}"
                    f"\t{FORMULA}\t{seed}:{index}\n")
        return self.pool[path]

    def _load_pool(self, names: set) -> None:
        """Load the manifest's seeded files, the last line per path winning.
        Any other line is skipped, and seed_pool seeds its path again: one
        cut short, keyless, of another content formula, or naming another
        file or one not in names, the directory's listing. A last line cut
        short is ended, so that the next append starts a line."""
        text = self._manifest.read_text(encoding="utf-8", errors="replace")
        *lines, cut = text.split("\n")
        if cut:
            with open(self._manifest, "a", encoding="utf-8") as f:
                f.write("\n")
        for line in lines:
            try:
                path, name, size, checksum, formula, key = line.split("\t")
                seed, index = key.split(":")
                pool_file = PoolFile(path, int(size), int(checksum),
                                     (int(seed), int(index)))
            except ValueError:
                continue
            if (formula == FORMULA and name in names
                    and _pool_filename(path) == name):
                self.pool[path] = pool_file

    # -- connection handling ---------------------------------------------------

    def _serve(self, conn) -> None:
        """Serve the first message on conn, which is readable."""
        try:
            first = conn.recv()
        except ConnectionClosedError:
            conn.close()
            return
        if isinstance(first, OpenRequest):
            refusal = self._run_control(conn, first)
        elif isinstance(first, StreamStart):
            refusal = self._run_data(conn, first)
        else:
            refusal = ErrorReply(ErrorCode.PROTOCOL,
                                 "expected OpenRequest or StreamStart")
        if refusal is not None:
            self._refuse(conn, refusal, conn.close)

    def _refuse(self, conn, refusal: ErrorReply, then) -> None:
        """Count and send a refusal, then call then()."""
        counter = _REFUSAL_COUNTERS.get(refusal.code)
        if counter is not None:
            self.counters[counter] += 1
        conn.send(refusal, then=then)

    def _run_control(self, conn, request: OpenRequest) -> ErrorReply | None:
        """Open a session and, once its OpenReply is out, hand its control
        connection to _on_control; the refusal if the open is not
        admitted."""
        handle_id = verify_session_token(request.token, self._shared)
        if handle_id is None:
            return ErrorReply(ErrorCode.AUTH, "session token rejected")
        pool_file = self.pool.get(request.path)
        if pool_file is None:
            return ErrorReply(ErrorCode.STALE_REPLICA, request.path)
        if handle_id in self.sessions:
            return ErrorReply(ErrorCode.PROTOCOL, "handle already open")
        session = _Session(self, handle_id, ReadMode(request.mode),
                           request.iobufsize, pool_file, conn)
        self.sessions[handle_id] = session
        self.counters["opens_ok"] += 1
        def serve() -> None:
            conn.serve(lambda msg: self._on_control(session, msg))

        conn.send(OpenReply(handle_id, pool_file.size), then=serve)
        return None

    def _on_control(self, session: "_Session", msg) -> None:
        """Serve one message on a session's control connection, or end the
        session at the connection's end. Runs inside serve()'s loop, so a
        refusal goes out from a callback of its own, pushed to run next."""
        if msg is None:
            session.shutdown()
            return
        refusal = None
        if isinstance(msg, StreamStart):
            refusal = self._start_stream(session, msg.offset)
        elif isinstance(msg, ReadRequest) and session.mode not in _PUSH_MODES:
            session.request_range(msg.offset, msg.length)
        else:
            refusal = ErrorReply(ErrorCode.PROTOCOL, (
                f"unexpected {type(msg).__name__} on a "
                f"{session.mode.name} control connection"))
        if refusal is not None:
            self._rt._push(self._rt._now, lambda: self._refuse(
                session.control_conn, refusal, lambda: None))

    def _start_stream(self, session: "_Session",
                      offset: int) -> ErrorReply | None:
        if session.mode not in _PUSH_MODES:
            return ErrorReply(ErrorCode.PROTOCOL,
                              "stream start outside push mode")
        if session.mode is ReadMode.STREAM and session.data_conn is None:
            return ErrorReply(ErrorCode.PROTOCOL,
                              "no data connection attached")
        session.request_stream(offset)
        return None

    def _run_data(self, conn, start: StreamStart) -> ErrorReply | None:
        session = self.sessions.get(start.handle_id)
        if session is None:
            return ErrorReply(ErrorCode.STALE_HANDLE, str(start.handle_id))
        if session.mode is not ReadMode.STREAM or session.data_conn is not None:
            return ErrorReply(ErrorCode.PROTOCOL,
                              "unexpected data connection")
        # the session owns the connection from here: its sender stops once
        # either end closes, and shutdown closes this end
        session.attach_data(conn)
        session.request_stream(start.offset)
        return None


class _Session:
    """Server-side state and pipeline for one open handle."""

    def __init__(self, server: DiskServer, handle_id: int, mode: ReadMode,
                 iobufsize: int, pool_file: PoolFile,
                 control_conn) -> None:
        self._server = server
        self._rt = server._rt
        self.handle_id = handle_id
        self.mode = mode
        self.iobufsize = max(1, iobufsize)
        self.size = pool_file.size
        self._file = pool_file
        self.control_conn = control_conn
        self.data_conn = None
        # the connection chunks go out on; a STREAM session's is attached
        self._out = None if mode is ReadMode.STREAM else control_conn
        self.current_offset = 0
        self.epoch = 0
        self._cap = (min(MAX_CHUNK_PAYLOAD, self.iobufsize) if mode in (
            ReadMode.READBUF, ReadMode.READAHEAD) else MAX_CHUNK_PAYLOAD)
        self._jobs: deque = deque()  # (epoch, offset, end)
        self._job = None  # [epoch, pos, end] of the job being read
        self._resume = None  # "seek" or "disk" while the reader waits on one
        # (epoch, DataChunk) the reader holds, the one it handed over, and
        # the one the sender took
        self._held = self._chunk = self._msg = None
        # parked until an event of the session pushes it back, once: the
        # reader for a job or a free hand, the sender for a chunk or credit
        self._reader_parked = self._sender_parked = True
        control_conn.on_data_credit = self._kick

    @property
    def bytes_sent_wire(self) -> int:
        """DataChunk payload bytes that went out on the wire."""
        return 0 if self._out is None else self._out.sent_payload

    def _kick(self) -> None:  # a credit back, a new epoch or a close
        if self._sender_parked and self._msg is not None:
            self._sender_parked = False
            self._rt._push(self._rt._now, self._send)

    def attach_data(self, conn) -> None:
        self.data_conn = self._out = conn
        conn.on_data_credit = self._kick

    # -- control entry points (run in the control callback) -----------------

    def request_range(self, offset: int, length: int) -> None:
        self._jobs.append((self.epoch, offset, offset + length))
        if self._reader_parked and self._held is None:
            self._reader_parked = False
            self._rt._push(self._rt._now, self._read)

    def request_stream(self, offset: int) -> None:
        """Push from offset to the end of the file, abandoning any push
        in progress."""
        self.interrupt()
        self.request_range(offset, self.size - offset)

    def interrupt(self) -> None:
        self.epoch += 1
        self._kick()

    def shutdown(self) -> None:
        """Forget the session, stop its pipeline and close its
        connections."""
        del self._server.sessions[self.handle_id]
        self.interrupt()
        self.control_conn.close()
        if self.data_conn is not None:
            self.data_conn.close()

    # -- the reader and the sender: event-loop callbacks ---------------------

    def _read(self) -> None:
        """Read each job's range, clamped to the file, in chunks of at most
        _cap, and hand each to the sender."""
        while True:
            if self._resume == "disk":  # granted
                self._resume = None
                epoch, pos, end = job = self._job
                n = min(self._cap, end - pos)
                self.current_offset = job[1] = pos + n
                self._held = (epoch, DataChunk(self.handle_id, pos,
                                               self._file.read(pos, n)))
            if self._held is not None:
                if self._chunk is not None:
                    self._reader_parked = True
                    return
                self._chunk, self._held = self._held, None
                if self._sender_parked and self._msg is None:
                    self._sender_parked = False
                    self._rt._push(self._rt._now, self._send)
            if self._resume is None:
                if self._job is None:
                    if not self._jobs:
                        self._reader_parked = True
                        return
                    epoch, offset, end = self._jobs.popleft()
                    end = min(end, self.size)
                    self._job = [epoch, min(offset, end), end]
                    if offset >= end and self.mode not in _PUSH_MODES:
                        self._held = (epoch, DataChunk(self.handle_id, offset,
                                                       b""))  # EOF or empty
                        continue
                epoch, pos, end = self._job
                if pos >= end or epoch != self.epoch or self._out.closed:
                    self._job = None
                    continue
                if pos != self.current_offset:
                    self._resume = "seek"
                    self._rt.sleep(self._server.disk.seek_latency)
                    return
            self._resume = "disk"
            _, pos, end = self._job
            self._server._pump.acquire(self.handle_id,
                                       min(self._cap, end - pos))
            return

    def _send(self) -> None:
        """Send each chunk handed over once it holds a credit."""
        while True:
            if self._msg is None:
                if self._chunk is None:
                    self._sender_parked = True
                    return
                self._msg, self._chunk = self._chunk, None
                if self._reader_parked and self._held is not None:
                    self._reader_parked = False
                    self._rt._push(self._rt._now, self._read)
            epoch, msg = self._msg
            conn = self._out
            if epoch != self.epoch or conn.closed:
                self._msg = None  # stale, interrupted before it left
            elif not conn.try_reserve_data_credit():
                self._sender_parked = True
                return
            else:
                self._msg = None
                conn.send(msg, credit_reserved=True)
                return  # called again once the frame is out or dropped
