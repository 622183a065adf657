"""Disk server: serves pool-file bytes under the four read modes.

Every session runs a small three-task pipeline on the server side:

  control loop --(jobs)--> reader --(chunks, cap 1)--> sender --> connection

A job asks for one byte range of the file on one connection: a ReadRequest
is a range job, a StreamStart a push job that runs to the end of the file.
The reader serves every job through one loop, charging the disk cost model
(seek latency on discontiguous access, sequential bandwidth shared
byte-fairly across sessions); the sender handles per-connection flow-control
credits. Pushed chunks carry the epoch of their job; ControlInterrupt or a
new request bumps the session epoch, which makes the reader abandon the push
and the sender drop whatever stale chunks are already in the pipe. Bytes
count toward bytes_sent_wire only when they actually go out on the wire.

Pool layout on disk: flat files named by a hash of the namespace path, plus
an append-only sidecar manifest (path, filename, size, checksum per line).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import ConnectionClosedError
from .headnode import verify_session_token
from .wire import (
    MAX_CHUNK_PAYLOAD,
    CloseRequest,
    ControlInterrupt,
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
    """One physical file in the pool directory."""

    path: str
    location: Path
    size: int
    checksum: int


def _pool_filename(path: str) -> str:
    return hashlib.sha1(path.encode("utf-8")).hexdigest()[:16] + ".dat"


class DiskServer:
    """Serves file bytes over one data port with a modelled disk cost."""

    def __init__(self, runtime, network, *, pool_dir, shared_token: str,
                 host: str = "ds1", port: int = DEFAULT_DATA_PORT,
                 disk: DiskModel = DiskModel()) -> None:
        self._rt = runtime
        self._net = network
        self._shared = shared_token
        self.host = host
        self.port = port
        self.disk = disk
        self.pool_dir = Path(pool_dir)
        self.pool_dir.mkdir(parents=True, exist_ok=True)
        self._manifest = self.pool_dir / MANIFEST_NAME
        self.pool: dict[str, PoolFile] = {}
        self._pump = runtime.rate_limiter(disk.sequential_bandwidth)
        self.sessions: dict[int, _Session] = {}
        self.counters = {
            "opens_ok": 0,
            "auth_failures": 0,
            "stale_replicas": 0,
            "protocol_errors": 0,
        }
        if self._manifest.exists():
            self._load_pool()

    def start(self) -> None:
        self._net.listen(self.address, self._serve)

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- pool management -----------------------------------------------------

    def pool_location(self, path: str) -> Path:
        """Filesystem location the pool maps a namespace path to."""
        return self.pool_dir / _pool_filename(path)

    def import_file(self, path: str, chunks: Iterable[bytes],
                    *, checksum: int | None = None) -> PoolFile:
        """Write a file into the pool and record it in the sidecar manifest.

        Re-importing a path overwrites its bytes; the manifest is append-only
        and the loader keeps the last record per path. The bytes go to a
        temporary file that replaces the pool file only once the checksum
        matches, so a rejected import leaves the old file and record intact.
        Paths holding a tab or line break, the manifest's separators, are
        rejected before anything is written.
        """
        if any(c in path for c in "\t\n\r"):
            raise ValueError(f"pool path holds a tab or line break: {path!r}")
        location = self.pool_location(path)
        partial = location.with_name(location.name + ".partial")
        h = hashlib.blake2b(digest_size=8)
        size = 0
        try:
            with open(partial, "wb") as f:
                for chunk in chunks:
                    f.write(chunk)
                    h.update(chunk)
                    size += len(chunk)
            digest = int.from_bytes(h.digest(), "big")
            if checksum is not None and checksum != digest:
                raise ValueError(
                    f"content checksum mismatch for {path}: "
                    f"expected {checksum:#x}, wrote {digest:#x}")
            os.replace(partial, location)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        pool_file = PoolFile(path, location, size, digest)
        self.pool[path] = pool_file
        with open(self._manifest, "a", encoding="utf-8") as f:
            f.write(f"{path}\t{location.name}\t{size}\t{digest}\n")
        return pool_file

    def _load_pool(self) -> None:
        with open(self._manifest, "r", encoding="utf-8") as f:
            for line in f:
                line = line.rstrip("\n")
                if not line:
                    continue
                path, name, size, checksum = line.split("\t")
                location = self.pool_dir / name
                if not location.exists():
                    continue  # stale record; file was removed underneath us
                self.pool[path] = PoolFile(path, location, int(size),
                                           int(checksum))

    # -- connection handling ---------------------------------------------------

    def _serve(self, conn) -> None:
        try:
            first = conn.recv()
        except ConnectionClosedError:
            conn.close()
            return
        if isinstance(first, OpenRequest):
            self._run_control(conn, first)
        elif isinstance(first, StreamStart):
            self._run_data(conn, first)
        else:
            self.counters["protocol_errors"] += 1
            conn.try_send(ErrorReply(
                ErrorCode.PROTOCOL, "expected OpenRequest or StreamStart"))
            conn.close()

    def _run_control(self, conn, request: OpenRequest) -> None:
        handle_id = verify_session_token(request.token, self._shared)
        if handle_id is None:
            self.counters["auth_failures"] += 1
            conn.try_send(ErrorReply(ErrorCode.AUTH, "session token rejected"))
            conn.close()
            return
        pool_file = self.pool.get(request.path)
        if pool_file is None:
            self.counters["stale_replicas"] += 1
            conn.try_send(ErrorReply(ErrorCode.STALE_REPLICA, request.path))
            conn.close()
            return
        if handle_id in self.sessions:
            self.counters["protocol_errors"] += 1
            conn.try_send(ErrorReply(ErrorCode.PROTOCOL,
                                     "handle already open"))
            conn.close()
            return
        session = _Session(self, handle_id, ReadMode(request.mode),
                           request.iobufsize, pool_file, conn)
        self.sessions[handle_id] = session
        self.counters["opens_ok"] += 1
        conn.try_send(OpenReply(handle_id, pool_file.size))
        try:
            while True:
                msg = conn.recv()
                if isinstance(msg, ReadRequest):
                    session.request_range(msg.offset, msg.length)
                elif isinstance(msg, StreamStart):
                    self._start_stream(session, conn, msg.offset)
                elif isinstance(msg, ControlInterrupt):
                    session.interrupt()
                elif isinstance(msg, CloseRequest):
                    break
                else:
                    self.counters["protocol_errors"] += 1
                    conn.try_send(ErrorReply(
                        ErrorCode.PROTOCOL, "unexpected message on control"))
        except ConnectionClosedError:
            pass
        finally:
            self._teardown(session)

    def _start_stream(self, session: "_Session", conn, offset: int) -> None:
        if session.mode not in (ReadMode.READAHEAD, ReadMode.STREAM):
            self.counters["protocol_errors"] += 1
            conn.try_send(ErrorReply(
                ErrorCode.PROTOCOL, "stream start outside push mode"))
            return
        if session.stream_active:
            self.counters["protocol_errors"] += 1
            conn.try_send(ErrorReply(
                ErrorCode.PROTOCOL, "stream already active"))
            return
        if session.mode is ReadMode.STREAM and session.data_conn is None:
            self.counters["protocol_errors"] += 1
            conn.try_send(ErrorReply(
                ErrorCode.PROTOCOL, "no data connection attached"))
            return
        session.request_stream(offset)

    def _run_data(self, conn, start: StreamStart) -> None:
        session = self.sessions.get(start.handle_id)
        if session is None:
            conn.try_send(ErrorReply(ErrorCode.STALE_HANDLE,
                                     str(start.handle_id)))
            conn.close()
            return
        if session.mode is not ReadMode.STREAM or session.data_conn is not None:
            self.counters["protocol_errors"] += 1
            conn.try_send(ErrorReply(ErrorCode.PROTOCOL,
                                     "unexpected data connection"))
            conn.close()
            return
        # the session owns the connection from here: its sender stops once
        # either end closes, and teardown closes this end
        session.attach_data(conn)
        session.request_stream(start.offset)

    def _teardown(self, session: "_Session") -> None:
        if self.sessions.get(session.handle_id) is session:
            del self.sessions[session.handle_id]
        session.shutdown()
        session.control_conn.close()
        if session.data_conn is not None:
            session.data_conn.close()


class _Session:
    """Server-side state and pipeline for one open handle."""

    def __init__(self, server: DiskServer, handle_id: int, mode: ReadMode,
                 iobufsize: int, pool_file: PoolFile, control_conn) -> None:
        self._server = server
        self._rt = server._rt
        self.handle_id = handle_id
        self.mode = mode
        self.iobufsize = max(1, iobufsize)
        self.size = pool_file.size
        self.control_conn = control_conn
        self.data_conn = None
        self.current_offset = 0
        self.stream_active = False
        self.bytes_sent_wire = 0
        self.epoch = 0
        self._fh = open(pool_file.location, "rb")
        # jobs are (epoch, conn, offset, end), chunks (epoch, conn, offset,
        # payload); epoch is None for a range read, and None itself closes
        self._jobs = self._rt.channel()
        self._chunks = self._rt.channel(capacity=1)
        self._kicks = self._rt.channel(capacity=1)
        control_conn.on_data_credit = self._kick
        self._reader = self._rt.spawn(self._read_loop,
                                      name=f"ds-read-{handle_id}")
        self._sender = self._rt.spawn(self._send_loop,
                                      name=f"ds-send-{handle_id}")

    def _kick(self) -> None:
        self._kicks.try_put(None)

    def attach_data(self, conn) -> None:
        self.data_conn = conn
        conn.on_data_credit = self._kick

    # -- control-loop entry points (run in the control handler task) -------

    def request_range(self, offset: int, length: int) -> None:
        if self.stream_active:  # a new request stops any push
            self.interrupt()
        self._jobs.put((None, self.control_conn, offset, offset + length))

    def request_stream(self, offset: int) -> None:
        conn = self.data_conn if self.mode is ReadMode.STREAM \
            else self.control_conn
        self.stream_active = True
        self._jobs.put((self.epoch, conn, offset, self.size))

    def interrupt(self) -> None:
        self.epoch += 1
        self.stream_active = False
        self._kick()

    def shutdown(self) -> None:
        self.interrupt()
        self._jobs.put(None)
        self._rt.join(self._reader)
        self._rt.join(self._sender)

    # -- reader task ---------------------------------------------------------

    def _read_loop(self) -> None:
        chunk_cap = MAX_CHUNK_PAYLOAD
        if self.mode in (ReadMode.READBUF, ReadMode.READAHEAD):
            chunk_cap = min(chunk_cap, self.iobufsize)
        try:
            while (job := self._jobs.get()) is not None:
                self._serve(*job, chunk_cap)
            self._chunks.put(None)
        finally:
            self._fh.close()

    def _disk_read(self, offset: int, n: int) -> bytes:
        """Charge the disk model, then return n bytes at offset."""
        if offset != self.current_offset:
            self._rt.sleep(self._server.disk.seek_latency)
        self._server._pump.acquire(self.handle_id, n)
        self._fh.seek(offset)
        data = self._fh.read(n)
        self.current_offset = offset + n
        return data

    def _serve(self, epoch: int | None, conn, offset: int, end: int,
               chunk_cap: int) -> None:
        """Queue [offset, end), clamped to the file, for the sender in
        chunks of at most chunk_cap.

        A range read has epoch None; one of no bytes gets an empty chunk. A
        push has its session epoch, stops once that is stale, and ends with
        an empty chunk at the end of the file.
        """
        end = min(end, self.size)
        pos = min(offset, end)
        if epoch is None and pos == end:  # EOF or empty read
            self._chunks.put((None, conn, offset, b""))
            return
        while pos < end and epoch in (None, self.epoch):
            n = min(chunk_cap, end - pos)
            self._chunks.put((epoch, conn, pos, self._disk_read(pos, n)))
            pos += n
        if epoch == self.epoch:  # a push that ran to the end of the file
            self._chunks.put((epoch, conn, pos, b""))
            self.stream_active = False

    # -- sender task ---------------------------------------------------------

    def _send_loop(self) -> None:
        while (item := self._chunks.get()) is not None:
            epoch, conn, offset, payload = item
            msg = DataChunk(self.handle_id, offset, payload)
            while True:
                if epoch is not None and epoch != self.epoch:
                    break  # stale push, interrupted before it left the server
                if conn.closed:
                    break
                if conn.try_reserve_data_credit():
                    if conn.try_send(msg, credit_reserved=True):
                        self.bytes_sent_wire += len(payload)
                    break
                self._kicks.get()
