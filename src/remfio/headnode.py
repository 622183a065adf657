"""Namespace and open-brokering service.

The headnode owns the file namespace (logical path -> replica location) and
brokers every file open through one serialized queue. That queue is the
deliberate bottleneck of the whole system: with a fixed per-open service
time, mean open latency grows linearly with the number of clients opening
at once, which the benchmark harness measures.

Two listeners, by default on the conventional ports:
  - 5010: namespace lookups (NsLookup -> NsLookupReply)
  - 5015: open brokering (OpenRequest -> OpenReply after queue + service)

Authorization is a static shared token on the open path. A successful open
replies with a fresh handle id and nothing else: the headnode does not mint
a session token. The client derives session_token(handle_id, shared) itself,
a keyed MAC over the handle id, and the disk server verifies it on its own,
without a callback to the headnode.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from .errors import (
    AlreadyRegisteredError,
    ConnectionClosedError,
    NotFoundError,
)
from .wire import (
    ErrorCode,
    ErrorReply,
    NsLookup,
    NsLookupReply,
    OpenReply,
    OpenRequest,
)

DEFAULT_NS_PORT = 5010
DEFAULT_OPEN_PORT = 5015


def session_token(handle_id: int, shared_token: str) -> str:
    """Derive the per-session authorizer for a brokered handle."""
    mac = hashlib.blake2b(
        handle_id.to_bytes(8, "big"),
        key=shared_token.encode("utf-8"),
        digest_size=8,
    ).hexdigest()
    return f"{handle_id}:{mac}"


def verify_session_token(token: str, shared_token: str) -> int | None:
    """Return the handle id a session token vouches for, or None if forged."""
    head, sep, _ = token.partition(":")
    if not sep or not head.isdigit():
        return None
    handle_id = int(head)
    if session_token(handle_id, shared_token) != token:
        return None
    return handle_id


@dataclass
class NamespaceEntry:
    """One logical file: where it lives and what its content should be."""

    path: str
    size: int
    replica_address: str
    checksum: int


@dataclass(frozen=True)
class OpenQueueModel:
    """Fixed-service-time queue in front of the open path.

    One worker serves the queue, so opens are serialized; queue_cap bounds
    how many opens may wait before new ones are rejected outright.
    """

    service_time_per_open: float = 0.050
    queue_cap: int = 1024

    def __post_init__(self) -> None:
        if self.service_time_per_open <= 0:
            raise ValueError("service_time_per_open must be positive")
        if self.queue_cap < 1:
            raise ValueError("queue_cap must be at least 1")


class Headnode:
    """Combined namespace daemon and open broker."""

    def __init__(self, runtime, network, *, shared_token: str,
                 host: str = "head",
                 ns_port: int = DEFAULT_NS_PORT,
                 open_port: int = DEFAULT_OPEN_PORT,
                 queue_model: OpenQueueModel = OpenQueueModel()) -> None:
        self._rt = runtime
        self._net = network
        self._shared = shared_token
        self.host = host
        self.ns_port = ns_port
        self.open_port = open_port
        self.queue_model = queue_model
        self._namespace: dict[str, NamespaceEntry] = {}
        self._handle_ids = itertools.count(1)
        self._queue = runtime.channel(capacity=queue_model.queue_cap)
        self.counters = {
            "lookups": 0,
            "opens_ok": 0,
            "open_errors": 0,
            "queue_overflow": 0,
            "not_found": 0,
            "auth_failures": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Register both listeners and start the open worker."""
        self._net.listen(f"{self.host}:{self.ns_port}", self._serve_namespace)
        self._net.listen(f"{self.host}:{self.open_port}", self._serve_opens)
        self._rt.spawn(self._open_worker, name="head-open")

    @property
    def ns_address(self) -> str:
        return f"{self.host}:{self.ns_port}"

    @property
    def open_address(self) -> str:
        return f"{self.host}:{self.open_port}"

    # -- namespace ---------------------------------------------------------

    def register_file(self, path: str, size: int, replica_address: str,
                      checksum: int) -> NamespaceEntry:
        if path in self._namespace:
            raise AlreadyRegisteredError(path)
        entry = NamespaceEntry(path, size, replica_address, checksum)
        self._namespace[path] = entry
        return entry

    def lookup(self, path: str) -> NamespaceEntry:
        try:
            return self._namespace[path]
        except KeyError:
            raise NotFoundError(path) from None

    @property
    def namespace_size(self) -> int:
        return len(self._namespace)

    # -- open path ---------------------------------------------------------

    def _serve_namespace(self, conn) -> None:
        try:
            while True:
                msg = conn.recv()
                if isinstance(msg, NsLookup):
                    self.counters["lookups"] += 1
                    entry = self._namespace.get(msg.path)
                    if entry is None:
                        conn.try_send(ErrorReply(ErrorCode.NOT_FOUND,
                                                 msg.path))
                    else:
                        conn.try_send(NsLookupReply(
                            entry.replica_address, entry.size, entry.checksum))
                else:
                    conn.try_send(ErrorReply(
                        ErrorCode.PROTOCOL, "namespace port expects NsLookup"))
        except ConnectionClosedError:
            pass
        finally:
            conn.close()

    def _serve_opens(self, conn) -> None:
        try:
            while True:
                msg = conn.recv()
                if not isinstance(msg, OpenRequest):
                    conn.try_send(ErrorReply(ErrorCode.PROTOCOL,
                                             "open port expects OpenRequest"))
                    continue
                if msg.token != self._shared:
                    self.counters["auth_failures"] += 1
                    self.counters["open_errors"] += 1
                    conn.try_send(ErrorReply(ErrorCode.AUTH, "token rejected"))
                    continue
                if not self._queue.try_put((msg, conn)):
                    self.counters["queue_overflow"] += 1
                    self.counters["open_errors"] += 1
                    conn.try_send(ErrorReply(ErrorCode.QUEUE_OVERFLOW,
                                             "open queue full"))
        except ConnectionClosedError:
            pass
        finally:
            conn.close()

    def _open_worker(self) -> None:
        while True:
            request, conn = self._queue.get()
            self._rt.sleep(self.queue_model.service_time_per_open)
            entry = self._namespace.get(request.path)
            if entry is None:
                self.counters["not_found"] += 1
                self.counters["open_errors"] += 1
                reply = ErrorReply(ErrorCode.NOT_FOUND, request.path)
            else:
                self.counters["opens_ok"] += 1
                reply = OpenReply(next(self._handle_ids), entry.size)
            conn.try_send(reply)  # the requester may have gone
