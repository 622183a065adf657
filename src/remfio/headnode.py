"""Namespace and open-brokering service.

The headnode owns the file namespace (logical path -> replica location) and
brokers every file open through one FIFO with a fixed per-open service time.
That FIFO is the deliberate bottleneck of the whole system: mean open latency
grows linearly with the number of clients opening at once, which the
benchmark harness measures. Each open is brokered in its own connection
handler, which books the next service slot and sleeps until it ends, so a
reply that waits for the link delays only its own client.

Two listeners, by default on the conventional ports:
  - 5010: namespace lookups (NsLookup -> NsLookupReply)
  - 5015: open brokering (OpenRequest -> OpenReply after queue + service)
Each connection carries one request: the headnode answers it and hangs up.

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
    Message,
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
    """Return the handle id a session token vouches for, or None if forged.

    The head must be ASCII decimal below 2**64, the range of a handle id.
    """
    head, sep, _ = token.partition(":")
    if not (sep and head.isascii() and head.isdigit() and len(head) <= 20):
        return None
    handle_id = int(head)
    if handle_id >> 64 or session_token(handle_id, shared_token) != token:
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

    Opens are served one at a time in arrival order. queue_cap bounds how
    many opens may be queued or in service at once; an open that arrives
    while that many are is rejected outright, however the arrivals are
    spaced.
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
        self._free_at = 0.0  # when the open FIFO next falls idle
        self._in_broker = 0  # opens queued or in service
        self.counters = {
            "lookups": 0,
            "opens_ok": 0,
            "open_errors": 0,
            "queue_overflow": 0,
            "not_found": 0,
            "auth_failures": 0,
            "protocol_errors": 0,  # a request on the wrong port
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Register both listeners."""
        self._net.listen(self.ns_address,
                         lambda conn: self._serve(conn, self._answer_lookup))
        self._net.listen(self.open_address,
                         lambda conn: self._serve(conn, self._answer_open))

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

    # -- request handling --------------------------------------------------

    def _serve(self, conn, answer) -> None:
        """Send answer(request) for the one request on conn, then hang up."""
        try:
            conn.try_send(answer(conn.recv()))
        except ConnectionClosedError:
            pass  # the client hung up first
        conn.close()

    def _answer_lookup(self, msg) -> Message:
        if not isinstance(msg, NsLookup):
            self.counters["protocol_errors"] += 1
            return ErrorReply(ErrorCode.PROTOCOL,
                              "namespace port expects NsLookup")
        self.counters["lookups"] += 1
        entry = self._namespace.get(msg.path)
        if entry is None:
            return ErrorReply(ErrorCode.NOT_FOUND, msg.path)
        return NsLookupReply(entry.replica_address, entry.size, entry.checksum)

    def _answer_open(self, msg) -> Message:
        """Broker one open: book the next service slot and sleep until it
        ends, unless the request is refused first."""
        if not isinstance(msg, OpenRequest):
            self.counters["protocol_errors"] += 1
            return ErrorReply(ErrorCode.PROTOCOL,
                              "open port expects OpenRequest")
        if msg.token != self._shared:
            return self._open_error("auth_failures", ErrorCode.AUTH,
                                    "token rejected")
        if self._in_broker >= self.queue_model.queue_cap:
            return self._open_error("queue_overflow", ErrorCode.QUEUE_OVERFLOW,
                                    "open queue full")
        now = self._rt.now()
        done = self._free_at = (max(now, self._free_at) +
                                self.queue_model.service_time_per_open)
        self._in_broker += 1
        self._rt.sleep(done - now)
        self._in_broker -= 1
        entry = self._namespace.get(msg.path)
        if entry is None:
            return self._open_error("not_found", ErrorCode.NOT_FOUND, msg.path)
        self.counters["opens_ok"] += 1
        return OpenReply(next(self._handle_ids), entry.size)

    def _open_error(self, counter: str, code: ErrorCode,
                    detail: str) -> ErrorReply:
        self.counters[counter] += 1
        self.counters["open_errors"] += 1
        return ErrorReply(code, detail)
