"""Exception taxonomy shared across the package.

Wire-level error codes (ErrorCode in remfio.wire) map onto the OpenError
subtypes so a server-side failure surfaces to the caller as a typed exception.
"""

from __future__ import annotations


class RemfioError(Exception):
    """Base class for every error raised by this package."""


class ProtocolError(RemfioError):
    """Malformed frame: bad magic, unknown version or type, schema mismatch."""


class EncodeError(RemfioError):
    """Message cannot be serialized (field too large for its wire slot)."""


class TransportError(RemfioError):
    """Connection-level failure: refused endpoint, peer closed mid-exchange."""


class EndpointRefusedError(TransportError):
    """No listener at the requested address."""


class ConnectionClosedError(TransportError):
    """Peer closed the connection; receive queue is drained."""


class OpenError(RemfioError):
    """Base for failures surfaced by rf_open."""

    code = 0


class NotFoundError(OpenError):
    """Path not registered in the namespace."""

    code = 1


class AuthError(OpenError):
    """Token rejected by headnode or disk server."""

    code = 2


class QueueOverflowError(OpenError):
    """Headnode open queue at capacity; request rejected."""

    code = 3


class StaleReplicaError(OpenError):
    """Disk server does not hold the file the namespace promised."""

    code = 4


class StaleHandleError(RemfioError):
    """Request referenced a handle the server no longer tracks."""

    code = 5


class RangeError(RemfioError):
    """Seek offset outside [0, file_size]."""

    code = 6


class AlreadyRegisteredError(RemfioError):
    """register_file called for a path the namespace already holds."""


class DeadlockError(RemfioError):
    """Virtual scheduler found every task blocked with no pending event."""
