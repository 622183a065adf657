"""Exception taxonomy shared across the package.

The client maps each wire-level error code (ErrorCode in remfio.wire) onto
one of these types in client._ERROR_TYPES, so a server-side failure surfaces
to the caller as a typed exception.
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


class NotFoundError(OpenError):
    """Path not registered in the namespace."""


class AuthError(OpenError):
    """Token rejected by headnode or disk server."""


class QueueOverflowError(OpenError):
    """Headnode open queue at capacity; request rejected."""


class StaleReplicaError(OpenError):
    """Disk server does not hold the file the namespace promised."""


class StaleHandleError(RemfioError):
    """Request referenced a handle the server no longer tracks."""


class HandleBusyError(RemfioError):
    """Call on a handle while another call on it is still in progress."""


class RangeError(RemfioError):
    """Seek offset outside [0, file_size]."""


class AlreadyRegisteredError(RemfioError):
    """register_file called for a path the namespace already holds."""


class DeadlockError(RemfioError):
    """Virtual scheduler found every task blocked with no pending event."""
