"""remfio: a remote file I/O emulation testbed.

A self-contained model of a storage-element stack: a headnode that brokers
opens and serves a namespace, disk servers that stream file data in four read
modes (NORMAL, READBUF, READAHEAD, STREAM), a client library with POSIX-shaped
calls, a deterministic in-process network emulator, and a benchmark harness
that reproduces wide-area storage access experiments at desk scale.

The pieces compose the same way in every scenario: build a VirtualRuntime
(deterministic simulated time), attach an EmulatedNetwork, start a Headnode
and a DiskServer, then open files with rf_open and drive them with rf_read /
rf_seek / rf_close. The bench module automates exactly that for concurrent
seeded workloads.
"""

from .bench import RunSummary, Sequential, Skip, WorkloadSpec, run_benchmark, run_sweep
from .client import ClientConfig, HandleCounters, rf_close, rf_open, rf_read, rf_seek
from .diskserver import DiskModel, DiskServer
from .errors import (
    AuthError,
    NotFoundError,
    OpenError,
    ProtocolError,
    QueueOverflowError,
    RangeError,
    RemfioError,
    StaleHandleError,
    TransportError,
)
from .headnode import Headnode, OpenQueueModel
from .netemu import EmulatedNetwork, LinkProfile, builtin_profiles
from .runtime import VirtualRuntime
from .wire import ReadMode

__version__ = "0.1.0"

__all__ = [
    "AuthError",
    "ClientConfig",
    "DiskModel",
    "DiskServer",
    "EmulatedNetwork",
    "HandleCounters",
    "Headnode",
    "LinkProfile",
    "NotFoundError",
    "OpenError",
    "OpenQueueModel",
    "ProtocolError",
    "QueueOverflowError",
    "RangeError",
    "ReadMode",
    "RemfioError",
    "RunSummary",
    "Sequential",
    "Skip",
    "StaleHandleError",
    "TransportError",
    "VirtualRuntime",
    "WorkloadSpec",
    "builtin_profiles",
    "rf_close",
    "rf_open",
    "rf_read",
    "rf_seek",
    "run_benchmark",
    "run_sweep",
]
