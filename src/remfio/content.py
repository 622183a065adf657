"""Deterministic pool-file content and checksums.

Every pool file's bytes are a pure function of (seed, file_index), so any
run can regenerate and verify file content without shipping the data around.
Checksums are 64-bit blake2b digests, matching the width of the checksum
field carried in namespace replies.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

GEN_CHUNK = 4 * 1024 * 1024

_U64 = (1 << 64) - 1


def content_chunks(seed: int, index: int, size: int) -> Iterator[bytes]:
    """Yield the content of pool file `index` as a sequence of byte chunks.

    Philox is counter-based, so the stream for a given (seed, index) key is
    identical across platforms and numpy versions.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    key = np.array([seed & _U64, index & _U64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    remaining = size
    while remaining > 0:
        n = min(GEN_CHUNK, remaining)
        yield rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        remaining -= n


def checksum_bytes(data: bytes) -> int:
    """64-bit blake2b digest of data, as DiskServer.import_file computes it."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def file_content(seed: int, index: int, size: int) -> bytes:
    """Materialize a whole file; convenience for tests and small pools."""
    return b"".join(content_chunks(seed, index, size))
