"""Deterministic pool-file content and checksums.

Every pool file's bytes are a pure function of (seed, file_index), so any
run can regenerate and verify file content without shipping the data around.
The bytes are the raw 64-bit draws of Philox4x64 keyed by (seed, index),
each written little-endian, 8 bytes per draw; a file whose size is not a
multiple of 8 drops the tail of its last draw. This is the same stream as
numpy's Generator(Philox(key)).integers(0, 256, dtype=np.uint8).
Checksums are 64-bit blake2b digests, matching the width of the checksum
field carried in namespace replies.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

import numpy as np

# a multiple of 8, so only a file's last chunk cuts a draw
GEN_CHUNK = 4 * 1024 * 1024

_U64 = (1 << 64) - 1


def content_chunks(seed: int, index: int, size: int) -> Iterator[memoryview]:
    """Yield the content of pool file `index` in chunks of at most GEN_CHUNK
    bytes.

    Each chunk is the next ceil(n / 8) raw Philox4x64 draws, little-endian,
    cut to n bytes. Philox is counter-based, so the stream for a given
    (seed, index) key is identical across platforms and numpy versions.
    Every chunk owns its buffer, so a caller may keep them all.
    """
    if size < 0:
        raise ValueError("size must be non-negative")
    key = np.array([seed & _U64, index & _U64], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    remaining = size
    while remaining > 0:
        n = min(GEN_CHUNK, remaining)
        draws = bitgen.random_raw(-(-n // 8)).astype("<u8", copy=False)
        yield memoryview(draws.view(np.uint8)[:n])
        remaining -= n


def checksum_bytes(data: bytes) -> int:
    """64-bit blake2b digest of data, as DiskServer.import_file computes it."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def file_content(seed: int, index: int, size: int) -> bytes:
    """Materialize a whole file; convenience for tests and small pools."""
    return b"".join(content_chunks(seed, index, size))
