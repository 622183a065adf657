"""Deterministic pool-file content and checksums.

Every pool file's bytes are a pure function of (seed, file_index, size), so
any run can regenerate and verify file content without shipping the data
around. docs/pool-content.md states the formula for checkers that rebuild
the bytes with their own code:

* each seed has one tile: TILE bytes of raw Philox4x64 draws keyed by
  (seed mod 2^64, 0), each draw written little-endian;
* a file of `size` bytes is cut into BLOCK-byte blocks, the last one
  possibly short, and block b of file `index` is the tile read cyclically
  from rotation r = k * ODD mod TILE, where k = index * ceil(size / BLOCK)
  + b numbers the blocks of a pool of equal-size files.

ODD is odd, so distinct k below TILE give distinct rotations: every block of
a pool of up to TILE blocks (256 GiB) starts at its own rotation, and a range
shifted by a byte, another block of the same file or the same block of
another file reads other bytes. Checksums are 64-bit blake2b digests, matching the width of the
checksum field carried in namespace replies.

Content is handed out as read-only views, not copies. The stored tile is
followed by its first BLOCK bytes again, so a block read cyclically from any
rotation is one slice of it: content_chunks yields one view per block, and
content_range returns a lone view of the memoized tile for a range inside
one block. The extra bytes are storage only; the formula is unchanged.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterator

import numpy as np

TILE = 1 << 20  # bytes of Philox draws per seed
BLOCK = 256 * 1024  # bytes read from one rotation of the tile
ODD = 0x9E377  # top 20 bits of 2^32 / golden ratio, odd

_U64 = (1 << 64) - 1


def _tile(seed: int) -> memoryview:
    """The seed's tile followed by its first BLOCK bytes again, as a
    read-only view, so that a block read at any rotation is one slice.

    Philox is drawn BLOCK bytes at a time into the one array, so building
    the tile never holds a second copy of it."""
    key = np.array([seed & _U64, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    tile = np.empty(TILE + BLOCK, dtype=np.uint8)
    words = tile[:TILE].view("<u8")
    for i in range(0, TILE // 8, BLOCK // 8):
        words[i:i + BLOCK // 8] = bitgen.random_raw(BLOCK // 8)
    tile[TILE:] = tile[:BLOCK]
    tile.flags.writeable = False
    return memoryview(tile)


# _tile, memoized for the few seeds in use
_tile_view = functools.lru_cache(maxsize=4)(_tile)


def _place(index: int, size: int, offset: int) -> tuple[int, int]:
    """Byte `offset` of file `index`: its tile position, its block's rest."""
    b, j = divmod(offset, BLOCK)
    return ((index * -(-size // BLOCK) + b) * ODD + j) % TILE, BLOCK - j


def _views(tile: memoryview, index: int, size: int, offset: int,
           end: int) -> Iterator[memoryview]:
    """Bytes [offset, end) of pool file `index` of `size` bytes, as views of
    the seed's tile, one per block touched."""
    while offset < end:
        r, m = _place(index, size, offset)
        m = min(m, end - offset)
        yield tile[r:r + m]  # r < TILE and m <= BLOCK: never past the copy
        offset += m


def content_chunks(seed: int, index: int, size: int) -> Iterator[memoryview]:
    """The content of pool file `index`, as read-only views of the seed's
    tile, made once per call; Philox is counter-based, so the tile for a
    given seed is identical across platforms and numpy versions. The tile
    cannot be written, so a caller may keep every view."""
    if size < 0:
        raise ValueError("size must be non-negative")
    return _views(_tile(seed), index, size, 0, size)


def content_range(seed: int, index: int, size: int, offset: int,
                  n: int) -> memoryview:
    """Bytes [offset, offset + n) of pool file `index`, clamped to its size:
    file_content(seed, index, size)[offset:offset + n], as a read-only view.
    A range inside one block is a view of the seed's memoized tile, with no
    copy; a range across blocks is joined in one copy."""
    if offset < 0 or n < 0:
        raise ValueError("offset and n must be non-negative")
    m = min(offset + n, size) - offset
    r, room = _place(index, size, offset)
    if 0 < m <= room:  # inside one block: _views' one slice
        return _tile_view(seed)[r:r + m]
    return memoryview(b"".join(_views(_tile_view(seed), index, size, offset,
                                      offset + m)))


def checksum_bytes(data: bytes) -> int:
    """64-bit blake2b digest of data, as DiskServer.import_file computes it."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def file_content(seed: int, index: int, size: int) -> bytes:
    """Materialize a whole file; convenience for tests and small pools."""
    return b"".join(content_chunks(seed, index, size))
