"""Deterministic pool-file content and checksums.

Every pool file's bytes are a pure function of (seed, file_index, size), so
any run can regenerate and verify file content without shipping the data
around. docs/pool-content.md states the formula for checkers that rebuild
the bytes with their own code:

* each seed has one tile of TILE bytes: TILE / PIECE SHAKE-256 digests of
  PIECE bytes each, piece i hashing seed mod 2^64 as 8 bytes little-endian
  followed by i as 4 bytes little-endian;
* a file of `size` bytes is cut into BLOCK-byte blocks, the last one
  possibly short, and block b of file `index` is the tile read cyclically
  from rotation r = k * ODD mod TILE, where k = index * ceil(size / BLOCK)
  + b numbers the blocks of a pool of equal-size files.

ODD is odd, so distinct k below TILE give distinct rotations: every block of
a pool of up to TILE blocks (1 TiB) starts at its own rotation, and a range
shifted by a byte, another block of the same file or the same block of
another file reads other bytes. Checksums are 64-bit blake2b digests,
matching the width of the checksum field carried in namespace replies.

Content is handed out as read-only views, not copies. A block is a whole
rotation of the tile, and the stored tile is followed by a second copy of
itself, so every block is one slice of the stored bytes: content_chunks
yields one view per block, and content_range returns a lone view of the
memoized tile for a range inside one block. The chunks of one block are
then consecutive slices of one buffer, which the client returns as one view.
The extra bytes are storage only; the formula is unchanged.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterator

TILE = 1 << 20  # bytes of SHAKE-256 output per seed
PIECE = 1 << 16  # bytes of one SHAKE-256 digest in the tile
BLOCK = TILE  # bytes read from one rotation of the tile
ODD = 0x9E377  # top 20 bits of 2^32 / golden ratio, odd
FORMULA = "shake256"  # its name in pool manifests; other bytes, another name


@functools.lru_cache(maxsize=4)  # the few seeds in use
def _tile_view(seed: int) -> memoryview:
    """The seed's tile followed by a second copy of itself, as a read-only
    view, so that a block read at any rotation is one slice.

    Each PIECE-byte piece is hashed straight into both copies, so building
    the tile makes no whole-tile temporary."""
    key = (seed % (1 << 64)).to_bytes(8, "little")
    tile = bytearray(2 * TILE)
    for i, at in enumerate(range(0, TILE, PIECE)):
        piece = hashlib.shake_256(key + i.to_bytes(4, "little")).digest(PIECE)
        tile[at:at + PIECE] = tile[TILE + at:TILE + at + PIECE] = piece
    return memoryview(tile).toreadonly()


def _place(index: int, size: int, offset: int) -> tuple[int, int]:
    """Byte `offset` of file `index`: its position in the stored tile, below
    2 * TILE, and its block's rest."""
    b, j = divmod(offset, BLOCK)
    return (index * -(-size // BLOCK) + b) * ODD % TILE + j, BLOCK - j


def _views(tile: memoryview, index: int, size: int, offset: int,
           end: int) -> Iterator[memoryview]:
    """Bytes [offset, end) of pool file `index` of `size` bytes, as views of
    the seed's tile, one per block touched."""
    while offset < end:
        r, m = _place(index, size, offset)
        m = min(m, end - offset)
        yield tile[r:r + m]  # r + m <= rotation + BLOCK < 2 * TILE
        offset += m


def content_chunks(seed: int, index: int, size: int) -> Iterator[memoryview]:
    """The content of pool file `index`, as read-only views of the seed's
    memoized tile, one per block. No view can write the tile, so a caller
    may keep every view; but each view's obj is the tile's bytearray, which
    can be written, and must not be."""
    if size < 0:
        raise ValueError("size must be non-negative")
    return _views(_tile_view(seed), index, size, 0, size)


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


def file_checksum(seed: int, index: int, size: int, write=None) -> int:
    """Pool file `index`'s checksum, its blake2b-64; each chunk goes to write
    first, if given, so that a file can be written and hashed in one pass."""
    h = hashlib.blake2b(digest_size=8)
    for chunk in content_chunks(seed, index, size):
        if write is not None:
            write(chunk)
        h.update(chunk)
    return int.from_bytes(h.digest(), "big")


cached_file_checksum = functools.lru_cache(maxsize=4096)(file_checksum)


def file_content(seed: int, index: int, size: int) -> bytes:
    """Materialize a whole file; convenience for tests and small pools."""
    return b"".join(content_chunks(seed, index, size))
