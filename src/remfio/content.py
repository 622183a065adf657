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
a pool of up to TILE blocks (1 TiB) starts at its own rotation, and a range
shifted by a byte, another block of the same file or the same block of
another file reads other bytes. Checksums are 64-bit blake2b digests, matching the width of the
checksum field carried in namespace replies.

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

TILE = 1 << 20  # bytes of Philox draws per seed
BLOCK = TILE  # bytes read from one rotation of the tile
ODD = 0x9E377  # top 20 bits of 2^32 / golden ratio, odd

_U64 = (1 << 64) - 1

# Philox4x64-10 (Salmon et al., SC 2011), drawn as numpy's Philox draws it
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key increments
_ROUNDS = 10
# Counters computed at once, each in its own 128-bit slot of one int, so
# that one multiply by a 64-bit constant gives every slot's full product.
_RUN = 512
_ONES = int.from_bytes((b"\1" + bytes(15)) * _RUN, "little")  # 1 per slot
_LOW = _ONES * _U64  # the low 64 bits of every slot
_IOTA = int.from_bytes(b"".join(i.to_bytes(16, "little")
                                for i in range(_RUN)), "little")  # slot i: i


@functools.lru_cache(maxsize=4)  # the few seeds in use
def _tile_view(seed: int) -> memoryview:
    """The seed's tile followed by a second copy of itself, as a read-only
    view, so that a block read at any rotation is one slice.

    Philox4x64-10 with key (seed mod 2^64, 0) runs on counters 1, 2, ...,
    _RUN at a time: each round multiplies lanes 0 and 2 of every counter at
    once, and the four output lanes of a run are written, little-endian,
    into their strided places in the one buffer. So building the tile makes
    no whole-tile temporary: each int is 16 * _RUN bytes, and the keys of
    every round take 2 * _ROUNDS of them."""
    keys = []  # each round's key, repeated in every slot
    k0, k1 = seed & _U64, 0
    for _ in range(_ROUNDS):
        keys.append((k0 * _ONES, k1 * _ONES))
        k0, k1 = (k0 + _W0) & _U64, (k1 + _W1) & _U64
    tile = bytearray(2 * TILE)
    words = memoryview(tile).cast("Q")
    for c in range(0, TILE // 32, _RUN):  # the run's first counter, less 1
        x0, x1, x2, x3 = (c + 1) * _ONES + _IOTA, 0, 0, 0
        for k0, k1 in keys:
            p0, p1 = x0 * _M0, x2 * _M1
            x0 = ((p1 >> 64) ^ x1 ^ k0) & _LOW
            x2 = ((p0 >> 64) ^ x3 ^ k1) & _LOW
            x1, x3 = p1, p0  # low halves; the high ones are never read
        for lane, x in enumerate((x0, x1, x2, x3)):
            low = memoryview(x.to_bytes(16 * _RUN, "little")).cast("Q")[::2]
            words[4 * c + lane:4 * (c + _RUN):4] = low
    words[TILE // 8:] = words[:TILE // 8]
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
