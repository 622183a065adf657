"""Pool-file content: the bytes follow the documented tile formula, every
block of a pool is distinct, kept views stay intact, and any range cut from
the tile equals the same range of the whole file."""

from __future__ import annotations

import functools
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remfio import content
from remfio.content import (
    checksum_bytes,
    content_chunks,
    content_range,
    file_content,
)

KiB = 1024
MiB = 1024 * KiB
DOC = Path(__file__).resolve().parents[1] / "docs" / "pool-content.md"

# the formula's constants, written out here rather than taken from the
# module, so that a change to the module shows as a failure
TILE_BYTES = 1 << 20
BLOCK_BYTES = MiB
ROTATION_STEP = 0x9E377
CHUNK_BYTES = 256 * KiB  # a server's largest chunk, a quarter block

SIZES = [0, 1, 7, 8, 9, CHUNK_BYTES - 1, CHUNK_BYTES, CHUNK_BYTES + 1,
         BLOCK_BYTES - 1, BLOCK_BYTES, BLOCK_BYTES + 1,
         4 * MiB - 1, 4 * MiB, 4 * MiB + 5, 8 * MiB + 3]
KEYS = [(0, 0), (1, 7), ((1 << 64) - 1, 3), (5, (1 << 64) - 1)]
POOL_SHAPES = [(16, 16 * MiB), (1, 64 * MiB), (32, 16 * MiB),
               (1024, 16 * MiB)]


@functools.lru_cache(maxsize=None)
def _tile(seed: int) -> bytes:
    key = np.array([seed, 0], dtype=np.uint64)
    draws = np.random.Philox(key=key).random_raw(TILE_BYTES // 8)
    return b"".join(int(d).to_bytes(8, "little") for d in draws)


@settings(max_examples=12, deadline=None)
@given(st.one_of(st.integers(0, (1 << 64) - 1), st.integers(max_value=-1),
                 st.integers(min_value=1 << 64)))
@example(0)
@example((1 << 64) - 1)
@example(-3)
@example(1 << 64)
def test_the_tile_is_numpy_philox_raw_draws(seed):
    # the module's own Philox against numpy's, for seeds in and out of
    # [0, 2^64), which both take mod 2^64; built without the memo
    key = np.array([seed % (1 << 64), 0], dtype=np.uint64)
    draws = np.random.Philox(key=key).random_raw(TILE_BYTES // 8)
    view = content._tile_view.__wrapped__(seed)
    assert view.readonly and view == draws.astype("<u8").tobytes() * 2


def _rotation(index: int, size: int, block: int) -> int:
    blocks_per_file = (size + BLOCK_BYTES - 1) // BLOCK_BYTES
    return (index * blocks_per_file + block) * ROTATION_STEP % TILE_BYTES


def _expected(seed: int, index: int, size: int) -> bytes:
    twice = _tile(seed) * 2
    out = []
    for block, start in enumerate(range(0, size, BLOCK_BYTES)):
        r = _rotation(index, size, block)
        out.append(twice[r:r + min(BLOCK_BYTES, size - start)])
    return b"".join(out)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed,index", KEYS)
def test_content_follows_documented_tile_formula(seed, index, size):
    # the bytes of docs/pool-content.md's formula, rebuilt by this file's
    # own code: a Philox tile per seed, read at integer rotations
    assert file_content(seed, index, size) == _expected(seed, index, size)


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed,index", KEYS)
def test_content_is_philox_uint8_stream(seed, index, size):
    # without the rotation formula: every block is a cyclic window of the
    # first TILE bytes numpy's full-range uint8 path takes from Philox key
    # (seed, 0), whatever the file index
    key = np.array([seed, 0], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    twice = rng.integers(0, 256, size=TILE_BYTES, dtype=np.uint8).tobytes() * 2
    data = file_content(seed, index, size)
    assert len(data) == size
    for start in range(0, size, BLOCK_BYTES):
        assert data[start:start + BLOCK_BYTES] in twice


def test_golden_content():
    # recorded once from the tile formula
    data = file_content(1, 0, 4 * MiB + 5)
    assert hashlib.sha256(data).hexdigest()[:16] == "a0543cfcec7a5616"
    assert checksum_bytes(data) == 0xACC2001617EB10F8


@pytest.mark.parametrize("size", [4 * MiB + 5, 12 * MiB])
def test_kept_views_stay_intact_and_read_only(size):
    views = list(content_chunks(2, 1, size))
    assert all(0 < len(v) <= BLOCK_BYTES for v in views)
    for seed, index in ((2, 2), (3, 1)):
        file_content(seed, index, size)
    assert b"".join(views) == file_content(2, 1, size)
    assert all(v.readonly for v in views)
    with pytest.raises(TypeError):
        views[0][0] = 0


def _ranges(index: int, size: int) -> tuple[list, int]:
    """(offset, n) ranges around every block boundary, across the tile's end
    wherever a block wraps, and reaching or starting past the file's end;
    and how many of them cross the tile's end."""
    cases = [(0, 0), (0, size), (0, size + 9), (size, 3), (size + 4, 1)]
    wrapped = 0
    for start in range(0, size + 1, BLOCK_BYTES):
        for offset in (start - 1, start):
            if offset >= 0:
                cases += [(offset, 1), (offset, 2), (offset, BLOCK_BYTES + 2)]
        r = _rotation(index, size, start // BLOCK_BYTES)
        tile_end = start + TILE_BYTES - r  # file offset that reads tile[0]
        if tile_end < min(start + BLOCK_BYTES, size):
            cases += [(tile_end - 1, 2), (tile_end - 3000, 6000)]
            wrapped += 2
    return cases, wrapped


@pytest.mark.parametrize("size", [0, CHUNK_BYTES - 1, CHUNK_BYTES,
                                  CHUNK_BYTES + 1, BLOCK_BYTES - 1,
                                  BLOCK_BYTES, BLOCK_BYTES + 1, 4 * MiB + 5])
@pytest.mark.parametrize("seed,index", KEYS)
def test_content_range_cuts_the_file(seed, index, size):
    data = file_content(seed, index, size)
    cases, wrapped = _ranges(index, size)
    for offset, n in cases:
        got = content_range(seed, index, size, offset, n)
        assert type(got) is memoryview and got.readonly
        assert got == data[offset:offset + n], (offset, n)
    if size > 4 * MiB:
        assert wrapped  # some block of these files wraps past the tile


@pytest.mark.parametrize("size", [CHUNK_BYTES + 1, BLOCK_BYTES + 1,
                                  4 * MiB + 5, 12 * MiB])
@pytest.mark.parametrize("seed,index", KEYS)
def test_content_chunks_yields_one_view_per_block(seed, index, size):
    # one view per block, also for the blocks whose rotation reads past the
    # tile's end and so wrap back to its start
    views = list(content_chunks(seed, index, size))
    starts = range(0, size, BLOCK_BYTES)
    assert [len(v) for v in views] == [min(BLOCK_BYTES, size - s)
                                       for s in starts]
    wraps = [s for s in starts if _rotation(index, size, s // BLOCK_BYTES)
             + min(BLOCK_BYTES, size - s) > TILE_BYTES]
    if size > 4 * MiB:
        assert wraps
    data = _expected(seed, index, size)
    for s, v in zip(starts, views):
        assert v == data[s:s + len(v)]


def test_a_range_inside_one_block_is_a_view_of_the_tile():
    # no copy: the range shares memory with the memoized tile, also where
    # its block wraps past the tile's end
    size = 4 * MiB + 5
    tile = content._tile_view(1).obj
    wrapping = [b for b in range(-(-size // BLOCK_BYTES))
                if _rotation(0, size, b) + BLOCK_BYTES > TILE_BYTES]
    assert wrapping
    for offset in (0, 1000, wrapping[0] * BLOCK_BYTES):
        got = content_range(1, 0, size, offset, 64 * KiB)
        assert got.obj is tile
        assert got == file_content(1, 0, size)[offset:offset + 64 * KiB]
    # across a block boundary, one joined copy
    got = content_range(1, 0, size, BLOCK_BYTES - 8, 16)
    assert got.obj is not tile and got.readonly


_EDGE_SIZES = [0, 1, BLOCK_BYTES - 1, BLOCK_BYTES, BLOCK_BYTES + 1,
               3 * BLOCK_BYTES, 3 * BLOCK_BYTES + 77]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.sampled_from([1, 7]), index=st.integers(0, 40),
       size=st.sampled_from(_EDGE_SIZES), block=st.integers(0, 4),
       j=st.sampled_from([0, 1, BLOCK_BYTES - 1])
       | st.integers(0, BLOCK_BYTES - 1),
       n=st.sampled_from(["zero", "to_edge", "across"])
       | st.integers(0, 2 * BLOCK_BYTES))
@example(seed=1, index=3, size=3 * BLOCK_BYTES, block=1, j=100,
         n="to_edge")  # j + n == BLOCK
@example(seed=1, index=3, size=3 * BLOCK_BYTES, block=1, j=100, n="zero")
@example(seed=1, index=3, size=3 * BLOCK_BYTES + 77, block=3, j=77,
         n=5)  # offset == size
@example(seed=1, index=3, size=3 * BLOCK_BYTES, block=1, j=100,
         n="across")  # into the next block
def test_content_range_at_block_edges(seed, index, size, block, j, n):
    # offset is j bytes into block `block`, clamped to the file's end; n
    # reaches that block's end exactly, stops short of it or crosses it
    offset = min(block * BLOCK_BYTES + j, size)
    j = offset % BLOCK_BYTES
    n = {"zero": 0, "to_edge": BLOCK_BYTES - j,
         "across": BLOCK_BYTES - j + 1}.get(n, n)
    want = file_content(seed, index, size)[offset:offset + n]
    got = content_range(seed, index, size, offset, n)
    assert type(got) is memoryview and got.readonly
    assert got == want
    if want and j + len(want) <= BLOCK_BYTES:  # inside one block: no copy
        assert got.obj is content._tile_view(seed).obj


def test_content_range_rejects_negative_arguments():
    for offset, n in ((-1, 4), (0, -1)):
        with pytest.raises(ValueError):
            content_range(1, 0, MiB, offset, n)


@pytest.mark.parametrize("offset,length", [
    (0, 64 * KiB),  # the start of the file
    (3 * CHUNK_BYTES + 1000, 64 * KiB),  # inside one block
    (BLOCK_BYTES - 100, 64 * KiB),  # across a block boundary
    (5 * CHUNK_BYTES, CHUNK_BYTES),  # one whole chunk inside a block
    (5 * BLOCK_BYTES, BLOCK_BYTES),  # one whole block
])
def test_wrong_bytes_change_a_range_digest(offset, length):
    size = 16 * MiB
    mine = file_content(3, 4, size)
    other_file = file_content(3, 5, size)

    def sha(data: bytes) -> str:
        assert len(data) == length
        return hashlib.sha256(data).hexdigest()

    want = sha(mine[offset:offset + length])
    for shifted in (offset - 1, offset + 1):
        if shifted >= 0:
            assert sha(mine[shifted:shifted + length]) != want
    for other_block in (0, 1, 7, 63):
        moved = offset + (other_block - offset // BLOCK_BYTES) * BLOCK_BYTES
        if moved != offset and moved + length <= size:
            assert sha(mine[moved:moved + length]) != want
    assert sha(other_file[offset:offset + length]) != want


@pytest.mark.parametrize("count,size", POOL_SHAPES)
@pytest.mark.parametrize("seed", [1, 100001])
def test_every_block_of_a_pool_is_distinct(seed, count, size):
    # blocks that start with different 8 bytes differ; the start of each
    # block comes from the formula, which content follows (tests above)
    twice = _tile(seed) * 2
    starts = {twice[r:r + 8]
              for index in range(count)
              for block in range(-(-size // BLOCK_BYTES))
              for r in [_rotation(index, size, block)]}
    assert len(starts) == count * -(-size // BLOCK_BYTES)


def _doc_constants() -> dict[str, int]:
    doc = DOC.read_text()
    return {name: int(value, 0) for name, value
            in re.findall(r"^\| `(\w+)` \| (\w+) \|", doc, re.M)}


def _doc_philox(seed: int, counter: int) -> list[int]:
    """The outputs v0..v3 of one counter, by docs/pool-content.md's round
    and constants, one 64-bit word at a time."""
    c = _doc_constants()
    u64 = (1 << 64) - 1
    x0, x1, x2, x3 = counter, 0, 0, 0
    k0, k1 = seed % (1 << 64), 0
    for _ in range(c["ROUNDS"]):
        p0, p1 = c["M0"] * x0, c["M1"] * x2
        x0, x1, x2, x3 = ((p1 >> 64) ^ x1 ^ k0, p1 & u64,
                          (p0 >> 64) ^ x3 ^ k1, p0 & u64)
        k0, k1 = (k0 + c["W0"]) & u64, (k1 + c["W1"]) & u64
    return [x0, x1, x2, x3]


@pytest.mark.parametrize("seed", [0, 1, 100001, (1 << 64) - 1, -3])
def test_the_doc_rebuilds_the_tile_without_numpy(seed):
    # a checker with only the doc's round and constants gets the tile's
    # words, at the first counters and at the last
    tile = content._tile_view.__wrapped__(seed)
    last = content.TILE // 32
    for counter in (1, 2, 3, content._RUN, content._RUN + 1, last):
        start = 32 * (counter - 1)
        words = [int.from_bytes(tile[start + 8 * i:start + 8 * i + 8],
                                "little") for i in range(4)]
        assert words == _doc_philox(seed, counter), counter


def test_pool_content_doc_matches_the_module():
    doc = DOC.read_text()
    assert _doc_constants() == {
        "TILE": content.TILE, "BLOCK": content.BLOCK, "ODD": content.ODD,
        "M0": content._M0, "M1": content._M1, "W0": content._W0,
        "W1": content._W1, "ROUNDS": content._ROUNDS}
    assert "key (seed mod 2^64, 0)" in doc
    assert "little-endian" in doc
    words = " ".join(doc.split())
    assert "The first counter is c = 1" in words
    assert "in the order v0, v1, v2, v3" in words
    distinct_gib = content.TILE * content.BLOCK // (1 << 30)
    assert f"{content.TILE:,} blocks ({distinct_gib} GiB)" in doc
    examples = re.findall(
        r"^\| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \| "
        r"`([0-9a-f]{16})` \|$", doc, re.M)
    assert len(examples) >= 3
    for seed, index, size, block, k, r, head in examples:
        seed, index, size, block, k, r = map(
            int, (seed, index, size, block, k, r))
        assert k == index * -(-size // content.BLOCK) + block
        assert r == k * content.ODD % content.TILE
        start = block * content.BLOCK
        data = file_content(seed, index, size)
        assert data[start:start + 8].hex() == head
