"""Pool-file content: the byte stream is pinned, and chunks are independent."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from remfio.content import (GEN_CHUNK, checksum_bytes, content_chunks,
                            file_content)

SIZES = [0, 1, 7, 8, 9, GEN_CHUNK - 1, GEN_CHUNK, GEN_CHUNK + 5,
         2 * GEN_CHUNK + 3]
KEYS = [(0, 0), (1, 7), ((1 << 64) - 1, 3), (5, (1 << 64) - 1)]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("seed,index", KEYS)
def test_content_is_philox_uint8_stream(seed, index, size):
    # the raw little-endian draws are the bytes numpy's full-range uint8
    # path takes from the same Philox key
    key = np.array([seed, index], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    expected = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    assert file_content(seed, index, size) == expected


def test_golden_content():
    # recorded from the integers(0, 256, uint8) generator this replaced
    data = file_content(1, 0, GEN_CHUNK + 5)
    assert hashlib.sha256(data).hexdigest()[:16] == "993fbc8ea0818b92"
    assert checksum_bytes(data) == 0xB458738D778F83D5


@pytest.mark.parametrize("size", [GEN_CHUNK + 5, 3 * GEN_CHUNK])
def test_kept_chunks_do_not_share_a_buffer(size):
    chunks = list(content_chunks(2, 1, size))
    assert [len(c) for c in chunks] == [
        min(GEN_CHUNK, size - off) for off in range(0, size, GEN_CHUNK)]
    assert b"".join(chunks) == file_content(2, 1, size)

