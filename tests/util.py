"""Shared test helpers: random message generation for codec oracles."""

from __future__ import annotations

import random
import string

from remfio import wire

_PATH_CHARS = string.ascii_lowercase + string.digits + "/_.-"


def random_path(rng: random.Random, max_len: int = 64) -> str:
    n = rng.randint(1, max_len)
    return "/" + "".join(rng.choice(_PATH_CHARS) for _ in range(n))


def random_message(rng: random.Random) -> wire.Message:
    """One random valid message; payload sizes skew small, occasionally maxed."""
    kind = rng.randrange(8)
    u64 = lambda: rng.randrange(1 << 64)
    if kind == 0:
        return wire.OpenRequest(
            path=random_path(rng),
            mode=wire.ReadMode(rng.randrange(4)),
            iobufsize=rng.randrange(1 << 32),
            token=random_path(rng, 32),
        )
    if kind == 1:
        return wire.OpenReply(handle_id=u64(), file_size=u64())
    if kind == 2:
        return wire.ReadRequest(handle_id=u64(), offset=u64(), length=u64())
    if kind == 3:
        if rng.random() < 0.05:
            size = wire.MAX_CHUNK_PAYLOAD
        else:
            size = rng.randrange(0, 2048)
        return wire.DataChunk(
            handle_id=u64(), offset=u64(), payload=rng.randbytes(size)
        )
    if kind == 4:
        return wire.StreamStart(handle_id=u64(), offset=u64())
    if kind == 5:
        return wire.ErrorReply(
            code=rng.choice(list(wire.ErrorCode)),
            detail="".join(rng.choice(string.printable) for _ in range(rng.randrange(80))),
        )
    if kind == 6:
        return wire.NsLookup(path=random_path(rng))
    return wire.NsLookupReply(
        replica_address=f"ds{rng.randrange(16)}:{rng.randrange(1 << 16)}",
        file_size=u64(),
        checksum=u64(),
    )
