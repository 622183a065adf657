"""tools/probe_round.py: what counts as a copy, the wrapping of the read
path, the per-round summary, and one small real round."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "probe_round", ROOT / "tools" / "probe_round.py")
probe_round = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe_round)


def test_a_copy_is_bytes_that_no_input_owns():
    counter = probe_round.ReadPathCopies()
    tile = np.arange(16, dtype=np.uint8)
    held = bytes(range(10))
    counter.note("content_range", memoryview(tile)[2:6], ())  # a view
    counter.note("PoolFile.read", memoryview(held)[1:4], (None, held))
    counter.note("PoolFile.read", held, (held,))  # handed on as it is
    assert counter.bytes == dict.fromkeys(probe_round.SITES, 0)
    counter.note("content_range", b"".join([b"ab", b"cde"]), ())
    counter.note("PoolFile.read", held[1:4], (None, held))
    counter.note("ClientHandle.read", memoryview(bytearray(7)), (held,))
    assert counter.bytes == {"content_range": 5, "PoolFile.read": 3,
                             "ClientHandle.read": 7}


class _Chunk:
    def __init__(self, payload):
        self.payload = payload


def _stand_in_modules(tile):
    """Modules shaped like remfio's: content_range joins a range that
    crosses offset 8 and views one that does not; PoolFile.read calls it;
    ClientHandle.read takes chunks through _expect and joins them unless
    there is one."""
    client = SimpleNamespace(DataChunk=_Chunk)
    disk = SimpleNamespace()

    def content_range(offset, n):
        view = memoryview(tile)[offset:offset + n]
        return view if offset // 8 == (offset + n - 1) // 8 else bytes(view)

    class PoolFile:
        data = b""

        def read(self, offset, n):
            return disk.content_range(offset, n)

    class ClientHandle:
        def __init__(self, chunks):
            self._buf = b""
            self._chunks = chunks

        def read(self, length):
            parts = [client._expect(c, _Chunk).payload for c in self._chunks]
            return parts[0] if len(parts) == 1 else b"".join(parts)

    disk.content_range = content_range
    disk.PoolFile = PoolFile
    client.ClientHandle = ClientHandle
    client._expect = lambda msg, want: msg
    return disk, client


def test_wrapped_sites_count_only_the_copies_they_make():
    tile = np.arange(32, dtype=np.uint8)
    disk, client = _stand_in_modules(tile)
    counter = probe_round.ReadPathCopies()
    originals = (disk.content_range, disk.PoolFile.read,
                 client.ClientHandle.read, client._expect)
    saved = counter.install(disk, client)
    pool_file = disk.PoolFile()
    one = pool_file.read(0, 4)  # a view of the tile
    two = pool_file.read(6, 4)  # joined once, in content_range
    assert client.ClientHandle([_Chunk(two)]).read(4) is two
    joined = client.ClientHandle([_Chunk(one), _Chunk(two)]).read(8)
    assert bytes(joined) == bytes(tile[0:4]) + bytes(tile[6:10])
    assert counter.bytes == {"content_range": 4, "PoolFile.read": 0,
                             "ClientHandle.read": 8}
    counter.uninstall(saved)
    assert (disk.content_range, disk.PoolFile.read,
            client.ClientHandle.read, client._expect) == originals


def test_summary_takes_medians_and_mib():
    rows = [{"copied_bytes": 3 << 20, "ru_minflt": 10},
            {"copied_bytes": 1 << 20, "ru_minflt": 30},
            {"copied_bytes": 2 << 20, "ru_minflt": 20}]
    assert probe_round.summarize(rows) == {
        "copied_bytes": 2 << 20, "ru_minflt": 20, "copied_mib": 2.0}


def test_a_small_stream_round_copies_nothing(tmp_path, monkeypatch):
    # simbench's shrunken seq-stream-16: every read lies inside one pushed
    # chunk, so no site copies a byte
    monkeypatch.syspath_prepend(str(ROOT / "simbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    import remfio.client
    read = remfio.client.ClientHandle.read
    rows = probe_round.probe(workloads.SMALL["seq-stream-16"], 1, 2,
                             tmp_path / "pool")
    assert remfio.client.ClientHandle.read is read  # uninstalled
    assert len(rows) == 2
    for row in rows:
        assert row["copied_bytes"] == 0
        assert row["ru_minflt"] >= 0
        assert set(row) == {*(f"copied_bytes.{s}" for s in probe_round.SITES),
                            "copied_bytes", "ru_minflt"}
