"""tools/probe_round.py: what counts as a copy, the wrapping of the read
path, the per-round summary, and one small real round."""

from __future__ import annotations

import importlib.util
import sys
import threading
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


def test_summary_counts_a_key_a_round_lacks_as_zero():
    rows = [{"copied_bytes": 0, "gen_steps.ds-send": 4},
            {"copied_bytes": 0},
            {"copied_bytes": 0, "gen_steps.ds-send": 6}]
    assert probe_round.summarize(rows) == {
        "copied_bytes": 0, "gen_steps.ds-send": 4, "copied_mib": 0.0}


def test_task_kind_cuts_the_trailing_number():
    assert [probe_round.task_kind(n) for n in (
        "ds-send-12", "srv-ds1:5001-3", "bench-client-0", "root", "task")
    ] == ["ds-send", "srv-ds1:5001", "bench-client", "root", "task"]


class _StandInRuntime:
    def __init__(self):
        self._current = None
        self.calls = []

    def _handoff(self, cur):
        self.calls.append(("handoff", cur))

    def _step(self, task):
        self.calls.append(("step", task.name))

    def _push(self, t, entry):
        self.calls.append(("push", t))


def test_scheduler_counts_passes_steps_and_thread_starts():
    # handoff calls on main, A, A, B (after two steps on B), then the round
    # closes on main: the baton passed main -> A -> B -> main
    class Thread(threading.Thread):
        pass

    rt_cls = _StandInRuntime
    originals = (rt_cls._handoff, rt_cls._step, rt_cls._push, Thread.start)
    sched = probe_round.SchedulerCounts()
    saved = sched.install(rt_cls, Thread)
    rt = rt_cls()

    def on_thread(body):
        thread = Thread(target=body)
        thread.start()
        thread.join()

    def as_task(name):
        rt._current = SimpleNamespace(name=name)

    def client():
        as_task("bench-client-0")
        rt._handoff(rt._current)
        rt._handoff(rt._current)

    def server():
        rt._step(SimpleNamespace(name="ds-send-1"))
        rt._step(SimpleNamespace(name="ds-read-1"))
        rt._step(SimpleNamespace(name="ds-send-1"))
        as_task("srv-head:5015-2")
        rt._handoff(None)

    # a heap entry is a carrier task's wake-up, a generator task's step or
    # a callback, told apart by the task's _thread
    rt._push(0.0, SimpleNamespace(name="bench-client-0", _thread=object()))
    rt._push(0.0, SimpleNamespace(name="srv-ds1:5001-3", _thread=None))
    rt._push(1.0, lambda: None)
    rt._push(1.0, SimpleNamespace.__init__)
    as_task("root")
    rt._handoff(None)
    on_thread(client)
    on_thread(server)
    counts = sched.close_round()
    assert counts == {
        "handoff_calls": 4,
        "baton_passes": 3,
        "baton_passes.root": 1,
        "baton_passes.bench-client": 1,
        "baton_passes.srv-head:5015": 1,
        "gen_steps": 3,
        "gen_steps.ds-send": 2,
        "gen_steps.ds-read": 1,
        "heap_pushes": 4,
        "heap_pushes.carrier": 1,
        "heap_pushes.generator": 1,
        "heap_pushes.callback": 2,
        "thread_starts": 2,
    }
    assert len(rt.calls) == 11  # every wrapped call reached the original
    sched.reset()
    assert sched.close_round()["handoff_calls"] == 0
    probe_round.ReadPathCopies.uninstall(saved)
    assert (rt_cls._handoff, rt_cls._step, rt_cls._push,
            Thread.start) == originals


def test_a_runtime_without_step_is_probed_for_handoffs_only():
    # a runtime from before generator tasks has no _step to wrap
    class Runtime:
        def _handoff(self, cur):
            pass

    sched = probe_round.SchedulerCounts()
    saved = sched.install(Runtime, threading.Thread)
    probe_round.ReadPathCopies.uninstall(saved)
    assert [name for _, name, _ in saved] == ["_handoff", "start"]
    assert not hasattr(Runtime, "_step")
    assert sched.close_round()["gen_steps"] == 0


def test_armed_returns_count_as_heap_pushes():
    # a connection's window or credit return goes on the heap through _arm,
    # at a position reserved earlier: the probe counts it as a push, by what
    # it runs, like any other entry
    class Runtime(_StandInRuntime):
        def _arm(self, t, seq, entry):
            self.calls.append(("arm", t, seq))

    arm = Runtime._arm
    sched = probe_round.SchedulerCounts()
    saved = sched.install(Runtime, threading.Thread)
    rt = Runtime()
    rt._push(0.0, lambda: None)
    rt._arm(0.5, 7, lambda: None)
    rt._arm(1.0, 9, SimpleNamespace(name="bench-client-0", _thread=object()))
    counts = sched.close_round()
    probe_round.ReadPathCopies.uninstall(saved)
    assert (counts["heap_pushes"], counts["heap_pushes.callback"],
            counts["heap_pushes.carrier"]) == (3, 2, 1)
    assert rt.calls == [("push", 0.0), ("arm", 0.5, 7), ("arm", 1.0, 9)]
    assert Runtime._arm is arm
    # and the real runtime has the entry point to wrap
    import remfio.runtime
    saved = sched.install(remfio.runtime.VirtualRuntime, threading.Thread)
    probe_round.ReadPathCopies.uninstall(saved)
    assert "_arm" in [name for _, name, _ in saved]


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
        per_kind = ("baton_passes.", "gen_steps.", "heap_pushes.")
        assert {k for k in row if not k.startswith(per_kind)} == {
            *(f"copied_bytes.{s}" for s in probe_round.SITES),
            "copied_bytes", "ru_minflt", "handoff_calls", "baton_passes",
            "gen_steps", "heap_pushes", "context_switches", "thread_starts"}
        assert row["handoff_calls"] >= row["baton_passes"] > 0
        assert row["gen_steps"] == sum(
            n for k, n in row.items() if k.startswith("gen_steps."))
        assert row["heap_pushes"] == sum(
            n for k, n in row.items() if k.startswith("heap_pushes."))
        # the servers run on callbacks, so no generator task is stepped or
        # queued, and only the clients start threads
        assert row["gen_steps"] == 0
        assert "heap_pushes.generator" not in row
        assert row["heap_pushes.callback"] > row["heap_pushes.carrier"] > 0
        assert 0 < row["thread_starts"] <= workloads.SMALL[
            "seq-stream-16"].clients


def test_a_small_stream_round_counts_the_same_bytecodes_twice(tmp_path,
                                                              monkeypatch):
    # the opcode count of a round is deterministic: tracing the same round
    # twice gives the same bytecodes, Python calls and top functions
    monkeypatch.syspath_prepend(str(ROOT / "simbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    w = workloads.SMALL["seq-stream-16"]
    traces = sys.gettrace(), threading.gettrace()
    counts = []
    for rep in range(2):
        bytecodes = probe_round.Bytecodes()
        probe_round.probe(w, 1, 1, tmp_path / f"pool-{rep}", bytecodes)
        counts.append(bytecodes.counts())
    assert (sys.gettrace(), threading.gettrace()) == traces  # restored
    assert counts[0] == counts[1]
    assert counts[0]["bytecodes"] > counts[0]["py_calls"] > 0
    top = counts[0]["bytecodes_top"]
    assert len(top) == probe_round.TOP_FUNCTIONS
    assert list(top.values()) == sorted(top.values(), reverse=True)
    import remfio.runtime
    handoff = remfio.runtime.VirtualRuntime._handoff.__code__
    assert f"runtime.py:{probe_round.qualname(handoff)}" in top
