"""Count what simbench rounds cost the host: copies, switches, bytecodes.

    python3 tools/probe_round.py --workload seq-stream-16 --seed 1 [--rounds 5]

Seeds a fresh pool with simbench's own seed_fresh_pool, pins the process to
one CPU as simbench/run.py does, and runs simbench's run_round --rounds
times, cycling through its stagger draws and collecting garbage before each
round, as simbench's timed rounds do. Per round it prints, as one JSON
object per line:

- the bytes the read path copies, by site. A site copies when the bytes it
  returns live in a `bytes` object that none of its inputs owns:
  - `content_range` (its input is the seed's tile);
  - `PoolFile.read` (its inputs are what content_range returned inside the
    call, and an imported file's bytes);
  - `ClientHandle.read`, also where a remfio module binds it as `rf_read`
    (its inputs are the DataChunk payloads that `EmuConnection.recv`
    returned on the reading task's thread during the call, and the
    handle's buffer at the call's start);
- `ru_minflt`, the process's minor page faults during the round;
- `handoff_calls`, the calls of VirtualRuntime._handoff, and of those
  `baton_passes`, the ones after which another carrier thread holds the
  baton: consecutive calls made on different threads. Each pass is also
  counted under the name of the task that gave the baton up, its trailing
  `-<number>` cut off (`baton_passes.bench-client`);
- `heap_pushes`, the entries pushed on the event heap
  (VirtualRuntime._push, and VirtualRuntime._arm, which pushes a
  connection's window or credit return that a sender waits on), split by
  what the entry runs: `.carrier` (a carrier task's wake-up) and
  `.callback` (anything else: timers, grants, armed returns, server
  continuations).
  The runtime's seq numbers are not this count: they also number every
  window and credit return, which takes a heap position whether or not it
  is ever pushed;
- `context_switches`, the process's voluntary and involuntary context
  switches (`ru_nvcsw + ru_nivcsw`) during the round;
- `thread_starts`, the calls of threading.Thread.start during the round.

After the counted rounds, one more round runs with no wrapper installed,
under sys.settrace and threading.settrace with f_trace_opcodes set, and
under sys.setprofile and threading.setprofile, and the last line gains
`bytecodes` (opcodes executed), `py_calls` (Python frames entered, a
generator's resumption included), `bytecodes_top` (the 10 functions that
executed the most opcodes, each named `file:qualname`, or `file:name`
before Python 3.11), `py_calls_top` (the 10 functions entered most, named
alike), `c_calls` (calls of builtin functions and methods:
the profile's `c_call` events) and `c_calls_top` (the 10 builtins called
most, each named `module.qualname`, or `qualname` for a method). The traced
round takes about 2 s more than the counted ones. The round's threads are
joined before the count ends, so their last opcodes count too. The
threading module's own code, and the weak-set callbacks by which it
forgets finished threads, are left out, with the builtins they call: how
much of them runs depends on which thread wins a race, such as whether a
new thread has started before Thread.start waits for it. What is left
repeats exactly from round to round and from run to run.

The last line is the median of each count over the rounds. The probe wraps
remfio's functions in this process only; it writes nothing under simbench/
and changes no file there.
"""

from __future__ import annotations

import _weakrefset
import argparse
import gc
import json
import os
import re
import resource
import statistics
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SITES = ("content_range", "PoolFile.read", "ClientHandle.read")
STAGGER_DRAWS = 8  # simbench's timed rounds cycle through this many draws
TOP_FUNCTIONS = 10  # functions listed under each *_top count


def base_of(buf):
    """The object that owns buf's memory: a memoryview's exporter, or buf
    itself."""
    return buf.obj if isinstance(buf, memoryview) else buf


class ReadPathCopies:
    """Bytes copied per site, counted by wrapping remfio's read path."""

    def __init__(self, tile_of=None) -> None:
        """tile_of(seed), if given, is the seed's tile: the buffer that
        content_range's input is."""
        self.bytes = dict.fromkeys(SITES, 0)
        self._tile_of = tile_of
        self._last_range = None  # base of content_range's latest result
        self._received = threading.local()  # payload bases, per carrier

    def note(self, site: str, result, inputs) -> None:
        """Count result at site if its bytes are a copy: held by a bytes
        object that is none of the inputs."""
        base = base_of(result)
        if (isinstance(base, (bytes, bytearray))
                and not any(base is i for i in inputs)):
            self.bytes[site] += memoryview(result).nbytes

    def install(self, diskserver, client, netemu, modules=()) -> list:
        """Wrap the three sites in the given modules, with ClientHandle.read
        also where any of `modules` binds it by another name (rf_read), and
        EmuConnection.recv, which every chunk a client receives crosses;
        returns (owner, name, original) for uninstall()."""
        saved = [(diskserver, "content_range", diskserver.content_range),
                 (diskserver.PoolFile, "read", diskserver.PoolFile.read),
                 (client.ClientHandle, "read", client.ClientHandle.read),
                 (netemu.EmuConnection, "recv", netemu.EmuConnection.recv)]
        content_range, pool_read, handle_read, recv = (
            original for _, _, original in saved)
        bound = [(module, name, handle_read) for module in modules
                 for name, value in list(vars(module).items())
                 if value is handle_read]

        def counted_range(*args):
            got = content_range(*args)
            self._last_range = base_of(got)
            tile = () if self._tile_of is None else (self._tile_of(args[0]),)
            self.note("content_range", got, tile)
            return got

        def counted_pool_read(pool_file, offset, n):
            self._last_range = None
            got = pool_read(pool_file, offset, n)
            self.note("PoolFile.read", got,
                      (self._last_range, pool_file.data))
            return got

        def counted_recv(conn):
            got = recv(conn)
            received = getattr(self._received, "bases", None)
            if received is not None and isinstance(got, netemu.DataChunk):
                received.append(base_of(got.payload))
            return got

        def counted_handle_read(handle, length):
            received = self._received.bases = [base_of(handle._buf)]
            try:
                got = handle_read(handle, length)
            finally:
                self._received.bases = None
            self.note("ClientHandle.read", got, received)
            return got

        diskserver.content_range = counted_range
        diskserver.PoolFile.read = counted_pool_read
        client.ClientHandle.read = counted_handle_read
        netemu.EmuConnection.recv = counted_recv
        for module, name, _ in bound:
            setattr(module, name, counted_handle_read)
        return saved + bound

    @staticmethod
    def uninstall(saved: list) -> None:
        for owner, name, original in saved:
            setattr(owner, name, original)


def task_kind(name: str) -> str:
    """A task's name without its trailing -<number>: bench-client-3 ->
    bench-client."""
    return re.sub(r"-\d+$", "", name)


class SchedulerCounts:
    """Handoffs, baton passes, heap pushes and thread starts, counted by
    wrapping a runtime class and threading.Thread."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.handoff_calls = 0
        self.passes: Counter = Counter()  # by the kind of task giving up
        self.pushes: Counter = Counter()  # by what the entry runs
        self.thread_starts = 0
        self._last = None  # (thread, task kind) of the latest handoff call

    def _note_handoff(self, name: str) -> None:
        """A handoff call on this thread by task `name`; the baton passed if
        the previous call was made on another thread."""
        self.handoff_calls += 1
        self._note_thread()
        self._last = (threading.current_thread(), task_kind(name))

    def _note_thread(self) -> None:
        last = self._last
        if last is not None and last[0] is not threading.current_thread():
            self.passes[last[1]] += 1

    def close_round(self) -> dict:
        """The round's counts; a last pass back to this thread counts too."""
        self._note_thread()
        self._last = None
        return {"handoff_calls": self.handoff_calls,
                "baton_passes": sum(self.passes.values()),
                **{f"baton_passes.{k}": n for k, n in self.passes.items()},
                "heap_pushes": sum(self.pushes.values()),
                **{f"heap_pushes.{k}": n for k, n in self.pushes.items()},
                "thread_starts": self.thread_starts}

    def note_push(self, entry) -> None:
        """An entry pushed on the event heap: a carrier task, which has a
        _thread, or a callback."""
        self.pushes["carrier" if hasattr(entry, "_thread")
                    else "callback"] += 1

    def install(self, runtime_cls, thread_cls) -> list:
        """Wrap runtime_cls._handoff, _push and _arm, and thread_cls.start;
        returns (owner, name, original) for uninstall()."""
        handoff, push, arm = (runtime_cls._handoff, runtime_cls._push,
                              runtime_cls._arm)
        start = thread_cls.start
        saved = [(runtime_cls, "_handoff", handoff),
                 (runtime_cls, "_push", push), (runtime_cls, "_arm", arm),
                 (thread_cls, "start", start)]

        def counted_handoff(rt, cur):
            self._note_handoff(getattr(rt._current, "name", "callback"))
            return handoff(rt, cur)

        def counted_push(rt, t, entry):
            self.note_push(entry)
            return push(rt, t, entry)

        def counted_arm(rt, t, seq, entry):
            self.note_push(entry)
            return arm(rt, t, seq, entry)

        def counted_start(thread, *args, **kwargs):
            self.thread_starts += 1
            return start(thread, *args, **kwargs)

        runtime_cls._handoff = counted_handoff
        runtime_cls._push = counted_push
        runtime_cls._arm = counted_arm
        thread_cls.start = counted_start
        return saved


def qualname(code) -> str:
    """code's qualified name; its bare name before Python 3.11."""
    return getattr(code, "co_qualname", code.co_name)


def builtin_name(fn) -> str:
    """A builtin's name: module.qualname, or qualname for a method."""
    name = getattr(fn, "__qualname__", type(fn).__name__)
    module = getattr(fn, "__module__", None)
    return f"{module}.{name}" if module else name


class Bytecodes:
    """Opcodes executed and Python frames entered, by function, and builtins
    called, counted by a trace and a profile function on every thread
    started while they are installed and on the thread that installs
    them."""

    def __init__(self) -> None:
        self.per_code: Counter = Counter()  # opcodes by code object
        self.calls_per_code: Counter = Counter()  # frames by code object
        self.per_builtin: Counter = Counter()  # calls by builtin's name
        # the probe's own frame runs fn, and calls builtins after it
        self._skip = {threading.__file__, _weakrefset.__file__, __file__}

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename in self._skip:
            return None
        self.calls_per_code[code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return self._opcode

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.per_code[frame.f_code] += 1
        return self._opcode

    def _profile(self, frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename not in self._skip:
            self.per_builtin[builtin_name(arg)] += 1

    def run(self, fn, *args):
        """fn(*args), counted; returns its result."""
        before = set(threading.enumerate())
        hooks = (sys.gettrace(), threading.gettrace(), sys.getprofile(),
                 threading.getprofile())
        threading.settrace(self._call)
        threading.setprofile(self._profile)
        sys.settrace(self._call)
        sys.setprofile(self._profile)
        try:
            return fn(*args)
        finally:
            for thread in set(threading.enumerate()) - before:
                thread.join(timeout=5.0)
            sys.settrace(hooks[0])
            threading.settrace(hooks[1])
            sys.setprofile(hooks[2])
            threading.setprofile(hooks[3])

    def counts(self) -> dict:
        def top(per_code: Counter) -> dict:
            named: Counter = Counter()
            for code, n in per_code.items():
                named[f"{Path(code.co_filename).name}:{qualname(code)}"] += n
            return dict(named.most_common(TOP_FUNCTIONS))
        return {"bytecodes": sum(self.per_code.values()),
                "py_calls": sum(self.calls_per_code.values()),
                "bytecodes_top": top(self.per_code),
                "py_calls_top": top(self.calls_per_code),
                "c_calls": sum(self.per_builtin.values()),
                "c_calls_top": dict(
                    self.per_builtin.most_common(TOP_FUNCTIONS))}


def summarize(rounds: list[dict]) -> dict:
    """The median of every count over the rounds, a count a round lacks
    being 0, with copies also in MiB."""
    keys = dict.fromkeys(k for r in rounds for k in r)
    out = {key: statistics.median(r.get(key, 0) for r in rounds)
           for key in keys}
    out["copied_mib"] = out["copied_bytes"] / (1 << 20)
    return out


def probe(w, seed: int, rounds: int, pool_dir: Path,
          bytecodes: Bytecodes | None = None) -> list[dict]:
    """Seed a fresh pool for workload w and run `rounds` counted rounds;
    then, given bytecodes, one more round that it counts."""
    import remfio.client
    import remfio.content
    import remfio.diskserver
    import remfio.netemu
    import remfio.runtime
    from workloads import run_round, seed_fresh_pool

    seed_fresh_pool(w, seed, pool_dir)
    counter = ReadPathCopies(
        lambda seed: remfio.content._tile_view(seed).obj)
    sched = SchedulerCounts()
    saved = counter.install(
        remfio.diskserver, remfio.client, remfio.netemu,
        [m for name, m in list(sys.modules.items())
         if name.partition(".")[0] == "remfio" and m is not None])
    saved += sched.install(remfio.runtime.VirtualRuntime, threading.Thread)
    rows = []
    try:
        for rep in range(rounds):
            gc.collect()
            counter.bytes = dict.fromkeys(SITES, 0)
            sched.reset()
            before = resource.getrusage(resource.RUSAGE_SELF)
            run_round(w, seed, pool_dir, rep=rep % STAGGER_DRAWS)
            after = resource.getrusage(resource.RUSAGE_SELF)
            switches = (after.ru_nvcsw + after.ru_nivcsw
                        - before.ru_nvcsw - before.ru_nivcsw)
            rows.append({**{f"copied_bytes.{s}": n
                            for s, n in counter.bytes.items()},
                         "copied_bytes": sum(counter.bytes.values()),
                         "ru_minflt": after.ru_minflt - before.ru_minflt,
                         **sched.close_round(),
                         "context_switches": switches})
    finally:
        counter.uninstall(saved)
    if bytecodes is not None:
        gc.collect()
        bytecodes.run(run_round, w, seed, pool_dir)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "simbench")]
    import workloads
    if hasattr(os, "sched_setaffinity"):  # as simbench/run.py pins itself
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bytecodes = Bytecodes()
    with tempfile.TemporaryDirectory(prefix="probe-round-") as tmp:
        rows = probe(workloads.WORKLOADS[args.workload], args.seed,
                     args.rounds, Path(tmp) / "pool", bytecodes)
    for i, row in enumerate(rows):
        print(json.dumps({"round": i, **row}), flush=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": args.rounds,
                      "median": summarize(rows) | bytecodes.counts()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
