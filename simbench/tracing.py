"""Span tracing of remfio's public entry points, from outside the package.

Tracer.installed() replaces the entry points listed in ENTRY_POINTS with
wrappers that record one span per call: its name, parent span, host start
and end (perf_counter) and virtual start and end (the clock of the most
recently created VirtualRuntime). A function is replaced in every remfio
module that binds it by name, so calls made through `from .wire import
encode_frame` are seen too. Everything is restored on exit.

The parent of a span is the innermost open span on the same thread. Under
the thread-carrier runtime each task is a thread, so a task's spans nest
properly even while other tasks run between its calls. A span's host
duration includes the host time of whatever ran while it was parked.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import remfio.runtime

# (module, owner class or None for a module function, attribute, span name).
# The span name's first part is the layer: the module's name.
ENTRY_POINTS = [
    ("remfio.runtime", "VirtualRuntime", "spawn", "runtime.spawn"),
    ("remfio.runtime", "VirtualRuntime", "join", "runtime.join"),
    ("remfio.runtime", "VirtualRuntime", "sleep", "runtime.sleep"),
    ("remfio.runtime", "VirtualRuntime", "call_at", "runtime.call_at"),
    ("remfio.runtime", "VirtualRuntime", "rate_limiter",
     "runtime.rate_limiter"),
    ("remfio.runtime", "VirtualRateLimiter", "acquire", "runtime.acquire"),
    ("remfio.netemu", "EmulatedNetwork", "connect", "netemu.connect"),
    ("remfio.netemu", "EmuConnection", "send", "netemu.send"),
    ("remfio.netemu", "EmuConnection", "recv", "netemu.recv"),
    ("remfio.netemu", "EmuConnection", "close", "netemu.close"),
    ("remfio.wire", None, "encode_frame", "wire.encode_frame"),
    ("remfio.wire", None, "decode_frame", "wire.decode_frame"),
    ("remfio.diskserver", "DiskServer", "__init__", "diskserver.DiskServer"),
    ("remfio.diskserver", "DiskServer", "import_file",
     "diskserver.import_file"),
    ("remfio.headnode", "Headnode", "register_file", "headnode.register_file"),
    ("remfio.headnode", "Headnode", "lookup", "headnode.lookup"),
    ("remfio.bench", None, "seed_pool", "bench.seed_pool"),
    ("remfio.client", None, "rf_open", "client.rf_open"),
    ("remfio.client", None, "rf_read", "client.rf_read"),
    ("remfio.client", None, "rf_seek", "client.rf_seek"),
    ("remfio.client", None, "rf_close", "client.rf_close"),
]


class Tracer:
    def __init__(self) -> None:
        # (span id, parent id or -1, name, host t0, host t1, virt t0, virt t1)
        self.spans: list[tuple] = []
        self.bytes: Counter = Counter()  # byte totals noted at entry points
        self.grants: Counter = Counter()  # rate-limiter grants by owner layer
        self._ids = itertools.count()
        self._local = threading.local()
        self._owners: dict = {}  # rate limiter -> layer that created it
        self._clock = lambda: 0.0

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self):
        undo = []
        after = {
            "runtime.rate_limiter": self._note_limiter,
            "runtime.acquire": self._note_grant,
            "netemu.send": self._note_send,
        }
        try:
            rt_cls = remfio.runtime.VirtualRuntime
            init = rt_cls.__init__

            def adopting_init(rt, *args, **kwargs):
                init(rt, *args, **kwargs)
                self._clock = rt.now

            rt_cls.__init__ = adopting_init
            undo.append((rt_cls, "__init__", init))
            for modname, clsname, attr, name in ENTRY_POINTS:
                module = importlib.import_module(modname)
                if clsname is None:
                    orig = getattr(module, attr)
                    wrapped = self._wrap(name, orig, after.get(name))
                    for mod in _remfio_modules():
                        if mod.__dict__.get(attr) is orig:
                            setattr(mod, attr, wrapped)
                            undo.append((mod, attr, orig))
                else:
                    cls = getattr(module, clsname)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(name, orig, after.get(name)))
                    undo.append((cls, attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(undo):
                setattr(owner, attr, orig)

    def _wrap(self, name, fn, after):
        spans, ids, local = self.spans, self._ids, self._local

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            stack.append((sid, name))
            clock = self._clock
            v0 = clock()
            h0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                h1 = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, h0, h1, v0, clock()))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- notes taken at entry points -----------------------------------------

    def _note_limiter(self, limiter, _rt, _rate) -> None:
        """Tag a rate limiter with the layer whose span created it."""
        stack = getattr(self._local, "stack", None)
        layer = stack[-1][1].split(".")[0] if stack else "bench"
        self._owners[limiter] = layer

    def _note_grant(self, _result, limiter, key, nbytes) -> None:
        if nbytes > 0:
            layer = self._owners.get(limiter, "unknown")
            self.grants[layer] += 1
            self.bytes[f"{layer}.granted"] += nbytes

    def _note_send(self, _result, conn, msg, **_kwargs) -> None:
        payload = getattr(msg, "payload", None)
        if isinstance(payload, bytes):
            self.bytes["netemu.payload_sent"] += len(payload)

    # -- summaries ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def host_durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def by_name(self) -> dict:
        """name -> (calls, host s, host self s, virtual s)."""
        child_host: dict = defaultdict(float)
        for s in self.spans:
            if s[1] >= 0:
                child_host[s[1]] += s[4] - s[3]
        out: dict = {}
        for sid, _parent, name, h0, h1, v0, v1 in self.spans:
            calls, host, own, virt = out.get(name, (0, 0.0, 0.0, 0.0))
            out[name] = (calls + 1, host + (h1 - h0),
                         own + (h1 - h0) - child_host.get(sid, 0.0),
                         virt + (v1 - v0))
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write("id\tparent\tname\thost_t0\thost_t1\tvirt_t0\tvirt_t1\n")
            for s in sorted(self.spans):
                f.write("\t".join(map(repr, s[:2])) + f"\t{s[2]}\t"
                        + "\t".join(map(repr, s[3:])) + "\n")


def _remfio_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None
            and (name == "remfio" or name.startswith("remfio."))]
