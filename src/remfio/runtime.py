"""Execution runtime: deterministic virtual time.

VirtualRuntime is a discrete-event scheduler with a small surface:
now/sleep/spawn, channels and a byte-fair rate limiter. Time is a float that
jumps straight to the next event, so a simulated minute of transfers costs
milliseconds, and identical inputs give bit-identical schedules. One task
or callback runs at a time, in one (time, seq) order for both.

A task, such as a client, runs in blocking style on a carrier thread of its
own, which hands the baton on whenever its task sleeps, blocks or exits, and
ends with the task. Thread-local state (threading.local, current_thread)
belongs to the carrier. When the root returns, run() unwinds the leftover
tasks one at a time in spawn order, each raising _TaskShutdown where it
waits. When nothing can run (a deadlock) or a callback raises, the world
stops: the root raises the cause, and from then on any blocking call
raises, the cause in the root and _TaskShutdown in a task. A deadlock is
reported at the time of the last event that ran: a connection's window and
credit returns are not events unless a sender waits on them (netemu), so
none trails it.

Each carrier moves itself to Linux's SCHED_BATCH policy when its thread
starts. A handoff releases the next carrier's baton and then blocks on its
own. On one CPU under the default policy, the woken carrier preempts the
waker, finds the GIL still held and sleeps again, so one handoff costs about
three OS context switches; a waking SCHED_BATCH thread does not preempt, so
it costs one, taken when the waker blocks. This changes host timing only,
never the schedule, which the event heap alone decides. Where the policy is
missing or refused, carriers keep the default. The thread that calls run()
keeps its own policy. Like thread-local state, the policy belongs to the
carrier: threads and child processes that a task starts inherit it.

A callback, such as a server's, has no thread: timers (call_at) and channel
waiters (VirtualChannel.when_ready) run inline during dispatch. A running
callback is the current waiter: it may call sleep, acquire, send or try_send
and return, and the event loop calls it again where that wait ends, queued
where a blocked task would wake. What would block it instead (channel get
and put, join, recv on an empty queue, connect) raises RuntimeError naming
it; spawn and unbounded channel put and try_put are safe.
"""

from __future__ import annotations

import os
import threading
import warnings
from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable

from .errors import DeadlockError


class _TaskShutdown(BaseException):
    """Raised inside a task's blocking call once the runtime is stopping."""


class Task:
    """Handle to a spawned activity; join() re-raises the task's exception."""

    def __init__(self, name: str):
        self.name = name
        self.finished = False
        self.result: Any = None
        self.exc: BaseException | None = None
        self._baton = threading.Lock()  # held while the task may not run
        self._baton.acquire()
        self._thread: threading.Thread | None = None  # the thread it runs on
        self._join_waiters: list[Task] = []

    def __repr__(self) -> str:
        state = "done" if self.finished else "live"
        return f"<Task {self.name} {state}>"


# ---------------------------------------------------------------------------
# virtual runtime
# ---------------------------------------------------------------------------


class VirtualRuntime:
    """Deterministic discrete-event scheduler with a blocking-call API."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seqs = count(1)  # the heap positions' seqs, in push order
        self._at = 0  # seq of the entry that runs: (_now, _at) is the position
        self._heap: list[tuple[float, int, Any]] = []  # entry: Task or callback
        self._current: Any = None  # the Task or callback that runs
        self._root: Task | None = None
        self._tasks: dict[Task, None] = {}  # unfinished tasks, spawn order
        self._pending: list[Task] = []  # crashed, exception not yet observed
        self._stopping = False
        self._failure: BaseException | None = None
        self._ran = False

    # -- clock ------------------------------------------------------------

    def now(self) -> float:
        return self._now

    def sleep(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative sleep: {dt}")
        self._switch(self._now + dt)

    def call_at(self, t: float, fn: Callable[[], None]) -> None:
        """Run fn() inline when virtual time reaches t. fn must not block."""
        self._push(max(t, self._now), fn)

    def call_later(self, dt: float, fn: Callable[[], None]) -> None:
        self.call_at(self._now + dt, fn)

    # -- tasks ------------------------------------------------------------

    def spawn(self, fn: Callable, *args, name: str = "task") -> Task:
        """Schedule fn(*args) as a task on a carrier thread of its own."""
        task = Task(name)
        task._thread = thread = threading.Thread(
            target=self._carry, args=(task, fn, args), daemon=True,
            name="vrt-carrier")
        old_stack = threading.stack_size()
        try:
            threading.stack_size(1 << 20)  # many parked carriers; keep VSZ low
            thread.start()
        finally:
            threading.stack_size(old_stack)
        self._tasks[task] = None
        self._push(self._now, task)
        return task

    def join(self, task: Task):
        while not task.finished:
            self._park(task._join_waiters)
        if task.exc is not None:
            if task in self._pending:
                self._pending.remove(task)
            raise task.exc
        return task.result

    def run(self, fn: Callable, *args):
        """Execute fn as the root task; returns its result after shutdown.

        A spawned task's exception surfaces at join(); if nothing ever joins
        the task, the exception is re-raised here once fn returns.
        """
        if self._ran:
            raise RuntimeError("runtime instances are single-use")
        self._ran = True
        self._root = self._current = Task("root")
        self._root._thread = threading.current_thread()
        try:
            result = fn(*args)
        finally:
            # unwind the leftover tasks one at a time, in spawn order; their
            # cleanup may spawn more, which join the end of the queue
            self._stopping = True
            while self._tasks:
                task = next(iter(self._tasks))
                del self._tasks[task]
                self._current = task
                task._baton.release()
                task._thread.join(timeout=5.0)
                if task._thread.is_alive():
                    warnings.warn(f"task {task.name!r} survived shutdown",
                                  RuntimeWarning, stacklevel=2)
        if self._pending:
            raise self._pending[0].exc
        return result

    # -- scheduler internals ------------------------------------------------

    def _push(self, t: float, entry) -> None:
        """Push entry at time t, which must not be before _now."""
        heappush(self._heap, (t, next(self._seqs), entry))

    def _arm(self, t: float, seq: int, entry) -> None:
        """Push entry at a later position, its seq drawn earlier."""
        heappush(self._heap, (t, seq, entry))

    def _blocking_call(self) -> None:
        """Raise RuntimeError if a callback, which must not block, calls
        what blocks a task."""
        cur = self._current
        if cur.__class__ is not Task:
            raise RuntimeError(f"{getattr(cur, 'name', cur)!r} made a "
                               "blocking call; only a task may")

    def _park(self, waiters) -> None:
        """Queue the current task on waiters and block it until
        someone makes it runnable again."""
        cur = self._current
        if cur.__class__ is not Task:
            self._blocking_call()  # raises
        waiters.append(cur)
        self._switch(None)

    def _switch(self, reschedule_at: float | None) -> None:
        cur = self._current
        if not self._stopping:
            if reschedule_at is not None:
                self._push(reschedule_at, cur)
            if cur.__class__ is not Task:
                return  # a callback: called again where its wait ends
            self._handoff(cur)
            if not self._stopping:
                return
        # the world is stopping: a task unwinds, the root sees the failure
        if cur is self._root:
            raise self._failure
        raise _TaskShutdown()

    def _handoff(self, cur: Task | None) -> None:
        """Run due timer callbacks and pass the baton to the next task.

        cur is the task giving the baton up, or None if it is exiting; it
        waits here until it is handed the baton again. If nothing is left
        to run, or a timer callback raises, the world stops and the root is
        woken to raise the cause. A crashed-but-unobserved task is a better
        root cause than the deadlock it usually provokes, so pending
        failures win over a deadlock.
        """
        heap = self._heap
        while heap:
            # no entry lies before the position that pushed it (_push, _arm)
            self._now, self._at, entry = heappop(heap)
            if entry.__class__ is Task:
                nxt = entry
                break
            self._current = entry
            try:
                entry()  # a callback, runs inline
            except BaseException as exc:
                # a crash with no task to carry it: the root raises it
                self._failure = exc
                self._stopping = True
                nxt = self._root
                break
        else:
            cause = f"all tasks blocked at t={self._now:.6f}; no pending events"
            self._failure = (self._pending[0].exc if self._pending
                             else DeadlockError(cause))
            self._stopping = True
            nxt = self._root
        self._current = nxt
        if nxt is cur:
            return
        nxt._baton.release()
        if cur is not None:
            cur._baton.acquire()

    def _finish(self, task: Task) -> None:
        """Mark task done; an exception nobody joins for is pending."""
        task.finished = True
        if task.exc is not None and not task._join_waiters:
            self._pending.append(task)
        if self._stopping:
            return  # run() took the task off _tasks
        del self._tasks[task]
        for waiter in task._join_waiters:
            self._push(self._now, waiter)
        task._join_waiters.clear()

    def _carry(self, task: Task, fn: Callable, args: tuple) -> None:
        """Carrier thread: run task once it holds the baton, hand the baton
        on, and end."""
        try:  # pid 0 is this thread; the module docstring says why
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except (AttributeError, OSError):
            pass  # no such policy here, or refused: keep the default
        task._baton.acquire()
        try:
            if not self._stopping:
                task.result = fn(*args)
        except _TaskShutdown:
            pass
        except BaseException as exc:
            task.exc = exc
        self._finish(task)
        if not self._stopping:  # else run() is joining this carrier
            self._handoff(None)

    # -- coordination primitives -------------------------------------------

    def channel(self, capacity: int | None = None) -> "VirtualChannel":
        return VirtualChannel(self, capacity)

    def rate_limiter(self, rate: float) -> "VirtualRateLimiter":
        return VirtualRateLimiter(self, rate)


class VirtualChannel:
    """FIFO channel; blocking put/get with optional capacity bound."""

    def __init__(self, runtime: VirtualRuntime, capacity: int | None):
        self._rt = runtime
        self._capacity = capacity
        self._items: deque = deque()
        self._getters: deque = deque()  # parked Tasks and when_ready callbacks
        self._putters: deque[Task] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item) -> None:
        while not self.try_put(item):
            self._rt._park(self._putters)

    def try_put(self, item) -> bool:
        if self._capacity is not None and len(self._items) >= self._capacity:
            return False
        self._items.append(item)
        if self._getters:
            self._rt._push(self._rt._now, self._getters.popleft())
        return True

    def get(self):
        while not self._items:
            self._rt._park(self._getters)
        item = self._items.popleft()
        if self._putters:
            self._rt._push(self._rt._now, self._putters.popleft())
        return item

    def when_ready(self, fn: Callable[[], None]) -> None:
        """Call fn() once the next item is put, in place of a task parked in
        get(): the put schedules it where it would wake that task. fn runs
        inline in the event loop, like a timer callback, and must not block.
        """
        self._getters.append(fn)


class VirtualRateLimiter:
    """Serves byte grants at a sustained rate, shared byte-fairly across keys.

    acquire(key, n) returns once the shared resource has spent n/rate seconds
    on this request. Grants are served one at a time by timer callbacks, in
    self-clocked fair queueing order (Golestani, INFOCOM 1994): a request is
    tagged max(V, its key's last queued tag) + n, where V is the tag of the
    request last granted, and the smallest tag goes next, ties in arrival
    order. Keys that keep asking therefore get equal bytes, whatever the size
    of their requests. A grant wakes its waiter at the grant's end ahead of
    the next pick, so a waiter that asks again at once competes for the next
    grant; keys with one request outstanding at a time would otherwise be
    shared per grant. A task's grant ends in two events, its wake-up and the
    pick, as a carrier must run first; a callback's in one that calls it and
    picks. An idle limiter holds no timer, and a key's state is dropped with
    its last request. acquire of no bytes returns at once, without a wait.
    A request that finds nothing queued, so no key's last tag either, is
    tagged V + n and waits in a one-request slot off the heap; a second
    request moves it onto the heap first, with its key's last tag and the
    earlier arrival, so tags, grant order and grant ends are unchanged.
    """

    def __init__(self, runtime: VirtualRuntime, rate: float):
        if rate <= 0:
            raise ValueError(f"rate must be positive: {rate}")
        self._rt = runtime
        self._rate = rate
        self._requests: list = []  # heap of (tag, arrival, key, n, waiter)
        self._lone = None  # the one request queued, off the heap, arrival 0
        self._last_tag: dict = {}  # key -> tag of its last queued request
        self._vtime = 0  # V: the tag of the request last granted
        self._arrivals = 0
        self._busy = False  # a serve callback is pending
        self._timed = rate != float("inf")  # a grant takes time
        self._granted = None  # the callback of the one grant outstanding
        # bound once, not at every push
        self._serve, self._end_grant = self._serve, self._end_grant

    def acquire(self, key, nbytes: int) -> None:
        if nbytes <= 0:
            return
        rt = self._rt
        waiter = rt._current
        if self._lone is None and not self._requests:  # so no last tags
            self._lone = (self._vtime + nbytes, 0, key, nbytes, waiter)
        else:
            vtime, last, requests = self._vtime, self._last_tag, self._requests
            if lone := self._lone:  # onto the empty heap, before the newcomer
                self._lone = None
                heappush(requests, lone)
                last[lone[2]] = lone[0]
            tag = last.get(key, vtime)
            if tag < vtime:
                tag = vtime
            last[key] = tag = tag + nbytes
            self._arrivals += 1
            heappush(requests, (tag, self._arrivals, key, nbytes, waiter))
        if not self._busy:
            # serve once the event loop has run everything else due now, so
            # at infinite rate the requests of one instant are granted
            # together, in tag order
            self._busy = True
            rt._push(rt._now, self._serve)
        if waiter.__class__ is Task or rt._stopping:
            rt._switch(None)  # a callback returns; its grant's end calls it

    def _serve(self) -> None:
        """Grant queued requests in tag order until one takes time."""
        rt = self._rt
        while True:
            if lone := self._lone:
                self._lone = None
                tag, _, key, nbytes, waiter = lone
            elif self._requests:
                tag, _, key, nbytes, waiter = heappop(self._requests)
                if self._last_tag[key] == tag:
                    del self._last_tag[key]
            else:
                break
            self._vtime = tag
            if self._timed:
                end = rt._now + nbytes / self._rate
                if waiter.__class__ is Task:
                    # the task wakes before the next pick: pushed first, it
                    # runs first at the grant's end
                    rt._push(end, waiter)
                    rt._push(end, self._serve)
                else:
                    self._granted = waiter
                    rt._push(end, self._end_grant)
                return
            rt._push(rt._now, waiter)
        self._busy = False

    def _end_grant(self) -> None:
        """End a callback's grant: call it, then pick the next request."""
        waiter = self._rt._current = self._granted
        waiter()
        if self._lone or self._requests:
            self._serve()
        else:
            self._busy = False
