"""Scheduler tests: exact virtual timing, determinism, blocking primitives."""

from __future__ import annotations

import heapq
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import remfio.runtime
from remfio.errors import DeadlockError
from remfio.runtime import VirtualRuntime


def test_sleep_advances_virtual_time_only():
    rt = VirtualRuntime()
    wall_start = time.monotonic()

    def main():
        rt.sleep(3600.0)
        return rt.now()

    assert rt.run(main) == 3600.0
    assert time.monotonic() - wall_start < 5.0


def test_spawn_ordering_and_fifo_ties():
    rt = VirtualRuntime()
    trace = []

    def worker(name, delay):
        rt.sleep(delay)
        trace.append((rt.now(), name))

    def main():
        rt.join(rt.spawn(worker, "a", 0.30))
        for name, d in [("b", 0.2), ("c", 0.1), ("d", 0.2)]:
            rt.spawn(worker, name, d)
        rt.sleep(1.0)

    rt.run(main)
    # a runs alone; then c at 0.4; b and d tie at 0.5, spawn order wins
    assert trace == [(0.3, "a"), (0.4, "c"), (0.5, "b"), (0.5, "d")]


def test_join_returns_result_and_propagates_exception():
    rt = VirtualRuntime()

    def ok():
        rt.sleep(0.1)
        return 42

    def boom():
        raise ValueError("broken task")

    def main():
        assert rt.join(rt.spawn(ok)) == 42
        rt.join(rt.spawn(boom))

    with pytest.raises(ValueError, match="broken task"):
        rt.run(main)


def test_unjoined_task_failure_fails_run():
    rt = VirtualRuntime()

    def boom():
        rt.sleep(0.5)
        raise RuntimeError("background crash")

    def main():
        rt.spawn(boom)
        rt.sleep(10.0)

    with pytest.raises(RuntimeError, match="background crash"):
        rt.run(main)


def test_channel_bounded_put_blocks_until_get():
    rt = VirtualRuntime()
    events = []

    def main():
        ch = rt.channel(capacity=1)

        def producer():
            for i in range(3):
                ch.put(i)
                events.append(("put", i, rt.now()))

        def consumer():
            for _ in range(3):
                rt.sleep(1.0)
                events.append(("got", ch.get(), rt.now()))

        p = rt.spawn(producer)
        c = rt.spawn(consumer)
        rt.join(p)
        rt.join(c)

    rt.run(main)
    puts = [e for e in events if e[0] == "put"]
    # put 0 immediate; puts 1 and 2 each wait for a get at t=1,2
    assert [round(t, 6) for _, _, t in puts] == [0.0, 1.0, 2.0]
    assert [v for kind, v, _ in events if kind == "got"] == [0, 1, 2]


def test_rate_limiter_exact_duration():
    rt = VirtualRuntime()

    def main():
        lim = rt.rate_limiter(100.0)
        assert not rt._tasks  # grants are timer callbacks, not a task
        lim.acquire("k", 50)
        assert rt.now() == pytest.approx(0.5)
        lim.acquire("k", 100)
        assert rt.now() == pytest.approx(1.5)
        # a served key leaves nothing behind
        assert not lim._requests and not lim._last_tag

    rt.run(main)


def test_rate_limiter_zero_bytes_is_free():
    rt = VirtualRuntime()

    def main():
        lim = rt.rate_limiter(100.0)
        lim.acquire("k", 0)
        assert rt.now() == 0.0
        assert not lim._requests and not lim._last_tag
        assert lim._arrivals == 0 and not lim._busy  # nothing queued

    rt.run(main)


def test_rate_limiter_round_robin_between_keys():
    rt = VirtualRuntime()

    def main():
        lim = rt.rate_limiter(100.0)
        log = []

        def hog(key):
            for _ in range(3):
                lim.acquire(key, 100)
                log.append((rt.now(), key))

        a = rt.spawn(hog, "a")
        b = rt.spawn(hog, "b")
        rt.join(a)
        rt.join(b)
        keys = [k for _, k in log]
        times = [t for t, _ in log]
        assert keys == ["a", "b", "a", "b", "a", "b"]
        assert times == pytest.approx([1, 2, 3, 4, 5, 6])

    rt.run(main)


def test_call_at_runs_callbacks_in_time_order():
    rt = VirtualRuntime()
    fired = []

    def main():
        rt.call_at(2.0, lambda: fired.append(("late", rt.now())))
        rt.call_at(1.0, lambda: fired.append(("early", rt.now())))
        rt.call_at(1.0, lambda: fired.append(("early2", rt.now())))
        rt.sleep(5.0)

    rt.run(main)
    assert fired == [("early", 1.0), ("early2", 1.0), ("late", 2.0)]


def test_deadlock_detection():
    rt = VirtualRuntime()

    def main():
        ch = rt.channel()

        def stuck():
            ch.get()

        rt.spawn(stuck)
        rt.channel().get()

    with pytest.raises(DeadlockError):
        rt.run(main)


def test_shutdown_reaps_parked_tasks():
    baseline = threading.active_count()
    rt = VirtualRuntime()

    def main():
        ch = rt.channel()
        for i in range(10):
            rt.spawn(ch.get, name=f"parked{i}")
        rt.sleep(1.0)
        return "done"

    assert rt.run(main) == "done"
    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline


def _assert_threads_reaped(baseline: int) -> None:
    deadline = time.monotonic() + 5.0
    while threading.active_count() > baseline and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= baseline


def test_leftover_tasks_unwind_one_at_a_time_in_spawn_order():
    baseline = threading.active_count()
    rt = VirtualRuntime()
    in_cleanup = [0]
    seen = []

    def parked(i, ch):
        try:
            ch.get()
        finally:
            in_cleanup[0] += 1
            time.sleep(0.005)  # host time: lets a concurrent unwind show
            seen.append((i, in_cleanup[0]))
            in_cleanup[0] -= 1

    def main():
        ch = rt.channel()
        for i in range(8):
            rt.spawn(parked, i, ch, name=f"parked{i}")
        rt.sleep(1.0)

    rt.run(main)
    assert seen == [(i, 1) for i in range(8)]
    _assert_threads_reaped(baseline)


def test_cleanup_may_spawn_during_shutdown():
    baseline = threading.active_count()
    rt = VirtualRuntime()
    late = []

    def parked(ch):
        try:
            ch.get()
        finally:
            late.append(rt.spawn(ch.get, name="late"))

    def main():
        ch = rt.channel()
        for _ in range(3):
            rt.spawn(parked, ch)
        rt.sleep(1.0)
        return "done"

    assert rt.run(main) == "done"
    assert len(late) == 3 and all(t.finished for t in late)
    assert not rt._tasks
    _assert_threads_reaped(baseline)


def test_blocking_in_root_after_deadlock_reraises():
    baseline = threading.active_count()
    rt = VirtualRuntime()
    reraised = []

    def main():
        try:
            rt.channel().get()
        finally:
            try:
                rt.sleep(1.0)
            except DeadlockError as exc:
                reraised.append((rt.now(), exc))

    with pytest.raises(DeadlockError) as info:
        rt.run(main)
    assert reraised == [(0.0, info.value)]
    _assert_threads_reaped(baseline)


def test_deadlock_found_in_task_while_root_joins():
    baseline = threading.active_count()
    rt = VirtualRuntime()
    tasks = []

    def stuck():
        rt.sleep(0.5)
        rt.channel().get()

    def main():
        tasks.append(rt.spawn(stuck))
        rt.join(tasks[0])

    with pytest.raises(DeadlockError, match="t=0.500000"):
        rt.run(main)
    assert tasks[0].finished and tasks[0].exc is None  # unwound, not failed
    _assert_threads_reaped(baseline)


def test_deadlock_found_at_task_exit():
    baseline = threading.active_count()
    rt = VirtualRuntime()

    def quick():
        rt.sleep(0.25)

    def main():
        rt.spawn(quick)
        rt.channel().get()

    with pytest.raises(DeadlockError, match="t=0.250000"):
        rt.run(main)
    _assert_threads_reaped(baseline)


def test_unjoined_crash_beats_the_deadlock_it_causes():
    baseline = threading.active_count()
    rt = VirtualRuntime()

    def main():
        ch = rt.channel()

        def producer():
            rt.sleep(0.1)
            raise ValueError("producer crashed")

        def consumer():
            ch.get()

        rt.spawn(producer)
        rt.spawn(consumer)
        ch.get()

    with pytest.raises(ValueError, match="producer crashed"):
        rt.run(main)
    _assert_threads_reaped(baseline)


# Runs in a child process under a time limit: if the runtime mishandles the
# raising callback, run() never returns.
_RAISING_CALLBACK = """
import sys, threading, time
from remfio.runtime import VirtualRuntime

baseline = threading.active_count()
rt = VirtualRuntime()

def task():
    rt.call_at(0.0, lambda: 1 / 0)
    if sys.argv[1] == "sleep":
        rt.sleep(0.5)

def main():
    rt.spawn(task)
    rt.sleep(1.0)

try:
    rt.run(main)
except ZeroDivisionError:
    print("raised at", rt.now())
deadline = time.monotonic() + 5.0
while threading.active_count() > baseline and time.monotonic() < deadline:
    time.sleep(0.01)
print("threads", threading.active_count() - baseline)
"""


@pytest.mark.parametrize("after_call_at", ["exit", "sleep"])
def test_raising_timer_callback_stops_the_run(after_call_at):
    src = str(Path(remfio.runtime.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _RAISING_CALLBACK, after_call_at],
        capture_output=True, text=True, timeout=30, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["raised at 0.0", "threads 0"]


def _token_ring_trace(seed: int) -> list:
    rt = VirtualRuntime()
    trace = []
    n = 5

    def main():
        chans = [rt.channel() for _ in range(n)]

        def worker(i):
            rng = random.Random(seed * 1000 + i)
            for round_no in range(8):
                rt.sleep(rng.random() * 0.01)
                chans[(i + 1) % n].put((i, round_no))
                got = chans[i].get()
                trace.append((round(rt.now(), 12), i, got))

        tasks = [rt.spawn(worker, i) for i in range(n)]
        for t in tasks:
            rt.join(t)

    rt.run(main)
    return trace


def test_identical_seeds_give_identical_schedules():
    t1 = _token_ring_trace(1234)
    t2 = _token_ring_trace(1234)
    assert t1 == t2
    assert len(t1) == 40
    assert _token_ring_trace(99) != t1


# -- carrier lifetime ------------------------------------------------------------


def test_a_carrier_ends_with_its_task():
    # ten parked tasks stay unfinished while ten waves of ten short tasks
    # run: once the waves are joined, only the parked tasks' carriers live
    baseline = threading.active_count()
    rt = VirtualRuntime()
    live = []

    def main():
        ch = rt.channel()
        parked = [rt.spawn(ch.get, name=f"parked{i}") for i in range(10)]
        for _ in range(10):
            wave = [rt.spawn(rt.sleep, 0.01) for _ in range(10)]
            for t in wave:
                rt.join(t)
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > baseline + 10
               and time.monotonic() < deadline):
            time.sleep(0.01)
        live.append(threading.active_count() - baseline)
        for _ in parked:
            ch.put(None)
        for t in parked:
            rt.join(t)

    rt.run(main)
    assert live == [10]
    _assert_threads_reaped(baseline)


def _spawned_after_a_finish(rt, fn):
    """Spawn fn after another task has finished, while a parked task keeps
    one task unfinished."""
    ch = rt.channel()
    rt.spawn(ch.get, name="parked")
    rt.join(rt.spawn(rt.sleep, 0.01))
    return rt.spawn(fn)


def test_crash_on_a_reused_carrier_surfaces_at_join():
    rt = VirtualRuntime()

    def boom():
        rt.sleep(0.1)
        raise ValueError("crash after a finished task")

    def main():
        rt.join(_spawned_after_a_finish(rt, boom))

    with pytest.raises(ValueError, match="crash after a finished task"):
        rt.run(main)


def test_unjoined_crash_on_a_reused_carrier_beats_the_deadlock():
    baseline = threading.active_count()
    rt = VirtualRuntime()

    def main():
        ch = rt.channel()

        def producer():
            rt.sleep(0.1)
            raise ValueError("producer crashed")

        _spawned_after_a_finish(rt, producer)
        rt.spawn(ch.get, name="consumer")
        ch.get()

    with pytest.raises(ValueError, match="producer crashed"):
        rt.run(main)
    _assert_threads_reaped(baseline)


def test_carriers_hand_over_under_a_short_switch_interval():
    # the interpreter switches threads every microsecond while carriers
    # start, hand over and end: every task still runs once, and the run
    # completes within its time limit
    baseline = threading.active_count()
    rt = VirtualRuntime()
    ran = []

    def leaf(i):
        rt.sleep((i % 7) * 1e-3)
        ran.append(i)
        return i

    def branch(i):
        kids = [rt.spawn(leaf, i * 10 + k) for k in range(5)]
        return sum(rt.join(k) for k in kids)

    def main():
        ch = rt.channel()
        parked = rt.spawn(ch.get, name="parked")
        totals = []
        for wave in range(10):
            tasks = [rt.spawn(branch, wave * 8 + j) for j in range(8)]
            totals += [rt.join(t) for t in tasks]
        ch.put(None)
        rt.join(parked)
        return totals

    result = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: result.append(rt.run(main)),
                                  daemon=True)
        runner.start()
        runner.join(timeout=60.0)
    finally:
        sys.setswitchinterval(old)
    assert not runner.is_alive()
    assert result == [[sum(i * 10 + k for k in range(5)) for i in range(80)]]
    assert sorted(ran) == [i * 10 + k for i in range(80) for k in range(5)]
    _assert_threads_reaped(baseline)


# -- carrier scheduling policy ---------------------------------------------------


def _sched_batch_allowed() -> bool:
    """Whether a thread here may move itself to SCHED_BATCH; probed in a
    throwaway thread, so no test thread changes its policy."""
    allowed = []

    def probe():
        try:
            os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
        except (AttributeError, OSError):
            return
        allowed.append(os.sched_getscheduler(0) == os.SCHED_BATCH)

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join()
    return allowed == [True]


def test_carriers_run_under_sched_batch():
    if not _sched_batch_allowed():
        pytest.skip("this platform lacks or refuses SCHED_BATCH")
    root_policy = os.sched_getscheduler(0)
    rt = VirtualRuntime()

    def main():
        first = rt.join(rt.spawn(os.sched_getscheduler, 0))
        second = rt.join(rt.spawn(os.sched_getscheduler, 0))
        return first, second, os.sched_getscheduler(0)

    assert rt.run(main) == (os.SCHED_BATCH, os.SCHED_BATCH, root_policy)
    assert os.sched_getscheduler(0) == root_policy


def _mixed_schedule():
    """(result, [(virtual time, task name)], policies the tasks ran under)
    of producers sharing a rate limiter and feeding a bounded channel."""
    rt = VirtualRuntime()
    events = []
    policies = set()

    def note():
        events.append((rt.now(), rt._current.name))
        if hasattr(os, "sched_getscheduler"):
            policies.add(os.sched_getscheduler(0))

    def main():
        ch = rt.channel(capacity=2)
        link = rt.rate_limiter(1000.0)

        def producer(i):
            for k in range(4):
                link.acquire(i, 100 + 50 * i)
                note()
                ch.put((i, k))

        def consumer():
            got = []
            for _ in range(12):
                got.append(ch.get())
                note()
                rt.sleep(0.01)
            return got

        producers = [rt.spawn(producer, i, name=f"producer{i}")
                     for i in range(3)]
        consumer_task = rt.spawn(consumer, name="consumer")
        for t in producers:
            rt.join(t)
        return rt.join(consumer_task)

    return rt.run(main), events, policies


@pytest.mark.parametrize("fallback", ["refused", "missing"])
def test_schedule_is_the_same_without_sched_batch(monkeypatch, fallback):
    result, events, _ = _mixed_schedule()
    assert len(events) == 24
    if fallback == "refused":
        def refuse(*_args):
            raise PermissionError(1, "Operation not permitted")
        monkeypatch.setattr(os, "sched_setscheduler", refuse)
    else:
        monkeypatch.delattr(os, "sched_setscheduler", raising=False)
    root_policies = ({os.sched_getscheduler(0)}
                     if hasattr(os, "sched_getscheduler") else set())
    assert _mixed_schedule() == (result, events, root_policies)


def test_tasks_and_callbacks_waking_at_one_instant_run_in_push_order():
    # each sleeps once from t=0 and wakes at 0.5: a task's wake-up and a
    # callback's are queued alike, in the order they went to sleep
    rt = VirtualRuntime()
    order = []
    slept = set()

    def task(name):
        rt.sleep(0.5)
        order.append(name)

    def callback(name):
        def wake():
            if name in slept:
                order.append(name)
            else:
                slept.add(name)
                rt.sleep(0.5)
        return wake

    def main():
        tasks = [rt.spawn(task, "t1")]
        rt.call_at(0.0, callback("c1"))
        tasks.append(rt.spawn(task, "t2"))
        rt.call_at(0.0, callback("c2"))
        for t in tasks:
            rt.join(t)

    rt.run(main)
    assert order == ["t1", "c1", "t2", "c2"]


# -- callbacks that wait -------------------------------------------------------


def test_a_callback_that_sleeps_or_acquires_is_called_again_at_its_wake():
    rt = VirtualRuntime()
    calls = []

    def main():
        lim = rt.rate_limiter(100.0)

        def callback():
            calls.append(rt.now())
            if len(calls) == 1:
                rt.sleep(0.5)
            elif len(calls) == 2:
                lim.acquire("k", 50)
            elif len(calls) == 3:
                lim.acquire("k", 0)  # no bytes: no wait, no call

        rt.call_at(1.0, callback)
        rt.sleep(5.0)

    rt.run(main)
    assert calls == [1.0, 1.5, 2.0]


def _grant_log(callback: bool) -> list:
    """(waiter, time) at each grant's end: x asks for 100 bytes three times
    in a row, as a callback or a task, and y for 300 once."""
    rt = VirtualRuntime()
    log = []

    def main():
        lim = rt.rate_limiter(100.0)

        def task(name, nbytes, times):
            for _ in range(times):
                lim.acquire(name, nbytes)
                log.append((name, rt.now()))

        asked = []

        def x():
            if asked:
                log.append(("x", rt.now()))
            if len(asked) < 3:
                asked.append(None)
                lim.acquire("x", 100)

        if callback:
            rt.call_at(0.0, x)
        else:
            rt.spawn(task, "x", 100, 3)
        rt.spawn(task, "y", 300, 1)
        rt.sleep(10.0)

    rt.run(main)
    return log


def test_a_callbacks_grant_ends_by_calling_it_before_the_next_pick():
    # x asks again at once at each grant's end, so it competes for the next
    # pick: its tags 200 and 300 against y's 300 (which arrived first), as
    # for a task; a pick before the waiter ran would grant y at t=1
    assert _grant_log(callback=True) == _grant_log(callback=False) == [
        ("x", 1.0), ("x", 2.0), ("y", 5.0), ("x", 6.0)]


def test_no_entry_goes_on_the_heap_before_the_position_that_pushes_it(
        tmp_path, monkeypatch):
    # _handoff sets the clock to each entry's time as it pops it, so a push
    # may not lie in the past, and an armed window or credit return, whose
    # seq was drawn earlier, must lie after the position that arms it.
    # Checked in one small round of each simbench workload and in a run of
    # every mode on the zero profile, where same-instant ties are densest.
    from remfio.bench import ReadMode, Skip, WorkloadSpec, run_benchmark
    push, arm = VirtualRuntime._push, VirtualRuntime._arm
    seen = {"push": 0, "arm": 0}
    early = []

    def checked_push(rt, t, entry):
        seen["push"] += 1
        if not t >= rt._now:
            early.append(("push", t, rt._now, entry))
        push(rt, t, entry)

    def checked_arm(rt, t, seq, entry):
        seen["arm"] += 1
        if not (t, seq) > (rt._now, rt._at):
            early.append(("arm", (t, seq), (rt._now, rt._at), entry))
        arm(rt, t, seq, entry)

    monkeypatch.setattr(VirtualRuntime, "_push", checked_push)
    monkeypatch.setattr(VirtualRuntime, "_arm", checked_arm)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "simbench"))
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    import workloads
    for name, w in workloads.SMALL.items():
        workloads.seed_fresh_pool(w, 1, tmp_path / name)
        workloads.run_round(w, 1, tmp_path / name)
    for mode in ReadMode:
        run_benchmark(WorkloadSpec(
            pattern=Skip(128 * 1024, 3), file_size=1 << 20,
            block_size=64 * 1024, mode=mode, clients=4, net_profile="zero",
            stagger_window=0.0), seed=1)
    assert seen["push"] > seen["arm"] > 0
    assert early == []


# -- the rate limiter against a reference SCFQ ---------------------------------


def _scfq(arrivals: list, rate: float) -> list:
    """(arrival, key, tag, start, end) of each grant, in grant order, of the
    self-clocked fair queue that VirtualRateLimiter's docstring states:
    requests (time, key, n), in arrival order, are each tagged max(V, the
    key's last queued tag) + n; the smallest tag goes next, ties in arrival
    order; V is the tag last granted; a grant takes n / rate; and a pick at
    t sees every request that arrived by t."""
    heap, last, vtime, t, i, grants = [], {}, 0, 0.0, 0, []
    while i < len(arrivals) or heap:
        if not heap:
            t = max(t, arrivals[i][0])
        while i < len(arrivals) and arrivals[i][0] <= t:
            _, key, n = arrivals[i]
            tag = max(vtime, last.get(key, vtime)) + n
            last[key] = tag
            heapq.heappush(heap, (tag, i, key, n))
            i += 1
        tag, arrival, key, n = heapq.heappop(heap)
        vtime = tag
        if last[key] == tag:
            del last[key]
        grants.append((arrival, key, tag, t, t + n / rate))
        t += n / rate
    return grants


_SIZES = st.one_of(st.sampled_from((1, 1500, 64 * 1024, 256 * 1024)),
                   st.integers(1, 256 * 1024))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 5), _SIZES,
                          st.booleans()), min_size=1, max_size=12),
       st.sampled_from((1e8, 1e9, float("inf"))))
def test_the_limiter_grants_as_a_reference_scfq_does(requests, rate):
    # each request (instant in 1/4 ms, key, bytes, by a task?) has a waiter
    # of its own: a task that sleeps until then, or a callback timed then.
    # Bursts at one instant and requests that arrive during a grant queue
    # behind the one-request slot; every grant's tag, start and end must be
    # the reference's for the arrivals as they came.
    rt = VirtualRuntime()
    lim = rt.rate_limiter(rate)
    arrived, pending, grants, lone_states = [], {}, [], []
    push = rt._push

    def logged_push(t, entry):
        waiter = lim._granted if entry is lim._end_grant else entry
        if waiter in pending:  # the pick: V is now the grant's tag
            i = pending.pop(waiter)
            grants.append((i, requests[i][1], lim._vtime, rt.now(), t))
        push(t, entry)

    def ask(i):
        _, key, nbytes, _ = requests[i]
        alone = not pending
        pending[rt._current] = i
        arrived.append((rt.now(), key, nbytes, i))
        lim.acquire(key, nbytes)
        if alone and rt._current.__class__ is not remfio.runtime.Task:
            # a request that finds nothing queued stays off the tag heap, so
            # a key asking one request at a time leaves no entry there
            lone_states.append((list(lim._requests), dict(lim._last_tag)))

    def task(i):
        if requests[i][0]:
            rt.sleep(requests[i][0] / 4000)
        ask(i)

    def callback(i):
        asked = []

        def waiter():
            if not asked:
                asked.append(i)
                ask(i)
        return waiter

    def main():
        rt._push = logged_push
        tasks = []
        for i, (instant, _, _, by_task) in enumerate(requests):
            if by_task:
                tasks.append(rt.spawn(task, i))
            else:
                rt.call_at(instant / 4000, callback(i))
        for t in tasks:
            rt.join(t)
        rt.sleep(1.0)  # past every grant's end

    rt.run(main)
    want = _scfq([a[:3] for a in arrived], rate)
    assert grants == [(arrived[a][3], *rest) for a, *rest in want]
    assert all(s == ([], {}) for s in lone_states)
    assert (lim._lone, lim._requests, lim._last_tag, lim._busy) == (
        None, [], {}, False)
