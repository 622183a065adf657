"""Fast self-test of the benchmark: python3 simbench/selftest.py

Runs the shrunken variants of the three workloads (workloads.SMALL) through
the same round runner and checks the benchmark itself uses, and shows that
the checks are not vacuous: each is fed one corrupted input and must fail.
For the single-mode workloads it also checks that run_round emits the same
CSVs as remfio.bench.run_benchmark for the same seed. Exits 0 when every
case passes.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
import tempfile
import traceback
from pathlib import Path

import run

SEED = 5


def _pool(w, root: Path):
    from workloads import seed_fresh_pool
    pool_dir = root / "pool"
    return pool_dir, seed_fresh_pool(w, SEED, pool_dir)


def _checked(w, root: Path):
    import checks
    from workloads import run_round
    pool_dir, pool = _pool(w, root)
    exp = checks.expected_outputs(w, pool)
    rnd = run_round(w, SEED, pool_dir, digest=True, watch_threads=True)
    return pool_dir, pool, exp, rnd


def _expect_clean(fails, what):
    if fails:
        raise AssertionError(f"{what}: " + "; ".join(fails))


def _expect_caught(fails, what):
    if not fails:
        raise AssertionError(f"{what}: the corrupted input passed the check")


def case_workload(name: str, root: Path) -> None:
    """The shrunken workload passes every check and repeats exactly."""
    import checks
    from workloads import SMALL, csv_digest, run_round
    w = SMALL[name]
    pool_dir, _pool_, exp, rnd = _checked(w, root)
    _expect_clean(checks.output_checks(rnd, exp), f"{name} output")
    _expect_clean(checks.model_checks(w, rnd), f"{name} model")
    if rnd.peak_threads < 2:
        raise AssertionError(f"{name}: peak thread count {rnd.peak_threads}")
    first = csv_digest(w, rnd, root / "a")
    second = csv_digest(w, run_round(w, SEED, pool_dir), root / "b")
    if first != second:
        raise AssertionError(f"{name}: same seed, different CSV digests")


def case_matches_run_benchmark(name: str, root: Path) -> None:
    """For one read mode run_round is run_benchmark: identical CSVs."""
    import remfio
    import remfio.bench
    from workloads import (SMALL, csv_digest, files_digest, program_seed,
                           run_round)
    w = SMALL[name]
    pool_dir, _ = _pool(w, root)
    ours = csv_digest(w, run_round(w, SEED, pool_dir), root / "ours")
    summary = remfio.run_benchmark(w.spec(), seed=program_seed(SEED),
                                   pool_dir=pool_dir)
    theirs = files_digest(remfio.bench.emit_csv(summary, root / "theirs"))
    if ours != theirs:
        raise AssertionError(f"{name}: run_round CSV {ours[:16]} != "
                             f"run_benchmark CSV {theirs[:16]}")


def case_tracing_is_transparent(root: Path) -> None:
    """A traced round emits the untraced round's CSVs and sees every call."""
    from tracing import Tracer
    from workloads import SMALL, csv_digest, run_round
    w = SMALL["skip-mixed-32"]
    pool_dir, _ = _pool(w, root)
    plain = csv_digest(w, run_round(w, SEED, pool_dir), root / "plain")
    tracer = Tracer()
    with tracer.installed():
        traced = run_round(w, SEED, pool_dir)
    if csv_digest(w, traced, root / "traced") != plain:
        raise AssertionError("tracing changed the emitted CSVs")
    opens = tracer.calls("client.rf_open")
    if opens != w.clients or not tracer.grants["netemu"] \
            or not tracer.grants["diskserver"]:
        raise AssertionError(f"traced {opens} opens, grants "
                             f"{dict(tracer.grants)}")
    import remfio.client
    import remfio.runtime
    if any(hasattr(f, "__wrapped__") for f in (
            remfio.client.rf_read, remfio.runtime.VirtualRuntime.sleep)):
        raise AssertionError("entry points still wrapped after tracing")


def case_checks_catch_corruption(root: Path) -> None:
    """Each output check fails when fed one wrong value."""
    import hashlib

    import checks
    import remfio
    from workloads import PROFILE, SMALL, run_round
    w = SMALL["skip-mixed-32"]
    pool_dir, pool, exp, rnd = _checked(w, root)

    # One corrupted byte in what client 0 read changes its sha256.
    flipped = dataclasses.replace(rnd, read_digests=list(rnd.read_digests))
    data = bytearray(pool.locations[pool.entries[0].path].read_bytes())
    data[w.reads()[0][0]] ^= 0x01
    h = hashlib.sha256()
    for off, n in w.reads():
        h.update(bytes(data[off:off + n]))
    flipped.read_digests[0] = h.hexdigest()
    _expect_caught(checks.output_checks(flipped, exp), "one flipped byte")

    # A wrong registered checksum.
    path, actual, registered = exp.pool_checksums[0]
    bad = dataclasses.replace(exp, pool_checksums=[(path, actual,
                                                    registered ^ 1)])
    _expect_caught(checks.output_checks(rnd, bad), "wrong pool checksum")

    def with_record(i, **change):
        records = list(rnd.records)
        records[i] = dataclasses.replace(records[i], **change)
        return dataclasses.replace(rnd, records=records)

    r0 = rnd.records[0]  # NORMAL in the round robin
    _expect_caught(checks.output_checks(
        with_record(0, bytes_consumed=r0.bytes_consumed - 1), exp),
        "short consumption")
    _expect_caught(checks.output_checks(
        with_record(0, bytes_wire=r0.bytes_wire + 1), exp),
        "NORMAL wire above consumed")
    r3 = rnd.records[3]  # STREAM
    _expect_caught(checks.output_checks(
        with_record(3, bytes_wire=r3.bytes_consumed - 1), exp),
        "push wire below consumed")
    _expect_caught(checks.output_checks(with_record(1, open_error=True), exp),
                   "failed open")

    # Model properties: an open faster than the queue allows, a stream
    # above its window cap, a wire carrying more than the link.
    _expect_caught(checks.model_checks(w, with_record(1, open_time=0.0)),
                   "open faster than the broker")
    lone = SMALL["stream-window64k"]
    stream = run_round(lone, SEED, _pool(lone, root / "lone")[0])
    _expect_clean(checks.model_checks(lone, stream), "window cap")
    fast = dataclasses.replace(stream.records[0],
                               read_time=stream.records[0].read_time / 2)
    _expect_caught(checks.model_checks(
        lone, dataclasses.replace(stream, records=[fast])), "window cap x2")
    bulk = SMALL["seq-stream-16"]
    many = run_round(bulk, SEED, _pool(bulk, root / "bulk")[0])
    _expect_clean(checks.model_checks(bulk, many), "conservation")
    payload = sum(r.bytes_wire for r in many.records)
    end = min(many.opened) + payload / (2 * min(
        remfio.DiskModel().sequential_bandwidth,
        remfio.builtin_profiles()[PROFILE].shared_bandwidth))
    squeezed = dataclasses.replace(many, closed=[end] * len(many.closed))
    _expect_caught(checks.model_checks(bulk, squeezed),
                   "twice the bytes the link and disk can carry")


def main() -> int:
    from workloads import SMALL
    cases = [(f"{name} passes its checks", case_workload, (name,))
             for name in SMALL]
    cases += [(f"{name} matches run_benchmark", case_matches_run_benchmark,
               (name,)) for name in ("seq-stream-16", "stream-window64k")]
    cases.append(("tracing leaves outputs unchanged",
                  case_tracing_is_transparent, ()))
    cases.append(("checks catch corrupted inputs",
                  case_checks_catch_corruption, ()))
    failed = 0
    for label, fn, args in cases:
        root = Path(tempfile.mkdtemp(prefix="selftest-", dir=_work_dir()))
        try:
            fn(*args, root)
            print(f"ok    {label}", flush=True)
        except Exception:
            failed += 1
            print(f"FAIL  {label}\n{traceback.format_exc()}", flush=True)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    print(f"{len(cases) - failed} passed, {failed} failed")
    return 1 if failed else 0


def _work_dir() -> Path:
    run.WORK.mkdir(parents=True, exist_ok=True)
    return run.WORK


if __name__ == "__main__":
    run._import_program()
    sys.exit(main())
