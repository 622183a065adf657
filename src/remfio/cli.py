"""`bench` command line: run benchmarks, sweep parameters.

Subcommands:
  bench run    one workload, CSV output + a summary line
  bench sweep  one run per axis value, combined aggregate CSV

Outputs land in --out (default ./bench-out): the seeded pool lives in
<out>/pool and is reused across runs with the same seed and file size.
Exit status: 0 success, 1 transport failure during a run, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    MiB,
    SWEEP_AXES,
    WorkloadSpec,
    axis_label,
    emit_csv,
    parse_mode,
    parse_pattern,
    run_benchmark,
    run_sweep,
)
from .errors import TransportError


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default="normal",
                   help="normal | readbuf | readahead | stream")
    p.add_argument("--clients", type=int, default=1)
    p.add_argument("--file-size", type=int, default=16 * MiB,
                   help="bytes per seeded file")
    p.add_argument("--block-size", type=int, default=MiB,
                   help="bytes per client read call")
    p.add_argument("--iobufsize", type=int, default=131072,
                   help="client buffer size for the buffered modes")
    p.add_argument("--pattern", default="seq",
                   help="seq | skip:READBYTES:SKIPBLOCKS")
    p.add_argument("--net-profile", default="wan", help="wan | lan | zero")
    p.add_argument("--window", type=int, default=MiB,
                   help="emulated per-connection window, bytes")
    p.add_argument("--stagger", type=float, default=1.0,
                   help="client start window, seconds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="bench-out", help="output directory")
    p.add_argument("--repetitions", type=int, default=1)


def _spec_from(args) -> WorkloadSpec:
    return WorkloadSpec(
        pattern=parse_pattern(args.pattern),
        file_size=args.file_size,
        block_size=args.block_size,
        mode=parse_mode(args.mode),
        clients=args.clients,
        stagger_window=args.stagger,
        iobufsize=args.iobufsize,
        net_profile=args.net_profile,
        window=args.window,
        repetitions=args.repetitions,
    )


def _summary_line(s) -> str:
    rate = s.aggregate_rate / MiB
    return (f"{s.spec.mode.name.lower():9s} clients={s.spec.clients:<3d} "
            f"aggregate={rate:8.2f} MiB/s mean_open={s.mean_open_time:.4f} s "
            f"waste={s.total_waste} B errors={s.error_count}")


def _cmd_run(args) -> int:
    spec = _spec_from(args)
    out = Path(args.out)
    summary = run_benchmark(spec, seed=args.seed, pool_dir=out / "pool")
    paths = emit_csv(summary, out)
    print(_summary_line(summary))
    for p in paths:
        print(f"wrote {p}")
    return 0


def _parse_axis_values(axis: str, text: str) -> list:
    parts = [v.strip() for v in text.split(",") if v.strip()]
    if axis == "mode":
        return [parse_mode(v) for v in parts]
    return [int(v) for v in parts]


def _cmd_sweep(args) -> int:
    spec = _spec_from(args)
    values = _parse_axis_values(args.axis, args.values)
    out = Path(args.out)
    series = run_sweep(spec, args.axis, values, seed=args.seed,
                       pool_dir=out / "pool")
    paths = emit_csv(series, out)
    for s in series:
        print(f"{args.axis}={axis_label(s.axis_value)}: {_summary_line(s)}")
    for p in paths:
        print(f"wrote {p}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bench",
        description="remote-file-access benchmark harness")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload")
    _add_spec_args(run)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="run once per axis value")
    _add_spec_args(sweep)
    sweep.add_argument("--axis", required=True,
                       choices=SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values")
    sweep.set_defaults(func=_cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TransportError as exc:
        print(f"transport failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
