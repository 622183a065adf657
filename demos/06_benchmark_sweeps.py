"""
Contended clients, sweeps, and CSV output
=========================================

The benchmark harness seeds a pool of files, launches N concurrent
clients with staggered starts, and aggregates their per-client counters.
Sweeping one axis (client count, mode, buffer size, window) while holding
the rest produces the curves the system is designed to study; everything
is virtual-time and seeded, so a run is exactly reproducible.
"""

import tempfile
from pathlib import Path

from remfio.bench import (
    Sequential,
    Skip,
    WorkloadSpec,
    emit_csv,
    run_benchmark,
    run_sweep,
)
from remfio.wire import ReadMode

KiB = 1024
MiB = 1024 * 1024

# Eight clients streaming 16 MiB files over the contended wide-area
# profile. The aggregate rate is the sum of per-client rates, where each
# client's rate charges both its open time and its read time.
spec = WorkloadSpec(pattern=Sequential(), file_size=16 * MiB,
                    block_size=256 * KiB, mode=ReadMode.STREAM, clients=8,
                    net_profile="wan")
summary = run_benchmark(spec, seed=42)
print(f"{spec.clients} STREAM clients: aggregate "
      f"{summary.aggregate_rate / MiB:.1f} MiB/s, "
      f"mean open {summary.mean_open_time * 1000:.0f} ms")
for r in summary.records:
    print(f"  client {r.client_id}: rate {r.rate / MiB:6.2f} MiB/s "
          f"open {r.open_time:.3f}s waste {r.waste}B")

# Now sweep the mode axis on a skip-read workload. One call runs the four
# single-axis experiments on the same seeded files.
skip = WorkloadSpec(pattern=Skip(1 * MiB, 9), file_size=32 * MiB,
                    block_size=1 * MiB, clients=8, net_profile="wan")
series = run_sweep(skip, "mode", list(ReadMode), seed=42)
print("\nskip-read scan, 8 clients:")
for s in series:
    print(f"  {s.spec.mode.name:10s} aggregate {s.aggregate_rate / MiB:7.2f} "
          f"MiB/s, waste {s.total_waste / MiB:7.1f} MiB")

# emit_csv writes one per-client file per sweep point plus a combined
# aggregate table, ready for plotting.
with tempfile.TemporaryDirectory() as out:
    paths = emit_csv(series, Path(out))
    print("\nCSV files written:")
    for p in paths:
        print(" ", p.name)
    agg = (Path(out) / "aggregate.csv").read_text().splitlines()
    print("\naggregate.csv:")
    for line in agg:
        print(" ", line[:100])
