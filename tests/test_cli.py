"""CLI tests: argument plumbing, outputs on disk, exit codes."""

from __future__ import annotations

import shutil
import subprocess
import sys

import pytest

from remfio.cli import main

KiB = 1024


def test_run_writes_csv_and_reports(tmp_path, capsys):
    rc = main(["run", "--mode", "readbuf", "--clients", "2",
               "--file-size", str(256 * KiB), "--block-size", str(64 * KiB),
               "--stagger", "0.1", "--seed", "3",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "readbuf" in out and "aggregate=" in out
    assert (tmp_path / "out" / "clients.csv").exists()
    assert (tmp_path / "out" / "aggregate.csv").exists()
    lines = (tmp_path / "out" / "clients.csv").read_text().splitlines()
    assert len(lines) == 3


def test_run_skip_pattern_and_fidelity_conflict(tmp_path, capsys):
    rc = main(["run", "--mode", "stream", "--pattern", "skip:65536:9",
               "--file-size", str(256 * KiB), "--block-size", str(64 * KiB),
               "--paper-fidelity", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_rejects_unknown_mode(tmp_path, capsys):
    rc = main(["run", "--mode", "warp", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "warp" in capsys.readouterr().err


def test_run_rejects_unknown_profile(tmp_path, capsys):
    rc = main(["run", "--net-profile", "marsnet",
               "--file-size", str(64 * KiB), "--block-size", str(64 * KiB),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "marsnet" in capsys.readouterr().err


def test_sweep_over_modes(tmp_path, capsys):
    rc = main(["sweep", "--axis", "mode", "--values", "normal,stream",
               "--file-size", str(256 * KiB), "--block-size", str(64 * KiB),
               "--clients", "2", "--stagger", "0.1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mode=ReadMode.NORMAL" in out or "mode=normal" in out.lower()
    agg = (tmp_path / "out" / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 3


def test_sweep_requires_axis(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--values", "1,2"])


def test_seed_then_run_reuses_pool(tmp_path, capsys):
    rc = main(["seed", "--count", "2", "--file-size", str(128 * KiB),
               "--seed", "5", "--out", str(tmp_path / "out")])
    assert rc == 0
    first = capsys.readouterr().out
    assert "2 files" in first
    pool = tmp_path / "out" / "pool"
    dats = sorted(p.name for p in pool.iterdir() if p.suffix == ".dat")
    assert len(dats) == 2

    rc = main(["run", "--clients", "2", "--file-size", str(128 * KiB),
               "--block-size", str(64 * KiB), "--seed", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    after = sorted(p.name for p in pool.iterdir() if p.suffix == ".dat")
    assert after == dats  # run found the seeded files and added none


def test_seed_count_zero(tmp_path, capsys):
    rc = main(["seed", "--count", "0", "--file-size", "1024",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "0 files" in capsys.readouterr().out


def test_console_script_installed():
    exe = shutil.which("bench")
    if exe is None:
        pytest.skip("package not installed with scripts on PATH")
    proc = subprocess.run([exe, "--help"], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "remfio.cli", "seed", "--count", "1",
         "--file-size", "4096", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "1 files" in proc.stdout
