"""CLI tests: argument plumbing, outputs on disk, exit codes."""

from __future__ import annotations

import argparse
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from remfio.bench import WorkloadSpec
from remfio.cli import _spec_from, build_parser, main

ROOT = Path(__file__).resolve().parents[1]

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


def test_run_without_spec_flags_builds_the_default_spec():
    args = build_parser().parse_args(["run"])
    assert _spec_from(args) == WorkloadSpec()


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


def test_seed_then_run_reuses_pool(tmp_path):
    argv = ["run", "--clients", "2", "--file-size", str(128 * KiB),
            "--block-size", str(64 * KiB), "--seed", "5",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    pool = tmp_path / "out" / "pool"
    dats = sorted(p.name for p in pool.iterdir() if p.suffix == ".dat")
    assert len(dats) == 2

    assert main(argv) == 0
    after = sorted(p.name for p in pool.iterdir() if p.suffix == ".dat")
    assert after == dats  # the second run found the seeded files, added none


@pytest.mark.parametrize("argv", [
    ["seed", "--count", "1", "--file-size", "1024"],
    ["run", "--paper-fidelity"],
    ["sweep", "--axis", "mode", "--values", "normal", "--paper-fidelity"],
], ids=["seed", "run-paper-fidelity", "sweep-paper-fidelity"])
def test_retired_arguments_exit_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_entry_point_resolves_and_offers_run_and_sweep():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["bench"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == ["run", "sweep"]


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
        [sys.executable, "-m", "remfio.cli", "run", "--file-size", "4096",
         "--block-size", "4096", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "aggregate=" in proc.stdout
    assert (tmp_path / "out" / "clients.csv").exists()


def test_a_run_needs_no_numpy(tmp_path):
    # numpy is only the tests' oracle: a run with it blocked still works
    code = ("import runpy, sys; sys.modules['numpy'] = None; "
            "runpy.run_module('remfio.cli', run_name='__main__', "
            "alter_sys=True)")
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", "--file-size", "4096",
         "--block-size", "4096", "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "clients.csv").exists()


def test_importing_remfio_imports_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, remfio; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
