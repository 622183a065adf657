"""The benchmark's own self-test runs clean against the package.

simbench drives remfio through its public API; a change to the package that
breaks that use shows up here, not only when the benchmark is next run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_simbench_selftest_passes():
    selftest = ROOT / "simbench" / "selftest.py"
    proc = subprocess.run([sys.executable, str(selftest)], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
