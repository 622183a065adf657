"""Every walkthrough in demos/ runs to completion against the package, and
README's Layout names every module of it."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_readme_layout_names_every_module():
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1]
    layout = layout.split("\n## ", 1)[0]
    named = set(re.findall(r"`src/remfio/(\w+\.py)`", layout))
    on_disk = {p.name for p in (ROOT / "src" / "remfio").glob("*.py")}
    assert named == on_disk - {"__init__.py"}
