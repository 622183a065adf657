"""tools/uncovered.py: the lines of src/remfio that a traced run never ran."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "remfio"


def _line_of(module: str, text: str) -> int:
    """The number of the one line of the module that holds text."""
    lines = (PACKAGE / module).read_text(encoding="utf-8").splitlines()
    found = [n for n, line in enumerate(lines, 1) if text in line]
    assert len(found) == 1, (module, text, found)
    return found[0]


def _listed(output: str) -> dict[str, set[int]]:
    """The lines each module's report line lists as never run, checked
    against the count that the line gives."""
    listed = {}
    for line in output.splitlines():
        head, sep, spans = line.partition(" lines never ran: ")
        if not sep:
            continue
        lines = set()
        for span in spans.split(", ") if spans != "none" else ():
            lo, _, hi = span.partition("-")
            lines.update(range(int(lo), int(hi or lo) + 1))
        module, _, counts = head.partition(": ")
        assert len(lines) == int(counts.split(" of ")[0]), line
        listed[Path(module).name] = lines
    return listed


def test_the_tool_lists_what_a_test_file_never_runs():
    # a client that hangs up on the headnode before its request: the
    # headnode's end closes, and no frame is ever encoded or decoded, as the
    # emulator hands message objects across
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "uncovered.py"), "-q",
         "-p", "no:cacheprovider", "tests/test_headnode.py",
         "-k", "hangs_up_without_a_request"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    listed = _listed(proc.stdout)
    assert set(listed) == {path.name for path in PACKAGE.glob("*.py")}
    ran = _line_of("headnode.py", "conn.close()  # the client hung up first")
    assert ran not in listed["headnode.py"]
    assert _line_of("wire.py", "view = memoryview(buf)") in listed["wire.py"]
    assert "failed tests: 0" in proc.stdout.splitlines()
