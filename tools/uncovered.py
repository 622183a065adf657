"""List the lines of src/remfio that a pytest run never executes.

    python3 tools/uncovered.py [PYTEST_ARGS...]

Runs pytest in this process, on tests/ unless arguments are given, which
go to pytest as they are. A trace function, installed with sys.settrace
and threading.settrace, follows only frames whose code lies in src/remfio
and records each line they run. A module's executable lines are those that
an instruction of one of its code objects, compiled from its source, maps
to (co_lines()); its def and class lines run at import, so a function that
never ran shows as its body.

Prints, after pytest's own output, one line per module with the executable
lines that never ran, as ranges, then the totals, then the tests that
failed. Coverage is reported whatever the tests' results: tracing slows a
run about 2.5 times (tier-1 took 85 s against 35 s on a 2-CPU host), which
fails tests with a time bound, such as test_codec_bulk_roundtrip. The exit
status is 0 once pytest has run the tests, passed or failed.

What the trace cannot see:
- code run in a subprocess: the simbench self-test, the demos and the
  `bench` CLI run remfio in child processes, which are not traced;
- code run under a trace function of its own: tools/probe_round.py's
  traced round replaces this one for that round, on its thread and on the
  carrier threads it starts.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "remfio"


def executable_lines(path: Path) -> set[int]:
    """The lines that an instruction of some code object in path maps to."""
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    lines = set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as '3, 7-9, 12'."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


class LineRecorder:
    """A trace function that records, per file, the lines run by frames of
    files under one directory, and leaves every other frame untraced."""

    def __init__(self, directory: Path) -> None:
        self._prefix = f"{directory}{os.sep}"
        self.ran: defaultdict[str, set[int]] = defaultdict(set)

    def call(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self._prefix):
            return None
        add = self.ran[filename].add

        def line(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return line

        return line


class FailedTests:
    """A pytest plugin that keeps the ids of the tests, and of the
    collections, that failed."""

    def __init__(self) -> None:
        self.ids: list[str] = []

    def pytest_runtest_logreport(self, report) -> None:
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)

    def pytest_collectreport(self, report) -> None:
        if report.failed:
            self.ids.append(report.nodeid)


def report(ran: dict[str, set[int]]) -> list[str]:
    """One line per module of the package, then the totals."""
    out, missed_all, lines_all = [], 0, 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - ran.get(str(path), set()))
        missed_all += len(missed)
        lines_all += len(lines)
        out.append(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} "
                   f"lines never ran: {ranges(missed) or 'none'}")
    out.append(f"total: {lines_all - missed_all} of {lines_all} executable "
               "lines ran")
    return out


def main(argv: list[str]) -> int:
    # as the tier-1 command does, so that tests' child processes import it
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    import pytest

    recorder, failed = LineRecorder(PACKAGE), FailedTests()
    threading.settrace(recorder.call)
    sys.settrace(recorder.call)
    try:
        status = pytest.main(argv or [str(ROOT / "tests")], plugins=[failed])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        print(f"pytest did not run the tests: {status!r}", file=sys.stderr)
        return int(status)
    print("\n".join(report(recorder.ran)))
    print(f"failed tests: {len(failed.ids)}")
    for nodeid in failed.ids:
        print(f"  {nodeid}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
