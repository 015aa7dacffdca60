"""Every `raise` statement in src/interpcat that the tier-1 suite never runs.

    python3 tools/raise_coverage.py

Runs the tier-1 suite with pytest in this process, under a sys.settrace
line tracer that traces only the frames of src/interpcat/.  Then it prints
each `raise` that no test reached, as path:line and its source line, and
the count per module.  Tests that start a fresh interpreter (the CLI
subprocess tests) are not traced, so a raise that only they reach is
listed.  The traced suite takes about six times as long as
the untraced one.  Stdlib only, apart from pytest, which runs the suite.
Not a test itself: it reports and exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "interpcat"


def raise_lines() -> dict[str, set[int]]:
    """{real path of each module: the first lines of its raise statements}."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        out[os.path.realpath(path)] = {n.lineno for n in ast.walk(tree) if isinstance(n, ast.Raise)}
    return out


def _line_tracer(path: str, lines: set[int], reached: set):
    def local(frame, event, arg):
        if event == "line" and frame.f_lineno in lines:
            reached.add((path, frame.f_lineno))
        return local

    return local


def main() -> int:
    wanted = raise_lines()
    reached: set[tuple[str, int]] = set()
    tracers = {path: _line_tracer(path, lines, reached) for path, lines in wanted.items()}
    by_filename: dict = {}  # co_filename as the interpreter gives it -> tracer or None

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in by_filename:
            by_filename[filename] = tracers.get(os.path.realpath(filename))
        return by_filename[filename]

    import pytest

    os.chdir(ROOT)
    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)

    total = missed = 0
    for path, lines in wanted.items():
        source = Path(path).read_text().splitlines()
        never = sorted(line for line in lines if (path, line) not in reached)
        total += len(lines)
        missed += len(never)
        name = os.path.relpath(path, ROOT)
        for line in never:
            print(f"{name}:{line}: {source[line - 1].strip()}")
        if lines:
            print(f"# {name}: {len(never)} of {len(lines)} raises never ran")
    print(f"# {missed} of {total} raise statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
