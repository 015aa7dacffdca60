"""Mutation check: each committed mutant must make the tests it names fail.

    python3 tools/mutants.py           # every mutant
    python3 tools/mutants.py --list    # names only, nothing run

A mutant is one small edit of the library: a module, a text that occurs
exactly once in it, and the text that replaces it, with the tests that must
then fail.  First the named tests run on an unmodified copy of the
repository (src, tests, pyproject.toml), where they must pass.  Then each
mutant is applied alone to a fresh copy, and its tests run there with
pytest; it is killed when pytest reports every one of them FAILED, and it
survives otherwise.  The copies live in a temporary directory (TMPDIR), never
in the working tree.  Exits 0 when every mutant is killed, and 1 when the
unmodified tests fail, a mutant's text is not found exactly once, or a
mutant survives.  Stdlib only, apart from pytest, which runs the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # path from the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail


FIXED_COUNTS = "tests/test_crosschecks.py::TestFixedCounts::test_against_the_basis"

MUTANTS = [
    Mutant(
        "S: a group of cycles weighs j^|group|, not j^(|group| - 1)",
        "src/interpcat/diagrams.py",
        "j ** (len(group) - 1)",
        "j ** len(group)",
        (f"{FIXED_COUNTS}[S]",),
    ),
    Mutant(
        "O: a cycle of odd length is matched with itself",
        "src/interpcat/diagrams.py",
        "if d % 2 == 0 or m == 2 * k",
        "if True",
        (f"{FIXED_COUNTS}[O]",),
    ),
    Mutant(
        "GL: the two color sides swapped",
        "src/interpcat/diagrams.py",
        "a = _cycle_lengths([c for c in source if c[0]], [c for c in target if not c[0]])",
        "a = _cycle_lengths([c for c in source if not c[0]], [c for c in target if c[0]])",
        (f"{FIXED_COUNTS}[GL]",),
    ),
    Mutant(
        "GL: m_d! dropped from z_rho",
        "src/interpcat/diagrams.py",
        "d**m * math.factorial(m)",
        "d**m",
        (f"{FIXED_COUNTS}[GL]",),
    ),
]


def _copy(into: Path) -> Path:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")
    return into


def _failed(tree: Path, tests) -> set[str]:
    """The node ids among tests that pytest reports FAILED in tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if run.returncode not in (0, 1):  # interrupted, a usage error or no tests
        sys.stdout.write(run.stdout + run.stderr)
        raise SystemExit(f"pytest exited {run.returncode} on {' '.join(tests)}")
    return {line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")}


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for m in MUTANTS:
            print(m.name)
        return 0
    if argv:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tests = sorted({t for m in MUTANTS for t in m.tests})
        failed = _failed(_copy(Path(tmp) / "base"), tests)
        if failed:
            print(f"the unmodified tests fail: {sorted(failed)}")
            return 1
        for i, m in enumerate(MUTANTS):
            tree = _copy(Path(tmp) / f"m{i}")
            path = tree / m.module
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: the old text occurs {text.count(m.old)} times in {m.module}")
                survivors.append(m)
                continue
            path.write_text(text.replace(m.old, m.new))
            missed = set(m.tests) - _failed(tree, m.tests)
            print(f"{'SURVIVED' if missed else 'killed'}: {m.name}")
            for t in sorted(missed):
                print(f"    passed: {t}")
            if missed:
                survivors.append(m)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
