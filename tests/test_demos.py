"""The four demos print what they printed when their output was recorded.

tests/data/demos/<name>.txt holds the stdout of demos/<name>.py.  A change
that alters any byte a demo prints, or makes one fail, fails here.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_recording():
    recorded = sorted(p.stem for p in (ROOT / "tests" / "data" / "demos").glob("*.txt"))
    assert [p.stem for p in DEMOS] == recorded and len(recorded) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_prints_its_recording(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / "demos" / f"{demo.stem}.txt").read_text()
