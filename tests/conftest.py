"""Interpreters that the CLI tests start import interpcat from src/ as well.

pyproject.toml puts src/ on sys.path for the test process itself
(`pythonpath`); child processes see only the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
