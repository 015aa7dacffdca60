"""Golden CLI corpus: every recorded call gives the recorded exit code and stdout.

tests/data/cli_corpus.json holds (args, exit, stdout) triples for in-process
`cli.main` calls covering every subcommand but `selftest`, the S, O and GL
flavors (Sp where the command accepts it) and exit-1 and exit-2 paths.  A
refactor that changes any byte of any output fails here.
"""

import json
from pathlib import Path

import pytest

from interpcat.cli import build_parser, main

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_corpus.json").read_text())


@pytest.mark.parametrize(
    "record", CORPUS, ids=[f"{i:02d}-{rec['args'][0]}" for i, rec in enumerate(CORPUS)]
)
def test_replay(capsys, record):
    code = main(record["args"])
    assert (code, capsys.readouterr().out) == (record["exit"], record["stdout"])


def test_corpus_covers_every_subcommand_but_selftest():
    (subcommands,) = [a.choices for a in build_parser()._actions if isinstance(a.choices, dict)]
    assert set(subcommands) - {"selftest"} <= {rec["args"][0] for rec in CORPUS}
    assert {0, 1, 2} <= {rec["exit"] for rec in CORPUS}
