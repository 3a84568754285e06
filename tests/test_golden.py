"""Golden bytes of the command line: for a fixed corpus of argv lists,
the exit code and the SHA-256 of stdout and stderr, as stored in
golden_cli.json.  The manifest's "python" value is masked before
hashing, so the digests do not depend on the interpreter's version, and
COLUMNS is fixed at 80, so argparse wraps --help text the same way on
any terminal.

    PYTHONPATH=src python tests/test_golden.py

recomputes the digests of every corpus entry in place; a change that
alters an output byte shows up as a diff of that file.
"""

import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path
from unittest import mock

import pytest

from algdigits.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
_PYTHON = re.compile(r'"python": "[^"]*"')


def _sha(text: str) -> str:
    return hashlib.sha256(_PYTHON.sub('"python": "*"', text)
                          .encode()).hexdigest()


def digest(argv: list) -> dict:
    """The golden entry of one argv list, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --version, --help
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": _sha(out.getvalue()),
            "stderr": _sha(err.getvalue())}


def _entries() -> list:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("entry", _entries(),
                         ids=lambda entry: " ".join(entry["argv"]) or "<none>")
def test_output_bytes_match_the_golden_digest(entry):
    assert digest(entry["argv"]) == entry


def test_corpus_covers_every_subcommand_and_exit_code():
    entries = _entries()
    commands = {e["argv"][0] for e in entries if e["argv"]}
    assert {"analyze", "classify", "expand", "periodic", "is-ns", "rational",
            "zero-automaton", "min-height", "count",
            "sweep-quadratic"} <= commands
    assert {e["exit"] for e in entries} == {0, 2, 3}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([digest(e["argv"]) for e in _entries()],
                                 indent=1) + "\n")
