"""Golden bytes of the command line: for a fixed corpus of argv lists,
the exit code and the SHA-256 of stdout and stderr, as stored in
golden_cli.json.  The manifest's "python" value is masked before
hashing, so the digests do not depend on the interpreter's version, and
COLUMNS is fixed at 80, so argparse wraps --help text the same way on
any terminal.

    PYTHONPATH=src python tests/test_golden.py

recomputes the digests of every corpus entry in place; a change that
alters an output byte shows up as a diff of that file.  A slice of the
corpus also runs as `python -m algdigits.cli` subprocesses, whose
process entry flushes the output and ends with os._exit.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from algdigits.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
_PYTHON = re.compile(r'"python": "[^"]*"')


def _sha(text: str) -> str:
    return hashlib.sha256(_PYTHON.sub('"python": "*"', text)
                          .encode()).hexdigest()


def _in_process(argv: list) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, COLUMNS="80"):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # --version, --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _subprocess(argv: list) -> tuple[int, str, str]:
    """argv run as `python -m algdigits.cli`, its stdout a buffered pipe:
    PYTHONUNBUFFERED is left out of the child's environment."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.run([sys.executable, "-m", "algdigits.cli", *argv],
                          capture_output=True, env=dict(env, COLUMNS="80"),
                          timeout=120)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def digest(argv: list, run=_in_process) -> dict:
    """The golden entry of one argv list, run in-process by default."""
    code, out, err = run(argv)
    return {"argv": argv, "exit": code, "stdout": _sha(out),
            "stderr": _sha(err)}


def _entries() -> list:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("entry", _entries(),
                         ids=lambda entry: " ".join(entry["argv"]) or "<none>")
def test_output_bytes_match_the_golden_digest(entry):
    assert digest(entry["argv"]) == entry


def _slice() -> list:
    """--version, --help, the first entry of each subcommand that exits 0,
    and the first entries that exit 2 and 3."""
    picked: dict = {}
    for entry in _entries():
        picked.setdefault(entry["argv"][0] if entry["exit"] == 0
                          else entry["exit"], entry)
    return list(picked.values())


@pytest.mark.parametrize("entry", _slice(),
                         ids=lambda entry: " ".join(entry["argv"]) or "<none>")
def test_subprocess_matches_the_golden_digest(entry):
    assert digest(entry["argv"], _subprocess) == entry


def test_subprocess_slice_covers_every_subcommand_and_exit_code():
    entries = _slice()
    assert sorted(e["exit"] for e in entries) == [0] * 12 + [2, 3]
    assert {"--version", "--help"} <= {e["argv"][0] for e in entries
                                       if e["exit"] == 0}


def test_long_stdout_is_flushed_whole():
    # 10 MB of truncated orbit, far past any pipe or stdio buffer.
    argv = ["expand", "--poly", "x^3-x-1", "--value", "5"]
    code, out, err = _subprocess(argv)
    assert (code, err) == (0, "") and len(out) > 10**7
    assert out == _in_process(argv)[1]


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
