"""The benchmark's traced runs wrap the functions of the modules in
sys.modules after `import algdigits.cli`.  The layers load lazily, so
this checks that the wrappers still see every layer a query runs: a
span that reads 0 calls would blind the per-layer metrics."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, spans", [
    (["is-ns", "--poly", "x^2+2x+2"],
     ["cli.main", "base.make_base", "roots.certify",
      "digits.periodic_points", "jsonio.canonical_dumps"]),
    (["count", "--poly", "x^2-x-1", "--height", "1", "--length", "4"],
     ["cli.main", "base.make_base", "roots.certify", "zero_automaton.build",
      "zero_automaton.trim", "zero_automaton.count_words",
      "zero_automaton.growth_rate"]),
])
def test_traced_run_keeps_every_span(tmp_path, argv, spans):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans_file = tmp_path / "spans.json"
    traced = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced.py"), str(spans_file),
         "--"] + argv, capture_output=True, text=True, env=env, timeout=120)
    plain = subprocess.run(
        [sys.executable, "-m", "algdigits.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=120)
    assert traced.returncode == plain.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    calls = {name: entry["calls"]
             for name, entry in json.loads(spans_file.read_text())
             ["spans"].items()}
    assert all(calls.get(name, 0) >= 1 for name in spans), calls
