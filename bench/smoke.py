"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

From the root of a checkout: runs every workload at a tiny size with
--trace 0 and --trace 1 and checks that each metric named in
BENCHMARK.json appears in the result line with a numeric value and its
unit, that the runs report correct outputs, and that the benchmark
refuses to run (nonzero exit, no result line) in a directory that holds
only BENCHMARK.json and the benchmark's files.  Exits nonzero on the
first problem.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SECONDS = "2"


def result_line(cmd: list, cwd: Path) -> dict:
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(line: dict, declared: list, where: str) -> None:
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(line)}")
    if line["correct"] is not True or line["attempted"] < 1:
        raise SystemExit(f"{where}: correct={line['correct']} "
                         f"attempted={line['attempted']}")
    names = {m["name"] for m in declared}
    if set(line["metrics"]) != names:
        raise SystemExit(f"{where}: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(line['metrics']) ^ names)}")
    for metric in declared:
        got = line["metrics"][metric["name"]]
        value = got["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value) or got["unit"] != metric["unit"]:
            raise SystemExit(f"{where}: {metric['name']} = {got}")


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if {m["name"] for m in spec["end_to_end"]} != set(run.END_TO_END) or \
            {m["name"] for m in spec["per_layer"]} != set(run.PER_LAYER):
        raise SystemExit("BENCHMARK.json and bench/run.py name different "
                         "metrics")
    for workload in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            cmd = spec["command"] + ["--workload", workload["name"],
                                     "--seed", "1", "--seconds", SECONDS,
                                     "--trace", trace]
            line = result_line(cmd, root)
            check_metrics(line, declared, f"{workload['name']} trace {trace}")
            print(f"ok  {workload['name']} --trace {trace}: "
                  f"{len(line['metrics'])} metrics, {line['attempted']} "
                  f"attempted, {line['failed']} failed")

    bare = HERE / ".work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns(".work", "results",
                                                      "__pycache__"))
        proc = subprocess.run(spec["command"] + [
            "--workload", spec["workloads"][0]["name"], "--seed", "1",
            "--seconds", SECONDS, "--trace", "0"], cwd=bare,
            capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit("benchmark ran without the program's sources")
    print("ok  refuses to run without src/ and tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
