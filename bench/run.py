"""algdigits benchmark: CLI subprocesses end to end, split by layer.

    python3 bench/run.py --workload {cli-queries,ns-verdicts,automata}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the CLI is run from ./src).
Each run generates a fixed list of operations from the seed, sized so
it takes about S seconds at the seed code, and sends them one at a time
to `python -m algdigits.cli` (closed loop, one client, --jobs 1).  Every
output is checked after the timed loop.

--trace 0 reports the end-to-end metrics.  --trace 1 repeats the same
operations through bench/traced.py, which puts spans around each
layer's public functions, checks that every operation's stdout is
byte-identical to the untraced run, and reports the per-layer metrics.

The last line of stdout is one JSON object with "correct", "attempted",
"failed" and "metrics".  A fuller record (versions, per-operation
results, which operations failed) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_EVERY = 3         # one --version subprocess before every 3rd op
STARTUP_REPS = 5        # bare interpreter and -X importtime subprocesses
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 160.0  # subprocesses end by then; a run must end within 180 s

# End-to-end metric -> unit (definitions in bench/README.md).
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s",
              "op_tail_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> (unit, layer, end-to-end metric it should move).
PER_LAYER = {
    "startup.interpreter_s": ("s", "start-up", "control: none"),
    "startup.import_s": ("s", "start-up", "op_p50_s, setup_s on cli-queries"),
    "startup.sympy_import_s": ("s", "start-up", "op_p50_s on cli-queries"),
    "startup.modules_imported": ("count", "start-up",
                                 "op_p50_s, setup_s on cli-queries"),
    "cli.self_s": ("s", "cli", "op_p50_s on cli-queries"),
    "jsonio.canonical_dumps_s": ("s", "jsonio", "op_p50_s on cli-queries"),
    "polynomials.irreducibility_s": ("s", "polynomials",
                                     "op_p50_s on cli-queries"),
    "polynomials.sturm_s": ("s", "polynomials", "op_p50_s on cli-queries"),
    "roots.certify_s": ("s", "roots", "wall_s on automata and ns-verdicts"),
    "roots.certify_calls": ("count", "roots",
                            "wall_s on automata and ns-verdicts"),
    "roots.endpoint_bits_max": ("bits", "intervals",
                                "wall_s on automata and ns-verdicts"),
    "base.make_base_self_s": ("s", "base", "wall_s on automata"),
    "base.refine_calls": ("count", "base", "wall_s on automata"),
    "base.conjugate_boxes_s": ("s", "base", "wall_s on automata"),
    "digits.orbit_bound_s": ("s", "digits",
                             "wall_s, op_tail_s on ns-verdicts"),
    "digits.periodic_points_self_s": ("s", "digits",
                                      "wall_s, op_tail_s on ns-verdicts"),
    "digits.candidates_scanned": ("count", "digits",
                                  "wall_s, op_tail_s on ns-verdicts"),
    "digits.periodic_yield": ("ratio", "digits",
                              "wall_s, op_tail_s on ns-verdicts"),
    "digits.orbit_s": ("s", "digits", "wall_s on ns-verdicts"),
    "digits.orbit_steps": ("count", "digits", "wall_s on ns-verdicts"),
    "rational.expand_int_s": ("s", "rational", "op_p50_s on cli-queries"),
    "rational.digits_emitted": ("count", "rational",
                                "op_p50_s on cli-queries"),
    "rational.transduce_s": ("s", "rational", "op_p50_s on cli-queries"),
    "zero_automaton.build_self_s": ("s", "zero_automaton",
                                    "wall_s, op_tail_s, peak_rss_mb on "
                                    "automata"),
    "zero_automaton.states_built": ("count", "zero_automaton",
                                    "wall_s, peak_rss_mb on automata"),
    "zero_automaton.edges_built": ("count", "zero_automaton",
                                   "wall_s, peak_rss_mb on automata"),
    "zero_automaton.extra_passes": ("count", "zero_automaton",
                                    "wall_s, op_tail_s on automata"),
    "zero_automaton.trim_s": ("s", "zero_automaton", "wall_s on automata"),
    "zero_automaton.trim_yield": ("ratio", "zero_automaton",
                                  "wall_s, peak_rss_mb on automata"),
    "zero_automaton.count_words_s": ("s", "zero_automaton",
                                     "wall_s on automata"),
    "zero_automaton.growth_rate_s": ("s", "zero_automaton",
                                     "wall_s on automata"),
    "zero_automaton.shortest_word_s": ("s", "zero_automaton",
                                       "wall_s on automata"),
    "zero_automaton.heights_searched": ("count", "zero_automaton",
                                        "wall_s, op_tail_s on automata"),
    "catalog.classify_s": ("s", "catalog", "op_p50_s on cli-queries"),
    "trace.overhead_share": ("ratio", "tracing",
                             "none (end-to-end numbers are untraced)"),
}

# Span totals behind the per-layer times: metric -> (span, "total"|"self").
SPAN_TIMES = {
    "cli.self_s": ("cli.main", "self_s"),
    "jsonio.canonical_dumps_s": ("jsonio.canonical_dumps", "total_s"),
    "polynomials.irreducibility_s": ("polynomials.irreducibility", "total_s"),
    "polynomials.sturm_s": ("polynomials.sturm", "total_s"),
    "roots.certify_s": ("roots.certify", "total_s"),
    "base.make_base_self_s": ("base.make_base", "self_s"),
    "base.conjugate_boxes_s": ("base.conjugate_boxes", "total_s"),
    "digits.orbit_bound_s": ("digits.orbit_bound", "total_s"),
    "digits.periodic_points_self_s": ("digits.periodic_points", "self_s"),
    "digits.orbit_s": ("digits.orbit", "total_s"),
    "rational.expand_int_s": ("rational.expand_int", "total_s"),
    "rational.transduce_s": ("rational.transduce", "total_s"),
    "zero_automaton.build_self_s": ("zero_automaton.build", "self_s"),
    "zero_automaton.trim_s": ("zero_automaton.trim", "total_s"),
    "zero_automaton.count_words_s": ("zero_automaton.count_words", "total_s"),
    "zero_automaton.growth_rate_s": ("zero_automaton.growth_rate", "total_s"),
    "zero_automaton.shortest_word_s": ("zero_automaton.shortest_word",
                                       "total_s"),
    "catalog.classify_s": ("catalog.classify", "total_s"),
}
SPAN_CALLS = {
    "roots.certify_calls": "roots.certify",
    "base.refine_calls": "base.refine",
}
COUNTERS = ("roots.endpoint_bits_max", "digits.candidates_scanned",
            "digits.orbit_steps", "rational.digits_emitted",
            "zero_automaton.states_built", "zero_automaton.edges_built",
            "zero_automaton.extra_passes", "zero_automaton.heights_searched")


class Runner:
    """Runs subprocesses from the checkout root, measuring each one."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        env = dict(os.environ)
        env.pop("ALGDIGITS_PRECISION", None)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def run(self, cmd: list) -> dict:
        """Run cmd to completion; latency, exit code, outputs and
        ru_maxrss (from wait4)."""
        timeout = min(OP_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            return {"skipped": True}
        with tempfile.TemporaryFile(dir=self.work) as out, \
                tempfile.TemporaryFile(dir=self.work) as err:
            killed = threading.Event()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self.env,
                                    cwd=self.root)

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return {"skipped": False, "latency_s": elapsed,
                    "rc": proc.returncode, "timed_out": killed.is_set(),
                    "maxrss_kb": usage.ru_maxrss,
                    "stdout": out.read(), "stderr": err.read()}


def run_ops(runner: Runner, ops: list, cli: list) -> tuple[list, list]:
    """The closed loop: one operation at a time, in order.  Set-up is
    sampled between operations (a --version subprocess before every
    SETUP_EVERY-th one), so both see the same machine over the run."""
    records, setup = [], []
    for i, op in enumerate(ops):
        if i % SETUP_EVERY == 0:
            rec = runner.run(cli + ["--version"])
            if not rec["skipped"] and rec["rc"] == 0:
                setup.append(rec["latency_s"])
        records.append(runner.run(cli + op["argv"]))
    return records, setup


def run_traced(runner: Runner, ops: list, cli: list, traced: list,
               spans_dir: Path) -> tuple[list, list]:
    """Each operation untraced and traced back to back, alternating which
    goes first, so machine drift cancels out of the tracing overhead."""
    plain, spanned = [], []
    for i, op in enumerate(ops):
        plain_cmd = cli + op["argv"]
        traced_cmd = traced + [str(spans_dir / f"{i}.json"), "--"] + op["argv"]
        if i % 2 == 0:
            plain.append(runner.run(plain_cmd))
            spanned.append(runner.run(traced_cmd))
        else:
            spanned.append(runner.run(traced_cmd))
            plain.append(runner.run(plain_cmd))
    return plain, spanned


def judge(checker: checks.Checker, ops: list, records: list) -> list:
    """Per-operation verdicts, computed after the timed loop."""
    verdicts = []
    for op, rec in zip(ops, records):
        if rec["skipped"]:
            verdicts.append((True, False, "not started: run deadline"))
        elif rec["timed_out"]:
            verdicts.append((True, False, f"timeout after {OP_TIMEOUT_S} s"))
        else:
            verdicts.append(checker.check(op, rec["rc"], rec["stdout"],
                                          rec["stderr"]))
    return verdicts


def tail(latencies: list) -> dict:
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 11:
        return {"value": ordered[n - 11], "percentile": 100 * (n - 10) / n,
                "samples_beyond": 10, "samples": n}
    return {"value": ordered[-1], "percentile": 100.0, "samples_beyond": 0,
            "samples": n}


def median_time(runner: Runner, cmd: list, reps: int) -> float:
    times = []
    for _ in range(reps):
        rec = runner.run(cmd)
        if rec["skipped"] or rec["rc"] != 0:
            raise RuntimeError(f"{cmd} failed: {rec.get('stderr', b'')!r}")
        times.append(rec["latency_s"])
    return statistics.median(times)


def importtime(runner: Runner, argv: list) -> dict:
    """Import cost of one query, from -X importtime (medians)."""
    runs = []
    for _ in range(STARTUP_REPS):
        rec = runner.run([sys.executable, "-X", "importtime", "-m",
                          "algdigits.cli"] + argv)
        total_us, sympy_us, modules = 0, 0, 0
        for line in rec["stderr"].decode().splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            self_us, cumulative_us, name = line[12:].split("|")
            total_us += int(self_us)
            modules += 1
            if name.strip() == "sympy":
                sympy_us = int(cumulative_us)
        runs.append((total_us / 1e6, sympy_us / 1e6, modules))
    return {"startup.import_s": statistics.median(r[0] for r in runs),
            "startup.sympy_import_s": statistics.median(r[1] for r in runs),
            "startup.modules_imported": statistics.median(r[2] for r in runs)}


def layer_metrics(summaries: list) -> dict:
    spans: dict = {}
    counters: dict = {}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            for key in agg:
                agg[key] += entry[key]
        for key, value in summary["counters"].items():
            if key == "roots.endpoint_bits_max":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    out = {}
    for metric, (span, field) in SPAN_TIMES.items():
        out[metric] = spans.get(span, {}).get(field, 0.0)
    for metric, span in SPAN_CALLS.items():
        out[metric] = spans.get(span, {}).get("calls", 0)
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    scanned = counters.get("digits.candidates_scanned", 0)
    out["digits.periodic_yield"] = (
        counters.get("digits.periodic_found", 0) / scanned if scanned else 0.0)
    trim_in = counters.get("zero_automaton.trim_in", 0)
    out["zero_automaton.trim_yield"] = (
        counters.get("zero_automaton.trim_out", 0) / trim_in
        if trim_in else 0.0)
    return out


def environment(root: Path, workload: str, ops: list) -> dict:
    commit = ""
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src").rglob("*.py")))
    info = {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "sympy": importlib.metadata.version("sympy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines,
        "operation_count": len(ops),
    }
    kinds = [op["meta"].get("base_kind") for op in ops]
    if workload == "automata":
        info["base_kind_share"] = {
            k: kinds.count(k) / len(ops)
            for k in ("refining", "one-pass", "rational")}
    return info


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    oracle_dir = root / "tests"
    if not (root / "src" / "algdigits" / "cli.py").is_file() or \
            not (oracle_dir / "oracles.py").is_file():
        print("bench/run.py: run from the root of an algdigits checkout "
              "(src/algdigits and tests/oracles.py not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(oracle_dir))
    import oracles

    work = HERE / ".work"
    results = HERE / "results"
    work.mkdir(exist_ok=True)
    results.mkdir(exist_ok=True)
    runner = Runner(root, work, time.monotonic() + RUN_DEADLINE_S)
    py = sys.executable
    cli = [py, "-m", "algdigits.cli"]

    # The checkout's own source must be what runs.
    probe = runner.run([py, "-c",
                        "import algdigits; print(algdigits.__file__)"])
    where = probe["stdout"].decode().strip()
    if probe["rc"] != 0 or Path(where).resolve().parent != \
            (root / "src" / "algdigits").resolve():
        print(f"bench/run.py: algdigits imports from {where!r}, not ./src",
              file=sys.stderr)
        return 2

    ops = workloads.generate(args.workload, args.seed, args.seconds)
    # Warm-up (untimed): bytecode caches and the page cache.
    runner.run(cli + ["--version"])
    runner.run(cli + ops[0]["argv"])

    checker = checks.Checker(oracles)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **environment(root, args.workload, ops)}
    if args.trace:
        # Start-up probes first, so the run deadline never cuts them.
        startup = {"startup.interpreter_s": median_time(
            runner, [py, "-c", "pass"], STARTUP_REPS)}
        query = next(op["argv"] for op in ops if op["expect"] == 0)
        startup.update(importtime(runner, query))
        spans_dir = Path(tempfile.mkdtemp(dir=work))
        records, traced_records = run_traced(
            runner, ops, cli, [py, str(HERE / "traced.py")], spans_dir)
        summaries = []
        for i in range(len(ops)):
            spans_file = spans_dir / f"{i}.json"
            if spans_file.is_file():
                summaries.append(json.loads(spans_file.read_text()))
                spans_file.unlink()
        spans_dir.rmdir()
    else:
        records, setup = run_ops(runner, ops, cli)
    verdicts = judge(checker, ops, records)

    ran = [r for r in records if not r["skipped"]]
    latencies = [r["latency_s"] for r in ran]
    wall_s = sum(latencies)
    attempted = len(ops)
    failed = sum(1 for v in verdicts if v[0])
    correct = not any(v[1] for v in verdicts)
    report.update({
        "wall_s": wall_s,
        "failed_share": failed / attempted,
        "failed_ops": _failed_ops(ops, verdicts),
        "oracle_checks": {"quadratic_periodic": checker.quadratic_checked,
                          "zero_word_counts": checker.count_checked},
        "operations": [
            {"kind": op["kind"], "argv": op["argv"],
             "base_kind": op["meta"].get("base_kind"),
             "latency_s": rec.get("latency_s"), "rc": rec.get("rc"),
             "maxrss_kb": rec.get("maxrss_kb"), "failed": v[0],
             "reason": v[2]}
            for op, rec, v in zip(ops, records, verdicts)],
        "layer_map": {k: {"unit": u, "layer": layer, "moves": moves}
                      for k, (u, layer, moves) in PER_LAYER.items()},
    })

    if not args.trace:
        op_tail = tail(latencies)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": op_tail.pop("value"),
            "peak_rss_mb": max(r["maxrss_kb"] for r in ran) / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
        report["end_to_end"] = metrics
        report["op_tail"] = op_tail
        report["setup_samples"] = len(setup)
    else:
        traced_verdicts = judge(checker, ops, traced_records)
        mismatched = [
            op["argv"] for op, rec, trec in zip(ops, records, traced_records)
            if trec["skipped"] or trec["stdout"] != rec.get("stdout")]
        traced_wall = sum(r["latency_s"] for r in traced_records
                          if not r["skipped"])
        layers = layer_metrics(summaries)
        layers.update(startup)
        layers["trace.overhead_share"] = (traced_wall - wall_s) / wall_s
        attempted += len(ops)
        failed += sum(1 for v in traced_verdicts if v[0])
        correct = (correct and not mismatched
                   and not any(v[1] for v in traced_verdicts))
        metrics = {k: {"value": layers[k], "unit": PER_LAYER[k][0]}
                   for k in PER_LAYER}
        report["traced"] = {
            "wall_s": traced_wall,
            "stdout_mismatches": mismatched,
            "failed_ops": _failed_ops(ops, traced_verdicts),
            "refining_ops_with_extra_passes": _extra_pass_agreement(
                ops, summaries),
            "per_layer": metrics,
        }

    report["correct"] = correct
    out_file = results / (f"{args.workload}-seed{args.seed}"
                          f"-trace{args.trace}.json")
    out_file.write_text(json.dumps(report, indent=1))
    print(f"{args.workload}: {len(ops)} operations, {failed} failed, "
          f"wall {wall_s:.2f} s; details in {out_file.relative_to(root)}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _failed_ops(ops: list, verdicts: list) -> list:
    return [{"argv": op["argv"], "kind": op["kind"], "reason": v[2]}
            for op, v in zip(ops, verdicts) if v[0]]


def _extra_pass_agreement(ops: list, summaries: list) -> dict | None:
    """How many operations labelled "refining" by the generator's float
    search did refine inside a build, and how many others did not."""
    if len(summaries) != len(ops):
        return None
    agree = total = 0
    for op, summary in zip(ops, summaries):
        kind = op["meta"].get("base_kind")
        if kind is None:
            continue
        total += 1
        refined = summary["counters"].get("zero_automaton.extra_passes", 0) > 0
        agree += refined == (kind == "refining")
    return {"agree": agree, "labelled": total}


if __name__ == "__main__":
    sys.exit(main())
