"""Traced CLI entry point: run one algdigits command with spans around the
public functions of each layer.

    python bench/traced.py SPANS.json -- <algdigits arguments>

The wrappers replace each function in every algdigits module namespace
that holds it (and methods on their classes), then algdigits.cli.main
runs the arguments unchanged, so stdout, stderr and the exit code are
the CLI's own.  The spans file is written when the command ends, also
when it raises.  It holds, per span name, the call count, the total
time of outermost calls and the self time (duration minus the time of
wrapped callees), plus counters read from the wrapped calls' return
values.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Span name -> (module, attribute) or (module, class, method).  Functions
# sharing a span name form one layer entry (nested calls are not
# double counted).
TARGETS = {
    "cli.main": [("algdigits.cli", "main")],
    "jsonio.canonical_dumps": [("algdigits.jsonio", "canonical_dumps")],
    "polynomials.irreducibility": [("algdigits.polynomials",
                                    "is_irreducible_z")],
    "polynomials.sturm": [("algdigits.polynomials",
                           "count_real_roots_between")],
    "roots.certify": [("algdigits.roots", "certified_roots")],
    "base.make_base": [("algdigits.base", "make_base")],
    "base.refine": [("algdigits.base", "AlgebraicBase", "refine")],
    "base.conjugate_boxes": [("algdigits.base", "AlgebraicBase",
                              "conjugate_boxes")],
    "digits.orbit_bound": [("algdigits.digits", "orbit_bound")],
    "digits.periodic_points": [("algdigits.digits", "periodic_points")],
    "digits.orbit": [("algdigits.digits", "orbit")],
    "rational.expand_int": [("algdigits.rational", "expand_int")],
    "rational.transduce": [("algdigits.rational", "transduce")],
    "zero_automaton.build": [("algdigits.zero_automaton",
                              "build_zero_automaton")],
    "zero_automaton.min_height": [("algdigits.zero_automaton",
                                   "min_height")],
    "zero_automaton.trim": [("algdigits.zero_automaton", "ZeroAutomaton",
                             "trim")],
    "zero_automaton.count_words": [("algdigits.zero_automaton",
                                    "ZeroAutomaton", "count_words")],
    "zero_automaton.growth_rate": [("algdigits.zero_automaton",
                                    "ZeroAutomaton", "growth_rate")],
    "zero_automaton.shortest_word": [("algdigits.zero_automaton",
                                      "ZeroAutomaton",
                                      "shortest_nonzero_word")],
    "catalog.classify": [("algdigits.catalog", "classify_f_index"),
                         ("algdigits.catalog", "f2_analysis")],
}


def _endpoint_bits(boxes) -> int:
    bits = 0
    for box in boxes:
        for iv in (box.re, box.im):
            for q in (iv.lo, iv.hi):
                bits = max(bits, q.numerator.bit_length(),
                           q.denominator.bit_length())
    return bits


class Tracer:
    """Spans kept in memory: [name, parent index, start, end, child time]."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: dict = {}

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            rec = [name, parent, time.perf_counter(), None, 0.0]
            tracer.stack.append(index)
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                tracer.stack.pop()
                if parent >= 0:
                    tracer.spans[parent][4] += rec[3] - rec[2]
            tracer.count(name, index, result, args)
            return result

        return wrapper

    def inside(self, index: int, name: str) -> bool:
        parent = self.spans[index][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def count(self, name: str, index: int, result, args) -> None:
        """Counters from the return values of wrapped calls."""
        if name == "roots.certify":
            bits = _endpoint_bits(result)
            self.counters["roots.endpoint_bits_max"] = max(
                self.counters.get("roots.endpoint_bits_max", 0), bits)
        elif name == "base.refine":
            if self.inside(index, "zero_automaton.build"):
                self.add("zero_automaton.extra_passes", 1)
        elif name == "digits.periodic_points":
            self.add("digits.candidates_scanned", result.candidates_scanned)
            self.add("digits.periodic_found", len(result.elements))
        elif name == "digits.orbit":
            self.add("digits.orbit_steps", len(result.digits))
        elif name == "rational.expand_int":
            self.add("rational.digits_emitted", len(result))
        elif name == "zero_automaton.build":
            self.add("zero_automaton.states_built", result.n_states)
            self.add("zero_automaton.edges_built", result.n_edges)
            self.add("zero_automaton.builds", 1)
        elif name == "zero_automaton.trim":
            self.add("zero_automaton.trim_in", args[0].n_states)
            self.add("zero_automaton.trim_out", result.n_states)
        elif name == "zero_automaton.min_height":
            self.add("zero_automaton.heights_searched", len(result.searched))

    def summary(self) -> dict:
        out = {}
        for index, (name, _parent, start, end, child) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child
            if not self.inside(index, name):
                entry["total_s"] += end - start
        return {"spans": out, "counters": self.counters}


def install(tracer: Tracer) -> None:
    """Wrap every target in each algdigits module namespace holding it."""
    import importlib

    importlib.import_module("algdigits.cli")
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "algdigits" or n.startswith("algdigits.")) and m]
    for name, targets in TARGETS.items():
        for target in targets:
            owner = importlib.import_module(target[0])
            if len(target) == 3:
                cls = getattr(owner, target[1])
                original = getattr(cls, target[2])
                setattr(cls, target[2], tracer.wrap(name, original))
                continue
            original = getattr(owner, target[1])
            wrapper = tracer.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- <algdigits arguments>",
              file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["algdigits.cli"]
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
