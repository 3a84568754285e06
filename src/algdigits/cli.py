"""Command-line front end.

Every JSON-producing subcommand prints one object with two keys:
"manifest" (input echo, library versions, active limits; nothing
time-dependent) and "result".  --export json / --export dot print only
the exported artifact so the bytes depend on nothing but the computed
object.  sweep-quadratic prints CSV.

Exit codes: 0 success, 2 invalid input (ValueError family), 3 resource
or precision caps (RuntimeError family).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import __version__
from .base import card_bounds, make_base
from .catalog import classify_f_index, f2_analysis, sweep_quadratic
from .digits import as_digit_set, orbit, periodic_points, zero_orbit_set
from .errors import DigitSetError, PolynomialSyntaxError
from .jsonio import canonical_dumps
from .rational import (build_transducer, digit_set_rational, expand_int,
                       transduce, value_of, verify_digit_properties)
from .zero_automaton import DEFAULT_MAX_STATES, build_zero_automaton, min_height

PRECISION_ENV = "ALGDIGITS_PRECISION"
# The finest accepted width.  Output fractions at 2^-4096 stay far below
# Python's 4300-digit limit on int-to-str conversion, and a finer width
# is refused before any root is refined to it.
FINEST_PRECISION_BITS = 4096
# A decimal exponent of 10^4 or more in size, refused before Fraction
# builds 10^e (which takes a minute at 1e-30000000).
_HUGE_EXPONENT = re.compile(r"[eE][-+]?0*[1-9]\d{4,}$")


def _parse_precision(text: str) -> Fraction:
    """An interval width '2^k' or a fraction, strictly between 0 and 1
    and no finer than 2^-FINEST_PRECISION_BITS."""
    s = text.strip()
    try:
        if s.startswith("2^"):
            # Clamped, so that a huge exponent never builds 2^k.
            k = int(s[2:])
            value = Fraction(2) ** min(0, max(k, -FINEST_PRECISION_BITS - 1))
        elif _HUGE_EXPONENT.search(s):
            raise ValueError(f"precision {text!r} has a decimal exponent "
                             f"of 10^4 or more in size")
        else:
            value = Fraction(s)
    except ZeroDivisionError as exc:
        raise ValueError(f"bad precision {text!r}") from exc
    if not 0 < value < 1:
        raise ValueError(f"precision must lie strictly between 0 and 1, "
                         f"got {text!r}")
    if value < Fraction(1, 1 << FINEST_PRECISION_BITS):
        raise ValueError(f"precision {text!r} is finer than the limit "
                         f"2^-{FINEST_PRECISION_BITS}")
    return value


def _default_precision() -> Fraction | None:
    raw = os.environ.get(PRECISION_ENV)
    if raw is None:
        return None
    return _parse_precision(raw)


def _make_base(args):
    kwargs = {}
    precision = (_parse_precision(args.precision) if args.precision
                 else _default_precision())
    if precision is not None:
        kwargs["precision"] = precision
    return make_base(args.poly, **kwargs)


def _json_int(v) -> int:
    if type(v) is not int:  # bools, floats and null are not digits
        raise DigitSetError(f"digit entry {json.dumps(v)} is not an integer")
    return v


def _parse_digit_list(text: str | None):
    """Digits as '0,1,2' or a JSON list whose entries are integers or
    lists of integers (coordinates)."""
    if text is None:
        return None
    s = text.strip()
    if s.startswith("["):
        try:
            data = json.loads(s)
        except json.JSONDecodeError as exc:
            raise DigitSetError(f"bad digit list: {exc}") from exc
        return [tuple(_json_int(c) for c in v) if isinstance(v, list)
                else _json_int(v) for v in data]
    try:
        return [int(tok) for tok in s.split(",") if tok.strip()]
    except ValueError as exc:
        raise DigitSetError(f"bad digit list {text!r}") from exc


def _cap(text: str) -> int:
    """argparse type of the caps: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _parse_rational_base(text: str) -> tuple[int, int]:
    try:
        f = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PolynomialSyntaxError(f"bad rational base {text!r}") from exc
    p, q = f.numerator, f.denominator
    if p > 0:
        return p, q
    return -p, -q


def _record_out(record) -> dict:
    tail = record.tail
    if tail.kind == "cycle":
        tail_out = {"kind": "cycle", "entry": tail.entry,
                    "elements": tail.elements}
    elif tail.kind == "truncated":
        tail_out = {"kind": "truncated", "steps": tail.steps}
    else:
        tail_out = {"kind": "terminated"}
    return {"start": record.start, "digits": record.digits,
            "states": record.states, "tail": tail_out}


def _sympy_version() -> str | None:
    """The Version field of the first sympy-*.dist-info on sys.path, the
    one importlib.metadata.version("sympy") reads, found without
    importing sympy or importlib.metadata."""
    for entry in sys.path:
        try:
            names = os.listdir(entry or ".")
        except OSError:
            continue
        for name in names:
            if name.startswith("sympy-") and name.endswith(".dist-info"):
                path = os.path.join(entry, name, "METADATA")
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        if line.startswith("Version:"):
                            return line[len("Version:"):].strip()
    return None


def _manifest(args, limits: dict) -> dict:
    return {
        "tool": "algdigits",
        "version": __version__,
        "command": args.command,
        "argv": list(args._argv),
        "python": sys.version.split()[0],
        "libs": {"sympy": _sympy_version()},
        "limits": limits,
    }


def _emit(args, limits: dict, result) -> int:
    print(canonical_dumps({"manifest": _manifest(args, limits),
                           "result": result}))
    return 0


# -- subcommand bodies ------------------------------------------------------


def _cmd_analyze(args) -> int:
    base = _make_base(args)
    moduli = [[lo, hi] for lo, hi in base.conjugate_moduli()]
    result = {
        "poly": str(base.min_poly),
        "coeffs": base.min_poly.to_list(),
        "degree": base.degree,
        "monic": base.is_monic,
        "irreducibility": base.irreducibility,
        "classification": base.classification.value,
        "supports_height_reduction": base.supports_height_reduction,
        "n_expanding": base.n_expanding,
        "n_unit": base.n_unit,
        "n_contracting": base.n_contracting,
        "conjugate_moduli": moduli,
        "rational_view": list(base.rational_view) if base.rational_view else None,
        "residue_modulus": base.residue_modulus,
    }
    try:
        bounds = card_bounds(base)
        result["card_lower"] = bounds.lower
        result["card_upper"] = bounds.upper
    except ValueError:
        result["card_lower"] = None
        result["card_upper"] = None
    return _emit(args, {"precision": str(base.requested_precision)}, result)


def _cmd_classify(args) -> int:
    base = _make_base(args)
    report = classify_f_index(base)
    f2 = f2_analysis(base)
    result = report.to_json_dict()
    result["poly"] = str(base.min_poly)
    result["f2"] = {"verdict": f2.verdict.value, "reason": f2.reason}
    return _emit(args, {"precision": str(base.requested_precision)}, result)


def _cmd_expand(args) -> int:
    base = _make_base(args)
    digit_set = as_digit_set(base, _parse_digit_list(args.digits))
    value = base.element(json.loads(args.value)
                         if args.value.strip().startswith("[")
                         else int(args.value))
    record = orbit(value, digit_set, args.max_steps)
    result = _record_out(record)
    result["replay_ok"] = record.replay(base)
    return _emit(args, {"max_steps": args.max_steps}, result)


def _cmd_periodic(args) -> int:
    base = _make_base(args)
    digit_set = as_digit_set(base, _parse_digit_list(args.digits))
    pset = periodic_points(base, digit_set, candidate_cap=args.candidate_cap)
    result = {
        "elements": pset.elements,
        "cycles": pset.cycles,
        "count": len(pset.elements),
        "is_trivial": pset.is_trivial,
        "candidates_scanned": pset.candidates_scanned,
        "bounds": {
            "k_sigma": [str(v) for v in pset.bounds.k_sigma],
            "per_conjugate": [str(v) for v in pset.bounds.per_conjugate],
            "c": str(pset.bounds.c_alpha_r),
        },
    }
    return _emit(args, {"candidate_cap": args.candidate_cap,
                        "jobs": args.jobs}, result)


def _cmd_is_ns(args) -> int:
    base = _make_base(args)
    digit_set = as_digit_set(base, _parse_digit_list(args.digits))
    pset = periodic_points(base, digit_set, candidate_cap=args.candidate_cap)
    is_ns = digit_set.contains_zero and pset.elements == (base.zero,)
    spans = set(pset.elements) == set(zero_orbit_set(base, digit_set,
                                                     args.max_steps))
    result = {
        "is_number_system": is_ns,
        "spans_ring": spans,
        "contains_zero": digit_set.contains_zero,
        "periodic_count": len(pset.elements),
    }
    return _emit(args, {"candidate_cap": args.candidate_cap,
                        "max_steps": args.max_steps, "jobs": args.jobs},
                 result)


def _cmd_rational(args) -> int:
    a, b = _parse_rational_base(args.base)
    ds = digit_set_rational(a, b, _parse_digit_list(args.digits))
    limits = {"max_steps": args.max_steps}

    if args.action == "verify":
        props = verify_digit_properties(ds)
        result = {
            "a": a, "b": b,
            "regime": ds.regime.value,
            "digits": list(ds.digits),
            "properties": props,
            "transducer_ready": props["plus_b"] and props["minus_b"],
        }
        return _emit(args, limits, result)

    if args.action == "expand":
        if not args.values:
            raise DigitSetError("expand needs at least one integer argument")
        rows = []
        for raw in args.values:
            k = int(raw)
            word = expand_int(ds, k, args.max_steps)
            rows.append({
                "value": k,
                "digits_lsb": list(word),
                "length": len(word),
                "check": value_of(word, ds.alpha) == k,
            })
        result = {"a": a, "b": b, "regime": ds.regime.value,
                  "expansions": rows}
        return _emit(args, limits, result)

    # transduce
    trans = build_transducer(ds)
    word = tuple(int(v) for v in args.values)
    for d in word:
        if d not in ds:
            raise DigitSetError(f"{d} is not a digit of the set")
    start = -ds.b if args.subtract else ds.b
    out = transduce(trans, start, word)
    in_val = value_of(word, ds.alpha)
    out_val = value_of(out, ds.alpha)
    result = {
        "a": a, "b": b,
        "input_lsb": list(word),
        "start_carry": start,
        "output_lsb": list(out),
        "input_value": in_val,
        "output_value": out_val,
        "delta": out_val - in_val,
        "check": out_val - in_val == (-ds.b if args.subtract else ds.b),
    }
    return _emit(args, limits, result)


def _cmd_zero_automaton(args) -> int:
    base = _make_base(args)
    auto = build_zero_automaton(base, args.height, max_states=args.max_states)
    if args.trim:
        auto = auto.trim()
    if args.export == "json":
        print(canonical_dumps(auto.to_json_dict()))
        return 0
    if args.export == "dot":
        print(auto.to_dot())
        return 0
    found = auto.shortest_nonzero_word()
    result = {
        "poly": str(base.min_poly),
        "H": args.height,
        "trimmed": auto.trimmed,
        "n_states": auto.n_states,
        "n_edges": auto.n_edges,
        "has_nontrivial_word": auto.has_nontrivial_word(),
        "shortest_nonzero_word": list(found.word) if found else None,
    }
    return _emit(args, {"max_states": args.max_states, "jobs": args.jobs},
                 result)


def _cmd_min_height(args) -> int:
    base = _make_base(args)
    report = min_height(base, args.max_h, max_states=args.max_states)
    result = {
        "poly": str(base.min_poly),
        "h_star": report.h_star,
        "word": list(report.word),
        "witness": str(report.witness),
        "witness_coeffs": report.witness.to_list(),
        "value_check": report.value_check,
        "searched": [list(row) for row in report.searched],
    }
    return _emit(args, {"max_states": args.max_states,
                        "max_h": args.max_h, "jobs": args.jobs}, result)


def _cmd_count(args) -> int:
    base = _make_base(args)
    auto = build_zero_automaton(base, args.height,
                                max_states=args.max_states).trim()
    est, residual = auto.growth_rate()
    result = {
        "poly": str(base.min_poly),
        "H": args.height,
        "length": args.length,
        "count": auto.count_words(args.length),
        "growth_rate": est,
        "growth_residual": residual,
    }
    return _emit(args, {"max_states": args.max_states, "jobs": args.jobs},
                 result)


def _cmd_sweep_quadratic(args) -> int:
    rows = sweep_quadratic(args.a2_max, candidate_cap=args.candidate_cap)
    print("a1,a2,criterion,brute_force,agree")
    for row in rows:
        print(f"{row.a1},{row.a2},{row.criterion},{row.brute_force},"
              f"{row.agree}")
    return 0


# -- parser -----------------------------------------------------------------


def _add_poly(p: argparse.ArgumentParser) -> None:
    p.add_argument("--poly", required=True,
                   help="polynomial text ('x^2+2x+2') or coefficient list "
                        "('[2,2,1]', ascending)")
    p.add_argument("--precision", default=None,
                   help="interval width target, e.g. '2^-40' or '1/1000000'")


class UsageError(ValueError):
    """The command line does not match the parser."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors (exit 2) instead of printing usage text;
    subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="algdigits",
        description="Exact digit systems, zero automata and digit-set "
                    "cardinality over algebraic bases.")
    parser.add_argument("--version", action="version",
                        version=f"algdigits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a base polynomial")
    _add_poly(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("classify",
                       help="digit-cardinality bounds and certificates")
    _add_poly(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("expand", help="backward-division expansion of a value")
    _add_poly(p)
    p.add_argument("--value", required=True,
                   help="integer or coordinate list '[c0,c1,...]'")
    p.add_argument("--digits", default=None,
                   help="digit values, '0,1,2' or JSON list; default "
                        "{0..|M(0)|-1}")
    p.add_argument("--max-steps", type=_cap, default=10000)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("periodic", help="all periodic points of the digit map")
    _add_poly(p)
    p.add_argument("--digits", default=None)
    p.add_argument("--candidate-cap", type=_cap, default=10**7)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("is-ns",
                       help="number-system and ring-spanning verdicts")
    _add_poly(p)
    p.add_argument("--digits", default=None)
    p.add_argument("--candidate-cap", type=_cap, default=10**7)
    p.add_argument("--max-steps", type=_cap, default=10000)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_is_ns)

    p = sub.add_parser("rational",
                       help="rational-base digit sets and the carry automaton")
    p.add_argument("--base", required=True, help="a/b, e.g. '3/2' or '-5/2'")
    p.add_argument("--digits", default=None)
    p.add_argument("--max-steps", type=_cap, default=10**6)
    p.add_argument("action", choices=["expand", "verify", "transduce"])
    p.add_argument("values", nargs="*",
                   help="integers to expand, or the LSB-first input word "
                        "for transduce")
    p.add_argument("--subtract", action="store_true",
                   help="transduce: subtract b instead of adding it")
    p.set_defaults(func=_cmd_rational)

    p = sub.add_parser("zero-automaton",
                       help="the automaton of height-H zero words")
    _add_poly(p)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--trim", action="store_true")
    p.add_argument("--export", choices=["dot", "json"], default=None)
    p.add_argument("--max-states", type=_cap, default=DEFAULT_MAX_STATES)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_zero_automaton)

    p = sub.add_parser("min-height",
                       help="least H with a nonzero zero word, plus witness")
    _add_poly(p)
    p.add_argument("--max-h", type=_cap, default=None)
    p.add_argument("--max-states", type=_cap, default=DEFAULT_MAX_STATES)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_min_height)

    p = sub.add_parser("count", help="count zero words of a given length")
    _add_poly(p)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--max-states", type=_cap, default=DEFAULT_MAX_STATES)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sweep-quadratic",
                       help="criterion vs brute force over quadratic bases "
                            "(CSV)")
    p.add_argument("--a2-max", type=int, required=True)
    p.add_argument("--candidate-cap", type=_cap, default=10**7)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_sweep_quadratic)

    return parser


def _fail(exc: Exception, code: int) -> int:
    print(canonical_dumps({"error": {"type": type(exc).__name__,
                                     "message": str(exc)}}),
          file=sys.stderr)
    return code


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        args._argv = argv
        return args.func(args)
    except ValueError as exc:
        return _fail(exc, 2)
    except RuntimeError as exc:
        return _fail(exc, 3)


if __name__ == "__main__":
    sys.exit(main())
