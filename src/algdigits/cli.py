"""Command-line front end.

Every JSON-producing subcommand prints one object with two keys:
"manifest" (input echo, tool and Python versions, active limits;
nothing time-dependent) and "result".  --export json / --export dot
print only the exported artifact so the bytes depend on nothing but the
computed object.  sweep-quadratic prints CSV.

Exit codes: 0 success, 2 invalid input (ValueError family), 3 resource
or precision caps (RuntimeError family).

The layers are reached only as attributes of their lazily registered
modules (``digits.periodic_points``), so a subcommand compiles only the
layers it runs, --version none of them and a usage error only jsonio.
``json`` and ``fractions`` are imported inside the helpers that use them.
"""

from __future__ import annotations

import argparse
import sys

from . import (__version__, base, catalog, digits, jsonio, rational,
               zero_automaton)
from .errors import DEFAULT_MAX_STATES, DigitSetError, PolynomialSyntaxError

def _json_int(v) -> int:
    import json

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
        import json

        try:  # a deep list may load, then overflow _json_int's json.dumps
            return [tuple(_json_int(c) for c in v) if isinstance(v, list)
                    else _json_int(v) for v in json.loads(s)]
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DigitSetError(f"bad digit list: {exc}") from exc
    try:
        return [int(tok) for tok in s.split(",")]
    except ValueError as exc:
        raise DigitSetError(f"bad digit list {text!r}") from exc


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"must be at least {low}, got {value}")
    return value


def _cap(text: str) -> int:
    """argparse type of the caps and --length: an integer >= 0."""
    return _int_at_least(text, 0)


def _positive(text: str) -> int:
    """argparse type of --jobs and --height: an integer >= 1."""
    return _int_at_least(text, 1)


def _int_value(token: str) -> int:
    """One of the integer values of `rational`; a bad one is a usage
    error naming the argument, in argparse's words."""
    try:
        return int(token)
    except ValueError:
        raise UsageError("algdigits rational: argument values: invalid int "
                         f"value: {token!r}") from None


def _parse_rational_base(text: str) -> tuple[int, int]:
    from fractions import Fraction

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
    tail_out = {name: getattr(tail, name) for name in tail.__slots__}
    return {"start": record.start, "digits": record.digits,
            "states": record.states, "tail": {"kind": tail.kind, **tail_out}}


def _manifest(args, limits: dict) -> dict:
    return {
        "tool": "algdigits",
        "version": __version__,
        "command": args.command,
        "argv": list(args._argv),
        "python": sys.version.split()[0],
        "limits": limits,
    }


def _emit(args, limits: dict, result) -> int:
    print(jsonio.canonical_dumps({"manifest": _manifest(args, limits),
                                  "result": result}))
    return 0


# -- subcommand bodies ------------------------------------------------------


def _cmd_analyze(args) -> int:
    alpha = base.make_base(args.poly)
    moduli = [[lo, hi] for lo, hi in alpha.conjugate_moduli()]
    result = {
        "poly": str(alpha.min_poly),
        "coeffs": alpha.min_poly.to_list(),
        "degree": alpha.degree,
        "monic": alpha.is_monic,
        "irreducibility": alpha.irreducibility,
        "classification": alpha.classification.value,
        "supports_height_reduction": alpha.supports_height_reduction,
        "n_expanding": alpha.n_expanding,
        "n_unit": alpha.n_unit,
        "n_contracting": alpha.n_contracting,
        "conjugate_moduli": moduli,
        "rational_view": (list(alpha.rational_view) if alpha.rational_view
                          else None),
        "residue_modulus": alpha.residue_modulus,
    }
    try:
        bounds = base.card_bounds(alpha)
        result["card_lower"] = bounds.lower
        result["card_upper"] = bounds.upper
    except ValueError:
        result["card_lower"] = None
        result["card_upper"] = None
    return _emit(args, {"precision": str(base.DEFAULT_WIDTH)}, result)


def _cmd_classify(args) -> int:
    alpha = base.make_base(args.poly)
    report = catalog.classify_f_index(alpha)
    f2 = catalog.f2_analysis(alpha)
    result = report.to_json_dict()
    result["poly"] = str(alpha.min_poly)
    result["f2"] = {"verdict": f2.verdict.value, "reason": f2.reason}
    return _emit(args, {"precision": str(base.DEFAULT_WIDTH)}, result)


def _cmd_expand(args) -> int:
    import json

    alpha = base.make_base(args.poly)
    digit_set = digits.as_digit_set(alpha, _parse_digit_list(args.digits))
    try:
        value = (json.loads(args.value) if args.value.strip().startswith("[")
                 else int(args.value))
    except (ValueError, RecursionError):  # json.JSONDecodeError is one
        raise UsageError(f"algdigits expand: argument --value: invalid "
                         f"integer or coordinate list: {args.value!r}"
                         ) from None
    record = digits.orbit(alpha.element(value), digit_set, args.max_steps)
    result = _record_out(record)
    result["replay_ok"] = record.replay(alpha)
    return _emit(args, {"max_steps": args.max_steps}, result)


def _cmd_periodic(args) -> int:
    alpha = base.make_base(args.poly)
    digit_set = digits.as_digit_set(alpha, _parse_digit_list(args.digits))
    pset = digits.periodic_points(alpha, digit_set,
                                  candidate_cap=args.candidate_cap)
    result = {
        "elements": pset.elements,
        "cycles": pset.cycles,
        "count": len(pset.elements),
        "is_trivial": pset.is_trivial,
        "candidates_scanned": pset.candidates_scanned,
        "bounds": {
            "k_sigma": [str(v) for v in pset.bounds.k_sigma],
            "per_conjugate": [str(v) for v in pset.bounds.per_conjugate],
            "c": str(pset.bounds.c),
        },
    }
    return _emit(args, {"candidate_cap": args.candidate_cap,
                        "jobs": args.jobs}, result)


def _cmd_is_ns(args) -> int:
    alpha = base.make_base(args.poly)
    digit_set = digits.as_digit_set(alpha, _parse_digit_list(args.digits))
    pset = digits.periodic_points(alpha, digit_set,
                                  candidate_cap=args.candidate_cap)
    is_ns, spans = digits.verdicts(digit_set, pset)
    result = {
        "is_number_system": is_ns,
        "spans_ring": spans,
        "contains_zero": digit_set.contains_zero,
        "periodic_count": len(pset.elements),
    }
    return _emit(args, {"candidate_cap": args.candidate_cap,
                        "jobs": args.jobs}, result)


def _cmd_rational(args) -> int:
    a, b = _parse_rational_base(args.base)
    ds = rational.digit_set_rational(a, b, _parse_digit_list(args.digits))
    limits = {"max_steps": args.max_steps}

    if args.action == "verify":
        props = rational.verify_digit_properties(ds)
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
            k = _int_value(raw)
            word = rational.expand_int(ds, k, args.max_steps)
            rows.append({
                "value": k,
                "digits_lsb": list(word),
                "length": len(word),
                "check": rational.value_of(word, ds.alpha) == k,
            })
        result = {"a": a, "b": b, "regime": ds.regime.value,
                  "expansions": rows}
        return _emit(args, limits, result)

    # transduce
    word = tuple(_int_value(v) for v in args.values)
    start = -ds.b if args.subtract else ds.b
    out = rational.transduce(rational.AdditionTransducer(ds), start, word)
    in_val = rational.value_of(word, ds.alpha)
    out_val = rational.value_of(out, ds.alpha)
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
    alpha = base.make_base(args.poly)
    auto = zero_automaton.build_zero_automaton(alpha, args.height,
                                               max_states=args.max_states)
    if args.trim:
        auto = auto.trim()
    if args.export == "json":
        print(jsonio.canonical_dumps(auto.to_json_dict()))
        return 0
    if args.export == "dot":
        print(auto.to_dot())
        return 0
    found = auto.shortest_nonzero_word()
    result = {
        "poly": str(alpha.min_poly),
        "H": args.height,
        "trimmed": auto.trimmed,
        "n_states": auto.n_states,
        "n_edges": auto.n_edges,
        "has_nontrivial_word": found is not None,
        "shortest_nonzero_word": list(found.word) if found else None,
    }
    return _emit(args, {"max_states": args.max_states, "jobs": args.jobs},
                 result)


def _cmd_min_height(args) -> int:
    alpha = base.make_base(args.poly)
    report = zero_automaton.min_height(alpha, args.max_h,
                                       max_states=args.max_states)
    result = {
        "poly": str(alpha.min_poly),
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
    alpha = base.make_base(args.poly)
    auto = zero_automaton.build_zero_automaton(
        alpha, args.height, max_states=args.max_states).trim()
    est, residual = auto.growth_rate()
    result = {
        "poly": str(alpha.min_poly),
        "H": args.height,
        "length": args.length,
        "count": auto.count_words(args.length),
        "growth_rate": est,
        "growth_residual": residual,
    }
    return _emit(args, {"max_states": args.max_states, "jobs": args.jobs},
                 result)


def _cmd_sweep_quadratic(args) -> int:
    rows = catalog.sweep_quadratic(args.a2_max,
                                   candidate_cap=args.candidate_cap)
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
    p.add_argument("--jobs", type=_positive, default=1)
    p.set_defaults(func=_cmd_periodic)

    p = sub.add_parser("is-ns",
                       help="number-system and ring-spanning verdicts")
    _add_poly(p)
    p.add_argument("--digits", default=None)
    p.add_argument("--candidate-cap", type=_cap, default=10**7)
    p.add_argument("--jobs", type=_positive, default=1)
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
    p.add_argument("--height", type=_positive, required=True)
    p.add_argument("--trim", action="store_true")
    p.add_argument("--export", choices=["dot", "json"], default=None)
    p.add_argument("--max-states", type=_cap, default=DEFAULT_MAX_STATES)
    p.add_argument("--jobs", type=_positive, default=1)
    p.set_defaults(func=_cmd_zero_automaton)

    p = sub.add_parser("min-height",
                       help="least H with a nonzero zero word, plus witness")
    _add_poly(p)
    p.add_argument("--max-h", type=_cap, default=None)
    p.add_argument("--max-states", type=_cap, default=DEFAULT_MAX_STATES)
    p.add_argument("--jobs", type=_positive, default=1)
    p.set_defaults(func=_cmd_min_height)

    p = sub.add_parser("count", help="count zero words of a given length")
    _add_poly(p)
    p.add_argument("--height", type=_positive, required=True)
    p.add_argument("--length", type=_cap, required=True)
    p.add_argument("--max-states", type=_cap, default=DEFAULT_MAX_STATES)
    p.add_argument("--jobs", type=_positive, default=1)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("sweep-quadratic",
                       help="criterion vs brute force over quadratic bases "
                            "(CSV)")
    p.add_argument("--a2-max", type=int, required=True)
    p.add_argument("--candidate-cap", type=_cap, default=10**7)
    p.add_argument("--jobs", type=_positive, default=1)
    p.set_defaults(func=_cmd_sweep_quadratic)

    return parser


def _fail(exc: Exception, code: int) -> int:
    print(jsonio.canonical_dumps({"error": {"type": type(exc).__name__,
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
