"""Command-line front end.

The table _COMMANDS states each subcommand once: its help, its handler
and its options.  A handler returns either a result dict, which main
prints as one object with two keys, "manifest" (input echo, tool and
Python versions, and the parsed caps as "limits"; nothing
time-dependent) and "result", or text that main prints as is:
--export json / --export dot print only the exported artifact so the
bytes depend on nothing but the computed object, and sweep-quadratic
prints CSV.

Exit codes: 0 success, 2 invalid input (ValueError family), 3 resource
or precision caps (RuntimeError family) and a stdout that takes no more
bytes (OSError).

The layers are reached only as attributes of their lazily registered
modules (``digits.periodic_points``), so a subcommand compiles only the
layers it runs, --version none of them and a usage error only jsonio.
``json`` and ``fractions`` are imported inside the helpers that use them.
"""

import argparse
import os
import sys

from . import (__version__, base, catalog, digits, jsonio, rational,
               zero_automaton)
from .errors import (DEFAULT_CANDIDATE_CAP, DEFAULT_MAX_STATES,
                     DEFAULT_ORBIT_STEPS, DEFAULT_RATIONAL_STEPS,
                     DigitSetError, PolynomialSyntaxError, read_decimal,
                     write_decimal, write_text)

def _json_int(v) -> int:
    import json

    if type(v) is not int:  # bools, floats and null are not digits
        raise DigitSetError(f"digit entry {write_text(v, json.dumps)} is not "
                             "an integer")
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
                    else _json_int(v) for v in json.loads(
                        s, parse_int=lambda t: read_decimal(t, "a digit"))]
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DigitSetError(f"bad digit list: {exc}") from exc
    try:
        return [read_decimal(tok, "a digit") for tok in s.split(",")]
    except ValueError as exc:
        raise DigitSetError(f"bad digit list {write_text(text)}") from exc


def _int_at_least(text: str, low: int) -> int:
    """An argparse type; it never sees its flag, so a token past the
    int-to-str limit is named as "an integer option"."""
    try:
        value = read_decimal(text, "an integer option")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {write_text(text)}") from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"must be at least {low}, got {write_decimal(value)}")
    return value


def _cap(text: str) -> int:
    """argparse type of the caps, --length and --a2-max: an integer >= 0."""
    return _int_at_least(text, 0)


def _positive(text: str) -> int:
    """argparse type of --jobs and --height: an integer >= 1."""
    return _int_at_least(text, 1)


def _int_value(token: str) -> int:
    """One of the integer values of `rational`; a bad one is a usage
    error naming the argument, in argparse's words."""
    try:
        return read_decimal(token, "a value")
    except ValueError:
        raise UsageError("algdigits rational: argument values: invalid int "
                         f"value: {write_text(token)}") from None


def _parse_rational_base(text: str) -> tuple[int, int]:
    """'a/b' or 'a' in integers, reduced, with the sign on b."""
    from fractions import Fraction

    num, slash, den = text.partition("/")
    try:
        f = Fraction(read_decimal(num, "the base"),
                     read_decimal(den, "the base") if slash else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise PolynomialSyntaxError(
            f"bad rational base {write_text(text)}") from exc
    p, q = f.numerator, f.denominator
    if p >= 0:  # a base 0 keeps its signs, so the error names it as given
        return p, q
    return -p, -q


def _record_out(alpha, record) -> dict:
    """An orbit record, each element as alpha.display shows it."""
    def show(elements):
        return list(map(alpha.display, elements))
    tail = {name: getattr(record.tail, name) for name in record.tail.__slots__}
    if "elements" in tail:  # a cycle
        tail["elements"] = show(tail["elements"])
    return {"start": alpha.display(record.start),
            "digits": show(record.digits), "states": show(record.states),
            "tail": {"kind": record.tail.kind, **tail}}


# -- subcommand bodies ------------------------------------------------------
# Each returns a result dict, which main prints under its manifest, or the
# text to print as is.


def _cmd_analyze(args) -> dict:
    alpha = base.make_base(args.poly)
    result = {
        "poly": str(alpha.min_poly),
        "coeffs": alpha.min_poly.coeffs,
        "degree": alpha.degree,
        "monic": alpha.is_monic,
        "irreducibility": alpha.irreducibility,
        "classification": alpha.classification.value,
        "supports_height_reduction": alpha.supports_height_reduction,
        "n_expanding": alpha.n_expanding,
        "n_unit": alpha.n_unit,
        "n_contracting": alpha.n_contracting,
        "conjugate_moduli": alpha.conjugate_moduli(),
        "rational_view": alpha.rational_view,
        "residue_modulus": alpha.residue_modulus,
    }
    try:
        bounds = base.card_bounds(alpha)
        result["card_lower"] = bounds.lower
        result["card_upper"] = bounds.upper
    except ValueError:
        result["card_lower"] = None
        result["card_upper"] = None
    return result


def _cmd_classify(args) -> dict:
    alpha = base.make_base(args.poly)
    report = catalog.classify_f_index(alpha)
    f2 = catalog.f2_analysis(alpha)
    result = report.to_json_dict()
    result["poly"] = str(alpha.min_poly)
    result["f2"] = {"verdict": f2.verdict.value, "reason": f2.reason}
    return result


def _cmd_expand(args) -> dict:
    import json

    alpha = base.make_base(args.poly)
    digit_set = digits.as_digit_set(alpha, _parse_digit_list(args.digits))
    try:
        value = (json.loads(args.value, parse_int=lambda t: read_decimal(
            t, "a coordinate")) if args.value.strip().startswith("[")
            else read_decimal(args.value, "the value"))
    except (ValueError, RecursionError):  # json.JSONDecodeError is one
        raise UsageError(f"algdigits expand: argument --value: invalid "
                         "integer or coordinate list: "
                         f"{write_text(args.value)}") from None
    record = digits.orbit(alpha.element(value), digit_set, args.max_steps)
    result = _record_out(alpha, record)
    result["replay_ok"] = record.replay(alpha)
    return result


def _cmd_periodic(args) -> dict:
    alpha = base.make_base(args.poly)
    pset = digits.periodic_points(alpha, _parse_digit_list(args.digits),
                                  candidate_cap=args.candidate_cap)
    return {
        "elements": list(map(alpha.display, pset.elements)),
        "cycles": [list(map(alpha.display, c)) for c in pset.cycles],
        "count": len(pset.elements),
        "is_trivial": pset.is_trivial,
        "candidates_scanned": pset.candidates_scanned,
        "bounds": {
            "k_sigma": [str(v) for v in pset.bounds.k_sigma],
            "per_conjugate": [str(v) for v in pset.bounds.per_conjugate],
            "c": str(pset.bounds.c),
        },
    }


def _cmd_is_ns(args) -> dict:
    alpha = base.make_base(args.poly)
    digit_set = _parse_digit_list(args.digits)  # None: the canonical digits
    if digit_set is not None:
        digit_set = digits.as_digit_set(alpha, digit_set)
    pset = digits.periodic_points(alpha, digit_set,
                                  candidate_cap=args.candidate_cap)
    is_ns, spans = digits.verdicts(alpha, pset)
    return {
        "is_number_system": is_ns,
        "spans_ring": spans,
        "contains_zero": digit_set is None or digit_set.contains_zero,
        "periodic_count": len(pset.elements),
    }


def _cmd_rational(args) -> dict:
    a, b = _parse_rational_base(args.base)
    ds = rational.digit_set_rational(a, b, _parse_digit_list(args.digits))

    if args.action == "verify":
        props = rational.verify_digit_properties(ds)
        return {
            "a": a, "b": b,
            "regime": ds.regime.value,
            "digits": ds.digits,
            "properties": props,
            "transducer_ready": props["plus_b"] and props["minus_b"],
        }

    if args.action == "expand":
        if not args.values:
            raise DigitSetError("expand needs at least one integer argument")
        rows = []
        for raw in args.values:
            k = _int_value(raw)
            word = rational.expand_int(ds, k, args.max_steps)
            rows.append({
                "value": k,
                "digits_lsb": word,
                "length": len(word),
                "check": rational.value_of(word, ds.alpha) == k,
            })
        return {"a": a, "b": b, "regime": ds.regime.value,
                "expansions": rows}

    # transduce
    word = tuple(_int_value(v) for v in args.values)
    start = -ds.b if args.subtract else ds.b
    out = rational.transduce(rational.AdditionTransducer(ds), start, word)
    in_val = rational.value_of(word, ds.alpha)
    out_val = rational.value_of(out, ds.alpha)
    return {
        "a": a, "b": b,
        "input_lsb": word,
        "start_carry": start,
        "output_lsb": out,
        "input_value": in_val,
        "output_value": out_val,
        "delta": out_val - in_val,
        "check": out_val - in_val == (-ds.b if args.subtract else ds.b),
    }


def _cmd_zero_automaton(args) -> dict | str:
    alpha = base.make_base(args.poly)
    auto = zero_automaton.build_zero_automaton(alpha, args.height,
                                               max_states=args.max_states)
    if args.trim:
        auto = auto.trim()
    if args.export == "json":
        return jsonio.canonical_dumps(auto.to_json_dict())
    if args.export == "dot":
        return auto.to_dot()
    found = auto.shortest_nonzero_word()
    return {
        "poly": str(alpha.min_poly),
        "H": args.height,
        "trimmed": auto.trimmed,
        "n_states": auto.n_states,
        "n_edges": auto.n_edges,
        "has_nontrivial_word": found is not None,
        "shortest_nonzero_word": found and found.word,
    }


def _cmd_min_height(args) -> dict:
    alpha = base.make_base(args.poly)
    report = zero_automaton.min_height(alpha, args.max_h,
                                       max_states=args.max_states)
    return {
        "poly": str(alpha.min_poly),
        "h_star": report.h_star,
        "word": report.word,
        "witness": str(report.witness),
        "witness_coeffs": report.witness.coeffs,
        "value_check": report.value_check,
        "searched": report.searched,
    }


def _cmd_count(args) -> dict:
    alpha = base.make_base(args.poly)
    auto = zero_automaton.build_zero_automaton(
        alpha, args.height, max_states=args.max_states).trim()
    est, residual = auto.growth_rate()
    return {
        "poly": str(alpha.min_poly),
        "H": args.height,
        "length": args.length,
        "count": auto.count_words(args.length),
        "growth_rate": est,
        "growth_residual": residual,
    }


def _cmd_sweep_quadratic(args) -> str:
    rows = catalog.sweep_quadratic(args.a2_max,
                                   candidate_cap=args.candidate_cap)
    return "\n".join(["a1,a2,criterion,brute_force,agree"] + [
        f"{row.a1},{row.a2},{row.criterion},{row.brute_force},{row.agree}"
        for row in rows])


# -- parser -----------------------------------------------------------------


class UsageError(ValueError):
    """The command line does not match the parser."""


class _Parser(argparse.ArgumentParser):
    """Raises usage errors (exit 2) instead of printing usage text, each
    token over 100 characters named by its length as errors.write_text
    names it; subcommand parsers inherit the class."""

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        for token in sorted(getattr(self, "_tokens", ()), key=len)[::-1]:
            if len(token) > 100:  # quoted as in "invalid choice", else bare
                message = message.replace(repr(token), write_text(token))
                message = message.replace(token, write_text(token, str))
        raise UsageError(f"{self.prog}: {message}")


# Options that several subcommands share: (flag, add_argument keywords).
_POLY = ("--poly", dict(required=True,
                        help="polynomial text ('x^2+2x+2') or coefficient "
                             "list ('[2,2,1]', ascending)"))
_DIGITS = ("--digits", {})
_CANDIDATE_CAP = ("--candidate-cap", dict(type=_cap,
                                          default=DEFAULT_CANDIDATE_CAP))
_JOBS = ("--jobs", dict(type=_positive, default=1))
_MAX_STATES = ("--max-states", dict(type=_cap, default=DEFAULT_MAX_STATES))
_HEIGHT = ("--height", dict(type=_positive, required=True))

# Each subcommand once: name -> (help, handler, options in --help order).
_COMMANDS = {
    "analyze": ("classify a base polynomial", _cmd_analyze, [_POLY]),
    "classify": ("digit-cardinality bounds and certificates", _cmd_classify,
                 [_POLY]),
    "expand": ("backward-division expansion of a value", _cmd_expand, [
        _POLY,
        ("--value", dict(required=True,
                         help="integer or coordinate list '[c0,c1,...]'")),
        ("--digits", dict(help="digit values, '0,1,2' or JSON list; "
                               "default {0..|M(0)|-1}")),
        ("--max-steps", dict(type=_cap, default=DEFAULT_ORBIT_STEPS))]),
    "periodic": ("all periodic points of the digit map", _cmd_periodic,
                 [_POLY, _DIGITS, _CANDIDATE_CAP]),
    "is-ns": ("number-system and ring-spanning verdicts", _cmd_is_ns,
              [_POLY, _DIGITS, _CANDIDATE_CAP]),
    "rational": ("rational-base digit sets and the carry automaton",
                 _cmd_rational, [
        ("--base", dict(required=True, help="a/b, e.g. '3/2' or '-5/2'")),
        _DIGITS,
        ("--max-steps", dict(type=_cap, default=DEFAULT_RATIONAL_STEPS)),
        ("action", dict(choices=["expand", "verify", "transduce"])),
        ("values", dict(nargs="*",
                        help="integers to expand, or the LSB-first input "
                             "word for transduce")),
        ("--subtract", dict(action="store_true",
                            help="transduce: subtract b instead of adding "
                                 "it"))]),
    "zero-automaton": ("the automaton of height-H zero words",
                       _cmd_zero_automaton, [
        _POLY, _HEIGHT, ("--trim", dict(action="store_true")),
        ("--export", dict(choices=["dot", "json"])), _MAX_STATES, _JOBS]),
    "min-height": ("least H with a nonzero zero word, plus witness",
                   _cmd_min_height,
                   [_POLY, ("--max-h", dict(type=_cap)), _MAX_STATES]),
    "count": ("count zero words of a given length", _cmd_count, [
        _POLY, _HEIGHT, ("--length", dict(type=_cap, required=True)),
        _MAX_STATES]),
    "sweep-quadratic": ("criterion vs brute force over quadratic bases "
                        "(CSV)", _cmd_sweep_quadratic, [
        ("--a2-max", dict(type=_cap, required=True)), _CANDIDATE_CAP, _JOBS]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser, with options for the named subcommand only.  The others
    keep their name and help, so the choices, the top-level --help and
    "invalid choice" read the same."""
    parser = _Parser(
        prog="algdigits",
        description="Exact digit systems, zero automata and digit-set "
                    "cardinality over algebraic bases.")
    parser.add_argument("--version", action="version",
                        version=f"algdigits {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            p.set_defaults(func=func)
            for flag, spec in options:
                p.add_argument(flag, **spec)
    return parser


def _fail(exc: Exception, code: int) -> int:
    try:
        print(jsonio.canonical_dumps({"error": {"type": type(exc).__name__,
                                         "message": str(exc)}}),
              file=sys.stderr)
    except OSError:  # stderr takes no more bytes: the code alone reports
        _to_devnull(sys.stderr)
    return code


def _to_devnull(stream) -> None:
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


# The parsed options that a manifest echoes as its limits.
_CAPS = ("candidate_cap", "jobs", "max_h", "max_states", "max_steps")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # --version and -h take no value, so the first token that is no
        # option names the subcommand that argparse runs.
        command = next((t for t in argv if not t.startswith("-")), None)
        args = build_parser(command).parse_args(argv)
        out = args.func(args)
        if isinstance(out, dict):
            # analyze and classify take no cap; they echo the root width.
            limits = ({name: value for name, value in vars(args).items()
                       if name in _CAPS}
                      or {"precision": str(base.DEFAULT_WIDTH)})
            out = jsonio.canonical_dumps({"manifest": {
                "tool": "algdigits", "version": __version__,
                "command": args.command, "argv": argv,
                "python": sys.version.split()[0], "limits": limits},
                "result": out})
        print(out)
        sys.stdout.flush()
    except ValueError as exc:
        return _fail(exc, 2)
    except RuntimeError as exc:
        return _fail(exc, 3)
    except OSError as exc:
        return _stdout_lost(exc)
    return 0


def _stdout_lost(exc: OSError) -> int:
    """stdout took no more bytes: its reader closed it (BrokenPipeError)
    or its device is full.  As in the signal module's docs, point stdout
    at devnull, so that a later flush raises nothing."""
    _to_devnull(sys.stdout)
    return _fail(exc, 3)


def run() -> None:
    """The process entry of the console script and of python -m
    algdigits.cli: main, a flush of stdout and stderr, then os._exit.  The
    CLI holds no file, thread or atexit handler, so the interpreter's
    teardown would only free memory; the flush keeps every output byte.
    argparse writes --version and --help to the stdout buffer and exits,
    so a closed reader or a full device surfaces at this flush."""
    try:
        code = main()
    except SystemExit as exc:  # --version, --help
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _stdout_lost(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
