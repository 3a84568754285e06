"""End-to-end checks of the command-line interface: JSON shape, exit
codes, determinism."""

import argparse
import ast
import contextlib
import inspect
import io
import json
import math
import os
import platform
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import algdigits
from algdigits.cli import _cap, _parse_rational_base, _positive, main
from algdigits.errors import (ResourceCapError, printable_check,
                              write_decimal, write_text)
from algdigits.jsonio import encode_value
from algdigits.zero_automaton import build_zero_automaton


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def _choices(parser) -> dict:
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def _subparsers() -> dict:
    """Each subcommand's parser, built by the build_parser that names it."""
    return {command: _choices(algdigits.cli.build_parser(command))[command]
            for command in _choices(algdigits.cli.build_parser())}


class TestAnalyze:
    def test_gaussian(self, capsys):
        payload = run_json(capsys, "analyze", "--poly", "x^2+2x+2")
        assert set(payload) == {"manifest", "result"}
        result = payload["result"]
        assert result["classification"] == "ExpandingInteger"
        assert result["degree"] == 2
        assert result["monic"] is True
        assert result["supports_height_reduction"] is True
        assert result["card_lower"] == 2 and result["card_upper"] == 3
        assert result["residue_modulus"] == 2
        lo, hi = result["conjugate_moduli"][0]
        assert Fraction(lo) <= Fraction(hi)
        assert Fraction(lo) > 1

    def test_mixed_has_null_bounds(self, capsys):
        result = run_json(capsys, "analyze", "--poly", "x^2-x-1")["result"]
        assert result["classification"] == "Mixed"
        assert result["card_lower"] is None
        assert result["card_upper"] is None

    @pytest.mark.parametrize("argv", [
        ["--poly", "x^16-200x^2+40x-2"],
        ["--poly", "x^12-200x^2+40x-2"],
    ])
    def test_clustered_roots_are_certified(self, capsys, argv):
        # A root pair at about 0.1 +- 3.0e-9 i, which no box around the
        # float seeds certifies.
        result = run_json(capsys, "analyze", *argv)["result"]
        assert result["classification"] == "Mixed"
        assert result["n_contracting"] == 2

    def test_manifest_fields(self, capsys):
        payload = run_json(capsys, "analyze", "--poly", "x-2")
        manifest = payload["manifest"]
        assert manifest["tool"] == "algdigits"
        assert manifest["command"] == "analyze"
        assert manifest["argv"] == ["analyze", "--poly", "x-2"]
        # No computation uses a third-party library, so none is listed.
        assert "libs" not in manifest
        assert manifest["python"] == platform.python_version()

    def test_cyclotomic_counts_are_integers(self, capsys):
        result = run_json(capsys, "analyze", "--poly",
                          "x^4+x^3+x^2+x+1")["result"]
        assert result["classification"] == "RootOfUnity"
        counts = [result[k] for k in ("n_expanding", "n_unit",
                                      "n_contracting")]
        assert counts == [0, 4, 0]
        assert all(type(c) is int for c in counts)

    def test_cyclotomic_above_degree_32_is_root_of_unity(self, capsys):
        # Phi_37 has degree 36; Kronecker's theorem needs no degree cap,
        # and neither does the irreducibility test.
        result = run_json(capsys, "analyze", "--poly",
                          json.dumps([1] * 37))["result"]
        assert result["classification"] == "RootOfUnity"
        assert result["n_unit"] == 36
        assert result["irreducibility"] == "verified"

    @pytest.mark.parametrize("argv, classification, expanding", [
        (["analyze", "--poly", "x^31-1000000x^30+1"], "Mixed", 1),
    ])
    def test_far_apart_or_fine_moduli_print(self, capsys, argv,
                                            classification, expanding):
        # The root boxes stay on a dyadic grid near the default width,
        # so no modulus endpoint reaches Python's 4300-digit limit on
        # int-to-str conversion.
        result = run_json(capsys, *argv)["result"]
        assert result["classification"] == classification
        assert result["n_expanding"] == expanding
        for lo, hi in result["conjugate_moduli"]:
            assert 0 < Fraction(lo) <= Fraction(hi)

    def test_argv_decides_the_output(self, capsys, monkeypatch):
        # No environment variable reaches a computation: the argv echoed
        # in the manifest fixes every byte.
        argv = ["periodic", "--poly", "x^3+3"]
        plain = run(capsys, *argv)
        monkeypatch.setenv("ALGDIGITS_PRECISION", "1/2")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0


class TestClassify:
    def test_base_two(self, capsys):
        result = run_json(capsys, "classify", "--poly", "x-2")["result"]
        assert (result["lower"], result["upper"], result["exact"]) == (3, 3, 3)
        assert result["f2"]["verdict"] == "ExcludedByM1"
        assert any(c[0] == "rational-degenerate"
                   for c in result["certificates"])

    def test_exact_when_the_bounds_meet(self, capsys):
        result = run_json(capsys, "classify", "--poly", "x^2-2")["result"]
        assert (result["lower"], result["upper"], result["exact"]) == (3, 3, 3)
        assert result["certificates"][-1] == [
            "bounds-meet", "Card(S) = 3",
            "after the criteria above, Card(S) >= 3 and Card(S) <= 3"]


class TestExpand:
    def test_integer_value(self, capsys):
        result = run_json(capsys, "expand", "--poly", "x+2",
                          "--value", "7")["result"]
        assert result["digits"] == [1, 1, 0, 1, 1]
        assert result["tail"] == {"kind": "terminated"}
        assert result["replay_ok"] is True

    def test_coordinate_value(self, capsys):
        result = run_json(capsys, "expand", "--poly", "x^2+2x+2",
                          "--value", "[5,0]")["result"]
        assert result["replay_ok"] is True
        assert result["start"] == [5, 0]

    def test_degree_one_coordinate_value(self, capsys):
        listed = run_json(capsys, "expand", "--poly", "x+2",
                          "--value", "[7]")["result"]
        plain = run_json(capsys, "expand", "--poly", "x+2",
                         "--value", "7")["result"]
        assert listed == plain

    def test_degree_one_long_coordinates_exit_2(self, capsys):
        code, out, err = run(capsys, "expand", "--poly", "x+2",
                             "--value", "[1,2]")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_cycle_tail(self, capsys):
        result = run_json(capsys, "expand", "--poly", "x-2",
                          "--value", "-1")["result"]
        assert result["tail"]["kind"] == "cycle"
        assert result["tail"]["elements"] == [-1]

    def test_explicit_digits(self, capsys):
        result = run_json(capsys, "expand", "--poly", "x+2",
                          "--digits", "1,2", "--value", "0",
                          "--max-steps", "50")["result"]
        assert result["tail"]["kind"] == "cycle"


class TestPeriodicAndNs:
    def test_periodic(self, capsys):
        result = run_json(capsys, "periodic", "--poly", "x-2")["result"]
        assert result["elements"] == [-1, 0]
        assert result["count"] == 2
        assert result["is_trivial"] is False
        assert result["bounds"]["c"] == "2"

    def test_is_ns(self, capsys):
        result = run_json(capsys, "is-ns", "--poly", "x^2+2x+2")["result"]
        assert result["is_number_system"] is True
        assert result["spans_ring"] is True

    def test_spans_without_ns(self, capsys):
        result = run_json(capsys, "is-ns", "--poly", "x+2",
                          "--digits", "1,2")["result"]
        assert result["is_number_system"] is False
        assert result["spans_ring"] is True
        assert result["contains_zero"] is False


class TestRational:
    def test_verify(self, capsys):
        result = run_json(capsys, "rational", "--base", "5/2",
                          "verify")["result"]
        assert result["regime"] == "positive-b"
        assert result["digits"] == [-2, 0, 1, 2, 4]
        assert result["transducer_ready"] is True

    def test_expand(self, capsys):
        result = run_json(capsys, "rational", "--base", "5/2",
                          "expand", "7", "-3")["result"]
        first, second = result["expansions"]
        assert first["digits_lsb"] == [2, 2]
        assert first["check"] is True and second["check"] is True

    def test_transduce(self, capsys):
        # a leading-dash value needs the attached form --base=-3/2
        result = run_json(capsys, "rational", "--base=-3/2",
                          "transduce", "0")["result"]
        assert result["output_lsb"] == [1, 2]
        assert result["delta"] == -2
        assert result["check"] is True

    def test_cycling_digit_set_names_the_cycle(self, capsys):
        code, out, err = run(capsys, "rational", "--base=-3/2",
                             "--digits", "0,1,5", "expand", "7")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "DigitSetError"
        assert "[-4, 6]" in error["message"]

    def test_digit_set_without_zero(self, capsys):
        result = run_json(capsys, "rational", "--base=-2/1",
                          "--digits", "1,2", "expand", "1")["result"]
        (row,) = result["expansions"]
        assert row["digits_lsb"] == [1] and row["check"] is True

    def test_transduce_subtract(self, capsys):
        result = run_json(capsys, "rational", "--base", "5/2",
                          "transduce", "1", "4", "--subtract")["result"]
        assert result["check"] is True
        assert result["delta"] == -2

    @pytest.mark.parametrize("sign", [[], ["--subtract"]])
    def test_transduce_non_digit_exits_2(self, capsys, sign):
        code, out, err = run(capsys, "rational", "--base", "5/2",
                             "transduce", "1", "3", *sign)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "DigitSetError", "message": "3 is not a digit of the set"}

    @pytest.mark.parametrize("text, pair", [
        ("6/4", (3, 2)), ("-6/4", (3, -2)), ("-0/1", (0, 1)), ("7", (7, 1)),
        (" 3/2 ", (3, 2))])
    def test_base_is_a_over_b_or_a(self, text, pair):
        assert _parse_rational_base(text) == pair

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(a=st.integers(0, 10**6), b=st.integers(1, 10**6),
           k=st.integers(1, 10**6), s=st.sampled_from([1, -1]))
    def test_base_is_reduced_with_the_sign_on_b(self, a, b, k, s):
        assume(math.gcd(a, b) == 1)
        expected = (a, b) if s > 0 or a == 0 else (a, -b)
        assert _parse_rational_base(f"{s * k * a}/{k * b}") == expected


@st.composite
def _small_base(draw):
    """Ascending coefficients of a base of degree 1-3 with small
    coefficients: a/b in degree one, monic above."""
    degree = draw(st.integers(1, 3))
    lead = draw(st.integers(1, 3)) if degree == 1 else 1
    return draw(st.lists(st.integers(-3, 3), min_size=degree,
                         max_size=degree)) + [lead]


class TestZeroAutomaton:
    def test_summary(self, capsys):
        result = run_json(capsys, "zero-automaton", "--poly", "x-2",
                          "--height", "2", "--trim")["result"]
        assert result["has_nontrivial_word"] is True
        assert result["shortest_nonzero_word"] == [-1, 2]

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(coeffs=_small_base(), height=st.integers(1, 2),
           trim=st.booleans())
    def test_nontrivial_word_is_a_nonzero_trimmed_edge(self, coeffs, height,
                                                        trim):
        # has_nontrivial_word comes from the shortest-word search; in a
        # trim Z(H) every edge lies on a path from 0 back to 0.
        argv = ["zero-automaton", f"--poly={coeffs}", f"--height={height}",
                "--max-states=300"] + (["--trim"] if trim else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assume(code == 0)
        trimmed = build_zero_automaton(coeffs, height).trim()
        assert (json.loads(out.getvalue())["result"]["has_nontrivial_word"]
                == any(d != 0 for row in trimmed.rows for d, _j in row))

    def test_export_json(self, capsys):
        code, out, err = run(capsys, "zero-automaton", "--poly", "x-2",
                             "--height", "2", "--export", "json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"H", "base", "states", "transitions",
                                "initial", "final"}

    def test_export_deterministic_across_jobs(self, capsys):
        outs = []
        for jobs in ("1", "4"):
            code, out, _err = run(capsys, "zero-automaton", "--poly",
                                  "x^2+2x+2", "--height", "2",
                                  "--export", "json", "--jobs", jobs)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_export_dot(self, capsys):
        code, out, _err = run(capsys, "zero-automaton", "--poly", "x-2",
                              "--height", "1", "--export", "dot")
        assert code == 0
        assert out.startswith("digraph")


class TestMinHeight:
    def test_fixture(self, capsys):
        result = run_json(capsys, "min-height", "--poly", "x^2-x-1")["result"]
        assert result["h_star"] == 1
        assert result["word"] == [-1, 1, 1]
        assert result["witness_coeffs"] == [1, 1, -1]
        assert result["value_check"] is True

    def test_cap_exit(self, capsys):
        code, out, err = run(capsys, "min-height", "--poly", "x-2",
                             "--max-h", "1")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ResourceCapError"


class TestCount:
    def test_zero_length(self, capsys):
        result = run_json(capsys, "count", "--poly", "x-2", "--height", "2",
                          "--length", "0")["result"]
        assert result["count"] == 1

    def test_growth(self, capsys):
        result = run_json(capsys, "count", "--poly", "x^2+2x+2",
                          "--height", "2", "--length", "7")["result"]
        assert result["count"] == 115
        assert 2.4 < result["growth_rate"] < 2.6

    def test_constant_count_returns_at_once(self):
        # The trimmed Z(1) of 2 is the state 0 with its loop of digit 0:
        # the count vector is fixed after one step, so 10^11 steps (hours
        # of walking) are not taken.
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "algdigits.cli", "count", "--poly", "x-2",
             "--height", "1", "--length", "100000000000"],
            capture_output=True, text=True, timeout=120)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["count"] == 1


class TestOutputLimit:
    @pytest.fixture(autouse=True)
    def default_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(saved)

    def test_encode_value_names_the_limit(self):
        assert encode_value(10**4300 - 1) == "9" * 4300
        assert encode_value(algdigits.Classification.MIXED) == "Mixed"
        for value in (10**4300, -10**4300, Fraction(1, 10**4300)):
            with pytest.raises(ResourceCapError,
                               match="of 14285 bits exceeds the limit of "
                                     "4300 decimal digits"):
                encode_value(value)

    def test_huge_count_exits_3(self, capsys):
        # The count at length 6000 would have 16,203 bits, about 4,880
        # decimal digits; the walk stops at the first length whose count
        # reaches 10^4300.
        code, out, err = run(capsys, "count", "--poly", "x-2", "--height",
                             "6", "--length", "6000")
        assert code == 3 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ResourceCapError"
        assert error["message"] == (
            "the word count reaches the limit of 4300 decimal digits for "
            "int-to-str conversion at length 5290, with 14286 bits")

    def test_count_cap_trips_before_the_work(self, capsys):
        # A million steps would take minutes; the cap stops the walk at
        # length 11,235, and the count one step earlier still prints.
        start = time.perf_counter()
        code, out, err = run(capsys, "count", "--poly", "x-2", "--height",
                             "2", "--length", "1000000")
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert json.loads(err)["error"]["message"] == (
            "the word count reaches the limit of 4300 decimal digits for "
            "int-to-str conversion at length 11235, with 14285 bits")
        count = run_json(capsys, "count", "--poly", "x-2", "--height", "2",
                         "--length", "11234")["result"]["count"]
        assert len(count) == 4300

    def test_no_count_cap_without_a_limit(self):
        auto = build_zero_automaton("x-2", 2).trim()
        sys.set_int_max_str_digits(0)
        assert auto.count_words(11235).bit_length() == 14285

    def test_orbit_cap_trips_before_the_work(self):
        # A contracting conjugate makes the states grow; without the cap
        # the orbit ran all 10,000 steps, for about 8 s, before the
        # output limit refused a state.
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "algdigits.cli", "expand", "--poly",
             "x^16-200x^2+40x-2", "--value", "17"],
            capture_output=True, text=True, timeout=120)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == {
            "type": "ResourceCapError",
            "message": "an orbit state reaches the limit of 4300 decimal "
                       "digits for int-to-str conversion at step 4295, "
                       "with 14288 bits"}

    @pytest.mark.parametrize("argv", [
        ["expand", "--poly", "x-10000019", "--value", "5"],
        ["is-ns", "--poly", "x-10000019"],
        ["rational", "--base", "10000019/2", "verify"]])
    def test_canonical_digit_cap_trips_before_the_set(self, argv):
        # Building the 10,000,019 canonical digits took seconds and
        # hundreds of MB; the cap refuses the set before any is built.
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "algdigits.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == {
            "type": "ResourceCapError",
            "message": "the canonical digit set has 10000019 digits, more "
                       "than the cap of 10000000"}

    @pytest.mark.parametrize("argv", [
        ["is-ns", "--poly", "x^2+2x+2", "--digits", "0," + "9" * 4301],
        ["is-ns", "--poly", "x^2+2x+2", "--digits", f"[0,{'9' * 4301}]"],
        ["expand", "--poly", "x+2", "--value", "9" * 4301],
        ["expand", "--poly", "x^2+2x+2", "--value", f"[1,{'9' * 4301}]"],
        ["rational", "--base", "3/2", "expand", "9" * 4301],
        ["rational", "--base", "3/2", "transduce", "9" * 4301],
        ["rational", "--base", "9" * 4301, "verify"]],
        ids=["digits", "digits-json", "value", "value-json",
             "rational-expand", "rational-transduce", "base"])
    def test_integer_past_the_limit_names_its_digits(self, capsys, argv):
        # As --poly does: the digit count and the limit, not the token.
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and len(err) < 1000
        error = json.loads(err)
        assert list(error) == ["error"]
        assert error["error"]["type"] == "ResourceCapError"
        assert " 4301 " in error["error"]["message"]
        assert " 4300 " in error["error"]["message"]

    @pytest.mark.parametrize("base", ["1.5", "1e5000", "1e-5000",
                                      "1e20000000"])
    def test_base_reads_integers_only(self, capsys, base):
        # Fraction's decimal and exponent grammar built 10^20,000,000 for
        # half a minute before the int-to-str limit refused to print it.
        start = time.perf_counter()
        code, out, err = run(capsys, "rational", "--base", base, "verify")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and len(err) < 1000
        assert json.loads(err)["error"] == {
            "type": "PolynomialSyntaxError",
            "message": f"bad rational base {base!r}"}

    # Every option whose argparse type is _cap or _positive, with the
    # rest of a command line that parses.
    INTEGER_OPTIONS = {
        ("expand", "--max-steps"): ["--poly", "x+2", "--value", "5"],
        ("rational", "--max-steps"): ["--base", "3/2", "expand", "7"],
        ("periodic", "--candidate-cap"): ["--poly", "x-3"],
        ("is-ns", "--candidate-cap"): ["--poly", "x+2"],
        ("zero-automaton", "--height"): ["--poly", "x-2"],
        ("zero-automaton", "--max-states"): ["--poly", "x-2", "--height", "1"],
        ("zero-automaton", "--jobs"): ["--poly", "x-2", "--height", "1"],
        ("min-height", "--max-h"): ["--poly", "x-2"],
        ("min-height", "--max-states"): ["--poly", "x-2"],
        ("count", "--height"): ["--poly", "x-2", "--length", "2"],
        ("count", "--length"): ["--poly", "x-2", "--height", "1"],
        ("count", "--max-states"): ["--poly", "x-2", "--height", "1",
                                    "--length", "2"],
        ("sweep-quadratic", "--a2-max"): [],
        ("sweep-quadratic", "--candidate-cap"): ["--a2-max", "1"],
        ("sweep-quadratic", "--jobs"): ["--a2-max", "1"]}

    def test_every_integer_option_is_listed(self):
        typed = {(command, action.option_strings[0]): action.type
                 for command, parser in _subparsers().items()
                 for action in parser._actions if action.type is not None}
        assert set(typed.values()) == {_cap, _positive}
        assert set(typed) == set(self.INTEGER_OPTIONS)

    @pytest.mark.parametrize("command, flag", sorted(INTEGER_OPTIONS),
                             ids=[" ".join(key)
                                  for key in sorted(INTEGER_OPTIONS)])
    def test_integer_option_past_the_limit_names_its_digits(self, capsys,
                                                            command, flag):
        # The parent echoed the 5,000-digit token in a 5.1 KB usage error.
        code, out, err = run(capsys, command, flag, "9" * 5000,
                             *self.INTEGER_OPTIONS[command, flag])
        assert code == 3 and out == "" and len(err) < 1000
        assert json.loads(err)["error"] == {
            "type": "ResourceCapError",
            "message": "an integer option of 5000 decimal digits exceeds "
                       "the limit of 4300 decimal digits for int-to-str "
                       "conversion"}

    def test_write_decimal_names_a_long_integer_by_its_bits(self):
        assert write_decimal(10**100 - 1) == "9" * 100
        assert write_decimal(-85766121) == "-85766121"
        assert write_decimal(10**100) == "(an integer of 333 bits)"
        assert write_decimal(-10**5000) == "-(an integer of 16610 bits)"

    _A = 10**4300 - 1
    _ODD = "1" + "0" * 3999 + "1"

    @pytest.mark.parametrize("argv, code, message", [
        (["periodic", "--poly", "x^2+2x+2", f"--digits=0,{_ODD}"], 3,
         "(an integer of 26581 bits) candidates exceed cap 10000000"),
        (["is-ns", "--poly", "x^2+2x+2", f"--digits=0,{_ODD}"], 3,
         "(an integer of 26581 bits) candidates exceed cap 10000000"),
        (["rational", "--base", f"{_A}/{_A - 1}", "verify"], 3,
         "the canonical digit set has (an integer of 14286 bits) digits, "
         "more than the cap of 10000000"),
        (["rational", "--base", f"{_A}/3", "verify"], 3,
         "the canonical digit set has (an integer of 14283 bits) digits, "
         "more than the cap of 10000000"),
        (["rational", "--base", f"{_A - 5}/{_A}", "verify"], 2,
         "need a > |b|, got a=(an integer of 14285 bits), "
         "b=(an integer of 14285 bits)"),
        (["expand", "--poly", f"x-{_A}", "--digits", "0,1", "--value", "5"],
         2, "need exactly (an integer of 14285 bits) digits, one per "
            "residue class mod (an integer of 14285 bits), got 2"),
        (["rational", "--base", "3/2", "--max-steps", "0", "expand",
          str(_A)], 3,
         "expansion of (an integer of 14285 bits) exceeded 0 steps"),
        (["rational", "--base=-3/2", "--digits", "0,1,5", "expand",
          str(_A)], 2,
         "(an integer of 14285 bits) has no finite expansion over the "
         "digits [0, 1, 5]: its orbit enters the cycle [2]"),
        (["zero-automaton", "--poly", "x-2", "--height", str(_A),
          "--max-states", "1"], 3,
         "state cap 1 exceeded at height (an integer of 14285 bits)"),
        (["count", "--poly", "x-2", "--height", "1", f"--length=-{_A}"], 2,
         "algdigits count: argument --length: must be at least 0, got "
         "-(an integer of 14285 bits)")],
        ids=["periodic", "is-ns", "canonical-past-the-limit",
             "canonical-at-the-limit", "need-a-above-b", "need-exactly",
             "expansion-steps", "expansion-cycle", "state-cap",
             "option-below-its-least"])
    def test_message_writes_a_long_integer_by_its_bits(self, capsys, argv,
                                                       code, message):
        # Python refused to print the integers of the first three rows;
        # each of the others made a message of 4.4 to 8.7 KB.
        got, out, err = run(capsys, *argv)
        assert (got, out) == (code, "") and len(err) < 1000
        assert json.loads(err)["error"]["message"] == message

    _N = "9" * 4000  # under the int-to-str limit, so it parses as an int

    @pytest.mark.parametrize("argv, message", [
        (["rational", "--base", f"{_N}.5", "verify"],
         "bad rational base (a text of 4004 characters)"),
        (["rational", "--base", "5/2", "--digits", f"0,1,{_N}x", "verify"],
         "bad digit list (a text of 4007 characters)"),
        (["is-ns", "--poly", "x+3", "--digits", f"0,{_N},1"],
         "residue collision mod 3: 0 and (an integer of 13288 bits) both "
         "lie in class 0"),
        (["rational", "--base", "5/2", "transduce", _N],
         "(an integer of 13288 bits) is not a digit of the set"),
        (["expand", "--poly", "x+3", "--value", f"{_N}x"],
         "algdigits expand: argument --value: invalid integer or "
         "coordinate list: (a text of 4003 characters)"),
        (["rational", "--base", "5/2", "expand", f"{_N}x"],
         "algdigits rational: argument values: invalid int value: "
         "(a text of 4003 characters)"),
        (["count", "--poly", "x-2", "--height", f"{_N}x", "--length", "3"],
         "algdigits count: argument --height: invalid int value: "
         "(a text of 4003 characters)"),
        (["analyze", "--poly", f"x^2+{_N}$"],
         "bad term (a text of 4004 characters) in "
         "(a text of 4007 characters)"),
        (["analyze", "--poly", f"x^2+{_N}+"],
         "cannot tokenize (a text of 4007 characters)"),
        (["analyze", "--poly", f"x^2+3^{_N}"],
         "exponent without variable in (a text of 4005 characters)"),
        (["is-ns", "--poly", "x+3", "--digits", f'[0,"{_N}",1]'],
         "digit entry (a text of 4002 characters) is not an integer"),
        (["expand", "--poly", "x^2+2x+2", "--value", f'[1,"{_N}"]'],
         "coordinate (a text of 4002 characters) is not an integer"),
        (["rational", "--base", "5/2", "--digits", f"[0,1,[{_N}]]",
          "verify"],
         "rational digit (a text of 4003 characters) is not an integer"),
        (["rational", "--base", "5/2", f"{_N}x"],
         "algdigits rational: argument action: invalid choice: (a text of "
         "4003 characters) (choose from 'expand', 'verify', 'transduce')"),
        (["zero-automaton", "--poly", "x-2", "--height", "1", "--export", _N],
         "algdigits zero-automaton: argument --export: invalid choice: "
         "(a text of 4002 characters) (choose from 'dot', 'json')"),
        ([_N],
         "algdigits: argument command: invalid choice: (a text of 4002 "
         "characters) (choose from 'analyze', 'classify', 'expand', "
         "'periodic', 'is-ns', 'rational', 'zero-automaton', 'min-height', "
         "'count', 'sweep-quadratic')"),
        (["analyze", "--poly", "x-2", _N],
         "algdigits: unrecognized arguments: (a text of 4000 characters)"),
        (["analyze", "--poly", "x-2", f"--{_N}"],
         "algdigits: unrecognized arguments: (a text of 4002 characters)")],
        ids=["base", "digit-list", "residue-collision", "transduce",
             "expand-value", "rational-value", "integer-option", "bad-term",
             "tokenize", "exponent", "json-digit", "coordinate",
             "rational-digit", "choice", "export-choice", "command-choice",
             "unrecognized", "unrecognized-option"])
    def test_message_names_a_long_input_by_its_length(self, capsys, argv,
                                                      message):
        # Each of these echoed the whole token, in 4.1 to 8.1 KB; the
        # last five are argparse's own messages.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and len(err) < 1000
        error = json.loads(err)
        assert list(error) == ["error"]
        assert error["error"]["message"] == message

    def test_write_text_names_a_long_input_by_its_length(self):
        assert write_text("x^2+") == "'x^2+'"
        assert write_text("9" * 98) == repr("9" * 98)  # 100 characters
        assert write_text("9" * 99) == "(a text of 101 characters)"
        assert write_text(["a", 1], json.dumps) == '["a", 1]'
        assert write_text(("9" * 99,), json.dumps) == (
            "(a text of 103 characters)")

    @pytest.mark.parametrize("degree", ["99999999999999999999", "100000000"])
    def test_degree_cap_trips_before_the_coefficients(self, degree):
        # [0] * (degree + 1) overflowed, ran out of memory or ran for
        # minutes; the cap refuses the degree before any list is built.
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "algdigits.cli", "analyze", "--poly",
             f"x^{degree}-2"], capture_output=True, text=True, timeout=120)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == {
            "type": "ResourceCapError",
            "message": f"the polynomial has degree {degree}, more than the "
                       "cap of 256"}

    @pytest.mark.parametrize("close_stderr", [False, True],
                             ids=["stderr-open", "stderr-closed"])
    def test_closed_stdout_exits_3(self, close_stderr):
        # 10.2 MB of truncated orbit; the reader takes 10 bytes and closes
        # the pipe while print is still writing.
        with subprocess.Popen(
                [sys.executable, "-m", "algdigits.cli", "expand", "--poly",
                 "x^3-x-1", "--value", "5"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.read(10) == b'{\n  "manif'
            proc.stdout.close()
            if close_stderr:
                proc.stderr.close()
                err = b""
            else:
                err = proc.stderr.read()
            assert proc.wait(timeout=120) == 3
        assert b"Traceback" not in err
        if not close_stderr:
            assert json.loads(err)["error"]["type"] == "BrokenPipeError"

    # Each argv with stdout or stderr a pipe whose reader is gone before
    # the child starts, or the full device, and the exit code it must give
    # with stdout buffered (no PYTHONUNBUFFERED) and unbuffered.  With
    # stdout buffered, --version and --help exited 120 with "Exception
    # ignored ... BrokenPipeError" on stderr; unbuffered, argparse drops
    # the failed write itself.  A usage error to a lost stderr exited 1 or
    # 120, and is-ns to the full device 120 with a traceback.
    LOST_STREAMS = [
        (["--version"], "stdout", {False: 3, True: 0}),
        (["--help"], "stdout", {False: 3, True: 0}),
        (["is-ns", "--poly", "x^2+2"], "stdout", {False: 3, True: 3}),
        (["is-ns", "--poly", "x^2+"], "stderr", {False: 2, True: 2})]

    @pytest.mark.parametrize("unbuffered", [False, True],
                             ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("sink", ["closed-pipe", "full-device"])
    @pytest.mark.parametrize("argv, lost, codes", LOST_STREAMS,
                             ids=[" ".join(argv) + f" {lost}"
                                  for argv, lost, _ in LOST_STREAMS])
    def test_lost_stream_exits_0_2_or_3(self, argv, lost, codes, sink,
                                        unbuffered):
        if sink == "full-device":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full")
            write = os.open("/dev/full", os.O_WRONLY)
        else:
            read, write = os.pipe()
            os.close(read)
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
                   lost: write}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "algdigits.cli", *argv], env=env,
                timeout=120, **streams)
        finally:
            os.close(write)
        err = proc.stderr or b""
        assert proc.returncode == codes[unbuffered]
        assert b"Traceback" not in err and b"Exception ignored" not in err
        if lost == "stdout" and proc.returncode == 3:
            assert json.loads(err)["error"]["type"] == (
                "BrokenPipeError" if sink == "closed-pipe" else "OSError")
        else:
            assert err == b""

    def test_orbit_below_the_cap_is_truncated(self, capsys):
        result = run_json(capsys, "expand", "--poly", "x^3-x-1",
                          "--value", "5")["result"]
        assert result["tail"] == {"kind": "truncated", "steps": 10000}
        top = max(abs(int(c)) for c in result["states"][-1])
        assert top.bit_length() == 2031

    def test_no_orbit_cap_without_a_limit(self):
        alpha = algdigits.make_base("x^16-200x^2+40x-2")
        digit_set = algdigits.as_digit_set(alpha)
        sys.set_int_max_str_digits(0)
        record = algdigits.orbit(17, digit_set, 4300)
        assert record.tail == algdigits.Truncated(4300)
        assert max(map(abs, record.states[4295])).bit_length() == 14288


class TestPrintableCheck:
    """errors.printable_check trips exactly at 10^N for an int-to-str
    limit of N digits, here the least limit that Python accepts."""

    @pytest.fixture(autouse=True)
    def limit_640(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(saved)

    def test_trips_at_ten_to_the_limit(self):
        check = printable_check("the word count", "length")
        check(10**640 - 1, 6)
        with pytest.raises(ResourceCapError) as exc:
            check(10**640, 7)
        assert str(exc.value) == (
            "the word count reaches the limit of 640 decimal digits for "
            "int-to-str conversion at length 7, with 2127 bits")

    def test_nothing_trips_without_a_limit(self):
        sys.set_int_max_str_digits(0)
        check = printable_check("a state", "step")
        for n in (0, 1, 10**640, 10**5000):
            check(n, 1)

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(k=st.integers(1 - 2**64, 2**64 - 1))
    def test_trips_exactly_from_ten_to_the_limit(self, k):
        check = printable_check("a state", "step")
        try:
            check(10**640 + k, 1)
        except ResourceCapError:
            tripped = True
        else:
            tripped = False
        assert tripped == (k >= 0)


class TestSweep:
    def test_csv(self, capsys):
        code, out, _err = run(capsys, "sweep-quadratic", "--a2-max", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a1,a2,criterion,brute_force,agree"
        assert len(lines) == 6
        assert all(line.endswith("True") for line in lines[1:])


class TestErrors:
    def test_bad_poly_exits_2(self, capsys):
        code, _out, err = run(capsys, "analyze", "--poly", "x^2 +")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "PolynomialSyntaxError"

    def test_reducible_exits_2(self, capsys):
        code, _out, err = run(capsys, "analyze", "--poly", "x^2-1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "InvalidPolynomialError"

    @pytest.mark.parametrize("command", ["analyze", "classify"])
    def test_reducible_above_degree_24_exits_2(self, capsys, command):
        # (x^13 + 2)(x^13 + 3): irreducibility is checked at every degree.
        code, out, err = run(capsys, command, "--poly", "x^26+5x^13+6")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "InvalidPolynomialError"
        assert "factors over Z" in error["message"]

    def test_unit_circle_exits_2(self, capsys):
        code, _out, err = run(capsys, "zero-automaton", "--poly",
                              "2x^2-3x+2", "--height", "1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "UnitCircleError"

    def test_state_cap_exits_3(self, capsys):
        code, _out, err = run(capsys, "zero-automaton", "--poly", "x^2+2x+2",
                              "--height", "2", "--max-states", "3")
        assert code == 3
        assert json.loads(err)["error"]["type"] == "ResourceCapError"

    def test_bad_digits_exit_2(self, capsys):
        code, _out, err = run(capsys, "periodic", "--poly", "x+2",
                              "--digits", "0,2")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "DigitSetError"

    @pytest.mark.parametrize("argv, message", [
        (["rational", "--base=-3/2", "--digits", "0,3,1", "verify"],
         "residue collision mod 3: 0 and 3 both lie in class 0"),
        (["expand", "--poly", "2x+3", "--digits", "0,3,1", "--value", "5"],
         "residue collision mod 3: 0 and 3 both lie in class 0"),
        (["rational", "--base", "3/2", "--digits", "0,1", "verify"],
         "need exactly 3 digits, one per residue class mod 3, got 2"),
        (["is-ns", "--poly", "x+3", "--digits", "0,x"],
         "bad digit list '0,x'"),
        (["is-ns", "--poly", "x+3", "--digits=0,,1,2"],
         "bad digit list '0,,1,2'"),
        (["rational", "--base", "5/2", "--digits=0,1,2,3,4,", "verify"],
         "bad digit list '0,1,2,3,4,'"),
        (["is-ns", "--poly", "x+3", "--digits="], "bad digit list ''"),
        (["is-ns", "--poly", "x+3", "--digits", "[0,"],
         "bad digit list: Expecting value: line 1 column 4 (char 3)"),
        (["rational", "--base", "5/2", "expand"],
         "expand needs at least one integer argument"),
    ])
    def test_digit_set_messages(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "DigitSetError",
                                            "message": message}

    @pytest.mark.parametrize("poly", ["5", "[5]", "0x^2+5"])
    def test_constant_polynomial_names_the_degree(self, capsys, poly):
        code, out, err = run(capsys, "analyze", "--poly", poly)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "InvalidPolynomialError",
            "message": "degree must be >= 1, got the constant 5"}

    @pytest.mark.parametrize("poly", ["[true,2]", "[2,false,1]", "[[2],1]"])
    def test_json_coefficients_are_integers_not_bools(self, capsys, poly):
        code, out, err = run(capsys, "analyze", "--poly", poly)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "PolynomialSyntaxError",
            "message": "coefficient list must contain integers only"}

    @pytest.mark.parametrize("argv, error", [
        (["expand", "--poly", "x+2", "--value", None], "UsageError"),
        (["rational", "--base", "5/2", "--digits", None, "verify"],
         "DigitSetError"),
        (["analyze", "--poly", None], "PolynomialSyntaxError")],
        ids=["value", "digits", "poly"])
    def test_deeply_nested_json_is_invalid_input(self, capsys, argv, error):
        # Too deep for json (a RecursionError), or deep enough to load
        # and then too deep to print back in a message.
        limit = sys.getrecursionlimit()
        for depth in [*range(limit - 300, limit + 20, 3), 50000]:
            nest = "[" * depth + "]" * depth
            code, out, err = run(capsys, *[nest if a is None else a
                                           for a in argv])
            assert (code, out) == (2, ""), depth
            assert set(json.loads(err)["error"]) == {"type", "message"}
        assert json.loads(err)["error"]["type"] == error

    def test_huge_coefficient_is_analyzed(self, capsys):
        # The roots are near 1.4e200; the coefficient is too large for a float.
        poly = "[-2" + "0" * 400 + ",0,1]"
        result = run_json(capsys, "analyze", "--poly", poly)["result"]
        assert result["classification"] == "ExpandingInteger"


    @pytest.mark.parametrize("argv", [
        ["expand", "--poly", "x+2", "--value", "[null]"],
        ["expand", "--poly", "x+2", "--value", "[1.5]"],
        ["expand", "--poly", "x+2", "--value", "[true]"],
        ["expand", "--poly", "x^2+2x+2", "--value", "[[1]]"],
        ["expand", "--poly", "x^2+2x+2", "--value", "[null]"],
        ["expand", "--poly", "x^2+2x+2", "--value", "[1.5]"],
        ["expand", "--poly", "x^2+2x+2", "--value", "[true]"],
        ["expand", "--poly", "x^2+2x+2", "--value", "[1,{}]"],
        ["is-ns", "--poly", "x^2+2x+2", "--digits", "[null,1]"],
        ["is-ns", "--poly", "x^2+2x+2", "--digits", "[0,1.7]"],
        ["is-ns", "--poly", "x^2+2x+2", "--digits", "[0,true]"],
        ["periodic", "--poly", "x^2+2x+2", "--digits", "[0,[1,false]]"],
        ["rational", "--base", "3/2", "--digits", "[0,1,2.5]", "verify"],
        ["rational", "--base", "3/2", "--digits", "[[0],[1],[2]]", "verify"],
    ])
    def test_non_integer_json_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert set(json.loads(err)["error"]) == {"type", "message"}

    @staticmethod
    def _refused_precision(capsys, precision):
        # The width is fixed, so every --precision value, however large,
        # fine or long its exponent, is refused by the argument parser
        # before any root is refined; a token over 100 characters is
        # named by its length.
        token = f"--precision={precision}"
        code, out, err = run(capsys, "analyze", "--poly", "x^2-2", token)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "UsageError",
            "message": "algdigits: unrecognized arguments: "
                       + write_text(token, str)}

    @pytest.mark.parametrize("precision", ["2^40", "2^0", "5", "1", "0",
                                           "-1/2", "1/0"])
    def test_precision_of_one_or_more_exits_2(self, capsys, precision):
        self._refused_precision(capsys, precision)

    @pytest.mark.parametrize("precision", ["2^-4097", "2^-20000",
                                           "1/" + str(2 ** 4096 + 1)],
                             ids=["2^-4097", "2^-20000", "1/(2^4096+1)"])
    def test_precision_finer_than_the_limit_exits_2(self, capsys,
                                                    precision):
        self._refused_precision(capsys, precision)

    @pytest.mark.parametrize("precision", ["1e-30000000", "1E+99999999999",
                                           "0.5e-010000"])
    def test_huge_decimal_exponent_exits_2(self, capsys, precision):
        self._refused_precision(capsys, precision)


class TestUsage:
    def test_missing_argument_is_one_json_error(self, capsys):
        code, out, err = run(capsys, "count", "--poly", "x-2",
                             "--height", "2")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert set(error) == {"type", "message"}
        assert error["type"] == "UsageError"
        assert "--length" in error["message"]

    @pytest.mark.parametrize("argv", [
        ["analyze", "--poly", "x^2-2"], ["classify", "--poly", "x^2-2"],
        ["expand", "--poly", "x+2", "--value", "5"],
        ["periodic", "--poly", "x-2"], ["is-ns", "--poly", "x+2"],
        ["zero-automaton", "--poly", "x-2", "--height", "1"],
        ["min-height", "--poly", "x-2"],
        ["count", "--poly", "x-2", "--height", "1", "--length", "2"]],
        ids=lambda argv: argv[0])
    def test_precision_is_not_an_option(self, capsys, argv):
        # The interval width is fixed; AlgebraicBase.refine() tightens it.
        code, out, err = run(capsys, *argv, "--precision", "2^-20")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "UsageError",
            "message": "algdigits: unrecognized arguments: "
                       "--precision 2^-20"}

    @pytest.mark.parametrize("argv", [
        ["periodic", "--poly", "x-3", "--jobs", "2"],
        ["is-ns", "--poly", "x+2", "--jobs", "1"],
        ["min-height", "--poly", "x-2", "--jobs", "1"],
        ["count", "--poly", "x-2", "--height", "1", "--length", "2",
         "--jobs", "1"]], ids=lambda argv: argv[0])
    def test_jobs_is_not_an_option(self, capsys, argv):
        # Nothing runs in parallel; only zero-automaton and
        # sweep-quadratic keep --jobs, so that acceptance criterion 9's
        # argv still parses.
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "UsageError",
            "message": "algdigits: unrecognized arguments: "
                       + " ".join(argv[-2:])}

    def test_bad_choice_and_bad_int(self, capsys):
        for argv, flag in (
                (["frobnicate"], None),
                (["zero-automaton", "--poly", "x-2", "--height", "1",
                  "--jobs", "many"], "--jobs"),
                (["zero-automaton", "--poly", "x^2-2", "--height", "1",
                  "--jobs", "0"], "--jobs"),
                (["zero-automaton", "--poly", "x-2", "--height", "1",
                  "--jobs=-5"], "--jobs"),
                (["sweep-quadratic", "--a2-max", "2", "--jobs=-1"], "--jobs"),
                (["sweep-quadratic", "--a2-max=-1"], "--a2-max"),
                (["expand", "--poly", "x+2", "--value", "5",
                  "--max-steps=-1"], "--max-steps"),
                (["rational", "--base", "5/2", "--max-steps=-1", "expand",
                  "7"], "--max-steps"),
                (["min-height", "--poly", "x-2", "--max-h=-1"], "--max-h"),
                (["periodic", "--poly", "x-2", "--candidate-cap=-1"],
                 "--candidate-cap"),
                (["is-ns", "--poly", "x-2", "--candidate-cap", "-5"],
                 "--candidate-cap"),
                (["zero-automaton", "--poly", "x-2", "--height", "1",
                  "--max-states=-1"], "--max-states"),
                (["count", "--poly", "x-2", "--height", "1", "--length", "2",
                  "--max-states=-1"], "--max-states"),
                (["sweep-quadratic", "--a2-max", "2",
                  "--candidate-cap=-1"], "--candidate-cap"),
                (["expand", "--poly", "x+2", "--value", "5",
                  "--max-steps", "many"], "--max-steps"),
                (["zero-automaton", "--poly", "x-2", "--height", "0"],
                 "--height"),
                (["count", "--poly", "x-2", "--height=-1", "--length", "2"],
                 "--height"),
                (["count", "--poly", "[2,2,1]", "--height", "1",
                  "--length", "-1"], "--length")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "UsageError"
            assert flag is None or flag in error["message"]

    @pytest.mark.parametrize("argv,message", [
        (["rational", "--base", "5/2", "transduce", "x"],
         "algdigits rational: argument values: invalid int value: 'x'"),
        (["rational", "--base", "5/2", "expand", "7", "y"],
         "algdigits rational: argument values: invalid int value: 'y'"),
        (["expand", "--poly", "x+2", "--value", "x"],
         "algdigits expand: argument --value: invalid integer or "
         "coordinate list: 'x'"),
        (["expand", "--poly", "x+2", "--value", "[1,x]"],
         "algdigits expand: argument --value: invalid integer or "
         "coordinate list: '[1,x]'")])
    def test_bad_integer_token_names_its_argument(self, capsys, argv,
                                                  message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "UsageError",
                                            "message": message}

    # sweep-quadratic prints CSV, with no manifest to echo --jobs in; the
    # flag stays so that the same argv keeps parsing.
    UNREAD = {("sweep-quadratic", "jobs")}

    # One quick argv per subcommand, run to see what its manifest echoes.
    SAMPLES = {
        "analyze": ["--poly", "x-2"], "classify": ["--poly", "x-2"],
        "expand": ["--poly", "x+2", "--value", "5"],
        "periodic": ["--poly", "x-2"], "is-ns": ["--poly", "x+2"],
        "rational": ["--base", "5/2", "verify"],
        "zero-automaton": ["--poly", "x-2", "--height", "1"],
        "min-height": ["--poly", "x-2"],
        "count": ["--poly", "x-2", "--height", "1", "--length", "2"],
        "sweep-quadratic": ["--a2-max", "2"]}

    def test_every_option_is_read(self, capsys):
        """Each option a subcommand declares is read as args.<dest> by
        its handler or echoed in its manifest by main: an option that is
        neither changes no output."""
        def reads(func):
            tree = ast.parse(inspect.getsource(func))
            return {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "args"}

        def echoes(command):
            code, out, err = run(capsys, command, *self.SAMPLES[command])
            assert code == 0, err
            if not out.startswith("{"):
                return set()
            return set(json.loads(out)["manifest"]["limits"])

        parsers = _subparsers()
        assert set(parsers) == set(self.SAMPLES)
        unread = set()
        for command, parser in parsers.items():
            attrs = reads(parser.get_default("func")) | echoes(command)
            unread |= {(command, action.dest) for action in parser._actions
                       if action.dest != "help" and action.dest not in attrs}
        assert unread == self.UNREAD

    def test_parser_builds_only_the_named_subcommand(self):
        for command in (None, "is-ns"):
            parsers = _choices(algdigits.cli.build_parser(command))
            assert len(parsers) == 10
            built = {name for name, parser in parsers.items()
                     if len(parser._actions) > 1}  # more than -h
            assert built == ({command} if command else set())

    @pytest.mark.parametrize("argv, message", [
        # is-ns parses its options, so only the top-level token is left
        (["--frob", "is-ns", "--poly", "x+2"],
         "algdigits: unrecognized arguments: --frob"),
        # argparse reads a negative number as the subcommand
        (["-5", "is-ns", "--poly", "x+2"], "algdigits: argument command: "
         "invalid choice: '-5' (choose from 'analyze', 'classify', "
         "'expand', 'periodic', 'is-ns', 'rational', 'zero-automaton', "
         "'min-height', 'count', 'sweep-quadratic')")])
    def test_options_before_the_subcommand(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == {"type": "UsageError",
                                            "message": message}

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: algdigits count")


def _loaded_after(argv: list) -> tuple[int, list, list]:
    """Run main(argv) in a fresh interpreter; its exit code, the algdigits
    modules it loaded (the rest stay lazy) and which of json, fractions,
    decimal and __future__ it imported."""
    code = ("import contextlib, io, sys\n"
            "from importlib.util import _LazyModule\n"
            "from algdigits.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = main({argv!r})\n"
            "    except SystemExit as exc:\n"
            "        code = exc.code\n"
            "loaded = sorted(n.split('.', 1)[1] for n, m in sys.modules.items()"
            " if n.startswith('algdigits.') and type(m) is not _LazyModule)\n"
            "stdlib = [m for m in ('json', 'fractions', 'decimal',"
            " '__future__')"
            " if m in sys.modules]\n"
            "print(code, ' '.join(loaded), '|', ' '.join(stdlib))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    exit_code, rest = proc.stdout.split(" ", 1)
    layers, stdlib = rest.split("|")
    return int(exit_code), layers.split(), stdlib.split()


class TestStartup:
    def test_version_loads_no_library_layer(self):
        code, layers, stdlib = _loaded_after(["--version"])
        assert code == 0 and layers == ["cli", "errors"]
        assert stdlib == []

    def test_usage_error_loads_only_the_error_printer(self):
        code, layers, _stdlib = _loaded_after(["zero-automaton", "--poly",
                                               "x^2-2", "--height", "two"])
        assert code == 2 and layers == ["cli", "errors", "jsonio"]

    def test_is_ns_does_not_import_future(self):
        code, _layers, stdlib = _loaded_after(["is-ns", "--poly", "x^2+2x+2"])
        assert code == 0 and "__future__" not in stdlib

    @pytest.mark.parametrize("argv, unloaded", [
        (["is-ns", "--poly", "x^2+2x+2"],
         {"catalog", "rational", "zero_automaton"}),
        (["zero-automaton", "--poly", "x^2-x-1", "--height", "1"],
         {"catalog", "rational", "digits"}),
        (["count", "--poly", "x^2-x-1", "--height", "1", "--length", "4"],
         {"catalog", "rational", "digits"}),
        (["rational", "--base", "5/2", "expand", "7"],
         {"catalog", "zero_automaton"}),
        # Palindromic quadratics: the Sturm count needs no factoring.
        (["analyze", "--poly", "x^2+x+1"],
         {"factoring", "catalog", "digits", "rational", "zero_automaton"}),
        (["zero-automaton", "--poly", "x^2-3x+1", "--height", "1"],
         {"factoring", "catalog", "digits", "rational"}),
    ])
    def test_subcommand_loads_only_its_layers(self, argv, unloaded):
        code, layers, _stdlib = _loaded_after(argv)
        assert code == 0 and {"cli", "base", "jsonio"} <= set(layers)
        assert not unloaded & set(layers), layers

    def test_rational_does_not_import_sympy(self):
        code = ("import sys\n"
                "from algdigits.cli import main\n"
                "assert main(['rational', '--base', '5/2', 'expand', '7']) == 0\n"
                "assert 'sympy' not in sys.modules\n"
                "assert 'numpy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_quadratic_and_cubic_bases_do_not_import_sympy(self):
        code = ("import sys\n"
                "from algdigits.cli import main\n"
                "assert main(['expand', '--poly', 'x^2+2x+2',"
                " '--value', '[5,7]']) == 0\n"
                "assert main(['is-ns', '--poly', 'x^3+3x^2+3x+3']) == 0\n"
                "assert 'sympy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_irreducibility_and_sturm_do_not_import_sympy(self):
        # Degree 12 (Eisenstein), x^4 + 1 (palindromic: the Sturm count),
        # a Salem polynomial, and a quartic that factors.
        code = ("import contextlib, io, sys\n"
                "from algdigits.cli import main\n"
                "err = io.StringIO()\n"
                "with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(err):\n"
                "    for poly in ['x^12+2x^7-4x+6', 'x^4+1',"
                " '[1,0,-1,-1,-1,0,1]']:\n"
                "        assert main(['analyze', '--poly', poly]) == 0\n"
                "    assert main(['analyze', '--poly', 'x^4+4']) == 2\n"
                "assert 'factors over Z' in err.getvalue()\n"
                "assert 'sympy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_library_never_imports_sympy(self):
        # sympy is a test oracle only.
        package = Path(algdigits.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert all(name.split(".")[0] != "sympy"
                           for name in names), path.name

    def test_library_never_reads_the_environment(self):
        # Settings come from argv alone, so the manifest can show them.
        readers = {"environ", "environb", "getenv", "getenvb"}
        package = Path(algdigits.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    assert node.attr not in readers, path.name
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = {alias.name for alias in node.names}
                    assert not names & readers, path.name

    def test_only_base_reaches_the_interval_layers(self):
        # roots is imported by base alone, intervals by base and roots:
        # every other module asks AlgebraicBase for conjugate data.
        allowed = {"roots": {"base.py"}, "intervals": {"base.py", "roots.py"}}
        package = Path(algdigits.__file__).parent
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [alias.name
                                                   for alias in node.names]
                else:
                    continue
                for name in names:
                    layer = name.split(".")[-1]
                    assert path.name in allowed.get(layer, {path.name}), (
                        f"{path.name} imports {layer}")

    def test_the_pass_reads_z_h_one_way(self):
        # The pass of Z(H) asks the base for alpha*y + d alone, with no
        # case per degree; a witness is read back from the digits of the
        # pass, with no base at hand, and checked by exact division.
        path = Path(algdigits.__file__).parent / "zero_automaton.py"
        tree = ast.parse(path.read_text())
        defs = {node.name: node for node in tree.body
                if isinstance(node, ast.FunctionDef)}

        def attributes(node):
            return {n.attr for n in ast.walk(node)
                    if isinstance(n, ast.Attribute)}

        assert "degree" not in attributes(defs["_monic_pass"])
        assert "degree" not in attributes(defs["_path_word"])
        assert "base" not in {a.arg for a in defs["_path_word"].args.args}
        assert "eval_word" not in attributes(tree)

    def test_each_rule_is_asked_of_its_owner(self):
        # conjugate_window decides lattice membership, and
        # errors.printable_check owns the int-to-str cap: the pass, orbit
        # and count_words state neither rule again.
        package = Path(algdigits.__file__).parent
        for name in ("digits.py", "zero_automaton.py"):
            tree = ast.parse((package / name).read_text())
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.Attribute)
                            and node.attr == "get_int_max_str_digits"), name
                assert not (isinstance(node, ast.Name)
                            and node.id == "get_int_max_str_digits"), name
                assert not (isinstance(node, ast.Attribute)
                            and node.attr == "inf"
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "math"), name
        tree = ast.parse((package / "zero_automaton.py").read_text())
        (monic_pass,) = [node for node in tree.body
                         if isinstance(node, ast.FunctionDef)
                         and node.name == "_monic_pass"]
        assert "isinstance" not in {node.id for node in ast.walk(monic_pass)
                                    if isinstance(node, ast.Name)}

    def test_elements_are_tuples_at_every_degree(self):
        # An element is its coordinate tuple at every degree: the element
        # methods of AlgebraicBase compare the degree with nothing and read
        # no rational view, and no layer asks whether an element is a
        # tuple.  (element's isinstance(value, (list, tuple)) reads the
        # shape of its input, a number or a sequence of coordinates.)
        package = Path(algdigits.__file__).parent
        tree = ast.parse((package / "base.py").read_text())
        (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                  and node.name == "AlgebraicBase"]
        methods = {node.name: node for node in cls.body
                   if isinstance(node, ast.FunctionDef)}
        for name in ("zero", "element", "add", "neg", "add_int", "mul_alpha",
                     "div_alpha_exact", "residue", "eval_word",
                     "conjugate_boxes", "conjugate_window"):
            for node in ast.walk(methods[name]):
                if isinstance(node, ast.Compare):
                    assert not any(isinstance(side, ast.Attribute)
                                   and side.attr == "degree"
                                   for side in [node.left, *node.comparators]
                                   ), name
                assert not (isinstance(node, ast.Attribute) and node.attr in
                            ("rational_view", "alpha_fraction")), name

        def is_tuple(node):
            return isinstance(node, ast.Name) and node.id == "tuple"

        for name in ("base.py", "digits.py", "zero_automaton.py"):
            for node in ast.walk(ast.parse((package / name).read_text())):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance"):
                    assert not is_tuple(node.args[1]), name
                if isinstance(node, ast.Compare):
                    assert not (isinstance(node.left, ast.Call)
                                and isinstance(node.left.func, ast.Name)
                                and node.left.func.id == "type"
                                and any(map(is_tuple, node.comparators))), name

    def test_no_runtime_dependencies(self):
        # sympy is needed only by the tests, as the factoring oracle.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            project = tomllib.load(fh)["project"]
        assert project["dependencies"] == []
        assert "sympy" in project["optional-dependencies"]["test"]

    def test_root_isolation_does_not_import_numpy(self):
        code = ("import contextlib, io, sys\n"
                "from algdigits.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['analyze', '--poly', 'x^5-x-1']) == 0\n"
                "    assert main(['is-ns', '--poly', 'x^2+2x+2']) == 0\n"
                "    assert main(['zero-automaton', '--poly', 'x^2-x-1',"
                " '--height', '1']) == 0\n"
                "    assert main(['count', '--poly', 'x^3-x-1',"
                " '--height', '1', '--length', '4']) == 0\n"
                "    assert main(['min-height', '--poly', 'x^2-2']) == 0\n"
                "assert 'numpy' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_cli_skips_heavy_stdlib_modules(self):
        # dataclasses (with inspect), importlib.metadata and platform
        # cost tens of milliseconds per call; none is needed.
        code = ("import contextlib, io, sys\n"
                "heavy = ('dataclasses', 'inspect', 'importlib.metadata',"
                " 'platform')\n"
                "import algdigits.cli\n"
                "assert not [m for m in heavy if m in sys.modules]\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert algdigits.cli.main(['is-ns', '--poly',"
                " 'x^2+2x+2']) == 0\n"
                "loaded = [m for m in heavy if m in sys.modules]\n"
                "assert not loaded, loaded\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("algdigits ")


# Token pools for the error-contract fuzz test, as (well-formed,
# malformed) pairs.  Polynomials have degree at most 4, or more than the
# degree cap, which refuses them before any work; heights are at most 2
# and caps are small, so no draw explodes.  --precision is no option, so
# it only ever fills the malformed slot.  The huge value 10^30 is drawn
# only where it stops at once: as --candidate-cap, --max-h and the
# --max-steps of rational, which bound work that the inputs finish
# first, and as --height or expand's --max-steps only in the fixed
# argvs of _argv.  A huge --height needs --max-states 1, because the
# successor loop of one state walks the whole digit range.
_HUGE = str(10**30)
_LONG = "9" * 4301  # one digit past the default int-to-str limit
_LONG_TEXT = "9" * 4000 + "x"  # under the limit, so only a writer shortens it
_POLYS = (["x-2", "x+2", "2x+3", "x^2+2x+2", "x^2-2", "x^2+1", "x^2-x-1",
           "x^3-x-1", "x^4+2", "2x^2-3x+2", "x^2-1", "[2,2,1]", "x^257-2",
           "x^99999999999999999999-2"],
          ["x^2 +", "[1.5,1]", "[]", "[0,1]", "[true,1]", "[2,0,1", "nan",
           "x^2+2x+2.5", "", _LONG_TEXT])
_DIGITS = (["0,1", "[0,1]", "1,2", "0,1,2,3,4", "[[0,0],[1,0]]"],
           ["[]", "", "[0,1.5]", "[true,false]", "nan", "[0,",
            "[[0,1],[1]]", "{}", "0,,1", "[null]",
            ",".join(map(str, range(40))), "[[0,0,0,0,0,0]]", _LONG_TEXT])
_VALUES = (["5", "-7", "0", "[1,2]"],
           ["[1,2,3,4,5,6]", "1.5", "true", "nan", "[", "[null]", "2^-abc",
            "[[1]]", "", _LONG_TEXT])
_HEIGHTS = (["1", "2"], ["0", "-1", "1.5", "two", "nan", "", _LONG,
                        _LONG_TEXT])
_CAPS = (["3", "50", "400"], ["0", "-1", "abc", "1e3", "nan", "", _LONG,
                              _LONG_TEXT])
_CANDIDATE_CAPS = (_CAPS[0] + [_HUGE], _CAPS[1])
_PRECISIONS = ["2^-30", "1/1000", "2^-abc", "nan", "", "2^-20000"]
_BASES = (["3/2", "-3/2", "5/2", "1/1", "1/2", "7"],
          ["0/1", "2/0", "abc", "1.5", "nan", "1e5000", "1e-5000",
           _LONG_TEXT])
_ACTIONS = (["expand", "verify", "transduce"], ["bogus"])
_WORDS = (["7", "-3", "0"], ["1.5", "abc", "[1]", "2^-abc", "nan",
                             _LONG_TEXT])
_SMALL = (["0", "1", "2"], ["-1", "x", "1.5", _LONG, _LONG_TEXT])
_MAX_H = (_SMALL[0] + [_HUGE], _SMALL[1])
_JOBS = (["1", "2"], ["0", "-1", "many", _LONG_TEXT])


@st.composite
def _argv(draw):
    """One command line: a subcommand and a token for each of its options,
    malformed in at most one slot, so that most draws get past the
    parser."""
    bad = draw(st.integers(-1, 5))
    slot = iter(range(6))

    def pick(pools):
        return draw(st.sampled_from(pools[next(slot) == bad]))

    def maybe(flag, pools):
        return [f"{flag}={pick(pools)}"] if draw(st.booleans()) else []

    command = draw(st.sampled_from([
        "analyze", "classify", "expand", "periodic", "is-ns", "rational",
        "zero-automaton", "min-height", "count", "sweep-quadratic"]))
    if command == "rational":
        steps = draw(st.sampled_from(["50", _HUGE]))
        return (["rational", f"--base={pick(_BASES)}", f"--max-steps={steps}"]
                + maybe("--digits", _DIGITS) + [pick(_ACTIONS)]
                + [pick(_WORDS) for _ in range(draw(st.integers(0, 2)))])
    if command == "sweep-quadratic":
        return [command, f"--a2-max={pick(_SMALL)}",
                f"--candidate-cap={pick(_CANDIDATE_CAPS)}"]
    if command == "count" and draw(st.integers(0, 3)) == 0:
        # 10^11 steps, on a base whose trimmed Z(1) is {0}: the count is 1
        # at every length, found after one step.
        return [command, "--poly=x-2", "--height=1",
                "--length=100000000000", f"--max-states={pick(_CAPS)}"]
    if command in ("zero-automaton", "count") and draw(st.integers(0, 3)) == 0:
        # The second state trips the state cap of 1 (exit 3).
        return ([command, "--poly=x-2", f"--height={_HUGE}", "--max-states=1"]
                + ["--length=2"] * (command == "count"))
    if command == "expand" and draw(st.integers(0, 3)) == 0:
        # Every orbit of an expanding base ends in a cycle, at once here.
        return [command, "--poly=x+2", f"--value={pick(_VALUES)}",
                f"--max-steps={_HUGE}"] + maybe("--digits", _DIGITS)
    argv = [command, f"--poly={pick(_POLYS)}"]
    if draw(st.booleans()) and next(slot) == bad:
        argv += [f"--precision={draw(st.sampled_from(_PRECISIONS))}"]
    if command == "expand":
        argv += [f"--value={pick(_VALUES)}", f"--max-steps={pick(_CAPS)}"]
    if command in ("expand", "periodic", "is-ns"):
        argv += maybe("--digits", _DIGITS)
    if command in ("periodic", "is-ns"):
        argv += [f"--candidate-cap={pick(_CANDIDATE_CAPS)}"]
    if command in ("zero-automaton", "count"):
        argv += [f"--height={pick(_HEIGHTS)}"]
    if command == "count":
        argv += [f"--length={pick(_SMALL)}"]
    if command == "zero-automaton":
        argv += maybe("--export", (["json", "dot"], ["svg"]))
        argv += ["--trim"] if draw(st.booleans()) else []
        argv += maybe("--jobs", _JOBS)  # the one here that keeps --jobs
    if command == "min-height":
        argv += [f"--max-h={pick(_MAX_H)}"]
    if command in ("zero-automaton", "min-height", "count"):
        argv += [f"--max-states={pick(_CAPS)}"]
    return argv


class TestErrorContract:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(argv=_argv())
    def test_exit_code_and_one_json_error(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3), (argv, code)
        if code:
            assert out.getvalue() == ""
            assert len(err.getvalue()) < 1000, argv
            assert "Exceeds the limit" not in err.getvalue(), argv
            error = json.loads(err.getvalue())
            assert list(error) == ["error"], argv
            assert set(error["error"]) == {"type", "message"}, argv
        else:
            assert err.getvalue() == ""

    @pytest.mark.parametrize("argv, code", [
        (["zero-automaton", "--poly=x-2", f"--height={_HUGE}",
          "--max-states=1"], 3),
        (["count", "--poly=x-2", f"--height={_HUGE}", "--length=2",
          "--max-states=1"], 3),
        (["min-height", "--poly=x^2-2", f"--max-h={_HUGE}"], 0),
        (["expand", "--poly=x+2", "--value=7", f"--max-steps={_HUGE}"], 0),
        (["is-ns", "--poly=x^2+2x+2", f"--candidate-cap={_HUGE}"], 0),
        (["rational", "--base=3/2", f"--max-steps={_HUGE}", "expand", "7"], 0),
    ])
    def test_huge_heights_and_caps_stop_at_once(self, argv, code):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code
        assert time.perf_counter() - start < 1
