"""End-to-end checks of the command-line interface: JSON shape, exit
codes, determinism."""

import ast
import contextlib
import io
import json
import platform
import subprocess
import sys
from fractions import Fraction
from importlib.metadata import version
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algdigits
from algdigits.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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

    def test_manifest_fields(self, capsys):
        payload = run_json(capsys, "analyze", "--poly", "x-2")
        manifest = payload["manifest"]
        assert manifest["tool"] == "algdigits"
        assert manifest["command"] == "analyze"
        assert manifest["argv"] == ["analyze", "--poly", "x-2"]
        assert manifest["libs"] == {"sympy": version("sympy")}
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
        # Phi_37 has degree 36; Kronecker's theorem needs no degree cap.
        result = run_json(capsys, "analyze", "--poly",
                          json.dumps([1] * 37))["result"]
        assert result["classification"] == "RootOfUnity"
        assert result["n_unit"] == 36
        assert result["irreducibility"] == "assumed"

    @pytest.mark.parametrize("argv, classification, expanding", [
        (["analyze", "--poly", "x^31-1000000x^30+1"], "Mixed", 1),
        (["analyze", "--poly", "x^2-2", "--precision=2^-2000"],
         "ExpandingInteger", 2),
        (["analyze", "--poly", "x^2-2", "--precision=2^-4096"],
         "ExpandingInteger", 2),
    ])
    def test_far_apart_or_fine_moduli_print(self, capsys, argv,
                                            classification, expanding):
        # The root boxes stay on a dyadic grid near the requested width,
        # so no modulus endpoint reaches Python's 4300-digit limit on
        # int-to-str conversion.
        result = run_json(capsys, *argv)["result"]
        assert result["classification"] == classification
        assert result["n_expanding"] == expanding
        for lo, hi in result["conjugate_moduli"]:
            assert 0 < Fraction(lo) <= Fraction(hi)

    def test_precision_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ALGDIGITS_PRECISION", "2^-30")
        payload = run_json(capsys, "analyze", "--poly", "x^2-2")
        assert payload["manifest"]["limits"]["precision"] == "1/1073741824"

    def test_precision_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ALGDIGITS_PRECISION", "2^-30")
        payload = run_json(capsys, "analyze", "--poly", "x^2-2",
                           "--precision", "2^-10")
        assert payload["manifest"]["limits"]["precision"] == "1/1024"


class TestClassify:
    def test_base_two(self, capsys):
        result = run_json(capsys, "classify", "--poly", "x-2")["result"]
        assert (result["lower"], result["upper"], result["exact"]) == (3, 3, 3)
        assert result["f2"]["verdict"] == "ExcludedByM1"
        assert any(c[0] == "rational-degenerate"
                   for c in result["certificates"])


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


class TestZeroAutomaton:
    def test_summary(self, capsys):
        result = run_json(capsys, "zero-automaton", "--poly", "x-2",
                          "--height", "2", "--trim")["result"]
        assert result["has_nontrivial_word"] is True
        assert result["shortest_nonzero_word"] == [-1, 2]

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
    ])
    def test_digit_set_messages(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {"type": "DigitSetError",
                                            "message": message}

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

    @pytest.mark.parametrize("precision", ["2^40", "2^0", "5", "1", "0",
                                           "-1/2", "1/0"])
    def test_precision_of_one_or_more_exits_2(self, capsys, monkeypatch,
                                              precision):
        code, out, err = run(capsys, "analyze", "--poly", "x^2-2",
                             f"--precision={precision}")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"
        monkeypatch.setenv("ALGDIGITS_PRECISION", precision)
        code, out, err = run(capsys, "analyze", "--poly", "x^2-2")
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"


    @pytest.mark.parametrize("precision", ["2^-4097", "2^-20000",
                                           "1/" + str(2 ** 4096 + 1)],
                             ids=["2^-4097", "2^-20000", "1/(2^4096+1)"])
    def test_precision_finer_than_the_limit_exits_2(self, capsys,
                                                    monkeypatch, precision):
        # Refused while parsing, before any root is refined to the width.
        code, out, err = run(capsys, "analyze", "--poly", "x^2-2",
                             f"--precision={precision}")
        assert code == 2 and out == ""
        message = json.loads(err)["error"]["message"]
        assert "2^-4096" in message and precision in message
        monkeypatch.setenv("ALGDIGITS_PRECISION", precision)
        code, out, err = run(capsys, "analyze", "--poly", "x^2-2")
        assert code == 2 and out == ""
        assert "2^-4096" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("precision", ["1e-30000000", "1E+99999999999",
                                           "0.5e-010000"])
    def test_huge_decimal_exponent_exits_2(self, capsys, precision):
        # Refused before Fraction builds 10^e, which takes about a minute
        # at 1e-30000000.
        code, out, err = run(capsys, "analyze", "--poly", "x^2-2",
                             f"--precision={precision}")
        assert code == 2 and out == ""
        message = json.loads(err)["error"]["message"]
        assert "decimal exponent" in message and precision in message


class TestUsage:
    def test_missing_argument_is_one_json_error(self, capsys):
        code, out, err = run(capsys, "count", "--poly", "x-2",
                             "--height", "2")
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert set(error) == {"type", "message"}
        assert error["type"] == "UsageError"
        assert "--length" in error["message"]

    def test_bad_choice_and_bad_int(self, capsys):
        for argv, flag in (
                (["frobnicate"], None),
                (["periodic", "--poly", "x-2", "--jobs", "many"], "--jobs"),
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
                  "--max-steps", "many"], "--max-steps")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            error = json.loads(err)["error"]
            assert error["type"] == "UsageError"
            assert flag is None or flag in error["message"]

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: algdigits count")


class TestStartup:
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
        # sympy is a test oracle only; the manifest reads its version
        # without importing it.
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
# malformed) pairs.  Polynomials have degree at most 4, heights at most 2
# and caps are small, so no draw explodes; precisions finer than 2^-4096
# are refused before any work.
_POLYS = (["x-2", "x+2", "2x+3", "x^2+2x+2", "x^2-2", "x^2+1", "x^2-x-1",
           "x^3-x-1", "x^4+2", "2x^2-3x+2", "x^2-1", "[2,2,1]"],
          ["x^2 +", "[1.5,1]", "[]", "[0,1]", "[true,1]", "[2,0,1", "nan",
           "x^2+2x+2.5", ""])
_DIGITS = (["0,1", "[0,1]", "1,2", "0,1,2,3,4", "[[0,0],[1,0]]"],
           ["[]", "", "[0,1.5]", "[true,false]", "nan", "[0,",
            "[[0,1],[1]]", "{}", "0,,1", "[null]",
            ",".join(map(str, range(40))), "[[0,0,0,0,0,0]]"])
_VALUES = (["5", "-7", "0", "[1,2]"],
           ["[1,2,3,4,5,6]", "1.5", "true", "nan", "[", "[null]", "2^-abc",
            "[[1]]", ""])
_HEIGHTS = (["1", "2"], ["0", "-1", "1.5", "two", "nan", ""])
_CAPS = (["3", "50", "400"], ["0", "-1", "abc", "1e3", "nan", ""])
_PRECISIONS = (["2^-30", "1/1000", "2^-60"],
               ["2^-abc", "nan", "-1", "2^-x", "inf", "0.5e", "2^-20000",
                "2^-9000", "1e-30000000"])
_BASES = (["3/2", "-3/2", "5/2", "1/1", "1/2", "7"],
          ["0/1", "2/0", "abc", "1.5", "nan"])
_ACTIONS = (["expand", "verify", "transduce"], ["bogus"])
_WORDS = (["7", "-3", "0"], ["1.5", "abc", "[1]", "2^-abc", "nan"])
_SMALL = (["0", "1", "2"], ["-1", "x", "1.5"])
_JOBS = (["1", "2"], ["0", "-1", "many"])


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
        return (["rational", f"--base={pick(_BASES)}", "--max-steps=50"]
                + maybe("--digits", _DIGITS) + [pick(_ACTIONS)]
                + [pick(_WORDS) for _ in range(draw(st.integers(0, 2)))])
    if command == "sweep-quadratic":
        return [command, f"--a2-max={pick(_SMALL)}",
                f"--candidate-cap={pick(_CAPS)}"]
    argv = [command, f"--poly={pick(_POLYS)}"]
    argv += maybe("--precision", _PRECISIONS)
    if command == "expand":
        argv += [f"--value={pick(_VALUES)}", f"--max-steps={pick(_CAPS)}"]
    if command in ("expand", "periodic", "is-ns"):
        argv += maybe("--digits", _DIGITS)
    if command in ("periodic", "is-ns"):
        argv += [f"--candidate-cap={pick(_CAPS)}"]
    if command in ("zero-automaton", "count"):
        argv += [f"--height={pick(_HEIGHTS)}"]
    if command == "count":
        argv += [f"--length={pick(_SMALL)}"]
    if command == "zero-automaton":
        argv += maybe("--export", (["json", "dot"], ["svg"]))
        argv += ["--trim"] if draw(st.booleans()) else []
    if command == "min-height":
        argv += [f"--max-h={pick(_SMALL)}"]
    if command in ("zero-automaton", "min-height", "count"):
        argv += [f"--max-states={pick(_CAPS)}"]
    return argv + maybe("--jobs", _JOBS)


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
            error = json.loads(err.getvalue())
            assert list(error) == ["error"], argv
            assert set(error["error"]) == {"type", "message"}, argv
        else:
            assert err.getvalue() == ""
