"""Mutation checks: the tests that must fail when the source is broken.

Each row names a file under src/algdigits, an exact text in it, the text
that replaces it, and the test ids that must then fail.  For each row
the script copies src/ to a temporary directory, applies the mutant to
the copy, and runs only the row's tests with the tier-1 command, the
copy first on the path.  A mutant is killed when those tests fail,
survived when they pass, and stale when its old text does not occur
exactly once.  Before the mutants, the same tests must pass on an
unmutated copy.

Run from anywhere:  python tests/mutants.py
The exit status is 0 when every mutant is killed, 1 otherwise.  pytest
does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RATIONAL = "tests/test_rational.py"
CANONICAL_UP_TO_40 = (f"{RATIONAL}::TestProperties::"
                      "test_every_canonical_set_up_to_40")
DYADIC_NESTS = ("tests/test_roots.py::TestCertifiedRoots::"
                "test_endpoints_dyadic_and_contraction_nests")
ERRORS = "tests/test_errors.py"
REFUSES = f"{ERRORS}::test_every_site_refuses_a_non_integer"
Z_REFERENCE = ("tests/test_zero_automaton.py::TestReference::"
               "test_untrimmed_equals_reference")
SPANS = ("tests/test_digits.py::TestSpansRingProperty::"
         "test_equals_orbit_of_zero")
INTERVALS = "tests/test_intervals.py::TestAgainstReference"
CIRCLE = "tests/test_polynomials.py::TestCircleCounts"

# (name, file under src/algdigits, old text, new text, test ids)
MUTANTS = [
    ("the circle count's Cauchy index has the wrong sign",
     "polynomials.py",
     "left_minus_right = -index if f is P else index",
     "left_minus_right = index if f is P else -index",
     [CIRCLE]),
    ("the circle count finds no root on the circle",
     "polynomials.py",
     "            on_axis + poly.degree - q.degree,\n",
     "            0,\n",
     [CIRCLE]),
    ("rational digit rule moves the multiples of a - b + 1",
     "rational.py",
     "for r in range(a - b, a, a - b):",
     "for r in range(a - b + 1, a, a - b + 1):",
     [CANONICAL_UP_TO_40]),
    ("redundant word keeps the mirror's signs at odd positions",
     "rational.py",
     "            word[1::2] = [-d for d in word[1::2]]\n",
     "            pass\n",
     [f"{RATIONAL}::TestExpandInt::"
      "test_redundant_words_take_the_mirror_signs"]),
    ("rational membership reads the residue mod a - 1",
     "rational.py",
     "self.table.digits[d % self.a]",
     "self.table.digits[d % (self.a - 1)]",
     [CANONICAL_UP_TO_40]),
    ("orbit reports every cycle as entered at step 0",
     "digits.py",
     "entry = states.index(x)",
     "entry = 0",
     ["tests/test_digits.py::TestOrbitAgainstReference::"
      "test_records_equal_the_step_map_walk"]),
    ("every base supports height reduction",
     "base.py",
     "return self.classification is not Classification.MIXED",
     "return True",
     ["tests/test_catalog.py::TestF2::test_agrees_with_classify"]),
    ("the fixed-point obstruction's point has the wrong sign",
     "catalog.py",
     "sign = 1 if base.min_poly(1) > 0 else -1",
     "sign = -1 if base.min_poly(1) > 0 else 1",
     ["tests/test_catalog.py::TestFixedPointObstruction::"
      "test_expanding_monic_quadratics"]),
    ("div_alpha_exact divides what alpha does not divide",
     "base.py",
     "        if rest:\n"
     "            raise ValueError(f\"{y} is not divisible by alpha\")\n",
     "",
     ["tests/test_base.py::TestDegreeOneArithmetic::"
      "test_arithmetic_is_scaling_by_alpha"]),
    ("mul_alpha has a degree-one branch again",
     "base.py",
     "        m = self.min_poly.coeffs\n"
     "        top, rest = divmod(x[-1], m[-1])\n",
     "        m = self.min_poly.coeffs\n"
     "        if self.degree == 1:\n"
     "            return self.element(Fraction(-m[0] * x[0], m[1]))\n"
     "        top, rest = divmod(x[-1], m[-1])\n",
     ["tests/test_cli.py::TestStartup::"
      "test_elements_are_tuples_at_every_degree"]),
    ("the process entry ends without flushing stdout",
     "cli.py",
     "    try:\n"
     "        sys.stdout.flush()\n"
     "    except OSError as exc:\n"
     "        code = _stdout_lost(exc)\n",
     "",
     ["tests/test_golden.py::test_subprocess_matches_the_golden_digest"]),
    ("list coefficients are truncated by int() again",
     "polynomials.py",
     "        cs = tuple(read_int(c, \"coefficient\", PolynomialSyntaxError)\n"
     "                   for c in coeffs)\n",
     "        cs = tuple(int(c) for c in coeffs)\n",
     ["tests/test_polynomials.py::TestParse::"
      "test_sequence_entries_are_integers", REFUSES]),
    ("read_int accepts bools",
     "errors.py",
     "if type(value) is bool or not hasattr(type(value), \"__index__\"):",
     "if not hasattr(type(value), \"__index__\"):",
     [REFUSES]),
    ("height_reduce truncates its entries by int() again",
     "digits.py",
     "tuple(read_int(\n"
     "        c, \"representation entry\", DigitSetError) for c in rep))",
     "tuple(int(c) for c in rep))",
     [REFUSES]),
    ("rational membership asks isinstance(d, int) again",
     "rational.py",
     "        try:\n"
     "            d = read_int(d, \"digit\")\n"
     "        except ValueError:  # not an integer, so no digit\n"
     "            return False\n",
     "        if not isinstance(d, int):\n"
     "            return False\n",
     [f"{RATIONAL}::TestTransducer::test_non_integers_are_no_digits",
      f"{ERRORS}::test_numpy_integers_are_rational_digits"]),
    ("root endpoints sit on a grid one bit finer",
     "roots.py",
     "return width.denominator.bit_length() + 23",
     "return width.denominator.bit_length() + 24",
     [DYADIC_NESTS]),
    ("root contraction drops its outward rounding",
     "roots.py",
     "meet = meet.outward(bits).intersect(box)",
     "meet = meet.intersect(box)",
     [DYADIC_NESTS]),
    ("the Z(H) window adds the imaginary radius it must subtract",
     "base.py",
     "- sum(map(mul, mags, r_im)), 0)",
     "+ sum(map(mul, mags, r_im)), 0)",
     ["tests/test_zero_automaton.py::TestReference::"
      "test_coarse_rectangles_equal_reference",
      "tests/test_base.py::TestIntervalData::"
      "test_conjugate_window_keeps_every_d_within_the_radii"]),
    ("the Z(H) window shifts by d unscaled",
     "base.py",
     "unit = 1 << (bits + 1)",
     "unit = 1",
     [Z_REFERENCE]),
    ("the Z(H) window's threshold is scaled by 2^(2n)",
     "base.py",
     "radius.numerator ** 2 << (2 * bits + 2)",
     "radius.numerator ** 2 << (2 * bits)",
     [Z_REFERENCE]),
    ("spans_ring holds when 0 is periodic",
     "digits.py",
     "len(pset.cycles) == 1 and zero in pset.cycles[0])",
     "zero in pset.elements)",
     [SPANS]),
    ("spans_ring holds when there is one cycle",
     "digits.py",
     "len(pset.cycles) == 1 and zero in pset.cycles[0])",
     "len(pset.cycles) == 1)",
     [SPANS]),
    ("spans_ring holds when 0 lies on the first cycle",
     "digits.py",
     "len(pset.cycles) == 1 and zero in pset.cycles[0])",
     "zero in pset.cycles[0])",
     [SPANS]),
    ("has_nontrivial_word reads n_edges > 1",
     "cli.py",
     "\"has_nontrivial_word\": found is not None,",
     "\"has_nontrivial_word\": auto.n_edges > 1,",
     ["tests/test_cli.py::TestZeroAutomaton::"
      "test_nontrivial_word_is_a_nonzero_trimmed_edge"]),
    ("outward rounds the upper end down",
     "intervals.py",
     "return Box(self.rl >> s, -(-self.rh >> s), self.il >> s,",
     "return Box(self.rl >> s, self.rh >> s, self.il >> s,",
     [f"{INTERVALS}::test_outward_rounds_like_the_reference"]),
    ("the interval product drops an endpoint product",
     "intervals.py",
     "products = (al * bl, al * bh, ah * bl, ah * bh)",
     "products = (al * bl, al * bh, ah * bl)",
     [f"{INTERVALS}::test_add_sub_mul_exact"]),
    ("two denominators meet with a wrong lcm factor",
     "intervals.py",
     "fa, fb = den // a.den, den // b.den",
     "fa, fb = den // a.den, den // a.den",
     [f"{INTERVALS}::test_add_sub_mul_exact"]),
    ("sqrt_bound always rounds up",
     "intervals.py",
     "return Fraction(r + (up and r * r < n), d)",
     "return Fraction(r + (r * r < n), d)",
     [f"{INTERVALS}::test_abs_bounds_round_like_the_reference",
      "tests/test_intervals.py::TestSqrt::test_bracketing"]),
    ("the quotient pairs each real end with one bound of |w|^2",
     "intervals.py",
     "re = (s.rl * qh, s.rl * ql, s.rh * qh, s.rh * ql)",
     "re = (s.rl * qh, s.rh * ql)",
     ["tests/test_intervals.py::TestBox::test_divide_into"]),
    ("the square of a straddling interval keeps no zero",
     "intervals.py",
     "        return 0, max(a, b)\n",
     "        return min(a, b), max(a, b)\n",
     [f"{INTERVALS}::test_abs_bounds_round_like_the_reference"]),
    ("a scaled box's upper end is shifted",
     "intervals.py",
     "return Box(self.rl * n, self.rh * n, self.il * n, self.ih * n, den)",
     "return Box(self.rl * n, self.rh * n + 1, self.il * n, self.ih * n, den)",
     [f"{INTERVALS}::test_scale_exact"]),
]


def run_tests(src: Path, tests) -> int:
    """The exit code of the tier-1 command over the given test ids, with
    the package imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p",
           "no:cacheprovider", "--continue-on-collection-errors", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy_src(tmp: str) -> Path:
    dest = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", dest,
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def check_import(src: Path) -> None:
    """Fail unless the package is imported from the copy, not from an
    installed tree."""
    env = dict(os.environ, PYTHONPATH=str(src))
    found = subprocess.run(
        [sys.executable, "-c", "import algdigits; print(algdigits.__file__)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(found).resolve().is_relative_to(src.resolve()):
        sys.exit(f"algdigits was imported from {found}, not from {src}")


def check_mutant(file, old, new, tests) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        path = src / "algdigits" / file
        text = path.read_text()
        if text.count(old) != 1:
            return "stale"
        path.write_text(text.replace(old, new))
        code = run_tests(src, tests)
    return {0: "survived", 1: "killed"}.get(code,
                                            f"error (pytest exit {code})")


def main() -> int:
    every_test = sorted({t for *_, tests in MUTANTS for t in tests})
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        check_import(src)
        clean = run_tests(src, every_test)
    print(f"{'clean tree':60} {'passes' if clean == 0 else 'FAILS'}")
    failed = clean != 0
    for name, file, old, new, tests in MUTANTS:
        verdict = check_mutant(file, old, new, tests)
        print(f"{name:60} {verdict}", flush=True)
        failed |= verdict != "killed"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
