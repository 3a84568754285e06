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

# (name, file under src/algdigits, old text, new text, test ids)
MUTANTS = [
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
     "dict(enumerate(map(_entry, text)))",
     "dict(enumerate(int(c) for c in text))",
     ["tests/test_polynomials.py::TestParse::"
      "test_sequence_entries_are_integers"]),
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
