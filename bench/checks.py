"""Output checks for benchmark operations, run outside the timed region.

check(op, rc, stdout, stderr) returns (failed, wrong, reason).  `failed`
follows the benchmark's definition of a failed operation: wrong exit
code, a traceback, or a failed output check.  `wrong` marks the subset
where the program returned an answer that is not correct (a self-check
field that is false, an oracle disagreement, output that does not
parse); a crash or a rejected valid input fails without being a wrong
answer.

The brute-force oracles come from the repository's tests/oracles.py,
imported read-only.
"""

from __future__ import annotations

import json
from fractions import Fraction

import workloads

SELF_CHECK_FIELDS = ("replay_ok", "check", "value_check", "agree")
ORACLE_MAX_WORDS = 2 * 10 ** 5
QUADRATIC_ORACLE_SAMPLE = 4


class CheckError(Exception):
    """An output check failed; `wrong` says whether the answer is wrong."""

    def __init__(self, reason: str, wrong: bool = True):
        super().__init__(reason)
        self.wrong = wrong


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckError(reason)


class Checker:
    """Checks one run's operations; owns the oracle module and the
    quadratic cross-check sample count."""

    def __init__(self, oracles):
        self.oracles = oracles
        self.quadratic_checked = 0
        self.count_checked = 0

    def check(self, op: dict, rc: int, stdout: bytes, stderr: bytes):
        try:
            self._check(op, rc, stdout.decode(), stderr.decode())
        except CheckError as exc:
            return True, exc.wrong, str(exc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return (True, True,
                    f"unreadable output: {type(exc).__name__}: {exc}")
        return False, False, ""

    def _check(self, op, rc, out, err):
        if "Traceback (most recent call last)" in err:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            raise CheckError(f"exit {rc} with traceback: {last}", wrong=False)
        if op["expect"] == 2:
            if rc != 2:
                # answering a malformed query is a wrong answer
                raise CheckError(f"malformed query exited {rc}, expected 2",
                                 wrong=rc == 0)
            try:
                payload = json.loads(err)
            except ValueError:
                payload = None
            if out or not (isinstance(payload, dict)
                           and set(payload) == {"error"}
                           and set(payload["error"]) == {"type", "message"}):
                first = err.strip().splitlines()[:1]
                raise CheckError("stderr is not one JSON error object: "
                                 f"{first}", wrong=False)
            return
        if rc != op["expect"]:
            raise CheckError(f"exit {rc}, expected {op['expect']}",
                             wrong=False)
        if op["kind"] == "sweep-quadratic":
            self._sweep(out)
            return
        payload = json.loads(out)
        _require(set(payload) == {"manifest", "result"},
                 "stdout is not a manifest/result object")
        result = payload["result"]
        for field, value in _self_checks(result):
            _require(value is True, f"self-check {field} is {value!r}")
        method = getattr(self, "_" + op["kind"].replace("-", "_"), None)
        if method is not None:
            method(op["meta"], result)

    # -- per-kind checks ----------------------------------------------------

    def _sweep(self, out):
        lines = out.strip().splitlines()
        _require(lines[0] == "a1,a2,criterion,brute_force,agree",
                 "bad CSV header")
        _require(len(lines) > 1, "empty sweep")
        for line in lines[1:]:
            a1, a2, crit, brute, agree = line.split(",")
            int(a1), int(a2)
            _require(crit in ("True", "False") and brute in ("True", "False"),
                     f"bad CSV row {line!r}")
            _require(agree == str(crit == brute) == "True",
                     f"criterion and brute force disagree: {line!r}")

    def _rational_expand(self, meta, result):
        a, b = meta["a"], meta["b"]
        digits = set(workloads.rational_digits(a, b))
        alpha = Fraction(a, b)
        for row in result["expansions"]:
            word = row["digits_lsb"]
            _require(set(word) <= digits, "expansion uses a non-digit")
            value = sum(Fraction(d) * alpha ** i for i, d in enumerate(word))
            _require(value == int(row["value"]),
                     f"digits of {row['value']} evaluate to {value}")

    def _rational_transduce(self, meta, result):
        a, b = meta["a"], meta["b"]
        alpha = Fraction(a, b)
        _require(result["input_lsb"] == meta["word"], "input word changed")
        out = result["output_lsb"]
        _require(set(out) <= set(meta["digits"]), "output uses a non-digit")

        def value(word):
            return sum(Fraction(d) * alpha ** i for i, d in enumerate(word))

        delta = -b if meta["subtract"] else b
        _require(value(out) - value(meta["word"]) == delta,
                 "transducer output is not the input shifted by b")

    def _analyze(self, meta, result):
        counts = [result[k] for k in ("n_expanding", "n_unit",
                                      "n_contracting")]
        _require(sum(int(c) for c in counts) == result["degree"],
                 "conjugate classes do not add up to the degree")
        if not all(isinstance(c, int) for c in counts):
            raise CheckError(f"conjugate counts {counts} are not all JSON "
                             "integers", wrong=False)

    def _classify(self, meta, result):
        upper = result["upper"]
        _require(upper is None or result["lower"] <= upper,
                 "cardinality bounds cross")

    def _is_ns(self, meta, result):
        coeffs, digits = meta["coeffs"], meta["digits"]
        if (len(coeffs) != 3
                or self.quadratic_checked >= QUADRATIC_ORACLE_SAMPLE):
            return
        self.quadratic_checked += 1
        per = self._quadratic_periodic(coeffs, digits, meta["box"])
        zero = (0, 0)
        _require(result["periodic_count"] == len(per),
                 f"{result['periodic_count']} periodic points, oracle "
                 f"{len(per)}")
        _require(result["contains_zero"] == (0 in digits), "contains_zero")
        _require(result["is_number_system"] == (0 in digits
                                                and per == {zero}),
                 "number-system verdict disagrees with the oracle")
        orbit = _zero_orbit(coeffs, digits)
        _require(result["spans_ring"] == (per == orbit),
                 "spans_ring verdict disagrees with the oracle")

    _is_ns_small = _is_ns

    def _periodic_small(self, meta, result):
        coeffs, digits = meta["coeffs"], meta["digits"]
        c = Fraction(result["bounds"]["c"])
        if len(coeffs) == 2:
            root = -coeffs[0]
            a, b = (root, 1) if root > 0 else (-root, -1)
            per = self.oracles.periodic_points_linear(a, b, digits,
                                                      int(c) + 1)
            got = {int(x) for x in result["elements"]}
        else:
            box = workloads.coordinate_box(coeffs, digits)[0]
            per = self._quadratic_periodic(coeffs, digits, max(box, c))
            got = {tuple(x) for x in result["elements"]}
        _require(got == per, "periodic points disagree with the oracle")

    def _quadratic_periodic(self, coeffs, digits, box):
        a2, a1 = coeffs[0], coeffs[1]
        return self.oracles.periodic_points_quadratic(
            a1, a2, digits, int(float(box) * 1.05) + 2)

    def _count(self, meta, result):
        coeffs, h, length = meta["coeffs"], meta["height"], meta["length"]
        _require(result["growth_rate"] >= 0, "negative growth rate")
        if (2 * h + 1) ** length > ORACLE_MAX_WORDS:
            return
        self.count_checked += 1
        if len(coeffs) == 2:
            # q x - p: alpha = p/q
            p, q = -coeffs[0], coeffs[1]
            words = self.oracles.zero_words_rational(p, q, h, length)
        else:
            words = self.oracles.zero_words_monic(coeffs, h, length)
        expected = sum(1 for w in words if len(w) == length)
        _require(int(result["count"]) == expected,
                 f"count {result['count']}, oracle {expected}")

    _count_small = _count

    def _zero_automaton(self, meta, result):
        _require(result["trimmed"] is True, "automaton not trimmed")
        word = result["shortest_nonzero_word"]
        _require(result["has_nontrivial_word"] == (word is not None),
                 "has_nontrivial_word disagrees with the shortest word")
        if word is not None:
            _require(any(word) and _vanishes(word, meta["coeffs"]),
                     "shortest word does not vanish at the base")

    def _min_height(self, meta, result):
        word = result["word"]
        _require(any(word), "witness word is zero")
        _require(max(abs(d) for d in word) == result["h_star"],
                 "h_star is not the witness height")
        _require(_vanishes(word, meta["coeffs"]),
                 "witness does not vanish at the base")
        _require(result["searched"][-1][0] == result["h_star"],
                 "search did not stop at h_star")


def _self_checks(value, path=""):
    """Every self-check field anywhere in a result object."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key in SELF_CHECK_FIELDS:
                yield path + key, item
            else:
                yield from _self_checks(item, path + key + ".")
    elif isinstance(value, list):
        for item in value:
            yield from _self_checks(item, path)


def _vanishes(word_msb, coeffs) -> bool:
    """The word, read as a polynomial (most significant first), is a
    multiple of the minimal polynomial over Q."""
    rem = [Fraction(c) for c in reversed(word_msb)]  # ascending
    mod = [Fraction(c) for c in coeffs]
    while len(rem) >= len(mod):
        factor = rem[-1] / mod[-1]
        shift = len(rem) - len(mod)
        for i, c in enumerate(mod):
            rem[shift + i] -= factor * c
        rem.pop()
    return not any(rem)


def _zero_orbit(coeffs, digits) -> set:
    """States of the digit-map orbit of 0 for x^2 + a1 x + a2, the
    oracle's step written out: the set zero_orbit_set returns."""
    a2, a1 = coeffs[0], coeffs[1]
    x = (0, 0)
    seen = []
    while x not in seen:
        seen.append(x)
        r = next(dd for dd in digits if (x[0] - dd) % a2 == 0)
        q = -((x[0] - r) // a2)
        x = (x[1] + a1 * q, q)
    return set(seen)
