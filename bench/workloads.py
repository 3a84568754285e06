"""Seeded operation generators for the three benchmark workloads.

Every generator takes the seed and the run length and returns a fixed
list of operations.  An operation is a dict with the CLI arguments
("argv"), the expected exit code ("expect"), a kind label and whatever
the output checks need ("meta").  The program under test only ever sees
"argv".

Costs are bounded with float estimates computed here (numpy roots, a
float replay of the zero-automaton search).  Those floats only select
inputs; no verdict of the program is decided with them.

Each workload cycles through a fixed deck of slots, so any two seeds run
the same mix of operation kinds and cost strata; the seed chooses the
concrete bases, digits and values inside each slot.
"""

from __future__ import annotations

import functools
import math
import random

import numpy as np

# Nominal seconds per operation at the seed, used only to size the fixed
# operation list from the run length.
NOMINAL_OP_S = {"cli-queries": 0.75, "ns-verdicts": 1.0, "automata": 0.9}


def op_count(workload: str, seconds: float) -> int:
    return max(3, round(seconds / NOMINAL_OP_S[workload]))


def generate(workload: str, seed: int, seconds: float) -> list:
    rng = random.Random(f"{workload}:{seed}")
    n = op_count(workload, seconds)
    make = GENERATORS[workload]
    return [make(rng, slot) for slot in range(n)]


def _op(kind: str, argv: list, expect: int = 0, **meta) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], "expect": expect,
            "meta": meta}


def _poly_text(coeffs) -> str:
    """Ascending coefficients as a JSON list, the CLI's exact form."""
    return "[" + ",".join(str(c) for c in coeffs) + "]"


def _digits_arg(digits) -> str:
    """The '=' form keeps argparse from reading '-2,1' as an option."""
    return "--digits=" + ",".join(str(v) for v in digits)


def _big(rng: random.Random, lo_digits: int, hi_digits: int) -> int:
    n = rng.randint(lo_digits, hi_digits)
    v = rng.randint(10 ** (n - 1), 10 ** n - 1)
    return v if rng.random() < 0.5 else -v


# -- float properties used to select inputs --------------------------------


def _has_integer_root(coeffs) -> bool:
    """Monic degree <= 3 integer polynomials factor over Q exactly when
    they have an integer root, which divides the constant term."""
    a0 = abs(coeffs[0])
    for r in range(1, a0 + 1):
        if a0 % r:
            continue
        for s in (r, -r):
            if sum(c * s ** i for i, c in enumerate(coeffs)) == 0:
                return True
    return False


def _moduli(coeffs) -> np.ndarray:
    return np.abs(np.roots(list(reversed([float(c) for c in coeffs]))))


def _expanding(coeffs, margin: float = 0.05) -> bool:
    return bool(np.all(_moduli(coeffs) > 1 + margin))


def coordinate_box(coeffs, digits) -> tuple[float, int]:
    """Float estimate of the lattice scanned by periodic_points: the
    coordinate bound B and the candidate count (2B + 1)^d."""
    roots = np.roots(list(reversed([float(c) for c in coeffs])))
    mods = np.abs(roots)
    d = len(roots)
    k_sup = max(abs(x) for x in digits)
    c = max(1 + k_sup / (m - 1) for m in mods)
    rows = np.zeros(d)
    for k in range(d):
        others = [roots[j] for j in range(d) if j != k]
        poly = np.poly(others)[::-1] if others else np.array([1.0])
        den = abs(np.prod([roots[k] - o for o in others])) if others else 1.0
        rows += np.abs(poly) / den
    bound = float(rows.max() * c)
    return bound, (2 * int(bound) + 1) ** d


def _mul_alpha(coeffs, y: tuple) -> tuple:
    """alpha * y on power-basis coordinates, monic coeffs ascending."""
    d = len(coeffs) - 1
    top = y[-1]
    return tuple([-coeffs[0] * top]
                 + [y[i - 1] - coeffs[i] * top for i in range(1, d)])


@functools.lru_cache(maxsize=None)
def float_zero_search(coeffs: tuple, height: int, cap: int = 6000):
    """Float replay of the breadth-first zero-automaton search.

    Returns (states, boundary, nontrivial): the number of states kept
    (None above cap), whether some kept state lies on the pruning band
    |sigma(z)| = H / (|sigma(alpha)| - 1) up to float error (those are
    the builds the program refines and reruns), and whether the trimmed
    automaton has an edge with a nonzero digit."""
    d = len(coeffs) - 1
    roots = np.roots(list(reversed([float(c) for c in coeffs])))
    mods = np.abs(roots)
    expanding = [k for k in range(d) if mods[k] > 1]
    powers = np.array([[roots[k] ** i for i in range(d)] for k in expanding])
    band = np.array([height / (mods[k] - 1) for k in expanding])[:, None]
    digit_row = np.arange(-height, height + 1)[None, :]
    zero = (0,) * d
    seen = {zero}
    frontier = [zero]
    edges = []
    boundary = False
    while frontier:
        nxt = []
        for y in frontier:
            ay = _mul_alpha(coeffs, y)
            # sigma_k(alpha y + digit) for every digit at once
            rel = np.abs((powers @ np.array(ay, dtype=float))[:, None]
                         + digit_row) / band
            worst = rel.max(axis=0)
            for j, digit in enumerate(range(-height, height + 1)):
                if worst[j] > 1 + 1e-9:
                    continue
                if worst[j] > 1 - 1e-9:
                    boundary = True
                z = (ay[0] + digit,) + ay[1:]
                edges.append((y, digit, z))
                if z not in seen:
                    seen.add(z)
                    nxt.append(z)
                    if len(seen) > cap:
                        return None, boundary, False
        frontier = nxt
    # trim: keep states that reach zero again
    back: dict = {}
    for y, _digit, z in edges:
        back.setdefault(z, []).append(y)
    alive = {zero}
    stack = [zero]
    while stack:
        for y in back.get(stack.pop(), ()):
            if y not in alive:
                alive.add(y)
                stack.append(y)
    nontrivial = any(digit and y in alive and z in alive
                     for y, digit, z in edges)
    return len(seen), boundary, nontrivial


# Rough seconds per certified child check and expanding conjugate, by
# degree, at the seed.
_PER_CHECK_S = {2: 1.9e-4, 3: 3.4e-4}


def _build_cost(coeffs, states: int, height: int, boundary: bool) -> float:
    """Rough seconds for one build at the seed: one certified check per
    child and expanding conjugate, four passes when the band is hit."""
    n_exp = int(np.sum(_moduli(coeffs) > 1))
    per_check = _PER_CHECK_S[len(coeffs) - 1]
    return (states * (2 * height + 1) * n_exp * per_check
            * (4 if boundary else 1))


# -- cli-queries -----------------------------------------------------------

_LINEAR = [[2, 1], [-2, 1], [3, 1], [-3, 1], [5, 1], [-5, 1], [7, 1]]


def _rational_base(rng: random.Random) -> tuple[int, int]:
    while True:
        a = rng.randint(2, 9)
        b = rng.choice([v for v in range(-(a - 1), a) if v])
        if math.gcd(a, b) == 1:
            return a, b


def _base_arg(a: int, b: int) -> str:
    """--base for a/b.  The sign goes on the numerator (the parser reads
    'a/b' as a Fraction) and the '=' form keeps argparse from taking a
    leading '-' for an option."""
    return f"--base={a}/{b}" if b > 0 else f"--base=-{a}/{-b}"


def rational_digits(a: int, b: int) -> list:
    """The canonical digit set for base a/b (negative, positive and
    redundant regimes), restated here to draw transducer input words."""
    if b < 0:
        return list(range(a))
    if b == a - 1:
        return list(range(-(a - 1), a))
    shifted = set()
    for k in range(1, (a - 1) // (a - b) + 1):
        shifted.update((k * (a - b), k * (a - b) - a))
    return sorted(set(range(a)) ^ shifted)


def _quadratic_expanding(rng: random.Random, a2_lo=2, a2_hi=6, c_max=3):
    while True:
        coeffs = [rng.randint(a2_lo, a2_hi) * rng.choice([1, -1]),
                  rng.randint(-c_max, c_max), 1]
        if not _has_integer_root(coeffs) and _expanding(coeffs):
            return coeffs


def _eisenstein(rng: random.Random) -> list:
    """An irreducible polynomial of degree 2..16 (Eisenstein at p)."""
    d = rng.randint(2, 16)
    p = rng.choice([2, 3, 5])
    u = rng.choice([v for v in (-2, -1, 1, 2) if v % p])
    middle = [p * rng.randint(-1, 1) for _ in range(d - 1)]
    return [p * u] + middle + [1]


_MALFORMED = [
    ["analyze", "--poly", "x^^2+1"],
    ["analyze", "--poly", "x^2-4"],
    ["classify", "--poly", "x^3+x"],
    ["is-ns", "--poly", "x^2+2x+2", "--digits", "0,2"],
    ["rational", "--base", "3/5", "verify"],
    ["rational", "--base", "5/0", "expand", "7"],
    ["zero-automaton", "--poly", "x^2+1", "--height", "1"],
    ["periodic", "--poly", "x^2-x-1"],
    ["expand", "--poly", "x^2+2x+2", "--value", "[1,x]"],
    ["expand", "--poly", "x+3", "--value", "1.5"],
    ["count", "--poly", "x^2+2x+2", "--height", "1"],
    ["zero-automaton", "--poly", "x^2-2", "--height", "two"],
    ["is-ns", "--digits", "0,1"],
]


def _cli_rational_expand(rng):
    a, b = _rational_base(rng)
    values = [_big(rng, 20, 60) for _ in range(3)]
    return _op("rational-expand", ["rational", _base_arg(a, b), "expand",
                                   *values], a=a, b=b)


def _cli_expand_linear(rng):
    coeffs = rng.choice(_LINEAR)
    if rng.random() < 0.5:
        value = str(_big(rng, 20, 60))
    else:
        value = "[" + str(_big(rng, 20, 60)) + "]"
    return _op("expand-linear", ["expand", "--poly", _poly_text(coeffs),
                                 "--value", value], coeffs=coeffs)


def _cli_expand_quadratic(rng):
    coeffs = _quadratic_expanding(rng)
    if rng.random() < 0.5:
        value = str(_big(rng, 20, 60))
    else:
        value = f"[{_big(rng, 20, 60)},{_big(rng, 20, 60)}]"
    return _op("expand-quadratic", ["expand", "--poly", _poly_text(coeffs),
                                    "--value", value], coeffs=coeffs)


# Irreducible palindromic polynomials: cyclotomic and Salem.  Their
# unit-circle roots are counted exactly (Sturm) during classification.
_PALINDROMIC = [[1, 1, 1, 1, 1], [1, -1, 1, -1, 1], [1, 0, -1, 0, 1],
                [1, 0, 0, 0, 1], [1, 0, 0, 1, 0, 0, 1], [1, 1, 1, 1, 1, 1, 1],
                [1, -1, -1, -1, 1], [1, 0, -1, -1, -1, 0, 1],
                [1, 0, 0, -1, -1, -1, 0, 0, 1],
                [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]]


def _cli_analyze(rng):
    if rng.random() < 1 / 3:
        coeffs = rng.choice(_PALINDROMIC)
    else:
        coeffs = _eisenstein(rng)
    return _op("analyze", ["analyze", "--poly", _poly_text(coeffs)])


def _cli_rational_verify(rng):
    a, b = _rational_base(rng)
    return _op("rational-verify", ["rational", _base_arg(a, b), "verify"],
               a=a, b=b)


def _cli_classify(rng):
    while True:
        d = rng.choice([1, 2, 3])
        coeffs = [rng.choice([v for v in range(-7, 8) if abs(v) >= 2])]
        coeffs += [rng.randint(-3, 3) for _ in range(d - 1)] + [1]
        if (d == 1 or not _has_integer_root(coeffs)) and _expanding(coeffs):
            return _op("classify", ["classify", "--poly", _poly_text(coeffs)])


def _cli_transduce(rng):
    a, b = _rational_base(rng)
    digits = rational_digits(a, b)
    word = [rng.choice(digits) for _ in range(rng.randint(5, 30))]
    subtract = rng.random() < 0.5
    argv = ["rational", _base_arg(a, b), "transduce", *word]
    if subtract:
        argv.append("--subtract")
    return _op("rational-transduce", argv, a=a, b=b, digits=digits,
               word=word, subtract=subtract)


def _small_crs(rng, coeffs):
    m = abs(coeffs[0])
    digits = [r + m * rng.randint(-1, 1) for r in range(m)]
    if rng.random() < 0.5:
        digits[0] = 0
    return digits


def _cli_is_ns(rng):
    while True:
        coeffs = _quadratic_expanding(rng, 2, 5)
        digits = list(range(abs(coeffs[0])))
        box, count = coordinate_box(coeffs, digits)
        if count <= 1500:
            return _op("is-ns-small", ["is-ns", "--poly", _poly_text(coeffs)],
                       coeffs=coeffs, digits=digits, box=box)


def _cli_periodic(rng):
    while True:
        if rng.random() < 0.5:
            coeffs = rng.choice(_LINEAR)
        else:
            coeffs = _quadratic_expanding(rng, 2, 5)
        digits = _small_crs(rng, coeffs)
        if coordinate_box(coeffs, digits)[1] <= 1500:
            return _op("periodic-small",
                       ["periodic", "--poly", _poly_text(coeffs),
                        _digits_arg(digits)],
                       coeffs=coeffs, digits=digits)


def _cli_count(rng):
    while True:
        coeffs = _quadratic_expanding(rng, 2, 3, 2)
        states, boundary, _ = float_zero_search(tuple(coeffs), 1)
        if states is not None and _build_cost(coeffs, states, 1,
                                              boundary) < 0.05:
            length = rng.randint(6, 10)
            return _op("count-small",
                       ["count", "--poly", _poly_text(coeffs), "--height", 1,
                        "--length", length],
                       coeffs=coeffs, height=1, length=length)


def _cli_sweep(rng):
    return _op("sweep-quadratic",
               ["sweep-quadratic", "--a2-max", rng.choice([2, 3])])


def _cli_malformed(rng):
    return _op("malformed", rng.choice(_MALFORMED), expect=2)


_CLI_DECK = [_cli_rational_expand, _cli_expand_linear, _cli_analyze,
             _cli_rational_verify, _cli_expand_quadratic, _cli_classify,
             _cli_transduce, _cli_is_ns, _cli_malformed, _cli_periodic,
             _cli_count, _cli_sweep]


def _cli_queries(rng: random.Random, slot: int) -> dict:
    return _CLI_DECK[slot % len(_CLI_DECK)](rng)


# -- ns-verdicts -----------------------------------------------------------

# Estimated seconds of lattice work per candidate, by degree, at the seed.
_PER_CANDIDATE_S = {2: 2e-4, 3: 8e-4}
# Slots cycle through (degree, estimated-seconds stratum).  Cubic
# lattices come in steps: B = 3, 4, 5 give 343, 729, 1331 candidates.
_NS_DECK = [(2, (0.1, 0.2)), (3, (0.25, 0.6)), (2, (0.3, 0.45)),
            (3, (0.6, 1.1)), (2, (0.6, 0.9)), (3, (0.25, 0.6))]
# Coefficient box below the constant term; random cubics with larger
# coefficients are rarely expanding.
_NS_COEFF_MAX = {2: 6, 3: 2}


def _ns_verdicts(rng: random.Random, slot: int) -> dict:
    degree, (lo, hi) = _NS_DECK[slot % len(_NS_DECK)]
    c_max = _NS_COEFF_MAX[degree]
    while True:
        m = rng.randint(2, 7)
        coeffs = ([m * rng.choice([1, -1])]
                  + [rng.randint(-c_max, c_max) for _ in range(degree - 1)]
                  + [1])
        if _has_integer_root(coeffs) or not _expanding(coeffs, 0.02):
            continue
        digits = _small_crs(rng, coeffs)
        bound, count = coordinate_box(coeffs, digits)
        est = count * _PER_CANDIDATE_S[degree]
        if lo <= est < hi:
            return _op("is-ns", ["is-ns", "--poly", _poly_text(coeffs),
                                 _digits_arg(digits)],
                       coeffs=coeffs, digits=digits, box=bound,
                       est_s=round(est, 3))


# -- automata --------------------------------------------------------------

_AUTO_BAND = (0.3, 0.65)
# (operation, base kind) per slot.  "refining": some state lies on the
# pruning band, so the build refines and reruns; "one-pass": it settles
# in one pass; "rational": a degree-one base.
_AUTO_DECK = [("zero-automaton", "refining"), ("count", "one-pass"),
              ("min-height", "refining"), ("zero-automaton", "one-pass"),
              ("count", "refining"), ("min-height", "one-pass"),
              ("count", "rational"), ("min-height", "rational")]
_COUNT_LENGTHS = {1: (6, 10), 2: (4, 7), 3: (4, 6)}


def _pisot_or_expanding(coeffs) -> bool:
    roots = np.roots(list(reversed([float(c) for c in coeffs])))
    mods = np.abs(roots)
    if np.any(np.abs(mods - 1) < 1e-3):
        return False
    if np.all(mods > 1):
        return True
    big = roots[mods > 1]
    return len(big) == 1 and abs(big[0].imag) < 1e-9


def _monic_automaton_op(rng, op: str, kind: str) -> dict:
    want_boundary = kind == "refining"
    lo, hi = _AUTO_BAND
    while True:
        d = rng.choice([2, 3])
        coeffs = [rng.choice([v for v in range(-3, 4) if v])]
        coeffs += [rng.randint(-3, 3) for _ in range(d - 1)] + [1]
        if _has_integer_root(coeffs) or not _pisot_or_expanding(coeffs):
            continue
        if op == "min-height":
            cost, boundary, h_star = 0.0, False, None
            for h in range(1, max(abs(c) for c in coeffs) + 1):
                states, hit, nontrivial = float_zero_search(tuple(coeffs), h)
                if states is None:
                    break
                boundary = boundary or hit
                cost += _build_cost(coeffs, states, h, hit)
                if nontrivial:
                    h_star = h
                    break
            if h_star is None or boundary != want_boundary:
                continue
            if lo <= cost < hi:
                return _op(op, ["min-height", "--poly", _poly_text(coeffs)],
                           coeffs=coeffs, base_kind=kind,
                           est_s=round(cost, 3))
            continue
        height = rng.randint(1, 3)
        states, boundary, _ = float_zero_search(tuple(coeffs), height)
        if states is None or boundary != want_boundary:
            continue
        cost = _build_cost(coeffs, states, height, boundary)
        if not lo <= cost < hi:
            continue
        if op == "count":
            length = rng.randint(*_COUNT_LENGTHS[height])
            return _op(op, ["count", "--poly", _poly_text(coeffs),
                            "--height", height, "--length", length],
                       coeffs=coeffs, height=height, length=length,
                       base_kind=kind, est_s=round(cost, 3))
        return _op(op, ["zero-automaton", "--poly", _poly_text(coeffs),
                        "--height", height, "--trim"],
                   coeffs=coeffs, height=height, base_kind=kind,
                   est_s=round(cost, 3))


def _rational_automaton_op(rng, op: str) -> dict:
    while True:
        p = rng.randint(2, 7) * rng.choice([1, -1])
        q = rng.randint(1, 4)
        if math.gcd(p, q) == 1 and abs(p) != q:
            break
    coeffs = [-p, q]  # q x - p, root p/q
    if op == "min-height":
        return _op(op, ["min-height", "--poly", _poly_text(coeffs)],
                   coeffs=coeffs, base_kind="rational")
    height = rng.randint(1, 3)
    length = rng.randint(*_COUNT_LENGTHS[height])
    return _op(op, ["count", "--poly", _poly_text(coeffs), "--height", height,
                    "--length", length],
               coeffs=coeffs, height=height, length=length,
               base_kind="rational")


def _automata(rng: random.Random, slot: int) -> dict:
    op, kind = _AUTO_DECK[slot % len(_AUTO_DECK)]
    if kind == "rational":
        return _rational_automaton_op(rng, op)
    return _monic_automaton_op(rng, op, kind)


GENERATORS = {"cli-queries": _cli_queries, "ns-verdicts": _ns_verdicts,
              "automata": _automata}
