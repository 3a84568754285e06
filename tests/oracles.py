"""Independent brute-force reference computations for the test suite.

Everything here is deliberately naive: exhaustive enumeration with
exact integer arithmetic, no intervals, no pruning, and no shared code
with the package internals.  Slow but obviously correct on the small
instances the tests use.  The exceptions are Interval and FractionBox,
the library's earlier interval arithmetic on Fraction endpoints, kept as
the reference for the integer boxes that replaced it;
zero_automaton_reference, which keeps the library's earlier Z(H) pruning
on those boxes as a reference for the integer fixed-point pruning that
replaced it; zero_automaton_rational_reference, the library's earlier
separate Z(H) builder for degree-one bases; DictZeroAutomaton, the
library's earlier Z(H) keyed by (state, digit), as the reference for the
numbered successor table that replaced it; and
shortest_nonzero_word_reference, the library's earlier second
breadth-first search for the shortest zero word.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np


def companion_matrix(coeffs) -> np.ndarray:
    """Multiplication-by-alpha on the power basis for a monic polynomial
    (coefficients ascending), acting on column vectors."""
    d = len(coeffs) - 1
    assert coeffs[d] == 1
    mat = np.zeros((d, d), dtype=np.int64)
    for j in range(d - 1):
        mat[j + 1, j] = 1
    for i in range(d):
        mat[i, d - 1] += -coeffs[i]
    return mat


def zero_words_monic(coeffs, height: int, max_len: int) -> set:
    """All words (MSB first) over {-height..height} of length 1..max_len
    whose exact Horner evaluation at alpha is 0, for monic coeffs."""
    d = len(coeffs) - 1
    mat = companion_matrix(coeffs)
    digits = np.arange(-height, height + 1, dtype=np.int64)
    k = len(digits)
    out = set()
    words = digits.reshape(-1, 1)
    states = np.zeros((k, d), dtype=np.int64)
    states[:, 0] = digits
    for length in range(1, max_len + 1):
        assert int(np.abs(states).max(initial=0)) < 2**55
        hit = np.all(states == 0, axis=1)
        for row in words[hit]:
            out.add(tuple(int(x) for x in row))
        if length == max_len:
            break
        n = states.shape[0]
        states = np.repeat(states @ mat.T, k, axis=0)
        states[:, 0] += np.tile(digits, n)
        words = np.hstack([np.repeat(words, k, axis=0),
                           np.tile(digits, n).reshape(-1, 1)])
    return out


def zero_words_rational(p: int, q: int, height: int, max_len: int) -> set:
    """Zero words for alpha = p/q.  The running value after j digits is
    tracked exactly as value * q^j, an integer."""
    digits = np.arange(-height, height + 1, dtype=np.int64)
    k = len(digits)
    out = set()
    words = digits.reshape(-1, 1)
    scaled = digits * q
    for length in range(1, max_len + 1):
        assert int(np.abs(scaled).max(initial=0)) < 2**55
        for row in words[scaled == 0]:
            out.add(tuple(int(x) for x in row))
        if length == max_len:
            break
        n = scaled.shape[0]
        mult = q ** (length + 1)
        scaled = np.repeat(scaled * p, k) + np.tile(digits, n) * mult
        words = np.hstack([np.repeat(words, k, axis=0),
                           np.tile(digits, n).reshape(-1, 1)])
    return out


def zero_words_by_division(coeffs, height: int, max_len: int) -> set:
    """Zero words (MSB first) over {-height..height} of length
    1..max_len for any primitive irreducible f = coeffs (ascending),
    monic or not: the word polynomials that f divides exactly over Q."""
    lead = Fraction(coeffs[-1])
    out = set()
    for length in range(1, max_len + 1):
        for word in itertools.product(range(-height, height + 1),
                                      repeat=length):
            rem = [Fraction(c) for c in word]  # MSB first
            for i in range(len(rem) - len(coeffs) + 1):
                q = rem[i] / lead
                for j, c in enumerate(reversed(coeffs)):
                    rem[i + j] -= q * c
            if not any(rem):
                out.add(word)
    return out


def representable_values(coeffs, digits, max_len: int) -> set:
    """Coordinate tuples of every ring element writable as a digit word
    of length <= max_len, monic coeffs, integer digits."""
    d = len(coeffs) - 1

    def mul(x):
        top = x[-1]
        out = [-coeffs[0] * top]
        for i in range(1, d):
            out.append(x[i - 1] - coeffs[i] * top)
        return tuple(out)

    cur = {(0,) * d}
    seen = set(cur)
    for _ in range(max_len):
        nxt = set()
        for x in cur:
            ax = mul(x)
            for dig in digits:
                nxt.add((ax[0] + dig,) + ax[1:])
        seen |= nxt
        cur = nxt
    return seen


def periodic_points_linear(a: int, b: int, digits, bound: int) -> set:
    """Cycle elements of x -> (x - r) * b / a over the integers
    |x| <= bound, r the unique digit congruent to x mod a."""
    by_res = {dd % a: dd for dd in digits}
    assert len(by_res) == a
    guard = 100 * (bound + 10)
    per: set = set()
    for start in range(-bound, bound + 1):
        x = start
        trail: dict = {}
        order: list = []
        while x not in trail and abs(x) <= guard:
            trail[x] = len(order)
            order.append(x)
            r = by_res[x % a]
            num = (x - r) * b
            assert num % a == 0
            x = num // a
        if x in trail:
            per.update(order[trail[x]:])
    return per


def periodic_points_quadratic(a1: int, a2: int, digits, box: int) -> set:
    """Cycle elements of backward division for x^2 + a1 x + a2 with an
    integer digit set, scanning all |u|, |v| <= box.  Inverts
    alpha*(p, q) = (-a2 q, p - a1 q) exactly."""
    guard = 20 * box + 200
    digit_of = {dd % a2: dd for dd in reversed(digits)}  # first per class
    per: set = set()
    for x in itertools.product(range(-box, box + 1), repeat=2):
        trail: dict = {}
        order: list = []
        while x not in trail:
            trail[x] = len(order)
            order.append(x)
            r = digit_of[x[0] % a2]
            qq = -((x[0] - r) // a2)
            pp = x[1] + a1 * qq
            x = (pp, qq)
            if abs(pp) > guard or abs(qq) > guard:
                break
        if x in trail:
            per.update(order[trail[x]:])
    return per


def height_values_naive(reps, s: int) -> set:
    """All sums a[0][j0] + ... + a[m][jm], m <= s, digits chosen
    independently at each coordinate."""
    padded = [tuple(r) + (0,) * (s + 1 - len(r)) for r in reps]
    out: set = set()
    for m in range(s + 1):
        for combo in itertools.product(range(len(padded)), repeat=m + 1):
            out.add(sum(padded[j][i] for i, j in enumerate(combo)))
    return out


class Interval:
    """Closed interval [lo, hi] with Fraction endpoints."""

    def __init__(self, lo, hi) -> None:
        self.lo, self.hi = Fraction(lo), Fraction(hi)
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    def scale(self, q) -> "Interval":
        return self * Interval(q, q)

    def square(self) -> "Interval":
        """Tighter than self * self when the interval straddles zero."""
        a, b = self.lo * self.lo, self.hi * self.hi
        if self.lo <= 0 <= self.hi:
            return Interval(0, max(a, b))
        return Interval(min(a, b), max(a, b))

    def outward(self, bits: int) -> "Interval":
        """The smallest interval on the 2^-bits grid that holds self."""
        one = 1 << bits
        return Interval(Fraction(math.floor(self.lo * one), one),
                        Fraction(math.ceil(self.hi * one), one))


class FractionBox:
    """Axis-aligned complex rectangle, a pair of Fraction intervals."""

    def __init__(self, re: Interval, im: Interval) -> None:
        self.re, self.im = re, im

    @staticmethod
    def point(re, im=0) -> "FractionBox":
        return FractionBox(Interval(re, re), Interval(im, im))

    @staticmethod
    def of(box) -> "FractionBox":
        """The library box with the same endpoints."""
        return FractionBox(Interval(box.re.lo, box.re.hi),
                           Interval(box.im.lo, box.im.hi))

    def ends(self) -> tuple:
        return (self.re.lo, self.re.hi, self.im.lo, self.im.hi)

    def __add__(self, other: "FractionBox") -> "FractionBox":
        return FractionBox(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "FractionBox") -> "FractionBox":
        return FractionBox(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "FractionBox") -> "FractionBox":
        return FractionBox(self.re * other.re - self.im * other.im,
                           self.re * other.im + self.im * other.re)

    def scale(self, q) -> "FractionBox":
        return FractionBox(self.re.scale(q), self.im.scale(q))

    def outward(self, bits: int) -> "FractionBox":
        return FractionBox(self.re.outward(bits), self.im.outward(bits))

    def abs_sq(self) -> Interval:
        return self.re.square() + self.im.square()


def horner_box_reference(coeffs, z: FractionBox, bits: int) -> FractionBox:
    """An integer polynomial at a box, coefficients ascending, every
    Horner step rounded outward to the 2^-bits grid."""
    acc = FractionBox.point(0)
    for c in reversed(coeffs):
        acc = (acc * z + FractionBox.point(c)).outward(bits)
    return acc


def zero_automaton_reference(base, height: int, max_states: int):
    """(states, transitions, level) of the untrimmed Z(height) for a
    monic AlgebraicBase of degree >= 2, pruning each successor with
    Fraction-endpoint Box arithmetic on powers of the certified boxes of
    base.conjugates(): it is dropped only when some expanding conjugate
    provably exceeds H/(|alpha_k| - 1)."""
    # Imported here so the brute-force oracles above stay importable
    # without the package on the path.
    from algdigits.errors import ResourceCapError

    moduli = base.conjugate_moduli()
    expanding = [k for k, (lo, _hi) in enumerate(moduli) if lo > 1]
    bound_hi = {k: (Fraction(height) / (moduli[k][0] - 1)) ** 2
                for k in expanding}

    table = [list(itertools.accumulate([FractionBox.of(box)] * (base.degree - 1),
                                       FractionBox.__mul__,
                                       initial=FractionBox.point(1)))
             for box in base.conjugates()]

    def sigma_abs_sq(coords, k):
        acc = FractionBox.point(0)
        for i, c in enumerate(coords):
            if c:
                acc = acc + table[k][i].scale(c)
        return acc.abs_sq()

    def children(y):
        """Deterministic list of (digit, child) kept from y."""
        base_z = base.mul_alpha(y)
        kept = []
        for d in range(-height, height + 1):
            z = base.add_int(base_z, d)
            if all(sigma_abs_sq(z, k).lo <= bound_hi[k] for k in expanding):
                kept.append((d, z))
        return kept

    zero = base.zero
    level = {zero: 1}
    frontier = [zero]
    transitions = {}
    depth = 1
    while frontier:
        depth += 1
        nxt = []
        for y in frontier:
            for d, z in children(y):
                transitions[(y, d)] = z
                if z not in level:
                    if len(level) >= max_states:
                        raise ResourceCapError(
                            f"state cap {max_states} exceeded at height "
                            f"{height}")
                    level[z] = depth
                    nxt.append(z)
        frontier = nxt
    states = tuple(sorted(level))
    return states, transitions, level


def zero_automaton_rational_reference(base, height: int, max_states: int):
    """(states, transitions, level) of the untrimmed Z(height) for a
    degree-one AlgebraicBase.  States are the rational integers within
    the invariant band; a transition exists when alpha*y + d is again an
    integer, which needs q | y.  A state not divisible by q is a dead
    end: its denominator valuation only sinks further, so no continuation
    returns to 0."""
    from algdigits.errors import ResourceCapError

    alpha = base.alpha_fraction
    p, q = alpha.numerator, alpha.denominator
    if abs(p) > q:
        # |x| <= H / (|alpha| - 1), exactly
        def in_band(x: int) -> bool:
            return abs(x) * (abs(p) - q) <= height * q
    else:
        # |x| <= H / (1 - |alpha|); forward-invariant, so this prunes
        # nothing reachable and only guards the closure
        def in_band(x: int) -> bool:
            return abs(x) * (q - abs(p)) <= height * q
    level = {0: 1}
    frontier = [0]
    transitions = {}
    depth = 1
    while frontier:
        depth += 1
        nxt = []
        for y in frontier:
            if y % q != 0:
                continue
            ay = p * (y // q)
            for d in range(-height, height + 1):
                z = ay + d
                if not in_band(z):
                    continue
                transitions[(y, d)] = z
                if z not in level:
                    if len(level) >= max_states:
                        raise ResourceCapError(
                            f"state cap {max_states} exceeded")
                    level[z] = depth
                    nxt.append(z)
        frontier = nxt
    return tuple(sorted(level)), transitions, level


class DictZeroAutomaton:
    """Z(height) as the library kept it before its numbered successor
    table: sorted states and a dict (state, digit) -> state, with the
    earlier dict-based trim, accepts, language and word count, as the
    reference for the table."""

    def __init__(self, base, height: int, states: tuple, transitions: dict):
        self.base, self.height = base, height
        self.states, self.transitions = states, transitions

    @classmethod
    def build(cls, base, height: int,
              max_states: int = 10**6) -> "DictZeroAutomaton":
        """The untrimmed reference Z(height) of either builder above."""
        builder = (zero_automaton_rational_reference if base.degree == 1
                   else zero_automaton_reference)
        states, transitions, _level = builder(base, height, max_states)
        return cls(base, height, states, transitions)

    def edges(self) -> list:
        """The sorted edges (i, d, j), states numbered as in states."""
        index = {s: i for i, s in enumerate(self.states)}
        return sorted((index[y], d, index[z])
                      for (y, d), z in self.transitions.items())

    def numbered(self):
        """The library's ZeroAutomaton with the same states and edges."""
        from algdigits.zero_automaton import ZeroAutomaton

        rows: list = [[] for _ in self.states]
        for i, d, j in self.edges():
            rows[i].append((d, j))
        return ZeroAutomaton(self.base, self.height, self.states,
                             tuple(map(tuple, rows)), None, False)

    def trim(self) -> "DictZeroAutomaton":
        """Restrict to the states that can reach 0, by breadth-first
        search over a reverse dict of sets."""
        zero = self.base.zero
        reverse: dict = {}
        for (y, _d), z in self.transitions.items():
            reverse.setdefault(z, set()).add(y)
        alive = {zero}
        queue = [zero]
        for z in queue:
            for y in reverse.get(z, ()):
                if y not in alive:
                    alive.add(y)
                    queue.append(y)
        return DictZeroAutomaton(
            self.base, self.height,
            tuple(s for s in self.states if s in alive),
            {(y, d): z for (y, d), z in self.transitions.items()
             if y in alive and z in alive})

    def accepts(self, word) -> bool:
        state = self.base.zero
        for d in word:
            state = self.transitions.get((state, d))
            if state is None:
                return False
        return state == self.base.zero

    def language(self, length: int) -> list:
        """The accepted words of the given length, in lexicographic order,
        by filtering every word over the alphabet."""
        return [w for w in itertools.product(
                    range(-self.height, self.height + 1), repeat=length)
                if self.accepts(w)]

    def count_words(self, length: int) -> int:
        counts = {self.base.zero: 1}
        for _ in range(length):
            nxt: dict = {}
            for (y, _d), z in self.transitions.items():
                if y in counts:
                    nxt[z] = nxt.get(z, 0) + counts[y]
            counts = nxt
        return counts.get(self.base.zero, 0)


def _edge_table(auto) -> tuple:
    """(initial state, {(i, d): j}) from auto's JSON export."""
    payload = auto.to_json_dict()
    return payload["initial"], {(i, d): j
                                for i, d, j in payload["transitions"]}


def shortest_nonzero_word_reference(auto):
    """A shortest word (MSB first) with a nonzero digit that leads from 0
    back to 0 along the exported edges of auto, or None: breadth-first
    search over (state, seen a nonzero digit) nodes, digits in
    increasing order."""
    zero, step = _edge_table(auto)
    start, target = (zero, False), (zero, True)
    parent: dict = {start: None}
    queue = [start]
    for node in queue:
        y, dirty = node
        for d in range(-auto.height, auto.height + 1):
            z = step.get((y, d))
            if z is None:
                continue
            nxt = (z, dirty or d != 0)
            if nxt in parent:
                continue
            parent[nxt] = (node, d)
            if nxt == target:
                digits = []
                while parent[nxt] is not None:
                    nxt, digit = parent[nxt]
                    digits.append(digit)
                return tuple(reversed(digits))
            queue.append(nxt)
    return None


def multiquadratic_poly(radicands) -> list[int]:
    """Ascending coefficients of the product of x - (+-sqrt(r_1) +- ...
    +- sqrt(r_k)) over all 2^k sign choices, for nonzero integers r_i.
    Each step replaces f(x) by f(x - sqrt r) f(x + sqrt r), computed
    exactly with pairs (a, b) standing for a + b sqrt(r).  For distinct
    primes (of either sign) this is the minimal polynomial of their
    square roots' sum (Swinnerton-Dyer when all are positive)."""
    f = [0, 1]
    for r in radicands:
        g: list = []   # f(x + sqrt r), by Horner
        for c in reversed(f):
            shifted = [(0, 0)] + g                          # x * g
            scaled = [(b * r, a) for a, b in g] + [(0, 0)]  # sqrt(r) * g
            g = [(u[0] + v[0], u[1] + v[1]) for u, v in zip(shifted, scaled)]
            g[0] = (g[0][0] + c, g[0][1])
        rational = [0] * (2 * len(g) - 1)
        irrational = [0] * (2 * len(g) - 1)
        for i, (a, b) in enumerate(g):
            for j, (c, d) in enumerate(g):   # times the conjugate c - d sqrt r
                rational[i + j] += a * c - b * d * r
                irrational[i + j] += b * c - a * d
        assert not any(irrational)
        f = rational
    return f


def growth_rate_dense(auto, iterations: int = 200) -> tuple:
    """(estimate, residual) of the dominant growth factor of a trim
    automaton's word counts, by power iteration on its dense n x n
    transition matrix."""
    n = len(auto.states)
    mat = np.zeros((n, n))
    for (i, _d), j in _edge_table(auto)[1].items():
        mat[j, i] += 1.0
    vec = np.ones(n) / n
    est = 0.0
    for _ in range(iterations):
        nxt = mat @ vec
        norm = float(np.linalg.norm(nxt))
        if norm == 0.0:
            return 0.0, 0.0
        est = norm / float(np.linalg.norm(vec))
        vec = nxt / norm
    residual = float(np.max(np.abs(mat @ vec - est * vec)))
    return est, residual
