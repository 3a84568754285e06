"""The automaton Z(H) recognizing the words (d_m, ..., d_0) over the
digit alphabet {-H, ..., H} whose value sum d_j alpha^j is exactly 0.

States are ring elements; reading digit d in state y moves to alpha*y +
d, so a word is accepted exactly when its Horner evaluation returns to
0.  Transitions are exact, which makes the accepted language sound by
construction: any kept path from 0 to 0 certifies a zero word.  For
completeness, a successor is discarded only when certified interval
arithmetic proves some expanding conjugate exceeds H/(|alpha_k| - 1),
the invariant every prefix evaluation of a zero word satisfies;
contracting conjugates stay bounded by induction and need no check.

Bases with a conjugate on the unit circle have no finite such automaton
and are refused; irrational bases are supported when the minimal
polynomial is monic, rational ones (including integers) always.
"""

from __future__ import annotations

import math
from collections import deque
from operator import mul

from .base import AlgebraicBase, make_base
from .errors import ResourceCapError, UnitCircleError, UnsupportedBaseError
from .intervals import dyadic_outward
from .polynomials import IntPolynomial
from .record import Record
from .roots import grid_bits

DEFAULT_MAX_STATES = 1_000_000


def _coerce(base) -> AlgebraicBase:
    if isinstance(base, AlgebraicBase):
        return base
    return make_base(base)


class WordSearchResult(Record):
    """A digit word found by automaton search, most significant digit
    first; the leading digit is nonzero and value_check records an
    exact re-evaluation of the word at alpha."""

    __slots__ = ("word", "height", "value_check")


class ZeroAutomaton(Record):
    __slots__ = ("base", "height", "states",
                 "transitions",  # (state, digit) -> state
                 "level",        # state -> index of the first breadth layer holding it
                 "trimmed")

    @property
    def zero(self):
        return self.base.zero

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return len(self.transitions)

    def accepts(self, word) -> bool:
        """Most significant digit first."""
        state = self.zero
        for d in word:
            state = self.transitions.get((state, d))
            if state is None:
                return False
        return state == self.zero

    def accepts_lsb(self, word) -> bool:
        """Least significant digit first (the mirrored language)."""
        return self.accepts(tuple(reversed(tuple(word))))

    def language(self, length: int):
        """All accepted words of exactly the given length, in
        lexicographic order."""
        out = []

        def walk(state, prefix):
            if len(prefix) == length:
                if state == self.zero:
                    out.append(tuple(prefix))
                return
            for d in range(-self.height, self.height + 1):
                nxt = self.transitions.get((state, d))
                if nxt is not None:
                    prefix.append(d)
                    walk(nxt, prefix)
                    prefix.pop()

        walk(self.zero, [])
        return out

    def trim(self) -> "ZeroAutomaton":
        """Restrict to states that can still reach 0.  All states are
        reachable from 0 by construction, so the result is trim and the
        accepted language is unchanged."""
        reverse: dict = {}
        for (y, _d), z in self.transitions.items():
            reverse.setdefault(z, set()).add(y)
        alive = {self.zero}
        queue = deque([self.zero])
        while queue:
            z = queue.popleft()
            for y in reverse.get(z, ()):
                if y not in alive:
                    alive.add(y)
                    queue.append(y)
        states = tuple(s for s in self.states if s in alive)
        transitions = {(y, d): z for (y, d), z in self.transitions.items()
                       if y in alive and z in alive}
        level = {s: self.level[s] for s in states}
        return ZeroAutomaton(self.base, self.height, states, transitions,
                             level, True)

    def has_nontrivial_word(self) -> bool:
        """True when some accepted word uses a nonzero digit.  On a trim
        automaton every edge lies on an accepting path, so this reduces
        to an edge scan."""
        auto = self if self.trimmed else self.trim()
        return any(d != 0 for (_y, d) in auto.transitions)

    def shortest_nonzero_word(self):
        """A shortest accepted word containing a nonzero digit (MSB
        first), as a WordSearchResult, or None.  The leading digit is
        automatically nonzero: a word starting with 0 would have a
        shorter accepted suffix with the same nonzero digit."""
        start = (self.zero, False)
        parent: dict = {start: None}
        queue = deque([start])
        target = (self.zero, True)
        while queue:
            node = queue.popleft()
            y, dirty = node
            for d in range(-self.height, self.height + 1):
                z = self.transitions.get((y, d))
                if z is None:
                    continue
                nxt = (z, dirty or d != 0)
                if nxt not in parent:
                    parent[nxt] = (node, d)
                    if nxt == target:
                        digits = []
                        cur = nxt
                        while parent[cur] is not None:
                            cur, digit = parent[cur]
                            digits.append(digit)
                        word = tuple(reversed(digits))
                        check = self.base.eval_word(word) == self.zero
                        return WordSearchResult(word,
                                                max(abs(d) for d in word),
                                                check)
                    queue.append(nxt)
        return None

    def count_words(self, length: int) -> int:
        """Exact number of accepted words of the given length."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        vec = {self.zero: 1}
        for _ in range(length):
            nxt: dict = {}
            for (y, _d), z in self.transitions.items():
                c = vec.get(y)
                if c:
                    nxt[z] = nxt.get(z, 0) + c
            vec = nxt
        return vec.get(self.zero, 0)

    def growth_rate(self, iterations: int = 200) -> tuple:
        """(estimate, residual) for the dominant growth factor of the
        accepted-word counts, by power iteration on the predecessor lists
        (one entry per edge) of the trim automaton; every sum is an fsum."""
        auto = self if self.trimmed else self.trim()
        if not auto.states:
            return 0.0, 0.0
        index = {s: i for i, s in enumerate(auto.states)}
        preds: list[list[int]] = [[] for _ in auto.states]
        for (y, _d), z in auto.transitions.items():
            preds[index[z]].append(index[y])

        def apply(vec):
            return [math.fsum([vec[j] for j in row]) for row in preds]

        def norm(vec):
            return math.sqrt(math.fsum([x * x for x in vec]))

        vec = [1.0 / len(preds)] * len(preds)
        est = 0.0
        for _ in range(iterations):
            nxt = apply(vec)
            size = norm(nxt)
            if size == 0.0:
                return 0.0, 0.0
            est = size / norm(vec)
            vec = [x / size for x in nxt]
        residual = max(abs(x - est * v) for x, v in zip(apply(vec), vec))
        return est, residual

    def to_json_dict(self) -> dict:
        index = {s: i for i, s in enumerate(self.states)}
        transitions = sorted((index[y], d, index[z])
                             for (y, d), z in self.transitions.items())
        return {
            "H": self.height,
            "base": str(self.base.min_poly),
            "states": [list(s) if isinstance(s, tuple) else s
                       for s in self.states],
            "transitions": [list(t) for t in transitions],
            "initial": index[self.zero],
            "final": index[self.zero],
        }

    def to_dot(self) -> str:
        def label(s):
            if isinstance(s, tuple):
                return "(" + ",".join(str(c) for c in s) + ")"
            return str(s)

        lines = ["digraph zero {", "  rankdir=LR;", "  node [shape=circle];",
                 f'  "{label(self.zero)}" [shape=doublecircle];']
        index = {s: i for i, s in enumerate(self.states)}
        for (y, d), z in sorted(self.transitions.items(),
                                key=lambda item: (index[item[0][0]],
                                                  item[0][1])):
            lines.append(f'  "{label(y)}" -> "{label(z)}" [label="{d}"];')
        lines.append("}")
        return "\n".join(lines)


def build_zero_automaton(base, height: int, *,
                         max_states: int = DEFAULT_MAX_STATES) -> ZeroAutomaton:
    """Construct Z(height) for the given base (an AlgebraicBase, a
    polynomial, or a polynomial string) in one pass at the base's
    current interval width.

    The accepted language, and so the trimmed automaton, does not
    depend on that width: a successor is pruned only when it provably
    leaves the invariant band, and an undecided one is kept and, if it
    cannot return to 0, removed by trim().  The untrimmed automaton is
    deterministic for a given width."""
    base = _coerce(base)
    if height < 1:
        raise ValueError("height must be at least 1")
    if base.n_unit > 0:
        raise UnitCircleError(
            f"{base.min_poly} has {base.n_unit} conjugate(s) on the unit "
            "circle; no finite automaton recognizes its zero words")
    if base.degree == 1:
        states, transitions, level = _build_rational(base, height, max_states)
    elif base.is_monic:
        states, transitions, level = _monic_pass(base, height, max_states)
    else:
        raise UnsupportedBaseError(
            "irrational bases need a monic minimal polynomial here "
            "(denominator ideals are not supported)")
    return ZeroAutomaton(base, height, states, transitions, level, False)


def _build_rational(base: AlgebraicBase, height: int, max_states: int):
    """States are the rational integers within the invariant band; a
    transition exists when alpha*y + d is again an integer, which needs
    q | y.  A state not divisible by q is a dead end: its denominator
    valuation only sinks further, so no continuation returns to 0."""
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


def _monic_pass(base: AlgebraicBase, height: int, max_states: int):
    """Breadth-first closure from 0 with certified pruning at the
    base's current interval width.  A successor is dropped only when
    some expanding conjugate provably exceeds H/(|alpha_k| - 1); every
    other successor is kept, which is sound.

    Each power box alpha_k^i is rounded outward once to integers L <= U
    on the 2^-n grid and kept as midpoint L + U and radius U - L over
    2^(n+1).  Then sigma_k(alpha*y) is an integer dot product per state,
    the digit d only shifts its real midpoint by d * 2^(n+1) (alpha^0 is
    the exact point 1), and a successor is pruned when an exact integer
    comparison proves |sigma_k|^2 > bound_k."""
    bits = grid_bits(base.achieved_width)
    unit = 1 << (bits + 1)
    table = base._store.power_boxes(base.degree)
    forms = []
    for k, (lo, _hi) in enumerate(base.conjugate_moduli()):
        if lo > 1:
            bound = (height / (lo - 1)) ** 2  # lo is a Fraction
            parts = []
            for box in table[k]:
                rl, ru = dyadic_outward(box.re, bits)
                il, iu = dyadic_outward(box.im, bits)
                parts.append((rl + ru, ru - rl, il + iu, iu - il))
            forms.append((*zip(*parts), bound.numerator << (2 * bits + 2),
                          bound.denominator))

    zero = base.zero
    level = {zero: 1}
    frontier = [zero]
    transitions = {}
    depth = 1
    while frontier:
        depth += 1
        nxt = []
        for y in frontier:
            ay = base.mul_alpha(y)
            mags = tuple(map(abs, ay))
            kept = range(-height, height + 1)
            for m_re, r_re, m_im, r_im, num, den in forms:
                re = sum(map(mul, ay, m_re))
                re_rad = sum(map(mul, mags, r_re))
                im_lo = max(abs(sum(map(mul, ay, m_im)))
                            - sum(map(mul, mags, r_im)), 0)
                kept = [d for d in kept
                        if (max(abs(re + d * unit) - re_rad, 0) ** 2
                            + im_lo * im_lo) * den <= num]
            for d in kept:
                z = base.add_int(ay, d)
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


class MinHeightReport(Record):
    __slots__ = ("h_star",
                 "word",         # shortest witness, most significant first
                 "witness",      # the same word as an IntPolynomial vanishing at alpha
                 "value_check",
                 "searched")     # (H, nontrivial trimmed edge count) per height


def min_height(base, h_max: int | None = None, *,
               max_states: int = DEFAULT_MAX_STATES) -> MinHeightReport:
    """The least H for which some nonzero digit word over {-H..H}
    evaluates to 0 at the base, with a shortest witness.

    The minimal polynomial itself gives a zero word of height equal to
    its largest coefficient, so the default search cap is exactly that
    height and the search always succeeds there.  An explicit h_max
    below the true minimum raises ResourceCapError."""
    base = _coerce(base)
    cap = base.min_poly.height() if h_max is None else h_max
    searched = []
    for h in range(1, cap + 1):
        auto = build_zero_automaton(base, h, max_states=max_states).trim()
        nontrivial = sum(1 for (_y, d) in auto.transitions if d != 0)
        searched.append((h, nontrivial))
        if nontrivial:
            found = auto.shortest_nonzero_word()
            if found is None or not found.value_check:
                raise AssertionError("trim automaton lost its witness")
            witness = IntPolynomial(tuple(reversed(found.word)))
            return MinHeightReport(h, found.word, witness,
                                   found.value_check, tuple(searched))
    raise ResourceCapError(
        f"height cap {cap} exhausted: no nonzero digit word over "
        f"{{-{cap}..{cap}}} evaluates to 0")
