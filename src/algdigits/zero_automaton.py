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
and are refused (min_height still answers them where L = U); irrational
bases are supported when the minimal polynomial is monic, rational ones
(including integers) always.
"""

import math

from .base import AlgebraicBase, make_base
from .errors import (DEFAULT_MAX_STATES, ResourceCapError, UnitCircleError,
                     UnsupportedBaseError, printable_check, write_decimal)
from .polynomials import IntPolynomial, divides_over_q
from .record import Record


class WordSearchResult(Record):
    """A digit word found by automaton search, most significant digit
    first; the leading digit is nonzero and value_check records that
    the minimal polynomial divides the word's polynomial over Q."""

    __slots__ = ("word", "height", "value_check")


class ZeroAutomaton(Record):
    """Z(H) as one numbered successor table: states are sorted, and
    rows[i] holds the edges (d, j) from states[i] to states[j], digits
    ascending, so the table in order is the sorted edges (i, d, j)."""

    __slots__ = ("base", "height", "states", "rows",
                 "word",         # shortest_nonzero_word()
                 "trimmed")

    @property
    def zero(self):
        return self.base.zero

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_edges(self) -> int:
        return sum(map(len, self.rows))

    def accepts(self, word) -> bool:
        """Most significant digit first."""
        start = i = self.states.index(self.zero)
        for d in word:
            i = next((j for e, j in self.rows[i] if e == d), None)
            if i is None:
                return False
        return i == start

    def language(self, length: int):
        """All accepted words of exactly the given length, in
        lexicographic order."""
        zero = self.states.index(self.zero)
        def walk(i, word):
            if len(word) == length:
                return [word] if i == zero else []
            return [w for d, j in self.rows[i] for w in walk(j, word + (d,))]
        return walk(zero, ())

    def _predecessors(self) -> list:
        """preds[j]: the i of every edge (i, d, j), in table order."""
        preds: list = [[] for _ in self.rows]
        for i, row in enumerate(self.rows):
            for _d, j in row:
                preds[j].append(i)
        return preds

    def trim(self) -> "ZeroAutomaton":
        """Restrict to states that can still reach 0.  All states are
        reachable from 0, so the result is trim; the language is kept."""
        preds = self._predecessors()
        queue = [self.states.index(self.zero)]
        alive = set(queue)
        for j in queue:
            for i in preds[j]:
                if i not in alive:
                    alive.add(i)
                    queue.append(i)
        new = {i: k for k, i in enumerate(sorted(alive))}  # in state order
        return ZeroAutomaton(
            self.base, self.height, tuple(map(self.states.__getitem__, new)),
            tuple([tuple([(d, new[j]) for d, j in self.rows[i] if j in new])
                   for i in new]),
            self.word, True)

    def shortest_nonzero_word(self):
        """A shortest accepted word containing a nonzero digit, as the
        WordSearchResult that the build found, or None."""
        return self.word

    def count_words(self, length: int) -> int:
        """Exact number of accepted words of the given length.  The count
        never falls as the length grows (0 keeps its loop of digit 0), so
        the first step whose count could not be printed raises
        ResourceCapError (errors.printable_check)."""
        if length < 0:
            raise ValueError("length must be nonnegative")
        zero = self.states.index(self.zero)
        vec = [0] * len(self.states)
        vec[zero] = 1
        check = printable_check("the word count", "length")
        for step in range(1, length + 1):
            nxt = [0] * len(vec)
            for c, row in zip(vec, self.rows):
                if c:
                    for _d, j in row:
                        nxt[j] += c
            if nxt == vec:  # every later step maps vec to itself
                break
            vec = nxt
            check(vec[zero], step)
        return vec[zero]

    def growth_rate(self) -> tuple:
        """(estimate, residual) for the dominant growth factor of the
        accepted-word counts, by 200 steps of power iteration on the
        predecessor lists (one entry per edge) of the trim automaton;
        every sum is an fsum."""
        auto = self if self.trimmed else self.trim()
        preds = [tuple(row) for row in auto._predecessors()]

        def apply(vec):
            return [math.fsum(map(vec.__getitem__, row)) for row in preds]

        def norm(vec):
            return math.sqrt(math.fsum([x * x for x in vec]))

        # 0 keeps its loop of digit 0, so no step reaches the zero vector
        vec = [1.0 / len(preds)] * len(preds)
        for _ in range(200):
            nxt = apply(vec)
            size = norm(nxt)
            est = size / norm(vec)
            vec = [x / size for x in nxt]
        residual = max(abs(x - est * v) for x, v in zip(apply(vec), vec))
        return est, residual

    def to_json_dict(self) -> dict:
        zero = self.states.index(self.zero)
        return {
            "H": self.height,
            "base": str(self.base.min_poly),
            "states": list(map(self.base.display, self.states)),
            "transitions": [[i, d, j] for i, row in enumerate(self.rows)
                            for d, j in row],
            "initial": zero,
            "final": zero,
        }

    def to_dot(self) -> str:
        labels = [self.base.display(s, str).replace(" ", "")
                  for s in self.states]
        zero = labels[self.states.index(self.zero)]
        return "\n".join(
            ["digraph zero {", "  rankdir=LR;", "  node [shape=circle];",
             f'  "{zero}" [shape=doublecircle];']
            + [f'  "{labels[i]}" -> "{labels[j]}" [label="{d}"];'
               for i, row in enumerate(self.rows) for d, j in row]
            + ["}"])


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
    base = make_base(base)
    if height < 1:
        raise ValueError("height must be at least 1")
    _require_supported(base)
    return ZeroAutomaton(base, height, *_monic_pass(base, height, max_states),
                         False)


def _require_supported(base: AlgebraicBase) -> None:
    """Refuse the bases no pass of Z(H) runs on."""
    if base.n_unit > 0:
        raise UnitCircleError(
            f"{base.min_poly} has {base.n_unit} conjugate(s) on the unit "
            "circle; no finite automaton recognizes its zero words")
    if base.degree > 1 and not base.is_monic:
        raise UnsupportedBaseError(
            "irrational bases need a monic minimal polynomial here "
            "(denominator ideals are not supported)")


def _monic_pass(base: AlgebraicBase, height: int, max_states: int,
                stop: bool = False):
    """(states, rows, word) of the breadth-first closure from 0 with
    certified pruning at the base's current interval width.  A successor
    is dropped only when base.conjugate_window proves that some
    expanding conjugate exceeds H/(|alpha_k| - 1); every other successor
    is kept, which is sound.  States are numbered as they are reached,
    then renumbered in sorted order.

    A state y whose alpha*y is off the lattice is a dead end, as its window
    is empty: for alpha = p/q, q does not divide y, and the denominator
    valuation only sinks further.  The band test of a degree-one base is exact.

    0 is left for another state only by nonzero digits, so the first
    edge from a state y != 0 into 0 ends a shortest zero word with a
    nonzero digit, or word is None; with stop, the pass returns
    (None, None, word) there, or at its end, and numbers no state."""
    window = base.conjugate_window(
        [height / (lo - 1) if lo > 1 else None  # lo is a Fraction
         for lo, _hi in base.conjugate_moduli()])

    order, number = [base.zero], {base.zero: 0}  # states, their numbers
    parent = [None]  # number -> (number, digit) it was first reached by
    spans = []       # number -> (its first edge in targets, its digits)
    targets = []     # the number of each successor, state by state
    word = None
    for i, y in enumerate(order):
        ay = base.mul_alpha(y)
        digits = window(ay, -height, height)
        spans.append((len(targets), digits))
        for d in digits:
            z = base.add_int(ay, d)
            j = number.get(z)
            if j is None:
                if len(order) >= max_states:
                    raise ResourceCapError(
                        f"state cap {write_decimal(max_states)} exceeded at "
                        f"height {write_decimal(height)}")
                j = number[z] = len(order)
                order.append(z)
                parent.append((i, d))
            elif word is None and j == 0 and i != 0:
                word = _path_word(base.min_poly, parent, i, d)
                if stop:
                    return None, None, word
            targets.append(j)
    if stop:
        return None, None, None
    ranked = sorted(range(len(order)), key=order.__getitem__)
    new = sorted(range(len(order)), key=ranked.__getitem__)  # its inverse
    targets = list(map(new.__getitem__, targets))
    rows = tuple([tuple(zip(digits, targets[k:k + len(digits)]))
                  for k, digits in map(spans.__getitem__, ranked)])
    return tuple(map(order.__getitem__, ranked)), rows, word


def _path_word(m: IntPolynomial, parent: list, i, d) -> WordSearchResult:
    """The digits of the first-reached path 0 -> ... -> state i, then d."""
    digits = [d]
    while parent[i] is not None:
        i, d = parent[i]
        digits.append(d)
    return _witness(m, tuple(reversed(digits)))


def _witness(m: IntPolynomial, word: tuple) -> WordSearchResult:
    """word, most significant digit first, checked by m | word over Q."""
    return WordSearchResult(
        word, max(map(abs, word)),
        divides_over_q(m, IntPolynomial(tuple(reversed(word)))))


class MinHeightReport(Record):
    __slots__ = ("h_star",
                 "word",         # shortest witness, most significant first
                 "witness",      # the same word as an IntPolynomial vanishing at alpha
                 "value_check",
                 "searched")     # (H, shortest word length or 0) per H from L


def min_height(base, h_max: int | None = None, *,
               max_states: int = DEFAULT_MAX_STATES) -> MinHeightReport:
    """The least H for which some nonzero digit word over {-H..H}
    evaluates to 0 at the base, with a shortest witness.

    Each height runs the pass of Z(H) up to its first witness, from
    L = max(|M(0)|, lc M) when irreducibility is verified, else from 1.
    M itself is a zero word of height U = H(M), the default cap; a
    smaller h_max may raise ResourceCapError.  When irreducibility is
    verified, U is answered without a pass, so a non-monic irrational
    base is supported when L = U."""
    base = make_base(base)
    m = base.min_poly
    # By Gauss's lemma a nonzero P in Z[x] with P(alpha) = 0 is x^k M Q
    # with Q in Z[x] and Q(0) != 0, so P has a coefficient M(0) Q(0) and
    # one lc(M) lc(Q): no height below L has a nonzero zero word.  A
    # nonzero multiple of M has degree at least deg M, so once no height
    # in [L, U) has one, the shortest zero word at U is +-M.
    verified = base.irreducibility == "verified"
    low = max(abs(m.constant_term), m.leading_coefficient) if verified else 1
    top = m.height()
    if not (verified and low == top):
        _require_supported(base)
    cap = top if h_max is None else h_max
    searched = []
    for h in range(low, cap + 1):
        found = (_witness(m, tuple(-c for c in reversed(m.coeffs)))
                 if verified and h == top
                 else _monic_pass(base, h, max_states, stop=True)[2])
        searched.append((h, len(found.word) if found else 0))
        if found:
            witness = IntPolynomial(tuple(reversed(found.word)))
            return MinHeightReport(h, found.word, witness,
                                   found.value_check, tuple(searched))
    raise ResourceCapError(
        f"height cap {cap} exhausted: no nonzero digit word over "
        f"{{-{cap}..{cap}}} evaluates to 0")
