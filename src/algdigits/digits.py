"""Digit systems over a fixed base: backward division, orbits of the
digit map, the finite set of periodic points, and the height-reduction
construction.

The digit map sends beta to (beta - r)/alpha where r is the unique digit
congruent to beta modulo alpha.  For expanding (or rational |alpha| > 1)
bases every orbit is eventually periodic, all periodic points live in a
certified conjugate box, and (alpha, R) is a number system exactly when
the only periodic point is 0.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .base import AlgebraicBase, Classification
from .errors import DigitSetError, PrecisionError, ResourceCapError, UnsupportedBaseError
from .intervals import Box
from .record import Record

_EXPANDING_OK = {Classification.EXPANDING_INTEGER, Classification.RATIONAL}


class DigitSet:
    """A complete residue system modulo alpha, indexed by residue class.

    Digits are elements of Z[alpha] (integers for degree-one bases,
    power-basis coordinate tuples otherwise); they need not be rational
    integers."""

    def __init__(self, base: AlgebraicBase, digits: tuple, by_residue: dict):
        self.base = base
        self.digits = digits
        self.by_residue = by_residue

    @classmethod
    def canonical(cls, base: AlgebraicBase) -> "DigitSet":
        """The digit set {0, 1, ..., |M(0)| - 1}."""
        return validate_crs(base, list(range(base.residue_modulus)))

    @property
    def contains_zero(self) -> bool:
        return self.by_residue.get(0) == self.base.zero

    def step(self, x):
        """One backward-division step: (digit, (x - digit)/alpha)."""
        base = self.base
        r = self.by_residue[base.residue(x)]
        quotient = base.div_alpha_exact(base.add(x, base.neg(r)))
        return r, quotient

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __repr__(self) -> str:
        return f"DigitSet({self.base.min_poly!s}, {list(self.digits)!r})"


def validate_crs(base: AlgebraicBase, candidates) -> DigitSet:
    """Check that the candidates form a complete residue system modulo
    alpha and build the DigitSet.  Raises DigitSetError with the residue
    collision or the missing count otherwise."""
    m = base.residue_modulus
    elements = [base.element(c) for c in candidates]
    if len(elements) != m:
        raise DigitSetError(
            f"need exactly {m} digits, one per residue class mod {m}, "
            f"got {len(elements)}")
    by_residue: dict = {}
    for elt in elements:
        r = base.residue(elt)
        if r in by_residue:
            raise DigitSetError(
                f"residue collision mod {m}: {by_residue[r]!r} and {elt!r} "
                f"both lie in class {r}")
        by_residue[r] = elt
    return DigitSet(base, tuple(elements), by_residue)


def as_digit_set(base: AlgebraicBase, digits=None) -> DigitSet:
    """Coerce a digit description (None for the canonical set, an
    existing DigitSet, or an iterable of digit values) into a validated
    DigitSet over the base."""
    if digits is None:
        return DigitSet.canonical(base)
    if isinstance(digits, DigitSet):
        if digits.base is base:
            return digits
        return validate_crs(base, list(digits.digits))
    return validate_crs(base, list(digits))


def j_step(beta, digit_set: DigitSet):
    """One backward-division step from beta: the pair (digit, next
    state) with next = (beta - digit)/alpha."""
    return digit_set.step(digit_set.base.element(beta))


# -- orbits ---------------------------------------------------------------


class Terminated(Record):
    __slots__ = ()
    kind = "terminated"


class Cycle(Record):
    __slots__ = ("entry", "elements")
    kind = "cycle"


class Truncated(Record):
    __slots__ = ("steps",)
    kind = "truncated"


class ExpansionRecord(Record):
    """One run of the digit map.  states[k] is the k-th iterate, so
    states[k] = digits[k] + alpha * states[k+1] holds exactly for every
    k; replay() re-verifies that identity."""

    __slots__ = ("start", "digits", "states", "tail")

    def replay(self, base: AlgebraicBase) -> bool:
        if self.states[0] != self.start:
            return False
        for k, digit in enumerate(self.digits):
            recombined = base.add(base.mul_alpha(self.states[k + 1]),
                                  base.element(digit) if isinstance(digit, int) else digit)
            if recombined != self.states[k]:
                return False
        return True

    @property
    def terminated(self) -> bool:
        return isinstance(self.tail, Terminated)


def orbit(beta, digit_set: DigitSet, max_steps: int = 10000) -> ExpansionRecord:
    """Iterate the digit map from beta until it terminates at 0, enters
    a cycle, or exceeds max_steps."""
    base = digit_set.base
    x = base.element(beta)
    start_elt = x
    zero = base.zero
    terminal = digit_set.contains_zero
    if terminal and x == zero:
        return ExpansionRecord(start_elt, (), (zero,), Terminated())
    states = [x]
    digits = []
    seen = {x: 0}
    for _ in range(max_steps):
        r, x = digit_set.step(x)
        digits.append(r)
        states.append(x)
        if terminal and x == zero:
            return ExpansionRecord(start_elt, tuple(digits), tuple(states), Terminated())
        if x in seen:
            entry = seen[x]
            return ExpansionRecord(start_elt, tuple(digits), tuple(states),
                                   Cycle(entry, tuple(states[entry:-1])))
        seen[x] = len(states) - 1
    return ExpansionRecord(start_elt, tuple(digits), tuple(states),
                           Truncated(max_steps))


# -- periodic points -------------------------------------------------------


class BoundsReport(Record):
    """Certified orbit bound: eventually every iterate satisfies
    |sigma(x)| <= c for every conjugate embedding sigma."""

    __slots__ = ("k_sigma",        # upper bound for max |sigma(r)|, per conjugate
                 "per_conjugate",  # 1 + K_sigma / (|sigma(alpha)| - 1), upper bounds
                 "c_alpha_r")      # a Fraction

    @property
    def c(self) -> Fraction:
        return self.c_alpha_r


class PeriodicSet(Record):
    __slots__ = ("elements", "cycles", "bounds", "candidates_scanned")

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1


def _require_expanding(base: AlgebraicBase) -> None:
    if base.classification not in _EXPANDING_OK:
        raise UnsupportedBaseError(
            "periodic-point enumeration needs an expanding algebraic integer "
            f"or a rational base with |alpha| > 1, not {base.classification}")


def orbit_bound(base: AlgebraicBase, digits=None) -> BoundsReport:
    """The contraction bound c = max over conjugates of
    1 + K_sigma/(|sigma(alpha)| - 1), from certified interval data."""
    _require_expanding(base)
    digit_set = as_digit_set(base, digits)
    moduli = base.conjugate_moduli()
    sups = [Fraction(0)] * len(moduli)
    for digit in digit_set.digits:
        for k, box in enumerate(base.conjugate_boxes(digit)):
            sups[k] = max(sups[k], box.abs_bounds()[1])
    per = []
    for (lo, _hi), k_sup in zip(moduli, sups):
        if lo <= 1:
            raise PrecisionError("conjugate modulus not separated above 1")
        per.append(1 + k_sup / (lo - 1))
    return BoundsReport(tuple(sups), tuple(per), max(per))


def _coordinate_bound(base: AlgebraicBase, c: Fraction) -> int:
    """Certified bound B with: every x in Z[alpha] whose conjugates all
    satisfy |sigma(x)| <= c has power-basis coordinates bounded by B.

    Uses the Lagrange form of the inverse Vandermonde: coordinate i of x
    is sum_k sigma_k(x) * [x^i](prod_{j!=k}(X - alpha_j)) / prod_{j!=k}
    (alpha_k - alpha_j), every factor evaluated in interval arithmetic
    and rounded outward."""
    d = base.degree
    for _ in range(40):
        boxes = base.conjugates()
        row_sums = [Fraction(0)] * d
        ok = True
        for k in range(d):
            poly = [Box.point(1)]
            denom = Box.point(1)
            for j in range(d):
                if j == k:
                    continue
                beta = boxes[j]
                nxt = [Box.point(0)] * (len(poly) + 1)
                for i, coeff in enumerate(poly):
                    nxt[i + 1] = nxt[i + 1] + coeff
                    nxt[i] = nxt[i] - coeff * beta
                poly = nxt
                denom = denom * (boxes[k] - beta)
            den_lo = denom.abs_bounds()[0]
            if den_lo <= 0:
                ok = False
                break
            for i in range(d):
                row_sums[i] += poly[i].abs_bounds()[1] / den_lo
        if ok:
            bound = max(row_sums) * c
            return int(bound) + 1
        base.refine()
    raise PrecisionError("could not certify the inverse conjugate map")


def periodic_points(base: AlgebraicBase, digits=None, *,
                    candidate_cap: int = 10**7) -> PeriodicSet:
    """All periodic points of the digit map, exactly.

    Every periodic point has |sigma(x)| <= c in every embedding, so a
    certified coordinate box contains them all; the box is swept and
    each orbit followed until it cycles.  Enumeration is inflated
    outward, never truncated, so no periodic point can be missed."""
    _require_expanding(base)
    digit_set = as_digit_set(base, digits)
    bounds = orbit_bound(base, digit_set)
    c = bounds.c

    limit = int(c) if base.degree == 1 else _coordinate_bound(base, c)
    count = (2 * limit + 1) ** base.degree
    if count > candidate_cap:
        raise ResourceCapError(f"{count} candidates exceed cap {candidate_cap}")

    def lattice():
        points = range(-limit, limit + 1)
        if base.degree == 1:
            return map(base.element, points)
        return itertools.product(points, repeat=base.degree)

    status: dict = {}
    cycles: set = set()

    def resolve(x) -> None:
        path = []
        pos = {}
        while x not in status and x not in pos:
            pos[x] = len(path)
            path.append(x)
            _, x = digit_set.step(x)
        if x in pos:
            cycle = tuple(path[pos[x]:])
            shift = min(range(len(cycle)), key=lambda i: _sort_key(cycle[i]))
            cycles.add(cycle[shift:] + cycle[:shift])
            for i, st in enumerate(path):
                status[st] = i >= pos[x]
        else:
            # Merged into an already-resolved state.  The first walk to
            # touch any cycle always closes it (stepping from a periodic
            # state never leaves its cycle), so by the time a merge is
            # possible the cycle is registered; statuses are only a memo.
            for st in path:
                status[st] = False

    for x in lattice():
        resolve(x)

    ordered_cycles = tuple(sorted(cycles, key=lambda cyc: _sort_key(cyc[0])))
    elements = tuple(sorted({x for cyc in ordered_cycles for x in cyc}, key=_sort_key))
    return PeriodicSet(elements, ordered_cycles, bounds, count)


def _sort_key(x):
    if isinstance(x, tuple):
        return x
    return (x,)


def is_number_system(base: AlgebraicBase, digits=None, *,
                     candidate_cap: int = 10**7) -> bool:
    """True when every element of Z[alpha] has a finite expansion, i.e.
    0 is a digit and the only periodic point is 0."""
    digit_set = as_digit_set(base, digits)
    if not digit_set.contains_zero:
        return False
    pset = periodic_points(base, digit_set, candidate_cap=candidate_cap)
    return pset.elements == (base.zero,)


def zero_orbit_set(base: AlgebraicBase, digits=None,
                   max_steps: int = 10000) -> frozenset:
    """The forward orbit {J^n(0) : n >= 0} as a set."""
    digit_set = as_digit_set(base, digits)
    record = orbit(base.zero, digit_set, max_steps)
    if isinstance(record.tail, Truncated):
        raise ResourceCapError("orbit of 0 exceeded the step cap")
    if record.terminated:
        return frozenset(record.states)
    return frozenset(record.states[:-1])


def spans_ring(base: AlgebraicBase, digits=None, *,
               candidate_cap: int = 10**7, max_steps: int = 10000) -> bool:
    """True when R[alpha] = Z[alpha]: the periodic points are exactly the
    forward orbit of 0."""
    digit_set = as_digit_set(base, digits)
    pset = periodic_points(base, digit_set, candidate_cap=candidate_cap)
    return set(pset.elements) == set(zero_orbit_set(base, digit_set, max_steps))


# -- height reduction -------------------------------------------------------


class HeightReduction(Record):
    __slots__ = ("values", "cardinality_bound", "expansion_degree")


def height_reduce(base: AlgebraicBase, digit_reps,
                  expansion_degree: int | None = None) -> HeightReduction:
    """The integer set F built from digit representations.

    digit_reps pairs each digit with the coefficient sequence
    (ascending) of an integer polynomial in alpha of degree <= s that
    evaluates to it; every pair is re-verified exactly.  F collects, for
    every m <= s, all sums a[0][j0] + a[1][j1] + ... + a[m][jm] with
    independently chosen digits, so any sum of shifted digit expansions
    has its coefficients in F.  |F| is bounded by q + q^2 + ... +
    q^(s+1) with q the number of digits."""
    pairs = [(base.element(digit), tuple(int(c) for c in rep))
             for digit, rep in digit_reps]
    if not pairs:
        raise ValueError("need at least one digit representation")
    for digit, rep in pairs:
        if base.eval_word(reversed(rep)) != digit:
            raise DigitSetError(
                f"representation {list(rep)} does not evaluate to {digit!r}")
    reps = [rep for _digit, rep in pairs]
    s = max(len(rep) - 1 for rep in reps)
    if expansion_degree is not None:
        if expansion_degree < s:
            raise ValueError(f"representations have degree {s} > {expansion_degree}")
        s = expansion_degree
    padded = [rep + (0,) * (s + 1 - len(rep)) for rep in reps]
    level = {rep[0] for rep in padded}
    values = set(level)
    for m in range(1, s + 1):
        level = {prev + rep[m] for prev in level for rep in padded}
        values |= level
    q = len(reps)
    bound = sum(q ** (m + 1) for m in range(s + 1))
    return HeightReduction(frozenset(values), bound, s)
