"""Digit systems over a fixed base: backward division, orbits of the
digit map, the finite set of periodic points, and the height-reduction
construction.

The digit map sends beta to (beta - r)/alpha where r is the unique digit
congruent to beta modulo alpha.  For expanding (or rational |alpha| > 1)
bases every orbit is eventually periodic, all periodic points live in a
certified conjugate box, and (alpha, R) is a number system exactly when
the only periodic point is 0.
"""

import itertools
from fractions import Fraction
from operator import sub

from .base import AlgebraicBase, Classification
from .errors import (DEFAULT_CANDIDATE_CAP, DEFAULT_ORBIT_STEPS, DigitSetError,
                     PrecisionError, ResourceCapError, UnsupportedBaseError,
                     printable_check, write_decimal)
from .record import Record

_EXPANDING_OK = {Classification.EXPANDING_INTEGER, Classification.RATIONAL}


class DigitSet(Record):
    """A complete residue system modulo alpha, indexed by residue class:
    digits[r] is the digit of class r in Z[alpha]/alpha Z[alpha] = Z/|M(0)|.

    Digits are elements of Z[alpha], coordinate tuples at every degree
    (1-tuples for degree-one bases); they need not be rational integers.
    A DigitSet iterates in residue order, hashes, and equals any DigitSet
    built over the same base from the same digits in another order."""

    __slots__ = ("base", "digits")

    @classmethod
    def canonical(cls, base: AlgebraicBase) -> "DigitSet":
        """The digit set {0, 1, ..., |M(0)| - 1}; digit r lies in class r."""
        _require_canonical_size(base.residue_modulus)
        return cls(base, tuple(zip(range(base.residue_modulus),
                                   *map(itertools.repeat, base.zero[1:]))))

    @property
    def contains_zero(self) -> bool:
        return self.digits[0] == self.base.zero

    def step(self, x):
        """One backward-division step: (digit, (x - digit)/alpha)."""
        r = self.digits[self.base.residue(x)]
        return r, self.base.div_alpha_exact(tuple(map(sub, x, r)))

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)


def _require_canonical_size(count: int) -> None:
    """ResourceCapError, before any digit is built, when a canonical
    digit set would have more than DEFAULT_CANDIDATE_CAP digits."""
    if count > DEFAULT_CANDIDATE_CAP:
        raise ResourceCapError(
            f"the canonical digit set has {write_decimal(count)} digits, "
            f"more than the cap of {DEFAULT_CANDIDATE_CAP}")


def validate_crs(base: AlgebraicBase, candidates) -> DigitSet:
    """Check that the candidates form a complete residue system modulo
    alpha and build the DigitSet.  Raises DigitSetError with the residue
    collision or the missing count otherwise."""
    m = base.residue_modulus
    elements = list(map(base.element, candidates))
    if len(elements) != m:
        raise DigitSetError(
            f"need exactly {write_decimal(m)} digits, one per residue class "
            f"mod {write_decimal(m)}, got {len(elements)}")
    digits = [None] * m
    for elt in elements:
        r = base.residue(elt)
        if digits[r] is not None:
            raise DigitSetError(
                f"residue collision mod {m}: "
                f"{base.display(digits[r], write_decimal)} and "
                f"{base.display(elt, write_decimal)} both lie in class {r}")
        digits[r] = elt
    return DigitSet(base, tuple(digits))


def as_digit_set(base: AlgebraicBase, digits=None) -> DigitSet:
    """Coerce a digit description (None for the canonical set, an
    existing DigitSet, or an iterable of digit values) into a validated
    DigitSet over the base."""
    if digits is None:
        return DigitSet.canonical(base)
    if isinstance(digits, DigitSet) and digits.base is base:
        return digits
    return validate_crs(base, digits)


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
                                  base.element(digit))
            if recombined != self.states[k]:
                return False
        return True

    @property
    def terminated(self) -> bool:
        return isinstance(self.tail, Terminated)


def orbit(beta, digit_set: DigitSet,
          max_steps: int = DEFAULT_ORBIT_STEPS) -> ExpansionRecord:
    """Iterate the digit map from beta until it terminates at 0, enters
    a cycle, or exceeds max_steps.  On a base with a contracting
    conjugate the states may grow without bound, so the first state with
    a coordinate that could not be printed raises ResourceCapError
    (errors.printable_check)."""
    base = digit_set.base
    x = base.element(beta)
    zero = base.zero
    terminal = digit_set.contains_zero
    if terminal and x == zero:
        return ExpansionRecord(x, (), (zero,), Terminated())
    states = [x]
    digits = []
    seen = {x}
    check = printable_check("an orbit state", "step")
    for step in range(1, max_steps + 1):
        r, x = digit_set.step(x)
        digits.append(r)
        states.append(x)
        if terminal and x == zero:
            return ExpansionRecord(states[0], tuple(digits), tuple(states), Terminated())
        if x in seen:
            entry = states.index(x)
            return ExpansionRecord(states[0], tuple(digits), tuple(states),
                                   Cycle(entry, tuple(states[entry:-1])))
        check(max(map(abs, x)), step)
        seen.add(x)
    return ExpansionRecord(states[0], tuple(digits), tuple(states),
                           Truncated(max_steps))


# -- periodic points -------------------------------------------------------


class BoundsReport(Record):
    """Certified orbit bound: eventually every iterate satisfies
    |sigma(x)| <= c for every conjugate embedding sigma."""

    __slots__ = ("k_sigma",        # upper bound for max |sigma(r)|, per conjugate
                 "per_conjugate",  # 1 + K_sigma / (|sigma(alpha)| - 1), upper bounds
                 "c")              # a Fraction


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
    1 + K_sigma/(|sigma(alpha)| - 1), from certified interval data.  The
    canonical digits (digits None) give K_sigma = |M(0)| - 1, and no
    digit set is built for them."""
    if digits is None:
        _require_canonical_size(base.residue_modulus)
        digits = ((base.residue_modulus - 1,),)  # the largest canonical digit
    else:
        digits = as_digit_set(base, digits).digits
    _require_expanding(base)
    moduli = base.conjugate_moduli()
    # sigma_k fixes a rational digit d, so d adds exactly |d| to every
    # K_sigma; only the other digits need conjugate boxes.
    rational = 0
    sups = [Fraction(0)] * len(moduli)
    for digit in digits:
        if any(digit[1:]):
            for k, box in enumerate(base.conjugate_boxes(digit)):
                sups[k] = max(sups[k], box.abs_bounds()[1])
        else:
            rational = max(rational, abs(digit[0]))
    sups = [max(s, Fraction(rational)) for s in sups]
    per = []
    for (lo, _hi), k_sup in zip(moduli, sups):
        if lo <= 1:
            raise PrecisionError("conjugate modulus not separated above 1")
        per.append(1 + k_sup / (lo - 1))
    return BoundsReport(tuple(sups), tuple(per), max(per))


def _coordinate_bound(base: AlgebraicBase, c: Fraction) -> int:
    """Certified bound B with: every x in Z[alpha] whose conjugates all
    satisfy |sigma(x)| <= c has power-basis coordinates bounded by B.

    Uses the Lagrange form of the inverse Vandermonde: for the monic f,
    f(X)/(X - alpha) = sum_i b_i(alpha) X^i with b_i = sum_{j>i} f_j
    alpha^(j-i-1), so coordinate i of x is sum_k sigma_k(x) sigma_k(b_i)
    / sigma_k(f'(alpha)).  b_i and f'(alpha) are ring elements, enclosed
    by conjugate_boxes."""
    f = base.min_poly.coeffs
    numerators = [base.element(f[i + 1:]) for i in range(base.degree)]
    derivative = base.element([j * f[j] for j in range(1, len(f))])
    for _ in range(40):
        dens = [box.abs_bounds()[0]
                for box in base.conjugate_boxes(derivative)]
        if min(dens) > 0:
            sums = [sum(box.abs_bounds()[1] / den for box, den
                        in zip(base.conjugate_boxes(b), dens))
                    for b in numerators]
            return int(max(sums) * c) + 1
        base.refine()
    raise PrecisionError(
        "could not certify the inverse conjugate map: some |f'(alpha_k)| "
        f"still reaches 0 at width {base.achieved_width}")


def periodic_points(base: AlgebraicBase, digits=None, *,
                    candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> PeriodicSet:
    """All periodic points of the digit map, exactly.

    Every periodic point has |sigma_k(x)| <= per_conjugate[k], so a
    certified coordinate box holds them all; its size is checked against
    the cap, before canonical digits (digits None) are built, and
    reported.  An orbit is followed only from the box points in that
    region: x_0 enters each sigma_k with the exact coefficient 1, so on
    each line of the box they form one range of x_0
    (base.conjugate_window).  Nothing is truncated, so no periodic point
    can be missed."""
    digit_set = None if digits is None else as_digit_set(base, digits)
    bounds = orbit_bound(base, digit_set)
    c = bounds.c

    limit = int(c) if base.degree == 1 else _coordinate_bound(base, c)
    count = (2 * limit + 1) ** base.degree
    if count > candidate_cap:
        raise ResourceCapError(f"{write_decimal(count)} candidates exceed "
                               f"cap {write_decimal(candidate_cap)}")
    digit_set = as_digit_set(base, digit_set)

    window = base.conjugate_window(bounds.per_conjugate)
    starts = ((x0,) + tail
              for tail in itertools.product(range(-limit, limit + 1),
                                            repeat=base.degree - 1)
              for x0 in window((0,) + tail, -limit, limit))

    visited: set = set()
    cycles: set = set()
    for x in starts:
        path: dict = {}
        while x not in visited:
            visited.add(x)
            path[x] = len(path)
            _, x = digit_set.step(x)
        if x in path:
            # The walk closed a cycle.  Otherwise it merged into an
            # earlier walk: the first walk to touch a cycle closes it,
            # since stepping from a periodic state never leaves its cycle.
            cycle = tuple(path)[path[x]:]
            shift = cycle.index(min(cycle))
            cycles.add(cycle[shift:] + cycle[:shift])

    # The points are coordinate tuples of ints, so they sort natively;
    # cycles are disjoint, so their first elements order them.
    ordered_cycles = tuple(sorted(cycles))
    elements = tuple(sorted({x for cyc in ordered_cycles for x in cyc}))
    return PeriodicSet(elements, ordered_cycles, bounds, count)


def verdicts(base: AlgebraicBase, pset: PeriodicSet) -> tuple[bool, bool]:
    """(is a number system, R[alpha] = Z[alpha]) from the periodic points
    of a digit set R.  The first holds when 0 is the only periodic point;
    its cycle is then 0 -> 0, so 0 is a digit.  The second holds when the
    periodic points are the forward orbit of 0, which, as every orbit
    ends in a cycle and cycles are disjoint, means one cycle through 0."""
    zero = base.zero
    return (pset.elements == (zero,),
            len(pset.cycles) == 1 and zero in pset.cycles[0])


def is_number_system(base: AlgebraicBase, digits=None, *,
                     candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> bool:
    """True when every element of Z[alpha] has a finite expansion (see
    verdicts); False at once when 0 is not a digit."""
    if digits is not None:
        digits = as_digit_set(base, digits)
        if not digits.contains_zero:
            return False
    pset = periodic_points(base, digits, candidate_cap=candidate_cap)
    return verdicts(base, pset)[0]


def spans_ring(base: AlgebraicBase, digits=None, *,
               candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> bool:
    """True when R[alpha] = Z[alpha] (see verdicts)."""
    pset = periodic_points(base, digits, candidate_cap=candidate_cap)
    return verdicts(base, pset)[1]


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
                f"representation {list(rep)} does not evaluate to "
                f"{base.display(digit)!r}")
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
