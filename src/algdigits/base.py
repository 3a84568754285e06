"""Algebraic bases: a primitive squarefree integer polynomial together
with certified locations of its roots, a classification of the conjugate
moduli, and exact arithmetic in Z[alpha] (power basis for monic minimal
polynomials, rationals with bounded denominators for degree one).

Unit-circle membership of conjugates is decided exactly.  An irreducible
real polynomial can only have a root on the unit circle if it is
self-reciprocal; in that case M(x) = x^m Q(x + 1/x) and the number of
unit-circle roots is twice the number of real roots of Q in (-2, 2),
counted by exact Sturm sequences.  Numeric refinement then separates
every remaining modulus from 1, which is guaranteed to terminate.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import (InvalidPolynomialError, PrecisionError,
                     UnsupportedBaseError)
from .intervals import Box, Interval
from .polynomials import (IntPolynomial, count_real_roots_between,
                          is_irreducible_z, palindromic_half,
                          parse_polynomial, require_min_poly_shape)
from .record import Record
from .roots import DEFAULT_WIDTH, certified_roots, contract_roots

DEFAULT_PRECISION = DEFAULT_WIDTH
DEFAULT_DEGREE_LIMIT = 24


class Classification(Enum):
    EXPANDING_INTEGER = "ExpandingInteger"
    EXPANDING_NON_INTEGER = "ExpandingNonInteger"
    UNIMODULAR = "Unimodular"
    ROOT_OF_UNITY = "RootOfUnity"
    RATIONAL = "Rational"
    MIXED = "Mixed"

    def __str__(self) -> str:
        return self.value


_HEIGHT_REDUCIBLE_CLASSES = {
    Classification.EXPANDING_INTEGER,
    Classification.EXPANDING_NON_INTEGER,
    Classification.UNIMODULAR,
    Classification.ROOT_OF_UNITY,
    Classification.RATIONAL,
}


class _RootStore:
    """Certified root rectangles with on-demand refinement.

    Exactly ``unit_flags.count(True)`` roots have modulus exactly one
    (decided symbolically before construction); their modulus interval is
    reported as the point [1, 1].  All other moduli are separated from 1
    by refinement, which must succeed because they genuinely differ
    from 1.
    """

    def __init__(self, coeffs: tuple[int, ...], n_unit: int, width: Fraction):
        self.coeffs = list(coeffs)
        boxes = certified_roots(self.coeffs, width)
        for _ in range(80):
            straddle = [i for i, b in enumerate(boxes)
                        if _modulus_contains_one(b)]
            if len(straddle) == n_unit:
                break
            width = width / 16
            boxes = contract_roots(self.coeffs, boxes, width)
        else:
            raise PrecisionError(
                "could not separate conjugate moduli from 1; "
                f"{len(straddle)} straddle but {n_unit} lie on the circle")
        flags = [_modulus_contains_one(b) for b in boxes]
        order = sorted(range(len(boxes)),
                       key=lambda i: (_sort_rank(boxes[i], flags[i]),
                                      boxes[i].re.lo, boxes[i].im.lo))
        self.boxes = [boxes[i] for i in order]
        self.unit_flags = [flags[i] for i in order]
        self.width = width
        self._powers: tuple[Fraction, list[list[Box]]] | None = None

    def refine(self, width: Fraction) -> None:
        """Contract every box further, to width <= width; each new box
        lies inside the old one."""
        new = contract_roots(self.coeffs, self.boxes, width)
        for i, fresh in enumerate(new):
            if not self.unit_flags[i] and _modulus_contains_one(fresh):
                raise PrecisionError("refined modulus interval regressed")
        self.boxes = new
        self.width = width
        self._powers = None

    def moduli(self) -> list[tuple[Fraction, Fraction]]:
        out = []
        for box, unit in zip(self.boxes, self.unit_flags):
            if unit:
                out.append((Fraction(1), Fraction(1)))
            else:
                out.append(box.abs_bounds())
        return out

    def power_boxes(self, degree: int) -> list[list[Box]]:
        """[k][i] = certified box for alpha_k ** i, i < degree."""
        cached = self._powers
        if cached is not None and cached[0] == self.width:
            return cached[1]
        table = []
        for box in self.boxes:
            row = [Box.point(1)]
            for _ in range(1, degree):
                row.append(row[-1] * box)
            table.append(row)
        self._powers = (self.width, table)
        return table


def _modulus_contains_one(box: Box) -> bool:
    lo, hi = box.abs_bounds()
    return lo <= 1 <= hi


def _integer(c) -> int:
    """c as an int; ValueError for anything that is not an integer,
    bools and floats included."""
    if not isinstance(c, bool):
        try:
            return operator.index(c)
        except TypeError:
            pass
    raise ValueError(f"coordinate {c!r} is not an integer")


def _sort_rank(box: Box, unit: bool) -> int:
    if unit:
        return 1
    lo, _hi = box.abs_bounds()
    return 0 if lo > 1 else 2


class AlgebraicBase:
    """A classified base alpha given by its minimal polynomial.

    Construct through :func:`make_base`.  Instances are immutable from
    the caller's point of view; the only internal mutation is monotone
    refinement of the cached root rectangles, which is deterministic.
    """

    def __init__(self, min_poly: IntPolynomial, irreducibility: str,
                 precision: Fraction):
        self.min_poly = min_poly
        self.irreducibility = irreducibility
        self.requested_precision = precision
        self.degree = min_poly.degree
        self.leading_coefficient = min_poly.leading_coefficient
        self.constant_term = min_poly.constant_term
        self.residue_modulus = abs(min_poly.constant_term)
        self.rational_view: tuple[int, int] | None = None
        self._store: _RootStore | None = None
        self._classify()

    # -- construction helpers ---------------------------------------------

    def _classify(self) -> None:
        poly = self.min_poly
        d = self.degree
        if d == 1:
            lead, const = poly.coeffs[1], poly.coeffs[0]
            a = abs(const)
            b = -lead if const > 0 else lead
            self.rational_view = (a, b)
            self.n_unit = 1 if a == abs(b) else 0
            self.n_expanding = 1 if a > abs(b) else 0
            self.n_contracting = 1 if a < abs(b) else 0
            if a == abs(b):
                self.classification = Classification.ROOT_OF_UNITY
            elif a < abs(b):
                self.classification = Classification.MIXED
            elif abs(b) == 1:
                self.classification = Classification.EXPANDING_INTEGER
            else:
                self.classification = Classification.RATIONAL
            return

        rev = tuple(reversed(poly.coeffs))
        n_unit = 0
        if rev == poly.coeffs or rev == tuple(-c for c in poly.coeffs):
            if poly(1) == 0 or poly(-1) == 0:
                raise InvalidPolynomialError(
                    "self-reciprocal polynomial with a root at +-1 is reducible")
            if rev != poly.coeffs:
                raise InvalidPolynomialError(
                    "anti-palindromic polynomial of degree >= 2 is reducible")
            if d % 2 == 1:
                raise InvalidPolynomialError(
                    "odd-degree palindromic polynomial is divisible by x + 1")
            half = palindromic_half(poly)
            n_unit = 2 * count_real_roots_between(half, -2, 2)
        self._store = _RootStore(poly.coeffs, n_unit, self.requested_precision)
        flags = self._store.unit_flags
        moduli = self._store.moduli()
        self.n_unit = n_unit
        self.n_expanding = sum(1 for (lo, _), u in zip(moduli, flags)
                               if not u and lo > 1)
        self.n_contracting = d - self.n_unit - self.n_expanding
        if self.n_unit == d:
            # Kronecker: a monic integer polynomial with every root on
            # the unit circle has only roots of unity as roots.
            self.classification = (Classification.ROOT_OF_UNITY
                                   if poly.is_monic
                                   else Classification.UNIMODULAR)
        elif self.n_expanding == d:
            self.classification = (Classification.EXPANDING_INTEGER
                                   if poly.is_monic
                                   else Classification.EXPANDING_NON_INTEGER)
        else:
            self.classification = Classification.MIXED

    # -- classification queries -------------------------------------------

    @property
    def supports_height_reduction(self) -> bool:
        """Whether every conjugate has modulus one, or every conjugate has
        modulus greater than one; exactly these bases admit a finite
        integer coefficient alphabet (see height_reduce)."""
        return self.classification in _HEIGHT_REDUCIBLE_CLASSES

    @property
    def is_monic(self) -> bool:
        return self.min_poly.is_monic

    @property
    def alpha_fraction(self) -> Fraction:
        """alpha itself, defined only for degree-one bases."""
        if self.rational_view is None:
            raise UnsupportedBaseError("alpha is irrational")
        a, b = self.rational_view
        return Fraction(a, b)

    def conjugates(self) -> list[Box]:
        """Certified rectangles for the conjugates, canonical order
        (expanding, then unit-circle, then contracting)."""
        if self.degree == 1:
            return [Box.point(self.alpha_fraction)]
        return list(self._store.boxes)

    def conjugate_moduli(self) -> list[tuple[Fraction, Fraction]]:
        """Certified [lo, hi] enclosures of each conjugate modulus.  Roots
        proven to lie on the unit circle report exactly [1, 1]."""
        if self.degree == 1:
            m = abs(self.alpha_fraction)
            return [(m, m)]
        return self._store.moduli()

    def refine(self) -> None:
        """Shrink the certified rectangles (deterministic, monotone)."""
        if self._store is not None:
            self._store.refine(self._store.width / 16)

    @property
    def achieved_width(self) -> Fraction:
        if self._store is None:
            return Fraction(0)
        return self._store.width

    # -- elements of Z[alpha] ----------------------------------------------

    def _require_elements(self) -> None:
        if self.degree >= 2 and not self.is_monic:
            raise UnsupportedBaseError(
                "Z[alpha] arithmetic needs a monic minimal polynomial or "
                "a degree-one base; alpha is a non-integral irrational")

    @property
    def zero(self):
        self._require_elements()
        if self.degree == 1:
            return 0
        return (0,) * self.degree

    def element(self, value):
        """Normalize value into an element of Z[alpha].

        Monic, degree >= 2: an int or a coordinate sequence of length
        <= degree in the power basis 1, alpha, ..., alpha^(d-1).
        Degree one: an int or Fraction whose denominator divides a power
        of b (the denominator of alpha = a/b), or a one-coordinate
        sequence holding one; ints stay ints.  Anything else (a float, a
        bool, None, a nested sequence) raises ValueError."""
        self._require_elements()
        if not isinstance(value, (list, tuple)):
            value = (value,)
        if self.degree == 1:
            if len(value) != 1:
                raise ValueError(
                    f"degree-one base takes one coordinate, got {len(value)}")
            (v,) = value
            v = v if isinstance(v, Fraction) else _integer(v)
            den = v.denominator
            _, b = self.rational_view
            while den != 1:
                g = gcd(den, abs(b))
                if g == 1:
                    raise ValueError(
                        f"{v} is not in Z[{self.alpha_fraction}]: denominator "
                        f"{v.denominator} has a prime factor outside {abs(b)}")
                den //= g
            return v
        coords = tuple(_integer(c) for c in value)
        if len(coords) > self.degree:
            raise ValueError(f"coordinate vector longer than degree {self.degree}")
        return coords + (0,) * (self.degree - len(coords))

    def add(self, x, y):
        if self.degree == 1:
            return x + y
        return tuple(a + b for a, b in zip(x, y))

    def neg(self, x):
        if self.degree == 1:
            return -x
        return tuple(-a for a in x)

    def add_int(self, x, k: int):
        if self.degree == 1:
            return x + k
        return (x[0] + k,) + x[1:]

    def mul_alpha(self, x):
        """alpha * x, exact."""
        if self.degree == 1:
            return x * self.alpha_fraction
        m = self.min_poly.coeffs
        top = x[-1]
        out = [-m[0] * top]
        for i in range(1, self.degree):
            out.append(x[i - 1] - m[i] * top)
        return tuple(out)

    def div_alpha_exact(self, y):
        """x with alpha * x = y; raises ValueError when y is not divisible
        by alpha.  Inverse of mul_alpha on all of Z[alpha]."""
        if self.degree == 1:
            a, b = self.rational_view
            if y.numerator % a != 0:
                raise ValueError(f"{y} is not divisible by alpha")
            if isinstance(y, int):
                return y // a * b
            return y / self.alpha_fraction
        m = self.min_poly.coeffs
        if y[0] % m[0] != 0:
            raise ValueError(f"{y} is not divisible by alpha (residue {y[0] % abs(m[0])})")
        top = -y[0] // m[0]
        out = [0] * self.degree
        out[-1] = top
        for i in range(1, self.degree):
            out[i - 1] = y[i] + m[i] * top
        return tuple(out)

    def residue(self, x) -> int:
        """Class of x in Z[alpha]/alpha Z[alpha] = Z/M(0)Z, in
        [0, |M(0)|).  Degree-one elements must be integers."""
        if self.degree == 1:
            if x.denominator != 1:
                raise ValueError(
                    f"residue undefined for non-integer value {x} (valuation violation)")
            return int(x) % self.residue_modulus
        return x[0] % self.residue_modulus

    def eval_word(self, digits_msb_first):
        """Horner evaluation of a digit word (most significant first) as
        an element: d_m alpha^m + ... + d_0."""
        acc = self.zero
        for d in digits_msb_first:
            acc = self.add(self.mul_alpha(acc),
                           d if not isinstance(d, int) else self.element(d))
        return acc

    def conjugate_boxes(self, x) -> list[Box]:
        """Certified rectangles for sigma_k(x), each conjugate embedding,
        at the current width of the root rectangles."""
        self._require_elements()
        if self.degree == 1:
            return [Box.point(x)]
        out = []
        for row in self._store.power_boxes(self.degree):
            acc = Box.point(0)
            for c, p in zip(x, row):
                acc = acc + p.scale(c)
            out.append(acc)
        return out

    def __repr__(self) -> str:
        return f"AlgebraicBase({self.min_poly!s}, {self.classification})"


class CardBounds(Record):
    """Bounds on the cardinality of a reducing digit set."""

    __slots__ = ("lower", "upper")


def card_bounds(base: AlgebraicBase) -> CardBounds:
    """Cardinality bounds for any set S with S[alpha] = Z[alpha]:
    lower max(2, |M(0)|) always; upper 2|M(0)| - 1 for expanding
    algebraic integers."""
    if not base.supports_height_reduction:
        raise UnsupportedBaseError(
            f"{base!r} admits no finite integer coefficient alphabet: "
            "conjugate moduli must be all one or all greater than one")
    m0 = base.residue_modulus
    lower = max(2, m0)
    upper = 2 * m0 - 1 if base.classification is Classification.EXPANDING_INTEGER else None
    return CardBounds(lower, upper)


def make_base(poly, precision: Fraction = DEFAULT_PRECISION, *,
              assume_irreducible: bool = False,
              degree_limit: int = DEFAULT_DEGREE_LIMIT) -> AlgebraicBase:
    """Build a classified base from a minimal polynomial.

    poly may be an IntPolynomial, a coefficient list (ascending), or
    text.  The polynomial must be nonconstant, primitive, squarefree,
    with nonzero constant term.  Irreducibility is verified exactly up
    to degree_limit (exceeding it, or passing assume_irreducible=True,
    records irreducibility as "assumed")."""
    if not isinstance(poly, IntPolynomial):
        poly = parse_polynomial(poly)
    require_min_poly_shape(poly)
    if poly.leading_coefficient < 0:
        poly = IntPolynomial(tuple(-c for c in poly.coeffs))
    if assume_irreducible:
        irreducibility = "assumed"
    elif poly.degree == 1:
        irreducibility = "verified"
    elif poly.degree <= degree_limit:
        if not is_irreducible_z(poly):
            raise InvalidPolynomialError(
                f"{poly!s} factors over Z; not a minimal polynomial")
        irreducibility = "verified"
    else:
        irreducibility = "assumed"
    return AlgebraicBase(poly, irreducibility, Fraction(precision))
