"""Algebraic bases: a primitive squarefree integer polynomial together
with certified locations of its roots, a classification of the conjugate
moduli, and exact arithmetic in Z[alpha] on the tuples of power-basis
coordinates, at every degree (1-tuples of rationals in degree one).

The numbers of conjugates inside, on and outside the unit circle are
exact integers (polynomials.circle_counts).  Numeric refinement then
separates every modulus off the circle from 1, which is guaranteed to
terminate, to order and flag the root boxes.
"""

from enum import Enum
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import add, mul, neg

from .errors import (InvalidPolynomialError, PrecisionError,
                     UnsupportedBaseError, read_int)
from .intervals import Box
from .polynomials import (IntPolynomial, circle_counts, is_irreducible_z,
                          parse_polynomial, require_min_poly_shape)
from .record import Record
from .roots import DEFAULT_WIDTH, certified_roots, contract_roots, grid_bits


class Classification(Enum):
    EXPANDING_INTEGER = "ExpandingInteger"
    EXPANDING_NON_INTEGER = "ExpandingNonInteger"
    UNIMODULAR = "Unimodular"
    ROOT_OF_UNITY = "RootOfUnity"
    RATIONAL = "Rational"
    MIXED = "Mixed"

    def __str__(self) -> str:
        return self.value


def _coordinate(c, lead: int):
    """c as a coordinate: an integer (errors.read_int), or a Fraction whose
    denominator divides a power of lead; ValueError for anything else."""
    if not isinstance(c, Fraction):
        return read_int(c, "coordinate")
    if pow(lead, c.denominator.bit_length(), c.denominator):  # den | lead^k
        raise ValueError(f"coordinate {c} is not in Z[alpha]: its "
                         f"denominator has a prime factor outside {lead}")
    return c.numerator if c.denominator == 1 else c


def _classify(coeffs, boxes: list[Box], n_unit: int, width: Fraction):
    """(boxes, unit flags, width reached): the root boxes contracted
    until exactly n_unit of their moduli contain 1, in canonical order
    (expanding, then unit-circle, then contracting).  The n_unit roots on
    the circle are known exactly beforehand; every other modulus differs
    from 1, so contraction separates it."""
    moduli = [box.abs_bounds() for box in boxes]
    for _ in range(80):
        if sum(lo <= 1 <= hi for lo, hi in moduli) == n_unit:
            break
        width = width / 16
        boxes = contract_roots(coeffs, boxes, width)
        moduli = [box.abs_bounds() for box in boxes]
    flags = [lo <= 1 <= hi for lo, hi in moduli]
    if flags.count(True) != n_unit:
        raise PrecisionError(
            "could not separate conjugate moduli from 1; "
            f"{flags.count(True)} straddle but {n_unit} lie on the circle "
            f"at width {width}")
    # Rank 0 expanding (lo > 1), 1 on the circle, 2 contracting (hi < 1).
    order = sorted(range(len(boxes)),
                   key=lambda i: ((moduli[i][0] <= 1) + (moduli[i][1] < 1),
                                  boxes[i].re.lo, boxes[i].im.lo))
    return [boxes[i] for i in order], [flags[i] for i in order], width


class AlgebraicBase:
    """A classified base alpha given by its minimal polynomial.

    Construct through :func:`make_base`.  Instances are immutable from
    the caller's point of view; the only internal mutation is monotone
    refinement of the root rectangles, which is deterministic.

    root_boxes holds a certified rectangle for each conjugate, in
    canonical order, and unit_flags marks the ones proven to lie on the
    unit circle.  The rectangles start at width DEFAULT_WIDTH, or finer
    where classification needs it; refine() tightens them.  A degree-one
    base alpha = a/b holds its exact root as the point rectangle, so
    achieved_width is 0 and no conjugate query needs a case of its own.
    """

    def __init__(self, poly: IntPolynomial, irreducibility: str):
        d = poly.degree
        self.min_poly = poly
        self.irreducibility = irreducibility
        self.degree = d
        self.residue_modulus = abs(poly.constant_term)
        self.rational_view: tuple[int, int] | None = None
        self.n_contracting, self.n_unit, self.n_expanding = circle_counts(poly)
        if d == 1:
            const, lead = poly.coeffs
            a = abs(const)
            b = -lead if const > 0 else lead
            self.rational_view = (a, b)
            boxes, width = [Box.point(Fraction(a, b))], Fraction(0)
        else:
            width = DEFAULT_WIDTH
            boxes = certified_roots(poly.coeffs, width)
        self.root_boxes, self.unit_flags, self.achieved_width = _classify(
            poly.coeffs, boxes, self.n_unit, width)
        self._powers: list[list[Box]] | None = None
        if self.n_unit == d:
            # Kronecker: a monic integer polynomial with every root on
            # the unit circle has only roots of unity as roots.
            self.classification = (Classification.ROOT_OF_UNITY
                                   if poly.is_monic
                                   else Classification.UNIMODULAR)
        elif self.n_expanding == d:
            self.classification = (Classification.EXPANDING_INTEGER
                                   if poly.is_monic
                                   else Classification.RATIONAL if d == 1
                                   else Classification.EXPANDING_NON_INTEGER)
        else:
            self.classification = Classification.MIXED

    # -- classification queries -------------------------------------------

    @property
    def supports_height_reduction(self) -> bool:
        """Whether alpha is height-reducing (a finite integer alphabet, see
        height_reduce): exactly when its conjugates are all on the unit
        circle or all outside it, which is every class but Mixed."""
        return self.classification is not Classification.MIXED

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
        return list(self.root_boxes)

    def conjugate_moduli(self) -> list[tuple[Fraction, Fraction]]:
        """Certified [lo, hi] enclosures of each conjugate modulus.  Roots
        proven to lie on the unit circle report exactly [1, 1]; the
        modulus of a point rectangle is exact."""
        return [(Fraction(1), Fraction(1)) if unit else box.abs_bounds()
                for box, unit in zip(self.root_boxes, self.unit_flags)]

    def refine(self) -> None:
        """Contract every rectangle to a sixteenth of the width, each new
        one inside the old (deterministic, monotone).  A point rectangle
        stays as it is."""
        width = self.achieved_width / 16
        boxes = contract_roots(self.min_poly.coeffs, self.root_boxes, width)
        for fresh, unit in zip(boxes, self.unit_flags):
            if not unit:
                lo, hi = fresh.abs_bounds()
                if lo <= 1 <= hi:
                    raise PrecisionError("refined modulus interval regressed")
        self.root_boxes = boxes
        self.achieved_width = width
        self._powers = None

    def _power_table(self) -> list[list[Box]]:
        """[k][i] = certified box for alpha_k ** i, i < degree, built once
        for the current root rectangles."""
        if self._powers is None:
            self._powers = []
            for box in self.root_boxes:
                row = [Box.point(1)]
                for _ in range(1, self.degree):
                    row.append(row[-1] * box)
                self._powers.append(row)
        return self._powers

    # -- elements of Z[alpha] ----------------------------------------------

    def _require_elements(self) -> None:
        if self.degree >= 2 and not self.is_monic:
            raise UnsupportedBaseError(
                "Z[alpha] arithmetic needs a monic minimal polynomial or "
                "a degree-one base; alpha is a non-integral irrational")

    @property
    def zero(self):
        self._require_elements()
        return (0,) * self.degree

    def element(self, value):
        """The element with coordinates value (a number, or up to degree
        of them in the power basis, padded with zeros): ints, or Fractions
        whose denominator divides a power of the leading coefficient; any
        other (a float, a bool, None, a nested sequence) is a ValueError.

        >>> make_base("2x-3").element(5), make_base("x^2+2").element(5)
        ((5,), (5, 0))
        """
        self._require_elements()
        if not isinstance(value, (list, tuple)):
            value = (value,)
        leads = repeat(self.min_poly.coeffs[-1])
        coords = tuple(map(_coordinate, value, leads))
        pad = self.degree - len(coords)
        if pad < 0:
            raise ValueError(f"coordinate vector longer than degree {self.degree}")
        return coords + (0,) * pad

    def add(self, x, y):
        return tuple(map(add, x, y))

    def neg(self, x):
        return tuple(map(neg, x))

    def add_int(self, x, k: int):
        return (x[0] + k,) + x[1:]

    def mul_alpha(self, x):
        """alpha * x by c_d alpha^d = -(c_0 + ... + c_(d-1) alpha^(d-1)),
        x a/b in degree one; element stores a whole Fraction as an int."""
        m = self.min_poly.coeffs
        top, rest = divmod(x[-1], m[-1])
        if rest:  # x_(d-1)/c_d is a fraction
            top = Fraction(x[-1], m[-1])
        out = [-m[0] * top]
        for i in range(1, self.degree):
            out.append(x[i - 1] - m[i] * top)
        return tuple(out) if type(top) is int else self.element(out)

    def div_alpha_exact(self, y):
        """x with alpha * x = y; raises ValueError when y is not divisible
        by alpha.  Inverse of mul_alpha on all of Z[alpha]."""
        m = self.min_poly.coeffs
        top, rest = divmod(-y[0].numerator, m[0])
        if rest:
            raise ValueError(f"{y} is not divisible by alpha")
        if y[0].denominator != 1:
            top = Fraction(top, y[0].denominator)
        out = [0] * self.degree
        out[-1] = m[-1] * top
        for i in range(1, self.degree):
            out[i - 1] = y[i] + m[i] * top
        return tuple(out) if type(top) is int else self.element(out)

    def residue(self, x) -> int:
        """Class of x in Z[alpha]/alpha Z[alpha] = Z/M(0)Z, in
        [0, |M(0)|), read from x_0, which must be an integer."""
        if x[0].denominator != 1:
            raise ValueError(f"residue undefined for non-integer value "
                             f"{x[0]} (valuation violation)")
        return x[0] % self.residue_modulus

    def eval_word(self, digits_msb_first):
        """Horner evaluation of a digit word (most significant first) as
        an element: d_m alpha^m + ... + d_0."""
        acc = self.zero
        for d in digits_msb_first:
            acc = self.add(self.mul_alpha(acc), self.element(d))
        return acc

    def display(self, x, write=None):
        """x as output shows it: a degree-one element as its coordinate,
        any other as its tuple; with write, that as text, each coordinate
        written by write."""
        if write is None:
            return x[0] if self.degree == 1 else x
        text = ", ".join(map(write, x))
        return text if self.degree == 1 else f"({text})"

    def conjugate_boxes(self, x) -> list[Box]:
        """Certified rectangles for sigma_k(x), each conjugate embedding,
        at the current width of the root rectangles."""
        self._require_elements()
        out = []
        for row in self._power_table():
            acc = Box.point(0)
            for c, p in zip(x, row):
                acc = acc + p.scale(c)
            out.append(acc)
        return out

    def conjugate_window(self, radii):
        """The certified conjugate test, as a function window(x, lo, hi):
        the range of the integers d in lo..hi for which no |sigma_k(x + d)|
        is proven to exceed radii[k] (None leaves conjugate k free).  x is
        a coordinate tuple; off the lattice the range is empty.

        Each power box alpha_k^i is rounded outward once to the 2^-n grid;
        each side L <= U is kept as midpoint L + U and radius U - L over
        2^(n+1).  sigma_k(x) is then an integer dot product, d shifts its
        real midpoint by d 2^(n+1) (alpha^0 is the exact point 1), and the
        range follows from exact integer comparisons and isqrt."""
        bits = grid_bits(self.achieved_width)
        unit = 1 << (bits + 1)
        tests = []
        for row, radius in zip(self._power_table(), radii):
            if radius is not None:
                parts = []
                for box in row:
                    g = box.outward(bits)
                    parts.append((g.rl + g.rh, g.rh - g.rl,
                                  g.il + g.ih, g.ih - g.il))
                tests.append((*zip(*parts),
                              radius.numerator ** 2 << (2 * bits + 2),
                              radius.denominator ** 2))

        def window(x, lo: int, hi: int) -> range:
            if x[0].denominator != 1:  # off the lattice, as is every x + d
                return range(0)
            mags = tuple(map(abs, x))
            for m_re, r_re, m_im, r_im, num, den in tests:
                re = sum(map(mul, x, m_re))
                im = max(abs(sum(map(mul, x, m_im)))
                         - sum(map(mul, mags, r_im)), 0)
                room = num - im * im * den
                if room >= 0:
                    reach = sum(map(mul, mags, r_re)) + isqrt(room // den)
                    lo = max(lo, -((reach + re) // unit))
                    hi = min(hi, (reach - re) // unit)
                if room < 0 or lo > hi:
                    return range(0)
            return range(lo, hi + 1)

        return window

    def __eq__(self, other):  # one alpha, however refined (see make_base)
        return (isinstance(other, AlgebraicBase)
                and self.min_poly == other.min_poly)

    def __hash__(self) -> int:
        return hash(self.min_poly)

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


def make_base(poly) -> AlgebraicBase:
    """Build a classified base from a minimal polynomial.

    poly may be an IntPolynomial, a coefficient list (ascending), or
    text, which must be nonconstant, primitive, squarefree, with nonzero
    constant term; a base is returned as it is.  Irreducibility is
    verified exactly at every degree; it is recorded as "assumed" only
    when the factoring recombination budget runs out."""
    if isinstance(poly, AlgebraicBase):
        return poly
    poly = parse_polynomial(poly)
    require_min_poly_shape(poly)
    if poly.leading_coefficient < 0:
        poly = IntPolynomial(tuple(-c for c in poly.coeffs))
    irreducible = poly.degree == 1 or is_irreducible_z(poly)
    if irreducible is False:
        raise InvalidPolynomialError(
            f"{poly!s} factors over Z; not a minimal polynomial")
    irreducibility = "assumed" if irreducible is None else "verified"
    return AlgebraicBase(poly, irreducibility)
