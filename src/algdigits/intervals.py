"""Exact complex rectangles with integer endpoints over one denominator.

A Box is [rl/den, rh/den] x [il/den, ih/den] for integers rl <= rh,
il <= ih and den >= 1: a power of two for root rectangles and every sum
and product built from them, b for the exact point a/b of a degree-one
base.  Each operation is exact integer arithmetic, with no gcd of
endpoints, and returns a box that contains the true result; outward()
rounds onto a dyadic grid.  These rectangles carry the certified locations of
conjugates.  Fractions appear only in the scalars that are printed or
compared: the endpoint views re and im, width, and abs_bounds.
"""

import math
from fractions import Fraction

from .record import Record


def sqrt_bound(q: Fraction, up: bool = False) -> Fraction:
    """A rational r >= 0 with r*r <= q, or r*r >= q when up, for q >= 0:
    isqrt(n d 2^128) / (d 2^64), rounded up when up, for q = n/d in
    lowest terms; within about 2^-64 relative of sqrt(q)."""
    d = q.denominator << 64
    n = q.numerator * d << 64
    r = math.isqrt(n)
    return Fraction(r + (up and r * r < n), d)


def _mul(al: int, ah: int, bl: int, bh: int) -> tuple[int, int]:
    """(min, max) of the endpoint products: the interval product."""
    products = (al * bl, al * bh, ah * bl, ah * bh)
    return min(products), max(products)


def _square(lo: int, hi: int) -> tuple[int, int]:
    """The interval square, 0 at the bottom when it straddles zero."""
    a, b = lo * lo, hi * hi
    if lo <= 0 <= hi:
        return 0, max(a, b)
    return min(a, b), max(a, b)


def _over(a: "Box", b: "Box") -> tuple[tuple, tuple, int]:
    """The endpoints of a and of b over their least common denominator,
    and that denominator: the larger one for two powers of two."""
    den = a.den if a.den == b.den else math.lcm(a.den, b.den)
    fa, fb = den // a.den, den // b.den
    return ((a.rl * fa, a.rh * fa, a.il * fa, a.ih * fa),
            (b.rl * fb, b.rh * fb, b.il * fb, b.ih * fb), den)


class Span(Record):
    """One side of a Box as exact rationals: the read-only view re or im."""

    __slots__ = ("lo", "hi")


class Box(Record):
    """Axis-aligned rectangle in the complex plane, endpoints over den."""

    __slots__ = ("rl", "rh", "il", "ih", "den")

    def __init__(self, rl: int, rh: int, il: int, ih: int, den: int = 1):
        # Spelled out: boxes are built in every Horner step.
        if rl > rh or il > ih or den < 1:
            raise ValueError(f"box endpoints out of order: "
                             f"[{rl}, {rh}] x [{il}, {ih}] / {den}")
        put = object.__setattr__
        put(self, "rl", rl)
        put(self, "rh", rh)
        put(self, "il", il)
        put(self, "ih", ih)
        put(self, "den", den)

    @staticmethod
    def point(re, im=0) -> "Box":
        """The exact point re + i im, for ints or Fractions."""
        den = math.lcm(re.denominator, im.denominator)
        x, y = (q.numerator * (den // q.denominator) for q in (re, im))
        return Box(x, x, y, y, den)

    @property
    def re(self) -> Span:
        return Span(Fraction(self.rl, self.den), Fraction(self.rh, self.den))

    @property
    def im(self) -> Span:
        return Span(Fraction(self.il, self.den), Fraction(self.ih, self.den))

    def _span(self) -> int:
        return max(self.rh - self.rl, self.ih - self.il)

    @property
    def width(self) -> Fraction:
        return Fraction(self._span(), self.den)

    def wider(self, other) -> bool:
        """Whether self is wider than other, a Box or a Fraction."""
        if isinstance(other, Box):
            return self._span() * other.den > other._span() * self.den
        return self._span() * other.denominator > other.numerator * self.den

    @property
    def mid(self) -> "Box":
        """The centre, as a point box."""
        re, im = self.rl + self.rh, self.il + self.ih
        return Box(re, re, im, im, 2 * self.den)

    def __eq__(self, other):
        if other.__class__ is not Box:
            return NotImplemented
        a, b, _ = _over(self, other)
        return a == b

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other: "Box") -> "Box":
        (a, b, c, d), (e, f, g, h), den = _over(self, other)
        return Box(a + e, b + f, c + g, d + h, den)

    def __sub__(self, other: "Box") -> "Box":
        (a, b, c, d), (e, f, g, h), den = _over(self, other)
        return Box(a - f, b - e, c - h, d - g, den)

    def __mul__(self, other: "Box") -> "Box":
        rr = _mul(self.rl, self.rh, other.rl, other.rh)
        ii = _mul(self.il, self.ih, other.il, other.ih)
        ri = _mul(self.rl, self.rh, other.il, other.ih)
        ir = _mul(self.il, self.ih, other.rl, other.rh)
        return Box(rr[0] - ii[1], rr[1] - ii[0], ri[0] + ir[0], ri[1] + ir[1],
                   self.den * other.den)

    def scale(self, q) -> "Box":
        """q times self, for an int or a Fraction q."""
        n, den = q.numerator, self.den * q.denominator
        if n >= 0:
            return Box(self.rl * n, self.rh * n, self.il * n, self.ih * n, den)
        return Box(self.rh * n, self.rl * n, self.ih * n, self.il * n, den)

    def _abs_sq(self) -> tuple[int, int]:
        """Bounds on |z|^2 over den^2."""
        rl, rh = _square(self.rl, self.rh)
        il, ih = _square(self.il, self.ih)
        return rl + il, rh + ih

    def abs_bounds(self) -> tuple[Fraction, Fraction]:
        lo, hi = self._abs_sq()
        den = self.den * self.den
        return (sqrt_bound(Fraction(lo, den)),
                sqrt_bound(Fraction(hi, den), up=True))

    def contains_strict(self, other: "Box") -> bool:
        """True when other lies in the open interior of self."""
        (a, b, c, d), (e, f, g, h), _ = _over(self, other)
        return a < e and f < b and c < g and h < d

    def disjoint(self, other: "Box") -> bool:
        (a, b, c, d), (e, f, g, h), _ = _over(self, other)
        return b < e or f < a or d < g or h < c

    def intersect(self, other: "Box") -> "Box | None":
        (a, b, c, d), (e, f, g, h), den = _over(self, other)
        rl, rh, il, ih = max(a, e), min(b, f), max(c, g), min(d, h)
        if rl > rh or il > ih:
            return None
        return Box(rl, rh, il, ih, den)

    def divide_into(self, numerator: "Box") -> "Box | None":
        """numerator / self as z conj(w) / |w|^2, or None when self may
        contain 0.  With |w|^2 in [ql, qh] / den^2, each endpoint x/s of
        z conj(w) gives the candidates x den^2 qh and x den^2 ql over
        s ql qh."""
        ql, qh = self._abs_sq()
        if ql <= 0:
            return None
        s = numerator * Box(self.rl, self.rh, -self.ih, -self.il, self.den)
        q = self.den * self.den
        re = (s.rl * qh, s.rl * ql, s.rh * qh, s.rh * ql)
        im = (s.il * qh, s.il * ql, s.ih * qh, s.ih * ql)
        return Box(min(re) * q, max(re) * q, min(im) * q, max(im) * q,
                   s.den * ql * qh)

    def outward(self, bits: int) -> "Box":
        """The smallest box on the 2^-bits grid that contains self."""
        den = self.den
        if den & (den - 1) == 0:  # a power of two: shift
            s = den.bit_length() - 1 - bits
            if s <= 0:
                return Box(self.rl << -s, self.rh << -s, self.il << -s,
                           self.ih << -s, 1 << bits)
            return Box(self.rl >> s, -(-self.rh >> s), self.il >> s,
                       -(-self.ih >> s), 1 << bits)
        return Box((self.rl << bits) // den, -((-self.rh << bits) // den),
                   (self.il << bits) // den, -((-self.ih << bits) // den),
                   1 << bits)


def horner_box(coeffs, z: Box, bits: int) -> Box:
    """Evaluate an integer polynomial at a box, coefficients ascending,
    rounding every Horner step outward to the 2^-bits grid."""
    acc = Box(0, 0, 0, 0)
    for c in reversed(coeffs):
        acc = (acc * z + Box(c, c, 0, 0)).outward(bits)
    return acc
