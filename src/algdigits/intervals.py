"""Exact interval arithmetic with rational endpoints.

Real intervals are closed, endpoints are fractions.Fraction, and every
operation returns an interval guaranteed to contain the true result.
Complex values are rectangles (a real interval for each part).  These
rectangles carry the certified locations of conjugates; all pruning
decisions elsewhere consume only their endpoints.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .record import Record


def sqrt_lower(q: Fraction, bits: int = 64) -> Fraction:
    """A rational r with r*r <= q and q - r*r small (about 2^-bits rel)."""
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    n = q.numerator * q.denominator * scale * scale
    return Fraction(math.isqrt(n), q.denominator * scale)


def sqrt_upper(q: Fraction, bits: int = 64) -> Fraction:
    """A rational r with r*r >= q (tight to about 2^-bits)."""
    if q < 0:
        raise ValueError("sqrt of a negative rational")
    if q == 0:
        return Fraction(0)
    scale = 1 << bits
    n = q.numerator * q.denominator * scale * scale
    s = math.isqrt(n)
    if s * s < n:
        s += 1
    return Fraction(s, q.denominator * scale)


def dyadic_outward(iv: Interval, bits: int) -> tuple[int, int]:
    """Integers (L, U) with L / 2^bits <= iv.lo and iv.hi <= U / 2^bits:
    the interval rounded outward to the 2^-bits grid."""
    lo, hi = iv.lo, iv.hi
    return ((lo.numerator << bits) // lo.denominator,
            -((-hi.numerator << bits) // hi.denominator))


class Interval(Record):
    """Closed interval [lo, hi] with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi) -> None:
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def point(q) -> "Interval":
        q = Fraction(q)
        return Interval(q, q)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, q) -> bool:
        return self.lo <= q <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))

    def scale(self, q) -> "Interval":
        q = Fraction(q)
        if q >= 0:
            return Interval(self.lo * q, self.hi * q)
        return Interval(self.hi * q, self.lo * q)

    def shift(self, q) -> "Interval":
        q = Fraction(q)
        return Interval(self.lo + q, self.hi + q)

    def square(self) -> "Interval":
        """Tighter than self * self when the interval straddles zero."""
        a, b = self.lo * self.lo, self.hi * self.hi
        if self.lo <= 0 <= self.hi:
            return Interval(Fraction(0), max(a, b))
        return Interval(min(a, b), max(a, b))

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(Fraction(0), max(-self.lo, self.hi))

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def contains_strict(self, other: "Interval") -> bool:
        """True when other lies in the open interior of self."""
        return self.lo < other.lo and other.hi < self.hi

    def disjoint(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def reciprocal(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


class Box(Record):
    """Axis-aligned rectangle in the complex plane."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval, im: Interval) -> None:
        # Spelled out: boxes are built in every Horner step.
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @staticmethod
    def point(re, im=0) -> "Box":
        return Box(Interval.point(re), Interval.point(im))

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    @property
    def mid(self) -> tuple[Fraction, Fraction]:
        return (self.re.mid, self.im.mid)

    def __add__(self, other: "Box") -> "Box":
        return Box(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "Box") -> "Box":
        return Box(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "Box":
        return Box(-self.re, -self.im)

    def __mul__(self, other: "Box") -> "Box":
        return Box(self.re * other.re - self.im * other.im,
                   self.re * other.im + self.im * other.re)

    def scale(self, q) -> "Box":
        return Box(self.re.scale(q), self.im.scale(q))

    def shift_re(self, q) -> "Box":
        return Box(self.re.shift(q), self.im)

    def conjugate(self) -> "Box":
        return Box(self.re, -self.im)

    def abs_sq(self) -> Interval:
        return self.re.square() + self.im.square()

    def abs_bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        sq = self.abs_sq()
        return (sqrt_lower(sq.lo, bits), sqrt_upper(sq.hi, bits))

    def contains(self, re, im=0) -> bool:
        return self.re.contains(re) and self.im.contains(im)

    def contains_strict(self, other: "Box") -> bool:
        return self.re.contains_strict(other.re) and self.im.contains_strict(other.im)

    def disjoint(self, other: "Box") -> bool:
        return self.re.disjoint(other.re) or self.im.disjoint(other.im)

    def intersect(self, other: "Box") -> "Box | None":
        re = self.re.intersect(other.re)
        im = self.im.intersect(other.im)
        if re is None or im is None:
            return None
        return Box(re, im)

    def divide_into(self, numerator: "Box") -> "Box":
        """numerator / self, valid only when 0 is certifiably outside
        self.  Uses z/w = z * conj(w) / |w|^2."""
        denom_sq = self.abs_sq()
        if denom_sq.lo <= 0:
            raise ZeroDivisionError("divisor box may contain zero")
        scaled = numerator * self.conjugate()
        inv = denom_sq.reciprocal()
        return Box(scaled.re * inv, scaled.im * inv)

    def outward(self, bits: int) -> "Box":
        """The smallest box on the 2^-bits grid that contains self."""
        one = 1 << bits
        rl, ru = dyadic_outward(self.re, bits)
        il, iu = dyadic_outward(self.im, bits)
        return Box(Interval(Fraction(rl, one), Fraction(ru, one)),
                   Interval(Fraction(il, one), Fraction(iu, one)))

    def __repr__(self) -> str:
        return f"Box(re={self.re}, im={self.im})"


def horner_box(coeffs, z: Box, bits: int) -> Box:
    """Evaluate an integer polynomial at a box, coefficients ascending,
    rounding every Horner step outward to the 2^-bits grid."""
    acc = Box.point(0)
    for c in reversed(coeffs):
        acc = (acc * z).shift_re(c).outward(bits)
    return acc
