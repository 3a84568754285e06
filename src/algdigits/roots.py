"""Certified isolation of the roots of a squarefree integer polynomial.

Floating seeds come from the companion-matrix eigenvalues (numpy.roots).
Each seed is polished by a Newton iteration carried out in exact rational
arithmetic (iterates rounded to dyadic rationals of bounded size), then
wrapped in a rectangle that an interval Newton step certifies: if
N(B) = mid(B) - P(mid)/P'(B) lands strictly inside B, the rectangle
contains exactly one simple root, and iterating N shrinks it.

Everything downstream consumes only the certified rectangles; the float
seeds never participate in a comparison.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import PrecisionError
from .intervals import Box, Interval, horner_box, round_dyadic

DEFAULT_WIDTH = Fraction(1, 2**40)

_CRat = tuple[Fraction, Fraction]


def _cadd(a: _CRat, b: _CRat) -> _CRat:
    return (a[0] + b[0], a[1] + b[1])


def _cmul(a: _CRat, b: _CRat) -> _CRat:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cdiv(a: _CRat, b: _CRat) -> _CRat:
    d = b[0] * b[0] + b[1] * b[1]
    if d == 0:
        raise ZeroDivisionError
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def _cabs_sq(a: _CRat) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def _eval_and_diff(coeffs, z: _CRat) -> tuple[_CRat, _CRat]:
    """(P(z), P'(z)) by a combined Horner pass, exact."""
    p: _CRat = (Fraction(0), Fraction(0))
    dp: _CRat = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        dp = _cadd(_cmul(dp, z), p)
        p = _cadd(_cmul(p, z), (Fraction(c), Fraction(0)))
    return p, dp


def _newton_polish(coeffs, seed: _CRat, bits: int, max_iter: int = 80) -> tuple[_CRat, Fraction]:
    """Newton iteration with dyadic rounding; returns (z, |last step|^2)."""
    z = (round_dyadic(seed[0], bits), round_dyadic(seed[1], bits))
    tol_sq = Fraction(1, 1 << (2 * bits - 8))
    last_sq = Fraction(1)
    for _ in range(max_iter):
        p, dp = _eval_and_diff(coeffs, z)
        if dp == (0, 0):
            break
        try:
            step = _cdiv(p, dp)
        except ZeroDivisionError:
            break
        z = (round_dyadic(z[0] - step[0], bits), round_dyadic(z[1] - step[1], bits))
        last_sq = _cabs_sq(step)
        if last_sq <= tol_sq:
            break
    return z, last_sq


def _interval_newton_step(coeffs, dcoeffs, box: Box) -> Box | None:
    """N(B) = m - P(m)/P'(B); None when P'(B) may contain zero."""
    mre, mim = box.mid
    p_mid, _ = _eval_and_diff(coeffs, (mre, mim))
    dp_box = horner_box(dcoeffs, box)
    if dp_box.abs_sq().lo <= 0:
        return None
    quotient = dp_box.divide_into(Box.point(p_mid[0], p_mid[1]))
    return Box.point(mre, mim) - quotient


def _certify_one(coeffs, dcoeffs, center: _CRat, radius: Fraction,
                 target: Fraction) -> Box | None:
    """Try to certify a unique root near center and shrink to target width."""
    r = radius
    for _ in range(8):
        box = Box(Interval(center[0] - r, center[0] + r),
                  Interval(center[1] - r, center[1] + r))
        n = _interval_newton_step(coeffs, dcoeffs, box)
        if n is not None and box.contains_strict(n):
            cur = n.intersect(box) or n
            for _ in range(64):
                if cur.width <= target:
                    return cur
                nxt = _interval_newton_step(coeffs, dcoeffs, cur)
                if nxt is None:
                    break
                meet = nxt.intersect(cur)
                if meet is None or meet.width >= cur.width:
                    break
                cur = meet
            if cur.width <= target:
                return cur
            return None
        r = r * 4
    return None


def certified_roots(coeffs, width: Fraction = DEFAULT_WIDTH,
                    seeds: list[_CRat] | None = None) -> list[Box]:
    """All roots of the squarefree polynomial with the given ascending
    integer coefficients, as pairwise disjoint certified rectangles of
    width <= width.  Order follows the seed order, so refining with the
    previous midpoints as seeds keeps the root order stable."""
    degree = len(coeffs) - 1
    if degree < 1:
        raise ValueError("need degree >= 1")
    if seeds is None:
        import numpy as np

        arr = np.roots(list(reversed([float(c) for c in coeffs])))
        seeds = [(Fraction(float(z.real)).limit_denominator(10**17),
                  Fraction(float(z.imag)).limit_denominator(10**17))
                 for z in arr]
    if len(seeds) != degree:
        raise ValueError("seed count does not match degree")
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

    bits = max(80, width.denominator.bit_length() + 20)
    for _ in range(10):
        boxes: list[Box] = []
        ok = True
        polished = [_newton_polish(coeffs, seed, bits)[0] for seed in seeds]
        for z in polished:
            # Radius guess: the dyadic grid spacing plus the residual
            # Newton correction magnitude at z.
            p, dp = _eval_and_diff(coeffs, z)
            guess = Fraction(1, 1 << (bits - 6))
            if dp != (0, 0):
                w = _cdiv(p, dp)
                guess = max(guess, 8 * (abs(w[0]) + abs(w[1])))
            box = _certify_one(coeffs, dcoeffs, z, guess, width)
            if box is None:
                ok = False
                break
            boxes.append(box)
        if ok and all(boxes[i].disjoint(boxes[j])
                      for i in range(degree) for j in range(i + 1, degree)):
            return boxes
        bits *= 2
        seeds = polished
    raise PrecisionError(f"could not certify roots of {coeffs} at width {width}")
