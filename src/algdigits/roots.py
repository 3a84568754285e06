"""Certified isolation of the roots of a squarefree integer polynomial.

Float seeds come from the Weierstrass (Durand-Kerner) iteration (Kerner,
Numer. Math. 8, 1966) on the polynomial scaled into the unit disk.  It
uses only +, -, * and / on Python floats and exact power-of-two rescaling,
so the seeds are bit-identical on every IEEE-754 platform.  Each seed is
polished by a Newton iteration in exact rational arithmetic (iterates
rounded to dyadic rationals of bounded size), then wrapped in a rectangle that an interval Newton step
certifies: if N(B) = mid(B) - P(mid)/P'(B) lands strictly inside B, the
rectangle contains exactly one simple root, and iterating N shrinks it.

Everything downstream consumes only the certified rectangles; the float
seeds never participate in a comparison.
"""

from __future__ import annotations

import math
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


def _eval_and_diff(coeffs, z: _CRat) -> tuple[_CRat, _CRat]:
    """(P(z), P'(z)) by a combined Horner pass, exact."""
    p: _CRat = (Fraction(0), Fraction(0))
    dp: _CRat = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        dp = _cadd(_cmul(dp, z), p)
        p = _cadd(_cmul(p, z), (Fraction(c), Fraction(0)))
    return p, dp


def _newton_polish(coeffs, seed: _CRat, bits: int) -> _CRat:
    """Newton iteration with dyadic rounding."""
    z = (round_dyadic(seed[0], bits), round_dyadic(seed[1], bits))
    tol_sq = Fraction(1, 1 << (2 * bits - 8))
    for _ in range(80):
        p, dp = _eval_and_diff(coeffs, z)
        try:
            step = _cdiv(p, dp)
        except ZeroDivisionError:
            break
        z = (round_dyadic(z[0] - step[0], bits), round_dyadic(z[1] - step[1], bits))
        if step[0] * step[0] + step[1] * step[1] <= tol_sq:
            break
    return z


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


def _rescaled(re: float, im: float, k: int) -> tuple[float, float, int]:
    """(re + i im) 2^k with re and im moved near 1 by an exact power of two."""
    t = math.frexp(abs(re) + abs(im))[1]
    return math.ldexp(re, -t), math.ldexp(im, -t), k + t


def _correction(a, zr, zi, i) -> tuple[float, float]:
    """q(x) / prod_{j != i} (x - z_j) at x = z_i, for the monic q with lower
    coefficients a.  Numerator and denominator are kept as (re + i im) 2^k,
    so neither overflows nor underflows on the way."""
    xr, xi, pr, pi, kp = zr[i], zi[i], 1.0, 0.0, 0
    for c in reversed(a):
        pr, pi = pr * xr - pi * xi + math.ldexp(c, -kp), pr * xi + pi * xr
        if pr * pr + pi * pi > 2.0 ** 600:
            pr, pi, kp = _rescaled(pr, pi, kp)
    dr, di, k = 1.0, 0.0, 0
    for j in range(len(zr)):
        if j != i:
            er, ei = xr - zr[j], xi - zi[j]
            dr, di = dr * er - di * ei, dr * ei + di * er
            if not 2.0 ** -600 < dr * dr + di * di < 2.0 ** 600:
                dr, di, k = _rescaled(dr, di, k)
    m = dr * dr + di * di
    return (math.ldexp((pr * dr + pi * di) / m, kp - k),
            math.ldexp((pi * dr - pr * di) / m, kp - k))


def _float_seeds(coeffs) -> list[_CRat]:
    """Approximations of all roots, as rationals read off floats.  A power
    of two R above Fujiwara's bound 2 max_k |c_k/c_d|^(1/(d-k)) moves the
    roots of q(w) = p(R w) / (c_d R^d) into the unit disk; the monic
    coefficients of q have modulus <= 1/2, so their floats cannot
    overflow.  The iteration starts from the powers (0.4+0.9i)^k and
    updates one estimate at a time."""
    d, lead = len(coeffs) - 1, coeffs[-1]
    # |c_k/c_d| < 2^(t+1) with t = bits(c_k) - bits(c_d), so R = 2^e with
    # e = 1 + ceil((t+1)/(d-k)) over every k with c_k != 0.
    e = max([0] + [1 - (abs(lead).bit_length() - abs(c).bit_length() - 1)
                   // (d - k) for k, c in enumerate(coeffs[:d]) if c])
    scale = Fraction(2) ** e
    a = [float(Fraction(c) / (lead * scale ** (d - k)))
         for k, c in enumerate(coeffs[:d])]
    zr, zi, xr, xi = [], [], 1.0, 0.0
    for _ in range(d):
        zr.append(xr)
        zi.append(xi)
        xr, xi = xr * 0.4 - xi * 0.9, xr * 0.9 + xi * 0.4
    last = 0.0
    for _ in range(500):
        worst = 0.0
        for i in range(d):
            xr, xi = zr[i], zi[i]
            try:
                sr, si = _correction(a, zr, zi, i)
            except (OverflowError, ZeroDivisionError):
                sr = si = math.inf  # an estimate that cannot move
            if math.isfinite(sr) and math.isfinite(si):
                zr[i], zi[i] = xr - sr, xi - si
            # Relative to estimates in the unit disk, so tiny roots converge
            # too; 2^-900 lets an estimate of a zero root stop.
            worst = max(worst, (sr * sr + si * si)
                        / (min(xr * xr + xi * xi, 1.0) + 2.0 ** -900))
        # Stop at convergence, or when small corrections stop halving.
        if worst <= 2.0 ** -100 or 2.0 ** -60 >= worst > last / 4:
            break
        last = worst
    return [((Fraction(x) * scale).limit_denominator(10**17),
             (Fraction(y) * scale).limit_denominator(10**17))
            for x, y in zip(zr, zi)]


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
        seeds = _float_seeds(coeffs)
    if len(seeds) != degree:
        raise ValueError("seed count does not match degree")
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]

    bits = max(80, width.denominator.bit_length() + 20)
    for _ in range(10):
        boxes: list[Box] = []
        ok = True
        polished = [_newton_polish(coeffs, seed, bits) for seed in seeds]
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
