"""Certified isolation of the roots of a squarefree integer polynomial.

Float seeds come from the Weierstrass (Durand-Kerner) iteration (Kerner,
Numer. Math. 8, 1966) on the polynomial scaled into the unit disk.  It
uses only +, -, * and / on Python floats and exact power-of-two rescaling,
so the seeds are bit-identical on every IEEE-754 platform.

One interval Newton contraction (Moore, Interval Analysis, 1966) then
certifies and refines every root.  Around each seed it takes a rectangle
B and forms N(B) = mid(B) - P(mid(B))/P'(B): when N(B) lands strictly
inside B, B holds exactly one simple root.  From there it iterates
B <- N(B) & B down to the target width.  Every iterate is rounded outward
to the 2^-(w+24) dyadic grid of a width near 2^-w, so endpoints keep a
bounded size, and each iterate lies inside the one before.  A seed that
no rectangle around it certifies is first polished by exact Newton steps
on a finer grid; its rectangle then keeps that grid.  Refining to a
finer width continues the same contraction from the stored rectangles,
so refined rectangles nest.

Everything downstream consumes only the certified rectangles; the float
seeds never participate in a comparison.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PrecisionError
from .intervals import Box, Interval, horner_box

DEFAULT_WIDTH = Fraction(1, 2**40)

_CRat = tuple[Fraction, Fraction]


def _eval_and_diff(coeffs, z: _CRat) -> tuple[_CRat, _CRat]:
    """(P(z), P'(z)) exactly, for z with dyadic parts and degree d >= 1:
    one Horner pass on the Gaussian integer a + bi = z 2^k, carrying
    2^(k(d-j)) times the partial value h_j and 2^(k(d-1-j)) times its
    derivative g_j, so that no step needs a gcd."""
    d = len(coeffs) - 1
    k = max(z[0].denominator, z[1].denominator).bit_length() - 1
    a, b = int(z[0] * (1 << k)), int(z[1] * (1 << k))
    hr = hi = gr = gi = 0
    for j in range(d, -1, -1):
        gr, gi = gr * a - gi * b + hr, gr * b + gi * a + hi
        hr, hi = (hr * a - hi * b + (coeffs[j] << (k * (d - j))),
                  hr * b + hi * a)
    return ((Fraction(hr, 1 << (k * d)), Fraction(hi, 1 << (k * d))),
            (Fraction(gr, 1 << (k * d - k)), Fraction(gi, 1 << (k * d - k))))


def grid_bits(width: Fraction) -> int:
    """w + 24, where 2^w is the largest power of two not above the
    denominator of width: the 2^-(w+24) grid holds the root boxes of that
    width and the rounded power boxes of the zero-automaton pass."""
    return width.denominator.bit_length() + 23


def _newton(coeffs, box: Box, bits: int) -> Box | None:
    """N(B) = m - P(m)/P'(B); None when P'(B) may contain zero."""
    mre, mim = box.mid
    p_mid, _ = _eval_and_diff(coeffs, (mre, mim))
    dp_box = horner_box([i * c for i, c in enumerate(coeffs)][1:], box, bits)
    if dp_box.abs_sq().lo <= 0:
        return None
    quotient = dp_box.divide_into(Box.point(p_mid[0], p_mid[1]))
    return Box.point(mre, mim) - quotient


def _contract(coeffs, box: Box, width: Fraction, bits: int) -> Box:
    """Iterate B <- N(B) & B, rounded outward to the 2^-bits grid and met
    with B again, until B is no wider than width.  B must hold a root;
    every root in B lies in N(B), so each iterate holds the root and lies
    inside the one before.  B is on that grid, or on a finer one when
    _certify had to polish its seed."""
    while box.width > width:
        step = _newton(coeffs, box, bits)
        meet = step.intersect(box) if step is not None else None
        if meet is not None:
            meet = meet.outward(bits).intersect(box)
        if meet is None or meet.width >= box.width:
            raise PrecisionError(
                f"root contraction stalled for {coeffs} at width {box.width}")
        box = meet
    return box


def _polish(coeffs, z: _CRat, bits: int) -> _CRat:
    """Newton steps z <- z - P(z)/P'(z) in exact arithmetic, each iterate
    rounded to the 2^-bits grid, until z stops moving (at most 64)."""
    one = 1 << bits
    for _ in range(64):
        p, dp = _eval_and_diff(coeffs, z)
        den = dp[0] * dp[0] + dp[1] * dp[1]
        if not den:
            break
        nxt = (Fraction(round((z[0] - (p[0] * dp[0] + p[1] * dp[1]) / den)
                              * one), one),
               Fraction(round((z[1] - (p[1] * dp[0] - p[0] * dp[1]) / den)
                              * one), one))
        if nxt == z:
            break
        z = nxt
    return z


def _certify(coeffs, seed: _CRat, bits: int) -> Box:
    """A box proven to hold exactly one root near seed: N(B) strictly
    inside B proves it, and N(B) rounded outward still lies in B.  The
    first radius tried is 8|P/P'| at the seed, grown fourfold up to seven
    times, on the 2^-bits grid.  When none works, the seed is polished on
    a grid of twice the bits and the radii are tried there, up to four
    doublings.  This is what certifies a root of a tight cluster, whose
    float seed can lie nearer a neighbour than the root, or a cluster
    that the 2^-bits grid is too coarse to split."""
    for grid in (bits << i for i in range(5)):
        if grid > bits:
            seed = _polish(coeffs, seed, grid)
        p, dp = _eval_and_diff(coeffs, seed)
        radius = Fraction(1, 1 << grid)
        if dp[0] or dp[1]:
            radius = max(radius, 8 * (abs(p[0]) + abs(p[1]))
                         / max(abs(dp[0]), abs(dp[1])))
        for r in (radius * 4**i for i in range(8)):
            box = Box(Interval(seed[0] - r, seed[0] + r),
                      Interval(seed[1] - r, seed[1] + r)).outward(grid)
            step = _newton(coeffs, box, grid)
            if step is not None and box.contains_strict(step):
                return step.outward(grid)
    raise PrecisionError(
        f"could not certify a root of {coeffs} up to the 2^-{grid} grid; "
        "the last radius tried was about "
        f"2^{r.numerator.bit_length() - r.denominator.bit_length()}")


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
    return [(Fraction(x) * scale, Fraction(y) * scale) for x, y in zip(zr, zi)]


def certified_roots(coeffs, width: Fraction = DEFAULT_WIDTH) -> list[Box]:
    """All roots of the squarefree polynomial with the given ascending
    integer coefficients, as pairwise disjoint certified rectangles of
    width <= width, in the order of the float seeds."""
    if len(coeffs) < 2:
        raise ValueError("need degree >= 1")
    bits = grid_bits(width)
    boxes = [_certify(coeffs, z, bits) for z in _float_seeds(coeffs)]
    boxes = contract_roots(coeffs, boxes, width)
    if not all(a.disjoint(b) for i, a in enumerate(boxes)
               for b in boxes[i + 1:]):
        raise PrecisionError(
            f"could not separate the roots of {coeffs} at width {width}")
    return boxes


def contract_roots(coeffs, boxes: list[Box], width: Fraction) -> list[Box]:
    """Certified root boxes contracted to width <= width, each inside the
    box it came from, on the grid of the new width."""
    bits = grid_bits(width)
    return [_contract(coeffs, box, width, bits) for box in boxes]
