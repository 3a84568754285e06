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

import math
from fractions import Fraction

from .errors import PrecisionError
from .intervals import Box, horner_box

DEFAULT_WIDTH = Fraction(1, 2**40)


def _eval_and_diff(coeffs, z: Box) -> tuple[int, int, int, int]:
    """Integers (hr, hi, gr, gi) with P(z) = (hr + i hi) / D^d and
    P'(z) = (gr + i gi) / D^(d-1), for a point z whose denominator D is a
    power of two and degree d >= 1: one Horner pass on the Gaussian
    integer a + bi = z D, carrying D^(d-j) times the partial value h_j
    and D^(d-1-j) times its derivative g_j, so that no step needs a gcd."""
    d = len(coeffs) - 1
    k = z.den.bit_length() - 1
    a, b = z.rl, z.il
    hr = hi = gr = gi = 0
    for j in range(d, -1, -1):
        gr, gi = gr * a - gi * b + hr, gr * b + gi * a + hi
        hr, hi = (hr * a - hi * b + (coeffs[j] << (k * (d - j))),
                  hr * b + hi * a)
    return hr, hi, gr, gi


def grid_bits(width: Fraction) -> int:
    """w + 24, where 2^w is the largest power of two not above the
    denominator of width: the 2^-(w+24) grid holds the root boxes of that
    width and the rounded power boxes of the zero-automaton pass."""
    return width.denominator.bit_length() + 23


def _newton(coeffs, box: Box, bits: int) -> Box | None:
    """N(B) = m - P(m)/P'(B); None when P'(B) may contain zero."""
    m = box.mid
    hr, hi, _, _ = _eval_and_diff(coeffs, m)
    dp_box = horner_box([i * c for i, c in enumerate(coeffs)][1:], box, bits)
    quotient = dp_box.divide_into(
        Box(hr, hr, hi, hi, m.den ** (len(coeffs) - 1)))
    return None if quotient is None else m - quotient


def _contract(coeffs, box: Box, width: Fraction, bits: int) -> Box:
    """Iterate B <- N(B) & B, rounded outward to the 2^-bits grid and met
    with B again, until B is no wider than width.  B must hold a root;
    every root in B lies in N(B), so each iterate holds the root and lies
    inside the one before.  B is on that grid, or on a finer one when
    _certify had to polish its seed."""
    while box.wider(width):
        step = _newton(coeffs, box, bits)
        meet = step.intersect(box) if step is not None else None
        if meet is not None:
            meet = meet.outward(bits).intersect(box)
        if meet is None or not box.wider(meet):
            raise PrecisionError(
                f"root contraction stalled for {coeffs} at width {box.width}")
        box = meet
    return box


def _round(n: int, m: int) -> int:
    """n / m rounded to the nearest integer, ties to even, for m > 0."""
    q, r = divmod(n, m)
    return q + (2 * r > m or (2 * r == m and q & 1))


def _polish(coeffs, z: Box, bits: int) -> Box:
    """Newton steps z <- z - P(z)/P'(z) in exact arithmetic, each iterate
    rounded to the nearest point of the 2^-bits grid (ties to even), until
    z stops moving (at most 64).  With z = (a + bi)/D, P(z)/P'(z) is
    (hr + i hi)(gr - i gi) / (g D) for g = gr^2 + gi^2."""
    for _ in range(64):
        hr, hi, gr, gi = _eval_and_diff(coeffs, z)
        g = gr * gr + gi * gi
        if not g:
            break
        den = g * z.den
        x = _round((z.rl * g - hr * gr - hi * gi) << bits, den)
        y = _round((z.il * g - hi * gr + hr * gi) << bits, den)
        nxt = Box(x, x, y, y, 1 << bits)
        if nxt == z:
            break
        z = nxt
    return z


def _certify(coeffs, seed: Box, bits: int) -> Box:
    """A box proven to hold exactly one root near the point seed: N(B)
    strictly inside B proves it, and N(B) rounded outward still lies in
    B.  The first radius tried is about 8|P/P'| at the seed, grown
    fourfold up to seven times, on the 2^-bits grid.  When none works,
    the seed is polished on a grid of twice the bits and the radii are
    tried there, up to four doublings.  This certifies a root of a tight
    cluster, whose float seed can lie nearer a neighbour than the root,
    or a cluster that the 2^-bits grid is too coarse to split."""
    for grid in (bits << i for i in range(5)):
        if grid > bits:
            seed = _polish(coeffs, seed, grid)
        hr, hi, gr, gi = _eval_and_diff(coeffs, seed)
        # rn / rd = 8 (|hr| + |hi|) / (max(|gr|, |gi|) D) if P' is not 0 there
        rn, rd = 1, 1 << grid
        n, d = 8 * (abs(hr) + abs(hi)), max(abs(gr), abs(gi)) * seed.den
        if d and n * rd > d:
            rn, rd = n, d
        for r in (rn << 2 * i for i in range(8)):
            box = (seed + Box(-r, r, -r, r, rd)).outward(grid)
            step = _newton(coeffs, box, grid)
            if step is not None and box.contains_strict(step):
                return step.outward(grid)
    r = Fraction(r, rd)
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


def _float_seeds(coeffs) -> list[Box]:
    """Approximations of all roots, as points read off floats.  A power
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
    # Integer true division rounds correctly, as float(Fraction) does.
    a = [c / (lead << e * (d - k)) for k, c in enumerate(coeffs[:d])]
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
    return [Box.point(Fraction(x), Fraction(y)).scale(1 << e)
            for x, y in zip(zr, zi)]


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
