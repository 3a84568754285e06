"""Exact integer algorithms behind ``polynomials.is_irreducible_z`` and
``polynomials.count_real_roots_between``.

Irreducibility over Q follows Zassenhaus (On Hensel factorization I,
J. Number Theory 1, 1969):

1. factor f modulo up to five small odd primes by distinct-degree
   factorization; a factor of f over Z has a degree that is a sum of
   factor degrees modulo every prime, so when the sets of such sums meet
   only in 0 and deg f, f is irreducible;
2. otherwise split the factors modulo the prime with the fewest of them
   (Cantor-Zassenhaus, from a fixed seed) and Hensel-lift them modulo
   p^k > 2 |lc f| 2^d ||f||_2, past twice the Mignotte bound on the
   coefficients of lc(f)/lc(g) * g for any factor g;
3. f is reducible exactly when some product of at most r/2 of the r
   lifted factors, times lc f and taken in the symmetric range, divides
   f exactly.

Step 3 is exponential in r.  Callers bound the degree (the default
limit of 24 in ``base.make_base``); at that limit the worst cases are
cyclotomic, such as Phi_72, Phi_84 and Phi_90, which take tens of
milliseconds.  The randomness only decides how fast the factors split,
never the verdict.

Polynomials are coefficient lists, least-significant first, with no
trailing zeros; modular ones hold residues in [0, m).
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from .polynomials import _pseudo_divmod

_SIEVE_PRIMES = 5


# -- arithmetic modulo m ---------------------------------------------------


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % m for c in out])


def _add(a, b, m, sign=1):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = a[:]
    for i, y in enumerate(b):
        out[i] = (out[i] + sign * y) % m
    return _trim(out)


def _sub(a, b, m):
    return _add(a, b, m, -1)


def _scale(a, c, m):
    return _trim([x * c % m for x in a])


def _monic(a, m):
    return _scale(a, pow(a[-1], -1, m), m)


def _divmod(a, b, m):
    """Quotient and remainder of a by b modulo m; lc(b) is a unit mod m."""
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    r = a[:]
    q = [0] * max(len(r) - db, 0)
    for k in range(len(r) - 1 - db, -1, -1):
        c = r[k + db] * inv % m
        q[k] = c
        if c:
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return _trim(q), _trim([x % m for x in r[:db]])


def _rem(a, b, m):
    return _divmod(a, b, m)[1]


def _gcd(a, b, p):
    """Monic gcd over F_p."""
    while b:
        a, b = b, _rem(a, b, p)
    return _monic(a, p) if a else a


def _gcdex(a, b, p):
    """s, t with s a + t b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return _scale(s0, inv, p), _scale(t0, inv, p)


def _powmod(a, e, f, m):
    out = [1]
    while e:
        if e & 1:
            out = _rem(_mul(out, a, m), f, m)
        e >>= 1
        if e:
            a = _rem(_mul(a, a, m), f, m)
    return out


def _product(polys, m):
    out = [1]
    for g in polys:
        out = _mul(out, g, m)
    return out


# -- factoring modulo a prime ----------------------------------------------


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _distinct_degree(f, p):
    """(i, g_i) pairs: g_i is the product of the degree-i irreducible
    factors of the monic squarefree f over F_p."""
    out = []
    h = [0, 1]
    i = 0
    while 2 * (i + 1) <= len(f) - 1:
        i += 1
        h = _powmod(h, p, f, p)
        g = _gcd(f, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((i, g))
            f = _divmod(f, g, p)[0]
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(g, i, p, rng):
    """Cantor-Zassenhaus: the monic degree-i factors of g over F_p (p odd)."""
    if len(g) - 1 == i:
        return [g]
    e = (p**i - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if len(a) < 2:
            continue
        u = _gcd(g, _sub(_powmod(a, e, g, p), [1], p), p)
        if 1 < len(u) < len(g):
            return (_equal_degree(u, i, p, rng)
                    + _equal_degree(_divmod(g, u, p)[0], i, p, rng))


# -- Hensel lifting --------------------------------------------------------


def _hensel_step(m, f, g, h, s, t):
    """From f = g h and s g + t h = 1 mod m (h monic) to the same mod m^2
    (von zur Gathen and Gerhard, Modern Computer Algebra, 15.10)."""
    mm = m * m
    f = [c % mm for c in f]
    e = _sub(f, _mul(g, h, mm), mm)
    q, r = _divmod(_mul(s, e, mm), h, mm)
    g = _add(g, _add(_mul(t, e, mm), _mul(q, g, mm), mm), mm)
    h = _add(h, r, mm)
    b = _sub(_add(_mul(s, g, mm), _mul(t, h, mm), mm), [1], mm)
    c, d = _divmod(_mul(s, b, mm), h, mm)
    s = _sub(s, d, mm)
    t = _sub(t, _add(_mul(t, b, mm), _mul(c, g, mm), mm), mm)
    return g, h, s, t


def _hensel_lift(f, factors, p, steps):
    """Monic factors of f modulo p^(2^steps) lifting the monic factors
    of f modulo p, in the same order."""
    top = p ** (2 ** steps)
    if len(factors) == 1:
        return [_monic([c % top for c in f], top)]
    k = len(factors) // 2
    g = _scale(_product(factors[:k], p), f[-1], p)
    h = _product(factors[k:], p)
    s, t = _gcdex(g, h, p)
    m = p
    for _ in range(steps):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return (_hensel_lift(g, factors[:k], p, steps)
            + _hensel_lift(h, factors[k:], p, steps))


# -- entry points ----------------------------------------------------------


def _primitive(a):
    c = math.gcd(*a)
    return [x // c for x in a]


def is_irreducible(coeffs) -> bool:
    """Irreducibility over Q of a nonconstant integer polynomial that is
    squarefree over Q."""
    f = _primitive(list(coeffs))
    d = len(f) - 1
    if not f[0]:
        return d == 1       # x divides f
    allowed = (1 << d) - 2      # bit k: a factor of degree k may exist
    best = None
    primes = _odd_primes()
    for _ in range(_SIEVE_PRIMES):
        while True:
            p = next(primes)
            if f[-1] % p == 0:
                continue
            fp = _monic([c % p for c in f], p)
            dfp = _trim([i * c % p for i, c in enumerate(fp) if i])
            if len(_gcd(fp, dfp, p)) == 1:
                break
        pieces = _distinct_degree(fp, p)
        sums = 1
        for i, g in pieces:
            for _ in range((len(g) - 1) // i):
                sums |= sums << i
        allowed &= sums
        if not allowed:
            return True
        count = sum((len(g) - 1) // i for i, g in pieces)
        if best is None or count < best[0]:
            best = (count, p, pieces)

    _, p, pieces = best
    rng = random.Random(p)
    factors = [u for i, g in pieces for u in _equal_degree(g, i, p, rng)]
    bound = 4 * f[-1] ** 2 * 4 ** d * sum(c * c for c in f)   # (2B)^2
    steps, top = 0, p
    while top * top <= bound:
        steps, top = steps + 1, top * top
    lifted = _hensel_lift(f, factors, p, steps)

    lc, half = f[-1], top // 2

    def symmetric(c):
        c %= top
        return c - top if c > half else c

    for size in range(1, len(lifted) // 2 + 1):
        for subset in combinations(lifted, size):
            if not allowed >> sum(len(u) - 1 for u in subset) & 1:
                continue
            c0 = symmetric(lc * math.prod(u[0] for u in subset))
            if not c0 or lc * f[0] % c0:
                continue
            g = [symmetric(c) for c in _scale(_product(subset, top), lc, top)]
            if not _pseudo_divmod(f, g)[1]:
                return False
    return True


def _sturm_sequence(f):
    seq = [f, [i * c for i, c in enumerate(f) if i]]
    while len(seq[-1]) > 1:
        r = _pseudo_divmod(seq[-2], seq[-1])[1]
        if not r:
            break
        g = math.gcd(*r)
        seq.append([-c // g for c in r])
    return seq


def count_real_roots(coeffs, lo, hi) -> int:
    """Distinct real roots in the closed interval [lo, hi], by a Sturm
    sequence of integer pseudo-remainders (a positive scale factor keeps
    every sign)."""
    f = list(coeffs)
    if len(f) < 2:
        return 0
    seq = _sturm_sequence(f)
    if len(seq[-1]) > 1:
        # Repeated roots: count the roots of the squarefree part.
        seq = _sturm_sequence(_primitive(_pseudo_divmod(f, seq[-1])[0]))

    def value(s, x):
        v = 0
        for c in reversed(s):
            v = v * x + c
        return v

    def variations(x):
        signs = [v > 0 for v in (value(s, x) for s in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return abs(variations(lo) - variations(hi)) + (value(f, lo) == 0)
