"""Integer polynomials in one variable, with the exact predicates needed
for minimal-polynomial work.

Coefficients are stored least-significant first, so ``coeffs[i]`` is the
coefficient of ``x**i``.  All arithmetic is exact (Python ints);
nothing here ever rounds.
"""

from __future__ import annotations

import json
import math
import re

from .errors import InvalidPolynomialError, PolynomialSyntaxError
from .record import Record

_TERM_RE = re.compile(r"([+-]?)(\d*)([A-Za-z]?)(?:\^(\d+))?$")


class IntPolynomial(Record):
    """An integer polynomial, normalized so the leading coefficient is
    nonzero.  The zero polynomial has ``coeffs == ()``.

    >>> p = IntPolynomial((-1, -1, 1))
    >>> p.degree, p(2)
    (2, 1)
    >>> str(p)
    'x^2 - x - 1'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        cs = tuple(int(c) for c in coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    # -- basic accessors ------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> int:
        if self.is_zero:
            return 0
        return self.coeffs[-1]

    @property
    def constant_term(self) -> int:
        if self.is_zero:
            return 0
        return self.coeffs[0]

    @property
    def is_monic(self) -> bool:
        return self.leading_coefficient == 1

    def height(self) -> int:
        """Largest absolute value among the coefficients."""
        return max((abs(c) for c in self.coeffs), default=0)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    @property
    def is_primitive(self) -> bool:
        return self.content() == 1

    # -- evaluation and calculus ----------------------------------------

    def __call__(self, x):
        """Exact Horner evaluation; works for int, Fraction, complex."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    # -- structural predicates -------------------------------------------

    def reciprocal(self) -> "IntPolynomial":
        """x^d * P(1/x): the coefficient sequence reversed."""
        return IntPolynomial(tuple(reversed(self.coeffs)))

    def is_self_reciprocal(self) -> bool:
        """True when x^d P(1/x) = +-P(x).

        For an irreducible real polynomial this is necessary for having
        any root on the unit circle.
        """
        rev = tuple(reversed(self.coeffs))
        return rev == self.coeffs or rev == tuple(-c for c in self.coeffs)

    def is_squarefree(self) -> bool:
        if self.degree < 1:
            return False
        return _gcd_degree_over_q(list(self.coeffs), list(self.derivative().coeffs)) == 0

    def to_list(self) -> list[int]:
        return list(self.coeffs)

    # -- display ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)


def parse_polynomial(text) -> IntPolynomial:
    """Parse a one-variable integer polynomial.

    Accepts either term syntax ("x^2 - x - 1", "2x^2-3x+2", "-x + 3",
    optional '*' between coefficient and variable) or a JSON coefficient
    list, least-significant first ("[ -1, -1, 1 ]").  Lists and tuples
    are taken as coefficient sequences directly.

    >>> parse_polynomial("x^2-x-1").coeffs
    (-1, -1, 1)
    >>> parse_polynomial("2x^2 - 3x + 2").coeffs
    (2, -3, 2)
    >>> parse_polynomial("[-2, 1]").coeffs
    (-2, 1)
    """
    if isinstance(text, (list, tuple)):
        return IntPolynomial(tuple(int(c) for c in text))
    if not isinstance(text, str):
        raise PolynomialSyntaxError(f"cannot parse polynomial from {type(text).__name__}")
    src = text.strip().replace("−", "-")
    if not src:
        raise PolynomialSyntaxError("empty polynomial text")
    if src[0] == "[":
        try:
            data = json.loads(src)
        except json.JSONDecodeError as exc:
            raise PolynomialSyntaxError(f"bad coefficient list: {exc}") from exc
        if not isinstance(data, list) or not all(isinstance(c, int) for c in data):
            raise PolynomialSyntaxError("coefficient list must contain integers only")
        return IntPolynomial(tuple(data))

    compact = src.replace(" ", "").replace("*", "")
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    if not pieces or "".join(pieces) != compact:
        raise PolynomialSyntaxError(f"cannot tokenize {text!r}")
    coeff_map: dict[int, int] = {}
    var_seen: str | None = None
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if m is None:
            raise PolynomialSyntaxError(f"bad term {piece!r} in {text!r}")
        sign_s, digits, var, exp_s = m.groups()
        if not digits and not var:
            raise PolynomialSyntaxError(f"bad term {piece!r} in {text!r}")
        if exp_s is not None and not var:
            raise PolynomialSyntaxError(f"exponent without variable in {piece!r}")
        coeff = int(digits) if digits else 1
        if sign_s == "-":
            coeff = -coeff
        if var:
            if var_seen is None:
                var_seen = var
            elif var != var_seen:
                raise PolynomialSyntaxError(f"mixed variables {var_seen!r} and {var!r}")
            power = int(exp_s) if exp_s is not None else 1
        else:
            power = 0
        coeff_map[power] = coeff_map.get(power, 0) + coeff
    size = max(coeff_map) + 1
    coeffs = [0] * size
    for power, coeff in coeff_map.items():
        coeffs[power] = coeff
    return IntPolynomial(tuple(coeffs))


def require_min_poly_shape(poly: IntPolynomial) -> None:
    """Raise unless poly is nonconstant, primitive, squarefree, with a
    nonzero constant term."""
    if poly.degree < 1:
        raise InvalidPolynomialError(f"degree must be >= 1, got {poly!s}")
    if poly.constant_term == 0:
        raise InvalidPolynomialError("constant term is zero (alpha = 0 is not a base)")
    if not poly.is_primitive:
        raise InvalidPolynomialError(
            f"coefficients share a factor {poly.content()}; divide it out first"
        )
    if not poly.is_squarefree():
        raise InvalidPolynomialError("polynomial is not squarefree")


# -- exact helper arithmetic on raw coefficient lists ---------------------


def _pseudo_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """q, r with |lc b|^n a = q b + r and deg r < deg b, for some n >= 0:
    the quotient and remainder over Q, each scaled by a positive factor.
    Inputs have no trailing zeros; so do the outputs."""
    r = list(a)
    db, scale, sign = len(b) - 1, abs(b[-1]), 1 if b[-1] > 0 else -1
    q = [0] * max(len(r) - db, 0)
    while len(r) - 1 >= db:
        c, k = sign * r[-1], len(r) - 1 - db
        q = [scale * x for x in q]
        q[k] += c
        r = [scale * x for x in r]
        for j, y in enumerate(b):
            r[k + j] -= c * y
        while r and not r[-1]:
            r.pop()
    while q and not q[-1]:
        q.pop()
    return q, r


def _gcd_degree_over_q(a: list[int], b: list[int]) -> int:
    """Degree of gcd(a, b) over Q, by a primitive remainder sequence in
    Z[x]; inputs have no trailing zeros.  Returns -1 when both are zero."""
    while b:
        r = _pseudo_divmod(a, b)[1]
        g = math.gcd(*r)
        a, b = b, [c // g for c in r]
    return len(a) - 1


def divides_over_q(divisor: IntPolynomial, multiple: IntPolynomial) -> bool:
    """Exact divisibility test over Q (content is ignored)."""
    if divisor.is_zero:
        return multiple.is_zero
    return not _pseudo_divmod(list(multiple.coeffs), list(divisor.coeffs))[1]


# Largest end coefficient for which rational roots are found by divisors.
_ROOT_TEST_MAX = 10**8


def _divisors(n: int) -> list[int]:
    small = [k for k in range(1, math.isqrt(abs(n)) + 1) if n % k == 0]
    return small + [abs(n) // k for k in small]


def is_irreducible_z(poly: IntPolynomial) -> bool:
    """Irreducibility over Q.  Degree 2 and 3 factor exactly when they
    have a rational root p/q (p | constant term, q | leading
    coefficient); other degrees use exact modular factorization with
    Hensel lifting (``factoring``), imported locally so that low degrees
    skip compiling it."""
    cs, d = poly.coeffs, poly.degree
    if d in (2, 3) and max(abs(cs[0]), abs(cs[-1])) <= _ROOT_TEST_MAX:
        qs = _divisors(cs[-1])
        return cs[0] != 0 and not any(
            sum(c * (s * p) ** i * q ** (d - i) for i, c in enumerate(cs)) == 0
            for p in _divisors(cs[0]) for q in qs for s in (1, -1))
    if not poly.is_squarefree():
        return False
    from .factoring import is_irreducible

    return is_irreducible(cs)


def count_real_roots_between(poly: IntPolynomial, lo: int, hi: int) -> int:
    """Exact count of distinct real roots of poly in [lo, hi], endpoints
    included (Sturm)."""
    from .factoring import count_real_roots

    return count_real_roots(poly.coeffs, lo, hi)


def palindromic_half(poly: IntPolynomial) -> IntPolynomial:
    """For a palindromic polynomial M of even degree 2m with M(+-1) != 0,
    return the degree-m integer polynomial Q with M(x) = x^m * Q(x + 1/x).

    Roots of M on the unit circle correspond exactly to roots of Q in the
    real interval (-2, 2), two apiece.
    """
    cs = poly.coeffs
    d = poly.degree
    if d % 2 != 0 or cs != tuple(reversed(cs)):
        raise ValueError("polynomial is not palindromic of even degree")
    m = d // 2
    # T_i(y) = x^i + x^(-i) as a polynomial in y = x + 1/x.
    t_prev = [2]
    t_cur = [0, 1]
    q = [0] * (m + 1)
    q[0] += cs[m]
    for i in range(1, m + 1):
        for j, c in enumerate(t_cur):
            q[j] += cs[m + i] * c
        if i < m:
            t_next = [0] + t_cur
            for j, c in enumerate(t_prev):
                t_next[j] -= c
            t_prev, t_cur = t_cur, t_next
    return IntPolynomial(tuple(q))
