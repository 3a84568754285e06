"""Integer polynomials in one variable, with the exact predicates needed
for minimal-polynomial work.

Coefficients are stored least-significant first, so ``coeffs[i]`` is the
coefficient of ``x**i``.  All arithmetic is exact (Python ints);
nothing here ever rounds.
"""

import json
import math
import re
import sys

from . import factoring
from .errors import (MAX_DEGREE, InvalidPolynomialError, PolynomialSyntaxError,
                     ResourceCapError, read_decimal, read_int, write_text)
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
        cs = tuple(read_int(c, "coefficient", PolynomialSyntaxError)
                   for c in coeffs)
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

    def is_squarefree(self) -> bool:
        return (self.degree > 0
                and _remainders(self, self.derivative())[-1].degree == 0)

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
    are coefficient sequences; an IntPolynomial is returned as it is.

    >>> parse_polynomial("x^2-x-1").coeffs
    (-1, -1, 1)
    >>> parse_polynomial("2x^2 - 3x + 2").coeffs
    (2, -3, 2)
    >>> parse_polynomial("[-2, 1]").coeffs
    (-2, 1)
    """
    if isinstance(text, IntPolynomial):
        return text
    if isinstance(text, (list, tuple)):
        return _from_terms(dict(enumerate(IntPolynomial(text).coeffs)))
    if not isinstance(text, str):
        raise PolynomialSyntaxError(f"cannot parse polynomial from {type(text).__name__}")
    src = text.strip().replace("−", "-")
    if not src:
        raise PolynomialSyntaxError("empty polynomial text")
    if src[0] == "[":
        try:
            data = json.loads(src, parse_int=_coefficient)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise PolynomialSyntaxError(f"bad coefficient list: {exc}") from exc
        # type(), not isinstance: a bool is no coefficient.
        if not isinstance(data, list) or not all(type(c) is int for c in data):
            raise PolynomialSyntaxError("coefficient list must contain integers only")
        return _from_terms(dict(enumerate(data)))

    compact = src.replace(" ", "").replace("*", "")
    pieces = re.findall(r"[+-]?[^+-]+", compact)
    if not pieces or "".join(pieces) != compact:
        raise PolynomialSyntaxError(f"cannot tokenize {write_text(text)}")
    coeff_map: dict[int, int] = {}
    var_seen: str | None = None
    for piece in pieces:
        m = _TERM_RE.match(piece)
        if m is None or not (m[2] or m[3]):  # neither digits nor a variable
            raise PolynomialSyntaxError(
                f"bad term {write_text(piece)} in {write_text(text)}")
        sign_s, digits, var, exp_s = m.groups()
        if exp_s is not None and not var:
            raise PolynomialSyntaxError(
                f"exponent without variable in {write_text(piece)}")
        coeff = _coefficient(digits) if digits else 1
        if sign_s == "-":
            coeff = -coeff
        if var:
            if var_seen is None:
                var_seen = var
            elif var != var_seen:
                raise PolynomialSyntaxError(f"mixed variables {var_seen!r} and {var!r}")
            power = _exponent(exp_s) if exp_s is not None else 1
        else:
            power = 0
        coeff_map[power] = coeff_map.get(power, 0) + coeff
    return _from_terms(coeff_map)


def _coefficient(text: str) -> int:
    return read_decimal(text, "a coefficient")


def _exponent(text: str) -> int:
    """int(text), or the degree cap's ResourceCapError, before int()
    runs, when its significant digits are past Python's int-to-str
    limit; the message names their count, as the degree cannot print."""
    text = text.lstrip("0") or "0"
    if len(text) > sys.get_int_max_str_digits() > 0:
        raise ResourceCapError(f"the polynomial has a degree of {len(text)} "
                               f"decimal digits, more than the cap of "
                               f"{MAX_DEGREE}")
    return int(text)


def _from_terms(terms: dict) -> IntPolynomial:
    """The sum of coeff x^power over terms {power: coeff}, or
    ResourceCapError, before the coefficient list is built, when its
    degree exceeds MAX_DEGREE."""
    degree = max((power for power, coeff in terms.items() if coeff), default=0)
    if degree > MAX_DEGREE:
        raise ResourceCapError(f"the polynomial has degree {degree}, more "
                               f"than the cap of {MAX_DEGREE}")
    coeffs = [0] * (degree + 1)
    for power, coeff in terms.items():
        if coeff:
            coeffs[power] = coeff
    return IntPolynomial(coeffs)


def require_min_poly_shape(poly: IntPolynomial) -> None:
    """Raise unless poly is nonconstant, primitive, squarefree, with a
    nonzero constant term."""
    if poly.degree < 1:
        raise InvalidPolynomialError(
            f"degree must be >= 1, got the constant {poly!s}")
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
    return q, r


def _remainders(f: IntPolynomial, g: IntPolynomial) -> list[IntPolynomial]:
    """f, g and then each negated pseudo-remainder divided by its
    content, for nonzero g of degree at most that of f.  A positive scale
    keeps every sign, so this is the signed remainder sequence: its last
    entry is gcd(f, g) over Q, up to a constant, and its sign variations
    count the Cauchy index of g/f (Sturm's, for g = f')."""
    seq = [f, g]
    while seq[-1].degree > 0:
        r = _pseudo_divmod(list(seq[-2].coeffs), list(seq[-1].coeffs))[1]
        if not r:
            break
        content = math.gcd(*r)
        seq.append(IntPolynomial(-c // content for c in r))
    return seq


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


def is_irreducible_z(poly: IntPolynomial) -> bool | None:
    """Irreducibility over Q, at any degree.  Degree 2 and 3 factor
    exactly when they have a rational root p/q (p | constant term,
    q | leading coefficient); other degrees use exact modular
    factorization with Hensel lifting (``factoring``), a lazily loaded
    module that low degrees never compile.  None when the recombination
    budget of ``factoring`` runs out before a verdict."""
    cs, d = poly.coeffs, poly.degree
    if d in (2, 3) and max(abs(cs[0]), abs(cs[-1])) <= _ROOT_TEST_MAX:
        qs = _divisors(cs[-1])
        return cs[0] != 0 and not any(
            sum(c * (s * p) ** i * q ** (d - i) for i, c in enumerate(cs)) == 0
            for p in _divisors(cs[0]) for q in qs for s in (1, -1))
    if not poly.is_squarefree():
        return False
    return factoring.is_irreducible(cs)


def count_real_roots_between(poly: IntPolynomial, lo: int, hi: int) -> int:
    """Exact count of distinct real roots of poly in [lo, hi], endpoints
    included (Sturm).  With repeated roots the sequence is that of the
    squarefree part, poly over gcd(poly, poly')."""
    if poly.degree < 1:
        return 0
    seq = _remainders(poly, poly.derivative())
    if seq[-1].degree > 0:
        part = IntPolynomial(
            _pseudo_divmod(list(poly.coeffs), list(seq[-1].coeffs))[0])
        seq = _remainders(part, part.derivative())

    def variations(x):
        signs = [v > 0 for v in (s(x) for s in seq) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return abs(variations(lo) - variations(hi)) + (poly(lo) == 0)


def circle_counts(poly: IntPolynomial, r=1) -> tuple[int, int, int]:
    """(inside, on, outside): the numbers of roots of the squarefree
    poly with modulus below, equal to and above r > 0, an int or a
    Fraction.

    The Cayley map z = r(1 + w)/(1 - w) sends |z| < r to Re w < 0, and
    q(w) = (1 - w)^d poly(z), scaled to integers, loses one degree when
    poly(-r) = 0, a root on the circle.  With q(iy) = P(y) + i Q(y), the
    argument principle counts left minus right half-plane roots of q as
    a Cauchy index (Routh-Hurwitz), read from the signed remainder
    sequence of P and Q.  Its last entry, gcd(P, Q), holds the roots of
    q on the axis as its real roots; its other roots come in pairs w and
    -conj(w), one on each side.

    >>> circle_counts(parse_polynomial("x^2 + x + 4"), 2)
    (0, 2, 0)
    """
    p, s = r.numerator, r.denominator
    q, shift = [poly.coeffs[-1]], [1]
    for c in reversed(poly.coeffs[:-1]):  # homogeneous Horner
        shift = [s * (a - b) for a, b in zip(shift + [0], [0] + shift)]
        q = [p * (a + b) + c * t for a, b, t in zip(q + [0], [0] + q, shift)]
    q = IntPolynomial(q)
    # i^k is (-1)^(k // 2), times i for odd k.
    P, Q = (IntPolynomial(c * (-1) ** (k // 2) if k % 2 == odd else 0
                          for k, c in enumerate(q.coeffs)) for odd in (0, 1))
    f, g = (P, Q) if P.degree >= Q.degree else (Q, P)
    seq = _remainders(f, g) if g.coeffs else [f]

    def variations(sign):  # at sign * infinity
        signs = [e.leading_coefficient * sign ** e.degree > 0 for e in seq]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    index = variations(-1) - variations(1)  # Ind(g/f)
    left_minus_right = -index if f is P else index
    bound = seq[-1].height() + 1  # Cauchy's bound on the real roots
    on_axis = count_real_roots_between(seq[-1], -bound, bound)
    off_axis = q.degree - on_axis
    return ((off_axis + left_minus_right) // 2,
            on_axis + poly.degree - q.degree,
            (off_axis - left_minus_right) // 2)
