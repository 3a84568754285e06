import random
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from algdigits import make_base
from algdigits.errors import InvalidPolynomialError, PolynomialSyntaxError
from algdigits.polynomials import (IntPolynomial, count_real_roots_between,
                                   divides_over_q, is_irreducible_z,
                                   palindromic_half, parse_polynomial,
                                   require_min_poly_shape)


class TestParse:
    def test_term_syntax(self):
        assert parse_polynomial("x^2 - x - 1").coeffs == (-1, -1, 1)
        assert parse_polynomial("2x^2-3x+2").coeffs == (2, -3, 2)
        assert parse_polynomial("-x + 3").coeffs == (3, -1)
        assert parse_polynomial("x").coeffs == (0, 1)
        assert parse_polynomial("5").coeffs == (5,)
        assert parse_polynomial("2*x^3 + x").coeffs == (0, 1, 0, 2)

    def test_repeated_powers_accumulate(self):
        assert parse_polynomial("x + x").coeffs == (0, 2)

    def test_json_list(self):
        assert parse_polynomial("[-1, -1, 1]").coeffs == (-1, -1, 1)
        assert parse_polynomial([2, 2, 1]).coeffs == (2, 2, 1)
        assert parse_polynomial((0, 1)).coeffs == (0, 1)

    def test_unicode_minus(self):
        assert parse_polynomial("x^2 − 2").coeffs == (-2, 0, 1)

    def test_errors(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x + y")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^^2")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("[1, 2.5]")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(3.14)

    def test_str_round_trip(self):
        for text in ["x^2 - x - 1", "2x^2 - 3x + 2", "x + 2", "x^3 + x^2 + x + 2"]:
            p = parse_polynomial(text)
            assert parse_polynomial(str(p)) == p


class TestBasics:
    def test_normalization_strips_leading_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        assert IntPolynomial(()).is_zero

    def test_accessors(self):
        p = IntPolynomial((2, -3, 2))
        assert p.degree == 2
        assert p.leading_coefficient == 2
        assert p.constant_term == 2
        assert not p.is_monic
        assert p.height() == 3
        assert p.content() == 1 and p.is_primitive

    def test_eval_and_derivative(self):
        p = IntPolynomial((-1, -1, 1))
        assert p(2) == 1
        assert p.derivative().coeffs == (-1, 2)

    def test_reciprocal(self):
        p = IntPolynomial((2, 3, 1))
        assert p.reciprocal().coeffs == (1, 3, 2)
        assert IntPolynomial((1, 0, 1)).is_self_reciprocal()
        assert not p.is_self_reciprocal()

    def test_squarefree(self):
        assert IntPolynomial((-2, 0, 1)).is_squarefree()
        assert not IntPolynomial((1, 2, 1)).is_squarefree()

    def test_divides(self):
        assert divides_over_q(IntPolynomial((-1, 1)), IntPolynomial((1, -2, 1)))
        assert not divides_over_q(IntPolynomial((1, 1)), IntPolynomial((-2, 1)))

    def test_squarefree_and_divides_agree_with_sympy(self):
        # Integer pseudo-remainders with leading coefficients of either
        # sign and |lc| > 1; about a third of the products repeat a factor.
        rng = random.Random(5)
        x = sympy.Symbol("x")
        for _ in range(80):
            f = ([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))]
                 + [rng.choice([1, -1, 2, -3, 6])])
            g = ([rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
                 + [rng.choice([1, -2, 5])])
            h = _mul(_mul(f, g), f) if rng.random() < 0.35 else _mul(f, g)
            hx = sympy.Poly(list(reversed(h)), x).to_field()
            assert IntPolynomial(h).is_squarefree() == hx.is_sqf, h
            k = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))] + [2]
            for divisor in (f, g, k):
                rem = hx.rem(sympy.Poly(list(reversed(divisor)), x).to_field())
                assert (divides_over_q(IntPolynomial(divisor), IntPolynomial(h))
                        == rem.is_zero), (divisor, h)


class TestMinPolyShape:
    def test_rejections(self):
        with pytest.raises(InvalidPolynomialError):
            require_min_poly_shape(IntPolynomial((7,)))
        with pytest.raises(InvalidPolynomialError):
            require_min_poly_shape(IntPolynomial((0, 1)))  # alpha = 0
        with pytest.raises(InvalidPolynomialError):
            require_min_poly_shape(IntPolynomial((2, 4)))  # content 2
        with pytest.raises(InvalidPolynomialError):
            require_min_poly_shape(IntPolynomial((1, 2, 1)))  # (x+1)^2

    def test_accepts(self):
        require_min_poly_shape(IntPolynomial((-2, 1)))
        require_min_poly_shape(IntPolynomial((2, -3, 2)))


class TestExactPredicates:
    def test_irreducibility(self):
        assert is_irreducible_z(IntPolynomial((-2, 1)))
        assert is_irreducible_z(IntPolynomial((2, 2, 1)))
        assert not is_irreducible_z(IntPolynomial((-1, 0, 1)))
        assert not is_irreducible_z(IntPolynomial((2, 3, 1)))

    def test_low_degree_agrees_with_factorization(self):
        # Random quadratics and cubics, plus products of random factors
        # so that about half are reducible (repeated factors included).
        rng = random.Random(7)
        cases = []
        for _ in range(150):
            d = rng.choice([2, 3])
            cs = [rng.randint(-30, 30) for _ in range(d)]
            cases.append(tuple(cs + [rng.choice([1, -1, 2, 3, -6, 12])]))
            f = [rng.randint(-9, 9), rng.choice([1, -1, 2, 5])]
            g = [rng.randint(-9, 9) for _ in range(d - 1)] + [rng.randint(1, 4)]
            cases.append(_mul(f, g))
        reducible = 0
        for cs in cases:
            expected = _sympy_irreducible(cs)
            reducible += not expected
            assert is_irreducible_z(IntPolynomial(cs)) == expected, cs
        assert 100 < reducible < 250

    def test_cubic_with_large_end_coefficients(self):
        # Past the divisor-listing bound the cubic is factored modulo
        # primes, like every higher degree.
        big = 2**61 - 1
        assert is_irreducible_z(IntPolynomial((big, 0, 0, 1)))
        assert not is_irreducible_z(IntPolynomial((-big**3, 0, 0, 1)))

    def test_real_root_count(self):
        assert count_real_roots_between(IntPolynomial((-2, 0, 1)), -2, 2) == 2
        assert count_real_roots_between(IntPolynomial((2, 0, 1)), -2, 2) == 0

    def test_palindromic_half(self):
        # x^4 + 1 = x^2 Q(x + 1/x) with Q(y) = y^2 - 2; both roots of Q
        # in (-2, 2), so all four roots lie on the unit circle.
        half = palindromic_half(IntPolynomial((1, 0, 0, 0, 1)))
        assert half.coeffs == (-2, 0, 1)
        assert count_real_roots_between(half, -2, 2) == 2
        # 2x^2 - 3x + 2: Q(y) = 2y - 3, root 3/2 in (-2, 2)
        half2 = palindromic_half(IntPolynomial((2, -3, 2)))
        assert half2.coeffs == (-3, 2)
        with pytest.raises(ValueError):
            palindromic_half(IntPolynomial((1, 2, 3)))


class TestModularFactorization:
    """is_irreducible_z past the rational root test, against sympy's
    factor_list."""

    def test_random_and_products(self):
        # Degree 4-16, about half reducible; some with content > 1 and
        # some with a repeated factor.
        rng = random.Random(11)
        reducible = 0
        for _ in range(60):
            d = rng.randint(4, 16)
            cases = [[rng.randint(-40, 40) for _ in range(d)]
                     + [rng.choice([1, -1, 2, 6])]]
            a = rng.randint(1, d - 1)
            f = [rng.randint(-9, 9) for _ in range(a)] + [rng.choice([1, -2])]
            g = ([rng.randint(-9, 9) for _ in range(d - a)]
                 + [rng.choice([1, 3])])
            h = _mul(f, g)
            cases.append(h)
            cases.append([c * rng.choice([2, 3, 10]) for c in h])
            cases.append(_mul(h, f))
            for cs in cases:
                if cs[0] == 0:
                    cs[0] = 1
                expected = _sympy_irreducible(cs)
                reducible += not expected
                assert is_irreducible_z(IntPolynomial(cs)) == expected, cs
        assert 100 < reducible < 240

    def test_cyclotomic_and_products(self):
        # Phi_n is irreducible; products of two of them up to degree 32.
        phis = [_cyclotomic(n) for n in range(1, 60)]
        for n, phi in enumerate(phis, 1):
            assert is_irreducible_z(IntPolynomial(phi)), n
        for i, phi in enumerate(phis):
            for other in phis[i + 1:i + 4]:
                if len(phi) + len(other) <= 34:
                    product = IntPolynomial(_mul(phi, other))
                    assert not is_irreducible_z(product), product

    @pytest.mark.parametrize("coeffs, irreducible", [
        ((1, 0, 0, 0, 1), True),            # x^4 + 1
        ((4, 0, 0, 0, 1), False),           # (x^2 + 2x + 2)(x^2 - 2x + 2)
        ((1, 0, -10, 0, 1), True),          # sqrt(2) + sqrt(3)
        # sqrt(2) + sqrt(3) + sqrt(5) (Swinnerton-Dyer)
        ((576, 0, -960, 0, 352, 0, -40, 0, 1), True),
        # (x^4 + 1)(x^4 - 10x^2 + 1)
        ((1, 0, -10, 0, 2, 0, -10, 0, 1), False),
    ])
    def test_split_modulo_every_prime(self, coeffs, irreducible):
        # Each of these has only factors of degree <= 2 modulo every
        # prime, so the degree sieve cannot decide them: the verdict
        # comes from Hensel lifting and recombination.
        assert _sympy_irreducible(coeffs) == irreducible
        assert is_irreducible_z(IntPolynomial(coeffs)) == irreducible

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(f=st.lists(st.integers(-20, 20), min_size=2, max_size=8),
           g=st.lists(st.integers(-20, 20), min_size=1, max_size=8),
           content=st.sampled_from([1, 1, 2, 15]))
    def test_agrees_with_factor_list(self, f, g, content):
        cs = [content * c for c in _mul(f + [1], g + [1])]
        if cs[0] == 0:
            cs[0] = content
        assert is_irreducible_z(IntPolynomial(cs)) == _sympy_irreducible(cs)

    def test_largest_cyclotomics_under_the_degree_limit(self):
        # Recombination is exponential in the number of factors modulo
        # p; these split into the most factors modulo every prime among
        # polynomials of degree <= 24.
        for n in (72, 84, 90):
            start = time.perf_counter()
            base = make_base(_cyclotomic(n))
            assert base.irreducibility == "verified"
            assert time.perf_counter() - start < 1.0, n


class TestSturm:
    def test_agrees_with_count_roots(self):
        rng = random.Random(3)
        x = sympy.Symbol("x")
        for _ in range(150):
            lo = rng.randint(-4, 1)
            hi = lo + rng.randint(0, 5)
            # Roots at lo and at hi, some repeated, times a random factor.
            cs = _mul([-lo, 1], [-hi, 1])
            if rng.random() < 0.3:
                cs = _mul(cs, [-hi, 1])
            cs = _mul(cs, [rng.randint(-9, 9)
                           for _ in range(rng.randint(1, 8))] + [1])
            for a, b in ((lo, hi), (lo - 1, hi), (lo + 1, hi + 2)):
                expected = sympy.Poly(list(reversed(cs)), x).count_roots(a, b)
                got = count_real_roots_between(IntPolynomial(cs), a, b)
                assert got == expected, (cs, a, b)

    def test_endpoint_roots(self):
        # (x + 2)(x - 2)(x^2 - 2)^2: four distinct roots, two at the ends.
        cs = _mul(_mul([-2, 1], [2, 1]), _mul([-2, 0, 1], [-2, 0, 1]))
        poly = IntPolynomial(cs)
        assert count_real_roots_between(poly, -2, 2) == 4
        assert count_real_roots_between(poly, -1, 2) == 2
        assert count_real_roots_between(poly, -2, 1) == 2
        assert count_real_roots_between(poly, 2, 2) == 1
        assert count_real_roots_between(IntPolynomial((7,)), -2, 2) == 0


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _sympy_irreducible(coeffs) -> bool:
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(coeffs)), x).factor_list()
    return (len(factors) == 1 and factors[0][1] == 1
            and factors[0][0].degree() == len(coeffs) - 1)


def _cyclotomic(n: int) -> list[int]:
    x = sympy.Symbol("x")
    return [int(c) for c in
            reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())]
