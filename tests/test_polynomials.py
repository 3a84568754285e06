import random

import pytest
import sympy

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

    @staticmethod
    def _sympy_irreducible(coeffs) -> bool:
        x = sympy.Symbol("x")
        _, factors = sympy.Poly(list(reversed(coeffs)), x).factor_list()
        return (len(factors) == 1 and factors[0][1] == 1
                and factors[0][0].degree() == len(coeffs) - 1)

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
            cases.append(tuple(sum(f[i] * g[k - i] for i in range(len(f))
                                   if 0 <= k - i < len(g))
                               for k in range(d + 1)))
        reducible = 0
        for cs in cases:
            expected = self._sympy_irreducible(cs)
            reducible += not expected
            assert is_irreducible_z(IntPolynomial(cs)) == expected, cs
        assert 100 < reducible < 250

    def test_cubic_with_large_end_coefficients(self):
        # Past the divisor-listing bound the cubic goes to sympy.
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
