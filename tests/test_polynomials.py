import random
import re
import time
from fractions import Fraction

import numpy
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from algdigits import make_base
from algdigits.errors import (MAX_DEGREE, InvalidPolynomialError,
                             PolynomialSyntaxError, ResourceCapError)
from algdigits.polynomials import (IntPolynomial, count_real_roots_between,
                                   divides_over_q, is_irreducible_z,
                                   palindromic_half, parse_polynomial,
                                   require_min_poly_shape)

from oracles import multiquadratic_poly


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

    @pytest.mark.parametrize("entry", [1.9, Fraction(5, 2), True, "3"])
    def test_sequence_entries_are_integers(self, entry):
        # int() would truncate or coerce each of these into a coefficient.
        message = f"coefficient {re.escape(repr(entry))} is not an integer"
        for coeffs in ([entry, 1], (1, entry)):
            with pytest.raises(PolynomialSyntaxError, match=message):
                make_base(coeffs)
        assert parse_polynomial([numpy.int64(-2), 1]).coeffs == (-2, 1)

    def test_polynomial_is_returned_as_is(self):
        p = IntPolynomial((2, 2, 1))
        assert parse_polynomial(p) is p

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
        with pytest.raises(PolynomialSyntaxError,
                           match=r"bad term '\+\^2' in 'x\+\^2'"):
            parse_polynomial("x+^2")
        with pytest.raises(PolynomialSyntaxError,
                           match="exponent without variable in '3\\^2'"):
            parse_polynomial("3^2")

    def test_degree_cap(self):
        top = "x^%d - 2" % MAX_DEGREE
        assert parse_polynomial(top).degree == MAX_DEGREE
        assert parse_polynomial([1] * (MAX_DEGREE + 1)).degree == MAX_DEGREE
        # Cancelled and zero top terms do not count.
        assert parse_polynomial("x^300 - x^300 + x - 2").coeffs == (-2, 1)
        assert parse_polynomial([-2, 1] + [0] * 300).coeffs == (-2, 1)
        for text in ("x^257 - 2", "x^99999999999999999999 - 2",
                     "[1" + ",0" * 256 + ",1]", [1] + [0] * 256 + [1]):
            with pytest.raises(ResourceCapError,
                               match=r"the polynomial has degree \d+, more "
                                     r"than the cap of 256"):
                parse_polynomial(text)

    def test_integers_past_the_int_to_str_limit(self):
        nines = "9" * 5000
        assert parse_polynomial("x^0002 - 2").degree == 2
        with pytest.raises(ResourceCapError,
                           match="the polynomial has a degree of 5000 "
                                 "decimal digits, more than the cap of 256"):
            parse_polynomial(f"x^{nines} - 2")
        for text in (f"{nines}x - 2", f"[-2, {nines}]", f"[-{nines}, 1]"):
            with pytest.raises(ResourceCapError,
                               match="a coefficient of 5000 decimal digits "
                                     "exceeds the limit of 4300"):
                parse_polynomial(text)

    def test_str_round_trip(self):
        for text in ["x^2 - x - 1", "2x^2 - 3x + 2", "x + 2", "x^3 + x^2 + x + 2"]:
            p = parse_polynomial(text)
            assert parse_polynomial(str(p)) == p


class TestBasics:
    def test_normalization_strips_leading_zeros(self):
        assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
        zero = IntPolynomial(())
        assert zero.is_zero and str(zero) == "0"
        assert zero.leading_coefficient == zero.constant_term == 0
        assert not zero.is_squarefree()

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
        # make_base compares the reversed coefficients itself: only a
        # self-reciprocal polynomial gets a Sturm count of unit roots.
        assert make_base("x^2+1").n_unit == 2
        assert make_base("x^2+3x+1").n_unit == 0
        assert make_base("x^2+x+2").n_unit == 0
        # Anti-palindromic: x^3 P(1/x) = -P(x), so P(1) = 0 and the
        # factoring test refuses it before any reciprocal comparison.
        with pytest.raises(InvalidPolynomialError, match="factors over Z"):
            make_base("x^3-2x^2+2x-1")

    def test_squarefree(self):
        assert IntPolynomial((-2, 0, 1)).is_squarefree()
        assert not IntPolynomial((1, 2, 1)).is_squarefree()

    def test_divides(self):
        assert divides_over_q(IntPolynomial((-1, 1)), IntPolynomial((1, -2, 1)))
        assert not divides_over_q(IntPolynomial((1, 1)), IntPolynomial((-2, 1)))
        # 0 divides only 0
        assert divides_over_q(IntPolynomial(()), IntPolynomial(()))
        assert not divides_over_q(IntPolynomial(()), IntPolynomial((1,)))

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
        assert not is_irreducible_z(IntPolynomial((0, 1, 0, 0, 1)))  # x | f

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
            content = rng.choice([2, 3, 10])
            cases.append([c * content for c in h])
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

    def test_largest_cyclotomics_up_to_degree_24(self):
        # Recombination is exponential in the number of factors modulo
        # p; these split into the most factors modulo every prime among
        # polynomials of degree <= 24.
        for n in (72, 84, 90):
            start = time.perf_counter()
            base = make_base(_cyclotomic(n))
            assert base.irreducibility == "verified"
            assert time.perf_counter() - start < 1.0, n


class TestHighDegree:
    """Degree 25 and up, where recombination runs under its budget."""

    def test_cyclotomic_degree_25_to_48(self):
        # Every other Phi_n of degree 25-48.
        for n in [n for n, d in _TOTIENT.items() if 25 <= d <= 48][::2]:
            assert is_irreducible_z(IntPolynomial(_cyclotomic(n))), n

    def test_cyclotomic_products_of_degree_25_to_48(self):
        # Phi_a Phi_b, where Phi_a has degree 13 or more.
        rng = random.Random(29)
        large = [n for n, d in _TOTIENT.items() if 13 <= d <= 40]
        for _ in range(8):
            a = rng.choice(large)
            b = rng.choice([n for n, d in _TOTIENT.items()
                            if 25 <= _TOTIENT[a] + d <= 48])
            cs = _mul(_cyclotomic(a), _cyclotomic(b))
            assert _sympy_irreducible(cs) is False
            assert is_irreducible_z(IntPolynomial(cs)) is False, (a, b)

    def test_random_degree_25_to_48(self):
        rng = random.Random(25)
        for _ in range(8):
            d = rng.randint(25, 48)
            cs = ([rng.randint(-30, 30) or 1]
                  + [rng.randint(-30, 30) for _ in range(d - 1)]
                  + [rng.choice([1, -1, 2, 6])])
            assert is_irreducible_z(IntPolynomial(cs)) == _sympy_irreducible(cs)

    def test_products_with_a_factor_of_degree_13_or_more(self):
        rng = random.Random(13)
        for _ in range(8):
            d = rng.randint(25, 48)
            a = rng.randint(13, d - 1)
            f = [rng.randint(1, 9)] + [rng.randint(-9, 9)
                                       for _ in range(a - 1)] + [1]
            g = [rng.randint(1, 9)] + [rng.randint(-9, 9)
                                       for _ in range(d - a - 1)] + [1]
            cs = _mul(f, g)
            assert _sympy_irreducible(cs) is False
            assert is_irreducible_z(IntPolynomial(cs)) is False, cs

    def test_swinnerton_dyer_of_five_primes_is_verified(self):
        # Degree 32, with 16 factors or more modulo every prime:
        # recombination tries 39,202 subsets.
        poly = multiquadratic_poly([2, 3, 5, 7, 11])
        assert make_base(poly).irreducibility == "verified"

    def test_swinnerton_dyer_of_six_primes_exhausts_the_budget(self):
        # Degree 64, with 32 factors or more modulo every prime: the
        # verdict is undecided, and the budget bounds the time it takes.
        poly = IntPolynomial(tuple(multiquadratic_poly([2, 3, 5, 7, 11, 13])))
        start = time.perf_counter()
        assert is_irreducible_z(poly) is None
        assert time.perf_counter() - start < 1.5


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


_TOTIENT = {n: int(sympy.totient(n)) for n in range(2, 250)}


def _cyclotomic(n: int) -> list[int]:
    x = sympy.Symbol("x")
    return [int(c) for c in
            reversed(sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())]
