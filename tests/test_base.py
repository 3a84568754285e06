import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algdigits.base
from algdigits import (Classification, InvalidPolynomialError, PrecisionError,
                       UnsupportedBaseError, card_bounds, make_base)
from algdigits.intervals import Box

from oracles import FractionBox, multiquadratic_poly


class TestClassification:
    def test_base_is_returned_as_is(self):
        base = make_base("x^2 + 2x + 2")
        assert make_base(base) is base

    def test_golden_ratio_like_is_mixed(self):
        base = make_base("x^2 - x - 1")
        assert base.classification is Classification.MIXED
        assert not base.supports_height_reduction
        assert base.n_expanding == 1 and base.n_contracting == 1

    def test_salem_like_unimodular(self):
        base = make_base("2x^2 - 3x + 2")
        assert base.classification is Classification.UNIMODULAR
        assert base.supports_height_reduction
        assert base.n_unit == 2
        lo, hi = base.conjugate_moduli()[0]
        assert lo == hi == 1

    def test_gaussian_style_expanding_integer(self):
        base = make_base("x^2 + 2x + 2")
        assert base.classification is Classification.EXPANDING_INTEGER
        assert base.n_expanding == 2
        with pytest.raises(UnsupportedBaseError, match="irrational"):
            base.alpha_fraction

    def test_integer_two(self):
        base = make_base("x - 2")
        assert base.classification is Classification.EXPANDING_INTEGER
        assert base.rational_view == (2, 1)
        assert base.alpha_fraction == 2

    def test_negative_two(self):
        base = make_base("x + 2")
        assert base.rational_view == (2, -1)
        assert base.alpha_fraction == -2

    def test_rational_three_halves(self):
        base = make_base([-3, 2])
        assert base.classification is Classification.RATIONAL
        assert base.rational_view == (3, 2)

    def test_rational_negative(self):
        base = make_base([3, 2])  # 2x + 3, alpha = -3/2
        assert base.rational_view == (3, -2)
        assert base.alpha_fraction == Fraction(-3, 2)

    def test_roots_of_unity(self):
        assert make_base("x + 1").classification is Classification.ROOT_OF_UNITY
        assert make_base("x^2 + x + 1").classification is Classification.ROOT_OF_UNITY
        assert make_base("x^2 + 1").classification is Classification.ROOT_OF_UNITY

    def test_non_monic_expanding(self):
        base = make_base("2x^2 - 4x + 3")  # both moduli sqrt(3/2)
        assert base.classification is Classification.EXPANDING_NON_INTEGER
        assert base.supports_height_reduction

    def test_inverse_rational_is_mixed(self):
        base = make_base([-2, 3])  # alpha = 2/3
        assert base.classification is Classification.MIXED


class TestRejections:
    def test_reducible(self):
        with pytest.raises(InvalidPolynomialError):
            make_base("x^2 - 1")
        with pytest.raises(InvalidPolynomialError):
            make_base("x^2 + 3x + 2")

    def test_content(self):
        with pytest.raises(InvalidPolynomialError):
            make_base([4, 2])

    def test_zero_root(self):
        with pytest.raises(InvalidPolynomialError):
            make_base("x^2 + x")

    def test_recombination_budget_falls_back_to_assumed(self):
        # sqrt(2) + sqrt(3) + sqrt(5) + sqrt(-7) + sqrt(-11) + sqrt(-13)
        # has degree 64 and splits into at least 32 factors modulo every
        # prime, so recombination runs out of its budget before proving
        # it irreducible.
        poly = multiquadratic_poly([2, 3, 5, -7, -11, -13])
        assert make_base(poly).irreducibility == "assumed"

    def test_degree_25_is_verified(self):
        coeffs = [0] * 26
        coeffs[0] = -2
        coeffs[25] = 1  # x^25 - 2, irreducible by Eisenstein
        assert make_base(coeffs).irreducibility == "verified"

    def test_verified_tag(self):
        assert make_base("x - 2").irreducibility == "verified"
        assert make_base("x^2 + 2x + 2").irreducibility == "verified"


class TestCardBounds:
    def test_base_two_window(self):
        cb = card_bounds(make_base("x - 2"))
        assert (cb.lower, cb.upper) == (2, 3)

    def test_unimodular_no_upper(self):
        cb = card_bounds(make_base("2x^2 - 3x + 2"))
        assert (cb.lower, cb.upper) == (2, None)

    def test_rational_no_upper(self):
        cb = card_bounds(make_base([-3, 2]))
        assert (cb.lower, cb.upper) == (3, None)

    def test_mixed_rejected(self):
        with pytest.raises(UnsupportedBaseError):
            card_bounds(make_base("x^2 - x - 1"))


class TestElements:
    def test_mul_alpha_gaussian(self):
        base = make_base("x^2 + 2x + 2")
        one = base.element(1)
        assert one == (1, 0)
        a1 = base.mul_alpha(one)
        assert a1 == (0, 1)
        a2 = base.mul_alpha(a1)
        assert a2 == (-2, -2)

    def test_div_alpha_inverse(self):
        base = make_base("x^2 + 2x + 2")
        for coords in [(0, 0), (3, -1), (-2, 5), (7, 7)]:
            x = base.element(coords)
            assert base.div_alpha_exact(base.mul_alpha(x)) == x
        with pytest.raises(ValueError):
            base.div_alpha_exact(base.element((1, 0)))

    def test_residue_quadratic(self):
        base = make_base("x^2 + 2x + 2")
        assert base.residue(base.element(7)) == 1
        assert base.residue(base.element((4, 9))) == 0

    def test_residue_rational(self):
        base = make_base([-5, 2])
        assert base.residue(base.element(7)) == 2
        with pytest.raises(ValueError):
            base.residue((Fraction(1, 2),))

    def test_div_alpha_rational(self):
        base = make_base([-5, 2])
        assert base.div_alpha_exact(base.element(5)) == (2,)
        with pytest.raises(ValueError):
            base.div_alpha_exact(base.element(3))

    def test_element_denominator_rules(self):
        base = make_base([-3, 2])
        assert base.element(Fraction(7, 4)) == (Fraction(7, 4),)
        with pytest.raises(ValueError):
            base.element(Fraction(1, 3))

    def test_non_monic_has_no_elements(self):
        base = make_base("2x^2 - 4x + 3")
        with pytest.raises(UnsupportedBaseError):
            base.element(1)

    def test_eval_word(self):
        base = make_base("x - 2")
        assert base.eval_word((1, -2)) == (0,)
        assert base.eval_word((1, 0, 1)) == (5,)
        gauss = make_base("x^2 + 2x + 2")
        assert gauss.eval_word((1, 2, 2)) == (0, 0)


@st.composite
def _degree_one_value(draw):
    """(a, b, x): a degree-one base alpha = a/b with coprime a and b > 0,
    expanding or contracting, positive or negative, and x = p/b^k."""
    a = draw(st.integers(-12, 12).filter(bool))
    b = draw(st.integers(1, 12).filter(lambda b: math.gcd(a, b) == 1))
    p = draw(st.integers(-10**6, 10**6))
    return a, b, Fraction(p, b ** draw(st.integers(0, 3)))


class TestDegreeOneArithmetic:
    """A degree-one element is the 1-tuple of a rational in Z[a/b]; the
    tuple arithmetic is multiplication and division by a/b."""

    @pytest.mark.parametrize("poly, alpha, x", [
        ("3x-1", Fraction(1, 3), Fraction(7, 9)),
        ("5x+2", Fraction(-2, 5), Fraction(7, 25))])
    def test_contracting_bases(self, poly, alpha, x):
        base = make_base(poly)
        e = base.element(x)
        assert base.mul_alpha(e) == (x * alpha,)
        assert base.div_alpha_exact(base.mul_alpha(e)) == e

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=_degree_one_value())
    def test_arithmetic_is_scaling_by_alpha(self, case):
        a, b, x = case
        base = make_base([-a, b])
        e = base.element(x)
        y = base.mul_alpha(e)
        assert e == (x,) and y == (x * Fraction(a, b),)
        assert base.div_alpha_exact(y) == e
        for (c,) in (e, y):  # an integral coordinate is an int
            assert (type(c) is int) == (c.denominator == 1)
        if x.numerator % a:
            with pytest.raises(ValueError):
                base.div_alpha_exact(e)
        else:
            (q,) = base.div_alpha_exact(e)
            assert q == x / Fraction(a, b)
            assert (type(q) is int) == (q.denominator == 1)
        window = base.conjugate_window([Fraction(10**7)])
        if x.denominator == 1:
            assert base.residue(e) == x % abs(a)
            assert window(e, -1, 1) == range(-1, 2)
        else:
            with pytest.raises(ValueError):
                base.residue(e)
            assert window(e, -1, 1) == range(0)


class TestIntervalData:
    def test_conjugate_boxes_width(self):
        base = make_base("x^2 - 2")
        boxes = base.conjugate_boxes(base.element((0, 1)))
        assert len(boxes) == 2
        for box in boxes:
            assert box.width <= Fraction(1, 2**20)
        # sigma(alpha) = +-sqrt(2): the two boxes cover both signs
        mids = sorted(box.mid.re.lo for box in boxes)
        assert mids[0] < 0 < mids[1]

    @pytest.mark.parametrize("poly", ["x^2 + 2x + 2", "x^2 - 2", "x^3 + 2",
                                      "x^3 - x^2 + 3"])
    def test_conjugate_window_brackets_the_exact_boxes(self, poly):
        # The window rounds each power box outward, so it keeps every
        # shift that the Fraction boxes of conjugate_boxes allow, and it
        # keeps no shift that those boxes put clearly outside a disk.
        base = make_base(poly)
        radii = [Fraction(5, 2), None, Fraction(7, 3)][:base.degree]
        window = base.conjugate_window(radii)
        slack = Fraction(1, 2**20)
        for tail in itertools.product(range(-2, 3), repeat=base.degree - 1):
            x = (0,) + tail
            kept = window(x, -8, 8)
            for d in range(-8, 9):
                lows = [FractionBox.of(box).abs_sq().lo for box, r in
                        zip(base.conjugate_boxes(base.add_int(x, d)), radii)
                        if r is not None]
                bounds = [r for r in radii if r is not None]
                if all(lo <= r * r for lo, r in zip(lows, bounds)):
                    assert d in kept
                if d in kept:
                    assert all(lo <= (r + slack) ** 2
                               for lo, r in zip(lows, bounds))

    def test_conjugate_window_without_radii_keeps_the_range(self):
        base = make_base("x^3 + 2")
        assert base.conjugate_window([None] * 3)((5, -7, 1), -3, 3) == range(-3, 4)
        rational = make_base([-5, 2])   # alpha = 5/2, exact modulus
        window = rational.conjugate_window([Fraction(3)])
        assert list(window((0,), -9, 9)) == [-3, -2, -1, 0, 1, 2, 3]
        assert list(window((2,), -9, 9)) == list(range(-5, 2))

    def test_conjugate_window_is_empty_off_the_lattice(self):
        # 1/2 is no element of Z[3/2], and no 1/2 + d is one either.
        base = make_base("2x-3")
        window = base.conjugate_window([Fraction(2)])
        assert window((Fraction(1, 2),), -1, 1) == range(0)
        assert list(window((0,), -1, 1)) == [-1, 0, 1]

    def test_refine_monotone(self):
        base = make_base("x^2 + 2x + 2")
        w0 = base.achieved_width
        before = base.conjugates()
        base.refine()
        assert base.achieved_width <= w0 / 2
        for old, new in zip(before, base.conjugates()):
            assert old.intersect(new) == new  # each new box nests

    def test_moduli_enclose_truth(self):
        base = make_base("x^2 + 2x + 2")  # |alpha| = sqrt(2)
        for lo, hi in base.conjugate_moduli():
            assert lo * lo <= 2 <= hi * hi

    def test_exact_point_for_rational(self):
        # The root of a degree-one base is the point rectangle at width 0:
        # its modulus is exact, refining keeps it, and sigma(x) = x.
        base = make_base([-3, 2])
        (lo, hi), = base.conjugate_moduli()
        assert lo == hi == Fraction(3, 2)
        assert base.conjugates() == [Box.point(Fraction(3, 2))]
        base.refine()
        assert base.conjugates() == [Box.point(Fraction(3, 2))]
        assert base.achieved_width == 0
        x = base.element(Fraction(7, 4))
        assert base.conjugate_boxes(x) == [Box.point(x[0])]

    def test_separation_failure_names_the_width(self, monkeypatch):
        # Root boxes that never shrink keep both moduli straddling 1: the
        # separation gives up after 80 sixteenfold steps and names the
        # width it reached.
        wide = Box(-1, 1, -1, 1)
        monkeypatch.setattr(algdigits.base, "certified_roots",
                            lambda coeffs, width: [wide, wide])
        monkeypatch.setattr(algdigits.base, "contract_roots",
                            lambda coeffs, boxes, width: boxes)
        width = Fraction(1, 2**40) / 16**80
        with pytest.raises(PrecisionError,
                           match=f"2 straddle but 0 lie on the circle at "
                                 f"width {width}$"):
            make_base("x^2 + 2x + 2")
