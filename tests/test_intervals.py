"""The integer Box against the Fraction interval reference of oracles.py:
equal where the reference is exact (sums, products, scaling), and equal
to it and enclosing the exact value where it rounds (outward, modulus
bounds, Horner)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from algdigits.intervals import Box, horner_box, sqrt_bound
from oracles import FractionBox, horner_box_reference


def F(a, b=1):
    return Fraction(a, b)


def ends(box) -> tuple:
    return (box.re.lo, box.re.hi, box.im.lo, box.im.hi)


def contains(box, re, im=0) -> bool:
    """Whether the point re + i im lies in the closed box."""
    return not box.disjoint(Box.point(re, im))


@st.composite
def boxes(draw, dyadic=False):
    """A box over a power of two, or over any denominator up to 60."""
    den = (1 << draw(st.integers(0, 70)) if dyadic or draw(st.booleans())
           else draw(st.integers(1, 60)))
    big = st.integers(-2**80, 2**80)
    rl, rh = sorted((draw(big), draw(big)))
    il, ih = sorted((draw(big), draw(big)))
    return Box(rl, rh, il, ih, den)


rationals = st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6)
_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


class TestAgainstReference:
    @_SETTINGS
    @given(a=boxes(), b=boxes())
    def test_add_sub_mul_exact(self, a, b):
        ra, rb = FractionBox.of(a), FractionBox.of(b)
        assert ends(a + b) == (ra + rb).ends()
        assert ends(a - b) == (ra - rb).ends()
        assert ends(a * b) == (ra * rb).ends()

    @_SETTINGS
    @given(a=boxes(), q=st.one_of(st.integers(-10**9, 10**9), rationals))
    def test_scale_exact(self, a, q):
        assert ends(a.scale(q)) == FractionBox.of(a).scale(q).ends()

    @_SETTINGS
    @given(a=boxes(), bits=st.integers(0, 100))
    def test_outward_rounds_like_the_reference(self, a, bits):
        got = a.outward(bits)
        assert got.den == 1 << bits
        assert ends(got) == FractionBox.of(a).outward(bits).ends()
        lo_re, hi_re, lo_im, hi_im = ends(got)
        assert lo_re <= a.re.lo and a.re.hi <= hi_re
        assert lo_im <= a.im.lo and a.im.hi <= hi_im
        assert a.re.lo - lo_re < F(1, 1 << bits)
        assert hi_im - a.im.hi < F(1, 1 << bits)

    @_SETTINGS
    @given(a=boxes())
    def test_abs_bounds_round_like_the_reference(self, a):
        sq = FractionBox.of(a).abs_sq()
        lo, hi = a.abs_bounds()
        assert (lo, hi) == (sqrt_bound(sq.lo), sqrt_bound(sq.hi, up=True))
        assert lo * lo <= sq.lo and sq.hi <= hi * hi

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=9),
           z=boxes(dyadic=True), bits=st.integers(1, 90))
    def test_horner_box_rounds_like_the_reference(self, coeffs, z, bits):
        got = horner_box(coeffs, z, bits)
        assert ends(got) == horner_box_reference(
            coeffs, FractionBox.of(z), bits).ends()
        for x in (z.re.lo, z.re.hi):
            for y in (z.im.lo, z.im.hi):
                re = im = Fraction(0)
                for c in reversed(coeffs):
                    re, im = re * x - im * y + c, re * y + im * x
                assert contains(got, re, im)


class TestBox:
    def test_point_and_width(self):
        p = Box.point(F(3, 2), F(-1, 3))
        assert p.den == 6 and p.width == 0
        assert ends(p) == (F(3, 2), F(3, 2), F(-1, 3), F(-1, 3))
        assert p.mid == p

    def test_arithmetic_contains_samples(self):
        a = Box(-2, 3, 0, 0, 4)    # [-1/2, 3/4]
        b = Box(2, 12, 0, 0, 6)    # [1/3, 2]
        for x in (a.re.lo, a.re.hi, F(1, 8)):
            for y in (b.re.lo, b.re.hi, F(7, 6)):
                assert contains(a + b, x + y)
                assert contains(a - b, x - y)
                assert contains(a * b, x * y)

    def test_mul_contains_samples(self):
        a = Box(-1, 1, 0, 2)
        b = Box(1, 2, -1, 1)
        prod = a * b
        for ar in (-1, 1):
            for ai in (0, 2):
                for br in (1, 2):
                    for bi in (-1, 1):
                        assert contains(prod, ar * br - ai * bi,
                                        ar * bi + ai * br)

    def test_abs_of_a_real_box(self):
        # |x| over an interval: the square is 0 at the bottom when the
        # interval straddles zero.
        assert Box(-3, 2, 0, 0).abs_bounds() == (0, 3)
        assert Box(-3, -1, 0, 0).abs_bounds() == (1, 3)
        assert Box(1, 3, 0, 0).abs_bounds()[0] == 1

    def test_abs_exact_on_points(self):
        lo, hi = Box.point(3, 4).abs_bounds()
        assert lo <= 5 <= hi
        assert hi - lo < F(1, 2**50)

    def test_scale_and_shift(self):
        i = Box(1, 2, 0, 0)
        assert ends(i.scale(-2)) == (-4, -2, 0, 0)
        assert ends(i.scale(F(-1, 2))) == (-1, F(-1, 2), 0, 0)
        assert (i + Box.point(5)).re.lo == 6

    def test_set_predicates(self):
        a = Box(0, 1, 0, 0)
        b = Box(2, 3, 0, 0)
        assert a.disjoint(b)
        assert a.intersect(b) is None
        got = a.intersect(Box(1, 8, 0, 0, 2))
        assert ends(got) == (F(1, 2), 1, 0, 0)
        assert Box(-1, 5, -1, 1).contains_strict(Box(0, 1, 0, 0))
        assert not Box(-1, 5, 0, 0).contains_strict(Box(0, 1, 0, 0))

    def test_divide_into(self):
        # 1 / w as conj(w) / |w|^2 = [2, 4] / [4, 16] for w in [2, 4]: it
        # holds [1/4, 1/2].  A divisor that may be 0 gives None.
        q = Box(2, 4, 0, 0).divide_into(Box.point(1))
        assert ends(q) == (F(1, 8), 1, 0, 0)
        assert Box(-1, 1, 0, 0).divide_into(Box.point(1)) is None

    def test_outward(self):
        bits = 8
        for box in (Box(-7, 6, -35, -2, 21), Box(3, 3, 0, 0, 256),
                    Box.point(-1), Box(-5, 1, 3, 9, 2**70)):
            got = box.outward(bits)
            assert got.re.lo <= box.re.lo and box.re.hi <= got.re.hi
            assert got.im.lo <= box.im.lo and box.im.hi <= got.im.hi
            assert box.re.lo - got.re.lo < F(1, 2**bits)
            assert got.im.hi - box.im.hi < F(1, 2**bits)
        assert Box(3, 3, 0, 0, 256).outward(bits) == Box.point(F(3, 256))

    def test_equality_and_width_across_denominators(self):
        assert Box(1, 2, 0, 0) == Box(2, 4, 0, 0, 2)
        assert Box(1, 2, 0, 0) != Box(1, 2, 0, 0, 2)
        assert Box(0, 0, 0, 0) != 0  # a box equals only boxes
        assert hash(Box(1, 2, 0, 0)) == hash(Box(2, 4, 0, 0, 2))
        assert Box(0, 1, 0, 0).wider(Box(0, 1, 0, 0, 2))
        assert not Box(0, 1, 0, 0).wider(F(1))
        assert Box(0, 1, 0, 0).wider(F(1, 2))

    def test_horner(self):
        # x^2 + 1 at the point 2: exactly 5
        val = horner_box([1, 0, 1], Box.point(2), 64)
        assert val == Box.point(5)


class TestSqrt:
    def test_bracketing(self):
        for q in [F(2), F(3, 7), F(25), F(1, 4)]:
            lo = sqrt_bound(q)
            hi = sqrt_bound(q, up=True)
            assert lo * lo <= q <= hi * hi
            assert hi - lo < F(1, 2**40)
        assert sqrt_bound(F(0)) == sqrt_bound(F(0), up=True) == 0
        assert sqrt_bound(F(25), up=True) == 5
