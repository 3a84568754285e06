from fractions import Fraction

from algdigits.intervals import (Box, Interval, dyadic_outward, horner_box,
                                 sqrt_lower, sqrt_upper)


def F(a, b=1):
    return Fraction(a, b)


class TestInterval:
    def test_point_and_width(self):
        i = Interval.point(F(3, 2))
        assert i.lo == i.hi == F(3, 2)
        assert i.width == 0

    def test_arithmetic_contains_samples(self):
        a = Interval(F(-1, 2), F(3, 4))
        b = Interval(F(1, 3), F(2))
        samples_a = [a.lo, a.hi, a.mid]
        samples_b = [b.lo, b.hi, b.mid]
        for x in samples_a:
            for y in samples_b:
                assert (a + b).contains(x + y)
                assert (a - b).contains(x - y)
                assert (a * b).contains(x * y)

    def test_square_nonnegative(self):
        assert Interval(F(-2), F(1)).square().lo == 0
        assert Interval(F(-2), F(1)).square().hi == 4
        assert Interval(F(1), F(3)).square().lo == 1

    def test_abs(self):
        # |x| over an interval, through the modulus bounds of a real box.
        zero = Interval.point(0)
        assert Box(Interval(F(-3), F(2)), zero).abs_bounds() == (0, 3)
        assert Box(Interval(F(-3), F(-1)), zero).abs_bounds() == (1, 3)

    def test_scale_shift_neg(self):
        i = Interval(F(1), F(2))
        assert i.scale(F(-2)).lo == -4 and i.scale(F(-2)).hi == -2
        assert i.shift(F(5)).lo == 6
        assert (-i).hi == -1

    def test_set_predicates(self):
        a = Interval(F(0), F(1))
        b = Interval(F(2), F(3))
        assert a.disjoint(b)
        assert a.intersect(b) is None
        c = Interval(F(1, 2), F(4))
        got = a.intersect(c)
        assert got.lo == F(1, 2) and got.hi == 1
        assert Interval(F(-1), F(5)).contains_strict(a)

    def test_reciprocal(self):
        r = Interval(F(2), F(4)).reciprocal()
        assert r.lo == F(1, 4) and r.hi == F(1, 2)

    def test_dyadic_outward(self):
        bits = 8
        for iv in (Interval(F(-1, 3), F(2, 7)), Interval(F(-5, 3), F(-1, 9)),
                   Interval(F(3, 256), F(3, 256)), Interval.point(F(-1))):
            lo, hi = dyadic_outward(iv, bits)
            assert F(lo, 2**bits) <= iv.lo and iv.hi <= F(hi, 2**bits)
            assert iv.lo - F(lo, 2**bits) < F(1, 2**bits)
            assert F(hi, 2**bits) - iv.hi < F(1, 2**bits)
        assert dyadic_outward(Interval.point(F(3, 256)), bits) == (3, 3)


class TestBox:
    def test_mul_contains_samples(self):
        a = Box(Interval(F(-1), F(1)), Interval(F(0), F(2)))
        b = Box(Interval(F(1), F(2)), Interval(F(-1), F(1)))
        for ar in (a.re.lo, a.re.hi):
            for ai in (a.im.lo, a.im.hi):
                for br in (b.re.lo, b.re.hi):
                    for bi in (b.im.lo, b.im.hi):
                        prod = a * b
                        assert prod.re.contains(ar * br - ai * bi)
                        assert prod.im.contains(ar * bi + ai * br)

    def test_abs_sq_exact_on_points(self):
        z = Box.point(F(3), F(4))
        sq = z.abs_sq()
        assert sq.lo == sq.hi == 25
        lo, hi = z.abs_bounds()
        assert lo <= 5 <= hi
        assert hi - lo < F(1, 2**50)

    def test_conjugate(self):
        z = Box.point(F(1), F(2)).conjugate()
        assert z.im.lo == -2

    def test_horner(self):
        # evaluate x^2 + 1 at the point 2: exactly 5
        val = horner_box([F(1), F(0), F(1)], Box.point(F(2)), 64)
        assert val.re.contains(F(5)) and val.im.contains(F(0))


class TestSqrt:
    def test_bracketing(self):
        for q in [F(2), F(3, 7), F(25), F(1, 4)]:
            lo = sqrt_lower(q)
            hi = sqrt_upper(q)
            assert lo * lo <= q <= hi * hi
            assert hi - lo < F(1, 2**40)
