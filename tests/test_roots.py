"""Certified root isolation against numpy's companion-matrix roots."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from algdigits import IntPolynomial, PrecisionError
from algdigits.intervals import Box
from algdigits.roots import (DEFAULT_WIDTH, _certify, _correction,
                             _float_seeds, certified_roots, contract_roots)
from oracles import multiquadratic_poly


@st.composite
def _squarefree(draw):
    """Ascending coefficients of a squarefree integer polynomial of
    degree 2-12 with coefficients in [-50, 50] and leading one in 1-5."""
    degree = draw(st.integers(2, 12))
    lower = draw(st.lists(st.integers(-50, 50), min_size=degree,
                          max_size=degree))
    coeffs = lower + [draw(st.integers(1, 5))]
    assume(IntPolynomial(tuple(coeffs)).is_squarefree())
    return coeffs


def _distance_sq(z: complex, box) -> float:
    dx = max(float(box.re.lo) - z.real, 0.0, z.real - float(box.re.hi))
    dy = max(float(box.im.lo) - z.imag, 0.0, z.imag - float(box.im.hi))
    return dx * dx + dy * dy


def _assert_one_box_each(coeffs, boxes, roots, tol):
    """degree disjoint boxes, and each root within tol(z) of exactly one."""
    assert len(boxes) == len(coeffs) - 1
    for i, a in enumerate(boxes):
        assert all(a.disjoint(b) for b in boxes[i + 1:])
    for z in roots:
        near = [b for b in boxes if _distance_sq(z, b) <= tol(z) ** 2]
        assert len(near) == 1, (coeffs, z)


class TestCertifiedRoots:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(coeffs=_squarefree())
    def test_boxes_match_numpy_roots(self, coeffs):
        _assert_one_box_each(coeffs, certified_roots(coeffs),
                             np.roots(coeffs[::-1]),
                             lambda z: 1e-6 * max(1.0, abs(z)))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(coeffs=_squarefree())
    def test_endpoints_dyadic_and_contraction_nests(self, coeffs):
        # A box of width 2^-w has its endpoints on the 2^-(w+24) grid.  The
        # certified boxes are often narrower than 2^-44 already; 2^-100
        # makes the contraction iterate.
        old = None
        for w in (40, 44, 100):
            boxes = (certified_roots(coeffs) if old is None
                     else contract_roots(coeffs, old, Fraction(1, 2**w)))
            for box in boxes:
                assert box.width <= Fraction(1, 2**w)
                for q in (box.re.lo, box.re.hi, box.im.lo, box.im.hi):
                    d = q.denominator
                    assert d & (d - 1) == 0 and d <= 2**(w + 24), (coeffs, q)
            for a, b in zip(old or (), boxes):
                assert a.re.lo <= b.re.lo and b.re.hi <= a.re.hi
                assert a.im.lo <= b.im.lo and b.im.hi <= a.im.hi
            old = boxes

    @pytest.mark.parametrize("coeffs", [
        [1] + [0] * 10 + [-10**20, 1],  # x^12 - 10^20 x^11 + 1
        [1] + [0] * 29 + [-10**6, 1],  # x^31 - 10^6 x^30 + 1
    ])
    def test_roots_of_very_different_moduli(self, coeffs):
        # Scaled into the unit disk, all roots but one lie within 2e-7 of
        # 0, where the seeds' products of differences underflow a float
        # and their corrections are tiny in absolute terms.  numpy's
        # companion matrix misplaces the small roots of the first
        # polynomial, so the reference is mpmath at 30 digits.  The float
        # seeds themselves already agree to 1e-12 relative to each root.
        with mpmath.workdps(30):
            roots = [complex(z) for z in
                     mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=100)]
        _assert_one_box_each(coeffs, _float_seeds(coeffs), roots, lambda z: 1e-12 * abs(z))
        _assert_one_box_each(coeffs, certified_roots(coeffs), roots,
                             lambda z: 1e-9 * abs(z))

    def test_seed_correction_out_of_float_range(self):
        # Estimates at the roots of w^300 = 2^-600, which lie on the circle
        # of radius 1/4: the product of the differences from one estimate
        # to the others is 300 * 4^-299, whose square underflows a float.
        # Moved to 16, the first estimate makes 16^300 overflow.
        d = 300
        a = [-2.0 ** -600] + [0.0] * (d - 1)
        zr = [math.cos(2 * math.pi * k / d) / 4 for k in range(d)]
        zi = [math.sin(2 * math.pi * k / d) / 4 for k in range(d)]
        for x in (0.2501, 16.0):
            zr[0] = x
            with mpmath.workdps(40):
                z = [mpmath.mpc(r, i) for r, i in zip(zr, zi)]
                want = (z[0] ** d + a[0]) / mpmath.fprod(z[0] - w for w in z[1:])
                got = mpmath.mpc(*_correction(a, zr, zi, 0))
                assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("coeffs, width", [
        # x^12 - 200x^2 + 40x - 2 and x^16 - 200x^2 + 40x - 2 have a root
        # pair at about 0.1 +- 3.0e-9 i.  Its float seeds lie off by about
        # 3e-9, nearer each other than their roots, and the 2^-25 grid
        # of the width 1/2 is coarser than the pair.
        ([-2, 40, -200] + [0] * 9 + [1], Fraction(1, 2)),
        ([-2, 40, -200] + [0] * 13 + [1], Fraction(1, 2)),
        ([-2, 40, -200] + [0] * 13 + [1], Fraction(1, 2**40)),
    ])
    def test_clustered_pair_is_certified(self, coeffs, width):
        boxes = certified_roots(coeffs, width)
        pair = [box for box in boxes
                if abs(box.mid.re.lo - Fraction(1, 10)) < Fraction(1, 10**6)]
        assert len(pair) == 2
        assert pair[0].disjoint(pair[1])
        for box in boxes:
            assert box.width <= width
        # the pair survives refinement, each box nesting in the old one
        finer = contract_roots(coeffs, boxes, width / 2**20)
        for old, new in zip(boxes, finer):
            assert old.intersect(new) == new

    def test_swinnerton_dyer_degree_64(self):
        # sqrt 2 + sqrt 3 + ... + sqrt 13: 46 of its 64 float seeds are
        # certified only after polishing on a finer grid.
        coeffs = multiquadratic_poly([2, 3, 5, 7, 11, 13])
        boxes = certified_roots(coeffs)
        assert len(boxes) == 64
        for i, a in enumerate(boxes):
            assert a.width <= DEFAULT_WIDTH
            assert all(a.disjoint(b) for b in boxes[i + 1:])
        finer = contract_roots(coeffs, boxes, DEFAULT_WIDTH / 2**20)
        for old, new in zip(boxes, finer):
            assert new.width <= DEFAULT_WIDTH / 2**20
            assert old.intersect(new) == new

    def test_constant_has_no_roots(self):
        with pytest.raises(ValueError, match="degree >= 1"):
            certified_roots([5])

    def test_certify_failure_names_grid_and_radius(self):
        # P'(0) = 0 for x^2 + 1: no Newton step moves the seed 0, and no
        # box around it excludes the zero of P'.
        with pytest.raises(PrecisionError,
                           match=r"up to the 2\^-480 grid; the last radius "
                                 r"tried was about 2\^-466"):
            _certify([1, 0, 1], Box.point(0), 30)
