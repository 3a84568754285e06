"""Digit sets, backward-division orbits, periodic points, and the
height-reduction set."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from algdigits import (
    Cycle,
    DigitSetError,
    ExpansionRecord,
    PrecisionError,
    ResourceCapError,
    Terminated,
    Truncated,
    UnsupportedBaseError,
    as_digit_set,
    height_reduce,
    is_number_system,
    j_step,
    make_base,
    orbit,
    orbit_bound,
    periodic_points,
    spans_ring,
    validate_crs,
)
from algdigits.base import Classification
from algdigits.digits import (DigitSet, PeriodicSet, _coordinate_bound,
                              _require_expanding)
from algdigits.intervals import Box

from oracles import (
    height_values_naive,
    periodic_points_linear,
    periodic_points_quadratic,
)


BASE_NEG2 = make_base("x + 2")
BASE_POS2 = make_base("x - 2")
BASE_32 = make_base([-3, 2])       # alpha = 3/2
BASE_52 = make_base([-5, 2])       # alpha = 5/2
GAUSS = make_base("x^2 + 2x + 2")  # alpha = -1 + i
SQRT2 = make_base("x^2 - 2")


class TestValidateCrs:
    def test_wrong_count(self):
        with pytest.raises(DigitSetError):
            validate_crs(BASE_NEG2, [0])
        with pytest.raises(DigitSetError):
            validate_crs(BASE_NEG2, [0, 1, 2])

    def test_duplicate_residue(self):
        with pytest.raises(DigitSetError):
            validate_crs(BASE_NEG2, [0, 2])
        with pytest.raises(DigitSetError):
            validate_crs(BASE_32, [0, 1, 4])

    def test_accepts_noninteger_digit_rejection(self):
        with pytest.raises(ValueError):
            validate_crs(BASE_NEG2, [0, Fraction(1, 3)])

    def test_canonical(self):
        assert tuple(as_digit_set(BASE_NEG2)) == ((0,), (1,))
        assert tuple(as_digit_set(BASE_32)) == ((0,), (1,), (2,))
        assert tuple(as_digit_set(GAUSS)) == ((0, 0), (1, 0))
        assert tuple(as_digit_set(BASE_52)) == ((0,), (1,), (2,), (3,), (4,))

    def test_as_digit_set_passthrough(self):
        ds = validate_crs(BASE_NEG2, [1, 2])
        assert as_digit_set(BASE_NEG2, ds) is ds
        other = make_base("x + 2")
        revalidated = as_digit_set(other, ds)
        assert tuple(revalidated) == ((2,), (1,))  # residue order: 2 = 0 mod 2

    def test_contains_zero(self):
        assert as_digit_set(BASE_NEG2).contains_zero
        assert not validate_crs(BASE_NEG2, [1, 2]).contains_zero


class TestJStep:
    def test_base_neg2(self):
        ds = as_digit_set(BASE_NEG2)
        assert j_step(7, ds) == ((1,), (-3,))
        assert j_step(-3, ds) == ((1,), (2,))
        assert j_step(2, ds) == ((0,), (-1,))

    def test_quadratic(self):
        ds = as_digit_set(GAUSS)
        # alpha * (p, q) = (-2q, p - 2q); 1 = 1 + alpha * 0
        digit, nxt = j_step((1, 0), ds)
        assert digit == (1, 0) and nxt == (0, 0)


class TestOrbit:
    def test_terminating(self):
        rec = orbit(7, as_digit_set(BASE_NEG2))
        assert rec.digits == ((1,), (1,), (0,), (1,), (1,))
        assert rec.states == ((7,), (-3,), (2,), (-1,), (1,), (0,))
        assert isinstance(rec.tail, Terminated)
        assert rec.terminated
        assert rec.replay(BASE_NEG2)
        word = tuple(reversed(rec.digits))
        assert BASE_POS2.eval_word(word) != 7  # different base, sanity
        assert BASE_NEG2.eval_word(word) == (7,)
        wrong_start = ExpansionRecord((8,), rec.digits, rec.states, rec.tail)
        wrong_digit = ExpansionRecord((7,), ((0,),) + rec.digits[1:], rec.states,
                                      rec.tail)
        assert not wrong_start.replay(BASE_NEG2)
        assert not wrong_digit.replay(BASE_NEG2)

    def test_zero_start(self):
        rec = orbit(0, as_digit_set(BASE_NEG2))
        assert rec.digits == () and rec.terminated

    def test_cycle(self):
        rec = orbit(-1, as_digit_set(BASE_POS2))
        assert isinstance(rec.tail, Cycle)
        assert rec.tail.elements == ((Fraction(-1),),)
        assert rec.replay(BASE_POS2)

    def test_truncated(self):
        ds = validate_crs(BASE_NEG2, [1, 2])
        rec = orbit(0, ds, max_steps=1)
        assert isinstance(rec.tail, Truncated)
        assert rec.tail.steps == 1

    def test_quadratic_replay(self):
        ds = as_digit_set(GAUSS)
        for start in [(5, 0), (-3, 2), (0, 7)]:
            rec = orbit(start, ds)
            assert rec.terminated
            assert rec.replay(GAUSS)
            assert GAUSS.eval_word(tuple(reversed(rec.digits))) == start


class TestOrbitBound:
    def test_linear(self):
        report = orbit_bound(BASE_POS2)
        assert report.k_sigma == (Fraction(1),)
        assert report.c == Fraction(2)

    def test_wide_digits(self):
        report = orbit_bound(BASE_POS2, [0, 3])
        assert report.c == Fraction(4)

    def test_rational(self):
        report = orbit_bound(BASE_32)
        assert report.c == Fraction(5)

    def test_quadratic_is_sound(self):
        report = orbit_bound(SQRT2, [0, 1])
        # |alpha - 1| for alpha = sqrt(2): c = 1 + 1/(sqrt(2)-1) ~ 3.414
        assert Fraction(34, 10) < report.c < Fraction(35, 10)
        assert len(report.per_conjugate) == 2

    def test_rejects_non_expanding(self):
        with pytest.raises(UnsupportedBaseError):
            orbit_bound(make_base("x^2 - x - 1"))

    @pytest.mark.parametrize("poly", ["x - 2", "x + 7", "2x - 5",
                                      "x^2 + 2x + 2", "x^2 + x + 5",
                                      "x^3 + 3x^2 + 3x + 3"])
    def test_canonical_digits_need_no_digit_set(self, poly):
        # digits None gives K_sigma = |M(0)| - 1, the bound of the set
        base = make_base(poly)
        assert orbit_bound(base) == orbit_bound(base, DigitSet.canonical(base))

    def test_box_cap_before_canonical_digits(self, monkeypatch):
        # 3000017 canonical digits lie under their own cap of 10^7, but
        # the box of periodic-point candidates does not: every query
        # stops on the box cap before a canonical digit is built
        base = make_base("x^2 + 3000017")

        def fail(cls, base):
            raise AssertionError("canonical digits built")

        monkeypatch.setattr(DigitSet, "canonical", classmethod(fail))
        for query in (periodic_points, is_number_system, spans_ring):
            with pytest.raises(ResourceCapError,
                               match="12047841 candidates exceed cap"):
                query(base)

    @pytest.mark.parametrize("digits", [
        [7, -4, 0, 13, -21], [(0, 0), (1, 1), (2, -1), (3, 2), (-1, 0)]],
        ids=["integers", "vectors"])
    def test_rational_digits_need_no_boxes(self, digits):
        # Every conjugate fixes a rational digit d, so it adds exactly |d|
        # to each K_sigma: the report equals the one from a box per digit.
        base = make_base("x^2 + x + 5")
        digit_set = as_digit_set(base, digits)
        sups = [max(base.conjugate_boxes(d)[k].abs_bounds()[1]
                    for d in digit_set.digits) for k in range(2)]
        report = orbit_bound(base, digit_set)
        assert report.k_sigma == tuple(sups)
        assert report.per_conjugate == tuple(
            1 + k_sup / (lo - 1)
            for (lo, _hi), k_sup in zip(base.conjugate_moduli(), sups))
        if isinstance(digits[0], int):
            assert report.k_sigma == (Fraction(21), Fraction(21))


class TestPeriodicPoints:
    def test_base_two(self):
        pset = periodic_points(BASE_POS2)
        assert pset.elements == ((Fraction(-1),), (Fraction(0),))
        assert not pset.is_trivial

    def test_base_neg_two(self):
        pset = periodic_points(BASE_NEG2)
        assert pset.elements == ((Fraction(0),),)
        assert pset.is_trivial

    def test_three_halves(self):
        pset = periodic_points(BASE_32)
        assert pset.elements == ((Fraction(-4),), (Fraction(-2),),
                                 (Fraction(0),))
        assert pset.bounds.c == Fraction(5)

    def test_wide_digits(self):
        pset = periodic_points(BASE_POS2, [0, 3])
        assert pset.elements == ((Fraction(-3),), (Fraction(-2),),
                                 (Fraction(-1),), (Fraction(0),))
        cycle_lengths = sorted(len(c) for c in pset.cycles)
        assert cycle_lengths == [1, 1, 2]

    def test_five_halves_special_digits(self):
        pset = periodic_points(BASE_52, [-2, 0, 1, 2, 4])
        assert pset.elements == ((Fraction(0),),)

    def test_sqrt2(self):
        pset = periodic_points(SQRT2, [0, 1])
        assert set(pset.elements) == {(0, 0), (-1, 0), (0, -1), (-1, -1)}

    def test_gauss(self):
        pset = periodic_points(GAUSS)
        assert pset.elements == ((0, 0),)

    def test_matches_linear_oracle(self):
        for poly, digits in [("x - 2", [0, 1]), ("x - 2", [0, 3]),
                             ("x + 2", [0, 1]), ("x + 2", [1, 2]),
                             ([-3, 2], [0, 1, 2]), ([-5, 2], [-2, 0, 1, 2, 4]),
                             ([5, 2], [0, 1, 2, 3, 4])]:
            base = make_base(poly)
            pset = periodic_points(base, digits)
            a, b = base.rational_view
            bound = int(pset.bounds.c) + 1
            expected = periodic_points_linear(a, b, digits, bound)
            assert {int(x) for (x,) in pset.elements} == expected

    def test_matches_quadratic_oracle(self):
        for a1, a2, digits in [(0, -2, [0, 1]), (2, 2, [0, 1]),
                               (0, 2, [0, 1]), (3, 3, [0, 1, 2])]:
            base = make_base([a2, a1, 1])
            pset = periodic_points(base, digits)
            box = int(pset.bounds.c) + 2
            assert set(pset.elements) == periodic_points_quadratic(
                a1, a2, digits, box)

    def test_candidate_cap(self):
        with pytest.raises(ResourceCapError):
            periodic_points(SQRT2, [0, 1], candidate_cap=2)

    def test_repeat_call_agrees(self):
        first = periodic_points(SQRT2, [0, 1])
        second = periodic_points(SQRT2, [0, 1])
        assert first.elements == second.elements
        assert set(first.cycles) == set(second.cycles)


def full_box_walk(base, digits=None, *, candidate_cap: int = 10**7):
    """Reference: periodic_points as it was before it kept to the
    conjugate region, following the orbit of every point of the
    coordinate box |x_i| <= limit."""
    _require_expanding(base)
    digit_set = as_digit_set(base, digits)
    bounds = orbit_bound(base, digit_set)
    c = bounds.c

    limit = int(c) if base.degree == 1 else _coordinate_bound(base, c)
    count = (2 * limit + 1) ** base.degree
    if count > candidate_cap:
        raise ResourceCapError(f"{count} candidates exceed cap {candidate_cap}")

    def lattice():
        points = range(-limit, limit + 1)
        if base.degree == 1:
            return map(base.element, points)
        return itertools.product(points, repeat=base.degree)

    status: dict = {}
    cycles: set = set()

    def resolve(x) -> None:
        path = []
        pos = {}
        while x not in status and x not in pos:
            pos[x] = len(path)
            path.append(x)
            _, x = digit_set.step(x)
        if x in pos:
            cycle = tuple(path[pos[x]:])
            shift = min(range(len(cycle)), key=cycle.__getitem__)
            cycles.add(cycle[shift:] + cycle[:shift])
            for i, st in enumerate(path):
                status[st] = i >= pos[x]
        else:
            # Merged into an already-resolved state.  The first walk to
            # touch any cycle always closes it (stepping from a periodic
            # state never leaves its cycle), so by the time a merge is
            # possible the cycle is registered; statuses are only a memo.
            for st in path:
                status[st] = False

    for x in lattice():
        resolve(x)

    ordered_cycles = tuple(sorted(cycles))
    elements = tuple(sorted({x for cyc in ordered_cycles for x in cyc}))
    return PeriodicSet(elements, ordered_cycles, bounds, count)


@st.composite
def _expanding_with_crs(draw):
    """A monic quadratic or cubic with small coefficients and |M(0)| <= 4,
    and a complete residue system whose digits are ring elements: digit
    r + |M(0)| k_0 + k_1 alpha + ... for random small k."""
    degree = draw(st.sampled_from([2, 3]))
    const = draw(st.sampled_from([-4, -3, -2, 2, 3, 4]))
    middle = draw(st.lists(st.integers(-2, 2), min_size=degree - 1,
                           max_size=degree - 1))
    m = abs(const)
    digits = []
    for r in range(m):
        shift = draw(st.lists(st.integers(-1, 1), min_size=degree,
                              max_size=degree))
        digits.append((r + m * shift[0],) + tuple(shift[1:]))
    return [const] + middle + [1], digits


class TestRegionWalk:
    """periodic_points walks only the box points inside the certified
    conjugate region, and still finds what the full-box walk finds."""

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(case=_expanding_with_crs())
    def test_matches_full_box_walk(self, case):
        coeffs, digits = case
        try:
            base = make_base(coeffs)
        except ValueError:
            assume(False)
        assume(base.classification is Classification.EXPANDING_INTEGER)
        try:
            reference = full_box_walk(base, digits, candidate_cap=20000)
        except ResourceCapError:
            assume(False)
        pset = periodic_points(base, digits)
        assert pset.elements == reference.elements
        assert pset.cycles == reference.cycles
        assert pset.candidates_scanned == reference.candidates_scanned


class TestLatticeScan:
    """candidates_scanned is the size of the coordinate box |x_i| <=
    limit, and it is what the cap is checked against, even though only
    its points in the conjugate region start a walk."""

    def test_scans_full_lattice(self):
        for base, digits in [(GAUSS, None), (SQRT2, [0, 1]),
                             (make_base("x^3 + 2"), [4, -3])]:
            pset = periodic_points(base, digits)
            limit = _coordinate_bound(base, pset.bounds.c)
            assert pset.candidates_scanned == (2 * limit + 1) ** base.degree
            # the scanned count is exactly the one checked against the cap
            periodic_points(base, digits,
                            candidate_cap=pset.candidates_scanned)
            with pytest.raises(ResourceCapError):
                periodic_points(base, digits,
                                candidate_cap=pset.candidates_scanned - 1)

    def test_coordinate_bound_failure_names_the_width(self, monkeypatch):
        # Boxes that never exclude 0 for f'(alpha_k): the bound gives up
        # and says how fine the root boxes got.
        base = make_base("x^2 + 2x + 2")
        monkeypatch.setattr(base, "conjugate_boxes",
                            lambda x: [Box.point(0)] * 2)
        monkeypatch.setattr(base, "refine", lambda: None)
        with pytest.raises(PrecisionError,
                           match="still reaches 0 at width 1/1099511627776"):
            _coordinate_bound(base, Fraction(3))

    def test_wide_digits_match_quadratic_oracle(self):
        # Digits far from 0 make the coordinate box much larger than the
        # conjugate region, so most lattice points are not periodic.
        rng = random.Random(2014)
        checked = 0
        while checked < 8:
            a1, a2 = rng.randint(-3, 3), rng.choice([-6, -5, -4, -3, 3, 4, 5, 6])
            try:
                base = make_base([a2, a1, 1])
            except ValueError:
                continue
            if base.classification is not Classification.EXPANDING_INTEGER:
                continue
            m = abs(a2)
            digits = [i + m * rng.randint(-5, 5) for i in range(m)]
            pset = periodic_points(base, digits)
            limit = _coordinate_bound(base, pset.bounds.c)
            assert set(pset.elements) == periodic_points_quadratic(
                a1, a2, digits, limit)
            checked += 1

    def test_repeat_call_agrees_on_cubic(self):
        base = make_base("x^3 + 2")
        first = periodic_points(base, [4, -3])
        second = periodic_points(base, [4, -3])
        assert len(first.cycles) > 1
        assert first.elements == second.elements
        assert first.cycles == second.cycles
        assert first.candidates_scanned == second.candidates_scanned


class TestVerdicts:
    def test_number_systems(self):
        assert is_number_system(GAUSS)
        assert is_number_system(BASE_NEG2)
        assert not is_number_system(BASE_POS2)
        assert not is_number_system(BASE_32)
        assert is_number_system(BASE_52, [-2, 0, 1, 2, 4])
        assert not is_number_system(BASE_52)

    def test_no_zero_digit_is_never_ns(self):
        assert not is_number_system(BASE_NEG2, [1, 2])

    def test_spans_ring(self):
        # 0 -> 1 -> 0 cycle covers the full periodic set {0, 1}
        assert spans_ring(BASE_NEG2, [1, 2])
        assert not is_number_system(BASE_NEG2, [1, 2])
        assert spans_ring(BASE_NEG2)
        assert not spans_ring(BASE_POS2)


@st.composite
def _expanding_any_degree_with_crs(draw):
    """An expanding base of degree 1-3 with small coefficients (a/b for
    degree one, monic above) and a random complete residue system; about
    half of the systems keep 0 as the digit of class 0."""
    degree = draw(st.integers(1, 3))
    const = draw(st.sampled_from([-5, -4, -3, -2, 2, 3, 4, 5]))
    if degree == 1:
        coeffs = [const, draw(st.integers(1, abs(const) - 1))]
    else:
        coeffs = ([const] + draw(st.lists(st.integers(-2, 2),
                                          min_size=degree - 1,
                                          max_size=degree - 1)) + [1])
    keep_zero = draw(st.booleans())
    m = abs(const)
    digits = []
    for r in range(m):
        shift = draw(st.lists(st.integers(-1, 1), min_size=degree,
                              max_size=degree))
        if r == 0 and keep_zero:
            shift = [0] * degree
        digit = (r + m * shift[0],) + tuple(shift[1:])
        digits.append(digit[0] if degree == 1 else digit)
    return coeffs, digits


class TestSpansRingProperty:
    """spans_ring, read off the periodic cycles, equals its definition:
    the periodic points are exactly the forward orbit of 0."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(case=_expanding_any_degree_with_crs())
    def test_equals_orbit_of_zero(self, case):
        coeffs, digits = case
        try:
            base = make_base(coeffs)
            ds = as_digit_set(base, digits)
            pset = periodic_points(base, ds, candidate_cap=20000)
        except (ValueError, ResourceCapError):
            assume(False)
        record = orbit(base.zero, ds)
        assert not isinstance(record.tail, Truncated)
        zero_orbit = record.states if record.terminated else record.states[:-1]
        assert spans_ring(base, ds) == (set(pset.elements) == set(zero_orbit))


def orbit_reference(beta, digit_set, max_steps):
    """The orbit walk that maps each state to the step that reached it,
    so a repeated state reads its cycle entry off the map."""
    base = digit_set.base
    x = base.element(beta)
    terminal = digit_set.contains_zero
    if terminal and x == base.zero:
        return ExpansionRecord(x, (), (x,), Terminated())
    states, digits, step_of = [x], [], {x: 0}
    for step in range(1, max_steps + 1):
        r, x = digit_set.step(x)
        digits.append(r)
        states.append(x)
        if terminal and x == base.zero:
            tail = Terminated()
        elif x in step_of:
            tail = Cycle(step_of[x], tuple(states[step_of[x]:-1]))
        else:
            step_of[x] = step
            continue
        return ExpansionRecord(states[0], tuple(digits), tuple(states), tail)
    return ExpansionRecord(states[0], tuple(digits), tuple(states),
                           Truncated(max_steps))


class TestOrbitAgainstReference:
    """orbit keeps each state once and finds a cycle's entry by its
    position in the state list; its records equal the step-map walk's."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(case=_expanding_any_degree_with_crs(), data=st.data())
    def test_records_equal_the_step_map_walk(self, case, data):
        coeffs, digits = case
        try:
            base = make_base(coeffs)
            ds = as_digit_set(base, data.draw(st.sampled_from([None,
                                                               digits])))
        except ValueError:
            assume(False)
        start = tuple(data.draw(st.lists(st.integers(-30, 30),
                                         min_size=base.degree,
                                         max_size=base.degree)))
        steps = data.draw(st.integers(0, 60))
        record = orbit(start, ds, steps)
        assert record == orbit_reference(start, ds, steps)
        assert record.replay(base)
        if isinstance(record.tail, Cycle):
            entry = record.tail.entry
            assert record.states[entry] == record.states[-1]
            assert record.states[-1] not in record.states[entry + 1:-1]


class TestResidueTable:
    """A DigitSet keeps one tuple indexed by residue class, so the order
    in which its digits are given changes nothing."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])
    @given(case=_expanding_any_degree_with_crs(), data=st.data())
    def test_any_order_builds_the_same_table(self, case, data):
        coeffs, digits = case
        try:
            base = make_base(coeffs)
            reference = full_box_walk(base, digits, candidate_cap=20000)
        except (ValueError, ResourceCapError):
            assume(False)
        given_order = data.draw(st.permutations(digits))
        ds = validate_crs(base, given_order)
        elements = list(map(base.element, given_order))
        assert all(ds.digits[base.residue(d)] == d for d in elements)
        in_order = validate_crs(base, digits)
        assert ds == in_order and hash(ds) == hash(in_order)
        m = base.residue_modulus
        assert DigitSet.canonical(base) == validate_crs(base, range(m))
        assert periodic_points(base, ds) == reference


class TestHeightReduce:
    def test_single_coordinate(self):
        red = height_reduce(BASE_POS2, [(0, (0,)), (1, (1,))])
        assert red.values == frozenset({0, 1})
        assert red.cardinality_bound == 2
        assert red.expansion_degree == 0

    def test_degree_one_reps(self):
        red = height_reduce(BASE_POS2, [(0, (0,)), (3, (1, 1))])
        assert red.values == frozenset({0, 1, 2})
        assert red.cardinality_bound == 6
        assert red.expansion_degree == 1

    def test_matches_naive(self):
        reps = [(0,), (1, 1), (-1, 0, 1)]
        digits = [BASE_POS2.eval_word(tuple(reversed(r))) for r in reps]
        red = height_reduce(BASE_POS2, list(zip(digits, reps)))
        assert set(red.values) == height_values_naive(reps, 2)
        assert len(red.values) <= red.cardinality_bound

    def test_explicit_degree(self):
        red = height_reduce(BASE_POS2, [(0, (0,)), (1, (1,))],
                            expansion_degree=2)
        assert red.expansion_degree == 2
        assert set(red.values) == height_values_naive([(0,), (1,)], 2)
        with pytest.raises(ValueError):
            height_reduce(BASE_POS2, [(0, (0,)), (3, (1, 1))],
                          expansion_degree=0)

    def test_bad_pair(self):
        with pytest.raises(DigitSetError):
            height_reduce(BASE_POS2, [(0, (0,)), (3, (1,))])
        with pytest.raises(ValueError, match="at least one"):
            height_reduce(BASE_POS2, [])

    def test_quadratic_base(self):
        # 2 = -alpha^2 - 2*alpha for alpha^2 + 2*alpha + 2 = 0
        red = height_reduce(GAUSS, [(0, (0,)), (2, (0, -2, -1))])
        assert set(red.values) == height_values_naive([(0,), (0, -2, -1)], 2)
