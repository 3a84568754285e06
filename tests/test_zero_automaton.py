"""The automaton recognizing digit words that evaluate to zero, and the
minimal-height search built on it."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from algdigits import (
    IntPolynomial,
    InvalidPolynomialError,
    ResourceCapError,
    UnitCircleError,
    UnsupportedBaseError,
    build_zero_automaton,
    make_base,
    min_height,
)
from algdigits import base as base_module
from algdigits.zero_automaton import _monic_pass

from oracles import (DictZeroAutomaton, growth_rate_dense,
                     shortest_nonzero_word_reference, zero_words_by_division,
                     zero_words_monic, zero_words_rational)


def _reference(base, height: int, max_states: int = 10**6):
    """DictZeroAutomaton.build, with the integer states of a degree-one
    base restated as the library's 1-tuples."""
    reference = DictZeroAutomaton.build(base, height, max_states)
    if base.degree > 1:
        return reference
    return DictZeroAutomaton(
        base, height, tuple((s,) for s in reference.states),
        {((y,), d): (z,) for (y, d), z in reference.transitions.items()})


class TestRejections:
    def test_unit_circle(self):
        with pytest.raises(UnitCircleError):
            build_zero_automaton("2x^2 - 3x + 2", 1)
        with pytest.raises(UnitCircleError):
            build_zero_automaton("x^2 + x + 1", 1)

    def test_non_monic_irrational(self):
        with pytest.raises(UnsupportedBaseError):
            build_zero_automaton("2x^2 - 4x + 3", 1)

    def test_bad_height(self):
        with pytest.raises(ValueError):
            build_zero_automaton("x - 2", 0)

    def test_state_cap(self):
        with pytest.raises(ResourceCapError):
            build_zero_automaton("x^2 + 2x + 2", 2, max_states=3)


class TestBaseTwo:
    def test_h1_only_trivial(self):
        auto = build_zero_automaton("x - 2", 1).trim()
        assert auto.states == ((0,),)
        assert auto.shortest_nonzero_word() is None

    def test_h2_shortest(self):
        auto = build_zero_automaton("x - 2", 2)
        assert auto.accepts((1, -2))
        assert auto.accepts(())
        assert not auto.accepts((1, -1))
        assert not auto.accepts((2, 2))  # 2 * 2 + 2 = 6 leaves the band
        found = auto.shortest_nonzero_word()
        assert found.word == (-1, 2)
        assert found.height == 2
        assert found.value_check



LANGUAGE_CASES = [
    # (poly text, H, max length, total zero-word count over 1..max)
    ("x - 2", 2, 8, 984),
    ("x^2 - x - 1", 1, 8, 124),
    ("x^2 + 2x + 2", 2, 7, 193),
]


class TestLanguage:
    @pytest.mark.parametrize("poly,h,max_len,total", LANGUAGE_CASES)
    def test_matches_enumeration(self, poly, h, max_len, total):
        base = make_base(poly)
        auto = build_zero_automaton(base, h)
        got = set()
        for length in range(1, max_len + 1):
            got |= {w for w in auto.language(length)}
        coeffs = base.min_poly.coeffs
        expected = zero_words_monic(coeffs, h, max_len)
        assert got == expected
        assert len(got) == total

    def test_matches_enumeration_rational(self):
        base = make_base([-3, 2])
        auto = build_zero_automaton(base, 3)
        got = set()
        for length in range(1, 7):
            got |= set(auto.language(length))
        expected = zero_words_rational(3, 2, 3, 6)
        assert got == expected
        assert len(got) == 168

    @pytest.mark.parametrize("poly,h,max_len,total", LANGUAGE_CASES)
    def test_counts(self, poly, h, max_len, total):
        auto = build_zero_automaton(poly, h)
        assert auto.count_words(0) == 1
        with pytest.raises(ValueError, match="nonnegative"):
            auto.count_words(-1)
        by_length = [auto.count_words(n) for n in range(1, max_len + 1)]
        assert sum(by_length) == total


class TestStructure:
    def test_trim_idempotent(self):
        auto = build_zero_automaton("x - 2", 2).trim()
        again = auto.trim()
        assert again.states == auto.states
        assert again.rows == auto.rows

    def test_trim_keeps_language(self):
        auto = build_zero_automaton("x^2 - 2", 2)
        trimmed = auto.trim()
        for n in range(0, 6):
            assert set(auto.language(n)) == set(trimmed.language(n))

    def test_json_shape(self):
        auto = build_zero_automaton("x - 2", 2).trim()
        payload = auto.to_json_dict()
        assert set(payload) == {"H", "base", "states", "transitions",
                                "initial", "final"}
        assert payload["H"] == 2
        assert payload["base"] == "x - 2"
        assert payload["initial"] == payload["final"]
        n = len(payload["states"])
        for y, d, z in payload["transitions"]:
            assert 0 <= y < n and 0 <= z < n and -2 <= d <= 2

    def test_dot_output(self):
        dot = build_zero_automaton("x - 2", 2).trim().to_dot()
        assert dot.startswith("digraph")
        assert "doublecircle" in dot

    def test_dot_edge_order(self):
        # Edges in state order, then digit order: the order of the JSON
        # export, which is the sorted edges (i, d, j).
        auto = build_zero_automaton("x^3 + 2", 2)
        assert auto.n_states == 557
        edges = auto.to_json_dict()["transitions"]
        assert edges == sorted(edges) and len(edges) == auto.n_edges
        labels = ["(" + ",".join(map(str, s)) + ")" for s in auto.states]
        expected = "\n".join(
            ["digraph zero {", "  rankdir=LR;", "  node [shape=circle];",
             '  "(0,0,0)" [shape=doublecircle];']
            + [f'  "{labels[i]}" -> "{labels[j]}" [label="{d}"];'
               for i, d, j in edges]
            + ["}"])
        assert auto.to_dot() == expected

    def test_growth_rate(self):
        auto = build_zero_automaton("x^2 + 2x + 2", 2).trim()
        est, residual = auto.growth_rate()
        assert residual < 1e-9
        assert 2.49 < est < 2.52
        # word counts must grow at roughly that rate
        ratio = auto.count_words(12) / auto.count_words(11)
        assert abs(ratio - est) < 0.2

    @pytest.mark.parametrize("poly, height", [
        ("x^2 + 2x + 2", 2), ("x^3 - x - 1", 2), ("x^2 - x - 1", 6),
        ("2x - 3", 3)])
    def test_growth_rate_matches_dense_oracle(self, poly, height):
        auto = build_zero_automaton(poly, height).trim()
        est, residual = auto.growth_rate()
        ref_est, ref_residual = growth_rate_dense(auto)
        assert abs(est - ref_est) <= 1e-12 * ref_est
        if ref_residual < 1e-15:
            assert residual < 1e-15

    def test_cubic_h3(self):
        base = make_base("x^3 + 2")
        auto = build_zero_automaton(base, 3)
        trimmed = auto.trim()
        assert (auto.n_states, trimmed.n_states) == (1865, 125)
        got = set()
        for length in range(1, 7):
            got |= set(trimmed.language(length))
        assert got == zero_words_monic(base.min_poly.coeffs, 3, 6)

    def test_repeat_build_agrees(self):
        first = build_zero_automaton("x^2 + 2x + 2", 2)
        second = build_zero_automaton("x^2 + 2x + 2", 2)
        assert first.states == second.states
        assert first.rows == second.rows


@st.composite
def _monic_low_degree(draw):
    """Ascending coefficients of a monic degree-2 or -3 polynomial with
    small coefficients and a nonzero constant term."""
    degree = draw(st.sampled_from([2, 3]))
    const = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    middle = draw(st.lists(st.integers(-3, 3), min_size=degree - 1,
                           max_size=degree - 1))
    return [const] + middle + [1]


class TestReference:
    """The integer fixed-point pruning keeps exactly the successors the
    rational Box pruning of oracles.zero_automaton_reference keeps."""

    @pytest.mark.parametrize("poly", ["x^2 - x - 1", "x^2 - 2",
                                      "x^2 + 2x + 2", "x^2 - 2x - 2",
                                      "x^3 + 2"])
    @pytest.mark.parametrize("height", [1, 2])
    def test_untrimmed_equals_reference(self, poly, height):
        base = make_base(poly)
        reference = DictZeroAutomaton.build(base, height).numbered()
        assert (build_zero_automaton(base, height).to_json_dict()
                == reference.to_json_dict())

    # alpha = 2, 5/2, -3/2, -4, 1/3 and -2/5: expanding, negative and
    # contracting degree-one bases share the same pass.
    @pytest.mark.parametrize("poly", ["x - 2", "2x - 5", "2x + 3", "x + 4",
                                      "3x - 1", "5x + 2"])
    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_rational_untrimmed_equals_reference(self, poly, height):
        base = make_base(poly)
        reference = _reference(base, height).numbered()
        auto = build_zero_automaton(base, height)
        assert auto.to_json_dict() == reference.to_json_dict()

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_monic_low_degree(), height=st.integers(1, 2))
    def test_untrimmed_equals_reference_on_random_bases(self, coeffs,
                                                        height):
        try:
            base = make_base(coeffs)
            auto = build_zero_automaton(base, height, max_states=150)
            reference = DictZeroAutomaton.build(base, height, 150).numbered()
        except (InvalidPolynomialError, UnitCircleError, ResourceCapError):
            assume(False)
        assert auto.to_json_dict() == reference.to_json_dict()

    # At the default width 2^-40 the radii of the power boxes are far
    # below one grid step of any state; rectangles of width 2^-4 to 2^-8
    # make them count (x^3 + 2 at 2^-6 keeps two states fewer when the
    # imaginary radius is added to |Im| instead of subtracted).
    @pytest.mark.parametrize("poly", ["x^2 + 2x + 2", "x^3 + 2"])
    @pytest.mark.parametrize("bits", [4, 6, 8])
    def test_coarse_rectangles_equal_reference(self, poly, bits,
                                               monkeypatch):
        monkeypatch.setattr(base_module, "DEFAULT_WIDTH",
                            Fraction(1, 1 << bits))
        base = make_base(poly)
        assert base.achieved_width == Fraction(1, 1 << bits)
        reference = DictZeroAutomaton.build(base, 1).numbered()
        assert (build_zero_automaton(base, 1).to_json_dict()
                == reference.to_json_dict())

    def test_rational_state_cap_names_the_height(self):
        with pytest.raises(ResourceCapError,
                           match="state cap 2 exceeded at height 2"):
            build_zero_automaton("2x - 5", 2, max_states=2)


class TestLanguageProperty:
    """The language of Z(H), H 1-2, up to length 5 equals the exact word
    enumeration on random bases with no unit-circle conjugate."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_monic_low_degree(), height=st.integers(1, 2))
    def test_monic_language_equals_word_oracle(self, coeffs, height):
        try:
            auto = build_zero_automaton(coeffs, height, max_states=150)
        except (InvalidPolynomialError, UnitCircleError, ResourceCapError):
            assume(False)
        got = set().union(*(auto.language(n) for n in range(1, 6)))
        assert got == zero_words_monic(coeffs, height, 5)

    # alpha = p/q: expanding, contracting and negative degree-one bases,
    # whose one root is an exact point.
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(p=st.integers(-7, 7), q=st.integers(1, 5),
           height=st.integers(1, 2))
    def test_rational_language_equals_word_oracle(self, p, q, height):
        assume(p != 0 and abs(p) != q and math.gcd(p, q) == 1)
        auto = build_zero_automaton([-p, q], height)
        got = set().union(*(auto.language(n) for n in range(1, 6)))
        assert got == zero_words_rational(p, q, height, 5)


class TestOnePass:
    """One build at the base's interval width accepts the same language
    as a build after refining and as the rational Box reference: pruning
    is certified and one-sided, and trim removes every kept successor
    that cannot return to 0."""

    @settings(max_examples=25, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_monic_low_degree(), height=st.integers(1, 2))
    def test_refining_changes_no_trimmed_automaton(self, coeffs, height):
        try:
            base = make_base(coeffs)
            one_pass = build_zero_automaton(base, height, max_states=150)
        except (InvalidPolynomialError, UnitCircleError, ResourceCapError):
            assume(False)
        reference = DictZeroAutomaton.build(base, height, 150).numbered()
        assert set(reference.states) <= set(one_pass.states)
        assert (reference.trim().to_json_dict()
                == one_pass.trim().to_json_dict())
        for _ in range(3):
            base.refine()
        refined = build_zero_automaton(base, height, max_states=150)
        assert (refined.trim().to_json_dict()
                == one_pass.trim().to_json_dict())
        assert set(refined.states) <= set(one_pass.states)


@st.composite
def _small_base(draw):
    """Ascending coefficients of a monic base of degree 1-3 with small
    coefficients, or of a rational base p/q with q > 1."""
    if draw(st.integers(0, 2)):
        degree = draw(st.integers(1, 3))
        const = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        middle = draw(st.lists(st.integers(-3, 3), min_size=degree - 1,
                               max_size=degree - 1))
        return [const] + middle + [1]
    return [-draw(st.integers(-5, 5)), draw(st.integers(2, 4))]


def _small_build(coeffs, height):
    """(base, Z(height)) with at most 400 states, or the example is
    rejected: no base, a unit-circle conjugate, or too many states."""
    try:
        base = make_base(coeffs)
        return base, build_zero_automaton(base, height, max_states=400)
    except (InvalidPolynomialError, UnitCircleError, ResourceCapError):
        assume(False)


def _word(found):
    return None if found is None else found.word


class TestTable:
    """The numbered successor table is the (state, digit)-keyed dict of
    oracles.DictZeroAutomaton, numbered: the same states and sorted
    edges, untrimmed and trimmed, and the same words and counts."""

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_small_base(), height=st.integers(1, 2),
           trim=st.booleans())
    def test_table_equals_the_dict_reference(self, coeffs, height, trim):
        try:
            base = make_base(coeffs)
            auto = build_zero_automaton(base, height, max_states=150)
            reference = _reference(base, height, 150)
        except (InvalidPolynomialError, UnitCircleError, ResourceCapError):
            assume(False)
        if trim:
            auto, reference = auto.trim(), reference.trim()
        assert auto.trimmed == trim
        assert auto.states == reference.states
        assert ([tuple(e) for e in auto.to_json_dict()["transitions"]]
                == reference.edges())
        assert auto.n_edges == len(reference.transitions)
        alphabet = range(-height, height + 1)
        for n in range(6):
            words = itertools.product(alphabet, repeat=n)
            expected = reference.language(n)
            assert auto.language(n) == expected
            assert [w for w in words if auto.accepts(w)] == expected
        assert auto.count_words(8) == reference.count_words(8)


class TestShortestWord:
    """The pass that builds Z(H) finds the word that the earlier second
    breadth-first search (oracles.shortest_nonzero_word_reference) finds
    on the trimmed edges."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_small_base(), height=st.integers(1, 3))
    def test_carried_word_equals_reference(self, coeffs, height):
        _base, auto = _small_build(coeffs, height)
        trimmed = auto.trim()
        expected = shortest_nonzero_word_reference(trimmed)
        assert _word(auto.shortest_nonzero_word()) == expected
        assert _word(trimmed.shortest_nonzero_word()) == expected
        if expected is not None:
            found = auto.shortest_nonzero_word()
            assert found.value_check and expected[0] != 0
            assert found.height == max(map(abs, expected))

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_small_base(), height=st.integers(1, 3))
    def test_stopped_pass_finds_a_word_where_the_reference_does(
            self, coeffs, height):
        base, auto = _small_build(coeffs, height)
        stopped = _monic_pass(base, height, 400, stop=True)
        assert (_word(stopped[2])
                == shortest_nonzero_word_reference(auto.trim()))

    @settings(max_examples=30, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(coeffs=_small_base())
    def test_no_zero_word_below_the_bound(self, coeffs):
        # h* >= L = max(|M(0)|, lc M) for a verified minimal polynomial M:
        # below L, neither the trimmed Z(H) nor the word oracle has a
        # zero word with a nonzero digit.
        base, _auto = _small_build(coeffs, 1)
        assume(base.irreducibility == "verified")
        m = base.min_poly
        low = max(abs(m.constant_term), m.leading_coefficient)
        for h in range(1, low):
            _base, auto = _small_build(coeffs, h)
            assert shortest_nonzero_word_reference(auto.trim()) is None
            if base.degree == 1:
                words = zero_words_rational(-m.coeffs[0], m.coeffs[1], h, 4)
            else:
                words = zero_words_monic(m.coeffs, h, 5)
            assert not any(any(w) for w in words)
        try:
            report = min_height(base, max_states=400)
        except ResourceCapError:
            return
        assert report.h_star >= low
        assert report.searched[0][0] == low


MIN_HEIGHT_CASES = [
    ("x^2 - x - 1", 1, (-1, 1, 1), (1, 1, -1)),
    ("x - 2", 2, (-1, 2), (2, -1)),
    ("x^2 - 2", 2, (-1, 0, 2), (2, 0, -1)),
    ([-3, 2], 3, (-2, 3), (3, -2)),
    ("x^3 + 2", 2, (-1, 0, 0, -2), (-2, 0, 0, -1)),
]


class TestMinHeight:
    @pytest.mark.parametrize("poly,h_star,word,witness", MIN_HEIGHT_CASES)
    def test_fixtures(self, poly, h_star, word, witness):
        base = make_base(poly)
        report = min_height(base)
        assert report.h_star == h_star
        assert report.word == word
        assert report.witness == IntPolynomial(witness)
        assert report.value_check
        assert base.eval_word(report.word) == base.zero

    def test_searched_trace(self):
        # L = max(|M(0)|, lc M) = 3 is h*; the row holds the word's length
        report = min_height(make_base([-3, 2]))
        assert list(report.searched) == [(3, 2)]

    def test_witness_before_the_state_cap(self):
        # the pass stops at its first witness; a full Z(2) of x^6 + 2
        # has more than the default cap of 10^6 states
        report = min_height("x^6 + 2")
        assert (report.h_star, report.word) == (2, (-1, 0, 0, 0, 0, 0, -2))
        assert report.searched == ((2, 7),)
        assert min_height("x^5 + 2x^4 + 4x^3 + 4x^2 + 3x + 3").h_star == 3

    def test_state_cap_counts_states_before_the_witness(self):
        # L = 3 < U = 4, so the pass runs; Z(3) has more than 200,000
        # states, and its witness comes after 5,912
        quintic = "x^5 + 2x^4 + 4x^3 + 4x^2 + 3x + 3"
        with pytest.raises(ResourceCapError):
            build_zero_automaton(quintic, 3, max_states=6000)
        assert min_height(quintic, max_states=5912).h_star == 3
        with pytest.raises(ResourceCapError, match="state cap 5911"):
            min_height(quintic, max_states=5911)

    @pytest.mark.parametrize("poly", [
        "x^2 - 2", "x^3 + 2", "x^3 - x + 3", "x - 2", "3x - 2", "2x + 5",
        "x^2 + 2x + 2", "x^2 - 4x - 3", "x^2 - 3x - 2", "x^2 - 4x - 1"])
    def test_u_is_answered_by_minus_m(self, poly):
        # Once no height in [L, U) has a zero word, the shortest one at
        # U = H(M) is +-M; the pass at U, which min_height no longer runs
        # there, finds -M too.
        base = make_base(poly)
        m = base.min_poly
        report = min_height(base)
        assert report.h_star == m.height()
        assert report.witness == IntPolynomial([-c for c in m.coeffs])
        assert report.value_check
        assert report.searched[-1] == (m.height(), m.degree + 1)
        assert all(length == 0 for _h, length in report.searched[:-1])
        found = _monic_pass(base, m.height(), 10**6, stop=True)[2]
        assert found.word == report.word

    def test_division_oracle_matches_the_other_oracles(self):
        for coeffs in ([-2, 0, 1], [2, 2, 1], [2, -1, 0, 1]):
            assert (zero_words_by_division(coeffs, 2, 5)
                    == zero_words_monic(coeffs, 2, 5))
        assert (zero_words_by_division([-3, 2], 3, 4)
                == zero_words_rational(3, 2, 3, 4))

    @pytest.mark.parametrize("poly, h_star, word", [
        ("2x^2 - 3", 3, (-2, 0, 3)), ("2x^2 - 1", 2, (-2, 0, 1))])
    def test_non_monic_with_l_equal_to_u(self, poly, h_star, word):
        # L = max(|M(0)|, lc M) = H(M): no pass runs, so the base needs
        # no Z[alpha] arithmetic
        report = min_height(poly)
        assert (report.h_star, report.word) == (h_star, word)
        assert report.witness == IntPolynomial(tuple(reversed(word)))
        assert report.value_check
        assert report.searched == ((h_star, 3),)
        coeffs = make_base(poly).min_poly.coeffs
        assert word in zero_words_by_division(coeffs, h_star, 3)
        below = zero_words_by_division(coeffs, h_star - 1, 5)
        assert not any(any(w) for w in below)
        for h_max in (0, h_star - 1):
            with pytest.raises(ResourceCapError, match="height cap"):
                min_height(poly, h_max)

    @pytest.mark.parametrize("poly, h_star", [
        ("x^2 + x + 1", 1), ("x^4 - x^3 - x^2 - x + 1", 1), ("x^2 + 1", 1),
        ("x + 1", 1), ("2x^2 + x + 2", 2)])
    def test_unit_circle_with_l_equal_to_u(self, poly, h_star):
        # L = max(|M(0)|, lc M) = H(M): -M answers with no pass, so a
        # unit-circle conjugate (a root of unity, a Salem number, or
        # roots of modulus 1 that are neither) refuses nothing here
        base = make_base(poly)
        m = base.min_poly
        assert base.n_unit > 0
        report = min_height(base)
        assert report.h_star == h_star
        assert report.witness == IntPolynomial([-c for c in m.coeffs])
        assert report.value_check
        assert report.searched == ((h_star, m.degree + 1),)
        with pytest.raises(UnitCircleError):
            build_zero_automaton(base, h_star)

    def test_roots_of_unity_up_to_30(self):
        # Phi_n has coefficients in {-1, 0, 1} for n < 105, so L = U = 1
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for n in range(1, 31):
            coeffs = [int(c) for c in reversed(
                sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs())]
            report = min_height(coeffs)
            assert report.h_star == 1, n
            assert report.witness == IntPolynomial([-c for c in coeffs]), n
            assert report.value_check, n

    @pytest.mark.parametrize("h_max", [0, 1, None])
    def test_support_is_checked_before_any_height(self, h_max):
        # L = 2 for 2x^2 - 3x + 2; its roots lie on the unit circle
        with pytest.raises(UnitCircleError):
            min_height("2x^2 - 3x + 2", h_max)
        with pytest.raises(UnsupportedBaseError):
            min_height("2x^2 - 4x + 3", h_max)

    def test_cap_exhausted(self):
        with pytest.raises(ResourceCapError):
            min_height("x - 2", h_max=1)

    def test_default_cap_always_succeeds(self):
        # the minimal polynomial itself is a zero word at its own height
        for poly in ("x^2 + 3x + 3", "x^3 + 2", "x^2 - 3"):
            report = min_height(poly)
            assert report.h_star <= make_base(poly).min_poly.height()
