"""The automaton recognizing digit words that evaluate to zero, and the
minimal-height search built on it."""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from algdigits import (
    AlgebraicBase,
    IntPolynomial,
    InvalidPolynomialError,
    ResourceCapError,
    UnitCircleError,
    UnsupportedBaseError,
    build_zero_automaton,
    make_base,
    min_height,
)
from algdigits.zero_automaton import ZeroAutomaton

from oracles import (growth_rate_dense, zero_automaton_reference,
                     zero_words_monic, zero_words_rational)


def _reference(base: AlgebraicBase, height: int,
               max_states: int = 10**6) -> ZeroAutomaton:
    states, transitions, level = zero_automaton_reference(base, height,
                                                          max_states)
    return ZeroAutomaton(base, height, states, transitions, level, False)


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
        assert auto.states == (0,)
        assert not auto.has_nontrivial_word()
        assert auto.shortest_nonzero_word() is None

    def test_h2_shortest(self):
        auto = build_zero_automaton("x - 2", 2)
        assert auto.accepts((1, -2))
        assert auto.accepts(())
        assert not auto.accepts((1, -1))
        found = auto.shortest_nonzero_word()
        assert found.word == (-1, 2)
        assert found.height == 2
        assert found.value_check

    def test_accepts_lsb(self):
        auto = build_zero_automaton("x - 2", 2)
        assert auto.accepts_lsb((-2, 1))
        assert auto.accepts_lsb((2, -1, 0))
        assert not auto.accepts_lsb((1, -2))


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
        by_length = [auto.count_words(n) for n in range(1, max_len + 1)]
        assert sum(by_length) == total


class TestStructure:
    def test_levels(self):
        auto = build_zero_automaton("x^2 + 2x + 2", 2)
        assert auto.level[auto.zero] == 1
        for (y, _d), z in auto.transitions.items():
            assert auto.level[z] <= auto.level[y] + 1

    def test_trim_idempotent(self):
        auto = build_zero_automaton("x - 2", 2).trim()
        again = auto.trim()
        assert again.states == auto.states
        assert again.transitions == auto.transitions

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
        # Edges in state order, then digit order: the text of the former
        # sort by states.index(...), a linear search per edge.
        auto = build_zero_automaton("x^3 + 2", 2)
        assert auto.n_states == 557

        def label(s):
            return "(" + ",".join(map(str, s)) + ")"

        edges = sorted(auto.transitions.items(),
                       key=lambda item: (auto.states.index(item[0][0]),
                                         item[0][1]))
        expected = "\n".join(
            ["digraph zero {", "  rankdir=LR;", "  node [shape=circle];",
             f'  "{label(auto.zero)}" [shape=doublecircle];']
            + [f'  "{label(y)}" -> "{label(z)}" [label="{d}"];'
               for (y, d), z in edges]
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

    def test_jobs_deterministic(self):
        lone = build_zero_automaton("x^2 + 2x + 2", 2)
        many = build_zero_automaton("x^2 + 2x + 2", 2)
        assert lone.states == many.states
        assert lone.transitions == many.transitions
        assert lone.level == many.level


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
        assert (build_zero_automaton(base, height).to_json_dict()
                == _reference(base, height).to_json_dict())


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
        reference = _reference(base, height, max_states=150)
        assert set(reference.states) <= set(one_pass.states)
        assert (reference.trim().to_json_dict()
                == one_pass.trim().to_json_dict())
        for _ in range(3):
            base.refine()
        refined = build_zero_automaton(base, height, max_states=150)
        assert (refined.trim().to_json_dict()
                == one_pass.trim().to_json_dict())
        assert set(refined.states) <= set(one_pass.states)


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
        report = min_height(make_base([-3, 2]))
        assert [h for h, _n in report.searched] == [1, 2, 3]
        assert [n == 0 for _h, n in report.searched] == [True, True, False]

    def test_cap_exhausted(self):
        with pytest.raises(ResourceCapError):
            min_height("x - 2", h_max=1)

    def test_default_cap_always_succeeds(self):
        # the minimal polynomial itself is a zero word at its own height
        for poly in ("x^2 + 3x + 3", "x^3 + 2", "x^2 - 3"):
            report = min_height(poly)
            assert report.h_star <= make_base(poly).min_poly.height()
