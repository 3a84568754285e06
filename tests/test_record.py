"""The value types built on algdigits.record.Record behave as the frozen
dataclasses they replace: construction by position or keyword, equality
and hashing on the exact type and field tuple, no assignment, and the
dataclass repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from algdigits import (CardBounds, Cycle, ExpansionRecord, F2Analysis,
                       F2Verdict, FIndexReport, HeightReduction,
                       IntPolynomial, MinHeightReport, SweepRow, Terminated,
                       Truncated, WordSearchResult, digit_set_rational,
                       make_base, periodic_points)
from algdigits.intervals import Box, Interval

# (positional construction, the same by keyword, its repr)
CASES = [
    (Interval(1, 2), Interval(lo=1, hi=2), "[1, 2]"),
    (Box(Interval(1, 2), Interval(0, 0)),
     Box(re=Interval(1, 2), im=Interval(0, 0)), "Box(re=[1, 2], im=[0, 0])"),
    (IntPolynomial((1, 2, 0)), IntPolynomial(coeffs=[1, 2]),
     "IntPolynomial(coeffs=(1, 2))"),
    (CardBounds(2, 3), CardBounds(upper=3, lower=2),
     "CardBounds(lower=2, upper=3)"),
    (F2Analysis(F2Verdict.IN_F2, "r", (0, 1)),
     F2Analysis(verdict=F2Verdict.IN_F2, reason="r", witness_digits=(0, 1)),
     "F2Analysis(verdict=<F2Verdict.IN_F2: 'InF2'>, reason='r', "
     "witness_digits=(0, 1))"),
    (FIndexReport(2, None, None, ()),
     FIndexReport(lower=2, upper=None, exact=None, certificates=()),
     "FIndexReport(lower=2, upper=None, exact=None, certificates=())"),
    (SweepRow(1, 2, True, False),
     SweepRow(a1=1, a2=2, criterion=True, brute_force=False),
     "SweepRow(a1=1, a2=2, criterion=True, brute_force=False)"),
    (Terminated(), Terminated(), "Terminated()"),
    (Cycle(0, (1, 2)), Cycle(entry=0, elements=(1, 2)),
     "Cycle(entry=0, elements=(1, 2))"),
    (Truncated(5), Truncated(steps=5), "Truncated(steps=5)"),
    (ExpansionRecord(7, (1,), (7, 3), Terminated()),
     ExpansionRecord(start=7, digits=(1,), states=(7, 3),
                     tail=Terminated()),
     "ExpansionRecord(start=7, digits=(1,), states=(7, 3), "
     "tail=Terminated())"),
    (HeightReduction(frozenset({1}), 2, 1),
     HeightReduction(values=frozenset({1}), cardinality_bound=2,
                     expansion_degree=1),
     "HeightReduction(values=frozenset({1}), cardinality_bound=2, "
     "expansion_degree=1)"),
    (WordSearchResult((1, 0, -2), 2, True),
     WordSearchResult(word=(1, 0, -2), height=2, value_check=True),
     "WordSearchResult(word=(1, 0, -2), height=2, value_check=True)"),
    (MinHeightReport(1, (1, -2), IntPolynomial((-2, 1)), True, ((1, 3),)),
     MinHeightReport(h_star=1, word=(1, -2), witness=IntPolynomial((-2, 1)),
                     value_check=True, searched=((1, 3),)),
     "MinHeightReport(h_star=1, word=(1, -2), "
     "witness=IntPolynomial(coeffs=(-2, 1)), value_check=True, "
     "searched=((1, 3),))"),
]


@pytest.mark.parametrize("positional, keyword, text", CASES,
                         ids=[type(c[0]).__name__ for c in CASES])
class TestValueTypes:
    def test_keyword_construction_equals_positional(self, positional,
                                                    keyword, text):
        assert positional == keyword
        assert hash(positional) == hash(keyword)

    def test_repr_is_unchanged(self, positional, keyword, text):
        assert repr(positional) == text

    def test_assignment_raises(self, positional, keyword, text):
        names = [n for n in dir(positional) if not n.startswith("_")]
        for name in names + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(positional, name, 0)
        assert repr(positional) == text

    def test_copy_and_pickle_round_trip(self, positional, keyword, text):
        assert copy.copy(positional) == positional
        assert pickle.loads(pickle.dumps(positional)) == positional


def test_default_field():
    f2 = F2Analysis(F2Verdict.IN_F2, "roots of unity")
    assert f2.witness_digits is None
    assert f2 == F2Analysis(F2Verdict.IN_F2, "roots of unity", None)


def test_hash_is_the_field_tuple_hash():
    # The dataclass hash, so sets and dicts of these keep their order.
    assert hash(Interval(1, 2)) == hash((Fraction(1), Fraction(2)))
    assert hash(IntPolynomial((1, 2))) == hash(((1, 2),))
    assert hash(Terminated()) == hash(())


def test_equality_needs_the_exact_type():
    assert Truncated(3) != Cycle(3, ())
    assert CardBounds(2, 3) != (2, 3)
    assert Truncated(3) != Truncated(4)
    assert len({Interval(0, 1), Interval(0, 1), Interval(0, 2)}) == 2


def test_normalising_constructors():
    assert Interval(1, Fraction(3, 2)).lo == Fraction(1)
    assert type(Interval(1, 2).hi) is Fraction
    with pytest.raises(ValueError, match="out of order"):
        Interval(2, 1)
    assert IntPolynomial((3, 0, 0)).coeffs == (3,)


@pytest.mark.parametrize("args, kwargs", [
    ((1, 2, 3), {}), ((1,), {}), ((1,), {"lower": 2}), ((), {"upper": 1}),
    ((1, 2), {"bogus": 0}),
])
def test_bad_construction_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        CardBounds(*args, **kwargs)


def test_library_results_are_records():
    pset = periodic_points(make_base("x+2"))
    assert pset == periodic_points(make_base("x+2"))
    assert hash(pset) == hash(periodic_points(make_base("x+2")))
    with pytest.raises(AttributeError):
        pset.elements = ()


def test_rational_digit_set_is_a_plain_mutable_class():
    ds = digit_set_rational(5, 2)
    assert repr(ds) == ("RationalDigitSet(a=5, b=2, "
                        "regime=<Regime.POSITIVE_B: 'positive-b'>, "
                        "digits=(-2, 0, 1, 2, 4), shifted=(-2, 3))")
    assert 4 in ds and 3 not in ds and len(ds) == 5
    assert ds != digit_set_rational(5, 2)  # compared by identity
    ds.a = 7
    assert ds.a == 7
