"""Rational-base digit sets, integer expansions, and the carry
transducer."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdigits import (
    AdditionTransducer,
    DigitSet,
    DigitSetError,
    Regime,
    ResourceCapError,
    Terminated,
    digit_set_rational,
    expand_all,
    expand_int,
    make_base,
    transduce,
    validate_crs,
    value_of,
    rational,
    verify_digit_properties,
)
from algdigits.cli import main


DS52 = digit_set_rational(5, 2)
DS3M2 = digit_set_rational(3, -2)
DS32 = digit_set_rational(3, 2)
DS73 = digit_set_rational(7, 3)


class TestConstruction:
    def test_positive_regime(self):
        assert DS52.regime is Regime.POSITIVE_B
        assert DS52.digits == (-2, 0, 1, 2, 4)
        assert DS52.table.digits == ((0,), (1,), (2,), (-2,), (4,))
        assert list(DS52) == [-2, 0, 1, 2, 4] and len(DS52) == 5
        assert DS73.digits == (-3, 0, 1, 2, 3, 5, 6)
        assert DS73.table.digits[4] == (-3,)
        assert DS73.table.base == make_base("3x - 7")

    def test_negative_regime(self):
        assert DS3M2.regime is Regime.NEGATIVE_B
        assert DS3M2.digits == (0, 1, 2)

    def test_redundant_regime(self):
        assert DS32.regime is Regime.REDUNDANT
        assert DS32.digits == (-2, -1, 0, 1, 2) and len(DS32) == 5
        # the canonical table of the mirror base 3/-2
        assert DS32.table.digits == ((0,), (1,), (2,))
        assert DS32.table.base == make_base("2x + 3")

    def test_explicit_digits(self):
        # the canonical digits in any order are the canonical set
        assert digit_set_rational(3, 2, [2, 1, 0, -1, -2]).regime \
            is Regime.REDUNDANT
        custom = digit_set_rational(3, -2, [5, 0, 1])
        assert custom.regime is Regime.NEGATIVE_B
        assert custom.digits == (0, 1, 5)
        for bad in ([0, 1], [0, 1, 4], [0, 1, 2.0], [0, 1, True],
                    [(0,), (1,), (2,)]):
            with pytest.raises(DigitSetError):
                digit_set_rational(3, -2, bad)
        # too few digits past the canonical cap: a bad set, not the cap
        with pytest.raises(DigitSetError, match="need exactly 10000019"):
            digit_set_rational(10000019, 2, [0, 1])

    def test_rejections(self):
        with pytest.raises(DigitSetError):
            digit_set_rational(3, 0)
        with pytest.raises(DigitSetError):
            digit_set_rational(2, 3)
        with pytest.raises(DigitSetError):
            digit_set_rational(2, -2)
        with pytest.raises(DigitSetError):
            digit_set_rational(6, 3)
        # the redundant set has 2a - 1 digits, past the cap though a is not
        with pytest.raises(ResourceCapError, match="has 10000001 digits"):
            digit_set_rational(5000001, 5000000)


class TestProperties:
    def test_positive_all_hold(self):
        for ds in (DS52, DS73):
            props = verify_digit_properties(ds)
            assert props == {"crs": True, "plus_b": True,
                             "minus_b": True, "pm_b": True}

    def test_negative_lacks_pm(self):
        props = verify_digit_properties(DS3M2)
        assert props["crs"] and props["plus_b"] and props["minus_b"]
        assert not props["pm_b"]

    def test_redundant(self):
        props = verify_digit_properties(DS32)
        assert not props["crs"]
        assert props["plus_b"] and props["minus_b"] and props["pm_b"]

    def test_every_canonical_set_up_to_40(self):
        """The table of every canonical set with a <= 40 against its
        references: the rule's digits, the table validate_crs builds
        from them (the mirror base's canonical table for the redundant
        set), membership read from the digits, and the carry
        properties."""
        for a in range(2, 41):
            for b in range(-a + 1, a):
                if b == 0 or math.gcd(a, b) != 1:
                    continue
                ds = digit_set_rational(a, b)
                props = verify_digit_properties(ds)
                assert props["plus_b"] and props["minus_b"], (a, b)
                digits = set(ds.digits)
                assert all((d in ds) == (d in digits)
                           for d in range(-2 * a, 2 * a + 1)), (a, b)
                if ds.regime is Regime.REDUNDANT:
                    assert b == a - 1 and not props["crs"]
                    assert ds.digits == tuple(range(-(a - 1), a))
                    assert ds.table == DigitSet.canonical(
                        make_base([-a, -b]))
                    continue
                assert props["crs"] and (b < 0 or props["pm_b"]), (a, b)
                # the rule: r, or r - a at each nonzero multiple of a - b
                assert ds.digits == tuple(sorted(
                    r - a if r and r % (a - b) == 0 else r
                    for r in range(a))), (a, b)
                assert ds.table == validate_crs(make_base([-a, b]),
                                                ds.digits), (a, b)


@st.composite
def _rational_base(draw):
    a = draw(st.integers(2, 12))
    b = draw(st.sampled_from([v for v in range(1 - a, a)
                              if v and math.gcd(a, v) == 1]))
    return a, b


class TestValueHelpers:
    def test_value_of(self):
        assert value_of((1, 2), Fraction(3, 2)) == 4
        assert value_of((), Fraction(5, 2)) == 0
        assert value_of((2, 2), Fraction(5, 2)) == 7

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(ab=_rational_base(), data=st.data())
    def test_value_of_is_horner_over_the_base(self, ab, data):
        # The LSB-first word read most significant digit first by the
        # base's own Horner evaluation.
        a, b = ab
        word = data.draw(st.lists(st.integers(1 - 2 * a, 2 * a - 1),
                                  max_size=30))
        assert (value_of(word, Fraction(a, b)),) == make_base(
            [-a, b]).eval_word(reversed(word))


class TestExpandInt:
    def test_fixture(self):
        assert expand_int(DS52, 7) == (2, 2)
        assert expand_int(DS52, 0) == ()

    def test_values_roundtrip(self):
        for ds in (DS52, DS3M2, DS73):
            for k in range(-40, 41):
                word = expand_int(ds, k)
                assert all(d in ds for d in word)
                assert value_of(word, ds.alpha) == k

    def test_redundant_roundtrip(self):
        for k in range(-40, 41):
            word = expand_int(DS32, k)
            assert all(d in DS32 for d in word)
            assert value_of(word, Fraction(3, 2)) == k

    @pytest.mark.parametrize("a", range(2, 13))
    def test_redundant_words_take_the_mirror_signs(self, a):
        # A redundant word is the mirror record's digits over a/-(a-1)
        # with every odd position negated; it evaluates back over a/b.
        ds = digit_set_rational(a, a - 1)
        mirror = digit_set_rational(a, 1 - a)
        for k in range(-300, 301):
            word = expand_int(ds, k)
            assert value_of(word, ds.alpha) == k, (a, k)
            assert all(d in ds for d in word)
            assert [(-1) ** j * d for j, d in enumerate(word)] == list(
                expand_int(mirror, k)), (a, k)

    def test_cycle_names_the_cycle(self):
        # {0, 1, 5} is a residue system mod 3, but over -3/2 the orbit
        # of 7 runs 7 -> -4 -> 6 -> -4 and never reaches 0
        handmade = digit_set_rational(3, -2, [0, 1, 5])
        with pytest.raises(DigitSetError, match=r"7 .*\[-4, 6\]"):
            expand_int(handmade, 7)
        assert expand_int(handmade, 5) == (5,)
        with pytest.raises(DigitSetError, match=r"\[2\]"):
            expand_int(handmade, 2)  # 2 = 5 + (-3/2) * 2, a fixed point

    def test_first_zero_state_ends_the_word(self):
        # without the digit 0 the orbit goes on from 0 (0 -> 1 -> 0);
        # the expansion is the prefix before the first state 0
        no_zero = digit_set_rational(2, -1, [1, 2])
        assert expand_int(no_zero, 1) == (1,)
        assert expand_int(no_zero, 0) == ()
        for k in range(-20, 21):
            word = expand_int(no_zero, k)
            assert value_of(word, Fraction(-2)) == k

    def test_step_cap(self):
        assert expand_int(DS52, 7, max_steps=2) == (2, 2)
        with pytest.raises(ResourceCapError, match="exceeded 1 steps"):
            expand_int(DS52, 7, max_steps=1)
        with pytest.raises(ResourceCapError):
            expand_int(DS32, 10**6, max_steps=5)


class TestOneEngine:
    """Every rational-base expansion is a digits.orbit record; the
    redundant regime's is the sign-alternated record of the mirror base
    a/-b."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ab=_rational_base(), k=st.integers(-10**30 + 1, 10**30 - 1))
    def test_expansions_replay(self, ab, k):
        a, b = ab
        ds = digit_set_rational(a, b)
        word = expand_int(ds, k)
        assert all(d in ds for d in word)
        assert value_of(word, ds.alpha) == k
        base = make_base([-a, b])
        for record in expand_all(a, b, k_range=(k // b, -7, 0, 11)):
            assert record.terminated
            assert record.replay(base)
            assert all(d in ds for (d,) in record.digits)


class TestTransducer:
    def test_states(self):
        t = AdditionTransducer(DS52)
        assert t.states == (2, -2, 0)

    def test_step_errors(self):
        t = AdditionTransducer(DS52)
        with pytest.raises(DigitSetError):
            t.step(0, 3)       # 3 is a shifted-out digit
        with pytest.raises(DigitSetError):
            t.step(5, 0)
        with pytest.raises(DigitSetError,
                           match="left the digit set at digit 10"):
            t.step(2, 10)      # 10 is no digit: 12 - 5 = 7 is none either

    def test_fixture_negative_b(self):
        t = AdditionTransducer(DS3M2)
        assert transduce(t, DS3M2.b, (0,)) == (1, 2)
        assert value_of((1, 2), Fraction(-3, 2)) == -2

    def test_copy_through(self):
        t = AdditionTransducer(DS52)
        word = (2, 4, -2)
        assert transduce(t, 0, word) == word

    def test_bad_start(self):
        t = AdditionTransducer(DS52)
        with pytest.raises(DigitSetError):
            transduce(t, 5, (0,))

    @pytest.mark.parametrize("start", [2, -2, 0])
    def test_non_digit_input_rejected_at_every_carry(self, start):
        # 3 is a shifted-out digit of 5/2.  From carry 2, step alone would
        # take it, since 3 + 2 - 5 = 0 is a digit.
        t = AdditionTransducer(DS52)
        for word in ((3,), (1, 3, 0)):
            with pytest.raises(DigitSetError,
                               match="^3 is not a digit of the set$"):
                transduce(t, start, word)

    @pytest.mark.parametrize("ds", [DS52, DS3M2, DS32],
                             ids=["5/2", "-3/2", "3/2"])
    def test_non_integers_are_no_digits(self, ds):
        # membership reads the table by residue, which only an int has;
        # a text symbol raised TypeError while its message was written
        t = AdditionTransducer(ds)
        for d in (2.5, 2.0, Fraction(1, 2), "1"):
            assert d not in ds
            with pytest.raises(DigitSetError, match="is not a digit"):
                transduce(t, 0, (d,))
        with pytest.raises(DigitSetError,
                           match=r"^'1' is not a digit of the set$"):
            transduce(t, 0, ("1",))
        with pytest.raises(DigitSetError,
                           match=r"^\(a text of 5002 characters\) is not"):
            transduce(t, 0, ("9" * 5000,))

    def test_flush_cap_names_its_limit(self, monkeypatch):
        t = AdditionTransducer(DS52)
        monkeypatch.setattr(rational, "MAX_FLUSH", 0)
        with pytest.raises(ResourceCapError,
                           match="within max_flush=0 zero digits; "
                                 "carry 2 remains"):
            transduce(t, 2, ())

    def test_unclosed_set_rejected(self):
        # {0, 1, 5} is a CRS mod 3 but 1 + b = -1 has no correction in it
        handmade = digit_set_rational(3, -2, [0, 1, 5])
        with pytest.raises(DigitSetError):
            AdditionTransducer(handmade)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ab=_rational_base(), data=st.data())
    def test_output_value_matches_value_of(self, ab, data):
        # a/b over all three regimes: from carry c the output is a word
        # over the same digits whose value is the input's plus c.
        ds = digit_set_rational(*ab)
        word = data.draw(st.lists(st.sampled_from(ds.digits), max_size=12))
        t = AdditionTransducer(ds)
        for start in t.states:
            out = transduce(t, start, word)
            assert all(d in ds for d in out)
            assert value_of(out, ds.alpha) == value_of(word, ds.alpha) + start

    def test_add_subtract_random(self):
        rng = random.Random(7)
        for ds in (DS52, DS3M2, DS73):
            t = AdditionTransducer(ds)
            for _ in range(200):
                word = tuple(rng.choice(ds.digits)
                             for _ in range(rng.randrange(0, 12)))
                v = value_of(word, ds.alpha)
                # The carry flushes within two zero digits.
                added = transduce(t, ds.b, word)
                assert value_of(added, ds.alpha) == v + ds.b
                assert len(added) <= len(word) + 2
                subbed = transduce(t, -ds.b, word)
                assert value_of(subbed, ds.alpha) == v - ds.b
                assert len(subbed) <= len(word) + 2

    def test_transitions_export(self):
        t = AdditionTransducer(DS3M2)
        rows = t.transitions()
        assert len(rows) == 9
        assert (0, 1, 1, 0) in rows
        dot = t.to_dot()
        assert dot.startswith("digraph") and '"0" -> "0"' in dot


class TestExpandAll:
    def test_canonical_positive(self):
        records = expand_all(5, 2)
        assert len(records) == 21
        base = make_base([-5, 2])
        for k, rec in zip(range(-10, 11), records):
            assert rec.start == (Fraction(2 * k),)
            assert rec.terminated
            assert rec.replay(base)

    def test_redundant_records(self):
        records = expand_all(3, 2)
        base = make_base([-3, 2])
        for k, rec in zip(range(-10, 11), records):
            assert isinstance(rec.tail, Terminated)
            assert rec.start == (Fraction(2 * k),)
            assert rec.replay(base)
            assert value_of([d for (d,) in rec.digits],
                            Fraction(3, 2)) == 2 * k
        # the same record with the canonical digits in another order
        shuffled = expand_all(3, 2, [0, 1, -1, 2, -2])
        assert [r.states for r in shuffled] == [r.states for r in records]

    def test_explicit_digits(self):
        records = expand_all(3, -2, [0, 1, 5], k_range=range(-3, 4))
        base = make_base("2x + 3")  # alpha = -3/2
        assert len(records) == 7
        for rec in records:
            assert rec.replay(base)

    def test_digit_set_object(self):
        records = expand_all(7, 3, DS73, k_range=range(0, 5))
        for k, rec in zip(range(0, 5), records):
            assert rec.terminated
            assert value_of([d for (d,) in rec.digits],
                            Fraction(7, 3)) == 3 * k


class TestTableBuilds:
    """A digit set builds its one residue table where it is built: the
    residue-system regimes from the rule or by validating explicit
    digits once, the redundant set as the canonical table of the mirror
    base a/-b.  An expansion builds no base and no table."""

    @pytest.mark.parametrize("b, digits", [
        (2, None), (-2, None), (1008, None),
        (-2, [-1] + list(range(1008)))])  # explicit, not 0..1008
    def test_one_table_per_digit_set(self, b, digits, monkeypatch, capsys):
        builds = {"validate_crs": 0, "make_base": 0, "canonical": 0}

        def counting(name, original):
            def wrapper(*args):
                builds[name] += 1
                return original(*args)
            return wrapper

        for name in ("validate_crs", "make_base"):
            monkeypatch.setattr(rational, name,
                                counting(name, getattr(rational, name)))
        monkeypatch.setattr(DigitSet, "canonical", classmethod(counting(
            "canonical", DigitSet.canonical.__func__)))
        ds = digit_set_rational(1009, b, digits)
        redundant = 1 if ds.regime is Regime.REDUNDANT else 0
        one_set = {"validate_crs": 1 if digits else 0, "make_base": 1,
                   "canonical": redundant}
        assert builds == one_set
        records = expand_all(1009, b, ds)
        assert len(records) == 21 and all(r.replay(make_base([-1009, b]))
                                          for r in records)
        assert all(value_of(expand_int(ds, k), ds.alpha) == k
                   for k in (1, 2, 3))
        assert builds == one_set
        argv = ["rational", f"--base={Fraction(1009, b)}", "expand", "1",
                "2", "3"]
        if digits:
            argv[2:2] = ["--digits=" + ",".join(map(str, digits))]
        builds.update(validate_crs=0, make_base=0, canonical=0)
        assert main(argv) == 0
        assert capsys.readouterr().out.count('"check": true') == 3
        assert builds == one_set
