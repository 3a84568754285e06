"""errors.read_int is the one rule for an integer that a library caller
passes: an __index__ type other than bool.  Every entry point that turns
such a value into an integer refuses a float, a Fraction, a bool, a text
or None with its own error type and words, and accepts numpy.int64."""

import re
from fractions import Fraction

import numpy
import pytest

from algdigits import (AdditionTransducer, DigitSetError, IntPolynomial,
                       PolynomialSyntaxError, digit_set_rational,
                       height_reduce, make_base, transduce)
from algdigits.errors import read_int

GAUSS = make_base("x^2+2")

REDUNDANT_3_2 = AdditionTransducer(digit_set_rational(3, 2))

# name -> (call with one entry, an integer entry it accepts, error type,
# message with {} for the entry)
SITES = {
    "IntPolynomial": (lambda v: IntPolynomial((v, 1)), 2,
                      PolynomialSyntaxError,
                      "coefficient {} is not an integer"),
    "coordinate": (lambda v: GAUSS.element((v, 0)), 2,
                   ValueError, "coordinate {} is not an integer"),
    "height_reduce": (lambda v: height_reduce(GAUSS, [(1, (v,)), (0, (0,))]),
                      1, DigitSetError,
                      "representation entry {} is not an integer"),
    "rational digits": (lambda v: digit_set_rational(5, 2, [v, 1, 2, 3, 4]),
                        0, DigitSetError,
                        "rational digit {} is not an integer"),
    "transduce": (lambda v: transduce(REDUNDANT_3_2, 2, (v, 0)), 1,
                  DigitSetError, "{} is not a digit of the set"),
}
# Over x^2+2 a coordinate may be a Fraction, but only one whose
# denominator divides a power of the leading coefficient 1.
FRACTION_COORDINATE = ("coordinate 5/2 is not in Z[alpha]: its denominator "
                       "has a prime factor outside 1")


@pytest.mark.parametrize("value", [1.9, Fraction(5, 2), True, "3", None],
                         ids=repr)
@pytest.mark.parametrize("site", SITES)
def test_every_site_refuses_a_non_integer(site, value):
    call, _valid, error, message = SITES[site]
    if site == "coordinate" and isinstance(value, Fraction):
        message = FRACTION_COORDINATE
    else:
        message = message.format(repr(value))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


@pytest.mark.parametrize("a, b", [(5, 2), (5, -2), (3, 2)])
def test_numpy_integers_are_rational_digits(a, b):
    ds = digit_set_rational(a, b)
    for d in range(-2 * a, 2 * a):
        assert (numpy.int64(d) in ds) == (d in ds)


@pytest.mark.parametrize("site", SITES)
def test_every_site_accepts_numpy_integers(site):
    call, valid, _error, _message = SITES[site]
    assert call(numpy.int64(valid)) == call(valid)


@pytest.mark.parametrize("start, expected", [(2, (-2, 1, 2)), (0, (1, 4))])
def test_transduce_emits_ints_from_numpy_digits(start, expected):
    transducer = AdditionTransducer(digit_set_rational(5, 2))
    word = transduce(transducer, start, (numpy.int64(1), numpy.int64(4)))
    assert word == expected and all(type(d) is int for d in word)


def test_a_numpy_coordinate_becomes_an_int():
    element = GAUSS.element((numpy.int64(1), numpy.int64(2)))
    assert element == (1, 2) and all(type(c) is int for c in element)


def test_read_int():
    assert read_int(numpy.int64(-7), "x") == -7
    assert read_int(2**200, "x") == 2**200
    with pytest.raises(KeyError, match="entry False is not an integer"):
        read_int(False, "entry", KeyError)
    with pytest.raises(ValueError, match=r"^x \(a text of 5002 characters\)"):
        read_int("9" * 5000, "x")
