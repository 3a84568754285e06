"""Exception types shared by the whole package, and the one rule for
integers: read_int reads one a caller passes, read_decimal one in text,
write_decimal writes one into a message, and printable_check refuses a
computed one it cannot print.  write_text quotes an input into a message.

Precondition failures subclass ValueError so they behave naturally for
library users; the CLI maps them to exit code 2.  Resource-cap and
precision failures are RuntimeErrors and map to exit code 3.
"""

import sys
from operator import index


class AlgdigitsError(Exception):
    """Base class for every error raised by this package."""


class PolynomialSyntaxError(AlgdigitsError, ValueError):
    """The polynomial text could not be parsed."""


class InvalidPolynomialError(AlgdigitsError, ValueError):
    """The polynomial cannot serve as a minimal polynomial.

    Raised for the zero/constant polynomial, a zero constant term,
    non-primitive coefficients, a squarefree failure, or a polynomial
    that factors over Z.
    """


class UnsupportedBaseError(AlgdigitsError, ValueError):
    """The base is outside the supported classes for this operation."""


class UnitCircleError(UnsupportedBaseError):
    """The base has a conjugate of modulus one, which this operation
    cannot handle (membership of the boundary cases is undecidable by
    the pruning argument used here)."""


class DigitSetError(AlgdigitsError, ValueError):
    """A candidate digit set is not a complete residue system."""


class PrecisionError(AlgdigitsError, RuntimeError):
    """Interval refinement hit its precision cap without resolving a
    comparison."""


class ResourceCapError(AlgdigitsError, RuntimeError):
    """A configured enumeration/state/step cap was exceeded."""


# The default caps, shared by the library and the CLI.  They live here,
# not in their layers, so that the CLI parser reads them without loading
# a layer.
DEFAULT_CANDIDATE_CAP = 10**7     # periodic-point candidates (digits)
DEFAULT_MAX_STATES = 1_000_000    # states of Z(H) (zero_automaton)
DEFAULT_ORBIT_STEPS = 10_000      # steps of digits.orbit
DEFAULT_RATIONAL_STEPS = 10**6    # steps of rational.expand_int
MAX_DEGREE = 256                  # degree of a parsed polynomial (fixed)


def read_int(value, what: str, error=ValueError) -> int:
    """index(value) for an __index__ type other than bool, else error."""
    if type(value) is bool or not hasattr(type(value), "__index__"):
        raise error(f"{what} {write_text(value)} is not an integer")
    return index(value)


def read_decimal(text: str, what: str) -> int:
    """int(text), or, when that fails on more digits than the int-to-str
    limit, a ResourceCapError naming what, the digit count and the limit."""
    try:
        return int(text)
    except ValueError:
        digits = sum(c.isdecimal() for c in text)
        limit = sys.get_int_max_str_digits()
        if not 0 < limit < digits:
            raise
    raise ResourceCapError(f"{what} of {digits} decimal digits exceeds the "
                           f"limit of {limit} decimal digits for int-to-str "
                           "conversion")


def write_decimal(n: int) -> str:
    """n in decimal for a message, or, past 100 digits (the int-to-str
    limit is never below 640), "(an integer of B bits)"."""
    if abs(n) < 10**100:
        return str(n)
    return f"{'-' * (n < 0)}(an integer of {n.bit_length()} bits)"


def write_text(value, quote=repr) -> str:
    """quote(value) for a message, or, past 100 characters, "(a text of N
    characters)", N the length of quote(value): a long input is named by
    its length, not echoed."""
    text = quote(value)
    return text if len(text) <= 100 else f"(a text of {len(text)} characters)"


def printable_check(what: str, at: str):
    """check(n, k) raises ResourceCapError, naming what, at k, N and the
    bits of n, once n >= 0 reaches 10^N for the int-to-str limit N > 0 read
    now; it builds 10^N only past 2^floor(3.3219 N), which lies below it."""
    limit = sys.get_int_max_str_digits()
    low = 1 << limit * 33219 // 10000
    def check(n: int, k: int) -> None:
        if n >= low and n >= 10**limit > 1:
            raise ResourceCapError(
                f"{what} reaches the limit of {limit} decimal digits for "
                f"int-to-str conversion at {at} {k}, with {n.bit_length()} bits")
    return check
