"""Digit sets and addition transducers for rational bases a/b with
a > |b| >= 1 and gcd(a, b) = 1.

The canonical digits are {0, ..., a-1} with each nonzero multiple of
a-b moved down by a (to k(a-b) - a).  For b < 0 no such multiple lies below
a, so the digits are plain.  For b = a-1 every digit would move and no
complete residue system works (backward division fixes -b*d for every
nonzero digit d), so the redundant set {-(a-1), ..., a-1} is used.

Expansions are the backward-division records of digits.orbit over the
degree-one base b*x - a; the redundant set runs the mirror base a/-b.

The carry automaton that adds or subtracts b to an expansion has three
states (carry b, carry -b, done); feeding a finite expansion least
significant digit first and flushing with at most two zeros yields a
finite expansion of the shifted value.
"""

import math
from enum import Enum
from fractions import Fraction
from operator import index

from .base import make_base
from .digits import (Cycle, DigitSet, ExpansionRecord, orbit,
                     _require_canonical_size, validate_crs)
from .errors import (DEFAULT_RATIONAL_STEPS, DigitSetError, ResourceCapError,
                     read_int, write_decimal, write_text)
from .polynomials import IntPolynomial
from .record import Record

# Zero digits transduce may append to flush its carry; two always do.
MAX_FLUSH = 4


class Regime(str, Enum):
    NEGATIVE_B = "negative-b"
    POSITIVE_B = "positive-b"
    REDUNDANT = "redundant"


class RationalDigitSet(Record):
    """A digit set for base a/b.  table, its only digit store, is the
    DigitSet its expansions step with: over b*x - a, or for the redundant
    digits -(a-1)..a-1 the canonical set of the mirror base a/-b."""

    __slots__ = ("a", "b", "regime", "table")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.a, self.b)

    @property
    def digits(self) -> tuple:
        """The digits as sorted integers."""
        if self.regime is Regime.REDUNDANT:
            return tuple(range(1 - self.a, self.a))
        return tuple(sorted(d for (d,) in self.table.digits))

    def __contains__(self, d) -> bool:
        try:
            d = read_int(d, "digit")
        except ValueError:  # not an integer, so no digit
            return False
        if self.regime is Regime.REDUNDANT:
            return -self.a < d < self.a
        return self.table.digits[d % self.a] == (d,)

    def __iter__(self):
        return iter(self.digits)

    def __len__(self) -> int:
        return 2 * self.a - 1 if self.regime is Regime.REDUNDANT else self.a


def digit_set_rational(a: int, b: int, digits=None) -> RationalDigitSet:
    """A digit set for base a/b.  Without digits, the canonical one,
    under which every rational integer has a finite expansion.  Explicit
    integer digits give the canonical set when they are its digits in
    any order, and otherwise must form a complete residue system
    modulo a."""
    if b == 0:
        raise DigitSetError("b must be nonzero")
    if a <= abs(b):
        raise DigitSetError(f"need a > |b|, got a={write_decimal(a)}, "
                            f"b={write_decimal(b)}")
    if math.gcd(a, b) != 1:
        raise DigitSetError(f"a={write_decimal(a)} and b={write_decimal(b)} "
                            "are not coprime")
    regime = Regime.NEGATIVE_B if b < 0 else Regime.POSITIVE_B
    if digits is not None:
        digits = tuple(read_int(d, "rational digit", DigitSetError)
                       for d in digits)
        if not (b == a - 1 and len(digits) == 2 * a - 1
                and sorted(digits) == list(range(1 - a, a))):
            return RationalDigitSet(a, b, regime,
                                    validate_crs(make_base([-a, b]), digits))
    _require_canonical_size(2 * a - 1 if b == a - 1 else a)
    if b == a - 1:
        return RationalDigitSet(a, b, Regime.REDUNDANT,
                                DigitSet.canonical(make_base([-a, -b])))
    # digit r of class r, or r - a at each nonzero multiple of a - b
    table = list(zip(range(a)))
    for r in range(a - b, a, a - b):
        table[r] = (r - a,)
    return RationalDigitSet(a, b, regime,
                            DigitSet(make_base([-a, b]), tuple(table)))


def verify_digit_properties(ds: RationalDigitSet) -> dict:
    """Check the four structural properties the carry automaton relies
    on.  `crs`: one digit per residue class mod a (all but redundant).
    `plus_b` / `minus_b`: adding or subtracting b leaves the set after at
    most one correction by a (sign of the correction depends on the sign
    of b).  `pm_b`: both b and -b are digits (holds in the positive
    regime, where it guarantees a two-zero flush)."""
    a, b = ds.a, ds.b
    s = set(ds.digits)  # answers the 4a lookups below faster than ds
    off = a if b < 0 else -a
    plus_b = all(d + b in s or d + b + off in s for d in s)
    minus_b = all(d - b in s or d - b - off in s for d in s)
    pm_b = b in s and -b in s
    return {"crs": ds.regime is not Regime.REDUNDANT, "plus_b": plus_b,
            "minus_b": minus_b, "pm_b": pm_b}


def value_of(digits_lsb, alpha: Fraction) -> Fraction:
    """Exact value of a word of integer digits, least significant first."""
    return IntPolynomial(digits_lsb)(alpha)


def expand_int(ds: RationalDigitSet, k: int,
               max_steps: int = DEFAULT_RATIONAL_STEPS) -> tuple:
    """The finite expansion of the integer k, least significant digit
    first: the digits of its backward-division record up to the first
    state 0 (unique for the two residue-system regimes).  Raises
    DigitSetError when the orbit of k enters a cycle without passing
    0, and ResourceCapError when it runs past max_steps."""
    base = ds.table.base
    record = orbit(k, ds.table, max_steps)
    if base.zero in record.states:
        end = record.states.index(base.zero)
        word = list(map(base.display, record.digits[:end]))
        if ds.regime is Regime.REDUNDANT:  # a mirror record: see expand_all
            word[1::2] = [-d for d in word[1::2]]
        return tuple(word)
    if isinstance(record.tail, Cycle):
        cycle = ", ".join(base.display(x, str) for x in record.tail.elements)
        raise DigitSetError(f"{write_decimal(k)} has no finite expansion over "
                            f"the digits {list(ds.digits)}: its orbit "
                            f"enters the cycle [{cycle}]")
    raise ResourceCapError(f"expansion of {write_decimal(k)} exceeded "
                           f"{write_decimal(max_steps)} steps")


class AdditionTransducer:
    """Three-state carry automaton over a rational-base digit set.

    States are the pending carries b, -b and 0; 0 is the accepting
    state, where remaining digits are copied through.  Reading digit d
    with carry c emits the digit congruent to d + c and forwards carry
    t*b, where t is the number of times a had to be added or removed.
    For b < 0 a nonzero carry alternates sign, for b > 0 it repeats."""

    def __init__(self, digit_set: RationalDigitSet):
        props = verify_digit_properties(digit_set)
        if not (props["plus_b"] and props["minus_b"]):
            raise DigitSetError(
                "digit set is not closed under carry propagation")
        self.digit_set = digit_set
        self.states = (digit_set.b, -digit_set.b, 0)

    def step(self, carry: int, d: int) -> tuple:
        """(emitted digit, next carry)."""
        ds = self.digit_set
        if carry == 0:
            if d not in ds:
                raise DigitSetError(f"{d} is not a digit")
            return d, 0
        if carry not in (ds.b, -ds.b):
            raise DigitSetError(f"{carry} is not a carry state")
        e = d + carry
        if e in ds:
            return e, 0
        # t = sign(b) when carry == b, -sign(b) when carry == -b; the
        # emitted digit d + carry - t*a is in the set by closure.
        t = (1 if ds.b > 0 else -1) * (1 if carry == ds.b else -1)
        e -= t * ds.a
        if e not in ds:
            raise DigitSetError(
                f"carry propagation left the digit set at digit {d}")
        return e, t * ds.b

    def transitions(self) -> list:
        """All transitions as (state, input, output, next) tuples, for
        export."""
        rows = []
        for carry in self.states:
            for d in self.digit_set.digits:
                e, nxt = self.step(carry, d)
                rows.append((carry, d, e, nxt))
        return rows

    def to_dot(self) -> str:
        lines = ["digraph addition {", "  rankdir=LR;",
                 '  node [shape=circle];', '  "0" [shape=doublecircle];']
        for carry, d, e, nxt in self.transitions():
            lines.append(f'  "{carry}" -> "{nxt}" [label="{d}|{e}"];')
        lines.append("}")
        return "\n".join(lines)


def transduce(transducer: AdditionTransducer, start: int, word) -> tuple:
    """Run the carry automaton from the given start state over an
    LSB-first word, then flush any remaining carry with zero digits.
    Starting from carry b computes word + b, from -b computes word - b,
    from 0 copies the word through.  Every input symbol must be a digit,
    whatever the carry; flushing the final carry takes at most two zero
    digits."""
    if start not in transducer.states:
        raise DigitSetError(f"{start} is not a carry state")
    carry = start
    out = []
    for d in word:
        if d not in transducer.digit_set:
            raise DigitSetError(
                f"{write_decimal(d) if isinstance(d, int) else write_text(d)}"
                " is not a digit of the set")
        e, carry = transducer.step(carry, index(d))
        out.append(e)
    flushes = 0
    while carry != 0:
        if flushes >= MAX_FLUSH:
            raise ResourceCapError(
                f"carry failed to flush within max_flush={MAX_FLUSH} zero "
                f"digits; carry {carry} remains")
        e, carry = transducer.step(carry, 0)
        out.append(e)
        flushes += 1
    return tuple(out)


def expand_all(a: int, b: int, digit_values=None, k_range=None, *,
               max_steps: int = DEFAULT_RATIONAL_STEPS) -> list:
    """Expansion records of k*b over base a/b, one per k in k_range
    (default -10..10), each replay-checkable exactly.  Multiples of b
    are precisely the values one backward-division step can produce, so
    this family exercises the digit set where it matters.  digit_values
    is a RationalDigitSet, explicit integer digits, or None for the
    canonical set.

    The redundant set is no residue system: its record is the orbit
    over the mirror base a/-b with digits 0..a-1, whose k-th digit and
    state change sign at odd k, because (-1)^k s_k = (-1)^k d_k + (a/b)
    (-1)^(k+1) s_(k+1) whenever s_k = d_k + (a/-b) s_(k+1)."""
    if k_range is None:
        k_range = range(-10, 11)
    ds = (digit_values if isinstance(digit_values, RationalDigitSet)
          else digit_set_rational(a, b, digit_values))
    records = [orbit(k * b, ds.table, max_steps) for k in k_range]
    if ds.regime is Regime.REDUNDANT:
        neg = ds.table.base.neg
        for i, mirror in enumerate(records):
            digits, states = (tuple(neg(x) if k % 2 else x
                                    for k, x in enumerate(seq))
                              for seq in (mirror.digits, mirror.states))
            records[i] = ExpansionRecord(mirror.start, digits, states,
                                         mirror.tail)
    return records
