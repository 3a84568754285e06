"""Digit sets and addition transducers for rational bases a/b with
a > |b| >= 1 and gcd(a, b) = 1.

Three regimes:

* b < 0: the plain digits {0, ..., a-1} work.
* 0 < b < a-1: multiples of a-b must be shifted down by a, giving the
  symmetric difference of {0, ..., a-1} with {k(a-b), k(a-b)-a}.
* b = a-1: no complete residue system works at all (backward division
  fixes -b*d for every nonzero digit d), so the redundant symmetric set
  {-(a-1), ..., a-1} with 2a-1 digits is used instead.

Expansions are the backward-division records of digits.orbit over the
degree-one base b*x - a; the redundant set runs the mirror base a/-b.

The carry automaton that adds or subtracts b to an expansion has three
states (carry b, carry -b, done); feeding a finite expansion least
significant digit first and flushing with at most two zeros yields a
finite expansion of the shifted value.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .base import make_base
from .digits import Cycle, ExpansionRecord, orbit, validate_crs
from .errors import DigitSetError, ResourceCapError


class Regime(str, Enum):
    NEGATIVE_B = "negative-b"
    POSITIVE_B = "positive-b"
    REDUNDANT = "redundant"


class RationalDigitSet:
    def __init__(self, a: int, b: int, regime: Regime, digits: tuple,
                 shifted: tuple):
        self.a = a
        self.b = b
        self.regime = regime
        self.digits = digits
        self.shifted = shifted  # the set B of shifted multiples (positive regime only)
        self._lookup = frozenset(digits)

    def __repr__(self) -> str:
        return (f"RationalDigitSet(a={self.a!r}, b={self.b!r}, "
                f"regime={self.regime!r}, digits={self.digits!r}, "
                f"shifted={self.shifted!r})")

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.a, self.b)

    def __contains__(self, d) -> bool:
        return d in self._lookup

    def __iter__(self):
        return iter(self.digits)

    def __len__(self) -> int:
        return len(self.digits)


def digit_set_rational(a: int, b: int, digits=None) -> RationalDigitSet:
    """A digit set for base a/b.  Without digits, the canonical one,
    under which every rational integer has a finite expansion.  Explicit
    integer digits give the canonical set when they are its digits in
    any order, and otherwise must form a complete residue system
    modulo a."""
    if b == 0:
        raise DigitSetError("b must be nonzero")
    if a <= abs(b):
        raise DigitSetError(f"need a > |b|, got a={a}, b={b}")
    if math.gcd(a, b) != 1:
        raise DigitSetError(f"a={a} and b={b} are not coprime")
    if digits is not None:
        digits = tuple(digits)
        for d in digits:
            if isinstance(d, bool) or not isinstance(d, int):
                raise DigitSetError(f"rational digit {d!r} is not an integer")
        canonical = digit_set_rational(a, b)
        vals = tuple(sorted(digits))
        if vals == canonical.digits:
            return canonical
        validate_crs(make_base([-a, b]), vals)
        regime = Regime.NEGATIVE_B if b < 0 else Regime.POSITIVE_B
        return RationalDigitSet(a, b, regime, vals, ())
    if b < 0:
        return RationalDigitSet(a, b, Regime.NEGATIVE_B, tuple(range(a)), ())
    if b == a - 1:
        return RationalDigitSet(a, b, Regime.REDUNDANT,
                                tuple(range(-(a - 1), a)), ())
    plain = set(range(a))
    shifted = set()
    for k in range(1, (a - 1) // (a - b) + 1):
        shifted.add(k * (a - b))
        shifted.add(k * (a - b) - a)
    return RationalDigitSet(a, b, Regime.POSITIVE_B,
                            tuple(sorted(plain ^ shifted)),
                            tuple(sorted(shifted)))


def _record(ds: RationalDigitSet, value, max_steps: int) -> ExpansionRecord:
    """The backward-division record of value over ds.  The redundant set
    is no residue system: its record is the orbit over the mirror base
    a/-b with digits 0..a-1, whose k-th digit and state change sign at
    odd k, because (-1)^k s_k = (-1)^k d_k + (a/b) (-1)^(k+1) s_(k+1)
    whenever s_k = d_k + (a/-b) s_(k+1)."""
    if ds.regime is Regime.REDUNDANT:
        mirror = _record(digit_set_rational(ds.a, -ds.b), value, max_steps)

        def flip(seq):
            return tuple(-x if k % 2 else x for k, x in enumerate(seq))

        return ExpansionRecord(mirror.start, flip(mirror.digits),
                               flip(mirror.states), mirror.tail)
    base = make_base([-ds.a, ds.b])  # the root of b*x - a
    return orbit(value, validate_crs(base, ds.digits), max_steps)


def verify_digit_properties(ds: RationalDigitSet) -> dict:
    """Check the four structural properties the carry automaton relies
    on.  `crs`: one digit per residue class mod a.  `plus_b` / `minus_b`:
    adding or subtracting b leaves the set after at most one correction
    by a (sign of the correction depends on the sign of b).  `pm_b`:
    both b and -b are digits (holds in the positive regime, where it
    guarantees a two-zero flush)."""
    a, b = ds.a, ds.b
    s = set(ds.digits)
    residues = [d % a for d in ds.digits]
    crs = len(ds.digits) == a and len(set(residues)) == a
    off = a if b < 0 else -a
    plus_b = all(d + b in s or d + b + off in s for d in ds.digits)
    minus_b = all(d - b in s or d - b - off in s for d in ds.digits)
    pm_b = b in s and -b in s
    return {"crs": crs, "plus_b": plus_b, "minus_b": minus_b, "pm_b": pm_b}


def value_of(digits_lsb, alpha: Fraction) -> Fraction:
    """Exact value of an expansion given least significant digit first."""
    acc = Fraction(0)
    for d in reversed(list(digits_lsb)):
        acc = acc * alpha + d
    return acc


def strip_leading_zeros(digits_lsb) -> tuple:
    """Drop high-order zeros (the tail of an LSB-first word)."""
    out = list(digits_lsb)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def expand_int(ds: RationalDigitSet, k: int, max_steps: int = 10**6) -> tuple:
    """The finite expansion of the integer k, least significant digit
    first: the digits of its backward-division record up to the first
    state 0 (unique for the two residue-system regimes).  Raises
    DigitSetError when the orbit of k enters a cycle without passing
    0, and ResourceCapError when it runs past max_steps."""
    record = _record(ds, k, max_steps)
    if 0 in record.states:
        return record.digits[:record.states.index(0)]
    if isinstance(record.tail, Cycle):
        cycle = ", ".join(str(x) for x in record.tail.elements)
        raise DigitSetError(f"{k} has no finite expansion over the digits "
                            f"{list(ds.digits)}: its orbit enters the "
                            f"cycle [{cycle}]")
    raise ResourceCapError(f"expansion of {k} exceeded {max_steps} steps")


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

    def transduce(self, digits_lsb, *, subtract: bool = False,
                  max_flush: int = 4) -> tuple:
        """Feed an expansion least significant digit first; the output
        is an expansion of (value + b), or (value - b) when subtract is
        set.  Flushing the final carry takes at most two zero digits."""
        carry = -self.digit_set.b if subtract else self.digit_set.b
        return transduce(self, carry, digits_lsb, max_flush=max_flush)

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


def build_transducer(digit_set: RationalDigitSet) -> AdditionTransducer:
    """The carry automaton that adds or subtracts b over this digit
    set."""
    return AdditionTransducer(digit_set)


def transduce(transducer: AdditionTransducer, start: int, word, *,
              max_flush: int = 4) -> tuple:
    """Run the carry automaton from the given start state over an
    LSB-first word, then flush any remaining carry with zero digits.
    Starting from carry b computes word + b, from -b computes word - b,
    from 0 copies the word through."""
    if start not in transducer.states:
        raise DigitSetError(f"{start} is not a carry state")
    carry = start
    out = []
    for d in word:
        e, carry = transducer.step(carry, d)
        out.append(e)
    flushes = 0
    while carry != 0:
        if flushes >= max_flush:
            raise ResourceCapError("carry failed to flush")
        e, carry = transducer.step(carry, 0)
        out.append(e)
        flushes += 1
    return tuple(out)


def expand_all(a: int, b: int, digit_values=None, k_range=None, *,
               max_steps: int = 10**5) -> list:
    """Expansion records of k*b over base a/b, one per k in k_range
    (default -10..10), each replay-checkable exactly.  Multiples of b
    are precisely the values one backward-division step can produce, so
    this family exercises the digit set where it matters.  digit_values
    is a RationalDigitSet, explicit integer digits, or None for the
    canonical set."""
    if k_range is None:
        k_range = range(-10, 11)
    ds = (digit_values if isinstance(digit_values, RationalDigitSet)
          else digit_set_rational(a, b, digit_values))
    return [_record(ds, k * b, max_steps) for k in k_range]
