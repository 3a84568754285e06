# Digit sets for rational bases a/b and the three-state carry automaton
# that adds or subtracts b.

from fractions import Fraction

from algdigits import (AdditionTransducer, digit_set_rational, expand_int,
                       transduce, value_of, verify_digit_properties)

# ----------------------------------------------------------------------
# The three regimes

for a, b in [(3, -2), (5, 2), (3, 2)]:
    ds = digit_set_rational(a, b)
    print(f"a/b = {a}/{b}: regime {ds.regime.value}, digits {ds.digits}")

# positive b moves each nonzero multiple of a - b below a down by a
ds52 = digit_set_rational(5, 2)
print("digits moved down by 5 for 5/2:",
      [d for d in ds52.digits if d < 0])
print("structural properties:", verify_digit_properties(ds52))

# ----------------------------------------------------------------------
# Every integer expands finitely; the value comes back exactly

print()
for k in (7, -7, 19):
    word = expand_int(ds52, k)
    print(f"{k:4d} = {word} in base 5/2 "
          f"(check: {value_of(word, Fraction(5, 2))})")

# the redundant regime b = a - 1 needs the symmetric 5-digit set
ds32 = digit_set_rational(3, 2)
for k in (4, -4):
    word = expand_int(ds32, k)
    assert value_of(word, Fraction(3, 2)) == k
    print(f"{k:4d} = {word} in base 3/2")

# ----------------------------------------------------------------------
# Adding b is a 3-state transduction; the carry flushes in <= 2 steps

trans = AdditionTransducer(ds52)
print("\ncarry states:", trans.states)
word = expand_int(ds52, 7)
plus = transduce(trans, ds52.b, word)    # value + b
minus = transduce(trans, -ds52.b, word)  # value - b
print(f"7 = {word}; +2 -> {plus} = {value_of(plus, ds52.alpha)}; "
      f"-2 -> {minus} = {value_of(minus, ds52.alpha)}")

print("\ntransition table (carry, in, out, carry'):")
for row in AdditionTransducer(digit_set_rational(3, -2)).transitions():
    print("  ", row)
