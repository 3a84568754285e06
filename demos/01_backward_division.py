# Digit expansions by backward division: pick a base, pick one digit
# per residue class, iterate x -> (x - digit)/alpha until 0.

from algdigits import make_base, as_digit_set, validate_crs, orbit

# ----------------------------------------------------------------------
# Base -2 writes every integer with digits {0, 1}.  Elements are
# coordinate tuples at every degree, so in degree one they are 1-tuples.

neg2 = make_base("x + 2")
ds = as_digit_set(neg2)
for k in (7, -7, 100):
    rec = orbit(k, ds)
    word_msb = tuple(d for (d,) in reversed(rec.digits))
    print(f"{k:5d} -> {word_msb}  replay ok: {rec.replay(neg2)}")
    assert neg2.eval_word(word_msb) == (k,)

# ----------------------------------------------------------------------
# Base 2 with {0, 1} is NOT a number system for Z: negative integers
# fall into the fixed point -1 = 1 + 2*(-1)

pos2 = make_base("x - 2")
rec = orbit(-5, validate_crs(pos2, [0, 1]))
print("\norbit of -5 in base 2:", [s for (s,) in rec.states],
      "->", rec.tail.kind, [s for (s,) in rec.tail.elements])

# ----------------------------------------------------------------------
# A quadratic base: alpha = -1 + i, minimal polynomial x^2 + 2x + 2.
# Elements are coordinate pairs (p, q) meaning p + q*alpha.

gauss = make_base("x^2 + 2x + 2")
ds = as_digit_set(gauss)
for start in [(5, 0), (0, 1), (-3, 2)]:
    rec = orbit(start, ds)
    digits = tuple(d[0] for d in rec.digits)  # digits are (0,*) or (1,*)
    print(f"{start} -> digits (LSB first) {digits}, "
          f"{len(rec.digits)} steps, terminated: {rec.terminated}")

# the defining identity holds at every step: s_k = d_k + alpha * s_{k+1}
rec = orbit((5, 0), ds)
for k in range(len(rec.digits)):
    lhs = rec.states[k]
    rhs = gauss.add(rec.digits[k], gauss.mul_alpha(rec.states[k + 1]))
    assert lhs == rhs
print("\nper-step replay identity verified for", rec.start)
