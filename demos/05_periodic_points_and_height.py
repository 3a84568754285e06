# Certified periodic-point enumeration decides whether a digit set
# makes a number system, and height reduction compresses coefficients.

from algdigits import (height_reduce, is_number_system, make_base,
                       orbit_bound, periodic_points, spans_ring)

# ----------------------------------------------------------------------
# Every backward-division orbit eventually enters |sigma(x)| <= c for
# each conjugate; periodic points live inside that certified box.

pos2 = make_base("x - 2")
bounds = orbit_bound(pos2, [0, 1])
print(f"base 2, digits {{0,1}}: c = {bounds.c}")
pset = periodic_points(pos2, [0, 1])
# Degree-one elements are 1-tuples (x,).
print("periodic points:", [x for (x,) in pset.elements],
      "cycles:", [[x for (x,) in cyc] for cyc in pset.cycles])
print("number system?", is_number_system(pos2, [0, 1]))

# ----------------------------------------------------------------------
# A digit set can cover the whole ring without being a number system:
# base -2 with digits {1, 2} has the cycle 0 -> 1 -> 0.

neg2 = make_base("x + 2")
pset = periodic_points(neg2, [1, 2])
print(f"\nbase -2, digits {{1,2}}: periodic = "
      f"{[x for (x,) in pset.elements]}")
print("spans the ring?", spans_ring(neg2, [1, 2]),
      "| number system?", is_number_system(neg2, [1, 2]))

# the Gaussian base is a genuine number system with {0, 1}
gauss = make_base("x^2 + 2x + 2")
print("\nx^2 + 2x + 2 with {0,1}: number system?", is_number_system(gauss))
print("periodic points:", periodic_points(gauss).elements)

# ----------------------------------------------------------------------
# Height reduction: from digit representations of degree <= s, build
# the integer set F so any sum of shifted expansions has coefficients
# in F.  |F| <= q + q^2 + ... + q^(s+1) with q digits.

reps = [(0, (0,)), (3, (1, 1)), (-2, (0, -1))]  # value, coefficients in 2
red = height_reduce(pos2, reps)
print(f"\nF = {sorted(red.values)}  (|F| = {len(red.values)} <= "
      f"{red.cardinality_bound}, s = {red.expansion_degree})")
