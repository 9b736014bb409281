"""Walk through the algebra the whole scheme rests on.

A scaled integer lattice nested inside q times itself has exactly q^N
codewords in the coarse Voronoi region, and those codewords add like
vectors over GF(q).  This script shows the codebook for small parameters,
checks the addition isomorphism on a few points, and demonstrates that a
two-term sum is recoverable from its mod-coarse residue plus one wrap bit
per coordinate.

Run: python demos/01_field_and_lattice_basics.py
"""

import numpy as np

from relaysec import (
    ExtField,
    NestedLatticePair,
    codebook_point,
    decode_fine_mod_coarse,
    digits,
    lattice_add,
    mod_coarse,
    reconstruct_sums,
    represent_sums,
)
from relaysec.lattice import index_to_coords

print("=== extension field GF(3^2) ===")
gf9 = ExtField(3, 2)
mul = gf9.tables()["mul"]
print(f"modulus (lowest degree first): {gf9.modulus}")
print("elements are the ints 0..8; base-3 digit k is the coefficient of x^k")
x = 3  # coefficients (0, 1)
print(f"x * x = {mul[x, x]}, coefficients {digits(mul[x, x], 3, 2).tolist()}"
      "   (the modulus folds x^2 back to 2)")
power = 1
for _ in range(gf9.order - 1):
    power = mul[power, x]
print(f"x^{gf9.order - 1} = {power}   (multiplicative order divides q^r - 1)")

print()
print("=== nested lattice codebook, q = 3, N = 2 ===")
pair = NestedLatticePair(N=2, q=3)
print("coords -> transmitted point (coarse region is [-1.5, 1.5)^2):")
coords = index_to_coords(pair, np.arange(pair.q**pair.N))  # lexicographic order
for c, point in zip(coords, codebook_point(pair, coords)):
    print(f"  {tuple(int(v) for v in c)} -> {point}")

print()
print("addition of points matches addition of their coords over GF(3)^2:")
a, b = np.array([2, 1]), np.array([2, 2])
geometric = mod_coarse(pair, codebook_point(pair, a) + codebook_point(pair, b))
decoded = decode_fine_mod_coarse(pair, geometric)
print(f"  point({tuple(a.tolist())}) + point({tuple(b.tolist())}) mod coarse "
      f"-> coords {tuple(decoded.tolist())}")
print(f"  coords: {a} + {b} = {lattice_add(pair, a, b)} (mod 3)")

print()
print("=== sum representation: residue + wrap id ===")
p5 = NestedLatticePair(N=1, q=5)
u1 = u2 = np.array([2.0])
sum_mod, t = represent_sums(p5, u1, u2)
print(f"u1 = u2 = 2.0; mod-coarse residue {sum_mod[0]}, wrap id T = {t}")
print(f"reconstructed sum: {reconstruct_sums(p5, sum_mod, t)[0]}  (= 4.0 exactly)")

# all 25 codeword pairs in one call; each point is a length-1 vector
points = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])[:, None]
_, t = represent_sums(p5, points[:, None], points[None, :])
print(f"{int(np.sum(t > 1))} of {t.size} codeword pairs wrap around the coarse cell")
