#!/usr/bin/env python3
"""The classical side: the signed symmetric group action on the natural
tensor space, the Schur superalgebra matrices, structure constants and
the classical double centralizer.

Run:  python3 demos/schur_superalgebra_tour.py
"""

from levischur import (
    Shape,
    classical_duality,
    commutant,
    pi_matrix,
    schur_basis,
    structure_constants,
    xi_matrix,
)
from levischur.combinatorics import adjacent_transposition
from levischur.linalg import span_of
from levischur.schur_core import natural_basis, word_position

shape = Shape(m=1, n=1, r=2)
print("Natural tensor square of the (1|1) space, basis words:",
      list(natural_basis(shape, 2)))

print("\n-- the signed swap --")
swap = pi_matrix(adjacent_transposition(2, 1), shape, 2)
for word in natural_basis(shape, 2):
    col = word_position(word, shape)
    images = {r: v for (r, c), v in swap.entries.items() if c == col}
    (row, val), = images.items()
    tgt = natural_basis(shape, 2)[row]
    print(f"  {word} -> {'+' if val > 0 else '-'}{tgt}")
print("  two odd letters pick up a sign when they cross")

print("\n-- basis matrices --")
basis = schur_basis(shape, 2)
print(f"  {len(basis)} orbit representatives index the degree-2 algebra")
pair = ((1, 2), (2, 1))
mat = xi_matrix(pair, shape)
print(f"  the element labelled {pair} has entries {dict(mat.entries)}")

print("\n-- structure constants --")
a, b = ((1,), (2,)), ((2,), (1,))
print(f"  product of {a} and {b} expands as "
      f"{structure_constants(a, b, shape)}")
print(f"  product of {a} with itself expands as "
      f"{structure_constants(a, a, shape)} (empty means zero)")
print("  every expansion is cross-checked against literal matrix")
print("  products in the test suite")

print("\n-- the classical double centralizer --")
rep = classical_duality(shape)
print(f"  dim of the algebra span            = {rep.dim_schur}")
print(f"  dim of the symmetric group commutant = "
      f"{rep.dim_commutant_of_symmetric_group}")
print(f"  spans equal: {rep.spans_equal}")
print(f"  converse (degree <= m+n): commutant of the algebra has "
      f"dim {rep.dim_commutant_of_schur} = 2! and equals the group image: "
      f"{rep.converse_spans_equal}")

print("\n-- the same equality by hand --")
comm = commutant([swap], 4)
alg = span_of([xi_matrix(p, shape) for p in basis])
print(f"  commutant dim {comm.dimension}, span dim {alg.dimension}, "
      f"equal: {comm == alg}")
