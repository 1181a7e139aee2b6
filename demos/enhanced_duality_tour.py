#!/usr/bin/env python3
"""The headline computation: the enhanced tensor space, the Levi algebra,
the layered permutation generators, and the double centralizer in both
directions, as ``verify_first`` and ``verify_second`` decide it.

Run:  python3 demos/enhanced_duality_tour.py
"""

from levischur import (
    LayerGen,
    Shape,
    SwapGen,
    check_relation,
    d_algebra,
    d_layer_algebra,
    levi_basis,
    rho_levi,
    verify_first,
    verify_second,
    xi_gen,
)
from levischur.enhanced_core import enh_decode, enhanced_basis, word_layer
from levischur.hecke import RelationInstance

shape = Shape(m=1, n=1, r=2, vparity=1)
print(f"Enhanced degree-{shape.r} space over (1|1) plus one odd enhanced "
      f"vector; dimension {shape.dim_enhanced}")

print("\n-- enhanced words group into layers --")
for word in enhanced_basis(shape):
    core, supp = enh_decode(word, shape)
    print(f"  word {word}: layer {word_layer(word, shape)}, "
          f"support {supp}, core {core}")

print("\n-- the Levi algebra --")
basis = levi_basis(shape)
print(f"  {len(basis)} basis elements: 1 bottom projector + "
      f"4 at layer 1 + 8 at layer 2")
b = basis[1]
print(f"  element (pair={b.pair}, layer={b.layer}) acts by "
      f"{dict(rho_levi(b, shape).entries)}")

print("\n-- generators of the other side --")
sw = xi_gen(SwapGen(1), shape)
print(f"  signed swap: {len(sw.entries)} nonzero entries")
x1 = xi_gen(LayerGen(1, (0,)), shape)
print(f"  layer-1 leading projector: {dict(x1.entries)}")

print("\n-- defining relations hold in the representation --")
samples = [
    RelationInstance("3.1a", i=1),
    RelationInstance("3.3", l=2, sigma=(1, 0), mu=(1, 0)),
    RelationInstance("3.6", l=1, k=2, sigma=(0,), mu=(0, 1)),
]
for inst in samples:
    print(f"  {inst.rel}: {check_relation(inst, shape)}")

print("\n-- layer algebras --")
for l in range(shape.r + 1):
    print(f"  layer {l}: closed algebra of dimension "
          f"{d_layer_algebra(l, shape).dimension}")
print(f"  their direct sum is the whole image, dimension "
      f"{d_algebra(shape).dimension}")

print("\n-- the double centralizer, both parities --")
for vp in (0, 1):
    sh = Shape(1, 1, 2, vp)
    first, second = verify_first(sh), verify_second(sh)
    print(f"  vparity {vp}: first direction holds = {first.holds} "
          f"(dims {first.dim_commutant_D} = {first.dim_levi}), "
          f"second holds = {second.spans_equal} "
          f"(dims {second.dim_commutant_levi} = {second.dim_D})")

print("\n-- degree above m+n --")
sh3 = Shape(1, 1, 3, 1)
print(f"  degree 3 over (1|1): first direction holds = "
      f"{verify_first(sh3).holds}; second direction holds = "
      f"{verify_second(sh3).spans_equal}, as at every degree")
