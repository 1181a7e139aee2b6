"""Generator matrices, relation checking and the layer algebras."""

import pytest

from levischur.combinatorics import Shape, identity_perm, perms
from levischur.enhanced_core import (
    enh_position,
    levi_basis,
    levi_span,
    rho_bottom,
    rho_levi,
)
from levischur.hecke import (
    LayerGen,
    RelationInstance,
    SwapGen,
    boundary_observations,
    check_relation,
    d_algebra,
    d_layer_algebra,
    eval_word,
    hecke_generators,
    layer_projector,
    relation_instances,
    xi_gen,
)
from levischur.linalg import ExactMatrix, commutant, span_of

SH0 = Shape(1, 1, 2, 0)
SH1 = Shape(1, 1, 2, 1)


# ---------------------------------------------------------------------------
# generators


def test_generator_validation():
    with pytest.raises(ValueError):
        SwapGen(0)
    with pytest.raises(ValueError):
        LayerGen(-1, ())
    with pytest.raises(ValueError):
        LayerGen(2, (0,))
    with pytest.raises(ValueError):
        LayerGen(2, (0, 0))
    with pytest.raises(ValueError):
        xi_gen(SwapGen(2), SH0)  # r = 2 has only swap 1
    with pytest.raises(ValueError):
        xi_gen(LayerGen(3, (0, 1, 2)), SH0)


def test_bottom_generator_is_bottom_projector():
    for shape in (SH0, SH1, Shape(2, 1, 3, 1)):
        assert xi_gen(LayerGen(0, ()), shape) == rho_bottom(shape)


def test_swap_sign_example():
    # both letters odd at vparity 1: swapping the enhanced slot past an
    # odd natural letter flips the sign
    m1 = xi_gen(SwapGen(1), SH1)
    src = enh_position((3, 2), SH1)
    dst = enh_position((2, 3), SH1)
    assert m1.entries[(dst, src)] == SH1.field.coerce(-1)
    m0 = xi_gen(SwapGen(1), SH0)
    assert m0.entries[(dst, src)] == SH0.field.coerce(1)


def test_layer_generator_is_leading_projector():
    x = xi_gen(LayerGen(1, identity_perm(1)), SH1)
    expected = {
        (enh_position(w, SH1), enh_position(w, SH1)): SH1.field.one
        for w in [(1, 2), (3, 2)]
    }
    assert x.entries == expected


# ---------------------------------------------------------------------------
# words


def test_eval_word_examples():
    d = SH0.dim_enhanced
    assert eval_word((), SH0) == ExactMatrix.identity(SH0.field, d)
    assert eval_word((SwapGen(1), SwapGen(1)), SH0) == ExactMatrix.identity(
        SH0.field, d
    )
    assert eval_word(
        (LayerGen(1, (0,)), LayerGen(2, (0, 1))), SH0
    ).is_zero()


def test_eval_word_order_convention():
    # leftmost acts first: word (swap, layer) equals layer @ swap
    w = (SwapGen(1), LayerGen(1, (0,)))
    lhs = eval_word(w, SH1)
    rhs = xi_gen(LayerGen(1, (0,)), SH1) @ xi_gen(SwapGen(1), SH1)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# relations


def test_relation_instance_validation():
    with pytest.raises(ValueError):
        RelationInstance("9.9")
    inst = RelationInstance("3.4", i=2, l=1, sigma=(0,))
    with pytest.raises(ValueError):
        check_relation(inst, Shape(1, 1, 3))  # needs i < l


@pytest.mark.parametrize("vp", [0, 1])
def test_all_relations_small(vp):
    shape = Shape(1, 1, 2, vp)
    insts = list(relation_instances(shape))
    assert insts, "no instances generated"
    for inst in insts:
        assert check_relation(inst, shape), inst


def test_specific_relations():
    shape = Shape(1, 1, 3, 1)
    assert check_relation(RelationInstance("3.2", i=1, j=2), shape)
    assert check_relation(
        RelationInstance("3.5", i=2, l=1, sigma=(0,)), shape
    )
    assert check_relation(
        RelationInstance("3.6", l=1, k=2, sigma=(0,), mu=(0, 1)), shape
    )
    assert check_relation(
        RelationInstance("3.4", i=1, l=2, sigma=(1, 0)), shape
    )
    assert check_relation(
        RelationInstance("3.3", l=2, sigma=(1, 0), mu=(1, 0)), shape
    )


def test_boundary_observations_are_reported_not_asserted():
    obs = boundary_observations(SH0)
    assert obs == [(1, (0,), False)]
    obs1 = boundary_observations(SH1)
    assert obs1 == [(1, (0,), False)]


# ---------------------------------------------------------------------------
# commutation with the Levi algebra


@pytest.mark.parametrize(
    "shape",
    [SH0, SH1, Shape(1, 1, 3, 0), Shape(1, 1, 3, 1), Shape(2, 1, 2, 1)],
)
def test_commutation_invariant(shape):
    gens = [xi_gen(g, shape) for g in hecke_generators(shape)]
    for b in levi_basis(shape):
        mat = rho_levi(b, shape)
        for g in gens:
            assert mat.commutes_with(g)


# ---------------------------------------------------------------------------
# layer algebras


def test_layer_projector():
    p = layer_projector(0, SH0)
    assert p == rho_bottom(SH0) @ rho_bottom(SH0)
    assert layer_projector(1, SH0).trace() == 4
    with pytest.raises(ValueError):
        layer_projector(3, SH0)


def test_layer_zero_algebra_is_one_dimensional():
    for shape in (SH0, SH1):
        alg = d_layer_algebra(0, shape)
        assert alg.dimension == 1
        assert alg.contains(rho_bottom(shape))


def test_top_layer_contains_symmetric_group_images():
    for shape in (SH0, SH1):
        alg = d_layer_algebra(shape.r, shape)
        for sigma in perms(shape.r):
            assert alg.contains(xi_gen(LayerGen(shape.r, sigma), shape))


def test_layer_algebras_are_orthogonal_and_layer_supported():
    for shape in (SH0, SH1):
        algs = [d_layer_algebra(l, shape) for l in range(shape.r + 1)]
        for a in range(shape.r + 1):
            for b in range(shape.r + 1):
                if a == b:
                    continue
                for x in algs[a].basis:
                    for y in algs[b].basis:
                        assert (x @ y).is_zero()
        # every element preserves its layer and kills the others
        for l, alg in enumerate(algs):
            proj = layer_projector(l, shape)
            for x in alg.basis:
                assert proj @ x == x and x @ proj == x


def test_d_algebra_decomposes_into_layers():
    for shape in (SH0, SH1, Shape(1, 1, 3, 1)):
        full = d_algebra(shape)
        assert full.contains(
            ExactMatrix.identity(shape.field, shape.dim_enhanced)
        )
        pieces = [
            m
            for l in range(shape.r + 1)
            for m in d_layer_algebra(l, shape).basis
        ]
        assert (
            span_of(pieces, d=shape.dim_enhanced, field=shape.field) == full
        )


def test_d_algebra_dimension_matches_levi_commutant():
    for shape in (SH0, SH1):
        comm = commutant(
            levi_span(shape).basis, shape.dim_enhanced, field=shape.field
        )
        assert d_algebra(shape).dimension == comm.dimension
        assert comm == d_algebra(shape)
