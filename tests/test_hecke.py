"""Generator matrices, relation checking and the layer algebras.

``matrix_word`` and ``matrix_relation`` below evaluate words as reversed
products of ``xi_gen`` matrices and compare ``ExactMatrix``es; they are
the independent oracle for the signed-map path in ``hecke``.
"""

import functools
import math
import random

import pytest

from levischur import combinatorics as comb
from levischur.combinatorics import Shape, identity_perm, perms
from levischur.enhanced_core import (
    enh_position,
    vbar,
    levi_basis,
    levi_span,
    rho_bottom,
    rho_levi,
)
from levischur import clear_caches
from levischur import cli, hecke, schur_core
from levischur import enhanced_core as enh
from levischur.hecke import (
    LayerGen,
    RelationInstance,
    SwapGen,
    boundary_observations,
    certified_instances,
    check_relation,
    d_algebra,
    d_layer_algebra,
    eval_word,
    generator_count,
    hecke_generators,
    layer_projector,
    relation_count,
    relation_instances,
    xi_gen,
)
from oracles import swap_map
from levischur.hecke import _gen_map, _word_map, relation_sides
from levischur.linalg import QQ, ExactMatrix, PrimeField, commutant, span_of

SH0 = Shape(1, 1, 2, 0)
SH1 = Shape(1, 1, 2, 1)

ORACLE_SHAPES = [
    Shape(m, n, r, vp, field)
    for (m, n, r) in [(1, 1, 3), (2, 1, 3), (1, 1, 4)]
    for vp in (0, 1)
    for field in (QQ, PrimeField(3))
]


def shape_id(sh):
    return f"({sh.m}|{sh.n},{sh.r})-v{sh.vparity}-{sh.field!r}"


def matrix_word(word, shape):
    """Oracle: the reversed matrix product of the generator matrices."""
    out = ExactMatrix.identity(shape.field, shape.dim_enhanced)
    for g in word:
        out = xi_gen(g, shape) @ out
    return out


def matrix_relation(inst, shape):
    """Oracle for ``check_relation``: compare both sides as matrices."""
    lhs, rhs = relation_sides(inst, shape)
    d = shape.dim_enhanced
    right = (
        ExactMatrix.zero(shape.field, d, d) if rhs is None
        else matrix_word(rhs, shape)
    )
    if matrix_word(lhs, shape) != right:
        return False
    if inst.rel == "3.4":
        s = comb.adjacent_transposition(inst.l, inst.i)
        return matrix_word(
            (LayerGen(inst.l, inst.sigma), SwapGen(inst.i)), shape
        ) == matrix_word(
            (LayerGen(inst.l, comb.compose(inst.sigma, s)),), shape
        )
    return True


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
    # a generator equals the plain tuple of its fields, which is refused
    # also once the generator's matrix is cached
    xi_gen(SwapGen(1), SH0)
    with pytest.raises(ValueError):
        xi_gen((1,), SH0)


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


SWAP_SHAPES = [(1, 0, r) for r in range(2, 7)] + [(1, 1, r) for r in range(
    2, 7)] + [(2, 0, 3), (1, 2, 4), (2, 2, 3), (3, 1, 3)]


@pytest.mark.parametrize("vp", [0, 1])
@pytest.mark.parametrize("mnr", SWAP_SHAPES, ids=str)
def test_swap_maps_match_the_tuple_oracle(mnr, vp):
    shape = Shape(*mnr, vp)
    for i in range(1, shape.r):
        assert hecke._swap_map(i, shape) == swap_map(i, shape)


def test_vbar_degrees_build_their_word_tables_alone():
    """``verify (2|1,3) --vparity both`` reads the swaps of Vbar =
    K^{3|1} and K^{2|2} from the word tables of their degree 3, and
    builds none of its actions, basis matrices, orbits or group rank:
    the actions alone would be 3! maps of 4^3 words."""
    clear_caches()
    try:
        _report, status = cli.cmd_verify(cli.RunConfig(m=2, n=1, r=3,
                                                       vparity="both"))
        assert status == cli.EXIT_OK
        for vp, mn in ((0, (3, 1)), (1, (2, 2))):
            bar = vbar(Shape(2, 1, 3, vp))
            assert (bar.m, bar.n) == mn
            built = vars(schur_core.degree(bar, 3))
            assert "words" in built
            assert not {"actions", "xi", "orbits", "group"} & set(built)
    finally:
        clear_caches()


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


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=shape_id)
def test_random_words_match_matrix_products(shape):
    rng = random.Random(97)
    gens = hecke_generators(shape)
    for _ in range(60):
        a = tuple(rng.choice(gens) for _ in range(rng.randrange(6)))
        b = tuple(rng.choice(gens) for _ in range(rng.randrange(6)))
        assert eval_word(a, shape) == matrix_word(a, shape)
        # a word and the same word with a cancelling pair of swaps
        i = rng.randrange(1, shape.r)
        c = a + (SwapGen(i), SwapGen(i))
        for x, y in ((a, b), (a, c)):
            assert (_word_map(x, shape) == _word_map(y, shape)) == (
                matrix_word(x, shape) == matrix_word(y, shape)
            )


# ---------------------------------------------------------------------------
# relations


def test_relation_instance_validation():
    with pytest.raises(ValueError):
        RelationInstance("9.9")
    inst = RelationInstance("3.4", i=2, l=1, sigma=(0,))
    with pytest.raises(ValueError):
        check_relation(inst, Shape(1, 1, 3))  # needs i < l
    shape = Shape(1, 1, 4)
    for inst in (
        RelationInstance("3.1b", i=1, j=2),             # needs |i-j| > 1
        RelationInstance("3.1b", i=2, j=2),
        RelationInstance("3.2", i=1, j=3),              # needs |i-j| = 1
        RelationInstance("3.2", i=2, j=2),
        RelationInstance("3.5", i=2, l=2, sigma=(0, 1)),  # needs i > l
        RelationInstance("3.5", i=1, l=2, sigma=(0, 1)),
        RelationInstance("3.6", l=2, k=2, sigma=(0, 1), mu=(0, 1)),  # k != l
    ):
        with pytest.raises(ValueError, match=inst.rel):
            relation_sides(inst, shape)


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


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=shape_id)
def test_check_relation_matches_matrix_oracle(shape):
    for inst in relation_instances(shape):
        assert check_relation(inst, shape) == matrix_relation(inst, shape)
    expect = []
    for l in range(1, shape.r):
        agree = [matrix_word((SwapGen(l), LayerGen(l, sigma)), shape)
                 == matrix_word((LayerGen(l, sigma), SwapGen(l)), shape)
                 for sigma in perms(l)]
        expect.append((l, len(agree), sum(agree)))
    assert boundary_observations(shape) == expect


def test_closed_form_counts():
    for r in range(1, 6):
        shape = Shape(1, 0, r)
        assert relation_count(r) == len(list(relation_instances(shape)))
        assert generator_count(r) == len(hecke_generators(shape))
    assert relation_count(7) == 35010043


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=shape_id)
def test_certified_instances_are_distinct_members_of_the_full_set(shape):
    full = list(relation_instances(shape))
    certified = list(certified_instances(shape))
    assert len(set(certified)) == len(certified)
    assert set(certified) <= set(full)
    assert all(check_relation(inst, shape) for inst in full)


def is_an_action(table):
    """Oracle: every instance of relation 3.3 on a table of signed maps."""
    return all(schur_core.then(table[s], table[t])
               == table[comb.compose(s, t)] for s in table for t in table)


def test_acts_is_relation_3_3_on_flipped_tables():
    """``Degree.acts`` checks relation 3.3 on the table itself: with the
    sign of any one entry of any ``actions[sigma]`` flipped, l <= 3, at
    (1|1,3), it agrees with the oracle.  Every flip breaks 3.3 but two:
    a(s_1) at l = 2 on the words (1, 1) and (2, 2), which it fixes.  The
    table is then still an action of S_2, and relation 3.4 fails (see
    ``test_sign_mutants_fail_certified_set_iff_full_set``)."""
    shape = Shape(1, 1, 3)
    mutants, actions = 0, []
    for l in range(4):
        table = schur_core.degree(shape, l).actions
        assert schur_core.degree(shape, l).acts and is_an_action(table)
        for sigma, action in table.items():
            for p, (q, s) in action.items():
                deg = schur_core.Degree(shape, l)
                deg.actions = {**table, sigma: {**action, p: (q, -s)}}
                assert deg.acts == is_an_action(deg.actions), (l, sigma, p)
                if deg.acts:
                    actions.append((l, sigma, p))
                mutants += 1
    assert mutants == sum(math.factorial(l) * 2 ** l for l in range(4))
    assert actions == [(2, (1, 0), 0), (2, (1, 0), 3)]


def test_certified_totals():
    # (r-1)^2 swap relations, then 3.4, 3.5 and 3.6; no 3.3, which
    # ``Degree.acts`` checks on the table
    assert [sum(1 for _ in certified_instances(Shape(1, 0, r)))
            for r in (4, 7, 8)] == [42, 154, 212]
    assert not any(inst.rel == "3.3"
                   for inst in certified_instances(Shape(1, 1, 4)))


def test_dims_then_relations_check_each_certified_instance_once(
    monkeypatch
):
    """G1 and the relation suite read one cached verdict: ``dims`` then
    ``relations`` evaluate every certified instance once between them."""
    shape = Shape(1, 1, 3, 1)
    calls = []

    def counting(inst, sh):
        calls.append(inst)
        return check_relation(inst, sh)

    clear_caches()
    monkeypatch.setattr(hecke, "check_relation", counting)
    try:
        for command in (cli.cmd_dims, cli.cmd_relations):
            _report, status = command(cli.RunConfig(m=1, n=1, r=3,
                                                    vparity="odd"))
            assert status == cli.EXIT_OK
    finally:
        clear_caches()
    assert calls == list(certified_instances(shape))


def patch_map(mp, g, flipped):
    """Make ``flipped`` the map of swap ``g``, or the table entry of
    layer generator ``g``, which ``clear_caches`` rebuilds."""
    if isinstance(g, SwapGen):
        real = hecke._swap_map
        mp.setattr(hecke, "_swap_map",
                   lambda i, sh: flipped if i == g.i else real(i, sh))
    else:
        real = schur_core.signed_action
        mp.setattr(schur_core, "signed_action",
                   lambda w, sh: flipped if w == g.sigma else real(w, sh))


@pytest.mark.parametrize("vp", [0, 1])
def test_sign_mutants_fail_certified_set_iff_full_set(vp, monkeypatch):
    """Flip the sign of one entry of one generator map at a time: the
    relation verdict, with caches cleared, fails exactly when the full
    enumeration does.  A swap's map is flipped; a layer generator's is
    built on each call from its degree's ``actions`` entry, which is
    flipped instead."""
    shape = Shape(1, 1, 3, vp)
    caught = mutants = 0
    try:
        for g in hecke_generators(shape):
            gmap = (hecke._swap_map(g.i, shape) if isinstance(g, SwapGen)
                    else schur_core.signed_action(g.sigma, shape))
            for p, (q, s) in gmap.items():
                with monkeypatch.context() as mp:
                    patch_map(mp, g, {**gmap, p: (q, -s)})
                    clear_caches()
                    full = all(check_relation(inst, shape)
                               for inst in relation_instances(shape))
                    assert (not hecke.relation_failures(shape)) == full, (
                        g, p)
                mutants += 1
                caught += not full
    finally:
        clear_caches()
    assert mutants == caught > 100


def test_boundary_observations_are_reported_not_asserted():
    for shape in (SH0, SH1):
        obs = boundary_observations(shape)
        assert obs == [(1, 1, 0)]
        assert [type(x) for x in obs[0]] == [int, int, int]


@pytest.mark.parametrize("shape", [
    Shape(m, n, r, vp) for (m, n, r) in [(1, 0, 5), (2, 1, 3), (1, 1, 4)]
    for vp in (0, 1)
], ids=shape_id)
def test_every_boundary_observation_reads_false(shape, monkeypatch):
    """In word order s_l L(l, sigma) is defined on the words with support
    {1..l-1, l+1}, and L(l, sigma) s_l on the leading words: the two
    domains are disjoint and non-empty, so no sigma commutes, as G3 and
    relation 3.1a fix: the records are read with no swap map or
    placement built, no S_l enumerated and no map composed.
    ``commuting`` is the int 0, which JSON prints as 0, not false."""
    def refuse(*args):
        raise AssertionError("boundary record built from maps")

    with monkeypatch.context() as mp:
        mp.setattr(comb, "perms", refuse)
        for name in ("_word_map", "_swap_map"):
            mp.setattr(hecke, name, refuse)
        mp.setattr(enh, "_placements", refuse)
        obs = boundary_observations(shape)
    assert obs == [(l, math.factorial(l), 0) for l in range(1, shape.r)]
    assert {type(x) for rec in obs for x in rec} == {int}
    for l in range(1, shape.r):
        for sigma in perms(l):
            a = _word_map((SwapGen(l), LayerGen(l, sigma)), shape)
            b = _word_map((LayerGen(l, sigma), SwapGen(l)), shape)
            assert a and b and not set(a) & set(b)


class _Unwalked(dict):
    """A swap map that may be looked up but not walked."""

    def items(self):
        raise AssertionError("a whole swap map was walked")


@pytest.mark.parametrize("shape", [
    Shape(m, n, r, vp) for (m, n, r) in [(1, 1, 3), (1, 0, 5)]
    for vp in (0, 1)
], ids=shape_id)
def test_factor_maps_start_from_their_layer_generator(shape, monkeypatch):
    """A_T moves the words on T to the leading slots, then applies
    ``LayerGen(l, id)``: its map is built from the (m+n)^l words that
    generator keeps, pulled back through the swaps, and no swap map is
    walked whole.  Each factor equals its word composed left to right."""
    clear_caches()
    try:
        forward = {
            T: tuple(functools.reduce(schur_core.then,
                                      [_gen_map(g, shape) for g in word])
                     for word in hecke.factor_words(T))
            for T in hecke.d_factors(shape)}
        clear_caches()
        real = hecke._swap_map
        monkeypatch.setattr(hecke, "_swap_map",
                            lambda i, sh: _Unwalked(real(i, sh)))
        assert hecke.d_factors(shape) == forward
        assert len(forward) == 2 ** shape.r
    finally:
        clear_caches()


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
    with pytest.raises(ValueError):
        d_layer_algebra(3, SH0)


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
