"""Classical action, basis matrices, structure constants, duality.

The structure constants are checked against the faithful matrix
representation: the expansion of a product must reproduce the literal
matrix product for every ordered pair of basis labels.
"""

import random

import pytest

import oracles
from levischur.combinatorics import (
    Shape,
    adjacent_transposition,
    alpha,
    identity_perm,
    orbit_elements,
    orbit_signs,
    perms,
    strict_pairs,
)
from levischur.linalg import (
    QQ,
    ExactMatrix,
    PrimeField,
    commutant,
    rank_of_rows,
    span_of,
)
from levischur.schur_core import (
    classical_duality,
    degree,
    natural_basis,
    normalize_pair,
    pi_matrix,
    schur_basis,
    signed_action,
    structure_constants,
    word_position,
    xi_entries,
    xi_matrix,
)
from test_combinatorics import ORACLE_SHAPES

SH11 = Shape(1, 1, 2)
SH21 = Shape(2, 1, 2)


# ---------------------------------------------------------------------------
# the signed permutation action


@pytest.mark.parametrize("mnr", ORACLE_SHAPES, ids=str)
def test_signed_action_matches_the_tuple_oracle(mnr):
    """The table-driven action equals the tuple walk for every
    permutation of every degree up to r, entry by entry in word
    order."""
    shape = Shape(*mnr)
    for l in range(shape.r + 1):
        for w in perms(l):
            assert list(signed_action(w, shape).items()) == list(
                oracles.signed_action(w, shape).items())


def test_pi_identity():
    eye = pi_matrix(identity_perm(2), SH11, 2)
    assert eye == ExactMatrix.identity(SH11.field, 4)


def test_pi_swap_signs():
    swap = adjacent_transposition(2, 1)
    m = pi_matrix(swap, SH11, 2)
    pos = lambda w: word_position(w, SH11)
    # both letters odd: sign flips, word fixed
    assert m.entries[(pos((2, 2)), pos((2, 2)))] == SH11.field.coerce(-1)
    # mixed parity: plain swap
    assert m.entries[(pos((2, 1)), pos((1, 2)))] == SH11.field.coerce(1)
    assert m.entries[(pos((1, 1)), pos((1, 1)))] == SH11.field.coerce(1)


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_pi_involutions(l):
    shape = Shape(1, 1, l)
    d = 2 ** l
    for i in range(1, l):
        m = pi_matrix(adjacent_transposition(l, i), shape, l)
        assert m @ m == ExactMatrix.identity(shape.field, d)


def test_pi_right_action_composition():
    # matrices compose contravariantly against compose()
    from levischur.combinatorics import compose

    rng = random.Random(2)
    for l in (2, 3, 4):
        shape = Shape(1, 1, l)
        for _ in range(20):
            s = tuple(rng.sample(range(l), l))
            t = tuple(rng.sample(range(l), l))
            lhs = pi_matrix(compose(s, t), shape, l)
            rhs = pi_matrix(t, shape, l) @ pi_matrix(s, shape, l)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# basis matrices


def test_xi_degree_one():
    m = xi_matrix(((1,), (2,)), SH11)
    pos = lambda w: word_position(w, SH11)
    assert m.entries == {(pos((1,)), pos((2,))): SH11.field.one}
    diag = xi_matrix(((2,), (2,)), SH11)
    assert diag.entries == {(pos((2,)), pos((2,))): SH11.field.one}


def test_xi_requires_strict():
    with pytest.raises(ValueError):
        xi_matrix(((1, 1), (2, 2)), SH11)


def test_xi_nonrepresentative_is_signed_representative():
    for shape in (SH11, SH21):
        for l in (1, 2):
            for pair in strict_pairs(shape, l):
                rep, sign = normalize_pair(pair, shape)
                assert xi_matrix(pair, shape) == xi_matrix(rep, shape).scale(
                    sign
                )


def test_xi_linear_independence():
    for shape, l in [(SH11, 1), (SH11, 2), (SH21, 2), (Shape(1, 1, 3), 3)]:
        mats = [xi_matrix(p, shape) for p in schur_basis(shape, l)]
        assert rank_of_rows([m.flatten() for m in mats], shape.field) == len(
            mats
        )


def test_xi_commutes_with_pi():
    for shape, l in [(SH11, 2), (SH21, 2)]:
        swaps = [
            pi_matrix(adjacent_transposition(l, i), shape, l)
            for i in range(1, l)
        ]
        for pair in schur_basis(shape, l):
            m = xi_matrix(pair, shape)
            for s in swaps:
                assert m.commutes_with(s)


def walked_xi_entries(pair, shape):
    """The paper's formula on tuples: ``orbit_signs`` for the transport
    signs, ``word_position`` and ``alpha`` of the parity words."""
    m = shape.m
    entries = {}
    for (k, t), sgn in orbit_signs(pair, shape).items():
        et = tuple(x > m for x in t)
        ekt = tuple((a > m) != (b > m) for a, b in zip(k, t))
        entries[(word_position(k, shape), word_position(t, shape))] = (
            sgn * alpha(ekt, et))
    return entries


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
@pytest.mark.parametrize("mnr", [(2, 1, 3), (1, 2, 3), (1, 1, 4), (2, 2, 4),
                                 (3, 0, 3), (1, 3, 3)],
                         ids=lambda mnr: "%d|%d,%d" % mnr)
def test_xi_entries_match_the_tuple_walk(mnr, field):
    """``xi_entries`` walks the orbit on the integer tables of
    ``Degree.words``; it gives the tuple walk's dict, in the same order,
    on every basis label of every degree, and on every strict pair of
    degree 2."""
    shape = Shape(*mnr, 0, field)
    pairs = [p for l in range(shape.r + 1) for p in schur_basis(shape, l)]
    pairs += strict_pairs(shape, 2)
    for pair in pairs:
        got = xi_entries(pair, shape)
        want = walked_xi_entries(pair, shape)
        assert got == want and list(got) == list(want), pair


# ---------------------------------------------------------------------------
# structure constants


def test_structure_constants_degree_one():
    # diagonal labels are idempotent
    got = structure_constants(((1,), (1,)), ((1,), (1,)), SH11)
    assert got == {((1,), (1,)): 1}
    # strictly upper label squares to zero
    assert structure_constants(((1,), (2,)), ((1,), (2,)), SH11) == {}


@pytest.mark.parametrize(
    "m,n,l", [(1, 1, 1), (1, 1, 2), (2, 1, 2)]
)
def test_structure_constants_match_matrix_products(m, n, l):
    shape = Shape(m, n, max(l, 1))
    basis = schur_basis(shape, l)
    mats = {p: xi_matrix(p, shape) for p in basis}
    d = (m + n) ** l
    for a in basis:
        for b in basis:
            coeffs = structure_constants(a, b, shape)
            expected = ExactMatrix.zero(shape.field, d, d)
            for rep, c in coeffs.items():
                expected = expected + mats[rep].scale(c)
            assert mats[a] @ mats[b] == expected


def test_structure_constants_errors():
    with pytest.raises(ValueError):
        structure_constants(((1,), (1,)), ((1, 1), (1, 1)), SH11)
    with pytest.raises(ValueError):
        structure_constants(((1, 1), (2, 2)), ((1, 1), (1, 1)), SH11)


# ---------------------------------------------------------------------------
# classical duality


def test_classical_duality_smallest():
    rep = classical_duality(Shape(1, 1, 1))
    assert rep.dim_schur == 4
    assert rep.dim_commutant_of_symmetric_group == 4
    assert rep.spans_equal
    assert rep.converse_spans_equal
    assert rep.dim_commutant_of_schur == 1


def test_classical_duality_1_1_2():
    rep = classical_duality(SH11)
    assert rep.dim_schur == 8
    assert rep.spans_equal
    assert rep.r_le_mplusn
    assert rep.dim_commutant_of_schur == 2
    assert rep.converse_spans_equal


def test_classical_duality_2_1_2():
    rep = classical_duality(SH21)
    assert rep.dim_schur == 41
    assert rep.spans_equal
    assert rep.dim_commutant_of_schur == 2
    assert rep.converse_spans_equal


def test_commutant_of_pi_dimension_example():
    # the commutant of the signed swap on the 4-dimensional square of
    # the (1|1) space has dimension 8, the orbit count of degree 2
    swap = pi_matrix(adjacent_transposition(2, 1), SH11, 2)
    assert commutant([swap], 4).dimension == 8


def test_schur_span_matches_commutant():
    swap = pi_matrix(adjacent_transposition(2, 1), SH11, 2)
    assert commutant([swap], 4) == degree(SH11, 2).schur
