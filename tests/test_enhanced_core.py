"""Enhanced words, the Levi algebra matrices and their products.

Independent oracle used here: matrices built site by site from single
slot operators with the supercommutation rule (moving an odd operator
past an odd vector costs a sign), with no reference to the closed-form
reordering factors the implementation uses.
"""

import itertools

import pytest

from closed_forms import levi_layer_counts
from levischur.combinatorics import (
    Shape,
    add_parities,
    alpha,
    orbit_elements,
    orbit_reps,
    parity_of_index,
    parity_vector,
    sigma_sign,
)
from levischur.enhanced_core import (
    BOTTOM,
    LeviBasisElement,
    embed_alpha,
    enh_decode,
    enh_encode,
    enh_position,
    enhanced_basis,
    layer_positions,
    levi_basis,
    levi_product,
    levi_span,
    parity_flip_conjugator,
    rho_bottom,
    rho_levi,
    vbar,
    word_layer,
)
from levischur.linalg import QQ, ExactMatrix, PrimeField, rank_of_rows, span_of
from levischur.schur_core import (
    structure_constants,
    word_position,
    xi_entries,
    xi_matrix,
)

SH0 = Shape(1, 1, 2, vparity=0)
SH1 = Shape(1, 1, 2, vparity=1)


# ---------------------------------------------------------------------------
# words


def test_enh_encode_examples():
    assert enh_encode((1,), (1,), SH0) == (2, 1)
    assert enh_encode((), (), SH0) == (2, 2)
    assert enh_encode((1, 2), (0, 1), SH0) == (1, 3)
    with pytest.raises(ValueError):
        enh_encode((1,), (), SH0)
    with pytest.raises(ValueError):
        enh_encode((1,), (5,), SH0)
    # a repeated slot would drop a core letter: (3, 2) decodes to (2,)
    with pytest.raises(ValueError):
        enh_encode((1, 2), (0, 0), SH0)


@pytest.mark.parametrize("word", [(0, 1), (1, 4), (5, 2)])
def test_enh_decode_rejects_letters_outside_the_alphabet(word):
    with pytest.raises(ValueError):
        enh_decode(word, SH0)


def test_enh_roundtrip():
    for shape in (SH0, Shape(2, 1, 3)):
        for word in enhanced_basis(shape):
            core, supp = enh_decode(word, shape)
            assert enh_encode(core, supp, shape) == word
            assert word_layer(word, shape) == len(supp)


def test_letter_parity_uses_vparity():
    """The enhanced letters are the natural letters of ``vbar``:
    K^{2|1} for an even v, K^{1|2} for an odd one, v being letter 2."""
    assert vbar(SH0) == Shape(2, 1, 2, 0)
    assert vbar(SH1) == Shape(1, 2, 2, 0)
    assert parity_of_index(2, vbar(SH0)) == 0
    assert parity_of_index(2, vbar(SH1)) == 1
    assert parity_of_index(1, vbar(SH1)) == 0
    assert parity_of_index(3, vbar(SH1)) == 1


def test_layer_positions_partition():
    counts = [len(layer_positions(SH0, l)) for l in range(3)]
    assert counts == [1, 4, 4]
    assert sum(counts) == SH0.dim_enhanced


# ---------------------------------------------------------------------------
# bottom element


def test_bottom_projector():
    for shape in (SH0, SH1, Shape(2, 1, 3)):
        p = rho_bottom(shape)
        vword = tuple([shape.m + 1] * shape.r)
        pos = enh_position(vword, shape)
        assert p.entries == {(pos, pos): shape.field.one}
        assert p.trace() == 1
        assert p @ p == p


# ---------------------------------------------------------------------------
# the representation


def test_rho_levi_kills_other_layers():
    for shape in (SH0, SH1):
        for b in levi_basis(shape):
            mat = rho_levi(b, shape)
            basis = enhanced_basis(shape)
            for (r, c) in mat.entries:
                assert word_layer(basis[c], shape) == b.layer
                assert word_layer(basis[r], shape) == b.layer
                # support is preserved slot by slot
                assert enh_decode(basis[r], shape)[1] == enh_decode(
                    basis[c], shape
                )[1]


def test_rho_levi_leading_support_is_classical_action():
    for shape in (SH0, SH1, Shape(2, 1, 2, 1)):
        for l in range(1, shape.r + 1):
            lead = tuple(range(l))
            for pair in orbit_reps(shape, l):
                big = rho_levi(LeviBasisElement(pair, l), shape)
                small = xi_matrix(pair, shape)
                words = list(
                    itertools.product(
                        range(1, shape.m + shape.n + 1), repeat=l
                    )
                )
                for t in words:
                    col = enh_position(enh_encode(t, lead, shape), shape)
                    got = {
                        r: v for (r, c), v in big.entries.items() if c == col
                    }
                    want = {}
                    for (rr, cc), v in small.entries.items():
                        if cc == word_position(t, shape):
                            k = words[rr]
                            want[
                                enh_position(enh_encode(k, lead, shape), shape)
                            ] = v
                    assert got == want


def test_rho_levi_trailing_support_sign_depends_on_vparity():
    # frozen by hand from the reordering factor: moving the odd letter
    # of the image word past the enhanced slot costs (-1)^vparity
    b = LeviBasisElement(((1,), (2,)), 1)
    for shape, expected in [(SH0, 1), (SH1, -1)]:
        mat = rho_levi(b, shape)
        row = enh_position((2, 1), shape)
        col = enh_position((2, 3), shape)
        assert mat.entries[(row, col)] == shape.field.coerce(expected)


def tensor_unit_oracle(core_pair, supp, shape):
    """Site-by-site construction of the elementary tensor operator with
    the given letter pairs on the support and the enhanced projector
    elsewhere.  Signs come only from commuting each slot operator past
    the vectors in earlier slots."""
    i, j = core_pair
    d = shape.dim_enhanced
    bar = vbar(shape)
    slot_ops = []
    for p in range(shape.r):
        if p in supp:
            k = supp.index(p)
            from levischur.enhanced_core import natural_to_letter

            a = natural_to_letter(i[k], shape)
            b = natural_to_letter(j[k], shape)
            slot_ops.append((a, b))
        else:
            enhl = shape.m + 1
            slot_ops.append((enhl, enhl))
    entries = {}
    for word in enhanced_basis(shape):
        out = []
        sign = 0
        ok = True
        for p, (a, b) in enumerate(slot_ops):
            # operator parity of slot p times parity of everything the
            # operator jumps over (vectors in slots before p)
            op_par = (parity_of_index(a, bar) + parity_of_index(b, bar)) % 2
            if op_par:
                sign ^= sum(
                    parity_of_index(word[q], bar) for q in range(p)
                ) % 2
            if word[p] != b:
                ok = False
                break
            out.append(a)
        if ok:
            tgt = tuple(out)
            entries[(enh_position(tgt, shape), enh_position(word, shape))] = (
                -1 if sign else 1
            )
    return ExactMatrix(shape.field, d, d, entries)


def rho_oracle(b, shape):
    out = ExactMatrix.zero(shape.field, shape.dim_enhanced, shape.dim_enhanced)
    for supp in itertools.combinations(range(shape.r), b.layer):
        for kt in orbit_elements(b.pair):
            sgn = sigma_sign(b.pair, kt, shape)
            out = out + tensor_unit_oracle(kt, supp, shape).scale(sgn)
    return out


def rho_alpha_oracle(b, shape):
    """The reordering sign over the full parity vectors: on a word of
    support I and core t, the image is the sum over orbit elements (k, t)
    of sigma(b.pair; k, t) alpha(eps_{k,I} + eps_{t,I}, eps_{t,I}) times
    the word with core k on I, enhanced slots contributing vparity."""
    d = shape.dim_enhanced
    bar = vbar(shape)
    entries = {}
    for supp in itertools.combinations(range(shape.r), b.layer):
        for k, t in orbit_elements(b.pair):
            wk = enh_encode(k, supp, shape)
            wt = enh_encode(t, supp, shape)
            ek = parity_vector(wk, bar)
            et = parity_vector(wt, bar)
            entries[(enh_position(wk, shape), enh_position(wt, shape))] = (
                sigma_sign(b.pair, (k, t), shape)
                * alpha(add_parities(ek, et), et)
            )
    return ExactMatrix(shape.field, d, d, entries)


@pytest.mark.parametrize("vparity", [0, 1])
@pytest.mark.parametrize("mnr", [
    (1, 1, 2), (1, 1, 3), (2, 1, 2), (1, 2, 3), (2, 1, 3), (1, 0, 3), (2, 2, 2)])
def test_levi_basis_is_a_schur_basis_of_vbar(mnr, vparity):
    """Levi-type identity: every Levi basis matrix is the basis element
    of S(Vbar, r) labelled by ``b.pair`` on the leading slots and v
    elsewhere, all v for ``BOTTOM``.  So S'(m|n,r) is spanned by the
    basis elements of S(Vbar, r) whose two words carry v in the same
    slots."""
    shape = Shape(*mnr, vparity)
    d = shape.dim_enhanced
    for b in levi_basis(shape):
        lead = tuple(range(b.layer))
        pair = tuple(enh_encode(w, lead, shape) for w in b.pair)
        assert rho_levi(b, shape) == ExactMatrix(
            shape.field, d, d, xi_entries(pair, vbar(shape)))


@pytest.mark.parametrize(
    "shape", [SH0, SH1, Shape(2, 1, 2, 1), Shape(1, 1, 3, 0)]
)
def test_rho_levi_matches_site_by_site_oracle(shape):
    for b in levi_basis(shape):
        assert rho_levi(b, shape) == rho_oracle(b, shape)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
@pytest.mark.parametrize("vparity", [0, 1])
@pytest.mark.parametrize(
    "mnr", [(1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 1, 3), (1, 2, 3), (1, 1, 4)]
)
def test_rho_levi_matches_alpha_oracle(mnr, vparity, field):
    """The twisted placement of ``xi_matrix`` against the reordering sign
    over the full parity vectors."""
    shape = Shape(*mnr, vparity, field)
    for b in levi_basis(shape):
        assert rho_levi(b, shape) == rho_alpha_oracle(b, shape)


# ---------------------------------------------------------------------------
# basis bookkeeping


def test_levi_basis_counts():
    assert len(levi_basis(SH0)) == 13
    assert len(levi_basis(Shape(1, 1, 1))) == 5
    assert len(levi_basis(Shape(2, 1, 2))) == 51
    assert levi_basis(SH0)[0] == BOTTOM
    assert len(levi_basis(SH0)) == sum(levi_layer_counts(1, 1, 2))


def test_embed_alpha():
    b = embed_alpha(2, ((1, 2), (1, 2)), SH0)
    assert b.layer == 2 and b.pair == ((1, 2), (1, 2))
    assert embed_alpha(0, ((), ()), SH0) == BOTTOM
    with pytest.raises(ValueError):
        embed_alpha(1, ((1, 2), (1, 2)), SH0)
    with pytest.raises(ValueError):
        embed_alpha(2, ((1, 1), (2, 2)), SH0)
    # strict, but not the sorted representative of its orbit
    with pytest.raises(ValueError):
        embed_alpha(2, ((2, 1), (2, 1)), SH0)


def test_faithfulness_rank():
    for shape in (SH0, SH1, Shape(2, 1, 2, 0), Shape(1, 1, 3, 1)):
        mats = [rho_levi(b, shape) for b in levi_basis(shape)]
        assert rank_of_rows(
            [m.flatten() for m in mats], shape.field
        ) == len(mats)
        assert levi_span(shape).dimension == sum(
            levi_layer_counts(shape.m, shape.n, shape.r))


# ---------------------------------------------------------------------------
# products


def test_levi_product_layers_differ():
    a = LeviBasisElement(((1,), (1,)), 1)
    b = LeviBasisElement(((1, 1), (1, 1)), 2)
    assert levi_product(a, b, SH0) == {}
    assert levi_product(b, a, SH0) == {}
    assert levi_product(BOTTOM, a, SH0) == {}


def test_bottom_idempotent_via_matrix_oracle():
    for shape in (SH0, SH1):
        assert levi_product(BOTTOM, BOTTOM, shape) == {BOTTOM: 1}
        p = rho_bottom(shape)
        assert p @ p == p
        for b in levi_basis(shape)[1:]:
            m = rho_levi(b, shape)
            assert (p @ m).is_zero()
            assert (m @ p).is_zero()


@pytest.mark.parametrize("shape", [SH0, SH1])
def test_levi_product_matches_matrices(shape):
    basis = levi_basis(shape)
    mats = {b: rho_levi(b, shape) for b in basis}
    d = shape.dim_enhanced
    for a in basis:
        for b in basis:
            expansion = levi_product(a, b, shape)
            expected = ExactMatrix.zero(shape.field, d, d)
            for elem, c in expansion.items():
                expected = expected + mats[elem].scale(c)
            assert mats[a] @ mats[b] == expected


def test_embedding_respects_structure_constants():
    shape = SH0
    for l in (1, 2):
        reps = orbit_reps(shape, l)
        for a in reps:
            for b in reps:
                prod = levi_product(
                    embed_alpha(l, a, shape), embed_alpha(l, b, shape), shape
                )
                flat = {e.pair: c for e, c in prod.items()}
                assert flat == structure_constants(a, b, shape)


# ---------------------------------------------------------------------------
# whole-algebra structure


def test_direct_sum_over_layers():
    for shape in (SH0, SH1):
        total = levi_span(shape)
        layer_spans = []
        for l in range(shape.r + 1):
            mats = [
                rho_levi(b, shape)
                for b in levi_basis(shape)
                if b.layer == l
            ]
            layer_spans.append(
                span_of(mats, d=shape.dim_enhanced, field=shape.field)
            )
        assert sum(s.dimension for s in layer_spans) == total.dimension
        combined = span_of(
            [m for s in layer_spans for m in s.basis],
            d=shape.dim_enhanced,
            field=shape.field,
        )
        assert combined == total


def test_parity_conjugation():
    for m, n, r in [(1, 1, 2), (2, 1, 2), (1, 1, 3)]:
        sh_even = Shape(m, n, r, 0)
        sh_odd = Shape(m, n, r, 1)
        flip = parity_flip_conjugator(sh_even)
        assert flip @ flip == ExactMatrix.identity(
            sh_even.field, sh_even.dim_enhanced
        )
        for b0, b1 in zip(levi_basis(sh_even), levi_basis(sh_odd)):
            m0 = rho_levi(b0, sh_even)
            m1 = rho_levi(b1, sh_odd)
            assert (flip @ m0 @ flip).entries == m1.entries
