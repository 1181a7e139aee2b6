"""The certificate of D and the factored layers against the full-space
constructions.

The brute-force constructions below are the oracle for
``hecke.d_certificate``, ``hecke.d_algebra`` and ``duality.layer_factors``:
the closure of D (right products with the Coxeter generators, and the
two-sided closure over every generator), commutants on the whole
enhanced space, the full layer blocks of C(r,l)(m+n)^l words, and the
layer algebras closed from their own generators.  The Levi side is
checked on its frame; the whole-space passes it replaced (every Levi
basis matrix moved by the B_S, the rank of the Levi span, and the
echelon of the layer-restricted columns) are kept here as its oracles.
"""

import itertools
import json
import math
from pathlib import Path

import pytest

import levischur
from closed_forms import levi_layer_counts
from levischur import cli, duality, hecke, linalg, schur_core
from levischur import enhanced_core as enh
from levischur.combinatorics import (
    Shape,
    adjacent_transposition,
    identity_perm,
    natural_words,
    parity_vector,
    perms,
)
from levischur.hecke import LayerGen, SwapGen, layer_projector, xi_gen
from levischur.linalg import (
    DEFAULT_SIZE_CAP,
    AlgebraSpan,
    Echelon,
    ExactMatrix,
    PrimeField,
    QQ,
    algebra_closure,
    commutant,
    span_of,
)
from oracles import group_span

SHAPES = [
    Shape(m, n, r, vp, field)
    for (m, n, r) in [(1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 1, 3)]
    for vp in (0, 1)
    for field in (QQ, PrimeField(3))
]
DEEP = [Shape(1, 1, 4, vp) for vp in (0, 1)]
DEEP_GF3 = [Shape(1, 1, 4, vp, PrimeField(3)) for vp in (0, 1)]
GOLDEN = Path(__file__).parent / "golden"


def shape_id(sh):
    return f"({sh.m}|{sh.n},{sh.r})-v{sh.vparity}-{sh.field!r}"


@pytest.fixture(autouse=True)
def fresh_caches():
    levischur.clear_caches()
    yield
    levischur.clear_caches()


def block(mat, positions):
    """The square submatrix on these rows and columns, in this order."""
    index = {p: k for k, p in enumerate(positions)}
    return ExactMatrix(mat.field, len(index), len(index), {
        (index[r], index[c]): v for (r, c), v in mat.entries.items()
        if r in index and c in index
    })


def coxeter_closure(shape):
    """D closed from the identity by right products with the Coxeter
    generators."""
    d = shape.dim_enhanced
    gens = [xi_gen(g, shape) for g in hecke.coxeter_generators(shape)]
    return algebra_closure(gens, True, d=d, field=shape.field, size_cap=d)


def two_sided_closure(shape):
    """Closure with identity over every generator, multiplying on both
    sides."""
    d, f = shape.dim_enhanced, shape.field
    gens = [xi_gen(g, shape) for g in hecke.hecke_generators(shape)]
    ech = Echelon(f)
    frontier = []
    for m in [ExactMatrix.identity(f, d)] + gens:
        if ech.add(m.flatten()):
            frontier.append(m)
    while frontier:
        fresh = []
        for b in frontier:
            for g in gens:
                for prod in (b @ g, g @ b):
                    if ech.add(prod.flatten()):
                        fresh.append(prod)
        frontier = fresh
    return AlgebraSpan(f, d, ech)


def closed_layer_algebra(l, shape):
    """Closure of the layer projector, the swaps cut down to layer l and
    the layer-l permutation generators."""
    keep = set(enh.layer_positions(shape, l))

    def cut(mat):
        return ExactMatrix(
            mat.field, mat.nrows, mat.ncols,
            {pos: v for pos, v in mat.entries.items()
             if pos[0] in keep and pos[1] in keep},
        )

    gens = [layer_projector(l, shape)]
    gens += [cut(xi_gen(SwapGen(i), shape)) for i in range(1, shape.r)]
    gens += [xi_gen(LayerGen(l, s), shape) for s in perms(l)]
    return algebra_closure(
        gens, include_identity=False, d=shape.dim_enhanced,
        field=shape.field,
    )


def full_blocks(shape, dalg):
    """Per layer, the blocks on all C(r,l)(m+n)^l words of the layer: D_l,
    L_l, the commutant of the generators of D and that of the Levi
    basis."""
    f = shape.field
    levi = [enh.rho_levi(b, shape) for b in enh.levi_basis(shape)]
    gens = [xi_gen(g, shape) for g in hecke.coxeter_generators(shape)]
    for l in range(shape.r + 1):
        pos = enh.layer_positions(shape, l)
        size = len(pos)
        levi_l = [block(m, pos) for m in levi]
        yield (
            span_of([block(m, pos) for m in dalg.basis], d=size, field=f),
            span_of(levi_l, d=size, field=f),
            commutant([block(m, pos) for m in gens], size, field=f,
                      size_cap=size),
            commutant(levi_l, size, field=f, size_cap=size),
        )


def member_matrix(x, shape):
    d = shape.dim_enhanced
    return ExactMatrix(shape.field, d, d,
                       {(q, p): s for p, (q, s) in x.items()})


def transported(span, l, shape, diagonal):
    """Whole-space matrices E_{S,lead} Y E_{lead,T} for Y in the basis of a
    span on the leading support: summed over S = T when ``diagonal``
    (I_k (x) Y), one per pair (S, T) otherwise (M_k (x) Y)."""
    fac = hecke.d_factors(shape)
    pos = enh.support_positions(shape, identity_perm(l))
    supports = list(itertools.combinations(range(shape.r), l))
    out_of = {S: fac[S][1] for S in supports}
    into = {
        T: {q: (p, s) for p, (q, s) in fac[T][0].items()}
        for T in supports
    }
    groups = (
        [[(S, S) for S in supports]] if diagonal
        else [[(S, T)] for S in supports for T in supports]
    )
    d = shape.dim_enhanced
    mats = []
    for y in span.basis:
        for group in groups:
            entries = {}
            for S, T in group:
                for (a, b), v in y.entries.items():
                    (p, s), (p2, s2) = out_of[S][pos[a]], into[T][pos[b]]
                    entries[(p, p2)] = v * s * s2
            mats.append(ExactMatrix(shape.field, d, d, entries))
    return mats


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_coxeter_closure_matches_two_sided_closure(shape):
    dalg = hecke.d_algebra(shape)
    assert dalg == coxeter_closure(shape) == two_sided_closure(shape)
    assert dalg.dimension == duality.verify_second(shape).dim_D
    for g in hecke.hecke_generators(shape):
        assert dalg.contains(xi_gen(g, shape))
    for l in range(shape.r + 1):
        assert hecke.d_layer_algebra(l, shape) == closed_layer_algebra(
            l, shape
        )


@pytest.mark.parametrize("shape", SHAPES + DEEP, ids=shape_id)
def test_blocks_match_full_space_commutants(shape):
    d, f = shape.dim_enhanced, shape.field
    fac = duality.layer_factors(shape)
    assert fac.failed_gate is None
    dalg = coxeter_closure(shape)
    levi = enh.levi_span(shape)
    gens = [xi_gen(g, shape) for g in hecke.coxeter_generators(shape)]
    degs = [schur_core.degree(shape, x.layer) for x in fac.layers]

    def whole(spans, diagonal):
        return span_of([
            m for x, span in zip(fac.layers, spans)
            for m in transported(span, x.layer, shape, diagonal)
        ], d=d, field=f)

    # under the verdicts C(Pi_l) = S(m|n,l) and C(S(m|n,l)) = Pi_l
    assert all(x.certified and x.converse for x in fac.layers)
    groups = [group_span(deg) for deg in degs]
    assert [deg.group for deg in degs] == [g.dimension for g in groups]
    pis = whole(groups, False)
    assert pis == dalg == hecke.d_algebra(shape)
    assert pis == commutant(levi.basis, d, field=f)
    assert whole([deg.schur for deg in degs], True) == levi == commutant(
        gens, d, field=f)
    for x, (d_l, levi_l, comm_d, comm_levi) in zip(
        fac.layers, full_blocks(shape, dalg)
    ):
        assert x.block_size == d_l.ambient_dim
        assert x.dim_D == d_l.dimension
        assert x.dim_commutant_pi == comm_d.dimension
        assert x.dim_commutant_levi == comm_levi.dimension
        assert x.certified == (comm_d == levi_l)
        assert x.converse == (comm_levi == d_l)
        assert all(comm_levi.contains(m) for m in d_l.basis)


@pytest.mark.parametrize("shape", SHAPES + DEEP, ids=shape_id)
def test_degree_data_matches_cut_blocks(shape):
    """The classical data of every degree against the leading blocks cut
    from the whole-space ``rho_levi`` and ``LayerGen`` matrices, and the
    commutants solved on those blocks."""
    f = shape.field
    for l in range(shape.r + 1):
        deg = schur_core.degree(shape, l)
        lead = enh.support_positions(shape, identity_perm(l))
        size = len(lead)
        assert deg.dim == size
        levi = [block(enh.rho_levi(b, shape), lead)
                for b in enh.levi_basis(shape) if b.layer == l]
        assert [ExactMatrix(f, size, size, x)
                for x in deg.xi.values()] == levi
        pis = [block(xi_gen(LayerGen(l, w), shape), lead) for w in perms(l)]
        assert pis == [schur_core.pi_matrix(w, shape, l) for w in perms(l)]
        simple = [block(xi_gen(LayerGen(l, adjacent_transposition(l, i)),
                               shape), lead) for i in range(1, l)]
        assert deg.schur == span_of(levi, d=size, field=f)
        group = span_of(pis, d=size, field=f)
        assert deg.group == group.dimension
        comm_pi = commutant(simple, size, field=f, size_cap=size)
        assert deg.orbits[0] == comm_pi.dimension
        assert deg.certified == (comm_pi == deg.schur)
        assert deg.converse == (commutant(levi, size, field=f,
                                          size_cap=size) == group)
        assert deg.certified and deg.converse


def refuse_elimination(*args, **kwargs):
    raise AssertionError("commutant eliminated on the run path")


def test_both_parities_solve_each_degree_once(monkeypatch):
    """The classical data is keyed on (m, n, l, field): ``dims`` decides
    the converse of each degree once, on its characters over the
    rationals, which fixes dim Pi_l, and ``verify --vparity both`` then
    certifies the two commutants of each degree on the same verdicts,
    with no elimination and no count.  Over GF(3) the count runs once,
    at the one degree l >= 3."""
    counted = []

    def recording(gens, d, target, field, unknowns=None):
        counted.append(d)
        return linalg.nullity_reaches(gens, d, target, field, unknowns)

    monkeypatch.setattr(schur_core, "nullity_reaches", recording)
    monkeypatch.setattr(linalg, "commutant", refuse_elimination)
    for field, counts in (("p:3", [3 ** 3]), ("q", [])):
        levischur.clear_caches()
        counted.clear()
        for command in (cli.cmd_dims, cli.cmd_verify):
            _report, status = command(cli.RunConfig(m=2, n=1, r=3,
                                                    field=field))
            assert status == cli.EXIT_OK
            assert counted == counts
    # the 4 natural degrees, and the swap tables of Vbar = K^{3|1} and
    # K^{2|2} at degree 3, one per parity
    assert schur_core._degree.cache_info().misses == 4 + 2
    for l in range(4):
        assert (schur_core.degree(Shape(2, 1, 3, 0), l)
                is schur_core.degree(Shape(2, 1, 5, 1), l))
        assert {e["method"] for e in schur_core.degree(
            Shape(2, 1, 3), l).solves.values()} == {"certified"}
    for vbar in (Shape(3, 1, 3), Shape(2, 2, 3)):
        assert "words" in vars(schur_core.degree(vbar, 3))
    assert schur_core._degree.cache_info().misses == 4 + 2
    assert (schur_core.degree(Shape(2, 1, 3), 2)
            is not schur_core.degree(Shape(2, 1, 3, 0, PrimeField(3)), 2))


def xi_sign_mutants(shape):
    """(pair, entry) for every entry of every basis matrix with more than
    one entry; a matrix with one entry only changes sign as a whole."""
    return [
        (pair, kt)
        for l in range(shape.r + 1)
        for pair in schur_core.schur_basis(shape, l)
        for kt in schur_core.xi_entries(pair, shape)
        if len(schur_core.xi_entries(pair, shape)) > 1
    ]


def test_every_xi_sign_mutant_fails_verify(monkeypatch):
    """Each mutant fails ``verify``, and its ``first_duality`` check with
    the whole-space commutation oracle."""
    real = schur_core.xi_entries
    mutants = xi_sign_mutants(MUTANT_SHAPE)
    assert len(mutants) == 54
    survivors = []
    for pair, kt in mutants:
        def mutant(p, sh):
            entries = real(p, sh)
            if p != pair:
                return entries
            return {**entries, kt: -entries[kt]}

        with monkeypatch.context() as mp:
            mp.setattr(schur_core, "xi_entries", mutant)
            levischur.clear_caches()
            report, status = cli.cmd_verify(cli.RunConfig(
                m=1, n=1, r=3, vparity="even"
            ))
            [first] = [c for c in report["checks"]
                       if c["name"] == "first_duality"]
            if (status != cli.EXIT_CHECK_FAILED or first["passed"]
                    or commutation_oracle(MUTANT_SHAPE, True)[0]):
                survivors.append((pair, kt))
        levischur.clear_caches()
    assert not survivors


# per support S, the twist exponent of every core word, as
# ``enh._placements`` computes it
TWIST_MUTANTS = {
    # the twist forgotten: vparity 1 served the vparity 0 matrices
    "none": lambda supp, sh: (0,) * (sh.m + sh.n) ** len(supp),
    # enhanced slots counted after the letter instead of before it
    "after": lambda supp, sh: tuple(
        sum(sh.r - 1 - p - (len(supp) - 1 - j)
            for j, (p, e) in enumerate(zip(supp, parity_vector(k, sh)))
            if e) & 1
        for k in natural_words(sh, len(supp))
    ),
    # every earlier slot counted, natural ones too
    "slots": lambda supp, sh: tuple(
        sum(p for p, e in zip(supp, parity_vector(k, sh)) if e) & 1
        for k in natural_words(sh, len(supp))
    ),
}


@pytest.mark.parametrize("name", sorted(TWIST_MUTANTS))
def test_twist_mutants_fail_transport_and_cross_parity(name, monkeypatch):
    twist = TWIST_MUTANTS[name]
    monkeypatch.setattr(enh, "_placements", lambda l, sh: tuple(
        (enh.support_positions(sh, S), twist(S, sh))
        for S in itertools.combinations(range(sh.r), l)
    ))
    shape = Shape(1, 1, 3, 1)
    assert duality.layer_factors(shape).failed_gate == "levi_transport"
    assert not transport_oracle(shape)
    assert_all_block_checks_fail(shape)
    # with G3 failed the first direction fixes nothing; the whole-space
    # oracle misses the "after" twist, whose Levi matrices still commute
    # with D
    check = first_duality(shape)
    assert check["passed"] is False and check["details"]["dim_levi"] is None
    assert commutation_oracle(shape, True)[0] is (name == "after")
    cfg = cli.RunConfig(m=1, n=1, r=3)
    check = cli._cross_parity_check(cfg)
    assert check["name"] == "cross_parity_conjugation"
    assert check["passed"] is cross_parity_oracle(cfg)["passed"] is False


@pytest.mark.parametrize("shape", SHAPES[::2] + DEEP, ids=shape_id)
def test_family_words_evaluate_to_members(shape):
    """Each factor A_T, B_T is the matrix of its word, and the matrix
    products B_S L_w A_T span ``d_algebra``."""
    fac = hecke.d_factors(shape)
    assert len(fac) == 2 ** shape.r
    words = {}
    for T, maps in fac.items():
        words[T] = [hecke.eval_word(word, shape)
                    for word in hecke.factor_words(T)]
        for mat, x in zip(words[T], maps):
            assert mat == member_matrix(x, shape)
    products = [
        words[S][1] @ xi_gen(LayerGen(len(T), w), shape) @ words[T][0]
        for T in fac for w in perms(len(T)) for S in fac
        if len(S) == len(T)
    ]
    # 209 products at (1|1,4)
    assert len(products) == sum(
        math.comb(shape.r, l) ** 2 * math.factorial(l)
        for l in range(shape.r + 1)
    )
    assert span_of(products, d=shape.dim_enhanced,
                   field=shape.field) == hecke.d_algebra(shape)


def assert_all_block_checks_fail(shape):
    assert duality.layer_factors(shape).failed_gate is not None
    assert not duality.verify_first(shape).holds
    assert not duality.verify_second(shape).spans_equal
    assert not any(duality.verify_layer_endos(shape).per_layer_equal)
    _report, status = cli.cmd_verify(cli.RunConfig(
        m=shape.m, n=shape.n, r=shape.r,
        vparity=("even", "odd")[shape.vparity], field=shape.field.name))
    assert status == cli.EXIT_CHECK_FAILED


def drop_diagonal_entry(monkeypatch):
    """Serve the weight idempotent xi(((1, 2), (1, 2))) without one of its
    two entries: the diagonal basis matrices of degree 2 no longer sum to
    1, and the Levi span misses the unit P_2."""
    real = schur_core.xi_entries
    diagonal = ((1, 2), (1, 2))

    def mutant(pair, sh):
        entries = real(pair, sh)
        if pair == diagonal:
            del entries[max(entries)]
        return entries

    monkeypatch.setattr(schur_core, "xi_entries", mutant)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_levi_span_missing_a_unit_fails_gate(shape, monkeypatch):
    drop_diagonal_entry(monkeypatch)
    assert schur_core.degree(shape, 2).weight_blocks is None
    assert not enh.levi_span(shape).contains(layer_projector(2, shape))
    assert_all_block_checks_fail(shape)
    assert duality.layer_factors(shape).failed_gate == "levi_transport"
    assert [duality.verify_faithful_layer_action(shape, l)
            for l in range(1, shape.r + 1)] == [
        l != 2 for l in range(1, shape.r + 1)]
    assert duality.verify_first(shape).dim_levi is None


@pytest.mark.parametrize("shape", SHAPES[::2], ids=shape_id)
def test_flipped_leading_word_of_a_unit_fails(shape, monkeypatch):
    """B_S with the sign of one leading word flipped no longer matches
    the placement of the Levi matrices on S: G3 fails on its own, and G1
    or G2 fails before it."""
    S = tuple(range(shape.r - 2, shape.r))
    lead = enh.support_positions(shape, (0, 1))

    def flip(fac, sh):
        A, B = fac[S]
        q, s = B[lead[1]]
        fac[S] = (A, {**B, lead[1]: (q, -s)})

    patch_family(monkeypatch, flip)
    assert not duality._levi_transport(shape)[2]
    assert hecke.d_certificate(shape) in ("certificate", "matrix_units")
    assert_all_block_checks_fail(shape)


def transport_oracle(shape):
    """Every Levi basis matrix is its ``xi_entries`` moved to each support
    by the B_S, built entry by entry, and every P_l lies in the Levi
    span."""
    fac = hecke.d_factors(shape)
    f = shape.field
    for b in enh.levi_basis(shape):
        pos = enh.support_positions(shape, identity_perm(b.layer))
        xi = schur_core.degree(shape, b.layer).xi[b.pair]
        moved = {}
        for S, (_A, B) in fac.items():
            if len(S) != b.layer:
                continue
            for (k, t), v in xi.items():
                (p, s), (p2, s2) = B[pos[k]], B[pos[t]]
                moved[(p, p2)] = f.coerce(v if s == s2 else -v)
        if moved != enh.rho_levi(b, shape).entries:
            return False
    levi = enh.levi_span(shape)
    return all(levi.contains(layer_projector(l, shape))
               for l in range(shape.r + 1))


def faithful_oracle(shape, l):
    """The layer-restricted columns of every degree-l basis matrix have
    a trivial common kernel."""
    index = {p: k for k, p in enumerate(enh.layer_positions(shape, l))}
    ech = Echelon(shape.field)
    for b in enh.levi_basis(shape):
        if b.layer != l:
            continue
        rows = {}
        for (r, c), v in enh.rho_levi(b, shape).entries.items():
            if c in index:
                rows.setdefault(r, {})[index[c]] = v
        for row in rows.values():
            ech.add(row)
    return ech.rank == len(index)


@pytest.mark.parametrize("shape", SHAPES + DEEP + DEEP_GF3, ids=shape_id)
def test_levi_verdicts_match_whole_space_oracles(shape):
    """G3, the rank ``first_duality`` reads and ``faithful_layer_action``,
    read on the frame, against the whole-space passes they replaced."""
    fac = duality.layer_factors(shape)
    dim_levi = duality.verify_first(shape).dim_levi
    faithful = tuple(duality.verify_faithful_layer_action(shape, l)
                     for l in range(1, shape.r + 1))
    assert transport_oracle(shape)
    assert all(duality._levi_transport(shape)) and fac.failed_gate is None
    rank = enh.levi_span(shape).dimension
    assert rank == sum(levi_layer_counts(shape.m, shape.n, shape.r))
    assert rank == dim_levi
    assert faithful == tuple(
        faithful_oracle(shape, l) for l in range(1, shape.r + 1))
    assert all(faithful)


def commutation_oracle(shape, relations_hold):
    """The commutation that ``first_duality`` covers, entry by entry:
    every whole-space Levi basis matrix against every Coxeter generator,
    and the relations, which make them generate D.  Returns the verdict
    and the pairs ``first_duality`` counts, the Levi basis against every
    ``hecke_generators`` member."""
    gens = [hecke.xi_gen(g, shape) for g in hecke.coxeter_generators(shape)]
    basis = enh.levi_basis(shape)
    commute = all(enh.rho_levi(b, shape).commutes_with(g)
                  for b in basis for g in gens)
    return (commute and relations_hold,
            len(basis) * hecke.generator_count(shape.r))


def first_duality(shape):
    [check] = [c for c in cli._duality_checks(shape, DEFAULT_SIZE_CAP)
               if c["name"] == "first_duality"]
    return check


def commutation_read(check):
    """What a ``first_duality`` record says of the commutation."""
    return check["passed"], check["details"]["pairs"]


def cross_parity_oracle(cfg):
    """The ``cross_parity_conjugation`` check entry by entry: every
    vparity 1 Levi basis matrix is its vparity 0 counterpart conjugated
    by ``enh.parity_flip_conjugator``."""
    sh0, sh1 = cfg.shapes()
    # the conjugator is diagonal +-1: entry (a, b) flips when its signs do
    flip = {a: v for (a, _), v in
            enh.parity_flip_conjugator(sh0).entries.items()}
    ok = all(
        enh.rho_levi(b1, sh1).entries == {
            (a, b): v if flip[a] == flip[b] else sh0.field.neg(v)
            for (a, b), v in enh.rho_levi(b0, sh0).entries.items()}
        for b0, b1 in zip(enh.levi_basis(sh0), enh.levi_basis(sh1)))
    return cli._check("cross_parity_conjugation", -1, ok)


def both_parities(shape):
    return cli.RunConfig(m=shape.m, n=shape.n, r=shape.r,
                         field=shape.field.name)


@pytest.mark.parametrize("shape", SHAPES + DEEP + DEEP_GF3, ids=shape_id)
def test_commutation_and_cross_parity_match_oracles(shape):
    """The commutation, read from the first direction, and
    ``cross_parity_conjugation``, read on the frame, against the
    whole-space checks they replaced."""
    assert commutation_read(first_duality(shape)) == (
        commutation_oracle(shape, True))
    check = cli._cross_parity_check(both_parities(shape))
    assert check == cross_parity_oracle(both_parities(shape))
    assert check["passed"] is True


def test_run_path_builds_no_levi_matrix(monkeypatch):
    """``verify --vparity both`` passes with ``enh.rho_levi`` and
    ``enh.parity_flip_conjugator`` refusing to run; its two checks are
    those of the whole-space oracles, and its report is the golden one
    where there is one."""
    def refuse(*args, **kwargs):
        raise AssertionError("Levi matrix built on the run path")

    for m, n, r in [(2, 1, 3), (1, 2, 3), (1, 1, 4)]:
        cfg = cli.RunConfig(m=m, n=n, r=r, vparity="both")
        with monkeypatch.context() as mp:
            mp.setattr(enh, "rho_levi", refuse)
            mp.setattr(enh, "parity_flip_conjugator", refuse)
            report, status = cli.cmd_verify(cfg)
        assert status == cli.EXIT_OK
        assert [commutation_read(c) for c in report["checks"]
                if c["name"] == "first_duality"] == [
            commutation_oracle(sh, True) for sh in cfg.shapes()]
        assert report["checks"][-1] == cross_parity_oracle(cfg)
        golden = GOLDEN / f"verify_{m}_{n}_{r}.json"
        if golden.exists():
            del report["timing"]
            assert json.dumps(report, sort_keys=True, indent=2) + "\n" == (
                golden.read_text())
        levischur.clear_caches()


def test_failed_relations_fail_commutation_and_its_oracle(monkeypatch):
    """With every relation refused, the first direction fixes nothing and
    fails, as the oracle does, although every pair it checks commutes."""
    monkeypatch.setattr(hecke, "check_relation", lambda inst, sh: False)
    shape = Shape(1, 1, 2)
    assert hecke.relation_failures(shape)
    check = first_duality(shape)
    assert commutation_read(check) == commutation_oracle(shape, False)
    assert check["passed"] is False
    assert commutation_oracle(shape, True)[0]


def patch_family(monkeypatch, edit):
    """Serve a copy of ``d_factors`` with ``edit`` applied to it."""
    real = hecke.d_factors

    def factors(sh):
        fac = dict(real(sh))
        edit(fac, sh)
        return fac

    monkeypatch.setattr(hecke, "d_factors", factors)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_d_missing_a_unit_fails_gate(shape, monkeypatch):
    def kill_unit(fac, sh):
        fac[()] = (fac[()][0], {})      # B_0, which is P_0

    patch_family(monkeypatch, kill_unit)
    assert hecke.d_certificate(shape) == "certificate"
    assert_all_block_checks_fail(shape)


def test_flipped_member_fails_certificate_or_units(monkeypatch):
    shape = Shape(1, 1, 3, 1)
    T = (1, 2)

    def flip(fac, sh):
        A, B = fac[T]
        fac[T] = ({p: (q, -s) for p, (q, s) in A.items()}, B)

    patch_family(monkeypatch, flip)
    assert hecke.d_certificate(shape) in ("certificate", "matrix_units")
    assert_all_block_checks_fail(shape)


def test_gate_failure_exits_1(monkeypatch, capsys):
    drop_diagonal_entry(monkeypatch)
    argv = ["verify", "--m", "1", "--n", "1", "--r", "2",
            "--vparity", "even"]
    assert cli.main(argv) == cli.EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    for name in ("first_duality", "second_duality",
                 "faithful_layer_action"):
        assert f"FAIL {name}" in out


def test_dims_reads_the_verdicts_verify_reads(monkeypatch):
    """With G3 failing at layer 2 alone, ``dims`` reports the dimensions
    ``verify`` does, both null, names the gate at each parity and the
    layer whose converse fails."""
    drop_diagonal_entry(monkeypatch)
    cfg = cli.RunConfig(m=1, n=1, r=3, vparity="both", command="dims")
    report, status = cli.cmd_dims(cfg)
    verified, _ = cli.cmd_verify(cfg._replace(command="verify"))
    assert status == cli.EXIT_CHECK_FAILED
    for key in ("levi", "d_algebra"):
        assert report["dims"][key] is verified["dims"][key] is None
    assert [(c["name"], c["vparity"], c["details"])
            for c in report["checks"]] == [
        ("d_certificate", 0, {"gate": "levi_transport"}),
        ("d_certificate", 1, {"gate": "levi_transport"}),
        ("converse", -1, {"layers": [2]}),
    ]


def test_closure_adds_generators_the_coxeter_set_misses(
    monkeypatch, capsys
):
    """With the layer generators left out of the Coxeter set the factors
    are no longer words in it: G1 fails, and so does everything
    read from the layers, ``dims`` included.  Without G1, D_l = M_k (x)
    Pi_l is not established, so no verdict fixes dim D, the Levi
    commutant's dimension or any layer's: all are null, although every
    degree's converse holds."""
    shape = Shape(1, 1, 3, 1)
    swaps_only = tuple(
        g for g in hecke.coxeter_generators(shape)
        if isinstance(g, SwapGen)
    )
    monkeypatch.setattr(hecke, "coxeter_generators", lambda sh: swaps_only)
    assert hecke.d_certificate(shape) == "certificate"
    assert_all_block_checks_fail(shape)
    for command in ("verify", "dims"):
        argv = [command, "--m", "1", "--n", "1", "--r", "3",
                "--vparity", "odd", "--output", "json"]
        assert cli.main(argv) == cli.EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        gate = {
            "verify": ("second_duality", "sum_matches"),
            "dims": ("d_certificate", "gate"),
        }[command]
        assert [c["details"][gate[1]] for c in report["checks"]
                if c["name"] == gate[0]] == ["certificate"]
        assert report["dims"]["d_algebra"] is None
        if command == "verify":
            [second] = [c["details"] for c in report["checks"]
                        if c["name"] == "second_duality"]
            assert second["dim_D"] is second["dim_commutant_levi"] is None
            assert report["dims"]["per_layer_endos"] == [None] * 4


def test_coxeter_set_missing_a_swap_fails_certificate(monkeypatch):
    """The factor words move supports with every swap; without
    ``SwapGen(1)`` in the Coxeter set they are no longer words in it."""
    shape = Shape(1, 1, 3, 0)
    fewer = tuple(g for g in hecke.coxeter_generators(shape)
                  if g != SwapGen(1))
    monkeypatch.setattr(hecke, "coxeter_generators", lambda sh: fewer)
    assert hecke.d_certificate(shape) == "certificate"
    assert_all_block_checks_fail(shape)


def test_unit_defined_off_the_leading_words_fails_units(monkeypatch):
    """B_S sends one word that is not leading to a word on S: only G2
    sees it, as A_S B_S is then no longer L_id."""
    shape = Shape(1, 1, 3, 1)
    S = (1, 2)

    def widen(fac, sh):
        A, B = fac[S]
        off = enh.enh_position((1, 2, 3), sh)
        fac[S] = (A, {**B, off: (enh.enh_position((2, 1, 3), sh), 1)})

    patch_family(monkeypatch, widen)
    assert hecke.d_certificate(shape) == "matrix_units"
    assert_all_block_checks_fail(shape)


def flip_sign(monkeypatch, gen, pos):
    """Flip the sign of one entry of one generator map."""
    real = hecke._gen_map

    def mutant(g, shape):
        m = real(g, shape)
        if g != gen:
            return m
        q, s = m[pos]
        return {**m, pos: (q, -s)}

    monkeypatch.setattr(hecke, "_gen_map", mutant)


def flip_table_sign(monkeypatch, sigma, k):
    """Flip the sign of entry k of ``signed_action(sigma)``, the table
    entry of ``LayerGen(len(sigma), sigma)``, which ``clear_caches``
    rebuilds."""
    real = schur_core.signed_action

    def mutant(w, shape):
        m = real(w, shape)
        if w == sigma:
            q, s = m[k]
            m[k] = (q, -s)
        return m

    monkeypatch.setattr(schur_core, "signed_action", mutant)


def flip_generator_sign(monkeypatch, gen, pos, shape):
    """``flip_sign``, but on the table for a layer generator whose sigma
    is neither id nor simple: no command builds its map, and
    ``Degree.acts`` reads its table entry."""
    if isinstance(gen, SwapGen) or gen.sigma in hecke._id_and_simple(gen.l):
        flip_sign(monkeypatch, gen, pos)
    else:
        lead = enh._placements(gen.l, shape)[0][0]
        flip_table_sign(monkeypatch, gen.sigma, lead.index(pos))


MUTANT_SHAPE = Shape(1, 1, 3)


@pytest.mark.parametrize(
    "gen", hecke.hecke_generators(MUTANT_SHAPE), ids=repr
)
def test_every_sign_mutant_fails_verify(gen, monkeypatch):
    live = list(hecke._gen_map(gen, MUTANT_SHAPE))
    survivors = []
    for p in live:
        with monkeypatch.context() as mp:
            flip_generator_sign(mp, gen, p, MUTANT_SHAPE)
            levischur.clear_caches()
            _report, status = cli.cmd_verify(cli.RunConfig(
                m=1, n=1, r=3, vparity="even"
            ))
            if status != cli.EXIT_CHECK_FAILED:
                survivors.append(p)
        levischur.clear_caches()
    assert live and not survivors


@pytest.mark.parametrize("vparity", (0, 1))
def test_certificate_alone_fails_sign_mutants(vparity, monkeypatch):
    """``d_certificate`` by itself fails on every single-sign mutant of
    the generator maps at (1|1,3), flipped on the table for the
    ``LayerGen(3, sigma)`` whose sigma is neither id nor simple.  Its
    check (c) reads the relation verdict, which alone catches
    ``SwapGen(1)`` and ``SwapGen(2)`` on the all-v word, and the table
    mutants through ``Degree.acts``."""
    shape = Shape(1, 1, 3, vparity)
    survivors = []
    for gen in hecke.hecke_generators(shape):
        for p in list(hecke._gen_map(gen, shape)):
            with monkeypatch.context() as mp:
                flip_generator_sign(mp, gen, p, shape)
                levischur.clear_caches()
                if hecke.d_certificate(shape) is None:
                    survivors.append((gen, p))
            levischur.clear_caches()
    assert survivors == []


def test_table_mutant_fails_classical_duality(monkeypatch):
    """One flipped sign in the table entry of a sigma that is neither id
    nor simple leaves the signed orbits of the simple transpositions
    alone, but not ``Degree.acts``: the classical first direction fails,
    and so does ``verify``, with ``action_failed`` in its solves."""
    levischur.clear_caches()
    clean = schur_core.classical_duality(MUTANT_SHAPE)
    assert clean.spans_equal
    levischur.clear_caches()
    try:
        with monkeypatch.context() as mp:
            flip_table_sign(mp, (2, 1, 0), 0)
            report = schur_core.classical_duality(MUTANT_SHAPE)
            verdict, status = cli.cmd_verify(cli.RunConfig(
                m=1, n=1, r=3, vparity="even"))
    finally:
        levischur.clear_caches()
    assert not report.spans_equal and report.dim_schur is None
    assert (report.dim_commutant_of_symmetric_group
            == clean.dim_commutant_of_symmetric_group)
    assert status == cli.EXIT_CHECK_FAILED
    assert [e["solves"]["commutant_D"]["method"]
            for e in verdict["timing"]["layers"]] == [
        "certified", "certified", "certified", "action_failed"]


def test_run_path_checks_3_3_on_the_table_alone(monkeypatch):
    """No command builds an instance of 3.3, nor the map of a
    ``LayerGen`` whose sigma is neither id nor simple."""
    built, seen = [], []
    real_map = hecke._gen_map
    real_instance = hecke.RelationInstance

    def recording_map(g, shape):
        if isinstance(g, LayerGen):
            seen.append(g)
            if g.sigma not in hecke._id_and_simple(g.l):
                built.append(g)
        return real_map(g, shape)

    def recording_instance(rel, **params):
        if rel == "3.3":
            built.append(rel)
        return real_instance(rel, **params)

    monkeypatch.setattr(hecke, "_gen_map", recording_map)
    monkeypatch.setattr(hecke, "RelationInstance", recording_instance)
    levischur.clear_caches()
    for m, n, r in [(1, 1, 3), (1, 0, 5), (2, 1, 3)]:
        for command in (cli.cmd_verify, cli.cmd_dims, cli.cmd_relations,
                        cli._COMMANDS["report"]):
            _report, status = command(cli.RunConfig(m=m, n=n, r=r))
            assert status == cli.EXIT_OK
    levischur.clear_caches()
    assert seen and built == []


def test_named_mutant_fails_certificate(monkeypatch):
    # the sign of SwapGen(1) on the word (2, 3, 1): both letters odd
    shape = MUTANT_SHAPE
    pos = enh.enh_position((2, 3, 1), shape)
    flip_sign(monkeypatch, SwapGen(1), pos)
    assert hecke.d_certificate(shape) == "certificate"
    assert_all_block_checks_fail(shape)


def test_run_path_never_closes_d(monkeypatch):
    """``verify`` and ``dims`` close nothing, build no Levi span and
    eliminate no commutant: each degree is decided on its characters over
    the rationals, with no count, and over GF(3) by a count on at most
    (m+n)^r words at each degree l >= 3, also at (1|1,5) and (2|1,4)."""
    sizes = []

    def refuse(*args, **kwargs):
        raise AssertionError("algebra_closure on the run path")

    def refuse_levi_span(*args, **kwargs):
        raise AssertionError("Levi span built on the run path")

    def recording(gens, d, target, field, unknowns=None):
        sizes.append(d)
        return linalg.nullity_reaches(gens, d, target, field, unknowns)

    for module in (levischur, linalg, hecke, duality, enh, cli, schur_core):
        monkeypatch.setattr(module, "algebra_closure", refuse, raising=False)
        monkeypatch.setattr(module, "commutant", refuse_elimination,
                            raising=False)
    monkeypatch.setattr(enh, "levi_span", refuse_levi_span)
    monkeypatch.setattr(schur_core, "nullity_reaches", recording)
    for m, n, r, vparity in [(1, 1, 4, "both"), (2, 1, 3, "both"),
                             (1, 1, 5, "even"), (2, 1, 4, "even")]:
        for field, counted in (("q", []), ("p:3", [
                (m + n) ** l for l in range(3, r + 1)])):
            for command in (cli.cmd_verify, cli.cmd_dims):
                _report, status = command(cli.RunConfig(
                    m=m, n=n, r=r, vparity=vparity, field=field))
                assert status == cli.EXIT_OK
            assert sizes == counted
            sizes.clear()
            levischur.clear_caches()


def test_coxeter_generators_are_few():
    shape = Shape(1, 1, 4)
    # 3 swaps, then 1 + 1 + 2 + 3 + 4 layer generators
    assert len(hecke.coxeter_generators(shape)) == 3 + 11
    assert len(hecke.hecke_generators(shape)) == 3 + 34


def test_size_cap_is_a_guard_not_a_cache_key():
    shape = Shape(1, 1, 2)
    hecke.d_algebra(shape)
    hecke.d_algebra(shape, 256)
    info = hecke._d_span.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    duality.layer_factors(shape)
    duality.layer_factors(shape, 256)
    info = duality._layer_factors.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    hecke.d_layer_algebra(1, shape)
    hecke.d_layer_algebra(1, shape, 256)
    info = hecke._d_layer.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    for fn in (hecke.d_algebra, duality.layer_factors):
        with pytest.raises(levischur.SizeCapExceeded):
            fn(shape, 4)

    levischur.clear_caches()
    cached = [
        obj
        for module in (levischur.combinatorics, levischur.schur_core,
                       enh, hecke, duality)
        for obj in vars(module).values()
        if hasattr(obj, "cache_info")
    ]
    for fn in (hecke._d_span, hecke._d_layer, hecke.d_factors,
               hecke.d_certificate, hecke.relation_failures,
               schur_core._degree, hecke._swap_map,
               duality._layer_factors):
        assert fn in cached
    assert all(obj.cache_info().currsize == 0 for obj in cached)


def test_layer_telemetry_under_timing():
    cfg = cli.RunConfig(m=1, n=1, r=2, vparity="both", field="q")
    report, status = cli.cmd_verify(cfg)
    assert status == cli.EXIT_OK
    layers = report["timing"]["layers"]
    assert [(e["vparity"], e["layer"]) for e in layers] == [
        (vp, l) for vp in (0, 1) for l in range(3)
    ]
    assert [e["block_size"] for e in layers[:3]] == [1, 4, 4]
    assert sum(e["dim_D"] for e in layers[:3]) == report["dims"]["d_algebra"]
    for e in layers:
        assert e["dim_commutant_levi"] == e["dim_D"]
        assert e["seconds"] >= 0
        assert sorted(e["solves"]) == ["commutant_D", "commutant_levi"]
        solve = e["solves"]["commutant_D"]
        assert (solve["method"], solve["orbits"]) == (
            "certified", e["dim_commutant_D"])
        solve = e["solves"]["commutant_levi"]
        assert (solve["method"], solve["weights"]) == ("certified", True)
        # over the rationals the characters decide, with no count
        assert solve["prime"] is solve["unknowns"] is solve["stacked"] is None
    # the signed orbits of the word pairs ((1,1), (2,2)) and ((2,2), (1,1))
    # are inconsistent: the odd letter pair (1, 2) repeats in them
    assert [e["solves"]["commutant_D"]["conflicts"] for e in layers[:3]] == [
        0, 0, 2]
    # the Specht modules of degree l <= 2 all lie in the (1|1)-hook
    assert [e["solves"]["commutant_levi"]["constituents"]
            for e in layers[:3]] == [1, 1, 2]
    # over GF(3) the count runs at degree 3 = p alone, modulo 3: the
    # weight blocks of (1|1,3) hold 4 contents, with (3 choose k) words
    # each, and it stacks E_12, then E_21; the rest of the JSON does not
    # see any of it
    report3, _status = cli.cmd_verify(cli.RunConfig(
        m=1, n=1, r=3, vparity="both", field="p:3"))
    assert [(e["solves"]["commutant_levi"]["prime"],
             e["solves"]["commutant_levi"]["unknowns"],
             e["solves"]["commutant_levi"]["stacked"])
            for e in report3["timing"]["layers"][:4]] == [
        (None, None, None)] * 3 + [(3, 20, {"chevalley": 2, "basis": 0})]
    for rep in (report, report3):
        assert "solves" not in json.dumps(
            {k: v for k, v in rep.items() if k != "timing"})
