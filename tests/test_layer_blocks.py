"""The layer-blocked duality against the full-space constructions.

The brute-force constructions below (commutants on the whole enhanced
space, the two-sided closure over every generator, the layer algebras
closed from their own generators) are the oracle for the fast path in
``hecke.d_algebra`` and ``duality.layer_blocks``.
"""

import pytest

import levischur
from levischur import cli, duality, hecke
from levischur import enhanced_core as enh
from levischur.combinatorics import Shape, perms
from levischur.hecke import LayerGen, SwapGen, layer_projector, xi_gen
from levischur.linalg import (
    AlgebraSpan,
    Echelon,
    ExactMatrix,
    PrimeField,
    QQ,
    algebra_closure,
    commutant,
    span_of,
)

SHAPES = [
    Shape(m, n, r, vp, field)
    for (m, n, r) in [(1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 1, 3)]
    for vp in (0, 1)
    for field in (QQ, PrimeField(3))
]


def shape_id(sh):
    return f"({sh.m}|{sh.n},{sh.r})-v{sh.vparity}-{sh.field!r}"


@pytest.fixture(autouse=True)
def fresh_caches():
    levischur.clear_caches()
    yield
    levischur.clear_caches()


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


def zero_extended(spans, shape):
    """Direct sum of per-layer spans, as a span on the whole space."""
    d = shape.dim_enhanced
    mats = []
    for l, span in enumerate(spans):
        positions = enh.layer_positions(shape, l)
        for m in span.basis:
            mats.append(ExactMatrix(shape.field, d, d, {
                (positions[r], positions[c]): v
                for (r, c), v in m.entries.items()
            }))
    return span_of(mats, d=d, field=shape.field)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_coxeter_closure_matches_two_sided_closure(shape):
    dalg = hecke.d_algebra(shape)
    assert dalg == two_sided_closure(shape)
    for g in hecke.hecke_generators(shape):
        assert dalg.contains(xi_gen(g, shape))
    for l in range(shape.r + 1):
        assert hecke.d_layer_algebra(l, shape) == closed_layer_algebra(
            l, shape
        )


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_blocks_match_full_space_commutants(shape):
    d = shape.dim_enhanced
    lb = duality.layer_blocks(shape)
    assert lb.gate
    blocks = lb.blocks
    levi = enh.levi_span(shape)
    dalg = hecke.d_algebra(shape)
    assert zero_extended([b.levi for b in blocks], shape) == levi
    assert zero_extended([b.D for b in blocks], shape) == dalg
    assert zero_extended(
        [b.commutant_D for b in blocks], shape
    ) == commutant(dalg.basis, d, field=shape.field)
    assert zero_extended(
        [b.commutant_levi for b in blocks], shape
    ) == commutant(levi.basis, d, field=shape.field)


def drop_layer_zero(span, shape):
    """The span without its layer-0 part, so it misses the unit P_0."""
    keep = set(enh.layer_positions(shape, 0))
    mats = [
        m for m in span.basis
        if not any(r in keep for r, _c in m.entries)
    ]
    out = span_of(mats, d=shape.dim_enhanced, field=shape.field)
    assert not out.contains(layer_projector(0, shape))
    return out


def assert_all_block_checks_fail(shape):
    assert not duality.layer_blocks(shape).gate
    rep = duality.run_duality(shape)
    assert not rep.layer_sum_matches
    assert not rep.first_isomorphism_holds
    assert not rep.second_containment_holds
    assert not rep.second_isomorphism_holds
    assert not any(rep.per_layer_endo_equal)
    assert not rep.all_gated_hold


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_levi_span_missing_a_unit_fails_gate(shape, monkeypatch):
    broken = drop_layer_zero(enh.levi_span(shape), shape)
    monkeypatch.setattr(enh, "levi_span", lambda sh: broken)
    assert_all_block_checks_fail(shape)


@pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
def test_d_missing_a_unit_fails_gate(shape, monkeypatch):
    broken = drop_layer_zero(hecke.d_algebra(shape), shape)
    monkeypatch.setattr(hecke, "d_algebra", lambda sh, cap=0: broken)
    assert_all_block_checks_fail(shape)


def test_gate_failure_exits_1(monkeypatch, capsys):
    shape = Shape(1, 1, 2, 0)
    broken = drop_layer_zero(enh.levi_span(shape), shape)
    monkeypatch.setattr(enh, "levi_span", lambda sh: broken)
    argv = ["verify", "--m", "1", "--n", "1", "--r", "2",
            "--vparity", "even"]
    assert cli.main(argv) == cli.EXIT_CHECK_FAILED
    assert "FAIL layer_decomposition" in capsys.readouterr().out


def test_closure_adds_generators_the_coxeter_set_misses(monkeypatch):
    shape = Shape(1, 1, 3, 1)
    expected = two_sided_closure(shape)
    swaps_only = tuple(
        g for g in hecke.coxeter_generators(shape)
        if isinstance(g, SwapGen)
    )
    monkeypatch.setattr(hecke, "coxeter_generators", lambda sh: swaps_only)
    assert hecke.d_algebra(shape) == expected
    assert len(hecke.d_generators(shape)) > len(swaps_only)


def test_coxeter_generators_are_few():
    shape = Shape(1, 1, 4)
    # 3 swaps, then 1 + 1 + 2 + 3 + 4 layer generators
    assert len(hecke.coxeter_generators(shape)) == 3 + 11
    assert len(hecke.hecke_generators(shape)) == 3 + 34


def test_size_cap_is_a_guard_not_a_cache_key():
    shape = Shape(1, 1, 2)
    hecke.d_algebra(shape)
    hecke.d_algebra(shape, 256)
    info = hecke._d_closure.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    duality.layer_blocks(shape)
    duality.layer_blocks(shape, 256)
    info = duality._layer_blocks.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    hecke.d_layer_algebra(1, shape)
    hecke.d_layer_algebra(1, shape, 256)
    info = hecke._d_layer.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    with pytest.raises(levischur.SizeCapExceeded):
        hecke.d_algebra(shape, 4)
    with pytest.raises(levischur.SizeCapExceeded):
        duality.layer_blocks(shape, 4)

    levischur.clear_caches()
    cached = [
        obj
        for module in (levischur.combinatorics, levischur.schur_core,
                       enh, hecke, duality)
        for obj in vars(module).values()
        if hasattr(obj, "cache_info")
    ]
    assert hecke._d_closure in cached and duality._layer_blocks in cached
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
