"""The modular certificate of the classical commutants against elimination.

``schur_core.Degree`` returns the lower-bound span when the commutation
gate passes and a nullity count modulo a prime meets its dimension;
otherwise it eliminates.  The oracle here is ``linalg.commutant``
elimination on the same generators, over the rationals and three prime
fields, on a ladder that reaches degrees l >= p.  Mutants check that a
failed gate, a missed count and a non-integer entry all end in
elimination, with the same canonical span.
"""

from fractions import Fraction

import pytest

import levischur
from levischur import hecke, linalg, schur_core
from levischur import enhanced_core as enh
from levischur.combinatorics import Shape, adjacent_transposition
from levischur.linalg import (
    CERTIFICATE_PRIME,
    QQ,
    ExactMatrix,
    PrimeField,
    commutant,
    nullity_reaches,
)

FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(32003)]
LADDER = [(1, 1, l) for l in range(5)] + [(2, 1, l) for l in range(4)] + [
    (1, 2, 3), (2, 2, 2), (1, 0, 4), (3, 0, 3),
]


@pytest.fixture(autouse=True)
def fresh_caches():
    levischur.clear_caches()
    yield
    levischur.clear_caches()


def eliminated(deg):
    """Both commutants of a degree by elimination alone."""
    f = deg.shape.field
    simple = [schur_core.pi_matrix(adjacent_transposition(deg.l, i),
                                   deg.shape, deg.l)
              for i in range(1, deg.l)]
    return (commutant(simple, deg.dim, field=f, size_cap=deg.dim),
            commutant(list(deg.xi.values()), deg.dim, field=f,
                      size_cap=deg.dim))


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_certified_spans_match_elimination(field):
    ladder = LADDER + ([(1, 1, 5)] if field == PrimeField(5) else [])
    for m, n, l in ladder:
        deg = schur_core.degree(Shape(m, n, 1, 0, field), l)
        assert deg.gate
        assert (deg.commutant_pi, deg.commutant_schur) == eliminated(deg)
        prime = field.p if isinstance(field, PrimeField) else CERTIFICATE_PRIME
        for solve in deg.solves.values():
            assert solve["prime"] == prime
            if field == QQ:
                assert solve["method"] == "certified"


def test_xi_sign_flip_fails_gate_and_eliminates(monkeypatch):
    shape = Shape(1, 1, 3)
    real = schur_core.xi_matrix
    pair = next(p for p in schur_core.schur_basis(shape, 3)
                if len(real(p, shape).entries) > 1)
    kt = next(iter(real(pair, shape).entries))

    def mutant(p, sh):
        mat = real(p, sh)
        if p != pair:
            return mat
        entries = dict(mat.entries)
        entries[kt] = sh.field.neg(entries[kt])
        return ExactMatrix(sh.field, mat.nrows, mat.ncols, entries)

    monkeypatch.setattr(schur_core, "xi_matrix", mutant)
    deg = schur_core.degree(shape, 3)
    assert not deg.gate
    assert (deg.commutant_pi, deg.commutant_schur) == eliminated(deg)
    assert deg.commutant_pi != deg.schur
    assert deg.solves == {
        name: {"method": "eliminated", "prime": None, "stacked": None}
        for name in ("commutant_pi", "commutant_schur")
    }


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
def test_forced_miss_eliminates_to_the_same_span(field, monkeypatch):
    shape = Shape(2, 1, 1, 0, field)
    certified = [(d.commutant_pi, d.commutant_schur)
                 for d in (schur_core.degree(shape, l) for l in range(4))]
    levischur.clear_caches()

    def missing(gens, d, target, fld):
        # one below the lower bound: the count can never reach it
        return nullity_reaches(gens, d, target - 1, fld)

    monkeypatch.setattr(schur_core, "nullity_reaches", missing)
    for l in range(4):
        deg = schur_core.degree(shape, l)
        assert (deg.commutant_pi, deg.commutant_schur) == certified[l]
        assert {s["method"] for s in deg.solves.values()} == {"eliminated"}
        assert {s["stacked"] for s in deg.solves.values()} == {None}


def test_count_reports_prime_and_generators_stacked():
    deg = schur_core.degree(Shape(1, 1, 1), 4)
    mats = list(deg.xi.values())
    target = deg.group.dimension
    p, stacked = nullity_reaches(mats, deg.dim, target, QQ)
    assert p == CERTIFICATE_PRIME and 0 < stacked <= len(mats)
    assert nullity_reaches(mats, deg.dim, target - 1, QQ) == (p, None)
    # no generators: the count is d^2 at once
    assert nullity_reaches([], 3, 9, QQ) == (p, 0)
    assert nullity_reaches([], 3, 8, QQ) == (p, None)


def test_non_integer_entry_never_takes_the_modular_path(monkeypatch):
    half = ExactMatrix(QQ, 2, 2, {(0, 1): Fraction(1, 2)})
    # a target the count meets before stacking anything still fails
    assert nullity_reaches([half], 2, 4, QQ) == (CERTIFICATE_PRIME, None)

    def refuse(*args, **kwargs):
        raise AssertionError("modular count on a non-integer entry")

    monkeypatch.setattr(linalg, "Echelon", refuse)
    assert nullity_reaches([half], 2, 2, QQ)[1] is None


def test_signed_commutation_matches_matrix_products():
    """``commutation_test`` agrees with ``commutes_with`` pair by pair,
    on the Levi basis and on the generators against each other, which
    includes non-commuting pairs."""
    for shape in (Shape(2, 1, 3, 0), Shape(2, 1, 3, 1)):
        gens = hecke.hecke_generators(shape)
        mats = [enh.rho_levi(b, shape) for b in enh.levi_basis(shape)]
        mats += [hecke.xi_gen(h, shape) for h in gens]
        outcomes = set()
        for g in gens:
            test = schur_core.commutation_test(hecke._gen_map(g, shape))
            for x in mats:
                ok = x.commutes_with(hecke.xi_gen(g, shape))
                assert test(x) == ok
                outcomes.add(ok)
        assert outcomes == {True, False}
