"""Exact matrices, spans, commutants and closures.

The commutant implementation skips generators whose constraints are
already implied; ``naive_commutant`` below stacks every equation with
no shortcuts and serves as the independent oracle for it.  Likewise
``FractionField`` keeps every rational a ``Fraction`` and is the oracle
for the int fast path of ``QQ``, and ``fixpoint_closure`` closes with no
shortcuts and is the oracle for ``algebra_closure``.  Both oracles
eliminate with ``oracles.FieldEchelon``, one field method call per
operation, the reference for the inline arithmetic of ``Echelon``.
"""

import itertools
import operator
import random
from fractions import Fraction

import pytest

from levischur.linalg import (
    QQ,
    AlgebraSpan,
    Echelon,
    ExactMatrix,
    PrimeField,
    SizeCapExceeded,
    algebra_closure,
    commutant,
    parse_field,
    rank_of_rows,
    span_of,
)
from levischur.linalg import _commutation_rows, _is_odd_prime
from oracles import FieldEchelon


def units(field, d):
    """All matrix units of size d."""
    return [
        ExactMatrix(field, d, d, {(i, j): 1})
        for i in range(d)
        for j in range(d)
    ]


def naive_commutant(gens, d, field):
    """Oracle: stack every commutation equation, then extract."""
    ech = FieldEchelon(field)
    for g in gens:
        for row in _commutation_rows(g.entries, d, field):
            ech.add(row)
    out = FieldEchelon(field)
    for vec in ech.null_space(d * d):
        out.add(vec)
    return AlgebraSpan(field, d, out)


def random_sign_matrix(rng, field, d, nnz):
    entries = {}
    for _ in range(nnz):
        entries[(rng.randrange(d), rng.randrange(d))] = rng.choice((1, -1))
    return ExactMatrix(field, d, d, entries)


class FractionField:
    """The rationals with every value a ``Fraction``, never an int."""

    name = "q-fraction"
    zero = Fraction(0)
    one = Fraction(1)
    coerce = staticmethod(Fraction)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a):
        return 1 / a


SMALL = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4))


def random_row(rng, ncols, nnz):
    return {rng.randrange(ncols): rng.choice(SMALL) for _ in range(nnz)}


def random_entries(rng, d, nnz):
    return {
        (rng.randrange(d), rng.randrange(d)): rng.choice(SMALL)
        for _ in range(nnz)
    }


def assert_qq_values(rows):
    """Every stored rational is an int if whole, else a Fraction."""
    for row in rows:
        for v in row.values():
            assert type(v) is int or (
                type(v) is Fraction and v.denominator != 1
            ), repr(v)


def fixpoint_closure(gens, include_identity, d, field):
    """Oracle: add every product of the basis with every generator until
    nothing new appears, with no record of products already formed."""
    ech = FieldEchelon(field)
    seed = [ExactMatrix.identity(field, d)] if include_identity else []
    for m in seed + list(gens):
        ech.add(m.flatten())
    grew = True
    while grew:
        grew = False
        for b in AlgebraSpan(field, d, ech).basis:
            for g in gens:
                grew |= ech.add((b @ g).flatten())
    return AlgebraSpan(field, d, ech)


# ---------------------------------------------------------------------------
# fields


def test_parse_field():
    assert parse_field("q") == QQ
    assert parse_field("p:7") == PrimeField(7)
    with pytest.raises(ValueError):
        parse_field("p:2")
    with pytest.raises(ValueError):
        parse_field("p:9")
    with pytest.raises(ValueError):
        parse_field("r")


def trial_division_prime(p):
    """Oracle for ``_is_odd_prime``."""
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def test_is_odd_prime_matches_trial_division():
    for p in range(200_000):
        assert _is_odd_prime(p) == trial_division_prime(p), p
    strong_pseudoprimes = (2047, 1373653, 25326001)  # to 2; 2, 3; 2, 3, 5
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185)
    for p in strong_pseudoprimes + carmichael + (2 ** 31 - 3, 2 ** 31 - 1):
        assert _is_odd_prime(p) == trial_division_prime(p), p
    assert _is_odd_prime(2 ** 31 - 1)


def test_prime_field_ops():
    f = PrimeField(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.coerce(Fraction(1, 2)) == 3
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_qq_stores_whole_numbers_as_int():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.inv(2)) is Fraction and QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    assert type(QQ.coerce(Fraction(4, 2))) is int
    assert QQ.coerce(0.5) == Fraction(1, 2) and type(QQ.coerce(0.5)) is Fraction
    assert type(QQ.coerce(2.0)) is int
    half = Fraction(1, 2)
    assert type(QQ.add(half, half)) is int
    assert type(QQ.sub(half, -half)) is int
    assert type(QQ.mul(half, 2)) is int
    assert QQ.add(half, 1) == Fraction(3, 2)


@pytest.mark.parametrize("seed", range(6))
def test_qq_echelon_matches_fraction_field(seed):
    rng = random.Random(seed)
    ncols = 9
    rows = [random_row(rng, ncols, rng.randrange(1, 5)) for _ in range(7)]
    eq, ef = Echelon(QQ), FieldEchelon(FractionField)
    for row in rows:
        # QQ takes the raw ints and Fractions; the reference needs its rows
        # coerced, as ExactMatrix would, or 1 / a of an int is a float
        exact = {c: Fraction(v) for c, v in row.items()}
        assert eq.add(row) == ef.add(exact)
    assert eq.canonical_rows() == ef.canonical_rows()
    assert eq.null_space(ncols) == ef.null_space(ncols)
    assert_qq_values(eq.canonical_rows())
    assert_qq_values(eq.null_space(ncols))


@pytest.mark.parametrize("seed", range(4))
def test_qq_commutant_and_closure_match_fraction_field(seed):
    rng = random.Random(100 + seed)
    d = 3
    entries = [random_entries(rng, d, rng.randrange(2, 5)) for _ in range(2)]
    out = {}
    for field in (QQ, FractionField):
        gens = [ExactMatrix(field, d, d, e) for e in entries]
        out[field] = [
            [m.entries for m in span.basis]
            for span in (
                commutant(gens, d, field=field),
                commutant(gens[:1], d, field=field),
                algebra_closure(gens[:1], True, d=d, field=field),
                algebra_closure(gens, False, d=d, field=field),
            )
        ]
    assert out[QQ] == out[FractionField]
    for bases in out[QQ]:
        assert_qq_values(bases)


# ---------------------------------------------------------------------------
# matrices


def test_matrix_basics():
    a = ExactMatrix(QQ, 2, 2, {(0, 1): 1})
    b = ExactMatrix(QQ, 2, 2, {(1, 0): 1})
    assert (a @ b).entries == {(0, 0): Fraction(1)}
    assert (b @ a).entries == {(1, 1): Fraction(1)}
    assert (a + a.scale(-1)).is_zero()
    assert a.scale(2).entries == {(0, 1): Fraction(2)}
    eye = ExactMatrix.identity(QQ, 2)
    assert eye @ a == a and a @ eye == a
    assert eye.trace() == 2
    assert not a.commutes_with(b)
    assert eye.commutes_with(a)
    with pytest.raises(ValueError):
        a @ ExactMatrix(QQ, 3, 3, {})
    with pytest.raises(ValueError):
        a + ExactMatrix(QQ, 2, 3, {})


def test_matrix_drops_zeros_and_flattens():
    a = ExactMatrix(QQ, 2, 3, {(0, 0): 0, (1, 2): 5})
    assert a.entries == {(1, 2): Fraction(5)}
    assert a.flatten() == {5: Fraction(5)}
    back = ExactMatrix.unflatten(QQ, 2, {3: Fraction(7)})
    assert back.entries == {(1, 1): Fraction(7)}


# ---------------------------------------------------------------------------
# spans


def test_span_examples():
    assert span_of([], d=3, field=QQ).dimension == 0
    a = ExactMatrix(QQ, 2, 2, {(0, 0): 1, (1, 1): 2})
    assert span_of([a, a.scale(2)]).dimension == 1
    assert span_of(units(QQ, 2)).dimension == 4


def test_in_span_examples():
    a = ExactMatrix(QQ, 2, 2, {(0, 1): 3})
    s = span_of([a])
    assert s.contains(ExactMatrix.zero(QQ, 2, 2))
    assert s.contains(a)
    assert s.contains(a.scale(Fraction(2, 7)))
    assert not s.contains(ExactMatrix.identity(QQ, 2))
    with pytest.raises(ValueError):
        s.contains(ExactMatrix.identity(QQ, 3))


def test_spans_equal_examples():
    a = ExactMatrix(QQ, 2, 2, {(0, 1): 1, (1, 0): 2})
    s1 = span_of([a])
    assert s1 == s1
    assert span_of([a]) == span_of([a.scale(2)])
    assert s1 != span_of([a, ExactMatrix.identity(QQ, 2)])
    with pytest.raises(ValueError):
        s1 == span_of([], d=3, field=QQ)


def test_span_canonical_across_generating_sets():
    rng = random.Random(3)
    mats = [random_sign_matrix(rng, QQ, 4, 5) for _ in range(6)]
    s1 = span_of(mats)
    s2 = span_of(list(reversed(mats)) + [mats[0] + mats[1]])
    assert s1 == s2
    assert [m.entries for m in s1.basis] == [m.entries for m in s2.basis]


# ---------------------------------------------------------------------------
# commutant


def test_commutant_of_identity_is_everything():
    c = commutant([ExactMatrix.identity(QQ, 3)], 3)
    assert c.dimension == 9


def test_commutant_of_full_algebra_is_scalars():
    c = commutant(units(QQ, 3), 3)
    assert c.dimension == 1
    assert c.contains(ExactMatrix.identity(QQ, 3))


def test_commutant_contains_identity_and_closes():
    rng = random.Random(7)
    gens = [random_sign_matrix(rng, QQ, 4, 4) for _ in range(3)]
    c = commutant(gens, 4)
    assert c.contains(ExactMatrix.identity(QQ, 4))
    closed = algebra_closure(c.basis, include_identity=False)
    assert closed == c


def test_double_commutant_sanity():
    for d in (2, 3, 6):
        full = commutant(commutant(units(QQ, d), d).basis, d)
        assert full.dimension == d * d


def test_commutant_matches_naive_oracle():
    rng = random.Random(17)
    for d in (3, 5):
        for _ in range(4):
            gens = [
                random_sign_matrix(rng, QQ, d, rng.randint(1, d))
                for _ in range(rng.randint(1, 4))
            ]
            fast = commutant(gens, d)
            slow = naive_commutant(gens, d, QQ)
            assert fast == slow


def test_commutant_spanning_set_invariance():
    rng = random.Random(29)
    gens = [random_sign_matrix(rng, QQ, 4, 4) for _ in range(3)]
    base = commutant(gens, 4)
    doubled = commutant(gens + [g.scale(3) for g in gens], 4)
    summed = commutant(gens + [gens[0] + gens[1]], 4)
    spanned = commutant(span_of(gens).basis, 4)
    assert base == doubled
    assert base == summed
    assert base == spanned


def test_commutant_errors():
    with pytest.raises(ValueError):
        commutant([ExactMatrix(QQ, 2, 3, {})])
    with pytest.raises(SizeCapExceeded):
        commutant([ExactMatrix.identity(QQ, 300)], 300)
    with pytest.raises(SizeCapExceeded):
        commutant([ExactMatrix.identity(QQ, 20)], 20, size_cap=10)


# ---------------------------------------------------------------------------
# closure


def test_closure_examples():
    e12 = ExactMatrix(QQ, 2, 2, {(0, 1): 1})
    e21 = ExactMatrix(QQ, 2, 2, {(1, 0): 1})
    assert algebra_closure([e12, e21], include_identity=True).dimension == 4
    assert algebra_closure([], include_identity=True, d=5, field=QQ).dimension == 1
    nil = ExactMatrix(QQ, 3, 3, {(0, 1): 1, (1, 2): 1})
    assert algebra_closure([nil], include_identity=True).dimension == 3
    assert algebra_closure([nil], include_identity=False).dimension == 2


def test_closure_idempotent_and_product_closed():
    rng = random.Random(41)
    gens = [random_sign_matrix(rng, QQ, 3, 3) for _ in range(2)]
    alg = algebra_closure(gens, include_identity=True)
    again = algebra_closure(alg.basis, include_identity=True)
    assert alg == again
    for a in alg.basis:
        for b in alg.basis:
            assert alg.contains(a @ b)


@pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=repr)
@pytest.mark.parametrize("include_identity", [True, False])
def test_closure_with_repeated_products_matches_fixpoint(field, include_identity):
    d = 3
    perm_mats = [
        ExactMatrix(field, d, d, {(w[i], i): 1 for i in range(d)})
        for w in itertools.permutations(range(d))
    ]
    units3 = units(field, d)
    for gens in (
        perm_mats,                      # S_3 on K^3: every product repeats
        perm_mats[1:3],
        [units3[0], units3[1], units3[4]],  # E11, E12, E22
    ):
        got = algebra_closure(gens, include_identity, d=d, field=field)
        assert got == fixpoint_closure(gens, include_identity, d, field)


# ---------------------------------------------------------------------------
# prime fields agree on sign matrices


def test_prime_field_ranks_agree():
    rng = random.Random(53)
    f = PrimeField(7)
    for _ in range(5):
        coords = [
            ((rng.randrange(4), rng.randrange(4)), rng.choice((1, -1)))
            for _ in range(6)
        ]
        mq = ExactMatrix(QQ, 4, 4, dict(coords))
        mp = ExactMatrix(f, 4, 4, dict(coords))
        assert rank_of_rows([mq.flatten()], QQ) == rank_of_rows(
            [mp.flatten()], f
        )
        cq = commutant([mq], 4)
        cp = commutant([mp], 4, field=f)
        assert cq.dimension == cp.dimension


def test_echelon_canonical_rows():
    ech = Echelon(QQ)
    ech.add({0: Fraction(2), 1: Fraction(4)})
    ech.add({1: Fraction(3)})
    rows = ech.canonical_rows()
    assert rows == [{0: Fraction(1)}, {1: Fraction(1)}]
    assert ech.contains({0: Fraction(5), 1: Fraction(-1)})
    assert not ech.contains({2: Fraction(1)})
