"""Property tests of the exact kernels the certificate rests on.

* ``Echelon`` is canonical: permuting and rescaling the input rows
  leaves its rows unchanged, so span equality is row equality.
* For an integer matrix the nullity over GF(p) is at least the nullity
  over the rationals (rank mod p is at most the rational rank), so
  ``nullity_reaches`` never meets a target below the rational
  commutant dimension.
* The sign functions of ``combinatorics``: ``gamma`` is a cocycle for
  the right action, the identity relation 3.3 rests on, and ``alpha``
  is multiplicative in each argument under ``add_parities``.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from levischur.combinatorics import (  # noqa: E402
    act,
    add_parities,
    alpha,
    compose,
    gamma,
)
from levischur.linalg import (  # noqa: E402
    QQ,
    Echelon,
    ExactMatrix,
    PrimeField,
    commutant,
    nullity_reaches,
    rank_of_rows,
)

FIELDS = [QQ, PrimeField(3), PrimeField(7), PrimeField(32003)]
PROFILE = settings(max_examples=60, deadline=None)

small_ints = st.integers(min_value=-3, max_value=3)


@st.composite
def int_rows(draw, ncols=5, max_rows=6):
    """Sparse integer rows over ``ncols`` columns."""
    return draw(st.lists(
        st.dictionaries(st.integers(0, ncols - 1), small_ints, max_size=ncols),
        max_size=max_rows,
    ))


def into(field, rows):
    """Integer rows as sparse rows over ``field``: no stored zeros."""
    return [{c: field.coerce(v) for c, v in row.items()
             if field.coerce(v) != field.zero} for row in rows]


def canonical(rows, field):
    ech = Echelon(field)
    for row in into(field, rows):
        ech.add(row)
    return ech.canonical_rows()


@PROFILE
@given(rows=int_rows(), data=st.data(), field=st.sampled_from(FIELDS))
def test_echelon_canonical_under_permutation_and_scaling(rows, data, field):
    order = data.draw(st.permutations(range(len(rows))))
    # units of every field in FIELDS
    scales = data.draw(st.lists(st.sampled_from((1, -1, 2, -2, 4, -5)),
                                min_size=len(rows), max_size=len(rows)))
    moved = [{c: v * scales[k] for c, v in rows[i].items()}
             for k, i in enumerate(order)]
    assert canonical(moved, field) == canonical(rows, field)


@PROFILE
@given(rows=int_rows(ncols=6, max_rows=8),
       p=st.sampled_from([3, 5, 7, 32003]))
def test_nullity_mod_p_bounds_rational_nullity(rows, p):
    gf = PrimeField(p)
    assert rank_of_rows(into(gf, rows), gf) <= rank_of_rows(into(QQ, rows), QQ)


@st.composite
def int_matrices(draw, d=3):
    entries = st.dictionaries(st.tuples(st.integers(0, d - 1),
                                        st.integers(0, d - 1)),
                              small_ints, max_size=2 * d)
    return [ExactMatrix(QQ, d, d, e) for e in draw(
        st.lists(entries, min_size=1, max_size=3))]


@PROFILE
@given(gens=int_matrices())
def test_count_never_certifies_below_the_rational_commutant(gens):
    dim = commutant(gens, 3, field=QQ).dimension
    assert nullity_reaches(gens, 3, dim - 1, QQ)[1] is None
    # each commutation row has norm at most sqrt(72), so by Hadamard every
    # minor is below 2^31 - 1 in size: the rank mod p is the rational rank
    assert nullity_reaches(gens, 3, dim, QQ)[1] is not None


parity_words = st.integers(0, 5).flatmap(
    lambda l: st.lists(st.integers(0, 1), min_size=l, max_size=l).map(tuple))


@PROFILE
@given(eps=parity_words, data=st.data())
def test_gamma_is_a_cocycle(eps, data):
    s, t = (tuple(data.draw(st.permutations(range(len(eps)))))
            for _ in range(2))
    assert gamma(eps, compose(s, t)) == gamma(eps, s) * gamma(act(eps, s), t)


@PROFILE
@given(l=st.integers(0, 5), data=st.data())
def test_alpha_is_multiplicative_in_each_argument(l, data):
    a, b, c = (tuple(data.draw(st.lists(st.integers(0, 1), min_size=l,
                                        max_size=l)))
               for _ in range(3))
    assert alpha(add_parities(a, b), c) == alpha(a, c) * alpha(b, c)
    assert alpha(a, add_parities(b, c)) == alpha(a, b) * alpha(a, c)
