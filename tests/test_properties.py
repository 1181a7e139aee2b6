"""Property tests of the exact kernels the certificate rests on.

* ``Echelon`` is canonical: permuting and rescaling the input rows
  leaves its rows unchanged, so span equality is row equality.
* For an integer matrix the nullity over GF(p) is at least the nullity
  over the rationals (rank mod p is at most the rational rank), so
  ``nullity_reaches`` never meets a target below the rational
  commutant dimension.
* The commutation rows, with or without a restricted unknown set, are
  those of the definition with the other unknowns held at zero.
* The sign functions of ``combinatorics``: ``gamma`` is a cocycle for
  the right action, the identity relation 3.3 rests on, and ``alpha``
  is multiplicative in each argument under ``add_parities``.
* The transport sign of a strict pair, carried step by step along
  simple transpositions by ``gamma``, is ``sigma_sign`` whatever the
  path, and ``orbit_signs`` gives it; for a pair that is not strict a
  closed path carries -1, the conflict the signed orbits drop.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from levischur.combinatorics import (  # noqa: E402
    Shape,
    act,
    add_parities,
    adjacent_transposition,
    alpha,
    compose,
    gamma,
    is_strict,
    orbit_reps,
    orbit_signs,
    parity_vector,
    sigma_sign,
)
from levischur.linalg import (  # noqa: E402
    QQ,
    Echelon,
    ExactMatrix,
    PrimeField,
    _commutation_rows,
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
    entries = [g.entries for g in gens]
    assert nullity_reaches(entries, 3, dim - 1, QQ)[1] is None
    # each commutation row has norm at most sqrt(72), so by Hadamard every
    # minor is below 2^31 - 1 in size: the rank mod p is the rational rank
    assert nullity_reaches(entries, 3, dim, QQ)[1] is not None


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


def rows_by_definition(g, d, unknowns):
    """Equation (a, b) of X g - g X = 0 read off the definition, dense,
    with X held at zero off ``unknowns``."""
    rows = []
    for a in range(d):
        for b in range(d):
            row = {}
            for k in range(d):
                for key, v in ((a * d + k, g.entries.get((k, b), 0)),
                               (k * d + b, -g.entries.get((a, k), 0))):
                    if key in unknowns:
                        row[key] = row.get(key, 0) + v
            row = {c: v for c, v in row.items() if v}
            if row:
                rows.append(row)
    return rows


@PROFILE
@given(gens=int_matrices(), unknowns=st.sets(st.integers(0, 8)))
def test_commutation_rows_hold_the_other_unknowns_at_zero(gens, unknowns):
    for g in gens:
        rows = _commutation_rows(g.entries, 3, QQ, unknowns)
        assert list(rows) == rows_by_definition(g, 3, unknowns)
        assert list(_commutation_rows(g.entries, 3, QQ)) == (
            rows_by_definition(g, 3, range(9)))


shapes = st.tuples(st.integers(1, 2), st.integers(0, 2)).map(
    lambda mn: Shape(mn[0], mn[1], 1))


def step(pair, i, shape):
    """One step along the simple transposition of slots i, i+1 (0-based):
    the next pair and the sign ``gamma`` of the current one gives it."""
    s = adjacent_transposition(len(pair[0]), i + 1)
    eps = add_parities(parity_vector(pair[0], shape),
                       parity_vector(pair[1], shape))
    return (act(pair[0], s), act(pair[1], s)), gamma(eps, s)


def carry(pair, path, shape):
    sign = 1
    for i in path:
        pair, g = step(pair, i, shape)
        sign *= g
    return pair, sign


@st.composite
def strict_pairs(draw):
    """A strict pair of degree l <= 5: an orbit representative moved by a
    random permutation."""
    shape, l = draw(shapes), draw(st.integers(1, 5))
    rep = draw(st.sampled_from(orbit_reps(shape, l)))
    w = tuple(draw(st.permutations(range(l))))
    return shape, (act(rep[0], w), act(rep[1], w))


@PROFILE
@given(case=strict_pairs(), data=st.data())
def test_transport_sign_along_any_path_is_sigma_sign(case, data):
    shape, pair = case
    l = len(pair[0])
    path = data.draw(st.lists(st.integers(0, max(l - 2, 0)), max_size=12)
                     if l > 1 else st.just([]))
    end, sign = carry(pair, path, shape)
    assert sign == sigma_sign(pair, end, shape)
    assert sign == orbit_signs(pair, shape)[end]


@PROFILE
@given(case=strict_pairs())
def test_two_paths_to_one_orbit_element_agree(case):
    """Every step inside the orbit carries the sign between its ends, so
    the signs of two paths to one element agree: every closed path
    carries +1."""
    shape, pair = case
    signs = orbit_signs(pair, shape)
    for p, sign in signs.items():
        for i in range(len(pair[0]) - 1):
            q, g = step(p, i, shape)
            assert signs[q] == sign * g


@PROFILE
@given(shape=shapes.filter(lambda sh: sh.n > 0), data=st.data())
def test_non_strict_pair_has_a_closed_path_of_sign_minus_one(shape, data):
    """An odd letter pair at slots i < j: the adjacent transpositions
    carrying slot i to j and back fix the pair and carry -1."""
    l = data.draw(st.integers(2, 5))
    i, j = sorted(data.draw(st.lists(st.integers(0, l - 1), min_size=2,
                                     max_size=2, unique=True)))
    letters = st.integers(1, shape.m + shape.n)
    row, col = (data.draw(st.lists(letters, min_size=l, max_size=l))
                for _ in range(2))
    a = data.draw(st.integers(1, shape.m))
    b = data.draw(st.integers(shape.m + 1, shape.m + shape.n))
    a, b = data.draw(st.sampled_from([(a, b), (b, a)]))
    row[i] = row[j] = a
    col[i] = col[j] = b
    pair = (tuple(row), tuple(col))
    assert not is_strict(pair, shape)
    loop = list(range(i, j)) + list(range(j - 2, i - 1, -1))
    assert carry(pair, loop, shape) == (pair, -1)
    with pytest.raises(ValueError):
        orbit_signs(pair, shape)
