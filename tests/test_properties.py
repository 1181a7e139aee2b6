"""Property tests of the exact kernels the certificate rests on.

* ``Echelon`` is canonical: permuting and rescaling the input rows
  leaves its rows unchanged, so span equality is row equality.
* ``Echelon``'s inline arithmetic agrees with ``oracles.FieldEchelon``,
  which calls the field for every operation: the same answer and rank
  after every ``add`` and the same canonical rows, over the rationals
  (a whole value stored as an ``int``) and prime fields.
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
* ``cli._plain_args``, the command line parsed without argparse, either
  declines a token list or returns what argparse returns for it.
"""

import contextlib
import io
from fractions import Fraction

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
from levischur.cli import _plain_args, build_parser  # noqa: E402
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
from oracles import CERTIFICATE_PRIME, FieldEchelon  # noqa: E402

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


# invertible in every field below: no denominator 3
kernel_values = st.sampled_from(
    (1, -1, 2, -3, 5, Fraction(1, 2), Fraction(-5, 4), Fraction(7, 2)))


@PROFILE
@given(rows=st.lists(st.dictionaries(st.integers(0, 11), kernel_values,
                                     max_size=6), max_size=14),
       field=st.sampled_from(FIELDS + [PrimeField(CERTIFICATE_PRIME)]))
def test_inline_echelon_matches_the_field_method_reference(rows, field):
    kernel, reference = Echelon(field), FieldEchelon(field)
    for row in rows:
        row = {c: field.coerce(v) for c, v in row.items()}
        row = {c: v for c, v in row.items() if v != field.zero}
        assert kernel.add(row) == reference.add(row)
        assert kernel.rank == reference.rank
    assert kernel.canonical_rows() == reference.canonical_rows()
    # over the rationals a whole value is stored as an int
    assert all(v.__class__ is int or v.denominator != 1
               for row in kernel.canonical_rows() for v in row.values())


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
    gf = PrimeField(CERTIFICATE_PRIME)
    assert nullity_reaches(entries, 3, dim - 1, gf) is None
    # each commutation row has norm at most sqrt(72), so by Hadamard every
    # minor is below 72^4.5 < 2^28 in size, under the certificate prime:
    # the rank mod p is the rational rank
    assert nullity_reaches(entries, 3, dim, gf) is not None


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


# the command line's vocabulary, with the spellings argparse reads and
# the plain path declines: = forms, abbreviations, help, signed,
# zero-padded and non-ASCII integers, and values that look like options
ARGV_TOKENS = (
    "verify", "dims", "orbits", "relations", "report", "bogus",
    "--m", "--n", "--r", "--vparity", "--field", "--output", "--size-cap",
    "--m=1", "--vp", "--size", "-h", "--help", "--", "-", "",
    "1", "2", "3", "0", "+1", "01", "\uff11", "-1", "1_0",
    "even", "odd", "both", "q", "p:3", "json", "text",
)


def argparse_args(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it
    exits (help, or an error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(
                sink):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


@PROFILE
@given(argv=st.lists(st.sampled_from(ARGV_TOKENS), max_size=14))
def test_plain_args_declines_or_matches_argparse(argv):
    plain = _plain_args(argv)
    assert plain is None or plain == argparse_args(argv)


@st.composite
def plain_lines(draw):
    """Well-formed command lines: the required options, some optional
    ones, repeated flags, in any order, the command anywhere."""
    ints = st.integers(0, 99).map(str)
    pairs = [("--m", draw(ints)), ("--n", draw(ints)), ("--r", draw(ints))]
    pairs += draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(("--m", "--n", "--r", "--size-cap")),
                  ints),
        st.tuples(st.just("--vparity"),
                  st.sampled_from(("even", "odd", "both"))),
        st.tuples(st.just("--output"), st.sampled_from(("text", "json"))),
        st.tuples(st.just("--field"), st.sampled_from(("q", "p:3", "x"))),
    ), max_size=5))
    pairs = draw(st.permutations(pairs))
    argv = [tok for pair in pairs for tok in pair]
    at = draw(st.integers(0, len(pairs))) * 2
    command = draw(st.sampled_from(
        ("verify", "dims", "orbits", "relations", "report")))
    return argv[:at] + [command] + argv[at:]


@PROFILE
@given(argv=plain_lines())
def test_plain_args_reads_every_well_formed_line(argv):
    plain = _plain_args(argv)
    assert plain is not None and plain == argparse_args(argv)
