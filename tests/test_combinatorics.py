"""Sign calculus, orbits and conventions.

Derived expectations in this file are frozen from independent oracles:
orbit counts against a monomial-count formula, orbit partitions against
a union-find partition built from raw group actions, and transport
signs against brute force over all permutations.
"""

import itertools
import math
import random

import pytest

import oracles
from closed_forms import standard_tableaux
from levischur.combinatorics import (
    Shape,
    act,
    add_parities,
    adjacent_transposition,
    alpha,
    canonical_pair,
    characters,
    class_size,
    compose,
    cycle_perm,
    gamma,
    identity_perm,
    inverse_perm,
    is_strict,
    orbit_elements,
    orbit_reps,
    parity_of_index,
    parity_vector,
    partitions,
    perms,
    sigma_sign,
    strict_pairs,
)

SH11 = Shape(1, 1, 2)
SH21 = Shape(2, 1, 2)


def all_parity_vectors(l):
    return list(itertools.product((0, 1), repeat=l))


# ---------------------------------------------------------------------------
# elementary operations


def test_parity_of_index():
    assert parity_of_index(1, SH11) == 0
    assert parity_of_index(2, SH11) == 1
    assert parity_of_index(3, Shape(2, 2, 1)) == 1
    with pytest.raises(ValueError):
        parity_of_index(3, SH11)
    with pytest.raises(ValueError):
        parity_of_index(0, SH11)


def test_alpha_values():
    assert alpha((0, 0, 0), (1, 0, 1)) == 1
    assert alpha((0, 1), (1, 1)) == -1
    assert alpha((1,), (1,)) == 1
    assert alpha((), ()) == 1
    with pytest.raises(ValueError):
        alpha((0, 1), (0,))


def test_gamma_values():
    swap = adjacent_transposition(2, 1)
    assert gamma((1, 1), identity_perm(2)) == 1
    assert gamma((1, 1), swap) == -1
    assert gamma((1, 0), swap) == 1
    assert gamma((0, 1), swap) == 1
    with pytest.raises(ValueError):
        gamma((1, 1, 1), swap)


def test_act_and_compose():
    swap = adjacent_transposition(2, 1)
    assert act((7, 9), identity_perm(2)) == (7, 9)
    assert act((1, 2), swap) == (2, 1)
    rng = random.Random(11)
    for _ in range(300):
        l = rng.randint(1, 6)
        word = tuple(rng.randint(1, 4) for _ in range(l))
        s = tuple(rng.sample(range(l), l))
        t = tuple(rng.sample(range(l), l))
        assert act(act(word, s), t) == act(word, compose(s, t))
        assert act(act(word, s), inverse_perm(s)) == word


def test_perms_are_lexicographic():
    assert perms(0) == ((),)
    assert perms(3)[0] == (0, 1, 2)
    assert list(perms(3)) == sorted(perms(3))


def cycle_type(w):
    """The cycle lengths of a permutation, largest first."""
    seen, lengths = set(), []
    for start in range(len(w)):
        k, length = start, 0
        while k not in seen:
            seen.add(k)
            k, length = w[k], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@pytest.mark.parametrize("l", range(9))
def test_character_table_of_the_symmetric_group(l):
    """Murnaghan-Nakayama against independent facts: f^lambda is the
    hook-length count, sum (f^lambda)^2 = l!, the columns mu and nu have
    inner product z_mu delta_{mu nu}, and the class sizes and
    ``cycle_perm`` match the cycle types of every permutation."""
    table = characters(l)
    parts = partitions(l)
    assert list(table) == parts and len(set(parts)) == len(parts)
    assert all(sum(lam) == l and list(lam) == sorted(lam, reverse=True)
               for lam in parts)
    f = [table[lam][(1,) * l] for lam in parts]
    assert f == [standard_tableaux(lam) for lam in parts]
    assert sum(x * x for x in f) == math.factorial(l)
    types = [cycle_type(w) for w in perms(l)]
    for mu in parts:
        assert class_size(mu) == types.count(mu)
        assert cycle_type(cycle_perm(mu)) == mu
        for nu in parts:
            inner = sum(table[lam][mu] * table[lam][nu] for lam in parts)
            assert inner == (math.factorial(l) // class_size(mu)
                             if mu == nu else 0)


# ---------------------------------------------------------------------------
# strictness


def test_strictness_examples():
    assert is_strict(((1,), (1,)), SH11)
    assert is_strict(((1,), (2,)), SH11)
    assert not is_strict(((1, 1), (2, 2)), SH11)
    assert is_strict(((1, 2), (1, 2)), SH11)
    # repeated odd letter pair with distinct values stays strict
    assert is_strict(((1, 2), (3, 3)), SH21)
    # the same odd letter pair twice does not
    assert not is_strict(((1, 1), (3, 3)), SH21)


# ---------------------------------------------------------------------------
# orbits


def monomial_count(m, n, l):
    """Independent oracle: dimension of the degree-l piece of a free
    supercommutative algebra on m*m+n*n even and 2*m*n odd generators,
    which the strict-orbit representatives must enumerate."""
    even, odd = m * m + n * n, 2 * m * n
    return sum(
        math.comb(odd, k) * math.comb(even - 1 + l - k, l - k)
        for k in range(0, min(odd, l) + 1)
    )


@pytest.mark.parametrize(
    "m,n,l,expected",
    [
        (1, 1, 0, 1),
        (1, 1, 1, 4),
        (1, 1, 2, 8),
        (1, 1, 3, 12),
        (2, 1, 1, 9),
        (2, 1, 2, 41),
        (1, 2, 2, 41),
        (2, 1, 3, 129),
        (2, 1, 5, 681),
        (2, 2, 4, 2816),
    ],
)
def test_orbit_counts(m, n, l, expected):
    shape = Shape(m, n, 1)
    assert len(orbit_reps(shape, l)) == expected
    assert expected == monomial_count(m, n, l)


def brute_force_orbits(shape, l):
    """Union-find partition of strict pairs under the diagonal action."""
    pairs = list(strict_pairs(shape, l))
    parent = {p: p for p in pairs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in pairs:
        for w in perms(l):
            q = (act(p[0], w), act(p[1], w))
            ra, rb = find(p), find(q)
            if ra != rb:
                parent[ra] = rb
    orbits = {}
    for p in pairs:
        orbits.setdefault(find(p), set()).add(p)
    return list(orbits.values())


@pytest.mark.parametrize(
    "m,n,l",
    [(1, 1, 2), (1, 1, 3), (2, 1, 2), (2, 2, 2), (1, 2, 3), (1, 0, 4)],
)
def test_orbit_reps_partition(m, n, l):
    shape = Shape(m, n, 1)
    reps = orbit_reps(shape, l)
    orbits = brute_force_orbits(shape, l)
    assert len(reps) == len(orbits)
    for orbit in orbits:
        members = [r for r in reps if r in orbit]
        assert len(members) == 1
        # representative is the least element, list covers the orbit
        least = min(orbit, key=lambda p: p[0] + p[1])
        assert members[0] == least
        assert all(canonical_pair(p, shape) == least for p in orbit)
    # non-strict pairs never appear in any orbit list
    for rep in reps:
        assert is_strict(rep, shape)
        for el in orbit_elements(rep):
            assert is_strict(el, shape)


def random_strict_pair(rng, shape, l):
    letters = range(1, shape.m + shape.n + 1)
    while True:
        row = tuple(rng.choice(letters) for _ in range(l))
        col = tuple(rng.choice(letters) for _ in range(l))
        if is_strict((row, col), shape):
            return row, col


def test_canonical_pair_properties():
    rng = random.Random(17)
    for shape in (Shape(1, 1, 1), Shape(2, 1, 1), Shape(2, 2, 1)):
        for l in range(6):
            reps = set(orbit_reps(shape, l))
            for _ in range(40):
                pair = random_strict_pair(rng, shape, l)
                canon = canonical_pair(pair, shape)
                w = tuple(rng.sample(range(l), l))
                moved = (act(pair[0], w), act(pair[1], w))
                assert canonical_pair(moved, shape) == canon
                assert canonical_pair(canon, shape) == canon
                assert canon in reps


def test_orbit_reps_sorted_and_deterministic():
    reps = orbit_reps(SH11, 2)
    assert list(reps) == sorted(reps, key=lambda p: p[0] + p[1])
    assert reps == orbit_reps(Shape(1, 1, 3), 2)
    assert orbit_reps(SH11, 0) == ((((), ())),)


# the shapes on which the table-driven fast paths meet their tuple oracles
ORACLE_SHAPES = [(1, 0, 6), (2, 0, 4), (1, 1, 5), (2, 1, 4), (1, 2, 4),
                 (2, 2, 3), (3, 1, 3), (6, 5, 2)]


@pytest.mark.parametrize("mnr", ORACLE_SHAPES, ids=str)
def test_orbit_reps_match_the_key_sort_oracle(mnr):
    """The flat-word sort lists the representatives of every layer in
    the order of the key sort on row concatenated with column."""
    m, n, r = mnr
    for l in range(r + 1):
        assert orbit_reps(Shape(m, n, 1), l) == oracles.orbit_reps(m, n, l)


# ---------------------------------------------------------------------------
# transport signs


def test_sigma_identity_and_example():
    d = ((1, 2), (2, 1))
    assert sigma_sign(d, d, SH11) == 1
    # frozen from brute force over the unique transporting permutation:
    # the combined parity vector is (0, 0), so no inversion contributes
    assert sigma_sign(((1, 2), (1, 2)), ((2, 1), (2, 1)), SH11) == 1
    # combined parity vector (1, 1), one inversion
    assert sigma_sign(((2, 1), (1, 2)), ((1, 2), (2, 1)), SH11) == -1


def test_sigma_errors():
    with pytest.raises(ValueError):
        sigma_sign(((1, 1), (3, 3)), ((1, 1), (3, 3)), SH21)  # not strict
    with pytest.raises(ValueError):
        sigma_sign(((1,), (1,)), ((2,), (2,)), SH11)  # not in orbit


def test_sigma_inverse_consistency():
    rng = random.Random(5)
    for shape in (SH11, SH21):
        for l in (1, 2, 3):
            pairs = strict_pairs(shape, l)
            for _ in range(50):
                src = rng.choice(pairs)
                dst = rng.choice(orbit_elements(src))
                assert (
                    sigma_sign(src, dst, shape)
                    * sigma_sign(dst, src, shape)
                    == 1
                )


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1)])
def test_sigma_well_defined_on_stabilizers(m, n):
    shape = Shape(m, n, 1)
    for l in range(5):
        for pair in strict_pairs(shape, l):
            eps = add_parities(
                parity_vector(pair[0], shape), parity_vector(pair[1], shape)
            )
            for w in perms(l):
                if act(pair[0], w) == pair[0] and act(pair[1], w) == pair[1]:
                    assert gamma(eps, w) == 1


def test_canonical_pair_none_for_non_strict():
    assert canonical_pair(((1, 1), (2, 2)), SH11) is None


# ---------------------------------------------------------------------------
# global sign identities


def test_sign_identity_small():
    for l in range(1, 4):
        for ei in all_parity_vectors(l):
            for ej in all_parity_vectors(l):
                s = add_parities(ei, ej)
                for w in perms(l):
                    lhs = alpha(
                        add_parities(act(ei, w), act(ej, w)), act(ej, w)
                    )
                    rhs = (
                        alpha(s, ej)
                        * gamma(s, w)
                        * gamma(ei, w)
                        * gamma(ej, w)
                    )
                    assert lhs == rhs


def test_gamma_cocycle():
    for l in range(1, 5):
        for eps in all_parity_vectors(l):
            for s in perms(l):
                for t in perms(l):
                    assert gamma(eps, compose(s, t)) == gamma(
                        eps, s
                    ) * gamma(act(eps, s), t)
    rng = random.Random(23)
    for _ in range(1000):
        l = 5
        eps = tuple(rng.randint(0, 1) for _ in range(l))
        s = tuple(rng.sample(range(l), l))
        t = tuple(rng.sample(range(l), l))
        assert gamma(eps, compose(s, t)) == gamma(eps, s) * gamma(
            act(eps, s), t
        )


# ---------------------------------------------------------------------------
# shape validation


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(0, 1, 1)
    with pytest.raises(ValueError):
        Shape(1, -1, 1)
    with pytest.raises(ValueError):
        Shape(1, 1, 0)
    with pytest.raises(ValueError):
        Shape(1, 1, 1, vparity=2)
    assert Shape(1, 1, 2).dim_enhanced == 9
    assert Shape(2, 1, 2).dim_natural == 9
