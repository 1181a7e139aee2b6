"""
Generators, relations and matrix image of the layered permutation
algebra acting on the enhanced tensor space.

Two families of generators act on the right of the degree-r enhanced
space:

  * ``SwapGen(i)`` for 1 <= i <= r-1: the signed swap s_i of tensor
    slots i and i+1 (slots 1-based) on Vbar^{(x)r}, Vbar =
    ``enh.vbar(shape)``, -1 exactly when both slots are odd.
  * ``LayerGen(l, sigma)`` for 0 <= l <= r and sigma of degree l: the
    signed action of sigma, ``schur_core.degree(shape, l).actions``, on
    the cores of the words with leading support {1..l}, relabelled on
    each call; it kills every word whose support is not the leading one.

Every generator sends a basis word to plus or minus one basis word or
to zero, so it and every word in the generators is a signed partial
permutation of the enhanced basis, held as a ``SignedMap``: a dict
sending each basis word p that the word does not kill to ``(q, s)``
when p goes to s times basis word q.  The signs are +-1 and the field never has
characteristic 2, so two maps are equal exactly when their matrices
are: relations compare maps, and only ``eval_word`` builds a matrix.

The abstract algebra behind these generators is infinite dimensional
and never materialized; only words of generators, their images, and
the relation checks below exist.  Words evaluate under the
right-module convention: the leftmost generator acts first.
``_word_map`` composes a word from its first layer generator outward:
that map keeps only (m+n)^l words, and is pulled back through the swaps
before it, each read as its own inverse with the same sign; the letters
after it compose forward.  This equals the left-to-right composite
whenever relation 3.1a holds, which ``relation_failures`` checks on
words of swaps alone, composed forward.

The defining relations carry the labels 3.1a through 3.6; see
``RELATION_IDS`` for the catalogue.  ``relation_instances`` enumerates
all ``relation_count(r)`` instances, sum_l (l!)^2 of them from 3.3
alone.  ``certified_instances`` is a subset of the other relations'
instances whose truth, with 3.3 checked on each degree's table,
implies every instance, since maps compose associatively.  In word
order, with L for ``LayerGen(l, -)`` and s for ``SwapGen(i)``:

  * 3.3 by ``schur_core.Degree.acts``, once per degree: L(sigma) sends
    lead[p] to s lead[q] when ``actions[sigma]`` sends p to (q, s), and
    kills every other word, with the one-to-one lead =
    ``enh._placements(l, shape)[0][0]``.  So L(sigma) L(mu) is the
    relabelled composite of the table entries, and 3.3 holds on these
    maps exactly when it holds on the table;
  * 3.4 at sigma = id, on both sides: s L(sigma) = s L(id) L(sigma) =
    L(s_i) L(sigma) = L(s_i sigma), and the same on the right;
  * 3.5 for sigma = id or simple: by 3.3 every L(sigma) is a product of
    these;
  * 3.6 at sigma = mu = id: L(l, sigma) L(k, mu) = L(l, sigma) L(l, id)
    L(k, id) L(k, mu) = 0;
  * 3.1a, 3.1b and 3.2 in full.

``relation_failures`` is the one cached verdict on them and on every
``acts``, read by the relation check, which reports
``relation_count(r)`` instances, and by gate G1.  No relation
constrains the boundary case i = l of a swap against a layer generator.

The image D is never closed.  ``d_factors`` holds, per support T of
size l, the signed maps of the two words of ``factor_words(T)``: A_T
moves the letters on T to the leading slots and applies ``LayerGen(l,
id)``, and B_T moves them back.  With L_w the map of ``LayerGen(l, w)``,
every member of D factors as B_S L_w A_T.  ``d_certificate`` checks on
these O(sum_l C(r,l) (|cox| + C(r,l))) maps and the relation verdict
that the products span D (gate G1) and that the B_S A_T are matrix
units (gate G2).  Then layer l of D is M_{C(r,l)} (x) Pi_l, with Pi_l
the span of the ``LayerGen(l, w)`` on V^{(x)l}, of the dimension
``schur_core.degree(shape, l).group`` that its ``converse`` certifies:
read from the characters of the same table of actions when KS_l is
semisimple (the double centralizer theorem), and ranked from it modulo
p for p <= l.  ``d_algebra`` and ``d_layer_algebra`` build the spans
of the sum_l C(r,l)^2 l! products on the whole space; no verification
reads them.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache

from . import combinatorics as comb
from . import enhanced_core as enh
from . import schur_core
from .combinatorics import Permutation, Shape
from .linalg import (
    DEFAULT_SIZE_CAP,
    AlgebraSpan,
    ExactMatrix,
    check_power_cap,
    span_of,
)
from .schur_core import then


class SwapGen(namedtuple("SwapGen", "i")):
    """Signed swap s_i of tensor slots i, i+1 (1-based) on Vbar^{(x)r}."""

    __slots__ = ()

    def __new__(cls, i: int):
        if i < 1:
            raise ValueError("swap index must be >= 1")
        return super().__new__(cls, i)


class LayerGen(namedtuple("LayerGen", "l sigma")):
    """Permutation of the layer-l leading-support block, zero elsewhere."""

    __slots__ = ()

    def __new__(cls, l: int, sigma: Permutation):
        if l < 0:
            raise ValueError("layer must be >= 0")
        if len(sigma) != l:
            raise ValueError("permutation degree must equal the layer")
        if sorted(sigma) != list(range(l)):
            raise ValueError("sigma must be a permutation of 0..l-1")
        return super().__new__(cls, l, sigma)


HeckeGenerator = SwapGen | LayerGen
HeckeWord = tuple[HeckeGenerator, ...]


def _validate_gen(g: HeckeGenerator, shape: Shape) -> None:
    if isinstance(g, SwapGen):
        if not 1 <= g.i <= shape.r - 1:
            raise ValueError(f"swap index {g.i} out of range for r={shape.r}")
    elif isinstance(g, LayerGen):
        if not 0 <= g.l <= shape.r:
            raise ValueError(f"layer {g.l} out of range for r={shape.r}")
    else:
        raise ValueError(f"not a generator: {g!r}")


# Each basis word p the map does not kill -> (image q, sign s).
SignedMap = dict[int, tuple[int, int]]


def _gen_map(g: HeckeGenerator, shape: Shape) -> SignedMap:
    """A layer generator's map is built on each call: its degree's
    ``actions`` entry, moved to the leading support's positions."""
    _validate_gen(g, shape)
    if isinstance(g, SwapGen):
        return _swap_map(g.i, shape)
    lead = enh._placements(g.l, shape)[0][0]
    return {lead[p]: (lead[q], s) for p, (q, s)
            in schur_core.degree(shape, g.l).actions[g.sigma].items()}


@lru_cache(maxsize=None)
def _swap_map(i: int, shape: Shape) -> SignedMap:
    """``SwapGen(i)``, read from the integer tables ``Degree.words`` of
    Vbar^{(x)r}; that degree builds nothing else."""
    odd, swaps = schur_core.degree(enh.vbar(shape), shape.r).words
    return {p: (q, -1 if odd[p] >> (i - 1) & 3 == 3 else 1)
            for p, q in enumerate(swaps[i - 1])}


def _word_map(word: Sequence[HeckeGenerator], shape: Shape) -> SignedMap:
    """Compose the generator maps; the leftmost generator acts first.

    From the first ``LayerGen`` outward: its map is pulled back through
    the swaps before it, each its own inverse with the same sign by
    relation 3.1a, and the letters after it compose forward.  A
    one-letter swap word returns the cached swap map itself, so callers
    must not mutate the result.
    """
    if not word:
        return {p: (p, 1) for p in range(shape.dim_enhanced)}
    k = next((k for k, g in enumerate(word) if isinstance(g, LayerGen)), 0)
    out = _gen_map(word[k], shape)
    for g in reversed(word[:k]):
        sw = _gen_map(g, shape)
        out = {sw[p][0]: (q, s * sw[p][1]) for p, (q, s) in out.items()}
    for g in word[k + 1:]:
        out = then(out, _gen_map(g, shape))
    return out


def eval_word(word: Sequence[HeckeGenerator], shape: Shape) -> ExactMatrix:
    """Matrix of a product word; the leftmost generator acts first.

    With matrices acting on column vectors from the left this is the
    reversed matrix product, and the empty word is the identity.
    """
    return schur_core.signed_matrix(_word_map(word, shape),
                                    shape.dim_enhanced, shape.field)


@lru_cache(maxsize=None, typed=True)
def xi_gen(g: HeckeGenerator, shape: Shape) -> ExactMatrix:
    """Matrix of a single generator on the enhanced basis."""
    return eval_word((g,), shape)


RELATION_IDS = ("3.1a", "3.1b", "3.2", "3.3", "3.4", "3.5", "3.6")


class RelationInstance(
        namedtuple("RelationInstance", "rel i j l k sigma mu")):
    """One defining relation with concrete parameters.

    Parameter usage: 3.1a needs i; 3.1b and 3.2 need i, j; 3.3 needs l,
    sigma, mu; 3.4 and 3.5 need i, l, sigma; 3.6 needs l, k, sigma, mu.
    """

    __slots__ = ()

    def __new__(cls, rel: str, i: int | None = None, j: int | None = None,
                l: int | None = None, k: int | None = None,
                sigma: Permutation | None = None,
                mu: Permutation | None = None):
        if rel not in RELATION_IDS:
            raise ValueError(f"unknown relation {rel!r}")
        return super().__new__(cls, rel, i, j, l, k, sigma, mu)


def relation_sides(
    inst: RelationInstance, shape: Shape
) -> tuple[HeckeWord, HeckeWord | None]:
    """Words for the two sides of a relation; None stands for zero."""
    rel = inst.rel
    r = shape.r
    if rel == "3.1a":
        return (SwapGen(inst.i), SwapGen(inst.i)), ()
    if rel == "3.1b":
        if abs(inst.i - inst.j) <= 1:
            raise ValueError("3.1b needs |i-j| > 1")
        return (
            (SwapGen(inst.i), SwapGen(inst.j)),
            (SwapGen(inst.j), SwapGen(inst.i)),
        )
    if rel == "3.2":
        if abs(inst.i - inst.j) != 1:
            raise ValueError("3.2 needs |i-j| = 1")
        return (
            (SwapGen(inst.i), SwapGen(inst.j), SwapGen(inst.i)),
            (SwapGen(inst.j), SwapGen(inst.i), SwapGen(inst.j)),
        )
    if rel == "3.3":
        return (
            (LayerGen(inst.l, inst.sigma), LayerGen(inst.l, inst.mu)),
            (LayerGen(inst.l, comb.compose(inst.sigma, inst.mu)),),
        )
    if rel == "3.4":
        if not inst.i < inst.l:
            raise ValueError("3.4 needs i < l")
        s = comb.adjacent_transposition(inst.l, inst.i)
        return (
            (SwapGen(inst.i), LayerGen(inst.l, inst.sigma)),
            (LayerGen(inst.l, comb.compose(s, inst.sigma)),),
        )
    if rel == "3.5":
        if not inst.i > inst.l:
            raise ValueError("3.5 needs i > l")
        return (
            (SwapGen(inst.i), LayerGen(inst.l, inst.sigma)),
            (LayerGen(inst.l, inst.sigma), SwapGen(inst.i)),
        )
    if rel == "3.6":
        if inst.l == inst.k:
            raise ValueError("3.6 needs k != l")
        return (
            (LayerGen(inst.l, inst.sigma), LayerGen(inst.k, inst.mu)),
            None,
        )
    raise AssertionError(rel)


def check_relation(inst: RelationInstance, shape: Shape) -> bool:
    """Evaluate both sides of a relation and compare their signed maps.

    Relation 3.4 asserts the absorbed swap on either side, so both
    equalities are required for True.
    """
    lhs, rhs = relation_sides(inst, shape)
    right = {} if rhs is None else _word_map(rhs, shape)
    if _word_map(lhs, shape) != right:
        return False
    if inst.rel == "3.4":
        s = comb.adjacent_transposition(inst.l, inst.i)
        return _word_map(
            (LayerGen(inst.l, inst.sigma), SwapGen(inst.i)), shape
        ) == _word_map(
            (LayerGen(inst.l, comb.compose(inst.sigma, s)),), shape
        )
    return True


def _swap_instances(r: int) -> Iterator[RelationInstance]:
    """Every instance of 3.1a, 3.1b and 3.2."""
    for i in range(1, r):
        yield RelationInstance("3.1a", i=i)
    for i in range(1, r):
        for j in range(1, r):
            if abs(i - j) > 1:
                yield RelationInstance("3.1b", i=i, j=j)
    for i in range(1, r):
        for j in range(1, r):
            if abs(i - j) == 1:
                yield RelationInstance("3.2", i=i, j=j)


def relation_instances(shape: Shape) -> Iterator[RelationInstance]:
    """All valid relation instances at this shape, deterministic order."""
    r = shape.r
    yield from _swap_instances(r)
    for l in range(r + 1):
        for sigma in comb.perms(l):
            for mu in comb.perms(l):
                yield RelationInstance("3.3", l=l, sigma=sigma, mu=mu)
    for l in range(r + 1):
        for i in range(1, min(l, r)):
            for sigma in comb.perms(l):
                yield RelationInstance("3.4", i=i, l=l, sigma=sigma)
    for l in range(r + 1):
        for i in range(l + 1, r):
            for sigma in comb.perms(l):
                yield RelationInstance("3.5", i=i, l=l, sigma=sigma)
    for l in range(r + 1):
        for k in range(r + 1):
            if l == k:
                continue
            for sigma in comb.perms(l):
                for mu in comb.perms(k):
                    yield RelationInstance("3.6", l=l, k=k, sigma=sigma, mu=mu)


def _id_and_simple(l: int) -> list[Permutation]:
    return [comb.identity_perm(l)] + [
        comb.adjacent_transposition(l, i) for i in range(1, l)
    ]


def certified_instances(shape: Shape) -> Iterator[RelationInstance]:
    """The generating subset of ``relation_instances`` beside 3.3 (see
    the module docstring): no instance of 3.3, which ``Degree.acts``
    checks on the table, and one per ordered pair of layers of 3.6."""
    r = shape.r
    yield from _swap_instances(r)
    for l in range(r + 1):
        for i in range(1, l):
            yield RelationInstance("3.4", i=i, l=l,
                                   sigma=comb.identity_perm(l))
    for l in range(r + 1):
        for i in range(l + 1, r):
            for sigma in _id_and_simple(l):
                yield RelationInstance("3.5", i=i, l=l, sigma=sigma)
    for l in range(r + 1):
        for k in range(r + 1):
            if l != k:
                yield RelationInstance(
                    "3.6", l=l, k=k, sigma=comb.identity_perm(l),
                    mu=comb.identity_perm(k),
                )


@lru_cache(maxsize=None)
def relation_failures(shape: Shape) -> frozenset[str]:
    """The families whose ``certified_instances`` fail, and 3.3 when the
    table of some degree l <= r fails ``Degree.acts``, per shape."""
    failed = {inst.rel for inst in certified_instances(shape)
              if not check_relation(inst, shape)}
    if not all(schur_core.degree(shape, l).acts for l in range(shape.r + 1)):
        failed.add("3.3")
    return frozenset(failed)


def relation_count(r: int) -> int:
    """``len(relation_instances)`` at degree r, in closed form: (r-1)^2
    swap relations, (sum_l l!)^2 of 3.3 and 3.6 together, and
    (max(l-1, 0) + max(r-1-l, 0)) l! of 3.4 and 3.5 per layer."""
    f = [math.factorial(l) for l in range(r + 1)]
    return (r - 1) ** 2 + sum(f) ** 2 + sum(
        (max(l - 1, 0) + max(r - 1 - l, 0)) * f[l] for l in range(r + 1)
    )


def generator_count(r: int) -> int:
    """``len(hecke_generators)`` at degree r: r-1 swaps and l! layer
    generators per layer."""
    return r - 1 + sum(math.factorial(l) for l in range(r + 1))


def hecke_generators(shape: Shape) -> tuple[HeckeGenerator, ...]:
    """Canonical generator list: swaps first, then layer generators."""
    gens: list[HeckeGenerator] = [SwapGen(i) for i in range(1, shape.r)]
    for l in range(shape.r + 1):
        gens.extend(LayerGen(l, sigma) for sigma in comb.perms(l))
    return tuple(gens)


def coxeter_generators(shape: Shape) -> tuple[HeckeGenerator, ...]:
    """The swaps, then ``LayerGen(l, id)`` and ``LayerGen(l, s_i)`` per
    layer: O(r^2) generators, whose products give every
    ``LayerGen(l, sigma)`` by relation 3.3."""
    gens: list[HeckeGenerator] = [SwapGen(i) for i in range(1, shape.r)]
    for l in range(shape.r + 1):
        gens.extend(LayerGen(l, w) for w in _id_and_simple(l))
    return tuple(gens)


def layer_projector(l: int, shape: Shape) -> ExactMatrix:
    """Diagonal projector onto the span of all layer-l words."""
    if not 0 <= l <= shape.r:
        raise ValueError(f"layer {l} out of range")
    d = shape.dim_enhanced
    one = shape.field.one
    return ExactMatrix(
        shape.field, d, d,
        {(p, p): one for p in enh.layer_positions(shape, l)},
    )


# ---------------------------------------------------------------------------
# the factors of D and their certificate


def _to_lead(support: enh.Support) -> HeckeWord:
    """Adjacent swaps moving the letters on ``support``, in order, to the
    leading slots."""
    return tuple(
        SwapGen(i) for k, t in enumerate(support) for i in range(t, k, -1)
    )


def factor_words(T: enh.Support) -> tuple[HeckeWord, HeckeWord]:
    """The words of A_T and B_T: move support T to the leading slots,
    then apply ``LayerGen(l, id)``; and the mirror image."""
    one = (LayerGen(len(T), comb.identity_perm(len(T))),)
    return _to_lead(T) + one, one + _to_lead(T)[::-1]


@lru_cache(maxsize=None)
def d_factors(shape: Shape) -> dict[enh.Support, tuple[SignedMap, ...]]:
    """(A_T, B_T) for every support T, layer by layer, as signed maps.

    A_T = X_{lead,T,id} moves the words on support T to the leading
    slots and kills the rest; B_T = X_{T,lead,id} moves them back.
    """
    return {
        T: tuple(_word_map(word, shape) for word in factor_words(T))
        for l in range(shape.r + 1)
        for T in itertools.combinations(range(shape.r), l)
    }


def _key(x: SignedMap, sign: int = 1) -> frozenset:
    return frozenset((p, (q, sign * s)) for p, (q, s) in x.items())


@lru_cache(maxsize=None)
def d_certificate(shape: Shape) -> str | None:
    """The first of the gates G1, G2 that fails, or None.

    Products are matrix products, the right factor acting first.  L_w
    is the map of ``LayerGen(l, w)``, (A_T, B_T) are ``d_factors`` and s
    runs over id and the simple transpositions.

    G1 ``"certificate"``: (a) the words of A_T, B_T and the simple L_s
    are words in the ``coxeter_generators``; (b) B_T A_T is the
    projector onto the words with support T; (c) ``relation_failures``
    is empty, so L_w L_v = L_{compose(v, w)}; (d) A_T g is +- L_s A_{T'}
    for some s and T', or 0, for every T and Coxeter generator g.

    G2 ``"matrix_units"``: A_T B_S = L_id if S = T, and 0 otherwise.

    Why they suffice.  Let F be the span of the B_S L_w A_T.  Every
    factor is the image of a word in the generators, so F lies in D.
    The supports partition the basis words and L_id A_T = A_T by (c),
    so by (b) the identity, the sum of the B_T L_id A_T, lies in F.  By
    (d) and (c), B_S L_w A_T g is 0 or +- B_S L_{compose(s, w)} A_{T'}:
    F is closed under right products with the Coxeter generators.  By
    (c) every L_w is a product of L_id and the simple L_s, so the
    Coxeter generators generate D, and F = D.  By (b) and G2 the B_S A_T
    are matrix units and A_T, B_T are inverse bijections between the
    words on T and the leading words, so layer l of D is M_k (x) Pi_l,
    k = C(r, l).
    """
    fac = d_factors(shape)
    allowed = set(coxeter_generators(shape))
    # per layer: the supports and the maps of L_id and the simple L_s
    layers = [
        (l, list(itertools.combinations(range(shape.r), l)),
         {s: _gen_map(LayerGen(l, s), shape) for s in _id_and_simple(l)})
        for l in range(shape.r + 1)
    ]
    index = {
        _key(then(fac[T][0], L[s]))
        for l, supports, L in layers for T in supports
        for s in _id_and_simple(l)
    }

    def known(x: SignedMap) -> bool:
        return not x or _key(x) in index or _key(x, -1) in index

    def times_gen(x: SignedMap, pre: dict) -> SignedMap:
        return {p: (q2, s * s2) for q, (q2, s2) in x.items()
                for p, s in pre.get(q, ())}

    # per Coxeter generator: each word's preimages, with their signs
    pres = [{} for _ in allowed]
    for g, pre in zip(allowed, pres):
        for p, (q, s) in _gen_map(g, shape).items():
            pre.setdefault(q, []).append((p, s))
    g1 = (
        all(set(word) <= allowed for T in fac for word in factor_words(T))
        and all(LayerGen(l, s) in allowed for l, _, L in layers for s in L)
        and all(
            then(*fac[T]) == {p: (p, 1) for p in pos}
            for l, supports, _ in layers
            for T, (pos, _tw) in zip(supports, enh._placements(l, shape))
        )
        and not relation_failures(shape)
        and all(known(times_gen(A, pre))
                for A, _ in fac.values() for pre in pres)
    )
    if not g1:
        return "certificate"
    units = all(
        then(fac[S][1], fac[T][0])
        == (L[comb.identity_perm(l)] if S == T else {})
        for l, supports, L in layers for S in supports for T in supports
    )
    return None if units else "matrix_units"


@lru_cache(maxsize=None)
def _d_span(shape: Shape) -> AlgebraSpan:
    d, f = shape.dim_enhanced, shape.field
    fac = d_factors(shape)
    mats = []
    for T, (A, _) in fac.items():
        l = len(T)
        for w in comb.perms(l):
            head = then(A, _gen_map(LayerGen(l, w), shape))
            mats.extend(schur_core.signed_matrix(then(head, B), d, f)
                        for S, (_, B) in fac.items() if len(S) == l)
    return span_of(mats, d=d, field=f)


def d_algebra(shape: Shape, size_cap: int = DEFAULT_SIZE_CAP) -> AlgebraSpan:
    """The image D, as the span of the sum_l C(r,l)^2 l! products
    B_S L_w A_T of ``d_factors``.

    That span is D when ``d_certificate`` passes.  The size cap is a
    guard, not part of the cache key.
    """
    check_power_cap(shape.m + shape.n + 1, shape.r, size_cap)
    return _d_span(shape)


@lru_cache(maxsize=None)
def _d_layer(l: int, shape: Shape) -> AlgebraSpan:
    p = layer_projector(l, shape)
    pieces = [p @ mat @ p for mat in _d_span(shape).basis]
    return span_of(pieces, d=shape.dim_enhanced, field=shape.field)


def d_layer_algebra(
    l: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> AlgebraSpan:
    """The layer-l piece P_l D P_l of D, zero on every other layer."""
    if not 0 <= l <= shape.r:
        raise ValueError(f"layer {l} out of range")
    check_power_cap(shape.m + shape.n + 1, shape.r, size_cap)
    return _d_layer(l, shape)
