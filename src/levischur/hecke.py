"""
Generators, relations and matrix image of the layered permutation
algebra acting on the enhanced tensor space.

Two families of generators act on the right of the degree-r enhanced
space:

  * ``SwapGen(i)`` for 1 <= i <= r-1: the signed swap of tensor slots i
    and i+1 (slots 1-based), with sign given by the product of the slot
    parities.
  * ``LayerGen(l, sigma)`` for 0 <= l <= r and sigma of degree l: sends
    the word with core t on the leading support {1..l} to the signed
    word with core ``act(t, sigma)`` on the same support, and kills
    every word whose support is not exactly the leading one.

Every generator sends a basis word to plus or minus one basis word or
to zero, so it and every word in the generators is a signed partial
permutation of the enhanced basis, held as a ``SignedMap``: entry p is
``(q, s)`` when basis word p goes to s times basis word q, and None
when the word kills it.  The signs are +-1 and the field never has
characteristic 2, so two maps are equal exactly when their matrices
are: relations compare maps, and only ``eval_word`` builds a matrix.

The abstract algebra behind these generators is infinite dimensional
and never materialized; only words of generators, their images, and
the relation checks below exist.  Words evaluate under the
right-module convention: the leftmost generator acts first.

The defining relations carry the labels 3.1a through 3.6; see
``RELATION_IDS`` for the catalogue.  The boundary case i = l of a swap
against a layer generator is constrained by none of them; its observed
behaviour is reported separately and never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Union

from . import combinatorics as comb
from . import enhanced_core as enh
from .combinatorics import Permutation, Shape, gamma
from .linalg import (
    DEFAULT_SIZE_CAP,
    AlgebraSpan,
    ExactMatrix,
    algebra_closure,
    check_size_cap,
    span_of,
)


@dataclass(frozen=True)
class SwapGen:
    """Adjacent signed swap of tensor slots i, i+1 (1-based)."""

    i: int

    def __post_init__(self):
        if self.i < 1:
            raise ValueError("swap index must be >= 1")


@dataclass(frozen=True)
class LayerGen:
    """Permutation of the layer-l leading-support block, zero elsewhere."""

    l: int
    sigma: Permutation

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("layer must be >= 0")
        if len(self.sigma) != self.l:
            raise ValueError("permutation degree must equal the layer")
        if sorted(self.sigma) != list(range(self.l)):
            raise ValueError("sigma must be a permutation of 0..l-1")


HeckeGenerator = Union[SwapGen, LayerGen]
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


SignedMap = tuple[Union[tuple[int, int], None], ...]


@lru_cache(maxsize=None)
def _gen_map(g: HeckeGenerator, shape: Shape) -> SignedMap:
    _validate_gen(g, shape)
    out: list = [None] * shape.dim_enhanced
    if isinstance(g, SwapGen):
        w = comb.adjacent_transposition(shape.r, g.i)
        for pos, word in enumerate(enh.enhanced_basis(shape)):
            eps = enh.enh_parity_vector(word, shape)
            tgt = comb.act(word, w)
            out[pos] = (enh.enh_position(tgt, shape), gamma(eps, w))
    else:
        lead = tuple(range(g.l))
        for core in comb.natural_words(shape, g.l):
            src = enh.enh_encode(core, lead, shape)
            tgt = enh.enh_encode(comb.act(core, g.sigma), lead, shape)
            sgn = gamma(comb.parity_vector(core, shape), g.sigma)
            out[enh.enh_position(src, shape)] = (
                enh.enh_position(tgt, shape), sgn)
    return tuple(out)


def _word_map(word: Sequence[HeckeGenerator], shape: Shape) -> SignedMap:
    """Compose the generator maps; the leftmost generator acts first."""
    out: SignedMap = tuple((p, 1) for p in range(shape.dim_enhanced))
    for g in word:
        gm = _gen_map(g, shape)
        out = tuple(
            (hit[0], img[1] * hit[1])
            if img is not None and (hit := gm[img[0]]) is not None
            else None
            for img in out
        )
    return out


def eval_word(word: Sequence[HeckeGenerator], shape: Shape) -> ExactMatrix:
    """Matrix of a product word; the leftmost generator acts first.

    With matrices acting on column vectors from the left this is the
    reversed matrix product, and the empty word is the identity.
    """
    d = shape.dim_enhanced
    return ExactMatrix(shape.field, d, d, {
        (img[0], p): img[1]
        for p, img in enumerate(_word_map(word, shape)) if img is not None
    })


@lru_cache(maxsize=None)
def xi_gen(g: HeckeGenerator, shape: Shape) -> ExactMatrix:
    """Matrix of a single generator on the enhanced basis."""
    return eval_word((g,), shape)


RELATION_IDS = ("3.1a", "3.1b", "3.2", "3.3", "3.4", "3.5", "3.6")


@dataclass(frozen=True)
class RelationInstance:
    """One defining relation with concrete parameters.

    Parameter usage: 3.1a needs i; 3.1b and 3.2 need i, j; 3.3 needs l,
    sigma, mu; 3.4 and 3.5 need i, l, sigma; 3.6 needs l, k, sigma, mu.
    """

    rel: str
    i: int | None = None
    j: int | None = None
    l: int | None = None
    k: int | None = None
    sigma: Permutation | None = None
    mu: Permutation | None = None

    def __post_init__(self):
        if self.rel not in RELATION_IDS:
            raise ValueError(f"unknown relation {self.rel!r}")


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
    right = (
        (None,) * shape.dim_enhanced if rhs is None
        else _word_map(rhs, shape)
    )
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


def relation_instances(shape: Shape) -> Iterator[RelationInstance]:
    """All valid relation instances at this shape, deterministic order."""
    r = shape.r
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


def boundary_observations(shape: Shape) -> list[tuple[int, Permutation, bool]]:
    """Observed commutation at the unconstrained boundary i = l.

    Returns (i, sigma, swap-commutes-with-layer-generator) triples; no
    relation governs these, so they are reported and never asserted.
    """
    out = []
    for l in range(1, shape.r):
        i = l
        for sigma in comb.perms(l):
            a = _word_map((SwapGen(i), LayerGen(l, sigma)), shape)
            b = _word_map((LayerGen(l, sigma), SwapGen(i)), shape)
            out.append((i, sigma, a == b))
    return out


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
        gens.append(LayerGen(l, tuple(range(l))))
        gens.extend(LayerGen(l, comb.adjacent_transposition(l, i))
                    for i in range(1, l))
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


@lru_cache(maxsize=None)
def _d_closure(shape: Shape) -> tuple[AlgebraSpan, tuple[ExactMatrix, ...]]:
    d, field = shape.dim_enhanced, shape.field
    gens = [xi_gen(g, shape) for g in coxeter_generators(shape)]
    span = algebra_closure(gens, True, d=d, field=field, size_cap=d)
    every = (xi_gen(g, shape) for g in hecke_generators(shape))
    missing = [m for m in every if not span.contains(m)]
    if missing:
        gens.extend(missing)
        span = algebra_closure(gens, True, d=d, field=field, size_cap=d)
    return span, tuple(gens)


def d_algebra(shape: Shape, size_cap: int = DEFAULT_SIZE_CAP) -> AlgebraSpan:
    """The image D: the closure, with identity, of every generator matrix.

    D is closed once, by right products with the ``coxeter_generators``.
    Every matrix of ``hecke_generators`` is then checked to lie in the
    closure; any that does not joins the generators and D is closed
    again.  The size cap is a guard, not part of the cache key.
    """
    check_size_cap(shape.dim_enhanced, size_cap)
    return _d_closure(shape)[0]


def d_generators(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> tuple[ExactMatrix, ...]:
    """The generator matrices ``d_algebra`` closed over."""
    check_size_cap(shape.dim_enhanced, size_cap)
    return _d_closure(shape)[1]


@lru_cache(maxsize=None)
def _d_layer(l: int, shape: Shape) -> AlgebraSpan:
    p = layer_projector(l, shape)
    pieces = [p @ mat @ p for mat in _d_closure(shape)[0].basis]
    return span_of(pieces, d=shape.dim_enhanced, field=shape.field)


def d_layer_algebra(
    l: int, shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> AlgebraSpan:
    """The layer-l piece P_l D P_l of D, zero on every other layer.

    As every generator preserves the layers, this is the closure of the
    generators cut down to layer l, with unit the layer projector.
    """
    if not 0 <= l <= shape.r:
        raise ValueError(f"layer {l} out of range")
    check_size_cap(shape.dim_enhanced, size_cap)
    return _d_layer(l, shape)
