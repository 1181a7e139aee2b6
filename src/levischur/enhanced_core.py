"""
The enhanced tensor space and the Levi Schur superalgebra acting on it.

The enhanced space is the natural tensor space of Vbar = V + Kv,
itself a superspace: ``vbar(shape)`` is K^{m+1|n} when v is even and
K^{m|n+1} when it is odd (Cheng-Wang, GSM 144, for the natural tensor
superspace).  Its degree-r basis words run over the alphabet
``1..m+n+1``: letter ``m+1`` is v, letters ``<= m`` keep their meaning
and letters ``> m+1`` stand for the odd natural letters shifted up by
one, so the parity of a letter is ``comb.parity_of_index`` on
``vbar(shape)``.  The layer of a word is the number of natural (non-v)
letters; the support is the 0-based set of positions carrying them.

Basis elements of the Levi algebra are a rank-one bottom element (layer
0) together with one element per layer l >= 1 and per orbit
representative of degree l.  Their matrices preserve every fixed
support subspace, on which they act by ``schur_core``'s basis matrices
twisted by a sign per word that depends on the configured ``vparity``
(the two parities are conjugate by an explicit diagonal sign matrix,
see ``parity_flip_conjugator``).  Each is a basis element of the Schur
superalgebra S(Vbar, r) too: ``rho_levi(b)`` is
``schur_core.xi_entries((I, J), vbar(shape))``, with I and J the two
words of ``b.pair`` on the leading slots and v elsewhere (all v for
``BOTTOM``).  So S'(m|n,r) is spanned by the basis elements of S(Vbar,
r) whose two words carry v in the same slots.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from . import combinatorics as comb
from . import schur_core
from .combinatorics import DoubleIndex, MultiIndex, Shape
from .linalg import AlgebraSpan, ExactMatrix, span_of

EnhWord = tuple[int, ...]
Support = tuple[int, ...]


def vbar(shape: Shape) -> Shape:
    """Vbar = V + Kv at the same degree r: K^{m+1|n} when v is even and
    K^{m|n+1} when it is odd.  Its natural words are the enhanced words,
    in the order of ``enhanced_basis``."""
    return Shape(shape.m + 1 - shape.vparity, shape.n + shape.vparity,
                 shape.r, 0, shape.field)


def natural_to_letter(idx: int, shape: Shape) -> int:
    """Relabel a natural letter 1..m+n into the enhanced alphabet."""
    if not 1 <= idx <= shape.m + shape.n:
        raise ValueError(f"letter {idx} out of range")
    return idx if idx <= shape.m else idx + 1


def enhanced_basis(shape: Shape) -> tuple[EnhWord, ...]:
    """All enhanced words of degree r, lexicographically ordered."""
    return comb._words(shape.m + shape.n + 1, shape.r)


def enh_position(word: EnhWord, shape: Shape) -> int:
    """Mixed-radix position of a word in ``enhanced_basis``."""
    return comb.word_index(word, shape.m + shape.n + 1)


def enh_encode(core: MultiIndex, support: Support, shape: Shape) -> EnhWord:
    """Word with the k-th core letter at the k-th smallest support slot.

    ``support`` is a set of 0-based positions; all other slots hold v,
    letter ``m+1``.
    """
    supp = tuple(sorted(support))
    if len(supp) != len(core):
        raise ValueError("support size does not match core length")
    if supp and not (0 <= supp[0] and supp[-1] < shape.r):
        raise ValueError("support positions out of range")
    if len(set(supp)) != len(supp):
        raise ValueError("support positions repeat")
    word = [shape.m + 1] * shape.r
    for k, p in enumerate(supp):
        word[p] = natural_to_letter(core[k], shape)
    return tuple(word)


def enh_decode(word: EnhWord, shape: Shape) -> tuple[MultiIndex, Support]:
    """Recover (core word, support) from an enhanced word."""
    v = shape.m + 1
    core, supp = [], []
    for p, letter in enumerate(word):
        if not 1 <= letter <= shape.m + shape.n + 1:
            raise ValueError(f"letter {letter} out of range")
        if letter != v:
            core.append(letter if letter < v else letter - 1)
            supp.append(p)
    return tuple(core), tuple(supp)


def word_layer(word: EnhWord, shape: Shape) -> int:
    return len(word) - word.count(shape.m + 1)


def layer_positions(shape: Shape, l: int) -> tuple[int, ...]:
    """Basis positions of the words of layer l."""
    return tuple(
        p
        for p, w in enumerate(enhanced_basis(shape))
        if word_layer(w, shape) == l
    )


def support_positions(shape: Shape, support: Support) -> tuple[int, ...]:
    """Basis positions of the words with natural letters exactly on
    ``support``, in the order of their cores."""
    return tuple(
        enh_position(enh_encode(core, support, shape), shape)
        for core in comb.natural_words(shape, len(support))
    )


class LeviBasisElement(namedtuple("LeviBasisElement", "pair layer")):
    """Either the bottom projector (layer 0, empty pair) or an orbit
    representative of degree ``layer``."""

    __slots__ = ()

    def __new__(cls, pair: DoubleIndex, layer: int):
        if layer != len(pair[0]) or layer != len(pair[1]):
            raise ValueError("layer must equal the pair degree")
        return super().__new__(cls, pair, layer)


BOTTOM = LeviBasisElement(((), ()), 0)


def levi_basis(shape: Shape) -> tuple[LeviBasisElement, ...]:
    """Bottom element first, then layers 1..r in representative order."""
    out = [BOTTOM]
    for l in range(1, shape.r + 1):
        out.extend(
            LeviBasisElement(p, l) for p in comb.orbit_reps(shape, l)
        )
    return tuple(out)


def embed_alpha(l: int, pair: DoubleIndex, shape: Shape) -> LeviBasisElement:
    """Embed a degree-l basis label (an orbit representative) at layer l."""
    if len(pair[0]) != l:
        raise ValueError("degree mismatch")
    if comb.canonical_pair(pair, shape) != pair:
        raise ValueError(f"pair {pair} is not a strict orbit representative")
    return LeviBasisElement(pair, l)


@lru_cache(maxsize=None)
def _placements(l: int, shape: Shape) -> tuple:
    """Per support S of size l: ``support_positions`` and, per core word
    k, vparity times the number of pairs (enhanced slot, later odd
    letter of k), mod 2: the exponent of the twist tw(k)."""
    out = []
    for S in itertools.combinations(range(shape.r), l):
        # S[j] - j enhanced slots precede the j-th support slot
        gaps = [(p - j) * shape.vparity for j, p in enumerate(S)]
        out.append((support_positions(shape, S), tuple(
            sum(g for g, e in zip(gaps, comb.parity_vector(k, shape)) if e) & 1
            for k in comb.natural_words(shape, l))))
    return tuple(out)


@lru_cache(maxsize=None)
def rho_levi(b: LeviBasisElement, shape: Shape) -> ExactMatrix:
    """Matrix of a Levi basis element on the enhanced tensor space.

    ``xi_entries(b.pair)`` placed on every support of size ``b.layer``,
    the entry at cores (k, t) times tw(k) tw(t); other layers are
    annihilated.  This is the reordering sign alpha(eps_k + eps_t, eps_t)
    over parity vectors of full length r, enhanced slots contributing
    ``vparity``: its pairs (enhanced slot, later natural slot) give the
    twists.
    """
    xi = schur_core.degree(shape, b.layer).xi[b.pair]
    entries = {}
    for pos, tw in _placements(b.layer, shape):
        for (k, t), v in xi.items():
            entries[(pos[k], pos[t])] = v if tw[k] == tw[t] else -v
    return ExactMatrix(shape.field, shape.dim_enhanced, shape.dim_enhanced,
                       entries)


def rho_bottom(shape: Shape) -> ExactMatrix:
    """Rank-one projector fixing the all-enhanced word."""
    return rho_levi(BOTTOM, shape)


def levi_product(
    a: LeviBasisElement, b: LeviBasisElement, shape: Shape
) -> dict[LeviBasisElement, int]:
    """Product of two basis elements expanded in the basis.

    Zero whenever the layers differ; within a layer the classical
    structure constants apply (degenerating at layer 0 to the bottom
    element being idempotent).
    """
    if a.layer != b.layer:
        return {}
    coeffs = schur_core.structure_constants(a.pair, b.pair, shape)
    return {
        LeviBasisElement(rep, a.layer): c for rep, c in coeffs.items()
    }


@lru_cache(maxsize=None)
def levi_span(shape: Shape) -> AlgebraSpan:
    """Canonical span of all Levi basis matrices."""
    mats = [rho_levi(b, shape) for b in levi_basis(shape)]
    return span_of(mats, d=shape.dim_enhanced, field=shape.field)


def flip_exponents(shape: Shape) -> tuple[int, ...]:
    """Per enhanced word, in ``enhanced_basis`` order, the number of
    inversions between enhanced slots and later odd natural letters
    (the letters above ``m+1``), mod 2."""
    v = shape.m + 1
    out = []
    for word in enhanced_basis(shape):
        count = enh_seen = 0
        for letter in word:
            if letter == v:
                enh_seen += 1
            elif letter > v:
                count += enh_seen
        out.append(count & 1)
    return tuple(out)


def parity_flip_conjugator(shape: Shape) -> ExactMatrix:
    """Diagonal sign matrix relating the two enhanced-vector parities.

    The entry at a word is -1 raised to its ``flip_exponents``.
    Conjugating any Levi basis matrix built with vparity 1 by this
    matrix yields its vparity 0 counterpart; the same holds for the
    layer permutation generators (which live on leading supports where
    the count vanishes), but not for the signed swaps, whose action on
    two adjacent enhanced slots genuinely changes sign with the parity.
    The matrix is its own inverse.
    """
    d = shape.dim_enhanced
    return ExactMatrix(shape.field, d, d, {
        (p, p): -1 if e else 1 for p, e in enumerate(flip_exponents(shape))})
