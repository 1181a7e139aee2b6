"""
The classical side: signed symmetric group action on the natural tensor
space, the Schur superalgebra basis matrices, structure constants, and
classical Schur-Sergeev duality, built and certified here alone: per
degree l in ``degree(shape, l)``, cached per (m, n, l, field), which
the enhanced modules move to the supports.

The tensor basis of degree l is indexed by words over 1..m+n in
lexicographic order, fixing row/column numbering for every matrix in
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import combinatorics as comb
from .combinatorics import (
    DoubleIndex,
    MultiIndex,
    Permutation,
    Shape,
    add_parities,
    alpha,
    gamma,
)
from .linalg import (
    DEFAULT_SIZE_CAP,
    AlgebraSpan,
    ExactMatrix,
    check_size_cap,
    commutant,
    nullity_reaches,
    span_of,
)


def natural_basis(shape: Shape, l: int) -> tuple[MultiIndex, ...]:
    """Ordered basis words of the degree-l natural tensor space."""
    return comb.natural_words(shape, l)


def word_position(word: MultiIndex, shape: Shape) -> int:
    """Mixed-radix position of a word in the lexicographic basis."""
    return comb.word_index(word, shape.m + shape.n)


def signed_action(w: Permutation, shape: Shape) -> dict:
    """The right action of ``w`` on the degree-``len(w)`` natural words,
    as a signed map (see ``hecke``): the basis word ``i`` is sent to
    ``gamma(eps_i, w)`` times the word ``act(i, w)``."""
    return {
        p: (word_position(comb.act(word, w), shape),
            gamma(comb.parity_vector(word, shape), w))
        for p, word in enumerate(natural_basis(shape, len(w)))
    }


def pi_matrix(w: Permutation, shape: Shape, l: int) -> ExactMatrix:
    """Signed permutation matrix of ``signed_action(w)``.

    Matrix products compose contravariantly, as always when a right
    action is written with matrices acting on the left:
    ``pi_matrix(compose(s, t)) == pi_matrix(t) @ pi_matrix(s)``.
    """
    if len(w) != l:
        raise ValueError("degree mismatch")
    return signed_matrix(signed_action(w, shape), (shape.m + shape.n) ** l,
                         shape.field)


def signed_matrix(m: dict, d: int, field) -> ExactMatrix:
    """The d x d matrix of a signed map."""
    return ExactMatrix(field, d, d, {(q, p): s for p, (q, s) in m.items()})


def commutation_test(m: dict):
    """A test whether a matrix commutes with ``signed_matrix(m)``, for a
    one-to-one signed map m.  Both products only move and re-sign the
    matrix's entries, so neither is formed."""
    inv = {q: (p, s) for p, (q, s) in m.items()}

    def commutes(x: ExactMatrix) -> bool:
        neg = x.field.neg
        left, right = {}, {}
        for (a, b), v in x.entries.items():
            if a in m:      # (M x)[q, b] = s x[a, b] for m(a) = (q, s)
                q, s = m[a]
                left[(q, b)] = v if s > 0 else neg(v)
            if b in inv:    # (x M)[a, p] = s x[a, b] for m(p) = (b, s)
                p, s = inv[b]
                right[(a, p)] = v if s > 0 else neg(v)
        return left == right
    return commutes


def schur_basis(shape: Shape, l: int) -> tuple[DoubleIndex, ...]:
    """Orbit representatives labelling the degree-l basis."""
    return comb.orbit_reps(shape, l)


def normalize_pair(pair: DoubleIndex, shape: Shape) -> tuple[DoubleIndex, int]:
    """Express a strict pair as (orbit representative, transport sign).

    The basis element labelled by ``pair`` equals ``sign`` times the one
    labelled by the representative.
    """
    rep = comb.canonical_pair(pair, shape)
    if rep is None:
        raise ValueError(f"pair {pair} is not strict")
    return rep, comb.sigma_sign(rep, pair, shape)


def xi_matrix(pair: DoubleIndex, shape: Shape) -> ExactMatrix:
    """Matrix of the basis element labelled by a strict pair.

    Basis word t is sent to the sum of sigma(pair; k, t) *
    alpha(eps_k + eps_t, eps_t) * (word k) over all orbit elements
    (k, t) of ``pair`` whose column matches t.
    """
    if not comb.is_strict(pair, shape):
        raise ValueError(f"pair {pair} is not strict")
    l = len(pair[0])
    d = (shape.m + shape.n) ** l
    entries = {}
    for k, t in comb.orbit_elements(pair):
        sgn = comb.sigma_sign(pair, (k, t), shape)
        ek = comb.parity_vector(k, shape)
        et = comb.parity_vector(t, shape)
        val = sgn * alpha(add_parities(ek, et), et)
        entries[(word_position(k, shape), word_position(t, shape))] = val
    return ExactMatrix(shape.field, d, d, entries)


def structure_constants(
    a: DoubleIndex, b: DoubleIndex, shape: Shape
) -> dict[DoubleIndex, int]:
    """Coefficients of the product of two basis elements.

    Returns a map from orbit representatives to integer coefficients;
    the coefficient at (s, t) sums sigma(a; s, h) * sigma(b; h, t) *
    alpha(eps_s + eps_h, eps_h + eps_t) over the connecting words h.
    """
    l = len(a[0])
    if len(b[0]) != l:
        raise ValueError("degree mismatch")
    canon_a = comb.canonical_pair(a, shape)
    canon_b = comb.canonical_pair(b, shape)
    if canon_a is None or canon_b is None:
        raise ValueError("pairs must be strict")
    out: dict[DoubleIndex, int] = {}
    for s, t in schur_basis(shape, l):
        es = comb.parity_vector(s, shape)
        et = comb.parity_vector(t, shape)
        total = 0
        for h in comb.natural_words(shape, l):
            if comb.canonical_pair((s, h), shape) != canon_a:
                continue
            if comb.canonical_pair((h, t), shape) != canon_b:
                continue
            eh = comb.parity_vector(h, shape)
            total += (
                comb.sigma_sign(a, (s, h), shape)
                * comb.sigma_sign(b, (h, t), shape)
                * alpha(add_parities(es, eh), add_parities(eh, et))
            )
        if total:
            out[(s, t)] = total
    return out


class Degree:
    """Classical Schur-Sergeev duality on the (m+n)^l words of V^{(x)l},
    each piece built on first use: ``hecke.d_dimension`` reads only
    ``group`` and solves no commutant.

    Under ``gate``, S(m|n,l) lies in C(Pi_l) and Pi_l in C(S(m|n,l)),
    the simple transpositions generating S_l.  Each commutant is then
    the lower-bound span once ``linalg.nullity_reaches`` meets its
    dimension, and found by elimination otherwise; ``solves`` records
    which, with the prime and the generators stacked.
    """

    def __init__(self, shape: Shape, l: int):
        self.shape, self.l, self.dim = shape, l, (shape.m + shape.n) ** l
        self.solves: dict[str, dict] = {}

    @cached_property
    def xi(self) -> dict[DoubleIndex, ExactMatrix]:
        """``xi_matrix`` of every basis label, in ``schur_basis`` order."""
        return {p: xi_matrix(p, self.shape)
                for p in schur_basis(self.shape, self.l)}

    @cached_property
    def schur(self) -> AlgebraSpan:
        """S(m|n,l), the span of the basis matrices."""
        return span_of(list(self.xi.values()), d=self.dim,
                       field=self.shape.field)

    @cached_property
    def group(self) -> AlgebraSpan:
        """The image of KS_l, the span of every ``pi_matrix``."""
        return span_of([pi_matrix(w, self.shape, self.l)
                        for w in comb.perms(self.l)],
                       d=self.dim, field=self.shape.field)

    @cached_property
    def simple(self) -> list[dict]:
        """``signed_action`` of the l-1 simple transpositions."""
        return [signed_action(comb.adjacent_transposition(self.l, i),
                              self.shape) for i in range(1, self.l)]

    @cached_property
    def gate(self) -> bool:
        """Every basis matrix commutes with every simple transposition."""
        tests = [commutation_test(m) for m in self.simple]
        return all(t(x) for t in tests for x in self.xi.values())

    @cached_property
    def commutant_pi(self) -> AlgebraSpan:
        """The commutant of the l-1 simple transpositions."""
        return self._commutant("commutant_pi", [
            signed_matrix(m, self.dim, self.shape.field)
            for m in self.simple], self.schur)

    @cached_property
    def commutant_schur(self) -> AlgebraSpan:
        """The commutant of the basis matrices, stacked with those whose
        row and column words differ in at most one slot first."""
        order = sorted(self.xi, key=lambda pair: sum(
            a != b for a, b in zip(*pair)) > 1)
        return self._commutant("commutant_schur",
                               [self.xi[p] for p in order], self.group)

    def _commutant(self, name: str, mats, lower: AlgebraSpan) -> AlgebraSpan:
        prime = stacked = None
        if self.gate:
            prime, stacked = nullity_reaches(mats, self.dim, lower.dimension,
                                             self.shape.field)
        self.solves[name] = {
            "method": "eliminated" if stacked is None else "certified",
            "prime": prime, "stacked": stacked,
        }
        if stacked is not None:
            return lower
        return commutant(mats, self.dim, field=self.shape.field,
                         size_cap=self.dim)


def degree(shape: Shape, l: int) -> Degree:
    """The degree-l data, one per (m, n, l, field): r and vparity do not
    reach the natural tensor spaces, so the key fixes them."""
    return _degree(Shape(shape.m, shape.n, 1, 0, shape.field), l)


_degree = lru_cache(maxsize=None)(Degree)


@dataclass(frozen=True)
class ClassicalDualityReport:
    dim_commutant_of_symmetric_group: int
    dim_schur: int
    spans_equal: bool
    r_le_mplusn: bool
    dim_commutant_of_schur: int | None
    converse_spans_equal: bool | None


def classical_duality(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> ClassicalDualityReport:
    """Check both directions of the classical double centralizer.

    The commutant of the signed symmetric group action always equals
    the span of the basis matrices; the converse (the commutant of that
    span is the image of the group algebra, of dimension r!) is gated
    on r <= m+n and merely reported otherwise.
    """
    check_size_cap(shape.dim_natural, size_cap)
    deg = degree(shape, shape.r)
    return ClassicalDualityReport(
        dim_commutant_of_symmetric_group=deg.commutant_pi.dimension,
        dim_schur=deg.schur.dimension,
        spans_equal=deg.commutant_pi == deg.schur,
        r_le_mplusn=shape.r <= shape.m + shape.n,
        dim_commutant_of_schur=deg.commutant_schur.dimension,
        converse_spans_equal=deg.commutant_schur == deg.group,
    )
