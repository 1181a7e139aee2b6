"""
The classical side: signed symmetric group action on the natural tensor
space, the Schur superalgebra basis matrices, structure constants, and
classical Schur-Sergeev duality, built and certified here alone: per
degree l in ``degree(shape, l)``, cached per (m, n, l, field), which
the enhanced modules move to the supports.

Each piece is read off its structure, as signed maps and dicts of +-1
ints; no command builds an ``ExactMatrix``.  ``Degree.actions``, the
signed S_l action, is built once per degree, checked by ``Degree.acts``
(relation 3.3), and read by the traces, ``Degree.orbits`` and
``hecke``'s layer generators; ``then`` composes signed maps.  The basis
matrices come from the paper's formula, the transport signs carried
along each orbit once, on the integer word tables ``Degree.words``.
C(Pi_l) is the span of the signed orbits of the simple transpositions
on the matrix positions; ``Degree.orbits`` walks them once, with no
field arithmetic, keeps none, and checks that each basis matrix is one
of them: the first direction, ``certified``, S(m|n,l) = C(Pi_l).  The
converse, C(S(m|n,l)) = Pi_l, is ``Degree.converse``, which states the
argument: over the rationals and over GF(p) with p > l, Maschke and the
double centralizer theorem, with dim Pi_l read from the characters of
the signed action under exact gates; only for p <= l a count modulo p
inside the weight blocks.  No command does rational arithmetic.  Each
direction is one verdict on one path: a failed check fails, and nothing
is eliminated instead.

The tensor basis of degree l is indexed by words over 1..m+n in
lexicographic order, fixing row/column numbering for every matrix in
the package.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import cached_property, lru_cache

from . import combinatorics as comb
from .combinatorics import (
    DoubleIndex,
    MultiIndex,
    Partition,
    Permutation,
    Shape,
    add_parities,
    alpha,
)
from .linalg import (
    DEFAULT_SIZE_CAP,
    AlgebraSpan,
    ExactMatrix,
    PrimeField,
    check_power_cap,
    nullity_reaches,
    rank_of_rows,
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
    ``gamma(eps_i, w)`` times the word ``act(i, w)``.

    Built on integers.  ``act`` moves the digit of slot j to slot
    inv(w)[j], so the positions of the images, in word order, are the
    mixed-radix sums of the permuted digit columns.  ``gamma`` depends
    on the odd slots alone: an odd slot s flips it once per odd slot
    t < s that ``w`` places after s, the slots of s's inversion mask.
    So one sign per bitmask of odd slots, built slot by slot, is read
    for each word at its odd bitmask in ``Degree.words``."""
    l, num = len(w), shape.m + shape.n
    # the general path gives the same map, but ``verify (1|0,8) --vparity
    # even`` makes 46,234 calls: 0.25-0.51 s in process with this return
    # and 0.59-0.88 s without it (best 3 of 5 runs, two cores)
    if num == 1:    # V = K^{1|0}: its one word is fixed and even
        return {0: (0, 1)}
    inv = comb.inverse_perm(w)
    pos = [0]
    for j in range(l):
        step = num ** (l - 1 - inv[j])
        pos = [p + x for p in pos for x in range(0, num * step, step)]
    if not shape.n or l < 2:
        return dict(enumerate(zip(pos, itertools.repeat(1))))
    sign = [1]
    for s in range(l):
        later = sum(1 << t for t in range(s) if inv[t] > inv[s])
        sign += [-g if (mask & later).bit_count() & 1 else g
                 for mask, g in enumerate(sign)]
    odd = degree(shape, l).words[0]
    return dict(enumerate(zip(pos, [sign[o] for o in odd])))


def then(a: dict, b: dict) -> dict:
    """The signed map a followed by b: the matrix product b @ a."""
    out = {}
    for p, (q, s) in a.items():
        img = b.get(q)
        if img is not None:
            out[p] = (img[0], s * img[1])
    return out


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


def xi_entries(pair: DoubleIndex, shape: Shape) -> dict:
    """The basis element labelled by a strict pair, as its entries: a
    dict (row, col) -> +-1 int over the degree-l words.

    Basis word t is sent to the sum of sigma(pair; k, t) *
    alpha(eps_k + eps_t, eps_t) * (word k) over all orbit elements
    (k, t) of ``pair`` whose column matches t.  The orbit is walked on
    position pairs along the simple transpositions of ``Degree.words``,
    carrying the transport sign sigma as ``combinatorics.orbit_signs``
    does: a step swapping slots i and i+1 flips it when both are odd in
    eps_k + eps_t.
    """
    if not comb.is_strict(pair, shape):
        raise ValueError(f"pair {pair} is not strict")
    odd, swaps = degree(shape, len(pair[0])).words
    start = (word_position(pair[0], shape), word_position(pair[1], shape))
    signs = {start: 1}
    stack = [start]
    while stack:
        k, t = y = stack.pop()
        sign, both = signs[y], odd[k] ^ odd[t]
        for i, img in enumerate(swaps):
            q = (img[k], img[t])
            if q not in signs:
                signs[q] = -sign if both >> i & 3 == 3 else sign
                stack.append(q)
    return {(k, t): sign * _alpha(odd[k] ^ odd[t], odd[t])
            for (k, t), sign in signs.items()}


def _alpha(eps: int, delta: int) -> int:
    """``alpha`` on parity words held as bitmasks, slot k at bit k."""
    par = 0
    while eps:
        low = eps & -eps
        par ^= (delta & (low - 1)).bit_count()
        eps ^= low
    return -1 if par & 1 else 1


def xi_matrix(pair: DoubleIndex, shape: Shape) -> ExactMatrix:
    """``xi_entries`` as a matrix over the shape's field."""
    d = (shape.m + shape.n) ** len(pair[0])
    return ExactMatrix(shape.field, d, d, xi_entries(pair, shape))


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
    each piece built on first use.

    The signed orbits of the l-1 simple transpositions span C(Pi_l), one
    dimension per consistent orbit, when the table ``actions`` is an
    action of S_l, which ``acts`` checks; ``orbits`` walks them once and
    keeps none.  ``certified`` decides C(Pi_l) = S(m|n,l) in that walk,
    and ``converse`` C(S(m|n,l)) = Pi_l: by the double centralizer
    theorem and the character gates when KS_l is ``semisimple``, and by
    a count modulo p for p <= l.  Both hold in every characteristic but 2
    (Brundan-Kujawa), so a failed verdict is a defect, and final: no
    commutant is eliminated.  ``solves`` records each verdict, and the
    step that failed.  Matrices are dicts of +-1 ints by (row, col).
    """

    def __init__(self, shape: Shape, l: int):
        self.shape, self.l, self.dim = shape, l, (shape.m + shape.n) ** l
        self.solves: dict[str, dict] = {}

    @cached_property
    def actions(self) -> dict[Permutation, dict]:
        """``signed_action`` of every permutation of degree l."""
        return {w: signed_action(w, self.shape) for w in comb.perms(self.l)}

    @cached_property
    def acts(self) -> bool:
        """Relation 3.3 on the table a = ``actions``: a(id) is idempotent,
        the simple a(s_i) satisfy the Coxeter relations, which present S_l
        (Bjorner-Brenti, GTM 231), and a(sigma s) then a(s) is a(sigma),
        s undoing the first descent of sigma != id: by induction on length
        on this spanning tree of the Cayley graph, a is an action of S_l.
        The tree alone passes any a(s_1) at l = 2."""
        a, l = self.actions, self.l
        one = comb.identity_perm(l)
        simple = [comb.adjacent_transposition(l, k) for k in range(1, l)]

        def edge(sigma):
            s = simple[next(k for k in range(l - 1)
                            if sigma[k] > sigma[k + 1])]
            return then(a[comb.compose(sigma, s)], a[s]) == a[sigma]

        def coxeter(i, j):
            y = a[one]
            for _ in range(1 if i == j else 3 if j == i + 1 else 2):
                y = then(then(y, a[simple[i]]), a[simple[j]])
            return y == a[one]
        return then(a[one], a[one]) == a[one] and all(
            edge(sigma) for sigma in a if sigma != one) and all(
            coxeter(i, j) for i in range(l - 1) for j in range(i, l - 1))

    @cached_property
    def words(self) -> tuple[list[int], list[list[int]]]:
        """Integer tables of the words, by position: the odd slots of
        each word as a bitmask, slot k at bit k, and for each simple
        transposition s_i the position of the word with slots i and
        i+1 swapped.  In mixed radix N = m+n that swap adds (x_{i+1} -
        x_i)(N^(l-1-i) - N^(l-2-i)) to the position."""
        m, l, num = self.shape.m, self.l, self.shape.m + self.shape.n
        words = natural_basis(self.shape, l)
        odd = [sum(1 << k for k, x in enumerate(w) if x > m) for w in words]
        swaps = []
        for i in range(l - 1):
            step = num ** (l - 1 - i) - num ** (l - 2 - i)
            swaps.append([p + (w[i + 1] - w[i]) * step
                          for p, w in enumerate(words)])
        return odd, swaps

    @cached_property
    def xi(self) -> dict[DoubleIndex, dict]:
        """``xi_entries`` of every basis label, in ``schur_basis`` order."""
        return {p: xi_entries(p, self.shape)
                for p in schur_basis(self.shape, self.l)}

    @cached_property
    def schur(self) -> AlgebraSpan:
        """S(m|n,l), the span of the basis matrices; no command reads it."""
        d, f = self.dim, self.shape.field
        return span_of([ExactMatrix(f, d, d, x) for x in self.xi.values()],
                       d=d, field=f)

    @cached_property
    def semisimple(self) -> bool:
        """K S_l is semisimple: K is the rationals, or GF(p) with p > l
        (Maschke)."""
        field = self.shape.field
        return not isinstance(field, PrimeField) or field.p > self.l

    @cached_property
    def traces(self) -> dict[Partition, int]:
        """chi_V(mu) for each partition mu of l: the trace of ``actions``
        at ``combinatorics.cycle_perm(mu)``, the signs of the words it
        fixes.  Under ``acts`` it is the character of V^{(x)l}."""
        return {mu: sum(s for p, (q, s) in self.actions[
            comb.cycle_perm(mu)].items() if p == q)
            for mu in comb.partitions(self.l)}

    @cached_property
    def multiplicities(self) -> list[tuple[int, int]] | None:
        """(m_lambda, f^lambda) for each partition lambda of l, m_lambda
        the multiplicity of the Specht module S^lambda and f^lambda its
        dimension, in integers: l! m_lambda sums, over mu, ``class_size``
        of mu times chi^lambda(mu) times ``traces``[mu]
        (``combinatorics.characters``).  None when an m_lambda is not a
        non-negative integer."""
        out, order = [], math.factorial(self.l)
        for row in comb.characters(self.l).values():
            m, rest = divmod(sum(comb.class_size(mu) * chi * self.traces[mu]
                                 for mu, chi in row.items()), order)
            if rest or m < 0:
                return None
            out.append((m, row[(1,) * self.l]))
        return out

    @cached_property
    def group(self) -> int | None:
        """dim Pi_l, Pi_l the image of KS_l; read it only under
        ``converse``, which certifies it.  When KS_l is ``semisimple``,
        Pi_l is the sum of one matrix algebra M_{f^lambda} per Specht
        module that occurs in V^{(x)l} (Wedderburn; each S^lambda is
        absolutely irreducible there): the sum of (f^lambda)^2 over the
        m_lambda > 0 of ``multiplicities``, None without them.  For p <= l
        it is the rank over GF(p) of the matrices of ``actions``, ranked
        as flattened rows: p -> (q, s) is the entry s at (q, p)."""
        if self.semisimple:
            mult = self.multiplicities
            return None if mult is None else sum(f * f for m, f in mult if m)
        d, gf = self.dim, self.shape.field
        return rank_of_rows(({q * d + p: s % gf.p for p, (q, s) in m.items()}
                             for m in self.actions.values()), gf)

    @cached_property
    def orbits(self) -> tuple[int, int, bool]:
        """C(Pi_l) and the first direction, in one walk of the d*d matrix
        positions that keeps no orbit.  X commutes with the signed simple
        transpositions of ``actions`` exactly when X[q_a, q_b] = s_a s_b
        X[a, b] for a -> (q_a, s_a) and b -> (q_b, s_b), so the positions
        fall into orbits, each signed relative to its least position, its
        root.  An orbit meeting a position with both signs forces X to
        vanish there (the characteristic is not 2); every other orbit is
        one dimension of C(Pi_l).  Each matrix of ``xi`` is keyed by its
        least position; at each root a matrix must be keyed exactly when
        the orbit is consistent, with the orbit's size and each entry the
        orbit's sign there times its entry at the root, and no key may
        repeat or be left over.  Returns the number of consistent orbits,
        the number of the others, and whether the matrices matched."""
        d = self.dim
        steps = [([m[a][0] for a in range(d)], [m[a][1] for a in range(d)])
                 for m in (self.actions[comb.adjacent_transposition(
                     self.l, i)] for i in range(1, self.l))]
        keyed = {min(x, default=None): x for x in self.xi.values()}
        matched = len(keyed) == len(self.xi)
        sign = [0] * (d * d)
        consistent = conflicts = 0
        for root in range(d * d):
            if sign[root]:
                continue
            sign[root] = 1
            orbit, stack, ok = [root], [root], True
            while stack:
                a, b = divmod(stack.pop(), d)
                for img, sg in steps:
                    y = img[a] * d + img[b]
                    sy = sign[a * d + b] * sg[a] * sg[b]
                    if not sign[y]:
                        sign[y] = sy
                        orbit.append(y)
                        stack.append(y)
                    elif sign[y] != sy:
                        ok = False
            if ok:
                consistent += 1
            else:
                conflicts += 1
            x = keyed.pop(divmod(root, d), None)
            if x is None:
                matched = matched and not ok
            elif matched:
                at = x[divmod(root, d)]
                matched = ok and len(x) == len(orbit) and all(
                    x.get(divmod(y, d)) == sign[y] * at for y in orbit)
        return consistent, conflicts, matched and not keyed

    @cached_property
    def certified(self) -> bool:
        """``acts``, and the basis matrices matched ``orbits``: each is one
        whole consistent signed orbit, with its signs, on distinct orbits,
        as many as there are, so they span C(Pi_l)."""
        consistent, conflicts, matched = self.orbits
        ok = self.acts and matched
        self.solves["commutant_pi"] = {
            "method": "certified" if ok else
            "orbits_failed" if self.acts else "action_failed",
            "orbits": consistent, "conflicts": conflicts,
        }
        return ok

    @cached_property
    def weight_blocks(self) -> list[list[int]] | None:
        """The supports of the diagonal basis matrices xi((w, w)) when
        these are 0/1 diagonal and partition the d words, and None
        otherwise.  They are then the weight idempotents e, orthogonal
        with sum 1, so any X commuting with S(m|n,l) is the sum of the
        e X e: it vanishes off the blocks."""
        blocks = []
        for (row, col), x in self.xi.items():
            if row != col:
                continue
            if any(a != b or v != 1 for (a, b), v in x.items()):
                return None
            blocks.append([a for a, _b in x])
        if sorted(a for block in blocks for a in block) != list(
                range(self.dim)):
            return None
        return blocks

    @cached_property
    def chevalley(self) -> list[dict]:
        """E_{a,a+-1}: the sum of the basis matrices whose row and column
        words differ in exactly one slot, with letters a and a+-1 there.
        Over the rationals they generate S(m|n,l), the image of
        U(gl(m|n)) (Sergeev; Berele-Regev).  Distinct basis labels have
        disjoint orbits, so each sum is a union of entries."""
        sums: dict[tuple[int, int], dict] = {}
        for (row, col), x in self.xi.items():
            diff = [(a, b) for a, b in zip(row, col) if a != b]
            if len(diff) == 1 and abs(diff[0][0] - diff[0][1]) == 1:
                sums.setdefault(diff[0], {}).update(x)
        return [sums[ab] for ab in sorted(sums)]

    @cached_property
    def converse(self) -> bool:
        """C(S(m|n,l)) = Pi_l, and dim Pi_l = ``group``.  ``certified``
        gives S(m|n,l) = C(Pi_l), and the ``weight_blocks`` must hold.

        When KS_l is ``semisimple`` (Maschke: char K = 0 or p > l), so is
        its image Pi_l, and the double centralizer theorem (Curtis-Reiner,
        1962) gives C(S(m|n,l)) = C(C(Pi_l)) = Pi_l.  The character gates
        then fix dim Pi_l: every m_lambda of ``multiplicities`` is a
        non-negative integer, the sum of m_lambda f^lambda is (m+n)^l, and
        the sum of m_lambda^2, the dimension of End_{S_l}(V^{(x)l}), is
        the number of consistent orbits that ``orbits`` counts, dim C(Pi_l).

        Only for p <= l does a count run: modulo p, on the unknowns of
        the weight blocks, it meets ``group``, so rank_p(Pi_l) = dim Pi_l
        <= dim C(S(m|n,l)) <= nullity_p are equal.  It stacks the
        Chevalley elements, then the basis matrices, those whose row and
        column words differ in at most one slot first."""
        certified, blocks = self.certified, self.weight_blocks
        solve = self.solves["commutant_schur"] = {
            "method": "weights_failed" if certified else "orbits_failed",
            "weights": blocks is not None, "constituents": None,
            "unknowns": None, "prime": None, "stacked": None,
        }
        if not certified or blocks is None:
            return False
        if self.semisimple:
            mult = self.multiplicities
            ok = mult is not None and sum(
                m * f for m, f in mult) == self.dim and sum(
                m * m for m, _f in mult) == self.orbits[0]
            solve.update(method="certified" if ok else "characters_failed",
                         constituents=None if mult is None else sum(
                             m > 0 for m, _f in mult))
            return ok
        d, chev = self.dim, self.chevalley
        unknowns = {a * d + b for block in blocks for a in block
                    for b in block}
        order = sorted(self.xi, key=lambda pair: sum(
            a != b for a, b in zip(*pair)) > 1)
        stacked = nullity_reaches(
            chev + [self.xi[p] for p in order], d, self.group,
            self.shape.field, unknowns)
        solve.update(method="count_failed", prime=self.shape.field.p,
                     unknowns=len(unknowns))
        if stacked is None:
            return False
        solve.update(method="certified", stacked={
            "chevalley": min(stacked, len(chev)),
            "basis": max(stacked - len(chev), 0)})
        return True


def degree(shape: Shape, l: int) -> Degree:
    """The degree-l data, one per (m, n, l, field): r and vparity do not
    reach the natural tensor spaces, so the key leaves them out."""
    return _degree(shape.m, shape.n, shape.field, l)


@lru_cache(maxsize=None)
def _degree(m: int, n: int, field, l: int) -> Degree:
    return Degree(Shape(m, n, 1, 0, field), l)


ClassicalDualityReport = namedtuple("ClassicalDualityReport", (
    "dim_commutant_of_symmetric_group dim_schur spans_equal r_le_mplusn"
    " dim_commutant_of_schur converse_spans_equal"))


def classical_duality(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> ClassicalDualityReport:
    """Both directions of the classical double centralizer, read off
    ``Degree.certified`` and ``Degree.converse``.

    The commutant of the signed symmetric group action always equals
    the span of the basis matrices; the converse (the commutant of that
    span is Pi_r, the image of the group algebra, of dimension
    ``Degree.group``, not r! in general) is reported at every r, and
    nothing is gated.  A dimension that no verdict fixes is None.
    """
    check_power_cap(shape.m + shape.n, shape.r, size_cap)
    deg = degree(shape, shape.r)
    return ClassicalDualityReport(
        dim_commutant_of_symmetric_group=deg.orbits[0],
        dim_schur=len(deg.xi) if deg.certified else None,
        spans_equal=deg.certified,
        r_le_mplusn=shape.r <= shape.m + shape.n,
        dim_commutant_of_schur=deg.group if deg.converse else None,
        converse_spans_equal=deg.converse,
    )
