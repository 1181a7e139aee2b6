"""Reference implementations that the package's fast paths are tested
against.

``FieldEchelon`` is the reduced row echelon form that does every
operation through the field's methods (``sub``, ``mul``, ``inv``), as
``linalg.Echelon`` did before its arithmetic went inline; it works over
any object with the field interface, including the test-only
``FractionField``.  ``group_span`` is Pi_l by elimination over the
shape's field, whose dimension ``schur_core.Degree.group`` reads from
the characters of S_l, and ranks over GF(p) only for p <= l.
``swap_map`` is the signed swap of ``hecke`` walked on tuples of the
enhanced basis, which ``hecke._swap_map`` reads from integer tables,
and ``signed_action`` the signed S_l action walked on tuples of the
natural basis, which ``schur_core.signed_action`` reads from
``Degree.words``.  ``orbit_reps`` sorts the unzipped representatives by
row concatenated with column, which ``combinatorics._orbit_reps`` sorts
as flat words.  ``CERTIFICATE_PRIME`` is the prime the tests count a
rational commutant modulo.  ``coproduct`` and ``levi_generators`` build
the Levi algebra from the group side: the super coproduct of the matrix
units of gl(m|n) + gl(1), the Lie superalgebra of GL(V) x G_m, on the
enhanced tensor space (Cheng-Wang, GSM 144).
"""

import itertools

from levischur import combinatorics as comb
from levischur import enhanced_core as enh
from levischur import schur_core
from levischur.combinatorics import perms
from levischur.linalg import ExactMatrix, span_of

# The largest prime below 2^30, so residues are one-digit ints and a
# product of two is reduced by a one-digit divisor.
CERTIFICATE_PRIME = 1073741789


def group_span(deg):
    """The span of the ``pi_matrix`` of every permutation of the degree,
    over the shape's field."""
    return span_of([schur_core.pi_matrix(w, deg.shape, deg.l)
                    for w in perms(deg.l)], d=deg.dim, field=deg.shape.field)


class FieldEchelon:
    """Incrementally maintained reduced row echelon form, one field
    method call per operation: every stored row is monic at its pivot
    column, and pivot columns appear in no other stored row."""

    def __init__(self, field):
        self.field = field
        self.rows: dict[int, dict] = {}        # pivot col -> row
        self._colindex: dict[int, set] = {}    # col -> pivot cols touching it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        f = self.field
        zero, sub, mul = f.zero, f.sub, f.mul
        row = dict(row)
        hits = [c for c in row if c in self.rows]
        for c in hits:
            coeff = row.pop(c)
            for col, v in self.rows[c].items():
                if col == c:
                    continue
                s = sub(row.get(col, zero), mul(coeff, v))
                if s == zero:
                    row.pop(col, None)
                else:
                    row[col] = s
        return row

    def add(self, row: dict) -> bool:
        f = self.field
        red = self.reduce(row)
        if not red:
            return False
        p = min(red)
        inv = f.inv(red[p])
        if inv != f.one:
            red = {c: f.mul(v, inv) for c, v in red.items()}
        zero, sub, mul = f.zero, f.sub, f.mul
        touch = self._colindex.pop(p, set())
        for q in touch:
            r = self.rows[q]
            coeff = r.pop(p)
            for col, v in red.items():
                if col == p:
                    continue
                s = sub(r.get(col, zero), mul(coeff, v))
                if s == zero:
                    if col in r:
                        del r[col]
                        self._colindex[col].discard(q)
                else:
                    if col not in r:
                        self._colindex.setdefault(col, set()).add(q)
                    r[col] = s
        self.rows[p] = red
        for col in red:
            self._colindex.setdefault(col, set()).add(p)
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def canonical_rows(self) -> list:
        return [self.rows[p] for p in sorted(self.rows)]

    def null_space(self, ncols: int) -> list[dict]:
        f = self.field
        out = []
        for c in range(ncols):
            if c in self.rows:
                continue
            vec = {c: f.one}
            for p in self._colindex.get(c, ()):
                vec[p] = f.neg(self.rows[p][c])
            out.append(vec)
        return out


def swap_map(i, shape):
    """``hecke._swap_map`` walked on tuples: the enhanced word is sent
    to its image under the adjacent transposition s_i, with the sign
    ``gamma`` of its parity word, v = letter m+1 of parity ``vparity``
    and the letters above it odd."""
    w = comb.adjacent_transposition(shape.r, i)
    v = shape.m + 1
    out = {}
    for pos, word in enumerate(enh.enhanced_basis(shape)):
        eps = tuple(shape.vparity if x == v else int(x > v) for x in word)
        out[pos] = (enh.enh_position(comb.act(word, w), shape),
                    comb.gamma(eps, w))
    return out


def signed_action(w, shape):
    """``schur_core.signed_action`` walked on tuples: each natural word
    is sent to its image under ``act``, with the sign ``gamma`` of its
    parity word."""
    return {
        p: (schur_core.word_position(comb.act(word, w), shape),
            comb.gamma(comb.parity_vector(word, shape), w))
        for p, word in enumerate(schur_core.natural_basis(shape, len(w)))
    }


def orbit_reps(m, n, l):
    """``combinatorics._orbit_reps`` with each representative unzipped
    from its sorted letter pairs, sorted by a key function."""
    cells = list(itertools.product(range(1, m + n + 1), repeat=2))
    odd = [(a, b) for a, b in cells if (a > m) != (b > m)]
    even = [c for c in cells if c not in odd]
    reps = [
        comb._unzip(sorted(ev + od))
        for k in range(min(l, len(odd)) + 1)
        for od in itertools.combinations(odd, k)
        for ev in itertools.combinations_with_replacement(even, l - k)
    ]
    return tuple(sorted(reps, key=lambda p: p[0] + p[1]))


def coproduct(a, b, shape, koszul=True):
    """Delta^{(r)}(E_ab) on the enhanced tensor space, for letters a, b of
    ``enh.vbar(shape)``: the sum over the slots k that carry b of the word
    with b replaced by a there, times the Koszul sign
    (-1)^{|E_ab| (|w_1| + ... + |w_{k-1}|)} of moving E_ab past the
    letters before slot k; ``koszul=False`` drops that sign."""
    vb = enh.vbar(shape)
    parity = [None] + [comb.parity_of_index(x, vb)
                       for x in range(1, shape.m + shape.n + 2)]
    odd = parity[a] ^ parity[b]
    entries = {}
    for p, word in enumerate(enh.enhanced_basis(shape)):
        before = 0
        for k, x in enumerate(word):
            if x == b:
                q = enh.enh_position(word[:k] + (a,) + word[k + 1:], shape)
                sign = -1 if koszul and odd and before else 1
                entries[q, p] = entries.get((q, p), 0) + sign
            before ^= parity[x]
    d = shape.dim_enhanced
    return ExactMatrix(shape.field, d, d, entries)


def levi_generators(shape, koszul=True):
    """The coproducts of every E_ab on the natural letters a, b, and of
    E_vv, v = letter m+1: over the rationals, with 1 they generate the
    image of U(gl(m|n) + gl(1)), which is the Levi algebra."""
    v = shape.m + 1
    natural = [x for x in range(1, shape.m + shape.n + 2) if x != v]
    return [coproduct(a, b, shape, koszul)
            for a in natural for b in natural] + [
        coproduct(v, v, shape, koszul)]
