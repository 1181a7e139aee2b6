"""
Exact sparse linear algebra over the rationals or an odd prime field.

Three pieces:

  * a tiny field abstraction (``QQ`` and ``PrimeField(p)``),
  * ``ExactMatrix``, a sparse coordinate matrix with exact entries,
  * ``Echelon``, an incrementally maintained *reduced* row echelon form.

The echelon form is canonical (monic pivots, pivot columns eliminated
everywhere, rows ordered by pivot column), so two subspaces are equal
iff their canonical bases are identical.  ``AlgebraSpan`` wraps an
echelon of flattened d x d matrices.

The commands eliminate only over GF(p), at the degrees l >= p where
KS_l is not semisimple (``schur_core.Degree.converse``): they rank and
count on plain entry dicts, (row, col) -> value, and
``nullity_reaches`` bounds a commutant's dimension from above by a
count modulo p.  ``ExactMatrix``, ``span_of``, ``commutant`` and
``algebra_closure`` serve the tests and demos, each on one path:
``commutant`` stacks the commutation rows of every generator, and
``algebra_closure`` reduces every right product against its echelon.

Over the rationals a value is an ``int`` when it is a whole number and
a ``Fraction`` otherwise, never a float; most entries met in practice
are small integers, and int arithmetic is far cheaper.  ``fractions``
is imported on the first value that is not an ``int``, which no command
meets.  All values are immutable after construction; nothing here ever
touches floating point.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence

DEFAULT_SIZE_CAP = 256


class SizeCapExceeded(ValueError):
    """Ambient dimension larger than the configured size cap."""


def check_power_cap(base: int, exponent: int, size_cap: int) -> None:
    """Raise ``SizeCapExceeded`` when the ambient dimension
    ``base ** exponent`` is above ``size_cap``, forming no power past the
    cap: a dimension whose power was not formed is named
    ``base^exponent``.  A single dimension d is ``(d, 1)``."""
    d = 1
    for k in range(1, exponent + 1):
        d *= base
        if d > size_cap:
            shown = d if k == exponent else f"{base}^{exponent}"
            raise SizeCapExceeded(
                f"ambient dimension {shown} exceeds size cap {size_cap}"
            )


# ---------------------------------------------------------------------------
# fields


def _whole(x):
    """A rational as an int when it is a whole number."""
    return x if x.__class__ is int or x.denominator != 1 else x.numerator


class RationalField:
    """Arbitrary-precision rationals; the authoritative field.

    A whole number is stored as an ``int`` and every other value as a
    ``Fraction``; ``int`` and ``Fraction`` compare and hash alike, so
    every equality stays exact.
    """

    name = "q"
    zero = 0
    one = 1

    @staticmethod
    def coerce(x):
        if x.__class__ is int:
            return x
        from fractions import Fraction
        return _whole(Fraction(x))

    @staticmethod
    def add(a, b):
        return _whole(a + b)

    @staticmethod
    def sub(a, b):
        return _whole(a - b)

    @staticmethod
    def mul(a, b):
        return _whole(a * b)

    neg = staticmethod(operator.neg)

    @staticmethod
    def inv(a):
        from fractions import Fraction
        return _whole(Fraction(1) / a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "QQ"


def _is_odd_prime(p: int) -> bool:
    """Miller-Rabin on the bases 2, 3, 5, 7, which has no false positive
    below 3,215,031,751 (Jaeschke 1993)."""
    if p < 3 or p % 2 == 0:
        return False
    if p in (3, 5, 7):
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


# Orders are bounded below the range in which ``_is_odd_prime`` is exact.
MAX_FIELD_ORDER = 2 ** 31


class PrimeField:
    """Integers mod an odd prime below ``MAX_FIELD_ORDER``.
    Characteristic 2 is rejected."""

    def __init__(self, p: int):
        if p >= MAX_FIELD_ORDER:
            raise ValueError("field order must be below 2**31")
        if not _is_odd_prime(p):
            raise ValueError(f"field order must be an odd prime, got {p}")
        self.p = p
        self.name = f"p:{p}"
        self.zero = 0
        self.one = 1

    def coerce(self, x):
        if x.__class__ is not int:
            from fractions import Fraction
            if isinstance(x, Fraction):
                num, den = x.numerator, x.denominator
                return (num % self.p) * self.inv(den % self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def parse_field(spec: str):
    """Parse a field flag: ``"q"`` or ``"p:<odd prime>"``, the prime in
    ASCII decimal digits with no sign, space or leading zero, so that
    each field has one spelling."""
    if spec == "q":
        return QQ
    digits = spec[2:]
    if (spec.startswith("p:") and digits.isascii() and digits.isdigit()
            and not digits.startswith("0")):
        # more than ten digits is past 2**31, and int() refuses 4300
        return PrimeField(int(digits) if len(digits) <= 10
                          else MAX_FIELD_ORDER)
    raise ValueError(f"unknown field spec {spec!r}")


# ---------------------------------------------------------------------------
# sparse matrices


class ExactMatrix:
    """Immutable sparse matrix over an exact field.

    ``entries`` maps ``(row, col)`` to a nonzero field scalar.  The
    constructor drops explicit zeros and coerces values into the field,
    so matrices can be built from plain ints.
    """

    __slots__ = ("field", "nrows", "ncols", "entries", "_rows")

    def __init__(self, field, nrows: int, ncols: int, entries=None):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        clean = {}
        if entries:
            for pos, val in entries.items():
                v = field.coerce(val)
                if v != field.zero:
                    r, c = pos
                    if not (0 <= r < nrows and 0 <= c < ncols):
                        raise ValueError(f"entry {pos} outside {nrows}x{ncols}")
                    clean[pos] = v
        self.entries = clean
        self._rows = None

    @classmethod
    def identity(cls, field, d: int) -> "ExactMatrix":
        return cls(field, d, d, {(i, i): field.one for i in range(d)})

    @classmethod
    def zero(cls, field, nrows: int, ncols: int) -> "ExactMatrix":
        return cls(field, nrows, ncols, {})

    def _row_adj(self):
        if self._rows is None:
            rows: dict[int, list] = {}
            for (r, c), v in self.entries.items():
                rows.setdefault(r, []).append((c, v))
            self._rows = rows
        return self._rows

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._check_same_shape(other)
        f = self.field
        out = dict(self.entries)
        for pos, v in other.entries.items():
            s = f.add(out.get(pos, f.zero), v)
            if s == f.zero:
                out.pop(pos, None)
            else:
                out[pos] = s
        return ExactMatrix(f, self.nrows, self.ncols, out)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        f = self.field
        c = f.coerce(c)
        if c == f.zero:
            return ExactMatrix.zero(f, self.nrows, self.ncols)
        return ExactMatrix(
            f, self.nrows, self.ncols,
            {pos: f.mul(v, c) for pos, v in self.entries.items()},
        )

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.nrows}x{self.ncols} by "
                f"{other.nrows}x{other.ncols}"
            )
        f = self.field
        zero = f.zero
        mul, add = f.mul, f.add
        badj = other._row_adj()
        out: dict = {}
        for (r, k), va in self.entries.items():
            for c, vb in badj.get(k, ()):
                pos = (r, c)
                s = add(out.get(pos, zero), mul(va, vb))
                if s == zero:
                    out.pop(pos, None)
                else:
                    out[pos] = s
        return ExactMatrix(f, self.nrows, other.ncols, out)

    def commutes_with(self, other: "ExactMatrix") -> bool:
        return (self @ other).entries == (other @ self).entries

    def is_zero(self) -> bool:
        return not self.entries

    def trace(self):
        f = self.field
        t = f.zero
        for (r, c), v in self.entries.items():
            if r == c:
                t = f.add(t, v)
        return t

    def flatten(self) -> dict:
        """Row vector of length nrows*ncols, row-major, as a sparse dict."""
        n = self.ncols
        return {r * n + c: v for (r, c), v in self.entries.items()}

    @classmethod
    def unflatten(cls, field, d: int, row: dict) -> "ExactMatrix":
        return cls(field, d, d, {divmod(k, d): v for k, v in row.items()})

    def _check_same_shape(self, other: "ExactMatrix"):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(
            (self.nrows, self.ncols, frozenset(self.entries.items()))
        )

    def __repr__(self):
        return (
            f"ExactMatrix({self.nrows}x{self.ncols}, "
            f"nnz={len(self.entries)})"
        )


# ---------------------------------------------------------------------------
# reduced row echelon form


class Echelon:
    """Incrementally maintained reduced row echelon form.

    Rows are sparse dicts ``col -> scalar`` of field elements.
    Invariants: every stored row is monic at its pivot column, and pivot
    columns appear in no other stored row.  This keeps single-pass
    reduction valid and makes the basis canonical.

    The arithmetic is inline on the values: over GF(p) on ints, reduced
    ``% p`` at each step, and over any other field exact on ``int`` and
    ``Fraction``, a whole ``Fraction`` stored as its ``int``.  Only a
    rational pivot that is not monic calls the field, ``QQ.inv``.
    """

    def __init__(self, field):
        self.field = field
        # reduce modulo p over GF(p); None over the rationals
        self._p = field.p if isinstance(field, PrimeField) else None
        self.rows: dict[int, dict] = {}        # pivot col -> row
        self._colindex: dict[int, set] = {}    # col -> pivot cols touching it

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: dict) -> dict:
        """Fully reduce a copy of ``row`` against the current basis."""
        rows, p = self.rows, self._p
        row = dict(row)
        get = row.get
        # pivot rows only carry non-pivot columns besides their own pivot,
        # so one pass over the initial pivot hits is a complete reduction
        for c in [c for c in row if c in rows]:
            coeff = row.pop(c)
            for col, v in rows[c].items():
                if col != c:
                    s = get(col, 0) - coeff * v
                    s = s % p if p else _whole(s)
                    if s:
                        row[col] = s
                    else:
                        del row[col]
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        red = self.reduce(row)
        if not red:
            return False
        rows, index, p = self.rows, self._colindex, self._p
        pivot = min(red)
        lead = red[pivot]
        if lead != 1:
            inv = pow(lead, -1, p) if p else QQ.inv(lead)
            red = {c: v * inv % p if p else _whole(v * inv)
                   for c, v in red.items()}
        tail = [(col, v) for col, v in red.items() if col != pivot]
        for col, _ in tail:
            if col not in index:
                index[col] = set()
        # eliminate the new pivot column from every existing row
        for q in index.pop(pivot, ()):
            r = rows[q]
            coeff = r.pop(pivot)
            get = r.get
            for col, v in tail:
                old = get(col)
                if old is None:
                    # coeff and v are nonzero, and so is their product
                    r[col] = -coeff * v % p if p else _whole(-coeff * v)
                    index[col].add(q)
                    continue
                s = old - coeff * v
                s = s % p if p else _whole(s)
                if s:
                    r[col] = s
                else:
                    del r[col]
                    index[col].discard(q)
        rows[pivot] = red
        index[pivot] = set()
        for col in red:
            index[col].add(pivot)
        return True

    def contains(self, row: dict) -> bool:
        return not self.reduce(row)

    def canonical_rows(self) -> list:
        return [self.rows[p] for p in sorted(self.rows)]

    def null_space(self, ncols: int) -> list[dict]:
        """Basis of the solution space of (this row space) . x = 0."""
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


def rank_of_rows(rows: Iterable[dict], field) -> int:
    ech = Echelon(field)
    for row in rows:
        ech.add(row)
    return ech.rank


# ---------------------------------------------------------------------------
# spans of square matrices


class AlgebraSpan:
    """Canonically echelonized span of d x d matrices."""

    __slots__ = ("field", "ambient_dim", "_ech", "_basis")

    def __init__(self, field, ambient_dim: int, echelon: Echelon):
        self.field = field
        self.ambient_dim = ambient_dim
        self._ech = echelon
        self._basis = None

    @property
    def dimension(self) -> int:
        return self._ech.rank

    @property
    def basis(self) -> list[ExactMatrix]:
        """Canonical basis, ordered by pivot position."""
        if self._basis is None:
            d = self.ambient_dim
            self._basis = [
                ExactMatrix.unflatten(self.field, d, row)
                for row in self._ech.canonical_rows()
            ]
        return self._basis

    def contains(self, mat: ExactMatrix) -> bool:
        self._check_compatible(mat)
        return self._ech.contains(mat.flatten())

    def _check_compatible(self, mat: ExactMatrix):
        if mat.field != self.field:
            raise ValueError("field mismatch")
        if (mat.nrows, mat.ncols) != (self.ambient_dim, self.ambient_dim):
            raise ValueError("dimension mismatch")

    def __eq__(self, other):
        if not isinstance(other, AlgebraSpan):
            return NotImplemented
        if self.field != other.field:
            return False
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("dimension mismatch")
        return self._ech.rows == other._ech.rows

    def __hash__(self):
        return hash((self.ambient_dim, self.dimension))

    def __repr__(self):
        return (
            f"AlgebraSpan(d={self.ambient_dim}, dim={self.dimension})"
        )


def _ambient(mats: Sequence[ExactMatrix], d, field):
    if mats:
        m0 = mats[0]
        if m0.nrows != m0.ncols:
            raise ValueError("matrices must be square")
        d = m0.nrows if d is None else d
        field = m0.field if field is None else field
        for m in mats:
            if (m.nrows, m.ncols) != (d, d):
                raise ValueError("dimension mismatch")
            if m.field != field:
                raise ValueError("field mismatch")
    if d is None or field is None:
        raise ValueError("empty input needs explicit d= and field=")
    return d, field


def span_of(mats: Sequence[ExactMatrix], *, d=None, field=None) -> AlgebraSpan:
    """Reduced-echelon span of the given square matrices."""
    d, field = _ambient(mats, d, field)
    ech = Echelon(field)
    for m in mats:
        ech.add(m.flatten())
    return AlgebraSpan(field, d, ech)


def _commutation_rows(g: dict, d: int, field, unknowns=None):
    """Nonzero rows of the linear system X @ g - g @ X = 0, for a matrix g
    given by its entries, a dict (row, col) -> value.

    The unknown X is flattened row-major; the equation indexed by
    (a, b) reads  sum_k X[a,k] g[k,b] - g[a,k] X[k,b] = 0, and equations
    come in order of (a, b).  With ``unknowns``, a set of flattened
    positions, every other entry of X is held at zero.  Coefficients
    are summed inline and taken into the field once, ``% p`` over GF(p).
    """
    p = field.p if isinstance(field, PrimeField) else None
    eqs: dict[int, dict] = {}
    for (k, b), v in g.items():             # X[a,k] g[k,b]
        for a in range(d):
            x = a * d + k
            if unknowns is None or x in unknowns:
                eq = eqs.setdefault(a * d + b, {})
                eq[x] = eq.get(x, 0) + v
    for (a, k), v in g.items():             # -g[a,k] X[k,b]
        for b in range(d):
            x = k * d + b
            if unknowns is None or x in unknowns:
                eq = eqs.setdefault(a * d + b, {})
                eq[x] = eq.get(x, 0) - v
    for key in sorted(eqs):
        eq = {}
        for c, v in eqs[key].items():
            v = v % p if p else field.coerce(v)
            if v:
                eq[c] = v
        if eq:
            yield eq


def commutant(
    gens: Sequence[ExactMatrix],
    d: int | None = None,
    *,
    field=None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> AlgebraSpan:
    """All X with X G = G X for every G in ``gens``: the null space of
    the stacked maps X -> XG - GX.  It depends only on the span of
    ``gens``, not on the spanning set supplied.
    """
    d, field = _ambient(gens, d, field)
    check_power_cap(d, 1, size_cap)
    ech = Echelon(field)
    for g in gens:
        for row in _commutation_rows(g.entries, d, field):
            ech.add(row)
    out = Echelon(field)
    for vec in ech.null_space(d * d):
        out.add(vec)
    return AlgebraSpan(field, d, out)


def nullity_reaches(
    gens: Sequence[dict], d: int, target: int, field: PrimeField,
    unknowns=None
) -> int | None:
    """Stack the rows of X -> XG - GX over ``field``, GF(p), until the
    nullity reaches ``target``.  Each G is given by its entries, a dict
    (row, col) -> int.  Returns the number of generators stacked, or
    None when the nullity never equals ``target`` or an entry is not an
    integer.  The nullity is the commutant's dimension over GF(p), and
    for integer G it bounds the rational one from above (rank mod p is at
    most the rational rank), so meeting a proven lower bound fixes it.
    With ``unknowns``, a set of flattened positions a*d + b, every other
    entry of X is held at zero: the nullity then bounds a commutant known
    to vanish off those positions.
    """
    if any(v.__class__ is not int for g in gens for v in g.values()):
        return None
    ech = Echelon(field)
    nullity, stacked = d * d if unknowns is None else len(unknowns), 0
    for g in gens:
        if nullity <= target:
            break
        stacked += 1
        for row in _commutation_rows(g, d, field, unknowns):
            nullity -= ech.add(row)
            if nullity <= target:
                break
    return stacked if nullity == target else None


def algebra_closure(
    gens: Sequence[ExactMatrix],
    include_identity: bool,
    *,
    d: int | None = None,
    field=None,
    size_cap: int = DEFAULT_SIZE_CAP,
) -> AlgebraSpan:
    """Smallest span containing ``gens`` that is closed under products.

    Multiplies the current basis on the right by the generators until
    the dimension stabilizes; terminates since the dimension is bounded
    by d*d.  Right products alone reach every word g1 g2 ... gk, since
    it is the seed g1 (or the identity) times g2, ..., gk.
    """
    d, field = _ambient(gens, d, field)
    check_power_cap(d, 1, size_cap)
    ech = Echelon(field)
    frontier: list[ExactMatrix] = []
    seed = list(gens)
    if include_identity:
        seed = [ExactMatrix.identity(field, d)] + seed
    for m in seed:
        if ech.add(m.flatten()):
            frontier.append(m)
    while frontier:
        fresh: list[ExactMatrix] = []
        for b in frontier:
            for g in gens:
                prod = b @ g
                if ech.add(prod.flatten()):
                    fresh.append(prod)
        frontier = fresh
    return AlgebraSpan(field, d, ech)
