"""
Index words, parities, permutations, orbits and the sign calculus.

Conventions used throughout the package:

  * Basis letters are 1-based, as in the underlying mathematics: a
    natural letter is an integer in ``1..m+n``, with letters ``<= m``
    even and letters ``> m`` odd.
  * Positions inside words and permutations are 0-based Python indices.
  * A permutation ``w`` of degree ``l`` is a tuple with ``w[k]`` the
    image of position ``k``.  ``compose(s, t)[k] == s[t[k]]``, which is
    the unique convention making ``act(act(i, s), t) == act(i,
    compose(s, t))`` for the right action ``act``.

The two sign functions are

    alpha(eps, delta) = prod_{s<t} (-1)^(eps[t] * delta[s])
    gamma(eps, w)     = prod_{s<t, w placing s after t} (-1)^(eps[s]*eps[t])

and the transport sign carries basis labels along a diagonal symmetric
group orbit of a strict double index.  Strictness is exactly the
condition making that transport independent of the chosen permutation
(covered by the test suite, not assumed).  ``orbit_signs`` walks a
whole orbit once along simple transpositions, on tuples, and
``sigma_sign`` searches a permutation per element; both serve as the
tests' oracles for ``schur_core.xi_entries``, which walks the orbit on
integer word tables.  Orbits come from sorting: the diagonal action
permutes the letter pairs ``(row[k], col[k])``, so a strict orbit is a
multiset of letter pairs with no odd pair repeated, and its least
element lists them sorted.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import lru_cache

from .linalg import QQ

MultiIndex = tuple[int, ...]
ParityVector = tuple[int, ...]
Permutation = tuple[int, ...]
Partition = tuple[int, ...]
DoubleIndex = tuple[MultiIndex, MultiIndex]


class Shape(namedtuple("Shape", "m n r vparity field")):
    """Ambient parameters: m even letters, n odd letters, tensor degree r.

    ``vparity`` is the parity of the extra enhanced vector and ``field``
    the exact coefficient field (rationals by default).
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, r: int, vparity: int = 0,
                field: object = QQ):
        if m < 1:
            raise ValueError("m must be >= 1")
        if n < 0:
            raise ValueError("n must be >= 0")
        if r < 1:
            raise ValueError("r must be >= 1")
        if vparity not in (0, 1):
            raise ValueError("vparity must be 0 or 1")
        return super().__new__(cls, m, n, r, vparity, field)

    @property
    def dim_natural(self) -> int:
        """Dimension of the degree-r natural tensor space."""
        return (self.m + self.n) ** self.r

    @property
    def dim_enhanced(self) -> int:
        """Dimension of the degree-r enhanced tensor space."""
        return (self.m + self.n + 1) ** self.r


def parity_of_index(idx: int, shape: Shape) -> int:
    """Parity of a natural letter: 0 for idx <= m, 1 above.

    >>> parity_of_index(1, Shape(1, 1, 1))
    0
    >>> parity_of_index(2, Shape(1, 1, 1))
    1
    """
    if not 1 <= idx <= shape.m + shape.n:
        raise ValueError(f"letter {idx} out of range 1..{shape.m + shape.n}")
    return 0 if idx <= shape.m else 1


def parity_vector(word: MultiIndex, shape: Shape) -> ParityVector:
    return tuple(parity_of_index(x, shape) for x in word)


def add_parities(eps: ParityVector, delta: ParityVector) -> ParityVector:
    if len(eps) != len(delta):
        raise ValueError("length mismatch")
    return tuple((a + b) % 2 for a, b in zip(eps, delta))


def alpha(eps: ParityVector, delta: ParityVector) -> int:
    """Reordering sign prod_{s<t} (-1)^(eps[t]*delta[s]).

    >>> alpha((0, 1), (1, 1))
    -1
    >>> alpha((0,), (1,))
    1
    """
    if len(eps) != len(delta):
        raise ValueError("length mismatch")
    par = 0
    for t in range(1, len(eps)):
        if eps[t]:
            for s in range(t):
                par ^= delta[s]
    return -1 if par & 1 else 1


def gamma(eps: ParityVector, w: Permutation) -> int:
    """Sign collected when a parity word is permuted by ``w``.

    One factor (-1)^(eps[s]*eps[t]) per pair s < t whose order is
    reversed by the action.

    >>> gamma((1, 1), (1, 0))
    -1
    >>> gamma((1, 0), (1, 0))
    1
    """
    l = len(eps)
    if len(w) != l:
        raise ValueError("length mismatch")
    inv = inverse_perm(w)
    par = 0
    for s in range(l):
        if eps[s]:
            for t in range(s + 1, l):
                if eps[t] and inv[s] > inv[t]:
                    par ^= 1
    return -1 if par else 1


def act(word: tuple, w: Permutation) -> tuple:
    """Right action on words: position k of the result is word[w[k]]."""
    if len(word) != len(w):
        raise ValueError("length mismatch")
    return tuple(word[k] for k in w)


def compose(s: Permutation, t: Permutation) -> Permutation:
    """compose(s, t)[k] = s[t[k]]; under ``act``, s acts first."""
    if len(s) != len(t):
        raise ValueError("length mismatch")
    return tuple(s[k] for k in t)


def inverse_perm(w: Permutation) -> Permutation:
    inv = [0] * len(w)
    for k, v in enumerate(w):
        inv[v] = k
    return tuple(inv)


def identity_perm(l: int) -> Permutation:
    return tuple(range(l))


def adjacent_transposition(l: int, i: int) -> Permutation:
    """The degree-l permutation swapping slots i and i+1 (slots 1-based)."""
    if not 1 <= i <= l - 1:
        raise ValueError(f"transposition index {i} out of range for degree {l}")
    w = list(range(l))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


@lru_cache(maxsize=None)
def perms(l: int) -> tuple[Permutation, ...]:
    """All degree-l permutations in lexicographic order."""
    return tuple(itertools.permutations(range(l)))


def partitions(l: int, largest: int | None = None) -> list[Partition]:
    """The partitions of l as non-increasing tuples, in reverse
    lexicographic order: (l,) first, (1,)*l last."""
    if l == 0:
        return [()]
    largest = l if largest is None else largest
    return [(first,) + rest for first in range(min(l, largest), 0, -1)
            for rest in partitions(l - first, first)]


def cycle_perm(mu: Partition) -> Permutation:
    """A permutation of cycle type mu: one cycle on each run of mu[i]
    consecutive slots."""
    w, start = [], 0
    for part in mu:
        w += range(start + 1, start + part)
        w.append(start)
        start += part
    return tuple(w)


def class_size(mu: Partition) -> int:
    """The number of permutations of cycle type mu: l!/z_mu, z_mu the
    product over part sizes k, taken a_k times, of k^a_k a_k!."""
    z = 1
    for k in set(mu):
        a = mu.count(k)
        z *= k ** a * math.factorial(a)
    return math.factorial(sum(mu)) // z


@lru_cache(maxsize=None)
def characters(l: int) -> dict[Partition, dict[Partition, int]]:
    """The character table of S_l over the integers: chi^lambda(mu) for
    partitions lambda and mu of l, keyed in ``partitions`` order;
    f^lambda = chi^lambda((1,)*l).

    Murnaghan-Nakayama on beta sets: lambda is the set of the
    lambda_i + l - i, i = 1..l (lambda padded with zeros), and removing
    a rim hook of length k moves one b of it to b - k, free and >= 0,
    with the sign (-1)^(members strictly between).  chi^lambda(mu)
    removes the parts of mu in turn, largest first, and sums the signs
    over every way to empty the diagram."""
    memo: dict = {}

    def chi(beta: frozenset, mu: Partition) -> int:
        if not mu:
            return 1
        key = beta, mu
        if key not in memo:
            k, total = mu[0], 0
            for b in beta:
                if b >= k and b - k not in beta:
                    height = sum(b - k < c < b for c in beta)
                    total += (-1) ** height * chi(beta - {b} | {b - k},
                                                  mu[1:])
            memo[key] = total
        return memo[key]

    parts = partitions(l)
    return {lam: {mu: chi(frozenset(
        x + l - 1 - i for i, x in enumerate(lam + (0,) * (l - len(lam)))),
        mu) for mu in parts} for lam in parts}


def is_strict(pair: DoubleIndex, shape: Shape) -> bool:
    """A double index is strict when no letter pair of odd combined
    parity is repeated; precisely the pairs whose basis monomial
    survives supercommutativity (an odd generator squares to zero).
    """
    row, col = pair
    if len(row) != len(col):
        raise ValueError("length mismatch")
    seen_odd = set()
    for a, b in zip(row, col):
        if (parity_of_index(a, shape) + parity_of_index(b, shape)) % 2:
            if (a, b) in seen_odd:
                return False
            seen_odd.add((a, b))
    return True


@lru_cache(maxsize=None)
def _words(num_letters: int, l: int) -> tuple[MultiIndex, ...]:
    return tuple(itertools.product(range(1, num_letters + 1), repeat=l))


def word_index(word: MultiIndex, num_letters: int) -> int:
    """Mixed-radix position of a word in ``_words(num_letters, len(word))``."""
    pos = 0
    for x in word:
        if not 1 <= x <= num_letters:
            raise ValueError(f"letter {x} out of range")
        pos = pos * num_letters + (x - 1)
    return pos


def natural_words(shape: Shape, l: int) -> tuple[MultiIndex, ...]:
    """All length-l words over 1..m+n, lexicographically ordered."""
    return _words(shape.m + shape.n, l)


def _unzip(cells) -> DoubleIndex:
    return tuple(a for a, _ in cells), tuple(b for _, b in cells)


def canonical_pair(pair: DoubleIndex, shape: Shape) -> DoubleIndex | None:
    """Least orbit element (letter pairs sorted), or None if not strict."""
    if not is_strict(pair, shape):
        return None
    return _unzip(sorted(zip(*pair)))


@lru_cache(maxsize=None)
def _orbit_reps(m: int, n: int, l: int) -> tuple[DoubleIndex, ...]:
    if not l:
        return (((), ()),)
    cells = list(itertools.product(range(1, m + n + 1), repeat=2))
    odd = [(a, b) for a, b in cells if (a > m) != (b > m)]
    even = [c for c in cells if c not in odd]
    flats = []
    for k in range(min(l, len(odd)) + 1):
        for od in itertools.combinations(odd, k):
            for ev in itertools.combinations_with_replacement(even, l - k):
                row, col = zip(*sorted(ev + od))
                flats.append(row + col)
    flats.sort()
    return tuple([(f[:l], f[l:]) for f in flats])


def orbit_reps(shape: Shape, l: int) -> tuple[DoubleIndex, ...]:
    """Representatives of the diagonal orbits on strict double indexes.

    One per multiset of even letter pairs joined with a set of odd
    ones, listing its pairs sorted: the least element of its orbit (row
    concatenated with column).  Each is built once as that flat word,
    the flat words are sorted as they stand and split at ``l``, so the
    list is sorted by row concatenated with column, and deterministic.
    """
    if l < 0:
        raise ValueError("degree must be >= 0")
    return _orbit_reps(shape.m, shape.n, l)


def strict_pairs(shape: Shape, l: int) -> tuple[DoubleIndex, ...]:
    """All strict pairs of degree l, sorted by row then column."""
    pairs = itertools.product(natural_words(shape, l), repeat=2)
    return tuple(p for p in pairs if is_strict(p, shape))


def orbit_elements(pair: DoubleIndex) -> tuple[DoubleIndex, ...]:
    """The full diagonal orbit of a pair, sorted."""
    row, col = pair
    orb = {(act(row, w), act(col, w)) for w in perms(len(row))}
    return tuple(sorted(orb, key=lambda p: p[0] + p[1]))


def orbit_signs(pair: DoubleIndex, shape: Shape) -> dict[DoubleIndex, int]:
    """The diagonal orbit of ``pair``, each element with its transport
    sign, walked once from ``pair`` along simple transpositions.

    A step from p to q = act(p, s) multiplies the sign by gamma(eps_p, s),
    eps_p the parity word of p (row plus column), so by the cocycle
    identity the sign at q is gamma(eps_pair, w) for any w carrying pair
    to q; for a simple s swapping slots i and i+1, gamma(eps_p, s) is -1
    exactly when both slots are odd.  Two paths to one element carrying
    different signs raise ValueError; that happens exactly when the pair
    is not strict.
    """
    m = shape.m
    signs = {pair: 1}
    stack = [pair]
    while stack:
        p = stack.pop()
        k, t = p
        odd = [(a > m) != (b > m) for a, b in zip(k, t)]
        for i in range(len(k) - 1):
            sign = -signs[p] if odd[i] and odd[i + 1] else signs[p]
            q = (k[:i] + (k[i + 1], k[i]) + k[i + 2:],
                 t[:i] + (t[i + 1], t[i]) + t[i + 2:])
            if q not in signs:
                signs[q] = sign
                stack.append(q)
            elif signs[q] != sign:
                raise ValueError(f"pair {pair} is not strict")
    return signs


def sigma_sign(src: DoubleIndex, dst: DoubleIndex, shape: Shape) -> int:
    """Transport sign from ``src`` to ``dst`` along the diagonal orbit.

    Uses the lexicographically least permutation carrying src to dst;
    strictness of src guarantees the value does not depend on the
    choice, which the test suite checks over whole stabilizers.
    """
    if not is_strict(src, shape):
        raise ValueError(f"source pair {src} is not strict")
    row, col = src
    eps = add_parities(
        parity_vector(row, shape), parity_vector(col, shape)
    )
    for w in perms(len(row)):
        if act(row, w) == dst[0] and act(col, w) == dst[1]:
            return gamma(eps, w)
    raise ValueError(f"{dst} is not in the orbit of {src}")
