"""Closed-form dimensions, independent of the package.

  * Levi dimension per layer (Donkin, Proc. LMS 83, 2001): the diagonal
    orbits of strict double indexes of degree l number
    ``sum_i C(m^2+n^2+i-1, i) * C(2mn, l-i)``; layer 0 holds the bottom
    element alone.
  * ``dim D_l = C(r,l)^2 * sum (f^lambda)^2`` over the partitions lambda
    of l in the (m|n)-hook, lambda_{m+1} <= n (Berele-Regev, Adv. Math.
    64, 1987), with ``f^lambda`` from the hook-length formula.  Over the
    rationals the commutant of the Levi action on layer l has the same
    dimension, at every degree.
"""

from math import comb, factorial


def levi_layer_counts(m, n, r):
    even, odd = m * m + n * n, 2 * m * n
    return [
        sum(comb(even + i - 1, i) * comb(odd, l - i) for i in range(l + 1))
        for l in range(r + 1)
    ]


def partitions(l, largest=None):
    """Partitions of l as non-increasing tuples."""
    largest = l if largest is None else largest
    if l == 0:
        yield ()
    for first in range(min(l, largest), 0, -1):
        for rest in partitions(l - first, first):
            yield (first,) + rest


def standard_tableaux(lam):
    """f^lambda by the hook-length formula."""
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            below = sum(1 for lower in lam[i + 1:] if lower > j)
            hooks *= row - j + below
    return factorial(sum(lam)) // hooks


def hook_sum(m, n, l):
    return sum(
        standard_tableaux(lam) ** 2 for lam in partitions(l)
        if len(lam) <= m or lam[m] <= n
    )


def d_layer_dims(m, n, r):
    return [comb(r, l) ** 2 * hook_sum(m, n, l) for l in range(r + 1)]


def d_dim(m, n, r):
    return sum(d_layer_dims(m, n, r))
