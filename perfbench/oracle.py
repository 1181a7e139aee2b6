"""
Closed-form output oracle for the benchmark.

Nothing here imports ``levischur``: every expected number comes from a
formula, so a report is checked against mathematics rather than against
a saved copy of the program's own output.

  * Levi dimension, per layer (Donkin, Proc. LMS 83, 2001): the number of
    diagonal orbits of strict double indexes of degree l is
    ``sum_i C(m^2+n^2+i-1, i) * C(2mn, l-i)``, and layer 0 contributes
    the single bottom element.
  * ``dim D = sum_l C(r,l)^2 * sum_{lambda |- l, lambda_{m+1} <= n}
    (f^lambda)^2`` (Berele-Regev, Adv. Math. 64, 1987), with ``f^lambda``
    from the hook-length formula.
  * The number of relation instances enumerated for the seven relation
    families 3.1a-3.6 at degree r.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial


def levi_layer_counts(m: int, n: int, r: int) -> list[int]:
    """Orbit counts for layers 0..r; their sum is the Levi dimension."""
    even, odd = m * m + n * n, 2 * m * n
    counts = [1]
    for l in range(1, r + 1):
        counts.append(sum(
            comb(even + i - 1, i) * comb(odd, l - i) for i in range(l + 1)
        ))
    return counts


def levi_dim(m: int, n: int, r: int) -> int:
    return sum(levi_layer_counts(m, n, r))


def partitions(l: int, largest: int | None = None):
    """Partitions of l as non-increasing tuples."""
    if largest is None:
        largest = l
    if l == 0:
        yield ()
        return
    for first in range(min(l, largest), 0, -1):
        for rest in partitions(l - first, first):
            yield (first,) + rest


def standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^lambda by the hook-length formula."""
    cols = [sum(1 for row in shape if row > j) for j in range(shape[0])] \
        if shape else []
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks


@lru_cache(maxsize=None)
def _hook_sum(m: int, n: int, l: int) -> int:
    """Sum of (f^lambda)^2 over the (m|n)-hook partitions of l."""
    return sum(
        standard_tableaux(lam) ** 2
        for lam in partitions(l)
        if len(lam) <= m or lam[m] <= n
    )


def d_dim(m: int, n: int, r: int) -> int:
    return sum(comb(r, l) ** 2 * _hook_sum(m, n, l) for l in range(r + 1))


def relation_count(r: int) -> int:
    """Instances of relations 3.1a, 3.1b, 3.2, 3.3, 3.4, 3.5, 3.6."""
    f = [factorial(l) for l in range(r + 1)]
    swaps = r - 1
    far = sum(1 for i in range(1, r) for j in range(1, r) if abs(i - j) > 1)
    braid = sum(1 for i in range(1, r) for j in range(1, r) if abs(i - j) == 1)
    same_layer = sum(x * x for x in f)
    absorbed = sum(max(l - 1, 0) * f[l] for l in range(r + 1))
    distant = sum(max(r - 1 - l, 0) * f[l] for l in range(r + 1))
    cross_layer = sum(f) ** 2 - same_layer
    return swaps + far + braid + same_layer + absorbed + distant + cross_layer


# ---------------------------------------------------------------------------
# checking one report


def _parities(vparity: str) -> list[int]:
    return {"even": [0], "odd": [1], "both": [0, 1]}[vparity]


def _by_name(report: dict, name: str) -> dict[int, dict]:
    return {
        c["vparity"]: c.get("details", {})
        for c in report.get("checks", []) if c["name"] == name
    }


def _check_relations(report, m, n, r, vparity, bad):
    rel = _by_name(report, "relations")
    want = relation_count(r)
    for vp in _parities(vparity):
        got = rel.get(vp, {}).get("instances")
        if got != want:
            bad.append(f"relations[{vp}].instances {got} != {want}")


def check_report(op: dict, status: int, report: dict | None) -> list[str]:
    """Mismatches between one command's report and the closed forms.

    ``op`` holds the command, shape, vparity and field of the operation;
    an empty list means the report is correct.
    """
    bad: list[str] = []
    if status != 0:
        bad.append(f"exit code {status}")
    if not isinstance(report, dict):
        return bad + ["no JSON report"]
    if report.get("pass") is not True:
        bad.append("pass is not true")
    cmd, m, n, r = op["cmd"], op["m"], op["n"], op["r"]
    vparity = op.get("vparity", "both")
    layers = levi_layer_counts(m, n, r)
    dims = report.get("dims") or {}
    if cmd in ("verify", "dims"):
        if dims.get("levi") != sum(layers):
            bad.append(f"dims.levi {dims.get('levi')} != {sum(layers)}")
        if dims.get("d_algebra") != d_dim(m, n, r):
            bad.append(
                f"dims.d_algebra {dims.get('d_algebra')} != {d_dim(m, n, r)}"
            )
    if cmd == "verify":
        if dims.get("per_layer_orbits") != layers:
            bad.append(f"dims.per_layer_orbits {dims.get('per_layer_orbits')}"
                       f" != {layers}")
        first = _by_name(report, "first_duality")
        second = _by_name(report, "second_duality")
        for vp in _parities(vparity):
            got = first.get(vp, {}).get("dim_commutant_D")
            if got != sum(layers):
                bad.append(f"dim_commutant_D[{vp}] {got} != {sum(layers)}")
            got = second.get(vp, {}).get("dim_commutant_levi")
            if got != d_dim(m, n, r):
                bad.append(
                    f"dim_commutant_levi[{vp}] {got} != {d_dim(m, n, r)}"
                )
        _check_relations(report, m, n, r, vparity, bad)
    elif cmd == "dims":
        want = {str(l): c for l, c in enumerate(layers) if l >= 1}
        if dims.get("per_layer_orbits") != want:
            bad.append(f"dims.per_layer_orbits {dims.get('per_layer_orbits')}"
                       f" != {want}")
    elif cmd == "orbits":
        orbits = report.get("orbits") or {}
        got = {l: len(v) for l, v in orbits.items()}
        want = {str(l): c for l, c in enumerate(layers)}
        if got != want:
            bad.append(f"orbit counts {got} != {want}")
    elif cmd == "relations":
        _check_relations(report, m, n, r, vparity, bad)
    else:
        bad.append(f"unknown command {cmd!r}")
    return bad
