"""
Tests of the benchmark's closed-form oracle and of its failure counting.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
They import neither ``levischur`` nor anything that does.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from math import comb, factorial
from pathlib import Path

import pytest

import oracle
from oracle import check_report, d_dim, levi_layer_counts, relation_count

HERE = Path(__file__).resolve().parent


def brute_orbit_counts(m: int, n: int, r: int) -> list[int]:
    """Diagonal orbits of strict double indexes, counted as multisets of
    letter pairs in which no odd pair repeats."""
    letters = range(1, m + n + 1)
    odd = lambda a, b: (a > m) != (b > m)   # noqa: E731
    counts = []
    for l in range(r + 1):
        orbits = set()
        for row in itertools.product(letters, repeat=l):
            for col in itertools.product(letters, repeat=l):
                pairs = sorted(zip(row, col))
                odd_pairs = [p for p in pairs if odd(*p)]
                if len(odd_pairs) == len(set(odd_pairs)):
                    orbits.add(tuple(pairs))
        counts.append(len(orbits))
    return counts


@pytest.mark.parametrize("shape", [(1, 1, 3), (2, 1, 2), (1, 2, 3), (2, 2, 2)])
def test_levi_layers_match_brute_force(shape):
    assert levi_layer_counts(*shape) == brute_orbit_counts(*shape)


def test_hook_length_sums_to_factorial():
    for l in range(8):
        assert sum(oracle.standard_tableaux(lam) ** 2
                   for lam in oracle.partitions(l)) == factorial(l)
    assert oracle.standard_tableaux((3, 2)) == 5
    assert oracle.standard_tableaux((2, 2, 1)) == 5


def test_d_dim_limits():
    # n = 0 keeps one-row partitions only: sum_l C(r,l)^2 = C(2r, r).
    for r in range(1, 7):
        assert d_dim(1, 0, r) == comb(2 * r, r)
    # m, n >= r admits every partition: sum_l C(r,l)^2 l!.
    for r in range(1, 5):
        assert d_dim(r, r, r) == sum(
            comb(r, l) ** 2 * factorial(l) for l in range(r + 1)
        )


def test_benchmarked_shapes():
    assert sum(levi_layer_counts(2, 1, 3)) == 180
    assert sum(levi_layer_counts(1, 1, 4)) == 41
    assert levi_layer_counts(2, 2, 4) == [1, 16, 128, 688, 2816]
    assert d_dim(2, 1, 3) == d_dim(1, 2, 3) == 34
    assert d_dim(1, 1, 4) == 205


def test_relation_count():
    assert relation_count(3) == 121
    assert relation_count(4) == 1258
    # Relation 3.3 alone contributes sum_l (l!)^2 instances.
    assert relation_count(6) == 768118
    assert sum(factorial(l) ** 2 for l in range(7)) == 533418


def good_verify_report(m, n, r, parities=(0, 1)):
    layers = levi_layer_counts(m, n, r)
    checks = []
    for vp in parities:
        checks += [
            {"name": "relations", "vparity": vp,
             "details": {"instances": relation_count(r)}},
            {"name": "first_duality", "vparity": vp,
             "details": {"dim_commutant_D": sum(layers)}},
            {"name": "second_duality", "vparity": vp,
             "details": {"dim_commutant_levi": d_dim(m, n, r)}},
        ]
    return {
        "pass": True,
        "dims": {"levi": sum(layers), "d_algebra": d_dim(m, n, r),
                 "per_layer_orbits": layers},
        "checks": checks,
    }


VERIFY = {"cmd": "verify", "m": 2, "n": 1, "r": 3, "vparity": "both"}


def test_correct_report_passes():
    assert check_report(VERIFY, 0, good_verify_report(2, 1, 3)) == []


@pytest.mark.parametrize("corrupt", [
    lambda rep: rep["dims"].update(levi=181),
    lambda rep: rep["dims"].update(d_algebra=33),
    lambda rep: rep["checks"][1]["details"].update(dim_commutant_D=179),
    lambda rep: rep["checks"][5]["details"].update(dim_commutant_levi=35),
    lambda rep: rep["checks"][3]["details"].update(instances=120),
    lambda rep: rep.update({"pass": False}),
    lambda rep: rep["checks"].pop(),
])
def test_wrong_report_is_flagged(corrupt):
    rep = good_verify_report(2, 1, 3)
    corrupt(rep)
    assert check_report(VERIFY, 0, rep)


def test_exit_code_and_missing_report_are_flagged():
    assert check_report(VERIFY, 1, good_verify_report(2, 1, 3))
    assert check_report(VERIFY, 0, None)


def test_orbits_dims_relations_reports():
    layers = levi_layer_counts(2, 2, 4)
    orbits = {"pass": True, "orbits": {
        str(l): [{}] * c for l, c in enumerate(layers)}}
    op = {"cmd": "orbits", "m": 2, "n": 2, "r": 4}
    assert check_report(op, 0, orbits) == []
    orbits["orbits"]["4"].pop()
    assert check_report(op, 0, orbits)

    dims = {"pass": True, "dims": {
        "levi": 41, "d_algebra": 205,
        "per_layer_orbits": {"1": 4, "2": 8, "3": 12, "4": 16}}}
    op = {"cmd": "dims", "m": 1, "n": 1, "r": 4}
    assert check_report(op, 0, dims) == []
    dims["dims"]["per_layer_orbits"]["2"] = 9
    assert check_report(op, 0, dims)

    rel = {"pass": True, "checks": [
        {"name": "relations", "vparity": vp,
         "details": {"instances": 1258}} for vp in (0, 1)]}
    op = {"cmd": "relations", "m": 1, "n": 1, "r": 4, "vparity": "both"}
    assert check_report(op, 0, rel) == []
    assert check_report({**op, "r": 3}, 0, rel)


FAKE_CLI = """
import json
if __name__ == "__main__":
    print(json.dumps({report}))
"""


def fake_checkout(tmp_path: Path, report: dict | None) -> Path:
    """A checkout whose levischur prints a fixed report for every
    command (or only the benchmark, when ``report`` is None)."""
    root = tmp_path / "checkout"
    bench = root / "perfbench"
    bench.mkdir(parents=True)
    for name in ("run.py", "oracle.py", "stages.py"):
        shutil.copy(HERE / name, bench / name)
    if report is not None:
        pkg = root / "src" / "levischur"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (pkg / "cli.py").write_text(FAKE_CLI.format(report=repr(report)))
    return root


def run_bench(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-deep",
         "--seed", "3", "--seconds", "0.1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def test_right_report_counts_as_passed(tmp_path):
    proc = run_bench(fake_checkout(tmp_path, good_verify_report(1, 1, 4)))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] == 2
    assert result["failed"] == 0
    assert result["correct"] is True
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_report_counts_as_failed(tmp_path):
    report = good_verify_report(1, 1, 4)
    report["dims"]["d_algebra"] += 1
    proc = run_bench(fake_checkout(tmp_path, report))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 2
    assert result["failed"] == 2
    assert result["correct"] is False
    assert "dims.d_algebra 206 != 205" in proc.stdout


def test_refuses_checkout_without_sources(tmp_path):
    proc = run_bench(fake_checkout(tmp_path, None))
    assert proc.returncode != 0
    assert '"attempted"' not in proc.stdout
