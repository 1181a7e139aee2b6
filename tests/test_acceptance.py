"""Acceptance suite.

Every criterion runs over the rationals with exact (zero tolerance)
equality and prints one pass/fail line; stated runtime budgets are
asserted.  Shapes are written (m|n,r).  Run with ``pytest -s`` to see
the lines as they come.
"""

import itertools
import json
import random
import time

from closed_forms import levi_layer_counts
from levischur.cli import RunConfig, cmd_verify
from levischur.combinatorics import (
    Shape,
    act,
    add_parities,
    adjacent_transposition,
    alpha,
    gamma,
    orbit_reps,
    perms,
)
from levischur.duality import (
    verify_faithful_layer_action,
    verify_first,
    verify_layer_endos,
    verify_second,
)
from levischur.enhanced_core import (
    levi_basis,
    levi_span,
    rho_levi,
)
from levischur.hecke import (
    d_algebra,
    d_layer_algebra,
    hecke_generators,
    relation_instances,
    check_relation,
    xi_gen,
)
from levischur.linalg import (
    ExactMatrix,
    commutant,
    rank_of_rows,
    span_of,
)
from levischur.schur_core import classical_duality
from levischur import enhanced_core

RELATION_SHAPES = [
    (m, n, r) for (m, n) in [(1, 1), (2, 1), (1, 2)] for r in (2, 3)
]
DUALITY_SHAPES = [(1, 1, 2), (2, 1, 2), (1, 2, 2), (1, 1, 3)]


def report(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_sign_identity():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for l in range(1, 5):
        for ei in itertools.product((0, 1), repeat=l):
            for ej in itertools.product((0, 1), repeat=l):
                s = add_parities(ei, ej)
                base = alpha(s, ej)
                for w in perms(l):
                    cases += 1
                    lhs = alpha(
                        add_parities(act(ei, w), act(ej, w)), act(ej, w)
                    )
                    rhs = base * gamma(s, w) * gamma(ei, w) * gamma(ej, w)
                    ok = ok and lhs == rhs
    rng = random.Random(20240)
    rand_cases = 0
    for l in (5, 6):
        group = perms(l)
        for _ in range(1000):
            rand_cases += 1
            ei = tuple(rng.randint(0, 1) for _ in range(l))
            ej = tuple(rng.randint(0, 1) for _ in range(l))
            w = rng.choice(group)
            s = add_parities(ei, ej)
            lhs = alpha(add_parities(act(ei, w), act(ej, w)), act(ej, w))
            rhs = (
                alpha(s, ej) * gamma(s, w) * gamma(ei, w) * gamma(ej, w)
            )
            ok = ok and lhs == rhs
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(
        1, ok,
        f"exhaustive l<=4: {cases} cases, random l in 5..6: {rand_cases}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_02_relation_suite():
    t0 = time.perf_counter()
    total = 0
    ok = True
    for m, n, r in RELATION_SHAPES:
        for vp in (0, 1):
            shape = Shape(m, n, r, vp)
            for inst in relation_instances(shape):
                total += 1
                ok = ok and check_relation(inst, shape)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    report(2, ok, f"{total} instances over 12 shape/parity runs, "
                  f"{elapsed:.2f}s")


def test_criterion_03_homomorphism_oracle():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for m, n, r in [(1, 1, 2), (2, 1, 2)]:
        for vp in (0, 1):
            shape = Shape(m, n, r, vp)
            basis = levi_basis(shape)
            mats = {b: rho_levi(b, shape) for b in basis}
            d = shape.dim_enhanced
            zero = ExactMatrix.zero(shape.field, d, d)
            for a in basis:
                for b in basis:
                    pairs += 1
                    expected = zero
                    for elem, c in enhanced_core.levi_product(
                        a, b, shape
                    ).items():
                        expected = expected + mats[elem].scale(c)
                    ok = ok and mats[a] @ mats[b] == expected
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(3, ok, f"{pairs} ordered basis pairs, {elapsed:.2f}s")


def test_criterion_04_commutation():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for m, n, r in RELATION_SHAPES:
        for vp in (0, 1):
            shape = Shape(m, n, r, vp)
            gens = [xi_gen(g, shape) for g in hecke_generators(shape)]
            for b in levi_basis(shape):
                mat = rho_levi(b, shape)
                for g in gens:
                    pairs += 1
                    ok = ok and mat.commutes_with(g)
    report(4, ok, f"{pairs} commutator pairs, "
                  f"{time.perf_counter() - t0:.2f}s")


def test_criterion_05_first_duality():
    t0 = time.perf_counter()
    ok = True
    dims = {}
    for m, n, r in DUALITY_SHAPES:
        for vp in (0, 1):
            res = verify_first(Shape(m, n, r, vp))
            ok = ok and res.holds
            dims[(m, n, r, vp)] = res.dim_levi
    ok = ok and dims[(1, 1, 2, 0)] == 13 and dims[(1, 1, 2, 1)] == 13
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(5, ok, f"holds at {len(dims)} shape/parity runs, "
                  f"dim(1|1,2)={dims[(1, 1, 2, 0)]}, {elapsed:.2f}s")


def test_criterion_06_second_duality():
    t0 = time.perf_counter()
    ok = True
    runs = 0
    for m, n, r in DUALITY_SHAPES:
        if r > m + n:
            continue
        for vp in (0, 1):
            runs += 1
            res = verify_second(Shape(m, n, r, vp))
            ok = ok and res.gated and res.spans_equal
    report(6, ok, f"spans equal at {runs} shape/parity runs with r <= m+n, "
                  f"{time.perf_counter() - t0:.2f}s")


def test_criterion_07_classical_duality():
    t0 = time.perf_counter()
    ok = True
    rep11 = classical_duality(Shape(1, 1, 2))
    ok = ok and rep11.spans_equal and rep11.dim_schur == 8
    ok = ok and rep11.converse_spans_equal
    ok = ok and rep11.dim_commutant_of_schur == 2
    rep21 = classical_duality(Shape(2, 1, 2))
    ok = ok and rep21.spans_equal
    ok = ok and rep21.converse_spans_equal
    ok = ok and rep21.dim_commutant_of_schur == 2
    report(7, ok, f"dim S(1|1,2)={rep11.dim_schur}, converse dims = r! = 2, "
                  f"{time.perf_counter() - t0:.2f}s")


def test_criterion_08_faithfulness():
    t0 = time.perf_counter()
    ok = True
    shapes = sorted(set(RELATION_SHAPES + DUALITY_SHAPES))
    for m, n, r in shapes:
        for vp in (0, 1):
            shape = Shape(m, n, r, vp)
            mats = [rho_levi(b, shape) for b in levi_basis(shape)]
            rank = rank_of_rows([mm.flatten() for mm in mats], shape.field)
            ok = ok and rank == sum(levi_layer_counts(m, n, r))
            for l in range(1, r + 1):
                ok = ok and verify_faithful_layer_action(shape, l)
    report(8, ok, f"rank and layer kernels at {2 * len(shapes)} "
                  f"shape/parity runs, {time.perf_counter() - t0:.2f}s")


def test_criterion_09_decomposition():
    t0 = time.perf_counter()
    ok = True
    for m, n, r in [(1, 1, 2), (2, 1, 2)]:
        for vp in (0, 1):
            shape = Shape(m, n, r, vp)
            full = d_algebra(shape)
            pieces = [
                mat
                for l in range(r + 1)
                for mat in d_layer_algebra(l, shape).basis
            ]
            ok = ok and (
                span_of(pieces, d=shape.dim_enhanced, field=shape.field)
                == full
            )
            ok = ok and verify_layer_endos(shape).holds
    report(9, ok, f"direct sum and per-layer equality at 4 shape/parity "
                  f"runs, {time.perf_counter() - t0:.2f}s")


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    cfg = RunConfig(m=1, n=1, r=2, vparity="both", field="q")
    rep1, status1 = cmd_verify(cfg)
    rep2, status2 = cmd_verify(cfg)
    for rep in (rep1, rep2):
        rep.pop("timing")
    blob1 = json.dumps(rep1, sort_keys=True).encode()
    blob2 = json.dumps(rep2, sort_keys=True).encode()
    ok = status1 == status2 == 0 and blob1 == blob2
    report(10, ok, f"byte-identical reports modulo timing, "
                   f"{time.perf_counter() - t0:.2f}s")
