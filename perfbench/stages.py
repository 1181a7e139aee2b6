"""
Traced child: run one levischur operation stage by stage, cold.

Usage (from a fresh working directory, with the checkout's ``src`` first
on ``PYTHONPATH``)::

    python3 perfbench/stages.py '{"cmd": "verify", "m": 2, "n": 1, "r": 3,
                                  "vparity": "both", "field": "q"}'

The stages run in dependency order, so each span measures its own stage
and later stages find the earlier ones in the per-shape caches:

  1. orbits;
  2. Levi matrices, then the Levi span;
  3. generators, relation checks, ``d_algebra``, layer algebras;
  4. ``verify_first``, ``verify_second``, ``verify_layer_endos``,
     faithfulness per layer;
  5. the ``cli`` command itself;
  6. ``linalg.commutant`` and ``linalg.algebra_closure`` called directly
     on the inputs ``duality`` and ``hecke`` use.  Neither is cached, so
     this repeats work on purpose and neither warms nor reads a cache.

Each operation only runs the stages its command uses.  Every cached call
passes the size cap positionally, exactly as ``duality`` does, so the
``lru_cache`` keys match the ones the command itself uses.  Spans are
kept in memory and printed as one JSON document when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import levischur
from levischur import cli, duality, hecke, linalg
from levischur import combinatorics as comb
from levischur import enhanced_core as enh


class Tracer:
    """Flat list of spans: [id, name, start, end, parent id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        counts: dict[str, int] = {}
        rec = [sid, name, 0.0, 0.0, parent, counts]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[2] = time.perf_counter()
        try:
            yield counts
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()


def _orbits(t: Tracer, sh, cap):
    for l in range(sh.r + 1):
        with t.span("combinatorics.orbit_reps") as c:
            c["count"] = len(comb.orbit_reps(sh, l))


def _levi(t: Tracer, sh, cap):
    for b in enh.levi_basis(sh):
        with t.span("enhanced_core.rho_levi") as c:
            c["nnz"] = len(enh.rho_levi(b, sh).entries)
    with t.span("enhanced_core.levi_span") as c:
        c["dim"] = enh.levi_span(sh).dimension


def _generators(t: Tracer, sh, cap):
    for g in hecke.hecke_generators(sh):
        with t.span("hecke.xi_gen"):
            hecke.xi_gen(g, sh)


def _relations(t: Tracer, sh, cap):
    for inst in hecke.relation_instances(sh):
        with t.span("hecke.check_relation") as c:
            c["count"] = 1
            c["failed"] = 0 if hecke.check_relation(inst, sh) else 1


def _d_algebra(t: Tracer, sh, cap):
    ngens = len(hecke.hecke_generators(sh))
    with t.span("hecke.d_algebra") as c:
        dim = hecke.d_algebra(sh, cap).dimension
        c["dim"] = dim
        # Every basis element enters the closure frontier exactly once
        # and is multiplied by each generator on both sides.
        c["products"] = 2 * ngens * dim


def _layer_algebras(t: Tracer, sh, cap):
    for l in range(sh.r + 1):
        with t.span("hecke.d_layer_algebra") as c:
            c["dim"] = hecke.d_layer_algebra(l, sh, cap).dimension


def _duality(t: Tracer, sh, cap):
    with t.span("duality.verify_first"):
        duality.verify_first(sh, cap)
    with t.span("duality.verify_second"):
        duality.verify_second(sh, cap)
    with t.span("duality.verify_layer_endos"):
        duality.verify_layer_endos(sh, cap)
    for l in range(1, sh.r + 1):
        with t.span("duality.verify_faithful_layer_action"):
            duality.verify_faithful_layer_action(sh, l, cap)


def _commutant(t: Tracer, sh, cap):
    d = sh.dim_enhanced
    for gens in (hecke.d_algebra(sh, cap).basis, enh.levi_span(sh).basis):
        with t.span("linalg.commutant") as c:
            c["unknowns"] = d * d
            linalg.commutant(gens, d, field=sh.field, size_cap=cap)


def _closure(t: Tracer, sh, cap):
    gens = [hecke.xi_gen(g, sh) for g in hecke.hecke_generators(sh)]
    with t.span("linalg.algebra_closure") as c:
        c["dim"] = linalg.algebra_closure(
            gens, include_identity=True,
            d=sh.dim_enhanced, field=sh.field, size_cap=cap,
        ).dimension


CLI = "5.cli"    # the command itself runs in this stage

# The stages each command runs, in dependency order.
PLANS = {
    "orbits": (("1.orbits", (_orbits,)), (CLI, ())),
    "dims": (
        ("1.orbits", (_orbits,)),
        ("3.hecke", (_generators, _d_algebra)),
        (CLI, ()),
        ("6.linalg", (_closure,)),
    ),
    "relations": (("3.hecke", (_generators, _relations)), (CLI, ())),
    "verify": (
        ("1.orbits", (_orbits,)),
        ("2.levi", (_levi,)),
        ("3.hecke", (_generators, _relations, _d_algebra, _layer_algebras)),
        ("4.duality", (_duality,)),
        (CLI, ()),
        ("6.linalg", (_commutant, _closure)),
    ),
}


def run(op: dict) -> dict:
    t = Tracer()
    cfg = cli.RunConfig(
        m=op["m"], n=op["n"], r=op["r"],
        vparity=op.get("vparity", "both"), field=op.get("field", "q"),
        command=op["cmd"], output="json",
    )
    shapes = cfg.shapes()
    if op["cmd"] in ("orbits", "dims"):
        shapes = shapes[:1]     # these commands read only the first shape
    command = getattr(cli, "cmd_" + op["cmd"])
    with t.span("op"):
        for stage, steps in PLANS[op["cmd"]]:
            with t.span(stage):
                if stage == CLI:
                    with t.span("cli.cmd"):
                        report, status = command(cfg)
                for step in steps:
                    for sh in shapes:
                        step(t, sh, cfg.size_cap)
    return {
        "module": levischur.__file__,
        "spans": t.spans,
        "span_cost_s": len(t.spans) * _span_cost(),
        "report": report,
        "status": status,
    }


def _span_cost(samples: int = 20000) -> float:
    """Seconds one empty span costs: the tracer's own overhead."""
    t = Tracer()
    t0 = time.perf_counter()
    for _ in range(samples):
        with t.span("empty"):
            pass
    return (time.perf_counter() - t0) / samples


if __name__ == "__main__":
    json.dump(run(json.loads(sys.argv[1])), sys.stdout)
    print()
