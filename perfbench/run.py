"""
Cold-start CLI benchmark for levischur.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 40 \
        --trace 0

Every operation is one ``levischur`` command in a fresh interpreter and a
fresh working directory, with the checkout's ``src`` first on
``PYTHONPATH``, timed from launch to exit.  This one process runs the
commands one at a time (a closed loop with one client), in whole rounds
of the workload's operations; the seed sets the order of the operations
inside each round.  Every report is checked against the closed forms in
``oracle.py``.  A fixed reference job that does not use ``levischur``
runs between the operations; the operation times are calibrated by its
mean time over the run, so that a slow spell of a shared machine does not
read as a slow program.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
distinct operation once through ``stages.py`` (one child per operation,
stages called one at a time with spans) and once untraced, and reports
the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(provenance, every operation, per-stage shares) goes to
``perfbench/results/``, and the spans of a traced run to a ``trace-*``
file beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from oracle import check_report

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
STAGES = ROOT / "perfbench" / "stages.py"

SETUP_STARTS = 5        # timed interpreter starts before every round
# Size of the reference job (see ``reference_seconds``), and its time when
# the 2-core, Python 3.11.7 machine of the reference numbers runs fast
# (0.30 s is typical, 0.36 s when it is busy).
REF_SUMS = 40000
REF_ROWS = 60
REF_NOMINAL_S = 0.17
OP_TIMEOUT_S = 60       # one operation; the slowest takes about 7 s


def _op(cmd, m, n, r, vparity="both", field="q"):
    return {"cmd": cmd, "m": m, "n": n, "r": r,
            "vparity": vparity, "field": field}


WORKLOADS = {
    "verify-wide": [
        _op("verify", 2, 1, 3),
        _op("verify", 1, 2, 3),
    ],
    "verify-deep": [
        _op("verify", 1, 1, 4, vparity="even"),
        _op("verify", 1, 1, 4, vparity="odd"),
    ],
    "explore": [
        _op("orbits", 2, 2, 4),
        _op("dims", 1, 1, 4),
        _op("relations", 1, 1, 4),
        _op("verify", 2, 1, 3, field="p:32003"),
    ],
}

END_TO_END_UNITS = {
    "setup_s": "s", "op_cal_s.p50": "s", "ops_per_cal_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (span name, count key or None for seconds, unit).
PER_LAYER = {
    "combinatorics.orbit_reps_s": ("combinatorics.orbit_reps", None, "s"),
    "combinatorics.orbit_reps.count":
        ("combinatorics.orbit_reps", "count", "count"),
    "enhanced_core.rho_levi_s": ("enhanced_core.rho_levi", None, "s"),
    "enhanced_core.rho_levi.nnz": ("enhanced_core.rho_levi", "nnz", "count"),
    "enhanced_core.levi_span_s": ("enhanced_core.levi_span", None, "s"),
    "enhanced_core.levi_span.dim": ("enhanced_core.levi_span", "dim", "count"),
    "hecke.xi_gen_s": ("hecke.xi_gen", None, "s"),
    "hecke.check_relation_s": ("hecke.check_relation", None, "s"),
    "hecke.check_relation.count": ("hecke.check_relation", "count", "count"),
    "hecke.d_algebra_s": ("hecke.d_algebra", None, "s"),
    "hecke.d_algebra.dim": ("hecke.d_algebra", "dim", "count"),
    "hecke.d_algebra.products": ("hecke.d_algebra", "products", "count"),
    "hecke.d_layer_algebra_s": ("hecke.d_layer_algebra", None, "s"),
    "duality.verify_first_s": ("duality.verify_first", None, "s"),
    "duality.verify_second_s": ("duality.verify_second", None, "s"),
    "duality.verify_layer_endos_s": ("duality.verify_layer_endos", None, "s"),
    "duality.verify_faithful_layer_action_s":
        ("duality.verify_faithful_layer_action", None, "s"),
    "linalg.commutant_s": ("linalg.commutant", None, "s"),
    "linalg.commutant.unknowns": ("linalg.commutant", "unknowns", "count"),
    "linalg.algebra_closure_s": ("linalg.algebra_closure", None, "s"),
    "cli.cmd_s": ("cli.cmd", None, "s"),
}
TRACE_UNITS = {"trace.wall_ratio": "ratio", "trace.span_overhead_s": "s"}


def cli_args(op: dict) -> list[str]:
    return [
        op["cmd"], "--m", str(op["m"]), "--n", str(op["n"]),
        "--r", str(op["r"]), "--vparity", op["vparity"],
        "--field", op["field"], "--output", "json",
    ]


def op_label(op: dict) -> str:
    return (f"{op['cmd']} ({op['m']}|{op['n']},{op['r']}) "
            f"vparity={op['vparity']} field={op['field']}")


def run_child(argv: list[str], env: dict) -> dict:
    """Run one fresh interpreter in a fresh working directory.

    Standard output and error go to files in that directory, so the
    child never blocks on a pipe; ``os.wait4`` gives its own rusage.
    """
    work = Path(tempfile.mkdtemp(prefix="op-", dir=RESULTS / "work"))
    try:
        with open(work / "out", "wb") as out, open(work / "err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=work, env=env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            usage = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if usage is None:       # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = (work / "out").read_text()
        stderr = (work / "err").read_text()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "seconds": seconds,
        "status": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout": stdout,
        "stderr": stderr[-2000:],
    }


def _parse_json(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def child_env() -> dict:
    """The caller's environment with the checkout's ``src`` first on
    ``PYTHONPATH``.  Bytecode writing is switched on even where the caller
    turned it off, so the untimed first start writes the ``.pyc`` files
    and no timed start pays for compilation."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    return env


def provenance(env: dict) -> dict:
    """Where the measured code came from; refuses any copy but the
    checkout's own ``src``."""
    probe = run_child([sys.executable, "-c",
                       "import levischur.cli, levischur; "
                       "print(levischur.__file__)"], env)
    path = probe["stdout"].strip()
    expected = (SRC / "levischur" / "__init__.py").resolve()
    if probe["status"] != 0 or Path(path).resolve() != expected:
        raise SystemExit(
            f"error: levischur did not import from {expected} "
            f"(got {path!r}): {probe['stderr'].strip()}"
        )
    digest = hashlib.sha256()
    for f in sorted((SRC / "levischur").rglob("*.py")):
        digest.update(str(f.relative_to(SRC)).encode() + b"\0")
        digest.update(f.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "cores": os.cpu_count(),
        "levischur_path": path,
    }


def setup_starts(env: dict, count: int) -> list[float]:
    """Times to start an interpreter and import ``levischur.cli``.

    ``provenance`` made the one untimed start that compiles ``.pyc``."""
    argv = [sys.executable, "-c", "import levischur.cli"]
    times = []
    for _ in range(count):
        res = run_child(argv, env)
        if res["status"] != 0:
            raise SystemExit(f"error: import failed: {res['stderr']}")
        times.append(res["seconds"])
    return times


def run_rounds(ops, rng, seconds, one_round):
    """Whole rounds, each in a fresh seeded order, until the next round
    would be expected to end more than half a round after ``seconds``.

    Whole rounds keep every operation's share of a run fixed whatever
    the seed and the machine's speed; the half-round rule centres the
    run's length on ``seconds``."""
    records = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        order = list(ops)
        rng.shuffle(order)
        records.extend(one_round(order))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds / 2 > seconds:
            return records, elapsed, rounds


def run_cli_op(op: dict, env: dict) -> dict:
    res = run_child([sys.executable, "-m", "levischur.cli", *cli_args(op)],
                    env)
    report = _parse_json(res.pop("stdout"))
    res["mismatches"] = check_report(op, res["status"], report)
    res["reported"] = isinstance(report, dict)
    res["op"] = op_label(op)
    return res


def run_traced_op(op: dict, env: dict) -> tuple[dict, list]:
    res = run_child([sys.executable, str(STAGES), json.dumps(op)], env)
    doc = _parse_json(res.pop("stdout")) or {}
    res["mismatches"] = check_report(op, doc.get("status", -1),
                                     doc.get("report"))
    res["reported"] = isinstance(doc.get("report"), dict)
    res["op"] = op_label(op)
    res["traced"] = True
    res["span_cost_s"] = doc.get("span_cost_s", 0.0)
    return res, doc.get("spans", [])


def reference_seconds() -> float:
    """Time of a fixed pure-Python job like the program's own work:
    ``Fraction`` sums kept in a dict, then row reduction of a small
    sparse matrix of ``Fraction``s held as dict rows.  It never touches
    ``levischur``, so it shows the machine's own speed at that moment."""
    t0 = time.perf_counter()
    row: dict[int, Fraction] = {}
    for i in range(REF_SUMS):
        k = (i * 7919) % 1021
        row[k] = row.get(k, 0) + Fraction(i % 13 + 1, i % 11 + 1)
    rng = random.Random(7)
    pivots: dict[int, dict[int, Fraction]] = {}
    for i in range(REF_ROWS):
        vec = {rng.randrange(REF_ROWS): Fraction(rng.randrange(1, 9),
                                                  rng.randrange(1, 9))
               for _ in range(5)}
        vec[i] = Fraction(1)
        while vec:
            col = min(vec)
            if col not in pivots:
                lead = vec[col]
                pivots[col] = {c: v / lead for c, v in vec.items()}
                break
            factor = vec[col]
            for c, v in pivots[col].items():
                x = vec.get(c, 0) - factor * v
                if x:
                    vec[c] = x
                else:
                    vec.pop(c, None)
    return time.perf_counter() - t0


def end_to_end(workload, seed, seconds, env):
    """setup_s is the median over interpreter starts spread across the
    run, so it sees the same machine as the operations.

    The reference job runs before every batch of starts, before every
    operation and once at the end.  The operation times are scaled by
    ``REF_NOMINAL_S`` over the mean of those reference times, which gives
    them as they would be on the machine running at its fast speed;
    ops_per_cal_s counts the operations' own time, without the starts or
    the reference jobs."""
    rng = random.Random(seed)
    starts: list[float] = []
    refs: list[float] = []

    def one_round(order):
        refs.append(reference_seconds())
        starts.extend(setup_starts(env, SETUP_STARTS))
        recs = []
        for op in order:
            refs.append(reference_seconds())
            recs.append(run_cli_op(op, env))
            recs[-1]["ref_s"] = refs[-1]
        return recs

    records, wall, rounds = run_rounds(
        WORKLOADS[workload], rng, seconds, one_round)
    refs.append(reference_seconds())
    scale = REF_NOMINAL_S / statistics.mean(refs)
    ok = sum(1 for r in records if not r["mismatches"])
    times = [r["seconds"] for r in records]
    metrics = {
        "setup_s": statistics.median(starts),
        "op_cal_s.p50": statistics.median(times) * scale,
        "ops_per_cal_s": ok / (sum(times) * scale),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
    }
    extra = {
        "rounds": rounds, "wall_s": wall, "ref_s": refs, "scale": scale,
        "uncalibrated": {"op_s.p50": statistics.median(times),
                         "ops_per_s": ok / sum(times)},
    }
    return metrics, records, extra, None


def _layer_values(spans: list) -> dict[str, float]:
    out = {}
    for metric, (name, key, _) in PER_LAYER.items():
        out[metric] = sum(
            (s[5].get(key, 0) if key else s[3] - s[2])
            for s in spans if s[1] == name
        )
    return out


def _self_times(spans: list) -> dict[str, float]:
    """Span duration minus the part its child spans cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s[1]] += own[s[0]]
    return dict(out)


def traced(workload, seed, seconds, env):
    rng = random.Random(seed)
    per_round: list[dict] = []
    shares: dict[str, float] = defaultdict(float)
    stages: dict[str, float] = defaultdict(float)
    trace_doc = []

    def one_round(order):
        spans_all, recs = [], []
        traced_wall = untraced_wall = span_cost = 0.0
        for op in order:
            res = run_cli_op(op, env)
            untraced_wall += res["seconds"]
            tres, spans = run_traced_op(op, env)
            traced_wall += tres["seconds"]
            span_cost += tres["span_cost_s"]
            recs += [res, tres]
            spans_all += spans
            trace_doc.append({"op": op_label(op), "round": len(per_round),
                              "spans": spans})
            for name, t in _self_times(spans).items():
                shares[name] += t
            for s in spans:
                if s[4] == 0:       # a stage: a child of the "op" span
                    stages[s[1]] += s[3] - s[2]
        values = _layer_values(spans_all)
        values["trace.wall_ratio"] = traced_wall / untraced_wall
        values["trace.span_overhead_s"] = span_cost
        per_round.append(values)
        return recs

    records, wall, rounds = run_rounds(
        WORKLOADS[workload], rng, seconds, one_round)
    metrics = {
        name: statistics.median(v[name] for v in per_round)
        for name in per_round[0]
    }
    total = sum(shares.values())
    extra = {
        "rounds": rounds,
        "wall_s": wall,
        "stage_share": {k: v / total for k, v in sorted(stages.items())},
        "self_time_share": {
            k: v / total
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1])
        },
    }
    return metrics, records, extra, trace_doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds through run_child, which then kills its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "levischur" / "cli.py").is_file():
        print(f"error: no levischur sources under {SRC}", file=sys.stderr)
        return 2
    (RESULTS / "work").mkdir(parents=True, exist_ok=True)
    env = child_env()
    prov = provenance(env)
    run = traced if args.trace else end_to_end
    metrics, records, extra, trace_doc = run(
        args.workload, args.seed, args.seconds, env)
    units = {**END_TO_END_UNITS,
             **{k: v[2] for k, v in PER_LAYER.items()}, **TRACE_UNITS}

    # An operation fails when it crashes, times out or reports anything
    # the oracle disagrees with; a wrong report also clears ``correct``.
    failed = [r for r in records if r["mismatches"]]
    wrong = [r for r in failed if r["reported"]]
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": prov, **extra, "result": result,
        "operations": records,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if trace_doc is not None:
        (RESULTS / f"trace-{stem}.json").write_text(json.dumps(trace_doc))

    print(f"workload {args.workload} seed {args.seed}: "
          f"{result['attempted']} attempted, {result['failed']} failed, "
          f"python {prov['python']}, {prov['cores']} cores, "
          f"git {prov['git_sha']}, levischur from {prov['levischur_path']}")
    for r in failed:
        print(f"  FAILED {r['op']}: {'; '.join(r['mismatches'])}")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    for name, value in extra.get("uncalibrated", {}).items():
        print(f"  {name + ' (uncalibrated)':42s} {value:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
