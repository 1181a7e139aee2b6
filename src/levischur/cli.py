"""
Command-line front end.

Subcommands:

  verify     run the full verification suite for one shape
  dims       print per-layer orbit counts and algebra dimensions
  orbits     dump the orbit representatives per layer
  relations  run only the defining-relation suite (plus the boundary
             observations, which are reported and never gated)
  report     the same report as verify

The ``relations`` check reads ``hecke.relation_failures``, the cached
verdict on ``hecke.certified_instances`` and ``Degree.acts`` (relation
3.3 on each degree's table) that gate G1 reads too; the duality checks
read the verdicts of ``duality`` (``verify_first``, ``verify_second``,
``verify_layer_endos``, ``verify_faithful_layer_action`` per layer and
``layer_factors``), and ``commutation`` reads the first direction;
their ``instances`` and ``pairs`` are the counts the certificate
covers: every relation instance, and the Levi basis against every
``hecke_generators`` member.  ``commutation`` passes only when the
relations do in the same run.  The boundary check's ``observed`` holds
one record per layer 1 <= l < r, ``{"i": l, "permutations": l!,
"commuting": 0}``, a zero that G3 and relation 3.1a fix
(``hecke.boundary_observations``).
``cross_parity_conjugation`` compares the two parities' Levi
placements on the frame; no command builds a whole-space Levi matrix.

Exit codes: 0 all gated checks pass, 1 a gated check failed, 2 invalid
configuration, 3 size cap exceeded; the cap applies to every command
but ``orbits``, whose work is proportional to its output.  JSON goes to
stdout with sorted keys, as ``json.dumps(report, sort_keys=True,
indent=2)`` would print it, and every report, JSON or text, reaches
stdout in one write.  Wall-clock measurements live under a "timing"
key, so reports can be compared byte for byte after dropping it; for
``verify`` and ``report`` it also holds ``layers``, the size,
dimensions and seconds of every layer of the duality check (the first
read of its degree's verdicts, made before any other check), and how
the verdict on each of its two commutants was reached
(``schur_core.Degree.solves``): ``method`` is ``certified`` or names
the step that failed; ``commutant_D`` gives the signed orbits counted,
``commutant_levi`` whether the weight blocks passed and then either
the Specht modules that occur (``constituents``), when KS_l is
semisimple and the double centralizer theorem decides under the
character gates (``characters_failed`` when one fails), or, for
p <= l, the count's unknowns and prime and how many Chevalley elements
and basis matrices it stacked; the fields of the path not taken are
null.  A dimension in ``dims`` is null unless the verdicts of every
requested parity fix it (``_dims``, shared with the ``dims`` command);
``timing.layers`` keeps each parity's own.  ``dims`` fails with a
``d_certificate`` check naming a gate of ``layer_factors`` that fails
at a requested parity, and with a ``converse`` check naming the
degrees whose converse fails.  Runs over a prime field are labelled
informative; the rationals are authoritative.  The records of
``orbits`` go through one JSON template per degree, which ``_json``
spells (``_encode_orbits``).

A plain command line is read by ``_plain_args``, which returns what
argparse would; ``build_parser``, the argparse parser of record, reads
every other one (help, abbreviations, ``=`` forms and every malformed
line), so its messages and exit codes are argparse's own.
"""

from __future__ import annotations

import gc
import sys
import time
from _json import encode_basestring_ascii
from collections import namedtuple

from . import combinatorics as comb
from . import enhanced_core as enh
from . import hecke
from .combinatorics import Shape
from .duality import (
    layer_factors,
    verify_faithful_layer_action,
    verify_first,
    verify_layer_endos,
    verify_second,
)
from .linalg import (
    DEFAULT_SIZE_CAP,
    SizeCapExceeded,
    check_power_cap,
    parse_field,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_SIZE_CAP = 3


class RunConfig(namedtuple(
        "RunConfig", "m n r vparity field command output size_cap",
        defaults=("both", "q", "verify", "text", DEFAULT_SIZE_CAP))):
    """``vparity`` is even, odd or both; ``field`` q or p:<odd prime>;
    ``output`` text or json."""

    __slots__ = ()

    def shapes(self) -> list[Shape]:
        field = parse_field(self.field)
        parities = {"even": (0,), "odd": (1,), "both": (0, 1)}[self.vparity]
        return [
            Shape(self.m, self.n, self.r, vp, field) for vp in parities
        ]

    def validate(self) -> None:
        """Checks what neither ``Shape`` nor the parser checks."""
        parse_field(self.field)
        if self.size_cap < 1:
            raise ValueError("size cap must be positive")


def _check(name: str, vparity: int, passed: bool, gated: bool, **details):
    entry = {
        "name": name,
        "vparity": vparity,
        "passed": bool(passed),
        "gated": bool(gated),
    }
    if details:
        entry["details"] = details
    return entry


def _relation_checks(shape: Shape) -> list[dict]:
    """Read ``hecke.relation_failures``: ``failed`` names the failing
    families, and ``instances`` counts every instance covered."""
    failures = hecke.relation_failures(shape)
    return [
        _check(
            "relations", shape.vparity, not failures, True,
            instances=hecke.relation_count(shape.r), failed=sorted(failures),
        ),
        _check(
            "boundary_swap_layer_commutation", shape.vparity,
            True, False,
            observed=[
                {"i": l, "permutations": count, "commuting": commuting}
                for l, count, commuting in hecke.boundary_observations(shape)
            ],
        ),
    ]


def _commutation_check(shape: Shape, relations_hold: bool,
                       size_cap: int) -> dict:
    """The Levi basis against every ``hecke_generators`` member, read from
    the first direction: under its gates and ``Degree.certified`` the
    Levi span is C(D), so it commutes with all of D.  ``pairs`` counts
    the pairs that verdict covers; ``failed`` is 0 under it, and None
    when no verdict fixes it."""
    holds = verify_first(shape, size_cap).holds
    labels = sum(x.labels for x in layer_factors(shape, size_cap).layers)
    details = {"pairs": labels * hecke.generator_count(shape.r),
               "failed": 0 if holds else None}
    if not relations_hold:
        details["relations_certified"] = False
    return _check("commutation", shape.vparity, holds and relations_hold,
                  True, **details)


def _duality_checks(shape: Shape, size_cap: int) -> list[dict]:
    first = verify_first(shape, size_cap)
    second = verify_second(shape, size_cap)
    endos = verify_layer_endos(shape, size_cap)
    faithful = [verify_faithful_layer_action(shape, l, size_cap)
                for l in range(1, shape.r + 1)]
    return [
        _check(
            "first_duality", shape.vparity, first.holds, True,
            dim_levi=first.dim_levi, dim_commutant_D=first.dim_commutant_D,
        ),
        _check(
            "second_duality_containment", shape.vparity,
            second.containment_holds, True,
        ),
        _check(
            "second_duality", shape.vparity,
            second.spans_equal, second.gated,
            dim_D=second.dim_D, dim_commutant_levi=second.dim_commutant_levi,
            observed_only=not second.gated,
        ),
        # (4) of ``duality._levi_transport``: the rank is fixed with dim_levi
        _check(
            "faithfulness_rank", shape.vparity,
            first.dim_levi is not None, True,
            dim_levi=first.dim_levi,
        ),
        _check(
            "faithful_layer_action", shape.vparity,
            all(faithful), True,
            layers=faithful,
        ),
        _check(
            "layer_decomposition", shape.vparity,
            endos.holds, True,
            per_layer=list(endos.per_layer_equal),
            # True, or the name of the gate that failed
            sum_matches=layer_factors(shape, size_cap).failed_gate or True,
        ),
    ]


def _fixed(*values: int | None) -> int | None:
    """The dimension that every requested parity's verdict fixes, or None
    when one of them fixes none; fixed dimensions agree across parities."""
    return None if None in values else values[0]


def _dims(cfg: RunConfig) -> dict:
    """The ``dims`` that ``verify`` and ``dims`` share: ``levi`` and
    ``d_algebra`` read from ``verify_first`` and ``verify_second`` at
    every requested parity, and ``per_layer_orbits`` from the
    ``LayerFactor.labels`` of degrees 0..r, which no parity changes."""
    shapes = cfg.shapes()
    return {
        "ambient": shapes[0].dim_enhanced,
        "levi": _fixed(*[verify_first(sh, cfg.size_cap).dim_levi
                         for sh in shapes]),
        "d_algebra": _fixed(*[verify_second(sh, cfg.size_cap).dim_D
                              for sh in shapes]),
        "per_layer_orbits": [x.labels for x in
                             layer_factors(shapes[0], cfg.size_cap).layers],
    }


def _layer_timing(shape: Shape, size_cap: int) -> list[dict]:
    """Per-layer block sizes, dimensions and seconds of the duality."""
    return [
        {
            "vparity": shape.vparity,
            "layer": x.layer,
            "block_size": x.block_size,
            "dim_D": x.dim_D,
            "dim_commutant_D": x.dim_commutant_pi,
            "dim_commutant_levi": x.dim_commutant_levi,
            "seconds": round(x.seconds, 6),
            "solves": {"commutant_D": x.solves["commutant_pi"],
                       "commutant_levi": x.solves["commutant_schur"]},
        }
        for x in layer_factors(shape, size_cap).layers
    ]


def _cross_parity_check(cfg: RunConfig) -> dict:
    """The two Levi representations are conjugate by the diagonal sign
    matrix ``enh.parity_flip_conjugator`` F (the swap generators are
    genuinely different operators across parities, so no global
    conjugation exists; see enhanced_core).

    Read on the frame: ``rho_levi(b)`` puts entry (k, t) of
    ``xi_matrix(b.pair)`` at (pos_S[k], pos_S[t]) times
    (-1)^(tw_S[k] + tw_S[t]) on every support S, from ``enh._placements``,
    and xi does not read the parity.  So F rho_0(b) F = rho_1(b) for
    every b when, on every support, the positions of the two parities
    agree and their twists differ at each word by F's exponent there.
    O(dim_enhanced); no Levi matrix is built."""
    sh0, sh1 = cfg.shapes()
    flip = enh.flip_exponents(sh0)
    ok = all(
        pos0 == pos1
        and all(a ^ b == flip[p] for p, a, b in zip(pos0, tw0, tw1))
        for l in range(cfg.r + 1)
        for (pos0, tw0), (pos1, tw1) in zip(enh._placements(l, sh0),
                                            enh._placements(l, sh1)))
    return _check("cross_parity_conjugation", -1, ok, True)


def _base_report(cfg: RunConfig) -> dict:
    return {
        "shape": {"m": cfg.m, "n": cfg.n, "r": cfg.r},
        "field": cfg.field,
        "field_authoritative": cfg.field == "q",
        "vparity": cfg.vparity,
    }


def _finish(report: dict, checks: list[dict], t0: float, **timing):
    """Add the checks, the verdict and the timing; return the status."""
    report["checks"] = checks
    report["pass"] = all(c["passed"] for c in checks if c["gated"])
    report["timing"] = {"seconds": round(time.perf_counter() - t0, 6),
                        **timing}
    return report, EXIT_OK if report["pass"] else EXIT_CHECK_FAILED


def cmd_verify(cfg: RunConfig) -> tuple[dict, int]:
    t0 = time.perf_counter()
    report = _base_report(cfg)
    checks: list[dict] = []
    layers: list[dict] = []
    for shape in cfg.shapes():
        # the layers first: the relation checks would force every
        # degree's actions before the clock of ``timing.layers`` starts
        layer_factors(shape, cfg.size_cap)
        relations = _relation_checks(shape)
        checks.extend(relations)
        checks.append(_commutation_check(shape, relations[0]["passed"],
                                         cfg.size_cap))
        checks.extend(_duality_checks(shape, cfg.size_cap))
        layers.extend(_layer_timing(shape, cfg.size_cap))
    if cfg.vparity == "both":
        checks.append(_cross_parity_check(cfg))
    endos = [verify_layer_endos(sh, cfg.size_cap).per_layer_dims
             for sh in cfg.shapes()]
    report["dims"] = {
        **_dims(cfg),
        "per_layer_endos": [_fixed(*layer) for layer in zip(*endos)],
    }
    return _finish(report, checks, t0, layers=layers)


def cmd_dims(cfg: RunConfig) -> tuple[dict, int]:
    t0 = time.perf_counter()
    report = _base_report(cfg)
    shape = cfg.shapes()[0]
    dims = report["dims"] = _dims(cfg)
    dims["per_layer_orbits"] = {
        str(l): c for l, c in enumerate(dims["per_layer_orbits"]) if l}
    # the gates at every requested parity; a converse reads no parity
    gates = [(sh.vparity, layer_factors(sh, cfg.size_cap).failed_gate)
             for sh in cfg.shapes()]
    checks = [_check("d_certificate", vp, False, True, gate=gate)
              for vp, gate in gates if gate is not None]
    failed = [x.layer for x in layer_factors(shape, cfg.size_cap).layers
              if not x.converse]
    if failed:
        checks.append(_check("converse", -1, False, True, layers=failed))
    return _finish(report, checks, t0)


def cmd_orbits(cfg: RunConfig) -> tuple[dict, int]:
    t0 = time.perf_counter()
    report = _base_report(cfg)
    shape = cfg.shapes()[0]
    layers = {}
    for l in range(shape.r + 1):
        layers[str(l)] = [
            {"row": row, "col": col}
            for row, col in comb.orbit_reps(shape, l)
        ]
    report["orbits"] = layers
    return _finish(report, [], t0)


def cmd_relations(cfg: RunConfig) -> tuple[dict, int]:
    t0 = time.perf_counter()
    report = _base_report(cfg)
    checks: list[dict] = []
    for shape in cfg.shapes():
        checks.extend(_relation_checks(shape))
    return _finish(report, checks, t0)


_COMMANDS = {
    "verify": cmd_verify,
    "dims": cmd_dims,
    "orbits": cmd_orbits,
    "relations": cmd_relations,
    "report": cmd_verify,
}


_INF = float("inf")


def _scalar(x) -> str:
    """A JSON scalar as ``json.dumps`` spells it: strings through the C
    escaper that ``json.encoder`` uses, ``float.__repr__`` for finite
    floats, and ``NaN``, ``Infinity``, ``true``, ``false``, ``null``."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == _INF:
            return "Infinity"
        if x == -_INF:
            return "-Infinity"
        return float.__repr__(x)
    raise TypeError(
        f"Object of type {type(x).__name__} is not JSON serializable")


class _Encoded(str):
    """JSON text that ``_json`` writes as it stands."""

    __slots__ = ()


def _json(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, built by joins.

    ``pad`` is the newline and indentation that precede ``obj``'s
    closing bracket.  Dict keys are strings, as in every report.  An
    ``int`` (not a ``bool``) is ``str(x)``, and an ``_Encoded`` is
    itself; every other scalar goes through ``_scalar``, which spells
    floats, ``true``/``false``, ``null`` and string escapes as the
    stdlib does.  Tuples encode as lists.
    """
    if type(obj) is int:
        return str(obj)
    if type(obj) is _Encoded:
        return obj
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + sep.join([
            encode_basestring_ascii(k) + ": " + _json(obj[k], inner)
            for k in sorted(obj)]) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + sep.join([
            str(x) if type(x) is int else _json(x, inner)
            for x in obj]) + pad + "]"
    return _scalar(obj)


def _encode_orbits(report: dict) -> dict:
    """The ``orbits`` report with each degree's list already
    ``_Encoded``, so that ``_json`` of it prints ``_json(report)``.

    A degree's records differ only in their ints, so its list is one
    ``%`` template: ``_json`` of a record of ``-1``s, at the records'
    indent (report, ``orbits``, degree, record), with each ``-1`` made
    ``%d``, and ``_json`` of the list of as many copies.  ``_json``
    visits a record's keys sorted, so the records' values, concatenated
    in that order, fill the slots."""
    pad = "\n    "
    layers = {}
    for l, reps in report["orbits"].items():
        first, second = keys = sorted(reps[0])
        slots = _json(dict.fromkeys(keys, (-1,) * int(l)), pad + "  ")
        record = _Encoded(slots.replace("-1", "%d"))
        template = _json([record] * len(reps), pad)
        layers[l] = _Encoded(template % tuple([
            x for rep in reps for x in rep[first] + rep[second]]))
    return {**report, "orbits": layers}


def _text(report: dict) -> str:
    """The text output: a header, the dims, the orbit representatives,
    one line per check and the verdict."""
    shape = report["shape"]
    lines = [
        f"shape ({shape['m']}|{shape['n']},{shape['r']}) "
        f"field={report['field']} vparity={report['vparity']}"
    ]
    if "dims" in report and report["dims"]:
        for key in sorted(report["dims"]):
            lines.append(f"  dim {key} = {report['dims'][key]}")
    if "orbits" in report:
        for l in sorted(report["orbits"], key=int):
            reps = report["orbits"][l]
            lines.append(f"  layer {l}: {len(reps)} representatives")
            lines.extend([f"    {rep['row']} | {rep['col']}"
                          for rep in reps])
    for c in report.get("checks", []):
        status = "PASS" if c["passed"] else "FAIL"
        gate = "" if c["gated"] else " (observed, not gated)"
        vp = "" if c["vparity"] < 0 else f" [vparity {c['vparity']}]"
        lines.append(f"  {status} {c['name']}{vp}{gate}")
    lines.append(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return "\n".join(lines)


# each option's dest; int, its choices, or None for any string; help
_OPTIONS = {
    "--m": ("m", int, "number of even basis vectors (>= 1)"),
    "--n": ("n", int, "number of odd basis vectors (>= 0)"),
    "--r": ("r", int, "tensor degree (>= 1)"),
    "--vparity": ("vparity", ("even", "odd", "both"), None),
    "--field": ("field", None,
                "q for rationals, p:<odd prime> for a prime field"),
    "--output": ("output", ("text", "json"), None),
    "--size-cap": ("size_cap", int, "largest allowed ambient dimension"),
}


def _defaults() -> dict:
    """``RunConfig``'s defaults of the options, the one source of each."""
    return {k: v for k, v in RunConfig._field_defaults.items()
            if k != "command"}


def build_parser():
    """The ``argparse`` parser of record; ``main`` builds it only for a
    command line that ``_plain_args`` declines."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="levischur",
        description=(
            "Exact verification of the double centralizer on the "
            "enhanced tensor superspace."
        ),
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    for flag, (dest, kind, text) in _OPTIONS.items():
        parser.add_argument(
            flag, type=int if kind is int else None,
            choices=kind if isinstance(kind, tuple) else None,
            required=dest not in RunConfig._field_defaults, help=text)
    parser.set_defaults(**_defaults())
    return parser


def _plain_args(argv: list[str]) -> dict | None:
    """``vars(build_parser().parse_args(argv))`` for a plain command line,
    without building the parser, and None for any other.

    Plain: the command once, anywhere; every option spelled in full,
    apart from its value, the required ones present; no value starting
    with ``-``; every integer in at most 18 ASCII digits; every choice
    valid.  Help, abbreviations, ``=`` forms and every malformed line
    are left to argparse, with its messages and exit codes."""
    args = _defaults()
    tokens = iter(argv)
    for tok in tokens:
        if tok not in _OPTIONS:
            if tok not in _COMMANDS or "command" in args:
                return None
            args["command"] = tok
            continue
        val, (dest, kind, _help) = next(tokens, "-"), _OPTIONS[tok]
        if val.startswith("-"):
            return None
        if kind is int:
            if not (val.isascii() and val.isdigit() and len(val) <= 18):
                return None
            val = int(val)
        elif kind is not None and val not in kind:
            return None
        args[dest] = val
    return args if len(args) == 8 else None


def main(argv=None) -> int:
    """Run one command in this process and return its exit code."""
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    cfg = RunConfig(**args)
    try:
        cfg.validate()
        Shape(cfg.m, cfg.n, cfg.r)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        if cfg.command != "orbits":
            check_power_cap(cfg.m + cfg.n + 1, cfg.r, cfg.size_cap)
        report, status = _COMMANDS[cfg.command](cfg)
    except SizeCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    if cfg.output == "text":
        text = _text(report)
    else:
        text = _json(_encode_orbits(report) if "orbits" in report
                     else report)
    sys.stdout.write(text + "\n")
    return status


def run() -> None:
    """The process entry, for ``python -m levischur.cli`` and the
    ``levischur`` script: ``main()``, then exit with its status.

    ``gc.freeze()`` first moves every object the command built out of
    the collector's reach, so the collections at interpreter shutdown
    skip a heap about to be freed.  ``main`` never freezes: in a
    long-lived process a frozen heap would keep later cyclic garbage
    forever."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
