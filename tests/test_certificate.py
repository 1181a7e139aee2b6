"""The two verdicts on the classical commutants against elimination.

``schur_core.Degree`` reads C(Pi_l) off the signed orbits of the simple
transpositions, and ``certified`` decides C(Pi_l) = S(m|n,l) by checking
that every basis matrix is one of those orbits.  ``converse`` decides
C(S(m|n,l)) = Pi_l by the double centralizer theorem under the
character gates when KS_l is semisimple, over the rationals and GF(p)
with p > l, and for p <= l by a nullity count modulo p, on the
Chevalley elements and then the basis matrices, inside the weight
blocks.  The oracle here is ``linalg.commutant`` elimination on the
same generators, over the rationals and three prime fields, on a ladder
that reaches degrees l >= p.  Mutants check that a flipped basis entry,
a repeated basis matrix, a broken weight idempotent, a planted trace
and a missed count each fail their verdict, with ``solves`` naming the
step that failed, and make ``verify`` exit 1; a Chevalley miss is made
up by the basis matrices stacked after them.  With every echelon
refused, the semisimple path still prints its reports.
"""

import json
from fractions import Fraction

import pytest

import levischur
from levischur import cli, hecke, linalg, schur_core
from levischur import combinatorics as comb
from levischur import enhanced_core as enh
from levischur.combinatorics import Shape, adjacent_transposition
from levischur.linalg import (
    QQ,
    ExactMatrix,
    PrimeField,
    commutant,
    nullity_reaches,
)
from closed_forms import partitions
from oracles import CERTIFICATE_PRIME, group_span

FIELDS = [QQ, PrimeField(3), PrimeField(5), PrimeField(32003)]
LADDER = [(1, 1, l) for l in range(5)] + [(2, 1, l) for l in range(4)] + [
    (1, 2, 3), (2, 2, 2), (1, 0, 4), (3, 0, 3),
]


@pytest.fixture(autouse=True)
def fresh_caches():
    levischur.clear_caches()
    yield
    levischur.clear_caches()


def eliminated(deg):
    """Both commutants of a degree by elimination alone."""
    f = deg.shape.field
    simple = [schur_core.pi_matrix(adjacent_transposition(deg.l, i),
                                   deg.shape, deg.l)
              for i in range(1, deg.l)]
    basis = [ExactMatrix(f, deg.dim, deg.dim, x) for x in deg.xi.values()]
    return (commutant(simple, deg.dim, field=f, size_cap=deg.dim),
            commutant(basis, deg.dim, field=f, size_cap=deg.dim))


def verify_fails(shape):
    """``verify`` at ``shape``, even parity: it exits 1, and the layers'
    ``solves`` are returned under the keys of ``Degree.solves``."""
    report, status = cli.cmd_verify(cli.RunConfig(
        m=shape.m, n=shape.n, r=shape.r, vparity="even",
        field=shape.field.name))
    assert status == cli.EXIT_CHECK_FAILED
    return [{"commutant_pi": e["solves"]["commutant_D"],
             "commutant_schur": e["solves"]["commutant_levi"]}
            for e in report["timing"]["layers"]]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_certified_spans_match_elimination(field):
    ladder = LADDER + ([(1, 1, 5)] if field == PrimeField(5) else [])
    for m, n, l in ladder:
        deg = schur_core.degree(Shape(m, n, 1, 0, field), l)
        comm_pi, comm_schur = eliminated(deg)
        group = group_span(deg)
        assert deg.group == group.dimension
        assert deg.certified == (comm_pi == deg.schur)
        assert deg.converse == (comm_schur == group)
        assert deg.certified and deg.converse
        assert len(deg.orbits[0]) == comm_pi.dimension
        orbits, conflicts = deg.orbits
        assert deg.solves["commutant_pi"] == {
            "method": "certified", "orbits": len(orbits),
            "conflicts": conflicts}
        solve = deg.solves["commutant_schur"]
        p = field.p if isinstance(field, PrimeField) else None
        assert deg.semisimple == (p is None or p > l)
        if deg.semisimple:
            # the Specht modules of the (m|n)-hook occur (Berele-Regev)
            assert solve == {
                "method": "certified", "weights": True,
                "constituents": sum(len(lam) <= m or lam[m] <= n
                                    for lam in partitions(l)),
                "unknowns": None, "prime": None, "stacked": None}
            continue
        assert solve["prime"] == p and solve["weights"]
        assert solve["constituents"] is None
        assert solve["unknowns"] == sum(
            len(block) ** 2 for block in deg.weight_blocks)
        # the Chevalley elements meet dim Pi_l at every degree l >= p of
        # the ladder, in characteristic 3 and 5
        assert solve["method"] == "certified"
        assert solve["stacked"]["basis"] == 0


def flipped_entry(shape, l, pick):
    """``xi_entries`` with one entry negated: the first entry of the first
    degree-l basis matrix with more than one entry that ``pick`` accepts."""
    real = schur_core.xi_entries
    pair = next(p for p in schur_core.schur_basis(shape, l)
                if len(real(p, shape)) > 1 and pick(p))
    kt = next(iter(real(pair, shape)))

    def mutant(p, sh):
        entries = real(p, sh)
        if p != pair:
            return entries
        return {**entries, kt: -entries[kt]}
    return pair, mutant


ORBITS_FAILED = {"method": "orbits_failed", "weights": True,
                 "constituents": None, "unknowns": None, "prime": None,
                 "stacked": None}


def test_xi_sign_flip_fails_both_verdicts(monkeypatch):
    """A flipped entry of an off-diagonal basis matrix fails the orbit
    check, which elimination confirms; no count runs for C(S(m|n,l)),
    whose lower bound is gone."""
    shape = Shape(1, 1, 3)
    _pair, mutant = flipped_entry(shape, 3, lambda p: p[0] != p[1])
    monkeypatch.setattr(schur_core, "xi_entries", mutant)
    deg = schur_core.degree(shape, 3)
    assert deg.weight_blocks is not None
    assert not deg.certified and not deg.converse
    assert eliminated(deg)[0] != deg.schur
    orbits, conflicts = deg.orbits
    assert deg.solves == {
        "commutant_pi": {"method": "orbits_failed", "orbits": len(orbits),
                         "conflicts": conflicts},
        "commutant_schur": ORBITS_FAILED,
    }
    levischur.clear_caches()
    assert verify_fails(shape)[3] == deg.solves


def test_repeated_basis_matrix_fails_the_orbit_check(monkeypatch):
    """Two labels with one matrix: as many matrices as orbits, each one
    whole orbit, yet an orbit is left uncovered."""
    shape = Shape(1, 1, 2)
    real = schur_core.xi_entries
    first, second = schur_core.schur_basis(shape, 2)[:2]
    monkeypatch.setattr(schur_core, "xi_entries", lambda p, sh: real(
        first if p == second else p, sh))
    deg = schur_core.degree(shape, 2)
    assert len(deg.orbits[0]) == len(deg.xi)
    assert not deg.certified and not deg.converse
    assert eliminated(deg)[0] != deg.schur
    assert deg.solves["commutant_pi"]["method"] == "orbits_failed"
    assert deg.solves["commutant_schur"] == ORBITS_FAILED
    levischur.clear_caches()
    assert verify_fails(shape)[2] == deg.solves


def test_dropped_weight_entry_refuses_the_restriction(monkeypatch):
    """A diagonal basis matrix with an entry dropped is no longer a
    weight idempotent, nor one whole orbit: both verdicts fail, and
    ``solves`` names the orbit check and the refused weight blocks."""
    shape = Shape(2, 1, 3)
    real = schur_core.xi_entries
    pair = next(p for p in schur_core.schur_basis(shape, 3)
                if p[0] == p[1] and len(real(p, shape)) > 1)

    def mutant(p, sh):
        entries = real(p, sh)
        if p != pair:
            return entries
        entries.pop(min(entries))
        return entries

    monkeypatch.setattr(schur_core, "xi_entries", mutant)
    deg = schur_core.degree(shape, 3)
    assert deg.weight_blocks is None
    assert not deg.certified and not deg.converse
    assert eliminated(deg)[0] != deg.schur
    assert deg.solves["commutant_schur"] == dict(ORBITS_FAILED,
                                                 weights=False)
    levischur.clear_caches()
    assert verify_fails(shape)[3] == deg.solves


def test_negated_weight_idempotent_fails_the_converse(monkeypatch):
    """A diagonal basis matrix negated as a whole leaves S(m|n,l) and the
    orbit check as they are but is no 0/1 idempotent: the weight blocks
    are refused, and with them the converse, on no count at all."""
    shape = Shape(2, 1, 3)
    real = schur_core.xi_entries
    pair = next(p for p in schur_core.schur_basis(shape, 3) if p[0] == p[1])

    def mutant(p, sh):
        entries = real(p, sh)
        if p != pair:
            return entries
        return {kt: -v for kt, v in entries.items()}

    monkeypatch.setattr(schur_core, "xi_entries", mutant)
    deg = schur_core.degree(shape, 3)
    assert deg.certified and deg.weight_blocks is None
    assert not deg.converse
    assert deg.solves["commutant_pi"]["method"] == "certified"
    assert deg.solves["commutant_schur"] == dict(
        ORBITS_FAILED, method="weights_failed", weights=False)
    levischur.clear_caches()
    assert verify_fails(shape)[3] == deg.solves


# a shape over GF(p), and its degrees l >= p, where KS_l is not
# semisimple and the converse is a count
COUNTED = {
    PrimeField(3): ((2, 1, 4), (3, 4)),
    PrimeField(5): ((1, 1, 5), (5,)),
}


@pytest.mark.parametrize("field", list(COUNTED), ids=repr)
def test_forced_chevalley_miss_takes_the_fallback(field, monkeypatch):
    """With one Chevalley element only, the count misses on it and meets
    dim Pi_l on the basis matrices stacked after it: still one path, and
    the verdict elimination gives."""
    (m, n, _r), layers = COUNTED[field]
    shape = Shape(m, n, 1, 0, field)
    real = schur_core.Degree.chevalley.func
    monkeypatch.setattr(schur_core.Degree, "chevalley",
                        property(lambda self: real(self)[:1]))
    for l in layers:
        deg = schur_core.degree(shape, l)
        assert deg.converse and not deg.semisimple
        assert eliminated(deg)[1] == group_span(deg)
        assert deg.group == group_span(deg).dimension
        solve = deg.solves["commutant_schur"]
        assert solve["method"] == "certified"
        assert solve["stacked"]["chevalley"] == 1
        assert solve["stacked"]["basis"] > 0


@pytest.mark.parametrize("field", list(COUNTED), ids=repr)
def test_forced_count_miss_fails_the_converse(field, monkeypatch):
    """A count that never meets dim Pi_l fails the converse at the
    degrees l >= p alone; the semisimple degrees below take no count."""
    (m, n, r), _layers = COUNTED[field]
    shape = Shape(m, n, r, 0, field)

    def missing(gens, d, target, fld, unknowns=None):
        # one below the lower bound: the count can never reach it
        return nullity_reaches(gens, d, target - 1, fld, unknowns)

    monkeypatch.setattr(schur_core, "nullity_reaches", missing)
    methods = []
    for l in range(r + 1):
        deg = schur_core.degree(shape, l)
        # C(Pi_l) takes no count, so nothing misses there
        assert deg.certified
        assert deg.solves["commutant_pi"]["method"] == "certified"
        assert deg.converse == deg.semisimple == (l < field.p)
        methods.append(deg.solves["commutant_schur"]["method"])
        if l >= field.p:
            assert deg.solves["commutant_schur"] == {
                "method": "count_failed", "weights": True,
                "constituents": None, "prime": field.p,
                "unknowns": sum(len(block) ** 2
                                for block in deg.weight_blocks),
                "stacked": None}
    assert methods == ["certified"] * field.p + ["count_failed"] * (
        r + 1 - field.p)
    levischur.clear_caches()
    assert [s["commutant_schur"]["method"]
            for s in verify_fails(shape)] == methods


def refusing(what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{what} on the run path")
    return refuse


def planted_traces(l, plant):
    """The traces of a virtual character added to the true ones: the
    multiplicities move by ``plant``, a dict lambda -> delta, or the
    trace of the identity by one when ``plant`` is None."""
    if plant is None:
        return {(1,) * l: 1}
    table = comb.characters(l)
    return {mu: sum(delta * table[lam][mu] for lam, delta in plant.items())
            for mu in table}


# each breaks one character gate at degree 3 of (1|1,3), where the
# multiplicities of (3), (2,1), (1,1,1) are 2, 2, 2, f is 1, 2, 1, and
# 12 signed orbits are consistent
PLANTS = {
    "integral": None,                     # 3! m_lambda = 12 + f^lambda
    "non_negative": {(1, 1, 1): -3},      # m = 2, 2, -1
    "dimension": {(3,): 1},               # m = 3, 2, 2: sum m f = 9
    "orbits": {(3,): 2, (2, 1): -1},      # m = 4, 1, 2: sum m^2 = 21
}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
@pytest.mark.parametrize("gate", list(PLANTS))
def test_planted_trace_fails_the_character_gate(gate, field, monkeypatch):
    """A wrong trace at one degree fails that degree's converse on the
    character gate it breaks, and nothing else: ``solves`` names the
    gate, no count runs, and ``verify`` exits 1."""
    shape = Shape(1, 1, 3, 0, field)
    shift = planted_traces(3, PLANTS[gate])
    real = schur_core.Degree.traces.func

    def planted(self):
        traces = real(self)
        if self.l == 3:
            traces = {mu: t + shift.get(mu, 0) for mu, t in traces.items()}
        return traces

    monkeypatch.setattr(schur_core.Degree, "traces", property(planted))
    monkeypatch.setattr(schur_core, "nullity_reaches",
                        refusing("count on the semisimple path"))
    deg = schur_core.degree(shape, 3)
    assert deg.certified and deg.weight_blocks is not None
    assert not deg.converse
    mult = deg.multiplicities
    assert (mult is None) == (gate in ("integral", "non_negative"))
    assert deg.solves["commutant_schur"] == dict(
        ORBITS_FAILED, method="characters_failed",
        constituents=None if mult is None else sum(m > 0 for m, _f in mult))
    levischur.clear_caches()
    solves = verify_fails(shape)
    assert [s["commutant_schur"]["method"] for s in solves] == [
        "certified"] * 3 + ["characters_failed"]
    assert solves[3] == deg.solves


def test_run_path_eliminates_no_commutant(monkeypatch):
    """``verify``, ``dims``, ``report`` and ``relations`` pass over the
    ladder with ``linalg.commutant``, ``enh.levi_span``,
    ``linalg.span_of``, ``schur_core.pi_matrix``, the ``ExactMatrix``
    constructor and any ``Echelon`` over the rationals refusing to run:
    the verdicts alone decide, on signed maps and entry dicts, and every
    rank and count, at the degrees l >= p of a GF(p) run, is modulo p."""
    real_echelon = linalg.Echelon.__init__

    def prime_only(self, field):
        if not isinstance(field, PrimeField):
            raise AssertionError("rational elimination on the run path")
        real_echelon(self, field)

    for module in (levischur, linalg, schur_core, cli):
        monkeypatch.setattr(module, "commutant",
                            refusing("commutant eliminated"), raising=False)
    for module in (levischur, linalg, schur_core, enh, hecke):
        monkeypatch.setattr(module, "span_of", refusing("span_of"),
                            raising=False)
    monkeypatch.setattr(enh, "levi_span", refusing("Levi span built"))
    monkeypatch.setattr(schur_core, "pi_matrix", refusing("pi_matrix"))
    monkeypatch.setattr(ExactMatrix, "__init__", refusing("ExactMatrix"))
    monkeypatch.setattr(linalg.Echelon, "__init__", prime_only)
    for m, n, r in [(1, 1, 4), (2, 1, 3), (1, 2, 3), (2, 2, 2), (1, 0, 4),
                    (3, 0, 3)]:
        for field in ("q", "p:3", "p:5"):
            for command in (cli.cmd_verify, cli.cmd_dims,
                            cli._COMMANDS["report"], cli.cmd_relations):
                _report, status = command(cli.RunConfig(
                    m=m, n=n, r=r, vparity="both", field=field))
                assert status == cli.EXIT_OK
            levischur.clear_caches()


def test_semisimple_path_runs_no_elimination(monkeypatch, capsys):
    """Over the rationals and GF(32003) every degree's converse and
    dim Pi_l come from the characters: with ``Echelon``, ``rank_of_rows``
    and ``nullity_reaches`` refusing to run, ``verify``, ``dims`` and
    ``report`` at (1|1,4) and (2|1,3) print the JSON they print without
    the refusal, timing dropped.  (1|1,5) over GF(5) reaches the count,
    and the rank of Pi_l, at layer 5 = p alone."""
    def printed():
        out = []
        for m, n, r in [(1, 1, 4), (2, 1, 3)]:
            for field in ("q", "p:32003"):
                for command in ("verify", "dims", "report"):
                    status = cli.main([
                        command, "--m", str(m), "--n", str(n), "--r", str(r),
                        "--field", field, "--output", "json"])
                    report = json.loads(capsys.readouterr().out)
                    report.pop("timing")
                    out.append((status, report))
                levischur.clear_caches()
        return out

    expected = printed()
    assert {status for status, _report in expected} == {cli.EXIT_OK}
    with monkeypatch.context() as mp:
        mp.setattr(linalg.Echelon, "__init__", refusing("an echelon"))
        mp.setattr(schur_core, "rank_of_rows", refusing("a rank"))
        mp.setattr(schur_core, "nullity_reaches", refusing("a count"))
        assert printed() == expected

    counted, ranked = [], []

    def count(gens, d, target, field, unknowns=None):
        counted.append(d)
        return nullity_reaches(gens, d, target, field, unknowns)

    def rank(rows, field):
        rows = list(rows)
        ranked.append(len(rows))
        return linalg.rank_of_rows(rows, field)

    monkeypatch.setattr(schur_core, "nullity_reaches", count)
    monkeypatch.setattr(schur_core, "rank_of_rows", rank)
    _report, status = cli.cmd_verify(cli.RunConfig(
        m=1, n=1, r=5, vparity="even", field="p:5"))
    assert status == cli.EXIT_OK
    assert (counted, ranked) == ([2 ** 5], [120])


def test_each_degree_builds_its_signed_action_once(monkeypatch):
    """``verify --vparity both`` at (1|0,5) calls ``signed_action`` once
    per permutation of each degree, sum_l l! = 154 times, for both
    parities and every reader of the action; the generator-map cache
    then holds the swap maps alone."""
    calls = []
    real = schur_core.signed_action

    def counting(w, shape):
        calls.append(w)
        return real(w, shape)

    monkeypatch.setattr(schur_core, "signed_action", counting)
    r = 5
    _report, status = cli.cmd_verify(cli.RunConfig(m=1, n=0, r=r,
                                                   vparity="both"))
    assert status == cli.EXIT_OK
    assert len(calls) == len(set(calls)) == 154
    assert hecke._swap_map.cache_info().currsize <= 2 * (r - 1)


def test_count_reports_prime_and_generators_stacked():
    deg = schur_core.degree(Shape(1, 1, 1), 4)
    mats = list(deg.xi.values())
    target = deg.group
    gf = PrimeField(CERTIFICATE_PRIME)
    stacked = nullity_reaches(mats, deg.dim, target, gf)
    assert 0 < stacked <= len(mats)
    assert nullity_reaches(mats, deg.dim, target - 1, gf) is None
    # no generators: the count is d^2 at once, or the unknowns left
    assert nullity_reaches([], 3, 9, gf) == 0
    assert nullity_reaches([], 3, 8, gf) is None
    assert nullity_reaches([], 3, 2, gf, {0, 4}) == 0
    # inside the weight blocks the count meets dim Pi_4 on the Chevalley
    # elements E_12 and E_21 alone
    unknowns = {a * deg.dim + b for block in deg.weight_blocks
                for a in block for b in block}
    assert len(unknowns) == 70
    assert nullity_reaches(deg.chevalley, deg.dim, target, gf,
                           unknowns) == 2
    assert nullity_reaches(deg.chevalley, deg.dim, target, gf) is None
    # the converse reports the prime of the field it counted over
    counted = schur_core.degree(Shape(1, 1, 1, 0, PrimeField(3)), 4)
    assert counted.converse
    assert counted.solves["commutant_schur"]["prime"] == 3


def test_non_integer_entry_never_takes_the_modular_path(monkeypatch):
    half = {(0, 1): Fraction(1, 2)}
    gf = PrimeField(CERTIFICATE_PRIME)
    # a target the count meets before stacking anything still fails
    assert nullity_reaches([half], 2, 4, gf) is None

    def refuse(*args, **kwargs):
        raise AssertionError("modular count on a non-integer entry")

    monkeypatch.setattr(linalg, "Echelon", refuse)
    assert nullity_reaches([half], 2, 2, gf) is None
