"""Command-line interface: exit codes, JSON schema, determinism."""

import gc
import json
import os
import random
import subprocess
import sys
import time
from enum import IntEnum
from pathlib import Path

import pytest

import levischur
from levischur import hecke, schur_core
from levischur.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_SIZE_CAP,
    RunConfig,
    _json,
    build_parser,
    cmd_dims,
    cmd_orbits,
    cmd_relations,
    cmd_verify,
    main,
)
from test_combinatorics import monomial_count

TOP_KEYS = {
    "shape",
    "field",
    "field_authoritative",
    "vparity",
    "dims",
    "checks",
    "pass",
    "timing",
}


# Reports with ``timing`` dropped, written when every relation instance
# was enumerated and every generator tested for commutation, then folded
# to one check record per verdict; the certified checks must reproduce
# them byte for byte.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "verify_1_1_4": ["verify", "--m", "1", "--n", "1", "--r", "4"],
    "verify_2_1_3": ["verify", "--m", "2", "--n", "1", "--r", "3"],
    "relations_1_0_5": ["relations", "--m", "1", "--n", "0", "--r", "5"],
    "dims_1_1_4": ["dims", "--m", "1", "--n", "1", "--r", "4"],
    # the rest of the benchmark's operations; orbits (2|2,4) is 609 KB,
    # and BYTE_RUNS covers orbits
    "verify_1_2_3": ["verify", "--m", "1", "--n", "2", "--r", "3"],
    "verify_2_1_3_p32003": ["verify", "--m", "2", "--n", "1", "--r", "3",
                            "--field", "p:32003"],
    "relations_1_1_4": ["relations", "--m", "1", "--n", "1", "--r", "4"],
}


def run_main(capsys, argv):
    status = main(argv)
    out, err = capsys.readouterr()
    return status, out, err


def test_verify_exit_ok(capsys):
    status, out, _ = run_main(
        capsys, ["verify", "--m", "1", "--n", "1", "--r", "2"]
    )
    assert status == EXIT_OK
    assert "overall: PASS" in out


def test_cold_import_loads_no_dataclasses():
    """``import levischur.cli`` in a bare interpreter (``-S``, so no site
    hook imports anything) loads neither ``dataclasses`` nor ``inspect``,
    which together cost more at start-up than a small ``verify``, nor
    the ``json`` package: reports are encoded with ``_json``'s string
    escaper alone.  The probe imports no ``json`` itself."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, levischur.cli; print(' '.join(sorted("
             "{'dataclasses', 'inspect', 'json'} & set(sys.modules))))")
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out == "\n"


def test_cold_import_loads_no_typing():
    """``import levischur.cli`` loads no ``typing``: the records are
    ``collections.namedtuple``s and the abstract types come from
    ``collections.abc``.  ``-S`` keeps out the site hooks, which may
    import ``typing`` themselves."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import levischur.cli, sys; sys.exit('typing' in sys.modules)"
    assert subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
    ).returncode == 0


# what the standard library loads for ``Fraction`` and for ``argparse``
RUN_PATH_SHEDS = {"fractions", "decimal", "numbers", "argparse", "gettext",
                  "locale"}


def test_cold_commands_load_no_fractions_or_argparse():
    """A ``verify`` over the rationals and a ``dims``, run by ``main`` in
    a bare interpreter, load none of ``RUN_PATH_SHEDS``: the converse is
    decided on integer characters, with no count or rank, and a plain
    command line is read without building the argparse parser."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import io, sys, levischur.cli as cli\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "codes = [cli.main(['verify', '--m', '1', '--n', '2', '--r', '3',"
        " '--output', 'json']), cli.main(['dims', '--m', '1', '--n', '1',"
        " '--r', '4', '--output', 'json'])]\n"
        "sys.stdout = out\n"
        f"print(codes, sorted(set({sorted(RUN_PATH_SHEDS)!r})"
        " & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True,
        text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    ).stdout
    assert out == "[0, 0] []\n"


def test_missing_flag_still_goes_through_argparse(monkeypatch):
    """A command line without ``--r`` loads argparse, which prints its
    usage and the missing flag to stderr and exits 2."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        "import sys, levischur.cli as cli\n"
        "try:\n"
        "    cli.main(['verify', '--m', '1', '--n', '1'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'argparse' in sys.modules)\n"
    )
    monkeypatch.setenv("COLUMNS", "80")
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert child.stdout == "2 True\n"
    assert child.stderr == build_parser().format_usage() + (
        "levischur: error: the following arguments are required: --r\n")


def test_help_prints_argparse_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out == build_parser().format_help() and err == ""
    assert out.startswith("usage: levischur [-h] --m M --n N --r R")


def test_invalid_config_exit_2(capsys):
    status, _, err = run_main(
        capsys, ["verify", "--m", "0", "--n", "1", "--r", "2"]
    )
    assert status == EXIT_BAD_CONFIG
    assert "error" in err


def test_bad_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "1", "--n", "1"])
    assert exc.value.code == 2


ENTRY_RUNS = [
    ([cmd, "--m", "1", "--n", "1", "--r", "3", "--output", "json"], EXIT_OK)
    for cmd in ("verify", "dims", "orbits", "relations")
] + [
    (["verify", "--m", "1", "--n", "1", "--r", "3"], EXIT_OK),
    # read by argparse: an = form and help
    (["verify", "--m=1", "--n", "1", "--r", "3"], EXIT_OK),
    (["--help"], EXIT_OK),
    (["verify", "--m", "0", "--n", "1", "--r", "2"], EXIT_BAD_CONFIG),
    (["verify", "--m", "1", "--n", "1"], EXIT_BAD_CONFIG),
    (["verify", "--m", "1", "--n", "1", "--r", "3", "--size-cap", "0"],
     EXIT_BAD_CONFIG),
    (["verify", "--m", "2", "--n", "2", "--r", "4", "--output", "json"],
     EXIT_SIZE_CAP),
]


def without_seconds(out: str) -> str:
    return "".join(line for line in out.splitlines(keepends=True)
                   if '"seconds":' not in line)


@pytest.mark.parametrize("argv,expect", ENTRY_RUNS,
                         ids=[" ".join(argv) for argv, _ in ENTRY_RUNS])
def test_process_entry_matches_main(capsys, monkeypatch, argv, expect):
    """``python -m levischur.cli``, which exits through ``run``, prints
    what ``main`` prints in this process, ``seconds`` lines dropped, and
    exits with its status: 0, 2 for a bad shape or a missing flag, 3
    above the size cap.  argparse wraps its usage to ``COLUMNS``, pinned
    here for both processes."""
    monkeypatch.setenv("COLUMNS", "80")
    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run(
        [sys.executable, "-m", "levischur.cli", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    assert child.returncode == status == expect
    assert without_seconds(child.stdout) == without_seconds(out)
    assert child.stderr == err


def test_main_leaves_the_heap_unfrozen(capsys):
    """Only ``run`` freezes the heap: ``main`` serves long-lived
    processes, where frozen objects would never be collected."""
    before = gc.get_freeze_count()
    assert main(["verify", "--m", "1", "--n", "1", "--r", "2"]) == EXIT_OK
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_run_freezes_after_main_then_exits_with_its_status(monkeypatch):
    import levischur.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "main", lambda: calls.append("main") or 3)
    monkeypatch.setattr(cli_mod.gc, "freeze", lambda: calls.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli_mod.run()
    assert exc.value.code == 3
    assert calls == ["main", "freeze"]


def test_size_cap_exit_3(capsys):
    status, _, err = run_main(
        capsys, ["verify", "--m", "2", "--n", "2", "--r", "4"]
    )
    assert status == EXIT_SIZE_CAP
    assert "size cap" in err
    status, _, _ = run_main(
        capsys,
        ["verify", "--m", "1", "--n", "1", "--r", "2", "--size-cap", "4"],
    )
    assert status == EXIT_SIZE_CAP


def test_json_schema_and_determinism(capsys):
    argv = [
        "verify", "--m", "1", "--n", "1", "--r", "2", "--output", "json"
    ]
    status1, out1, _ = run_main(capsys, argv)
    status2, out2, _ = run_main(capsys, argv)
    assert status1 == status2 == EXIT_OK
    r1, r2 = json.loads(out1), json.loads(out2)
    assert set(r1) == TOP_KEYS
    for r in (r1, r2):
        del r["timing"]
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)
    assert r1["pass"] is True
    assert r1["field_authoritative"] is True
    assert r1["dims"]["levi"] == 13
    names = [c["name"] for c in r1["checks"]]
    assert "first_duality" in names
    assert "cross_parity_conjugation" in names


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_json_matches_golden_report(capsys, name):
    status, out, _ = run_main(capsys, GOLDEN_RUNS[name] + ["--output", "json"])
    assert status == EXIT_OK
    report = json.loads(out)
    del report["timing"]
    got = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert got == (GOLDEN / f"{name}.json").read_text()


def stdlib_json(out: str) -> str:
    """What ``json.dumps(sort_keys=True, indent=2)`` prints for ``out``."""
    return json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


BYTE_RUNS = [
    ["verify", "--m", "1", "--n", "1", "--r", "2"],
    ["verify", "--m", "2", "--n", "1", "--r", "2", "--vparity", "odd"],
    ["dims", "--m", "1", "--n", "1", "--r", "3"],
    ["orbits", "--m", "1", "--n", "1", "--r", "3"],
    # two-digit letters in the orbit templates' slots
    ["orbits", "--m", "6", "--n", "5", "--r", "2"],
    # degree keys that sort as strings: "0", "1", "10", "2", ...
    ["orbits", "--m", "1", "--n", "0", "--r", "10"],
    ["relations", "--m", "1", "--n", "0", "--r", "3"],
    ["report", "--m", "1", "--n", "1", "--r", "2", "--vparity", "even"],
]


@pytest.mark.parametrize("field", ["q", "p:32003"])
@pytest.mark.parametrize("argv", BYTE_RUNS, ids=lambda a: "-".join(a[::2]))
def test_json_output_is_stdlib_bytes(capsys, argv, field):
    """Every report prints as ``json.dumps(..., sort_keys=True,
    indent=2)`` would, ``timing`` floats included."""
    status, out, _ = run_main(
        capsys, argv + ["--field", field, "--output", "json"])
    assert status == EXIT_OK
    assert out == stdlib_json(out)


class Level(IntEnum):
    """An int subclass: ``json.dumps`` spells its members as ints."""

    HIGH = 7


JSON_EDGE_CASES = [
    {}, [], None, True, False, 0, -7, 10**30, 0.1, 1e-07, 2.5e+16, -0.0,
    float("inf"), "", "plain",
    {"a": {}, "b": [], "c": [{}, []], "d": {"e": {"f": []}}},
    [True, False, 1, -1, 0, -(2**70), None],
    [1e-07, 0.1, 2.5e+16, 1.0, -3.25, 1e300],
    ["caf\u00e9 \u2603 \U0001f600", "quote \" and \\ backslash",
     "\n\t\r\x00\x1f\x7f"],
    {"\u00e9": 1, "z": 2, "A": 3, "\"": 4, "\n": [None]},
    (1, (2, 3), ()),
    {"row": (1, 2), "col": (2, 1)},
    float("nan"), float("-inf"), Level.HIGH,
]


@pytest.mark.parametrize("obj", JSON_EDGE_CASES, ids=repr)
def test_json_encoder_matches_stdlib(obj):
    assert _json(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_json_encoder_refuses_what_stdlib_refuses():
    for encode in (_json, json.dumps):
        with pytest.raises(TypeError, match="not JSON serializable"):
            encode(object())


def _random_value(rng: random.Random, depth: int):
    """A random JSON value with string keys, nested ``depth`` deep."""
    kind = rng.randrange(7 if depth else 4)
    if kind == 0:
        return rng.randint(-10**20, 10**20)
    if kind == 1:
        return rng.choice([True, False, None])
    if kind == 2:
        return rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-12, 12)
    if kind == 3:
        return "".join(rng.choice("ab\"\\\n\u00e9\u2603 ")
                       for _ in range(rng.randrange(5)))
    if kind in (4, 5):
        return {f"k{rng.randrange(9)}": _random_value(rng, depth - 1)
                for _ in range(rng.randrange(4))}
    return [_random_value(rng, depth - 1) for _ in range(rng.randrange(4))]


def test_json_encoder_matches_stdlib_on_random_values():
    rng = random.Random(20221)
    for _ in range(300):
        obj = _random_value(rng, 4)
        assert _json(obj) == json.dumps(obj, sort_keys=True, indent=2)


class CountingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


@pytest.mark.parametrize("output", ["json", "text"])
def test_main_writes_each_report_once(monkeypatch, output):
    stub = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stub)
    status = main(["orbits", "--m", "1", "--n", "1", "--r", "2",
                   "--output", output])
    assert status == EXIT_OK
    [text] = stub.writes
    if output == "json":
        assert text == stdlib_json(text)
    else:
        assert text.endswith("overall: PASS\n")
        assert "  layer 2: 8 representatives\n" in text


def test_text_and_json_agree(capsys):
    cfg = RunConfig(m=1, n=1, r=2, vparity="even")
    report, status = cmd_verify(cfg)
    assert status == EXIT_OK
    _, outj, _ = run_main(
        capsys,
        ["verify", "--m", "1", "--n", "1", "--r", "2",
         "--vparity", "even", "--output", "json"],
    )
    parsed = json.loads(outj)
    assert parsed["pass"] == report["pass"]
    assert [c["name"] for c in parsed["checks"]] == [
        c["name"] for c in report["checks"]
    ]


@pytest.fixture
def fresh_caches():
    """The relation verdict is cached per shape: a test that patches
    what it reads starts and ends with empty caches."""
    levischur.clear_caches()
    yield
    levischur.clear_caches()


def test_second_duality_fails_beyond_m_plus_n(fresh_caches, monkeypatch):
    """The second direction decides the exit code at r > m+n too: with
    the converse of degree 3 refused at (1|1,3), ``verify`` exits 1 on
    ``second_duality`` alone, and no verdict fixes dim D."""
    real = schur_core.Degree.converse.func
    monkeypatch.setattr(schur_core.Degree, "converse", property(
        lambda self: real(self) and self.l != 3))
    report, status = cmd_verify(RunConfig(m=1, n=1, r=3, vparity="even"))
    assert status == EXIT_CHECK_FAILED and report["pass"] is False
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["second_duality"]
    assert failed[0]["details"]["per_layer"] == [True, True, True, False]
    assert report["dims"]["d_algebra"] is None


@pytest.mark.parametrize("m, n, r", [(1, 1, 2), (1, 1, 3), (2, 1, 3)])
def test_one_record_per_verdict(m, n, r):
    """Each parity of ``verify`` writes the four verdicts, at r <= m+n and
    beyond, and ``relations`` one record per parity."""
    verdicts = ["relations", "first_duality", "second_duality",
                "faithful_layer_action"]
    for vparity, parities in (("even", [0]), ("odd", [1]),
                              ("both", [0, 1])):
        cfg = RunConfig(m=m, n=n, r=r, vparity=vparity)
        report, status = cmd_verify(cfg)
        assert status == EXIT_OK
        want = [(name, vp) for vp in parities for name in verdicts]
        if vparity == "both":
            want.append(("cross_parity_conjugation", -1))
        assert [(c["name"], c["vparity"]) for c in report["checks"]] == want
        report, status = cmd_relations(cfg)
        assert status == EXIT_OK
        assert [(c["name"], c["vparity"]) for c in report["checks"]] == [
            ("relations", vp) for vp in parities]


def test_gated_failure_exit_1(fresh_caches, monkeypatch):
    import levischur.cli as cli_mod

    monkeypatch.setattr(
        cli_mod.hecke, "check_relation", lambda inst, shape: False
    )
    report, status = cmd_relations(RunConfig(m=1, n=1, r=2))
    assert status == EXIT_CHECK_FAILED
    assert report["pass"] is False
    # gate G1 reads the relation verdict, so the first direction, and
    # with it the commutation of its pairs, fails and fixes no dim_levi
    report, status = cmd_verify(RunConfig(m=1, n=1, r=2, vparity="even"))
    assert status == EXIT_CHECK_FAILED
    [first] = [c for c in report["checks"] if c["name"] == "first_duality"]
    assert first["passed"] is False
    assert first["details"] == {"dim_levi": None, "dim_commutant_D": 13,
                                "pairs": 13 * 5}


def test_layer_seconds_count_each_layers_own_work(fresh_caches,
                                                  monkeypatch):
    """``timing.layers`` times the first read of each degree's table of
    signed actions: with 2 ms added to every ``signed_action`` call, the
    layers' seconds sum to at least that much."""
    real, calls = schur_core.signed_action, []

    def slow(w, shape):
        calls.append(w)
        time.sleep(0.002)
        return real(w, shape)

    monkeypatch.setattr(schur_core, "signed_action", slow)
    report, status = cmd_verify(RunConfig(m=1, n=1, r=4, vparity="even"))
    assert status == EXIT_OK
    assert len(calls) == 34  # the 0! + 1! + ... + 4! permutations
    seconds = sum(x["seconds"] for x in report["timing"]["layers"])
    assert seconds >= 0.002 * len(calls)


def test_failing_json_output_is_stdlib_bytes(fresh_caches, monkeypatch,
                                             capsys):
    monkeypatch.setattr(hecke, "check_relation", lambda inst, shape: False)
    status, out, _ = run_main(
        capsys,
        ["verify", "--m", "1", "--n", "1", "--r", "2", "--output", "json"])
    assert status == EXIT_CHECK_FAILED
    assert json.loads(out)["pass"] is False
    assert out == stdlib_json(out)


def test_dims_certifies_every_requested_parity(fresh_caches, monkeypatch,
                                               capsys):
    """With G1 failing at vparity 1 alone, neither ``dims`` nor ``verify``
    reports a dimension that only vparity 0 fixes."""
    real = hecke.d_certificate
    monkeypatch.setattr(
        hecke, "d_certificate",
        lambda sh: "certificate" if sh.vparity == 1 else real(sh))
    argv = ["dims", "--m", "1", "--n", "1", "--r", "2", "--output", "json"]
    status, out, _ = run_main(capsys, argv + ["--vparity", "both"])
    assert status == EXIT_CHECK_FAILED
    report = json.loads(out)
    assert [(c["name"], c["vparity"], c["details"])
            for c in report["checks"]] == [
        ("d_certificate", 1, {"gate": "certificate"})]
    status, out, _ = run_main(
        capsys, ["verify"] + argv[1:] + ["--vparity", "both"])
    assert status == EXIT_CHECK_FAILED
    for dims in (report["dims"], json.loads(out)["dims"]):
        assert dims["levi"] is dims["d_algebra"] is None
    assert main(argv + ["--vparity", "even"]) == EXIT_OK


def test_failed_converse_leaves_dim_pi_unfixed(fresh_caches, monkeypatch,
                                              capsys):
    """When a planted trace fails the character gates of one degree, its
    converse fails, and that verdict alone fixes dim Pi_l: ``verify``
    reports the layer's dim_D and Levi commutant, and the totals, as
    null, and ``dims`` reports d_algebra as null with a failing
    ``converse`` check; both exit 1."""
    real = schur_core.Degree.traces.func

    def planted_at_degree_2(self):
        traces = real(self)
        if self.l == 2:
            traces[(1, 1)] += 1     # 2 m_lambda = 5 for both lambda
        return traces

    monkeypatch.setattr(schur_core.Degree, "traces",
                        property(planted_at_degree_2))
    argv = ["--m", "1", "--n", "1", "--r", "3", "--output", "json"]
    status, out, _ = run_main(capsys, ["verify", "--vparity", "even"] + argv)
    assert status == EXIT_CHECK_FAILED and out == stdlib_json(out)
    report = json.loads(out)
    [second] = [c for c in report["checks"] if c["name"] == "second_duality"]
    assert second["details"]["dim_D"] is None
    assert second["details"]["dim_commutant_levi"] is None
    assert report["dims"]["d_algebra"] is None
    assert report["dims"]["per_layer_endos"] == [1, 9, None, 6]
    assert [(e["dim_D"], e["dim_commutant_levi"])
            for e in report["timing"]["layers"]] == [
        (1, 1), (9, 9), (None, None), (6, 6)]
    status, out, _ = run_main(capsys, ["dims"] + argv)
    assert status == EXIT_CHECK_FAILED and out == stdlib_json(out)
    report = json.loads(out)
    assert report["dims"]["d_algebra"] is None
    assert report["checks"] == [{"name": "converse", "vparity": -1,
                                 "passed": False,
                                 "details": {"layers": [2]}}]


def test_dims_values():
    report, status = cmd_dims(RunConfig(m=2, n=1, r=1))
    assert status == EXIT_OK
    assert report["dims"]["levi"] == 10
    assert report["dims"]["per_layer_orbits"] == {"1": 9}
    report, _ = cmd_dims(RunConfig(m=1, n=1, r=1))
    assert report["dims"]["levi"] == 5
    report, _ = cmd_dims(RunConfig(m=1, n=1, r=2))
    assert report["dims"]["levi"] == 13
    assert report["dims"]["per_layer_orbits"] == {"1": 4, "2": 8}
    assert report["dims"]["ambient"] == 9


def test_orbits_command(capsys):
    report, status = cmd_orbits(RunConfig(m=1, n=1, r=2))
    assert status == EXIT_OK
    assert set(report["orbits"]) == {"0", "1", "2"}
    assert len(report["orbits"]["2"]) == 8
    status, out, _ = run_main(
        capsys, ["orbits", "--m", "1", "--n", "1", "--r", "2"]
    )
    assert status == EXIT_OK
    assert "8 representatives" in out


def test_orbits_text_matches_golden(capsys):
    """The text output of ``orbits``, which has no timing, is the
    golden file byte for byte."""
    status, out, _ = run_main(
        capsys, ["orbits", "--m", "1", "--n", "1", "--r", "3"])
    assert status == EXIT_OK
    assert out == (GOLDEN / "orbits_1_1_3.txt").read_text()


def test_orbits_ignores_size_cap(capsys):
    """Orbit work is proportional to the representatives printed, so
    ``orbits`` is the one command the size cap does not apply to."""
    status, out, _ = run_main(
        capsys,
        ["orbits", "--m", "2", "--n", "1", "--r", "5", "--size-cap", "1",
         "--output", "json"],
    )
    assert status == EXIT_OK
    orbits = json.loads(out)["orbits"]
    assert {l: len(reps) for l, reps in orbits.items()} == {
        str(l): monomial_count(2, 1, l) for l in range(6)
    }


def report_lists(obj, path=()):
    """Every list in a report, with the keys that lead to it."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from report_lists(value, path + (key,))
    elif isinstance(obj, list):
        yield path, obj
        for x in obj:
            yield from report_lists(x, path)


@pytest.mark.parametrize("m, n, r, field", [
    *[(1, 0, r, "q") for r in range(2, 8)],
    # the benchmark's verify and relations shapes
    (2, 1, 3, "q"), (1, 2, 3, "q"), (1, 1, 4, "q"), (2, 1, 3, "p:32003"),
])
def test_no_report_list_grows_with_the_group_or_the_space(m, n, r, field):
    """Under both parities every list in a ``verify`` or ``relations``
    report has at most 2(r+1) entries, the length of ``timing.layers``,
    so none grows with l! or d^2; ``checks`` holds one record per check
    and parity.  ``orbits`` is exempt: its output is the list."""
    bound = 2 * (r + 1)
    for command in (cmd_verify, cmd_relations):
        report, status = command(RunConfig(m=m, n=n, r=r, field=field))
        assert status == EXIT_OK
        checks = [(c["name"], c["vparity"]) for c in report["checks"]]
        assert len(set(checks)) == len(checks)
        lists = [(path, xs) for path, xs in report_lists(report)
                 if path != ("checks",)]
        if command is cmd_verify:
            assert ("checks", "details", "per_layer") in dict(lists)
        for path, xs in lists:
            assert len(xs) <= bound, (command.__name__, path, len(xs))
        if command is cmd_verify:
            assert len(report["timing"]["layers"]) == bound


def test_relations_command():
    report, status = cmd_relations(RunConfig(m=1, n=1, r=2))
    assert status == EXIT_OK
    assert [c["details"] for c in report["checks"]] == [
        {"failed": [], "instances": hecke.relation_count(2)}] * 2


def test_report_command(capsys):
    """``report`` prints the report of ``verify``, once timing is
    dropped, and with the same status."""
    printed = []
    for command in ("report", "verify"):
        status, out, _ = run_main(capsys, [
            command, "--m", "1", "--n", "1", "--r", "2", "--vparity", "odd",
            "--output", "json"])
        report = json.loads(out)
        del report["timing"]
        printed.append((status, report))
    assert printed[0] == printed[1]
    assert printed[0][0] == EXIT_OK


def test_prime_field_run_is_informative(capsys):
    status, out, _ = run_main(
        capsys,
        ["verify", "--m", "1", "--n", "1", "--r", "2",
         "--field", "p:5", "--output", "json"],
    )
    assert status == EXIT_OK
    parsed = json.loads(out)
    assert parsed["field_authoritative"] is False
    assert parsed["pass"] is True


def test_prime_field_validation(capsys):
    status, _, err = run_main(
        capsys,
        ["verify", "--m", "1", "--n", "1", "--r", "2", "--field", "p:4"],
    )
    assert status == EXIT_BAD_CONFIG


@pytest.mark.parametrize("spec", [
    "p:x", "p:", "p:+7", "p: 7", "p:7 ", "p:07", "p:0", "p:-7", "p:7.0",
    "p:\u0667", "P:7", "Q", "p7",
])
def test_field_spec_has_one_spelling(capsys, spec):
    """Only ``q`` and ``p:`` followed by ASCII digits with no sign, space
    or leading zero are accepted, so one field has one spelling in the
    report; everything else exits 2 without Python's parser text."""
    status, out, err = run_main(
        capsys,
        ["verify", "--m", "1", "--n", "1", "--r", "2", "--field", spec],
    )
    assert status == EXIT_BAD_CONFIG and not out
    assert err == f"error: unknown field spec {spec!r}\n"


def test_field_order_beyond_int_parsing_is_refused(capsys):
    status, _, err = run_main(
        capsys,
        ["dims", "--m", "1", "--n", "1", "--r", "2", "--field",
         "p:" + "1" * 5000],
    )
    assert status == EXIT_BAD_CONFIG
    assert err == "error: field order must be below 2**31\n"


def test_size_cap_refuses_huge_degree_at_once(capsys):
    """The guard stops multiplying once past the cap, so a degree whose
    ambient dimension has far more than 4300 digits is refused with one
    line, naming the dimension as a power."""
    status, out, err = run_main(
        capsys, ["dims", "--m", "1", "--n", "1", "--r", "100000"]
    )
    assert status == EXIT_SIZE_CAP
    assert not out
    assert err == "error: ambient dimension 3^100000 exceeds size cap 256\n"
    # a dimension formed in full is printed as before
    status, _, err = run_main(
        capsys, ["verify", "--m", "2", "--n", "2", "--r", "4"]
    )
    assert status == EXIT_SIZE_CAP
    assert err == "error: ambient dimension 625 exceeds size cap 256\n"


def test_prime_field_order_is_bounded(capsys):
    """Orders at or above 2**31 are refused before any primality test."""
    status, out, err = run_main(
        capsys,
        ["verify", "--m", "1", "--n", "1", "--r", "2",
         "--field", "p:1000000000000000003"],
    )
    assert status == EXIT_BAD_CONFIG
    assert not out
    assert err == "error: field order must be below 2**31\n"
    # the largest prime below the bound is accepted
    status, _, _ = run_main(
        capsys,
        ["dims", "--m", "1", "--n", "1", "--r", "2",
         "--field", "p:2147483647"],
    )
    assert status == EXIT_OK
