"""The characteristic-p ladder: ``verify`` over GF(3), GF(5) and GF(7)
against its run over the rationals, at (1|1,4), (2|1,3) and (1|2,3),
with (1|1,5) over GF(5), so that degrees l >= p are reached for p = 3
and p = 5.

The paper assumes char K != 2 only.  Every gate is exact on signed maps
and the count over GF(p) is exact, so a passing GF(p) run establishes
the double centralizer over the algebraic closure of GF(p).  Here every
dimension and every verdict ``verify`` reports equals its value over the
rationals, and each layer takes the same path: C(Pi_l) certified on the
signed orbits; C(S(m|n,l)) by the double centralizer theorem under the
same character gates as over the rationals when p > l, and for l >= p
by a count modulo p on the Chevalley elements alone, inside the weight
blocks.  (2|0,5) over GF(3) is the exception, and has a test of its
own.  Prime fields stay labelled informative.
"""

import pytest

import levischur
from levischur import cli, schur_core
from levischur.combinatorics import Shape

LADDER = [(m, n, r, (3, 5, 7)) for m, n, r in ((1, 1, 4), (2, 1, 3),
                                               (1, 2, 3))] + [
    (1, 1, 5, (5,))]


@pytest.fixture(scope="module", autouse=True)
def fresh_caches():
    levischur.clear_caches()
    yield
    levischur.clear_caches()


def run(m, n, r, field):
    report, status = cli.cmd_verify(cli.RunConfig(
        m=m, n=n, r=r, vparity="both", field=field))
    timing = report.pop("timing")
    labels = (report.pop("field"), report.pop("field_authoritative"))
    layers = [
        ({k: e[k] for k in ("vparity", "layer", "block_size", "dim_D",
                            "dim_commutant_D", "dim_commutant_levi")},
         e["solves"])
        for e in timing["layers"]
    ]
    return status, report, layers, labels


@pytest.mark.parametrize("m, n, r, primes", LADDER, ids=str)
def test_prime_fields_report_the_rational_dimensions(m, n, r, primes):
    status, report, layers, labels = run(m, n, r, "q")
    assert status == cli.EXIT_OK and labels == ("q", True)
    dims = [dims for dims, _solves in layers]
    for p in primes:
        status_p, report_p, layers_p, labels_p = run(m, n, r, f"p:{p}")
        assert labels_p == (f"p:{p}", False)
        assert (status_p, report_p) == (status, report)
        assert [d for d, _solves in layers_p] == dims
        for (dims_q, solves), (_dims_p, solves_p) in zip(layers, layers_p):
            assert solves_p["commutant_D"] == solves["commutant_D"]
            assert solves_p["commutant_D"]["method"] == "certified"
            levi, levi_p = solves["commutant_levi"], solves_p["commutant_levi"]
            assert levi["prime"] is None and levi["constituents"] > 0
            if dims_q["layer"] < p:
                assert levi_p == levi
                continue
            assert levi_p["prime"] == p and levi_p["constituents"] is None
            assert levi_p["method"] == "certified" and levi_p["weights"]
            assert levi_p["unknowns"] == sum(
                len(block) ** 2 for block in
                schur_core.degree(Shape(m, n, r), dims_q["layer"])
                .weight_blocks)
            assert levi_p["stacked"]["basis"] == 0


def test_divided_powers_stand_in_at_2_0_5_over_gf3():
    """(2|0,5) over GF(3) is the one shape under the size cap whose
    Chevalley count misses: at layer 5 >= p the divided powers E^{(k)}
    are not among the two Chevalley elements, and the count meets
    dim Pi_5 on 18 basis matrices stacked after them.  Layers 0 to 2,
    below p, take no count, layers 3 and 4 the Chevalley elements alone,
    and every dimension is the rationals'."""
    status, report, layers, _labels = run(2, 0, 5, "q")
    status_p, report_p, layers_p, _labels_p = run(2, 0, 5, "p:3")
    assert status == status_p == cli.EXIT_OK
    assert report_p["dims"]["d_algebra"] == 1118
    assert report_p["dims"]["per_layer_endos"] == [1, 25, 200, 500, 350, 42]
    assert report_p == report
    assert [d for d, _solves in layers_p] == [d for d, _solves in layers]
    for dims, solves in layers_p:
        stacked = solves["commutant_levi"]["stacked"]
        assert solves["commutant_levi"]["method"] == "certified"
        if dims["layer"] == 5:
            assert stacked == {"chevalley": 2, "basis": 18}
        elif dims["layer"] >= 3:
            assert stacked["basis"] == 0
        else:
            assert stacked is None
