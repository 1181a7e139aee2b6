"""``verify``, ``dims`` and ``Degree.group`` against closed-form
dimensions."""

import pytest

import levischur
from closed_forms import d_dim, d_layer_dims, hook_sum, levi_layer_counts
from levischur import schur_core
from levischur.cli import EXIT_OK, RunConfig, cmd_dims, cmd_verify
from levischur.combinatorics import Shape
from levischur.linalg import QQ, PrimeField


@pytest.fixture(autouse=True)
def fresh_caches():
    levischur.clear_caches()
    yield
    levischur.clear_caches()


@pytest.mark.parametrize("m,n,r", [
    (1, 1, 2), (2, 1, 3), (1, 2, 3), (2, 2, 2), (1, 0, 4), (1, 1, 4),
])
def test_verify_matches_closed_forms(m, n, r):
    report, status = cmd_verify(RunConfig(m=m, n=n, r=r))
    assert status == EXIT_OK
    dims = report["dims"]
    orbits = levi_layer_counts(m, n, r)
    assert dims["levi"] == sum(orbits)
    assert dims["per_layer_orbits"] == orbits
    assert dims["d_algebra"] == d_dim(m, n, r)
    # over the rationals C(L_l) = D_l at every degree
    assert dims["per_layer_endos"] == d_layer_dims(m, n, r)
    layers = report["timing"]["layers"]
    assert len(layers) == 2 * (r + 1)
    for e in layers:
        # C(D_l) = I_k (x) C(pi_l): the classical commutant, one
        # dimension per diagonal orbit
        assert e["dim_commutant_D"] == orbits[e["layer"]]
        assert e["dim_D"] == d_layer_dims(m, n, r)[e["layer"]]
        assert e["dim_commutant_levi"] == e["dim_D"]


@pytest.mark.parametrize("m,n,r,vparity", [
    pytest.param(1, 1, 5, "even", id="1-1-5"),
    pytest.param(2, 1, 4, "even", id="2-1-4"),
    pytest.param(1, 1, 4, "both", id="1-1-4-both"),
])
def test_dims_matches_closed_forms(m, n, r, vparity):
    report, status = cmd_dims(RunConfig(m=m, n=n, r=r, vparity=vparity))
    assert status == EXIT_OK
    orbits = levi_layer_counts(m, n, r)
    assert report["dims"]["d_algebra"] == d_dim(m, n, r)
    assert report["dims"]["levi"] == sum(orbits)
    # ``dims`` keys the degrees 1..r as strings, where ``verify`` lists 0..r
    assert report["dims"]["per_layer_orbits"] == {
        str(l): orbits[l] for l in range(1, r + 1)}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=repr)
def test_group_is_the_hook_sum_under_the_cap(field):
    """``Degree.group``, read from the characters of the signed action,
    is the Berele-Regev hook sum at every degree of every shape whose
    enhanced space has dimension at most 256; a degree is shared by
    every r, so each (m, n, l) is checked once."""
    for total in range(1, 256):
        top = max(r for r in range(1, 9) if (total + 1) ** r <= 256)
        for m in range(1, total + 1):
            n = total - m
            for l in range(top + 1):
                deg = schur_core.Degree(Shape(m, n, 1, 0, field), l)
                assert deg.semisimple and deg.group == hook_sum(m, n, l)
        levischur.clear_caches()
