"""Theorem-level verifications and their reports."""

import pytest

from levischur.combinatorics import Shape
from levischur.duality import (
    layer_factors,
    run_duality,
    verify_faithful_layer_action,
    verify_first,
    verify_layer_endos,
    verify_second,
)
from levischur.enhanced_core import levi_span, rho_levi, levi_basis
from levischur.hecke import d_algebra, d_dimension, d_layer_algebra
from levischur.linalg import SizeCapExceeded, commutant
from levischur.schur_core import classical_duality


@pytest.mark.parametrize("vp", [0, 1])
def test_first_duality_1_1_2(vp):
    res = verify_first(Shape(1, 1, 2, vp))
    assert res.holds
    assert res.dim_levi == 13
    assert res.dim_commutant_D == 13


@pytest.mark.parametrize("vp", [0, 1])
def test_first_duality_1_1_3(vp):
    # no degree restriction on this direction
    res = verify_first(Shape(1, 1, 3, vp))
    assert res.holds
    assert res.dim_levi == 25


def test_first_duality_2_1_2():
    res = verify_first(Shape(2, 1, 2, 1))
    assert res.holds
    assert res.dim_levi == 51


@pytest.mark.parametrize(
    "m,n,r", [(1, 1, 2), (2, 1, 2), (1, 2, 2)]
)
def test_second_duality_gated_shapes(m, n, r):
    for vp in (0, 1):
        res = verify_second(Shape(m, n, r, vp))
        assert res.gated
        assert res.containment_holds
        assert res.spans_equal
        assert res.holds


def test_second_duality_beyond_gate_is_observed():
    res = verify_second(Shape(1, 1, 3, 0))
    assert not res.gated
    assert res.containment_holds
    # reported without gating; at this shape the spans happen to agree
    assert isinstance(res.spans_equal, bool)
    assert res.holds  # containment is the gated content here


def test_layer_endos():
    for vp in (0, 1):
        rep = verify_layer_endos(Shape(1, 1, 2, vp))
        assert rep.holds
        assert rep.per_layer_dims[0] == 1
        assert sum(rep.per_layer_dims) == d_algebra(
            Shape(1, 1, 2, vp)
        ).dimension


def test_faithful_layer_action():
    for m, n, r in [(1, 1, 2), (2, 1, 2)]:
        for vp in (0, 1):
            shape = Shape(m, n, r, vp)
            for l in range(1, r + 1):
                assert verify_faithful_layer_action(shape, l)
    with pytest.raises(ValueError):
        verify_faithful_layer_action(Shape(1, 1, 2), 3)
    with pytest.raises(ValueError):
        verify_faithful_layer_action(Shape(1, 1, 2), 0)


def test_unconditional_containments():
    for m, n, r in [(1, 1, 2), (1, 1, 3)]:
        for vp in (0, 1):
            shape = Shape(m, n, r, vp)
            d = shape.dim_enhanced
            levi = levi_span(shape)
            dmat = d_algebra(shape)
            comm_d = commutant(dmat.basis, d, field=shape.field)
            comm_levi = commutant(levi.basis, d, field=shape.field)
            assert all(comm_d.contains(m_) for m_ in levi.basis)
            assert all(comm_levi.contains(m_) for m_ in dmat.basis)


def test_report_is_deterministic():
    shape = Shape(1, 1, 2, 0)
    a = run_duality(shape)
    b = run_duality(shape)
    assert a == b  # timing field excluded from comparison
    assert a.dim_ambient == 9
    assert a.per_layer_orbits == (1, 4, 8)
    assert a.all_gated_hold


def test_size_cap_enforced():
    with pytest.raises(SizeCapExceeded):
        verify_first(Shape(1, 1, 2), size_cap=4)
    with pytest.raises(SizeCapExceeded):
        verify_faithful_layer_action(Shape(1, 1, 2), 1, size_cap=4)


# every library entry point that takes a shape, called at (1|1,10000),
# and the power it refuses: (m+n+1)^r, or (m+n)^r on the natural side
HUGE = Shape(1, 1, 10000)
ENTRY_POINTS = {
    "verify_first": (lambda: verify_first(HUGE), 3),
    "verify_second": (lambda: verify_second(HUGE), 3),
    "verify_layer_endos": (lambda: verify_layer_endos(HUGE), 3),
    "verify_faithful_layer_action":
        (lambda: verify_faithful_layer_action(HUGE, 1), 3),
    "run_duality": (lambda: run_duality(HUGE), 3),
    "layer_factors": (lambda: layer_factors(HUGE), 3),
    "d_algebra": (lambda: d_algebra(HUGE), 3),
    "d_dimension": (lambda: d_dimension(HUGE), 3),
    "d_layer_algebra": (lambda: d_layer_algebra(1, HUGE), 3),
    "classical_duality": (lambda: classical_duality(HUGE), 2),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_names_an_unformed_dimension(name):
    """The guard forms no power past the cap, so the message names the
    power rather than failing to print a number of thousands of digits."""
    call, base = ENTRY_POINTS[name]
    with pytest.raises(SizeCapExceeded, match=rf"^ambient dimension "
                       rf"{base}\^10000 exceeds size cap 256$"):
        call()
