"""
Theorem-level verifications: both directions of the double centralizer
on the enhanced tensor space, per-layer endomorphism decomposition, and
faithfulness of the layer actions.

Layer l of the space is the sum over the C(r,l) supports S of copies
of V^{(x)l}, and each layer of the double centralizer is classical
Sergeev duality moved along them.  ``layer_factors`` reads it so, once
per shape, under three exact gates on that frame: G1 and G2 of
``hecke.d_certificate`` (the products B_S L_w A_T of its factors span
D, and the B_S A_T are matrix units), and G3 ``_levi_transport`` (the
Levi placement on each support S is B_S, and the weight blocks hold).
Under them D_l = M_k (x) Pi_l and L_l = I_k (x) S(m|n,l), k = C(r,l),
Pi_l the image of KS_l, so every layer reads ``schur_core.degree(shape,
l)``: C(D_l) = I_k (x) C(Pi_l) and C(L_l) = M_k (x) C(S(m|n,l)), the
classical commutants that ``schur_core.Degree`` decides in its verdicts
``certified`` and ``converse``.  The Levi rank and the faithful layer
actions are read from the same gates and verdicts.  If a gate or a
verdict fails, every check read from it fails.

The first direction holds at every degree; the second is asserted when
r <= m+n and otherwise only reported (containment of D in the commutant,
which the first direction gives, is always checked).
"""

from __future__ import annotations

import itertools
import math
import time
from collections import namedtuple
from functools import lru_cache

from . import combinatorics as comb
from . import enhanced_core as enh
from . import hecke, schur_core
from .combinatorics import Shape
from .linalg import DEFAULT_SIZE_CAP, check_power_cap


class LayerFactor(namedtuple("LayerFactor", (
        "layer supports block_size dim_pi dim_commutant_pi certified"
        " converse seconds solves"))):
    """Layer l of both algebras, read from ``schur_core.degree``: D_l =
    M_k (x) Pi_l and L_l = I_k (x) S(m|n,l) on k copies of the (m+n)^l
    words of V^{(x)l}, with the verdicts on their classical commutants.

    ``supports`` is k = C(r, l) and ``block_size`` k (m+n)^l;
    ``dim_commutant_pi`` counts the consistent signed orbits, on every
    run; ``certified`` is C(Pi_l) = S(m|n,l) and ``converse``
    C(S(m|n,l)) = Pi_l, which fixes ``dim_pi`` (None without it).
    ``seconds`` and ``solves``, how each verdict was reached
    (``schur_core.Degree.solves``), are left out of equality."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, LayerFactor) and self[:-2] == other[:-2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:-2])

    @property
    def dim_D(self) -> int | None:
        """k^2 dim Pi_l under ``converse``; None when no verdict fixes it."""
        k2 = self.supports ** 2
        return None if self.dim_pi is None else k2 * self.dim_pi

    # C(L_l) = M_k (x) C(S(m|n,l)) = D_l under the same verdict
    dim_commutant_levi = dim_D


# ``failed_gate`` is the first of G1-G3 that fails, or None
LayerFactors = namedtuple("LayerFactors", "layers failed_gate")


def _levi_transport(shape: Shape) -> bool:
    """G3: on the leading words, the matrix unit B_S = X_{S,lead,id} of
    ``hecke.d_factors`` is the placement of ``enh.rho_levi`` on S
    (``enh._placements``), B_S(lead[k]) = (pos_S[k], (-1)^tw_S[k]), for
    every support S; and ``Degree.weight_blocks`` holds at every degree.
    O(dim_enhanced) lookups; no Levi matrix is built.

    Why it suffices, under G1 and G2.  (1) ``rho_levi(b)`` puts entry
    (k, t) of xi = ``xi_matrix(b.pair)`` at (pos_S[k], pos_S[t]) times
    (-1)^(tw_S[k] + tw_S[t]) on every S, and A_S inverts B_S (G1(b), G2),
    so it is the sum of the B_S xi A_S: L_l = I_k (x) S(m|n,l).  (2) The
    diagonal xi((w, w)) are 0/1 idempotents summing to 1 on V^{(x)l},
    so by (1) and G1(b) the diagonal Levi elements of layer l sum to the
    B_S A_S, to P_l.  (3) So no nonzero layer-l vector is killed by every
    degree-l element.  (4) Under ``Degree.certified`` each xi is one
    whole signed orbit, on distinct orbits, so the xi of a degree lie on
    disjoint positions; the B_S keep the supports apart and the layers
    lie on disjoint words, so the Levi basis is independent, of rank
    ``enh.levi_dimension``.
    """
    fac = hecke.d_factors(shape)
    for l in range(shape.r + 1):
        places = enh._placements(l, shape)
        lead = places[0][0]
        supports = itertools.combinations(range(shape.r), l)
        for S, (pos, tw) in zip(supports, places):
            B = fac[S][1]
            if any(B.get(p) != (q, -1 if t else 1)
                   for p, q, t in zip(lead, pos, tw)):
                return False
        if schur_core.degree(shape, l).weight_blocks is None:
            return False
    return True


@lru_cache(maxsize=None)
def _layer_factors(shape: Shape) -> LayerFactors:
    failed = hecke.d_certificate(shape)
    if failed is None and not _levi_transport(shape):
        failed = "levi_transport"
    layers = []
    for l in range(shape.r + 1):
        t0 = time.perf_counter()
        k, deg = math.comb(shape.r, l), schur_core.degree(shape, l)
        layers.append(LayerFactor(
            layer=l,
            supports=k,
            block_size=k * deg.dim,
            dim_pi=deg.group if deg.converse else None,
            dim_commutant_pi=len(deg.orbits[0]),
            certified=deg.certified,
            converse=deg.converse,
            seconds=time.perf_counter() - t0,
            solves=dict(deg.solves),
        ))
    return LayerFactors(layers=tuple(layers), failed_gate=failed)


def layer_factors(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> LayerFactors:
    """Per-layer factors and the gates; the size cap is not a cache key."""
    check_power_cap(shape.m + shape.n + 1, shape.r, size_cap)
    return _layer_factors(shape)


FirstDualityResult = namedtuple("FirstDualityResult",
                                "dim_levi dim_commutant_D holds")


def verify_first(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> FirstDualityResult:
    """Commutant of the generator image equals the Levi span.

    This direction has no degree restriction and must hold at every
    shape.  The gates and ``certified`` also fix dim_levi, (4) of
    ``_levi_transport``; it is None when they fail.
    """
    fac = layer_factors(shape, size_cap)
    holds = fac.failed_gate is None and all(x.certified for x in fac.layers)
    return FirstDualityResult(
        dim_levi=enh.levi_dimension(shape) if holds else None,
        dim_commutant_D=sum(x.dim_commutant_pi for x in fac.layers),
        holds=holds,
    )


class SecondDualityResult(namedtuple("SecondDualityResult", (
        "dim_D dim_commutant_levi containment_holds spans_equal gated"))):
    __slots__ = ()

    @property
    def holds(self) -> bool:
        """True when the gated assertion is satisfied."""
        return self.spans_equal if self.gated else self.containment_holds


def verify_second(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> SecondDualityResult:
    """Commutant of the Levi span against the generator image.

    Containment of the image in the commutant is unconditional: it
    follows from the first direction.  Span equality, the classical
    converse on every layer, is asserted only for r <= m+n and otherwise
    only reported.
    """
    fac = layer_factors(shape, size_cap)
    ok = fac.failed_gate is None
    converse = all(x.converse for x in fac.layers)
    # the converse on every layer fixes dim D and the Levi commutant's
    dim_D = sum(x.dim_D for x in fac.layers) if converse else None
    return SecondDualityResult(
        dim_D=dim_D,
        dim_commutant_levi=dim_D,
        containment_holds=ok and all(x.certified for x in fac.layers),
        spans_equal=ok and converse,
        gated=shape.r <= shape.m + shape.n,
    )


class LayerEndoReport(namedtuple("LayerEndoReport", (
        "per_layer_dims per_layer_equal sum_matches_commutant"))):
    __slots__ = ()

    @property
    def holds(self) -> bool:
        return all(self.per_layer_equal) and self.sum_matches_commutant


def verify_layer_endos(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> LayerEndoReport:
    """Per-layer commutants against the layer algebras.

    For each layer the commutant of the Levi action, M_k (x) C(S(m|n,l)),
    is D_l = M_k (x) Pi_l when the classical converse holds; its
    dimension is None otherwise.  ``sum_matches_commutant``
    reports the gates, under which their direct sum is the whole
    commutant.
    """
    fac = layer_factors(shape, size_cap)
    ok = fac.failed_gate is None
    return LayerEndoReport(
        per_layer_dims=tuple(x.dim_commutant_levi for x in fac.layers),
        per_layer_equal=tuple(ok and x.converse for x in fac.layers),
        sum_matches_commutant=ok,
    )


def verify_faithful_layer_action(
    shape: Shape, l: int, size_cap: int = DEFAULT_SIZE_CAP
) -> bool:
    """No nonzero layer-l vector is killed by every degree-l element:
    they span P_l, (2) and (3) of ``_levi_transport``, under the gates.
    """
    if not 1 <= l <= shape.r:
        raise ValueError(f"layer {l} out of range 1..{shape.r}")
    return layer_factors(shape, size_cap).failed_gate is None


class DualityReport(namedtuple("DualityReport", (
        "m n r vparity field_name dim_ambient dim_levi dim_D"
        " dim_commutant_D dim_commutant_levi first_isomorphism_holds"
        " second_isomorphism_holds second_containment_holds r_le_mplusn"
        " per_layer_orbits per_layer_endo_dims per_layer_endo_equal"
        " failed_gate faithful_layers levi_rank_matches_basis seconds"),
        defaults=(0.0,))):
    """Everything the theorem-level verification produces for a shape;
    ``seconds`` is left out of equality."""

    __slots__ = ()

    def __eq__(self, other):
        return isinstance(other, DualityReport) and self[:-1] == other[:-1]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:-1])

    @property
    def layer_sum_matches(self) -> bool:
        return self.failed_gate is None

    @property
    def all_gated_hold(self) -> bool:
        checks = [
            self.first_isomorphism_holds,
            self.second_containment_holds,
            all(self.per_layer_endo_equal),
            self.layer_sum_matches,
            all(self.faithful_layers),
            self.levi_rank_matches_basis,
        ]
        if self.r_le_mplusn:
            checks.append(self.second_isomorphism_holds)
        return all(checks)


def run_duality(shape: Shape, size_cap: int = DEFAULT_SIZE_CAP) -> DualityReport:
    """Run every verification for one shape and collect a report."""
    t0 = time.perf_counter()
    first = verify_first(shape, size_cap)
    second = verify_second(shape, size_cap)
    layers = verify_layer_endos(shape, size_cap)
    faithful = tuple(
        verify_faithful_layer_action(shape, l, size_cap)
        for l in range(1, shape.r + 1)
    )
    return DualityReport(
        m=shape.m,
        n=shape.n,
        r=shape.r,
        vparity=shape.vparity,
        field_name=shape.field.name,
        dim_ambient=shape.dim_enhanced,
        dim_levi=first.dim_levi,
        dim_D=second.dim_D,
        dim_commutant_D=first.dim_commutant_D,
        dim_commutant_levi=second.dim_commutant_levi,
        first_isomorphism_holds=first.holds,
        second_isomorphism_holds=second.spans_equal,
        second_containment_holds=second.containment_holds,
        r_le_mplusn=shape.r <= shape.m + shape.n,
        per_layer_orbits=tuple(
            len(comb.orbit_reps(shape, l)) for l in range(shape.r + 1)
        ),
        per_layer_endo_dims=layers.per_layer_dims,
        per_layer_endo_equal=layers.per_layer_equal,
        failed_gate=layer_factors(shape, size_cap).failed_gate,
        faithful_layers=faithful,
        # (4) of ``_levi_transport``: the rank is fixed with dim_levi
        levi_rank_matches_basis=first.dim_levi is not None,
        seconds=time.perf_counter() - t0,
    )
