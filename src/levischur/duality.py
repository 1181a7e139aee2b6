"""
Theorem-level verifications: both directions of the double centralizer
on the enhanced tensor space, per-layer endomorphism decomposition, and
faithfulness of the layer actions.

Layer l of the space is the sum over the C(r,l) supports S of copies of
V^{(x)l}, and each layer of the double centralizer is classical Sergeev
duality moved along them.  ``layer_factors`` reads it so, once per
shape, under three exact gates on that frame: G1 and G2 of
``hecke.d_certificate`` (the products B_S L_w A_T of its factors span D,
and the B_S A_T are matrix units), and G3 ``_levi_transport`` per layer
(B_S places the Levi matrices on S, and the weight blocks hold).  Under
them D_l = M_k (x) Pi_l and L_l = I_k (x) S(m|n,l), k = C(r,l), Pi_l the
image of KS_l, so every layer reads ``schur_core.degree(shape, l)``:
C(D_l) = I_k (x) C(Pi_l) and C(L_l) = M_k (x) C(S(m|n,l)), the classical
commutants that ``schur_core.Degree`` decides in its verdicts
``certified`` and ``converse``.  The Levi rank is read from them too,
and layer l's faithful action from G1, G2 and its part of G3.  If a gate
or a verdict fails, every check read from it fails.

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

from . import enhanced_core as enh
from . import hecke, schur_core
from .combinatorics import Shape
from .linalg import DEFAULT_SIZE_CAP, check_power_cap


class LayerFactor(namedtuple("LayerFactor", (
        "layer supports block_size labels dim_pi dim_commutant_pi"
        " certified converse seconds solves"))):
    """Layer l of both algebras, read from ``schur_core.degree``: D_l =
    M_k (x) Pi_l and L_l = I_k (x) S(m|n,l) on k copies of the (m+n)^l
    words of V^{(x)l}, with the verdicts on their classical commutants.

    ``supports`` is k = C(r, l), ``block_size`` k (m+n)^l and ``labels``
    the size of S(m|n,l)'s basis ``schur_core.schur_basis``;
    ``dim_commutant_pi`` counts the consistent signed orbits, on every
    run; ``certified`` is C(Pi_l) = S(m|n,l) and ``converse``
    C(S(m|n,l)) = Pi_l, which fixes ``dim_pi`` (None without it).
    ``seconds`` is the time spent reading the layer's verdicts, and
    ``solves`` how each was reached (``schur_core.Degree.solves``)."""

    __slots__ = ()

    @property
    def dim_D(self) -> int | None:
        """k^2 dim Pi_l under ``converse``; None when no verdict fixes it."""
        k2 = self.supports ** 2
        return None if self.dim_pi is None else k2 * self.dim_pi

    # C(L_l) = M_k (x) C(S(m|n,l)) = D_l under the same verdict
    dim_commutant_levi = dim_D


# ``failed_gate`` is the first of G1-G3 that fails, or None;
# ``transport`` is G3 per layer 0..r, all False when G1 or G2 fails
LayerFactors = namedtuple("LayerFactors", "layers failed_gate transport")


def _levi_transport(shape: Shape) -> tuple[bool, ...]:
    """G3 at each layer l: on the leading words, the matrix unit B_S =
    X_{S,lead,id} of ``hecke.d_factors`` is the placement of ``enh.rho_levi``
    on S (``enh._placements``), B_S(lead[k]) = (pos_S[k], (-1)^tw_S[k]),
    for every support S of size l; and ``Degree.weight_blocks`` holds at
    degree l.  O(dim_enhanced) lookups; no Levi matrix is built.

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
    lie on disjoint words, so the Levi basis is independent, of rank the
    sum of the ``LayerFactor.labels``.
    """
    fac = hecke.d_factors(shape)
    held = []
    for l in range(shape.r + 1):
        places = enh._placements(l, shape)
        lead = places[0][0]
        supports = itertools.combinations(range(shape.r), l)
        held.append(schur_core.degree(shape, l).weight_blocks is not None
                    and all(fac[S][1].get(p) == (q, -1 if t else 1)
                            for S, (pos, tw) in zip(supports, places)
                            for p, q, t in zip(lead, pos, tw)))
    return tuple(held)


@lru_cache(maxsize=None)
def _layer_factors(shape: Shape) -> LayerFactors:
    layers = []
    for l in range(shape.r + 1):
        # read before the gates, which force every degree's actions and
        # xi, so that ``seconds`` is this layer's own work
        t0 = time.perf_counter()
        k, deg = math.comb(shape.r, l), schur_core.degree(shape, l)
        layers.append(LayerFactor(
            layer=l,
            supports=k,
            block_size=k * deg.dim,
            labels=len(schur_core.schur_basis(shape, l)),
            dim_pi=deg.group if deg.converse else None,
            dim_commutant_pi=len(deg.orbits[0]),
            certified=deg.certified,
            converse=deg.converse,
            seconds=time.perf_counter() - t0,
            solves=dict(deg.solves),
        ))
    failed = hecke.d_certificate(shape)
    transport = ((False,) * (shape.r + 1) if failed
                 else _levi_transport(shape))
    if failed is None and not all(transport):
        failed = "levi_transport"
    return LayerFactors(tuple(layers), failed, transport)


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
        dim_levi=sum(x.labels for x in fac.layers) if holds else None,
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
    follows from the first direction.  Span equality, the gates and the
    classical converse on every layer, is asserted only for r <= m+n and
    otherwise only reported; it alone fixes dim_D, which is also the
    Levi commutant's, and both are None without it.
    """
    fac = layer_factors(shape, size_cap)
    ok = fac.failed_gate is None
    spans_equal = ok and all(x.converse for x in fac.layers)
    dim_D = sum(x.dim_D for x in fac.layers) if spans_equal else None
    return SecondDualityResult(
        dim_D=dim_D,
        dim_commutant_levi=dim_D,
        containment_holds=ok and all(x.certified for x in fac.layers),
        spans_equal=spans_equal,
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
    is D_l = M_k (x) Pi_l under the gates and the classical converse,
    ``per_layer_equal``; its dimension is None otherwise.
    ``sum_matches_commutant`` reports the gates, under which their
    direct sum is the whole commutant.
    """
    fac = layer_factors(shape, size_cap)
    ok = fac.failed_gate is None
    return LayerEndoReport(
        per_layer_dims=tuple(x.dim_commutant_levi if ok else None
                             for x in fac.layers),
        per_layer_equal=tuple(ok and x.converse for x in fac.layers),
        sum_matches_commutant=ok,
    )


def verify_faithful_layer_action(
    shape: Shape, l: int, size_cap: int = DEFAULT_SIZE_CAP
) -> bool:
    """No nonzero layer-l vector is killed by every degree-l element:
    they span P_l, (2) and (3) of ``_levi_transport``, under G1, G2 and
    layer l's part of G3."""
    if not 1 <= l <= shape.r:
        raise ValueError(f"layer {l} out of range 1..{shape.r}")
    return layer_factors(shape, size_cap).transport[l]
