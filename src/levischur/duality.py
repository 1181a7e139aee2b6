"""
Theorem-level verifications: both directions of the double centralizer
on the enhanced tensor space, per-layer endomorphism decomposition, and
faithfulness of the layer actions.

Both algebras preserve the tensor layers, so every commutant is solved
on the layer blocks (block l holds the C(r,l)(m+n)^l words with l
natural letters).  ``layer_blocks`` restricts D, its generators and the
Levi basis to each block, once per shape.  The split is gated exactly:
every layer projector P_l lies in the Levi span and in D, and no
restricted matrix has an entry joining two layers.  Then both algebras
and both commutants are the direct sums of their blocks; if the gate
fails, every check read from the blocks fails.

The first direction holds at every degree; the second is asserted when
r <= m+n and otherwise only reported (containment of D in the commutant
is always checked).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

from . import combinatorics as comb
from . import enhanced_core as enh
from . import hecke
from .combinatorics import Shape
from .linalg import (
    DEFAULT_SIZE_CAP,
    AlgebraSpan,
    Echelon,
    ExactMatrix,
    check_size_cap,
    commutant,
    span_of,
)


@dataclass(frozen=True)
class LayerBlock:
    """Spans of matrices on the words of one layer."""

    layer: int
    D: AlgebraSpan
    levi: AlgebraSpan
    commutant_D: AlgebraSpan
    commutant_levi: AlgebraSpan
    seconds: float = field(compare=False, default=0.0)


@dataclass(frozen=True)
class LayerBlocks:
    blocks: tuple[LayerBlock, ...]
    gate: bool      # the layer split is exact (see the module docstring)


def _split(mats, shape: Shape) -> tuple[list[list[ExactMatrix]], bool]:
    """Layer blocks of every matrix, and whether no entry joined two
    layers (such entries are dropped)."""
    positions = [enh.layer_positions(shape, l) for l in range(shape.r + 1)]
    where = {p: (l, k) for l, ps in enumerate(positions)
             for k, p in enumerate(ps)}
    out: list[list[ExactMatrix]] = [[] for _ in positions]
    lossless = True
    for mat in mats:
        parts: dict[int, dict] = {}
        for (r, c), v in mat.entries.items():
            (l, i), (lc, j) = where[r], where[c]
            if lc != l:
                lossless = False
                continue
            parts.setdefault(l, {})[(i, j)] = v
        for l, entries in parts.items():
            size = len(positions[l])
            out[l].append(ExactMatrix(shape.field, size, size, entries))
    return out, lossless


@lru_cache(maxsize=None)
def _layer_blocks(shape: Shape) -> LayerBlocks:
    d, f = shape.dim_enhanced, shape.field
    dalg = hecke.d_algebra(shape, d)
    levi = enh.levi_span(shape)
    d_parts, d_ok = _split(dalg.basis, shape)
    gen_parts, gen_ok = _split(hecke.d_generators(shape, d), shape)
    levi_parts, levi_ok = _split(
        [enh.rho_levi(b, shape) for b in enh.levi_basis(shape)], shape
    )
    units = [hecke.layer_projector(l, shape) for l in range(shape.r + 1)]
    gate = d_ok and gen_ok and levi_ok and all(
        levi.contains(p) and dalg.contains(p) for p in units
    )
    blocks = []
    for l in range(shape.r + 1):
        t0 = time.perf_counter()
        size = len(enh.layer_positions(shape, l))
        blocks.append(LayerBlock(
            layer=l,
            D=span_of(d_parts[l], d=size, field=f),
            levi=span_of(levi_parts[l], d=size, field=f),
            commutant_D=commutant(gen_parts[l], size, field=f, size_cap=size),
            commutant_levi=commutant(
                levi_parts[l], size, field=f, size_cap=size
            ),
            seconds=time.perf_counter() - t0,
        ))
    return LayerBlocks(blocks=tuple(blocks), gate=gate)


def layer_blocks(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> LayerBlocks:
    """Per-layer blocks and the gate; the size cap is not a cache key."""
    check_size_cap(shape.dim_enhanced, size_cap)
    return _layer_blocks(shape)


@dataclass(frozen=True)
class FirstDualityResult:
    dim_levi: int
    dim_commutant_D: int
    holds: bool


def verify_first(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> FirstDualityResult:
    """Commutant of the generator image equals the Levi span.

    This direction has no degree restriction and must hold at every
    shape.
    """
    blocks = layer_blocks(shape, size_cap)
    return FirstDualityResult(
        dim_levi=enh.levi_span(shape).dimension,
        dim_commutant_D=sum(b.commutant_D.dimension for b in blocks.blocks),
        holds=blocks.gate
        and all(b.commutant_D == b.levi for b in blocks.blocks),
    )


@dataclass(frozen=True)
class SecondDualityResult:
    dim_D: int
    dim_commutant_levi: int
    containment_holds: bool
    spans_equal: bool
    gated: bool

    @property
    def holds(self) -> bool:
        """True when the gated assertion is satisfied."""
        return self.spans_equal if self.gated else self.containment_holds


def verify_second(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> SecondDualityResult:
    """Commutant of the Levi span against the generator image.

    Containment of the image in the commutant is unconditional.  Span
    equality is asserted only for r <= m+n and otherwise only reported.
    """
    blocks = layer_blocks(shape, size_cap)
    return SecondDualityResult(
        dim_D=hecke.d_algebra(shape, size_cap).dimension,
        dim_commutant_levi=sum(
            b.commutant_levi.dimension for b in blocks.blocks
        ),
        containment_holds=blocks.gate and all(
            b.commutant_levi.contains(m)
            for b in blocks.blocks for m in b.D.basis
        ),
        spans_equal=blocks.gate
        and all(b.commutant_levi == b.D for b in blocks.blocks),
        gated=shape.r <= shape.m + shape.n,
    )


@dataclass(frozen=True)
class LayerEndoReport:
    per_layer_dims: tuple[int, ...]
    per_layer_equal: tuple[bool, ...]
    sum_matches_commutant: bool

    @property
    def holds(self) -> bool:
        return all(self.per_layer_equal) and self.sum_matches_commutant


def verify_layer_endos(
    shape: Shape, size_cap: int = DEFAULT_SIZE_CAP
) -> LayerEndoReport:
    """Per-layer commutants against the layer algebras.

    For each layer the commutant of the restricted Levi action is
    compared with D_l.  ``sum_matches_commutant`` reports the layer
    gate, under which their direct sum is the whole commutant.
    """
    blocks = layer_blocks(shape, size_cap)
    return LayerEndoReport(
        per_layer_dims=tuple(
            b.commutant_levi.dimension for b in blocks.blocks
        ),
        per_layer_equal=tuple(
            blocks.gate and b.commutant_levi == b.D for b in blocks.blocks
        ),
        sum_matches_commutant=blocks.gate,
    )


def verify_faithful_layer_action(
    shape: Shape, l: int, size_cap: int = DEFAULT_SIZE_CAP
) -> bool:
    """No nonzero layer-l vector is killed by every degree-l element.

    Stacks the layer-restricted columns of every degree-l basis matrix
    and checks the kernel is trivial.
    """
    if not 1 <= l <= shape.r:
        raise ValueError(f"layer {l} out of range 1..{shape.r}")
    check_size_cap(shape.dim_enhanced, size_cap)
    index = {p: k for k, p in enumerate(enh.layer_positions(shape, l))}
    ech = Echelon(shape.field)
    for pair in comb.orbit_reps(shape, l):
        mat = enh.rho_levi(enh.LeviBasisElement(pair, l), shape)
        rows: dict[int, dict] = {}
        for (r, c), v in mat.entries.items():
            if c in index:
                rows.setdefault(r, {})[index[c]] = v
        for row in rows.values():
            ech.add(row)
    return ech.rank == len(index)


@dataclass(frozen=True)
class DualityReport:
    """Everything the theorem-level verification produces for a shape."""

    m: int
    n: int
    r: int
    vparity: int
    field_name: str
    dim_ambient: int
    dim_levi: int
    dim_D: int
    dim_commutant_D: int
    dim_commutant_levi: int
    first_isomorphism_holds: bool
    second_isomorphism_holds: bool
    second_containment_holds: bool
    r_le_mplusn: bool
    per_layer_orbits: tuple[int, ...]
    per_layer_endo_dims: tuple[int, ...]
    per_layer_endo_equal: tuple[bool, ...]
    layer_sum_matches: bool
    faithful_layers: tuple[bool, ...]
    levi_rank_matches_basis: bool
    seconds: float = field(compare=False, default=0.0)

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
    rank_ok = enh.levi_span(shape).dimension == enh.levi_dimension(shape)
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
        layer_sum_matches=layers.sum_matches_commutant,
        faithful_layers=faithful,
        levi_rank_matches_basis=rank_ok,
        seconds=time.perf_counter() - t0,
    )
