"""
Exact-arithmetic Schur superalgebras on the enhanced tensor superspace,
with the double centralizer certified layer by layer: exact gates on
signed maps, and the two classical commutants decided per degree.

The natural entry points:

  * ``Shape(m, n, r, vparity, field)`` fixes all run parameters.
  * ``combinatorics`` holds the sign calculus and orbit enumeration.
  * ``schur_core`` builds the classical action and basis matrices.
  * ``enhanced_core`` builds the enhanced space and the Levi algebra.
  * ``hecke`` builds the layered permutation generators and their image.
  * ``duality`` reads the theorem-level verdicts: ``verify_first``,
    ``verify_second``, ``verify_layer_endos`` and
    ``verify_faithful_layer_action``.
  * ``cli`` is the command-line front end (``levischur ...``).
  * ``clear_caches()`` empties every cache, per shape or per degree.

The names imported here are the package's public API.
"""

from .combinatorics import Shape
from .linalg import (
    QQ,
    AlgebraSpan,
    ExactMatrix,
    PrimeField,
    SizeCapExceeded,
    algebra_closure,
    commutant,
    span_of,
)
from .schur_core import (
    ClassicalDualityReport,
    classical_duality,
    pi_matrix,
    schur_basis,
    structure_constants,
    xi_matrix,
)
from .enhanced_core import (
    BOTTOM,
    LeviBasisElement,
    embed_alpha,
    enh_decode,
    enh_encode,
    levi_basis,
    levi_product,
    rho_bottom,
    rho_levi,
)
from .hecke import (
    LayerGen,
    RelationInstance,
    SwapGen,
    check_relation,
    d_algebra,
    d_layer_algebra,
    eval_word,
    relation_instances,
    xi_gen,
)
from .duality import (
    verify_faithful_layer_action,
    verify_first,
    verify_layer_endos,
    verify_second,
)

from . import combinatorics, duality, enhanced_core, hecke, schur_core

__version__ = "0.1.0"


def clear_caches() -> None:
    """Empty every cache in the package, per shape or per degree."""
    for module in (combinatorics, schur_core, enhanced_core, hecke, duality):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
