"""Multimagic squares from finite-field orthogonal-array large sets.

The package builds t-multimagic squares of prime-power orders through
vector grids over GF(q) and verifies every claimed combinatorial
property with exact integer arithmetic.
"""

# Built, or loaded from the cache, at import: the first read or write
# then pays no compile.
from . import _codec  # noqa: F401
from .construct import (
    BlockAssignment,
    CmsFamily,
    ComposedSquare,
    GridSquare,
    OrderPlan,
    SdloaGrid,
    TranslationScheme,
    build_cms,
    build_cms_family,
    build_loa,
    build_ms_q2t1,
    build_ms_qt,
    build_sdloa_grid,
    cms_compose,
    grid_to_ms,
    make_block_assignment,
    plan_order,
    product_compose,
)
from .errors import ConstructionError, FormatError, SearchExhausted
from .gf import FieldSpec, FieldTable, build_field, build_field_q, primitive_element
from .linalg import (
    FMatrix,
    MatrixPairCertificate,
    find_cms_pair,
    find_sdloa_pair,
    is_nonsingular,
    is_strength_t,
    rank,
    vandermonde_base,
)
from .oa import ArrayFamily, OrthArray, is_simple, verify_large_set, verify_oa, verify_sdloa
from .verify import MagicSquare, VerifyReport, magic_sum, verify_cms, verify_ms

__version__ = "0.1.0"

__all__ = [
    "ArrayFamily",
    "BlockAssignment",
    "CmsFamily",
    "ComposedSquare",
    "ConstructionError",
    "FieldSpec",
    "FieldTable",
    "FMatrix",
    "FormatError",
    "GridSquare",
    "MagicSquare",
    "MatrixPairCertificate",
    "OrderPlan",
    "OrthArray",
    "SdloaGrid",
    "SearchExhausted",
    "TranslationScheme",
    "VerifyReport",
    "build_cms",
    "build_cms_family",
    "build_field",
    "build_field_q",
    "build_loa",
    "build_ms_q2t1",
    "build_ms_qt",
    "build_sdloa_grid",
    "cms_compose",
    "find_cms_pair",
    "find_sdloa_pair",
    "grid_to_ms",
    "is_nonsingular",
    "is_simple",
    "is_strength_t",
    "magic_sum",
    "make_block_assignment",
    "plan_order",
    "primitive_element",
    "product_compose",
    "rank",
    "vandermonde_base",
    "verify_cms",
    "verify_large_set",
    "verify_ms",
    "verify_oa",
    "verify_sdloa",
]
