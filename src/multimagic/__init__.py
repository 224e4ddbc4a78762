"""Multimagic squares from finite-field orthogonal-array large sets.

The package builds t-multimagic squares of prime-power orders through
vector grids over GF(q) and verifies every claimed combinatorial
property with exact integer arithmetic.

Importing the package loads none of its modules: each public name and
submodule is imported on first use (PEP 562).  ``import multimagic`` so
loads neither numpy nor the compiled kernels, which the first import of
a module that needs them builds or loads from the cache (see _codec.py),
and the command line can limit numpy's BLAS threads before numpy loads
(see cli.py).
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "ArrayFamily": "oa",
    "BlockAssignment": "construct",
    "CmsFamily": "construct",
    "ComposedSquare": "construct",
    "ConstructionError": "errors",
    "FieldSpec": "gf",
    "FieldTable": "gf",
    "FMatrix": "linalg",
    "FormatError": "errors",
    "MagicSquare": "verify",
    "MatrixPairCertificate": "linalg",
    "OrderPlan": "construct",
    "OrthArray": "oa",
    "SdloaGrid": "construct",
    "SearchExhausted": "errors",
    "TranslationScheme": "construct",
    "VerifyReport": "verify",
    "build_cms": "construct",
    "build_cms_family": "construct",
    "build_field": "gf",
    "build_field_q": "gf",
    "build_loa": "construct",
    "build_ms_q2t1": "construct",
    "build_ms_qt": "construct",
    "build_sdloa_grid": "construct",
    "cms_compose": "construct",
    "find_cms_pair": "linalg",
    "find_sdloa_pair": "linalg",
    "is_nonsingular": "linalg",
    "is_simple": "oa",
    "is_strength_t": "linalg",
    "magic_sum": "verify",
    "make_block_assignment": "construct",
    "plan_order": "construct",
    "primitive_element": "gf",
    "product_compose": "construct",
    "rank": "linalg",
    "vandermonde_base": "linalg",
    "verify_cms": "verify",
    "verify_large_set": "oa",
    "verify_ms": "verify",
    "verify_oa": "oa",
    "verify_sdloa": "oa",
}

# Submodules reachable as attributes of the bare package.
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli", "io", "_codec", "_pool"})

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
        value = getattr(module, name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        # Importing a submodule binds it in the package namespace.
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
