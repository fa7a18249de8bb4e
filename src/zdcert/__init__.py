"""Exact computer algebra certifying a zero-divisor pair in Z[AV].

The library layers: exact quadratic-field and integer-polynomial arithmetic,
maximal quadratic orders with ideals / units / class groups, Frobenius
quartics of modular abelian-surface reductions, Steinitz classification of
projective modules, integer monoid rings, and a certificate pipeline tying
them together.

The names below are exported lazily (PEP 562): ``zdcert.class_group`` or
``zdcert.orders`` imports its submodule on first access, so importing the
package, or running one CLI subcommand, loads only the layers it uses.
"""

import importlib

_EXPORTS = {
    "errors": ("DeductionRefused", "InputDataError", "InvalidEigenvalueError", "MismatchError",
               "ResourceLimitError"),
    "quadratic": ("QuadElement", "is_prime", "is_squarefree"),
    "polynomials": ("IntPoly", "X", "discriminant", "is_rational_square", "resultant"),
    "orders": ("ClassGroup", "FracIdeal", "IdealClass", "QuadOrder", "class_group",
               "fundamental_unit", "ideal_class", "is_principal", "maximal_order",
               "minkowski_bound", "principal_generator", "principal_ideal", "trivial_class",
               "unit_ideal"),
    "weil": ("NewformDatum", "ReductionCertificate", "StabilityReport", "WeilQuartic",
             "certify_reduction", "deduce_endomorphism_ring", "distinct_fields_certificate",
             "endomorphism_stability", "frobenius_charpoly", "is_ordinary"),
    "steinitz": ("AVClass", "ModuleClass", "class_of_ideal_sum", "direct_sum", "free_module",
                 "tensor_av", "zero_module"),
    "monoidring": ("AVMonoid", "FreeMonoid", "MonoidRingElement", "ProjectiveSpace",
                   "WitnessReport", "albanese_image", "basis_element", "ring_zero",
                   "zero_divisor_witness"),
    "certify": ("Certificate", "Check", "VerificationInput", "load_input", "parse_input",
                "run_certificate"),
}
_SUBMODULES = (*_EXPORTS, "cli")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        # looked up on each access, never cached here, so a name that is
        # patched on its submodule reads the same through the package
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
