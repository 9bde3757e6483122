"""Exact invariants of finite 2-groups given by power-commutator presentations.

The package decides, for desk-scale 2-groups, the quantities that reduce
closed-manifold surgery obstructions to finite computations: the rank of
H^1(Wh'(Z2^G)), SK_1 of the 2-adic group ring, central-extension
non-vanishing criteria, mod-2 spectral-sequence tables with degree-4
survival, the lambda_4 oozing detector, and compatible-pair certification.

`import twogroups` loads no layer: each exported name imports its defining
module on first access (PEP 562), so a caller pays only for what it uses.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "catalog": "Fingerprint fingerprint parse_catalog serialize shipped_catalog shipped_group",
        "f2poly": "F2Poly degree_membership parse_poly sq1",
        "homology": "CoverData CoverPresentation commuting_wedges cover_presentation"
                    " h2_integral schur_cover wedge_space",
        "ktheory": "CentralExtensionData central_extension central_extension_from_hom"
                   " h1_wh_prime search_central_extensions sk1 thm41_check thm42_check",
        "lhs": "LhsData d2_table extension_class_rep lhs_data_for survives_deg4",
        "ooze": "AdaptedDecomposition DeltaMap adapted_decomposition compatible_pair_check"
                " conjecture62_scan delta_map lambda4_detect",
        "pcgroup": "Element GroupHom PcError PcGroup Subgroup abelianization central_quotient"
                   " conjugacy_classes homomorphism standard_subgroups subgroup",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        # AttributeError, so that `from twogroups import cli` falls back to
        # importing the submodule and hasattr() answers False
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
