"""Exact invariants of finite 2-groups given by power-commutator presentations.

The package decides, for desk-scale 2-groups, the quantities that reduce
closed-manifold surgery obstructions to finite computations: the rank of
H^1(Wh'(Z2^G)), SK_1 of the 2-adic group ring, central-extension
non-vanishing criteria, mod-2 spectral-sequence tables with degree-4
survival, the lambda_4 oozing detector, and compatible-pair certification.
"""

__version__ = "0.1.0"

from .catalog import Fingerprint, fingerprint, parse_catalog, serialize, shipped_catalog, shipped_group
from .f2poly import F2Poly, degree_membership, parse_poly, sq1
from .homology import CoverData, commuting_wedges, h2_integral, schur_cover, wedge_space
from .ktheory import (
    CentralExtensionData,
    central_extension,
    central_extension_from_hom,
    h1_wh_prime,
    search_central_extensions,
    sk1,
    thm41_check,
    thm42_check,
)
from .lhs import LhsData, d2_table, extension_class_rep, lhs_data_for, survives_deg4
from .ooze import (
    AdaptedDecomposition,
    DeltaMap,
    adapted_decomposition,
    compatible_pair_check,
    conjecture62_scan,
    delta_map,
    lambda4_detect,
)
from .pcgroup import (
    Element,
    GroupHom,
    PcError,
    PcGroup,
    QuotientGroup,
    Subgroup,
    abelianization,
    conjugacy_classes,
    homomorphism,
    quotient,
    standard_subgroups,
    subgroup,
)

__all__ = [
    "__version__",
    "Element",
    "F2Poly",
    "Fingerprint",
    "GroupHom",
    "PcError",
    "PcGroup",
    "QuotientGroup",
    "Subgroup",
    "CoverData",
    "CentralExtensionData",
    "LhsData",
    "DeltaMap",
    "AdaptedDecomposition",
    "abelianization",
    "adapted_decomposition",
    "central_extension",
    "central_extension_from_hom",
    "compatible_pair_check",
    "commuting_wedges",
    "conjecture62_scan",
    "conjugacy_classes",
    "d2_table",
    "degree_membership",
    "delta_map",
    "extension_class_rep",
    "fingerprint",
    "h1_wh_prime",
    "h2_integral",
    "homomorphism",
    "lambda4_detect",
    "lhs_data_for",
    "parse_catalog",
    "parse_poly",
    "quotient",
    "schur_cover",
    "search_central_extensions",
    "serialize",
    "shipped_catalog",
    "shipped_group",
    "sk1",
    "sq1",
    "standard_subgroups",
    "subgroup",
    "survives_deg4",
    "thm41_check",
    "thm42_check",
    "wedge_space",
]
