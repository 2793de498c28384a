"""Grade-3 multiplication tables: classification, obstructions, linkage, realization.

The package works with the induced multiplication on the degree-1/2/3
components of a length-3 free resolution (ranks ``n+1``, ``m+n-1``, ``m``
for a *format* ``(m, n)``).  It provides:

* exact classification of a table into the classes B, C(3), G(r), H(p,q), T
  from the ranks of its multiplication maps (:mod:`grade3.presentation`);
* a rulebook of necessary conditions on which (class, format) pairs can
  occur, with an atlas renderer (:mod:`grade3.permissible`);
* format-level linkage rules and a structure-constant engine that
  re-derives each rule's class claim from an explicit mapping cone
  (:mod:`grade3.linkrules`, :mod:`grade3.cone`);
* a planner that realizes targets as replayable derivation certificates
  rooted in published families (:mod:`grade3.planner`);
* a command-line interface (``grade3``) over all of the above.

All linear algebra is exact (fraction-free elimination over the integers);
no floating point is involved anywhere.
"""

from __future__ import annotations

from .errors import (
    DimensionMismatch,
    DocumentError,
    Grade3Error,
    InvalidFormat,
    InvalidLabel,
    OutOfDomain,
    Phi2Mismatch,
    PreconditionViolated,
    UnknownArrangement,
    UnsupportedProfile,
    UnsupportedSpec,
)
from .exact import rational_rank, sparse_rank
from .labels import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    ClassInvariants,
    ClassLabel,
    Format,
    OPAQUE,
    OpaqueLabel,
    betti_total,
    class_G,
    class_H,
    class_invariants,
    make_format,
    parse_format,
    parse_label,
)
from .presentation import (
    ClassifierReport,
    TorPresentation,
    arranged_presentation,
    arrangement_ids,
    canonical_presentation,
    classify,
    compute_pqrs,
    make_presentation,
    presentation_from_document,
    presentation_to_document,
    validate_presentation,
)
from .permissible import (
    AtlasGrid,
    CellStatus,
    PermissibilityVerdict,
    RuleViolation,
    Status,
    atlas_grid,
    boundary_classes,
    is_permissible,
    render_atlas_csv,
    render_atlas_text,
)
from .linkrules import (
    RULE_ORDER,
    RULES,
    LinkageRule,
    RankProfile,
    SUPPORTED_PROFILES,
    Transition,
    apply_rule,
    betti_after_link,
    link_option_format,
    transition_from_document,
    transition_to_document,
)
from .cone import (
    LinkSpec,
    LinkedPresentation,
    SUPPORTED_SPECS,
    ScenarioResult,
    TheoremReport,
    link_profile,
    linked_to_document,
    mapping_cone_presentation,
    verify_linkage_theorems,
)
from .planner import (
    Axiom,
    BASE_FAMILIES,
    BaseFamily,
    CoverageEntry,
    CoverageReport,
    DerivationCertificate,
    RealizationResult,
    RealizeStatus,
    certificate_from_document,
    certificate_to_document,
    family_assignment,
    realize,
    realize_all,
    verify_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "Grade3Error",
    "InvalidFormat",
    "InvalidLabel",
    "DimensionMismatch",
    "UnknownArrangement",
    "UnsupportedProfile",
    "PreconditionViolated",
    "UnsupportedSpec",
    "Phi2Mismatch",
    "OutOfDomain",
    "DocumentError",
    # exact linear algebra
    "rational_rank",
    "sparse_rank",
    # labels and formats
    "Format",
    "make_format",
    "parse_format",
    "betti_total",
    "ClassLabel",
    "CLASS_B",
    "CLASS_C3",
    "CLASS_T",
    "class_G",
    "class_H",
    "parse_label",
    "ClassInvariants",
    "class_invariants",
    "OpaqueLabel",
    "OPAQUE",
    # presentations and classification
    "TorPresentation",
    "make_presentation",
    "canonical_presentation",
    "arranged_presentation",
    "arrangement_ids",
    "ClassifierReport",
    "compute_pqrs",
    "classify",
    "validate_presentation",
    "presentation_to_document",
    "presentation_from_document",
    # permissibility
    "Status",
    "RuleViolation",
    "PermissibilityVerdict",
    "is_permissible",
    "boundary_classes",
    "CellStatus",
    "AtlasGrid",
    "atlas_grid",
    "render_atlas_text",
    "render_atlas_csv",
    # linkage rules
    "RankProfile",
    "SUPPORTED_PROFILES",
    "link_option_format",
    "betti_after_link",
    "Transition",
    "LinkageRule",
    "RULES",
    "RULE_ORDER",
    "apply_rule",
    "transition_to_document",
    "transition_from_document",
    # linkage engine
    "LinkSpec",
    "SUPPORTED_SPECS",
    "link_profile",
    "LinkedPresentation",
    "mapping_cone_presentation",
    "linked_to_document",
    "ScenarioResult",
    "TheoremReport",
    "verify_linkage_theorems",
    # planner
    "BaseFamily",
    "BASE_FAMILIES",
    "Axiom",
    "DerivationCertificate",
    "RealizeStatus",
    "RealizationResult",
    "realize",
    "verify_certificate",
    "certificate_to_document",
    "certificate_from_document",
    "CoverageEntry",
    "CoverageReport",
    "realize_all",
    "family_assignment",
]
