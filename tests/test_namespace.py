"""The package namespace: every module's public names, declared once."""

from __future__ import annotations

import importlib

import pytest

import grade3

MODULES = ("errors", "exact", "labels", "presentation", "permissible", "linkrules", "cone", "planner")

# ``grade3.__all__`` when the package listed its names by hand; each must still resolve.
_HAND_LISTED = """
__version__ Grade3Error InvalidFormat InvalidLabel DimensionMismatch UnknownArrangement
UnsupportedProfile PreconditionViolated UnsupportedSpec Phi2Mismatch OutOfDomain
DocumentError rational_rank sparse_rank Format make_format parse_format betti_total
ClassLabel CLASS_B CLASS_C3 CLASS_T class_G class_H parse_label ClassInvariants
class_invariants OPAQUE TorPresentation make_presentation
canonical_presentation arranged_presentation arrangement_ids ClassifierReport
classify validate_presentation presentation_to_document
presentation_from_document Status RuleViolation PermissibilityVerdict is_permissible
boundary_classes CellStatus AtlasGrid atlas_grid render_atlas_text render_atlas_csv
RankProfile SUPPORTED_PROFILES link_option_format Transition
LinkageRule RULES RULE_ORDER apply_rule transition_to_document transition_from_document
LinkSpec LinkedPresentation mapping_cone_presentation
linked_to_document ScenarioResult TheoremReport verify_linkage_theorems BaseFamily
BASE_FAMILIES Axiom DerivationCertificate RealizeStatus RealizationResult realize
verify_certificate certificate_to_document certificate_from_document CoverageEntry
CoverageReport realize_all family_assignment
""".split()


@pytest.mark.parametrize("module_name", MODULES)
def test_module_names_are_the_package_names(module_name):
    module = importlib.import_module(f"grade3.{module_name}")
    for name in module.__all__:
        assert getattr(grade3, name) is getattr(module, name), name
        assert name in grade3.__all__


def test_package_all_is_the_modules_all_without_duplicates():
    expected = ["__version__"]
    for module_name in MODULES:
        expected += importlib.import_module(f"grade3.{module_name}").__all__
    assert grade3.__all__ == expected
    assert len(set(grade3.__all__)) == len(grade3.__all__)


def test_hand_listed_names_still_resolve():
    assert len(_HAND_LISTED) == 79
    missing = [name for name in _HAND_LISTED if name not in grade3.__all__ or not hasattr(grade3, name)]
    assert missing == []
