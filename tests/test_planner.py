"""Axiom families, certificate search, replay verification, coverage."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time

import pytest

from grade3 import (
    BASE_FAMILIES,
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    OPAQUE,
    OutOfDomain,
    RealizeStatus,
    Status,
    boundary_classes,
    certificate_from_document,
    certificate_to_document,
    class_G,
    class_H,
    family_assignment,
    is_permissible,
    make_format,
    realize,
    realize_all,
    verify_certificate,
)
from grade3 import planner
from grade3.errors import DocumentError


@pytest.fixture(autouse=True)
def _fresh_search_cache():
    planner._SEARCHES.clear()
    yield
    planner._SEARCHES.clear()


# ------------------------------------------------------------- base families


def test_family_registry_ids_and_order():
    assert tuple(f.family_id for f in BASE_FAMILIES) == (
        "GOR",
        "HS",
        "ACI-a",
        "ACI-b",
        "ACI-c",
        "T2-d",
        "T2-e",
        "EXT-m3",
    )


def test_family_instances_satisfy_contains():
    bound = 16
    # Every state of reach <= bound, on a grid wide enough for HS's H(m-1,m-2).
    labels = [CLASS_T, CLASS_B, CLASS_C3, OPAQUE]
    labels += [class_G(r) for r in range(2, bound + 1)]
    labels += [class_H(p, q) for p in range(bound) for q in range(bound)]
    formats = [make_format(m, n) for m in range(1, bound + 1) for n in range(1, bound + 1)]
    for family in BASE_FAMILIES:
        instances = list(family.instances(bound))
        assert instances, family.family_id
        for label, fmt in instances:
            assert family.contains(label, fmt), (family.family_id, str(label), str(fmt))
            assert fmt.m <= bound and fmt.n <= bound
        for smaller in range(bound):  # a smaller bound keeps the instances within it, in order
            within = [(label, fmt) for label, fmt in instances if max(fmt.m, fmt.n) <= smaller]
            assert list(family.instances(smaller)) == within, (family.family_id, smaller)
        # The converse: within the bound, every state the family contains is an instance.
        contained = {(label, fmt) for label in labels for fmt in formats if family.contains(label, fmt)}
        assert contained == set(instances), family.family_id


def test_family_instances_are_permissible_or_opaque():
    for family in BASE_FAMILIES:
        for label, fmt in family.instances(12):
            if label is OPAQUE:
                continue
            assert is_permissible(label, fmt).status is Status.PERMISSIBLE, (
                family.family_id,
                str(label),
                str(fmt),
            )


def test_family_contains_rejects_near_misses():
    by_id = {f.family_id: f for f in BASE_FAMILIES}
    assert not by_id["GOR"].contains(class_G(6), make_format(6, 1))  # even
    assert not by_id["GOR"].contains(class_G(5), make_format(5, 2))  # not Gorenstein
    assert not by_id["ACI-c"].contains(CLASS_T, make_format(4, 4))  # even n
    assert not by_id["T2-e"].contains(CLASS_B, make_format(6, 2))  # even m
    assert not by_id["EXT-m3"].contains(CLASS_T, make_format(6, 3))  # not opaque
    assert by_id["EXT-m3"].contains(OPAQUE, make_format(6, 3))
    # Membership is decided from the format, without walking the family.
    r = 10**3999 + 1  # 4000 digits, odd
    start = time.perf_counter()
    assert by_id["GOR"].contains(class_G(r), make_format(r, 1))
    assert not by_id["GOR"].contains(class_G(r + 1), make_format(r + 1, 1))
    assert not by_id["HS"].contains(class_G(r), make_format(r, 1))
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------------- realize


def test_realize_axiom_hit_needs_no_steps():
    result = realize(CLASS_B, make_format(5, 2))
    assert result.status is RealizeStatus.REALIZED
    cert = result.certificate
    assert cert.axiom.family == "T2-e"
    assert cert.steps == ()
    assert cert.target == (CLASS_B, make_format(5, 2))
    assert verify_certificate(cert)


def test_realize_one_step_examples():
    result = realize(CLASS_T, make_format(5, 4))
    cert = result.certificate
    assert cert.axiom.family == "ACI-a"
    assert [s.rule for s in cert.steps] == ["linktoT"]
    assert verify_certificate(cert)

    result = realize(class_H(2, 0), make_format(6, 3))
    cert = result.certificate
    assert cert.axiom.family == "ACI-c"
    assert cert.axiom.fmt == make_format(4, 3)
    assert [s.rule for s in cert.steps] == ["linkT-i"]
    assert verify_certificate(cert)


def test_realize_two_step_example():
    result = realize(class_H(0, 1), make_format(5, 3))
    cert = result.certificate
    assert [s.rule for s in cert.steps] == ["linkT-i", "ext-CVW33"]
    assert cert.steps[-1].output_state == (class_H(0, 1), make_format(5, 3))
    assert verify_certificate(cert)


def test_realize_through_opaque_axiom():
    result = realize(CLASS_T, make_format(6, 9))
    cert = result.certificate
    assert cert.axiom.family == "EXT-m3"
    assert cert.axiom.label is OPAQUE
    assert cert.axiom.fmt == make_format(9, 3)
    assert [s.rule for s in cert.steps] == ["linktoT"]
    assert verify_certificate(cert)


def test_realize_not_permissible_reports_verdict():
    result = realize(CLASS_T, make_format(4, 2))
    assert result.status is RealizeStatus.NOT_PERMISSIBLE
    assert result.certificate is None
    assert result.verdict is not None
    assert result.verdict.status is Status.NOT_PERMISSIBLE
    assert result.detail


def test_realize_not_found_explains_rigid_classes():
    result = realize(CLASS_C3, make_format(3, 1))
    assert result.status is RealizeStatus.NOT_FOUND
    assert "Weyman" in result.detail

    result = realize(class_G(4), make_format(6, 3))
    assert result.status is RealizeStatus.NOT_FOUND
    assert "Christensen-Veliche-Weyman" in result.detail


def test_realize_gorenstein_axioms_directly():
    result = realize(class_G(7), make_format(7, 1))
    cert = result.certificate
    assert cert.axiom.family == "GOR"
    assert cert.steps == ()
    assert verify_certificate(cert)


def test_realize_respects_max_coordinate_cap():
    result = realize(CLASS_T, make_format(10, 8), max_coordinate=8)
    assert result.status is RealizeStatus.NOT_FOUND
    assert "search cap" in result.detail


def test_realize_reads_search_env(monkeypatch):
    monkeypatch.setenv(planner.SEARCH_ENV_VAR, "8")
    result = realize(CLASS_T, make_format(10, 8))
    assert result.status is RealizeStatus.NOT_FOUND
    monkeypatch.setenv(planner.SEARCH_ENV_VAR, "not-a-number")
    with pytest.raises(OutOfDomain):
        realize(CLASS_T, make_format(10, 8))
    monkeypatch.setenv(planner.SEARCH_ENV_VAR, "0")
    with pytest.raises(OutOfDomain):
        realize(CLASS_T, make_format(10, 8))


def test_realize_is_deterministic_and_order_independent():
    targets = [
        (CLASS_T, make_format(8, 6)),
        (CLASS_B, make_format(9, 4)),
        (class_H(5, 0), make_format(8, 6)),
    ]
    first = [certificate_to_document(realize(l, f).certificate) for l, f in targets]
    planner._SEARCHES.clear()
    second = [
        certificate_to_document(realize(l, f).certificate) for l, f in reversed(targets)
    ]
    assert first == list(reversed(second))


def test_rigid_targets_are_not_found_without_a_search():
    result = realize(class_G(4), make_format(12, 12))
    assert result.status is RealizeStatus.NOT_FOUND
    assert result.detail == (
        "class G(r) outside Gorenstein formats (r,1) has no known construction "
        "(Christensen-Veliche-Weyman 2020)"
    )
    result = realize(CLASS_C3, make_format(3, 1))
    assert result.status is RealizeStatus.NOT_FOUND
    assert result.detail == (
        "class C(3) is the complete intersection; it forms its own linkage class "
        "and no rulebook row produces it (Weyman 1989; Avramov-Kustin-Miller 1988)"
    )
    assert planner._SEARCHES == {}


def test_rigid_axiom_targets_are_still_searched():
    result = realize(class_G(5), make_format(5, 1))
    assert result.status is RealizeStatus.REALIZED
    assert result.certificate.axiom.family == "GOR"
    assert result.certificate.steps == ()
    assert verify_certificate(result.certificate)


def test_coverage_sweep_certificates_are_pinned():
    # Digest of every certificate of the (20,20) sweep, recorded before the
    # searches shared one successor graph; it must not move.
    report = realize_all(20, 20)
    assert len(report.entries) == 2272
    assert report.gaps == ()
    digest = hashlib.sha256()
    for entry in report.entries:
        doc = certificate_to_document(realize(entry.label, entry.fmt).certificate)
        digest.update((json.dumps(doc, sort_keys=True) + "\n").encode("utf-8"))
    assert digest.hexdigest() == "9679392c9a99759d4fc0958acf449637b3dda4c8fef57e2b4ff26dfbfaf53974"


def test_realize_grid_is_pinned():
    # Status, detail and certificate of every label below at every format up
    # to (12,12), recorded before the searches shared one successor graph.
    labels = (
        [CLASS_T, CLASS_B, CLASS_C3]
        + [class_G(r) for r in range(2, 10)]
        + [class_H(p, q) for p in range(9) for q in range(9)]
    )
    digest = hashlib.sha256()
    count = 0
    for m in range(1, 13):
        for k in range(1, 13):
            fmt = make_format(m, k)
            for label in labels:
                result = realize(label, fmt)
                doc = None if result.certificate is None else certificate_to_document(result.certificate)
                row = [str(label), str(fmt), result.status.value, result.detail, doc]
                digest.update(json.dumps(row, sort_keys=True).encode("utf-8"))
                count += 1
    assert count == 13248
    assert digest.hexdigest() == "c7006a3a23c68919c01372bb13eb36640a8cd3dcd19eab2e5e17052940876439"


def test_certificates_chain_states_consecutively():
    cert = realize(class_H(5, 0), make_format(8, 6)).certificate
    state = (cert.axiom.label, cert.axiom.fmt)
    for step in cert.steps:
        assert step.input_state == state
        state = step.output_state
    assert state == cert.target


# -------------------------------------------------------------- verification


def test_verify_rejects_tampered_certificates():
    cert = realize(class_H(2, 0), make_format(6, 3)).certificate
    assert verify_certificate(cert)

    step = cert.steps[0]
    wrong_out = dataclasses.replace(
        step, output_state=(class_H(2, 2), step.output_state[1])
    )
    assert not verify_certificate(dataclasses.replace(cert, steps=(wrong_out,)))

    wrong_rule = dataclasses.replace(step, rule="linkT-ii")
    assert not verify_certificate(dataclasses.replace(cert, steps=(wrong_rule,)))

    wrong_target = dataclasses.replace(cert, target=(class_H(2, 2), cert.target[1]))
    assert not verify_certificate(wrong_target)

    wrong_family = dataclasses.replace(
        cert, axiom=dataclasses.replace(cert.axiom, family="GOR")
    )
    assert not verify_certificate(wrong_family)

    unknown_family = dataclasses.replace(
        cert, axiom=dataclasses.replace(cert.axiom, family="XYZ")
    )
    assert not verify_certificate(unknown_family)

    wrong_axiom_fmt = dataclasses.replace(
        cert, axiom=dataclasses.replace(cert.axiom, fmt=make_format(4, 5))
    )
    assert not verify_certificate(wrong_axiom_fmt)

    # Citations are replayed too, on the axiom and on every step.
    cert = realize(class_H(5, 0), make_format(8, 6)).certificate
    assert verify_certificate(cert)
    forged_axiom_cite = dataclasses.replace(
        cert, axiom=dataclasses.replace(cert.axiom, cite="Anonymous 2099")
    )
    assert not verify_certificate(forged_axiom_cite)
    forged_step_cite = dataclasses.replace(
        cert, steps=(dataclasses.replace(cert.steps[0], cite="Anonymous 2099"), *cert.steps[1:])
    )
    assert not verify_certificate(forged_step_cite)


def test_verify_rejects_rule_precondition_breaks():
    cert = realize(class_H(0, 1), make_format(5, 3)).certificate
    step0, step1 = cert.steps
    # A step whose recorded output disagrees with the rule replay.
    patched = dataclasses.replace(
        step0, output_state=(step0.output_state[0], make_format(8, 3))
    )
    assert not verify_certificate(dataclasses.replace(cert, steps=(patched, step1)))
    # A step whose recorded input does not match the preceding state.
    patched = dataclasses.replace(
        step1, input_state=(class_H(2, 2), step1.input_state[1])
    )
    assert not verify_certificate(dataclasses.replace(cert, steps=(step0, patched)))


# ------------------------------------------------------------- serialization


def test_certificate_document_round_trip():
    cert = realize(class_H(0, 1), make_format(5, 3)).certificate
    doc = certificate_to_document(cert)
    assert doc["version"] == 1
    assert doc["axiom"]["family"] == "ACI-c"
    assert doc["axiom"]["class"] == "T"
    assert doc["target"] == {"class": "H(0,1)", "format": "(5,3)"}
    back = certificate_from_document(doc)
    assert back == cert
    assert verify_certificate(back)


def test_certificate_document_renders_opaque_axioms():
    cert = realize(CLASS_T, make_format(6, 9)).certificate
    doc = certificate_to_document(cert)
    assert doc["axiom"]["class"] == "*"
    back = certificate_from_document(doc)
    assert back.axiom.label is OPAQUE
    assert verify_certificate(back)


def test_certificate_document_strictness():
    doc = certificate_to_document(realize(CLASS_B, make_format(5, 2)).certificate)
    with pytest.raises(DocumentError):
        certificate_from_document("nope")
    with pytest.raises(DocumentError):
        certificate_from_document({**doc, "extra": 1})
    with pytest.raises(DocumentError):
        certificate_from_document({**doc, "version": 9})
    for version in (True, 1.0, "1"):
        with pytest.raises(DocumentError):
            certificate_from_document({**doc, "version": version})
    with pytest.raises(DocumentError):
        certificate_from_document({**doc, "axiom": {"family": "T2-e"}})
    with pytest.raises(DocumentError):
        certificate_from_document({**doc, "steps": "none"})
    with pytest.raises(DocumentError):
        certificate_from_document({**doc, "target": {"class": "B"}})


def test_tampered_documents_fail_verification_not_parsing():
    doc = certificate_to_document(realize(class_H(2, 0), make_format(6, 3)).certificate)
    doc["target"]["class"] = "H(2,2)"
    cert = certificate_from_document(doc)
    assert not verify_certificate(cert)


# ----------------------------------------------------------------- coverage


def test_realize_all_small_sweep_has_no_gaps():
    report = realize_all(8, 6)
    assert report.gaps == ()
    kinds = {e.kind for e in report.entries}
    assert kinds == {"T", "B", "H-boundary"}
    # Every boundary label of every format in range is attempted.
    expected_h = sum(
        len(boundary_classes(make_format(m, n)))
        for m in range(4, 9)
        for n in range(2, 7)
    )
    assert len(report.entries_of_kind("H-boundary")) == expected_h


def test_realize_all_domain_guard():
    with pytest.raises(OutOfDomain):
        realize_all(3, 6)
    with pytest.raises(OutOfDomain):
        realize_all(8, 1)


# ---------------------------------------------------------- family assignment


def test_family_assignment_precedence_and_fallback():
    assert family_assignment(make_format(8, 8)) == "column-m2"
    assert family_assignment(make_format(6, 6)) == "column-m0"
    assert family_assignment(make_format(7, 6)) == "column-m1"
    assert family_assignment(make_format(12, 8)) == "row-n2"
    assert family_assignment(make_format(9, 6)) == "row-n0"
    assert family_assignment(make_format(6, 4)) == "row-n1"
    assert family_assignment(make_format(8, 6)) == "hs-diagonal"
    assert family_assignment(make_format(5, 4)) == "hs-diagonal"
    assert family_assignment(make_format(12, 10)) == "row-n1"


def test_family_assignment_domain_guard():
    with pytest.raises(OutOfDomain):
        family_assignment(make_format(4, 5))  # m < 5
    with pytest.raises(OutOfDomain):
        family_assignment(make_format(6, 3))  # n < 4


def test_family_assignment_only_labels_known_ids():
    for m in range(5, 14):
        for n in range(4, 12):
            fmt = make_format(m, n)
            if is_permissible(CLASS_T, fmt).status is not Status.PERMISSIBLE:
                continue
            assert family_assignment(fmt) in planner.FAMILY_ASSIGNMENT_IDS
