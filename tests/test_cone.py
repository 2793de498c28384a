"""Mapping-cone engine: exact products, splits, signs, and theorem replay."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from grade3 import (
    CLASS_B,
    CLASS_T,
    LinkSpec,
    OutOfDomain,
    Phi2Mismatch,
    SUPPORTED_SPECS,
    UnsupportedSpec,
    arranged_presentation,
    canonical_presentation,
    class_G,
    class_H,
    classify,
    link_option_format,
    link_profile,
    linked_to_document,
    make_format,
    mapping_cone_presentation,
    presentation_to_document,
    validate_presentation,
    verify_linkage_theorems,
)
from grade3.cone import _canonical_labels, _sweep, _sweep_label_count
from grade3.linkrules import RULES, _FORMAT_MAPS


def _unit(length, index, sign=1):
    vec = [0] * length
    vec[index - 1] = sign
    return tuple(vec)


# --------------------------------------------------------------- base cases


def test_t1_zero_yields_exactly_the_koszul_products():
    table = canonical_presentation(CLASS_B, make_format(5, 2))
    lp = mapping_cone_presentation(table, LinkSpec(0))
    out = lp.presentation
    # Output format (n+3, m) = (5, 5); middle dimension 9.
    assert (out.m, out.n) == (5, 5)
    assert lp.splits == ()
    assert out.ee == {
        (3, 4): {9: 1},  # E_{n+1} E_{n+2} = F_{m+n+2}
        (3, 5): {8: 1},  # E_{n+1} E_{n+3} = F_{m+n+1}
        (4, 5): {7: 1},  # E_{n+2} E_{n+3} = F_{m+n}
    }
    assert out.ef == {}
    assert classify(out).label == CLASS_T


def test_t1_one_on_rearranged_t_table():
    # Splits G1 and F_{m+n}; the two surviving Koszul products plus the
    # degree-2 action of the designated generator make the link H(2,2).
    table = arranged_presentation(CLASS_T, make_format(4, 3), "T-A")
    lp = mapping_cone_presentation(table, LinkSpec(1))
    out = lp.presentation
    assert (out.m, out.n) == (6, 3)
    assert lp.splits == ("G1", "F7")
    e_map, f_map, g_map = lp.index_map["E"], lp.index_map["F"], lp.index_map["G"]
    # Koszul survivors, re-indexed.
    assert out.ee == {
        (e_map[4], e_map[5]): {f_map[9]: 1},
        (e_map[4], e_map[6]): {f_map[8]: 1},
    }
    # E_4 F_1 = G_2 and E_4 F_2 = G_4 in raw indices.
    assert out.ef == {
        (e_map[4], f_map[1]): {g_map[2]: 1},
        (e_map[4], f_map[2]): {g_map[4]: 1},
    }
    assert classify(out).label == class_H(2, 2)


def test_t1_one_on_gorenstein_table():
    lp = mapping_cone_presentation(
        canonical_presentation(class_G(5), make_format(5, 1)), LinkSpec(1)
    )
    out = lp.presentation
    assert (out.m, out.n) == (4, 4)
    e_map, f_map = lp.index_map["E"], lp.index_map["F"]
    # E_{n+1} E_1 = F_1 enters with the sign of the stored (1, n+1) slot.
    assert out.ee_product(e_map[1], e_map[2]) == _unit(7, f_map[1], -1)
    assert classify(out).label == class_H(3, 0)


def test_t1_two_unit_case_reaches_class_b():
    table = arranged_presentation(CLASS_T, make_format(4, 3), "T-A")
    lp = mapping_cone_presentation(table, LinkSpec(2, phi2_unit=True))
    out = lp.presentation
    assert (out.m, out.n) == (5, 2)
    assert lp.splits == ("G1", "G2", "F1", "F7", "F8", "E6")
    assert classify(out).label == CLASS_B


def test_t1_two_plain_case():
    table = arranged_presentation(CLASS_T, make_format(4, 3), "T-B")
    lp = mapping_cone_presentation(table, LinkSpec(2))
    out = lp.presentation
    assert (out.m, out.n) == (6, 2)
    assert lp.splits == ("G1", "G2", "F7", "F8")
    assert classify(out).label == class_H(1, 2)


def test_sign_regression_on_swapped_pair_arrangement():
    # The H-i arrangement stores e_2 e_1 = f_1 as a -1 on the (1,2) slot;
    # the linked table must carry coefficient -1 on (raw) G_2 exactly.
    table = arranged_presentation(class_H(2, 1), make_format(6, 3), "H-i")
    lp = mapping_cone_presentation(table, LinkSpec(1))
    out = lp.presentation
    e_map, f_map, g_map = lp.index_map["E"], lp.index_map["F"], lp.index_map["G"]
    vec = out.ef_product(e_map[3 + 1], f_map[1])
    assert vec[g_map[2] - 1] == -1
    assert vec == _unit(out.n, g_map[2], -1)
    assert classify(out).label == class_H(2, 1)


def test_t1_three_symbolic_slots():
    table = arranged_presentation(class_H(2, 0), make_format(6, 3), "H-v")
    lp = mapping_cone_presentation(table, LinkSpec(3))
    out = lp.presentation
    assert (out.m, out.n) == (6, 3)
    assert lp.splits == ("G1", "G2", "G3", "F9", "F10", "F11")
    # Determinate part: no ee products, and E_{n+1} F_i = G_{i+3} for i <= p.
    assert out.ee == {}
    e_map, f_map = lp.index_map["E"], lp.index_map["F"]
    assert out.ef == {
        (e_map[4], f_map[1]): {1: 1},
        (e_map[4], f_map[2]): {2: 1},
    }
    # Symbolic slots: all EE pairs among E_1..E_n and EF pairs up to F_{m+n-1}.
    want = {("EE", i, j) for i in range(1, 4) for j in range(i + 1, 4)}
    want |= {("EF", i, l) for i in range(1, 4) for l in range(1, 9)}
    assert set(lp.symbolic_products) == want
    assert classify(out).label == class_H(0, 2)


def test_symbolic_slots_only_for_t1_three():
    table = arranged_presentation(CLASS_T, make_format(5, 3), "T-A")
    for spec in (LinkSpec(0), LinkSpec(1), LinkSpec(2)):
        assert mapping_cone_presentation(table, spec).symbolic_products == ()


# ------------------------------------------------------------------- guards


def test_unsupported_specs_rejected():
    table = canonical_presentation(CLASS_T, make_format(4, 3))
    with pytest.raises(UnsupportedSpec):
        mapping_cone_presentation(table, LinkSpec(4))
    with pytest.raises(UnsupportedSpec):
        mapping_cone_presentation(table, LinkSpec(1, phi2_unit=True))
    small = canonical_presentation(class_H(0, 1), make_format(2, 2))
    with pytest.raises(UnsupportedSpec):
        mapping_cone_presentation(small, LinkSpec(3))


def test_phi2_needs_unit_product():
    # Canonical T has e_1 e_2 = f_3, not f_1.
    table = canonical_presentation(CLASS_T, make_format(4, 3))
    with pytest.raises(Phi2Mismatch):
        mapping_cone_presentation(table, LinkSpec(2, phi2_unit=True))


def test_output_format_follows_the_profile_table():
    for label, fmt_pair, arrangement in [
        (CLASS_T, (5, 4), "T-A"),
        (class_H(3, 1), (7, 4), "H-ii"),
        (class_G(4), (6, 3), "G-std"),
    ]:
        fmt = make_format(*fmt_pair)
        table = arranged_presentation(label, fmt, arrangement)
        for spec in (LinkSpec(0), LinkSpec(1), LinkSpec(2)):
            lp = mapping_cone_presentation(table, spec)
            assert lp.presentation.fmt == link_option_format(fmt, link_profile(spec))
            assert validate_presentation(lp.presentation) == ()


def test_middle_rank_identity_on_outputs():
    table = arranged_presentation(class_H(2, 2), make_format(8, 5), "H-iv")
    for spec in SUPPORTED_SPECS:
        if spec.phi2_unit:
            continue
        out = mapping_cone_presentation(table, spec).presentation
        assert out.dim2 == out.m + out.n - 1


# ------------------------------------------------------------- serialization


def test_linked_document_shape():
    table = arranged_presentation(CLASS_T, make_format(4, 3), "T-A")
    doc = linked_to_document(mapping_cone_presentation(table, LinkSpec(1)))
    assert doc["version"] == 1
    assert doc["splits"] == ["G1", "F7"]
    assert set(doc["index_map"]) == {"E", "F", "G"}
    assert doc["index_map"]["G"] == {"2": 1, "3": 2, "4": 3}
    assert doc["symbolic"] == []
    assert doc["presentation"]["m"] == 6
    assert doc["presentation"]["n"] == 3


def test_linked_document_symbolic_slots():
    table = arranged_presentation(class_H(2, 0), make_format(6, 3), "H-v")
    doc = linked_to_document(mapping_cone_presentation(table, LinkSpec(3)))
    assert ["E1", "E2"] in doc["symbolic"]
    assert ["E1", "F1"] in doc["symbolic"]
    assert all(pair[0].startswith("E") for pair in doc["symbolic"])


# ------------------------------------------------------------ theorem replay


def test_theorem_replay_small_sweep():
    report = verify_linkage_theorems(6, 4)
    assert report.all_passed
    by_name = {res.scenario: res for res in report.results}
    assert set(by_name) == {
        "linktoT",
        "linkT-i",
        "linkT-ii",
        "linkT-iii",
        "linkT-iv",
        "linkG-i",
        "linkG-ii",
        "linkH-i",
        "linkH-ii",
        "linkH-iii",
        "linkH-iv",
        "linkH-v",
    }
    for res in report.results:
        assert res.checked > 0, res.scenario
    assert by_name["linkH-v"].note  # the X/Y caveat is recorded


def test_theorem_replay_domain_guard():
    with pytest.raises(OutOfDomain):
        verify_linkage_theorems(4, 8)
    with pytest.raises(OutOfDomain):
        verify_linkage_theorems(10, 0)
    with pytest.raises(OutOfDomain, match="limit"):
        verify_linkage_theorems(300, 300)


def test_theorem_sweep_label_count_matches_the_label_lists():
    for m_max in range(5, 13):
        for n_max in range(1, 11):
            listed = sum(
                len(_canonical_labels(make_format(m, n)))
                for m in range(4, m_max + 1)
                for n in range(1, n_max + 1)
            )
            assert _sweep_label_count(m_max, n_max) == listed, (m_max, n_max)


def test_theorem_replay_checks_the_planner_rules(monkeypatch):
    # verify-theorems replays the RULES entries the planner searches with,
    # so a wrong class or format claim there fails exactly its own scenario.
    monkeypatch.setitem(
        RULES, "linkH-iii", dataclasses.replace(RULES["linkH-iii"], out_class=lambda c: class_H(1, 2))
    )
    monkeypatch.setitem(
        RULES, "linkT-i", dataclasses.replace(RULES["linkT-i"], out_format=_FORMAT_MAPS[(2, 0, 0)])
    )
    report = verify_linkage_theorems(6, 4)
    failed = {res.scenario for res in report.results if not res.passed}
    assert failed == {"linkH-iii", "linkT-i"}
    by_name = {res.scenario: res for res in report.results}
    assert all("expected H(1,2)" in f for f in by_name["linkH-iii"].failures)
    assert all("output format" in f for f in by_name["linkT-i"].failures)


def test_theorem_sweep_tables_and_links_are_pinned():
    # Every input table of the verify_linkage_theorems(10, 8) sweep and its
    # mapping cone (products, splits, index maps, symbolic slots), recorded
    # while products were still stored as dense vectors; it must not move.
    # The tables come from the sweep's own generator.
    digest = hashlib.sha256()
    count = 0
    for rule, spec, tables in _sweep(10, 8):
        for label, fmt, table in tables:
            lp = mapping_cone_presentation(table, spec)
            row = [rule.rule_id, str(label), str(fmt), presentation_to_document(table), linked_to_document(lp)]
            digest.update((json.dumps(row, sort_keys=True) + "\n").encode("utf-8"))
            count += 1
    assert count == 11060
    assert digest.hexdigest() == "e91a37abf21c6bfb691bf63f4be0e43909bf9bd5c267413a769f3a14c6c609fe"
