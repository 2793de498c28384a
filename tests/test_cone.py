"""Mapping-cone engine: exact products, splits, signs, and theorem replay."""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest

from grade3 import (
    CLASS_B,
    CLASS_T,
    DimensionMismatch,
    LinkSpec,
    OutOfDomain,
    Phi2Mismatch,
    RankProfile,
    SUPPORTED_PROFILES,
    TorPresentation,
    UnsupportedProfile,
    UnsupportedSpec,
    arranged_presentation,
    arrangement_ids,
    canonical_presentation,
    class_G,
    class_H,
    classify,
    link_option_format,
    linked_to_document,
    make_format,
    make_presentation,
    mapping_cone_presentation,
    presentation_to_document,
    validate_presentation,
    verify_linkage_theorems,
)
from grade3 import cone
from grade3.cone import _canonical_labels, _sweep, _sweep_label_count
from grade3.linkrules import RULES, _STEPS, _rule_outputs

import pins


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
    for spec in (LinkSpec(0), LinkSpec(1), LinkSpec(2, phi2_unit=True)):
        assert mapping_cone_presentation(table, spec).symbolic_products == ()
    plain = arranged_presentation(CLASS_T, make_format(5, 3), "T-B")
    assert mapping_cone_presentation(plain, LinkSpec(2)).symbolic_products == ()


def test_zero_designated_product_is_no_product():
    # A stored e_1 e_2 = {1: 0} has rank 0: the table links at t1 = 2 exactly
    # like the same table without it.
    base = arranged_presentation(CLASS_T, make_format(5, 3), "T-B")
    with_zero = TorPresentation(base.m, base.n, {**base.ee, (1, 2): {1: 0}}, base.ef)
    linked = mapping_cone_presentation(with_zero, LinkSpec(2))
    assert linked == mapping_cone_presentation(base, LinkSpec(2))
    assert classify(linked.presentation).label == class_H(1, 2)


def test_supported_rows_are_pinned():
    # The five rows of the profile table, and the LinkSpec calls that build
    # them, in order.
    assert SUPPORTED_PROFILES == (
        RankProfile(0, 0, 0),
        RankProfile(1, 0, 0),
        RankProfile(2, 0, 0),
        RankProfile(2, 1, 0),
        RankProfile(3, 0, 0),
    )
    assert (LinkSpec(0), LinkSpec(1), LinkSpec(2), LinkSpec(2, True), LinkSpec(3)) == SUPPORTED_PROFILES


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
    # At m = t1 the output would have m - t1 = 0 generators of degree 3.
    for spec in (LinkSpec(1), LinkSpec(2), LinkSpec(2, phi2_unit=True), LinkSpec(3)):
        with pytest.raises(UnsupportedSpec, match=re.escape(f"the link needs m > {spec.t1}; got m = {spec.t1}")):
            mapping_cone_presentation(make_presentation(spec.t1, 2), spec)


def test_refused_rows_say_what_was_refused():
    # A row LinkSpec builds is worded by its arguments, as the CLI's --t1 and
    # --phi2-unit pin it; any other row is named, since its t2 or t3 has no
    # LinkSpec argument.  The cone and link_option_format word a row alike.
    table = canonical_presentation(CLASS_T, make_format(4, 3))
    refused = [
        (LinkSpec(1, phi2_unit=True), "link spec (t1=1, phi2_unit=True) is not supported"),
        (LinkSpec(4), "link spec (t1=4, phi2_unit=False) is not supported"),
        (RankProfile(2, 2, 0), "rank profile (2, 2, 0) is outside the supported table"),
        (RankProfile(2, 0, 1), "rank profile (2, 0, 1) is outside the supported table"),
        (RankProfile(0, 10**5000, 0), "rank profile (0, 2**16609 or more, 0) is outside the supported table"),
        (RankProfile(10**5000, 0, 0), "link spec (t1=2**16609 or more, phi2_unit=False) is not supported"),
    ]
    for row, message in refused:
        with pytest.raises(UnsupportedSpec) as exc:
            mapping_cone_presentation(table, row)
        assert str(exc.value) == message
        with pytest.raises(UnsupportedProfile) as exc:
            link_option_format(make_format(6, 3), row)
        assert str(exc.value) == message


def test_a_row_built_around_the_constructor_is_refused_everywhere():
    # _replace skips the constructor's check, as Format(...) skips
    # make_format's; a row with a negative t2 is named, not worded by LinkSpec,
    # and a row with a field that cannot be hashed is refused too.
    table = canonical_presentation(CLASS_T, make_format(4, 3))
    for row, message in (
        (RankProfile(1, 0, 0)._replace(t2=-1), "rank profile (1, -1, 0) is outside the supported table"),
        (RankProfile(1, 0, 0)._replace(t1=[1]), "link spec (t1=[1], phi2_unit=False) is not supported"),
    ):
        for error, refuse in (
            (UnsupportedProfile, lambda: link_option_format(make_format(6, 3), row)),
            (UnsupportedSpec, lambda: mapping_cone_presentation(table, row)),
        ):
            with pytest.raises(error) as exc:
                refuse()
            assert str(exc.value) == message


@pytest.mark.parametrize(
    "ee, ef, index",
    [
        ({}, {(1, 99): {1: 1}}, 99),  # an f index above m+n-1 = 6
        ({(1, 9): {1: 1}}, {}, 9),  # an e index above m = 4, read as a g index
        ({}, {(1, 2): {50: 1}}, 50),  # a g coordinate above n = 3, read as an e index
    ],
)
def test_an_index_outside_the_format_is_refused(ee, ef, index):
    with pytest.raises(DimensionMismatch) as exc:
        mapping_cone_presentation(TorPresentation(4, 3, ee, ef), LinkSpec(1))
    assert str(exc.value) == f"a product names index {index}, which is outside the bases of a table in format (4,3)"


@pytest.mark.parametrize("row", SUPPORTED_PROFILES)
def test_a_field_that_is_not_a_mapping_is_refused_on_every_row(row):
    # At t1 = 0 no product has a designated factor, so none is read; a field
    # that is not a mapping is still refused there, as on every other row.
    unit = {(1, 2): {1: 1}} if row.t2 else {}  # the unit row checks e_1 e_2 = f_1 first
    for ee, ef in ((unit, None), (None, {}), (unit, [1]), ("x", {})):
        with pytest.raises(DimensionMismatch, match="^TorPresentation has a field of the wrong type"):
            mapping_cone_presentation(TorPresentation(4, 3, ee, ef), row)


def test_phi2_needs_unit_product():
    # Canonical T has e_1 e_2 = f_3, not f_1.
    table = canonical_presentation(CLASS_T, make_format(4, 3))
    with pytest.raises(Phi2Mismatch):
        mapping_cone_presentation(table, LinkSpec(2, phi2_unit=True))


def test_output_format_follows_the_profile_table():
    # T-A and H-ii store e_1 e_2 = f_1, so at t1 = 2 they are in the unit row
    # (2,1,0): the plain spec refuses them and the unit spec links them.
    for label, fmt_pair, arrangement, unit in [
        (CLASS_T, (5, 4), "T-A", True),
        (class_H(3, 1), (7, 4), "H-ii", True),
        (class_G(4), (6, 3), "G-std", False),
    ]:
        fmt = make_format(*fmt_pair)
        table = arranged_presentation(label, fmt, arrangement)
        specs = (LinkSpec(0), LinkSpec(1), LinkSpec(2, phi2_unit=unit))
        if unit:
            with pytest.raises(UnsupportedSpec, match=re.escape("needs row (2,1,0)")):
                mapping_cone_presentation(table, LinkSpec(2))
        for spec in specs:
            lp = mapping_cone_presentation(table, spec)
            assert lp.presentation.fmt == link_option_format(fmt, spec)
            assert validate_presentation(lp.presentation) == ()


def test_middle_rank_identity_on_outputs():
    # H-iv stores e_1 e_3 = f_1, which puts it in row (3,1,0) at t1 = 3; the
    # H-v arrangement of the same class keeps e_1..e_3 free of products.
    table = arranged_presentation(class_H(2, 2), make_format(8, 5), "H-iv")
    for spec in SUPPORTED_PROFILES:
        if spec.t2 == 1:
            continue
        if spec.t1 == 3:
            with pytest.raises(UnsupportedSpec, match=re.escape("needs row (3,1,0)")):
                mapping_cone_presentation(table, spec)
            table = arranged_presentation(class_H(2, 2), make_format(8, 5), "H-v")
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
                len(labels)
                for m in range(4, m_max + 1)
                for n in range(1, n_max + 1)
                for labels in _canonical_labels(make_format(m, n)).values()
            )
            assert _sweep_label_count(m_max, n_max) == listed, (m_max, n_max)


def test_theorem_replay_checks_the_planner_rules(monkeypatch):
    # verify-theorems replays the steps of linkrules._STEPS, the table the
    # planner searches with, so a wrong class or format there fails exactly
    # its own scenario.  A step is (rule id, cite, t1, t2, guards, out tag,
    # then the two output slots as index and offset into (a, b, 0)).
    def plant(tag, rule_id, wrong):
        monkeypatch.setitem(_STEPS, tag, tuple(wrong(s) if s[0] == rule_id else s for s in _STEPS[tag]))

    plant("H", "linkH-iii", lambda step: step[:6] + (2, 1, 2, 2))  # the constant slots of H(1,2)
    plant("T", "linkT-i", lambda step: step[:2] + (2,) + step[3:])  # t1 = 2, the format of row (2,0,0)
    report = verify_linkage_theorems(6, 4)
    failed = {res.scenario for res in report.results if not res.passed}
    assert failed == {"linkH-iii", "linkT-i"}
    # Each failure line is worded in full: "{label} at {fmt}: {what differs}".
    by_name = {res.scenario: res.failures for res in report.results}
    class_lines, format_lines = by_name["linkH-iii"], by_name["linkT-i"]
    assert len(class_lines) == 126
    assert class_lines[0] == "H(1,0) at (4,1): classified H(1,1), expected H(1,2)"
    assert class_lines[-1] == "H(4,4) at (6,4): classified H(1,1), expected H(1,2)"
    class_line = r"H\(\d+,\d+\) at \(\d+,\d+\): classified H\(1,1\), expected H\(1,2\)"
    assert all(re.fullmatch(class_line, f) for f in class_lines)
    assert len(format_lines) == 12
    assert format_lines[0] == "T at (4,1): output format (4,3) != (4,2)"
    assert format_lines[-1] == "T at (6,4): output format (7,5) != (7,4)"
    format_line = r"T at \(\d+,\d+\): output format \(\d+,\d+\) != \(\d+,\d+\)"
    assert all(re.fullmatch(format_line, f) for f in format_lines)


def test_theorem_replay_words_h_v_and_validation_failures(monkeypatch):
    # The failure lines a correct cone never produces.  First the t1 = 3
    # outputs gain an ee and an ef product and lose a symbolic slot, which
    # fails all four checks of the three-generator row on its H-v witness.
    link = cone.mapping_cone_presentation

    def perturbed(table, row):
        lp = link(table, row)
        if row.t1 != 3:
            return lp
        out = lp.presentation
        wrong = TorPresentation(out.m, out.n, {**out.ee, (1, 2): {1: 1}}, {**out.ef, (1, 1): {1: 1}})
        return lp._replace(presentation=wrong, symbolic_products=lp.symbolic_products[1:])

    monkeypatch.setattr(cone, "mapping_cone_presentation", perturbed)
    report = verify_linkage_theorems(6, 4)
    assert [res.scenario for res in report.results if not res.passed] == ["linkH-v"]
    (lines,) = [res.failures for res in report.results if res.scenario == "linkH-v"]
    assert len(lines) == 4 * 12
    assert lines[:4] == (
        "H(2,0) at (5,1): determinate ee products should be empty",
        "H(2,0) at (5,1): determinate ef products differ: "
        "{(2, 1): {1: 1}, (2, 2): {2: 1}, (1, 1): {1: 1}} != {(2, 1): {1: 1}, (2, 2): {2: 1}}",
        "H(2,0) at (5,1): symbolic product slots differ from the expected X/Y families",
        "H(2,0) at (5,1): determinate part classifies as H(1,2), expected H(0,2)",
    )
    label_at = r"H\(\d+,0\) at \(\d+,\d+\): "
    for index, pattern in enumerate(
        [
            "determinate ee products should be empty",
            r"determinate ef products differ: \{.*\} != \{.*\}",
            "symbolic product slots differ from the expected X/Y families",
            r"determinate part classifies as .+, expected H\(0,\d+\)",
        ]
    ):
        assert all(re.fullmatch(label_at + pattern, line) for line in lines[index::4]), pattern
    monkeypatch.undo()

    # Then every output is reported invalid: one line per linked table.
    monkeypatch.setattr(cone, "validate_presentation", lambda out: ("planted problem",))
    report = verify_linkage_theorems(6, 4)
    for res in report.results:
        assert len(res.failures) == res.checked > 0, res.scenario
        invalid = r".+ at \(\d+,\d+\): invalid output table: planted problem"
        assert all(re.fullmatch(invalid, line) for line in res.failures), res.scenario


def _counted_classify(monkeypatch):
    """Count the replay's label decisions, H-v checks included."""
    calls = [0]
    decide = cone._class_label

    def counted(table):
        calls[0] += 1
        return decide(table)

    monkeypatch.setattr(cone, "_class_label", counted)
    return calls


def test_theorem_replay_classifies_each_run_of_equal_outputs_once(monkeypatch):
    # The replay classifies a valid output only when it differs from the
    # rule's previous classified one; the H-v rows are all classified.
    # Counted here from the sweep and the cone alone.
    expected = rows = 0
    for rule, witness, plan in _sweep(6, 4):
        previous = None
        for (label, fmt), _ in plan:
            out = mapping_cone_presentation(witness(label, fmt), rule.profile).presentation
            assert validate_presentation(out) == ()
            expected += rule.witness == "H-v" or out != previous
            previous = out
            rows += 1
    assert (expected, rows) == (498, 1110)
    calls = _counted_classify(monkeypatch)
    report = verify_linkage_theorems(6, 4)
    assert report.all_passed
    assert sum(res.checked for res in report.results) == rows
    assert calls[0] == expected


def test_theorem_replay_reclassifies_a_different_output_in_a_run(monkeypatch):
    # linkH-i links every input at a format to one table.  At (6,4) the
    # output of H(3,2), in the middle of that run, loses its ef product: a
    # valid table of the same format and another class.  It must fail alone;
    # H(3,3) after it must be classified again, and H(3,4), a fresh table
    # equal to H(3,3)'s, passes on H(3,3)'s class.
    sweep, link = cone._sweep, cone.mapping_cone_presentation
    planted = []

    def marked(rule, witness):
        def build(label, fmt):
            table = witness(label, fmt)
            if rule.rule_id == "linkH-i" and (label, fmt) == (class_H(3, 2), make_format(6, 4)):
                planted.append(table)
            return table

        return build

    def perturbed(table, row):
        lp = link(table, row)
        if planted and table is planted[0]:
            return lp._replace(presentation=lp.presentation._replace(ef={}))
        return lp

    monkeypatch.setattr(
        cone, "_sweep", lambda m, n: ((rule, marked(rule, witness), rows) for rule, witness, rows in sweep(m, n))
    )
    calls = _counted_classify(monkeypatch)
    monkeypatch.setattr(cone, "mapping_cone_presentation", perturbed)
    report = verify_linkage_theorems(6, 4)
    failures = {res.scenario: res.failures for res in report.results if res.failures}
    (line,) = failures.pop("linkH-i")
    assert line == "H(3,2) at (6,4): classified H(2,0), expected H(2,1)"
    assert failures == {}
    # Two calls more than the unperturbed replay's 498: the perturbed output
    # and H(3,3)'s after it.
    assert calls[0] == 498 + 2


def test_a_refused_witness_reaches_a_sweep_consumer_as_the_builders_error(monkeypatch):
    # The sweep yields each rule's witness builder, not its tables: a consumer
    # that links every row, as pins.cone_sweep does, gets the builder's own
    # refusal, here on linkG-i's witness of G(2) at (4,1), the fifth arrangement built.
    build, calls = cone.arranged_presentation, [0]

    def refuse_fifth(label, fmt, arrangement):
        calls[0] += 1
        if calls[0] == 5:
            raise DimensionMismatch("planted refusal")
        return build(label, fmt, arrangement)

    monkeypatch.setattr(cone, "arranged_presentation", refuse_fifth)
    with pytest.raises(DimensionMismatch, match="^planted refusal$"):
        for rule, witness, rows in _sweep(6, 4):
            for (label, fmt), _ in rows:
                linked_to_document(mapping_cone_presentation(witness(label, fmt), rule.profile))
    assert calls[0] == 5


def _witness_builders():
    """Every witness builder the replay can name, as (name, class tag or None
    for any, function of label and format)."""
    yield "canonical", None, canonical_presentation
    for arrangement in arrangement_ids():  # each id opens with its class tag: T-A, G-std, H-i, ...
        yield arrangement, arrangement[0], lambda label, fmt, arrangement=arrangement: arranged_presentation(
            label, fmt, arrangement
        )


def test_witness_builders_place_products_without_reading_the_format():
    # The replay's witness memo rests on this: for a label of the sweep (C(3)
    # is in none), a builder that accepts a format accepts every format at
    # least as large in both m and n, with the same products.
    labels = [label for labels in _canonical_labels(make_format(10, 8)).values() for label in labels]
    formats = [make_format(m, n) for m in range(1, 14) for n in range(1, 9)]  # H-v holds H(9,q) from m = 12
    pairs = 0
    for name, tag, build in _witness_builders():
        for label in labels:
            if tag is not None and label.tag != tag:
                continue
            built = {}
            for fmt in formats:
                try:
                    built[fmt] = build(label, fmt)
                except DimensionMismatch:
                    pass
            if not built:  # H-i and H-iii take no H(0,q)
                assert name in ("H-i", "H-iii") and label.a == 0, (name, label)
                continue
            for low, table in built.items():
                for fmt in formats:
                    if fmt.m >= low.m and fmt.n >= low.n:
                        assert fmt in built, (name, label, low, fmt)
                        larger = built[fmt]
                        assert (larger.m, larger.n, larger.ee, larger.ef) == (fmt.m, fmt.n, table.ee, table.ef)
                        pairs += 1
    assert pairs > 100000


def test_theorem_replay_builds_each_witness_once_per_rule_and_label(monkeypatch):
    # Each rule's witness of a label is built once, at the first format that
    # lists it, and shared by its later rows; every row is still linked and
    # validated.  At (6,4): 116 arrangements, then all 37 labels for linktoT;
    # (10,8) is the benchmark's bound.
    counts = {}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(cone, "canonical_presentation", counted("build", cone.canonical_presentation))
    monkeypatch.setattr(cone, "arranged_presentation", counted("build", cone.arranged_presentation))
    monkeypatch.setattr(cone, "mapping_cone_presentation", counted("link", cone.mapping_cone_presentation))
    monkeypatch.setattr(cone, "validate_presentation", counted("validate", cone.validate_presentation))
    for (m_max, n_max), builds, rows in [((6, 4), 116 + 37, 1110), ((10, 8), 453, 11060)]:
        formats = [
            (make_format(m, n), _canonical_labels(make_format(m, n)))
            for m in range(4, m_max + 1)
            for n in range(1, n_max + 1)
        ]
        distinct = sum(
            len({label for (label, _), _ in _rule_outputs(rule.rule_id, formats)})
            for rule in RULES.values()
            if rule.witness is not None
        )
        counts.update(build=0, link=0, validate=0)
        report = verify_linkage_theorems(m_max, n_max)
        assert report.all_passed
        assert sum(res.checked for res in report.results) == rows
        assert counts == {"build": builds, "link": rows, "validate": rows}
        assert distinct == builds


def _counted_builder(monkeypatch, rule):
    """Count the formats the rule's witness builder is called with, in the
    list returned after an uncounted builder of label and format."""
    if rule.witness == "canonical":
        name, arrangement = "canonical_presentation", ()
    else:
        name, arrangement = "arranged_presentation", (rule.witness,)
    build, builds = getattr(cone, name), []

    def counted(label, fmt, *args):
        builds.append(fmt)
        return build(label, fmt, *args)

    monkeypatch.setattr(cone, name, counted)
    return lambda label, fmt: build(label, fmt, *arrangement), builds


@pytest.mark.parametrize(
    "rule_id, label, kept_at, too_small, holds, need",
    [
        # Each too-small format breaks one of the builder's bounds: m, m+n-1, n.
        ("linkT-i", CLASS_T, (4, 1), (3, 2), (5, 1), "m >= 4 and m+n-1 >= 3"),
        ("linktoT", CLASS_B, (4, 1), (2, 1), (4, 2), "m >= 2 and m+n-1 >= 3"),
        ("linkH-i", class_H(3, 2), (6, 4), (5, 1), (7, 4), "n >= 2"),
    ],
)
def test_a_kept_witness_too_large_for_the_format_goes_to_the_builder(
    monkeypatch, rule_id, label, kept_at, too_small, holds, need
):
    # The table kept from one format is handed only to a format at least as
    # large in both m and n, as a table of that format sharing its products,
    # without a build.  A smaller format goes to the builder, which refuses a
    # misfit with its own text, as it would unkept.
    rule = RULES[rule_id]
    build, builds = _counted_builder(monkeypatch, rule)
    witness = cone._witnesses(rule)
    kept_at, too_small, holds = (make_format(*fmt) for fmt in (kept_at, too_small, holds))
    kept = witness(label, kept_at)
    with pytest.raises(DimensionMismatch) as refused:
        witness(label, too_small)
    assert str(refused.value) == f"class {label} does not fit format {too_small}: needs {need}"
    shared = witness(label, holds)
    assert builds == [kept_at, too_small]
    assert shared == build(label, holds)
    assert shared.ee is kept.ee and shared.ef is kept.ef


def test_a_witness_built_below_the_kept_one_becomes_the_kept_one(monkeypatch):
    # (2,2) is below the kept (4,1) in m, so it is built, though it fits, and
    # kept: (3,2) then shares its products, and (4,1), below it in n, is built.
    build, builds = _counted_builder(monkeypatch, RULES["linktoT"])
    witness = cone._witnesses(RULES["linktoT"])
    formats = [make_format(*fmt) for fmt in ((4, 1), (2, 2), (3, 2), (4, 1))]
    tables = [witness(CLASS_B, fmt) for fmt in formats]
    assert builds == [formats[0], formats[1], formats[3]]
    assert tables == [build(CLASS_B, fmt) for fmt in formats]
    assert tables[2].ee is tables[1].ee and tables[2].ef is tables[1].ef


def test_theorem_sweep_tables_and_links_are_pinned():
    # Every input table of the (10,8) replay and its mapping cone; it must not move.
    assert pins.cone_sweep() == pins.CONE_SWEEP


def test_classifier_reports_of_the_replay_outputs_are_pinned():
    # The full report of every distinct output of the (10,8) replay; it must not move.
    assert pins.classify_sweep() == pins.CLASSIFY_SWEEP


def test_replay_label_path_agrees_with_classify_on_every_output():
    # The replay decides labels without ranking s1 outside (p,q,r) = (3,0,0).
    seen = set()
    for _, out in pins.replay_outputs():
        report = classify(out)
        assert cone._class_label(out) == report.label, out
        seen.add(report.label)
    # T is among them, so the (3,0,0) branch is taken.
    assert CLASS_T in seen and class_H(3, 0) in seen


def test_theorem_sweep_links_in_a_shuffled_order_match_the_pin():
    # The cone keeps the frame of the last (format, row) it linked: index
    # maps, splits, Koszul products and symbolic slots.  Linked in a seeded
    # shuffled order, nearly every call changes format or row and evicts the
    # frame; the outputs must still hash to the sweep's pin, in sweep order.
    links = [
        (rule, label, fmt, witness(label, fmt)) for rule, witness, rows in _sweep(10, 8) for (label, fmt), _ in rows
    ]
    order = list(range(len(links)))
    random.Random(20261019).shuffle(order)
    docs = [None] * len(links)
    cone._frame.cache_clear()
    for i in order:
        rule, _, _, table = links[i]
        docs[i] = linked_to_document(mapping_cone_presentation(table, rule.profile))
    assert cone._frame.cache_info().misses > 10000
    assert pins.cone_sweep_digest((*link, doc) for link, doc in zip(links, docs)) == pins.CONE_SWEEP


def test_linked_results_own_their_maps_and_products():
    # A caller may edit what it is handed; the next link of the same table
    # along the same row, which reuses the memoized frame, must not see it.
    table = canonical_presentation(CLASS_B, make_format(5, 2))
    first = mapping_cone_presentation(table, LinkSpec(1))
    pristine = linked_to_document(first)
    first.index_map["F"][1] = 99
    del first.index_map["F"][2]
    koszul = first.presentation.ee[(3, 4)]  # E_{n+1} E_{n+2} = F_{m+n+2}, F_8 after the split
    koszul[8] = 7
    koszul[1] = 1
    again = mapping_cone_presentation(table, LinkSpec(1))
    assert linked_to_document(again) == pristine
    assert again.presentation.ee[(3, 4)] == {8: 1}


_COEFFS = (-3, -1, 1, 2, 5)


def _random_coords(rng, size):
    picked = rng.sample(range(1, size + 1), rng.randint(1, min(3, size)))
    return {k: rng.choice(_COEFFS) for k in picked}


def _random_table(rng):
    """A valid table with m <= 8, n <= 6, multi-coordinate products and
    non-unit coefficients; about a third force e_1 e_2 = f_1."""
    m, n = rng.randint(1, 8), rng.randint(1, 6)
    d2 = m + n - 1
    ee = {
        (i, j): _random_coords(rng, d2)
        for i in range(1, m + 1)
        for j in range(i + 1, m + 1)
        if rng.random() < 0.4
    }
    ef = {(i, l): _random_coords(rng, n) for i in range(1, m + 1) for l in range(1, d2 + 1) if rng.random() < 0.3}
    if m >= 2 and rng.random() < 0.35:
        ee[(1, 2)] = {1: 1}
    return make_presentation(m, n, ee, ef)


def _with_explicit_zeros(rng, table):
    """The same table built directly, with an explicit zero on a drawn
    coordinate of every stored product (e_1 e_2 aside, so the unit case
    still applies) and a few all-zero products."""
    m, n, d2 = table.m, table.n, table.dim2
    ee = {key: dict(coords) for key, coords in table.ee.items()}
    ef = {key: dict(coords) for key, coords in table.ef.items()}
    for key, coords in ee.items():
        if key != (1, 2):
            coords.setdefault(rng.randint(1, d2), 0)
    for coords in ef.values():
        coords.setdefault(rng.randint(1, n), 0)
    for _ in range(3):
        if m >= 2:
            i = rng.randint(1, m - 1)
            ee.setdefault((i, rng.randint(i + 1, m)), {rng.randint(1, d2): 0})
        ef.setdefault((rng.randint(1, m), rng.randint(1, d2)), {rng.randint(1, n): 0})
    return TorPresentation(m, n, ee, ef)


def test_random_tables_and_links_are_pinned():
    # Seeded random valid tables that are not witnesses (multi-coordinate
    # products, coefficients other than +-1), every supported spec on each,
    # pinned by the linked document or the exception raised.  Every tenth
    # table is also linked as a directly built copy holding explicit zero
    # coefficients; no output may store a zero or an empty product.  The
    # pairs whose designated products have nonzero rank are refused with the
    # row they need (2 164 of the 11 000; each was linked wrongly before).
    # Every link made is a valid table in the format its row maps to; the
    # cone once linked 546 pairs with t1 = m into tables with n = 0.
    rng = random.Random(20240611)
    digest = hashlib.sha256()
    zero_copies = refused = 0
    for index in range(2000):
        table = _random_table(rng)
        assert validate_presentation(table) == ()
        tables = [table]
        if index % 10 == 0:
            tables.append(_with_explicit_zeros(rng, table))
            zero_copies += 1
        for variant in tables:
            for spec in SUPPORTED_PROFILES:
                try:
                    lp = mapping_cone_presentation(variant, spec)
                except Exception as exc:  # pinned as type and text
                    outcome = [type(exc).__name__, str(exc)]
                    refused += "needs row" in str(exc)
                else:
                    out = lp.presentation
                    assert validate_presentation(out) == ()
                    assert out.fmt == link_option_format(variant.fmt, spec)
                    for coords in (*out.ee.values(), *out.ef.values()):
                        assert coords and all(coords.values())
                    outcome = linked_to_document(lp)
                row = [index, presentation_to_document(variant), spec.t1, spec.t2 == 1, outcome]
                digest.update((json.dumps(row, sort_keys=True) + "\n").encode("utf-8"))
    assert zero_copies == 200
    assert refused == 2164
    assert digest.hexdigest() == "aa35e143e7c6cbc82a621f86cc6e1bdc19d546d25a13b55cd0be656c66b09bea"
