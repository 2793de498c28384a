"""Format maps, the 14-rule rulebook, and transition serialization."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from grade3 import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    InvalidFormat,
    OPAQUE,
    PreconditionViolated,
    RULE_ORDER,
    RULES,
    RankProfile,
    SUPPORTED_PROFILES,
    Transition,
    UnsupportedProfile,
    apply_rule,
    arrangement_ids,
    betti_total,
    class_G,
    class_H,
    link_option_format,
    make_format,
    transition_from_document,
    transition_to_document,
)
from grade3.errors import DocumentError
from grade3.linkrules import STATE_TAGS
from grade3.presentation import _ARRANGEMENTS


# ------------------------------------------------------------- format maps


def test_supported_profiles_and_format_maps():
    fmt = make_format(6, 3)
    assert link_option_format(fmt, RankProfile(0, 0, 0)) == make_format(6, 6)
    assert link_option_format(fmt, RankProfile(1, 0, 0)) == make_format(6, 5)
    assert link_option_format(fmt, RankProfile(2, 0, 0)) == make_format(6, 4)
    assert link_option_format(fmt, RankProfile(2, 1, 0)) == make_format(5, 4)
    assert link_option_format(fmt, RankProfile(3, 0, 0)) == make_format(6, 3)


def test_unsupported_profile_rejected():
    with pytest.raises(UnsupportedProfile):
        link_option_format(make_format(6, 3), RankProfile(3, 1, 0))
    with pytest.raises(UnsupportedProfile):
        RankProfile(1, -1, 0)


def test_degenerate_output_format_rejected():
    with pytest.raises(InvalidFormat):
        link_option_format(make_format(3, 2), RankProfile(3, 0, 0))


@given(
    st.integers(min_value=4, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.sampled_from(SUPPORTED_PROFILES),
)
def test_betti_coherence_property(m, n, profile):
    # Linking changes the total Betti number b by 6 - 2*t1 - 2*t2 - t3.
    fmt = make_format(m, n)
    t1, t2, t3 = profile
    assert betti_total(link_option_format(fmt, profile)) == betti_total(fmt) + 6 - 2 * t1 - 2 * t2 - t3


# ----------------------------------------------------------------- rulebook


def test_rule_order_is_the_wire_vocabulary():
    assert RULE_ORDER == (
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
        "ext-CVW31",
        "ext-CVW33",
    )
    assert set(RULES) == set(RULE_ORDER)


@pytest.mark.parametrize(
    "rule_id,label,fmt,out_label,out_fmt",
    [
        ("linktoT", CLASS_T, (6, 3), CLASS_T, (6, 6)),
        ("linktoT", CLASS_B, (5, 2), CLASS_T, (5, 5)),
        ("linktoT", class_H(2, 1), (6, 3), CLASS_T, (6, 6)),
        ("linkT-i", CLASS_T, (4, 3), class_H(2, 0), (6, 3)),
        ("linkT-ii", CLASS_T, (4, 3), class_H(2, 2), (6, 3)),
        ("linkT-iii", CLASS_T, (4, 3), class_H(1, 2), (6, 2)),
        ("linkT-iv", CLASS_T, (4, 3), CLASS_B, (5, 2)),
        ("linkG-i", class_G(5), (5, 1), class_H(3, 0), (4, 4)),
        ("linkG-ii", class_G(5), (5, 1), CLASS_T, (4, 3)),
        ("linkH-i", class_H(2, 1), (6, 3), class_H(2, 1), (6, 5)),
        ("linkH-ii", class_H(2, 1), (6, 3), class_H(3, 2), (6, 5)),
        ("linkH-iii", class_H(1, 1), (6, 3), class_H(1, 1), (6, 4)),
        ("linkH-iv", class_H(2, 0), (6, 3), class_H(1, 2), (6, 4)),
        ("linkH-v", class_H(2, 0), (6, 3), class_H(0, 2), (6, 3)),
        ("ext-CVW31", class_G(5), (5, 1), class_H(3, 2), (4, 2)),
        ("ext-CVW33", class_H(2, 0), (6, 3), class_H(0, 1), (5, 3)),
        ("ext-CVW33", class_H(2, 0), (8, 3), class_H(0, 1), (5, 5)),
    ],
)
def test_apply_rule_examples(rule_id, label, fmt, out_label, out_fmt):
    transition = apply_rule(rule_id, label, make_format(*fmt))
    assert transition.rule == rule_id
    assert transition.input_state == (label, make_format(*fmt))
    assert transition.output_state == (out_label, make_format(*out_fmt))
    assert transition.cite


def test_linktoT_accepts_opaque_and_rejects_c3():
    transition = apply_rule("linktoT", OPAQUE, make_format(6, 3))
    assert transition.output_state == (CLASS_T, make_format(6, 6))
    with pytest.raises(PreconditionViolated):
        apply_rule("linktoT", CLASS_C3, make_format(3, 1))


@pytest.mark.parametrize(
    "rule_id,label,fmt",
    [
        ("linkT-i", CLASS_B, (5, 2)),  # wrong class
        ("linkH-i", class_H(0, 2), (6, 3)),  # needs p >= 1
        ("linkH-iii", class_H(5, 0), (6, 3)),  # needs p <= m - 2
        ("linkH-iv", class_H(5, 0), (6, 3)),  # needs p <= m - 2
        ("linkH-v", class_H(2, 1), (6, 3)),  # needs q = 0
        ("linkH-v", class_H(1, 0), (6, 3)),  # needs p >= 2
        ("linkH-v", class_H(4, 0), (6, 3)),  # needs p <= m - 3
        ("ext-CVW31", class_G(5), (6, 1)),  # only at (5,1)
        ("ext-CVW31", class_G(7), (7, 1)),  # only G(5)
        ("ext-CVW33", class_H(2, 0), (7, 3)),  # m must be even
        ("ext-CVW33", class_H(2, 0), (6, 4)),  # n must be 3
        ("ext-CVW33", class_H(2, 2), (6, 3)),  # only H(2,0)
        ("linkG-i", OPAQUE, (6, 3)),  # opaque only feeds linktoT
    ],
)
def test_apply_rule_precondition_failures(rule_id, label, fmt):
    with pytest.raises(PreconditionViolated):
        apply_rule(rule_id, label, make_format(*fmt))


_ALL_LABELS = (
    [OPAQUE, CLASS_T, CLASS_B, CLASS_C3]
    + [class_G(r) for r in range(2, 15)]
    + [class_H(p, q) for p in range(15) for q in range(15)]
)


@pytest.mark.parametrize("rule_id", RULE_ORDER)
def test_rule_tag_declarations_match_behaviour(rule_id):
    rule = RULES[rule_id]
    assert rule.in_tags <= STATE_TAGS
    accepted = 0
    for m in range(4, 15):
        for n in range(1, 13):
            fmt = make_format(m, n)
            for label in _ALL_LABELS:
                reason = rule.check(label, fmt)
                if label.tag not in rule.in_tags:
                    assert reason is not None, (str(label), str(fmt))
                elif reason is None:
                    assert rule.out_class(label).tag == rule.out_tag, (str(label), str(fmt))
                    accepted += 1
    assert accepted > 0


def test_apply_rule_unknown_id():
    with pytest.raises(PreconditionViolated):
        apply_rule("linkX", CLASS_T, make_format(4, 3))


def test_apply_rule_degenerate_output():
    # G(2) at (2,1) passes the class check but the output format (4,0)
    # would be empty, which surfaces as a precondition failure.
    with pytest.raises(PreconditionViolated):
        apply_rule("linkG-ii", class_G(2), make_format(2, 1))


def test_rulebook_consistency_against_profile_table():
    # Every rule moves formats by its row's formula (m, n) -> (n+3-t2, m-t1),
    # which is link_option_format's on the supported rows, on every state it
    # accepts, and the total Betti number follows the row by the formula
    # (link_option_format refuses ext-CVW33's row (3,1,0)).
    for rule_id in RULE_ORDER:
        rule = RULES[rule_id]
        t1, t2, t3 = rule.profile
        assert t3 == 0, rule_id
        accepted = 0
        for m in range(4, 15):
            for n in range(1, 13):
                fmt = make_format(m, n)
                for label in _ALL_LABELS:
                    if rule.check(label, fmt) is not None:
                        continue
                    out_fmt = apply_rule(rule_id, label, fmt).output_state[1]
                    assert out_fmt == make_format(n + 3 - t2, m - t1), (rule_id, str(label), str(fmt))
                    assert betti_total(out_fmt) == betti_total(fmt) + 6 - 2 * t1 - 2 * t2 - t3
                    if rule.profile in SUPPORTED_PROFILES:
                        assert out_fmt == link_option_format(fmt, rule.profile), (rule_id, str(label), str(fmt))
                    accepted += 1
        assert accepted > 0, rule_id


def test_rule_rows_are_pinned():
    # ext-CVW33 maps (m,3) to (5, m-3): the row (3,1,0), which the cone does
    # not model, so link_option_format refuses it and no supported row gives
    # that map.  Every other rule's row is supported.
    cvw33 = RULES["ext-CVW33"].profile
    assert cvw33 == RankProfile(3, 1, 0)
    assert cvw33 not in SUPPORTED_PROFILES
    with pytest.raises(UnsupportedProfile):
        link_option_format(make_format(6, 3), cvw33)
    for m in range(6, 40, 2):
        fmt = make_format(m, 3)
        out_fmt = apply_rule("ext-CVW33", class_H(2, 0), fmt).output_state[1]
        assert out_fmt == make_format(5, m - 3)
        assert all(link_option_format(fmt, profile) != out_fmt for profile in SUPPORTED_PROFILES)
    assert all(RULES[rule_id].profile in SUPPORTED_PROFILES for rule_id in RULE_ORDER if rule_id != "ext-CVW33")


def test_rule_outputs_are_pinned():
    # The output state of apply_rule, or its refusal text, for every rule on
    # every label below at every format up to (16,16): 177 463 outputs and
    # 481 993 refusals.  Recorded while the three slot maps of linkH-ii,
    # linkH-iv and linkH-v were lambdas; it checks the data form of those maps.
    labels = (
        [OPAQUE, CLASS_B, CLASS_C3, CLASS_T]
        + [class_G(r) for r in range(2, 13)]
        + [class_H(p, q) for p in range(13) for q in range(13)]
    )
    formats = [make_format(m, n) for m in range(1, 17) for n in range(1, 17)]
    digest = hashlib.sha256()
    for rule_id in RULE_ORDER:
        for label in labels:
            for fmt in formats:
                try:
                    out_label, out_fmt = apply_rule(rule_id, label, fmt).output_state
                    line = f"{rule_id} {label} {fmt} -> {out_label} {out_fmt}\n"
                except PreconditionViolated as exc:
                    line = f"{rule_id} {label} {fmt} ! {exc}\n"
                digest.update(line.encode("utf-8"))
    assert digest.hexdigest() == "6f6752f667bd8199c1093272e984fcc61396b80577891ebc94d4470bf5ec8e0d"


def test_rule_witness_declarations():
    # A rule is re-derived by verify-theorems exactly when it names a
    # witness; the witness is the canonical table or an arrangement of a
    # class the rule accepts.
    verified = "verified from structure constants (grade3 verify-theorems)"
    for rule_id in RULE_ORDER:
        rule = RULES[rule_id]
        assert (rule.witness is not None) == (rule.cite == verified), rule_id
        if rule.witness is None or rule.witness == "canonical":
            continue
        assert rule.witness in arrangement_ids(), rule_id
        class_tag, _ = _ARRANGEMENTS[rule.witness]
        assert class_tag in rule.in_tags, rule_id
    assert RULES["linktoT"].witness == "canonical"


@given(
    st.integers(min_value=4, max_value=30),
    st.integers(min_value=3, max_value=30),
)
def test_double_linktoT_swells_formats_symmetrically(m, n):
    fmt = make_format(m, n)
    first = apply_rule("linktoT", CLASS_T, fmt)
    second = apply_rule("linktoT", first.output_state[0], first.output_state[1])
    assert first.output_state[1] == make_format(n + 3, m)
    assert second.output_state[1] == make_format(m + 3, n + 3)
    assert betti_total(second.output_state[1]) == betti_total(fmt) + 12


# ------------------------------------------------------------- serialization


def test_transition_document_round_trip():
    transition = apply_rule("linkH-ii", class_H(2, 1), make_format(6, 3))
    doc = transition_to_document(transition)
    assert doc == {
        "rule": "linkH-ii",
        "in": ["H(2,1)", "(6,3)"],
        "out": ["H(3,2)", "(6,5)"],
        "cite": "verified from structure constants (grade3 verify-theorems)",
    }
    assert transition_from_document(doc) == transition


def test_transition_document_renders_opaque_inputs():
    transition = apply_rule("linktoT", OPAQUE, make_format(6, 3))
    doc = transition_to_document(transition)
    assert doc["in"] == ["*", "(6,3)"]
    back = transition_from_document(doc)
    assert back == transition
    assert back.input_state[0] is OPAQUE


def test_transition_document_strictness():
    doc = transition_to_document(apply_rule("linkT-i", CLASS_T, make_format(4, 3)))
    with pytest.raises(DocumentError):
        transition_from_document([doc])
    with pytest.raises(DocumentError):
        transition_from_document({**doc, "extra": 1})
    with pytest.raises(DocumentError):
        transition_from_document({k: v for k, v in doc.items() if k != "cite"})
    with pytest.raises(DocumentError):
        transition_from_document({**doc, "in": ["T"]})
    with pytest.raises(DocumentError):
        transition_from_document({**doc, "out": ["T", 63]})
    with pytest.raises(DocumentError):
        transition_from_document({**doc, "rule": 7})


def test_ext_rules_cite_published_propositions():
    assert RULES["ext-CVW31"].cite == "Christensen-Veliche-Weyman 2020, Prop. 3.1"
    assert RULES["ext-CVW33"].cite == "Christensen-Veliche-Weyman 2020, Prop. 3.3"
    verified = "verified from structure constants (grade3 verify-theorems)"
    for rule_id in RULE_ORDER:
        if not rule_id.startswith("ext-"):
            assert RULES[rule_id].cite == verified


def test_transition_dataclass_is_frozen():
    transition = apply_rule("linkT-i", CLASS_T, make_format(4, 3))
    assert isinstance(transition, Transition)
    with pytest.raises(AttributeError):
        transition.rule = "linkT-ii"
