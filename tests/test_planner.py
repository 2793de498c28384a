"""Axiom families, certificate search, replay verification, coverage."""

from __future__ import annotations

import collections
import dataclasses
import os
import subprocess
import sys
import time

import pytest

from grade3 import (
    BASE_FAMILIES,
    FAMILY_ASSIGNMENT_IDS,
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
    verify_linkage_theorems,
)
from grade3 import planner
from grade3.errors import DocumentError, PreconditionViolated
from grade3.linkrules import RULE_ORDER, RULES, _STEPS, _outputs, _transition, apply_rule

import pins


@pytest.fixture(autouse=True)
def _fresh_search_cache():
    # A held search leaves out NOT_PERMISSIBLE outputs, which a test may have forced.
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
    # The search tests only rule outputs, never an axiom, so no axiom
    # within the default search cap may be NOT_PERMISSIBLE.
    for family in BASE_FAMILIES:
        for label, fmt in family.instances(planner.DEFAULT_MAX_SEARCH):
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


def test_realize_rejects_a_cap_below_one():
    for cap in (0, -3):
        with pytest.raises(OutOfDomain):
            realize(CLASS_T, make_format(10, 8), max_coordinate=cap)
        with pytest.raises(OutOfDomain):
            realize(CLASS_T, make_format(4, 3), max_coordinate=cap)
    assert realize(CLASS_T, make_format(4, 3), max_coordinate=1).status is RealizeStatus.NOT_FOUND


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: realize(CLASS_T, make_format(4, 3), max_coordinate=6.0), "max_coordinate must be an integer, got 6.0"),
        (lambda: realize(CLASS_T, make_format(4, 3), max_coordinate=2.5), "max_coordinate must be an integer, got 2.5"),
        (lambda: realize(CLASS_T, make_format(4, 3), max_coordinate=True), "max_coordinate must be an integer, got True"),
        (lambda: realize_all(4.5, 2), "m_max must be an integer, got 4.5"),
        (lambda: realize_all(8, False), "n_max must be an integer, got False"),
        (lambda: verify_linkage_theorems(5.5, 1), "m_max must be an integer, got 5.5"),
        (lambda: verify_linkage_theorems(6, "4"), "n_max must be an integer, got '4'"),
    ],
)
def test_public_bounds_refuse_non_integers(call, message):
    # Refused before any search, with the error an out-of-range bound gets.
    with pytest.raises(OutOfDomain) as info:
        call()
    assert str(info.value) == message
    assert planner._SEARCHES == {}


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


def test_rigid_targets_leave_the_held_searches_alone():
    # C(3) and G(r) are searched from both ends even where a sweep holds
    # their bound: no step reads backwards into them, so that search ends at
    # once, while the held forward search would run to exhaustion.
    targets = [(CLASS_C3, make_format(3, 1)), (class_G(4), make_format(12, 12)), (class_G(7), make_format(7, 1))]
    lone = [realize(*target) for target in targets]
    assert [result.status for result in lone] == [RealizeStatus.NOT_FOUND] * 2 + [RealizeStatus.REALIZED]
    held = [planner._search_for(bound) for bound in (9, 18)]
    discovered = [len(search.parent) for search in held]
    assert [realize(*target) for target in targets] == lone
    assert [len(search.parent) for search in held] == discovered
    assert list(planner._SEARCHES) == [9, 18]


def test_rigid_axiom_targets_are_still_searched():
    result = realize(class_G(5), make_format(5, 1))
    assert result.status is RealizeStatus.REALIZED
    assert result.certificate.axiom.family == "GOR"
    assert result.certificate.steps == ()
    assert verify_certificate(result.certificate)


def test_coverage_sweep_certificates_are_pinned():
    # Every certificate of the (20,20) sweep; it must not move.
    assert pins.coverage_sweep() == pins.COVERAGE_SWEEP


def test_realize_grid_is_pinned():
    # Every realize result up to (12,12): first as lone targets, searched from
    # both ends, then answered from the forward searches a sweep builds.
    assert pins.realize_grid() == pins.REALIZE_GRID
    assert planner._SEARCHES == {}
    bounds = range(7, 19)  # max(m, n) + 6 for formats up to (12,12)
    for bound in bounds:
        planner._search_for(bound)
    assert pins.realize_grid() == pins.REALIZE_GRID
    assert list(planner._SEARCHES) == list(bounds)


def test_realize_grid_after_a_sweep_is_pinned():
    # The same results once realize_all(12, 12) holds its searches, as CI checks on every Python.
    assert pins.realize_grid_after_sweep() == pins.REALIZE_GRID
    assert list(planner._SEARCHES) == [10, 11, 13, 15, 17, 12, 14, 16, 18]


def _holds_only_seeds(search):
    return all(isinstance(parent, str) for parent in search.parent.values())


def test_a_sweep_reads_its_certificates_off_its_widest_search():
    # Every certificate of the (14,14) sweep is a parent chain of the bound-20
    # search, so no narrower search leaves its seeds (the sweep-graph pin).
    assert realize_all(14, 14).gaps == ()
    assert sorted(planner._SEARCHES) == list(range(10, 21))
    discovered = sum(len(search.parent) for search in planner._SEARCHES.values())
    assert (len(planner._SEARCHES[20].parent), discovered) == pins.SWEEP_GRAPH
    assert all(_holds_only_seeds(search) for bound, search in planner._SEARCHES.items() if bound < 20)


def test_an_odd_sweep_resumes_its_widest_search_for_the_targets_it_has_not_discovered():
    # At (7,7) the targets of bound 12 are asked before the bound-13 search has
    # discovered them.  It is resumed for them, so the bound-12 search keeps
    # its seeds (it grew to 962 states when it answered them instead), and
    # every answer is the one a lone realize, searched from both ends, gives.
    report = realize_all(7, 7)
    assert sorted(planner._SEARCHES) == [10, 11, 12, 13]
    assert all(_holds_only_seeds(search) for bound, search in planner._SEARCHES.items() if bound < 13)
    swept = [realize(entry.label, entry.fmt) for entry in report.entries]
    planner._SEARCHES.clear()
    lone = [realize(entry.label, entry.fmt) for entry in report.entries]
    assert swept == lone
    assert [entry.status for entry in report.entries] == [result.status for result in lone]


def test_an_odd_sweep_holds_only_its_widest_search_past_its_seeds():
    # The sweep-graph-odd pin, as CI checks it on every Python.
    assert pins.sweep_graph_odd() == pins.SWEEP_GRAPH_ODD


def test_a_lone_search_before_a_sweep_leaves_its_certificates_unchanged():
    # A lone target searched from both ends at bound 12 before a sweep leaves
    # the sweep's certificates as they are in a process that searched nothing.
    def documents(report):
        assert report.gaps == ()
        return [certificate_to_document(cert) for cert in _certificates_of(report)]

    fresh = documents(realize_all(14, 14))
    planner._SEARCHES.clear()
    assert realize(CLASS_T, make_format(6, 6)).status is RealizeStatus.REALIZED
    assert documents(realize_all(14, 14)) == fresh


def test_target_listings_equal_the_verdicts():
    # boundary_classes and a sweep's T and B listing decide each cell by the
    # yes/no form of its verdict; they list what the full verdicts list.
    for m in range(1, 41):
        for n in range(1, 41):
            fmt = make_format(m, n)
            cells = {(n - 1, q) for q in range(m - 3)} | {(p, m - 4) for p in range(n)} if m >= 4 else set()
            labels = (class_H(p, q) for p, q in cells)
            assert boundary_classes(fmt) == {c for c in labels if is_permissible(c, fmt).status is Status.PERMISSIBLE}
    formats = [make_format(m, n) for m in range(4, 41) for n in range(2, 41)]
    listed = [
        (kind, label, fmt)
        for kind, label in (("T", CLASS_T), ("B", CLASS_B))
        for fmt in formats
        if is_permissible(label, fmt).status is Status.PERMISSIBLE
    ]
    listed += [("H-boundary", label, fmt) for fmt in formats for label in sorted(boundary_classes(fmt))]
    assert planner._sweep_targets(40, 40) == listed


def test_a_narrower_search_does_not_answer_a_wider_bound():
    # The bound-8 search, run to exhaustion, reaches H(2,2) at (6,7) by a
    # 2-step chain, but not by the least shortest path of bound 13.
    label, fmt = class_H(2, 2), make_format(6, 7)
    lone = realize(label, fmt)
    narrow = planner._search_for(8)
    narrow.find(-1)
    chain = planner._certificate_from(narrow, planner._state_key(label, fmt))
    assert len(chain.steps) == 2 and chain != lone.certificate
    assert realize(label, fmt) == lone
    assert list(planner._SEARCHES) == [8]


def test_a_chain_that_leaves_the_bound_falls_back():
    # The bound-20 search reaches H(2,3) at (8,7) by 4 steps through a state of
    # reach 9, so under a cap of 8 the target is searched from both ends: 5 steps.
    label, fmt = class_H(2, 3), make_format(8, 7)
    lone = realize(label, fmt, max_coordinate=8)
    assert len(lone.certificate.steps) == 5
    realize_all(14, 14)
    widest = planner._SEARCHES[20]
    chain, key = [], planner._state_key(label, fmt)
    while isinstance(key, tuple):
        chain.append(max(key[3], key[4]))
        key = widest.parent[key]
    assert len(chain) == 5 and max(chain) == 9
    assert realize(label, fmt, max_coordinate=8) == lone
    assert 8 not in planner._SEARCHES


def test_an_exhausted_wider_search_answers_not_found_without_expanding():
    # No state the bound-20 search cannot reach is reachable within bound 16.
    label, fmt = class_H(0, 0), make_format(10, 10)
    lone = realize(label, fmt)
    assert lone.status is RealizeStatus.NOT_FOUND
    realize_all(14, 14)
    planner._SEARCHES[20].find(-1)
    assert realize(label, fmt) == lone
    assert _holds_only_seeds(planner._SEARCHES[16])


def _holds_search_state(value, depth=4):
    """Whether ``value`` is a search or a state key, or holds one within ``depth`` levels."""
    if isinstance(value, planner._Search):
        return True
    if type(value) is tuple and len(value) == 5 and type(value[0]) is str:
        return all(type(field) is int for field in value[1:])
    if not depth:
        return False
    if isinstance(value, dict):
        return any(_holds_search_state(item, depth - 1) for pair in value.items() for item in pair)
    if isinstance(value, (list, tuple, set, frozenset, collections.deque)):
        return any(_holds_search_state(item, depth - 1) for item in value)
    if type(value).__module__ == planner.__name__ and hasattr(value, "__dict__"):
        return _holds_search_state(vars(value), depth - 1)
    return False


def test_a_lone_realize_keeps_no_search_state():
    # Outside a sweep the planner keeps nothing of a search (ROADMAP item 6):
    # a realized lone target, a NOT_FOUND H target and a G(r) target each
    # search from both ends, and no module-level value keeps that search.
    names = set(vars(planner))
    assert realize(class_H(5, 0), make_format(8, 6)).status is RealizeStatus.REALIZED
    assert realize(class_H(0, 0), make_format(10, 10)).status is RealizeStatus.NOT_FOUND
    assert realize(class_G(5), make_format(8, 6)).status is RealizeStatus.NOT_FOUND
    assert planner._SEARCHES == {}
    assert set(vars(planner)) == names
    assert [name for name, value in vars(planner).items() if _holds_search_state(value)] == []
    # The walk sees a held search.
    planner._search_for(10)
    assert [name for name, value in vars(planner).items() if _holds_search_state(value)] == ["_SEARCHES"]


def _realize_from_sweep_search(label, fmt, cap=planner.DEFAULT_MAX_SEARCH):
    """realize, answered from the forward search a sweep builds for the target's bound."""
    planner._search_for(planner._search_bound(fmt, cap))
    return realize(label, fmt, max_coordinate=cap)


def test_lone_and_sweep_searches_give_equal_results():
    # Every label that is not NOT_PERMISSIBLE, at every format up to (12,12),
    # under the default cap and the two smallest caps that admit the target,
    # then three targets under a cap above the default.
    queries = []
    for m in range(1, 13):
        for n in range(1, 13):
            fmt = make_format(m, n)
            labels = [CLASS_T, CLASS_B, CLASS_C3] + [class_G(r) for r in range(2, m + 2)]
            labels += [class_H(p, q) for p in range(n + 2) for q in range(m - 1)]
            for label in labels:
                if not planner._excluded(label.tag, label.a, label.b, m, n):
                    queries += [(label, fmt, cap) for cap in (64, max(m, n) + 1, max(m, n))]
    queries += [(CLASS_T, make_format(40, 40), 100), (CLASS_B, make_format(41, 40), 100), (CLASS_T, make_format(60, 60), 100)]
    lone = [realize(label, fmt, max_coordinate=cap) for label, fmt, cap in queries]
    assert planner._SEARCHES == {}
    swept = [_realize_from_sweep_search(label, fmt, cap) for label, fmt, cap in queries]
    assert lone == swept
    statuses = collections.Counter(result.status for result in lone)
    assert statuses[RealizeStatus.REALIZED] and statuses[RealizeStatus.NOT_FOUND]
    assert all(result.status is RealizeStatus.REALIZED for result in lone[-3:])


def test_h_labels_past_the_inverse_slot_range_are_excluded():
    # The backward search gives a free slot of an H input the range
    # p <= min(m-1, n+1), q <= min(m-2, n), because H-m-below-p-or-q and
    # H-n-below-p-or-q exclude every H(p,q) past it.
    for m in range(1, 31):
        for n in range(1, 31):
            for p in range(max(m, n) + 3):
                for q in range(max(m, n) + 3):
                    if p >= min(m, n + 2) or q >= min(m - 1, n + 1):
                        assert planner._excluded("H", p, q, m, n), (p, q, m, n)


def test_certificates_sharing_a_prefix_build_it_once_in_either_order():
    # All three targets have bound 13; the last two certificates share their
    # first four steps, and all three their first two.  Each search keeps the
    # transition into every state a certificate has passed through, so a
    # later certificate reuses the earlier one's steps, whichever comes first.
    targets = [
        (class_H(0, 3), make_format(7, 3)),
        (class_H(5, 1), make_format(7, 6)),
        (class_H(6, 1), make_format(7, 7)),
    ]
    runs = []
    for order in (targets, targets[::-1]):
        planner._SEARCHES.clear()
        planner._search_for(13)  # a sweep's search; a lone target builds no steps to keep
        certs = {target: realize(*target).certificate for target in order}
        assert list(planner._SEARCHES) == [13]
        for cert in certs.values():
            assert verify_certificate(cert)
        first, second, third = (certs[target] for target in targets)
        assert second.steps[:4] == third.steps[:4] and second.steps[4] != third.steps[4]
        assert first.steps[:2] == second.steps[:2] and first.steps[2] != second.steps[2]
        # The shared steps are the same objects: each was built once.
        assert all(a is b for a, b in zip(second.steps[:4], third.steps))
        assert all(a is b for a, b in zip(first.steps[:2], second.steps))
        runs.append([certificate_to_document(certs[target]) for target in targets])
    assert runs[0] == runs[1]


def test_certificates_chain_states_consecutively():
    cert = realize(class_H(5, 0), make_format(8, 6)).certificate
    state = (cert.axiom.label, cert.axiom.fmt)
    for step in cert.steps:
        assert step.input_state == state
        state = step.output_state
    assert state == cert.target


def test_compiled_steps_equal_apply_rule():
    # Every state up to slots 12 and format (16,16), opaque ones too: the
    # step table's outputs within bound 19 are apply_rule's, rule by rule, in
    # RULE_ORDER, and the transition linkrules._transition builds for each
    # edge is apply_rule's, by the first rule reaching its output.  Bound 19
    # admits every output of a format up to (16,16), so every accepted step
    # shows as an edge.
    labels = (
        [OPAQUE, CLASS_T, CLASS_B, CLASS_C3]
        + [class_G(r) for r in range(2, 13)]
        + [class_H(p, q) for p in range(13) for q in range(13)]
    )
    accepted = shared = 0
    for m in range(1, 17):
        for n in range(1, 17):
            fmt = make_format(m, n)
            for label in labels:
                expected = []
                first: dict[tuple, int] = {}
                alone: dict[str, list] = {}
                for rule_index, rule_id in enumerate(RULE_ORDER):
                    try:
                        out = apply_rule(rule_id, label, fmt).output_state
                    except PreconditionViolated:
                        continue
                    key = planner._state_key(*out)
                    expected.append((first.setdefault(key, rule_index), key))
                    alone[rule_id] = [key]
                # Each step evaluated alone gives apply_rule's output, or nothing where it refuses.
                steps = _STEPS[label.tag]
                assert {step[0]: out for step in steps if (out := _outputs((step,), label.a, label.b, m, n))} == alone
                key = planner._state_key(label, fmt)
                outputs = [out for out in _outputs(steps, label.a, label.b, m, n) if max(out[3], out[4]) <= 19]
                transitions = [_transition(key, out) for out in outputs]
                got = [(RULE_ORDER.index(t.rule), planner._state_key(*t.output_state)) for t in transitions]
                assert got == expected, (str(label), str(fmt))
                assert transitions == [apply_rule(t.rule, label, fmt) for t in transitions]
                accepted += len(got)
                shared += len(got) - len(first)
    assert accepted > 0
    assert shared > 0  # some outputs are reached by two rules: linkH-i and linkH-ii on H(1,0)


def test_rules_rebuilt_with_wrapped_callables_keep_certificates(monkeypatch):
    # perfbench/tracer.py rebuilds every RULES entry with dataclasses.replace,
    # wrapping its check, out_format and out_class.  apply_rule, which builds
    # and replays each certificate step, calls the wrappers; the search reads
    # the step table compiled at import, and finds the same certificates.
    def documents() -> list[dict]:
        report = realize_all(8, 8)
        assert report.gaps == ()
        return [certificate_to_document(realize(e.label, e.fmt).certificate) for e in report.entries]

    before = documents()
    planner._SEARCHES.clear()
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for rule_id, rule in list(RULES.items()):
        wrapped = dataclasses.replace(
            rule,
            check=counting("check", rule.check),
            out_format=counting("out_format", rule.out_format),
            out_class=counting("out_class", rule.out_class),
        )
        monkeypatch.setitem(RULES, rule_id, wrapped)
    assert documents() == before
    assert calls["check"] == calls["out_format"] == calls["out_class"] > len(before)


def test_a_rule_replaced_after_import_changes_the_replay_not_the_certificate(monkeypatch):
    # Certificates are built from the step table compiled at import, which the
    # search reads; verify_certificate replays them with apply_rule, which reads
    # RULES.  A wrong out_class planted on linkT-i leaves the certificate of
    # H(2,0) at (6,3), which takes linkT-i, as it was, and fails its replay.
    label, fmt = class_H(2, 0), make_format(6, 3)
    before = certificate_to_document(realize(label, fmt).certificate)
    assert "linkT-i" in [step["rule"] for step in before["steps"]]
    planner._SEARCHES.clear()
    wrong = dataclasses.replace(RULES["linkT-i"], out_class=lambda c: class_H(2, 1))
    monkeypatch.setitem(RULES, "linkT-i", wrong)
    cert = realize(label, fmt).certificate
    assert certificate_to_document(cert) == before
    assert not verify_certificate(cert)


def _certificates_of(report):
    """The certificate of each entry of a sweep, as realize gives it after the sweep."""
    return [realize(e.label, e.fmt).certificate for e in report.entries]


def test_a_sweep_replays_each_distinct_step_once_as_a_fresh_replay_would():
    # The (12,12) sweep's certificates share prefixes: 2 032 steps, 565 distinct.
    # The sweep replays each distinct step once, and each entry's verified
    # flag is what a fresh verify_certificate call gives (the sweep-replays pin).
    calls, agree = pins.sweep_replays()
    certs = _certificates_of(realize_all(12, 12))
    assert all(cert is not None for cert in certs)
    distinct = {step for cert in certs for step in cert.steps}
    assert calls == len(distinct) < sum(len(cert.steps) for cert in certs)
    assert (calls, agree) == pins.SWEEP_REPLAYS


def test_a_rule_replaced_between_sweeps_is_replayed_by_the_next_sweep(monkeypatch):
    # The replays a sweep keeps end with it: after a wrong out_class is planted
    # on linkT-i, a second sweep replays every step again and marks unverified
    # exactly the entries whose certificates take linkT-i.
    first = realize_all(12, 12)
    assert first.gaps == ()
    takes = [
        (e.label, e.fmt)
        for e, cert in zip(first.entries, _certificates_of(first))
        if "linkT-i" in [step.rule for step in cert.steps]
    ]
    assert 0 < len(takes) < len(first.entries)
    wrong = dataclasses.replace(RULES["linkT-i"], out_class=lambda c: class_H(2, 1))
    monkeypatch.setitem(RULES, "linkT-i", wrong)
    second = realize_all(12, 12)
    assert [e.status for e in second.entries] == [e.status for e in first.entries]
    assert [(e.label, e.fmt) for e in second.entries if not e.verified] == takes


def test_a_replay_outside_a_sweep_keeps_nothing(monkeypatch):
    # Outside a sweep every call replays every step; a sweep that raises drops
    # its replays as one that returns does.
    cert = realize(class_H(5, 0), make_format(8, 6)).certificate
    calls = []

    def counting(*args):
        calls.append(args[0])
        return apply_rule(*args)

    monkeypatch.setattr(planner, "apply_rule", counting)
    assert verify_certificate(cert) and verify_certificate(cert)
    assert calls == [step.rule for step in cert.steps] * 2
    answered = []

    def failing(label, fmt):
        if len(answered) == 20:
            raise RuntimeError("planted")
        answered.append(label)
        return realize(label, fmt)

    monkeypatch.setattr(planner, "realize", failing)
    calls.clear()
    with pytest.raises(RuntimeError, match="planted"):
        realize_all(8, 8)
    assert calls and planner._REPLAYS is None
    calls.clear()
    assert verify_certificate(cert)
    assert calls == [step.rule for step in cert.steps]


def test_a_sweep_compares_each_step_with_its_replay(monkeypatch):
    # Certificates handed to the sweep's replay with a step forged: the first
    # step dropped, so that the next one starts from the wrong state, or the
    # last step's input state rewritten while its rule and the state before
    # it, and so its kept replay, stay.  Every entry's verified flag is still
    # a fresh call's, and exactly the forged ones are unverified.
    handed = []

    def forging(label, fmt):
        result = realize(label, fmt)
        cert = result.certificate
        if len(handed) % 3 == 1 and len(cert.steps) >= 2:
            cert = cert._replace(steps=cert.steps[1:])
        elif len(handed) % 3 == 2 and cert.steps:
            last = cert.steps[-1]
            forged = (class_H(0, 0) if last.input_state[0] != class_H(0, 0) else CLASS_T, last.input_state[1])
            cert = cert._replace(steps=(*cert.steps[:-1], last._replace(input_state=forged)))
        handed.append((label, fmt, cert, cert is not result.certificate))
        return result._replace(certificate=cert)

    monkeypatch.setattr(planner, "realize", forging)
    report = realize_all(12, 12)
    monkeypatch.undo()
    by_target = {(label, fmt): (cert, forged) for label, fmt, cert, forged in handed}
    forged_count = 0
    for entry in report.entries:
        cert, forged = by_target[(entry.label, entry.fmt)]
        assert entry.verified == verify_certificate(cert) == (not forged), (entry, cert)
        forged_count += forged
    assert forged_count > 250  # 306 of the 512


def test_no_rule_output_of_the_sweep_is_not_permissible():
    # A search records only outputs that are not NOT_PERMISSIBLE, and only
    # those within its bound.  Here every rule output of every state the
    # (20,20) sweep's bound-26 search discovered, within the bound or past
    # it, is computed anew: none is NOT_PERMISSIBLE, and each state the
    # search expanded has every output within the bound discovered.  An
    # output that is NOT_PERMISSIBLE would be a rule contradicting an
    # obstruction, which the search would otherwise route around silently.
    realize_all(20, 20)
    widest = planner._SEARCHES[26]
    assert len(widest.parent) == 57321
    queued = set(widest.queue)
    expanded = 0
    for key in widest.parent:
        outputs = _outputs(_STEPS[key[0]], *key[1:])
        assert not any(planner._excluded(*out) for out in outputs), key
        if key not in queued:
            expanded += 1
            assert all(out in widest.parent for out in outputs if max(out[3], out[4]) <= 26), key
    assert expanded > 0
    assert not any(planner._excluded(*key) for key in widest.parent if key[0] != OPAQUE.tag)


@pytest.mark.parametrize("index, rerouted", [(1, True), (0, False)])
def test_search_routes_around_a_not_permissible_state(monkeypatch, index, rerouted):
    # No real rule output is NOT_PERMISSIBLE, so one state of a known
    # certificate is made so where the search tests its states.  The search
    # then finds another route of the same length, or none when every route
    # runs through H(2,0) at (8,3); from both ends, and from a sweep's
    # search, each in a process that holds no search.
    label, fmt = class_H(5, 0), make_format(8, 6)
    cert = realize(label, fmt).certificate
    blocked = cert.steps[index].output_state
    blocked_key = planner._state_key(*blocked)
    excluded = planner._excluded
    monkeypatch.setattr(planner, "_excluded", lambda *key: key == blocked_key or excluded(*key))
    for search in (realize, _realize_from_sweep_search):
        planner._SEARCHES.clear()
        result = search(label, fmt)
        if rerouted:
            assert result.status is RealizeStatus.REALIZED
            assert verify_certificate(result.certificate)
            assert len(result.certificate.steps) == len(cert.steps)
            assert blocked not in [step.output_state for step in result.certificate.steps]
        else:
            assert result.status is RealizeStatus.NOT_FOUND
    assert list(planner._SEARCHES) == [14]


# -------------------------------------------------------------- verification


def test_verify_rejects_tampered_certificates():
    cert = realize(class_H(2, 0), make_format(6, 3)).certificate
    assert verify_certificate(cert)

    step = cert.steps[0]
    wrong_out = step._replace(output_state=(class_H(2, 2), step.output_state[1]))
    assert not verify_certificate(cert._replace(steps=(wrong_out,)))

    wrong_rule = step._replace(rule="linkT-ii")
    assert not verify_certificate(cert._replace(steps=(wrong_rule,)))

    wrong_target = cert._replace(target=(class_H(2, 2), cert.target[1]))
    assert not verify_certificate(wrong_target)

    wrong_family = cert._replace(axiom=cert.axiom._replace(family="GOR"))
    assert not verify_certificate(wrong_family)

    unknown_family = cert._replace(axiom=cert.axiom._replace(family="XYZ"))
    assert not verify_certificate(unknown_family)

    wrong_axiom_fmt = cert._replace(axiom=cert.axiom._replace(fmt=make_format(4, 5)))
    assert not verify_certificate(wrong_axiom_fmt)

    # A family id that is not a string, which no document can carry, is unknown too.
    cert_t = realize(CLASS_T, make_format(8, 6)).certificate
    assert verify_certificate(cert_t)
    assert not verify_certificate(cert_t._replace(axiom=cert_t.axiom._replace(family=["HS"])))
    # So is an axiom format that is not a Format, or a step that is not a Transition.
    assert not verify_certificate(cert_t._replace(axiom=cert_t.axiom._replace(fmt=[4, 3])))
    assert not verify_certificate(cert_t._replace(steps=[1]))

    # Anything else the replay cannot read is False, not an error: a value
    # that is not a certificate, an axiom or steps of the wrong kind, and a
    # step that is None, also in a certificate of no steps.
    cert_g = realize(class_G(7), make_format(7, 1)).certificate
    assert cert_g.steps == () and verify_certificate(cert_g)
    for value in (None, "x", cert_t._replace(axiom=None), cert_t._replace(steps=5), cert_g._replace(steps=(None,))):
        assert verify_certificate(value) is False
    assert verify_certificate(realize(CLASS_T, make_format(6, 6)).certificate)

    # Citations are replayed too, on the axiom and on every step.
    cert = realize(class_H(5, 0), make_format(8, 6)).certificate
    assert verify_certificate(cert)
    forged_axiom_cite = cert._replace(axiom=cert.axiom._replace(cite="Anonymous 2099"))
    assert not verify_certificate(forged_axiom_cite)
    forged_step_cite = cert._replace(steps=(cert.steps[0]._replace(cite="Anonymous 2099"), *cert.steps[1:]))
    assert not verify_certificate(forged_step_cite)


def test_verify_rejects_rule_precondition_breaks():
    cert = realize(class_H(0, 1), make_format(5, 3)).certificate
    step0, step1 = cert.steps
    # A step whose recorded output disagrees with the rule replay.
    patched = step0._replace(output_state=(step0.output_state[0], make_format(8, 3)))
    assert not verify_certificate(cert._replace(steps=(patched, step1)))
    # A step whose recorded input does not match the preceding state.
    patched = step1._replace(input_state=(class_H(2, 2), step1.input_state[1]))
    assert not verify_certificate(cert._replace(steps=(step0, patched)))
    # A step naming a rule that refuses its input state: linkG-i on class T.
    assert cert.axiom.label == CLASS_T
    patched = step0._replace(rule="linkG-i")
    assert not verify_certificate(cert._replace(steps=(patched, step1)))


def test_verify_rejects_a_not_permissible_state(monkeypatch):
    # No axiom or rule output is NOT_PERMISSIBLE under the real rulebook, so
    # each state of one certificate is made so in turn.
    cert = realize(class_H(0, 1), make_format(5, 3)).certificate
    states = [(cert.axiom.label, cert.axiom.fmt)] + [step.output_state for step in cert.steps]
    assert len(states) == 3 and verify_certificate(cert)
    excluded = is_permissible(CLASS_T, make_format(4, 4))
    assert excluded.status is Status.NOT_PERMISSIBLE
    for state in states:
        monkeypatch.setattr(
            planner,
            "is_permissible",
            lambda label, fmt, state=state: excluded if (label, fmt) == state else is_permissible(label, fmt),
        )
        assert not verify_certificate(cert), state


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
    # Every target past DEFAULT_MAX_SEARCH is NOT_FOUND without a search, so a
    # sweep past it is refused too, before it searches; a bound too long to
    # print as an integer is worded through _decimal.
    assert planner.DEFAULT_MAX_SEARCH == 64
    for m_max, n_max in ((3, 6), (8, 1), (65, 14), (14, 65), (10**5000, 4)):
        with pytest.raises(OutOfDomain) as info:
            realize_all(m_max, n_max)
        assert str(info.value).startswith("coverage sweep needs 4 <= m_max <= 64 and 2 <= n_max <= 64, got (")
    assert planner._SEARCHES == {}
    assert len(realize_all(64, 2).entries) == 60


def test_realize_all_refuses_a_huge_bound_in_bounded_memory():
    # realize_all(14, 10**8) once listed about 10**9 formats before any check
    # and raised MemoryError under this 400 MB address-space cap.
    code = (
        "import resource; resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))\n"
        "from grade3 import OutOfDomain, realize_all\n"
        "try:\n    realize_all(14, 10**8)\nexcept OutOfDomain as exc:\n    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(planner.__file__)))
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, env=env, timeout=60, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "coverage sweep needs 4 <= m_max <= 64 and 2 <= n_max <= 64, got (14, 100000000)\n"


# ---------------------------------------------------------- family assignment


def test_family_assignment_precedence_and_fallback():
    assert FAMILY_ASSIGNMENT_IDS == ("column-m2", "column-m0", "column-m1", "row-n2", "row-n0", "row-n1", "hs-diagonal")
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
