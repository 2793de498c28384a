"""Acceptance gate: the eleven shipping criteria, one pass/fail line each.

Each test prints ``criterion NN: PASS/FAIL — detail`` before asserting, so a
``pytest -v -s`` run shows the full scoreboard even when a criterion fails.
"""

from __future__ import annotations

import time

import pytest

from grade3 import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    LinkSpec,
    RealizeStatus,
    SUPPORTED_PROFILES,
    arranged_presentation,
    atlas_grid,
    betti_after_link,
    betti_total,
    canonical_presentation,
    class_G,
    class_H,
    classify,
    compute_pqrs,
    family_assignment,
    link_option_format,
    make_format,
    mapping_cone_presentation,
    realize,
    realize_all,
    verify_certificate,
    verify_linkage_theorems,
)
from grade3.errors import DimensionMismatch, InvalidFormat
from grade3.permissible import CellStatus


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


def _labels_under_test():
    labels = [CLASS_T, CLASS_B, CLASS_C3]
    labels += [class_G(r) for r in range(2, 9)]
    labels += [class_H(p, q) for p in range(0, 7) for q in range(0, 7)]
    return labels


def _compatible_pairs():
    for label in _labels_under_test():
        for m in range(1, 13):
            for n in range(1, 11):
                fmt = make_format(m, n)
                try:
                    table = canonical_presentation(label, fmt)
                except DimensionMismatch:
                    continue
                yield label, fmt, table


@pytest.fixture(scope="module")
def theorem_run():
    start = time.monotonic()
    report = verify_linkage_theorems(m_max=10, n_max=8)
    return report, time.monotonic() - start


@pytest.fixture(scope="module")
def coverage_run():
    start = time.monotonic()
    report = realize_all(20, 20)
    return report, time.monotonic() - start


def test_c01_classifier_round_trip():
    start = time.monotonic()
    checked = 0
    mismatches = []
    for label, fmt, table in _compatible_pairs():
        checked += 1
        got = classify(table).label
        if got != label:
            mismatches.append((str(label), str(fmt), str(got)))
    elapsed = time.monotonic() - start
    ok = not mismatches and checked > 4000 and elapsed < 5.0
    _verdict(1, ok, f"round-trip on {checked} canonical tables in {elapsed:.2f}s")
    assert elapsed < 5.0
    assert checked > 4000
    assert not mismatches, mismatches[:5]


def test_c02_invariant_table():
    expected_pqr = {
        "C3": lambda lab: (3, 1, 3),
        "T": lambda lab: (3, 0, 0),
        "B": lambda lab: (1, 1, 2),
        "G": lambda lab: (0, 1, lab.r),
        "H": lambda lab: (lab.p, lab.q, lab.q),
    }
    checked = 0
    mismatches = []
    for label, fmt, table in _compatible_pairs():
        checked += 1
        report = compute_pqrs(table)
        want = expected_pqr[label.tag](label)
        if (report.p, report.q, report.r) != want:
            mismatches.append((str(label), str(fmt), (report.p, report.q, report.r)))
        if label == CLASS_T and report.s1 != 3:
            mismatches.append((str(label), str(fmt), f"s1={report.s1}"))
        if label == class_H(3, 0) and report.s1 != 4:
            mismatches.append((str(label), str(fmt), f"s1={report.s1}"))
    ok = not mismatches and checked > 4000
    _verdict(2, ok, f"(p,q,r) and the s1 split verified on {checked} tables")
    assert checked > 4000
    assert not mismatches, mismatches[:5]


# Excluded (dotted) cells of the H atlas at format (8,6), keyed p -> {q}, and
# the realized boundary labels (black); every other cell is white.
_DOTTED_86 = {
    0: {4, 5, 6},
    1: {5, 6},
    2: {4, 5, 6},
    3: {5, 6},
    4: {4, 5, 6},
    5: {1, 3, 5, 6},
    6: {0, 1, 2, 3, 4, 5, 6},
    7: {0, 1, 2, 3, 4, 5},
}
_BLACK_86 = {(5, 0), (5, 2), (5, 4), (1, 4), (3, 4)}


def test_c03_atlas_reproduction():
    grid = atlas_grid(make_format(8, 6))
    expected = {}
    for p in range(0, 8):
        for q in range(0, 7):
            if q in _DOTTED_86[p]:
                expected[(p, q)] = CellStatus.DOTTED
            elif (p, q) in _BLACK_86:
                expected[(p, q)] = CellStatus.BLACK
            else:
                expected[(p, q)] = CellStatus.WHITE
    mismatches = {
        cell: (grid.cells[cell].value, expected[cell].value)
        for cell in expected
        if grid.cells[cell] is not expected[cell]
    }
    ok = dict(grid.cells) == expected and len(grid.cells) == 56
    _verdict(3, ok, f"all {len(expected)} atlas cells at (8,6) match the chart")
    assert len(grid.cells) == 56
    assert not mismatches, mismatches


def test_c04_linkage_theorem_replay(theorem_run):
    report, elapsed = theorem_run
    names = {res.scenario for res in report.results}
    failures = [
        (res.scenario, res.failures[:2]) for res in report.results if not res.passed
    ]
    unchecked = [res.scenario for res in report.results if res.checked == 0]
    h_v = next(res for res in report.results if res.scenario == "linkH-v")
    total = sum(res.checked for res in report.results)
    ok = (
        not failures
        and not unchecked
        and names
        == {
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
        and "X/Y" in h_v.note
        and elapsed < 30.0
    )
    _verdict(4, ok, f"12 scenarios, {total} engine runs, all pass in {elapsed:.2f}s")
    assert elapsed < 30.0
    assert not unchecked
    assert "X/Y" in h_v.note
    assert not failures, failures


def test_c05_sign_regression():
    table = arranged_presentation(class_H(2, 1), make_format(6, 3), "H-i")
    lp = mapping_cone_presentation(table, LinkSpec(1))
    e_map, f_map, g_map = lp.index_map["E"], lp.index_map["F"], lp.index_map["G"]
    vec = lp.presentation.ef_product(e_map[4], f_map[1])
    coeff = vec[g_map[2] - 1]
    ok = coeff == -1 and all(c == 0 for i, c in enumerate(vec, 1) if i != g_map[2])
    _verdict(5, ok, f"product pairs against the second survivor with coefficient {coeff}")
    assert coeff == -1
    assert ok


def test_c06_betti_coherence():
    checked = 0
    mismatches = []
    for m in range(1, 31):
        for n in range(1, 31):
            fmt = make_format(m, n)
            for profile in SUPPORTED_PROFILES:
                try:
                    out = link_option_format(fmt, profile)
                except InvalidFormat:
                    continue
                checked += 1
                if betti_total(out) != betti_after_link(betti_total(fmt), profile):
                    mismatches.append((str(fmt), profile.as_tuple()))
    ok = not mismatches and checked > 4000
    _verdict(6, ok, f"betti identity exact on {checked} (format, profile) pairs")
    assert checked > 4000
    assert not mismatches, mismatches[:5]


def test_c07_class_t_coverage(coverage_run):
    report, elapsed = coverage_run
    entries = report.entries_of_kind("T")
    gaps = [e for e in entries if not e.covered]
    ok = bool(entries) and not gaps and elapsed < 60.0
    _verdict(
        7, ok, f"{len(entries)} class-T formats realized and verified in {elapsed:.2f}s"
    )
    assert elapsed < 60.0
    assert entries
    assert not gaps, [(str(e.label), str(e.fmt)) for e in gaps[:5]]


def test_c08_class_b_coverage(coverage_run):
    report, _ = coverage_run
    entries = report.entries_of_kind("B")
    gaps = [e for e in entries if not e.covered]
    ok = bool(entries) and not gaps
    _verdict(8, ok, f"{len(entries)} class-B formats realized and verified")
    assert entries
    assert not gaps, [(str(e.label), str(e.fmt)) for e in gaps[:5]]


def test_c09_boundary_h_coverage(coverage_run):
    report, _ = coverage_run
    entries = report.entries_of_kind("H-boundary")
    gaps = [e for e in entries if not e.covered]
    ok = bool(entries) and not gaps
    _verdict(9, ok, f"{len(entries)} boundary H labels realized and verified")
    assert entries
    assert not gaps, [(str(e.label), str(e.fmt)) for e in gaps[:5]]


# Construction family per T-permissible cell, rows m = 5..12, columns n = 4..10.
_TABLE3_ABBREV = {
    "m2": "column-m2",
    "m0": "column-m0",
    "m1": "column-m1",
    "n2": "row-n2",
    "n0": "row-n0",
    "n1": "row-n1",
    "hs": "hs-diagonal",
}
_TABLE3_ROWS = {
    5: ("hs", "m2", "m2", "m2", "m2", "m2", "m2"),
    6: ("n1", "hs", "m0", "m0", "m0", "m0", "m0"),
    7: ("n1", "hs", "m1", "m1", "m1", "m1", "m1"),
    8: ("n1", "n2", "hs", "hs", "m2", "m2", "m2"),
    9: ("n1", "n2", "n0", "n1", "hs", "m0", "m0"),
    10: ("n1", "n2", "n0", "n1", "hs", "m1", "m1"),
    11: ("n1", "n2", "n0", "n1", "n2", "hs", "hs"),
    12: ("n1", "n2", "n0", "n1", "n2", "n0", "n1"),
}


def test_c10_family_assignment_chart():
    checked = 0
    mismatches = []
    for m, row in _TABLE3_ROWS.items():
        for offset, abbrev in enumerate(row):
            fmt = make_format(m, 4 + offset)
            checked += 1
            got = family_assignment(fmt)
            want = _TABLE3_ABBREV[abbrev]
            if got != want:
                mismatches.append((str(fmt), got, want))
    ok = not mismatches and checked == 56
    _verdict(10, ok, f"family assignment matches the chart on all {checked} cells")
    assert checked == 56
    assert not mismatches, mismatches


def test_c11_certificate_replay(coverage_run):
    report, _ = coverage_run
    realized = [e for e in report.entries if e.status is RealizeStatus.REALIZED]
    verified = 0
    steps_mutated = 0
    survivors = []
    for entry in realized:
        cert = realize(entry.label, entry.fmt).certificate
        if verify_certificate(cert):
            verified += 1
        else:
            survivors.append(("unverified", str(entry.label), str(entry.fmt)))
        for k, step in enumerate(cert.steps):
            out_label, out_fmt = step.output_state
            bad_step = step._replace(output_state=(out_label, make_format(out_fmt.m + 1, out_fmt.n)))
            mutated = cert._replace(steps=cert.steps[:k] + (bad_step,) + cert.steps[k + 1 :])
            steps_mutated += 1
            if verify_certificate(mutated):
                survivors.append(("mutation passed", str(entry.label), str(entry.fmt), k))
    ok = verified == len(realized) and not survivors and steps_mutated > 0
    _verdict(
        11,
        ok,
        f"{verified}/{len(realized)} certificates replay; "
        f"all {steps_mutated} single-step mutations rejected",
    )
    assert verified == len(realized)
    assert steps_mutated > 0
    assert not survivors, survivors[:5]
