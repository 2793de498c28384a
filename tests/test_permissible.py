"""Verdict rules, boundary enumeration, and the obstruction atlas."""

from __future__ import annotations

import hashlib

import pytest

from grade3 import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    OPAQUE,
    CellStatus,
    Grade3Error,
    InvalidLabel,
    Status,
    atlas_grid,
    boundary_classes,
    class_G,
    class_H,
    is_permissible,
    make_format,
    render_atlas_csv,
    render_atlas_text,
)
from grade3 import permissible


def _status(label, m, n):
    return is_permissible(label, make_format(m, n)).status


def _rules(label, m, n):
    return {v.rule for v in is_permissible(label, make_format(m, n)).violations}


# ------------------------------------------------------------------- class H


def test_h_verdict_examples():
    assert _status(class_H(5, 0), 8, 6) is Status.PERMISSIBLE
    assert _status(class_H(5, 2), 8, 6) is Status.PERMISSIBLE
    assert _status(class_H(6, 6), 8, 6) is Status.NOT_PERMISSIBLE
    assert _status(class_H(0, 0), 8, 6) is Status.UNKNOWN_NECESSARY_ONLY
    assert _status(class_H(3, 2), 4, 2) is Status.PERMISSIBLE
    assert _status(class_H(1, 2), 6, 2) is Status.PERMISSIBLE


def test_h_rule_ids_fire_individually():
    assert "H-format-min" in _rules(class_H(0, 0), 3, 2)
    assert "H-format-min" in _rules(class_H(0, 0), 4, 1)
    assert "H-n-equals-p" in _rules(class_H(6, 0), 8, 6)
    assert "H-m-equals-q-plus-3" in _rules(class_H(0, 5), 8, 6)
    assert "H-p-exceeds-bound" in _rules(class_H(8, 0), 8, 6)
    assert "H-q-exceeds-bound" in _rules(class_H(0, 7), 8, 6)
    assert "H-m-below-p-or-q" in _rules(class_H(7, 0), 6, 8)
    assert "H-n-below-p-or-q" in _rules(class_H(0, 7), 8, 6)
    assert "H-row-p-minus-1-corner" in _rules(class_H(7, 0), 8, 6)
    assert "H-q-equals-m-minus-2" in _rules(class_H(0, 6), 8, 6)
    assert "H-row-p-plus-1-parity" in _rules(class_H(5, 1), 8, 6)
    assert "H-col-q-plus-4-parity" in _rules(class_H(0, 4), 8, 6)
    assert "H-boundary-p-window" in _rules(class_H(5, 3), 8, 6)
    assert "H-boundary-q-window" in _rules(class_H(0, 4), 8, 6)
    assert "H-aci-format-classes" in _rules(class_H(1, 1), 4, 3)
    assert "H-type-two-format-classes" in _rules(class_H(2, 2), 7, 2)


def test_h_violations_carry_citations():
    verdict = is_permissible(class_H(6, 6), make_format(8, 6))
    assert verdict.status is Status.NOT_PERMISSIBLE
    assert verdict.violations
    for violation in verdict.violations:
        assert violation.rule.startswith("H-")
        assert violation.detail
        assert violation.cite


def test_h_interior_is_unknown_not_permissible():
    # Clean interior cells satisfy every necessary condition but lie on no
    # realizable strip: the verdict must stay on the fence.
    assert _status(class_H(1, 1), 8, 6) is Status.UNKNOWN_NECESSARY_ONLY
    assert _status(class_H(2, 2), 9, 7) is Status.UNKNOWN_NECESSARY_ONLY


# ----------------------------------------------------------- other classes


def test_t_verdicts():
    assert _status(CLASS_T, 4, 3) is Status.PERMISSIBLE
    assert _status(CLASS_T, 4, 5) is Status.PERMISSIBLE
    assert _status(CLASS_T, 5, 4) is Status.PERMISSIBLE
    assert _status(CLASS_T, 4, 2) is Status.NOT_PERMISSIBLE
    assert _status(CLASS_T, 3, 3) is Status.NOT_PERMISSIBLE
    assert _status(CLASS_T, 4, 4) is Status.NOT_PERMISSIBLE
    assert _status(CLASS_T, 5, 3) is Status.NOT_PERMISSIBLE
    assert "T-aci-parity" in _rules(CLASS_T, 4, 4)
    assert "T-n3-needs-m4" in _rules(CLASS_T, 7, 3)


def test_b_verdicts():
    assert _status(CLASS_B, 5, 2) is Status.PERMISSIBLE
    assert _status(CLASS_B, 7, 2) is Status.PERMISSIBLE
    assert _status(CLASS_B, 6, 3) is Status.PERMISSIBLE
    assert _status(CLASS_B, 4, 2) is Status.NOT_PERMISSIBLE
    assert _status(CLASS_B, 6, 2) is Status.NOT_PERMISSIBLE
    assert _status(CLASS_B, 5, 3) is Status.NOT_PERMISSIBLE
    assert _status(CLASS_B, 5, 1) is Status.NOT_PERMISSIBLE
    assert "B-type-two-parity" in _rules(CLASS_B, 6, 2)
    assert "B-gorenstein-excluded" in _rules(CLASS_B, 5, 1)


def test_c3_verdicts():
    assert _status(CLASS_C3, 3, 1) is Status.PERMISSIBLE
    assert _status(CLASS_C3, 4, 2) is Status.NOT_PERMISSIBLE
    assert _rules(CLASS_C3, 4, 2) == {"C3-format"}


def test_g_verdicts():
    assert _status(class_G(5), 5, 1) is Status.PERMISSIBLE
    assert _status(class_G(7), 7, 1) is Status.PERMISSIBLE
    assert _status(class_G(6), 6, 1) is Status.NOT_PERMISSIBLE
    assert _status(class_G(5), 6, 1) is Status.NOT_PERMISSIBLE
    assert _status(class_G(3), 3, 1) is Status.NOT_PERMISSIBLE
    assert _status(class_G(4), 6, 3) is Status.UNKNOWN_NECESSARY_ONLY
    assert "G-gorenstein-parity" in _rules(class_G(6), 6, 1)
    assert "G-gorenstein-duality" in _rules(class_G(5), 6, 1)
    assert "G-gorenstein-min" in _rules(class_G(3), 3, 1)


def test_opaque_label_is_refused_as_an_invalid_label():
    # The placeholder of an axiom whose class is not pinned names no class, so it has no verdict.
    with pytest.raises(InvalidLabel, match=r"^unknown class tag '\*'$") as exc:
        is_permissible(OPAQUE, make_format(6, 3))
    assert isinstance(exc.value, Grade3Error) and isinstance(exc.value, ValueError)


def test_exclusion_test_agrees_with_the_verdict():
    # The planner's yes/no test runs the same rules as the verdict: on every
    # tag, on slots 0..17 and on every format up to (16,16), it holds exactly
    # when the verdict is NOT_PERMISSIBLE.  Each of the 28 rules is broken
    # somewhere on this grid.  The opaque tag is refused by both.
    slots = {
        "B": [(0, 0)],
        "C3": [(0, 0)],
        "T": [(0, 0)],
        "G": [(r, 0) for r in range(18)],
        "H": [(p, q) for p in range(18) for q in range(18)],
    }
    assert set(slots) == set(permissible._OBSTRUCTIONS)
    broken = set()
    for tag, pairs in slots.items():
        for a, b in pairs:
            for m in range(1, 17):
                for n in range(1, 17):
                    verdict = permissible._verdict(tag, a, b, m, n)
                    want = verdict.status is Status.NOT_PERMISSIBLE
                    assert permissible._excluded(tag, a, b, m, n) is want, (tag, a, b, m, n)
                    broken.update(v.rule for v in verdict.violations)
    assert broken == {
        "B-m-min",
        "B-gorenstein-excluded",
        "B-type-two-parity",
        "B-m5-needs-n2",
        "C3-format",
        "T-m-min",
        "T-n-min",
        "T-aci-parity",
        "T-n3-needs-m4",
        "G-gorenstein-duality",
        "G-gorenstein-parity",
        "G-gorenstein-min",
        "H-format-min",
        "H-n-equals-p",
        "H-m-equals-q-plus-3",
        "H-p-exceeds-bound",
        "H-q-exceeds-bound",
        "H-m-below-p-or-q",
        "H-n-below-p-or-q",
        "H-row-p-minus-1-corner",
        "H-col-q-plus-2-corner",
        "H-q-equals-m-minus-2",
        "H-row-p-plus-1-parity",
        "H-col-q-plus-4-parity",
        "H-boundary-p-window",
        "H-boundary-q-window",
        "H-aci-format-classes",
        "H-type-two-format-classes",
    }
    for ask in (permissible._verdict, permissible._excluded):
        with pytest.raises(InvalidLabel, match=r"^unknown class tag '\*'$"):
            ask(OPAQUE.tag, 0, 0, 6, 3)


# ------------------------------------------------------------------ boundary


def test_boundary_classes_oracles():
    def names(m, n):
        return {str(label) for label in boundary_classes(make_format(m, n))}

    assert names(8, 6) == {"H(5,0)", "H(5,2)", "H(5,4)", "H(1,4)", "H(3,4)"}
    assert names(4, 2) == set()
    assert names(6, 2) == {"H(1,2)"}
    assert names(5, 3) == {"H(2,1)", "H(0,1)"}
    assert names(6, 3) == {"H(2,0)", "H(2,2)", "H(0,2)"}


def test_boundary_classes_are_all_permissible():
    for m in range(4, 13):
        for n in range(2, 11):
            fmt = make_format(m, n)
            for label in boundary_classes(fmt):
                assert is_permissible(label, fmt).status is Status.PERMISSIBLE


# --------------------------------------------------------------------- atlas

# The frozen cell chart for format (8,6): dotted cells by p, the black
# boundary cells, everything else white.
_ATLAS_86_DOTTED = {
    0: {4, 5, 6},
    1: {5, 6},
    2: {4, 5, 6},
    3: {5, 6},
    4: {4, 5, 6},
    5: {1, 3, 5, 6},
    6: {0, 1, 2, 3, 4, 5, 6},
    7: {0, 1, 2, 3, 4, 5},
}
_ATLAS_86_BLACK = {(5, 0), (5, 2), (5, 4), (1, 4), (3, 4)}


def test_atlas_86_matches_published_chart():
    grid = atlas_grid(make_format(8, 6))
    assert len(grid.cells) == 56
    for (p, q), status in grid.cells.items():
        if (p, q) in _ATLAS_86_BLACK:
            expected = CellStatus.BLACK
        elif q in _ATLAS_86_DOTTED.get(p, set()):
            expected = CellStatus.DOTTED
        else:
            expected = CellStatus.WHITE
        assert status is expected, ((p, q), status, expected)


def test_atlas_dotted_cells_carry_rule_ids():
    grid = atlas_grid(make_format(8, 6))
    for cell, status in grid.cells.items():
        if status is CellStatus.DOTTED:
            assert grid.violations[cell]
        else:
            assert grid.violations[cell] == ()


def test_atlas_text_rendering():
    text = render_atlas_text(atlas_grid(make_format(6, 3)))
    lines = text.splitlines()
    assert lines[0] == "H(p,q) atlas for format (6,3)"
    assert lines[1].startswith("q=4 | ")
    assert lines[-1].strip().startswith("p=")
    # 5 columns (p = 0..4), 5 rows (q = 0..4)
    grid_rows = [line for line in lines if line.startswith("q=")]
    assert len(grid_rows) == 5
    assert all(len(row.split("| ")[1].split()) == 5 for row in grid_rows)
    assert "#" in text and "o" in text and "." in text


def test_atlas_csv_rendering():
    csv = render_atlas_csv(atlas_grid(make_format(6, 3)))
    lines = csv.strip().splitlines()
    assert lines[0] == "p,q,status,rules"
    assert len(lines) == 1 + 5 * 5
    cells = {}
    for line in lines[1:]:
        p, q, status, rules = line.split(",", 3)
        cells[(int(p), int(q))] = (status, rules)
    assert cells[(2, 0)][0] == "black"
    assert cells[(2, 0)][1] == ""
    status, rules = cells[(0, 3)]
    assert status == "dotted"
    assert "H-m-equals-q-plus-3" in rules.split(";")


def test_h_rules_do_not_misfire_on_known_permissible_cells():
    # Every black cell of every atlas in a sweep stays free of violations.
    for m in range(4, 11):
        for n in range(2, 9):
            fmt = make_format(m, n)
            for label in boundary_classes(fmt):
                assert is_permissible(label, fmt).violations == ()


@pytest.mark.parametrize(
    "p,q,m,n",
    [(5, 0, 8, 6), (1, 4, 8, 6), (3, 4, 8, 6), (2, 1, 5, 3), (0, 2, 6, 3)],
)
def test_boundary_strip_membership(p, q, m, n):
    # Black cells sit on p = n - 1 or q = m - 4.
    assert p == n - 1 or q == m - 4
    assert class_H(p, q) in boundary_classes(make_format(m, n))


def test_verdict_grid_is_pinned():
    # Status, rule ids, details and citations of every label below at every
    # format up to (16,16), with each format's boundary labels and atlas CSV,
    # recorded while each class still had its own verdict function.
    digest = hashlib.sha256()
    count = 0
    for m in range(1, 17):
        for n in range(1, 17):
            fmt = make_format(m, n)
            labels = (
                [CLASS_B, CLASS_C3, CLASS_T]
                + [class_G(r) for r in range(2, m + 3)]
                + [class_H(p, q) for p in range(n + 3) for q in range(m + 1)]
            )
            for label in labels:
                verdict = is_permissible(label, fmt)
                rules = ";".join(f"{v.rule}:{v.detail}:{v.cite}" for v in verdict.violations)
                digest.update(f"{label}|{fmt}|{verdict.status.value}|{rules}\n".encode("utf-8"))
                count += 1
            boundary = ",".join(sorted(map(str, boundary_classes(fmt))))
            digest.update(f"B|{boundary}\n".encode("utf-8"))
            if m >= 2:
                digest.update(render_atlas_csv(atlas_grid(fmt)).encode("utf-8"))
    assert count == 31168
    assert digest.hexdigest() == "eb8a043b5043cffbe2d536cd4d195610b45bd6171c466b7d7d63d9bb0cecfa05"
