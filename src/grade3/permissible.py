"""Which (class, format) pairs can occur: verdicts, boundaries, atlases.

For a class label ``c`` and format ``(m, n)``, :func:`is_permissible` returns
one of three verdicts:

* ``PERMISSIBLE`` — a perfect ideal with this class and format exists,
* ``NOT_PERMISSIBLE`` — at least one published obstruction rules it out
  (every violated rule is reported with a citation),
* ``UNKNOWN_NECESSARY_ONLY`` — all known necessary conditions hold but no
  construction is known.

Every verdict comes from one table of obstructions keyed by class tag and
one predicate per class that says whether a cell breaking no rule is
realized.  Classes B, C(3), T, and G-in-Gorenstein-formats are fully
decided.  For class H the obstructions combine format bounds, corner
identities, and parity windows; the cells that remain clean are provably
realizable exactly on the two boundary strips ``p = n - 1`` and
``q = m - 4`` (plus corners and the ``m = 4`` / ``n = 2`` families), which is
what :func:`boundary_classes` enumerates and the atlas renders.
"""

from __future__ import annotations

import io
from enum import Enum
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, NoReturn

from .errors import InvalidLabel, OutOfDomain, _decimal
from .labels import ClassLabel, Format, _require_types, class_H

__all__ = [
    "Status",
    "RuleViolation",
    "PermissibilityVerdict",
    "is_permissible",
    "boundary_classes",
    "CellStatus",
    "AtlasGrid",
    "MAX_ATLAS_CELLS",
    "atlas_grid",
    "render_atlas_text",
    "render_atlas_csv",
]

CITE_AV12 = "Avramov 2012"
CITE_B84 = "Brown 1984"
CITE_BE77 = "Buchsbaum-Eisenbud 1977"
CITE_CVW17 = "Christensen-Veliche-Weyman 2017"
CITE_CVW20 = "Christensen-Veliche-Weyman 2020"
CITE_W89 = "Weyman 1989; Avramov-Kustin-Miller 1988"


class Status(str, Enum):
    PERMISSIBLE = "permissible"
    NOT_PERMISSIBLE = "not-permissible"
    UNKNOWN_NECESSARY_ONLY = "unknown-necessary-only"


class RuleViolation(NamedTuple):
    """One violated obstruction: stable rule id, human detail, citation."""

    rule: str
    detail: str
    cite: str


class PermissibilityVerdict(NamedTuple):
    status: Status
    violations: tuple[RuleViolation, ...] = ()


_PERMISSIBLE = PermissibilityVerdict(Status.PERMISSIBLE)
_UNKNOWN = PermissibilityVerdict(Status.UNKNOWN_NECESSARY_ONLY)


# --- the obstruction table ---------------------------------------------------

# Every check reads the label's two parameter slots and the format,
# ``(a, b, m, n)`` with ``a = r`` for G, ``(a, b) = (p, q)`` for H and both zero
# otherwise, and returns the detail of a violation, or None when the rule holds.
_Check = Callable[[int, int, int, int], str | None]


def _obstructions() -> dict[str, tuple[tuple[str, _Check, str], ...]]:
    """Per class tag: (rule id, check, citation) in fixed order."""

    def b_m_min(a: int, b: int, m: int, n: int) -> str | None:
        return f"class B needs m >= 5; m = {m}" if m < 5 else None

    def b_gorenstein(a: int, b: int, m: int, n: int) -> str | None:
        return "Gorenstein formats (n = 1) carry only classes C(3) and G(r)" if n < 2 else None

    def b_type_two_parity(a: int, b: int, m: int, n: int) -> str | None:
        return f"formats (m,2) carry class B only for odd m; m = {m}" if n == 2 and m % 2 == 0 else None

    def b_m5(a: int, b: int, m: int, n: int) -> str | None:
        return f"class B at m = 5 occurs only for n = 2; n = {n}" if m == 5 and n >= 3 else None

    def c3_format(a: int, b: int, m: int, n: int) -> str | None:
        if (m, n) != (3, 1):
            return f"class C(3) is the complete intersection and occurs only in format (3,1); format is ({m},{n})"
        return None

    def t_m_min(a: int, b: int, m: int, n: int) -> str | None:
        return f"class T needs m >= 4; m = {m}" if m < 4 else None

    def t_n_min(a: int, b: int, m: int, n: int) -> str | None:
        return f"class T needs n >= 3; n = {n}" if n < 3 else None

    def t_aci_parity(a: int, b: int, m: int, n: int) -> str | None:
        if m == 4 and n >= 3 and n % 2 == 0:
            return f"formats (4,n) carry class T only for odd n; n = {n}"
        return None

    def t_n3(a: int, b: int, m: int, n: int) -> str | None:
        return f"class T at n = 3 occurs only for m = 4; m = {m}" if m >= 5 and n == 3 else None

    # Outside Gorenstein formats (n = 1) no obstruction to G(r) is known.
    def g_duality(r: int, b: int, m: int, n: int) -> str | None:
        if n == 1 and m != r:
            return f"Gorenstein formats force r = m by Poincare duality; r = {r}, m = {m}"
        return None

    def g_parity(r: int, b: int, m: int, n: int) -> str | None:
        if n == 1 and r % 2 == 0:
            return f"Gorenstein ideals of grade 3 have odd minimal generation; r = {r}"
        return None

    def g_min(r: int, b: int, m: int, n: int) -> str | None:
        return f"format ({m},1) with m < 5 carries only class C(3); r = {r}" if n == 1 and r < 5 else None

    # Class H: format bounds, corner identities, parity windows, families.
    def format_min(p: int, q: int, m: int, n: int) -> str | None:
        if m < 4 or n < 2:
            return f"class H needs m >= 4 and n >= 2; format is ({m},{n})"
        return None

    def n_equals_p(p: int, q: int, m: int, n: int) -> str | None:
        return f"n = p = {p} is excluded" if n == p else None

    def m_equals_q3(p: int, q: int, m: int, n: int) -> str | None:
        return f"m = q + 3 = {m} is excluded" if m == q + 3 else None

    def p_bound(p: int, q: int, m: int, n: int) -> str | None:
        bound = max(m - 1, n + 1)
        return f"p = {p} exceeds max(m-1, n+1) = {bound}" if p > bound else None

    def q_bound(p: int, q: int, m: int, n: int) -> str | None:
        bound = max(m - 2, n)
        return f"q = {q} exceeds max(m-2, n) = {bound}" if q > bound else None

    def m_lower(p: int, q: int, m: int, n: int) -> str | None:
        if m < p + 1 or m < q + 2:
            return f"m = {m} is below max(p+1, q+2) = {_decimal(max(p + 1, q + 2))}"
        return None

    def n_lower(p: int, q: int, m: int, n: int) -> str | None:
        if n < p - 1 or n < q:
            return f"n = {n} is below max(p-1, q) = {max(p - 1, q)}"
        return None

    def row_p_minus_1(p: int, q: int, m: int, n: int) -> str | None:
        if n == p - 1 and not (m == p + 1 and m == q + 2):
            return f"n = p - 1 requires the corner m = p + 1 = q + 2; format is ({m},{n})"
        return None

    def col_q_plus_2(p: int, q: int, m: int, n: int) -> str | None:
        if m == q + 2 and not (n == q and p == n + 1):
            return f"m = q + 2 requires the corner n = q, p = n + 1; label is H({p},{q})"
        return None

    def q_m_minus_2(p: int, q: int, m: int, n: int) -> str | None:
        if q == m - 2 and p != n + 1:
            return f"q = m - 2 requires p = n + 1 = {_decimal(n + 1)}; p = {p}"
        return None

    def row_p_plus_1_parity(p: int, q: int, m: int, n: int) -> str | None:
        if n == p + 1 and (q - (m - 4)) % 2 != 0:
            return f"n = p + 1 requires q == m - 4 (mod 2); q = {q}, m - 4 = {m - 4}"
        return None

    def col_q_plus_4_parity(p: int, q: int, m: int, n: int) -> str | None:
        if m == q + 4 and (p - (n - 1)) % 2 != 0:
            return f"m = q + 4 requires p == n - 1 (mod 2); p = {p}, n - 1 = {n - 1}"
        return None

    def boundary_p_window(p: int, q: int, m: int, n: int) -> str | None:
        if p == n - 1 and (q > m - 4 or (q - (m - 4)) % 2 != 0):
            return f"p = n - 1 requires q <= m - 4 with q == m - 4 (mod 2); q = {q}"
        return None

    def boundary_q_window(p: int, q: int, m: int, n: int) -> str | None:
        if q == m - 4 and (p > n - 1 or (p - (n - 1)) % 2 != 0):
            return f"q = m - 4 requires p <= n - 1 with p == n - 1 (mod 2); p = {p}"
        return None

    def aci_formats(p: int, q: int, m: int, n: int) -> str | None:
        if m != 4:
            return None
        if (p, q) == (3, 2) and n == 2:
            return None
        if (p, q) == (3, 0) and n >= 4 and n % 2 == 0:
            return None
        return f"formats (4,n) only carry H(3,2) at (4,2) and H(3,0) at even n >= 4; label is H({p},{q})"

    def type_two_formats(p: int, q: int, m: int, n: int) -> str | None:
        if n != 2:
            return None
        if (p, q) == (3, 2) and m == 4:
            return None
        if (p, q) == (1, 2) and m >= 6 and m % 2 == 0:
            return None
        return f"formats (m,2) only carry H(3,2) at (4,2) and H(1,2) at even m >= 6; label is H({p},{q})"

    return {
        "B": (
            ("B-m-min", b_m_min, f"{CITE_AV12}; {CITE_B84}"),
            ("B-gorenstein-excluded", b_gorenstein, f"{CITE_BE77}; {CITE_AV12}"),
            ("B-type-two-parity", b_type_two_parity, CITE_B84),
            ("B-m5-needs-n2", b_m5, CITE_CVW20),
        ),
        "C3": (("C3-format", c3_format, CITE_W89),),
        "T": (
            ("T-m-min", t_m_min, CITE_AV12),
            ("T-n-min", t_n_min, CITE_B84),
            ("T-aci-parity", t_aci_parity, CITE_AV12),
            ("T-n3-needs-m4", t_n3, CITE_CVW20),
        ),
        "G": (
            ("G-gorenstein-duality", g_duality, f"{CITE_BE77}; {CITE_AV12}"),
            ("G-gorenstein-parity", g_parity, CITE_BE77),
            ("G-gorenstein-min", g_min, CITE_AV12),
        ),
        "H": (
            ("H-format-min", format_min, f"{CITE_AV12}; {CITE_CVW17}"),
            ("H-n-equals-p", n_equals_p, f"{CITE_AV12}; {CITE_CVW20}"),
            ("H-m-equals-q-plus-3", m_equals_q3, f"{CITE_AV12}; {CITE_CVW20}"),
            ("H-p-exceeds-bound", p_bound, CITE_AV12),
            ("H-q-exceeds-bound", q_bound, CITE_AV12),
            ("H-m-below-p-or-q", m_lower, CITE_AV12),
            ("H-n-below-p-or-q", n_lower, CITE_AV12),
            ("H-row-p-minus-1-corner", row_p_minus_1, CITE_AV12),
            ("H-col-q-plus-2-corner", col_q_plus_2, CITE_AV12),
            ("H-q-equals-m-minus-2", q_m_minus_2, CITE_AV12),
            ("H-row-p-plus-1-parity", row_p_plus_1_parity, CITE_CVW20),
            ("H-col-q-plus-4-parity", col_q_plus_4_parity, CITE_CVW20),
            ("H-boundary-p-window", boundary_p_window, f"{CITE_CVW20}; {CITE_AV12}"),
            ("H-boundary-q-window", boundary_q_window, f"{CITE_CVW20}; {CITE_AV12}"),
            ("H-aci-format-classes", aci_formats, CITE_AV12),
            ("H-type-two-format-classes", type_two_formats, CITE_B84),
        ),
    }


_OBSTRUCTIONS = _obstructions()

# Whether a cell that breaks no rule is realized (PERMISSIBLE) rather than only
# consistent with the known necessary conditions (UNKNOWN_NECESSARY_ONLY).
# Clean H cells are realized on the two boundary strips, at the corner rows
# they force, and in the decided m = 4 / n = 2 families; G(r) only in
# Gorenstein formats.
_REALIZED_WHEN_CLEAN: dict[str, Callable[[int, int, int, int], bool]] = {
    "B": lambda a, b, m, n: True,
    "C3": lambda a, b, m, n: True,
    "T": lambda a, b, m, n: True,
    "G": lambda r, b, m, n: n == 1,
    "H": lambda p, q, m, n: p == n - 1 or q == m - 4 or n == p - 1 or q == m - 2 or m == 4 or n == 2,
}


def _unknown_tag(tag: str) -> NoReturn:
    raise InvalidLabel(f"unknown class tag {tag!r}")


def _excluded(tag: str, a: int, b: int, m: int, n: int) -> bool:
    """Whether :func:`_verdict` is NOT_PERMISSIBLE, without building a verdict.

    Reads the same obstruction table and stops at the first broken rule.  The
    planner asks it about each new rule output, without building the label
    and format, and leaves a refused one out of its graph.
    """
    for _, check, _ in _OBSTRUCTIONS.get(tag) or _unknown_tag(tag):
        if check(a, b, m, n) is not None:
            return True
    return False


def _verdict(tag: str, a: int, b: int, m: int, n: int) -> PermissibilityVerdict:
    """The verdict of the label with this tag and slots in format ``(m, n)``.

    Reads integers, like :func:`_excluded`, the yes/no form the planner asks.
    """
    violations = []
    for rule_id, check, cite in _OBSTRUCTIONS.get(tag) or _unknown_tag(tag):
        detail = check(a, b, m, n)
        if detail is not None:
            violations.append(RuleViolation(rule_id, detail, cite))
    if violations:
        return PermissibilityVerdict(Status.NOT_PERMISSIBLE, tuple(violations))
    return _PERMISSIBLE if _REALIZED_WHEN_CLEAN[tag](a, b, m, n) else _UNKNOWN


# An lru_cache because perfbench/tracer.py reads its cache_info().
_verdict_cached = lru_cache(maxsize=None)(_verdict)


def is_permissible(label: ClassLabel, fmt: Format) -> PermissibilityVerdict:
    """Verdict for ``label`` in ``fmt`` with all violated rules cited."""
    _require_types(fmt, label)
    return _verdict_cached(label.tag, label.a, label.b, fmt.m, fmt.n)


def boundary_classes(fmt: Format) -> frozenset[ClassLabel]:
    """All permissible H labels on the boundary strips of ``fmt``.

    These are the labels with ``p = n - 1`` and ``q <= m - 4``, or with
    ``q = m - 4`` and ``p <= n - 1``, whose verdict is PERMISSIBLE; the
    boundary window rules keep only the cells of matching parity.
    """
    _require_types(fmt)
    m, n = fmt.m, fmt.n
    if m < 4:
        return frozenset()
    candidates = {class_H(n - 1, q) for q in range(m - 3)} | {class_H(p, m - 4) for p in range(n)}
    return frozenset(c for c in candidates if is_permissible(c, fmt).status is Status.PERMISSIBLE)


class CellStatus(str, Enum):
    WHITE = "white"
    DOTTED = "dotted"
    BLACK = "black"


_GLYPHS = {CellStatus.WHITE: "o", CellStatus.DOTTED: ".", CellStatus.BLACK: "#"}

# The largest atlas grid drawn, (n+2)(m-1) cells: about a (100,100) format,
# against 418 cells at (20,20), the largest chart in the examples.
MAX_ATLAS_CELLS = 10_000


class AtlasGrid(NamedTuple):
    """Status of every H(p,q) cell for one format.

    Cells range over ``0 <= p <= n + 1`` and ``0 <= q <= m - 2``; ``violations``
    holds the violated rule ids for the dotted cells (empty tuples otherwise).
    """

    fmt: Format
    cells: Mapping[tuple[int, int], CellStatus]
    violations: Mapping[tuple[int, int], tuple[str, ...]]


def atlas_grid(fmt: Format) -> AtlasGrid:
    """Classify every H cell of ``fmt`` as white, dotted, or black.

    Dotted cells are NOT_PERMISSIBLE, black cells are the realizable boundary
    labels from :func:`boundary_classes`, white cells are everything else
    (including the unknown interior and the permissible corners).  A grid of
    more than :data:`MAX_ATLAS_CELLS` cells raises :class:`OutOfDomain`
    before any cell is built.
    """
    _require_types(fmt)
    if (fmt.n + 2) * (fmt.m - 1) > MAX_ATLAS_CELLS:
        raise OutOfDomain(f"the atlas of this format has (n+2)(m-1) cells, more than the limit of {MAX_ATLAS_CELLS}")
    boundary = boundary_classes(fmt)
    cells: dict[tuple[int, int], CellStatus] = {}
    violations: dict[tuple[int, int], tuple[str, ...]] = {}
    for p in range(0, fmt.n + 2):
        for q in range(0, fmt.m - 1):
            label = class_H(p, q)
            verdict = is_permissible(label, fmt)
            if verdict.status is Status.NOT_PERMISSIBLE:
                cells[(p, q)] = CellStatus.DOTTED
                violations[(p, q)] = tuple(v.rule for v in verdict.violations)
            else:
                cells[(p, q)] = CellStatus.BLACK if label in boundary else CellStatus.WHITE
                violations[(p, q)] = ()
    return AtlasGrid(fmt=fmt, cells=cells, violations=violations)


def render_atlas_text(grid: AtlasGrid) -> str:
    """Plain-text chart: rows are q from high to low, columns are p ascending."""
    m, n = grid.fmt.m, grid.fmt.n
    width = max(len(str(n + 1)), 1)
    out = io.StringIO()
    out.write(f"H(p,q) atlas for format {grid.fmt}\n")
    qw = max(len(str(m - 2)), 1)
    for q in range(m - 2, -1, -1):
        row = " ".join(f"{_GLYPHS[grid.cells[(p, q)]]:>{width}}" for p in range(0, n + 2))
        out.write(f"q={q:<{qw}} | {row}\n")
    out.write(f"{' ' * (qw + 2)} +-{'-' * ((width + 1) * (n + 2) - 1)}\n")
    labels = " ".join(f"{p:>{width}}" for p in range(0, n + 2))
    out.write(f"{' ' * (qw + 2)}  p={labels}\n")
    return out.getvalue()


def render_atlas_csv(grid: AtlasGrid) -> str:
    """CSV form: one row per cell with columns p, q, status, rules."""
    lines = ["p,q,status,rules"]
    for p in range(0, grid.fmt.n + 2):
        for q in range(0, grid.fmt.m - 1):
            rules = ";".join(grid.violations[(p, q)])
            lines.append(f"{p},{q},{grid.cells[(p, q)].value},{rules}")
    return "\n".join(lines) + "\n"
