"""Which (class, format) pairs can occur: verdicts, boundaries, atlases.

For a class label ``c`` and format ``(m, n)``, :func:`is_permissible` returns
one of three verdicts:

* ``PERMISSIBLE`` — a perfect ideal with this class and format exists,
* ``NOT_PERMISSIBLE`` — at least one published obstruction rules it out
  (every violated rule is reported with a citation),
* ``UNKNOWN_NECESSARY_ONLY`` — all known necessary conditions hold but no
  construction is known.

Every verdict comes from one function of obstructions per class tag, which
states each rule once as an ``if`` yielding its violation, and one predicate
per class that says whether a cell breaking no rule is realized.  Classes B,
C(3), T, and G-in-Gorenstein-formats are fully decided.  For class H the
obstructions combine format bounds, corner identities, and parity windows;
the cells that remain clean are provably realizable exactly on the two
boundary strips ``p = n - 1`` and ``q = m - 4`` (plus corners and the
``m = 4`` / ``n = 2`` families), which is what :func:`boundary_classes`
enumerates and the atlas renders.
"""

from __future__ import annotations

import io
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterator, Mapping, NamedTuple, NoReturn

from .errors import InvalidLabel, OutOfDomain, _decimal, _require
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


# --- the obstruction rules ---------------------------------------------------

# One generator per class tag.  Each reads the label's two parameter slots and
# the format, ``(a, b, m, n)`` with ``a = r`` for G, ``(a, b) = (p, q)`` for H
# and both zero otherwise, and yields every rule the label breaks, in a fixed
# order: one ``if`` per rule, stating its id, condition, detail and citation.
_Rules = Callable[[int, int, int, int], Iterator[RuleViolation]]


def _b_rules(a: int, b: int, m: int, n: int) -> Iterator[RuleViolation]:
    if m < 5:
        yield RuleViolation("B-m-min", f"class B needs m >= 5; m = {m}", f"{CITE_AV12}; {CITE_B84}")
    if n < 2:
        detail = "Gorenstein formats (n = 1) carry only classes C(3) and G(r)"
        yield RuleViolation("B-gorenstein-excluded", detail, f"{CITE_BE77}; {CITE_AV12}")
    if n == 2 and m % 2 == 0:
        yield RuleViolation("B-type-two-parity", f"formats (m,2) carry class B only for odd m; m = {m}", CITE_B84)
    if m == 5 and n >= 3:
        yield RuleViolation("B-m5-needs-n2", f"class B at m = 5 occurs only for n = 2; n = {n}", CITE_CVW20)


def _c3_rules(a: int, b: int, m: int, n: int) -> Iterator[RuleViolation]:
    if (m, n) != (3, 1):
        detail = f"class C(3) is the complete intersection and occurs only in format (3,1); format is ({m},{n})"
        yield RuleViolation("C3-format", detail, CITE_W89)


def _t_rules(a: int, b: int, m: int, n: int) -> Iterator[RuleViolation]:
    if m < 4:
        yield RuleViolation("T-m-min", f"class T needs m >= 4; m = {m}", CITE_AV12)
    if n < 3:
        yield RuleViolation("T-n-min", f"class T needs n >= 3; n = {n}", CITE_B84)
    if m == 4 and n >= 3 and n % 2 == 0:
        yield RuleViolation("T-aci-parity", f"formats (4,n) carry class T only for odd n; n = {n}", CITE_AV12)
    if m >= 5 and n == 3:
        yield RuleViolation("T-n3-needs-m4", f"class T at n = 3 occurs only for m = 4; m = {m}", CITE_CVW20)


# Outside Gorenstein formats (n = 1) no obstruction to G(r) is known.
def _g_rules(r: int, b: int, m: int, n: int) -> Iterator[RuleViolation]:
    if n == 1 and m != r:
        detail = f"Gorenstein formats force r = m by Poincare duality; r = {r}, m = {m}"
        yield RuleViolation("G-gorenstein-duality", detail, f"{CITE_BE77}; {CITE_AV12}")
    if n == 1 and r % 2 == 0:
        detail = f"Gorenstein ideals of grade 3 have odd minimal generation; r = {r}"
        yield RuleViolation("G-gorenstein-parity", detail, CITE_BE77)
    if n == 1 and r < 5:
        detail = f"format ({m},1) with m < 5 carries only class C(3); r = {r}"
        yield RuleViolation("G-gorenstein-min", detail, CITE_AV12)


# Class H: format bounds, corner identities, parity windows, families.
def _h_rules(p: int, q: int, m: int, n: int) -> Iterator[RuleViolation]:
    if m < 4 or n < 2:
        detail = f"class H needs m >= 4 and n >= 2; format is ({m},{n})"
        yield RuleViolation("H-format-min", detail, f"{CITE_AV12}; {CITE_CVW17}")
    if n == p:
        yield RuleViolation("H-n-equals-p", f"n = p = {p} is excluded", f"{CITE_AV12}; {CITE_CVW20}")
    if m == q + 3:
        yield RuleViolation("H-m-equals-q-plus-3", f"m = q + 3 = {m} is excluded", f"{CITE_AV12}; {CITE_CVW20}")
    if p > max(m - 1, n + 1):
        yield RuleViolation("H-p-exceeds-bound", f"p = {p} exceeds max(m-1, n+1) = {max(m - 1, n + 1)}", CITE_AV12)
    if q > max(m - 2, n):
        yield RuleViolation("H-q-exceeds-bound", f"q = {q} exceeds max(m-2, n) = {max(m - 2, n)}", CITE_AV12)
    if m < p + 1 or m < q + 2:
        detail = f"m = {m} is below max(p+1, q+2) = {_decimal(max(p + 1, q + 2))}"
        yield RuleViolation("H-m-below-p-or-q", detail, CITE_AV12)
    if n < p - 1 or n < q:
        yield RuleViolation("H-n-below-p-or-q", f"n = {n} is below max(p-1, q) = {max(p - 1, q)}", CITE_AV12)
    if n == p - 1 and not (m == p + 1 and m == q + 2):
        detail = f"n = p - 1 requires the corner m = p + 1 = q + 2; format is ({m},{n})"
        yield RuleViolation("H-row-p-minus-1-corner", detail, CITE_AV12)
    if m == q + 2 and not (n == q and p == n + 1):
        detail = f"m = q + 2 requires the corner n = q, p = n + 1; label is H({p},{q})"
        yield RuleViolation("H-col-q-plus-2-corner", detail, CITE_AV12)
    if q == m - 2 and p != n + 1:
        detail = f"q = m - 2 requires p = n + 1 = {_decimal(n + 1)}; p = {p}"
        yield RuleViolation("H-q-equals-m-minus-2", detail, CITE_AV12)
    if n == p + 1 and (q - (m - 4)) % 2 != 0:
        detail = f"n = p + 1 requires q == m - 4 (mod 2); q = {q}, m - 4 = {m - 4}"
        yield RuleViolation("H-row-p-plus-1-parity", detail, CITE_CVW20)
    if m == q + 4 and (p - (n - 1)) % 2 != 0:
        detail = f"m = q + 4 requires p == n - 1 (mod 2); p = {p}, n - 1 = {n - 1}"
        yield RuleViolation("H-col-q-plus-4-parity", detail, CITE_CVW20)
    if p == n - 1 and (q > m - 4 or (q - (m - 4)) % 2 != 0):
        detail = f"p = n - 1 requires q <= m - 4 with q == m - 4 (mod 2); q = {q}"
        yield RuleViolation("H-boundary-p-window", detail, f"{CITE_CVW20}; {CITE_AV12}")
    if q == m - 4 and (p > n - 1 or (p - (n - 1)) % 2 != 0):
        detail = f"q = m - 4 requires p <= n - 1 with p == n - 1 (mod 2); p = {p}"
        yield RuleViolation("H-boundary-q-window", detail, f"{CITE_CVW20}; {CITE_AV12}")
    if m == 4 and not (((p, q) == (3, 2) and n == 2) or ((p, q) == (3, 0) and n >= 4 and n % 2 == 0)):
        detail = f"formats (4,n) only carry H(3,2) at (4,2) and H(3,0) at even n >= 4; label is H({p},{q})"
        yield RuleViolation("H-aci-format-classes", detail, CITE_AV12)
    if n == 2 and not (((p, q) == (3, 2) and m == 4) or ((p, q) == (1, 2) and m >= 6 and m % 2 == 0)):
        detail = f"formats (m,2) only carry H(3,2) at (4,2) and H(1,2) at even m >= 6; label is H({p},{q})"
        yield RuleViolation("H-type-two-format-classes", detail, CITE_B84)


_OBSTRUCTIONS: dict[str, _Rules] = {"B": _b_rules, "C3": _c3_rules, "T": _t_rules, "G": _g_rules, "H": _h_rules}

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

    Runs the same rules of the tag and stops at the first one broken.  The
    planner asks it about each new rule output within the bound it expands
    for, without building the label and format, and does not record a
    refused one.
    """
    for _ in (_OBSTRUCTIONS.get(tag) or _unknown_tag(tag))(a, b, m, n):
        return True
    return False


def _permissible(tag: str, a: int, b: int, m: int, n: int) -> bool:
    """Whether :func:`_verdict` is PERMISSIBLE, without building a verdict.

    The target listings, :func:`boundary_classes` and the planner's sweep,
    ask it of every candidate cell, so a cell they drop builds no violation.
    """
    return not _excluded(tag, a, b, m, n) and _REALIZED_WHEN_CLEAN[tag](a, b, m, n)


def _verdict(tag: str, a: int, b: int, m: int, n: int) -> PermissibilityVerdict:
    """The verdict of the label with this tag and slots in format ``(m, n)``.

    Collects every rule the tag's function yields; reads integers, like
    :func:`_excluded`, the yes/no form the planner asks.
    """
    violations = tuple((_OBSTRUCTIONS.get(tag) or _unknown_tag(tag))(a, b, m, n))
    if violations:
        return PermissibilityVerdict(Status.NOT_PERMISSIBLE, violations)
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
    boundary window rules keep only the cells of matching parity.  Each
    candidate cell is decided by the yes/no form of the verdict, so the
    dropped cells build no verdict and no label.
    """
    _require_types(fmt)
    m, n = fmt.m, fmt.n
    if m < 4:
        return frozenset()
    cells = {(n - 1, q) for q in range(m - 3)} | {(p, m - 4) for p in range(n)}
    return frozenset(class_H(p, q) for p, q in cells if _permissible("H", p, q, m, n))


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
    cell_count = (fmt.n + 2) * (fmt.m - 1)
    if cell_count > MAX_ATLAS_CELLS:
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
    """Plain-text chart: rows are q from high to low, columns are p ascending; refuses a non-grid."""
    _require(grid, AtlasGrid, OutOfDomain)
    try:
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
    except (AttributeError, TypeError, LookupError) as exc:
        raise OutOfDomain._malformed(grid, exc) from None


def render_atlas_csv(grid: AtlasGrid) -> str:
    """CSV form: one row per cell with columns p, q, status, rules; refuses a non-grid."""
    _require(grid, AtlasGrid, OutOfDomain)
    lines = ["p,q,status,rules"]
    try:
        for p in range(0, grid.fmt.n + 2):
            for q in range(0, grid.fmt.m - 1):
                rules = ";".join(grid.violations[(p, q)])
                lines.append(f"{p},{q},{grid.cells[(p, q)].value},{rules}")
    except (AttributeError, TypeError, LookupError) as exc:
        raise OutOfDomain._malformed(grid, exc) from None
    return "\n".join(lines) + "\n"
