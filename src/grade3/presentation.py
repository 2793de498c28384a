"""Multiplication tables of Tor algebras and the rank-based classifier.

A :class:`TorPresentation` stores the graded multiplication of a Tor algebra
``A = A0 + A1 + A2 + A3`` in fixed bases ``e_1..e_m`` of ``A1``,
``f_1..f_{m+n-1}`` of ``A2`` and ``g_1..g_n`` of ``A3``:

* ``ee[(i, j)]`` with ``i < j`` is the coefficient vector of ``e_i e_j`` over
  the ``f`` basis (products ``e_j e_i`` follow by graded commutativity, and
  ``e_i e_i = 0``);
* ``ef[(i, l)]`` is the coefficient vector of ``e_i f_l`` over the ``g``
  basis.

All structure constants are integers.  The classifier computes the invariants

* ``p = dim A1*A1``, ``q = dim A1*A2``,
* ``r = rank`` of the multiplication map ``A2 -> Hom(A1, A3)``,
* ``s1 = m - dim {x in A1 : x * A1 = 0}``,

as exact matrix ranks over the rationals and decides the class label
(B, C(3), T, G(r), H(p,q)) from them.  Canonical tables realize each label in
the sparsest arrangement; alternative *arrangements* realize the same label
with products placed on different basis vectors, which is what the linkage
simulations downstream need.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import Iterable, Mapping

from .errors import DimensionMismatch, DocumentError, UnknownArrangement
from .exact import sparse_rank
from .labels import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    ClassLabel,
    Format,
    class_G,
    class_H,
    make_format,
)

__all__ = [
    "TorPresentation",
    "make_presentation",
    "canonical_presentation",
    "arranged_presentation",
    "arrangement_ids",
    "ClassifierReport",
    "compute_pqrs",
    "classify",
    "validate_presentation",
    "presentation_to_document",
    "presentation_from_document",
    "PRESENTATION_VERSION",
    "MAX_DOCUMENT_CELLS",
]

PRESENTATION_VERSION = 1
# Largest table a document may describe, counted as the coefficients its dense
# vectors hold: distinct products times vector length.  The largest table the
# tests, demos and benchmark build holds about 33 k (H(82,42) at (160,160));
# at the limit the vectors take about 40 MB.
MAX_DOCUMENT_CELLS = 5_000_000

Vector = tuple[int, ...]
PairKey = tuple[int, int]


@dataclass(frozen=True)
class TorPresentation:
    """Integer multiplication table of a graded algebra in format (m, n)."""

    m: int
    n: int
    ee: Mapping[PairKey, Vector]
    ef: Mapping[PairKey, Vector]

    @property
    def dim2(self) -> int:
        """Dimension of the degree-2 component, ``m + n - 1``."""
        return self.m + self.n - 1

    @property
    def fmt(self) -> Format:
        return make_format(self.m, self.n)

    def ee_product(self, i: int, j: int) -> Vector:
        """Coefficients of ``e_i e_j`` over the f basis, any order of i, j."""
        if i == j:
            return (0,) * self.dim2
        if i < j:
            return self.ee.get((i, j), (0,) * self.dim2)
        vec = self.ee.get((j, i))
        if vec is None:
            return (0,) * self.dim2
        return tuple(-c for c in vec)

    def ef_product(self, i: int, l: int) -> Vector:
        """Coefficients of ``e_i f_l`` over the g basis."""
        return self.ef.get((i, l), (0,) * self.n)


def _clean_table(table: Mapping[PairKey, Iterable[int]] | None) -> dict[PairKey, Vector]:
    out: dict[PairKey, Vector] = {}
    if table:
        for key, vec in table.items():
            tup = tuple(int(c) for c in vec)
            if any(tup):
                out[(int(key[0]), int(key[1]))] = tup
    return out


def make_presentation(
    m: int,
    n: int,
    ee: Mapping[PairKey, Iterable[int]] | None = None,
    ef: Mapping[PairKey, Iterable[int]] | None = None,
) -> TorPresentation:
    """Build a presentation, normalizing vectors to tuples and dropping zeros.

    No structural validation happens here; use :func:`validate_presentation`
    to collect diagnostics for hand-built tables.
    """
    return TorPresentation(m=m, n=n, ee=_clean_table(ee), ef=_clean_table(ef))


def _unit(length: int, index: int, sign: int = 1) -> Vector:
    vec = [0] * length
    vec[index - 1] = sign
    return tuple(vec)


def _require(cond: bool, label: ClassLabel, fmt: Format, need: str) -> None:
    if not cond:
        raise DimensionMismatch(f"class {label} does not fit format {fmt}: needs {need}")


def canonical_presentation(label: ClassLabel, fmt: Format) -> TorPresentation:
    """The canonical multiplication table realizing ``label`` in ``fmt``.

    Raises :class:`DimensionMismatch` when the format is too small to hold
    the canonical products (for example T needs ``m >= 3``, G(r) needs
    ``m >= r``, H(p,q) needs ``m >= p+1`` whenever it has any products).
    """
    m, n, d2 = fmt.m, fmt.n, fmt.dim2
    if label.tag == "C3":
        _require((m, n) == (3, 1), label, fmt, "format exactly (3,1)")
        ee = {(1, 2): _unit(d2, 3), (2, 3): _unit(d2, 1), (1, 3): _unit(d2, 2, -1)}
        ef = {(i, i): _unit(n, 1) for i in (1, 2, 3)}
        return make_presentation(m, n, ee, ef)
    if label.tag == "T":
        _require(m >= 3 and d2 >= 3, label, fmt, "m >= 3 and m+n-1 >= 3")
        ee = {(1, 2): _unit(d2, 3), (2, 3): _unit(d2, 1), (1, 3): _unit(d2, 2, -1)}
        return make_presentation(m, n, ee, {})
    if label.tag == "B":
        _require(m >= 2 and d2 >= 3, label, fmt, "m >= 2 and m+n-1 >= 3")
        ee = {(1, 2): _unit(d2, 3)}
        ef = {(1, 1): _unit(n, 1), (2, 2): _unit(n, 1)}
        return make_presentation(m, n, ee, ef)
    if label.tag == "G":
        r = label.r
        _require(m >= r and d2 >= r, label, fmt, f"m >= {r} and m+n-1 >= {r}")
        ef = {(i, i): _unit(n, 1) for i in range(1, r + 1)}
        return make_presentation(m, n, {}, ef)
    if label.tag == "H":
        p, q = label.p, label.q
        if p or q:
            _require(m >= p + 1, label, fmt, f"m >= {p + 1}")
        _require(d2 >= p + q, label, fmt, f"m+n-1 >= {p + q}")
        _require(n >= q, label, fmt, f"n >= {q}")
        ee = {(i, p + 1): _unit(d2, i) for i in range(1, p + 1)}
        ef = {(p + 1, p + i): _unit(n, i) for i in range(1, q + 1)}
        return make_presentation(m, n, ee, ef)
    raise UnknownArrangement(f"no canonical table for label {label}")


def _arr_T_A(label: ClassLabel, fmt: Format) -> TorPresentation:
    _require(fmt.m >= 4 and fmt.dim2 >= 3, label, fmt, "m >= 4 and m+n-1 >= 3")
    d2 = fmt.dim2
    ee = {(1, 2): _unit(d2, 1), (1, 4): _unit(d2, 2), (2, 4): _unit(d2, 3)}
    return make_presentation(fmt.m, fmt.n, ee, {})


def _arr_T_B(label: ClassLabel, fmt: Format) -> TorPresentation:
    _require(fmt.m >= 4 and fmt.dim2 >= 3, label, fmt, "m >= 4 and m+n-1 >= 3")
    d2 = fmt.dim2
    ee = {(2, 3): _unit(d2, 1), (2, 4): _unit(d2, 2), (3, 4): _unit(d2, 3)}
    return make_presentation(fmt.m, fmt.n, ee, {})


def _arr_G_std(label: ClassLabel, fmt: Format) -> TorPresentation:
    return canonical_presentation(label, fmt)


def _h_bounds(label: ClassLabel, fmt: Format, m_min: int) -> None:
    p, q = label.p, label.q
    _require(fmt.m >= m_min, label, fmt, f"m >= {m_min}")
    _require(fmt.dim2 >= p + q, label, fmt, f"m+n-1 >= {p + q}")
    _require(fmt.n >= q, label, fmt, f"n >= {q}")


def _arr_H_shift(shift: int):
    """H arrangement with all products on the designated unit e_1.

    Products are ``e_1 e_{i+shift} = f_i`` for ``i <= p`` and
    ``e_1 f_{p+i} = g_i`` for ``i <= q``; larger shifts leave more leading
    basis vectors untouched, which downstream link simulations consume.
    """

    def build(label: ClassLabel, fmt: Format) -> TorPresentation:
        p, q = label.p, label.q
        _h_bounds(label, fmt, m_min=(p + shift) if p else 1)
        ee = {(1, i + shift): _unit(fmt.dim2, i) for i in range(1, p + 1)}
        ef = {(1, p + i): _unit(fmt.n, i) for i in range(1, q + 1)}
        return make_presentation(fmt.m, fmt.n, ee, ef)

    return build


def _arr_H_i(label: ClassLabel, fmt: Format) -> TorPresentation:
    p, q = label.p, label.q
    _require(p >= 1, label, fmt, "p >= 1")
    _h_bounds(label, fmt, m_min=max(2, p + 1))
    d2 = fmt.dim2
    # e_2 e_1 = f_1, hence the stored (1,2) entry carries the minus sign.
    ee = {(1, 2): _unit(d2, 1, -1)}
    for i in range(2, p + 1):
        ee[(2, i + 1)] = _unit(d2, i)
    ef = {(2, p + i): _unit(fmt.n, i) for i in range(1, q + 1)}
    return make_presentation(fmt.m, fmt.n, ee, ef)


def _arr_H_iii(label: ClassLabel, fmt: Format) -> TorPresentation:
    p, q = label.p, label.q
    _require(p >= 1, label, fmt, "p >= 1")
    _h_bounds(label, fmt, m_min=max(3, p + 2))
    d2 = fmt.dim2
    # e_3 e_1 = f_1, hence the stored (1,3) entry carries the minus sign.
    ee = {(1, 3): _unit(d2, 1, -1)}
    for i in range(2, p + 1):
        ee[(3, i + 2)] = _unit(d2, i)
    ef = {(3, p + i): _unit(fmt.n, i) for i in range(1, q + 1)}
    return make_presentation(fmt.m, fmt.n, ee, ef)


_ARRANGEMENTS = {
    "T-A": ("T", _arr_T_A),
    "T-B": ("T", _arr_T_B),
    "G-std": ("G", _arr_G_std),
    "H-i": ("H", _arr_H_i),
    "H-ii": ("H", _arr_H_shift(1)),
    "H-iii": ("H", _arr_H_iii),
    "H-iv": ("H", _arr_H_shift(2)),
    "H-v": ("H", _arr_H_shift(3)),
}


def arrangement_ids() -> tuple[str, ...]:
    """All known arrangement ids, in declaration order."""
    return tuple(_ARRANGEMENTS)


def arranged_presentation(label: ClassLabel, fmt: Format, arrangement: str) -> TorPresentation:
    """A table realizing ``label`` with products placed per ``arrangement``.

    Each arrangement id applies to one class tag (T-A/T-B to T, G-std to G,
    H-i..H-v to H); an id that exists but targets a different class raises
    :class:`UnknownArrangement`, and formats that cannot hold the products
    raise :class:`DimensionMismatch`.
    """
    entry = _ARRANGEMENTS.get(arrangement)
    if entry is None:
        raise UnknownArrangement(
            f"unknown arrangement {arrangement!r}; known: {', '.join(_ARRANGEMENTS)}"
        )
    tag, builder = entry
    if label.tag != tag:
        raise UnknownArrangement(f"arrangement {arrangement!r} applies to class {tag}, not {label}")
    return builder(label, fmt)


@dataclass(frozen=True)
class ClassifierReport:
    """Invariants of a multiplication table, plus the decided label.

    ``label`` is ``None`` either when only the invariants were requested
    (:func:`compute_pqrs`) or when no class matches (:func:`classify` on an
    unclassifiable table — the ``unclassifiable`` flag tells those apart).
    """

    p: int
    q: int
    r: int
    s1: int
    label: ClassLabel | None = None
    unclassifiable: bool = False


def compute_pqrs(a: TorPresentation) -> ClassifierReport:
    """Exact invariants (p, q, r, s1) of a valid presentation.

    All four matrices are built as sparse rows from the table's nonzero
    coefficients, so their size follows the number of products, not the
    format.
    """
    ee = {key: dict(compress(enumerate(vec, start=1), vec)) for key, vec in a.ee.items()}
    ef = {key: dict(compress(enumerate(vec, start=1), vec)) for key, vec in a.ef.items()}
    p = sparse_rank(ee.values())
    q = sparse_rank(ef.values())

    # r: one sparse row per f-basis vector, coordinates (i, t) of Hom(A1, A3).
    delta_rows: dict[int, dict[tuple[int, int], int]] = {}
    for (i, l), coeffs in ef.items():
        row = delta_rows.setdefault(l, {})
        for t, coeff in coeffs.items():
            row[(i, t)] = row.get((i, t), 0) + coeff
    r = sparse_rank(delta_rows.values())

    # s1: one sparse row per e-basis vector, coordinates (j, c) of Hom(A1, A2).
    mult_rows: dict[int, dict[tuple[int, int], int]] = {}
    for (i, j), coeffs in ee.items():
        row_i = mult_rows.setdefault(i, {})
        row_j = mult_rows.setdefault(j, {})
        for c, coeff in coeffs.items():
            row_i[(j, c)] = row_i.get((j, c), 0) + coeff
            row_j[(i, c)] = row_j.get((i, c), 0) - coeff
    s1 = sparse_rank(mult_rows.values())

    return ClassifierReport(p=p, q=q, r=r, s1=s1)


def classify(a: TorPresentation) -> ClassifierReport:
    """Decide the class label of a presentation from its exact invariants.

    The decision chain tries the rigid classes first — C(3) (which only
    exists in format (3,1)), then T versus H(3,0), which share (p,q,r) =
    (3,0,0) and are separated by ``s1`` (3 versus 4), then B and G — and
    falls back to H(p,q) whenever ``r = q``.  Anything else is flagged
    unclassifiable.
    """
    rep = compute_pqrs(a)
    p, q, r, s1 = rep.p, rep.q, rep.r, rep.s1
    label: ClassLabel | None = None
    if (p, q, r) == (3, 1, 3) and (a.m, a.n) == (3, 1):
        label = CLASS_C3
    elif (p, q, r) == (3, 0, 0) and s1 == 3:
        label = CLASS_T
    elif (p, q, r) == (3, 0, 0) and s1 == 4:
        label = class_H(3, 0)
    elif (p, q, r) == (1, 1, 2):
        label = CLASS_B
    elif p == 0 and q == 1 and r >= 2:
        label = class_G(r)
    elif r == q:
        label = class_H(p, q)
    if label is None:
        return replace(rep, unclassifiable=True)
    return replace(rep, label=label)


def validate_presentation(a: TorPresentation) -> tuple[str, ...]:
    """Structural diagnostics for a hand-built table; empty means valid."""
    diags: list[str] = []
    if not isinstance(a.m, int) or a.m < 1:
        diags.append(f"m must be a positive integer, got {a.m!r}")
    if not isinstance(a.n, int) or a.n < 1:
        diags.append(f"n must be a positive integer, got {a.n!r}")
    if diags:
        return tuple(diags)
    d2 = a.dim2
    for (i, j), vec in sorted(a.ee.items()):
        if not (1 <= i < j <= a.m):
            diags.append(f"ee key ({i},{j}) out of range: need 1 <= i < j <= m = {a.m}")
        if len(vec) != d2:
            diags.append(f"ee[({i},{j})] has {len(vec)} entries; the f basis has {d2}")
        if not all(isinstance(c, int) for c in vec):
            diags.append(f"ee[({i},{j})] has non-integer entries")
    for (i, l), vec in sorted(a.ef.items()):
        if not (1 <= i <= a.m):
            diags.append(f"ef key ({i},{l}) out of range: need 1 <= i <= m = {a.m}")
        if not (1 <= l <= d2):
            diags.append(f"ef key ({i},{l}) out of range: need 1 <= l <= m+n-1 = {d2}")
        if len(vec) != a.n:
            diags.append(f"ef[({i},{l})] has {len(vec)} entries; the g basis has {a.n}")
        if not all(isinstance(c, int) for c in vec):
            diags.append(f"ef[({i},{l})] has non-integer entries")
    return tuple(diags)


def presentation_to_document(a: TorPresentation) -> dict:
    """Serialize to the versioned JSON document form.

    Entries are emitted as sorted quadruples ``[i, j, l, coeff]`` (product
    ``e_i e_j``, f-coordinate ``l``) and ``[i, l, t, coeff]`` (product
    ``e_i f_l``, g-coordinate ``t``), one per nonzero coefficient, so equal
    presentations serialize identically and round-trips are bit-exact.
    """
    ee_rows = []
    for (i, j), vec in a.ee.items():
        for l, coeff in enumerate(vec, start=1):
            if coeff:
                ee_rows.append([i, j, l, coeff])
    ef_rows = []
    for (i, l), vec in a.ef.items():
        for t, coeff in enumerate(vec, start=1):
            if coeff:
                ef_rows.append([i, l, t, coeff])
    return {
        "version": PRESENTATION_VERSION,
        "m": a.m,
        "n": a.n,
        "ee": sorted(ee_rows),
        "ef": sorted(ef_rows),
    }


def _doc_int(value: object, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(f"{what} must be an integer, got {value!r}")
    return value


def presentation_from_document(doc: object) -> TorPresentation:
    """Parse the document form; rejects anything outside the schema.

    Unknown fields, wrong versions, non-integer entries, and out-of-range
    indices all raise :class:`DocumentError`, and so does a table whose dense
    vectors would hold more than :data:`MAX_DOCUMENT_CELLS` coefficients;
    that check runs before any vector is allocated.  Repeated quadruples for
    the same coordinate accumulate.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"presentation document must be an object, got {type(doc).__name__}")
    expected = {"version", "m", "n", "ee", "ef"}
    if set(doc) != expected:
        unknown = sorted(set(doc) - expected)
        missing = sorted(expected - set(doc))
        parts = []
        if unknown:
            parts.append(f"unknown fields {unknown}")
        if missing:
            parts.append(f"missing fields {missing}")
        raise DocumentError("presentation document has " + " and ".join(parts))
    if doc["version"] != PRESENTATION_VERSION:
        raise DocumentError(f"unsupported presentation version {doc['version']!r}")
    m = _doc_int(doc["m"], "m")
    n = _doc_int(doc["n"], "n")
    if m < 1 or n < 1:
        raise DocumentError(f"format coordinates must be positive, got ({m},{n})")
    d2 = m + n - 1
    for field in ("ee", "ef"):
        if not isinstance(doc[field], list):
            raise DocumentError(f"{field} must be a list of quadruples")
    ee_entries = []
    for row in doc["ee"]:
        if not isinstance(row, list) or len(row) != 4:
            raise DocumentError(f"ee entry {row!r} is not a quadruple")
        i, j, l, coeff = (_doc_int(x, "ee entry") for x in row)
        if not (1 <= i < j <= m):
            raise DocumentError(f"ee entry ({i},{j}) out of range: need 1 <= i < j <= m = {m}")
        if not (1 <= l <= d2):
            raise DocumentError(f"ee entry f-index {l} out of range: need 1 <= l <= {d2}")
        ee_entries.append(((i, j), l, coeff))
    ef_entries = []
    for row in doc["ef"]:
        if not isinstance(row, list) or len(row) != 4:
            raise DocumentError(f"ef entry {row!r} is not a quadruple")
        i, l, t, coeff = (_doc_int(x, "ef entry") for x in row)
        if not (1 <= i <= m):
            raise DocumentError(f"ef entry e-index {i} out of range: need 1 <= i <= m = {m}")
        if not (1 <= l <= d2):
            raise DocumentError(f"ef entry f-index {l} out of range: need 1 <= l <= {d2}")
        if not (1 <= t <= n):
            raise DocumentError(f"ef entry g-index {t} out of range: need 1 <= t <= n = {n}")
        ef_entries.append(((i, l), t, coeff))
    cells = len({key for key, _, _ in ee_entries}) * d2 + len({key for key, _, _ in ef_entries}) * n
    if cells > MAX_DOCUMENT_CELLS:
        raise DocumentError(
            f"table would hold {cells} coefficients as dense vectors; the limit is {MAX_DOCUMENT_CELLS}"
        )
    return make_presentation(m, n, _dense_vectors(ee_entries, d2), _dense_vectors(ef_entries, n))


def _dense_vectors(entries: list[tuple[PairKey, int, int]], length: int) -> dict[PairKey, list[int]]:
    """Accumulate (key, 1-based coordinate, coefficient) entries into vectors."""
    vectors: dict[PairKey, list[int]] = {}
    for key, index, coeff in entries:
        vec = vectors.get(key)
        if vec is None:
            vec = vectors[key] = [0] * length
        vec[index - 1] += coeff
    return vectors
