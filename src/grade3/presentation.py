"""Multiplication tables of Tor algebras and the rank-based classifier.

A :class:`TorPresentation` stores the graded multiplication of a Tor algebra
``A = A0 + A1 + A2 + A3`` in fixed bases ``e_1..e_m`` of ``A1``,
``f_1..f_{m+n-1}`` of ``A2`` and ``g_1..g_n`` of ``A3``:

* ``ee[(i, j)]`` with ``i < j`` holds the coefficients of ``e_i e_j`` over
  the ``f`` basis (products ``e_j e_i`` follow by graded commutativity, and
  ``e_i e_i = 0``);
* ``ef[(i, l)]`` holds the coefficients of ``e_i f_l`` over the ``g`` basis.

Every product is stored sparsely, as a coordinate map ``{k: c}`` from a
1-based basis index to its nonzero integer coefficient; zero coefficients and
zero products are never stored.  Tables have a few nonzeros per product
whatever the format, so storage, validation, classification and the mapping
cone all scale with the number of nonzeros, not with ``m + n``.  The
accessors :meth:`TorPresentation.ee_product` and
:meth:`TorPresentation.ef_product` expand one product into a dense tuple.

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

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import DimensionMismatch, DocumentError, UnknownArrangement, document_fields
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
# Largest table a document may describe, counted as distinct products times
# the length of their basis (m+n-1 for ee, n for ef).  Products are stored
# sparsely, so this sizes no stored vector; it bounds the work downstream
# that grows with m+n per table, such as the mapping cone's basis lists and
# its symbolic slots.  The largest table the tests, demos and
# benchmark build counts about 33 k (H(82,42) at (160,160)).
MAX_DOCUMENT_CELLS = 5_000_000

Coords = dict[int, int]
PairKey = tuple[int, int]


def _dense(coords: Mapping[int, int] | None, length: int, sign: int = 1) -> tuple[int, ...]:
    vec = [0] * length
    for k, c in (coords or {}).items():
        if not 1 <= k <= length:
            raise DimensionMismatch(f"coordinate {k} is outside a basis of {length} vectors")
        vec[k - 1] = sign * c
    return tuple(vec)


@dataclass(frozen=True)
class TorPresentation:
    """Integer multiplication table of a graded algebra in format (m, n).

    ``ee`` and ``ef`` map a product's key to its coordinate map (1-based
    basis index -> nonzero coefficient); products that vanish are absent.
    Use :func:`make_presentation` to build one from caller-supplied data.
    """

    m: int
    n: int
    ee: Mapping[PairKey, Coords]
    ef: Mapping[PairKey, Coords]

    @property
    def dim2(self) -> int:
        """Dimension of the degree-2 component, ``m + n - 1``."""
        return self.m + self.n - 1

    @property
    def fmt(self) -> Format:
        return make_format(self.m, self.n)

    def ee_product(self, i: int, j: int) -> tuple[int, ...]:
        """Dense coefficients of ``e_i e_j`` over the f basis, any order of i, j."""
        if i == j:
            return (0,) * self.dim2
        if i < j:
            return _dense(self.ee.get((i, j)), self.dim2)
        return _dense(self.ee.get((j, i)), self.dim2, -1)

    def ef_product(self, i: int, l: int) -> tuple[int, ...]:
        """Dense coefficients of ``e_i f_l`` over the g basis."""
        return _dense(self.ef.get((i, l)), self.n)


def _clean_table(
    table: Mapping[PairKey, Mapping[int, int] | Iterable[int]] | None, field: str, m: int, n: int
) -> dict[PairKey, Coords]:
    out: dict[PairKey, Coords] = {}
    for key, vec in (table or {}).items():
        if isinstance(vec, Mapping):
            items = vec.items()
        else:
            vec = tuple(vec)
            basis, length = ("f", m + n - 1) if field == "ee" else ("g", n)
            if len(vec) != length:
                raise DimensionMismatch(
                    f"{field}[({key[0]},{key[1]})] has {len(vec)} entries; the {basis} basis has {length}"
                )
            items = enumerate(vec, start=1)
        coords = {int(k): int(c) for k, c in items}
        coords = {k: c for k, c in coords.items() if c}
        if coords:
            out[(int(key[0]), int(key[1]))] = coords
    return out


def make_presentation(
    m: int,
    n: int,
    ee: Mapping[PairKey, Mapping[int, int] | Iterable[int]] | None = None,
    ef: Mapping[PairKey, Mapping[int, int] | Iterable[int]] | None = None,
) -> TorPresentation:
    """Build a presentation from caller-supplied products.

    Each product is either a dense sequence over its basis (``m+n-1``
    entries for ``ee``, ``n`` for ``ef``) or a coordinate map ``{k: c}``
    with 1-based ``k``.  Both are normalized with ``int()`` into coordinate
    maps, and zero coefficients and zero products are dropped.  A dense
    sequence of the wrong length raises :class:`DimensionMismatch`; no other
    structural validation happens here (use :func:`validate_presentation` to
    collect diagnostics for hand-built tables).
    """
    return TorPresentation(
        m=m,
        n=n,
        ee=_clean_table(ee, "ee", m, n),
        ef=_clean_table(ef, "ef", m, n),
    )


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
        ee = {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}
        ef = {(i, i): {1: 1} for i in (1, 2, 3)}
        return TorPresentation(m, n, ee, ef)
    if label.tag == "T":
        _require(m >= 3 and d2 >= 3, label, fmt, "m >= 3 and m+n-1 >= 3")
        ee = {(1, 2): {3: 1}, (2, 3): {1: 1}, (1, 3): {2: -1}}
        return TorPresentation(m, n, ee, {})
    if label.tag == "B":
        _require(m >= 2 and d2 >= 3, label, fmt, "m >= 2 and m+n-1 >= 3")
        return TorPresentation(m, n, {(1, 2): {3: 1}}, {(1, 1): {1: 1}, (2, 2): {1: 1}})
    if label.tag == "G":
        r = label.r
        _require(m >= r and d2 >= r, label, fmt, f"m >= {r} and m+n-1 >= {r}")
        return TorPresentation(m, n, {}, {(i, i): {1: 1} for i in range(1, r + 1)})
    if label.tag == "H":
        p, q = label.p, label.q
        if p or q:
            _require(m >= p + 1, label, fmt, f"m >= {p + 1}")
        _require(d2 >= p + q, label, fmt, f"m+n-1 >= {p + q}")
        _require(n >= q, label, fmt, f"n >= {q}")
        ee = {(i, p + 1): {i: 1} for i in range(1, p + 1)}
        ef = {(p + 1, p + i): {i: 1} for i in range(1, q + 1)}
        return TorPresentation(m, n, ee, ef)
    raise UnknownArrangement(f"no canonical table for label {label}")


def _arr_T_A(label: ClassLabel, fmt: Format) -> TorPresentation:
    _require(fmt.m >= 4 and fmt.dim2 >= 3, label, fmt, "m >= 4 and m+n-1 >= 3")
    return TorPresentation(fmt.m, fmt.n, {(1, 2): {1: 1}, (1, 4): {2: 1}, (2, 4): {3: 1}}, {})


def _arr_T_B(label: ClassLabel, fmt: Format) -> TorPresentation:
    _require(fmt.m >= 4 and fmt.dim2 >= 3, label, fmt, "m >= 4 and m+n-1 >= 3")
    return TorPresentation(fmt.m, fmt.n, {(2, 3): {1: 1}, (2, 4): {2: 1}, (3, 4): {3: 1}}, {})


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
        ee = {(1, i + shift): {i: 1} for i in range(1, p + 1)}
        ef = {(1, p + i): {i: 1} for i in range(1, q + 1)}
        return TorPresentation(fmt.m, fmt.n, ee, ef)

    return build


def _arr_H_i(label: ClassLabel, fmt: Format) -> TorPresentation:
    p, q = label.p, label.q
    _require(p >= 1, label, fmt, "p >= 1")
    _h_bounds(label, fmt, m_min=max(2, p + 1))
    # e_2 e_1 = f_1, hence the stored (1,2) entry carries the minus sign.
    ee = {(1, 2): {1: -1}}
    for i in range(2, p + 1):
        ee[(2, i + 1)] = {i: 1}
    ef = {(2, p + i): {i: 1} for i in range(1, q + 1)}
    return TorPresentation(fmt.m, fmt.n, ee, ef)


def _arr_H_iii(label: ClassLabel, fmt: Format) -> TorPresentation:
    p, q = label.p, label.q
    _require(p >= 1, label, fmt, "p >= 1")
    _h_bounds(label, fmt, m_min=max(3, p + 2))
    # e_3 e_1 = f_1, hence the stored (1,3) entry carries the minus sign.
    ee = {(1, 3): {1: -1}}
    for i in range(2, p + 1):
        ee[(3, i + 2)] = {i: 1}
    ef = {(3, p + i): {i: 1} for i in range(1, q + 1)}
    return TorPresentation(fmt.m, fmt.n, ee, ef)


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

    The stored coordinate maps are the rows of p and q as they are, and the
    rows of r and s1 are built from the same nonzeros, so the size of all
    four matrices follows the number of products, not the format.
    """
    p = sparse_rank(a.ee.values())
    q = sparse_rank(a.ef.values())

    # r: one sparse row per f-basis vector, coordinates (i, t) of Hom(A1, A3).
    delta_rows: dict[int, dict[tuple[int, int], int]] = {}
    for (i, l), coeffs in a.ef.items():
        row = delta_rows.setdefault(l, {})
        for t, coeff in coeffs.items():
            row[(i, t)] = row.get((i, t), 0) + coeff
    r = sparse_rank(delta_rows.values())

    # s1: one sparse row per e-basis vector, coordinates (j, c) of Hom(A1, A2).
    mult_rows: dict[int, dict[tuple[int, int], int]] = {}
    for (i, j), coeffs in a.ee.items():
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
    return ClassifierReport(p=p, q=q, r=r, s1=s1, label=label, unclassifiable=label is None)


def _coordinate_problems(where: str, coords: Mapping[int, int], bound: str, size: int) -> list[str]:
    for k, c in coords.items():  # one pass for the usual, valid product
        if not (isinstance(k, int) and isinstance(c, int) and 1 <= k <= size):
            break
    else:
        return []
    if not all(isinstance(k, int) and isinstance(c, int) for k, c in coords.items()):
        return [f"{where} has non-integer entries"]
    return [
        f"{where} coordinate {k} out of range: need 1 <= k <= {bound} = {size}"
        for k in sorted(coords)
        if not 1 <= k <= size
    ]


def validate_presentation(a: TorPresentation) -> tuple[str, ...]:
    """Structural diagnostics for a hand-built table; empty means valid.

    Checks the range of every product key, and the range and integrality of
    every stored coordinate and coefficient.
    """
    diags: list[str] = []
    if not isinstance(a.m, int) or a.m < 1:
        diags.append(f"m must be a positive integer, got {a.m!r}")
    if not isinstance(a.n, int) or a.n < 1:
        diags.append(f"n must be a positive integer, got {a.n!r}")
    if diags:
        return tuple(diags)
    d2 = a.dim2
    for (i, j), coords in sorted(a.ee.items()):
        if not (1 <= i < j <= a.m):
            diags.append(f"ee key ({i},{j}) out of range: need 1 <= i < j <= m = {a.m}")
        diags += _coordinate_problems(f"ee[({i},{j})]", coords, "m+n-1", d2)
    for (i, l), coords in sorted(a.ef.items()):
        if not (1 <= i <= a.m):
            diags.append(f"ef key ({i},{l}) out of range: need 1 <= i <= m = {a.m}")
        if not (1 <= l <= d2):
            diags.append(f"ef key ({i},{l}) out of range: need 1 <= l <= m+n-1 = {d2}")
        diags += _coordinate_problems(f"ef[({i},{l})]", coords, "n", a.n)
    return tuple(diags)


def presentation_to_document(a: TorPresentation) -> dict:
    """Serialize to the versioned JSON document form.

    Entries are emitted as sorted quadruples ``[i, j, l, coeff]`` (product
    ``e_i e_j``, f-coordinate ``l``) and ``[i, l, t, coeff]`` (product
    ``e_i f_l``, g-coordinate ``t``), one per nonzero coefficient, so equal
    presentations serialize identically and round-trips are bit-exact.
    """
    return {
        "version": PRESENTATION_VERSION,
        "m": a.m,
        "n": a.n,
        "ee": sorted([i, j, l, c] for (i, j), coords in a.ee.items() for l, c in coords.items()),
        "ef": sorted([i, l, t, c] for (i, l), coords in a.ef.items() for t, c in coords.items()),
    }


def presentation_from_document(doc: object) -> TorPresentation:
    """Parse the document form; rejects anything outside the schema.

    Unknown fields, wrong versions, non-integer entries, and every problem
    :func:`validate_presentation` reports (such as out-of-range indices)
    raise :class:`DocumentError`, and so does a table of more than
    :data:`MAX_DOCUMENT_CELLS` cells (distinct products times basis
    length); those checks run on the quadruples' coordinate maps, before
    anything is built.  Repeated quadruples for the same coordinate
    accumulate, and coefficients that sum to zero are dropped.
    """
    version, m, n, ee, ef = document_fields(
        doc, "presentation document", (("version", int), ("m", int), ("n", int), ("ee", list), ("ef", list))
    )
    if version != PRESENTATION_VERSION:
        raise DocumentError(f"unsupported presentation version {version!r}")
    # Zero sums are still stored here, so their coordinates are range-checked too.
    raw = TorPresentation(m, n, _coordinate_maps(ee, "ee"), _coordinate_maps(ef, "ef"))
    diags = validate_presentation(raw)
    if diags:
        raise DocumentError(diags[0])
    cells = len(raw.ee) * raw.dim2 + len(raw.ef) * n
    if cells > MAX_DOCUMENT_CELLS:
        raise DocumentError(
            f"table would hold {cells} coefficients as dense vectors; the limit is {MAX_DOCUMENT_CELLS}"
        )
    return make_presentation(m, n, raw.ee, raw.ef)


def _coordinate_maps(rows: list, field: str) -> dict[PairKey, Coords]:
    """Accumulate ``[a, b, k, c]`` quadruples into coordinate maps ``{(a, b): {k: c}}``."""
    maps: dict[PairKey, Coords] = {}
    for row in rows:
        a, b, k, c = row if isinstance(row, list) and len(row) == 4 else (None,) * 4
        if not type(a) is type(b) is type(k) is type(c) is int:  # exactly int, so no bool
            raise DocumentError(f"{field} entry {row!r} is not a quadruple of integers")
        coords = maps.setdefault((a, b), {})
        coords[k] = coords.get(k, 0) + c
    return maps
