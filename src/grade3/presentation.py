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

A document is read in one pass: its quadruples are checked and summed into
coordinate maps, which :func:`validate_presentation` range-checks without
sorting and the table then holds, less the zero sums.

All structure constants are integers.  The classifier computes the invariants

* ``p = dim A1*A1``, ``q = dim A1*A2``,
* ``r = rank`` of the multiplication map ``A2 -> Hom(A1, A3)``,
* ``s1 = m - dim {x in A1 : x * A1 = 0}``,

as exact matrix ranks over the rationals and decides the class label
(B, C(3), T, G(r), H(p,q)) from them.  Canonical tables realize each label in
the sparsest arrangement; alternative *arrangements* realize the same label
with products placed on different basis vectors, which is what the linkage
simulations downstream need.  The T- and H-shaped tables follow two patterns,
each stated once: the *T pattern* places three products ``e_i e_j = c f_k``,
``k = 1, 2, 3``, and the *H pattern* places every product on one pivot
``e_u``.  Canonical C(3), T and H(p,q) and all seven T and H arrangements are
instances of them, and each reads the format it needs off its pattern.

Every builder reads the format only through lower bounds on ``m``, ``n`` and
``m+n-1``, and places its products without it.  (Its size refusal counts at
least one cell per product, so it refuses a label at every format.)  So a
builder that accepts a format accepts every format at least as large in both
``m`` and ``n``, with the same products; the one exception is C(3), which
must be exactly (3,1).  The theorem replay of :mod:`grade3.cone` shares a
witness table's products across formats on this.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import partial
from typing import NamedTuple

from .errors import DimensionMismatch, DocumentError, UnknownArrangement, _decimal, _document_fields, _require, _shown
from .exact import sparse_rank
from .labels import (
    CLASS_B,
    CLASS_C3,
    CLASS_T,
    ClassLabel,
    Format,
    _require_types,
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
# its symbolic slots.  The largest tables built elsewhere count 239 800
# (H(200,200) at (400,400), in the tests), 112 350 (H(150,75) at (300,300),
# in CI) and about 33 k (H(82,42) at (160,160), in the benchmark).
MAX_DOCUMENT_CELLS = 5_000_000

Coords = dict[int, int]
PairKey = tuple[int, int]


def _dense(coords: Mapping[int, int] | None, length: int, sign: int = 1) -> tuple[int, ...]:
    vec = [0] * length
    for k, c in (coords or {}).items():
        if not 1 <= k <= length:
            raise DimensionMismatch(f"coordinate {_decimal(k)} is outside a basis of {length} vectors")
        vec[k - 1] = sign * c
    return tuple(vec)


def _basis_index(kind: str, index: int, size: int) -> None:
    if type(index) is not int or not 1 <= index <= size:
        raise DimensionMismatch(f"{kind} index {_shown(index)} is outside a basis of {size} vectors")


class TorPresentation(NamedTuple):
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
        """Dense coefficients of ``e_i e_j`` over the f basis, any order of i, j.

        Raises :class:`DimensionMismatch` for an index that is not an ``int``
        in ``1..m``.
        """
        _basis_index("e", i, self.m)
        _basis_index("e", j, self.m)
        if i == j:
            return (0,) * self.dim2
        if i < j:
            return _dense(self.ee.get((i, j)), self.dim2)
        return _dense(self.ee.get((j, i)), self.dim2, -1)

    def ef_product(self, i: int, l: int) -> tuple[int, ...]:
        """Dense coefficients of ``e_i f_l`` over the g basis.

        Raises :class:`DimensionMismatch` unless ``i`` is an ``int`` in
        ``1..m`` and ``l`` one in ``1..m+n-1``.
        """
        _basis_index("e", i, self.m)
        _basis_index("f", l, self.dim2)
        return _dense(self.ef.get((i, l)), self.n)


def _exact_int(value: object, field: str, key: PairKey, what: str) -> int:
    """``int(value)``, refused with :class:`DimensionMismatch` unless it equals ``value``."""
    if type(value) is int:
        return value
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value:
        raise DimensionMismatch(f"{field}[({key[0]},{key[1]})] {what} {_shown(value)} is not an integer")
    return number


def _clean_table(
    table: Mapping[PairKey, Mapping[int, int] | Iterable[int]] | None, field: str, m: int, n: int
) -> dict[PairKey, Coords]:
    _require(table or {}, Mapping, DimensionMismatch)
    out: dict[PairKey, Coords] = {}
    for key, vec in (table or {}).items():
        try:
            i, j = key
        except (TypeError, ValueError):
            raise DimensionMismatch(f"{field} key {_shown(key)} is not a pair of indices") from None
        if isinstance(vec, Mapping):
            items = vec.items()
        elif not isinstance(vec, Iterable):
            raise DimensionMismatch(f"{field}[({i},{j})] product {_shown(vec)} is neither a coordinate map nor a sequence")
        else:
            vec = tuple(vec)
            basis, length = ("f", m + n - 1) if field == "ee" else ("g", n)
            if len(vec) != length:
                raise DimensionMismatch(
                    f"{field}[({i},{j})] has {len(vec)} entries; the {basis} basis has {length}"
                )
            items = enumerate(vec, start=1)
        pair = (_exact_int(i, field, key, "index"), _exact_int(j, field, key, "index"))
        coords: Coords = {}
        for k, c in items:
            k, c = _exact_int(k, field, key, "coordinate"), _exact_int(c, field, key, "coefficient")
            if c:
                coords[k] = c
        if coords:
            out[pair] = coords
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
    with 1-based ``k``.  Both become coordinate maps of ints, and zero
    coefficients and zero products are dropped.  A dense sequence of the
    wrong length, or a key, coordinate or coefficient ``x`` with
    ``int(x) != x`` (such as 2.5), raises :class:`DimensionMismatch`, as
    do a key that is not a pair, a product that is neither a map nor a
    sequence, and an ``ee`` or ``ef`` that is neither a mapping nor empty;
    an integral float such as 2.0 is stored as 2.  No other
    structural validation happens here (use :func:`validate_presentation`
    to collect diagnostics for hand-built tables).
    """
    return TorPresentation(
        m=m,
        n=n,
        ee=_clean_table(ee, "ee", m, n),
        ef=_clean_table(ef, "ef", m, n),
    )


def _misfit(label: ClassLabel, fmt: Format, need: str) -> DimensionMismatch:
    return DimensionMismatch(f"class {label} does not fit format {fmt}: needs {need}")


def _t_pattern(*products: tuple[PairKey, int]):
    """Builder of the T pattern: ``e_i e_j = c f_k`` for the k-th product ``((i, j), c)``.

    Its need is read off the products: ``m`` at least the largest index and
    ``m+n-1`` at least the number of products.
    """
    m_min, d2_min = max(max(pair) for pair, _ in products), len(products)
    need = f"m >= {m_min} and m+n-1 >= {d2_min}"

    def build(label: ClassLabel, fmt: Format) -> TorPresentation:
        m, n = fmt
        if m < m_min or m + n - 1 < d2_min:
            raise _misfit(label, fmt, need)
        return TorPresentation(m, n, {pair: {k: c} for k, (pair, c) in enumerate(products, 1)}, {})

    return build


# The Koszul products e_2 e_3 = f_1, e_1 e_3 = -f_2, e_1 e_2 = f_3: canonical T and the degree-1 half of C(3).
_koszul = _t_pattern(((2, 3), 1), ((1, 3), -1), ((1, 2), 1))


def _h_pattern(u: int, low: int, start: int, s: int, label: ClassLabel, fmt: Format) -> TorPresentation:
    """The H pattern: every product on the pivot ``e_u``.

    The i-th partner ``x`` gives ``e_u e_x = s f_i``; the partners are
    ``1..low``, all below ``u``, then ``start, start+1, ...``, all above
    ``u``, p in all.  Besides, ``e_u f_{p+i} = g_i`` for ``i <= q``.  The
    need is read off the pattern and checked before any product is built:
    ``p >= low``, ``m`` at least the last partner and ``u``, ``m+n-1 >= p+q``
    and ``n >= q``, in that order.  Then a table of more than
    :data:`MAX_DOCUMENT_CELLS` products, which has more cells than that too,
    is refused as :func:`_require_document_size` refuses it.
    """
    _, p, q = label
    m, n = fmt
    if p < low:
        raise _misfit(label, fmt, f"p >= {low}")
    above = range(start, start + p - low)
    m_min = above[-1] if above else u
    if m < m_min:
        raise _misfit(label, fmt, f"m >= {_decimal(m_min)}")
    if m + n - 1 < p + q:
        raise _misfit(label, fmt, f"m+n-1 >= {_decimal(p + q)}")
    if n < q:
        raise _misfit(label, fmt, f"n >= {q}")
    if p + q > MAX_DOCUMENT_CELLS:
        _require_document_size(m, n, p, q)
    # Below the pivot the i-th partner is i itself, and e_i e_u = -s f_i is stored.
    ee = {(i, u): {i: -s} for i in range(1, low + 1)} if low else {}
    for i, x in enumerate(above, low + 1):
        ee[u, x] = {i: s}
    return TorPresentation(m, n, ee, {(u, p + i): {i: 1} for i in range(1, q + 1)})


def canonical_presentation(label: ClassLabel, fmt: Format) -> TorPresentation:
    """The canonical multiplication table realizing ``label`` in ``fmt``.

    C(3) and T hold the Koszul products of the T pattern, and H(p,q) is the
    H pattern on ``e_{p+1}`` with partners ``1..p`` and sign -1.  Raises
    :class:`DimensionMismatch` when the format is too small to hold the
    canonical products (for example T needs ``m >= 3``, G(r) needs
    ``m >= r``, H(p,q) needs ``m >= p+1`` whenever it has any products), and
    :class:`DocumentError` for a table that fits but holds more products than
    :data:`MAX_DOCUMENT_CELLS`, before any is built.
    """
    _require_types(fmt, label)
    tag, a, _ = label
    if tag == "H":
        return _h_pattern(a + 1, a, a + 2, -1, label, fmt)
    m, n, d2 = fmt.m, fmt.n, fmt.dim2
    if tag == "C3":
        if (m, n) != (3, 1):
            raise _misfit(label, fmt, "format exactly (3,1)")
        return _koszul(label, fmt)._replace(ef={(i, i): {1: 1} for i in (1, 2, 3)})
    if tag == "T":
        return _koszul(label, fmt)
    if tag == "B":
        if m < 2 or d2 < 3:
            raise _misfit(label, fmt, "m >= 2 and m+n-1 >= 3")
        return TorPresentation(m, n, {(1, 2): {3: 1}}, {(1, 1): {1: 1}, (2, 2): {1: 1}})
    if tag == "G":
        if m < a or d2 < a:
            raise _misfit(label, fmt, f"m >= {a} and m+n-1 >= {a}")
        if a > MAX_DOCUMENT_CELLS:
            _require_document_size(m, n, 0, a)
        return TorPresentation(m, n, {}, {(i, i): {1: 1} for i in range(1, a + 1)})
    raise UnknownArrangement(f"no canonical table for label {label}")


_ARRANGEMENTS = {
    "T-A": ("T", _t_pattern(((1, 2), 1), ((1, 4), 1), ((2, 4), 1))),
    "T-B": ("T", _t_pattern(((2, 3), 1), ((2, 4), 1), ((3, 4), 1))),
    "G-std": ("G", canonical_presentation),
    # H-i and H-iii: partners 1, u+1, ..., u+p-1 on e_u, so p >= 1.
    "H-i": ("H", partial(_h_pattern, 2, 1, 3, 1)),
    # H-ii, H-iv and H-v: partners shift+1..shift+p on e_1, leaving the first shift basis vectors free.
    "H-ii": ("H", partial(_h_pattern, 1, 0, 2, 1)),
    "H-iii": ("H", partial(_h_pattern, 3, 1, 4, 1)),
    "H-iv": ("H", partial(_h_pattern, 1, 0, 3, 1)),
    "H-v": ("H", partial(_h_pattern, 1, 0, 4, 1)),
}


def arrangement_ids() -> tuple[str, ...]:
    """All known arrangement ids, in declaration order."""
    return tuple(_ARRANGEMENTS)


def arranged_presentation(label: ClassLabel, fmt: Format, arrangement: str) -> TorPresentation:
    """A table realizing ``label`` with products placed per ``arrangement``.

    Each arrangement id applies to one class tag (T-A/T-B to T, G-std to G,
    H-i..H-v to H).  T-A and T-B are the T pattern on other pairs, H-i..H-v
    the H pattern on other pivots and partners, and G-std is the canonical
    G(r) table.  An id that exists but targets a different class raises
    :class:`UnknownArrangement`, formats that cannot hold the products raise
    :class:`DimensionMismatch`, and a table that fits but holds more products
    than :data:`MAX_DOCUMENT_CELLS` raises :class:`DocumentError` before any
    is built.
    """
    _require_types(fmt, label)
    entry = _ARRANGEMENTS.get(arrangement) if isinstance(arrangement, str) else None
    if entry is None:
        raise UnknownArrangement(
            f"unknown arrangement {_shown(arrangement)}; known: {', '.join(_ARRANGEMENTS)}"
        )
    tag, builder = entry
    if label.tag != tag:
        raise UnknownArrangement(f"arrangement {_shown(arrangement)} applies to class {tag}, not {label}")
    return builder(label, fmt)


class ClassifierReport(NamedTuple):
    """Invariants of a multiplication table, plus the decided label, ``None`` when no class matches."""

    p: int
    q: int
    r: int
    s1: int
    label: ClassLabel | None

    @property
    def unclassifiable(self) -> bool:
        """Whether no class matches, read off :attr:`label`."""
        return self.label is None


def _pqr(a: TorPresentation) -> tuple[int, int, int]:
    """The exact invariants ``(p, q, r)`` of a valid presentation.

    The stored coordinate maps are the rows of p and q as they are, and the
    rows of r are built from the same nonzeros, so the size of all three
    matrices follows the number of products, not the format.  Column
    ``(e_i, g_t)`` of r is numbered ``i*(n+1)+t``: one-to-one on a valid
    presentation (one that :func:`validate_presentation` accepts), whose keys
    and coordinates are ints with ``1 <= t <= n``.
    """
    p = sparse_rank(a.ee.values())
    q = sparse_rank(a.ef.values())

    # r: one sparse row per f-basis vector, over Hom(A1, A3).
    width = a.n + 1
    delta_rows: dict[int, dict[int, int]] = {}
    for (i, l), coeffs in a.ef.items():
        row = delta_rows.setdefault(l, {})
        for t, coeff in coeffs.items():
            row[i * width + t] = coeff
    return p, q, sparse_rank(delta_rows.values())


def _s1(a: TorPresentation) -> int:
    """The exact invariant ``s1`` of a valid presentation.

    One sparse row per e-basis vector, over Hom(A1, A2), built from the
    stored nonzeros.  Column ``(e_j, f_c)`` is numbered ``j*(m+n)+c``:
    one-to-one on a valid presentation, whose coordinates satisfy
    ``1 <= c <= m+n-1`` and whose distinct ``ee`` keys ``i < j`` give each
    coefficient its own row and column.
    """
    width = a.m + a.n
    mult_rows: dict[int, dict[int, int]] = {}
    for (i, j), coeffs in a.ee.items():
        row_i = mult_rows.setdefault(i, {})
        row_j = mult_rows.setdefault(j, {})
        for c, coeff in coeffs.items():
            row_i[j * width + c] = coeff
            row_j[i * width + c] = -coeff
    return sparse_rank(mult_rows.values())


def _decide(a: TorPresentation, p: int, q: int, r: int, s1: int | None = None) -> ClassLabel | None:
    """The decision chain of :func:`classify` on a table ``a`` with invariants ``p``, ``q``, ``r``.

    Returns the label, or ``None`` when no class fits.  ``s1`` is read only
    at (p,q,r) = (3,0,0), and ranked there when it is not given.
    """
    if (p, q, r) == (3, 1, 3) and (a.m, a.n) == (3, 1):
        return CLASS_C3
    if (p, q, r) == (3, 0, 0):
        # H(3,0) has s1 = 4; any s1 but 3 would reach H(3,0) by r = q below as well.
        return CLASS_T if (_s1(a) if s1 is None else s1) == 3 else class_H(3, 0)
    if (p, q, r) == (1, 1, 2):
        return CLASS_B
    if p == 0 and q == 1 and r >= 2:
        return class_G(r)
    if r == q:
        return class_H(p, q)
    return None


def _class_label(a: TorPresentation) -> ClassLabel | None:
    """``classify(a).label``, from the ranks of p, q and r, plus s1's only at (3,0,0)."""
    return _decide(a, *_pqr(a))


def classify(a: TorPresentation) -> ClassifierReport:
    """Decide the class label of a presentation from its exact invariants.

    All four ranks, p, q, r and s1, are computed and reported, though the
    decision reads s1 only at (p,q,r) = (3,0,0).  The decision chain tries
    the rigid classes first — C(3) (which only exists in format (3,1)), then
    T versus H(3,0), which share (p,q,r) = (3,0,0) and are separated by
    ``s1`` (3 versus 4), then B and G — and falls back to H(p,q) whenever
    ``r = q``.  Anything else gets the label ``None``.

    It needs a table that :func:`validate_presentation` accepts, and checks
    only its fields' types: an invalid table can get a wrong label or none.
    ``TorPresentation(2, 1, {}, {(1, 1): {3: 1}, (2, 2): {1: 1}})`` (coordinate
    3 with n = 1) is called unclassifiable with r = 1 instead of refused.
    """
    _require(a, TorPresentation, DimensionMismatch)
    try:
        p, q, r = _pqr(a)
        s1 = _s1(a)
    except (AttributeError, TypeError) as exc:
        raise DimensionMismatch._malformed(a, exc) from None
    return ClassifierReport(p, q, r, s1, _decide(a, p, q, r, s1))


def _pair(i: int, j: int) -> str:
    """The text ``(i,j)`` of an integer key, each index worded by :func:`_decimal`."""
    return f"({_decimal(i)},{_decimal(j)})"


def validate_presentation(a: TorPresentation) -> tuple[str, ...]:
    """Every structural problem of a hand-built table, worded; empty means valid.

    Checks that ``m`` and ``n`` are positive and of type ``int`` exactly, so
    not ``bool`` (if not, that alone is reported), that ``ee`` and ``ef`` are
    mappings with integer-pair keys in range, and the range and integrality of
    every stored coordinate and coefficient, in one unsorted pass that words
    each problem where it finds it; only a table with problems is sorted.  Key
    indices, coordinates and coefficients count as integers only if of type
    ``int`` exactly, the rule :func:`presentation_from_document` reads by, so
    the document of a table this accepts is one that reader accepts.  Problems
    come ``ee`` before ``ef``: a field that is not a mapping, then keys that
    are not integer pairs, in insertion order, then products in key order,
    each with its key's range problems, then either its out-of-range
    coordinates by coordinate or one line for non-integer entries.
    """
    _require(a, TorPresentation, DimensionMismatch)
    m, n = a.m, a.n
    if type(m) is not int or type(n) is not int or m < 1 or n < 1:
        bad = [(name, value) for name, value in (("m", m), ("n", n)) if type(value) is not int or value < 1]
        return tuple(f"{name} must be a positive integer, got {_shown(value)}" for name, value in bad)
    d2 = m + n - 1
    # Problems as (field, pair or (), position, text), sorted once at the end.  Keys that
    # are not integer pairs share the pair () and are placed by the order found; within a
    # pair, the key's range lines come at (0, 0) and (0, 1), then coordinate k's line at
    # (1, k) or the one non-integer line at (1, 0).
    found = []
    for field, table, basis, size in (("ee", a.ee, "m+n-1", d2), ("ef", a.ef, "n", n)):
        try:
            products = table.items()
        except AttributeError:
            found.append((field, (), -1, f"{field} must be a mapping, got {_shown(table)}"))
            continue
        for key, coords in products:
            try:
                i, j = key
            except (TypeError, ValueError):
                i = j = None
            if not type(i) is type(j) is int:
                found.append((field, (), len(found), f"{field} key {_shown(key)} is not a pair of integers"))
                continue
            if field == "ee":
                if not 1 <= i < j <= m:
                    text = f"ee key {_pair(i, j)} out of range: need 1 <= i < j <= m = {_decimal(m)}"
                    found.append((field, (i, j), (0, 0), text))
            else:  # an ef key (i, l)
                if not 1 <= i <= m:
                    text = f"ef key {_pair(i, j)} out of range: need 1 <= i <= m = {_decimal(m)}"
                    found.append((field, (i, j), (0, 0), text))
                if not 1 <= j <= d2:
                    text = f"ef key {_pair(i, j)} out of range: need 1 <= l <= m+n-1 = {_decimal(d2)}"
                    found.append((field, (i, j), (0, 1), text))
            try:
                entries = coords.items()
            except AttributeError:
                found.append((field, (i, j), (1, 0), f"{field}[{_pair(i, j)}] must be a mapping, got {_shown(coords)}"))
                continue
            mark = len(found)
            for k, c in entries:
                if not type(k) is type(c) is int:
                    del found[mark:]  # the coordinates already worded out of range
                    found.append((field, (i, j), (1, 0), f"{field}[{_pair(i, j)}] has non-integer entries"))
                    break
                if not 1 <= k <= size:
                    need = f"need 1 <= k <= {basis} = {_decimal(size)}"
                    text = f"{field}[{_pair(i, j)}] coordinate {_decimal(k)} out of range: {need}"
                    found.append((field, (i, j), (1, k), text))
    if not found:
        return ()
    found.sort()
    return tuple(text for *_, text in found)


def _require_document_size(m: int, n: int, ee_count: int, ef_count: int) -> None:
    """Refuse a table in format ``(m, n)`` with ``ee_count`` products e.e and ``ef_count``
    products e.f if it has more than :data:`MAX_DOCUMENT_CELLS` cells (products times basis length)."""
    cells = ee_count * (m + n - 1) + ef_count * n
    if cells > MAX_DOCUMENT_CELLS:
        raise DocumentError(
            f"table would hold {_decimal(cells)} coefficients as dense vectors; the limit is {MAX_DOCUMENT_CELLS}"
        )


def presentation_to_document(a: TorPresentation) -> dict:
    """Serialize to the versioned JSON document form.

    Entries are emitted as sorted quadruples ``[i, j, l, coeff]`` (product
    ``e_i e_j``, f-coordinate ``l``) and ``[i, l, t, coeff]`` (product
    ``e_i f_l``, g-coordinate ``t``), one per nonzero coefficient, so equal
    presentations serialize identically and round-trips are bit-exact.  A
    table that :func:`presentation_from_document` would refuse for its size
    raises :class:`DocumentError` instead.
    """
    _require(a, TorPresentation, DimensionMismatch)
    try:
        _require_document_size(a.m, a.n, len(a.ee), len(a.ef))
        return {
            "version": PRESENTATION_VERSION,
            "m": a.m,
            "n": a.n,
            "ee": sorted([i, j, l, c] for (i, j), coords in a.ee.items() for l, c in coords.items()),
            "ef": sorted([i, l, t, c] for (i, l), coords in a.ef.items() for t, c in coords.items()),
        }
    except (AttributeError, TypeError) as exc:
        raise DimensionMismatch._malformed(a, exc) from None


def presentation_from_document(doc: object) -> TorPresentation:
    """Parse the document form; rejects anything outside the schema.

    One pass sums the quadruples, each four exact ints, into coordinate
    maps; :func:`validate_presentation` range-checks those maps, zero sums
    included, and the table is built from them with the zero sums dropped,
    not through :func:`make_presentation`.  Unknown fields, wrong versions,
    non-integer entries, the first problem the validation reports, and a
    table of more than :data:`MAX_DOCUMENT_CELLS` cells (distinct products
    times basis length) raise :class:`DocumentError` before anything is built.
    """
    version, m, n, ee, ef = _document_fields(
        doc, "presentation document", (("version", int), ("m", int), ("n", int), ("ee", list), ("ef", list))
    )
    if version != PRESENTATION_VERSION:
        raise DocumentError(f"unsupported presentation version {_shown(version)}")
    ee_maps, ef_maps = _coordinate_maps(ee, "ee"), _coordinate_maps(ef, "ef")
    diags = validate_presentation(TorPresentation(m, n, ee_maps, ef_maps))
    if diags:
        raise DocumentError(diags[0])
    _require_document_size(m, n, len(ee_maps), len(ef_maps))
    return TorPresentation(m, n, _nonzero(ee_maps), _nonzero(ef_maps))


def _nonzero(maps: dict[PairKey, Coords]) -> dict[PairKey, Coords]:
    """``maps`` without zero coefficients and the products they leave empty."""
    if all(map(all, map(dict.values, maps.values()))):  # the usual document has no zero sum
        return maps
    return {key: kept for key, coords in maps.items() if (kept := {k: c for k, c in coords.items() if c})}


def _coordinate_maps(rows: list, field: str) -> dict[PairKey, Coords]:
    """Accumulate ``[a, b, k, c]`` quadruples into coordinate maps ``{(a, b): {k: c}}``."""
    maps: dict[PairKey, Coords] = {}
    for row in rows:
        a, b, k, c = row if isinstance(row, list) and len(row) == 4 else (None,) * 4
        if not type(a) is type(b) is type(k) is type(c) is int:  # exactly int, so no bool
            raise DocumentError(f"{field} entry {_shown(row)} is not a quadruple of integers")
        coords = maps.setdefault((a, b), {})
        coords[k] = coords.get(k, 0) + c
    return maps
