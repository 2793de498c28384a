"""Exact rank computation for integer matrices.

Multiplication tables carry integer structure constants, and every invariant
of the classifier is the rank of some integer matrix over the rationals.
Floating-point ranks are not acceptable here — a coefficient pattern such as
``[[2, 3], [4, 6]]`` must have rank exactly 1 — so ranks are computed by
fraction-free (Bareiss) elimination: all intermediate entries stay integers,
and every division is exact.

Sparse rows.  The matrices the classifier builds have a few nonzeros per row
in thousands of columns, so a row is stored as a ``dict`` mapping a column
(any hashable key) to a nonzero entry; zeros are never stored, and no order
on the columns is ever needed.  :func:`sparse_rank` is the one elimination
routine; :func:`rational_rank` only turns the nonzeros of dense rows into
sparse rows and calls it.

Exact division under any pivot order.  Each step takes a pivot from the
shortest remaining row and replaces every other remaining row ``R`` by
``(pivot * R - R[col] * top) / prev``, where ``top`` is the pivot row and
``prev`` the previous pivot.  After k steps, entry ``(R, j)`` is the
(k+1)-by-(k+1) minor of the original matrix on the k pivot rows plus ``R``
and the k pivot columns plus ``j`` (Sylvester's identity), up to a sign that
is the same for every entry.  A minor is an integer whichever rows and
columns were chosen, so the division is exact for any pivot order, and the
entries stay bounded by Hadamard's bound even on dense or hostile input.
The pivot is used by its absolute value (the pivot row's sign folds into the
update), which flips that common sign and keeps ``prev`` positive.

Rows without an entry in the pivot column are still rescaled, to
``pivot * R / prev``: the update above with ``R[col] = 0``.  Skipping it
would leave those rows as minors of the wrong order, and the next division
by ``prev`` would no longer be exact.  Only ``pivot == prev``, the usual case
for tables with unit coefficients, lets them stand unchanged.  The ratio
``pivot / prev`` itself need not be an integer; the product always divides.

The dense Bareiss elimination this replaced, and an elimination over
``Fraction``, live in the tests as reference oracles.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["rational_rank", "sparse_rank"]


def rational_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over the rationals of the integer matrix with the given rows.

    Accepts any iterable of equal-length integer rows; zero rows (of any
    length) and an empty matrix are fine, and nonzero rows of different
    lengths raise :class:`ValueError`.  Exact for arbitrarily large entries.
    """
    sparse = []
    ncols = None
    for row in rows:
        entries = {col: value for col, value in enumerate(row) if value}
        if not entries:
            continue
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ValueError("rows must all have the same length")
        sparse.append(entries)
    return sparse_rank(sparse)


def sparse_rank(rows: Iterable[Mapping[object, int]]) -> int:
    """Rank of a matrix given as sparse rows (column -> entry maps).

    Columns may be arbitrary hashable objects, of mixed types; a column that
    occurs in no row is a zero column.  Explicit zero entries are ignored.
    The rows passed in are not modified.
    """
    remaining = [entries for entries in ({c: v for c, v in row.items() if v} for row in rows) if entries]
    rank = 0
    prev = 1
    while remaining:
        lengths = list(map(len, remaining))
        top = remaining.pop(lengths.index(min(lengths)))
        col = min(top, key=lambda c: abs(top[c]))
        pivot = top.pop(col)
        if pivot < 0:
            pivot = -pivot
            top = {c: -v for c, v in top.items()}
        rank += 1
        survivors = []
        for row in remaining:
            factor = row.pop(col, 0)
            if factor:
                merged = {c: v * pivot for c, v in row.items()} if pivot != 1 else row
                for c, v in top.items():
                    merged[c] = merged.get(c, 0) - factor * v
                row = {c: v // prev for c, v in merged.items() if v}
            elif pivot != prev:
                row = {c: v * pivot // prev for c, v in row.items()}
            if row:
                survivors.append(row)
        remaining = survivors
        prev = pivot
    return rank
