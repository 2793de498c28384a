"""Exact rank computation against two independent reference eliminations.

``_reference_rank`` eliminates over ``Fraction``; ``_dense_bareiss_rank`` is
the dense fraction-free elimination grade3 used before its sparse one.  Both
entry points, ``rational_rank`` and ``sparse_rank``, share one engine, so
each is checked against these oracles rather than against the other.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grade3 import DimensionMismatch, rational_rank, sparse_rank


def _reference_rank(rows: list[list[int]]) -> int:
    """Plain Gaussian elimination over Fraction — deliberately independent."""
    matrix = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    col = 0
    while rank < len(matrix) and col < cols:
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = 1 / matrix[rank][col]
        matrix[rank] = [x * inv for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
        col += 1
    return rank


def _dense_bareiss_rank(rows: list[list[int]]) -> int:
    """Dense Bareiss elimination with first-nonzero pivoting, all integer."""
    mat = [list(row) for row in rows if any(row)]
    if not mat:
        return 0
    ncols = len(mat[0])
    nrows = len(mat)
    rank = 0
    prev_pivot = 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot_row = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        pivot = mat[rank][col]
        top = mat[rank]
        for r in range(rank + 1, nrows):
            row = mat[r]
            factor = row[col]
            for c in range(col + 1, ncols):
                row[c] = (pivot * row[c] - factor * top[c]) // prev_pivot
            row[col] = 0
        prev_pivot = pivot
        rank += 1
    return rank


def _sparse(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def test_empty_and_zero_matrices():
    assert rational_rank([]) == 0
    assert rational_rank([[0, 0, 0]]) == 0
    assert rational_rank([[0], [0]]) == 0


def test_identity_and_simple_cases():
    assert rational_rank([[1, 0], [0, 1]]) == 2
    assert rational_rank([[1, 2], [2, 4]]) == 1
    assert rational_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2
    assert rational_rank([[2, 0], [0, 3], [1, 1]]) == 2


def test_rank_needs_exact_arithmetic():
    # A matrix built to lose rank information under float elimination: the
    # second row is a huge multiple of the first plus a tiny perturbation.
    big = 10**30
    rows = [[1, 1], [big, big + 1]]
    assert rational_rank(rows) == 2
    rows = [[1, 1], [big, big]]
    assert rational_rank(rows) == 1


def test_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch, match=r"^rows must all have the same length$"):
        rational_rank([[1, 2], [1, 2, 3]])
    # Zero rows take no part in the length check.
    assert rational_rank([[1, 2], [0, 0, 0], []]) == 1


_matrix = st.integers(min_value=1, max_value=6).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=width, max_size=width),
        min_size=0,
        max_size=6,
    )
)


@settings(max_examples=200)
@given(_matrix)
def test_matches_fraction_oracle(rows):
    assert rational_rank(rows) == _reference_rank(rows)
    assert _dense_bareiss_rank(rows) == _reference_rank(rows)


@st.composite
def _structured_sparse(draw) -> list[list[int]]:
    """Tables-like matrices: 1-3 nonzeros per row, huge entries, shuffled.

    Integer combinations of the rows are appended so that some matrices lose
    rank; rows and columns are then shuffled so no pivot order is favoured.
    """
    nrows = draw(st.integers(min_value=1, max_value=40))
    ncols = draw(st.integers(min_value=1, max_value=60))
    entry = st.integers(min_value=-(10**20), max_value=10**20).filter(bool)
    rows = []
    for _ in range(nrows):
        cols = draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=3, unique=True))
        rows.append({c: draw(entry) for c in cols})
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        terms = draw(
            st.lists(st.tuples(st.integers(0, nrows - 1), st.integers(-3, 3)), min_size=1, max_size=3)
        )
        combo: dict[int, int] = {}
        for i, weight in terms:
            for c, v in rows[i].items():
                combo[c] = combo.get(c, 0) + weight * v
        rows.append(combo)
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    rng.shuffle(rows)
    col_perm = list(range(ncols))
    rng.shuffle(col_perm)
    dense = []
    for row in rows:
        vec = [0] * ncols
        for c, v in row.items():
            vec[col_perm[c]] = v
        dense.append(vec)
    return dense


@settings(max_examples=60, deadline=None)
@given(_structured_sparse())
def test_structured_sparse_matrices_match_both_oracles(rows):
    expected = _reference_rank(rows)
    assert _dense_bareiss_rank(rows) == expected
    assert rational_rank(rows) == expected
    assert sparse_rank(_sparse(rows)) == expected


@settings(max_examples=100)
@given(_matrix)
def test_rank_invariant_under_row_scaling(rows):
    scaled = [[3 * x for x in row] for row in rows]
    assert rational_rank(scaled) == rational_rank(rows)


@settings(max_examples=100)
@given(_matrix)
def test_rank_invariant_under_transpose(rows):
    transpose = [list(col) for col in zip(*rows)] if rows else []
    assert rational_rank(transpose) == rational_rank(rows)


def test_sparse_rank_over_hashable_keys():
    rows = [
        {("a", 1): 1, ("b", 2): 2},
        {("a", 1): 2, ("b", 2): 4},
        {("c", 0): 5},
    ]
    assert sparse_rank(rows) == 2


def test_sparse_rank_over_mixed_key_types():
    # Columns of different types cannot be ordered against each other.
    assert sparse_rank([{"x": 1, 3: 2, (1, 2): 1}]) == 1
    assert sparse_rank([{"x": 1, 3: 2, (1, 2): 1}, {3: 4, "x": 2, (1, 2): 2}]) == 1
    assert sparse_rank([{"x": 1, 3: 2, (1, 2): 1}, {3: 4, None: 1}, {"x": 3}]) == 3


def test_sparse_rank_ignores_explicit_zeros():
    assert sparse_rank([{"x": 0, "y": 0}]) == 0
    assert sparse_rank([{"x": 0, "y": 1}, {"y": 1}]) == 1


def test_sparse_rank_leaves_its_input_alone():
    rows = [{0: 2, 1: 1}, {0: 1, 1: 1}, {2: 1}, {0: 3, 1: 2, 2: 1}]
    copies = [dict(row) for row in rows]
    assert sparse_rank(rows) == 3
    assert rows == copies


def test_rows_off_the_pivot_column_are_rescaled_exactly():
    # Both full rank.  The first loses a pivot if rows without an entry in the
    # pivot column are left unscaled; the second if they are scaled by the
    # integer part of pivot / prev instead of by pivot, then divided by prev.
    unscaled = [[0, 0, 3, 1], [0, 5, 0, 0], [0, 0, 0, -1], [-1, 0, 2, 0]]
    truncated = [[0, 7, 3, 2], [0, 5, 2, 0], [2, 0, 0, 3], [7, 1, 3, 0]]
    for rows in (unscaled, truncated):
        assert _reference_rank(rows) == 4
        assert rational_rank(rows) == 4
        assert sparse_rank(_sparse(rows)) == 4


@settings(max_examples=100)
@given(_matrix)
def test_sparse_rank_matches_dense(rows):
    assert sparse_rank(_sparse(rows)) == _dense_bareiss_rank(rows)


def _dense(rows: list[dict[int, int]]) -> list[list[int]]:
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


@pytest.mark.parametrize(
    "rows, rank",
    [
        # A row holding only an explicit zero is no pivot.
        ([{0: 0}, {0: 1, 1: 1}], 1),
        ([{0: 0}, {1: 0, 2: 3}, {2: 6}], 1),
        # Two singleton rows on one column count once.
        ([{0: 1}, {0: -2}, {1: 5}], 2),
        # Stripping column 0 leaves two singletons on column 1, and the row
        # {1: 3, 2: 1} only becomes a singleton in the round after that.
        ([{0: 1}, {0: 1, 1: 1}, {0: 2, 1: 2}, {1: 3, 2: 1}, {0: 4, 1: 6, 2: 2}], 3),
        # A multi-entry row that shares a peeled column keeps its other
        # entries, which still depend on each other.
        ([{0: 7}, {0: 1, 1: 1, 2: 1}, {1: 2, 2: 2}], 2),
        ([{0: 7}, {0: 1, 1: 1, 2: 1}, {1: 2, 2: 3}], 3),
    ],
)
def test_singleton_peel_matches_both_oracles(rows, rank):
    dense = _dense(rows)
    assert _reference_rank(dense) == rank
    assert _dense_bareiss_rank(dense) == rank
    assert sparse_rank(rows) == rank


def test_singleton_peel_leaves_its_input_alone():
    # Singleton rows, a row with an explicit zero, and multi-entry rows that
    # the peel strips down to singletons or to nothing.
    rows = [{0: 1}, {0: 0}, {0: 2, 1: 3}, {0: 1, 1: 1, 2: 0}, {1: 4, 2: 5}, {0: -1, 2: 1}]
    copies = [dict(row) for row in rows]
    assert sparse_rank(rows) == _reference_rank(_dense(rows)) == 3
    assert rows == copies


@pytest.mark.parametrize(
    "rows, rank",
    [
        # The peel leaves no row: stripping column 0 makes the other a singleton.
        ([{0: 1}, {0: 2, 1: 1}], 2),
        # It leaves one row, which adds 1 whatever its entries.
        ([{0: 2, 1: 3}], 1),
        ([{0: 0, 1: 2, 2: 0, 3: -4}], 1),
        ([{0: 1}, {0: 1, 1: 2, 2: 10**40}], 2),
        # It leaves two rows, dependent or not, or three.
        ([{0: 1, 1: 1}, {0: 2, 1: 2}], 1),
        ([{0: 1, 1: 1}, {0: 1, 1: 2}], 2),
        ([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 3),
    ],
)
def test_rank_after_the_peel_matches_both_oracles(rows, rank):
    copies = [dict(row) for row in rows]
    dense = _dense(rows)
    assert _reference_rank(dense) == rank
    assert _dense_bareiss_rank(dense) == rank
    assert sparse_rank(rows) == rank
    assert rows == copies


def test_peel_leaving_zero_one_or_more_rows_matches_the_oracle():
    # Singleton rows on columns 10..13 never touch the k rows of two or more
    # nonzero entries on columns 0..5, so the peel leaves exactly those k.
    rng = random.Random(31)
    for k in (0, 1, 1, 2, 3) * 40:
        rows = []
        for _ in range(k):
            cols = rng.sample(range(6), rng.randint(2, 6))
            rows.append({c: rng.choice([-3, -1, 1, 2, 5, 10**20]) for c in cols})
            if rng.random() < 0.3:
                rows[-1][rng.randrange(6, 9)] = 0
        rows += [{rng.randrange(10, 14): rng.choice([1, -2])} for _ in range(rng.randint(0, 4))]
        rng.shuffle(rows)
        copies = [dict(row) for row in rows]
        assert sparse_rank(rows) == _reference_rank(_dense(rows)), rows
        assert rows == copies
