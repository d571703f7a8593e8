import random
from fractions import Fraction

import pytest

from bottsamelson import NonSquare, det, rank, sparse_rank


def reference_rank(matrix) -> int:
    """Plain Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def to_columns(matrix):
    cols = {}
    for i, row in enumerate(matrix):
        for j, x in enumerate(row):
            if x:
                cols.setdefault(j, {})[i] = x
    return cols


def test_rank_small_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2


def test_det_small_cases():
    assert det([]) == 1
    assert det([[7]]) == 7
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert det([[1, 2], [2, 4]]) == 0


def test_det_refuses_a_non_square_matrix():
    with pytest.raises(ValueError) as info:
        det([[1, 2]])
    assert type(info.value) is NonSquare


def test_det_needs_row_swap():
    assert det([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1


def test_sparse_rank_matches_rational_elimination():
    rng = random.Random(20260816)
    for _ in range(200):
        rows = rng.randint(0, 8)
        cols = rng.randint(0, 8)
        matrix = [
            [rng.choice((0, 0, 0, 1, -1, 2, -3, 5)) for _ in range(cols)]
            for _ in range(rows)
        ]
        expected = reference_rank(matrix) if rows and cols else 0
        assert sparse_rank(to_columns(matrix)) == expected
        if rows:
            assert rank(matrix) == expected
    # no unit entries, so every pivot is a non-unit and about half are
    # negative: the updates where the pivot divides the entry it clears and
    # the scaled ones, with either sign of pivot and entry
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = [
            [rng.choice((0, 0, 2, -2, -3, 4, -6, 9, -12)) for _ in range(cols)]
            for _ in range(rows)
        ]
        for _ in range(rng.randint(0, 2)):  # a dependent column
            j, k = rng.randrange(cols), rng.randrange(cols)
            for row in matrix:
                row[k] = -2 * row[j]
        assert sparse_rank(to_columns(matrix)) == reference_rank(matrix)
        assert rank(matrix) == reference_rank(matrix)
    assert rank([[-2, 4], [3, -6]]) == 1
    assert rank([[-2, 3], [4, -5]]) == 2
    assert rank([[-3, 6, -9], [2, -4, 7], [-6, 12, -18]]) == 2


def test_sparse_rank_big_integers():
    big = 10**40
    cols = {0: {0: big, 1: big}, 1: {0: big, 1: -big}, 2: {0: 2 * big, 1: 0}}
    assert sparse_rank(cols) == 2


def test_sparse_rank_small_cases():
    assert sparse_rank(to_columns([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 3
    assert sparse_rank({0: {0: 2}}) == 1


def test_sparse_rank_on_larger_sparse_matrices():
    # pivots are picked from a heap of column lengths that elimination keeps
    # changing; rank-deficient matrices with non-unit entries exercise the
    # fill-in, the cancellations and the scaled updates
    rng = random.Random(20261018)
    for _ in range(60):
        rows = rng.randint(5, 30)
        cols = rng.randint(5, 30)
        density = rng.choice((0.1, 0.2, 0.4))
        matrix = [
            [rng.choice((1, -1, 2, -2, 3, 6, -7, 10**12)) if rng.random() < density else 0
             for _ in range(cols)]
            for _ in range(rows)
        ]
        for _ in range(rng.randint(0, 5)):  # dependent columns
            j, k, target = (rng.randrange(cols) for _ in range(3))
            p, q = rng.choice((1, 2, -3)), rng.choice((1, -1, 5))
            for row in matrix:
                row[target] = p * row[j] + q * row[k]
        assert sparse_rank(to_columns(matrix)) == reference_rank(matrix)
