"""rational_rank against sympy's exact rank on seeded random matrices."""

import random
from fractions import Fraction as F
from math import comb

import pytest

import tsplinedim as t
from tsplinedim.linalg import SparseRationalMatrix

sympy = pytest.importorskip("sympy")


def _sympy_rank(rows, ncols):
    return sympy.Matrix(len(rows), ncols, lambda i, j: sympy.Rational(rows[i].get(j, 0))).rank()


def _assert_rank(rows, ncols):
    expected = _sympy_rank(rows, ncols)
    assert t.rational_rank(rows) == expected
    matrix = SparseRationalMatrix(len(rows), ncols)
    for i, row in enumerate(rows):
        for j, v in row.items():
            matrix.set(i, j, v)
    assert t.rational_rank(matrix) == expected


def _random_sparse(rng, nrows, ncols, density):
    """Rational rows that keep explicit zero entries and repeat some rows."""
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = F(rng.randint(-4, 4), rng.randint(1, 5))
        rows.append(row)
    for _ in range(rng.randint(0, 2)):
        if rows:
            scale = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
            rows.append({j: v * scale for j, v in rng.choice(rows).items()})
    rng.shuffle(rows)
    return rows


def test_empty_matrices():
    _assert_rank([], 0)
    _assert_rank([], 4)
    _assert_rank([{}, {}], 3)
    assert t.rational_rank(SparseRationalMatrix(0, 0)) == 0


def test_zero_entries_are_not_pivots():
    _assert_rank([{0: 0}], 1)
    _assert_rank([{0: 0, 1: F(2, 3)}, {0: F(0), 1: 4}], 2)


def test_random_sparse_rational_matrices():
    rng = random.Random(20101)
    for _ in range(150):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        _assert_rank(_random_sparse(rng, nrows, ncols, rng.choice([0.15, 0.4, 0.8])), ncols)


def test_random_low_rank_integer_products():
    rng = random.Random(20102)
    for _ in range(60):
        nrows, ncols, inner = rng.randint(1, 10), rng.randint(1, 10), rng.randint(1, 5)
        left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(nrows)]
        right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(inner)]
        rows = [
            {j: sum(left[i][k] * right[k][j] for k in range(inner)) for j in range(ncols)}
            for i in range(nrows)
        ]
        _assert_rank(rows, ncols)


def test_tall_dense_shifted_power_matrices():
    # Generator rows (u - a)^d * u^j, j <= n - d, as in the apolar oracle:
    # many more rows than the n + 1 columns, dense and integer.
    rng = random.Random(20103)
    for _ in range(60):
        n = rng.randint(2, 8)
        points = rng.sample(range(-4, 5), rng.randint(2, 5))
        rows = []
        for a in points:
            d = rng.randint(0, n)
            base = [comb(d, i) * (-a) ** (d - i) for i in range(d + 1)]
            for j in range(n - d + 1):
                rows.append({j + i: c for i, c in enumerate(base)})
        _assert_rank(rows, n + 1)


def test_entries_are_ints_or_fractions():
    matrix = SparseRationalMatrix(2, 2)
    for value in (0.1, "1/2", 1.0):
        with pytest.raises(TypeError):
            matrix.set(0, 0, value)
    with pytest.raises(TypeError):
        matrix.add(0, 0, 0.5)
    assert matrix.nnz == 0


def test_add_accumulates_cancelled_entries_vanish_ints_dump_over_one():
    matrix = SparseRationalMatrix(2, 3)
    matrix.add(0, 1, 2)
    matrix.add(0, 1, F(1, 3))
    matrix.add(1, 2, F(1, 2))
    matrix.add(1, 2, F(-1, 2))
    matrix.set(1, 0, 5)
    matrix.set(1, 0, 0)
    matrix.set(1, 1, -4)
    assert matrix.nnz == 2
    assert list(matrix) == [{1: F(7, 3)}, {1: -4}]
    assert matrix.dump_triplets() == "2 3\n0 1 7/3\n1 1 -4/1\n"
