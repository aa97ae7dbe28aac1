"""Exact linear algebra for small integer matrices.

Every matrix the package eliminates is integer (rays, dual rays, simplex
generators; n <= 8, at most 64 rows), so ``det``, ``pivot_columns``,
``rank`` and ``pivot_inverse`` are the four views of one fraction-free
Bareiss elimination on Python ints.  The first three need only forward
elimination; the inverse alone is Gauss-Jordan, and it picks the pivot rows
it inverts in the same pass.  Besides them the module has only ``dot``,
``transpose`` and ``primitivize``.  A linear system is solved through the
scaled inverse of its pivot rows, as ``geometry._solve_gorenstein`` does.
Vectors are tuples; matrices are sequences of row tuples.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence


def dot(u: Sequence, v: Sequence):
    """Exact inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} != {len(v)}")
    return sum(map(operator.mul, u, v))


def transpose(rows: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(zip(*rows))


def primitivize(v: Sequence[int]) -> tuple[int, ...]:
    """Divide a vector of ints by the gcd of its entries.

    Raises ValueError on the zero vector.
    """
    g = math.gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def _bareiss(rows: Sequence[Sequence[int]], width: int, jordan: bool = False):
    """Fraction-free elimination of an integer matrix.

    Pivots in the first ``width`` columns only, on each column's first
    nonzero entry at or below the current row.  Each step sets every row
    below the pivot row, and with ``jordan`` every row above it too, to
    ``(pivot * row - factor * pivot_row) // previous_pivot``, exact by
    Sylvester's identity (Bareiss, Math. Comp. 22, 1968): after k steps every
    entry of a row it updates is a minor of the input.  The rows below decide
    the pivots, so both modes find the same pivots, last pivot and sign; with
    ``jordan`` the pivot rows end as the k x k pivot minor times the reduced
    echelon form.  Returns ``(pivots, reduced, last, sign)``: the pivot
    columns, the reduced rows, the last pivot (1 if none) and the sign of the
    row swaps.
    """
    a = [list(row) for row in rows]
    m = len(a)
    pivots: list[int] = []
    last, sign = 1, 1
    for col in range(width):
        r = len(pivots)
        if r == m:
            break
        pivot = next((i for i in range(r, m) if a[i][col]), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            sign = -sign
        pivot_row = a[r]
        p = pivot_row[col]
        for i in range(0 if jordan else r + 1, m):
            if i != r:
                factor = a[i][col]
                a[i] = [(p * x - factor * y) // last for x, y in zip(a[i], pivot_row)]
        last = p
        pivots.append(col)
    return pivots, a, last, sign


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    pivots, _, last, sign = _bareiss(rows, n)
    return sign * last if len(pivots) == n else 0


def pivot_columns(rows: Sequence[Sequence[int]]) -> list[int]:
    """The columns of an integer matrix that are independent of the columns
    before them: the first basis of its column space, picked greedily."""
    return _bareiss(rows, len(rows[0]) if rows else 0)[0]


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a (possibly rectangular) integer matrix."""
    return len(pivot_columns(rows))


def pivot_inverse(rows: Sequence[Sequence[int]], dim: int) -> tuple:
    """``(basis, |det B|, S)`` for integer rows R of length ``dim``: the
    indices of the rows independent of the rows before them (the first basis
    of the row space, picked greedily), the matrix B of those rows and its
    scaled inverse S = |det B| B^-1, with det and S None when fewer than dim
    rows are independent.

    Reduces [R^T | I] once by Gauss-Jordan, pivoting in the columns of R^T:
    the pivot columns are the basis, the last pivot is +-det B, and the right
    block ends as that pivot times (B^T)^-1, so S is its transpose times the
    sign of the last pivot.
    """
    m = len(rows)
    augmented = [[row[i] for row in rows] + [int(i == j) for j in range(dim)] for i in range(dim)]
    pivots, reduced, last, _ = _bareiss(augmented, m, jordan=True)
    basis = tuple(pivots)
    if len(basis) < dim:
        return basis, None, None
    sign = 1 if last > 0 else -1
    block = transpose(row[m:] for row in reduced)
    return basis, abs(last), tuple(tuple(sign * x for x in row) for row in block)
