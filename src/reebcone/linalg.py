"""Exact linear algebra for small integer matrices.

Every matrix the package eliminates is integer (rays, dual rays, simplex
generators; n <= 8, at most 64 rows), so pivot columns, rank, determinant
and the scaled inverse are the four views of one fraction-free Bareiss
elimination on Python ints; besides it the module has only ``dot``,
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


def _bareiss(rows: Sequence[Sequence[int]], width: int):
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Pivots in the first ``width`` columns only, on each column's first
    nonzero entry at or below the current row.  Each step sets every other
    row to ``(pivot * row - factor * pivot_row) // previous_pivot``, exact by
    Sylvester's identity (Bareiss, Math. Comp. 22, 1968): after k steps every
    entry is a minor of the input, and the pivot rows are the k x k pivot
    minor times the reduced echelon form.  Returns
    ``(pivots, reduced, last, sign)``: the pivot columns, the reduced rows,
    the last pivot (1 if none) and the sign of the row swaps.
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
        for i in range(m):
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


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(|det A|, |det A| * A^-1)`` for a nonsingular integer matrix A.

    Reduces [A | I]: the last pivot is +-det A, and the right block ends as
    that pivot times A^-1.  ValueError if A is singular.
    """
    n = len(rows)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, reduced, last, _ = _bareiss(augmented, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    sign = 1 if last > 0 else -1
    return abs(last), tuple(tuple(sign * x for x in row[n:]) for row in reduced)
