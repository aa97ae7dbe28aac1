"""Exact linear algebra over the rationals.

Small dense matrices only (the package targets desk-scale cones, n <= 8),
so plain fraction Gaussian elimination is both adequate and easy to audit.
Vectors are tuples; matrices are sequences of row tuples.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class LinearSystemInconsistent(ValueError):
    """The linear system has no solution."""


class LinearSystemUnderdetermined(ValueError):
    """The linear system has a positive-dimensional solution set."""


def dot(u: Sequence, v: Sequence):
    """Exact inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} != {len(v)}")
    return sum(x * y for x, y in zip(u, v))


def vec_add(u: Sequence, v: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(u, v))


def vec_scale(c, u: Sequence) -> tuple:
    return tuple(c * x for x in u)


def mat_vec(rows: Sequence[Sequence], x: Sequence) -> tuple:
    return tuple(dot(row, x) for row in rows)


def transpose(rows: Sequence[Sequence]) -> tuple[tuple, ...]:
    return tuple(zip(*rows))


def primitivize(v: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries.

    Raises ValueError on the zero vector or non-integer entries.
    """
    w = []
    for x in v:
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError(f"non-integer entry {x}")
            x = x.numerator
        elif not isinstance(x, int):
            raise ValueError(f"non-integer entry {x!r}")
        w.append(x)
    g = math.gcd(*w) if w else 0
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in w)


def det(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix, by fraction Gaussian elimination."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        result *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return result


def rank(rows: Sequence[Sequence]) -> int:
    """Rank of a (possibly rectangular) matrix."""
    a = [[Fraction(x) for x in row] for row in rows]
    if not a:
        return 0
    m, n = len(a), len(a[0])
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        for i in range(r + 1, m):
            if a[i][col] != 0:
                factor = a[i][col] * inv
                for c in range(col, n):
                    a[i][c] -= factor * a[r][c]
        r += 1
        if r == m:
            break
    return r


def integer_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """``(|det A|, |det A| * A^-1)`` for a nonsingular integer matrix A.

    Fraction-free (Bareiss) Gauss-Jordan on [A | I], whose divisions are all
    exact: the last pivot is +-det A, and the right block ends as that pivot
    times A^-1.  ValueError if A is singular.
    """
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        for r in range(n):
            if r != col:
                factor = a[r][col]
                a[r] = [(p * x - factor * y) // prev for x, y in zip(a[r], a[col])]
        prev = p
    sign = 1 if prev > 0 else -1
    return abs(prev), tuple(tuple(sign * x for x in row[n:]) for row in a)


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve a (possibly overdetermined) system A x = b exactly.

    Raises LinearSystemInconsistent when no solution exists and
    LinearSystemUnderdetermined when the solution is not unique.
    """
    m = len(rows)
    if m != len(rhs):
        raise ValueError("row/rhs length mismatch")
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    for i in range(r, m):
        if a[i][n] != 0:
            raise LinearSystemInconsistent("inconsistent linear system")
    if len(pivots) < n:
        raise LinearSystemUnderdetermined("solution set is positive-dimensional")
    x = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        x[col] = a[i][n]
    return tuple(x)


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, p, q) with p*a + q*b = g = gcd(a,b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def column_hnf(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Column-style Hermite form of a nonsingular integer matrix.

    Returns a lower-triangular matrix with positive diagonal whose columns
    span the same lattice as the input's columns (only unimodular column
    operations are applied). Off-diagonal entries are not reduced; the
    triangular shape and positive diagonal are all the box-point
    enumeration needs.
    """
    n = len(rows)
    h = [[int(x) for x in row] for row in rows]
    if any(len(row) != n for row in h):
        raise ValueError("column_hnf requires a square matrix")

    def combine_columns(j, k, p, q, r, s):
        # (col_j, col_k) <- (p*col_j + q*col_k, r*col_j + s*col_k)
        for i in range(n):
            cj, ck = h[i][j], h[i][k]
            h[i][j] = p * cj + q * ck
            h[i][k] = r * cj + s * ck

    for j in range(n):
        for k in range(j + 1, n):
            if h[j][k] == 0:
                continue
            a, b = h[j][j], h[j][k]
            g, p, q = _egcd(a, b)
            # unimodular: det [[p, -b/g], [q, a/g]] = 1
            combine_columns(j, k, p, q, -b // g, a // g)
        if h[j][j] == 0:
            raise ValueError("matrix is singular")
        if h[j][j] < 0:
            for i in range(n):
                h[i][j] = -h[i][j]
    return tuple(tuple(row) for row in h)


def lex_sign(values: Sequence) -> int:
    """Sign of the first nonzero entry of a sequence (0 if all zero)."""
    for x in values:
        if x > 0:
            return 1
        if x < 0:
            return -1
    return 0
