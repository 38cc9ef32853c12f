"""Exact rational vectors and small dense linear algebra.

Vectors are plain tuples of ``fractions.Fraction``; matrices are tuples of
row vectors.  Everything here is exact -- no floats, no tolerances -- and
deterministic, which the rest of the library relies on for reproducible
floor-of-norm comparisons.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence

from .errors import DimensionMismatch, SingularMatrix

Vec = tuple[Q, ...]
Matrix = tuple[Vec, ...]


def zero_vec(dim: int) -> Vec:
    return (Q(0),) * dim


def _check_dims(x: Vec, y: Vec) -> None:
    if len(x) != len(y):
        raise DimensionMismatch(f"length {len(x)} vs {len(y)}")


def vadd(x: Vec, y: Vec) -> Vec:
    _check_dims(x, y)
    return tuple(a + b for a, b in zip(x, y))


def vsub(x: Vec, y: Vec) -> Vec:
    _check_dims(x, y)
    return tuple(a - b for a, b in zip(x, y))


def vneg(x: Vec) -> Vec:
    return tuple(-a for a in x)


def vscale(c, x: Vec) -> Vec:
    c = Q(c)
    return tuple(c * a for a in x)


def vdot(x: Vec, y: Vec) -> Q:
    _check_dims(x, y)
    return sum((a * b for a, b in zip(x, y)), Q(0))


def matvec(rows: Matrix, x: Vec) -> Vec:
    return tuple(vdot(row, x) for row in rows)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = transpose(b)
    return tuple(tuple(vdot(row, col) for col in cols) for row in a)


def transpose(rows: Matrix) -> Matrix:
    return tuple(zip(*rows)) if rows else ()


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def rref(rows: Sequence[Vec]) -> tuple[list[list[Q]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = Q(1) / m[r][c]
        m[r] = [inv * a for a in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows: Sequence[Vec]) -> int:
    return len(rref(rows)[1])


def in_span(x: Vec, vectors: Sequence[Vec]) -> bool:
    """Exact membership of x in the linear span of the given vectors."""
    return rank([*vectors, x]) == rank(vectors)


def independent_subset(vectors: Sequence[Vec], limit: int | None = None) -> list[Vec]:
    """Greedy maximal independent subset, in the order given."""
    chosen: list[Vec] = []
    for v in vectors:
        if limit is not None and len(chosen) == limit:
            break
        if not in_span(v, chosen):
            chosen.append(v)
    return chosen


def invert(rows: Matrix) -> Matrix:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch("invert needs a square matrix")
    aug = [list(rows[i]) + [Q(1) if j == i else Q(0) for j in range(n)] for i in range(n)]
    reduced, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return tuple(tuple(reduced[i][n:]) for i in range(n))
