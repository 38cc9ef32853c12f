"""Exact linear programming over rationals.

A small two-phase primal simplex with Bland's rule.  Bland's rule makes
termination unconditional, with no perturbation or tolerance anywhere;
all pivots are exact Fraction arithmetic.  Problem sizes in this library
are tiny (tens of variables), so simplicity beats speed.  No CLI command
solves a linear program.  The exported `geometry.is_extreme_point` and
`geometry.is_extreme_via_balls` do when called; the LP gauge, hull and face
tests built on this module are the references the tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence

from .linalg import Matrix, Vec

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpProblem:
    """Minimize ``objective . x`` subject to ``a_eq x = b_eq`` and ``a_ub x <= b_ub``.

    With ``nonneg=True`` all variables are constrained to be >= 0,
    otherwise they are free.
    """

    objective: Vec
    a_eq: Matrix = ()
    b_eq: Vec = ()
    a_ub: Matrix = ()
    b_ub: Vec = ()
    nonneg: bool = False


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Q | None = None
    point: Vec | None = None


def _pivot(tableau: list[list[Q]], obj: list[Q], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [a / piv for a in tableau[row]]
    prow = tableau[row]
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * p for a, p in zip(r, prow)]
    if obj[col] != 0:
        f = obj[col]
        obj[:] = [a - f * p for a, p in zip(obj, prow)]
    basis[row] = col


def _iterate(tableau: list[list[Q]], obj: list[Q], basis: list[int], ncols: int) -> str:
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        best: tuple[Q, int, int] | None = None
        for i, r in enumerate(tableau):
            a = r[enter]
            if a > 0:
                ratio = r[-1] / a
                if best is None or ratio < best[0] or (ratio == best[0] and basis[i] < best[1]):
                    best = (ratio, basis[i], i)
        if best is None:
            return UNBOUNDED
        _pivot(tableau, obj, basis, best[2], enter)


def simplex_min(c: Sequence[Q], a: Sequence[Sequence[Q]], b: Sequence[Q]) -> LpResult:
    """Minimize c.x subject to a x = b, x >= 0; exact two-phase simplex.

    Rows whose slack column survives sign normalization start out basic,
    so artificial variables only cover the remaining rows.
    """
    m, n = len(a), len(c)
    rows = []
    rhs = []
    for i in range(m):
        row = list(a[i])
        bi = b[i]
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        rows.append(row)
        rhs.append(bi)

    # Unit columns can serve as the initial basis for their row.
    basis = [-1] * m
    for j in range(n):
        nz = [i for i in range(m) if rows[i][j] != 0]
        if len(nz) == 1 and rows[nz[0]][j] == 1 and basis[nz[0]] == -1:
            basis[nz[0]] = j
    art_rows = [i for i in range(m) if basis[i] == -1]
    width = n + len(art_rows)
    tableau = [rows[i] + [Q(0)] * len(art_rows) + [rhs[i]] for i in range(m)]
    for k, i in enumerate(art_rows):
        tableau[i][n + k] = Q(1)
        basis[i] = n + k

    if art_rows:
        # Phase 1: minimize the sum of artificials (price out basic ones).
        obj = [Q(0)] * (width + 1)
        for j in range(n, width):
            obj[j] = Q(1)
        for i in art_rows:
            obj = [x - t for x, t in zip(obj, tableau[i])]
        _iterate(tableau, obj, basis, width)
        if -obj[-1] != 0:
            return LpResult(INFEASIBLE)
        # Drive leftover artificials out of the basis; drop redundant rows.
        keep: list[int] = []
        for i in range(m):
            if basis[i] >= n:
                col = next((j for j in range(n) if tableau[i][j] != 0), None)
                if col is None:
                    continue  # redundant constraint row
                _pivot(tableau, obj, basis, i, col)
            keep.append(i)
        tableau = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
        basis = [basis[i] for i in keep]
    else:
        tableau = [tableau[i][:n] + [tableau[i][-1]] for i in range(m)]

    # Phase 2 on original columns.
    obj = list(c) + [Q(0)]
    for i, r in enumerate(tableau):
        if obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [x - f * p for x, p in zip(obj, r)]
    status = _iterate(tableau, obj, basis, n)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)
    x = [Q(0)] * n
    for i, bi in enumerate(basis):
        x[bi] = tableau[i][-1]
    value = sum((ci * xi for ci, xi in zip(c, x)), Q(0))
    return LpResult(OPTIMAL, value, tuple(x))


def solve(problem: LpProblem) -> LpResult:
    """Solve a general problem by reduction to standard form."""
    n = len(problem.objective)
    n_ub = len(problem.a_ub)
    if problem.nonneg:
        width = n

        def expand(row: Sequence[Q]) -> list[Q]:
            return list(row)

    else:
        width = 2 * n  # free variables split as x = u - w

        def expand(row: Sequence[Q]) -> list[Q]:
            return list(row) + [-x for x in row]

    c = expand(problem.objective) + [Q(0)] * n_ub
    rows: list[list[Q]] = []
    rhs: list[Q] = []
    for row, b in zip(problem.a_eq, problem.b_eq):
        rows.append(expand(row) + [Q(0)] * n_ub)
        rhs.append(b)
    for k, (row, b) in enumerate(zip(problem.a_ub, problem.b_ub)):
        slack = [Q(0)] * n_ub
        slack[k] = Q(1)
        rows.append(expand(row) + slack)
        rhs.append(b)
    res = simplex_min(c, rows, rhs)
    if res.status != OPTIMAL:
        return res
    raw = res.point
    if problem.nonneg:
        point = tuple(raw[:n])
    else:
        point = tuple(raw[i] - raw[n + i] for i in range(n))
    value = sum((ci * xi for ci, xi in zip(problem.objective, point)), Q(0))
    return LpResult(OPTIMAL, value, point)


def check_certificate(problem: LpProblem, result: LpResult) -> bool:
    """Exact feasibility of an optimal result's certificate point."""
    if result.status != OPTIMAL or result.point is None:
        return False
    x = result.point
    for row, b in zip(problem.a_eq, problem.b_eq):
        if sum((r * v for r, v in zip(row, x)), Q(0)) != b:
            return False
    for row, b in zip(problem.a_ub, problem.b_ub):
        if sum((r * v for r, v in zip(row, x)), Q(0)) > b:
            return False
    if problem.nonneg and any(v < 0 for v in x):
        return False
    return True
