"""Extreme lines, max-norm directions, and the induced splitting of the space.

A unit vector x is a "max direction" (an l-infinity direction) when the
whole space splits as span{x} (+) W with norm(a*x + u) = max(|a|, norm(u)).
The space then decomposes as V = (U (+) linf^d)_max where the linf part is
spanned by all such directions.  This module computes that splitting two
independent ways and insists they agree:

  * directly, by pairing ball vertices across each candidate direction;
  * by eliminating coloops from the extreme-line directions until the
    surviving ones span the maximal well-spanned subspace U.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations
from typing import Sequence

from . import linalg
from .errors import CrossCheckFailure, NotUnitNorm, TooManyVertices
from .geometry import PolytopeBall, norm
from .linalg import Matrix, Vec, vadd, vneg, vscale, vsub
from .lp import OPTIMAL, LpProblem, solve

_BATTERY_SEED = 0x5EED
_BATTERY_RANDOM = 100


@dataclass(frozen=True)
class ExtremeLine:
    """A 1-face [a, b] of the ball, with its canonical unit direction."""

    endpoints: tuple[Vec, Vec]
    direction: Vec


@dataclass(frozen=True)
class LinfDirection:
    """An accepted max direction with its vertex pairing witness."""

    x: Vec
    pairing: tuple[tuple[Vec, Vec], ...]
    complement_basis: tuple[Vec, ...]


@dataclass(frozen=True)
class LinfRejection:
    reason: str  # "unpaired_vertex" | "midpoint_span_wrong"
    vertex: Vec | None = None


@dataclass(frozen=True)
class LatticeCoeffs:
    """Integer combination of a fixed spanning set of ball vertices."""

    spanning_extremes: tuple[Vec, ...]
    coeffs: tuple[int, ...]

    @property
    def point(self) -> Vec:
        out = linalg.zero_vec(len(self.spanning_extremes[0]))
        for c, x in zip(self.coeffs, self.spanning_extremes):
            out = vadd(out, vscale(c, x))
        return out


@dataclass(frozen=True)
class LinearIsometry:
    """Linear map that permutes the ball's vertex set (hence preserves the norm)."""

    matrix: Matrix

    def apply(self, v: Vec) -> Vec:
        return linalg.matvec(self.matrix, v)

    def compose(self, other: "LinearIsometry") -> "LinearIsometry":
        return LinearIsometry(linalg.matmul(self.matrix, other.matrix))

    def inverse(self) -> "LinearIsometry":
        return LinearIsometry(linalg.invert(self.matrix))


def canonical_direction(ball: PolytopeBall, d: Vec) -> Vec:
    """Scale to norm 1, then flip so the first nonzero coordinate is positive."""
    t = norm(ball, d)
    if t == 0:
        raise ValueError("zero vector has no direction")
    unit = vscale(Q(1) / t, d)
    lead = next(c for c in unit if c != 0)
    return unit if lead > 0 else vneg(unit)


def _segment_face_margin(ball: PolytopeBall, i: int, j: int) -> Q | None:
    """Max margin s of a functional h with h.v_i = h.v_j = 1 >= h.v_k + s.

    Positive margin certifies that [v_i, v_j] is a 1-face; None means no
    such functional exists at all.
    """
    vs = ball.vertices
    d = ball.dim
    a_eq = [vs[i] + (Q(0),), vs[j] + (Q(0),)]
    b_eq = [Q(1), Q(1)]
    a_ub = [vs[k] + (Q(1),) for k in range(len(vs)) if k not in (i, j)]
    b_ub = [Q(1)] * len(a_ub)
    a_ub.append((Q(0),) * d + (Q(1),))
    b_ub.append(Q(1))
    objective = (Q(0),) * d + (Q(-1),)  # maximize s
    res = solve(
        LpProblem(
            objective=tuple(objective),
            a_eq=tuple(a_eq),
            b_eq=tuple(b_eq),
            a_ub=tuple(a_ub),
            b_ub=tuple(b_ub),
        )
    )
    if res.status != OPTIMAL:
        return None
    return -res.value


def _extreme_lines_lp(ball: PolytopeBall) -> list[tuple[Vec, Vec]]:
    """Reference 1-face enumeration by exact LP over all vertex pairs."""
    vs = ball.vertices
    out = []
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if vs[j] == vneg(vs[i]):
                continue  # a segment through 0 is never a proper face
            margin = _segment_face_margin(ball, i, j)
            if margin is not None and margin > 0:
                out.append((vs[i], vs[j]))
    return out


@lru_cache(maxsize=128)
def _extreme_lines_cached(ball: PolytopeBall) -> tuple[ExtremeLine, ...]:
    """Vertex pairs whose shared facets have rank d - 1.

    The smallest face holding both vertices has dimension d minus that
    rank, so the rule picks exactly the 1-faces; in dimension 1 the two
    vertices share no facet and the ball is its own extreme line.
    """
    vs = ball.vertices
    normals, bound = ball.facets
    incident = []
    for v in vs:
        dots = [sum(h * c for h, c in zip(row, v)) for row in normals]
        incident.append({(f, dot > 0) for f, dot in enumerate(dots) if abs(dot) == bound})
    lines = [
        ExtremeLine((vs[i], vs[j]), canonical_direction(ball, vsub(vs[i], vs[j])))
        for i, j in combinations(range(len(vs)), 2)
        if linalg.rank([normals[f] for f, _ in incident[i] & incident[j]]) == ball.dim - 1
    ]
    return tuple(sorted(lines, key=lambda e: e.endpoints, reverse=True))


def extreme_lines(ball: PolytopeBall) -> list[ExtremeLine]:
    """All 1-faces of the ball; in dimension 1, the ball itself."""
    return list(_extreme_lines_cached(ball))


def extreme_line_directions(ball: PolytopeBall) -> tuple[Vec, ...]:
    """Distinct canonical extreme-line directions, descending order."""
    return tuple(sorted({e.direction for e in extreme_lines(ball)}, reverse=True))


def _rand_q(rng: random.Random, lo=-2, hi=2, den=64) -> Q:
    return Q(rng.randrange(lo * den, hi * den + 1), den)


def _assert_max_formula(ball, x, w_basis, pairs_u):
    """Battery check of norm(a*x + u) = max(|a|, norm(u)); bug guard only.

    Random samples form a 10 x 10 grid of (alpha, u) pairs so the exact
    gauge LP for each u runs once.
    """
    rng = random.Random(_BATTERY_SEED)
    samples = [(Q(1), u) for u in pairs_u] + [(Q(-1), u) for u in pairs_u]
    alphas = [_rand_q(rng) for _ in range(10)]
    for _ in range(_BATTERY_RANDOM // 10):
        u = linalg.zero_vec(ball.dim)
        for b in w_basis:
            u = vadd(u, vscale(_rand_q(rng), b))
        samples.extend((alpha, u) for alpha in alphas)
    norm_cache: dict[Vec, Q] = {}
    for alpha, u in samples:
        nu = norm_cache.get(u)
        if nu is None:
            nu = norm_cache[u] = norm(ball, u)
        combined = norm(ball, vadd(vscale(alpha, x), u))
        if combined != max(abs(alpha), nu):
            raise CrossCheckFailure(
                f"max formula fails at alpha={alpha}, u={u}: {combined}"
            )


def is_linf_direction(ball: PolytopeBall, x: Vec) -> LinfDirection | LinfRejection:
    """Accept x iff the vertex set pairs across 2x and the midpoints span a complement.

    The pairing plus span conditions are the actual criterion (they force
    the ball to be conv(B_W + x, B_W - x)); the max-formula battery that
    runs on acceptance is a belt-and-braces assertion.
    """
    if norm(ball, x) != 1:
        raise NotUnitNorm(f"{x} does not have norm 1")
    vset = set(ball.vertices)
    unused = set(ball.vertices)
    two_x = vscale(2, x)
    pairs: list[tuple[Vec, Vec]] = []
    for v in ball.vertices:
        if v not in unused:
            continue
        partner = None
        for cand in (vsub(v, two_x), vadd(v, two_x)):
            if cand in vset and cand in unused and cand != v:
                partner = cand
                break
        if partner is None:
            return LinfRejection("unpaired_vertex", v)
        unused.discard(v)
        unused.discard(partner)
        pairs.append((v, partner))
    midpoints = [vscale(Q(1, 2), vadd(a, b)) for a, b in pairs]
    w_basis = linalg.span_basis(midpoints)
    if len(w_basis) != ball.dim - 1 or linalg.in_span(x, w_basis):
        return LinfRejection("midpoint_span_wrong", None)
    _assert_max_formula(ball, x, w_basis, midpoints)
    return LinfDirection(x=x, pairing=tuple(pairs), complement_basis=tuple(w_basis))


def linf_directions(ball: PolytopeBall) -> list[LinfDirection]:
    """Every max direction, found among the extreme-line directions.

    Any max direction is an extreme-line direction, so the candidates
    are exactly the canonical directions of the 1-faces.
    """
    out = []
    for cand in extreme_line_directions(ball):
        got = is_linf_direction(ball, cand)
        if isinstance(got, LinfDirection):
            out.append(got)
    return out


def max_well_spanned_subspace(ball: PolytopeBall) -> tuple[Vec, ...]:
    """Basis of the maximal subspace spanned by mutually dependent extreme-line directions.

    Repeatedly discards any direction outside the span of the remaining
    others (a coloop); rational coordinates keep the continuous lattice
    part trivial, so no coset bookkeeping is needed.  The elimination
    order cannot change the result; processing is lexicographic anyway
    so that runs are reproducible.
    """
    remaining = list(extreme_line_directions(ball))
    changed = True
    while changed:
        changed = False
        for i, x in enumerate(remaining):
            others = remaining[:i] + remaining[i + 1 :]
            if not linalg.in_span(x, others):
                remaining.pop(i)
                changed = True
                break
    return linalg.span_basis(remaining)


@dataclass(frozen=True)
class LinfDecomposition:
    """V = (U (+) linf^d)_max, with the change-of-basis matrix cached."""

    linf_basis: tuple[LinfDirection, ...]
    u_basis: tuple[Vec, ...]
    method_tag: str
    basis_inverse: Matrix

    @property
    def d_inf(self) -> int:
        return len(self.linf_basis)

    @property
    def dim(self) -> int:
        return len(self.u_basis) + len(self.linf_basis)

    def coordinates(self, v: Vec) -> tuple[Vec, Vec]:
        """Split v into (U coordinates, linf coordinates), exactly."""
        coords = linalg.matvec(self.basis_inverse, v)
        k = len(self.u_basis)
        return coords[:k], coords[k:]

    def recompose(self, u_coords: Vec, w_coords: Vec) -> Vec:
        out = linalg.zero_vec(self.dim)
        for c, b in zip(u_coords, self.u_basis):
            out = vadd(out, vscale(c, b))
        for c, d in zip(w_coords, self.linf_basis):
            out = vadd(out, vscale(c, d.x))
        return out

    def u_component(self, v: Vec) -> Vec:
        u_coords, _ = self.coordinates(v)
        out = linalg.zero_vec(self.dim)
        for c, b in zip(u_coords, self.u_basis):
            out = vadd(out, vscale(c, b))
        return out


def linf_decomposition(ball: PolytopeBall) -> LinfDecomposition:
    """Compute the splitting by both methods and cross-check them.

    A CrossCheckFailure here is an implementation bug, never bad input.
    """
    dirs = linf_directions(ball)
    xs = [d.x for d in dirs]
    u_basis = max_well_spanned_subspace(ball)
    full = list(u_basis) + xs
    if len(full) != ball.dim or linalg.rank(full) != ball.dim:
        raise CrossCheckFailure(
            f"direct method gives d_inf={len(xs)}, well-spanned complement "
            f"has dim {len(u_basis)}, ambient dim {ball.dim}"
        )
    rng = random.Random(_BATTERY_SEED ^ 0xD1CE)
    us = []
    for _ in range(10):
        u = linalg.zero_vec(ball.dim)
        for b in u_basis:
            u = vadd(u, vscale(_rand_q(rng), b))
        us.append((u, norm(ball, u)))
    for _ in range(_BATTERY_RANDOM // 10):
        lam = [_rand_q(rng) for _ in xs]
        w = linalg.zero_vec(ball.dim)
        for c, b in zip(lam, xs):
            w = vadd(w, vscale(c, b))
        nw = norm(ball, w)
        if xs and nw != max(abs(c) for c in lam):
            raise CrossCheckFailure("linf part is not isometric to the max norm")
        for u, nu in us:
            if norm(ball, vadd(u, w)) != max(nu, nw):
                raise CrossCheckFailure("decomposition is not a max-norm direct sum")
    columns = [tuple(b[i] for b in full) for i in range(ball.dim)]
    inverse = linalg.invert(tuple(columns))
    return LinfDecomposition(
        linf_basis=tuple(dirs),
        u_basis=tuple(u_basis),
        method_tag="pairing+well_spanned",
        basis_inverse=inverse,
    )


def lattice_cover(ball: PolytopeBall, v: Vec) -> LatticeCoeffs:
    """Nearest integer combination of a fixed spanning set of vertices.

    Rounding each coefficient a_i to floor(a_i + 1/2) lands within d/2 of
    v in the ball's norm; the bound is checked exactly on every call.
    """
    spanning = linalg.independent_subset(ball.vertices, limit=ball.dim)
    a = linalg.solve_columns([tuple(s) for s in spanning], v)
    coeffs = tuple(math.floor(c + Q(1, 2)) for c in a)
    result = LatticeCoeffs(spanning_extremes=tuple(spanning), coeffs=coeffs)
    gap = norm(ball, vsub(v, result.point))
    if gap > Q(ball.dim, 2):
        raise CrossCheckFailure(f"cover bound violated: {gap} > {ball.dim}/2")
    return result


def linear_isometry_group(
    ball: PolytopeBall, vertex_guard: int = 48
) -> list[LinearIsometry]:
    """Brute-force enumeration of all linear maps permuting the vertex set.

    The result is verified to be a group containing +-identity.  Only
    meant for small showcase balls, hence the vertex guard.
    """
    vs = ball.vertices
    n = len(vs)
    if n > vertex_guard:
        raise TooManyVertices(f"{n} vertices exceeds guard {vertex_guard}")
    d = ball.dim
    basis = linalg.independent_subset(vs, limit=d)
    dist: dict[tuple[int, int], Q] = {}

    index = {v: i for i, v in enumerate(vs)}

    def distance(i: int, j: int) -> Q:
        key = (min(i, j), max(i, j))
        got = dist.get(key)
        if got is None:
            got = dist[key] = norm(ball, vsub(vs[key[0]], vs[key[1]]))
        return got

    basis_idx = [index[b] for b in basis]
    found: list[LinearIsometry] = []
    images: list[int] = []

    basis_cols = tuple(tuple(b[i] for b in basis) for i in range(d))
    basis_cols_inv = linalg.invert(basis_cols)

    def extend(k: int) -> None:
        if k == d:
            img_cols = tuple(tuple(vs[t][i] for t in images) for i in range(d))
            matrix = linalg.matmul(img_cols, basis_cols_inv)
            mapped = {linalg.matvec(matrix, v) for v in vs}
            if mapped == set(vs):
                found.append(LinearIsometry(matrix))
            return
        for t in range(n):
            if t in images:
                continue
            if all(
                distance(basis_idx[j], basis_idx[k]) == distance(images[j], t)
                for j in range(k)
            ):
                images.append(t)
                extend(k + 1)
                images.pop()

    extend(0)
    found.sort(key=lambda q: q.matrix)
    members = {q.matrix for q in found}
    ident = linalg.identity_matrix(d)
    neg_ident = tuple(tuple(-c for c in row) for row in ident)
    if ident not in members or neg_ident not in members:
        raise CrossCheckFailure("isometry group must contain +-identity")
    for q in found:
        if linalg.invert(q.matrix) not in members:
            raise CrossCheckFailure("isometry set not closed under inverse")
        for r in found:
            if linalg.matmul(q.matrix, r.matrix) not in members:
                raise CrossCheckFailure("isometry set not closed under composition")
    return found
