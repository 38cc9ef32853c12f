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
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations
from operator import mul

from . import linalg
from .errors import CrossCheckFailure, NotUnitNorm, OutOfDomain, TooManyVertices
from .geometry import PolytopeBall, incident_facets, integer_table, norm
from .linalg import Matrix, Vec, vadd, vneg, vscale, vsub
from .lp import OPTIMAL, LpProblem, solve


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
        return linalg.matvec(linalg.transpose(self.spanning_extremes), self.coeffs)


@dataclass(frozen=True)
class LinearIsometry:
    """Linear map that permutes the ball's vertex set (hence preserves the norm)."""

    matrix: Matrix

    def apply(self, v: Vec) -> Vec:
        return linalg.matvec(self.matrix, v)


def canonical_direction(ball: PolytopeBall, d: Vec) -> Vec:
    """Scale to norm 1, then flip so the first nonzero coordinate is positive."""
    t = norm(ball, d)
    if t == 0:
        raise OutOfDomain("zero vector has no direction")
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
    normals = ball.facets[0]
    incident = [incident_facets(ball.facets, v) for v in vs]
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


def is_linf_direction(ball: PolytopeBall, x: Vec) -> LinfDirection | LinfRejection:
    """Accept x iff the vertex set pairs across 2x and the midpoints span a complement.

    The pairing plus span conditions are an exact certificate: they force
    the ball to be conv(M) + [-x, x] for the midpoint set M in the
    complement W, hence norm(a*x + u) = max(|a|, norm(u)) for u in W.
    """
    if norm(ball, x) != 1:
        raise NotUnitNorm(f"{x} does not have norm 1")
    unused = set(ball.vertices)
    two_x = vscale(2, x)
    pairs: list[tuple[Vec, Vec]] = []
    for v in ball.vertices:
        if v not in unused:
            continue
        partner = None
        for cand in (vsub(v, two_x), vadd(v, two_x)):
            if cand in unused:
                partner = cand
                break
        if partner is None:
            return LinfRejection("unpaired_vertex", v)
        unused.discard(v)
        unused.discard(partner)
        pairs.append((v, partner))
    midpoints = [vscale(Q(1, 2), vadd(a, b)) for a, b in pairs]
    w_basis = linalg.independent_subset(midpoints)
    if len(w_basis) != ball.dim - 1 or linalg.in_span(x, w_basis):
        return LinfRejection("midpoint_span_wrong", None)
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
    return tuple(linalg.independent_subset(remaining))


@dataclass(frozen=True)
class LinfDecomposition:
    """V = (U (+) linf^d)_max, with the change-of-basis matrix cached."""

    linf_basis: tuple[LinfDirection, ...]
    u_basis: tuple[Vec, ...]
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
        basis = self.u_basis + tuple(d.x for d in self.linf_basis)
        return linalg.matvec(linalg.transpose(basis), u_coords + w_coords)


def linf_decomposition(ball: PolytopeBall) -> LinfDecomposition:
    """Compute the splitting by both methods and cross-check them.

    Exact certificate of the max-sum formula
    norm(u + sum a_i x_i) = max(norm(u), max |a_i|): every basis vector
    other than x_i lies in x_i's complement, so the formula peels off one
    max direction at a time.  A CrossCheckFailure here is an
    implementation bug, never bad input.
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
    for i, d in enumerate(dirs):
        others = list(u_basis) + xs[:i] + xs[i + 1:]
        if linalg.rank(list(d.complement_basis) + others) != ball.dim - 1:
            raise CrossCheckFailure(f"a basis vector leaves the complement of {d.x}")
    return LinfDecomposition(
        linf_basis=tuple(dirs),
        u_basis=u_basis,
        basis_inverse=linalg.invert(linalg.transpose(full)),
    )


def lattice_cover(ball: PolytopeBall, v: Vec) -> LatticeCoeffs:
    """Nearest integer combination of a fixed spanning set of vertices.

    Rounding each coefficient a_i to floor(a_i + 1/2) lands within d/2 of
    v in the ball's norm; the bound is checked exactly on every call.
    """
    spanning = linalg.independent_subset(ball.vertices, limit=ball.dim)
    a = linalg.matvec(linalg.invert(linalg.transpose(spanning)), v)
    coeffs = tuple(math.floor(c + Q(1, 2)) for c in a)
    result = LatticeCoeffs(spanning_extremes=tuple(spanning), coeffs=coeffs)
    gap = norm(ball, vsub(v, result.point))
    if gap > Q(ball.dim, 2):
        raise CrossCheckFailure(f"cover bound violated: {gap} > {ball.dim}/2")
    return result


def _check_vertex_permutation_group(perms: set[tuple[int, ...]], neg: tuple[int, ...]) -> None:
    """Assert the vertex permutations of a map set form a group containing
    +-identity (neg is the permutation of -identity).

    The vertices span R^d, so a linear map is determined by its vertex
    permutation and matrix composition is exactly the permutations'
    composition.  Generators are taken greedily from the sorted set until
    their closure, walked breadth first by right multiplications from the
    identity, holds it all.  A closure is a group, so the walk fails as
    soon as it leaves the set.
    """
    ident = tuple(range(len(neg)))
    if ident not in perms or neg not in perms:
        raise CrossCheckFailure("isometry group must contain +-identity")
    gens: list[tuple[int, ...]] = []
    closure = {ident}
    for q in sorted(perms):
        if q in closure:
            continue
        gens.append(q)
        closure, frontier = {ident}, {ident}
        while frontier:
            frontier = {tuple([p[t] for t in r]) for p in frontier for r in gens} - closure
            if not frontier <= perms:
                raise CrossCheckFailure("isometry set not closed under composition")
            closure |= frontier


VERTEX_GUARD = 48


def _colour_matches(colours: list[list[int]], basis: list[int]) -> list[tuple[int, ...]]:
    """Every vertex index tuple t with colours[t_j][t_k] == colours[b_j][b_k] for j <= k."""
    found: list[tuple[int, ...]] = [()]
    for b in basis:
        found = [t + (s,) for t in found for s in range(len(colours))
                 if all(colours[x][s] == colours[y][b] for x, y in zip(t + (s,), basis))]
    return found


def _products(rows, vectors) -> list[list[int]]:
    """rows @ w for each vector w, in Python integers."""
    return [[sum(map(mul, r, w)) for r in rows] for w in vectors]


def linear_isometry_group(ball: PolytopeBall) -> list[LinearIsometry]:
    """All linear maps permuting the vertex set, by a Gram-colour pruned search.

    Such a map keeps each colour v_i^T Q^-1 v_j, Q = sum v v^T (Bremner et al.,
    "Computing symmetry groups of polyhedra", 2014): only basis images with the
    basis' colours are tried, each checked in integers.  The maps' vertex
    permutations must form a group containing +-identity.  Small balls only.
    """
    vs = ball.vertices
    if len(vs) > VERTEX_GUARD:
        raise TooManyVertices(f"{len(vs)} vertices exceeds guard {VERTEX_GUARD}")
    ints = integer_table(vs, ball.dim)[0].tolist()
    gram_inv = linalg.invert(linalg.matmul(linalg.transpose(ints), ints))
    q_inv = integer_table(gram_inv, ball.dim)[0].tolist()
    index = {v: i for i, v in enumerate(vs)}
    basis = [index[b] for b in linalg.independent_subset(vs, limit=ball.dim)]
    # v_i's basis coordinates are coords[i] / den, so den * v_j is a leaf's lookup key.
    inv, den = integer_table(linalg.invert(linalg.transpose([ints[b] for b in basis])), ball.dim)
    inv = inv.tolist()
    coords = _products(inv, ints)
    keys = {tuple([den * x for x in w]): i for i, w in enumerate(ints)}
    maps: dict[tuple[int, ...], LinearIsometry] = {}
    for images in _colour_matches(_products(ints, _products(q_inv, ints)), basis):
        rows = list(zip(*[ints[t] for t in images]))
        perm = tuple([keys.get(tuple(x)) for x in _products(rows, coords)])
        if None not in perm and len(set(perm)) == len(vs):
            matrix = _products(list(zip(*inv)), rows)
            maps[perm] = LinearIsometry(tuple(tuple(Q(x, den) for x in r) for r in matrix))
    _check_vertex_permutation_group(set(maps), tuple(index[vneg(v)] for v in vs))
    return sorted(maps.values(), key=lambda q: q.matrix)
