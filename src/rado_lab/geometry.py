"""Symmetric polytope unit balls and the norms they induce.

A ball is a finite symmetric vertex set whose convex hull is the unit
ball.  Its norm is the maximum of its facet functionals: the facet
normals are enumerated once per ball, exactly over the integers, when
the ball is validated, and kept on it, so every norm (one vector or all
pairs of a point list) takes the same path whatever the ball's shape.
The same facets decide which input points are extreme, so no linear
program runs at load; an input past `MAX_FACET_SUBSETS` vertex
d-subsets raises `TooManyVertices` when the ball is built.  The
Minkowski gauge and the convex-hull test by exact LP stay as the
reference implementations the tests compare against.

A point list reaches the pair kernels as one `integer_table`: its
coordinates' numerators over a common denominator, an (n, d) int64 array
when they fit, with `table_points` its one Fraction view.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import (
    BadRational,
    DegenerateSpan,
    DimensionMismatch,
    DuplicatePoint,
    NotOnSphere,
    NotSymmetric,
    OutOfDomain,
    TooManyVertices,
)
from .grid import INT64_BOUND
from .linalg import Vec, vneg, vsub
from .lp import OPTIMAL, LpProblem, solve

# Facet enumeration tries every vertex d-subset; this caps it at the cost
# the 48-vertex isometry-group guard already accepts in dimension 4.
MAX_FACET_SUBSETS = math.comb(48, 4)

Facets = tuple[tuple[tuple[int, ...], ...], int]  # (integer normals, bound)


@dataclass(frozen=True)
class PolytopeBall:
    """Unit ball given by its extreme points (canonical descending order)."""

    dim: int
    vertices: tuple[Vec, ...]

    @cached_property
    def facets(self) -> Facets:
        """(normals, bound): one integer normal h of each facet pair +-h.x <= bound.

        `validate_ball` stores them on the balls it builds; a ball made
        directly enumerates them at first use.  norm(x) = max |h.x| / bound.
        """
        return _enumerate_facets(self.dim, self.vertices)


def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _enumerate_facets(dim: int, vertices: Sequence[Vec]) -> Facets:
    """Brute force over vertex d-subsets, in integer coordinates.

    The hyperplane a.w = c through d scaled vertices comes from Cramer's
    rule with c = det(W); it bounds a facet when |a.w| <= |c| holds for
    every vertex w.  A zero determinant means the subset spans no
    hyperplane missing the origin, which is interior, so it is skipped.
    """
    subsets = math.comb(len(vertices), dim)
    if subsets > MAX_FACET_SUBSETS:
        raise TooManyVertices(
            f"{subsets} vertex {dim}-subsets exceeds facet guard {MAX_FACET_SUBSETS}"
        )
    table, scale = integer_table(vertices, dim)
    ws = table.tolist()
    found: dict[tuple[int, ...], int] = {}
    for rows in combinations(ws, dim):
        c = _int_det(rows)
        if c == 0:
            continue
        a = [_int_det([r[:k] + [1] + r[k + 1:] for r in rows]) for k in range(dim)]
        if any(abs(sum(x * y for x, y in zip(a, w))) > abs(c) for w in ws):
            continue
        g = math.gcd(*a)
        if next(x for x in a if x) < 0:
            g = -g
        found[tuple(x // g for x in a)] = abs(c // g)
    # In the ball's own coordinates facet h has bound b / scale; rescale
    # every normal to the least common bound.
    common = math.lcm(*found.values())
    normals = [tuple(x * scale * (common // b) for x in h) for h, b in found.items()]
    g = math.gcd(common, *(x for h in normals for x in h))
    return tuple(sorted(tuple(x // g for x in h) for h in normals)), common // g


def incident_facets(facets: Facets, v: Vec) -> frozenset[tuple[int, bool]]:
    """(facet index, side) of every facet +-h.x = bound that v lies on."""
    normals, bound = facets
    dots = (sum((h * c for h, c in zip(row, v)), Q(0)) for row in normals)
    return frozenset((f, dot > 0) for f, dot in enumerate(dots) if abs(dot) == bound)


def _in_convex_hull(points: Sequence[Vec], target: Vec) -> bool:
    """Reference: exact LP feasibility of target = convex combination of points."""
    if not points:
        return False
    d = len(target)
    n = len(points)
    a_eq = [tuple(p[i] for p in points) for i in range(d)]
    a_eq.append((Q(1),) * n)
    b_eq = tuple(target) + (Q(1),)
    problem = LpProblem(
        objective=(Q(0),) * n, a_eq=tuple(a_eq), b_eq=b_eq, nonneg=True
    )
    return solve(problem).status == OPTIMAL


def validate_ball(vertices: Iterable[Vec]) -> PolytopeBall:
    """Build a ball from a vertex set, dropping redundant points.

    Symmetry violations and degenerate spans are errors: silently fixing
    either would change the norm the caller asked for.  The facets are
    enumerated once on the input points (redundant points do not change
    the hull's facets) and kept on the returned ball; a point is extreme
    iff the normals of its incident facets have rank d.
    """
    vs = [tuple(Q(c) for c in v) for v in vertices]
    if not vs:
        raise DegenerateSpan("empty vertex set")
    dim = len(vs[0])
    if any(len(v) != dim for v in vs):
        raise DimensionMismatch("vertices of mixed dimension")
    seen = set()
    for v in vs:
        if v in seen:
            raise DuplicatePoint(f"duplicate vertex {v}")
        seen.add(v)
    for v in vs:
        if vneg(v) not in seen:
            raise NotSymmetric(f"vertex {v} has no mirror {vneg(v)}")
    if linalg.rank(vs) < dim:
        raise DegenerateSpan("vertices lie in a proper subspace")
    facets = _enumerate_facets(dim, vs)
    normals = facets[0]
    extreme = [
        v for v in vs if linalg.rank([normals[f] for f, _ in incident_facets(facets, v)]) == dim
    ]
    ball = PolytopeBall(dim=dim, vertices=tuple(sorted(extreme, reverse=True)))
    ball.__dict__["facets"] = facets  # prime the cached_property
    return ball


def _gauge_via_lp(ball: PolytopeBall, x: Vec) -> Q:
    """Reference gauge: least total mass of a nonnegative vertex combination."""
    if all(c == 0 for c in x):
        return Q(0)
    n = len(ball.vertices)
    a_eq = [tuple(v[i] for v in ball.vertices) for i in range(ball.dim)]
    problem = LpProblem(
        objective=(Q(1),) * n, a_eq=tuple(a_eq), b_eq=tuple(x), nonneg=True
    )
    res = solve(problem)
    if res.status != OPTIMAL:
        raise DegenerateSpan("gauge LP infeasible; ball does not span")
    return res.value


def integer_table(points: Sequence[Sequence], dim: int, den: int = 1) -> tuple[np.ndarray, int]:
    """(nums, D): the points' coordinates (ints or Fractions) divided by den, as
    an (n, dim) table of numerators over D = den * lcm(their denominators).
    int64 iff every numerator and D lie below `INT64_BOUND`, else Python ints."""
    if any(len(p) != dim for p in points):
        raise DimensionMismatch(f"points of mixed length in dimension {dim}")
    scale = math.lcm(*(c.denominator for p in points for c in p))
    nums = [[c.numerator * (scale // c.denominator) for c in p] for p in points]
    den *= scale
    fits = den < INT64_BOUND and all(-INT64_BOUND < c < INT64_BOUND for p in nums for c in p)
    return np.array(nums, dtype=np.int64 if fits else object).reshape(len(nums), dim), den


def table_points(nums: np.ndarray, den: int) -> tuple[Vec, ...]:
    """The Fraction view of an `integer_table` (nums, den): its rows as vectors."""
    return tuple(tuple(Q(x, den) for x in row) for row in nums.tolist())


class EqualByPoints:
    """Equality and hashing by `_points()`: a sample's fields, its points as Fractions."""

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._points() == other._points()

    def __hash__(self):
        return hash(self._points())


def norm(ball: PolytopeBall, x: Vec) -> Q:
    """Minkowski gauge min{t >= 0 : x in t*B}, exact: max |h.x| / bound over facets."""
    if len(x) != ball.dim:
        raise DimensionMismatch(f"vector of length {len(x)} in dimension {ball.dim}")
    table, den = integer_table([x], ball.dim)
    (p,) = table.tolist()  # Python ints: the sums below cannot overflow
    normals, bound = ball.facets
    return Q(max(abs(sum(h * c for h, c in zip(row, p))) for row in normals), bound * den)


def norm_projections(ball: PolytopeBall, nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """An `integer_table`'s points projected onto every facet normal, over one D.

    Returns the (n, F) matrix Y and D with norm(p_i - p_j) equal to the
    largest |Y[i, f] - Y[j, f]| over f, divided by D.  Y is int64 when those
    differences provably fit, else numpy object dtype holding Python ints;
    the arithmetic is exact either way.
    """
    normals, bound = ball.facets
    reach = int(np.abs(nums).max(initial=0)) * max(sum(abs(h) for h in row) for row in normals)
    dtype = np.int64 if 2 * reach < 2 ** 63 and bound * den < 2 ** 63 else object
    return nums.astype(dtype, copy=False) @ np.array(normals, dtype=dtype).T, bound * den


def norm_keys(ball: PolytopeBall, nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Floor keys K and modulus m: floor(norm(p_i - p_j)) = max_f |K_if - K_jf| // m.

    An int64 `norm_projections` table (Y, D) is its own key table.  A wider
    one is keyed per facet as (floor(Y / D) - least floor) * n + rank(Y mod D)
    over m = n, int64 unless (floor spread + 1) * n reaches `INT64_BOUND`.
    """
    ys, den = norm_projections(ball, nums, den)
    if ys.dtype == np.int64:
        return ys, den
    n = len(nums)
    whole = ys // den
    fracs = (ys - whole * den).T.tolist()
    ranks = [list(map({r: k for k, r in enumerate(sorted(set(c)))}.get, c)) for c in fracs]
    whole -= whole.min(axis=0)
    dtype = np.int64 if (int(whole.max()) + 1) * n < INT64_BOUND else object
    return whole.astype(dtype) * n + np.array(ranks, dtype).T, n


def projection_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The pairwise kernel: N[i, j] = max over f of |a[i, f] - b[j, f]|."""
    out = np.zeros((len(a), len(b)), dtype=a.dtype)
    diff = np.empty_like(out)
    for ya, yb in zip(a.T, b.T):
        np.subtract(ya[:, None], yb[None, :], out=diff)
        np.abs(diff, out=diff)
        np.maximum(out, diff, out=out)
    return out


def pairwise_norm_numerators(
    ball: PolytopeBall, nums: np.ndarray, den: int
) -> tuple[np.ndarray, int]:
    """Exact n x n N and one D with norm(p_i - p_j) = N[i, j] / D on an `integer_table`."""
    ys, den = norm_projections(ball, nums, den)
    return projection_distances(ys, ys), den


def closed_ball_membership(ball: PolytopeBall, center: Vec, r: Q, x: Vec) -> bool:
    """Exact test of norm(x - center) <= r."""
    if r < 0:
        raise OutOfDomain("radius must be nonnegative")
    return norm(ball, vsub(x, center)) <= r


def is_extreme_point(ball: PolytopeBall, v: Vec) -> bool:
    """Convexity definition: v is not a convex combination of the others."""
    if norm(ball, v) != 1:
        raise NotOnSphere(f"{v} does not have norm 1")
    others = [w for w in ball.vertices if w != v]
    return not _in_convex_hull(others, v)


def intersection_coordinate_range(
    ball: PolytopeBall, c1: Vec, r1: Q, c2: Vec, r2: Q, coord: int
) -> tuple[Q, Q] | None:
    """Exact [min, max] of one coordinate over B(c1,r1) & B(c2,r2).

    Returns None when the intersection is empty.  A point z of the
    intersection is parameterized by two convex-coefficient vectors,
    z = c1 + r1 * sum(lam_i v_i) = c2 + r2 * sum(mu_j v_j).
    """
    vs = ball.vertices
    n = len(vs)
    d = ball.dim
    a_eq: list[tuple[Q, ...]] = []
    b_eq: list[Q] = []
    for i in range(d):
        a_eq.append(
            tuple(r1 * v[i] for v in vs) + tuple(-r2 * v[i] for v in vs)
        )
        b_eq.append(c2[i] - c1[i])
    a_eq.append((Q(1),) * n + (Q(0),) * n)
    b_eq.append(Q(1))
    a_eq.append((Q(0),) * n + (Q(1),) * n)
    b_eq.append(Q(1))
    out: list[Q] = []
    for sign in (Q(1), Q(-1)):
        objective = tuple(sign * r1 * v[coord] for v in vs) + (Q(0),) * n
        res = solve(
            LpProblem(objective=objective, a_eq=tuple(a_eq), b_eq=tuple(b_eq), nonneg=True)
        )
        if res.status != OPTIMAL:
            return None
        lam = res.point[:n]
        z = c1[coord] + r1 * sum((l * v[coord] for l, v in zip(lam, vs)), Q(0))
        out.append(z)
    return (min(out), max(out))


def is_extreme_via_balls(ball: PolytopeBall, v: Vec) -> bool:
    """Metric characterisation: B(0,1) & B(2v,1) is the single point {v}.

    Independent of is_extreme_point; the two must agree on every vertex.
    """
    if norm(ball, v) != 1:
        raise NotOnSphere(f"{v} does not have norm 1")
    center2 = tuple(2 * c for c in v)
    for coord in range(ball.dim):
        rng = intersection_coordinate_range(ball, linalg.zero_vec(ball.dim), Q(1), center2, Q(1), coord)
        if rng is None or rng[0] != rng[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON interchange: coordinates are exact "p/q" or integer literals.

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def parse_rational(text: str) -> Q:
    """Parse an exact rational literal; floats are refused.

    The validated literal is split at its slash and read with `int`, which
    takes the same digits `Fraction(text)` would, without its second regex.
    """
    s = str(text).strip()
    if not _RATIONAL_RE.match(s):
        raise BadRational(f"not an exact rational literal: {text!r}")
    num, _, den = s.partition("/")
    return Q(int(num), int(den or 1))


def vec_to_json(v: Vec) -> list[str]:
    return [str(c) for c in v]


def table_to_json(nums: np.ndarray, den: int) -> list[list[str]]:
    """`vec_to_json` of each `table_points` row, read off the integers:
    str(Fraction(x, den)) is x and den over their gcd g, as "p/q" or "p"."""
    def text(x: int, g: int) -> str:
        return f"{x // g}/{den // g}" if g != den else str(x // g)
    return [[text(x, math.gcd(x, den)) for x in row] for row in nums.tolist()]


def vec_from_json(obj: Sequence[str]) -> Vec:
    return tuple(parse_rational(c) for c in obj)


def ball_to_json(ball: PolytopeBall) -> dict:
    return {"dim": ball.dim, "vertices": [vec_to_json(v) for v in ball.vertices]}


def ball_from_json(obj: dict) -> PolytopeBall:
    dim = obj["dim"]
    if type(dim) is not int or dim < 1:  # isinstance(True, int) holds
        raise BadRational(f"dim must be a positive integer, got {dim!r}")
    ball = validate_ball([vec_from_json(v) for v in obj["vertices"]])
    if ball.dim != dim:
        raise DimensionMismatch("declared dim does not match vertices")
    return ball


def dump_ball(ball: PolytopeBall, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ball_to_json(ball), fh, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Catalog of showcase balls used by the CLI and the test corpus.


def cube_ball(d: int) -> PolytopeBall:
    """Unit ball of the max norm: vertices {-1,+1}^d."""
    if d < 1:
        raise OutOfDomain("dimension must be >= 1")
    verts = []
    for bits in range(2 ** d):
        verts.append(tuple(Q(1) if bits >> i & 1 else Q(-1) for i in range(d)))
    return validate_ball(verts)


def cross_polytope_ball(d: int) -> PolytopeBall:
    """Unit ball of the sum norm: vertices +-e_i."""
    if d < 1:
        raise OutOfDomain("dimension must be >= 1")
    verts = []
    for i in range(d):
        for s in (1, -1):
            e = [Q(0)] * d
            e[i] = Q(s)
            verts.append(tuple(e))
    return validate_ball(verts)


def square_ball() -> PolytopeBall:
    return cube_ball(2)


def l1_plane_ball() -> PolytopeBall:
    return cross_polytope_ball(2)


def hexagon_ball() -> PolytopeBall:
    """Irregular symmetric hexagon +-(1,0), +-(0,1), +-(1,1)."""
    pts = [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)]
    return validate_ball([tuple(Q(c) for c in p) for p in pts])


def hexagonal_prism_ball() -> PolytopeBall:
    """conv(H x {-1,+1}) for the irregular hexagon H: one max-norm axis."""
    verts = []
    for v in hexagon_ball().vertices:
        for s in (Q(1), Q(-1)):
            verts.append(v + (s,))
    return validate_ball(verts)


BUILTIN_BALLS = {
    "square": square_ball,
    "cube_1": lambda: cube_ball(1),
    "cube_2": lambda: cube_ball(2),
    "cube_3": lambda: cube_ball(3),
    "cube_4": lambda: cube_ball(4),
    "cross_polytope_2": lambda: cross_polytope_ball(2),
    "cross_polytope_3": lambda: cross_polytope_ball(3),
    "cross_polytope_4": lambda: cross_polytope_ball(4),
    "hexagon": hexagon_ball,
    "hexagonal_prism": hexagonal_prism_ball,
    "l1_plane": l1_plane_ball,
}
