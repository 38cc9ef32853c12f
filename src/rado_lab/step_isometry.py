"""Step-isometries: maps preserving the integer part of all pairwise distances.

On the max-norm part they form an explicit family: permute axes, flip
signs, and rebase the fractional part of each coordinate through an
increasing bijection of [0,1).  Such bijections are represented here as
piecewise-linear maps with rational breakpoints, which keeps evaluation,
inversion and composition exact.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import itemgetter
from typing import Sequence

import numpy as np

from . import linalg
from .decomposition import LinfDecomposition
from .errors import (
    DimensionMismatch,
    NotAffineBasis,
    NotAnIsometry,
    NotInjective,
    OutOfDomain,
)
from .geometry import PolytopeBall, integer_table, norm_keys, pairwise_norm_numerators
from .geometry import projection_distances
from .geometry import norm  # noqa: F401  (perfbench/tracing.py wraps step_isometry.norm)
from .linalg import Matrix, Vec, vadd, vsub


@dataclass(frozen=True)
class MonotoneBijection01:
    """Piecewise-linear increasing bijection of [0,1), anchored at (0,0).

    The implied right endpoint is (1,1); breakpoints strictly increase in
    both coordinates and stay inside [0,1) x [0,1).
    """

    breakpoints: tuple[tuple[Q, Q], ...] = ((Q(0), Q(0)),)

    def __post_init__(self):
        bps = self.breakpoints
        if not bps or bps[0] != (Q(0), Q(0)):
            raise OutOfDomain("breakpoints must start at (0, 0)")
        for (t0, y0), (t1, y1) in zip(bps, bps[1:]):
            if not (t0 < t1 and y0 < y1):
                raise OutOfDomain("breakpoints must strictly increase")
        if any(not (0 <= t < 1 and 0 <= y < 1) for t, y in bps):
            raise OutOfDomain("breakpoints must lie in [0,1) x [0,1)")

    def eval(self, t: Q) -> Q:
        if not 0 <= t < 1:
            raise OutOfDomain(f"argument {t} outside [0, 1)")
        bps = self.breakpoints
        lo = bisect_right(bps, t, key=itemgetter(0)) - 1
        t0, y0 = bps[lo]
        t1, y1 = bps[lo + 1] if lo + 1 < len(bps) else (Q(1), Q(1))
        return y0 + (t - t0) * (y1 - y0) / (t1 - t0)

    def inverse(self) -> "MonotoneBijection01":
        return MonotoneBijection01(tuple((y, t) for t, y in self.breakpoints))


IDENTITY_G = MonotoneBijection01()


def _unfold(g: MonotoneBijection01, t: Q) -> Q:
    """The shift-equivariant extension floor(t) + g(frac(t))."""
    k = math.floor(t)
    return k + g.eval(t - k)


def _invert_axis(eps: int, g: MonotoneBijection01, o: Q) -> tuple[int, MonotoneBijection01, Q]:
    """Family form (eps, g', o') of the inverse of f(t) = eps*unfold(g, t) + o.

    The inverse keeps eps, and its offset is o' = f^-1(0) = unfold(g^-1, -eps*o).
    On [0, 1), g'(s) = eps*(f^-1(s) - o') is piecewise linear with breaks
    where f^-1(s) is a breakpoint k + t_i of unfold(g), that is at
    s = f(k + t_i) = eps*(k + y_i) + o.  As s runs over [0, 1), f^-1(s) stays
    within 1 of o', so k ranges over floor(o') - 1 .. floor(o') + 1.
    """
    o_inv = _unfold(g.inverse(), -eps * o)
    k0 = math.floor(o_inv)
    pts = {(Q(0), Q(0))}
    for k in (k0 - 1, k0, k0 + 1):
        for t, y in g.breakpoints:
            s = eps * (k + y) + o
            if 0 <= s < 1:
                pts.add((s, eps * (k + t - o_inv)))
    return eps, MonotoneBijection01(tuple(sorted(pts))), o_inv


@dataclass(frozen=True)
class StepIsometrySpec:
    """Axis permutation + signs + per-axis fractional bijections + offset.

    Maps x to: out[sigma[i]] = eps[i] * (floor(x_i) + g_i(frac(x_i))) + offset[sigma[i]].
    """

    d: int
    sigma: tuple[int, ...]
    eps: tuple[int, ...]
    g: tuple[MonotoneBijection01, ...]
    offset: Vec

    def __post_init__(self):
        if sorted(self.sigma) != list(range(self.d)):
            raise OutOfDomain("sigma must be a permutation of range(d)")
        if len(self.eps) != self.d or any(e not in (1, -1) for e in self.eps):
            raise OutOfDomain("eps must be a vector of +-1 of length d")
        if len(self.g) != self.d or len(self.offset) != self.d:
            raise OutOfDomain("g and offset must have length d")

    def inverse(self) -> "StepIsometrySpec":
        """The inverse map, again in the family.

        Input axis i lands on output axis j = sigma[i] with offset
        offset[j]; the inverse sends axis j back to axis i through
        `_invert_axis(eps[i], g[i], offset[j])`.
        """
        sigma_inv = [0] * self.d
        for i, j in enumerate(self.sigma):
            sigma_inv[j] = i
        axes = [
            _invert_axis(self.eps[i], self.g[i], self.offset[j]) for j, i in enumerate(sigma_inv)
        ]
        return StepIsometrySpec(
            d=self.d, sigma=tuple(sigma_inv), eps=tuple(a[0] for a in axes),
            g=tuple(a[1] for a in axes), offset=tuple(axes[j][2] for j in self.sigma),
        )


def identity_spec(d: int) -> StepIsometrySpec:
    return StepIsometrySpec(
        d=d, sigma=tuple(range(d)), eps=(1,) * d, g=(IDENTITY_G,) * d,
        offset=linalg.zero_vec(d),
    )


def apply_linf(spec: StepIsometrySpec, x: Vec) -> Vec:
    """Exact evaluation of the family map on max-norm coordinates."""
    if len(x) != spec.d:
        raise DimensionMismatch(f"point of length {len(x)}, spec dimension {spec.d}")
    out = [Q(0)] * spec.d
    for i, xi in enumerate(x):
        out[spec.sigma[i]] = spec.eps[i] * _unfold(spec.g[i], Q(xi))
    return tuple(o + off for o, off in zip(out, spec.offset))


@dataclass(frozen=True)
class AffineMap:
    matrix: Matrix
    translation: Vec

    def apply(self, v: Vec) -> Vec:
        return vadd(linalg.matvec(self.matrix, v), self.translation)


@dataclass(frozen=True)
class FactorizedStepIsometry:
    """f = f_U (+) f_linf in the coordinates of a decomposition.

    u_map acts on U coordinates (affine, its linear part an exact isometry
    of the U part); w_map acts on the max-norm coordinates.  The isometry
    is certified exactly on the ball's own vertices.  In the
    decomposition's coordinates the ball is U's unit ball times a cube, so
    the linear part of u_map (+) identity permutes the ball's vertices iff
    u_map's linear part permutes U's, as `affine_isometry_from_basis`
    requires of the whole ball.  With U = 0 there is nothing to check.
    """

    ball: PolytopeBall
    decomposition: LinfDecomposition
    u_map: AffineMap
    w_map: StepIsometrySpec

    def __post_init__(self):
        k = len(self.decomposition.u_basis)
        if len(self.u_map.translation) != k:
            raise DimensionMismatch("u_map dimension != dim U")
        if self.w_map.d != self.decomposition.d_inf:
            raise DimensionMismatch("w_map dimension != d_inf")
        if k:
            dec, m = self.decomposition, self.u_map.matrix
            image = {
                dec.recompose(linalg.matvec(m, u), w)
                for u, w in map(dec.coordinates, self.ball.vertices)
            }
            if image != set(self.ball.vertices):
                raise NotAnIsometry("u_map does not permute the vertices of U's unit ball")


def apply_factorized(f: FactorizedStepIsometry, x: Vec) -> Vec:
    u_coords, w_coords = f.decomposition.coordinates(x)
    return f.decomposition.recompose(f.u_map.apply(u_coords), apply_linf(f.w_map, w_coords))


@dataclass(frozen=True)
class StepIsometryCheck:
    ok: bool
    pair_indices: tuple[int, int] | None = None
    floor_domain: int | None = None
    floor_image: int | None = None


def _injective_sides(pairs: Sequence[tuple[Vec, Vec]]) -> tuple[list[Vec], list[Vec]]:
    """The domain and image points of a finite map, refusing repeats on either side."""
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise NotInjective("repeated domain or image point")
    return xs, ys


def verify_step_isometry(
    ball: PolytopeBall, pairs: Sequence[tuple[Vec, Vec]]
) -> StepIsometryCheck:
    """Exact check that floor(norm(x_i - x_j)) = floor(norm(y_i - y_j)) for all i < j.

    The pair list represents a finite bijection x_i -> y_i; repeated
    domain or image points are rejected.  Each side's floors come from its
    `norm_keys`, not from pairwise numerators (178 bits on a rebased image).
    """
    sides = [norm_keys(ball, *integer_table(side, ball.dim)) for side in _injective_sides(pairs)]
    floors_domain, floors_image = (projection_distances(k, k) // mod for k, mod in sides)
    # Both floor matrices are symmetric with zero diagonals, so the first
    # mismatch in row-major order already has i < j.
    bad = np.flatnonzero(floors_domain != floors_image)
    if bad.size:
        i, j = divmod(int(bad[0]), len(pairs))
        return StepIsometryCheck(
            False, (i, j), int(floors_domain[i, j]), int(floors_image[i, j])
        )
    return StepIsometryCheck(True)


def random_step_isometry(d: int, breakpoint_count: int, seed: int) -> StepIsometrySpec:
    """Seeded sampler over the family: uniform permutation and signs,
    sorted random rational breakpoints per axis, rational offset."""
    if d < 1 or breakpoint_count < 0:
        raise OutOfDomain("need d >= 1 and breakpoint_count >= 0")
    rng = random.Random(seed)
    sigma = list(range(d))
    rng.shuffle(sigma)
    eps = tuple(rng.choice((1, -1)) for _ in range(d))
    den = 2 ** 16
    gs = []
    for _ in range(d):
        ts = sorted(rng.sample(range(1, den), breakpoint_count))
        ys = sorted(rng.sample(range(1, den), breakpoint_count))
        bps = ((Q(0), Q(0)),) + tuple((Q(t, den), Q(y, den)) for t, y in zip(ts, ys))
        gs.append(MonotoneBijection01(bps))
    offset = tuple(Q(rng.randrange(-2 * den, 2 * den), den) for _ in range(d))
    return StepIsometrySpec(d=d, sigma=tuple(sigma), eps=eps, g=tuple(gs), offset=offset)


def affine_isometry_from_basis(
    ball: PolytopeBall, domain_points: Sequence[Vec], image_points: Sequence[Vec]
) -> AffineMap:
    """The unique affine map sending one affine basis to another, accepted
    only when its linear part permutes the ball's vertex set.

    A norm isometry is pinned down by finitely many images this way.
    """
    d = ball.dim
    if len(domain_points) != d + 1 or len(image_points) != d + 1:
        raise NotAffineBasis(f"need exactly {d + 1} points")
    p0, q0 = domain_points[0], image_points[0]
    dom = [vsub(p, p0) for p in domain_points[1:]]
    img = [vsub(q, q0) for q in image_points[1:]]
    if linalg.rank(dom) != d:
        raise NotAffineBasis("domain points are affinely dependent")
    matrix = linalg.matmul(linalg.transpose(img), linalg.invert(linalg.transpose(dom)))
    if {linalg.matvec(matrix, v) for v in ball.vertices} != set(ball.vertices):
        raise NotAnIsometry("linear part does not preserve the vertex set")
    translation = vsub(q0, linalg.matvec(matrix, p0))
    return AffineMap(matrix, translation)


def check_factorization_consistency(
    ball: PolytopeBall,
    decomposition: LinfDecomposition,
    pairs: Sequence[tuple[Vec, Vec]],
) -> bool:
    """Necessary conditions for a finite map to factor over the decomposition:
    equal U-components map to equal U-components, and the induced U-map is
    exactly distance preserving on the observed points, by one
    `pairwise_norm_numerators` matrix per side."""
    induced: dict[Vec, Vec] = {}
    for x, y in zip(*_injective_sides(pairs)):
        ux, _ = decomposition.coordinates(x)
        uy, _ = decomposition.coordinates(y)
        if induced.setdefault(ux, uy) != uy:
            return False
    zero_w = linalg.zero_vec(decomposition.d_inf)
    sides = [decomposition.recompose(u, zero_w) for u in (*induced.keys(), *induced.values())]
    nums, den = integer_table(sides, ball.dim)  # one denominator for both sides
    before, after = (pairwise_norm_numerators(ball, half, den)[0] for half in np.split(nums, 2))
    return np.array_equal(before, after)
