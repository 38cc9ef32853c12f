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
from dataclasses import dataclass
from fractions import Fraction as Q
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
from .geometry import PolytopeBall, norm, pairwise_norm_numerators
from .linalg import Matrix, Vec, vadd, vsub

_VERIFY_SEED = 0xFACADE


def _frac(x: Q) -> Q:
    return x - math.floor(x)


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
            raise ValueError("breakpoints must start at (0, 0)")
        for (t0, y0), (t1, y1) in zip(bps, bps[1:]):
            if not (t0 < t1 and y0 < y1):
                raise ValueError("breakpoints must strictly increase")
        if any(not (0 <= t < 1 and 0 <= y < 1) for t, y in bps):
            raise ValueError("breakpoints must lie in [0,1) x [0,1)")

    def eval(self, t: Q) -> Q:
        if not 0 <= t < 1:
            raise OutOfDomain(f"argument {t} outside [0, 1)")
        bps = self.breakpoints
        lo = 0
        for i in range(len(bps) - 1, -1, -1):
            if bps[i][0] <= t:
                lo = i
                break
        t0, y0 = bps[lo]
        t1, y1 = bps[lo + 1] if lo + 1 < len(bps) else (Q(1), Q(1))
        return y0 + (t - t0) * (y1 - y0) / (t1 - t0)

    def inverse(self) -> "MonotoneBijection01":
        return MonotoneBijection01(tuple((y, t) for t, y in self.breakpoints))


IDENTITY_G = MonotoneBijection01()


def eval_g(g: MonotoneBijection01, t: Q) -> Q:
    """Exact evaluation of a fractional-part bijection at rational t."""
    return g.eval(Q(t))


def _unfold(g: MonotoneBijection01, t: Q) -> Q:
    """The shift-equivariant extension floor(t) + g(frac(t))."""
    k = math.floor(t)
    return k + g.eval(t - k)


def _reflect(g: MonotoneBijection01) -> MonotoneBijection01:
    """u -> 1 - g(1 - u), the conjugate under reflection of the circle."""
    pts = [(Q(0), Q(0))]
    for t, y in g.breakpoints:
        if t != 0:
            pts.append((1 - t, 1 - y))
    return MonotoneBijection01(tuple(sorted(pts)))


def _shift_precompose(g: MonotoneBijection01, rho: Q) -> tuple[MonotoneBijection01, Q]:
    """Split the unfolded map at a shift: returns (g2, c) with

    floor(s) + g(frac(s + rho)) ... more precisely
    unfold(g, s + rho) = floor(s) + g2(frac(s)) + c   for all s.
    """
    if rho == 0:
        return g, Q(0)
    g_rho = g.eval(rho)
    pts = {(Q(0), Q(0))}
    for t, y in g.breakpoints:
        if t >= rho:
            pts.add((t - rho, y - g_rho))
        else:
            pts.add((t + 1 - rho, y + 1 - g_rho))
    return MonotoneBijection01(tuple(sorted(pts))), g_rho


def _invert_axis(eps: int, g: MonotoneBijection01, o: Q) -> tuple[int, MonotoneBijection01, Q]:
    """Family form (eps', g', o') of the inverse of t -> eps*unfold(g, t) + o."""
    h = g.inverse()
    beta = -o
    b_int = math.floor(beta)
    rho = beta - b_int
    if eps == 1:
        g2, c = _shift_precompose(h, rho)
        return 1, g2, c + b_int
    g2, c = _shift_precompose(_reflect(h), rho)
    return -1, g2, -(c + b_int)


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
            raise ValueError("sigma must be a permutation of range(d)")
        if len(self.eps) != self.d or any(e not in (1, -1) for e in self.eps):
            raise ValueError("eps must be a vector of +-1 of length d")
        if len(self.g) != self.d or len(self.offset) != self.d:
            raise ValueError("g and offset must have length d")

    def inverse(self) -> "StepIsometrySpec":
        sigma_inv = [0] * self.d
        for i, j in enumerate(self.sigma):
            sigma_inv[j] = i
        eps2, g2, off2 = [0] * self.d, [IDENTITY_G] * self.d, [Q(0)] * self.d
        for j in range(self.d):
            i = sigma_inv[j]
            e, gg, oo = _invert_axis(self.eps[i], self.g[i], self.offset[j])
            eps2[j] = e
            g2[j] = gg
            off2[i] = oo
        return StepIsometrySpec(
            d=self.d, sigma=tuple(sigma_inv), eps=tuple(eps2), g=tuple(g2),
            offset=tuple(off2),
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


def identity_affine(d: int) -> AffineMap:
    return AffineMap(linalg.identity_matrix(d), linalg.zero_vec(d))


@dataclass(frozen=True)
class FactorizedStepIsometry:
    """f = f_U (+) f_linf in the coordinates of a decomposition.

    u_map acts on U coordinates (affine, its linear part an exact isometry
    of the U part); w_map acts on the max-norm coordinates.
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
        # The linear part must preserve the norm on U; checked on a battery.
        rng = random.Random(_VERIFY_SEED)
        samples = [linalg.identity_matrix(k)[i] for i in range(k)]
        for _ in range(50):
            samples.append(tuple(Q(rng.randrange(-64, 65), 32) for _ in range(k)))
        for a in samples:
            before = norm(self.ball, self.decomposition.recompose(a, linalg.zero_vec(self.w_map.d)))
            img = linalg.matvec(self.u_map.matrix, a)
            after = norm(self.ball, self.decomposition.recompose(img, linalg.zero_vec(self.w_map.d)))
            if before != after:
                raise NotAnIsometry(f"u_map distorts norm at U-coordinates {a}")


def apply_factorized(f: FactorizedStepIsometry, x: Vec) -> Vec:
    u_coords, w_coords = f.decomposition.coordinates(x)
    return f.decomposition.recompose(f.u_map.apply(u_coords), apply_linf(f.w_map, w_coords))


@dataclass(frozen=True)
class StepIsometryCheck:
    ok: bool
    pair_indices: tuple[int, int] | None = None
    floor_domain: int | None = None
    floor_image: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_step_isometry(
    ball: PolytopeBall, pairs: Sequence[tuple[Vec, Vec]]
) -> StepIsometryCheck:
    """Exact check that floor(norm(x_i - x_j)) = floor(norm(y_i - y_j)) for all i < j.

    The pair list represents a finite bijection x_i -> y_i; repeated
    domain or image points are rejected.
    """
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise NotInjective("repeated domain or image point")
    nums, den = pairwise_norm_numerators(ball, xs)
    floors_domain = nums // den
    nums, den = pairwise_norm_numerators(ball, ys)
    floors_image = nums // den
    bad = np.flatnonzero(np.triu(floors_domain != floors_image, k=1))
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
        raise ValueError("need d >= 1 and breakpoint_count >= 0")
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
    dom_cols = tuple(tuple(v[i] for v in dom) for i in range(d))
    img_cols = tuple(tuple(v[i] for v in img) for i in range(d))
    matrix = linalg.matmul(img_cols, linalg.invert(dom_cols))
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
    exactly distance preserving on the observed points."""
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if len(set(xs)) != len(xs) or len(set(ys)) != len(ys):
        raise NotInjective("repeated domain or image point")
    induced: dict[Vec, Vec] = {}
    for x, y in pairs:
        ux, _ = decomposition.coordinates(x)
        uy, _ = decomposition.coordinates(y)
        if ux in induced and induced[ux] != uy:
            return False
        induced[ux] = uy
    observed = sorted(induced.items())
    zero_w = linalg.zero_vec(decomposition.d_inf)
    for i in range(len(observed)):
        for j in range(i + 1, len(observed)):
            (ua, va), (ub, vb) = observed[i], observed[j]
            before = norm(ball, decomposition.recompose(vsub(ua, ub), zero_w))
            after = norm(ball, decomposition.recompose(vsub(va, vb), zero_w))
            if before != after:
                return False
    return True
