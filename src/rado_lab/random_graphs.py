"""Finite windows of typical dense sets and their unit-distance graphs.

"Almost all" conditions on countable dense sets become exact rejection
sampling constraints here: no two sample points differ by an integer in
any max-norm coordinate, and no two share a U-component.  Coordinates
are uniform rationals on the shared 2**-33 grid (see `grid`), drawn as
integer numerators with one odd offset per point, so the constraints are
near-impossible to trip by chance yet still audited exactly.  A sample
keeps the numerators as drawn, one `geometry.integer_table` over DEN that
the pair kernels, the audits and the graph file read; Fractions are a view.

A graph's edges are one read-only, C-ordered (E, 2) int64 array of index
pairs i < j in row-major order, from `unit_graph` through the audits to disk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q
from functools import cached_property
from typing import Sequence

import numpy as np

from .decomposition import LinfDecomposition
from .errors import OutOfDomain, WindowTooSmall
from .geometry import EqualByPoints, PolytopeBall, integer_table, norm_keys, table_points
from .geometry import projection_distances
from .geometry import norm  # noqa: F401  (perfbench/tracing.py wraps random_graphs.norm)
from .grid import DEN, draw_odd, grid_max_num, grid_num, randbelow
from .linalg import Vec

LINF_INTEGER_FREE = "linf_integer_free"
FIBRE_FREE = "fibre_free"


@dataclass(frozen=True, eq=False)
class PointSample(EqualByPoints):
    """n points as an (n, d) `geometry.integer_table` ``nums`` over ``den``, which
    is `grid.DEN` for a sampled one; `from_points` takes rationals."""

    ball: PolytopeBall
    nums: np.ndarray
    den: int
    window: Q
    seed: int
    typicality: tuple[str, ...]

    def __post_init__(self) -> None:
        self.nums.setflags(write=False)

    @classmethod
    def from_points(cls, ball: PolytopeBall, points: Sequence[Vec], window: Q, seed: int,
                    typicality: tuple[str, ...] = ()) -> "PointSample":
        """A sample whose points are given as rationals."""
        return cls(ball, *integer_table(points, ball.dim), Q(window), seed, tuple(typicality))

    def _points(self) -> tuple:
        return self.ball, self.points, self.window, self.seed, self.typicality

    @cached_property
    def points(self) -> tuple[Vec, ...]:
        """The points as Fraction vectors (built on first use)."""
        return table_points(self.nums, self.den)


@dataclass(frozen=True, eq=False)
class GeomGraph:
    """Unit-distance graph (p = 1) or a Bernoulli edge subsample of one.

    `edges` is a read-only, C-ordered (E, 2) int64 array of pairs i < j in
    row-major order; graphs compare by identity, as an array has no
    field-wise `==`.
    """

    sample: PointSample
    edges: np.ndarray
    p: Q
    rng_seed: int | None

    def __post_init__(self) -> None:
        self.edges.setflags(write=False)


def sample_typical_points(
    ball: PolytopeBall,
    decomposition: LinfDecomposition,
    window: Q,
    n: int,
    seed: int,
) -> PointSample:
    """Sample n distinct points in [0, window)^d, rejecting typicality violations.

    The linf constraint forbids integer differences in any max-norm
    coordinate of the decomposition; the fibre constraint forbids equal
    U-components.  The latter is dropped when U = {0}.  Both are decided on
    integers: with C the basis inverse times c, the lcm of its denominators,
    a point's coordinates are C nums / (c DEN), so its U-key is C_U nums and
    each linf coordinate's fractional part is fixed by (C_i nums) mod
    (c DEN).  The accepted numerators are the sample's table over DEN, and
    no Fraction is made.
    """
    window = Q(window)
    if n < 1 or window <= 0:
        raise OutOfDomain("need n >= 1 and window > 0")
    rng = random.Random(seed)
    max_num = grid_max_num(window)
    table, c = integer_table(decomposition.basis_inverse, ball.dim)
    rows, k, mod = table.tolist(), len(decomposition.u_basis), c * DEN
    accepted: list[tuple[int, ...]] = []
    linf_keys: list[set[int]] = [set() for _ in range(decomposition.d_inf)]
    u_seen: set[tuple[int, ...]] = set()
    attempts = 0
    # A repeated point repeats its linf fractions, or its U-coordinates when
    # d_inf = 0, so the two constraints also keep the points distinct.
    while len(accepted) < n:
        attempts += 1
        if attempts > 100 * n:
            raise WindowTooSmall(f"rejection budget exceeded after {attempts} draws")
        odd = draw_odd(rng)
        nums = tuple(grid_num(rng, max_num, odd) for _ in range(ball.dim))
        coords = [sum(a * x for a, x in zip(row, nums)) for row in rows]
        u_key, w_keys = tuple(coords[:k]), [x % mod for x in coords[k:]]
        if any(key in seen for key, seen in zip(w_keys, linf_keys)) or u_key in u_seen:
            continue
        accepted.append(nums)
        for key, seen in zip(w_keys, linf_keys):
            seen.add(key)
        if k:  # U = {0} gives () for every point, and no fibre constraint
            u_seen.add(u_key)
    typicality = (FIBRE_FREE, LINF_INTEGER_FREE) if decomposition.u_basis else (LINF_INTEGER_FREE,)
    return PointSample(ball, *integer_table(accepted, ball.dim, DEN), window, seed, typicality)


_BLOCK_ROWS = 64  # source rows per block of the pairwise kernel and the audit
_K_MAX_LIMIT = 10 ** 6  # bj_audit writes a row per k
_AGREEMENT_TRIALS = 10 ** 8  # for run time: 2e8 coins take 5 s at p = 3/10, 95 s if den >= 2**32


def unit_graph(sample: PointSample) -> GeomGraph:
    """Exact strict-inequality adjacency: an edge iff norm(x_i - x_j) < 1.

    Rows are compared in blocks against the columns from the block's first
    row on, so each block's pairs i < j come out in row-major order.  The
    blocks hold their pairs in int32 (the n x n kernel keeps n far below
    2**31) until the one int64 copy, which halves what they hold at once.
    """
    keys, mod = norm_keys(sample.ball, sample.nums, sample.den)
    blocks = [
        np.argwhere(np.triu(projection_distances(keys[i0:i0 + _BLOCK_ROWS], keys[i0:]) < mod, k=1))
        .astype(np.int32) + i0
        for i0 in range(0, len(keys), _BLOCK_ROWS)
    ]
    edges = np.zeros((sum(map(len, blocks)), 2), dtype=np.int64)  # C order, unlike `argwhere`'s
    if blocks:
        np.concatenate(blocks, out=edges)
    return GeomGraph(sample=sample, edges=edges, p=Q(1), rng_seed=None)


_COIN_ROUND = 1 << 15  # most coins one `randbelow` call draws for `_coins`


def _coins(rng: random.Random, p: Q, count: int) -> np.ndarray:
    """Coin i is `rng.randrange(den) < num`, drawn in order, with `rng` left
    where that loop leaves it.  `grid.randbelow` replays the draws, a round
    at a time, so no count-sized integer array is held."""
    coins = np.empty(count, dtype=bool)
    for got in range(0, count, _COIN_ROUND):
        m = min(count - got, _COIN_ROUND)
        coins[got : got + m] = randbelow(rng, p.denominator, m) < p.numerator
    return coins


def bernoulli_subgraph(g0: GeomGraph, p: Q, seed: int) -> GeomGraph:
    """Keep each edge with exact probability p.

    Edge i, in edge order, is kept iff the i-th `randrange(den) < num` draw
    of `random.Random(seed)` holds; `_coins` draws those coins in bulk
    through `grid.randbelow`.
    """
    p = Q(p)
    if g0.p != 1:
        raise OutOfDomain("bernoulli_subgraph expects the p=1 unit graph")
    if not 0 <= p <= 1:
        raise OutOfDomain("p must lie in [0, 1]")
    edges = np.compress(_coins(random.Random(seed), p, len(g0.edges)), g0.edges, axis=0)
    return GeomGraph(sample=g0.sample, edges=edges, p=p, rng_seed=seed)


_WORD = np.dtype("<u8")  # packed words, little-endian so byte b of a row holds bits 8b to 8b + 7


def packed_adjacency(g: GeomGraph) -> np.ndarray:
    """The adjacency as (n, ceil(n / 64)) words: row i, word j // 64, bit j % 64."""
    n = len(g.sample.nums)
    packed = np.zeros((n, -(-n // 64)), dtype=_WORD)
    for i, j in (g.edges.T, g.edges.T[::-1]):
        np.bitwise_or.at(packed, (i, j >> 6), np.uint64(1) << (j & 63).astype(np.uint64))
    return packed


def _bool_product(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The packed boolean product: row i ORs the rows a[j] for the bits j set in x[i].

    The Method of Four Russians (Arlazarov, Dinic, Kronrod and Faradzev,
    1970): for every 8 rows of `a`, a 256-row table of their ORs built by
    doubling, from which each row of `x` picks the row its byte over those
    8 bits names, one `take` and one in-place OR for all rows at once.
    Bits of `x` past the rows of `a` must be clear.
    """
    out, picked = np.zeros_like(x), np.empty_like(x)
    table = np.zeros((256, a.shape[1]), dtype=a.dtype)
    x_bytes = x.view(np.uint8)
    for group in range(0, len(a), 8):
        for bit, row in enumerate(a[group : group + 8]):
            np.bitwise_or(table[: 1 << bit], row, out=table[1 << bit : 2 << bit])
        np.take(table, x_bytes[:, group >> 3], axis=0, out=picked, mode="clip")
        out |= picked
    return out


def _hop_planes(g: GeomGraph, cap: int) -> list[np.ndarray]:
    """min(hops, cap + 1) between every two of the n vertices, as
    (cap + 1).bit_length() packed bit planes shaped like `packed_adjacency(g)`.

    All sources go level by level at once: level 0 is the diagonal, level 1
    the adjacency, and each later frontier the `_bool_product` of the last
    one with the adjacency, masked to the targets still unseen, up to `cap`
    or an empty frontier.  Only the unsettled rows, with a frontier and an
    unseen target, are multiplied: as in the bottom-up step of Beamer,
    Asanovic and Patterson (SC 2012), work follows what is left to reach.
    Plane b holds bit b of each pair's level; the pairs never reached hold
    cap + 1, and no bit past the n targets is set.  `_plane_levels` decodes
    the planes, a block of rows at a time.
    """
    packed = packed_adjacency(g)
    n = len(packed)
    rows = np.arange(n)
    unseen = np.full(packed.shape, ~np.uint64(0), dtype=_WORD)
    unseen[rows, rows >> 6] ^= np.uint64(1) << (rows & 63).astype(np.uint64)
    unseen[:, -1:] &= np.uint64((1 << 64) - 1 >> (-n % 64))  # no target past the n
    planes = [np.zeros_like(unseen) for _ in range((cap + 1).bit_length())]
    front = packed.copy()
    for level in range(1, cap + 1):
        if level > 1:
            live = np.flatnonzero(front.any(axis=1) & unseen.any(axis=1))
            product = _bool_product(front[live], packed)
            product &= unseen[live]
            front[:] = 0
            front[live] = product
        if not front.any():
            break
        unseen ^= front
        for bit, plane in enumerate(planes):
            if level >> bit & 1:
                plane |= front
    for bit, plane in enumerate(planes):
        if (cap + 1) >> bit & 1:
            plane |= unseen
    return planes


def _plane_levels(planes: list[np.ndarray], start: int, stop: int, n: int) -> np.ndarray:
    """The int64 `_hop_planes` levels from sources start <= i < stop to targets start <= j < n,
    decoded from the word holding target `start` on."""
    first = start >> 6 << 6
    levels = np.zeros((stop - start, n - first), dtype=np.int64)
    for plane in reversed(planes):
        levels <<= 1
        words = plane[start:stop, first >> 6 :].view("u1")
        levels += np.unpackbits(words, axis=1, count=n - first, bitorder="little")
    return levels[:, start - first :]


def distance_matrix(g: GeomGraph) -> np.ndarray:
    """Hop counts between all n points as an n x n int64 matrix, -1 for unreachable pairs.

    The whole-matrix view of `_hop_planes` at cap n - 1, past every path's
    length, so the level n marks exactly the pairs never reached.
    """
    n = len(g.sample.nums)
    levels = _plane_levels(_hop_planes(g, n - 1), 0, n, n)
    levels[levels == n] = -1
    return levels


@dataclass(frozen=True, eq=False)
class BjReport:
    """Per-k audit of 'norm < k iff graph distance <= k'.

    `satisfied[k - 2]` counts the pairs satisfying row k, for 2 <= k <= k_max,
    as a read-only int64 array: a large k_max holds no row objects.
    """

    pairs: int
    satisfied: np.ndarray
    one_sided_violations: int

    def __post_init__(self) -> None:
        self.satisfied.setflags(write=False)

    @property
    def rows(self) -> tuple[tuple[int, int, int, Q], ...]:
        """(k, pairs, satisfied, fraction) per row; a row with no pair has fraction 1."""
        return tuple(
            (k, self.pairs, sat, Q(sat, self.pairs) if self.pairs else Q(1))
            for k, sat in enumerate(self.satisfied.tolist(), start=2)
        )


def norm_floor_matrix(
    g: GeomGraph, start: int = 0, stop: int | None = None,
    keys: tuple[np.ndarray, int] | None = None,
) -> np.ndarray:
    """Exact floor(norm(x_i - x_j)) for start <= i < stop and start <= j < n.

    The whole n x n matrix by default, from the points' `norm_keys` (made
    here when not given), in their dtype.  Since floor(x) < k iff x < k for
    integer thresholds, floors decide every strict comparison the audits need.
    """
    ks, mod = keys or norm_keys(g.sample.ball, g.sample.nums, g.sample.den)
    return projection_distances(ks[start:stop], ks[start:]) // mod


def bj_audit(g: GeomGraph, k_max: int) -> BjReport:
    """Evaluate both sides of the distance biconditional for 2 <= k <= k_max.

    Also audits the one-sided implication that a path of length m forces
    norm < m, which holds in every sample by the triangle inequality.

    The hop levels stop at cap = max(k_max, largest floor), at most n - 1:
    past it no row or violation tells a pair from an unreachable one.  They
    are computed once for all sources, as `_hop_planes(g, cap)`, about
    (cap + 1).bit_length() + 4 times n^2 / 8 bytes, and `_plane_levels`
    decodes them in blocks of `_BLOCK_ROWS` source rows, so nothing n x n is
    held.  Over the pairs i < j, each block adds to histograms of the floors
    f and the hops h (cap + 1 past the cap).  A pair with h <= cap is a
    violation iff f >= h; with m = max(f + 1, h) on the pairs h <= cap, a
    row is pairs - #{f < k} - #{h <= min(k, cap)} + 2 #{m <= k}, at a cost
    that does not grow with k_max.  m equals h off the violations, so its
    histogram is h's up to the cap, with each violation moved from h to f + 1.
    """
    if not 2 <= k_max <= _K_MAX_LIMIT:
        raise OutOfDomain(f"k_max must lie in [2, {_K_MAX_LIMIT}], got {k_max}")
    n = len(g.sample.nums)
    pairs = n * (n - 1) // 2
    ks, mod = keys = norm_keys(g.sample.ball, g.sample.nums, g.sample.den)
    max_floor = int((ks.max(axis=0) - ks.min(axis=0)).max()) // mod if n > 1 else 0
    cap = max(min(n - 1, max(k_max, max_floor)), 0)
    top = max(k_max, cap)  # clipping floors here changes no comparison below
    bins = max(min(max_floor, top), cap) + 2
    planes = _hop_planes(g, cap)
    hists = np.zeros((3, bins), dtype=np.int64)
    violations = 0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        floors = norm_floor_matrix(g, start, stop, keys)
        above = ~np.tri(*floors.shape, dtype=bool)  # the pairs i < j
        f = np.minimum(floors[above], top).astype(np.int64, copy=False)
        h = _plane_levels(planes, start, stop, n)[above]
        bad = (f >= h) & (h <= cap)
        hists[0] += np.bincount(f, minlength=bins)
        hists[1] += np.bincount(h, minlength=bins)
        hists[2] += np.bincount(f[bad] + 1, minlength=bins) - np.bincount(h[bad], minlength=bins)
        violations += int(np.count_nonzero(bad))
    hists[2, : cap + 1] += hists[1, : cap + 1]  # m = h off the violations, none past the cap
    cum_f, cum_h, cum_m = np.cumsum(hists, axis=1)
    # From k = bins on every index below is clipped, so the rows repeat.
    ks = np.arange(2, min(k_max, bins) + 1)
    satisfied = np.empty(k_max - 1, dtype=np.int64)
    satisfied[: len(ks)] = (
        pairs - cum_f[np.minimum(ks - 1, bins - 1)] - cum_h[np.minimum(ks, cap)]
        + 2 * cum_m[np.minimum(ks, bins - 1)]
    )
    satisfied[len(ks) :] = satisfied[len(ks) - 1]
    return BjReport(pairs=pairs, satisfied=satisfied, one_sided_violations=violations)


def edge_agreement_probability(p: Q, trials: int, seed: int) -> Q:
    """Fraction of trials where two independent Bernoulli(p) indicators agree.

    The expected value is p^2 + (1-p)^2.  Trial t compares coins 2t and
    2t + 1 of `random.Random(seed)`, under `_coins`' rule, counted one
    `_COIN_ROUND` at a time: rounds are even, so no pair straddles two.
    """
    p = Q(p)
    if not 0 <= p <= 1:
        raise OutOfDomain("p must lie in [0, 1]")
    if not 1 <= trials <= _AGREEMENT_TRIALS:
        raise OutOfDomain(f"trials must lie in [1, {_AGREEMENT_TRIALS}], got {trials}")
    rng, rounds = random.Random(seed), range(0, 2 * trials, _COIN_ROUND)
    coins = (_coins(rng, p, min(2 * trials - got, _COIN_ROUND)) for got in rounds)
    return Q(sum(int(np.count_nonzero(c[::2] == c[1::2])) for c in coins), trials)
