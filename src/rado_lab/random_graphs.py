"""Finite windows of typical dense sets and their unit-distance graphs.

"Almost all" conditions on countable dense sets become exact rejection
sampling constraints here: no two sample points differ by an integer in
any max-norm coordinate, and no two share a U-component.  Coordinates
are uniform rationals on the shared 2**-33 grid (see `grid`), drawn as
integer numerators with one odd offset per point, so the constraints are
near-impossible to trip by chance yet still audited exactly.

A graph's edges are one read-only (E, 2) int64 array of index pairs
i < j in row-major order, from `unit_graph` through the audits to disk.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from .decomposition import LinfDecomposition
from .errors import IndexOutOfRange, OutOfDomain, WindowTooSmall
from .geometry import PolytopeBall, integer_coordinates, norm_projections, projection_distances
from .geometry import norm  # noqa: F401  (perfbench/tracing.py wraps random_graphs.norm)
from .grid import DEN, draw_odd, grid_max_num, grid_num, randbelow
from .linalg import Vec

LINF_INTEGER_FREE = "linf_integer_free"
FIBRE_FREE = "fibre_free"


@dataclass(frozen=True)
class PointSample:
    ball: PolytopeBall
    points: tuple[Vec, ...]
    window: Q
    seed: int
    typicality: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class GeomGraph:
    """Unit-distance graph (p = 1) or a Bernoulli edge subsample of one.

    `edges` is a read-only (E, 2) int64 array of pairs i < j in row-major
    order; graphs compare by identity, as an array has no field-wise `==`.
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
    (c DEN).  Fractions are made for accepted points only.
    """
    window = Q(window)
    if n < 1 or window <= 0:
        raise OutOfDomain("need n >= 1 and window > 0")
    rng = random.Random(seed)
    max_num = grid_max_num(window)
    rows, c = integer_coordinates(decomposition.basis_inverse)
    k, mod = len(decomposition.u_basis), c * DEN
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
    points = tuple(tuple(Q(x, DEN) for x in nums) for nums in accepted)
    typicality = (FIBRE_FREE, LINF_INTEGER_FREE) if decomposition.u_basis else (LINF_INTEGER_FREE,)
    return PointSample(ball=ball, points=points, window=window, seed=seed, typicality=typicality)


_BLOCK_ROWS = 64  # source rows per block of the pairwise kernel and the BFS
_K_MAX_LIMIT = 10 ** 6  # bj_audit writes a row per k
_AGREEMENT_TRIALS = 10 ** 8  # for run time: 2e8 coins take 5 s at p = 3/10, 95 s if den >= 2**32


def unit_graph(sample: PointSample) -> GeomGraph:
    """Exact strict-inequality adjacency: an edge iff norm(x_i - x_j) < 1.

    Rows are compared in blocks against the columns from the block's first
    row on, so each block's pairs i < j come out in row-major order.
    """
    ys, den = norm_projections(sample.ball, sample.points)
    blocks = [
        np.argwhere(np.triu(projection_distances(ys[i0:i0 + _BLOCK_ROWS], ys[i0:]) < den, k=1))
        + i0
        for i0 in range(0, len(ys), _BLOCK_ROWS)
    ]
    edges = np.concatenate(blocks) if blocks else np.zeros((0, 2), dtype=np.int64)
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
    keep = _coins(random.Random(seed), p, len(g0.edges))
    return GeomGraph(sample=g0.sample, edges=g0.edges[keep], p=p, rng_seed=seed)


def adjacency_lists(g: GeomGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in g.sample.points]
    for i, j in g.edges.tolist():
        adj[i].append(j)
        adj[j].append(i)
    return adj


def graph_distance(g: GeomGraph, i: int, j: int) -> int | None:
    """Breadth-first hop count; None when unreachable (the reference for `distance_matrix`)."""
    n = len(g.sample.points)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexOutOfRange(f"indices ({i}, {j}) for {n} points")
    if i == j:
        return 0
    adj = adjacency_lists(g)
    dist = {i: 0}
    queue = deque([i])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                if w == j:
                    return dist[w]
                queue.append(w)
    return None


def packed_adjacency(g: GeomGraph) -> np.ndarray:
    """The adjacency as (n, ceil(n / 64)) uint64 words: row i, word j // 64, bit j % 64."""
    n = len(g.sample.points)
    packed = np.zeros((n, -(-n // 64)), dtype=np.uint64)
    for i, j in (g.edges.T, g.edges.T[::-1]):
        np.bitwise_or.at(packed, (i, j >> 6), np.uint64(1) << (j & 63).astype(np.uint64))
    return packed


def distance_matrix(
    g: GeomGraph, start: int = 0, stop: int | None = None, cap: int | None = None,
    packed: np.ndarray | None = None,
) -> np.ndarray:
    """Hop counts from sources start <= i < stop to targets start <= j < n.

    Without `cap`, the whole n x n matrix as int64, -1 for unreachable
    pairs.  With it, the BFS stops at depth `cap`, in the smallest unsigned
    dtype holding cap + 1, the value of every pair it did not reach.  Per
    source, a level is the OR of the frontier's rows of `packed_adjacency`
    while the frontier is smaller than the unseen set, and after that the
    unseen vertices whose rows meet the frontier's bits: the
    direction-optimizing BFS of Beamer, Asanovic and Patterson (SC 2012).
    """
    n = len(g.sample.points)
    stop = n if stop is None else stop
    beyond = n if cap is None else cap + 1
    if packed is None:
        packed = packed_adjacency(g)
    levels = np.full((stop - start, n), beyond, dtype=np.min_scalar_type(beyond))
    front_mask = np.zeros(packed.shape[1] * 64, dtype=bool)
    for row, source in zip(levels, range(start, stop)):
        row[source] = 0
        front, unseen, level = np.array([source]), n - 1, 0
        while len(front) and unseen and level < beyond - 1:
            level += 1
            if len(front) < unseen:
                hit = np.bitwise_or.reduce(packed.take(front, axis=0), axis=0)
                new = np.unpackbits(hit.view(np.uint8), count=n, bitorder="little").view(bool)
                front = np.flatnonzero(new & (row > level))
            else:
                np.equal(row, level - 1, out=front_mask[:n])
                bits = np.packbits(front_mask, bitorder="little").view(np.uint64)
                candidates = np.flatnonzero(row > level)
                front = candidates[(packed.take(candidates, axis=0) & bits).any(axis=1)]
            row[front] = level
            unseen -= len(front)
    if cap is None:
        levels = levels.astype(np.int64)
        levels[levels == beyond] = -1
    return levels[:, start:]


@dataclass(frozen=True)
class BjReport:
    """Per-k audit of 'norm < k iff graph distance <= k'."""

    rows: tuple[tuple[int, int, int, Q], ...]  # (k, pairs, satisfied, fraction)
    one_sided_violations: int


def norm_floor_matrix(
    g: GeomGraph, start: int = 0, stop: int | None = None,
    projections: tuple[np.ndarray, int] | None = None,
) -> np.ndarray:
    """Exact floor(norm(x_i - x_j)) for start <= i < stop and start <= j < n.

    The whole n x n matrix by default, int64 or object dtype; `projections`
    are `norm_projections` of the points, made here when not given.  Since
    floor(x) < k iff x < k for integer thresholds, floors decide every
    strict comparison the audits need.
    """
    ys, den = projections or norm_projections(g.sample.ball, g.sample.points)
    return projection_distances(ys[start:stop], ys[start:]) // den


def bj_audit(g: GeomGraph, k_max: int) -> BjReport:
    """Evaluate both sides of the distance biconditional for 2 <= k <= k_max.

    Also audits the one-sided implication that a path of length m forces
    norm < m, which holds in every sample by the triangle inequality.

    Source rows go in blocks of `_BLOCK_ROWS`, so nothing n x n is held.
    The BFS stops at cap = max(k_max, largest floor), at most n - 1: past
    it no row or violation tells a pair from an unreachable one.  Over the
    pairs i < j, each block adds to histograms of the floors f, the hops h
    (cap + 1 past the cap) and m = max(f + 1, h) for h <= cap.  A row is
    then pairs - #{f < k} - #{h <= min(k, cap)} + 2 #{m <= k}, at a cost
    that does not grow with k_max, and a pair is a violation iff m > h.
    """
    if not 2 <= k_max <= _K_MAX_LIMIT:
        raise OutOfDomain(f"k_max must lie in [2, {_K_MAX_LIMIT}], got {k_max}")
    n = len(g.sample.points)
    pairs = n * (n - 1) // 2
    ys, den = projections = norm_projections(g.sample.ball, g.sample.points)
    max_floor = int((ys.max(axis=0) - ys.min(axis=0)).max()) // den if n > 1 else 0
    cap = max(min(n - 1, max(k_max, max_floor)), 0)
    top = max(k_max, cap)  # clipping floors here changes no comparison below
    bins = max(min(max_floor, top), cap) + 2
    packed = packed_adjacency(g)
    hists = np.zeros((3, bins), dtype=np.int64)
    violations = 0
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        floors = norm_floor_matrix(g, start, stop, projections)
        above = ~np.tri(*floors.shape, dtype=bool)  # the pairs i < j
        f = np.minimum(floors[above], top).astype(np.int64, copy=False)
        h = distance_matrix(g, start, stop, cap, packed)[above]
        m = np.maximum(f + 1, h)
        m[h > cap] = 0
        for hist, values in zip(hists, (f, h, m)):
            hist += np.bincount(values, minlength=bins)
        violations += int(np.count_nonzero(m > h))
    hists[2, 0] = 0  # the pairs past the cap
    cum_f, cum_h, cum_m = np.cumsum(hists, axis=1)
    ks = np.arange(2, k_max + 1)
    satisfied = (
        pairs - cum_f[np.minimum(ks - 1, bins - 1)] - cum_h[np.minimum(ks, cap)]
        + 2 * cum_m[np.minimum(ks, bins - 1)]
    )
    rows = tuple(
        (k, pairs, sat, Q(sat, pairs) if pairs else Q(1))
        for k, sat in zip(range(2, k_max + 1), satisfied.tolist())
    )
    return BjReport(rows=rows, one_sided_violations=violations)


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
