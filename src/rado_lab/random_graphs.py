"""Finite windows of typical dense sets and their unit-distance graphs.

"Almost all" conditions on countable dense sets become exact rejection
sampling constraints here: no two sample points differ by an integer in
any max-norm coordinate, and no two share a U-component.  Coordinates
are uniform rationals with a fixed power-of-two denominator plus a
per-point odd offset, so the constraints are near-impossible to trip by
chance yet still audited exactly.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Sequence

import numpy as np

from .decomposition import LinfDecomposition
from .errors import IndexOutOfRange, WindowTooSmall
from .geometry import PolytopeBall, pairwise_norm_numerators
from .geometry import norm  # noqa: F401  (perfbench/tracing.py wraps random_graphs.norm)
from .linalg import Vec

_DEN_POW = 33
_DEN = 2 ** _DEN_POW

LINF_INTEGER_FREE = "linf_integer_free"
FIBRE_FREE = "fibre_free"


@dataclass(frozen=True)
class PointSample:
    ball: PolytopeBall
    points: tuple[Vec, ...]
    window: Q
    seed: int
    typicality: tuple[str, ...]


@dataclass(frozen=True)
class GeomGraph:
    """Unit-distance graph (p = 1) or a Bernoulli edge subsample of one."""

    sample: PointSample
    edges: tuple[tuple[int, int], ...]
    p: Q
    rng_seed: int | None


def _random_coordinate(rng: random.Random, window: Q, odd_offset: int) -> Q:
    max_num = (window * _DEN).__floor__()
    if max_num <= odd_offset:
        raise WindowTooSmall(f"window {window} too small for the sampler grid")
    k = rng.randrange((max_num - odd_offset) // 2 + 1)
    return Q(2 * k + odd_offset, _DEN)


def sample_typical_points(
    ball: PolytopeBall,
    decomposition: LinfDecomposition,
    window: Q,
    n: int,
    seed: int,
    constraints: Iterable[str] = (LINF_INTEGER_FREE, FIBRE_FREE),
) -> PointSample:
    """Sample n distinct points in [0, window)^d, rejecting typicality violations.

    The linf constraint forbids integer differences in any max-norm
    coordinate of the decomposition; the fibre constraint forbids equal
    U-components.  The latter is dropped automatically when U = {0}.
    """
    window = Q(window)
    if n < 1 or window <= 0:
        raise ValueError("need n >= 1 and window > 0")
    wanted = set(constraints)
    if not decomposition.u_basis:
        wanted.discard(FIBRE_FREE)
    rng = random.Random(seed)
    points: list[Vec] = []
    seen_points: set[Vec] = set()
    linf_fracs: list[set[Q]] = [set() for _ in range(decomposition.d_inf)]
    u_seen: set[Vec] = set()
    attempts = 0
    while len(points) < n:
        attempts += 1
        if attempts > 100 * n:
            raise WindowTooSmall(f"rejection budget exceeded after {attempts} draws")
        odd = 2 * rng.randrange(2 ** 20) + 1
        p = tuple(_random_coordinate(rng, window, odd) for _ in range(ball.dim))
        if p in seen_points:
            continue
        u_coords, w_coords = decomposition.coordinates(p)
        if LINF_INTEGER_FREE in wanted:
            fr = [c - math.floor(c) for c in w_coords]
            if any(f in linf_fracs[i] for i, f in enumerate(fr)):
                continue
        if FIBRE_FREE in wanted and u_coords in u_seen:
            continue
        points.append(p)
        seen_points.add(p)
        if LINF_INTEGER_FREE in wanted:
            for i, c in enumerate(w_coords):
                linf_fracs[i].add(c - math.floor(c))
        if FIBRE_FREE in wanted:
            u_seen.add(u_coords)
    return PointSample(
        ball=ball, points=tuple(points), window=window, seed=seed,
        typicality=tuple(sorted(wanted)),
    )


def unit_graph(sample: PointSample) -> GeomGraph:
    """Exact strict-inequality adjacency: an edge iff norm(x_i - x_j) < 1."""
    nums, den = pairwise_norm_numerators(sample.ball, sample.points)
    ii, jj = np.nonzero(np.triu(nums < den, k=1))
    edges = tuple(zip(ii.tolist(), jj.tolist()))
    return GeomGraph(sample=sample, edges=edges, p=Q(1), rng_seed=None)


def bernoulli_subgraph(g0: GeomGraph, p: Q, seed: int) -> GeomGraph:
    """Keep each edge independently with exact probability p (rational)."""
    p = Q(p)
    if g0.p != 1:
        raise ValueError("bernoulli_subgraph expects the p=1 unit graph")
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    kept = tuple(e for e in g0.edges if rng.randrange(p.denominator) < p.numerator)
    return GeomGraph(sample=g0.sample, edges=kept, p=p, rng_seed=seed)


def adjacency_lists(g: GeomGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in g.sample.points]
    for i, j in g.edges:
        adj[i].append(j)
        adj[j].append(i)
    return adj


def graph_distance(g: GeomGraph, i: int, j: int) -> int | None:
    """Breadth-first hop count; None when unreachable."""
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


def distance_matrix(g: GeomGraph) -> np.ndarray:
    """All-pairs hop counts as int64, -1 for unreachable pairs.

    Level-by-level BFS over bitset rows (Python big ints); dense
    unit-distance graphs have tiny diameters, so a handful of levels of
    word-parallel unions beats per-source traversal by a wide margin.
    """
    n = len(g.sample.points)
    dist = np.full((n, n), -1, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    adj = [0] * n
    for i, j in g.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    nbytes = (n + 7) // 8
    reach = [(1 << i) | adj[i] for i in range(n)]
    frontier = list(adj)
    for i in range(n):
        if adj[i]:
            bits = np.unpackbits(
                np.frombuffer(adj[i].to_bytes(nbytes, "little"), dtype=np.uint8),
                bitorder="little",
            )[:n]
            dist[i, bits.astype(bool)] = 1
    level = 1
    while True:
        level += 1
        any_new = False
        for i in range(n):
            f = frontier[i]
            if not f:
                continue
            new = 0
            while f:
                low = f & -f
                new |= adj[low.bit_length() - 1]
                f ^= low
            new &= ~reach[i]
            frontier[i] = new
            if new:
                any_new = True
                reach[i] |= new
                bits = np.unpackbits(
                    np.frombuffer(new.to_bytes(nbytes, "little"), dtype=np.uint8),
                    bitorder="little",
                )[:n]
                dist[i, bits.astype(bool)] = level
        if not any_new:
            return dist


@dataclass(frozen=True)
class BjReport:
    """Per-k audit of 'norm < k iff graph distance <= k'."""

    rows: tuple[tuple[int, int, int, Q], ...]  # (k, pairs, satisfied, fraction)
    one_sided_violations: int

    @property
    def aggregate_fraction(self) -> Q:
        pairs = sum(r[1] for r in self.rows)
        sat = sum(r[2] for r in self.rows)
        return Q(sat, pairs) if pairs else Q(1)


def norm_floor_matrix(g: GeomGraph) -> np.ndarray:
    """Exact n x n matrix of floor(norm(x_i - x_j)), int64 or object dtype.

    Since floor(x) < k iff x < k for integer thresholds, floors decide
    every strict comparison the audits need.
    """
    nums, den = pairwise_norm_numerators(g.sample.ball, g.sample.points)
    return nums // den


def bj_audit(g: GeomGraph, k_max: int) -> BjReport:
    """Evaluate both sides of the distance biconditional for 2 <= k <= k_max.

    Also audits the one-sided implication that a path of length m forces
    norm < m, which holds in every sample by the triangle inequality.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    n = len(g.sample.points)
    floors = norm_floor_matrix(g)
    dist = distance_matrix(g)
    iu = np.triu_indices(n, k=1)
    dist_u = dist[iu]
    floors_u = floors[iu]
    rows = []
    for k in range(2, k_max + 1):
        norm_lt = floors_u < k
        graph_le = (dist_u >= 0) & (dist_u <= k)
        satisfied = int(np.count_nonzero(norm_lt == graph_le))
        pairs = len(dist_u)
        rows.append((k, pairs, satisfied, Q(satisfied, pairs)))
    finite = dist_u >= 1
    violations = int(np.count_nonzero(finite & ~(floors_u < dist_u)))
    return BjReport(rows=tuple(rows), one_sided_violations=violations)


def edge_agreement_probability(p: Q, trials: int, seed: int) -> Q:
    """Fraction of trials where two independent Bernoulli(p) indicators agree.

    The expected value is p^2 + (1-p)^2.
    """
    p = Q(p)
    if not 0 <= p <= 1:
        raise ValueError("p must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    agree = 0
    for _ in range(trials):
        a = rng.randrange(p.denominator) < p.numerator
        b = rng.randrange(p.denominator) < p.numerator
        agree += a == b
    return Q(agree, trials)
