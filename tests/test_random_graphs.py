import functools
import math
import random
import tracemalloc
from collections import deque
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rado_lab import random_graphs as rg
from rado_lab.decomposition import linf_decomposition
from rado_lab.errors import WindowTooSmall
from rado_lab.geometry import cube_ball, hexagon_ball, hexagonal_prism_ball, norm, validate_ball
from rado_lab.grid import DEN, draw_odd
from rado_lab.linalg import vsub
from rado_lab.random_graphs import (
    FIBRE_FREE,
    LINF_INTEGER_FREE,
    GeomGraph,
    PointSample,
    bernoulli_subgraph,
    bj_audit,
    distance_matrix,
    edge_agreement_probability,
    norm_floor_matrix,
    sample_typical_points,
    unit_graph,
)


def v(*coords):
    return tuple(Q(c) for c in coords)


def line_sample(*ws):
    ball = cube_ball(1)
    return PointSample.from_points(ball, [v(w) for w in ws], Q(4), 0)


@pytest.fixture(scope="module")
def linf2():
    ball = cube_ball(2)
    return ball, linf_decomposition(ball)


@pytest.fixture(scope="module")
def g0(linf2):
    ball, dec = linf2
    s = sample_typical_points(ball, dec, Q(3), 150, seed=41)
    return unit_graph(s)


class TestPointSample:
    def test_samples_of_the_same_points_are_equal(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(2), 6, seed=5)
        again = PointSample.from_points(ball, s.points, Q(2), 5, s.typicality)
        # The same points over a denominator three times as fine.
        finer = PointSample(ball, s.nums * 3, s.den * 3, Q(2), 5, s.typicality)
        assert s.den == DEN and again.den == DEN and again.nums.tolist() == s.nums.tolist()
        assert s == again == finer and len({s, again, finer}) == 1
        moved = PointSample.from_points(ball, s.points[:-1] + (v(0, 0),), Q(2), 5, s.typicality)
        assert s != moved and s != PointSample.from_points(ball, s.points, Q(2), 6, s.typicality)

    def test_table_is_read_only(self, linf2):
        s = sample_typical_points(*linf2, Q(2), 3, seed=5)
        with pytest.raises(ValueError):
            s.nums[0, 0] = 1


class TestSampler:
    def test_single_point(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(2), 1, seed=5)
        assert len(s.points) == 1

    def test_determinism(self, linf2):
        ball, dec = linf2
        a = sample_typical_points(ball, dec, Q(3), 50, seed=9)
        b = sample_typical_points(ball, dec, Q(3), 50, seed=9)
        assert a == b

    def test_linf_typicality_audit(self, linf2):
        # No two points may differ by an integer in any coordinate; with the
        # decomposition equal to the ambient axes this is a fraction check.
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(3), 100, seed=2)
        for axis in range(2):
            fracs = [p[axis] - math.floor(p[axis]) for p in s.points]
            assert len(set(fracs)) == len(fracs)

    def test_points_inside_window(self):
        # U = {0}, d_inf = 0 and mixed: the constraints alone keep points distinct.
        for ball in (cube_ball(2), hexagon_ball(), hexagonal_prism_ball()):
            s = sample_typical_points(ball, linf_decomposition(ball), Q(3), 40, seed=4)
            assert all(0 <= c < 3 for p in s.points for c in p)
            assert len(set(s.points)) == 40

    def test_fibre_constraint_dropped_when_u_trivial(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(3), 5, seed=7)
        assert s.typicality == (LINF_INTEGER_FREE,)

    def test_fibre_constraint_enforced_on_prism(self):
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        s = sample_typical_points(ball, dec, Q(2), 30, seed=11)
        assert FIBRE_FREE in s.typicality
        us = [dec.coordinates(p)[0] for p in s.points]
        assert len(set(us)) == len(us)

    def test_window_too_small(self, linf2):
        ball, dec = linf2
        with pytest.raises(WindowTooSmall):
            sample_typical_points(ball, dec, Q(1, 2 ** 30), 3, seed=1)


def ref_typical_points(ball, dec, window, n, seed):
    """The sampler on Fractions: coordinates from `coordinates`, linf keys
    their fractional parts; the points, or the error's class and message."""
    rng = random.Random(seed)
    max_num = math.floor(window * DEN)
    points, fracs, us = [], [set() for _ in range(dec.d_inf)], set()
    for attempts in range(1, 100 * n + 1):
        odd = draw_odd(rng)
        p = tuple(Q(rg.grid_num(rng, max_num, odd), DEN) for _ in range(ball.dim))
        u, w = dec.coordinates(p)
        fr = [x - math.floor(x) for x in w]
        if any(f in seen for f, seen in zip(fr, fracs)) or u in us:
            continue
        points.append(p)
        for f, seen in zip(fr, fracs):
            seen.add(f)
        if u:
            us.add(u)
        if len(points) == n:
            return tuple(points)
    return WindowTooSmall, f"rejection budget exceeded after {attempts + 1} draws"


@functools.cache
def _decomposition(ball):
    return linf_decomposition(ball)


def coarse_grid_num(rng, max_num, odd):
    """Numerators from a handful, two by two an integer apart over DEN or
    equal, so that draws collide in every linf coordinate and U-key."""
    return rng.choice([1, DEN + 1, 3, 2 * DEN + 3, DEN // 2 + 1, 5 * DEN // 2 + 1])


# A parallelogram whose linf basis inverse has denominator 5, so the linf
# keys are taken mod 5 * DEN.
PARALLELOGRAM = validate_ball([(3, 1), (1, 2), (-3, -1), (-1, -2)])


class TestTypicalPointsReference:
    @settings(max_examples=80, deadline=None)
    @given(
        ball=st.sampled_from([cube_ball(2), hexagon_ball(), hexagonal_prism_ball(), PARALLELOGRAM]),
        window=st.sampled_from([Q(3), Q(1, 2)]),
        n=st.integers(1, 30),
        seed=st.integers(0, 2 ** 32),
        coarse=st.booleans(),
    )
    @example(ball=hexagon_ball(), window=Q(3), n=4, seed=1, coarse=True)  # a repeated U-point
    @example(ball=PARALLELOGRAM, window=Q(3), n=4, seed=0, coarse=True)
    def test_matches_the_fraction_sampler(self, ball, window, n, seed, coarse):
        dec = _decomposition(ball)
        with pytest.MonkeyPatch.context() as mp:
            if coarse:  # few points fit: most draws are rejected, many runs fail
                mp.setattr(rg, "grid_num", coarse_grid_num)
                n = n % 5 + 1
            want = ref_typical_points(ball, dec, window, n, seed)
            try:
                got = sample_typical_points(ball, dec, window, n, seed).points
            except WindowTooSmall as exc:
                got = WindowTooSmall, str(exc)
        assert got == want


class TestUnitGraph:
    def test_line_example(self):
        g = unit_graph(line_sample(0, Q(1, 2), Q(9, 8)))
        assert g.edges.tolist() == [[0, 1], [1, 2]]

    def test_exact_unit_distance_is_not_an_edge(self):
        g = unit_graph(line_sample(0, 1))
        assert g.edges.shape == (0, 2)

    def test_cluster_is_complete(self):
        g = unit_graph(line_sample(0, Q(1, 4), Q(1, 2)))
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_fast_path_matches_reference(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(3), 60, seed=21)
        fast = unit_graph(s).edges.tolist()
        slow = [
            [i, j]
            for i in range(60)
            for j in range(i + 1, 60)
            if norm(ball, vsub(s.points[i], s.points[j])) < 1
        ]
        assert fast == slow

    def test_generic_ball_path(self):
        ball = hexagon_ball()
        dec = linf_decomposition(ball)
        s = sample_typical_points(ball, dec, Q(2), 25, seed=3)
        g = unit_graph(s)
        for i, j in g.edges:
            assert norm(ball, vsub(s.points[i], s.points[j])) < 1

    def test_object_path_matches_reference(self):
        # A common denominator past int64 makes the projections Python ints,
        # and so does the hexagon scaled by 1 + 2**-40; the keys stay int64.
        rng = random.Random(8)
        big = 3 ** 45
        pts = tuple(
            tuple(Q(rng.randrange(0, 2 * big), big) for _ in range(2)) for _ in range(12)
        )
        scaled = validate_ball([tuple(c * (1 + Q(1, 2 ** 40)) for c in u)
                                for u in hexagon_ball().vertices])
        for ball in (hexagon_ball(), cube_ball(2), scaled):
            s = PointSample.from_points(ball, pts, Q(2), 0)
            g = unit_graph(s)
            floors = norm_floor_matrix(g)
            assert floors.dtype == np.int64
            edges = []
            for i in range(12):
                for j in range(i + 1, 12):
                    d = norm(ball, vsub(pts[i], pts[j]))
                    assert floors[i, j] == floors[j, i] == math.floor(d)
                    if d < 1:
                        edges.append([i, j])
            assert g.edges.tolist() == edges

    def test_one_point_gives_empty_int64_array(self):
        g = unit_graph(line_sample(0))
        for edges in (g.edges, bernoulli_subgraph(g, Q(1, 2), seed=1).edges):
            assert edges.shape == (0, 2) and edges.dtype == np.int64
            assert not edges.flags.writeable

    def test_edges_are_c_ordered(self, g0):
        # `argwhere` blocks are Fortran-ordered; the graph's array is not.
        for g in (g0, bernoulli_subgraph(g0, Q(1, 2), seed=1)):
            assert len(g.edges) > 1 and g.edges.flags.c_contiguous

    def test_edge_soundness_audit(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(3), 120, seed=31)
        g = unit_graph(s)
        for i, j in g.edges:
            assert norm(ball, vsub(s.points[i], s.points[j])) < 1


def loop_coins(rng, p, count):
    """The coin rule itself: coin i is `rng.randrange(den) < num`, drawn in order."""
    return np.array([rng.randrange(p.denominator) < p.numerator for _ in range(count)], bool)


@st.composite
def coin_probabilities(draw):
    # 2**32 and past need 33 bits or more, past one MT19937 word: the loop
    # fallback; 2**64 + 1 and 2**70 draw past int64.
    den = draw(st.sampled_from([1, 2, 3, 2**31 + 11, 2**32, 2**32 + 1, 2**64 + 1, 2**70]))
    return Q(draw(st.integers(0, den)), den)


class TestCoins:
    """`_coins` must give the `randrange` loop's coins and leave its generator state."""

    @settings(max_examples=60, deadline=None)
    @given(
        p=coin_probabilities(),
        seed=st.integers(0, 2**80),
        skip=st.sampled_from([0, 623]) | st.integers(0, 700),  # outputs drawn before
        count=st.sampled_from([0, 1, 5000]) | st.integers(0, 300),
    )
    @example(p=Q(0), seed=2**40 + 1, skip=0, count=5000)
    @example(p=Q(1), seed=2**40 + 1, skip=0, count=5000)
    @example(p=Q(1, 3), seed=5, skip=1, count=70_000)  # more coins than one round's words
    @example(p=Q(2**30, 2**31 + 11), seed=6, skip=0, count=70_000)  # about half redrawn
    @example(p=Q(5, 2**32), seed=5, skip=0, count=3000)  # 33 bits: the loop
    @example(p=Q(1, 2**32 + 1), seed=5, skip=0, count=3000)
    @example(p=Q(2**69 + 1, 2**70), seed=5, skip=0, count=3000)
    def test_coins_replay_the_randrange_loop(self, p, seed, skip, count):
        fast, loop = random.Random(seed), random.Random(seed)
        for rng in (fast, loop):
            rng.getrandbits(32 * skip)
        coins = rg._coins(fast, p, count)
        expected = loop_coins(loop, p, count)
        assert coins.dtype == bool and coins.shape == (count,)
        assert np.array_equal(coins, expected)
        assert fast.getstate() == loop.getstate()

    @pytest.mark.parametrize("p", [Q(0), Q(1, 2), Q(1, 3), Q(1), Q(5, 2**32 + 1)])
    def test_bernoulli_keeps_the_loop_edges(self, g0, p):
        keep = loop_coins(random.Random(17), p, len(g0.edges))
        assert np.array_equal(bernoulli_subgraph(g0, p, seed=17).edges, g0.edges[keep])


class TestBernoulli:
    def test_p_one_keeps_everything(self, g0):
        assert np.array_equal(bernoulli_subgraph(g0, Q(1), seed=1).edges, g0.edges)

    def test_p_zero_drops_everything(self, g0):
        assert bernoulli_subgraph(g0, Q(0), seed=1).edges.shape == (0, 2)

    def test_subset_and_determinism(self, g0):
        gp = bernoulli_subgraph(g0, Q(1, 3), seed=6)
        assert set(map(tuple, gp.edges.tolist())) <= set(map(tuple, g0.edges.tolist()))
        assert np.array_equal(gp.edges, bernoulli_subgraph(g0, Q(1, 3), seed=6).edges)

    def test_kept_count_within_binomial_bounds(self, g0):
        m = len(g0.edges)
        kept = len(bernoulli_subgraph(g0, Q(1, 2), seed=8).edges)
        sd = math.sqrt(m) / 2
        assert abs(kept - m / 2) <= 4 * sd

    def test_requires_unit_graph(self, g0):
        gp = bernoulli_subgraph(g0, Q(1, 2), seed=3)
        with pytest.raises(ValueError):
            bernoulli_subgraph(gp, Q(1, 2), seed=3)


def bfs_hops(g):
    """Hop counts between every two points by breadth-first search from each
    source, -1 when unreachable: the reference for the hop planes.  The
    adjacency lists are built once per graph."""
    n = len(g.sample.points)
    adj = [[] for _ in range(n)]
    for a, b in g.edges.tolist():
        adj[a].append(b)
        adj[b].append(a)
    hops = []
    for i in range(n):
        dist = [-1] * n
        dist[i] = 0
        queue = deque([i])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        hops.append(dist)
    return hops


class TestDistances:
    def test_same_vertex(self):
        g = unit_graph(line_sample(0, Q(1, 2)))
        assert bfs_hops(g)[0][0] == distance_matrix(g)[0, 0] == 0

    def test_adjacent(self):
        g = unit_graph(line_sample(0, Q(1, 2)))
        assert bfs_hops(g)[0][1] == distance_matrix(g)[0, 1] == 1

    def test_two_hops(self):
        g = unit_graph(line_sample(0, Q(3, 4), Q(3, 2)))
        assert bfs_hops(g)[0][2] == distance_matrix(g)[0, 2] == 2

    def test_unreachable(self):
        g = unit_graph(line_sample(0, 3))
        assert bfs_hops(g)[0][1] == distance_matrix(g)[0, 1] == -1

    def test_matrix_matches_bfs(self, linf2):
        # Every pair, on 1 to 129 points: word boundaries at 64, an edgeless
        # graph, and two far-apart paths of 64 and 65 points (disconnected,
        # diameters 63 and 64).
        ball, dec = linf2
        graphs = [
            unit_graph(line_sample(0)),
            unit_graph(line_sample(0, 3)),
            unit_graph(line_sample(0, Q(1, 2))),
            unit_graph(line_sample(*[Q(3 * k, 4) + 100 * (k >= 64) for k in range(129)])),
        ] + [
            bernoulli_subgraph(
                unit_graph(sample_typical_points(ball, dec, Q(3), n, seed=51)), Q(1, 3), seed=52
            )
            for n in (63, 64, 65, 70, 129)
        ]
        for g in graphs:
            n = len(g.sample.points)
            dm = distance_matrix(g)
            assert dm.shape == (n, n)
            assert dm.tolist() == bfs_hops(g)


@functools.cache
def _audit_graph(name):
    """A graph for the audit reference tests, built on demand by name."""
    if name == "hand_built_violation":  # one edge whose norm is 3/2: a violation
        return GeomGraph(sample=line_sample(0, Q(3, 2)), edges=np.array([[0, 1]]), p=Q(1),
                         rng_seed=None)
    if name == "long_violations":  # a path of edges of norm 3/2: every pair violates
        return GeomGraph(sample=line_sample(*[Q(3 * i, 2) for i in range(6)]),
                         edges=np.array([[i, i + 1] for i in range(5)]), p=Q(1), rng_seed=None)
    if name == "n1":
        return unit_graph(line_sample(0))
    if name == "n2":
        return unit_graph(line_sample(0, Q(1, 2)))
    if name == "object_floors":  # a common denominator past int64: Python-int projections
        rng = random.Random(8)
        big = 3 ** 45
        pts = tuple(
            tuple(Q(rng.randrange(0, 6 * big), big) for _ in range(2)) for _ in range(20)
        )
        s = PointSample.from_points(hexagon_ball(), pts, Q(6), 0)
        return bernoulli_subgraph(unit_graph(s), Q(2, 3), seed=4)
    if name == "random_edges":  # 150 points, edges regardless of norm: violations at hops 1 to 8
        ball = cube_ball(1)
        s = sample_typical_points(ball, linf_decomposition(ball), Q(12), 150, seed=17)
        edges = np.argwhere(np.triu(np.random.default_rng(19).random((150, 150)) < 0.02, k=1))
        return GeomGraph(sample=s, edges=np.ascontiguousarray(edges), p=Q(1), rng_seed=None)
    ball, window, n, p = {
        "cube_2": (cube_ball(2), Q(3), 70, Q(1, 2)),
        "hexagon": (hexagon_ball(), Q(3), 50, Q(1, 2)),
        "prism": (hexagonal_prism_ball(), Q(2), 40, Q(1)),
        "sparse_cube_1": (cube_ball(1), Q(12), 30, Q(1, 3)),
    }[name]
    s = sample_typical_points(ball, linf_decomposition(ball), window, n, seed=17)
    return bernoulli_subgraph(unit_graph(s), p, seed=18) if p != 1 else unit_graph(s)


AUDIT_CORPUS = ["cube_2", "hexagon", "prism", "sparse_cube_1", "n1", "n2", "object_floors",
                "hand_built_violation", "long_violations", "random_edges"]


def _reference_bj_audit(g, k_max):
    """`bj_audit` as a count over the whole floor matrix and the `bfs_hops` matrix.

    Both are symmetric, and each diagonal entry (floor 0, hop 0) satisfies
    every row and violates nothing, so a count over pairs i < j is the
    count over all entries less the diagonal, halved.
    """
    n = len(g.sample.points)
    floors = norm_floor_matrix(g)
    dist = np.array(bfs_hops(g)).reshape(n, n)
    pairs = n * (n - 1) // 2
    rows = []
    for k in range(2, k_max + 1):
        agree = int(np.count_nonzero((floors < k) == ((dist >= 0) & (dist <= k))))
        satisfied = (agree - n) // 2
        rows.append((k, pairs, satisfied, Q(satisfied, pairs) if pairs else Q(1)))
    violations = int(np.count_nonzero((dist >= 1) & (floors >= dist))) // 2
    return tuple(rows), violations


@st.composite
def long_paths(draw):
    """A path on a line, points 1/2 < gap < 1 apart, maybe thinned and shifted.

    Its hop counts reach n - 1 while its floors stay below, so pairs pass
    the audit's BFS cap unless k_max is near n; thinning adds unreachable
    pairs, and a far shift puts huge floors on a second path.
    """
    n = draw(st.integers(2, 40))
    gap = Q(draw(st.integers(5, 7)), 8)
    far = draw(st.sampled_from([0, 10**6]))
    points = [gap * i + (far if 2 * i >= n else 0) for i in range(n)]
    g = unit_graph(line_sample(*points))
    p = draw(st.sampled_from([Q(1), Q(9, 10), Q(1, 2)]))
    return g if p == 1 else bernoulli_subgraph(g, p, seed=draw(st.integers(0, 99)))


def _packed(bits):
    """A bool matrix's rows as packed words: bit j of row i at word j // 64, bit j % 64."""
    rows, n = bits.shape
    padded = np.zeros((rows, -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = bits
    return np.packbits(padded, axis=1, bitorder="little").view(rg._WORD)


def _unpacked(words, n):
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _capped_bfs(g, cap):
    """min(hops, cap + 1) for every pair from `bfs_hops`, cap + 1 if unreachable."""
    return np.array([[cap + 1 if h < 0 else min(h, cap + 1) for h in row] for row in bfs_hops(g)])


class TestHopLevels:
    def test_packed_words_are_little_endian_bytes(self):
        # `_bool_product` and the planes read words as bytes: byte b of a row
        # must hold bits 8b to 8b + 7, whatever the machine's byte order.
        g = unit_graph(line_sample(*[Q(3 * k, 4) for k in range(70)]))
        adj = np.zeros((70, 70), dtype=bool)
        adj[tuple(g.edges.T)] = adj[tuple(g.edges.T[::-1])] = True
        packed = rg.packed_adjacency(g)
        assert packed.dtype == np.dtype("<u8")
        assert np.array_equal(_unpacked(packed, 70), adj)
        assert np.array_equal(packed, _packed(adj))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 129])
    @pytest.mark.parametrize("density", [0, 1 / 3, 1])
    def test_bool_product_matches_the_integer_product(self, n, density):
        rng = np.random.default_rng(n)
        a = rng.random((n, n)) < density
        x = rng.random((n + 5, n)) < density
        got = rg._bool_product(_packed(x), _packed(a))
        assert np.array_equal(_unpacked(got, n), x.astype(np.int64) @ a.astype(np.int64) > 0)
        assert not _unpacked(got, got.shape[1] * 64)[:, n:].any()  # no bit past the n rows

    @settings(max_examples=40, deadline=None)
    @given(
        g=long_paths() | st.sampled_from(
            ["sparse_cube_1", "n1", "n2", "long_violations", "random_edges"]).map(_audit_graph),
        cap=st.sampled_from([1, 2, "diameter"]),
        rows=st.sampled_from([1, 7, 64]),
    )
    # Two paths of 20 points, far apart: diameter 19, half the pairs unreachable.
    @example(g=unit_graph(line_sample(*[Q(3 * i, 4) + 100 * (i >= 20) for i in range(40)])),
             cap="diameter", rows=7)
    def test_levels_match_bfs_at_every_cap(self, g, cap, rows):
        n = len(g.sample.points)
        uncapped = _capped_bfs(g, n)
        assert np.array_equal(distance_matrix(g), np.where(uncapped > n, -1, uncapped))
        if cap == "diameter":
            cap = max(int(uncapped[uncapped <= n].max()), 1)
        want = np.minimum(uncapped, cap + 1)
        planes = rg._hop_planes(g, cap)
        assert len(planes) == (cap + 1).bit_length()
        for plane in planes:  # no bit past the n targets
            assert not _unpacked(plane, plane.shape[1] * 64)[:, n:].any()
        for lo in range(0, n, rows):
            hi = min(lo + rows, n)
            assert np.array_equal(rg._plane_levels(planes, lo, hi, n), want[lo:hi, lo:])

    def test_zero_and_one_point_graphs(self):
        empty = GeomGraph(line_sample(), np.zeros((0, 2), dtype=np.int64), Q(1), None)
        single = unit_graph(line_sample(0))
        assert distance_matrix(empty).shape == (0, 0)
        assert distance_matrix(single).tolist() == [[0]]
        for g in (empty, single):
            report = bj_audit(g, 5)
            assert report.pairs == 0 and not report.satisfied.any()


class TestBjAudit:
    @settings(max_examples=80, deadline=None)
    @given(
        g=st.sampled_from(AUDIT_CORPUS).map(_audit_graph) | long_paths(),
        k_max=st.integers(2, 45),
        rows=st.sampled_from([1, 7, 64, "n", "n+1"]),
    )
    # A 30-point path: hops reach 29 past the cap of 21 (the largest floor),
    # and k_max = 45 puts rows past the cap of n - 1.
    @example(g=unit_graph(line_sample(*[Q(3 * i, 4) for i in range(30)])), k_max=4, rows=7)
    @example(g=unit_graph(line_sample(*[Q(3 * i, 4) for i in range(30)])), k_max=45, rows=7)
    # Violations at hops 3 to 5, past k_max: the cap is the largest floor.
    @example(g=_audit_graph("long_violations"), k_max=2, rows=1)
    # Blocks from words 1 and 2 on, rows settled at hops 2 to 9, violations at hops 1 to 8.
    @example(g=_audit_graph("random_edges"), k_max=3, rows=64)
    @example(g=_audit_graph("random_edges"), k_max=3, rows=7)
    def test_blocks_and_cap_match_the_whole_matrix_count(self, g, k_max, rows):
        n = len(g.sample.points)
        size = {"n": n, "n+1": n + 1}.get(rows, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rg, "_BLOCK_ROWS", size)
            report = bj_audit(g, k_max)
            assert (report.rows, report.one_sided_violations) == _reference_bj_audit(g, k_max)

    @pytest.mark.parametrize("name", AUDIT_CORPUS)
    def test_matches_a_direct_count_over_pairs(self, name):
        # Rows and violations against a count over i < j of BFS hops and
        # floors of the exact norm, one pair at a time.
        g = _audit_graph(name)
        pts, k_max = g.sample.points, 6
        hops = bfs_hops(g)
        pairs = [
            (math.floor(norm(g.sample.ball, vsub(pts[i], pts[j]))), hops[i][j])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        ]
        rows = []
        for k in range(2, k_max + 1):
            sat = sum((floor < k) == (0 <= hop <= k) for floor, hop in pairs)
            rows.append((k, len(pairs), sat, Q(sat, len(pairs)) if pairs else Q(1)))
        report = bj_audit(g, k_max)
        assert report.rows == tuple(rows)
        assert report.one_sided_violations == sum(1 <= hop <= floor for floor, hop in pairs)
        if name == "sparse_cube_1":
            assert any(hop < 0 for _, hop in pairs)
        if name == "object_floors":  # the floors are read from int64 keys
            assert norm_floor_matrix(g).dtype == np.int64
        if name == "hand_built_violation":
            assert report.one_sided_violations == 1

    def test_two_isolated_points_fail_biconditional(self):
        g = unit_graph(line_sample(0, Q(3, 2)))
        report = bj_audit(g, 2)
        k, pairs, satisfied, fraction = report.rows[0]
        assert (k, pairs, satisfied) == (2, 1, 0)
        assert report.one_sided_violations == 0

    def test_one_sided_implication_is_exact(self, linf2):
        ball, dec = linf2
        for seed in (1, 2, 3):
            s = sample_typical_points(ball, dec, Q(3), 150, seed=seed)
            gp = bernoulli_subgraph(unit_graph(s), Q(1, 2), seed=seed + 10)
            report = bj_audit(gp, 5)
            assert report.one_sided_violations == 0
            # Cross-check the implication directly on exact floors.
            dm = distance_matrix(gp)
            floors = norm_floor_matrix(gp)
            finite = dm >= 1
            assert bool(np.all(floors[finite] < dm[finite]))

    def test_kmax_validation(self):
        g = unit_graph(line_sample(0, Q(1, 2)))
        with pytest.raises(ValueError):
            bj_audit(g, 1)

    def test_density_trend(self, linf2):
        # The biconditional fraction grows with density; highest beats lowest.
        ball, dec = linf2
        levels = (60, 150, 400)
        seeds = (101, 102, 103)
        agg = {}
        for n in levels:
            sat = tot = 0
            for seed in seeds:
                s = sample_typical_points(ball, dec, Q(3), n, seed=seed)
                gp = bernoulli_subgraph(unit_graph(s), Q(1, 2), seed=seed * 7)
                report = bj_audit(gp, 4)
                sat += sum(r[2] for r in report.rows)
                tot += sum(r[1] for r in report.rows)
            agg[n] = Q(sat, tot)
        assert agg[levels[-1]] > agg[levels[0]]


class TestAgreement:
    @pytest.mark.parametrize("p, seed", [(Q(3, 10), 0xA9EE), (Q(1, 2), 2), (Q(2, 2**32 + 1), 4)])
    def test_pairs_of_loop_coins(self, p, seed):
        rng = random.Random(seed)
        coins = [rng.randrange(p.denominator) < p.numerator for _ in range(6000)]
        agree = sum(a == b for a, b in zip(coins[::2], coins[1::2]))
        assert edge_agreement_probability(p, 3000, seed) == Q(agree, 3000)

    def test_rounds_replay_the_loop(self):
        # 40,000 trials draw 80,000 coins: two full `_COIN_ROUND`s and a part.
        p, rng = Q(3, 10), random.Random(9)
        coins = [rng.randrange(10) < 3 for _ in range(80_000)]
        agree = sum(a == b for a, b in zip(coins[::2], coins[1::2]))
        assert edge_agreement_probability(p, 40_000, 9) == Q(agree, 40_000)

    def test_coins_are_not_held(self):
        # All 2 * 10**6 coins at once were a 2 MB bool array (2.86 MB traced).
        tracemalloc.start()
        try:
            edge_agreement_probability(Q(3, 10), 10 ** 6, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000

    def test_p_one_always_agrees(self):
        assert edge_agreement_probability(Q(1), 500, seed=1) == 1

    def test_half(self):
        est = edge_agreement_probability(Q(1, 2), 10 ** 4, seed=2)
        assert abs(est - Q(1, 2)) <= Q(2, 100)

    def test_three_tenths(self):
        est = edge_agreement_probability(Q(3, 10), 10 ** 4, seed=3)
        assert abs(est - Q(58, 100)) <= Q(2, 100)

    def test_validation(self):
        with pytest.raises(ValueError):
            edge_agreement_probability(Q(3, 2), 10, seed=1)
        with pytest.raises(ValueError):
            edge_agreement_probability(Q(1, 2), 0, seed=1)
