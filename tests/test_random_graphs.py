import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from rado_lab.decomposition import linf_decomposition
from rado_lab.errors import IndexOutOfRange, WindowTooSmall
from rado_lab.geometry import cube_ball, hexagon_ball, norm, validate_ball
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
    graph_distance,
    norm_floor_matrix,
    sample_typical_points,
    unit_graph,
)


def v(*coords):
    return tuple(Q(c) for c in coords)


def line_sample(*ws):
    ball = cube_ball(1)
    return PointSample(
        ball=ball, points=tuple(v(w) for w in ws), window=Q(4), seed=0, typicality=()
    )


@pytest.fixture(scope="module")
def linf2():
    ball = cube_ball(2)
    return ball, linf_decomposition(ball)


@pytest.fixture(scope="module")
def g0(linf2):
    ball, dec = linf2
    s = sample_typical_points(ball, dec, Q(3), 150, seed=41)
    return unit_graph(s)


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

    def test_points_inside_window(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(3), 40, seed=4)
        assert all(0 <= c < 3 for p in s.points for c in p)

    def test_fibre_constraint_dropped_when_u_trivial(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(
            ball, dec, Q(3), 5, seed=7, constraints=(LINF_INTEGER_FREE, FIBRE_FREE)
        )
        assert s.typicality == (LINF_INTEGER_FREE,)

    def test_fibre_constraint_enforced_on_prism(self):
        from rado_lab.geometry import hexagonal_prism_ball

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


class TestUnitGraph:
    def test_line_example(self):
        g = unit_graph(line_sample(0, Q(1, 2), Q(9, 8)))
        assert g.edges == ((0, 1), (1, 2))

    def test_exact_unit_distance_is_not_an_edge(self):
        g = unit_graph(line_sample(0, 1))
        assert g.edges == ()

    def test_cluster_is_complete(self):
        g = unit_graph(line_sample(0, Q(1, 4), Q(1, 2)))
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_fast_path_matches_reference(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(3), 60, seed=21)
        fast = unit_graph(s).edges
        slow = tuple(
            (i, j)
            for i in range(60)
            for j in range(i + 1, 60)
            if norm(ball, vsub(s.points[i], s.points[j])) < 1
        )
        assert fast == slow

    def test_generic_ball_path(self):
        ball = hexagon_ball()
        dec = linf_decomposition(ball)
        s = sample_typical_points(ball, dec, Q(2), 25, seed=3)
        g = unit_graph(s)
        for i, j in g.edges:
            assert norm(ball, vsub(s.points[i], s.points[j])) < 1

    def test_object_path_matches_reference(self):
        # A common denominator past int64 takes the Python-int path.
        rng = random.Random(8)
        big = 3 ** 45
        pts = tuple(
            tuple(Q(rng.randrange(0, 2 * big), big) for _ in range(2)) for _ in range(12)
        )
        for ball in (hexagon_ball(), cube_ball(2)):
            s = PointSample(ball=ball, points=pts, window=Q(2), seed=0, typicality=())
            g = unit_graph(s)
            floors = norm_floor_matrix(g)
            edges = []
            for i in range(12):
                for j in range(i + 1, 12):
                    d = norm(ball, vsub(pts[i], pts[j]))
                    assert floors[i, j] == floors[j, i] == math.floor(d)
                    if d < 1:
                        edges.append((i, j))
            assert g.edges == tuple(edges)

    def test_edge_soundness_audit(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(3), 120, seed=31)
        g = unit_graph(s)
        for i, j in g.edges:
            assert norm(ball, vsub(s.points[i], s.points[j])) < 1


class TestBernoulli:
    def test_p_one_keeps_everything(self, g0):
        assert bernoulli_subgraph(g0, Q(1), seed=1).edges == g0.edges

    def test_p_zero_drops_everything(self, g0):
        assert bernoulli_subgraph(g0, Q(0), seed=1).edges == ()

    def test_subset_and_determinism(self, g0):
        gp = bernoulli_subgraph(g0, Q(1, 3), seed=6)
        assert set(gp.edges) <= set(g0.edges)
        assert gp.edges == bernoulli_subgraph(g0, Q(1, 3), seed=6).edges

    def test_kept_count_within_binomial_bounds(self, g0):
        m = len(g0.edges)
        kept = len(bernoulli_subgraph(g0, Q(1, 2), seed=8).edges)
        sd = math.sqrt(m) / 2
        assert abs(kept - m / 2) <= 4 * sd

    def test_requires_unit_graph(self, g0):
        gp = bernoulli_subgraph(g0, Q(1, 2), seed=3)
        with pytest.raises(ValueError):
            bernoulli_subgraph(gp, Q(1, 2), seed=3)


class TestDistances:
    def test_same_vertex(self):
        g = unit_graph(line_sample(0, Q(1, 2)))
        assert graph_distance(g, 0, 0) == 0

    def test_adjacent(self):
        g = unit_graph(line_sample(0, Q(1, 2)))
        assert graph_distance(g, 0, 1) == 1

    def test_two_hops(self):
        g = unit_graph(line_sample(0, Q(3, 4), Q(3, 2)))
        assert graph_distance(g, 0, 2) == 2

    def test_unreachable(self):
        g = unit_graph(line_sample(0, 3))
        assert graph_distance(g, 0, 1) is None

    def test_index_out_of_range(self):
        g = unit_graph(line_sample(0, Q(1, 2)))
        with pytest.raises(IndexOutOfRange):
            graph_distance(g, 0, 5)

    def test_matrix_matches_bfs(self, linf2):
        ball, dec = linf2
        s = sample_typical_points(ball, dec, Q(3), 70, seed=51)
        g = bernoulli_subgraph(unit_graph(s), Q(1, 3), seed=52)
        dm = distance_matrix(g)
        rng = random.Random(0)
        for _ in range(60):
            i, j = rng.randrange(70), rng.randrange(70)
            bfs = graph_distance(g, i, j)
            assert dm[i, j] == (-1 if bfs is None else bfs)


class TestBjAudit:
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
