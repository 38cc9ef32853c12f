import json
import math
import random
from fractions import Fraction as Q

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symmetric_ball
from rado_lab import geometry
from rado_lab.errors import (
    BadRational,
    DegenerateSpan,
    DimensionMismatch,
    DuplicatePoint,
    NotOnSphere,
    NotSymmetric,
    TooManyVertices,
)
from rado_lab.geometry import (
    MAX_FACET_SUBSETS,
    PolytopeBall,
    ball_from_json,
    ball_to_json,
    closed_ball_membership,
    cross_polytope_ball,
    cube_ball,
    hexagon_ball,
    hexagonal_prism_ball,
    is_extreme_point,
    is_extreme_via_balls,
    norm,
    parse_rational,
    square_ball,
    validate_ball,
)
from rado_lab.linalg import vadd, vneg, vscale, vsub


def v(*coords):
    return tuple(Q(c) for c in coords)


def rand_vec(rng, d, den=48):
    return tuple(Q(rng.randrange(-3 * den, 3 * den), den) for _ in range(d))


class TestValidateBall:
    def test_square_kept_as_is(self):
        ball = validate_ball([v(1, 1), v(1, -1), v(-1, 1), v(-1, -1)])
        assert len(ball.vertices) == 4

    def test_non_extreme_points_removed(self):
        ball = validate_ball(
            [v(1, 0), v(-1, 0), v(0, 1), v(0, -1), v(Q(1, 2), Q(1, 2)), v(Q(-1, 2), Q(-1, 2))]
        )
        assert len(ball.vertices) == 4
        assert v(Q(1, 2), Q(1, 2)) not in ball.vertices

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            validate_ball([v(1, 0), v(0, 1)])

    def test_duplicate(self):
        with pytest.raises(DuplicatePoint):
            validate_ball([v(1, 0), v(1, 0), v(-1, 0)])

    def test_degenerate_span(self):
        with pytest.raises(DegenerateSpan):
            validate_ball([v(1, 0), v(-1, 0)])

    def test_mixed_dimension(self):
        with pytest.raises(DimensionMismatch):
            validate_ball([v(1, 0), v(-1, 0), v(1,)])


class TestNorm:
    def test_square_is_max_norm(self):
        ball = square_ball()
        assert norm(ball, v(Q(1, 2), Q(-3, 4))) == Q(3, 4)

    def test_diamond_is_sum_norm(self):
        ball = cross_polytope_ball(2)
        assert norm(ball, v(Q(1, 2), Q(1, 2))) == 1

    def test_zero(self):
        assert norm(hexagon_ball(), v(0, 0)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            norm(square_ball(), v(1, 2, 3))

    def test_fast_paths_agree_with_gauge_lp(self):
        # The facet norm must equal the LP gauge exactly.
        rng = random.Random(99)
        balls = [cube_ball(2), cube_ball(3), cross_polytope_ball(3), hexagon_ball(),
                 hexagonal_prism_ball()]
        balls += [random_symmetric_ball(rng, d) for d in (2, 3, 4)]
        for ball in balls:
            for _ in range(25):
                x = rand_vec(rng, ball.dim)
                assert norm(ball, x) == geometry._gauge_via_lp(ball, x)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32),
        dim=st.integers(1, 4),
        coords=st.lists(st.fractions(max_denominator=1000, min_value=-50, max_value=50),
                        min_size=4, max_size=4),
    )
    def test_facet_norm_equals_gauge_lp(self, seed, dim, coords):
        ball = random_symmetric_ball(random.Random(seed), dim)
        x = tuple(coords[:dim])
        assert norm(ball, x) == geometry._gauge_via_lp(ball, x)

    def test_facet_enumeration_guard(self):
        # 50 vertices in dimension 4 give C(50, 4) > C(48, 4) subsets; the
        # guard trips before any of them is visited.
        assert MAX_FACET_SUBSETS == math.comb(48, 4)
        rng = random.Random(7)
        fake = tuple(rand_vec(rng, 4) for _ in range(50))
        with pytest.raises(TooManyVertices):
            norm(PolytopeBall(dim=4, vertices=fake), v(0, 0, 0, 0))

    def test_pairwise_numerators_object_path(self):
        # A common denominator past int64 must switch to Python ints and
        # still agree with the per-pair norm.
        rng = random.Random(11)
        big = 2 ** 70 + 1
        pts = [tuple(Q(rng.randrange(-3 * big, 3 * big), big) for _ in range(2)) for _ in range(6)]
        for ball in (hexagon_ball(), cube_ball(2)):
            nums, den = geometry.pairwise_norm_numerators(ball, pts)
            assert nums.dtype == object
            for i in range(6):
                for j in range(6):
                    assert Q(nums[i, j], den) == norm(ball, vsub(pts[i], pts[j]))

    def test_norm_axioms_random(self):
        rng = random.Random(5)
        for ball in (square_ball(), cross_polytope_ball(2), hexagon_ball()):
            for _ in range(100):
                x = rand_vec(rng, 2)
                y = rand_vec(rng, 2)
                q = Q(rng.randrange(-12, 13), 4)
                assert norm(ball, vscale(q, x)) == abs(q) * norm(ball, x)
                assert norm(ball, vadd(x, y)) <= norm(ball, x) + norm(ball, y)
                assert norm(ball, vneg(x)) == norm(ball, x)
                assert (norm(ball, x) == 0) == all(c == 0 for c in x)

    def test_gauge_consistency_vertices_have_norm_one(self):
        for maker in (square_ball, hexagon_ball, hexagonal_prism_ball,
                      lambda: cross_polytope_ball(3), lambda: cube_ball(3)):
            ball = maker()
            for vert in ball.vertices:
                assert norm(ball, vert) == 1


class TestExtremePredicates:
    def test_square_corner(self):
        assert is_extreme_point(square_ball(), v(1, 1)) is True

    def test_square_edge_midpoint(self):
        assert is_extreme_point(square_ball(), v(1, 0)) is False

    def test_diamond_tip(self):
        assert is_extreme_point(cross_polytope_ball(2), v(1, 0)) is True

    def test_not_on_sphere(self):
        with pytest.raises(NotOnSphere):
            is_extreme_point(square_ball(), v(Q(1, 2), 0))
        with pytest.raises(NotOnSphere):
            is_extreme_via_balls(cross_polytope_ball(2), v(Q(1, 2), Q(1, 4)))

    def test_via_balls_square_corner(self):
        assert is_extreme_via_balls(square_ball(), v(1, 1)) is True

    def test_via_balls_square_edge_midpoint(self):
        # The intersection of the ball with its translate by (2, 0) is the
        # whole segment {1} x [-1, 1]: both endpoints witness non-extremeness.
        ball = square_ball()
        assert is_extreme_via_balls(ball, v(1, 0)) is False
        for witness in (v(1, 1), v(1, -1)):
            assert closed_ball_membership(ball, v(0, 0), Q(1), witness)
            assert closed_ball_membership(ball, v(2, 0), Q(1), witness)

    def test_via_balls_diamond(self):
        ball = cross_polytope_ball(2)
        assert is_extreme_via_balls(ball, v(1, 0)) is True
        assert is_extreme_via_balls(ball, v(Q(1, 2), Q(1, 2))) is False

    def test_predicates_agree_on_all_vertices(self):
        for maker in (square_ball, hexagon_ball, hexagonal_prism_ball,
                      lambda: cross_polytope_ball(3)):
            ball = maker()
            for vert in ball.vertices:
                assert is_extreme_point(ball, vert) and is_extreme_via_balls(ball, vert)


class TestMembership:
    def test_boundary_included(self):
        assert closed_ball_membership(square_ball(), v(0, 0), Q(1), v(1, 1))

    def test_just_outside(self):
        assert not closed_ball_membership(
            square_ball(), v(0, 0), Q(1), v(1, 1 + Q(1, 1000))
        )

    def test_radius_zero(self):
        assert closed_ball_membership(square_ball(), v(Q(1, 3), 0), Q(0), v(Q(1, 3), 0))


class TestJson:
    def test_parse_rational_rejects_floats(self):
        with pytest.raises(BadRational):
            parse_rational("0.3")
        with pytest.raises(BadRational):
            parse_rational("3e-1")
        assert parse_rational("3/10") == Q(3, 10)
        assert parse_rational("-7") == -7

    def test_round_trip(self):
        for maker in (square_ball, hexagon_ball, hexagonal_prism_ball):
            ball = maker()
            text = json.dumps(ball_to_json(ball), sort_keys=True)
            again = ball_from_json(json.loads(text))
            assert again == ball
