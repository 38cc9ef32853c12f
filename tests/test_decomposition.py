import math
import random
from fractions import Fraction as Q

import pytest

from conftest import random_symmetric_ball
from rado_lab import linalg
from rado_lab.decomposition import (
    LinfDirection,
    LinfRejection,
    _extreme_lines_lp,
    canonical_direction,
    extreme_line_directions,
    extreme_lines,
    is_linf_direction,
    lattice_cover,
    linear_isometry_group,
    linf_decomposition,
    linf_directions,
    max_well_spanned_subspace,
)
from rado_lab.errors import NotUnitNorm, TooManyVertices
from rado_lab.geometry import (
    cross_polytope_ball,
    cube_ball,
    hexagon_ball,
    hexagonal_prism_ball,
    l1_plane_ball,
    norm,
    square_ball,
)
from rado_lab.linalg import vneg, vsub


def v(*coords):
    return tuple(Q(c) for c in coords)


class TestExtremeLines:
    def test_square_has_four_edges(self):
        lines = extreme_lines(square_ball())
        assert len(lines) == 4
        assert {e.direction for e in lines} == {v(1, 0), v(0, 1)}

    def test_cube_has_twelve_edges(self):
        lines = extreme_lines(cube_ball(3))
        assert len(lines) == 12
        assert {e.direction for e in lines} == {v(1, 0, 0), v(0, 1, 0), v(0, 0, 1)}

    def test_octahedron_edges_and_directions(self):
        # Brute-force over all 15 vertex pairs: the 3 antipodal pairs are not
        # edges, the other 12 are; directions are (e_i +- e_j)/2 up to sign.
        ball = cross_polytope_ball(3)
        lines = extreme_lines(ball)
        assert len(lines) == 12
        for e in lines:
            assert e.endpoints[0] != vneg(e.endpoints[1])
        dirs = extreme_line_directions(ball)
        expected = {
            v(Q(1, 2), Q(1, 2), 0), v(Q(1, 2), Q(-1, 2), 0),
            v(Q(1, 2), 0, Q(1, 2)), v(Q(1, 2), 0, Q(-1, 2)),
            v(0, Q(1, 2), Q(1, 2)), v(0, Q(1, 2), Q(-1, 2)),
        }
        assert set(dirs) == expected

    def test_fast_paths_agree_with_lp(self):
        rng = random.Random(404)
        balls = [square_ball(), cube_ball(3), cross_polytope_ball(3),
                 hexagon_ball(), hexagonal_prism_ball()]
        balls += [random_symmetric_ball(rng, d) for d in (2, 3, 3, 4)]
        for ball in balls:
            fast = {tuple(sorted(e.endpoints)) for e in extreme_lines(ball)}
            lp = {tuple(sorted(pair)) for pair in _extreme_lines_lp(ball)}
            assert fast == lp

    def test_dimension_one_ball_is_its_own_extreme_line(self):
        lines = extreme_lines(cube_ball(1))
        assert len(lines) == 1
        assert set(lines[0].endpoints) == {v(1), v(-1)}

    def test_directions_have_unit_norm_and_canonical_sign(self):
        for ball in (hexagon_ball(), hexagonal_prism_ball(), cross_polytope_ball(3)):
            for d in extreme_line_directions(ball):
                assert norm(ball, d) == 1
                assert next(c for c in d if c != 0) > 0


class TestIsLinfDirection:
    def test_square_axis_accepted(self):
        got = is_linf_direction(square_ball(), v(1, 0))
        assert isinstance(got, LinfDirection)
        assert set(map(frozenset, got.pairing)) == {
            frozenset({v(1, 1), v(-1, 1)}),
            frozenset({v(1, -1), v(-1, -1)}),
        }
        assert got.complement_basis == (v(0, 1),)

    def test_diamond_diagonal_accepted(self):
        # The sum-norm plane is isometric to the max-norm plane.
        got = is_linf_direction(l1_plane_ball(), v(Q(1, 2), Q(1, 2)))
        assert isinstance(got, LinfDirection)
        assert set(map(frozenset, got.pairing)) == {
            frozenset({v(1, 0), v(0, -1)}),
            frozenset({v(0, 1), v(-1, 0)}),
        }
        w = got.complement_basis
        assert len(w) == 1 and linalg.in_span(v(1, -1), w)

    def test_octahedron_axis_rejected_unpaired(self):
        got = is_linf_direction(cross_polytope_ball(3), v(1, 0, 0))
        assert isinstance(got, LinfRejection)
        assert got.reason == "unpaired_vertex"
        assert got.vertex == v(0, 1, 0)

    def test_not_unit_norm(self):
        with pytest.raises(NotUnitNorm):
            is_linf_direction(square_ball(), v(2, 0))


class TestLinfDirections:
    def test_square(self):
        dirs = {d.x for d in linf_directions(square_ball())}
        assert dirs == {v(1, 0), v(0, 1)}

    def test_octahedron_empty(self):
        assert linf_directions(cross_polytope_ball(3)) == []

    def test_hexagonal_prism_axis_only(self):
        dirs = {d.x for d in linf_directions(hexagonal_prism_ball())}
        assert dirs == {v(0, 0, 1)}


class TestMaxWellSpanned:
    def test_square_trivial(self):
        assert max_well_spanned_subspace(square_ball()) == ()

    def test_octahedron_everything(self):
        basis = max_well_spanned_subspace(cross_polytope_ball(3))
        assert len(basis) == 3

    def test_hexagon_plane(self):
        basis = max_well_spanned_subspace(hexagon_ball())
        assert len(basis) == 2

    def test_prism_keeps_hexagon_plane(self):
        basis = max_well_spanned_subspace(hexagonal_prism_ball())
        assert len(basis) == 2
        for b in basis:
            assert b[2] == 0  # the axis direction was eliminated as a coloop


class TestLinfDecomposition:
    @pytest.mark.parametrize(
        "maker,d_inf,dim_u",
        [
            (lambda: cube_ball(1), 1, 0),
            (lambda: cube_ball(2), 2, 0),
            (lambda: cube_ball(3), 3, 0),
            (lambda: cross_polytope_ball(3), 0, 3),
            (l1_plane_ball, 2, 0),
            (hexagon_ball, 0, 2),
            (hexagonal_prism_ball, 1, 2),
        ],
    )
    def test_builtin_decompositions(self, maker, d_inf, dim_u):
        dec = linf_decomposition(maker())
        assert dec.d_inf == d_inf
        assert len(dec.u_basis) == dim_u

    def test_coordinates_round_trip(self):
        dec = linf_decomposition(hexagonal_prism_ball())
        rng = random.Random(17)
        for _ in range(30):
            x = tuple(Q(rng.randrange(-40, 41), 8) for _ in range(3))
            u, w = dec.coordinates(x)
            assert dec.recompose(u, w) == x

    def test_cross_method_agreement_random_balls(self):
        rng = random.Random(303)
        for _ in range(12):
            ball = random_symmetric_ball(rng, rng.choice((2, 3)))
            dec = linf_decomposition(ball)  # raises CrossCheckFailure on a bug
            assert dec.d_inf + len(dec.u_basis) == ball.dim

    def test_every_linf_direction_is_an_extreme_line_direction(self):
        for maker in (square_ball, l1_plane_ball, hexagonal_prism_ball):
            ball = maker()
            eld = set(extreme_line_directions(ball))
            for d in linf_directions(ball):
                assert d.x in eld

    def test_linf_extreme_lines_have_length_two(self):
        ball = hexagonal_prism_ball()
        dirs = {d.x for d in linf_directions(ball)}
        for line in extreme_lines(ball):
            if line.direction in dirs:
                diff = vsub(line.endpoints[0], line.endpoints[1])
                assert norm(ball, diff) == 2


class TestLatticeCover:
    def test_zero_vector(self):
        got = lattice_cover(square_ball(), v(0, 0))
        assert got.coeffs == (0, 0)
        assert got.point == v(0, 0)

    def test_square_worked_example(self):
        got = lattice_cover(square_ball(), v(Q(1, 4), Q(3, 4)))
        assert got.spanning_extremes == (v(1, 1), v(1, -1))
        assert got.coeffs == (1, 0)
        assert got.point == v(1, 1)
        assert norm(square_ball(), vsub(v(Q(1, 4), Q(3, 4)), got.point)) == Q(3, 4)

    def test_diamond_bound_attained(self):
        ball = l1_plane_ball()
        target = v(Q(1, 2), Q(1, 2))
        got = lattice_cover(ball, target)
        assert norm(ball, vsub(target, got.point)) == 1  # exactly dim/2

    def test_bound_holds_on_random_vectors(self):
        rng = random.Random(71)
        for maker in (square_ball, l1_plane_ball, hexagon_ball):
            ball = maker()
            for _ in range(100):
                x = tuple(Q(rng.randrange(-64, 65), 16) for _ in range(ball.dim))
                got = lattice_cover(ball, x)
                assert norm(ball, vsub(x, got.point)) <= Q(ball.dim, 2)
                assert got.point == tuple(
                    sum(c * e[i] for c, e in zip(got.coeffs, got.spanning_extremes))
                    for i in range(ball.dim)
                )


class TestIsometryGroup:
    def test_square_order_eight(self):
        assert len(linear_isometry_group(square_ball())) == 8

    def test_cube_order_fortyeight(self):
        assert len(linear_isometry_group(cube_ball(3))) == 48

    def test_hexagon_group(self):
        # Brute force is the oracle here; the result must be a group that
        # contains +-identity.  The affinely regular hexagon realizes the
        # full dihedral symmetry linearly: order 12.
        group = linear_isometry_group(hexagon_ball())
        assert len(group) == 12
        mats = {g.matrix for g in group}
        ident = linalg.identity_matrix(2)
        assert ident in mats
        assert tuple(tuple(-c for c in row) for row in ident) in mats

    def test_guard(self):
        with pytest.raises(TooManyVertices):
            linear_isometry_group(square_ball(), vertex_guard=2)

    def test_isometries_permute_linf_directions(self):
        for maker in (square_ball, hexagonal_prism_ball):
            ball = maker()
            dirs = {d.x for d in linf_directions(ball)}
            for g in linear_isometry_group(ball):
                for x in dirs:
                    img = g.apply(x)
                    assert img in dirs or vneg(img) in dirs


class TestCanonicalDirection:
    def test_sign_and_scale(self):
        ball = square_ball()
        assert canonical_direction(ball, v(0, -3)) == v(0, 1)
        assert canonical_direction(ball, v(Q(-1, 2), Q(-1, 2))) == v(1, 1)
