import math
import random
from fractions import Fraction as Q

import pytest

from rado_lab.decomposition import linf_decomposition
from rado_lab.errors import (
    DimensionMismatch,
    NotAffineBasis,
    NotAnIsometry,
    NotInjective,
    OutOfDomain,
)
from rado_lab.geometry import cube_ball, hexagonal_prism_ball, norm, square_ball
from rado_lab.linalg import identity_matrix, matvec, vsub, zero_vec
from rado_lab.step_isometry import (
    IDENTITY_G,
    AffineMap,
    FactorizedStepIsometry,
    MonotoneBijection01,
    StepIsometrySpec,
    affine_isometry_from_basis,
    apply_factorized,
    apply_linf,
    check_factorization_consistency,
    eval_g,
    identity_spec,
    random_step_isometry,
    verify_step_isometry,
)


def v(*coords):
    return tuple(Q(c) for c in coords)


def rand_point(rng, d, den=512, span=4):
    return tuple(Q(rng.randrange(-span * den, span * den), den) for _ in range(d))


G_HALF_QUARTER = MonotoneBijection01(((Q(0), Q(0)), (Q(1, 2), Q(1, 4))))


class TestMonotoneBijection:
    def test_identity(self):
        assert eval_g(IDENTITY_G, Q(2, 3)) == Q(2, 3)

    def test_breakpoint_hit(self):
        assert eval_g(G_HALF_QUARTER, Q(1, 2)) == Q(1, 4)

    def test_interpolation(self):
        # On the segment (1/2, 1/4) -> (1, 1): 1/4 + (1/4)*(3/2) = 5/8.
        assert eval_g(G_HALF_QUARTER, Q(3, 4)) == Q(5, 8)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            eval_g(IDENTITY_G, Q(1))
        with pytest.raises(OutOfDomain):
            eval_g(IDENTITY_G, Q(-1, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneBijection01(((Q(1, 4), Q(1, 4)),))  # must start at (0,0)
        with pytest.raises(ValueError):
            MonotoneBijection01(((Q(0), Q(0)), (Q(1, 2), Q(0))))  # not increasing

    def test_strictly_increasing_and_fixes_zero(self):
        rng = random.Random(8)
        for seed in range(10):
            g = random_step_isometry(1, 5, seed).g[0]
            assert eval_g(g, Q(0)) == 0
            ts = sorted(Q(rng.randrange(0, 1024), 1024) for _ in range(20))
            vals = [eval_g(g, t) for t in ts]
            for (t0, y0), (t1, y1) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
                if t0 != t1:
                    assert y0 < y1

    def test_inverse_round_trip(self):
        g = G_HALF_QUARTER
        h = g.inverse()
        for t in (Q(0), Q(1, 8), Q(1, 4), Q(17, 32), Q(9, 10)):
            assert eval_g(h, eval_g(g, t)) == t


class TestApplyLinf:
    def test_identity_spec(self):
        spec = identity_spec(3)
        x = v(Q(5, 2), Q(-1, 3), 7)
        assert apply_linf(spec, x) == x

    def test_one_dimensional_example(self):
        spec = StepIsometrySpec(d=1, sigma=(0,), eps=(1,), g=(G_HALF_QUARTER,), offset=v(0))
        assert apply_linf(spec, v(Q(7, 2))) == v(Q(13, 4))

    def test_swap_and_flip_example(self):
        spec = StepIsometrySpec(
            d=2, sigma=(1, 0), eps=(1, -1), g=(IDENTITY_G, IDENTITY_G), offset=v(0, 0)
        )
        assert apply_linf(spec, v(Q(3, 2), Q(-1, 4))) == v(Q(1, 4), Q(3, 2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply_linf(identity_spec(2), v(1, 2, 3))

    def test_inverse_spec_round_trip(self):
        rng = random.Random(31)
        for seed in range(25):
            d = rng.choice((1, 2, 3))
            spec = random_step_isometry(d, rng.choice((0, 1, 2, 4)), seed=900 + seed)
            inv = spec.inverse()
            for _ in range(20):
                x = rand_point(rng, d)
                assert apply_linf(inv, apply_linf(spec, x)) == x


class TestVerify:
    def test_identity_map(self):
        ball = cube_ball(2)
        pts = [v(0, 0), v(Q(1, 3), Q(5, 7)), v(2, Q(-3, 2))]
        assert verify_step_isometry(ball, [(p, p) for p in pts]).ok

    def test_real_line_counterexample(self):
        ball = cube_ball(1)
        check = verify_step_isometry(ball, [(v(0), v(0)), (v(Q(3, 5)), v(Q(6, 5)))])
        assert not check.ok
        assert (check.floor_domain, check.floor_image) == (0, 1)

    def test_not_injective(self):
        ball = cube_ball(1)
        with pytest.raises(NotInjective):
            verify_step_isometry(ball, [(v(0), v(1)), (v(0), v(2))])
        with pytest.raises(NotInjective):
            verify_step_isometry(ball, [(v(0), v(1)), (v(2), v(1))])

    def test_object_path_first_violation(self):
        # Images with a common denominator past int64 take the Python-int
        # path; the first violating pair in row-major order and its floors
        # must match a per-pair scan.
        rng = random.Random(91)
        big = 2 ** 67 + 3
        for ball in (cube_ball(2), hexagonal_prism_ball()):
            d = ball.dim
            xs = sorted({rand_point(rng, d) for _ in range(15)})
            ys = [tuple(Q(rng.randrange(-4 * big, 4 * big), big) for _ in range(d)) for _ in xs]
            want = None
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    fd = math.floor(norm(ball, vsub(xs[i], xs[j])))
                    fi = math.floor(norm(ball, vsub(ys[i], ys[j])))
                    if want is None and fd != fi:
                        want = ((i, j), fd, fi)
            assert want is not None
            check = verify_step_isometry(ball, list(zip(xs, ys)))
            assert (check.pair_indices, check.floor_domain, check.floor_image) == want
            assert verify_step_isometry(ball, [(y, y) for y in ys]).ok

    def test_family_soundness_random(self):
        # Every member of the family preserves floors on every point set.
        rng = random.Random(1234)
        ball_by_d = {d: cube_ball(d) for d in (1, 2, 3)}
        for trial in range(30):
            d = rng.choice((1, 2, 3))
            spec = random_step_isometry(d, rng.choice((0, 2, 5)), seed=5000 + trial)
            pts = {rand_point(rng, d) for _ in range(25)}
            pairs = [(p, apply_linf(spec, p)) for p in pts]
            assert verify_step_isometry(ball_by_d[d], pairs).ok

    def test_composition_preserves_floors(self):
        rng = random.Random(77)
        ball = cube_ball(2)
        for trial in range(10):
            s1 = random_step_isometry(2, 3, seed=200 + trial)
            s2 = random_step_isometry(2, 2, seed=300 + trial)
            pts = {rand_point(rng, 2) for _ in range(20)}
            pairs = [(p, apply_linf(s2, apply_linf(s1, p))) for p in pts]
            assert verify_step_isometry(ball, pairs).ok

    def test_linear_isometries_are_step_isometries(self):
        from rado_lab.decomposition import linear_isometry_group

        rng = random.Random(55)
        ball = square_ball()
        pts = {rand_point(rng, 2) for _ in range(15)}
        shift = v(Q(3, 7), Q(-2, 5))
        for g in linear_isometry_group(ball):
            pairs = [(p, tuple(a + s for a, s in zip(g.apply(p), shift))) for p in pts]
            assert verify_step_isometry(ball, pairs).ok


class TestRandomSpec:
    def test_deterministic(self):
        assert random_step_isometry(2, 3, seed=4) == random_step_isometry(2, 3, seed=4)

    def test_zero_breakpoints_identity_g(self):
        spec = random_step_isometry(3, 0, seed=1)
        assert all(g == IDENTITY_G for g in spec.g)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_step_isometry(0, 1, seed=1)


class TestAffineFromBasis:
    def test_identity(self):
        ball = square_ball()
        pts = [v(0, 0), v(1, 0), v(0, 1)]
        got = affine_isometry_from_basis(ball, pts, pts)
        assert got.matrix == identity_matrix(2)
        assert got.translation == v(0, 0)

    def test_axis_swap_accepted(self):
        ball = square_ball()
        got = affine_isometry_from_basis(
            ball, [v(0, 0), v(1, 0), v(0, 1)], [v(0, 0), v(0, 1), v(1, 0)]
        )
        assert matvec(got.matrix, v(1, 0)) == v(0, 1)

    def test_scaling_rejected(self):
        with pytest.raises(NotAnIsometry):
            affine_isometry_from_basis(
                square_ball(), [v(0, 0), v(1, 0), v(0, 1)], [v(0, 0), v(2, 0), v(0, 1)]
            )

    def test_not_affine_basis(self):
        with pytest.raises(NotAffineBasis):
            affine_isometry_from_basis(
                square_ball(), [v(0, 0), v(1, 0), v(2, 0)], [v(0, 0), v(1, 0), v(2, 0)]
            )


class TestFactorized:
    def test_identity_everywhere(self):
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        f = FactorizedStepIsometry(
            ball=ball,
            decomposition=dec,
            u_map=AffineMap(identity_matrix(2), zero_vec(2)),
            w_map=identity_spec(1),
        )
        x = v(Q(1, 3), Q(-2, 5), Q(7, 2))
        assert apply_factorized(f, x) == x

    def test_prism_negated_plane_with_warped_axis(self):
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        neg = tuple(tuple(-c for c in row) for row in identity_matrix(2))
        f = FactorizedStepIsometry(
            ball=ball,
            decomposition=dec,
            u_map=AffineMap(neg, zero_vec(2)),
            w_map=StepIsometrySpec(
                d=1, sigma=(0,), eps=(1,), g=(G_HALF_QUARTER,), offset=v(Q(2, 3))
            ),
        )
        rng = random.Random(13)
        pts = {rand_point(rng, 3, den=64, span=2) for _ in range(50)}
        pairs = [(p, apply_factorized(f, p)) for p in pts]
        assert verify_step_isometry(ball, pairs).ok

    def test_cube_reduces_to_apply_linf(self):
        ball = cube_ball(2)
        dec = linf_decomposition(ball)
        spec = random_step_isometry(2, 2, seed=9)
        f = FactorizedStepIsometry(
            ball=ball,
            decomposition=dec,
            u_map=AffineMap((), ()),
            w_map=StepIsometrySpec(
                d=2, sigma=spec.sigma, eps=spec.eps, g=spec.g, offset=spec.offset
            ),
        )
        rng = random.Random(3)
        for _ in range(20):
            x = rand_point(rng, 2)
            w_coords = dec.coordinates(x)[1]
            expect = dec.recompose((), apply_linf(f.w_map, w_coords))
            assert apply_factorized(f, x) == expect

    def test_norm_distorting_u_map_rejected(self):
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        with pytest.raises(NotAnIsometry):
            FactorizedStepIsometry(
                ball=ball,
                decomposition=dec,
                u_map=AffineMap(((Q(2), Q(0)), (Q(0), Q(2))), zero_vec(2)),
                w_map=identity_spec(1),
            )


class TestFactorizationConsistency:
    def test_generated_pairs_pass(self):
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        neg = tuple(tuple(-c for c in row) for row in identity_matrix(2))
        f = FactorizedStepIsometry(
            ball=ball, decomposition=dec,
            u_map=AffineMap(neg, zero_vec(2)), w_map=identity_spec(1),
        )
        rng = random.Random(21)
        pts = {rand_point(rng, 3, den=32, span=2) for _ in range(30)}
        pairs = [(p, apply_factorized(f, p)) for p in pts]
        assert check_factorization_consistency(ball, dec, pairs)

    def test_single_pair_vacuous(self):
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        assert check_factorization_consistency(ball, dec, [(v(0, 0, 0), v(1, 0, 0))])

    def test_fibre_swap_at_unequal_distances_fails(self):
        # Swapping fibres over U-points at different U-distances cannot come
        # from any factorized map: the induced U-map distorts a distance.
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        pairs = [
            (v(1, 0, 0), v(3, 0, 0)),
            (v(0, 0, 0), v(0, 0, 0)),
            (v(3, 0, 0), v(1, 0, 0)),
        ]
        assert not check_factorization_consistency(ball, dec, pairs)

    def test_unequal_u_images_for_equal_u_fail(self):
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        pairs = [
            (v(1, 0, 0), v(1, 0, 0)),
            (v(1, 0, Q(1, 2)), v(2, 0, Q(1, 2))),
        ]
        assert not check_factorization_consistency(ball, dec, pairs)
