import math
import random
from fractions import Fraction as Q

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rado_lab import linalg
from rado_lab.decomposition import canonical_direction, linear_isometry_group, linf_decomposition
from rado_lab.errors import (
    DimensionMismatch,
    NotAffineBasis,
    NotAnIsometry,
    NotInjective,
    OutOfDomain,
)
from rado_lab.geometry import (
    closed_ball_membership,
    cross_polytope_ball,
    cube_ball,
    hexagon_ball,
    hexagonal_prism_ball,
    integer_table,
    norm,
    norm_keys,
    norm_projections,
    pairwise_norm_numerators,
    projection_distances,
    square_ball,
)
from rado_lab.grid import INT64_BOUND
from rado_lab.linalg import identity_matrix, matvec, vsub, zero_vec
from rado_lab.step_isometry import (
    IDENTITY_G,
    AffineMap,
    FactorizedStepIsometry,
    MonotoneBijection01,
    StepIsometrySpec,
    _invert_axis,
    affine_isometry_from_basis,
    apply_factorized,
    apply_linf,
    check_factorization_consistency,
    identity_spec,
    random_step_isometry,
    verify_step_isometry,
)


def v(*coords):
    return tuple(Q(c) for c in coords)


def rand_point(rng, d, den=512, span=4):
    return tuple(Q(rng.randrange(-span * den, span * den), den) for _ in range(d))


G_HALF_QUARTER = MonotoneBijection01(((Q(0), Q(0)), (Q(1, 2), Q(1, 4))))


# The two-step axis inversion that `_invert_axis` replaced, kept as its
# reference: reflect g^-1 when eps = -1, then rotate it by frac(-o).
def _reflect(g):
    """u -> 1 - g(1 - u), the conjugate under reflection of the circle."""
    pts = [(Q(0), Q(0))]
    for t, y in g.breakpoints:
        if t != 0:
            pts.append((1 - t, 1 - y))
    return MonotoneBijection01(tuple(sorted(pts)))


def _shift_precompose(g, rho):
    """(g2, c) with unfold(g, s + rho) = floor(s) + g2(frac(s)) + c for all s."""
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


def reference_invert_axis(eps, g, o):
    h = g.inverse()
    b_int = math.floor(-o)
    rho = -o - b_int
    if eps == 1:
        g2, c = _shift_precompose(h, rho)
        return 1, g2, c + b_int
    g2, c = _shift_precompose(_reflect(h), rho)
    return -1, g2, -(c + b_int)


def reference_eval(g, t):
    """Piece lookup by a backward scan over the breakpoints."""
    bps = g.breakpoints
    lo = next(i for i in range(len(bps) - 1, -1, -1) if bps[i][0] <= t)
    t0, y0 = bps[lo]
    t1, y1 = bps[lo + 1] if lo + 1 < len(bps) else (Q(1), Q(1))
    return y0 + (t - t0) * (y1 - y0) / (t1 - t0)


@st.composite
def bijections(draw):
    """0-6 breakpoints on a grid of 8, 64 or 2^16, with the grid's denominator."""
    n = draw(st.integers(0, 6))
    den = draw(st.sampled_from((8, 64, 2 ** 16)))
    inner = st.sets(st.integers(1, den - 1), min_size=n, max_size=n).map(sorted)
    ts, ys = draw(inner), draw(inner)
    bps = ((Q(0), Q(0)),) + tuple((Q(t, den), Q(y, den)) for t, y in zip(ts, ys))
    return MonotoneBijection01(bps), den


@st.composite
def axes(draw):
    """(eps, g, offset) with an integer, on-grid or off-grid offset of either sign."""
    g, den = draw(bijections())
    offset = draw(st.one_of(
        st.integers(-10 ** 4, 10 ** 4).map(Q),
        st.integers(-4 * den, 4 * den).map(lambda k: Q(k, den)),
        st.fractions(-10 ** 4, 10 ** 4, max_denominator=997),
    ))
    return draw(st.sampled_from((1, -1))), g, offset


@st.composite
def specs(draw):
    d = draw(st.integers(1, 3))
    eps, gs, offset = zip(*(draw(axes()) for _ in range(d)))
    sigma = tuple(draw(st.permutations(range(d))))
    return StepIsometrySpec(d=d, sigma=sigma, eps=eps, g=gs, offset=offset)


class TestMonotoneBijection:
    def test_identity(self):
        assert IDENTITY_G.eval(Q(2, 3)) == Q(2, 3)

    def test_breakpoint_hit(self):
        assert G_HALF_QUARTER.eval(Q(1, 2)) == Q(1, 4)

    def test_interpolation(self):
        # On the segment (1/2, 1/4) -> (1, 1): 1/4 + (1/4)*(3/2) = 5/8.
        assert G_HALF_QUARTER.eval(Q(3, 4)) == Q(5, 8)

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            IDENTITY_G.eval(Q(1))
        with pytest.raises(OutOfDomain):
            IDENTITY_G.eval(Q(-1, 10))

    def test_validation(self):
        with pytest.raises(ValueError):
            MonotoneBijection01(((Q(1, 4), Q(1, 4)),))  # must start at (0,0)
        with pytest.raises(ValueError):
            MonotoneBijection01(((Q(0), Q(0)), (Q(1, 2), Q(0))))  # not increasing

    def test_strictly_increasing_and_fixes_zero(self):
        rng = random.Random(8)
        for seed in range(10):
            g = random_step_isometry(1, 5, seed).g[0]
            assert g.eval(Q(0)) == 0
            ts = sorted(Q(rng.randrange(0, 1024), 1024) for _ in range(20))
            vals = [g.eval(t) for t in ts]
            for (t0, y0), (t1, y1) in zip(zip(ts, vals), zip(ts[1:], vals[1:])):
                if t0 != t1:
                    assert y0 < y1

    @settings(max_examples=200, deadline=None)
    @given(bijections())
    def test_eval_matches_a_backward_scan(self, g_den):
        g, _ = g_den
        ts = [t for t, _ in g.breakpoints] + [Q(1)]
        probes = ts[:-1] + [(a + b) / 2 for a, b in zip(ts, ts[1:])] + [1 - Q(1, 10 ** 9)]
        for t in probes:
            assert g.eval(t) == reference_eval(g, t)

    def test_inverse_round_trip(self):
        g = G_HALF_QUARTER
        h = g.inverse()
        for t in (Q(0), Q(1, 8), Q(1, 4), Q(17, 32), Q(9, 10)):
            assert h.eval(g.eval(t)) == t


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


class TestInvertAxis:
    @settings(max_examples=300, deadline=None)
    @given(axes())
    def test_matches_the_reflect_and_rotate_reference(self, axis):
        assert _invert_axis(*axis) == reference_invert_axis(*axis)

    @settings(max_examples=100, deadline=None)
    @given(specs(), st.data())
    def test_spec_inverse_round_trips(self, spec, data):
        inv = spec.inverse()
        point = st.tuples(*[st.fractions(-50, 50, max_denominator=256)] * spec.d)
        for _ in range(5):
            x = data.draw(point)
            assert apply_linf(inv, apply_linf(spec, x)) == x
            assert apply_linf(spec, apply_linf(inv, x)) == x


@st.composite
def mixed_points(draw, dim, count):
    """`count` distinct points whose coordinates mix denominators up to 2**200,
    mostly within 4 of the origin and now and then about 2**70 out."""
    def coord():
        den = draw(st.sampled_from([1, 3, 512, 2 ** 33, 2 ** 64 + 1, 2 ** 200])
                   | st.integers(1, 2 ** 200))
        span = 4 * den * draw(st.sampled_from([1, 1, 1, 2 ** 70]))
        return Q(draw(st.integers(-span, span)), den)
    points = {tuple(coord() for _ in range(dim)) for _ in range(count)}
    return sorted(points)


VERIFY_BALLS = [cube_ball(1), cube_ball(3), hexagon_ball(), hexagonal_prism_ball()]


def key_floors(ball, pts):
    """floor(norm(p_i - p_j)) read from the points' floor keys, and the keys' dtype."""
    keys, mod = norm_keys(ball, *integer_table(pts, ball.dim))
    return projection_distances(keys, keys) // mod, keys.dtype


class TestVerify:
    @settings(max_examples=80, deadline=None)
    @given(ball=st.sampled_from(VERIFY_BALLS), data=st.data())
    def test_floors_match_the_pairwise_numerators(self, ball, data):
        pts = data.draw(mixed_points(ball.dim, data.draw(st.integers(0, 12))))
        nums, den = pairwise_norm_numerators(ball, *integer_table(pts, ball.dim))
        assert np.array_equal(key_floors(ball, pts)[0], nums // den)

    # A point just off 1/2, over 2**71, makes every projection a Python int,
    # so the points are keyed: the keys are int64 iff (floor spread + 1) * n
    # < INT64_BOUND.  Here n = 5 and the floors run from -1 to far, a spread
    # of far + 1, so INT64_BOUND // 5 - 2 is the last far whose keys are
    # int64; at 2**60 and past it they are Python ints.
    @pytest.mark.parametrize("far, dtype", [
        (0, np.int64), (INT64_BOUND // 5 - 2, np.int64), (INT64_BOUND // 5 - 1, object),
        (2 ** 60, object), (2 ** 70, object),
    ])
    def test_floors_with_tied_fractions(self, far, dtype):
        # 1/3, 4/3, -2/3 and far + 1/3 share a fractional part.
        pts = [v(Q(1, 3)), v(Q(4, 3)), v(Q(-2, 3)), v(Q(1, 2) + Q(1, 2 ** 71)), v(far + Q(1, 3))]
        nums, den = pairwise_norm_numerators(cube_ball(1), *integer_table(pts, 1))
        floors, key_dtype = key_floors(cube_ball(1), pts)
        assert nums.dtype == object and (key_dtype == np.int64) == ((far + 2) * 5 < INT64_BOUND)
        assert key_dtype == dtype and np.array_equal(floors, nums // den)

    def test_an_int64_projection_table_is_its_own_key_table(self):
        pts = [v(Q(1, 3)), v(Q(4, 3)), v(2 ** 60 + Q(1, 3))]
        ys, den = norm_projections(cube_ball(1), *integer_table(pts, 1))
        keys, mod = norm_keys(cube_ball(1), *integer_table(pts, 1))
        assert ys.dtype == np.int64 and (mod, keys.tolist()) == (den, ys.tolist())

    @settings(max_examples=60, deadline=None)
    @given(ball=st.sampled_from(VERIFY_BALLS), data=st.data())
    def test_first_violation_matches_the_numerator_scan(self, ball, data):
        xs = data.draw(mixed_points(ball.dim, 10))
        ys = data.draw(mixed_points(ball.dim, len(xs)))
        xs = xs[: len(ys)]
        fd, fi = (nums // den for nums, den in
                  (pairwise_norm_numerators(ball, *integer_table(pts, ball.dim))
                   for pts in (xs, ys)))
        bad = [(i, j) for i in range(len(xs)) for j in range(i + 1, len(xs))
               if fd[i, j] != fi[i, j]]
        check = verify_step_isometry(ball, list(zip(xs, ys)))
        if bad:
            i, j = bad[0]
            assert (check.ok, check.pair_indices) == (False, (i, j))
            assert (check.floor_domain, check.floor_image) == (fd[i, j], fi[i, j])
        else:
            assert check.ok

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
        # Images with a common denominator past int64 have Python-int
        # projections (their keys are int64); the first violating pair in
        # row-major order and its floors must match a per-pair scan.
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
        # U = 0 leaves nothing to certify, so the ball's vertices are never read.
        class NoVertices:
            @property
            def vertices(self):
                raise AssertionError("certificate ran with U = 0")

        dec = linf_decomposition(cube_ball(2))
        spec = random_step_isometry(2, 2, seed=9)
        f = FactorizedStepIsometry(
            ball=NoVertices(),
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

    @pytest.mark.parametrize("index", range(12))
    def test_prism_accepts_every_hexagon_isometry(self, index):
        # A hexagon isometry M, written in U coordinates: P^-1 M P, where
        # the columns of P are the U basis vectors restricted to the plane.
        group = linear_isometry_group(hexagon_ball())
        assert len(group) == 12
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        assert all(b[2] == 0 for b in dec.u_basis)
        p = tuple(tuple(b[i] for b in dec.u_basis) for i in range(2))
        u_matrix = linalg.matmul(linalg.invert(p), linalg.matmul(group[index].matrix, p))
        f = FactorizedStepIsometry(
            ball=ball, decomposition=dec,
            u_map=AffineMap(u_matrix, v(Q(1, 3), -2)), w_map=identity_spec(1),
        )
        rng = random.Random(index)
        pts = {rand_point(rng, 3, den=16, span=2) for _ in range(20)}
        assert verify_step_isometry(ball, [(x, apply_factorized(f, x)) for x in pts]).ok

    @pytest.mark.parametrize(
        "u_matrix",
        [((1, 0), (0, 0)), ((0, 0), (0, 0)), ((1, 1), (1, 1)), ((Q(1, 2), 0), (0, Q(1, 2))),
         ((1, 1), (0, 1))],
        ids=["singular", "zero", "rank_one", "half_scaling", "shear"],
    )
    def test_non_isometric_u_map_rejected(self, u_matrix):
        ball = hexagonal_prism_ball()
        with pytest.raises(NotAnIsometry):
            FactorizedStepIsometry(
                ball=ball, decomposition=linf_decomposition(ball),
                u_map=AffineMap(tuple(v(*row) for row in u_matrix), zero_vec(2)),
                w_map=identity_spec(1),
            )

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

    def test_translation_by_a_finer_denominator(self):
        # The images' U-points have a denominator the domain's lack, so the
        # two sides' distance numerators are compared cross-multiplied.
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        neg = tuple(tuple(-c for c in row) for row in identity_matrix(2))
        f = FactorizedStepIsometry(
            ball=ball, decomposition=dec,
            u_map=AffineMap(neg, (Q(1, 3), Q(2 ** 70, 7))), w_map=identity_spec(1),
        )
        rng = random.Random(22)
        pts = {rand_point(rng, 3, den=32) for _ in range(20)}
        pairs = [(p, apply_factorized(f, p)) for p in pts]
        assert check_factorization_consistency(ball, dec, pairs)
        (x, y), *rest = pairs
        moved = [(x, vsub(y, v(Q(1, 5), 0, 0)))] + rest
        assert not check_factorization_consistency(ball, dec, moved)

    def test_repeated_point_refused(self):
        ball = hexagonal_prism_ball()
        dec = linf_decomposition(ball)
        for pairs in ([(v(0, 0, 0), v(1, 0, 0)), (v(0, 0, 0), v(2, 0, 0))],
                      [(v(0, 0, 0), v(1, 0, 0)), (v(2, 0, 0), v(1, 0, 0))]):
            with pytest.raises(NotInjective):
                check_factorization_consistency(ball, dec, pairs)

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


_BAD_ARGUMENTS = {
    "canonical_direction of 0": lambda: canonical_direction(square_ball(), v(0, 0)),
    "negative radius": lambda: closed_ball_membership(square_ball(), v(0, 0), Q(-1), v(0, 0)),
    "cube_ball(0)": lambda: cube_ball(0),
    "cross_polytope_ball(0)": lambda: cross_polytope_ball(0),
    "breakpoints not from 0": lambda: MonotoneBijection01(((Q(1, 4), Q(1, 4)),)),
    "breakpoints not increasing": lambda: MonotoneBijection01(((Q(0), Q(0)), (Q(1, 2), Q(0)))),
    "breakpoint at 1": lambda: MonotoneBijection01(((Q(0), Q(0)), (Q(1, 2), Q(1)))),
    "sigma": lambda: StepIsometrySpec(1, (1,), (1,), (IDENTITY_G,), v(0)),
    "eps": lambda: StepIsometrySpec(1, (0,), (2,), (IDENTITY_G,), v(0)),
    "offset length": lambda: StepIsometrySpec(1, (0,), (1,), (IDENTITY_G,), v(0, 0)),
    "random spec d=0": lambda: random_step_isometry(0, 1, seed=1),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_bad_arguments_raise_typed_out_of_domain(case):
    with pytest.raises(OutOfDomain):
        _BAD_ARGUMENTS[case]()
