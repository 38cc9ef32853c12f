import math
import random
from dataclasses import replace
from fractions import Fraction as Q
from itertools import permutations, product

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_symmetric_ball
from rado_lab import decomposition, linalg
from rado_lab.decomposition import (
    LinearIsometry,
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
from rado_lab.errors import CrossCheckFailure, NotUnitNorm, RadoLabError, TooManyVertices
from rado_lab.geometry import (
    BUILTIN_BALLS,
    cross_polytope_ball,
    cube_ball,
    hexagon_ball,
    hexagonal_prism_ball,
    integer_table,
    l1_plane_ball,
    norm,
    pairwise_norm_numerators,
    square_ball,
    validate_ball,
)
from rado_lab.linalg import vadd, vneg, vscale, vsub


def v(*coords):
    return tuple(Q(c) for c in coords)


def _random_ball_with_axes(seed: int, dim: int, axes: int):
    """A random symmetric ball times `axes` max-norm axes: conv(B x {-1, 1}^axes).

    Products past 24 vertices are skipped: enumerating the facets of 32
    vertices in dimension 4 takes about 2 s.
    """
    ball = random_symmetric_ball(random.Random(seed), dim)
    assume(len(ball.vertices) << axes <= 24)
    signs = [tuple(Q(1 if bits >> i & 1 else -1) for i in range(axes)) for bits in range(2 ** axes)]
    return validate_ball([p + s for p in ball.vertices for s in signs])


def _combination(coeffs, vectors, dim):
    out = linalg.zero_vec(dim)
    for c, b in zip(coeffs, vectors):
        out = vadd(out, vscale(c, b))
    return out


# (seed, dim, axes) with dim + axes <= 4.
_BALLS_WITH_AXES = st.tuples(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(0, 2)).filter(
    lambda t: t[1] + t[2] <= 4
)
_COEFFS = st.lists(
    st.fractions(min_value=-3, max_value=3, max_denominator=64), min_size=5, max_size=5
)


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

    @settings(max_examples=40, deadline=None)
    @given(spec=_BALLS_WITH_AXES, alpha=st.fractions(min_value=-3, max_value=3, max_denominator=64),
           coeffs=_COEFFS)
    def test_max_formula_for_every_accepted_direction(self, spec, alpha, coeffs):
        # The pairing and span certificate must imply
        # norm(alpha*x + u) = max(|alpha|, norm(u)) on the whole complement.
        ball = _random_ball_with_axes(*spec)
        dirs = linf_directions(ball)
        assert len(dirs) >= spec[2]
        for d in dirs:
            u = _combination(coeffs, d.complement_basis, ball.dim)
            assert norm(ball, vadd(vscale(alpha, d.x), u)) == max(abs(alpha), norm(ball, u))


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

    def test_complement_certificate_rejects_a_wrong_complement(self, monkeypatch):
        # The square's axis (1, 0) with complement span{(1, 1)} would leave the
        # other axis (0, 1) outside it: the max-sum certificate must refuse.
        real = linf_directions(square_ball())
        bent = [replace(d, complement_basis=(v(1, 1),)) if d.x == v(1, 0) else d for d in real]
        monkeypatch.setattr(decomposition, "linf_directions", lambda ball: bent)
        with pytest.raises(CrossCheckFailure):
            linf_decomposition(square_ball())

    @settings(max_examples=40, deadline=None)
    @given(spec=_BALLS_WITH_AXES, u_coeffs=_COEFFS, w_coeffs=_COEFFS)
    def test_max_sum_formula(self, spec, u_coeffs, w_coeffs):
        # norm(u + sum a_i x_i) = max(norm(u), max |a_i|) over the splitting.
        ball = _random_ball_with_axes(*spec)
        dec = linf_decomposition(ball)
        u = _combination(u_coeffs, dec.u_basis, ball.dim)
        lam = w_coeffs[:dec.d_inf]
        x = vadd(u, _combination(lam, [d.x for d in dec.linf_basis], ball.dim))
        assert norm(ball, x) == max([norm(ball, u)] + [abs(c) for c in lam])

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


def _reference_linear_isometry_group(ball):
    """Brute force: every injective choice of basis images with the basis'
    pairwise norm distances, kept when its Fraction matrix maps the vertex
    set onto itself."""
    vs = ball.vertices
    d = ball.dim
    basis = linalg.independent_subset(vs, limit=d)
    dist = pairwise_norm_numerators(ball, *integer_table(vs, d))[0].tolist()
    index = {x: i for i, x in enumerate(vs)}
    basis_idx = [index[b] for b in basis]
    basis_cols_inv = linalg.invert(linalg.transpose(basis))
    found = []
    images = []

    def extend(k):
        if k == d:
            matrix = linalg.matmul(linalg.transpose([vs[t] for t in images]), basis_cols_inv)
            perm = [index.get(linalg.matvec(matrix, x)) for x in vs]
            if None not in perm and len(set(perm)) == len(vs):
                found.append(LinearIsometry(matrix))
            return
        for t in range(len(vs)):
            if t not in images and all(
                dist[basis_idx[j]][basis_idx[k]] == dist[images[j]][t] for j in range(k)
            ):
                images.append(t)
                extend(k + 1)
                images.pop()

    extend(0)
    return sorted(found, key=lambda g: g.matrix)


def _reference_check_vertex_permutation_group(perms, neg):
    """The pairwise certificate: +-identity, every inverse and all |G|^2 products."""
    n = len(neg)
    if tuple(range(n)) not in perms or neg not in perms:
        raise CrossCheckFailure("isometry group must contain +-identity")
    for q in perms:
        inv = [0] * n
        for i, t in enumerate(q):
            inv[t] = i
        if tuple(inv) not in perms:
            raise CrossCheckFailure("isometry set not closed under inverse")
    for q in perms:
        for r in perms:
            if tuple([q[t] for t in r]) not in perms:
                raise CrossCheckFailure("isometry set not closed under composition")


def _vertex_permutations(ball):
    """The (perms, neg) that `linear_isometry_group` hands its group check."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomposition, "_check_vertex_permutation_group", lambda *a: seen.append(a))
        linear_isometry_group(ball)
    (perms, neg), = seen
    return perms, neg


def _is_group(check, perms, neg):
    try:
        check(perms, neg)
    except CrossCheckFailure:
        return False
    return True


def _vertex_gram(ball):
    """Q = sum of v v^T over the ball's vertices, in Fractions."""
    return linalg.matmul(linalg.transpose(ball.vertices), ball.vertices)


def _fraction_colours(ball):
    """Gram colours v_i^T Q^-1 v_j in Fractions, and the search's basis indices."""
    vs = ball.vertices
    q_inv = linalg.invert(_vertex_gram(ball))
    colours = [[linalg.vdot(x, linalg.matvec(q_inv, y)) for y in vs] for x in vs]
    return colours, [vs.index(b) for b in linalg.independent_subset(vs, limit=ball.dim)]


def _signed_permutations(d):
    """The 2^d d! signed permutation matrices, sorted."""
    return sorted(
        tuple(tuple(Q(s[i]) if p[i] == j else Q(0) for j in range(d)) for i in range(d))
        for p in permutations(range(d))
        for s in product((1, -1), repeat=d)
    )


def _ball_with_symmetry(seed: int, dim: int):
    """A random symmetric ball closed under one random signed permutation.

    The conftest recipe's balls mostly have only +-identity as isometries;
    these have more, so a search that drops or adds a map shows.
    """
    rng = random.Random(seed)
    perm = rng.sample(range(dim), dim)
    signs = [rng.choice((1, -1)) for _ in range(dim)]
    pts = set()
    for _ in range(rng.randrange(1, 3)):
        p = tuple(Q(rng.randrange(-8, 9), 4) for _ in range(dim))
        while any(p) and p not in pts:
            pts.update((p, vneg(p)))
            p = tuple(signs[i] * p[perm[i]] for i in range(dim))
    try:
        return validate_ball(sorted(pts))
    except RadoLabError:
        assume(False)


_RANDOM_BALLS = st.one_of(
    st.builds(
        lambda seed, dim: random_symmetric_ball(random.Random(seed), dim),
        st.integers(0, 2**32 - 1),
        st.integers(1, 3),
    ),
    st.builds(_ball_with_symmetry, st.integers(0, 2**32 - 1), st.integers(2, 3)),
)


class TestIsometryGroup:
    def test_square_order_eight(self):
        assert len(linear_isometry_group(square_ball())) == 8

    def test_cube_order_fortyeight(self):
        assert len(linear_isometry_group(cube_ball(3))) == 48

    def test_hexagon_group(self):
        # The result must be a group that contains +-identity.  The affinely
        # regular hexagon realizes the full dihedral symmetry linearly: order 12.
        group = linear_isometry_group(hexagon_ball())
        assert len(group) == 12
        mats = {g.matrix for g in group}
        ident = linalg.identity_matrix(2)
        assert ident in mats
        assert tuple(tuple(-c for c in row) for row in ident) in mats

    def test_guard(self, monkeypatch):
        monkeypatch.setattr(decomposition, "VERTEX_GUARD", 2)
        with pytest.raises(TooManyVertices):
            linear_isometry_group(square_ball())

    @staticmethod
    def square_perm(*rows):
        """The permutation of square_ball()'s vertices under a 2x2 matrix."""
        vs = square_ball().vertices
        m = tuple(tuple(Q(c) for c in row) for row in rows)
        return tuple(vs.index(linalg.matvec(m, x)) for x in vs)

    def test_closure_is_checked_on_vertex_permutations(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            decomposition, "_check_vertex_permutation_group", lambda *a: seen.append(a)
        )
        group = linear_isometry_group(square_ball())
        (perms, neg), = seen
        assert neg == self.square_perm((-1, 0), (0, -1))
        assert perms == {self.square_perm(*g.matrix) for g in group}

    def test_set_that_is_not_a_group_is_rejected(self):
        check = decomposition._check_vertex_permutation_group
        ident = self.square_perm((1, 0), (0, 1))
        neg = self.square_perm((-1, 0), (0, -1))
        rot = self.square_perm((0, -1), (1, 0))  # its inverse is -rot
        swap = self.square_perm((0, 1), (1, 0))  # an involution; -swap is missing
        group = {self.square_perm(*g.matrix) for g in linear_isometry_group(square_ball())}
        check(group, neg)
        with pytest.raises(CrossCheckFailure, match="identity"):
            check(group - {neg}, neg)
        with pytest.raises(CrossCheckFailure, match="composition"):
            check({ident, neg, rot}, neg)
        with pytest.raises(CrossCheckFailure, match="composition"):
            check({ident, neg, swap}, neg)

    @settings(max_examples=40, deadline=None)
    @given(ball=_RANDOM_BALLS, data=st.data())
    def test_generator_certificate_matches_the_pairwise_reference(self, ball, data):
        # The group, the group less any one non-identity element, and the
        # group plus one foreign permutation, when S_n has one to spare.
        perms, neg = _vertex_permutations(ball)
        ident = tuple(range(len(neg)))
        sets = [perms] + [perms - {q} for q in perms if q != ident]
        if len(perms) < math.factorial(len(neg)):
            foreign = data.draw(
                st.permutations(ident).map(tuple).filter(lambda q: q not in perms))
            sets.append(perms | {foreign})
        check = decomposition._check_vertex_permutation_group
        assert _is_group(check, perms, neg)
        for candidate in sets:
            assert _is_group(check, candidate, neg) == _is_group(
                _reference_check_vertex_permutation_group, candidate, neg)

    @settings(max_examples=60, deadline=None)
    @given(ball=_RANDOM_BALLS)
    def test_matches_reference_on_random_balls(self, ball):
        assert linear_isometry_group(ball) == _reference_linear_isometry_group(ball)

    @pytest.mark.parametrize("name", sorted(set(BUILTIN_BALLS) - {"cube_4"}))
    def test_matches_reference_on_builtins(self, name):
        ball = BUILTIN_BALLS[name]()
        assert linear_isometry_group(ball) == _reference_linear_isometry_group(ball)

    def test_leaf_check_drops_colour_matches_that_are_no_isometry(self):
        # Closed under the cyclic shift of coordinates only, so Q is a
        # circulant and every coordinate permutation keeps the colours.
        shifts = [p[k:] + p[:k] for p in (v(2, 0, 1), v(2, -1, 0)) for k in range(3)]
        ball = validate_ball(sorted(shifts + [vneg(p) for p in shifts]))
        colours, basis = _fraction_colours(ball)
        group = linear_isometry_group(ball)
        assert len(group) == 6
        assert len(decomposition._colour_matches(colours, basis)) == 12
        assert group == _reference_linear_isometry_group(ball)

    @pytest.mark.parametrize("ball", [cube_ball(4), cross_polytope_ball(4)], ids=["cube", "cross"])
    def test_d4_group_is_the_signed_permutations(self, ball):
        group = [g.matrix for g in linear_isometry_group(ball)]
        assert len(group) == 384
        assert group == _signed_permutations(4)

    @settings(max_examples=60, deadline=None)
    @given(ball=st.one_of(_RANDOM_BALLS, st.sampled_from([hexagon_ball(), hexagonal_prism_ball()])))
    def test_maps_keep_the_vertex_gram_matrix(self, ball):
        gram = _vertex_gram(ball)
        for g in linear_isometry_group(ball):
            assert linalg.matmul(linalg.matmul(g.matrix, gram), linalg.transpose(g.matrix)) == gram

    @settings(max_examples=60, deadline=None)
    @given(ball=st.one_of(_RANDOM_BALLS, st.sampled_from([hexagon_ball(), hexagonal_prism_ball()])))
    def test_colour_search_yields_exactly_the_colour_matches(self, ball):
        # Gram colours in Fractions, apart from the search's integer ones.
        colours, basis = _fraction_colours(ball)
        want = [
            t for t in product(range(len(colours)), repeat=ball.dim)
            if all(colours[t[j]][t[k]] == colours[basis[j]][basis[k]]
                   for k in range(ball.dim) for j in range(k + 1))
        ]
        assert decomposition._colour_matches(colours, basis) == want

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
