"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 9's dense side is expected to fail.  Its measured
cause: traced runs block at steps 14-30, not near step 50, after a mirror
step; the following forward step meets a pinched candidate interval
(width 0.009-0.023, 1-4 candidates, 2 adjacency constraints) and no
candidate satisfies it (see ROADMAP item 4).
"""

import random
import time
from fractions import Fraction as Q

import pytest

from conftest import random_symmetric_ball
from rado_lab import back_forth as bf
from rado_lab import random_graphs as rg
from rado_lab.decomposition import (
    lattice_cover,
    linear_isometry_group,
    linf_decomposition,
)
from rado_lab.geometry import BUILTIN_BALLS, cube_ball, norm
from rado_lab.linalg import in_span, vsub
from rado_lab.step_isometry import apply_linf, random_step_isometry, verify_step_isometry


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_01_decomposition_on_canonical_balls():
    expectations = {
        "cube_1": (1, 0), "cube_2": (2, 0), "cube_3": (3, 0), "cube_4": (4, 0),
        "cross_polytope_3": (0, 3), "l1_plane": (2, 0), "hexagon": (0, 2),
        "hexagonal_prism": (1, 2),
    }
    worst = 0.0
    for name, (d_inf, dim_u) in expectations.items():
        ball = BUILTIN_BALLS[name]()
        start = time.perf_counter()
        dec = linf_decomposition(ball)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        assert dec.d_inf == d_inf, name
        assert len(dec.u_basis) == dim_u, name
        if name == "hexagonal_prism":
            for b in dec.u_basis:
                assert b[2] == 0  # U is exactly the hexagon plane
            assert dec.linf_basis[0].x == (Q(0), Q(0), Q(1))
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
    _report(1, True, f"8 canonical balls exact, worst {worst * 1000:.0f} ms")


def test_criterion_02_cross_method_agreement_random_polytopes():
    rng = random.Random(0xACCE)
    start = time.perf_counter()
    for i in range(50):
        ball = random_symmetric_ball(rng, 2 + i % 3)
        dec = linf_decomposition(ball)  # CrossCheckFailure would propagate
        assert dec.d_inf + len(dec.u_basis) == ball.dim
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, True, f"50 random polytopes in d=2..4 agree, {elapsed:.1f}s")


def test_criterion_03_isometry_group_orders():
    order_cube = len(linear_isometry_group(cube_ball(3)))
    order_square = len(linear_isometry_group(cube_ball(2)))
    assert order_cube == 48
    assert order_square == 8
    _report(3, True, "cube group order 48, square group order 8")


def test_criterion_04_step_isometry_family_soundness():
    rng = random.Random(0xFA111E5)
    balls = {d: cube_ball(d) for d in (1, 2, 3)}
    start = time.perf_counter()
    for trial in range(100):
        d = 1 + trial % 3
        spec = random_step_isometry(d, rng.choice((0, 1, 3, 6)), seed=10_000 + trial)
        points = set()
        while len(points) < 100:
            points.add(tuple(Q(rng.randrange(-2048, 2048), 512) for _ in range(d)))
        pairs = [(p, apply_linf(spec, p)) for p in sorted(points)]
        check = verify_step_isometry(balls[d], pairs)
        assert check.ok, (trial, check)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(4, True, f"100 specs x 100 points, zero violations, {elapsed:.1f}s")


def test_criterion_05_lattice_cover_bound():
    rng = random.Random(0xC07E)
    for name, maker in BUILTIN_BALLS.items():
        ball = maker()
        bound = Q(ball.dim, 2)
        for _ in range(1000):
            x = tuple(Q(rng.randrange(-128, 129), 16) for _ in range(ball.dim))
            cover = lattice_cover(ball, x)
            assert norm(ball, vsub(x, cover.point)) <= bound, (name, x)
    diamond = BUILTIN_BALLS["l1_plane"]()
    attained = lattice_cover(diamond, (Q(1, 2), Q(1, 2)))
    assert norm(diamond, vsub((Q(1, 2), Q(1, 2)), attained.point)) == 1
    _report(5, True, "1000 vectors per builtin ball within d/2; diamond attains d/2")


@pytest.fixture(scope="module")
def bj_corpus():
    """Criterion 7's graphs plus small extras; shared with criterion 6."""
    ball = cube_ball(2)
    dec = linf_decomposition(ball)
    runs = []
    for n in (100, 2000):
        for seed in range(10):
            sample = rg.sample_typical_points(ball, dec, Q(3), n, seed=7_000 + seed)
            gp = rg.bernoulli_subgraph(rg.unit_graph(sample), Q(1, 2), seed=8_000 + seed)
            runs.append((n, rg.bj_audit(gp, 4)))
    return runs


def test_criterion_06_one_sided_implication_exact(bj_corpus):
    ball = cube_ball(2)
    dec = linf_decomposition(ball)
    violations = sum(report.one_sided_violations for _, report in bj_corpus)
    # A few extra corpus graphs audited at full depth.
    for seed in (1, 2, 3):
        sample = rg.sample_typical_points(ball, dec, Q(4), 120, seed=seed)
        for p in (Q(1), Q(1, 3)):
            g = rg.unit_graph(sample)
            if p != 1:
                g = rg.bernoulli_subgraph(g, p, seed=seed)
            violations += rg.bj_audit(g, 6).one_sided_violations
    assert violations == 0
    _report(6, True, "path length bounds norm strictly, zero exceptions")


def test_criterion_07_bj_biconditional_density_trend(bj_corpus):
    def aggregate(n):
        sat = sum(r[2] for size, rep in bj_corpus if size == n for r in rep.rows)
        tot = sum(r[1] for size, rep in bj_corpus if size == n for r in rep.rows)
        return Q(sat, tot)

    low, high = aggregate(100), aggregate(2000)
    assert high > low, (float(low), float(high))
    assert high >= Q(99, 100), float(high)
    _report(
        7, True,
        f"fraction {float(low):.4f} at n=100 -> {float(high):.4f} at n=2000 (>= 0.99)",
    )


def test_criterion_08_gadget_agreement_probability():
    est = rg.edge_agreement_probability(Q(3, 10), 10 ** 4, seed=0xA9EE)
    assert Q(56, 100) <= est <= Q(60, 100), float(est)
    _report(8, True, f"agreement estimate {float(est):.4f} in [0.56, 0.60]")


@pytest.fixture(scope="module")
def s0_results():
    u_ball = cube_ball(1)
    dense = bf.s0_experiment(
        bf.S0Params(u_ball=u_ball, n_u=400, fibre_n=200, window=Q(1), budget=50, p=Q(1, 2)),
        trials=20, seed=0xBF01,
    )
    discrete = bf.s0_experiment(
        bf.S0Params(u_ball=u_ball, n_u=400, fibre_n=1, window=Q(1), budget=50, p=Q(1, 2)),
        trials=20, seed=0xBF02,
    )
    return dense, discrete


def test_criterion_09_back_and_forth_split(s0_results):
    dense, discrete = s0_results
    assert discrete.conditional_runs > 0 and dense.conditional_runs > 0
    discrete_rate = discrete.conditional_completion_rate
    dense_rate = dense.conditional_completion_rate
    assert discrete_rate <= Q(2, 10), float(discrete_rate)
    ok = dense_rate >= Q(9, 10)
    _report(
        9, ok,
        f"fibre_n=1 rate {float(discrete_rate):.2f} (<= 0.2 holds); "
        f"fibre_n=200 rate {float(dense_rate):.2f} vs required 0.9 "
        "(blocks at steps 14-30 on a pinched interval after a mirror step)",
    )


def test_criterion_10_partial_isomorphism_audits(s0_results):
    # Every bf run audits edge preservation and exact floors after every
    # accepted step, raising CrossCheckFailure on any violation.  The
    # criterion-9 corpus ran clean; exercise a fresh mixed corpus here.
    u_ball = cube_ball(1)
    runs = 0
    for seed in range(6):
        for fibre_n in (1, 25):
            report = bf.bf_run_experiment(
                u_ball, 50, fibre_n, Q(1, 2), budget=30, seed=0xC0DE + seed
            )
            assert report.matched_count <= report.steps_attempted
            runs += 1
    params = bf.S0Params(u_ball=u_ball, n_u=60, fibre_n=3, window=Q(1), budget=20, p=Q(1, 2))
    res = bf.s0_experiment(params, trials=6, seed=0xC0FE)
    runs += res.conditional_runs
    assert runs >= 12
    _report(10, True, f"{runs} audited runs, zero violations at any stage")
