import math
import random
from fractions import Fraction as Q
from types import SimpleNamespace

import pytest

from rado_lab.back_forth import (
    BlockReason,
    FibreGraph,
    PartialIso,
    S0Params,
    attach_s0_gadget,
    audit_gadget,
    audit_state,
    bf_run,
    bf_run_experiment,
    bf_step,
    initial_identity,
    make_fibred_sample,
    s0_experiment,
)
from rado_lab.errors import CrossCheckFailure, IndexOutOfRange
from rado_lab.geometry import cube_ball, hexagon_ball
from rado_lab.step_isometry import apply_linf, random_step_isometry

U1 = cube_ball(1)


def frac(x):
    return x - math.floor(x)


class TestMakeFibredSample:
    def test_single_fibre(self):
        s = make_fibred_sample(U1, 1, 5, Q(1), seed=3)
        assert s.n_points == 5
        fr = [frac(w) for w in s.w_of]
        assert len(set(fr)) == 5  # pairwise non-integer differences

    def test_hexagon_plane_fibres(self):
        s = make_fibred_sample(hexagon_ball(), 10, 5, Q(1), seed=4)
        assert s.n_points == 50
        assert len(set(s.u_points)) == 10
        fr = [frac(w) for w in s.w_of]
        assert len(set(fr)) == 50

    def test_determinism(self):
        a = make_fibred_sample(U1, 6, 7, Q(2), seed=11)
        b = make_fibred_sample(U1, 6, 7, Q(2), seed=11)
        assert a == b

    def test_flat_structure(self):
        s = make_fibred_sample(U1, 4, 3, Q(1), seed=5)
        for i in range(s.n_points):
            f = s.fibre_of[i]
            assert s.w_of[i] in s.fibres[f]
            assert i in s.fibre_members[f]
            assert s.flat_point(i) == s.u_points[f] + (s.w_of[i],)


class TestFibreGraph:
    def test_edges_respect_unit_distance(self):
        s = make_fibred_sample(U1, 8, 3, Q(1), seed=6)
        g = FibreGraph(s, Q(1), seed=6, tag=0)
        for i in range(s.n_points):
            for j in range(i + 1, s.n_points):
                assert g.adjacent(i, j) == g.distance_lt_1(i, j)

    def test_coins_are_deterministic_and_symmetric(self):
        s = make_fibred_sample(U1, 6, 4, Q(1), seed=7)
        g1 = FibreGraph(s, Q(1, 2), seed=7, tag=0)
        g2 = FibreGraph(s, Q(1, 2), seed=7, tag=0)
        for i in range(0, 20, 3):
            for j in range(1, 24, 5):
                if i != j:
                    assert g1.adjacent(i, j) == g2.adjacent(j, i)

    def test_coin_key_guard(self):
        # Coin keys pack indices into 20 bits, so (0, 5) and (1, 2**20 + 5)
        # would share a coin; a stub stands in for a million-point sample.
        with pytest.raises(IndexOutOfRange):
            FibreGraph(SimpleNamespace(n_points=2 ** 20), Q(1, 2), seed=1)
        FibreGraph(SimpleNamespace(n_points=2 ** 20 - 1), Q(1, 2), seed=1)
        FibreGraph(SimpleNamespace(n_points=2 ** 20), Q(1), seed=1)  # p = 1 draws no coins

    def test_distinct_tags_are_independent_graphs(self):
        s = make_fibred_sample(U1, 40, 4, Q(1), seed=8)
        a = FibreGraph(s, Q(1, 2), seed=8, tag=0)
        b = FibreGraph(s, Q(1, 2), seed=8, tag=1)
        diff = sum(
            a.adjacent(i, j) != b.adjacent(i, j)
            for i in range(60)
            for j in range(i + 1, 60)
            if a.distance_lt_1(i, j)
        )
        assert diff > 0


class TestBfStep:
    def test_identity_candidate_matches_first_fibre_point(self):
        s = make_fibred_sample(U1, 5, 3, Q(1), seed=9)
        g = FibreGraph(s, Q(1, 2), seed=9, tag=0)
        vertex = min(s.members_of_fibre(s.fibre_of[0]))
        got = bf_step(g, g, PartialIso(), vertex, "forward")
        assert isinstance(got, PartialIso)
        assert got.fwd[vertex] == vertex

    def test_single_point_fibres_block_on_disagreement(self):
        blocked = 0
        for seed in range(12):
            rep = bf_run_experiment(U1, 40, 1, Q(1, 2), budget=40, seed=400 + seed)
            blocked += rep.blocked is not None
        assert blocked >= 10

    def test_backward_direction_extends_inverse(self):
        s = make_fibred_sample(U1, 5, 4, Q(1), seed=13)
        g = FibreGraph(s, Q(1), seed=13, tag=0)
        got = bf_step(g, g, PartialIso(), 0, "backward")
        assert isinstance(got, PartialIso)
        assert got.bwd[0] in s.members_of_fibre(s.fibre_of[0])

    def test_already_matched_vertex_rejected(self):
        s = make_fibred_sample(U1, 3, 2, Q(1), seed=14)
        g = FibreGraph(s, Q(1), seed=14, tag=0)
        state = bf_step(g, g, PartialIso(), 0, "forward")
        with pytest.raises(ValueError):
            bf_step(g, g, state, 0, "forward")


class TestBfRun:
    def test_same_graph_full_match(self):
        s = make_fibred_sample(U1, 6, 4, Q(1), seed=15)
        g = FibreGraph(s, Q(1, 2), seed=15, tag=0)
        rep = bf_run(g, g, budget=50, seed=15)
        assert rep.blocked is None
        assert rep.matched_count == 24

    def test_budget_respected(self):
        s = make_fibred_sample(U1, 6, 4, Q(1), seed=16)
        g = FibreGraph(s, Q(1, 2), seed=16, tag=0)
        rep = bf_run(g, g, budget=7, seed=16)
        assert rep.steps_attempted == 7
        assert rep.matched_count == 7

    def test_p_one_graphs_fully_match(self):
        s = make_fibred_sample(U1, 5, 3, Q(1), seed=17)
        a = FibreGraph(s, Q(1), seed=17, tag=0)
        b = FibreGraph(s, Q(1), seed=17, tag=1)
        rep = bf_run(a, b, budget=40, seed=17)
        assert rep.blocked is None
        assert rep.matched_count == 15

    def test_relabeled_graph_completes(self):
        # g2 carries the image sample of a known axis step-isometry; edge
        # coins are keyed by index pairs, so the same seed and tag reproduce
        # exactly the relabeled edge set (the map preserves unit distances).
        completed = 0
        for seed in range(10):
            s = make_fibred_sample(U1, 4, 200, Q(1), seed=700 + seed)
            spec = random_step_isometry(1, 3, seed=800 + seed)
            spec = type(spec)(d=1, sigma=(0,), eps=(1,), g=spec.g, offset=(Q(0),))
            fibres2 = tuple(
                tuple(apply_linf(spec, (w,))[0] for w in ws) for ws in s.fibres
            )
            w2 = tuple(apply_linf(spec, (w,))[0] for w in s.w_of)
            s2 = type(s)(
                u_ball=s.u_ball, u_points=s.u_points, fibres=fibres2,
                window=s.window, seed=s.seed, fibre_of=s.fibre_of, w_of=w2,
                fibre_members=s.fibre_members,
            )
            g = FibreGraph(s, Q(1, 2), seed=900 + seed, tag=0)
            g2 = FibreGraph(s2, Q(1, 2), seed=900 + seed, tag=0)
            rep = bf_run(g, g2, budget=50, seed=seed)
            completed += rep.blocked is None
        assert completed >= 9

    def test_density_response(self):
        # Completion capability rises with fibre density, in aggregate.
        low = high = 0
        for seed in range(10):
            r5 = bf_run_experiment(U1, 120, 5, Q(1, 2), budget=15, seed=2000 + seed)
            r200 = bf_run_experiment(U1, 120, 200, Q(1, 2), budget=15, seed=2000 + seed)
            low += r5.blocked is None
            high += r200.blocked is None
        assert high > low


class TestPartialIsoInvariants:
    def test_frac_pairs_stay_increasing_and_audits_pass(self):
        s = make_fibred_sample(U1, 30, 6, Q(1), seed=19)
        a = FibreGraph(s, Q(1, 2), seed=19, tag=0)
        b = FibreGraph(s, Q(1, 2), seed=19, tag=1)
        state = PartialIso()
        forward = True
        vertex_f = vertex_b = 0
        for _ in range(40):
            if forward:
                while vertex_f in state.fwd:
                    vertex_f += 1
                got = bf_step(a, b, state, vertex_f, "forward")
            else:
                while vertex_b in state.bwd:
                    vertex_b += 1
                got = bf_step(a, b, state, vertex_b, "backward")
            if isinstance(got, BlockReason):
                break
            state = got
            for (t0, y0), (t1, y1) in zip(state.frac_pairs, state.frac_pairs[1:]):
                assert t0 < t1 and y0 < y1
            audit_state(a, b, state)  # raises CrossCheckFailure on violation

    def test_shift_consistency_enforced(self):
        state = PartialIso()
        state = state._with_pair(0, 0, Q(1, 3), Q(4, 3))  # shift 1
        with pytest.raises(CrossCheckFailure):
            state._with_pair(1, 1, Q(1, 2), Q(1, 2))  # shift 0


class TestGadget:
    def test_gadget_distances(self):
        s = make_fibred_sample(U1, 20, 3, Q(1), seed=23)
        gadget = attach_s0_gadget(s, seed=23)
        ws = [gadget.combined.w_of[i] for i in gadget.gadget_indices]
        assert ws == [Q(0), Q(1), Q(3, 2), Q(5, 2)]
        audit_gadget(gadget)  # exactly {0,u} and {3u/2,5u/2} at unit distance

    def test_unique_potential_edge(self):
        s = make_fibred_sample(U1, 10, 2, Q(1), seed=29)
        gadget = attach_s0_gadget(s, seed=29)
        g = FibreGraph(gadget.combined, Q(1), seed=29, tag=0)
        idx = gadget.gadget_indices
        close = [
            (a, b)
            for x, a in enumerate(idx)
            for b in idx[x + 1:]
            if g.distance_lt_1(a, b)
        ]
        assert close == [gadget.potential_edge]

    def test_empty_sample_gadget_only(self):
        s = make_fibred_sample(U1, 1, 1, Q(1), seed=31)
        gadget = attach_s0_gadget(s, seed=31)
        audit_gadget(gadget)
        assert gadget.combined.n_points == 5

    def test_resampling_clears_collisions(self):
        # Force a fraction collision with the gadget and check it is cleared.
        s = make_fibred_sample(U1, 2, 2, Q(1), seed=37)
        fibres = list(s.fibres)
        fibres[0] = (Q(1, 2), fibres[0][1])
        bad = type(s)(
            u_ball=s.u_ball, u_points=s.u_points, fibres=tuple(fibres),
            window=s.window, seed=s.seed, fibre_of=s.fibre_of, w_of=s.w_of,
            fibre_members=s.fibre_members,
        )
        gadget = attach_s0_gadget(bad, seed=37)
        audit_gadget(gadget)


class TestS0Experiment:
    def test_small_run_rates_and_rows(self):
        params = S0Params(u_ball=U1, n_u=40, fibre_n=1, window=Q(1), budget=25, p=Q(1, 2))
        res = s0_experiment(params, trials=8, seed=91)
        assert res.trials == 8
        assert res.conditional_runs == res.agreements
        assert len(res.rows) == 8
        for t, agreed, completed in res.rows:
            assert (completed is None) == (not agreed)

    def test_p_one_always_agrees(self):
        params = S0Params(u_ball=U1, n_u=10, fibre_n=2, window=Q(1), budget=10, p=Q(1))
        res = s0_experiment(params, trials=3, seed=5)
        assert res.agreement_rate == 1
