import dataclasses
import math
import random
from bisect import bisect_left
from fractions import Fraction as Q
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rado_lab import back_forth, grid
from rado_lab.back_forth import (
    BACKWARD,
    FORWARD,
    BlockReason,
    FibredSample,
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
from rado_lab.errors import (
    CrossCheckFailure, DimensionMismatch, IndexOutOfRange, OutOfDomain, WindowTooSmall,
)
from rado_lab.geometry import cube_ball, hexagon_ball, norm
from rado_lab.grid import draw_odd, grid_num, grid_nums
from rado_lab.linalg import vsub
from rado_lab.step_isometry import apply_linf, random_step_isometry

U1 = cube_ball(1)


def frac(x):
    return x - math.floor(x)


# The Fraction sampler that the integer-grid sampler replaced, kept as the
# reference for the seed stream: every draw and every accept/reject
# decision must match it, so outputs stay byte-identical.
_REF_DEN = 2 ** 33


def _ref_rand_rational(rng, lo, width):
    max_num = math.floor(width * _REF_DEN)
    odd = 2 * rng.randrange(2 ** 20) + 1
    if max_num <= odd:
        raise WindowTooSmall(f"width {width} too small for the sampler grid")
    k = rng.randrange((max_num - odd) // 2 + 1)
    return lo + Q(2 * k + odd, _REF_DEN)


def ref_fibred_sample(u_ball, n_u, fibre_n, window, seed):
    """(u_points, fibres) as the Fraction sampler drew them."""
    rng = random.Random(seed)
    dim = u_ball.dim
    u_side = Q(max(1, math.ceil(n_u ** (1 / dim))))
    u_points, u_seen = [], set()
    while len(u_points) < n_u:
        u = tuple(_ref_rand_rational(rng, Q(2), u_side) for _ in range(dim))
        if u not in u_seen:
            u_seen.add(u)
            u_points.append(u)
    fracs, fibres = set(), []
    for _ in range(n_u):
        ws = []
        while len(ws) < fibre_n:
            w = _ref_rand_rational(rng, Q(0), window)
            if frac(w) in fracs:
                continue
            fracs.add(frac(w))
            ws.append(w)
        fibres.append(tuple(ws))
    return tuple(u_points), tuple(fibres)


HIGH = 0xFFFFFFFF  # a word every odd-offset draw rejects


def odd_word(j):
    """The 32-bit word that `draw_odd` turns into the odd offset 2 j + 1."""
    return j << 11


class Words(random.Random):
    """A generator that returns scripted 32-bit words as MT19937's
    `getrandbits` returns its own: least significant word first, the last
    one cut to its top bits.  Past the script every word is HIGH, up to a
    bound that no bulk round reaches, so a draw that runs off the script
    fails instead of rejecting forever.  Its state is its position."""

    def __init__(self, words):
        super().__init__(0)
        self.words, self.pos = list(words), 0

    def getrandbits(self, k):
        n = -(-k // 32)
        if self.pos + n > len(self.words) + 2 * grid._CHUNK:
            raise IndexError("drew past the script")
        ws = [self.words[i] if i < len(self.words) else HIGH for i in range(self.pos, self.pos + n)]
        self.pos += n
        if ws:
            ws[-1] >>= 32 * n - k
        return sum(w << (32 * i) for i, w in enumerate(ws))

    def getstate(self):
        return self.pos

    def setstate(self, pos):
        self.pos = pos


def loop_nums(rng, max_num, count):
    """The per-draw loop that `grid_nums` replays."""
    return [grid_num(rng, max_num, draw_odd(rng)) for _ in range(count)]


def with_fibres(s, fibres):
    """s with its R-components replaced by the given rationals."""
    return FibredSample.from_fibres(
        s.u_ball, s.u_points, fibres, s.window, s.seed, s.integer_exempt_fibres
    )


def ref_floor(s, i, j):
    """floor of the distance of flat points i and j, from `geometry.norm` and Fractions."""
    du = norm(s.u_ball, vsub(s.u_points[s.fibre_of[i]], s.u_points[s.fibre_of[j]]))
    return math.floor(max(du, abs(s.w_of[i] - s.w_of[j])))


# A denominator that puts every numerator past grid.INT64_BOUND.
_WIDE = 3 ** 40


def widened(s):
    """s with every R-component and U-coordinate moved by its own k / 3**40,
    so the sample's numerators and its U-points' projections are Python ints
    (their floor keys stay int64)."""
    u_points = [tuple(c + Q(k + 1, _WIDE) for c in u) for k, u in enumerate(s.u_points)]
    fibres = [[w + Q(k + 1, _WIDE) for k, w in enumerate(ws)] for ws in s.fibres]
    return FibredSample.from_fibres(
        s.u_ball, u_points, fibres, s.window, s.seed, s.integer_exempt_fibres
    )


def ref_flat_order(fibres, seed, head_fibre=None):
    """[(fibre, w)] in flat order: the head fibre first, the rest shuffled."""
    head = [] if head_fibre is None else [(head_fibre, w) for w in fibres[head_fibre]]
    flat = [(f, w) for f, ws in enumerate(fibres) for w in ws if (f, w) not in head]
    random.Random(seed ^ 0x5A5A5A).shuffle(flat)
    return head + flat


def ref_gadget_fractions(fibres, window, seed):
    """The gadget's fraction pass: resample fractions 0, 1/2 and repeats."""
    rng = random.Random(seed ^ 0x60D6E7)
    fibres = [list(ws) for ws in fibres]
    fracs = set()
    for ws in fibres:
        for k, w in enumerate(ws):
            while frac(w) in fracs or frac(w) in (Q(0), Q(1, 2)):
                w = _ref_rand_rational(rng, Q(0), window)
            fracs.add(frac(w))
            ws[k] = w
    return tuple(map(tuple, fibres))


class TestUSide:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_least_side_holding_n_u(self, dim):
        for n_u in [*range(1, 300), 2 ** 20, 2 ** 20 + 1, 10 ** 12, 3 ** 40 - 1, 3 ** 40]:
            side = back_forth._u_side(n_u, dim)
            assert side >= 1 and side ** dim >= n_u
            assert side == 1 or (side - 1) ** dim < n_u

    def test_exact_where_the_float_root_falls_short(self):
        n_u = 2 ** 52 + 1  # 8192**4 == 2**52, one short
        assert math.ceil(n_u ** (1 / 4)) == 8192
        assert back_forth._u_side(n_u, 4) == 8193


class TestSeedStream:
    @settings(max_examples=40, deadline=None)
    @given(
        u_ball=st.sampled_from([U1, hexagon_ball()]),
        n_u=st.integers(1, 6),
        fibre_n=st.integers(1, 8),
        window=st.sampled_from([Q(1), Q(2), Q(3, 2), Q(1, 3)]),
        seed=st.integers(0, 2 ** 40),
    )
    def test_sampler_and_gadget_match_the_fraction_reference(
        self, u_ball, n_u, fibre_n, window, seed
    ):
        s = make_fibred_sample(u_ball, n_u, fibre_n, window, seed)
        u_points, fibres = ref_fibred_sample(u_ball, n_u, fibre_n, window, seed)
        assert (s.u_points, s.fibres) == (u_points, fibres)
        assert list(zip(s.fibre_of, s.w_of)) == ref_flat_order(fibres, seed)
        c = attach_s0_gadget(s, seed).combined
        assert c.fibres[:-1] == ref_gadget_fractions(fibres, window, seed)
        gadget_fibre = len(c.fibres) - 1
        assert c.integer_exempt_fibres == (gadget_fibre,)
        assert list(zip(c.fibre_of, c.w_of)) == ref_flat_order(c.fibres, seed, gadget_fibre)

    def test_r_components_dedupe_on_the_fractional_part(self, monkeypatch):
        # Window 2 holds num and num + 2**33, which share a fractional part.
        # Scripted (odd index, step) draws: one U-point (0, 3), then
        # R-numerators 11 (0, 5), 11 + 2**33 (0, 5 + 2**32; rejected) and
        # 17 (1, 7).  Odd index 0 needs a 33-bit step at window 1 and a
        # 34-bit one at window 2, odd index 1 a 33-bit one at window 2.
        script = Words([0, 3, 0, 0, 5, 0, 0, 5, 1 << 30, odd_word(1), 7, 0])
        monkeypatch.setattr(random, "Random", lambda seed: script)
        s = make_fibred_sample(U1, 1, 2, Q(2), seed=1)
        den = 2 ** 33
        assert s.u_points == ((2 + Q(7, den),),)
        assert s.fibres == ((Q(11, den), Q(17, den)),)
        assert script.pos == 12

    def test_bulk_r_components_dedupe_across_rounds(self, monkeypatch):
        # Window 1, every step one word: numerators 23, 23 (repeat), 45 in
        # the first round, 23 (repeat) in the second, 69 in the third.
        script = Words([
            odd_word(3), 5,  # U-point numerator 17
            odd_word(1), 10, odd_word(1), 10, HIGH, odd_word(2), 20,
            odd_word(1), 10,
            odd_word(4), 30,
        ])
        monkeypatch.setattr(random, "Random", lambda seed: script)
        s = make_fibred_sample(U1, 1, 3, Q(1), seed=1)
        den = 2 ** 33
        assert s.u_points == ((2 + Q(17, den),),)
        assert s.fibres == ((Q(23, den), Q(45, den), Q(69, den)),)
        assert script.pos == 13

    def test_r_component_attempts_are_capped(self, monkeypatch):
        # Every R-draw repeats numerator 23: the first is kept, and the
        # 200 draws allowed for two points end without a second.
        script = Words([odd_word(3), 5] + [odd_word(1), 10] * 200)
        monkeypatch.setattr(random, "Random", lambda seed: script)
        with pytest.raises(WindowTooSmall, match="^could not place integer-free R-components$"):
            make_fibred_sample(U1, 1, 2, Q(1), seed=1)
        assert script.pos == 2 + 400

    def test_many_repeats_match_the_fraction_reference(self):
        # About 2**20 grid numerators fit in a window of 2**-12: 20,000 draws
        # repeat fractional parts a few hundred times.
        s = make_fibred_sample(U1, 4, 5000, Q(1, 2 ** 12), seed=3)
        assert (s.u_points, s.fibres) == ref_fibred_sample(U1, 4, 5000, Q(1, 2 ** 12), 3)

    def test_off_grid_fibres_are_resampled_away_from_gadget_fractions(self):
        s = make_fibred_sample(U1, 2, 2, Q(1), seed=37)
        # 7/2 has the gadget fraction 1/2; 4/3 repeats the fraction of 1/3.
        fibres = ((Q(7, 2), Q(1, 3)), (Q(4, 3), s.fibres[1][1]))
        gadget = attach_s0_gadget(with_fibres(s, fibres), seed=37)
        got = gadget.combined.fibres[:-1]
        assert got == ref_gadget_fractions(fibres, s.window, 37)
        assert got[0][1] == Q(1, 3) and got[1][1] == s.fibres[1][1]
        assert frac(got[0][0]) not in {Q(0), Q(1, 2), Q(1, 3)}
        assert frac(got[1][0]) not in {Q(0), Q(1, 2), Q(1, 3)}
        audit_gadget(gadget)

    def test_gadget_audit_sees_an_off_grid_integer_difference(self):
        gadget = attach_s0_gadget(make_fibred_sample(U1, 2, 2, Q(1), seed=37), seed=37)
        c = gadget.combined
        fibres = ((Q(1, 3), Q(4, 3)),) + c.fibres[1:]
        with pytest.raises(CrossCheckFailure, match="integer R-difference"):
            audit_gadget(dataclasses.replace(gadget, combined=with_fibres(c, fibres)))
        fibres = ((Q(5, 2), c.fibres[0][1]),) + c.fibres[1:]
        with pytest.raises(CrossCheckFailure, match="integer R-difference"):
            audit_gadget(dataclasses.replace(gadget, combined=with_fibres(c, fibres)))


def _drawn(draw, rng, max_num, count):
    """A draw's numerators, or the class and message of its error."""
    try:
        return [int(n) for n in draw(rng, max_num, count)]
    except WindowTooSmall as exc:
        return WindowTooSmall, str(exc)


class TestGridNums:
    """`grid_nums` against the per-draw loop: the same numerators or the
    same error, and the generator left in the same state."""

    @staticmethod
    def assert_replays_the_loop(make_rng, window, count):
        max_num = math.floor(window * _REF_DEN)
        bulk, loop = make_rng(), make_rng()
        got = _drawn(grid_nums, bulk, max_num, count)
        assert got == _drawn(loop_nums, loop, max_num, count)
        assert bulk.getstate() == loop.getstate()
        if isinstance(got, list):
            ref = make_rng()
            assert got == [_ref_rand_rational(ref, Q(0), window) * _REF_DEN for _ in got]
        return got

    def test_scripted_words_replay_the_generator(self):
        words = random.Random(5).getrandbits(32 * 400).to_bytes(1600, "little")
        script = Words(int.from_bytes(words[i : i + 4], "little") for i in range(0, 1600, 4))
        rng = random.Random(5)
        for n in [2 ** 20, 2 ** 32 - 5, 2 ** 32, 2 ** 33 + 7, 2 ** 70 + 1, 1] * 10:
            assert script.randrange(n) == rng.randrange(n)

    def test_rejected_step_word(self):
        # Odd offset 2**21 - 1 at window 1 leaves n = 2**32 - 2**20 + 1
        # step values, so the all-ones step word is rejected and redrawn.
        words = [odd_word(5), 7, odd_word(2 ** 20 - 1), HIGH, HIGH, 12, odd_word(9), 3]
        got = self.assert_replays_the_loop(lambda: Words(words), Q(1), 3)
        assert got == [2 * 7 + 11, 2 * 12 + 2 ** 21 - 1, 2 * 3 + 19]

    def test_odd_one_at_window_one_takes_two_words(self):
        # n = 2**32 step values: a 33-bit draw, least significant word
        # first; 9 + 2**32 (words 9 and 1 << 31) is rejected, 9 kept.
        words = [odd_word(5), 7, HIGH, odd_word(0), 9, 1 << 31, 9, 0, odd_word(9), 3]
        got = self.assert_replays_the_loop(lambda: Words(words), Q(1), 3)
        assert got == [2 * 7 + 11, 2 * 9 + 1, 2 * 3 + 19]

    @pytest.mark.parametrize("window", [Q(2), Q(3, 2), Q(10 ** 12)])
    def test_windows_above_one(self, window):
        got = self.assert_replays_the_loop(lambda: random.Random(11), window, 300)
        assert max(got) > window * _REF_DEN / 2
        if window == 10 ** 12:
            assert grid_nums(random.Random(11), math.floor(window * _REF_DEN), 3).dtype == object
            assert max(got) >= 2 ** 63

    def test_counts_past_one_chunk(self):
        self.assert_replays_the_loop(lambda: random.Random(12), Q(1), 3 * grid._CHUNK)

    @pytest.mark.parametrize("max_num, odd_index", [
        (2 ** 20, 2 ** 19 + 3),  # the odd offset 2**20 + 7 passes max_num
        (2049, 1024),  # the odd offset 2049 equals it, where one step value would remain
    ])
    def test_too_small_window_raises_at_the_same_draw(self, max_num, odd_index):
        words = [odd_word(5), 7, odd_word(odd_index), 1, odd_word(1), 2]
        got = self.assert_replays_the_loop(lambda: Words(words), Q(max_num, 2 ** 33), 3)
        assert got == (WindowTooSmall, f"window of {max_num}/2**33 too small for the sampler grid")

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 32),
        # 1 to 1/16 and 1 + 2**-20 take the bulk path, 1/16 with a step
        # word rejected in up to one draw in 256; the rest take the loop.
        window=st.sampled_from([
            Q(1), Q(1, 2), Q(1, 16), 1 + Q(1, 2 ** 20), Q(1, 3), Q(3, 2), Q(2), Q(1, 2 ** 13),
        ]),
        count=st.integers(1, 400),
        chunk=st.sampled_from([64, 1 << 14]),
    )
    def test_replays_the_loop_on_the_generator(self, seed, window, count, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_CHUNK", chunk)
            self.assert_replays_the_loop(lambda: random.Random(seed), window, count)


def _at_word_edges(test):
    """Examples at the bounds where the word rule changes, for both steps:
    2**31 - 1 is the widest bound of step 1's uint32 sums, 2**32 - 1 the
    widest that one word serves."""
    for first in (1, 2, 3, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1):
        for step in (0, 1):
            test = example(first=first, count=3000, step=step, seed=0, chunk=64)(test)
    return test


class TestRandbelow:
    """`grid.randbelow` against the `randrange` loop: the same draws, and the
    generator left in the same state."""

    @settings(max_examples=120, deadline=None)
    @given(
        # Bounds of 2**62 and past take object arrays.
        first=st.sampled_from([1, 2, 3, 2 ** 31, 2 ** 32, 2 ** 62, 2 ** 70])
        | st.integers(1, 2 ** 33),
        count=st.integers(0, 3000),
        step=st.sampled_from([0, 1]),
        seed=st.integers(0, 2 ** 64),
        chunk=st.sampled_from([64, 1 << 14]),  # small rounds reach every path at small counts
    )
    @_at_word_edges
    def test_replays_the_randrange_loop(self, first, count, step, seed, chunk):
        count = min(count, first) if step else count
        bulk, loop = random.Random(seed), random.Random(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_CHUNK", chunk)
            got = grid.randbelow(bulk, first, count, step)
        assert got.tolist() == [loop.randrange(first - step * i) for i in range(count)]
        assert got.dtype == (np.int64 if first < grid.INT64_BOUND else object)
        assert bulk.getstate() == loop.getstate()

    def test_refuses_an_empty_range(self):
        with pytest.raises(OutOfDomain):
            grid.randbelow(random.Random(0), 3, 4, 1)
        with pytest.raises(OutOfDomain):
            grid.randbelow(random.Random(0), 0, 1, 0)


def _at_powers_of_two(test):
    """Examples at n = 2**k - 1, 2**k and 2**k + 1 around the bulk's runs."""
    for k in (1, 2, 9, 10, 11):
        for n in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            test = example(n=n, seed=0, chunk=1 << 14)(test)
            test = example(n=n, seed=0, chunk=64)(test)
    return test


class TestShuffled:
    """`grid.shuffled` against `random.Random.shuffle`: the same list, and
    the generator left in the same state."""

    @staticmethod
    def assert_replays_the_shuffle(seed, n):
        bulk, loop = random.Random(seed), random.Random(seed)
        x = list(range(n))
        loop.shuffle(x)
        got = grid.shuffled(bulk, n)
        assert got.tolist() == x
        assert bulk.getstate() == loop.getstate()

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 3000),
        seed=st.integers(0, 2 ** 64),
        chunk=st.sampled_from([64, 1 << 14]),  # small rounds reach every path at small n
    )
    @_at_powers_of_two
    def test_replays_the_shuffle(self, n, seed, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(grid, "_CHUNK", chunk)
            self.assert_replays_the_shuffle(seed, n)

    def test_s0_size(self):
        self.assert_replays_the_shuffle(0x5A5A5A ^ 5, 80_400)

    def test_scripted_draws(self):
        # Bounds 3 and 2 take 2-bit words: 3 is rejected at bound 3 and 2 at
        # bound 2, so the draws are 1 and then 0, and the swaps give [2, 0, 1].
        words = [3 << 30, 1 << 30, 2 << 30, 0, 1 << 30]
        x = [0, 1, 2]
        Words(words).shuffle(x)
        assert x == [2, 0, 1]
        rng = Words(words)
        assert grid.shuffled(rng, 3).tolist() == x
        assert rng.getstate() == 4

    def test_refuses_past_int32(self):
        with pytest.raises(IndexOutOfRange):
            grid.shuffled(random.Random(0), 2 ** 31)

    def test_flat_order_never_calls_the_list_shuffle(self, monkeypatch):
        def refuse(self, x):
            raise AssertionError("random.Random.shuffle called")

        monkeypatch.setattr(random.Random, "shuffle", refuse)
        s = make_fibred_sample(U1, 30, 40, Q(1), seed=8)
        c = attach_s0_gadget(s, 8).combined
        assert sorted(s.fibre_of.tolist()) == sorted(np.repeat(np.arange(30), 40).tolist())
        assert c.fibre_of[:4].tolist() == [30] * 4


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
        # Equal points make equal samples, whatever their denominator.
        c = dataclasses.replace(a, r_nums=a.r_nums * 3, r_den=a.r_den * 3)
        assert c == a and hash(c) == hash(a)
        assert c != with_fibres(a, [ws[::-1] for ws in a.fibres])

    def test_fibre_sizes_must_cover_the_r_components(self):
        with pytest.raises(DimensionMismatch):
            FibredSample(U1, ((Q(2),), (Q(3),)), np.array([1, 2, 3]), 4, (1, 1), Q(1), 0)

    def test_flat_structure(self):
        s = make_fibred_sample(U1, 4, 3, Q(1), seed=5)
        for i in range(s.n_points):
            f = s.fibre_of[i]
            assert s.w_of[i] in s.fibres[f]
            assert i in s.fibre_members(f)


class TestFibreGraph:
    def test_edges_respect_unit_distance(self):
        s = make_fibred_sample(U1, 8, 3, Q(1), seed=6)
        g = FibreGraph(s, Q(1), seed=6, tag=0)
        for i in range(s.n_points):
            for j in range(i + 1, s.n_points):
                assert g.adjacent(i, j) == (g.sample.floors(i, [j])[0] == 0)

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

    def test_experiments_refuse_past_the_coin_keys_before_sampling(self, monkeypatch):
        def no_sample(*args):
            raise AssertionError("sampled")

        monkeypatch.setattr(back_forth, "make_fibred_sample", no_sample)
        refusal = "^1048576 points; coin keys allow fewer than 1048576$"
        with pytest.raises(IndexOutOfRange, match=refusal):
            bf_run_experiment(U1, 4, 2 ** 18, Q(1, 2), budget=5, seed=1)
        # The S0 sample holds the gadget's four points too.
        with pytest.raises(IndexOutOfRange, match=refusal):
            s0_experiment(S0Params(U1, 4, 2 ** 18 - 1, p=Q(1, 2)), trials=3, seed=1)
        # One point fewer, or p = 1, passes the check and goes on to sample.
        for run in (
            lambda: bf_run_experiment(U1, 4, 2 ** 18 - 1, Q(1, 2), budget=5, seed=1),
            lambda: bf_run_experiment(U1, 4, 2 ** 18, Q(1), budget=5, seed=1),
            lambda: s0_experiment(S0Params(U1, 1, 2 ** 20 - 5, p=Q(1, 2)), trials=1, seed=1),
        ):
            with pytest.raises(AssertionError, match="sampled"):
                run()

    @pytest.mark.parametrize("seed, tag", [(5, 2), (6, -1), (-5, 0), (-5, 1)])
    def test_aliasing_coin_keys_refused(self, seed, tag):
        # The key ((seed * 2 + tag) << 40) ^ (a << 20) ^ b gives (5, 2) the
        # coins of (6, 0), and random.Random seeds from abs(key).
        s = make_fibred_sample(U1, 6, 2, Q(1), seed=3)
        with pytest.raises(OutOfDomain):
            FibreGraph(s, Q(1, 2), seed=seed, tag=tag)

    def test_distance_floor_matches_direct_norm(self):
        s = make_fibred_sample(hexagon_ball(), 6, 3, Q(3), seed=10)
        g = FibreGraph(s, Q(1, 2), seed=10)
        for i in range(s.n_points):
            for j in range(s.n_points):
                du = norm(s.u_ball, vsub(s.u_points[s.fibre_of[i]], s.u_points[s.fibre_of[j]]))
                want = math.floor(max(du, abs(s.w_of[i] - s.w_of[j])))
                assert g.sample.floors(i, [j])[0] == want

    @settings(max_examples=40, deadline=None)
    @given(
        u_ball=st.sampled_from([U1, hexagon_ball()]),
        n_u=st.integers(1, 5),
        fibre_n=st.integers(1, 4),
        window=st.sampled_from([Q(1), Q(3)]),
        seed=st.integers(0, 2 ** 32),
        wide=st.booleans(),
    )
    @example(u_ball=U1, n_u=3, fibre_n=2, window=Q(3), seed=0, wide=True)
    def test_floors_match_the_norm(self, u_ball, n_u, fibre_n, window, seed, wide):
        s = make_fibred_sample(u_ball, n_u, fibre_n, window, seed)
        if wide:
            s = widened(s)
            assert s.w_num.dtype == object and s._u_keys[0].dtype == np.int64
        g = FibreGraph(s, Q(1, 2), seed)
        n = s.n_points
        for i in range(n):
            want = [ref_floor(s, i, j) for j in range(n)]
            assert s.floors(i, np.arange(n)).tolist() == want
            assert [g.sample.floors(i, [j])[0] for j in range(n)] == want
            assert not g.adjacent(i, i)

    def test_distinct_tags_are_independent_graphs(self):
        s = make_fibred_sample(U1, 40, 4, Q(1), seed=8)
        a = FibreGraph(s, Q(1, 2), seed=8, tag=0)
        b = FibreGraph(s, Q(1, 2), seed=8, tag=1)
        diff = sum(
            a.adjacent(i, j) != b.adjacent(i, j)
            for i in range(60)
            for j in range(i + 1, 60)
            if a.sample.floors(i, [j])[0] == 0
        )
        assert diff > 0


class TestBfStep:
    def test_identity_candidate_matches_first_fibre_point(self):
        s = make_fibred_sample(U1, 5, 3, Q(1), seed=9)
        g = FibreGraph(s, Q(1, 2), seed=9, tag=0)
        vertex = min(s.fibre_members(s.fibre_of[0]))
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
        assert got.bwd[0] in s.fibre_members(s.fibre_of[0])

    def test_already_matched_vertex_rejected(self):
        s = make_fibred_sample(U1, 3, 2, Q(1), seed=14)
        g = FibreGraph(s, Q(1), seed=14, tag=0)
        state = bf_step(g, g, PartialIso(), 0, "forward")
        with pytest.raises(ValueError):
            bf_step(g, g, state, 0, "forward")

    def test_unknown_direction_refused(self):
        s = make_fibred_sample(U1, 3, 2, Q(1), seed=14)
        g = FibreGraph(s, Q(1), seed=14, tag=0)
        with pytest.raises(OutOfDomain, match="direction"):
            bf_step(g, g, PartialIso(), 0, "sideways")

    @pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
    @pytest.mark.parametrize("vertex", [-1, 6])
    def test_out_of_range_vertex_refused(self, vertex, direction):
        # -1 would alias the last point under its own key; 6 is n_points.
        s = make_fibred_sample(U1, 3, 2, Q(1), seed=14)
        g = FibreGraph(s, Q(1), seed=14, tag=0)
        with pytest.raises(IndexOutOfRange, match=f"vertex {vertex} "):
            bf_step(g, g, PartialIso(), vertex, direction)

    @pytest.mark.parametrize("indices", [[-2], [0, 6]])
    def test_initial_identity_refuses_out_of_range_indices(self, indices):
        s = make_fibred_sample(U1, 3, 2, Q(1), seed=14)
        with pytest.raises(IndexOutOfRange):
            initial_identity(s, indices)


def _reference_interval(pairs, dens, t, invert):
    """The image interval for a new fraction t, in Fractions: the pairs'
    numerators are over dens, g's and g2's, and read as (image, domain) if
    invert."""
    view = [(Q(a, dens[0]), Q(b, dens[1])) for a, b in pairs]
    view = [(b, a) for a, b in view] if invert else view
    lo, hi = Q(0), Q(1)
    pos = bisect_left(view, (t, Q(-1)))
    if pos > 0:
        lo = view[pos - 1][1]
    if pos < len(view):
        hi = view[pos][1]
    return lo, hi


def _reference_bf_step(g, g2, state, vertex, direction):
    """The step with both orientations written out, which `bf_step`'s
    mirroring replaced; kept as the reference for it."""
    forward = direction == FORWARD
    dom, img = (g, g2) if forward else (g2, g)
    matched_dom = state.fwd if forward else state.bwd
    matched_img = state.bwd if forward else state.fwd
    if vertex in matched_dom:
        raise OutOfDomain(f"vertex {vertex} already matched")
    s_dom, s_img = dom.sample, img.sample
    w = s_dom.w_of[vertex]
    fibre = s_dom.fibre_of[vertex]
    t = frac(w)
    dens = (g.sample.r_den, g2.sample.r_den)
    lo, hi = _reference_interval(state.frac_pairs, dens, t, invert=not forward)
    want_floor = None
    if state.cell_shift is not None:
        want_floor = math.floor(w) + (state.cell_shift if forward else -state.cell_shift)
    constraints = []
    for a, b in state.fwd.items():
        da, ib = (a, b) if forward else (b, a)
        if s_dom.floors(vertex, [da])[0] == 0:
            constraints.append((ib, dom.adjacent(vertex, da)))
    found_in_interval = False
    for cand in s_img.fibre_members(fibre):
        if cand in matched_img:
            continue
        wc = s_img.w_of[cand]
        if want_floor is not None and math.floor(wc) != want_floor:
            continue
        tc = frac(wc)
        if not (lo < tc < hi):
            continue
        found_in_interval = True
        if all(img.adjacent(cand, other) == wanted for other, wanted in constraints):
            pair = _split(w, s_dom.r_den), _split(wc, s_img.r_den)
            if forward:
                return state._with_pair(vertex, cand, *pair)
            return state._with_pair(cand, vertex, *pair[::-1])
    kind = "adjacency_unsatisfiable" if found_in_interval else "no_candidate_in_interval"
    return BlockReason(kind=kind, vertex=vertex, direction=direction)


def _split(w, den):
    """(floor(w), frac(w) * den): an R-component as `PartialIso._with_pair` takes it."""
    return math.floor(w), int(frac(w) * den)


def _outcome(step, *args):
    """A step's result, or the class and message of its error."""
    try:
        return step(*args)
    except (OutOfDomain, CrossCheckFailure) as exc:
        return type(exc), str(exc)


def _fields(outcome):
    """A PartialIso field by field, dict order included; any other outcome as it is."""
    if not isinstance(outcome, PartialIso):
        return outcome
    fwd, bwd = list(outcome.fwd.items()), list(outcome.bwd.items())
    return fwd, bwd, outcome.frac_pairs, outcome.cell_shift


def _assert_mirror_is_an_involution(state):
    m = state.mirror()
    assert m.fwd is state.bwd and m.bwd is state.fwd
    assert m.frac_pairs == tuple((b, a) for a, b in state.frac_pairs)
    assert list(m.frac_pairs) == sorted(m.frac_pairs)
    assert m.cell_shift == (None if state.cell_shift is None else -state.cell_shift)
    back = m.mirror()
    assert back == state and back.fwd is state.fwd and back.cell_shift == state.cell_shift


class TestOrientation:
    @settings(max_examples=150, deadline=None)
    @given(
        u_ball=st.sampled_from([U1, hexagon_ball()]),
        n_u=st.integers(1, 4),
        fibre_n=st.integers(1, 6),
        # Windows past 1 let a first match cross cells, so the shift is nonzero.
        window=st.sampled_from([Q(1), Q(2), Q(3), Q(5, 2)]),
        p=st.sampled_from([Q(1), Q(1, 2), Q(1, 3)]),
        seed=st.integers(0, 2 ** 32),
        start=st.sampled_from(["empty", "identity"]),
        # g2 over the same sample, a fresh one, or the image of the first
        # under a step-isometry of R, whose denominator differs.
        second=st.sampled_from(["same", "fresh", "relabelled"]),
        wide=st.booleans(),  # numerators past grid.INT64_BOUND: object dtype
    )
    @example(
        u_ball=U1, n_u=2, fibre_n=6, window=Q(2), p=Q(1, 2), seed=5, start="empty",
        second="relabelled", wide=True,
    )
    def test_bf_step_matches_the_two_orientation_reference(
        self, u_ball, n_u, fibre_n, window, p, seed, start, second, wide
    ):
        s = make_fibred_sample(u_ball, n_u, fibre_n, window, seed)
        s = widened(s) if wide else s
        if second == "fresh":
            s2 = make_fibred_sample(u_ball, n_u, fibre_n, window, seed + 1)
            s2 = widened(s2) if wide else s2
        elif second == "relabelled":
            spec = random_step_isometry(1, 3, seed=seed)
            spec = dataclasses.replace(spec, sigma=(0,), eps=(1,), offset=(Q(0),))
            s2 = with_fibres(s, [[apply_linf(spec, (w,))[0] for w in ws] for ws in s.fibres])
        else:
            s2 = s
        g, g2 = FibreGraph(s, p, seed, tag=0), FibreGraph(s2, p, seed, tag=1)
        rng = random.Random(seed)
        n = s.n_points
        state = PartialIso()
        if start == "identity":
            state = initial_identity(s, sorted(rng.sample(range(n), rng.randint(0, n))))
        for step in range(2 * n + 2):
            direction = (FORWARD, BACKWARD)[step % 2]
            matched = state.fwd if direction == FORWARD else state.bwd
            free = [v for v in range(n) if v not in matched]
            # Mostly an unmatched vertex; sometimes any, which both must refuse if matched.
            vertex = rng.choice(free) if free and rng.random() < 0.8 else rng.randrange(n)
            got = _outcome(bf_step, g, g2, state, vertex, direction)
            want = _outcome(_reference_bf_step, g, g2, state, vertex, direction)
            assert _fields(got) == _fields(want)
            if isinstance(got, PartialIso):
                state = got
                _assert_mirror_is_an_involution(state)

    @pytest.mark.parametrize("w, pairs, cand, matched", [
        # One matched pair 1/2 -> 1/3, numerators over 4 and 3 (over 6 for 1/6).
        (Q(1, 4), ((2, 1),), Q(1, 3), False),  # the interval (0, 1/3) is open at 1/3
        (Q(1, 4), ((2, 2),), Q(1, 6), True),
        (Q(3, 4), ((2, 1),), Q(1, 3), False),  # the interval (1/3, 1) is open at 1/3
        (Q(3, 4), ((2, 1),), Q(2, 3), True),
        # No pair: the interval (0, 1), open at the virtual end 0.
        (Q(1, 4), (), Q(1), False),
        (Q(1, 4), (), Q(2, 3), True),  # the numerator den - 1 lies inside
    ])
    def test_interval_is_open_at_both_ends(self, w, pairs, cand, matched):
        def graph(r):
            return FibreGraph(FibredSample.from_fibres(U1, [(Q(2),)], [[r]], Q(1), 0), Q(1), 0)

        dom, img = graph(w), graph(cand)
        state = PartialIso(frac_pairs=pairs)
        got = bf_step(dom, img, state, 0, FORWARD)
        assert _fields(got) == _fields(_reference_bf_step(dom, img, state, 0, FORWARD))
        assert isinstance(got, PartialIso) == matched
        if not matched:
            assert got.kind == "no_candidate_in_interval"

    def test_mirror_keeps_a_zero_shift_and_negates_others(self):
        for shift in (None, 0, 2, -1):
            state = PartialIso({3: 5}, {5: 3}, ((3, 4),), shift)
            _assert_mirror_is_an_involution(state)
        assert PartialIso(cell_shift=0).mirror().cell_shift == 0


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
            s2 = with_fibres(s, fibres2)
            assert s2.w_of == tuple(apply_linf(spec, (w,))[0] for w in s.w_of)
            g = FibreGraph(s, Q(1, 2), seed=900 + seed, tag=0)
            g2 = FibreGraph(s2, Q(1, 2), seed=900 + seed, tag=0)
            rep = bf_run(g, g2, budget=50, seed=seed)
            completed += rep.blocked is None
        assert completed >= 9

    def test_steps_and_audits_build_no_fraction(self, monkeypatch):
        gadget = attach_s0_gadget(make_fibred_sample(U1, 20, 10, Q(1), seed=43), seed=43)
        s = gadget.combined
        g, g2 = FibreGraph(s, Q(1, 2), 43, tag=0), FibreGraph(s, Q(1, 2), 43, tag=1)

        def no_fraction(*args):
            raise AssertionError("back_forth built a Fraction")

        monkeypatch.setattr(back_forth, "Q", no_fraction)
        state = initial_identity(s, gadget.gadget_indices)
        # 0 and 1 share the fraction 0, 3/2 and 5/2 the fraction 1/2.
        assert (state.frac_pairs, state.cell_shift) == (((0, 0), (s.r_den // 2, s.r_den // 2)), 0)
        rep = bf_run(g, g2, budget=20, seed=43, initial=state)
        assert rep.steps_attempted > 1
        audit_state(g, g2, state)
        for direction in (FORWARD, BACKWARD):
            got = bf_step(g, g2, state, 4, direction)
            if isinstance(got, PartialIso):
                audit_state(g, g2, got, 4 if direction == FORWARD else got.bwd[4])

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
        # 40 points per fibre: at 6 the run blocked after 2 matches.
        s = make_fibred_sample(U1, 30, 40, Q(1), seed=19)
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
            new = vertex_f if forward else got.bwd[vertex_b]
            state = got
            forward = not forward
            for (t0, y0), (t1, y1) in zip(state.frac_pairs, state.frac_pairs[1:]):
                assert t0 < t1 and y0 < y1
            # Both raise CrossCheckFailure on violation.
            audit_state(a, b, state, new)
            audit_state(a, b, state)
        assert state.matched >= 10

    # R-components as `_with_pair` takes them, (cell, numerator) over 120.
    def test_shift_consistency_enforced(self):
        state = PartialIso()
        state = state._with_pair(0, 0, (0, 40), (1, 40))  # 1/3 to 4/3: shift 1
        with pytest.raises(CrossCheckFailure):
            state._with_pair(1, 1, (0, 60), (0, 60))  # 1/2 to 1/2: shift 0

    @pytest.mark.parametrize("w, w_img", [
        ((0, 40), (0, 40)),  # 1/3, after (1/4, 1/2): its image falls below 1/2
        ((0, 30), (0, 72)),  # 1/4 to 3/5 ties the left neighbour's fraction 1/4
        ((0, 24), (0, 90)),  # 1/5, before (1/4, 1/2): its image 3/4 rises above 1/2
        ((0, 60), (0, 105)),  # 1/2, before (3/4, 5/6): its image 7/8 rises above 5/6
    ])
    def test_new_pair_out_of_order_with_a_neighbour_refused(self, w, w_img):
        state = PartialIso()._with_pair(0, 0, (0, 30), (0, 60))  # 1/4 to 1/2
        state = state._with_pair(1, 1, (0, 90), (0, 100))  # 3/4 to 5/6
        with pytest.raises(CrossCheckFailure, match="fraction order"):
            state._with_pair(2, 2, w, w_img)

    def test_repeated_pair_kept_once(self):
        state = PartialIso()._with_pair(0, 0, (0, 60), (0, 60))._with_pair(1, 1, (1, 60), (1, 60))
        assert state.frac_pairs == ((60, 60),)

    def test_full_audit_checks_the_fraction_order(self):
        s = make_fibred_sample(U1, 1, 2, Q(1), seed=3)
        g, g2 = FibreGraph(s, Q(1), seed=3, tag=0), FibreGraph(s, Q(1), seed=3, tag=1)
        t = sorted((s.w_num % s.r_den).tolist())
        # Built directly, not by `_with_pair`: the two pairs cross.
        state = PartialIso({0: 0, 1: 1}, {0: 0, 1: 1}, ((t[0], t[1]), (t[1], t[0])), 0)
        audit_state(g, g2, state, vertex=0)  # a vertex audit reads no fractions
        with pytest.raises(CrossCheckFailure, match="fraction order"):
            audit_state(g, g2, state)
        with pytest.raises(CrossCheckFailure, match="fraction order"):
            bf_run(g, g2, budget=1, seed=3, initial=state)


class EdgeSetGraph(FibreGraph):
    """A FibreGraph whose edges are a fixed set of index pairs i < j, not coins."""

    def __init__(self, sample, edges):
        super().__init__(sample, Q(1), seed=41)
        self.edges = edges

    def adjacent_to(self, i, js):
        return np.array([(min(i, j), max(i, j)) in self.edges for j in np.asarray(js).tolist()], bool)


def _reference_audit_state(g, g2, state, vertex=None):
    """The pair-by-pair audit that the array audit replaced, on norm floors;
    kept as the reference for its verdict and for the pair it names."""
    if vertex is None:
        items = sorted(state.fwd.items())
        pairs = ((a, b) for x, a in enumerate(items) for b in items[x + 1:])
    else:
        if vertex not in state.fwd:
            raise OutOfDomain(f"vertex {vertex} is not matched")
        new = (vertex, state.fwd[vertex])
        pairs = ((new, b) for b in state.fwd.items() if b[0] != vertex)
    for (i, i2), (j, j2) in pairs:
        if g.adjacent(i, j) != g2.adjacent(i2, j2):
            raise CrossCheckFailure(f"edge not preserved on pair ({min(i, j)},{max(i, j)})")
        if ref_floor(g.sample, i, j) != ref_floor(g2.sample, i2, j2):
            raise CrossCheckFailure(f"floor distance changed on pair ({min(i, j)},{max(i, j)})")


class TestAuditState:
    @settings(max_examples=60, deadline=None)
    @given(
        n_u=st.integers(1, 4),
        fibre_n=st.integers(1, 4),
        p=st.sampled_from([Q(1), Q(1, 2)]),
        seed=st.integers(0, 2 ** 32),
        edge_sets=st.booleans(),
    )
    def test_matches_the_pair_by_pair_reference(self, n_u, fibre_n, p, seed, edge_sets):
        # A random bijection, partly matched in a random order, between
        # graphs that disagree on many pairs: g2's sample moves some
        # R-components by whole units, and edge sets are drawn at random.
        rng = random.Random(seed)
        s = make_fibred_sample(U1, n_u, fibre_n, Q(2), seed)
        s2 = with_fibres(s, [[w + rng.choice([0, 0, 1, 3]) for w in ws] for ws in s.fibres])
        n = s.n_points
        if edge_sets:
            g, g2 = (
                EdgeSetGraph(t, {(a, b) for a in range(n) for b in range(a + 1, n)
                                 if rng.random() < 0.4})
                for t in (s, s2)
            )
        else:
            g, g2 = FibreGraph(s, p, seed, tag=0), FibreGraph(s2, p, seed, tag=1)
        image = rng.sample(range(n), n)
        order = rng.sample(range(n), rng.randint(0, n))
        state = PartialIso({a: image[a] for a in order}, {image[a]: a for a in order})
        for vertex in [None, *order, *(v for v in range(n) if v not in state.fwd)][:8]:
            got = _outcome(audit_state, g, g2, state, vertex)
            assert got == _outcome(_reference_audit_state, g, g2, state, vertex)

    @staticmethod
    def graphs_disagreeing_on(pair):
        """Two explicit-edge graphs over one sample that differ only on pair."""
        s = make_fibred_sample(U1, 3, 3, Q(1), seed=41)
        edges = {(0, 1), (0, 2), (1, 2), (3, 5), pair}
        return s, EdgeSetGraph(s, edges), EdgeSetGraph(s, edges - {pair})

    def test_vertex_audit_names_the_disagreeing_pair(self):
        s, g, g2 = self.graphs_disagreeing_on((2, 6))
        state = initial_identity(s, range(s.n_points))
        for v in (2, 6):
            with pytest.raises(CrossCheckFailure, match=r"edge not preserved on pair \(2,6\)"):
                audit_state(g, g2, state, vertex=v)
        with pytest.raises(CrossCheckFailure, match=r"pair \(2,6\)"):
            audit_state(g, g2, state)
        for v in (0, 1, 3, 4, 5, 7, 8):  # pairs without 2 or 6 agree
            audit_state(g, g2, state, vertex=v)

    def test_bf_run_audits_the_initial_state_before_any_step(self, monkeypatch):
        s, g, g2 = self.graphs_disagreeing_on((2, 6))

        def no_step(*args):
            raise AssertionError("bf_step ran before the initial audit")

        monkeypatch.setattr(back_forth, "bf_step", no_step)
        with pytest.raises(CrossCheckFailure, match=r"pair \(2,6\)"):
            bf_run(g, g2, budget=5, seed=41, initial=initial_identity(s, [2, 6]))

    def test_bf_run_audits_the_new_vertex_of_a_backward_step(self, monkeypatch):
        # A faulty extension: step 1 (forward) matches 0 -> 0, step 2
        # (backward, g2-vertex 1) matches it to g-vertex 2.  The new pair
        # (0, 2) -> (0, 1) loses the edge, and only an audit of the new
        # domain vertex 2, not of the g2-index 1, sees it.
        s, g, g2 = self.graphs_disagreeing_on((0, 1))
        steps = []

        def skewed_step(g, g2, state, vertex, direction):
            steps.append(direction)
            i = vertex if direction == "forward" else vertex + 1
            return PartialIso({**state.fwd, i: vertex}, {**state.bwd, vertex: i})

        monkeypatch.setattr(back_forth, "bf_step", skewed_step)
        with pytest.raises(CrossCheckFailure, match=r"edge not preserved on pair \(0,2\)"):
            bf_run(g, g2, budget=5, seed=41)
        assert steps == ["forward", "backward"]

    def test_bf_run_refuses_a_non_injective_start_before_any_step(self, monkeypatch):
        # 0 and 12 both map to 7.  Pairwise, the audit would compare 7 with
        # itself (no edge, floor 0) and pass, so only the inverse check sees it.
        s = make_fibred_sample(U1, 5, 4, Q(1), seed=3)
        g, g2 = FibreGraph(s, Q(1, 2), 3, tag=0), FibreGraph(s, Q(1, 2), 3, tag=1)
        assert s.floors(0, [12])[0] == 0 and not g.adjacent(0, 12)

        def no_step(*args):
            raise AssertionError("bf_step ran before the initial audit")

        monkeypatch.setattr(back_forth, "bf_step", no_step)
        with pytest.raises(CrossCheckFailure, match="inverse"):
            bf_run(g, g2, budget=5, seed=3, initial=PartialIso({0: 7, 12: 7}, {7: 12}))

    @pytest.mark.parametrize("bwd", [{7: 0}, {7: 0, 8: 2}, {7: 0, 8: 1, 5: 2}])
    def test_full_audit_refuses_bwd_other_than_the_inverse(self, bwd):
        s, g, g2 = self.graphs_disagreeing_on((2, 6))
        with pytest.raises(CrossCheckFailure, match="inverse"):
            audit_state(g, g, PartialIso({0: 7, 1: 8}, bwd))

    @pytest.mark.parametrize("pair", [(-1, 8), (0, 9)])
    def test_full_audit_refuses_an_out_of_range_index(self, pair):
        # Index -1 would alias point 8, the last of the 9.
        s, g, g2 = self.graphs_disagreeing_on((2, 6))
        i, j = pair
        with pytest.raises(IndexOutOfRange):
            audit_state(g, g, PartialIso({i: j}, {j: i}))

    def test_unmatched_vertex_rejected(self):
        s, g, g2 = self.graphs_disagreeing_on((2, 6))
        with pytest.raises(OutOfDomain):
            audit_state(g, g2, initial_identity(s, [0, 1]), vertex=2)


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
            if g.sample.floors(a, [b])[0] == 0
        ]
        assert close == [gadget.potential_edge]

    def test_empty_sample_gadget_only(self):
        s = make_fibred_sample(U1, 1, 1, Q(1), seed=31)
        gadget = attach_s0_gadget(s, seed=31)
        audit_gadget(gadget)
        assert gadget.combined.n_points == 5

    def test_audit_refuses_a_repeated_u_point(self):
        gadget = attach_s0_gadget(make_fibred_sample(U1, 3, 2, Q(1), seed=37), seed=37)
        c = gadget.combined
        u_points = (c.u_points[1],) + c.u_points[1:]  # distance 0, not 1
        with pytest.raises(CrossCheckFailure, match="repeated U-point"):
            audit_gadget(dataclasses.replace(gadget, combined=dataclasses.replace(c, u_points=u_points)))

    @pytest.mark.parametrize("bad", [(Q(1),), (Q(0),), "repeat"])
    def test_u_point_collisions_are_resampled(self, bad):
        # At norm 1 from the gadget's origin, at the origin, or repeated.
        s = make_fibred_sample(U1, 3, 2, Q(1), seed=37)
        bad = s.u_points[1] if bad == "repeat" else bad
        gadget = attach_s0_gadget(dataclasses.replace(s, u_points=(bad,) + s.u_points[1:]), 37)
        u_points = gadget.combined.u_points
        assert u_points[0] != bad and u_points[1:] == s.u_points[1:] + ((Q(0),),)
        audit_gadget(gadget)

    @staticmethod
    def counted_checks(monkeypatch):
        calls = dict.fromkeys(["_u_clashes", "_frac_colliders"], 0)
        for name in calls:
            def counted(*args, _name=name, _check=getattr(back_forth, name)):
                calls[_name] += 1
                return _check(*args)

            monkeypatch.setattr(back_forth, name, counted)
        return calls

    def test_grid_sample_runs_each_check_once(self, monkeypatch):
        s = make_fibred_sample(U1, 30, 20, Q(1), seed=41)
        calls = self.counted_checks(monkeypatch)
        attach_s0_gadget(s, seed=41)
        assert calls == {"_u_clashes": 1, "_frac_colliders": 1}

    @pytest.mark.parametrize("redraw", ["u", "r"])
    def test_a_redraw_gets_the_full_audit(self, monkeypatch, redraw):
        s = make_fibred_sample(U1, 3, 2, Q(1), seed=37)
        if redraw == "u":  # a U-point at the gadget's origin, redrawn once or more
            s = dataclasses.replace(s, u_points=((Q(0),),) + s.u_points[1:])
        else:  # an R-component at the gadget's fraction 1/2
            s = with_fibres(s, [(Q(1, 2), s.fibres[0][1]), *s.fibres[1:]])
        calls = self.counted_checks(monkeypatch)
        attach_s0_gadget(s, seed=37)
        # Each check once before any redraw and once in the audit; every U
        # redraw recomputes the U table.
        assert calls["_frac_colliders"] == 2
        assert calls["_u_clashes"] >= 3 if redraw == "u" else calls["_u_clashes"] == 2

    def test_odd_denominator_attaches_without_a_redraw(self, monkeypatch):
        # Over thirds the gadget's halves need the denominator 6; no
        # fraction collides, so nothing is redrawn and only the gadget's
        # own unit pairs are audited after the two checks.
        s = make_fibred_sample(U1, 2, 1, Q(2), seed=37)
        fibres = ((Q(1, 3),), (Q(5, 3),))
        odd = with_fibres(s, fibres)
        assert odd.r_den == 3
        calls = self.counted_checks(monkeypatch)

        def no_redraw(*args):
            raise AssertionError("redrawn")

        monkeypatch.setattr(back_forth, "_redrawn_fractions", no_redraw)
        gadget = attach_s0_gadget(odd, seed=37)
        assert calls == {"_u_clashes": 1, "_frac_colliders": 1}
        c = gadget.combined
        assert c.fibres[:-1] == fibres and c.r_den == 6
        assert c.fibres[-1] == (Q(0), Q(1), Q(3, 2), Q(5, 2))
        audit_gadget(gadget)

    def test_resampling_clears_collisions(self):
        # Force a fraction collision with the gadget and check it is cleared.
        s = make_fibred_sample(U1, 2, 2, Q(1), seed=37)
        fibres = list(s.fibres)
        fibres[0] = (Q(1, 2), fibres[0][1])
        bad = with_fibres(s, fibres)
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

    def test_trial_seed_collision_refused_before_any_trial(self, monkeypatch):
        # Trial 1_000_003 of seed s would reuse trial 0 of seed s + 1.
        def stub(params, trial_seed):
            raise AssertionError("a trial ran before the trials check")

        monkeypatch.setattr(back_forth, "s0_run_trial", stub)
        params = S0Params(u_ball=U1, n_u=4, fibre_n=1)
        with pytest.raises(OutOfDomain, match="trials"):
            s0_experiment(params, trials=1_000_004, seed=3)

    def test_p_one_always_agrees(self):
        params = S0Params(u_ball=U1, n_u=10, fibre_n=2, window=Q(1), budget=10, p=Q(1))
        res = s0_experiment(params, trials=3, seed=5)
        assert res.agreement_rate == 1
