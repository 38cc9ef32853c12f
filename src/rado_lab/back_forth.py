"""Back-and-forth partial isomorphisms on fibred samples in (U (+) R)_max.

The sample is a finite window of a dense set that is dense in every fibre
{u} x R and has no two points differing by an integer in the R-component.
Two Bernoulli graphs over the same sample are matched by alternately
extending a partial isomorphism that fixes U and acts on the R-component
through a monotone map g with g(x + k) = g(x) + k.  At finite scale the
"infinitely many candidates" of the dense setting become "at least one in
the window", and a missing candidate is a reported block, not an error.

Samples live on the shared 2**-33 grid (see `grid`).  R-components are
drawn in bulk from the generator's own words (`grid.grid_nums`) and kept
as integer numerators over one denominator per sample; they are
deduplicated, gadget-checked, redrawn and compared as integers, in numpy
where a whole sample is read.  A partial map holds its matched fractional
parts as numerators too, each over its own side's denominator, so a step
reads no Fraction; the `FibredSample.fibres` and `w_of` views build them
on demand (`geometry.table_points`).

Pair predicates are integer too.  `FibredSample.floors` gives the floor of
the distance from one point to many, from the R-numerators and one table
of the U-points' floor keys (`geometry.norm_keys`, computed once per
sample); `FibreGraph.adjacent_to` turns those floors into edges.  A step
filters its candidates and checks its constraints, and an audit compares
a vertex with its partners, on these arrays: the keys in int64 whatever
the U-points' denominators, the R-numerators as their table holds them.

Edges are lazy: each unordered pair gets an independent seeded coin, so
samples of a hundred thousand points cost nothing until a pair is probed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    CrossCheckFailure, DimensionMismatch, IndexOutOfRange, OutOfDomain, WindowTooSmall,
)
from .geometry import norm  # noqa: F401  (perfbench/tracing.py traces this binding)
from .geometry import EqualByPoints, PolytopeBall, integer_table, norm_keys, table_points
from .geometry import pairwise_norm_numerators
from .grid import DEN, draw_odd, grid_max_num, grid_num, grid_nums, shuffled
from .linalg import Vec, zero_vec

FORWARD = "forward"
BACKWARD = "backward"

_GADGET_HALVES = (0, 2, 3, 5)  # the gadget's R-components 0, 1, 3/2 and 5/2, in halves

_COIN_INDEX_LIMIT = 2 ** 20


@dataclass(frozen=True, eq=False)
class FibredSample(EqualByPoints):
    """Fibres over distinct U-points, flattened in a seeded shuffle order.

    R-components are one `geometry.integer_table` row ``r_nums`` over one
    sample-wide denominator ``r_den``, stored fibre after fibre
    (``fibre_sizes``).  Sampled data sits on the grid (``r_den`` is
    `grid.DEN`); `from_fibres` takes Fractions and uses their lcm.
    ``integer_exempt_fibres`` marks fibres (the S0 gadget) whose internal
    integer R-differences are intentional.  No audit reads it (`audit_gadget`
    masks by `S0Gadget.gadget_fibre`, `audit_state` checks every pair); it
    only puts those fibres' points first, unshuffled, in the flat order, and
    the rest follow in the order `random.Random(seed ^ 0x5A5A5A).shuffle`
    gives their positions, drawn in bulk by `grid.shuffled`.  Two samples
    are equal when they hold the same points.
    """

    u_ball: PolytopeBall
    u_points: tuple[Vec, ...]
    r_nums: np.ndarray
    r_den: int
    fibre_sizes: tuple[int, ...]
    window: Q
    seed: int
    integer_exempt_fibres: tuple[int, ...] = ()

    def __post_init__(self):
        if len(self.r_nums) != sum(self.fibre_sizes):
            raise DimensionMismatch("fibre sizes do not add up to the R-components")
        self.r_nums.flags.writeable = False

    @classmethod
    def from_fibres(
        cls, u_ball: PolytopeBall, u_points: Sequence[Vec],
        fibres: Sequence[Sequence[Q]], window: Q, seed: int,
        integer_exempt_fibres: tuple[int, ...] = (),
    ) -> "FibredSample":
        """A sample whose R-components are given as rationals, fibre by fibre."""
        flat = [Q(w) for ws in fibres for w in ws]
        (nums,), den = integer_table([flat], len(flat))
        return cls(
            u_ball, tuple(u_points), nums, den, tuple(map(len, fibres)),
            Q(window), seed, tuple(integer_exempt_fibres),
        )

    def _points(self) -> tuple:
        return (self.u_ball, self.u_points, self.fibres, self.window, self.seed,
                self.integer_exempt_fibres)

    @cached_property
    def fibres(self) -> tuple[tuple[Q, ...], ...]:
        """The R-components as Fractions, fibre by fibre (built on first use)."""
        (ws,) = table_points(self.r_nums[None], self.r_den)
        ends = np.cumsum(self.fibre_sizes).tolist()
        return tuple(tuple(ws[a:b]) for a, b in zip([0, *ends], ends))

    @cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """fibre_of, w_num, the flat indices grouped by fibre, and each group's start."""
        sizes, exempt = self.fibre_sizes, self.integer_exempt_fibres
        fibre = np.repeat(np.arange(len(sizes)), sizes)
        rank = np.full(len(sizes), len(exempt))
        rank[list(exempt)] = range(len(exempt))
        src = np.argsort(rank[fibre], kind="stable")  # exempt fibres first, in storage order
        head = sum(sizes[f] for f in exempt)
        # Shuffling positions draws exactly what shuffling the points would.
        perm = shuffled(random.Random(self.seed ^ 0x5A5A5A), len(src) - head)
        src = np.concatenate((src[:head], src[head:][perm]))
        fibre_of = fibre[src]
        # In the smallest type that holds every fibre index, a stable sort is a radix sort.
        members = np.argsort(fibre_of.astype(np.min_scalar_type(len(sizes))), kind="stable")
        starts = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
        arrays = (fibre_of, self.r_nums[src], members, starts)
        for a in arrays:
            a.flags.writeable = False
        return arrays

    @property
    def fibre_of(self) -> np.ndarray:
        """The fibre of each flat point."""
        return self._flat[0]

    @property
    def w_num(self) -> np.ndarray:
        """Numerators of the flat points' R-components, over ``r_den``."""
        return self._flat[1]

    def fibre_members(self, f: int) -> np.ndarray:
        """The flat indices of fibre f's points, increasing."""
        members, starts = self._flat[2:]
        return members[starts[f] : starts[f + 1]]

    @cached_property
    def w_of(self) -> tuple[Q, ...]:
        """The flat points' R-components as Fractions (built on first use)."""
        return table_points(self.w_num[None], self.r_den)[0]

    @property
    def n_points(self) -> int:
        return len(self.r_nums)

    @cached_property
    def _u_keys(self) -> tuple[np.ndarray, int]:
        """`geometry.norm_keys` of the U-points: one row per fibre."""
        return norm_keys(self.u_ball, *integer_table(self.u_points, self.u_ball.dim))

    def floors(self, i: int, js: Sequence[int]) -> np.ndarray:
        """floor of the distance from flat point i to each flat point of js.

        The distance is max(U-distance of the fibres, |w_i - w_j|), so its
        floor is the larger of the two floors, each an integer quotient:
        |w_i - w_j| // r_den, and max_f |K[a, f] - K[b, f]| // m on the
        U-points' keys.  int64 where both are, Python ints otherwise
        (``divmod`` has no object-dtype loop, ``//`` does).
        """
        fibre_of, w_num = self._flat[:2]
        keys, mod = self._u_keys
        r = np.abs(w_num[js] - w_num[i]) // self.r_den
        u = np.maximum.reduce(np.abs(keys[fibre_of[js]] - keys[fibre_of[i]]), axis=1) // mod
        return np.maximum(r, u)


def _first_occurrences(keys: np.ndarray) -> np.ndarray:
    """Mask of the keys that no earlier key equals."""
    first = np.ones(len(keys), dtype=bool)
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():  # only then pay for the stable sort
        first[:] = False
        first[np.unique(keys, return_index=True)[1]] = True
    return first


def _u_side(n_u: int, dim: int) -> int:
    """The least integer s >= 1 with s**dim >= n_u, by bisection: the side of
    a U-cube holding n_u points at density about one per unit volume."""
    lo, hi = 1, max(1, n_u)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if mid ** dim >= n_u else (mid + 1, hi)
    return lo


def _draw_u_point(rng: random.Random, side: int, dim: int) -> Vec:
    """One U-point uniform on [2, 2 + side)^dim (side from `_u_side`)."""
    max_num = grid_max_num(side)
    return tuple(2 + Q(grid_num(rng, max_num, draw_odd(rng)), DEN) for _ in range(dim))


def make_fibred_sample(
    u_ball: PolytopeBall, n_u: int, fibre_n: int, window: Q, seed: int
) -> FibredSample:
    """Sample n_u distinct U-points, each carrying fibre_n R-components.

    U-points are drawn by `_draw_u_point`, at density about one per unit
    volume, the finite stand-in for a density-one process; R-components
    land in [0, window) with all fractional parts distinct, so no two
    points differ by an integer.  R-components are drawn in bulk by
    `grid.grid_nums` and kept in order at the first occurrence of their
    fractional part (their low DEN_POW bits), as integer numerators over
    DEN; each round draws the shortfall, and at most 100 draws per point
    are made in all.
    """
    if n_u < 1 or fibre_n < 1:
        raise OutOfDomain("need n_u >= 1 and fibre_n >= 1")
    window = Q(window)
    rng = random.Random(seed)
    dim = u_ball.dim
    side = _u_side(n_u, dim)
    u_points: list[Vec] = []
    u_seen: set[Vec] = set()
    attempts = 0
    while len(u_points) < n_u:
        attempts += 1
        if attempts > 100 * n_u:
            raise WindowTooSmall("could not place distinct U-points")
        u = _draw_u_point(rng, side, dim)
        if u in u_seen:
            continue
        u_seen.add(u)
        u_points.append(u)
    max_num = grid_max_num(window)
    total = n_u * fibre_n
    cap = 100 * total  # R-draws allowed in all
    drawn = grid_nums(rng, max_num, total)
    while True:
        first = _first_occurrences(drawn & (DEN - 1))
        kept = int(np.count_nonzero(first))
        if kept == total:
            break
        if len(drawn) == cap:
            raise WindowTooSmall("could not place integer-free R-components")
        more = grid_nums(rng, max_num, min(total - kept, cap - len(drawn)))
        drawn = np.concatenate((drawn, more))
    return FibredSample(u_ball, tuple(u_points), drawn[first], DEN, (fibre_n,) * n_u, window, seed)


def _check_coin_indices(p: Q, n_points: int) -> None:
    """Refuse a sample too large for the per-pair coin keys of a p != 1 graph."""
    if p != 1 and n_points >= _COIN_INDEX_LIMIT:
        # The coin key packs each index into 20 bits; past that, pairs
        # such as (0, 5) and (1, 2**20 + 5) would share one coin.
        raise IndexOutOfRange(f"{n_points} points; coin keys allow fewer than {_COIN_INDEX_LIMIT}")


class FibreGraph:
    """A Bernoulli graph over a fibred sample with lazily sampled edges.

    Every unordered pair at distance strictly below one holds an edge with
    exact probability p, decided by a per-pair seeded coin.  Distance floors
    come from the sample's one exact kernel, `FibredSample.floors`, and
    `adjacent_to` is the one adjacency primitive: a point against many, with
    a coin drawn (and kept) only for a near pair and only when p != 1.
    """

    def __init__(self, sample, p: Q, seed: int, tag: int = 0):
        self.sample = sample
        self.p = Q(p)
        if not 0 <= self.p <= 1:
            raise OutOfDomain(f"p must lie in [0, 1], got {self.p}")
        if tag not in (0, 1) or seed < 0:
            # The coin key below would alias: (seed, 2) is (seed + 1, 0), and
            # random.Random seeds from abs(key).
            raise OutOfDomain(f"need tag 0 or 1 and seed >= 0, got tag {tag}, seed {seed}")
        _check_coin_indices(self.p, sample.n_points)
        self.seed = seed
        self.tag = tag
        self._coins: dict[tuple[int, int], bool] = {}

    def adjacent(self, i: int, j: int) -> bool:
        return bool(self.adjacent_to(i, [j])[0])

    def adjacent_to(self, i: int, js: Sequence[int]) -> np.ndarray:
        """Adjacency of flat point i to each flat point of js, as booleans."""
        js = np.asarray(js, dtype=np.intp)
        near = (self.sample.floors(i, js) == 0) & (js != i)
        if self.p != 1:
            for k in np.flatnonzero(near).tolist():
                j = int(js[k])
                near[k] = self._coin(min(i, j), max(i, j))
        return near

    def _coin(self, a: int, b: int) -> bool:
        """The seeded coin of the pair a < b, drawn on first use."""
        got = self._coins.get((a, b))
        if got is None:
            key = ((self.seed * 2 + self.tag) << 40) ^ (a << 20) ^ b
            coin = random.Random(key)
            got = self._coins[(a, b)] = coin.randrange(self.p.denominator) < self.p.numerator
        return got


@dataclass(frozen=True)
class BlockReason:
    kind: str  # "no_candidate_in_interval" | "adjacency_unsatisfiable"
    vertex: int
    direction: str


@dataclass(frozen=True)
class PartialIso:
    """A growing partial isomorphism fixing U, monotone on R-fractions.

    The matched R-components satisfy w' = cell_shift + floor(w) + phi(frac w)
    for one global integer cell_shift and one strictly increasing partial
    map phi on [0,1); this is exactly what keeps every stage an exact
    step-isometry.  ``frac_pairs`` lists phi's matched points, sorted, as
    integer pairs (t, t'): t is the domain point's ``w_num % r_den`` over
    the domain sample's denominator, t' the image point's over the image
    sample's.  Comparisons stay within one side, so the two denominators
    may differ.
    """

    fwd: dict[int, int] = field(default_factory=dict)
    bwd: dict[int, int] = field(default_factory=dict)
    frac_pairs: tuple[tuple[int, int], ...] = ()
    cell_shift: int | None = None

    @property
    def matched(self) -> int:
        return len(self.fwd)

    def _with_pair(
        self, i: int, j: int, w: tuple[int, int], w_img: tuple[int, int]
    ) -> "PartialIso":
        """Match i to j, given ``divmod(w_num, r_den)`` of each: (cell, fraction numerator)."""
        (cell, t), (cell_img, t2) = w, w_img
        shift = cell_img - cell
        if self.cell_shift is not None and shift != self.cell_shift:
            raise CrossCheckFailure("cell shift drifted inside one run")
        pairs = list(self.frac_pairs)
        pos = bisect_left(pairs, (t, t2))
        if not (pos < len(pairs) and pairs[pos] == (t, t2)):
            pairs.insert(pos, (t, t2))
            # Only the new pair's two neighbours can break an order that held.
            _check_fraction_order(pairs[max(pos - 1, 0) : pos + 2])
        return PartialIso({**self.fwd, i: j}, {**self.bwd, j: i}, tuple(pairs), shift)

    def mirror(self) -> "PartialIso":
        """The inverse partial map, sharing this one's dicts (`_with_pair`
        copies before it writes); strict monotonicity keeps the swapped
        fraction pairs sorted."""
        return PartialIso(
            self.bwd, self.fwd, tuple((b, a) for a, b in self.frac_pairs),
            None if self.cell_shift is None else -self.cell_shift,
        )


def _check_fraction_order(pairs: Sequence[tuple[int, int]]) -> None:
    """Refuse fraction pairs that are not strictly increasing in both coordinates."""
    for (a, fa), (b, fb) in zip(pairs, pairs[1:]):
        if not (a < b and fa < fb):
            raise CrossCheckFailure("fraction order not strictly increasing")


def _check_vertices(sample: FibredSample, indices: Sequence[int]) -> None:
    """Refuse flat indices outside [0, n_points), which numpy would wrap or reject."""
    bad = [i for i in indices if not 0 <= i < sample.n_points]
    if bad:
        raise IndexOutOfRange(f"vertex {bad[0]} outside [0, {sample.n_points})")


def initial_identity(sample: FibredSample, indices: Sequence[int]) -> PartialIso:
    """Identity partial map on the given flat indices (e.g. the S0 gadget)."""
    _check_vertices(sample, indices)
    state = PartialIso()
    for i in indices:
        w = divmod(int(sample.w_num[i]), sample.r_den)
        state = state._with_pair(i, i, w, w)
    return state


def _interval(pairs: Sequence[tuple[int, int]], t: int, den: int) -> tuple[int, int]:
    """Open interval of image numerators (over den) for a new fraction
    numerator t, with virtual fixed ends 0 and den."""
    pos = bisect_left(pairs, (t, -1))
    return pairs[pos - 1][1] if pos else 0, pairs[pos][1] if pos < len(pairs) else den


def bf_step(
    g: FibreGraph, g2: FibreGraph, state: PartialIso, vertex: int, direction: str
) -> PartialIso | BlockReason:
    """Try to extend the partial isomorphism at one unmatched vertex.

    A forward step extends the map from g to g2 at a vertex of g.  A
    backward step extends its inverse at a vertex of g2, which is the
    forward step from g2 to g of the mirrored map (see `_extend`).
    """
    if direction == FORWARD:
        return _extend(g, g2, state, vertex, direction)
    if direction != BACKWARD:
        raise OutOfDomain(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    got = _extend(g2, g, state.mirror(), vertex, direction)
    return got if isinstance(got, BlockReason) else got.mirror()


def _extend(
    dom: FibreGraph, img: FibreGraph, state: PartialIso, vertex: int, direction: str
) -> PartialIso | BlockReason:
    """The forward step of `state` from dom to img at an unmatched vertex of dom.

    Candidates live on the vertex's own fibre of img, inside the open
    fraction interval between the images of its fraction neighbours (and
    in the cell fixed by the global shift).  Among those, a candidate must
    agree with the vertex's adjacency to every matched point within
    potential-edge range; the smallest index wins.  Matched points out of
    range need no check: the interval discipline makes their adjacency
    agree automatically.  The range test and the candidate filter run on
    whole arrays of integer numerators.
    """
    s_dom, s_img = dom.sample, img.sample
    _check_vertices(s_dom, [vertex])
    if vertex in state.fwd:
        raise OutOfDomain(f"vertex {vertex} already matched")
    den = s_img.r_den
    w = divmod(int(s_dom.w_num[vertex]), s_dom.r_den)
    lo, hi = _interval(state.frac_pairs, w[1], den)
    dom_pts, img_pts = _matched_arrays(state.fwd)
    near = s_dom.floors(vertex, dom_pts) == 0
    wanted = dom.adjacent_to(vertex, dom_pts[near])  # constraints, on img_pts[near]
    others = img_pts[near]
    cands = s_img.fibre_members(int(s_dom.fibre_of[vertex]))
    nums = s_img.w_num[cands]
    t = nums % den
    keep = (lo < t) & (t < hi)
    if state.cell_shift is not None:
        keep &= nums // den == w[0] + state.cell_shift
    cands = [c for c in cands[keep].tolist() if c not in state.bwd]
    for cand in cands:
        if np.array_equal(img.adjacent_to(cand, others), wanted):
            return state._with_pair(vertex, cand, w, divmod(int(s_img.w_num[cand]), den))
    kind = "adjacency_unsatisfiable" if cands else "no_candidate_in_interval"
    return BlockReason(kind=kind, vertex=vertex, direction=direction)


def _matched_arrays(pairs: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """A partial map's keys and values as index arrays, in its order."""
    keys = np.fromiter(pairs.keys(), np.intp, len(pairs))
    return keys, np.fromiter(pairs.values(), np.intp, len(pairs))


def audit_state(
    g: FibreGraph, g2: FibreGraph, state: PartialIso, vertex: int | None = None
) -> None:
    """Exact partial-isomorphism and step-isometry audit of matched pairs.

    With vertex=None every matched pair is checked (O(m^2)), and so are the
    whole fraction order, ``bwd`` as the inverse of an injective ``fwd`` and
    every index's range; given a matched domain vertex, only the m - 1 pairs
    that contain it.  A stage adds only the pairs of its new vertex and keeps
    every old image, and coins and U-distances are deterministic, so auditing
    the start in full and then each new vertex checks every pair of every stage
    exactly once; `PartialIso._with_pair` checks each new fraction pair against
    its two neighbours.  Each vertex is compared with its partners in one array
    pass per predicate; the first disagreeing pair is reported, with edges
    checked before floors.  Violations are implementation bugs; the
    construction is supposed to make both properties invariant.
    """
    if vertex is None:
        inverse = {j: i for i, j in state.fwd.items()}
        if len(inverse) != len(state.fwd) or inverse != state.bwd:
            raise CrossCheckFailure("bwd is not the inverse of an injective fwd")
        _check_vertices(g.sample, state.fwd)
        _check_vertices(g2.sample, state.bwd)
        _check_fraction_order(state.frac_pairs)
        dom_pts, img_pts = _matched_arrays(dict(sorted(state.fwd.items())))
        rows = (
            (int(dom_pts[k]), int(img_pts[k]), dom_pts[k + 1:], img_pts[k + 1:])
            for k in range(len(dom_pts))
        )
    else:
        if vertex not in state.fwd:
            raise OutOfDomain(f"vertex {vertex} is not matched")
        dom_pts, img_pts = _matched_arrays(state.fwd)
        rest = dom_pts != vertex
        rows = [(vertex, state.fwd[vertex], dom_pts[rest], img_pts[rest])]
    for i, i2, js, js2 in rows:
        edge = g.adjacent_to(i, js) != g2.adjacent_to(i2, js2)
        bad = np.flatnonzero(edge | (g.sample.floors(i, js) != g2.sample.floors(i2, js2)))
        if len(bad):
            j = int(js[bad[0]])
            what = "edge not preserved" if edge[bad[0]] else "floor distance changed"
            raise CrossCheckFailure(f"{what} on pair ({min(i, j)},{max(i, j)})")


@dataclass(frozen=True)
class BfReport:
    steps_attempted: int
    matched_count: int
    blocked: str | None
    blocked_vertex: int | None
    seed: int
    params: dict

    def to_json(self) -> dict:
        return {
            "steps_attempted": self.steps_attempted,
            "matched_count": self.matched_count,
            "blocked": self.blocked,
            "blocked_vertex": self.blocked_vertex,
            "seed": self.seed,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
        }


def bf_run(
    g: FibreGraph,
    g2: FibreGraph,
    budget: int,
    seed: int,
    initial: PartialIso | None = None,
    params: dict | None = None,
) -> BfReport:
    """Alternate forward and backward extension steps in enumeration order.

    Stops at the step budget, at exhaustion, or at the first block.  The
    starting state is audited in full; each accepted step then audits its
    newly matched vertex against every matched one, exactly and at O(m)
    per step, so every stage is a certified partial isomorphism and
    step-isometry (see audit_state).
    """
    if budget < 1:
        raise OutOfDomain("budget must be >= 1")
    state = initial if initial is not None else PartialIso()
    audit_state(g, g2, state)
    start_matched = state.matched
    sizes = (g.sample.n_points, g2.sample.n_points)
    cursors = [0, 0]  # per side, where the scan for an unmatched vertex resumes
    side = 0  # 0: forward, at a vertex of g; 1: backward, at a vertex of g2
    blocked: BlockReason | None = None
    steps = 0
    while steps < budget:
        matched = state.bwd if side else state.fwd
        vertex = cursors[side]
        while vertex < sizes[side] and vertex in matched:
            vertex += 1
        cursors[side] = vertex
        if vertex == sizes[side]:
            break  # this side is all matched, so, as bwd inverts fwd, min(sizes) pairs are
        steps += 1
        got = bf_step(g, g2, state, vertex, BACKWARD if side else FORWARD)
        if isinstance(got, BlockReason):
            blocked = got
            break
        state = got
        audit_state(g, g2, state, state.bwd[vertex] if side else vertex)
        side ^= 1
    return BfReport(
        steps_attempted=steps,
        matched_count=state.matched - start_matched,
        blocked=None if blocked is None else blocked.kind,
        blocked_vertex=None if blocked is None else blocked.vertex,
        seed=seed,
        params=dict(params or {}),
    )


@dataclass(frozen=True)
class S0Gadget:
    """The four-point gadget {0, u, 3u/2, 5u/2} adjoined on its own fibre.

    u is the unit vector of the distinguished R-axis, so the only pairs of
    the combined sample at exact unit distance are {0,u} and {3u/2,5u/2},
    and the unique potential edge is {u, 3u/2} at distance 1/2.
    """

    combined: FibredSample
    gadget_fibre: int
    gadget_indices: tuple[int, int, int, int]

    @property
    def potential_edge(self) -> tuple[int, int]:
        return (self.gadget_indices[1], self.gadget_indices[2])


def _u_clashes(u_ball: PolytopeBall, u_points: Sequence[Vec]) -> np.ndarray:
    """Per U-point: at exact norm 1 from another U-point, or repeated."""
    nums, den = pairwise_norm_numerators(u_ball, *integer_table(u_points, u_ball.dim))
    return (nums == den).any(axis=1) | ((nums == 0).sum(axis=1) > 1)


def _frac_colliders(nums: np.ndarray, den: int) -> np.ndarray:
    """Per numerator over den: is its fractional part the gadget's (0 or 1/2)
    or that of an earlier numerator?"""
    keys = nums % den
    return ~_first_occurrences(keys) | np.isin(keys, [0, den // 2] if den % 2 == 0 else [0])


def audit_gadget(gadget: S0Gadget) -> None:
    """Assert the exact unit-distance pairs are the two intended ones.

    The U-points, the gadget's origin among them, must be distinct and
    pairwise off unit distance, and every fractional part outside the
    gadget distinct and off the gadget's.
    """
    _audit_unit_pairs(gadget)
    s = gadget.combined
    if _u_clashes(s.u_ball, s.u_points).any():
        raise CrossCheckFailure("sample has a repeated U-point or a unit U-distance pair")
    outside = np.repeat(np.arange(len(s.fibre_sizes)), s.fibre_sizes) != gadget.gadget_fibre
    if _frac_colliders(s.r_nums[outside], s.r_den).any():
        raise CrossCheckFailure("integer R-difference against sample or gadget")


def _audit_unit_pairs(gadget: S0Gadget) -> None:
    """Assert the gadget's own unit pairs are {g0, g1} and {g2, g3}."""
    s, idx = gadget.combined, gadget.gadget_indices
    nums = [int(s.w_num[i]) for i in idx]
    unit_pairs = {
        (idx[x], idx[y]) for x in range(4) for y in range(x + 1, 4)
        if abs(nums[x] - nums[y]) == s.r_den
    }
    if unit_pairs != {idx[:2], idx[2:]}:
        raise CrossCheckFailure("gadget does not have exactly its two unit pairs")


def _redrawn_fractions(
    nums: np.ndarray, den: int, window: Q, rng: random.Random
) -> tuple[np.ndarray, int]:
    """The numerators over an even den, in storage order, each one whose
    fraction is 0, 1/2 or an earlier one's redrawn on the grid in [0, window)
    until it is none of these; over lcm(den, DEN), with that denominator."""
    big = math.lcm(den, DEN)
    ws = [n * (big // den) for n in nums.tolist()]
    max_num = grid_max_num(window)
    taken = {0, big // 2}  # fractional parts of kept points, and the gadget's
    for k, w in enumerate(ws):
        attempts = 0
        while w % big in taken:
            attempts += 1
            if attempts > 200:
                raise WindowTooSmall("cannot avoid gadget fractions")
            w = ws[k] = grid_num(rng, max_num, draw_odd(rng)) * (big // DEN)
        taken.add(w % big)
    (nums,), big = integer_table([ws], len(ws), big)
    return nums, big


def attach_s0_gadget(sample: FibredSample, seed: int) -> S0Gadget:
    """Adjoin the gadget fibre at u = 0 and re-audit unit distances exactly.

    Sample points that collide are resampled: R-components whose fraction
    is 0, 1/2 or an earlier one, and U-points that repeat, lie at the
    origin, or lie at exact norm 1 from the origin or from another U-point
    (redrawn by `_draw_u_point`).  The numerators are scaled to an even
    denominator, lcm(r_den, 2), that holds the gadget's halves; fractional
    parts are found colliding as integers over it, all at once, and only
    then redrawn one by one (`_redrawn_fractions`).  Grid samples never
    collide: their numerators are odd over 2**33 and already distinct in
    their fractional parts.
    """
    rng = random.Random(seed ^ 0x60D6E7)
    den = math.lcm(sample.r_den, 2)
    r_nums = sample.r_nums
    if den != sample.r_den:
        (r_nums,), _ = integer_table([[2 * n for n in r_nums.tolist()]], len(r_nums), den)
    r_clear = not _frac_colliders(r_nums, den).any()
    if not r_clear:
        r_nums, den = _redrawn_fractions(r_nums, den, sample.window, rng)
    halves = [h * (den // 2) for h in _GADGET_HALVES]
    (gadget_nums,), _ = integer_table([halves], len(halves), den)
    r_nums = np.concatenate((r_nums, gadget_nums))

    n_u, dim = len(sample.u_points), sample.u_ball.dim
    u_points = [*sample.u_points, zero_vec(dim)]  # the gadget fibre's, last in the combined order
    clash = _u_clashes(sample.u_ball, u_points)
    redrawn = not r_clear or clash.any()
    side = _u_side(n_u, dim)
    for f in range(n_u):
        attempts = 0
        while clash[f]:
            attempts += 1
            if attempts > 200:
                raise WindowTooSmall("cannot avoid unit U-distances")
            u_points[f] = _draw_u_point(rng, side, dim)
            clash = _u_clashes(sample.u_ball, u_points)

    combined = FibredSample(
        sample.u_ball, tuple(u_points), r_nums, den, (*sample.fibre_sizes, len(_GADGET_HALVES)),
        sample.window, sample.seed, integer_exempt_fibres=(n_u,),
    )
    gadget = S0Gadget(combined=combined, gadget_fibre=n_u, gadget_indices=(0, 1, 2, 3))
    # Unless something was redrawn, the two checks above already ran on the
    # combined sample's U-points and on its numerators outside the gadget.
    (audit_gadget if redrawn else _audit_unit_pairs)(gadget)
    return gadget


@dataclass(frozen=True)
class S0Params:
    u_ball: PolytopeBall
    n_u: int
    fibre_n: int
    window: Q = Q(1)
    budget: int = 50
    p: Q = Q(1, 2)


@dataclass(frozen=True)
class S0Result:
    trials: int
    agreements: int
    conditional_runs: int
    completions: int
    rows: tuple[tuple[int, bool, bool | None], ...]  # (trial, agreed, completed)

    @property
    def agreement_rate(self) -> Q:
        return Q(self.agreements, self.trials)

    @property
    def conditional_completion_rate(self) -> Q:
        if self.conditional_runs == 0:
            return Q(0)
        return Q(self.completions, self.conditional_runs)


_SEED_STRIDE = 1_000_003


def _derive_seed(seed: int, idx: int) -> int:
    return seed * _SEED_STRIDE + idx


def s0_run_trial(params: S0Params, trial_seed: int) -> tuple[bool, bool | None]:
    """One gadgeted trial: does the unique gadget edge agree, and if so,
    does the identity-seeded back-and-forth run to budget without a block?"""
    sample = make_fibred_sample(
        params.u_ball, params.n_u, params.fibre_n, params.window, trial_seed
    )
    gadget = attach_s0_gadget(sample, trial_seed)
    g = FibreGraph(gadget.combined, params.p, trial_seed, tag=0)
    g2 = FibreGraph(gadget.combined, params.p, trial_seed, tag=1)
    e = gadget.potential_edge
    agreed = g.adjacent(*e) == g2.adjacent(*e)
    if not agreed:
        return False, None
    state = initial_identity(gadget.combined, gadget.gadget_indices)
    report = bf_run(
        g, g2, params.budget, trial_seed, initial=state,
        params={"n_u": params.n_u, "fibre_n": params.fibre_n, "p": params.p},
    )
    return True, report.blocked is None


def s0_experiment(params: S0Params, trials: int, seed: int) -> S0Result:
    """Agreement frequency of the gadget edge and the conditional completion rate."""
    if not 1 <= trials <= _SEED_STRIDE:
        # Trial seeds of (seed, _SEED_STRIDE) and (seed + 1, 0) would coincide.
        raise OutOfDomain(f"trials must lie in [1, {_SEED_STRIDE}], got {trials}")
    if params.budget < 1:  # bf_run checks it too, but only runs on agreeing trials
        raise OutOfDomain("budget must be >= 1")
    # FibreGraph checks it too, but only after a trial has drawn its sample.
    _check_coin_indices(Q(params.p), params.n_u * params.fibre_n + len(_GADGET_HALVES))
    outcomes = [s0_run_trial(params, _derive_seed(seed, t)) for t in range(trials)]
    rows = tuple((t, a, c) for t, (a, c) in enumerate(outcomes))
    agreements = sum(1 for _, a, _ in rows if a)
    conditional = [c for _, a, c in rows if a]
    return S0Result(
        trials=trials,
        agreements=agreements,
        conditional_runs=len(conditional),
        completions=sum(1 for c in conditional if c),
        rows=rows,
    )


def bf_run_experiment(
    u_ball: PolytopeBall,
    n_u: int,
    fibre_n: int,
    p: Q,
    budget: int,
    seed: int,
    window: Q = Q(1),
) -> BfReport:
    """Two independent Bernoulli graphs over one fresh sample, then bf_run."""
    _check_coin_indices(Q(p), n_u * fibre_n)  # before drawing a sample FibreGraph would refuse
    sample = make_fibred_sample(u_ball, n_u, fibre_n, window, seed)
    g = FibreGraph(sample, p, seed, tag=0)
    g2 = FibreGraph(sample, p, seed, tag=1)
    return bf_run(
        g, g2, budget, seed,
        params={"n_u": n_u, "fibre_n": fibre_n, "p": p, "window": window, "budget": budget},
    )
