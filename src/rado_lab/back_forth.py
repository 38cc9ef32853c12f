"""Back-and-forth partial isomorphisms on fibred samples in (U (+) R)_max.

The sample is a finite window of a dense set that is dense in every fibre
{u} x R and has no two points differing by an integer in the R-component.
Two Bernoulli graphs over the same sample are matched by alternately
extending a partial isomorphism that fixes U and acts on the R-component
through a monotone map g with g(x + k) = g(x) + k.  At finite scale the
"infinitely many candidates" of the dense setting become "at least one in
the window", and a missing candidate is a reported block, not an error.

Edges are lazy: each unordered pair gets an independent seeded coin, so
samples of a hundred thousand points cost nothing until a pair is probed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Sequence

import numpy as np

from .errors import CrossCheckFailure, IndexOutOfRange, WindowTooSmall
from .geometry import PolytopeBall, norm, pairwise_norm_numerators
from .linalg import Vec, vsub, zero_vec

_DEN_POW = 33
_DEN = 2 ** _DEN_POW

FORWARD = "forward"
BACKWARD = "backward"

GADGET_WS = (Q(0), Q(1), Q(3, 2), Q(5, 2))

_COIN_INDEX_LIMIT = 2 ** 20


def _frac(x: Q) -> Q:
    return x - math.floor(x)


@dataclass(frozen=True)
class FibredSample:
    """Fibres over distinct U-points, flattened in a seeded shuffle order.

    ``integer_exempt_fibres`` marks fibres (the S0 gadget) whose internal
    integer R-differences are intentional and excluded from audits.
    """

    u_ball: PolytopeBall
    u_points: tuple[Vec, ...]
    fibres: tuple[tuple[Q, ...], ...]
    window: Q
    seed: int
    fibre_of: tuple[int, ...]
    w_of: tuple[Q, ...]
    fibre_members: tuple[tuple[int, ...], ...]
    integer_exempt_fibres: tuple[int, ...] = ()

    @property
    def n_points(self) -> int:
        return len(self.w_of)

    def members_of_fibre(self, f: int) -> tuple[int, ...]:
        return self.fibre_members[f]

    def flat_point(self, i: int) -> Vec:
        """The point in ambient (U (+) R)_max coordinates."""
        return self.u_points[self.fibre_of[i]] + (self.w_of[i],)


def _flatten(
    u_ball: PolytopeBall,
    u_points: Sequence[Vec],
    fibres: Sequence[Sequence[Q]],
    window: Q,
    seed: int,
    head: Sequence[tuple[int, Q]] = (),
    exempt: Sequence[int] = (),
) -> FibredSample:
    flat = [(f, w) for f, ws in enumerate(fibres) for w in ws if (f, w) not in head]
    rng = random.Random(seed ^ 0x5A5A5A)
    rng.shuffle(flat)
    flat = list(head) + flat
    members: list[list[int]] = [[] for _ in fibres]
    for i, (f, _) in enumerate(flat):
        members[f].append(i)
    return FibredSample(
        u_ball=u_ball,
        u_points=tuple(u_points),
        fibres=tuple(tuple(ws) for ws in fibres),
        window=Q(window),
        seed=seed,
        fibre_of=tuple(f for f, _ in flat),
        w_of=tuple(w for _, w in flat),
        fibre_members=tuple(tuple(m) for m in members),
        integer_exempt_fibres=tuple(exempt),
    )


def _rand_rational(rng: random.Random, lo: Q, width: Q) -> Q:
    max_num = math.floor(width * _DEN)
    odd = 2 * rng.randrange(2 ** 20) + 1
    if max_num <= odd:
        raise WindowTooSmall(f"width {width} too small for the sampler grid")
    k = rng.randrange((max_num - odd) // 2 + 1)
    return lo + Q(2 * k + odd, _DEN)


def make_fibred_sample(
    u_ball: PolytopeBall,
    n_u: int,
    fibre_n: int,
    window: Q,
    seed: int,
    u_offset: Q = Q(2),
    u_side: Q | None = None,
) -> FibredSample:
    """Sample n_u distinct U-points, each carrying fibre_n R-components.

    U-points land in [u_offset, u_offset + u_side)^dim with u_side chosen
    for density about one per unit volume, the finite stand-in for a
    density-one process; R-components land in [0, window) with all
    fractional parts distinct, so no two points differ by an integer.
    """
    if n_u < 1 or fibre_n < 1:
        raise ValueError("need n_u >= 1 and fibre_n >= 1")
    window = Q(window)
    rng = random.Random(seed)
    dim = u_ball.dim
    if u_side is None:
        u_side = Q(max(1, math.ceil(n_u ** (1 / dim))))
    u_points: list[Vec] = []
    u_seen: set[Vec] = set()
    attempts = 0
    while len(u_points) < n_u:
        attempts += 1
        if attempts > 100 * n_u:
            raise WindowTooSmall("could not place distinct U-points")
        u = tuple(_rand_rational(rng, u_offset, u_side) for _ in range(dim))
        if u in u_seen:
            continue
        u_seen.add(u)
        u_points.append(u)
    fracs: set[Q] = set()
    fibres: list[tuple[Q, ...]] = []
    total = n_u * fibre_n
    attempts = 0
    for _ in range(n_u):
        ws: list[Q] = []
        while len(ws) < fibre_n:
            attempts += 1
            if attempts > 100 * total:
                raise WindowTooSmall("could not place integer-free R-components")
            w = _rand_rational(rng, Q(0), window)
            f = _frac(w)
            if f in fracs:
                continue
            fracs.add(f)
            ws.append(w)
        fibres.append(tuple(ws))
    return _flatten(u_ball, u_points, fibres, window, seed)


class FibreGraph:
    """A Bernoulli graph over a fibred sample with lazily sampled edges.

    Every unordered pair at distance strictly below one holds an edge with
    exact probability p, decided by a per-pair seeded coin; distances are
    max(U-distance, |delta w|), computed exactly and cached per fibre pair.
    An explicit edge set can be supplied instead (for relabeling tests).
    """

    def __init__(self, sample, p: Q, seed: int, tag: int = 0, edges=None):
        self.sample = sample
        self.p = Q(p)
        if edges is None and self.p != 1 and sample.n_points >= _COIN_INDEX_LIMIT:
            # The coin key packs each index into 20 bits; past that, pairs
            # such as (0, 5) and (1, 2**20 + 5) would share one coin.
            raise IndexOutOfRange(
                f"{sample.n_points} points; coin keys allow fewer than {_COIN_INDEX_LIMIT}"
            )
        self.seed = seed
        self.tag = tag
        self._edges = None if edges is None else {tuple(sorted(e)) for e in edges}
        self._u_dist: dict[tuple[int, int], Q] = {}
        self._coins: dict[tuple[int, int], bool] = {}

    def u_distance(self, fa: int, fb: int) -> Q:
        if fa == fb:
            return Q(0)
        key = (min(fa, fb), max(fa, fb))
        got = self._u_dist.get(key)
        if got is None:
            s = self.sample
            got = norm(s.u_ball, vsub(s.u_points[key[0]], s.u_points[key[1]]))
            self._u_dist[key] = got
        return got

    def distance_lt_1(self, i: int, j: int) -> bool:
        s = self.sample
        if abs(s.w_of[i] - s.w_of[j]) >= 1:
            return False
        return self.u_distance(s.fibre_of[i], s.fibre_of[j]) < 1

    def distance_floor(self, i: int, j: int) -> int:
        s = self.sample
        dw = abs(s.w_of[i] - s.w_of[j])
        du = self.u_distance(s.fibre_of[i], s.fibre_of[j])
        return max(math.floor(dw), math.floor(du))

    def adjacent(self, i: int, j: int) -> bool:
        if i == j:
            return False
        a, b = (i, j) if i < j else (j, i)
        if self._edges is not None:
            return (a, b) in self._edges
        got = self._coins.get((a, b))
        if got is None:
            if not self.distance_lt_1(a, b):
                got = False
            elif self.p == 1:
                got = True
            else:
                key = ((self.seed * 2 + self.tag) << 40) ^ (a << 20) ^ b
                coin = random.Random(key)
                got = coin.randrange(self.p.denominator) < self.p.numerator
            self._coins[(a, b)] = got
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
    step-isometry.
    """

    fwd: dict[int, int] = field(default_factory=dict)
    bwd: dict[int, int] = field(default_factory=dict)
    frac_pairs: tuple[tuple[Q, Q], ...] = ()
    cell_shift: int | None = None

    @property
    def matched(self) -> int:
        return len(self.fwd)

    def _with_pair(self, i: int, j: int, w: Q, w_img: Q) -> "PartialIso":
        shift = math.floor(w_img) - math.floor(w)
        if self.cell_shift is not None and shift != self.cell_shift:
            raise CrossCheckFailure("cell shift drifted inside one run")
        t, t2 = _frac(w), _frac(w_img)
        pairs = list(self.frac_pairs)
        pos = bisect_left(pairs, (t, t2))
        if not (pos < len(pairs) and pairs[pos] == (t, t2)):
            pairs.insert(pos, (t, t2))
        for (a, fa), (b, fb) in zip(pairs, pairs[1:]):
            if not (a < b and fa < fb):
                raise CrossCheckFailure("fraction order not strictly increasing")
        fwd = dict(self.fwd)
        bwd = dict(self.bwd)
        fwd[i] = j
        bwd[j] = i
        return PartialIso(fwd, bwd, tuple(pairs), shift)


def initial_identity(sample: FibredSample, indices: Sequence[int]) -> PartialIso:
    """Identity partial map on the given flat indices (e.g. the S0 gadget)."""
    state = PartialIso()
    for i in indices:
        state = state._with_pair(i, i, sample.w_of[i], sample.w_of[i])
    return state


def _interval(
    pairs: Sequence[tuple[Q, Q]], t: Q, invert: bool
) -> tuple[Q, Q]:
    """Open image interval for a new fraction t, with virtual fixed ends 0 and 1.

    With invert=True the pairs are read as (image, domain); strict
    monotonicity makes the swapped list sorted as well.
    """
    view = [(b, a) for a, b in pairs] if invert else list(pairs)
    lo, hi = Q(0), Q(1)
    pos = bisect_left(view, (t, Q(-1)))
    if pos > 0:
        lo = view[pos - 1][1]
    if pos < len(view):
        hi = view[pos][1]
    return lo, hi


def bf_step(
    g: FibreGraph, g2: FibreGraph, state: PartialIso, vertex: int, direction: str
) -> PartialIso | BlockReason:
    """Try to extend the partial isomorphism at one unmatched vertex.

    Candidates live on the vertex's own fibre of the other graph, inside
    the open fraction interval between the images of its fraction
    neighbours (and in the cell fixed by the global shift).  Among those,
    a candidate must agree with the vertex's adjacency to every matched
    point within potential-edge range; the smallest index wins.  Matched
    points out of range need no check: the interval discipline makes
    their adjacency agree automatically.
    """
    forward = direction == FORWARD
    dom, img = (g, g2) if forward else (g2, g)
    matched_dom = state.fwd if forward else state.bwd
    matched_img = state.bwd if forward else state.fwd
    if vertex in matched_dom:
        raise ValueError(f"vertex {vertex} already matched")
    s_dom, s_img = dom.sample, img.sample
    w = s_dom.w_of[vertex]
    fibre = s_dom.fibre_of[vertex]
    t = _frac(w)
    lo, hi = _interval(state.frac_pairs, t, invert=not forward)
    want_floor = None
    if state.cell_shift is not None:
        want_floor = math.floor(w) + (state.cell_shift if forward else -state.cell_shift)

    constraints: list[tuple[int, bool]] = []  # (image-side index, wanted adjacency)
    for a, b in state.fwd.items():
        da, ib = (a, b) if forward else (b, a)
        if dom.u_distance(fibre, s_dom.fibre_of[da]) < 1 and abs(w - s_dom.w_of[da]) < 1:
            constraints.append((ib, dom.adjacent(vertex, da)))

    found_in_interval = False
    for cand in s_img.members_of_fibre(fibre):
        if cand in matched_img:
            continue
        wc = s_img.w_of[cand]
        if want_floor is not None and math.floor(wc) != want_floor:
            continue
        tc = _frac(wc)
        if not (lo < tc < hi):
            continue
        found_in_interval = True
        if all(img.adjacent(cand, other) == wanted for other, wanted in constraints):
            if forward:
                return state._with_pair(vertex, cand, w, wc)
            return state._with_pair(cand, vertex, wc, w)
    kind = "adjacency_unsatisfiable" if found_in_interval else "no_candidate_in_interval"
    return BlockReason(kind=kind, vertex=vertex, direction=direction)


def audit_state(g: FibreGraph, g2: FibreGraph, state: PartialIso) -> None:
    """Exact partial-isomorphism and step-isometry audit of every matched pair.

    Violations are implementation bugs; the construction is supposed to
    make both properties invariant.
    """
    items = sorted(state.fwd.items())
    for x in range(len(items)):
        i, i2 = items[x]
        for y in range(x + 1, len(items)):
            j, j2 = items[y]
            if g.adjacent(i, j) != g2.adjacent(i2, j2):
                raise CrossCheckFailure(f"edge not preserved on pair ({i},{j})")
            if g.distance_floor(i, j) != g2.distance_floor(i2, j2):
                raise CrossCheckFailure(f"floor distance changed on pair ({i},{j})")


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
    audit_every_step: bool = True,
    params: dict | None = None,
) -> BfReport:
    """Alternate forward and backward extension steps in enumeration order.

    Stops at the step budget, at exhaustion, or at the first block.  Every
    accepted state is audited for edge preservation and exact floors.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    state = initial if initial is not None else PartialIso()
    start_matched = state.matched
    n, n2 = g.sample.n_points, g2.sample.n_points
    blocked: BlockReason | None = None
    steps = 0
    forward = True
    cursor_f, cursor_b = 0, 0
    while steps < budget:
        if forward:
            while cursor_f < n and cursor_f in state.fwd:
                cursor_f += 1
            vertex = cursor_f if cursor_f < n else None
        else:
            while cursor_b < n2 and cursor_b in state.bwd:
                cursor_b += 1
            vertex = cursor_b if cursor_b < n2 else None
        if vertex is None:
            if state.matched >= min(n, n2):
                break
            forward = not forward
            continue
        steps += 1
        got = bf_step(g, g2, state, vertex, FORWARD if forward else BACKWARD)
        if isinstance(got, BlockReason):
            blocked = got
            break
        state = got
        if audit_every_step:
            audit_state(g, g2, state)
        forward = not forward
    if not audit_every_step:
        audit_state(g, g2, state)
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

    u points along the distinguished R-axis, so the only pairs of the
    combined sample at exact unit distance are {0,u} and {3u/2,5u/2},
    and the unique potential edge is {u, 3u/2} at distance 1/2.
    """

    u: Vec
    combined: FibredSample
    gadget_fibre: int
    gadget_indices: tuple[int, int, int, int]

    @property
    def potential_edge(self) -> tuple[int, int]:
        return (self.gadget_indices[1], self.gadget_indices[2])


def _unit_u_distance_pairs(sample: FibredSample) -> list[tuple[int, int]]:
    """Fibre pairs at U-distance exactly one (exact check)."""
    nums, den = pairwise_norm_numerators(sample.u_ball, sample.u_points)
    ii, jj = np.nonzero(np.triu(nums == den, k=1))
    return list(zip(ii.tolist(), jj.tolist()))


def audit_gadget(gadget: S0Gadget) -> None:
    """Assert the exact unit-distance pairs are the two intended ones."""
    s = gadget.combined
    g0, g1, g2_, g3 = gadget.gadget_indices
    unit_pairs = set()
    ws = [s.w_of[i] for i in gadget.gadget_indices]
    for x in range(4):
        for y in range(x + 1, 4):
            if abs(ws[x] - ws[y]) == 1:
                unit_pairs.add((gadget.gadget_indices[x], gadget.gadget_indices[y]))
    if unit_pairs != {(g0, g1), (g2_, g3)}:
        raise CrossCheckFailure("gadget does not have exactly its two unit pairs")
    if _unit_u_distance_pairs(s):
        raise CrossCheckFailure("sample still contains a unit U-distance pair")
    fracs: set[Q] = set()
    for i in range(s.n_points):
        if s.fibre_of[i] == gadget.gadget_fibre:
            continue
        f = _frac(s.w_of[i])
        if f in fracs or f in (Q(0), Q(1, 2)):
            raise CrossCheckFailure("integer R-difference against sample or gadget")
        fracs.add(f)


def attach_s0_gadget(sample: FibredSample, seed: int) -> S0Gadget:
    """Adjoin the gadget fibre at u = 0 and re-audit unit distances exactly.

    Sample points that collide (fractions 0 or 1/2, or a U-point at exact
    norm 1 from the origin or unit U-distance from another) are resampled.
    """
    rng = random.Random(seed ^ 0x60D6E7)
    u_points = list(sample.u_points)
    fibres = [list(ws) for ws in sample.fibres]
    dim = sample.u_ball.dim

    fracs: set[Q] = set()
    for f, ws in enumerate(fibres):
        for k, w in enumerate(ws):
            attempts = 0
            while _frac(w) in fracs or _frac(w) in (Q(0), Q(1, 2)):
                attempts += 1
                if attempts > 200:
                    raise WindowTooSmall("cannot avoid gadget fractions")
                w = _rand_rational(rng, Q(0), sample.window)
            fracs.add(_frac(w))
            ws[k] = w

    def clashes() -> np.ndarray:
        """Per U-point: at norm 1 from the origin or another U-point, or repeated."""
        nums, den = pairwise_norm_numerators(sample.u_ball, [zero_vec(dim)] + u_points)
        return (nums[1:] == den).any(axis=1) | ((nums[1:, 1:] == 0).sum(axis=1) > 1)

    side = Q(max(1, math.ceil(len(u_points) ** (1 / dim))))
    clash = clashes()
    for f in range(len(u_points)):
        attempts = 0
        while clash[f]:
            attempts += 1
            if attempts > 200:
                raise WindowTooSmall("cannot avoid unit U-distances")
            u_points[f] = tuple(_rand_rational(rng, Q(2), side) for _ in range(dim))
            clash = clashes()

    gadget_fibre = len(fibres)
    u_points.append(zero_vec(dim))
    fibres.append(list(GADGET_WS))
    head = [(gadget_fibre, w) for w in GADGET_WS]
    combined = _flatten(
        sample.u_ball, u_points, [tuple(ws) for ws in fibres], sample.window,
        sample.seed, head=head, exempt=[gadget_fibre],
    )
    gadget = S0Gadget(
        u=zero_vec(dim) + (Q(1),),
        combined=combined,
        gadget_fibre=gadget_fibre,
        gadget_indices=(0, 1, 2, 3),
    )
    audit_gadget(gadget)
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


def _derive_seed(seed: int, idx: int) -> int:
    return seed * 1_000_003 + idx


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


def s0_experiment(params: S0Params, trials: int, seed: int, threads: int = 1) -> S0Result:
    """Agreement frequency of the gadget edge and the conditional completion rate."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    jobs = [(params, _derive_seed(seed, t)) for t in range(trials)]
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_s0_trial_star, jobs))
    else:
        outcomes = [s0_run_trial(*job) for job in jobs]
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


def _s0_trial_star(job: tuple[S0Params, int]) -> tuple[bool, bool | None]:
    return s0_run_trial(*job)


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
    sample = make_fibred_sample(u_ball, n_u, fibre_n, window, seed)
    g = FibreGraph(sample, p, seed, tag=0)
    g2 = FibreGraph(sample, p, seed, tag=1)
    return bf_run(
        g, g2, budget, seed,
        params={"n_u": n_u, "fibre_n": fibre_n, "p": p, "window": window, "budget": budget},
    )
