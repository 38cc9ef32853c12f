"""The samplers' shared rational grid, and bulk replays of `random.Random`.

Every sampled coordinate is num / 2**DEN_POW with num odd: a per-draw odd
offset below 2**21 plus a uniform even step.  `random_graphs` draws these
numerators one at a time as Python ints; the fibred sampler draws its
R-numerators in bulk through `grid_nums`, and keeps them as integers.  A
fibred sample compares fractional parts as integers over its own
denominator: a numerator modulo it.

This module alone reads the generator's own 32-bit words (`_next_words`).
`randrange(b)` for b below 2**32 takes the top b.bit_length() bits of one
word and redraws while they are >= b.  A bulk replay settles in numpy the
draws that a round of words makes and winds the generator back to just
after the last word used, so `rng` ends where the per-draw loop leaves it:
`randbelow` for bounds falling by 0 or 1 per draw (the Bernoulli coins, and
`shuffled`'s Fisher-Yates draws), `grid_nums` for the grid draws.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import numpy as np

from .errors import IndexOutOfRange, OutOfDomain, WindowTooSmall

DEN_POW = 33
DEN = 2 ** DEN_POW

# Integers below this in magnitude may live in int64 arrays: the difference
# of two of them still fits.
INT64_BOUND = 2 ** 62

_ODD_WORD = 2 ** 31  # `draw_odd` keeps a word's top 21 bits iff they are below 2**20
_POW2 = 1 << np.arange(63, dtype=np.int64)
_CHUNK = 1 << 14  # most 32-bit words one bulk round of `grid_nums` or `randbelow` reads


def draw_odd(rng: random.Random) -> int:
    """The per-draw odd offset, in [1, 2**21)."""
    return 2 * rng.randrange(2 ** 20) + 1


def grid_num(rng: random.Random, max_num: int, odd: int) -> int:
    """A uniform numerator in [odd, max_num] congruent to odd mod 2."""
    if max_num <= odd:
        raise WindowTooSmall(f"window of {max_num}/2**{DEN_POW} too small for the sampler grid")
    return 2 * rng.randrange((max_num - odd) // 2 + 1) + odd


def _next_words(rng: random.Random, m: int) -> np.ndarray:
    """The generator's next m 32-bit words as uint32, in the order its
    `getrandbits(32)` calls would give them: `rng.getrandbits(32 * m)` is
    those words, least significant first."""
    return np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")


def grid_nums(rng: random.Random, max_num: int, count: int) -> np.ndarray:
    """`grid_num(rng, max_num, draw_odd(rng))` drawn `count` times, in bulk.

    Where the window makes the exceptions rare, each round reads a chunk of
    words and settles, in numpy, every draw before the first one whose step
    takes 33 or more bits or whose step word is rejected (see `_settled`);
    the generator is then wound back to just after the settled draws, and
    that draw runs through `grid_num` itself.  Elsewhere every draw does.
    Either way `rng` ends where the per-draw loop leaves it, and the loop's
    error is raised at the same draw.  The result is int64 below
    `INT64_BOUND`, Python ints otherwise.
    """
    dtype = np.int64 if max_num < INT64_BOUND else object
    # The bulk pays where few draws need the loop: the largest odd offset
    # leaves the fewest step values, n_lo (so n_lo >= 1 puts every odd
    # offset below max_num), and a step word of k bits is rejected with
    # probability at most (2**k - n_lo) / 2**k.  Windows of 1, 1/2, ..., 1/16
    # keep that within 2**-8; a window of 1/3 does not, nor do windows
    # above 1, whose steps take 33 bits or more.
    n_lo = (max_num - 2 ** 21 + 1) // 2 + 1
    k = n_lo.bit_length()
    if not (n_lo >= 1 and k <= 32 and (2 ** k - n_lo) << 8 <= 2 ** k):
        return np.array([grid_num(rng, max_num, draw_odd(rng)) for _ in range(count)], dtype)
    nums = np.empty(count, dtype)
    got, m = 0, _CHUNK
    while got < count:
        state = rng.getstate()
        m = min(m, 4 * (count - got))
        words = _next_words(rng, m)
        settled, used = _settled(words.astype(np.int64), max_num, count - got)
        nums[got : got + len(settled)] = settled
        got += len(settled)
        if used < m:
            rng.setstate(state)
            rng.getrandbits(32 * used)
        if got < count:
            nums[got] = grid_num(rng, max_num, draw_odd(rng))
            got += 1
        # Size the next round by how far this one got.
        m = min(_CHUNK, max(64, 8 * len(settled)))
    return nums


def _settled(words: np.ndarray, max_num: int, limit: int) -> tuple[np.ndarray, int]:
    """The first (at most `limit`) numerators that `words`, starting at a draw,
    settle, and the words they use.

    While every step is one accepted word, a word after a rejected odd
    word or after a step word is an odd word, so within a run of words
    below 2**31 the odd words sit at the even offsets and each is followed
    by its step word.  The settled draws end before the first draw that
    breaks that premise, and before a last odd word with no step word
    after it.
    """
    idx = np.arange(len(words))
    last_high = np.maximum.accumulate(np.where(words < _ODD_WORD, -1, idx))
    at = np.flatnonzero(((idx - last_high) % 2 == 1)[:-1] & (words[:-1] < _ODD_WORD))
    odd = 2 * (words[at] >> 11) + 1
    n = (max_num - odd) // 2 + 1
    k = np.searchsorted(_POW2, n, side="right")  # n.bit_length() for n >= 1
    step = words[at + 1] >> np.maximum(32 - k, 0)
    bad = np.flatnonzero((k > 32) | (step >= n))
    take = min(bad[0] if len(bad) else len(at), limit)
    used = int(at[take - 1]) + 2 if take else 0
    return 2 * step[:take] + odd[:take], used


def randbelow(
    rng: random.Random, first: int, count: int, step: int = 0, out: np.ndarray | None = None
) -> np.ndarray:
    """`[rng.randrange(first - step * i) for i in range(count)]` for step 0
    or 1, in bulk, written into `out` (by default int64 for `first` below
    `INT64_BOUND`, Python ints otherwise) and returned; `rng` is left where
    that loop leaves it.  Each run of draws whose bounds share a bit length
    k <= 32 - step settles from words read in rounds of at most `_CHUNK`
    (`_accepted`); wider bounds run through `randrange` itself.
    """
    if count and first - step * (count - 1) < 1:
        raise OutOfDomain(f"empty range: {count} draws below {first} falling by {step}")
    if out is None:
        out = np.empty(count, np.int64 if first < INT64_BOUND else object)
    got = 0
    words, at = np.empty(0, np.uint32), 0  # words[:at] are spent
    while got < count:
        bound = first - step * got
        k = bound.bit_length()
        if k > 32 - step:
            break
        if at == len(words):
            state = rng.getstate()
            words, at = _next_words(rng, min(_CHUNK, 2 * (count - got))), 0
        need = min(count - got, bound + 1 - (1 << (k - 1))) if step else count - got
        # A word is accepted with probability over 1/2, so 2 * need words
        # mostly suffice; a short window leaves the rest to the next round.
        draws, used = _accepted(words[at : at + 2 * need] >> (32 - k), bound, need, step)
        at += used
        out[got : got + len(draws)] = draws
        got += len(draws)
    if at < len(words):
        rng.setstate(state)
        rng.getrandbits(32 * at)
    out[got:] = [rng.randrange(first - step * i) for i in range(got, count)]
    return out


def _accepted(r: np.ndarray, bound: int, need: int, step: int) -> tuple[np.ndarray, int]:
    """The draws that the top-bit values r (uint32) make, the t-th (from 0)
    below bound - step * t, until `need` are made or r runs out; and how
    many values they use.

    With step 0 a value is accepted iff r_p < bound, all in one pass.  With
    step 1 it is accepted iff r_p + t_p < bound, t_p the acceptances before
    it.  Iterating a <- (r + t(a) < bound), t(a) the exclusive running sum
    of a, gives an iterate that is exact up to and at the first place where
    it differs from the last one (an exact prefix fixes the next place), so
    each pass settles at least one more value; a pass reads only the values
    not yet settled.  The uint32 sums stay below 2**32: r < 2**k, and a
    pass adds at most len(r) <= 2 * need <= 2**k, for k <= 31.
    """
    a = r < bound
    settled = 0 if step else len(r)
    taken = 0
    while settled < len(r) and taken < need:
        seg = a[settled:]
        t = np.cumsum(seg, dtype=np.uint32)
        t -= seg
        t += r[settled:]
        new = t < bound - taken
        differ = new != seg
        d = int(differ.argmax())
        exact = d + 1 if differ[d] else len(new)
        a[settled:] = new
        taken += int(np.count_nonzero(new[:exact]))
        settled += exact
    hits = np.flatnonzero(a[:settled])[:need]
    used = int(hits[-1]) + 1 if len(hits) == need else settled
    return r[hits], used


def shuffled(rng: random.Random, n: int) -> np.ndarray:
    """`rng.shuffle(x)` of x = list(range(n)), as an array, in bulk.

    The result (int32) and the state `rng` is left in are exactly the
    shuffle's.  Step i, for i = n - 1 down to 1, swaps x[i] with x[j[i]],
    j[i] = `randrange(i + 1)`: `randbelow` draws those straight into j, and
    `_composed_swaps` composes the swaps.
    """
    if n >= 2 ** 31:
        raise IndexOutOfRange(f"{n} positions; shuffled takes fewer than 2**31")
    j = np.zeros(n, np.int32)
    randbelow(rng, n, max(n - 1, 0), 1, out=j[:0:-1])
    return _composed_swaps(j)


def _composed_swaps(j: np.ndarray) -> np.ndarray:
    """The list that Fisher-Yates swaps of x[i] and x[j[i]], for i = n - 1
    down to 1, leave from list(range(n)).

    Step i writes x[i] into position j[i] and fixes out[i], the value
    position j[i] holds before the step.  The steps run from n - 1 down, so
    the last write to position j[i] before step i came from succ(i), the
    least i' > i with j[i'] = j[i]; out[i] is what position succ(i) held
    before its own step, or j[i] itself where succ(i) does not exist.  In
    turn position p holds before its step what position nxt(p), the least
    i' > p with j[i'] = p, held before that step, or p where there is none:
    the end of the chain p -> nxt(p) -> ..., found by pointer jumping.  A
    chain starts at some succ(i) and each link is some nxt(p), so every p on
    one has j[p] < p, and p's own step is not in its group.
    """
    n = len(j)
    # The steps grouped by target, in step order: two stable radix passes.
    order = np.argsort((j & 0xFFFF).astype(np.uint16), kind="stable").astype(np.int32)
    if n > 1 << 16:
        order = order[np.argsort((j[order] >> 16).astype(np.uint16), kind="stable")]
    target = j[order]
    same = target[1:] == target[:-1]
    # nxt(p) is the first step of p's group; where that is p itself, the
    # write is a no-op, and no chain asks for such a p (see above).
    root = np.arange(n + 1, dtype=np.int32)  # root[n] takes the other steps' writes
    root[np.where(np.append(True, ~same), target, n)] = order
    while True:
        jumped = root[root]
        if np.array_equal(jumped, root):
            break
        root = jumped
    del jumped
    np.copyto(target[:-1], root[order[1:]], where=same)  # target becomes out[order]
    out = np.empty(n, np.int32)
    out[order] = target
    return out


def grid_max_num(width: Q) -> int:
    """The largest grid numerator in a window [0, width]."""
    return math.floor(width * DEN)
