"""The samplers' shared rational grid.

Every sampled coordinate is num / 2**DEN_POW with num odd: a per-draw odd
offset below 2**21 plus a uniform even step.  `random_graphs` draws these
numerators one at a time as Python ints; the fibred sampler draws its
R-numerators in bulk through `grid_nums`, which replays the same draws from
the generator's own 32-bit words, and keeps them as integers.  A fibred
sample compares fractional parts as integers over its own denominator;
`frac_key` gives one rational's, exactly, on the grid or off it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import numpy as np

from .errors import WindowTooSmall

DEN_POW = 33
DEN = 2 ** DEN_POW

# Integers below this in magnitude may live in int64 arrays: the difference
# of two of them still fits.
INT64_BOUND = 2 ** 62

_ODD_WORD = 2 ** 31  # `draw_odd` keeps a word's top 21 bits iff they are below 2**20
_POW2 = 1 << np.arange(63, dtype=np.int64)
_CHUNK = 1 << 14  # most 32-bit words one bulk round of `grid_nums` draws


def draw_odd(rng: random.Random) -> int:
    """The per-draw odd offset, in [1, 2**21)."""
    return 2 * rng.randrange(2 ** 20) + 1


def grid_num(rng: random.Random, max_num: int, odd: int) -> int:
    """A uniform numerator in [odd, max_num] congruent to odd mod 2."""
    if max_num <= odd:
        raise WindowTooSmall(f"window of {max_num}/2**{DEN_POW} too small for the sampler grid")
    return 2 * rng.randrange((max_num - odd) // 2 + 1) + odd


def grid_nums(rng: random.Random, max_num: int, count: int) -> np.ndarray:
    """`grid_num(rng, max_num, draw_odd(rng))` drawn `count` times, in bulk.

    `randrange(n)` takes the top k = n.bit_length() bits of one 32-bit word
    while k <= 32 and redraws while they are >= n, and
    `rng.getrandbits(32 * m)` is the next m words, least significant first.
    Where the window makes the exceptions rare, each round draws a chunk of
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
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), "<u4")
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


def grid_max_num(width: Q) -> int:
    """The largest grid numerator in a window [0, width]."""
    return math.floor(width * DEN)


def frac(x: Q) -> Q:
    return x - math.floor(x)


def frac_key(x: Q) -> tuple[int, int]:
    """(numerator, denominator) of frac(x), from integers only."""
    n, d = x.as_integer_ratio()
    return n % d, d
