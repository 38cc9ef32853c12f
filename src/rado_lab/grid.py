"""The samplers' shared rational grid.

Every sampled coordinate is num / 2**DEN_POW with num odd: a per-draw odd
offset below 2**21 plus a uniform even step.  Samplers draw these
numerators as Python ints (the fibred sampler also deduplicates on their
low DEN_POW bits) and build one `Fraction` per kept coordinate.
Fractional parts are compared through `frac_key`, which is exact for any
rational, on the grid or off it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

from .errors import WindowTooSmall

DEN_POW = 33
DEN = 2 ** DEN_POW


def draw_odd(rng: random.Random) -> int:
    """The per-draw odd offset, in [1, 2**21)."""
    return 2 * rng.randrange(2 ** 20) + 1


def grid_num(rng: random.Random, max_num: int, odd: int) -> int:
    """A uniform numerator in [odd, max_num] congruent to odd mod 2."""
    if max_num <= odd:
        raise WindowTooSmall(f"window of {max_num}/2**{DEN_POW} too small for the sampler grid")
    return 2 * rng.randrange((max_num - odd) // 2 + 1) + odd


def grid_max_num(width: Q) -> int:
    """The largest grid numerator in a window [0, width]."""
    return math.floor(width * DEN)


def frac(x: Q) -> Q:
    return x - math.floor(x)


def frac_key(x: Q) -> tuple[int, int]:
    """(numerator, denominator) of frac(x), from integers only."""
    n, d = x.as_integer_ratio()
    return n % d, d
