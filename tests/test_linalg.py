from fractions import Fraction as Q

import pytest

from rado_lab import linalg
from rado_lab.errors import DimensionMismatch, SingularMatrix


def v(*coords):
    return tuple(Q(c) for c in coords)


def test_vector_ops_exact():
    assert linalg.vadd(v(1, 2), v(Q(1, 3), -1)) == v(Q(4, 3), 1)
    assert linalg.vsub(v(1, 0), v(0, 1)) == v(1, -1)
    assert linalg.vscale(Q(-2, 3), v(3, 6)) == v(-2, -4)
    assert linalg.vdot(v(1, 2), v(3, 4)) == 11
    with pytest.raises(DimensionMismatch):
        linalg.vadd(v(1), v(1, 2))


def test_rank_and_span():
    assert linalg.rank([v(1, 0), v(0, 1), v(1, 1)]) == 2
    assert linalg.in_span(v(2, 2), [v(1, 1)])
    assert not linalg.in_span(v(1, 0), [v(1, 1)])
    assert linalg.in_span(v(0, 0), [])


def test_independent_subset_deterministic():
    vecs = [v(1, 1), v(2, 2), v(1, 0)]
    assert linalg.independent_subset(vecs) == [v(1, 1), v(1, 0)]
    assert linalg.independent_subset(vecs, limit=1) == [v(1, 1)]


def test_invert_round_trip():
    m = (v(2, 1), v(1, 1))
    inv = linalg.invert(m)
    assert linalg.matmul(m, inv) == linalg.identity_matrix(2)
    with pytest.raises(SingularMatrix):
        linalg.invert((v(1, 1), v(2, 2)))
