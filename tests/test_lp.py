import random
from fractions import Fraction as Q

from rado_lab.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LpProblem, check_certificate, solve


def q(*nums):
    return tuple(Q(n) for n in nums)


def test_simple_minimum():
    # min x + y s.t. x + y = 1, x,y >= 0
    res = solve(LpProblem(objective=q(1, 1), a_eq=(q(1, 1),), b_eq=q(1), nonneg=True))
    assert res.status == OPTIMAL
    assert res.value == 1
    assert check_certificate(
        LpProblem(objective=q(1, 1), a_eq=(q(1, 1),), b_eq=q(1), nonneg=True), res
    )


def test_infeasible():
    # x = 1 and x = 2 simultaneously
    res = solve(
        LpProblem(objective=q(0), a_eq=(q(1), q(1)), b_eq=q(1, 2), nonneg=True)
    )
    assert res.status == INFEASIBLE


def test_unbounded():
    # min -x with only x >= 0
    res = solve(LpProblem(objective=q(-1), nonneg=True))
    assert res.status == UNBOUNDED


def test_free_variables():
    # min x s.t. x >= -3 (i.e. -x <= 3), free variable
    res = solve(LpProblem(objective=q(1), a_ub=(q(-1),), b_ub=q(3)))
    assert res.status == OPTIMAL
    assert res.value == -3
    assert res.point == (Q(-3),)


def test_mixed_constraints_exact_rationals():
    # min 2x + 3y s.t. x + y = 5/3, x - y <= 1/7, x,y >= 0
    problem = LpProblem(
        objective=q(2, 3),
        a_eq=(q(1, 1),),
        b_eq=(Q(5, 3),),
        a_ub=(q(1, -1),),
        b_ub=(Q(1, 7),),
        nonneg=True,
    )
    res = solve(problem)
    assert res.status == OPTIMAL
    # Optimum puts as much mass as possible on x: x - y = 1/7, x + y = 5/3.
    assert res.point == (Q(19, 21), Q(16, 21))
    assert res.value == 2 * Q(19, 21) + 3 * Q(16, 21)
    assert check_certificate(problem, res)


def test_degenerate_redundant_rows():
    # Duplicated equality rows must not confuse phase 1.
    problem = LpProblem(
        objective=q(1, 1),
        a_eq=(q(1, 1), q(1, 1), q(2, 2)),
        b_eq=q(1, 1, 2),
        nonneg=True,
    )
    res = solve(problem)
    assert res.status == OPTIMAL
    assert res.value == 1


def test_random_certificates_are_exact():
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randrange(2, 5)
        m = rng.randrange(1, 4)
        a_eq = tuple(
            tuple(Q(rng.randrange(-4, 5)) for _ in range(n)) for _ in range(m)
        )
        x_feas = tuple(Q(rng.randrange(0, 5), rng.randrange(1, 4)) for _ in range(n))
        b_eq = tuple(sum(r * x for r, x in zip(row, x_feas)) for row in a_eq)
        c = tuple(Q(rng.randrange(0, 6)) for _ in range(n))
        problem = LpProblem(objective=c, a_eq=a_eq, b_eq=b_eq, nonneg=True)
        res = solve(problem)
        assert res.status == OPTIMAL  # x_feas is feasible by construction
        assert check_certificate(problem, res)
        feas_value = sum(ci * xi for ci, xi in zip(c, x_feas))
        assert res.value <= feas_value
