"""Exact phase-1 feasibility solver and its Farkas certificates."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dutchbook.simplex import _check_solution, solve_equality_feasibility


def _check(rows, rhs):
    """Solve and verify whichever object comes back, exactly."""
    result = solve_equality_feasibility(rows, rhs)
    if result.feasible:
        x = result.solution
        assert all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(c * v for c, v in zip(row, x)) == b
    else:
        y = result.certificate
        n = len(rows[0])
        for j in range(n):
            assert sum(y[i] * rows[i][j] for i in range(len(rows))) <= 0
        assert sum(y[i] * b for i, b in enumerate(rhs)) > 0
    return result


def test_simple_feasible_system():
    # x0 + x1 = 1, x0 - x1 = 0 has the solution (1/2, 1/2).
    r = _check([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    assert r.feasible
    assert r.solution == (F(1, 2), F(1, 2))


def test_solution_check_rejects_a_point_missing_a_row():
    rows, rhs = [[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)]
    _check_solution(rows, rhs, (F(1, 2), F(1, 2)))
    with pytest.raises(RuntimeError, match="row not met"):
        _check_solution(rows, rhs, (F(1), F(0)))  # meets row 0, misses row 1
    with pytest.raises(RuntimeError, match="negative"):
        _check_solution(rows, rhs, (F(-1), F(2)))


def test_simple_infeasible_system():
    # x0 + x1 = 1 and x0 + x1 = 2 cannot both hold.
    r = _check([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)])
    assert not r.feasible


def test_negative_rhs_is_handled_by_row_flips():
    r = _check([[F(-1), F(0)], [F(0), F(1)]], [F(-3), F(2)])
    assert r.feasible
    assert r.solution == (F(3), F(2))


def test_infeasible_by_sign():
    # -x0 = 1 has no nonnegative solution.
    r = _check([[F(-1)]], [F(1)])
    assert not r.feasible


def test_degenerate_zero_rhs():
    r = _check([[F(1), F(-1)]], [F(0)])
    assert r.feasible


def test_input_validation():
    with pytest.raises(ValueError):
        solve_equality_feasibility([], [])
    with pytest.raises(ValueError):
        solve_equality_feasibility([[F(1)], [F(1), F(2)]], [F(1), F(1)])
    with pytest.raises(ValueError):
        solve_equality_feasibility([[F(1)]], [F(1), F(2)])


_entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_random_systems_always_resolve(m, n, data):
    rows = [
        [data.draw(_entry) for _ in range(n)]
        for _ in range(m)
    ]
    rhs = [data.draw(_entry) for _ in range(m)]
    _check(rows, rhs)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_systems_with_planted_solution_are_feasible(m, n, data):
    rows = [
        [data.draw(_entry) for _ in range(n)]
        for _ in range(m)
    ]
    planted = [
        data.draw(st.fractions(min_value=0, max_value=3, max_denominator=4))
        for _ in range(n)
    ]
    rhs = [sum(c * v for c, v in zip(row, planted)) for row in rows]
    assert _check(rows, rhs).feasible
