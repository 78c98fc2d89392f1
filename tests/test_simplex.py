"""Exact phase-1 feasibility solver and its Farkas certificates."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from dutchbook import simplex
from dutchbook.beliefs import _scaled
from dutchbook.simplex import (
    _check_certificate,
    _check_solution,
    _pivot,
    solve_equality_feasibility,
)


def _assert_solves(rows, rhs, x):
    assert all(v >= 0 for v in x)
    for row, b in zip(rows, rhs):
        assert sum(c * v for c, v in zip(row, x)) == b


def _assert_farkas(rows, rhs, y):
    for column in zip(*rows):
        assert sum(yi * c for yi, c in zip(y, column)) <= 0
    assert sum(yi * b for yi, b in zip(y, rhs)) > 0


def _check(rows, rhs):
    """Solve and verify whichever object comes back, exactly."""
    result = solve_equality_feasibility(rows, rhs)
    if result.feasible:
        _assert_solves(rows, rhs, result.solution)
    else:
        _assert_farkas(rows, rhs, result.certificate)
    return result


def _scaled_rows(rows, rhs):
    """The solver's form of a system for its checks: each row with its rhs,
    cleared of denominators."""
    return [_scaled([*row, b]) for row, b in zip(rows, rhs)]


def test_simple_feasible_system():
    # x0 + x1 = 1, x0 - x1 = 0 has the solution (1/2, 1/2).
    r = _check([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    assert r.feasible
    assert r.solution == (F(1, 2), F(1, 2))


def test_solution_check_rejects_a_point_missing_a_row():
    scaled = _scaled_rows([[F(1), F(1)], [F(1), F(-1)]], [F(1), F(0)])
    _check_solution(scaled, (F(1, 2), F(1, 2)))
    with pytest.raises(RuntimeError, match="row not met"):
        _check_solution(scaled, (F(1), F(0)))  # meets row 0, misses row 1
    with pytest.raises(RuntimeError, match="negative"):
        _check_solution(scaled, (F(-1), F(2)))
    # A negative entry is refused even where every row is met.
    with pytest.raises(RuntimeError, match="negative"):
        _check_solution(_scaled_rows([[F(1), F(1)]], [F(1)]), (F(-1, 7), F(8, 7)))
    # Rows with unlike denominators: the exact point passes, and one that
    # misses the second row by 1/10**9 fails.
    scaled = _scaled_rows([[F(1, 3), F(0)], [F(1, 6), F(2, 7)]], [F(1, 9), F(1, 7)])
    _check_solution(scaled, (F(1, 3), F(11, 36)))
    with pytest.raises(RuntimeError, match="row not met"):
        _check_solution(scaled, (F(1, 3), F(11, 36) + F(7, 2 * 10**9)))


def test_certificate_check_rejects_a_bad_certificate():
    # The second row is half the first on the left but not on the right,
    # so y = (-1, 2) proves the system infeasible: y.A = 0, y.b = 1.
    rows, rhs = [[F(1, 2), F(1, 3)], [F(1, 4), F(1, 6)]], [F(1), F(1)]
    scaled = _scaled_rows(rows, rhs)
    y = _check(rows, rhs).certificate
    _check_certificate(scaled, y)
    _check_certificate(scaled, (F(-1), F(2)))
    # One multiplier's sign flipped: y.A_j > 0 on every column.
    with pytest.raises(RuntimeError,
                       match=r"^invalid Farkas certificate \(column positivity\)$"):
        _check_certificate(scaled, (F(1), F(2)))
    # y.A = 0 but y.b = -1.
    with pytest.raises(RuntimeError,
                       match=r"^invalid Farkas certificate \(rhs sign\)$"):
        _check_certificate(scaled, (F(1), F(-2)))


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


# ------------------------------------------------------------ reference solver

# A dense `Fraction` tableau with no row scaling, run with either pivot
# rule.  With the solver's rule (lexicographic Dantzig) the reduced costs
# and ratios differ from the integer tableau's only by positive factors, so
# the two must agree pivot for pivot: the same verdict, the same point and
# the same certificate.  The byte-pinned reports under bench/expected/ rely
# on that.  With Bland's rule, which the solver used before, only the
# verdict must agree: the point and the certificate may differ.
_ZERO = F(0)
_ONE = F(1)


def _entering_rows(tab, enter):
    rows = [i for i in range(len(tab)) if tab[i][enter] > 0]
    if not rows:
        raise RuntimeError("phase-1 objective unbounded; constraint setup is broken")
    return rows


def _lex_dantzig(tab, cost, basis, n):
    """Most negative reduced cost (lowest index on a tie), then the row
    whose (rhs, artificial block) / coefficient is lexicographically least."""
    enter = min(range(n), key=cost.__getitem__)
    if cost[enter] >= 0:
        return None
    width = len(cost)
    keys = (width, *range(n, width))
    return enter, min(_entering_rows(tab, enter),
                      key=lambda i: [tab[i][k] / tab[i][enter] for k in keys])


def _bland(tab, cost, basis, n):
    """Lowest-index negative reduced cost, then the least ratio, the
    smallest basic index on a tie."""
    enter = next((j for j in range(n) if cost[j] < 0), None)
    if enter is None:
        return None
    width = len(cost)
    return enter, min(_entering_rows(tab, enter),
                      key=lambda i: (tab[i][width] / tab[i][enter], basis[i]))


def _reference_solve(rows, rhs, rule):
    m = len(rows)
    n = len(rows[0])
    flip = [(-_ONE if b < 0 else _ONE) for b in rhs]
    tab = [[flip[i] * v for v in rows[i]] + [_ZERO] * m + [flip[i] * rhs[i]]
           for i in range(m)]
    for i in range(m):
        tab[i][n + i] = _ONE
    basis = list(range(n, n + m))

    width = n + m
    cost = [_ZERO] * width
    for j in range(n):
        cost[j] = -sum((tab[i][j] for i in range(m)), _ZERO)

    while (choice := rule(tab, cost, basis, n)) is not None:
        enter, pivot_row = choice
        _reference_pivot(tab, cost, pivot_row, enter)
        basis[pivot_row] = enter

    obj = sum((tab[i][width] for i in range(m) if basis[i] >= n), _ZERO)
    if obj == 0:
        solution = [_ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = tab[i][width]
        _assert_solves(rows, rhs, solution)
        return True, tuple(solution), None

    y = [flip[i] * (_ONE - cost[n + i]) for i in range(m)]
    _assert_farkas(rows, rhs, y)
    return False, None, tuple(y)


def _reference_pivot(tab, cost, row, col):
    width = len(cost)
    inv = _ONE / tab[row][col]
    tab[row] = [v * inv for v in tab[row]]
    pivot_vals = tab[row]
    for i in range(len(tab)):
        if i != row and tab[i][col] != 0:
            factor = tab[i][col]
            tab[i] = [v - factor * p for v, p in zip(tab[i], pivot_vals)]
    if cost[col] != 0:
        factor = cost[col]
        for j in range(width):
            cost[j] -= factor * pivot_vals[j]


def _assert_matches_reference(rows, rhs):
    result = solve_equality_feasibility(rows, rhs)
    got = (result.feasible, result.solution, result.certificate)
    assert got == _reference_solve(rows, rhs, _lex_dantzig)
    assert result.feasible == _reference_solve(rows, rhs, _bland)[0]
    return result


_wide_entry = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=7),
    st.booleans(),
    st.data(),
)
def test_random_systems_match_reference_pivot_for_pivot(m, n, planted, data):
    rows = [[data.draw(_wide_entry) for _ in range(n)] for _ in range(m)]
    if planted:
        x = [data.draw(st.fractions(min_value=0, max_value=3, max_denominator=6))
             for _ in range(n)]
        rhs = [sum(c * v for c, v in zip(row, x)) for row in rows]
    else:
        rhs = [data.draw(_wide_entry) for _ in range(m)]
    _assert_matches_reference(rows, rhs)


def _measure(rng, n):
    weights = [rng.randint(1, 9) for _ in range(n)]
    return [F(w, sum(weights)) for w in weights]


def _dense_subset(rng, n):
    return frozenset(a for a in range(n) if rng.random() < 0.5) or frozenset({0})


def _wide_subset(rng, n, active):
    # A non-constant boolean function of two of the active coordinates,
    # so most atom columns of the book are duplicates.
    c1, c2 = rng.sample(active, 2)
    while True:
        table = [rng.random() < 0.5 for _ in range(4)]
        if any(table) and not all(table):
            break
    return frozenset(a for a in range(n)
                     if table[((a >> c1) & 1) << 1 | ((a >> c2) & 1)])


def _book_system(rng, atoms, prices, wide, coherent):
    """The feasibility system of a random book: total mass one, then one
    zero-rhs row per ticket.  A quarter of the tickets are called off.
    Prices come from a random measure, or are moved by 1/10 to 3/10."""
    measure = _measure(rng, atoms)
    active = rng.sample(range(atoms.bit_length() - 1), 5) if wide else None

    def subset():
        return (_wide_subset(rng, atoms, active) if wide
                else _dense_subset(rng, atoms))

    called_off = set(rng.sample(range(prices), prices // 4))
    rows, rhs = [[_ONE] * atoms], [_ONE]
    for k in range(prices):
        event = subset()
        cond = subset() if k in called_off else frozenset(range(atoms))
        mass = sum((measure[a] for a in cond), _ZERO)
        price = sum((measure[a] for a in event & cond), _ZERO) / mass
        if not coherent:
            shift = F(rng.choice((-1, 1)) * rng.randint(4, 12), 40)
            price = min(_ONE, max(_ZERO, price + shift))
        rows.append([(int(a in event) - price) if a in cond else _ZERO
                     for a in range(atoms)])
        rhs.append(_ZERO)
    return rows, rhs


@pytest.mark.parametrize("atoms, prices, wide", [
    (8, 6, False), (12, 10, False), (24, 12, False), (32, 16, False),
    (64, 6, True), (256, 8, True),
])
def test_book_systems_match_reference_pivot_for_pivot(atoms, prices, wide):
    rng = random.Random(f"{atoms}x{prices}")
    verdicts = set()
    for k in range(4):
        rows, rhs = _book_system(rng, atoms, prices, wide, coherent=k % 2 == 0)
        result = _assert_matches_reference(rows, rhs)
        verdicts.add(result.feasible)
        if k % 2 == 0:
            assert result.feasible
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", [7, 8])
def test_degenerate_books_need_few_pivots(seed, monkeypatch):
    # Every price row has rhs 0, so phase 1 is highly degenerate.  Bland's
    # rule took 233 and 352 pivots on these two coherent 64x32 books; the
    # lexicographic Dantzig rule takes 63 and 78.
    pivots = []

    def counting(*args):
        pivots.append(args)
        return _pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", counting)
    rows, rhs = _book_system(random.Random(seed), 64, 32, False, coherent=True)
    assert solve_equality_feasibility(rows, rhs).feasible
    assert 0 < len(pivots) <= 150


def test_verdicts_agree_with_highs():
    # An independent floating-point LP (scipy's HiGHS) on books whose
    # exact verdicts are not close calls: coherent books, and books with
    # every price moved by at least 1/10.
    rng = random.Random(1103)
    verdicts = []
    for k in range(60):
        atoms, prices = rng.randint(4, 16), rng.randint(2, 10)
        rows, rhs = _book_system(rng, atoms, prices, False, coherent=k % 3 == 0)
        exact = solve_equality_feasibility(rows, rhs).feasible
        lp = linprog(np.zeros(atoms), A_eq=np.array(rows, dtype=float),
                     b_eq=np.array(rhs, dtype=float), bounds=(0, None),
                     method="highs")
        assert lp.status in (0, 2)
        assert exact == (lp.status == 0)
        verdicts.append(exact)
    assert 10 <= sum(verdicts) <= 50
