"""Exact rational feasibility solver for small dense equality systems.

Decides whether ``{x >= 0 : A x = b}`` is nonempty using a phase-1 simplex
over `fractions.Fraction` with Bland's anti-cycling rule.  On success it
returns a basic feasible point; on failure it returns a Farkas vector ``y``
with ``y . A_j <= 0`` for every column j and ``y . b > 0``, which is the raw
material for an explicit sure-loss portfolio.  Either result is checked
against the system before it is returned.

No tolerances anywhere: every comparison is an exact rational comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = ["Feasibility", "solve_equality_feasibility"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Feasibility:
    """Outcome of a feasibility solve: a point or a Farkas certificate."""

    feasible: bool
    solution: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None


def solve_equality_feasibility(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> Feasibility:
    """Decide feasibility of ``A x = b, x >= 0`` exactly.

    `rows` is the dense matrix A (m rows over n columns), `rhs` is b.
    Returns either a solution vector of length n or a Farkas certificate
    of length m (multipliers for the original, unflipped rows).
    """
    m = len(rows)
    if m == 0:
        raise ValueError("feasibility system needs at least one row")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged constraint matrix")
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")

    # Orient every row so its rhs is nonnegative; remember the flips so the
    # certificate can be mapped back to the caller's row order and signs.
    flip = [(-_ONE if b < 0 else _ONE) for b in rhs]
    tab = [[flip[i] * v for v in rows[i]] + [_ZERO] * m + [flip[i] * rhs[i]]
           for i in range(m)]
    for i in range(m):
        tab[i][n + i] = _ONE
    basis = list(range(n, n + m))

    # Reduced-cost row for minimizing the artificial sum (costs 0 on real
    # columns, 1 on artificials), with the basic artificials eliminated:
    # real column j gets -sum of its entries, artificial columns get 1-1=0.
    width = n + m
    cost = [_ZERO] * width
    for j in range(n):
        cost[j] = -sum((tab[i][j] for i in range(m)), _ZERO)
    obj = sum((tab[i][width] for i in range(m)), _ZERO)

    while True:
        # Artificials never re-enter; their reduced costs are still updated
        # so the dual can be read off their columns at the end.
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: among minimizing ratios, pivot on the smallest basic index.
        pivot_row = None
        best = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][width] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded; constraint setup is broken")
        _pivot(tab, cost, pivot_row, enter)
        basis[pivot_row] = enter
        obj = sum((tab[i][width] for i in range(m) if basis[i] >= n), _ZERO)

    if obj == 0:
        solution = [_ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = tab[i][width]
        _check_solution(rows, rhs, solution)
        return Feasibility(True, tuple(solution), None)

    # Infeasible: the phase-1 dual is read off the artificial columns.
    y = [flip[i] * (_ONE - cost[n + i]) for i in range(m)]
    _check_certificate(rows, rhs, y)
    return Feasibility(False, None, tuple(y))


def _pivot(tab, cost, row: int, col: int) -> None:
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


def _check_certificate(rows, rhs, y) -> None:
    # Farkas conditions are theorems of the arithmetic; failing them means
    # a bug in the tableau bookkeeping, so fail loudly.
    n = len(rows[0])
    for j in range(n):
        if sum(y[i] * rows[i][j] for i in range(len(rows))) > 0:
            raise RuntimeError("invalid Farkas certificate (column positivity)")
    if sum(y[i] * rhs[i] for i in range(len(rows))) <= 0:
        raise RuntimeError("invalid Farkas certificate (rhs sign)")


def _check_solution(rows, rhs, x) -> None:
    # Like the Farkas check: a point that misses A x = b, x >= 0 means a
    # tableau bug.  Only the support is summed, so wide books stay cheap.
    support = [(j, v) for j, v in enumerate(x) if v]
    if any(v < 0 for _, v in support):
        raise RuntimeError("invalid solution (negative entry)")
    for row, b in zip(rows, rhs):
        if sum((row[j] * v for j, v in support), _ZERO) != b:
            raise RuntimeError("invalid solution (row not met)")
