"""Exact rational feasibility solver for small dense equality systems.

Decides whether ``{x >= 0 : A x = b}`` is nonempty using a phase-1 simplex
with lexicographic Dantzig pivots.  On success it returns a basic feasible
point; on failure it returns a Farkas vector ``y`` with ``y . A_j <= 0``
for every column j and ``y . b > 0``, which is the raw material for an
explicit sure-loss portfolio.  Either result is checked against the system
before it is returned.

The pivot rule is the cycle-free one of Dantzig, Orden and Wolfe (1955).
The entering column has the most negative reduced cost, the lowest index
on a tie.  The leaving row minimizes (rhs, artificial block) / pivot
coefficient lexicographically; the artificial block is B^-1, so no two
rows tie and the rows stay lexicographically positive.  Every price row of
a book has rhs 0, so phase 1 is highly degenerate, and this rule needs
several times fewer pivots there than Bland's.

The tableau holds Python ints, not fractions.  Each row is scaled by the
lcm of its denominators, and the whole tableau shares one positive
denominator ``d``, the previous pivot.  A pivot on ``p = T[r][c]`` updates
every other row as ``(T[i][j]*p - T[i][c]*T[r][j]) // d``: the integer
(Bareiss / Edmonds) form of Gauss-Jordan elimination, whose entries are
minors of the scaled input, so the division is always exact.  The scaling
changes no pivot choice.  The phase-1 cost row weights each scaled
artificial so that its reduced costs are a positive multiple of the
unscaled ones.  Scaling row k by ``s_k > 0`` leaves the rhs column as it
is, multiplies whole tableau rows by positive factors, and scales
artificial column k by ``1/s_k`` in every row alike; none of these moves a
ratio comparison.  The integer tableau therefore makes exactly the choices
the same rule makes on the rational tableau, and the point and the
certificate are the same.

No tolerances anywhere: every comparison is an exact integer comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .beliefs import _scaled

__all__ = ["Feasibility", "solve_equality_feasibility"]

_ZERO = Fraction(0)


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

    # Orient every row so its rhs is nonnegative (remembering the flips for
    # the certificate), then clear its denominators: row i becomes
    # scale[i] * flip[i] * (A_i | b_i) in ints.  Its artificial column stays
    # the unit vector, which makes the artificial variable scale[i] times
    # the unscaled one.
    flip = [-1 if b < 0 else 1 for b in rhs]
    scale = []
    tab = []
    for i in range(m):
        s, row = _scaled([*rows[i], rhs[i]])
        if flip[i] < 0:
            row = [-v for v in row]
        row[n:n] = [0] * m
        row[n + i] = 1
        scale.append(s)
        tab.append(row)
    width = n + m
    basis = list(range(n, width))

    # Phase-1 cost row with the basic artificials eliminated.  Artificial i
    # costs top // scale[i], so the objective is top times the unscaled sum
    # of artificials and every reduced cost is top times the unscaled one:
    # the order of the reduced costs, which picks the entering column, is
    # unchanged.
    top = lcm(*scale)
    weight = [top // s for s in scale]
    # The slot under the rhs column is carried through the pivots unread.
    cost = [-sum(w * row[j] for w, row in zip(weight, tab)) for j in range(n)]
    cost += [0] * (m + 1)
    denom = 1
    # The lexicographic key of a row: its rhs, then its artificial block.
    keys = (width, *range(n, width))

    while True:
        # Artificials never re-enter; their reduced costs are still updated
        # so the dual can be read off their columns at the end.
        enter = min(range(n), key=cost.__getitem__, default=None)
        if enter is None or cost[enter] >= 0:
            break
        # Lexicographic ratio test: the row whose key divided by its
        # coefficient is smallest.  Keys compare by cross-multiplication,
        # with both coefficients > 0; B^-1 is nonsingular, so no two tie.
        pivot_row = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff <= 0:
                continue
            if pivot_row is not None:
                best, best_coeff = tab[pivot_row], tab[pivot_row][enter]
                row = tab[i]
                diff = next(d for k in keys
                            if (d := row[k] * best_coeff - best[k] * coeff))
                if diff > 0:
                    continue
            pivot_row = i
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded; constraint setup is broken")
        denom = _pivot(tab, cost, pivot_row, enter, denom)
        basis[pivot_row] = enter

    if all(tab[i][width] == 0 for i in range(m) if basis[i] >= n):
        solution = [_ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = Fraction(tab[i][width], denom)
        _check_solution(rows, rhs, solution)
        return Feasibility(True, tuple(solution), None)

    # Infeasible: the phase-1 dual is read off the artificial columns.  The
    # unscaled reduced cost of artificial i is scale[i] * cost / (top * d).
    y = [flip[i] * (1 - Fraction(scale[i] * cost[n + i], top * denom))
         for i in range(m)]
    _check_certificate(rows, rhs, y)
    return Feasibility(False, None, tuple(y))


def _pivot(tab, cost, row: int, col: int, denom: int) -> int:
    """Pivot on ``tab[row][col]`` in place; return the new denominator."""
    pivot_vals = tab[row]
    p = pivot_vals[col]
    for target in (*tab, cost):
        if target is pivot_vals:
            continue
        factor = target[col]
        if factor:
            target[:] = [(v * p - factor * q) // denom
                         for v, q in zip(target, pivot_vals)]
        elif p != denom:
            target[:] = [v * p // denom for v in target]
    return p


def _check_certificate(rows, rhs, y) -> None:
    # Farkas conditions are theorems of the arithmetic; failing them means
    # a bug in the tableau bookkeeping, so fail loudly.  The sums run in
    # ints: row i is s_i times the caller's row, and k_i = K * y_i / s_i
    # for one positive K, so each sum is K times the rational one.
    scaled = [_scaled([*row, b]) for row, b in zip(rows, rhs)]
    _, k = _scaled([Fraction(yi, s) for yi, (s, _) in zip(y, scaled)])
    *columns, rhs_column = zip(*(ints for _, ints in scaled))
    if any(sum(map(mul, k, column)) > 0 for column in columns):
        raise RuntimeError("invalid Farkas certificate (column positivity)")
    if sum(map(mul, k, rhs_column)) <= 0:
        raise RuntimeError("invalid Farkas certificate (rhs sign)")


def _check_solution(rows, rhs, x) -> None:
    # Like the Farkas check: a point that misses A x = b, x >= 0 means a
    # tableau bug.  Only the support is summed, so wide books stay cheap.
    # The sums run in ints: the support is scaled by its common
    # denominator D and each row by the lcm s_i of its denominators on the
    # support and in b_i, so row i holds iff s_i times it holds times D.
    support = [j for j, v in enumerate(x) if v]
    if any(x[j] < 0 for j in support):
        raise RuntimeError("invalid solution (negative entry)")
    common, xs = _scaled([x[j] for j in support])
    for row, b in zip(rows, rhs):
        _, (*coeffs, scaled_b) = _scaled([*(row[j] for j in support), b])
        if sum(map(mul, coeffs, xs)) != scaled_b * common:
            raise RuntimeError("invalid solution (row not met)")
