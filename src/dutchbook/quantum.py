"""Two-time quantum measurement scenario.

An agent assigns a density operator rho_0, plans a first measurement
described by an instrument {F_i}, and a second described by a POVM {E_j}.
Coherence across the two times forces the predictive probabilities
P_0(j) = sum_i tr[E_j F_i(rho_0)], which is tr[E_j rho'_0] for the
decohered state rho'_0 = sum_i F_i(rho_0).  When the POVM is
informationally complete, rho'_0 is the unique operator reproducing
those probabilities, and linear inversion recovers it.

Instruments are stored in Kraus form so complete positivity is structural
rather than numerically checked; a projective (Lueders) measurement is the
instrument with its projectors as the Kraus operators, one per outcome.

The operators are small (a few dimensions), so the arithmetic is plain
Python: each matrix is a tuple of row tuples of `complex`, and the
constructors accept any square nested sequence of numbers.
Tolerances: 1e-10 for structural invariants (Hermiticity, trace, identity
sums), eigenvalue floor -1e-10, 1e-12 for a zero outcome probability,
1e-10 relative for a pivot of a reconstruction's elimination (which
decides informational completeness), 1e-8 for its residual.  A
structural check whose value overflows to inf or NaN fails, silently.
"""

from __future__ import annotations

import cmath
from itertools import chain, repeat
from operator import mul, sub
from typing import Sequence

__all__ = [
    "STRUCT_TOL",
    "EIG_FLOOR",
    "ZERO_PROB_TOL",
    "IC_TOL",
    "RECONSTRUCT_TOL",
    "QuantumError",
    "DimensionMismatchError",
    "NotTracePreservingError",
    "ZeroProbabilityOutcomeError",
    "TinyProbabilityOutcomeError",
    "NotInformationallyCompleteError",
    "InconsistentProbabilitiesError",
    "DensityOperator",
    "Instrument",
    "Povm",
    "first_outcome_probs",
    "post_state",
    "outcome_probs",
    "reflection_prob",
    "decohered_state",
    "reconstruct_state",
]

#: Structural invariants: Hermiticity, unit trace, resolutions of identity.
STRUCT_TOL = 1e-10
#: Most negative eigenvalue tolerated in a positive-semidefinite check.
EIG_FLOOR = -1e-10
#: Outcome probability at or below which `post_state` refuses to normalize:
#: dividing by it would turn rounding noise into a state.
ZERO_PROB_TOL = 1e-12
#: Informational completeness: a pivot of the elimination on the effect
#: frame counts as zero when its magnitude is at most this times the
#: frame's largest entry.  Effects are known only to `STRUCT_TOL`, so a
#: direction they span at that relative level is not resolved.
IC_TOL = 1e-10
#: Largest residual |frame @ rho - probs| that `reconstruct_state` accepts
#: as a state reproducing the probabilities; above it, none does.
RECONSTRUCT_TOL = 1e-8

#: A d x d complex matrix, row by row.
Matrix = tuple[tuple[complex, ...], ...]


class QuantumError(Exception):
    """Base class for errors raised by this module."""


class DimensionMismatchError(QuantumError):
    """Operators in one computation act on different-dimensional spaces."""


class NotTracePreservingError(QuantumError):
    """The instrument's Kraus operators do not resolve the identity."""


class ZeroProbabilityOutcomeError(QuantumError):
    """Post-measurement state requested for an outcome of probability zero."""


class TinyProbabilityOutcomeError(ZeroProbabilityOutcomeError):
    """The outcome's probability is above zero but too small to normalize
    its image into a state in floating point."""


class NotInformationallyCompleteError(QuantumError):
    """The POVM's effects do not span the operator space."""


class InconsistentProbabilitiesError(QuantumError):
    """No density operator reproduces the supplied outcome probabilities."""


def _as_square(matrix, what: str) -> Matrix:
    try:
        m = tuple(tuple(map(complex, row)) for row in matrix)
    except TypeError:  # a scalar, or rows that are not sequences of numbers
        raise ValueError(f"{what} must be a square matrix of numbers") from None
    widths = {len(row) for row in m}
    if widths != {len(m)}:
        shape = (len(m), *widths) if len(widths) <= 1 else "ragged"
        raise ValueError(f"{what} must be a square matrix, got shape {shape}")
    if not all(map(cmath.isfinite, chain.from_iterable(m))):
        raise ValueError(f"{what} has a non-finite entry")
    return m


def _dagger(m: Matrix) -> Matrix:
    return tuple(tuple(z.conjugate() for z in col) for col in zip(*m))


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def _sum(matrices) -> Matrix:
    """The entrywise sum, each entry summed in order from 0."""
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*matrices))


def _trace(m: Matrix) -> complex:
    return sum(row[i] for i, row in enumerate(m))


def _trace_of_product(a: Matrix, b: Matrix) -> complex:
    """tr(a @ b) = sum_rc a[r][c] b[c][r], without forming the product."""
    return sum(map(mul, chain.from_iterable(a), chain.from_iterable(zip(*b))))


# Entries are finite, but sums and products of entries near the float
# maximum overflow to inf or NaN, and `abs` of a finite complex number can
# overflow the float range.  Each check compares with `<=` or `>=`, so such
# a value fails it: NaN compares false with everything.


def _off(residual) -> bool:
    """Whether a residual that should vanish has an entry beyond
    `STRUCT_TOL`, or one that is not a number."""
    try:
        return not all(map(STRUCT_TOL.__ge__,
                           map(abs, chain.from_iterable(residual))))
    except OverflowError:  # |z| is beyond the float range, its parts are not
        return True


def _non_hermitian(m: Matrix) -> bool:
    # m - m† is anti-Hermitian: its diagonal and upper triangle hold every
    # magnitude.
    return _off(map(sub, row[r:], map(complex.conjugate, col[r:]))
                for r, (row, col) in enumerate(zip(m, zip(*m))))


def _not_identity(m: Matrix) -> bool:
    return _off(row[:r] + (row[r] - 1,) + row[r + 1:] for r, row in enumerate(m))


def _is_psd(m: Matrix) -> bool:
    """Whether every eigenvalue of m's Hermitian part is at least
    `EIG_FLOOR`.

    That holds exactly when H - EIG_FLOOR*I is positive semidefinite, which
    is tested by its LDL* factorization: every pivot is non-negative, and
    a zero pivot has a zero column below it.  The factorization works on
    the lower triangle, taking Schur complements until none is left.
    """
    # Halving before adding keeps the Hermitian part finite.
    a = [[x / 2 + y.conjugate() / 2 for x, y in zip(row[:r + 1], col)]
         for r, (row, col) in enumerate(zip(m, zip(*m)))]
    for r, row in enumerate(a):
        row[r] -= EIG_FLOOR
    while a:
        pivot = a[0][0].real
        rest = a[1:]
        column = [row[0] for row in rest]
        if not pivot > 0:
            if pivot == 0 and not any(column):
                a = [row[1:] for row in rest]
                continue
            return False
        scaled = [z.conjugate() / pivot for z in column]
        a = [[x - f * y for x, y in zip(row[1:], scaled)]
             for f, row in zip(column, rest)]
    return True


class DensityOperator:
    """A quantum state: Hermitian, unit-trace, positive semidefinite."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: Matrix):
        m = _as_square(matrix, "density operator")
        if _non_hermitian(m):
            raise ValueError("density operator must be Hermitian")
        trace = _trace(m)
        if _off([[trace - 1.0]]):
            raise ValueError(f"density operator trace must be 1, got {trace:.12g}")
        if not _is_psd(m):
            raise ValueError("density operator must be positive semidefinite")
        self.matrix = m

    @property
    def dim(self) -> int:
        return len(self.matrix)


class Instrument:
    """A measurement with outcome-resolved state change, in Kraus form.

    `outcomes[i]` lists the Kraus operators of the map F_i; complete
    positivity is automatic.  The whole collection must be trace
    preserving: sum over every Kraus operator of K†K equals the identity.
    """

    __slots__ = ("_kraus",)

    def __init__(self, outcomes: Sequence[Sequence[Matrix]]):
        if not outcomes:
            raise ValueError("instrument needs at least one outcome")
        packed = []
        dim = None
        for i, kraus_list in enumerate(outcomes):
            kraus_list = tuple(kraus_list)
            if not kraus_list:
                raise ValueError(f"outcome {i} has no Kraus operators")
            ops = []
            for k in kraus_list:
                k = _as_square(k, "Kraus operator")
                if dim is None:
                    dim = len(k)
                elif len(k) != dim:
                    raise DimensionMismatchError(
                        f"Kraus operators mix dimensions {dim} and {len(k)}")
                ops.append(k)
            packed.append(tuple(ops))
        if _not_identity(_sum(_matmul(_dagger(k), k)
                              for k in chain.from_iterable(packed))):
            raise NotTracePreservingError(
                "Kraus operators must satisfy sum K†K = identity")
        self._kraus = tuple(packed)

    @property
    def dim(self) -> int:
        return len(self._kraus[0][0])

    @property
    def n_outcomes(self) -> int:
        return len(self._kraus)

    def apply(self, i: int, rho: Matrix) -> Matrix:
        """The (unnormalized) image F_i(rho)."""
        return _sum(_matmul(_matmul(k, rho), _dagger(k))
                    for k in self._kraus[i])


class Povm:
    """A positive operator valued measure: PSD effects resolving identity."""

    __slots__ = ("effects",)

    def __init__(self, effects: Sequence[Matrix]):
        if not effects:
            raise ValueError("POVM needs at least one effect")
        packed = []
        dim = None
        for j, e in enumerate(effects):
            e = _as_square(e, f"effect {j}")
            if dim is None:
                dim = len(e)
            elif len(e) != dim:
                raise DimensionMismatchError(
                    f"effects mix dimensions {dim} and {len(e)}")
            if _non_hermitian(e):
                raise ValueError(f"effect {j} must be Hermitian")
            if not _is_psd(e):
                raise ValueError(f"effect {j} must be positive semidefinite")
            packed.append(e)
        if _not_identity(_sum(packed)):
            raise ValueError("effects must sum to the identity")
        self.effects = tuple(packed)

    @property
    def dim(self) -> int:
        return len(self.effects[0])

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def _require_same_dim(*dims: int):
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def first_outcome_probs(ins: Instrument, rho: DensityOperator) -> list[float]:
    """P_0(i) = tr[F_i(rho_0)] for each outcome of the first measurement."""
    _require_same_dim(ins.dim, rho.dim)
    return [_trace(ins.apply(i, rho.matrix)).real
            for i in range(ins.n_outcomes)]


def _normalized(image: Matrix, p: float) -> DensityOperator:
    """The state of an unnormalized image of trace p: the Hermitian part of
    image / p.  The image is Hermitian, but dividing magnifies its rounding
    past `STRUCT_TOL`; the Hermitian part removes it.  A result that still
    fails a state check raises ValueError."""
    m = tuple(tuple(z / p for z in row) for row in image)
    return DensityOperator(tuple(
        tuple(x / 2 + y.conjugate() / 2 for x, y in zip(row, col))
        for row, col in zip(m, zip(*m))))


def post_state(ins: Instrument, i: int, rho: DensityOperator) -> DensityOperator:
    """State assigned on learning outcome i: F_i(rho_0) / P_0(i).

    The state is the Hermitian part of the quotient (`_normalized`), since
    dividing by a small P_0(i) magnifies the image's rounding past
    `STRUCT_TOL`.  Just above `ZERO_PROB_TOL` the magnified rounding can
    also push an eigenvalue below `EIG_FLOOR`; that outcome raises
    `TinyProbabilityOutcomeError`, since no state can be read off it in
    floating point.  Like a zero-probability outcome, it has no posterior,
    while every other quantity of the scenario stays well defined.
    """
    _require_same_dim(ins.dim, rho.dim)
    image = ins.apply(i, rho.matrix)
    p = _trace(image).real
    if p <= ZERO_PROB_TOL:
        raise ZeroProbabilityOutcomeError(
            f"outcome {i} has probability {p:.3g}; posterior state undefined")
    try:
        return _normalized(image, p)
    except ValueError:
        raise TinyProbabilityOutcomeError(
            f"outcome {i} has probability {p:.3g}, too small for a posterior "
            "state in floating point") from None


def outcome_probs(pov: Povm, rho: DensityOperator) -> list[float]:
    """Born probabilities tr(E_j rho) of a single POVM measurement."""
    _require_same_dim(pov.dim, rho.dim)
    return [_trace_of_product(e, rho.matrix).real for e in pov.effects]


def reflection_prob(ins: Instrument, pov: Povm,
                    rho0: DensityOperator) -> list[float]:
    """Time-zero probabilities for the later measurement's outcomes.

    Averaging the later assignments over the first outcome gives
    P_0(j) = sum_i tr[E_j F_i(rho_0)], computed here as the double sum
    without ever normalizing the intermediate states, so outcomes of
    probability zero contribute nothing instead of failing.
    """
    _require_same_dim(ins.dim, pov.dim, rho0.dim)
    images = [ins.apply(i, rho0.matrix) for i in range(ins.n_outcomes)]
    return [sum(_trace_of_product(e, im) for im in images).real
            for e in pov.effects]


def decohered_state(ins: Instrument, rho0: DensityOperator) -> DensityOperator:
    """The single state rho'_0 = sum_i F_i(rho_0) carrying all predictions.

    Reproduces reflection_prob for every POVM: tr(E_j rho'_0) = P_0(j),
    up to the instrument's trace defect.  That defect is within
    `STRUCT_TOL` per entry of sum K†K - I, but it can put the trace of the
    sum further off 1, so the sum is normalized like a posterior
    (`_normalized`).  A normalized sum that still fails a state check, an
    eigenvalue below `EIG_FLOOR` say, raises `QuantumError`.
    """
    _require_same_dim(ins.dim, rho0.dim)
    image = _sum(ins.apply(i, rho0.matrix) for i in range(ins.n_outcomes))
    try:
        return _normalized(image, _trace(image).real)
    except ValueError as exc:
        raise QuantumError(f"decohered state: {exc}") from None


def _frame_matrix(pov: Povm) -> list[list[float]]:
    """The real frame: row j holds E_j's coefficients on the d^2 real
    coordinates of a Hermitian rho (rho[a][a], then Re and Im of rho[a][b]
    for a < b), so that frame @ coords(rho) = [tr(E_j rho)]_j."""
    d = pov.dim
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    return [[e[a][a].real for a in range(d)]
            + list(chain.from_iterable(
                ((e[a][b] + e[b][a]).real, (e[a][b] - e[b][a]).imag)
                for a, b in pairs))
            for e in pov.effects]


def _eliminate(rows: list[list[float]], ncols: int, tol: float) -> int:
    """Gaussian elimination with partial pivoting, in place, over the first
    `ncols` columns of `rows` (later columns are carried along).  A pivot
    of magnitude at most `tol` counts as zero and its column is skipped.
    Returns the rank; rows[:rank] are then in row echelon form."""
    rank = 0
    for c in range(ncols):
        sizes = [abs(row[c]) for row in rows[rank:]]
        if not sizes or not max(sizes) > tol:
            continue
        best = rank + sizes.index(max(sizes))
        head = rows[best]
        rows[rank], rows[best] = head, rows[rank]
        tail = head[c + 1:]
        for row in rows[rank + 1:]:
            f = row[c] / head[c]
            if f:
                row[c + 1:] = map(sub, row[c + 1:], map(mul, repeat(f), tail))
        rank += 1
    return rank


def _worst(values) -> float:
    """The largest value, or NaN if any value is NaN."""
    values = list(values)
    return float("nan") if any(v != v for v in values) else max(values)


def reconstruct_state(pov: Povm, probs: Sequence[float]) -> DensityOperator:
    """The unique density operator with tr(E_j rho) = probs[j].

    One Gaussian elimination (`_eliminate`) of the real effect frame
    augmented by the probabilities.  Its pivots, taken from the frame's
    columns only and zero at or below `IC_TOL` times the frame's largest
    entry, give the POVM's rank whatever the probabilities: below d^2 the
    effects do not span the operator space and the state is not unique.
    Back-substitution on the d^2 pivot rows gives the coordinates.
    Refuses, in order: a list of the wrong length, a POVM that is not
    informationally complete, and probabilities no state reproduces: a
    non-finite one, a residual over all effects above `RECONSTRUCT_TOL`
    or overflowing to inf or NaN, and a unique solution that is not a
    state (its trace off 1, or an eigenvalue below `EIG_FLOOR`).  All but
    the POVM's refusal raise `InconsistentProbabilitiesError`.
    """
    if len(probs) != pov.n_outcomes:
        raise InconsistentProbabilitiesError(
            f"expected {pov.n_outcomes} probabilities, got {len(probs)}")
    d = pov.dim
    n = d * d
    frame = _frame_matrix(pov)
    target = [float(p) for p in probs]
    scale = max(map(abs, chain.from_iterable(frame)))
    system = [row + [p] for row, p in zip(frame, target)]
    if _eliminate(system, n, IC_TOL * scale) < n:
        raise NotInformationallyCompleteError(
            "effects are rank-deficient; the state is not determined")
    if not all(map(cmath.isfinite, target)):
        raise InconsistentProbabilitiesError(
            "no state matches probabilities that are not finite")
    coords = [0.0] * n
    for k in reversed(range(n)):
        row = system[k]
        coords[k] = (row[n] - sum(map(mul, row[k + 1:n], coords[k + 1:]))) / row[k]
    residual = _worst(abs(sum(map(mul, row, coords)) - p)
                      for row, p in zip(frame, target))
    if not residual <= RECONSTRUCT_TOL:
        raise InconsistentProbabilitiesError(
            f"no state matches the probabilities (residual {residual:.3g})")
    rho = [[0j] * d for _ in range(d)]
    upper = iter(coords[d:])
    for a in range(d):
        rho[a][a] = complex(coords[a])
        for b in range(a + 1, d):
            z = complex(next(upper), next(upper))
            rho[a][b], rho[b][a] = z, z.conjugate()
    try:
        return DensityOperator(rho)
    except ValueError as exc:
        raise InconsistentProbabilitiesError(
            f"no state matches the probabilities: {exc}") from None
