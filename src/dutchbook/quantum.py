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
Tolerances: 1e-10 for structural invariants (Hermiticity, trace, identity
sums), eigenvalue floor -1e-10, 1e-12 for a zero outcome probability, 1e-8
for the residual of a state reconstruction.  A structural check whose
value overflows to inf or NaN fails, silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "STRUCT_TOL",
    "EIG_FLOOR",
    "ZERO_PROB_TOL",
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
    "is_informationally_complete",
    "reconstruct_state",
]

#: Structural invariants: Hermiticity, unit trace, resolutions of identity.
STRUCT_TOL = 1e-10
#: Most negative eigenvalue tolerated in a positive-semidefinite check.
EIG_FLOOR = -1e-10
#: Outcome probability at or below which `post_state` refuses to normalize:
#: dividing by it would turn rounding noise into a state.
ZERO_PROB_TOL = 1e-12
#: Largest residual |frame @ rho - probs| that `reconstruct_state` accepts
#: as a state reproducing the probabilities; above it, none does.
RECONSTRUCT_TOL = 1e-8


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


def _as_square(matrix, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} has a non-finite entry")
    return m


# Entries are finite, but sums and products of entries near the float
# maximum overflow to inf or NaN.  The structural checks run under this
# errstate, so numpy prints no warning, and compare with `<=` or `>=`, so
# such a value fails the check: NaN compares false with everything.
_quiet = np.errstate(over="ignore", invalid="ignore")


def _off(residual) -> bool:
    """Whether a residual that should vanish has an entry beyond
    `STRUCT_TOL`, or one that is not a number."""
    return not np.abs(residual).max() <= STRUCT_TOL


def _is_psd(m: np.ndarray) -> bool:
    # Halving before adding keeps the Hermitian part finite.
    return np.linalg.eigvalsh(m / 2 + m.conj().T / 2).min() >= EIG_FLOOR


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A quantum state: Hermitian, unit-trace, positive semidefinite."""

    matrix: np.ndarray

    @_quiet
    def __post_init__(self):
        m = _as_square(self.matrix, "density operator")
        if _off(m - m.conj().T):
            raise ValueError("density operator must be Hermitian")
        trace = m.trace()
        if _off(trace - 1.0):
            raise ValueError(f"density operator trace must be 1, got {trace:.12g}")
        if not _is_psd(m):
            raise ValueError("density operator must be positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Instrument:
    """A measurement with outcome-resolved state change, in Kraus form.

    outcomes[i] is the tuple of Kraus operators of the map F_i; complete
    positivity is automatic.  The whole collection must be trace
    preserving: sum over every Kraus operator of K†K equals the identity.
    """

    outcomes: tuple[tuple[np.ndarray, ...], ...]

    @_quiet
    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("instrument needs at least one outcome")
        packed = []
        dim = None
        for i, kraus_list in enumerate(self.outcomes):
            kraus_list = tuple(kraus_list)
            if not kraus_list:
                raise ValueError(f"outcome {i} has no Kraus operators")
            ops = []
            for k in kraus_list:
                k = _as_square(k, "Kraus operator")
                if dim is None:
                    dim = k.shape[0]
                elif k.shape[0] != dim:
                    raise DimensionMismatchError(
                        f"Kraus operators mix dimensions {dim} and {k.shape[0]}")
                k.setflags(write=False)
                ops.append(k)
            packed.append(tuple(ops))
        total = sum(k.conj().T @ k for ops in packed for k in ops)
        if _off(total - np.eye(dim)):
            raise NotTracePreservingError(
                "Kraus operators must satisfy sum K†K = identity")
        object.__setattr__(self, "outcomes", tuple(packed))

    @property
    def dim(self) -> int:
        return self.outcomes[0][0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def apply(self, i: int, rho: np.ndarray) -> np.ndarray:
        """The (unnormalized) image F_i(rho)."""
        return sum(k @ rho @ k.conj().T for k in self.outcomes[i])


@dataclass(frozen=True, eq=False)
class Povm:
    """A positive operator valued measure: PSD effects resolving identity."""

    effects: tuple[np.ndarray, ...]

    @_quiet
    def __post_init__(self):
        if not self.effects:
            raise ValueError("POVM needs at least one effect")
        packed = []
        dim = None
        for j, e in enumerate(self.effects):
            e = _as_square(e, f"effect {j}")
            if dim is None:
                dim = e.shape[0]
            elif e.shape[0] != dim:
                raise DimensionMismatchError(
                    f"effects mix dimensions {dim} and {e.shape[0]}")
            if _off(e - e.conj().T):
                raise ValueError(f"effect {j} must be Hermitian")
            if not _is_psd(e):
                raise ValueError(f"effect {j} must be positive semidefinite")
            e.setflags(write=False)
            packed.append(e)
        total = sum(packed)
        if _off(total - np.eye(dim)):
            raise ValueError("effects must sum to the identity")
        object.__setattr__(self, "effects", tuple(packed))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


def _require_same_dim(*dims: int):
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"dimension mismatch: {dims}")


def first_outcome_probs(ins: Instrument, rho: DensityOperator) -> list[float]:
    """P_0(i) = tr[F_i(rho_0)] for each outcome of the first measurement."""
    _require_same_dim(ins.dim, rho.dim)
    return [float(ins.apply(i, rho.matrix).trace().real)
            for i in range(ins.n_outcomes)]


def post_state(ins: Instrument, i: int, rho: DensityOperator) -> DensityOperator:
    """State assigned on learning outcome i: F_i(rho_0) / P_0(i).

    F_i(rho_0) is Hermitian, but dividing by a small P_0(i) magnifies its
    rounding past `STRUCT_TOL`, so the state is the Hermitian part of the
    quotient.  Just above `ZERO_PROB_TOL` the magnified rounding can also
    push an eigenvalue below `EIG_FLOOR`; that outcome raises
    `TinyProbabilityOutcomeError`, since no state can be read off it in
    floating point.  Like a zero-probability outcome, it has no posterior,
    while every other quantity of the scenario stays well defined.
    """
    _require_same_dim(ins.dim, rho.dim)
    image = ins.apply(i, rho.matrix)
    p = float(image.trace().real)
    if p <= ZERO_PROB_TOL:
        raise ZeroProbabilityOutcomeError(
            f"outcome {i} has probability {p:.3g}; posterior state undefined")
    m = image / p
    try:
        return DensityOperator(m / 2 + m.conj().T / 2)
    except ValueError:
        raise TinyProbabilityOutcomeError(
            f"outcome {i} has probability {p:.3g}, too small for a posterior "
            "state in floating point") from None


def outcome_probs(pov: Povm, rho: DensityOperator) -> list[float]:
    """Born probabilities tr(E_j rho) of a single POVM measurement."""
    _require_same_dim(pov.dim, rho.dim)
    return [float((e @ rho.matrix).trace().real) for e in pov.effects]


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
    return [float(sum((e @ im).trace().real for im in images))
            for e in pov.effects]


def decohered_state(ins: Instrument, rho0: DensityOperator) -> DensityOperator:
    """The single state rho'_0 = sum_i F_i(rho_0) carrying all predictions.

    Reproduces reflection_prob for every POVM: tr(E_j rho'_0) = P_0(j).
    """
    _require_same_dim(ins.dim, rho0.dim)
    total = sum(ins.apply(i, rho0.matrix) for i in range(ins.n_outcomes))
    return DensityOperator(total)


def _frame_matrix(pov: Povm) -> np.ndarray:
    """Rows vec(E_j^T), so that frame @ vec(rho) = [tr(E_j rho)]_j."""
    return np.stack([e.T.reshape(-1) for e in pov.effects])


def is_informationally_complete(pov: Povm) -> bool:
    """Whether the effects span the full d^2-dimensional operator space."""
    d = pov.dim
    return int(np.linalg.matrix_rank(_frame_matrix(pov))) == d * d


@_quiet
def reconstruct_state(pov: Povm, probs: Sequence[float]) -> DensityOperator:
    """The unique density operator with tr(E_j rho) = probs[j].

    Least-squares linear inversion on the effect frame.  Refuses non-IC
    POVMs (the operator would not be unique) and probability lists no
    state reproduces: a non-finite probability, or a residual above
    `RECONSTRUCT_TOL` or overflowing to inf or NaN.
    """
    if len(probs) != pov.n_outcomes:
        raise ValueError(
            f"expected {pov.n_outcomes} probabilities, got {len(probs)}")
    if not is_informationally_complete(pov):
        raise NotInformationallyCompleteError(
            "effects are rank-deficient; the state is not determined")
    target = np.asarray(probs, dtype=complex)
    if not np.isfinite(target).all():
        raise InconsistentProbabilitiesError(
            "no state matches probabilities that are not finite")
    d = pov.dim
    frame = _frame_matrix(pov)
    vec, *_ = np.linalg.lstsq(frame, target, rcond=None)
    residual = float(np.abs(frame @ vec - target).max())
    if not residual <= RECONSTRUCT_TOL:
        raise InconsistentProbabilitiesError(
            f"no state matches the probabilities (residual {residual:.3g})")
    rho = vec.reshape(d, d)
    rho = rho / 2 + rho.conj().T / 2
    return DensityOperator(rho)
