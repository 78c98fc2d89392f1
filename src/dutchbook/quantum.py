"""Two-time quantum measurement scenario.

An agent assigns a density operator rho_0, plans a first measurement
described by an instrument {F_i}, and a second described by a POVM {E_j}.
Coherence across the two times forces the predictive probabilities
P_0(j) = sum_i tr[E_j F_i(rho_0)], which is tr[E_j rho'_0] for the
decohered state rho'_0 = sum_i F_i(rho_0).  When the POVM is
informationally complete, rho'_0 is the unique operator reproducing
those probabilities, and linear inversion recovers it.

Instruments are stored in Kraus form so complete positivity is structural
rather than numerically checked.  Tolerances: 1e-10 for structural
invariants (Hermiticity, trace, identity sums), 1e-12 for algebraic
identities at small dimension, eigenvalue floor -1e-10, 1e-12 for a zero
outcome probability, 1e-8 for the residual of a state reconstruction.  A
structural check whose value overflows to inf or NaN fails, silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "STRUCT_TOL",
    "ALG_TOL",
    "EIG_FLOOR",
    "ZERO_PROB_TOL",
    "RECONSTRUCT_TOL",
    "QuantumError",
    "DimensionMismatchError",
    "NotTracePreservingError",
    "ZeroProbabilityOutcomeError",
    "ProjectorFamilyError",
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
    "lueders_instrument",
    "lueders_decohere",
    "frame_matrix",
    "is_informationally_complete",
    "reconstruct_state",
    "tetrahedron_povm",
    "z_basis_projectors",
    "random_density",
    "random_instrument",
    "random_povm",
    "random_projector_family",
]

#: Structural invariants: Hermiticity, unit trace, resolutions of identity.
STRUCT_TOL = 1e-10
#: Algebraic identities on small dimensions.
ALG_TOL = 1e-12
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


class ProjectorFamilyError(QuantumError):
    """The supplied matrices are not an orthogonal projective decomposition."""


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

    @classmethod
    def from_ket(cls, ket) -> DensityOperator:
        v = np.asarray(ket, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()))


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
    """State assigned on learning outcome i: F_i(rho_0) / P_0(i)."""
    _require_same_dim(ins.dim, rho.dim)
    image = ins.apply(i, rho.matrix)
    p = float(image.trace().real)
    if p <= ZERO_PROB_TOL:
        raise ZeroProbabilityOutcomeError(
            f"outcome {i} has probability {p:.3g}; posterior state undefined")
    return DensityOperator(image / p)


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


@_quiet
def _validate_projectors(projectors) -> list[np.ndarray]:
    ps = [_as_square(p, f"projector {i}") for i, p in enumerate(projectors)]
    if not ps:
        raise ProjectorFamilyError("projector family is empty")
    dim = ps[0].shape[0]
    for i, p in enumerate(ps):
        if p.shape[0] != dim:
            raise ProjectorFamilyError("projectors mix dimensions")
        if _off(p - p.conj().T):
            raise ProjectorFamilyError(f"projector {i} is not Hermitian")
        if _off(p @ p - p):
            raise ProjectorFamilyError(f"projector {i} is not idempotent")
    for i in range(len(ps)):
        for j in range(i + 1, len(ps)):
            if _off(ps[i] @ ps[j]):
                raise ProjectorFamilyError(
                    f"projectors {i} and {j} are not orthogonal")
    if _off(sum(ps) - np.eye(dim)):
        raise ProjectorFamilyError("projectors do not sum to the identity")
    return ps


def lueders_instrument(projectors) -> Instrument:
    """The projective instrument rho -> Pi_i rho Pi_i, one Kraus per outcome."""
    ps = _validate_projectors(projectors)
    return Instrument(tuple((p,) for p in ps))


def lueders_decohere(projectors, rho0: DensityOperator) -> DensityOperator:
    """Projective special case: sum_i Pi_i rho_0 Pi_i.

    Zeroes the blocks of rho_0 off-diagonal with respect to the projector
    decomposition; applying it twice equals applying it once.
    """
    ps = _validate_projectors(projectors)
    if ps[0].shape[0] != rho0.dim:
        raise DimensionMismatchError(
            f"projectors act on dim {ps[0].shape[0]}, state on dim {rho0.dim}")
    return DensityOperator(sum(p @ rho0.matrix @ p for p in ps))


def frame_matrix(pov: Povm) -> np.ndarray:
    """Rows vec(E_j^T), so that frame @ vec(rho) = [tr(E_j rho)]_j."""
    return np.stack([e.T.reshape(-1) for e in pov.effects])


def is_informationally_complete(pov: Povm) -> bool:
    """Whether the effects span the full d^2-dimensional operator space."""
    d = pov.dim
    return int(np.linalg.matrix_rank(frame_matrix(pov))) == d * d


def reconstruct_state(pov: Povm, probs: Sequence[float]) -> DensityOperator:
    """The unique density operator with tr(E_j rho) = probs[j].

    Least-squares linear inversion on the effect frame.  Refuses non-IC
    POVMs (the operator would not be unique) and probability lists no
    state reproduces (residual above `RECONSTRUCT_TOL`).
    """
    if len(probs) != pov.n_outcomes:
        raise ValueError(
            f"expected {pov.n_outcomes} probabilities, got {len(probs)}")
    if not is_informationally_complete(pov):
        raise NotInformationallyCompleteError(
            "effects are rank-deficient; the state is not determined")
    d = pov.dim
    frame = frame_matrix(pov)
    target = np.asarray(probs, dtype=complex)
    vec, *_ = np.linalg.lstsq(frame, target, rcond=None)
    residual = float(np.abs(frame @ vec - target).max())
    if residual > RECONSTRUCT_TOL:
        raise InconsistentProbabilitiesError(
            f"no state matches the probabilities (residual {residual:.3g})")
    rho = vec.reshape(d, d)
    rho = (rho + rho.conj().T) / 2
    return DensityOperator(rho)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def tetrahedron_povm() -> Povm:
    """The qubit SIC POVM: four effects (I + v_j . sigma)/4 on tetrahedron axes."""
    s = 1 / np.sqrt(3.0)
    vectors = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    eye = np.eye(2, dtype=complex)
    return Povm(tuple(
        (eye + sum(c * p for c, p in zip(v, _PAULI))) / 4 for v in vectors
    ))


def z_basis_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 computational-basis projectors on a qubit."""
    return (np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex))


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Full-rank random state: normalized G G† with complex Gaussian G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityOperator(m / m.trace())


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity of QR so the distribution is Haar.
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_instrument(dim: int, n_outcomes: int, rng: np.random.Generator,
                      kraus_per_outcome: int = 1) -> Instrument:
    """Random trace-preserving instrument.

    A Haar-random unitary on dim*(total Kraus count) dimensions is cut
    into d-column blocks; stacking guarantees sum K†K = identity exactly
    up to rounding, and generic blocks give every outcome full support.
    """
    total = n_outcomes * kraus_per_outcome
    u = _haar_unitary(dim * total, rng)
    isometry = u[:, :dim]
    blocks = [isometry[b * dim:(b + 1) * dim, :] for b in range(total)]
    return Instrument(tuple(
        tuple(blocks[i * kraus_per_outcome + k] for k in range(kraus_per_outcome))
        for i in range(n_outcomes)
    ))


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Random POVM: PSD seeds A_j whitened by S^{-1/2} with S = sum A_j."""
    seeds = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        seeds.append(g @ g.conj().T)
    s = sum(seeds)
    vals, vecs = np.linalg.eigh(s)
    inv_sqrt = vecs @ np.diag(vals ** -0.5) @ vecs.conj().T
    return Povm(tuple(inv_sqrt @ a @ inv_sqrt for a in seeds))


def random_projector_family(dim: int, ranks: Sequence[int],
                            rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """Orthogonal projectors of the given ranks from a Haar-random basis."""
    if sum(ranks) != dim or any(r < 1 for r in ranks):
        raise ValueError(f"ranks {ranks} must be positive and sum to dim {dim}")
    u = _haar_unitary(dim, rng)
    out = []
    start = 0
    for r in ranks:
        cols = u[:, start:start + r]
        out.append(cols @ cols.conj().T)
        start += r
    return tuple(out)
