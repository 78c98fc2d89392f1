"""Random and fixed quantum inputs for the test suites.

Haar-random unitaries, states, instruments, POVMs, projector families and
whole scenarios; pure states, projective (Lueders) instruments, the qubit's
computational-basis projectors and its tetrahedron POVM; and the tolerance
the tests hold algebraic identities to.  The library never calls these;
the tests build their scenarios from them.
"""

from typing import Sequence

import numpy as np

from dutchbook.quantum import DensityOperator, Instrument, Povm

#: Algebraic identities on small dimensions.
ALG_TOL = 1e-12

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pure_state(ket) -> DensityOperator:
    """|v><v| for the normalized ket v."""
    v = np.asarray(ket, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityOperator(np.outer(v, v.conj()))


def lueders_instrument(projectors) -> Instrument:
    """The projective instrument rho -> P_i rho P_i, one Kraus operator per
    outcome."""
    return Instrument(tuple((p,) for p in projectors))


def z_basis_projectors() -> tuple[np.ndarray, np.ndarray]:
    """Rank-1 computational-basis projectors on a qubit."""
    return (np.diag([1.0, 0.0]).astype(complex),
            np.diag([0.0, 1.0]).astype(complex))


def tetrahedron_povm() -> Povm:
    """The qubit SIC POVM: four effects (I + v_j . sigma)/4 on tetrahedron axes."""
    s = 1 / np.sqrt(3.0)
    vectors = [(s, s, s), (s, -s, -s), (-s, s, -s), (-s, -s, s)]
    eye = np.eye(2, dtype=complex)
    return Povm(tuple(
        (eye + sum(c * p for c, p in zip(v, _PAULI))) / 4 for v in vectors
    ))


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


def random_triple(dim: int, rng: np.random.Generator
                  ) -> tuple[DensityOperator, Instrument, Povm]:
    """A random scenario shaped as the benchmark's: a full-rank state, an
    instrument of two or three outcomes with one or two Kraus operators
    each, and a whitened, informationally complete POVM of 2 dim^2
    effects."""
    rho = random_density(dim, rng)
    ins = random_instrument(dim, int(rng.integers(2, 4)), rng,
                            kraus_per_outcome=int(rng.integers(1, 3)))
    return rho, ins, random_povm(dim, 2 * dim * dim, rng)


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
