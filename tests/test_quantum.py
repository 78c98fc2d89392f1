"""Tests for the two-time quantum measurement scenario."""

import warnings

import numpy as np
import pytest

from dutchbook.quantum import (
    ALG_TOL,
    STRUCT_TOL,
    DensityOperator,
    DimensionMismatchError,
    InconsistentProbabilitiesError,
    Instrument,
    NotInformationallyCompleteError,
    NotTracePreservingError,
    Povm,
    ProjectorFamilyError,
    QuantumError,
    ZeroProbabilityOutcomeError,
    decohered_state,
    first_outcome_probs,
    frame_matrix,
    is_informationally_complete,
    lueders_decohere,
    lueders_instrument,
    outcome_probs,
    post_state,
    random_density,
    random_instrument,
    random_povm,
    random_projector_family,
    reconstruct_state,
    reflection_prob,
    tetrahedron_povm,
    z_basis_projectors,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
EYE2 = np.eye(2, dtype=complex)


def _z_instrument():
    return lueders_instrument(z_basis_projectors())


def _x_povm():
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    return Povm((np.outer(PLUS, PLUS.conj()), np.outer(minus, minus.conj())))


def _six_effect_povm():
    # Overdetermined frame: six effects spanning only a four-dimensional
    # operator space, so some probability lists match no state at all.
    tetra = tetrahedron_povm()
    z0, z1 = z_basis_projectors()
    return Povm(tuple(e / 2 for e in tetra.effects) + (z0 / 2, z1 / 2))


# ------------------------------------------------------------------ datatypes


def test_exceptions_share_a_base():
    for err in (DimensionMismatchError, NotTracePreservingError,
                ZeroProbabilityOutcomeError, ProjectorFamilyError,
                NotInformationallyCompleteError,
                InconsistentProbabilitiesError):
        assert issubclass(err, QuantumError)


def test_density_operator_validation():
    with pytest.raises(ValueError):
        DensityOperator(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityOperator(EYE2)  # trace 2
    with pytest.raises(ValueError):
        DensityOperator(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityOperator(np.ones((2, 3)))  # not square
    with pytest.raises(ValueError, match="non-finite"):
        DensityOperator(np.full((2, 2), np.nan))  # every NaN comparison is false


def test_density_operator_from_ket_normalizes():
    rho = DensityOperator.from_ket([2.0, 0.0])
    assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() <= ALG_TOL
    assert rho.dim == 2


def test_density_operator_matrix_is_read_only():
    rho = DensityOperator.from_ket(KET0)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.5


def test_instrument_validation():
    with pytest.raises(ValueError):
        Instrument(())
    with pytest.raises(ValueError):
        Instrument(((),))
    with pytest.raises(NotTracePreservingError):
        Instrument(((np.sqrt(0.5) * EYE2,),))
    with pytest.raises(DimensionMismatchError):
        Instrument(((EYE2,), (np.eye(3, dtype=complex),)))


def test_overflowing_checks_fail_without_warnings():
    # Finite entries whose sums or products overflow: each check value is
    # inf or NaN, which must fail the check, and numpy must stay silent.
    big = np.diag([1e308, 1e308]).astype(complex)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    cases = [
        (ValueError, "trace must be 1, got inf",
         lambda: DensityOperator(np.full((2, 2), 1e308, dtype=complex))),
        (ValueError, "trace must be 1, got nan",
         lambda: DensityOperator(np.diag([1e308, 1e308, -1e308, -1e308]))),
        # K†K has entries inf and NaN; a NaN residual used to pass.
        (NotTracePreservingError, "identity",
         lambda: Instrument(((np.diag([1e200 + 1e200j, 0.0]),),))),
        (ValueError, "sum to the identity", lambda: Povm((big, big))),
        (ProjectorFamilyError, "idempotent",
         lambda: lueders_instrument((1e308 * p0, EYE2 - p0))),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for error, message, build in cases:
            with pytest.raises(error, match=message):
                build()


def test_instrument_shape_properties():
    ins = _z_instrument()
    assert ins.dim == 2
    assert ins.n_outcomes == 2
    assert all(len(ops) == 1 for ops in ins.outcomes)


def test_povm_validation():
    with pytest.raises(ValueError):
        Povm(())
    with pytest.raises(ValueError):
        Povm((np.array([[0.5, 0.5], [-0.5, 0.5]]), EYE2 / 2))  # not Hermitian
    with pytest.raises(ValueError):
        Povm((np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])))  # negative effect
    with pytest.raises(ValueError):
        Povm((EYE2 / 2, EYE2 / 4))  # sums to 3I/4
    with pytest.raises(DimensionMismatchError):
        Povm((EYE2, np.zeros((3, 3))))


# -------------------------------------------------------- first measurement


def test_first_outcome_probs_on_plus_state():
    probs = first_outcome_probs(_z_instrument(), DensityOperator.from_ket(PLUS))
    assert np.abs(np.array(probs) - 0.5).max() <= ALG_TOL


def test_first_outcome_probs_on_basis_state():
    probs = first_outcome_probs(_z_instrument(), DensityOperator.from_ket(KET0))
    assert abs(probs[0] - 1.0) <= ALG_TOL
    assert abs(probs[1]) <= ALG_TOL


def test_first_outcome_probs_dimension_mismatch():
    qutrit = DensityOperator(np.eye(3) / 3)
    with pytest.raises(DimensionMismatchError):
        first_outcome_probs(_z_instrument(), qutrit)


def test_post_state_collapses_plus_to_basis():
    rho = DensityOperator.from_ket(PLUS)
    post = post_state(_z_instrument(), 0, rho)
    assert np.abs(post.matrix - np.diag([1.0, 0.0])).max() <= ALG_TOL


def test_post_state_zero_probability_outcome():
    rho = DensityOperator.from_ket(KET0)
    with pytest.raises(ZeroProbabilityOutcomeError):
        post_state(_z_instrument(), 1, rho)


def test_outcome_probs_born_rule():
    probs = outcome_probs(_x_povm(), DensityOperator.from_ket(PLUS))
    assert abs(probs[0] - 1.0) <= ALG_TOL
    assert abs(probs[1]) <= ALG_TOL
    flat = outcome_probs(tetrahedron_povm(), DensityOperator(EYE2 / 2))
    assert np.abs(np.array(flat) - 0.25).max() <= ALG_TOL


# ------------------------------------------------- reflection and decoherence


def test_trivial_instrument_changes_nothing():
    identity_ins = Instrument(((EYE2,),))
    rho = DensityOperator.from_ket(PLUS)
    reflected = reflection_prob(identity_ins, _x_povm(), rho)
    assert np.abs(np.array(reflected)
                  - np.array(outcome_probs(_x_povm(), rho))).max() <= ALG_TOL
    assert np.abs(decohered_state(identity_ins, rho).matrix
                  - rho.matrix).max() <= ALG_TOL


def test_headline_scenario_plus_state_z_then_x():
    # A sharp first measurement in a conjugate basis wipes out the
    # interference the direct assignment relies on.
    rho = DensityOperator.from_ket(PLUS)
    ins = _z_instrument()
    pov = _x_povm()
    reflected = reflection_prob(ins, pov, rho)
    direct = outcome_probs(pov, rho)
    assert np.abs(np.array(reflected) - 0.5).max() <= ALG_TOL
    assert np.abs(np.array(direct) - np.array([1.0, 0.0])).max() <= ALG_TOL
    rho_dec = decohered_state(ins, rho)
    assert np.abs(rho_dec.matrix - EYE2 / 2).max() <= ALG_TOL


def test_reflection_matches_posterior_average(rng):
    # P_0(j) = sum_i P_0(i) P_tau(j | i) whenever every branch has support.
    for dim in (2, 3, 4):
        rho = random_density(dim, rng)
        ins = random_instrument(dim, 3, rng, kraus_per_outcome=2)
        pov = random_povm(dim, 3, rng)
        first = first_outcome_probs(ins, rho)
        assert all(p > 1e-6 for p in first)
        averaged = np.zeros(pov.n_outcomes)
        for i, p in enumerate(first):
            averaged += p * np.array(outcome_probs(pov, post_state(ins, i, rho)))
        reflected = np.array(reflection_prob(ins, pov, rho))
        assert np.abs(reflected - averaged).max() <= ALG_TOL


def test_reflection_handles_zero_probability_branches():
    # The unnormalized double sum must not choke on an impossible outcome.
    rho = DensityOperator.from_ket(KET0)
    reflected = reflection_prob(_z_instrument(), _x_povm(), rho)
    assert np.abs(np.array(reflected) - 0.5).max() <= ALG_TOL


def test_decohered_state_carries_all_predictions(rng):
    for dim in (2, 3, 4):
        rho = random_density(dim, rng)
        ins = random_instrument(dim, 2, rng, kraus_per_outcome=2)
        rho_dec = decohered_state(ins, rho)
        for n_out in (2, dim * dim):
            pov = random_povm(dim, n_out, rng)
            reflected = np.array(reflection_prob(ins, pov, rho))
            direct = np.array(outcome_probs(pov, rho_dec))
            assert np.abs(reflected - direct).max() <= ALG_TOL


def test_unitary_instrument_decoheres_to_rotation():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    ins = Instrument(((hadamard,),))
    rho = DensityOperator.from_ket(KET0)
    rho_dec = decohered_state(ins, rho)
    expected = hadamard @ rho.matrix @ hadamard.conj().T
    assert np.abs(rho_dec.matrix - expected).max() <= ALG_TOL


# ----------------------------------------------------------- projective case


def test_lueders_zeroes_off_diagonal_terms(rng):
    rho = random_density(2, rng)
    result = lueders_decohere(z_basis_projectors(), rho)
    expected = np.diag(np.diag(rho.matrix))
    assert np.abs(result.matrix - expected).max() <= ALG_TOL


def test_lueders_with_identity_family_is_identity(rng):
    rho = random_density(3, rng)
    result = lueders_decohere((np.eye(3, dtype=complex),), rho)
    assert np.abs(result.matrix - rho.matrix).max() <= ALG_TOL


def test_lueders_zeroes_cross_blocks(rng):
    ps = random_projector_family(4, (2, 2), rng)
    rho = random_density(4, rng)
    result = lueders_decohere(ps, rho).matrix
    cross = ps[0] @ result @ ps[1]
    assert np.abs(cross).max() <= ALG_TOL
    # Diagonal blocks survive untouched.
    kept = ps[0] @ rho.matrix @ ps[0]
    assert np.abs(ps[0] @ result @ ps[0] - kept).max() <= ALG_TOL


def test_lueders_is_idempotent(rng):
    for dim, ranks in ((2, (1, 1)), (3, (1, 2)), (4, (2, 2))):
        ps = random_projector_family(dim, ranks, rng)
        rho = random_density(dim, rng)
        once = lueders_decohere(ps, rho)
        twice = lueders_decohere(ps, once)
        assert np.abs(twice.matrix - once.matrix).max() <= ALG_TOL


def test_lueders_matches_general_instrument(rng):
    ps = random_projector_family(3, (1, 2), rng)
    rho = random_density(3, rng)
    via_instrument = decohered_state(lueders_instrument(ps), rho)
    direct = lueders_decohere(ps, rho)
    assert np.abs(via_instrument.matrix - direct.matrix).max() <= ALG_TOL


def test_projector_family_rejections():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ProjectorFamilyError):
        lueders_instrument(())
    with pytest.raises(ProjectorFamilyError):
        lueders_instrument((np.array([[0.0, 1.0], [0.0, 0.0]]), p0))
    with pytest.raises(ProjectorFamilyError):
        lueders_instrument((EYE2 / 2, EYE2 / 2))  # not idempotent
    with pytest.raises(ProjectorFamilyError):
        lueders_instrument((p0, p0))  # not orthogonal
    with pytest.raises(ProjectorFamilyError):
        lueders_instrument((p0,))  # does not sum to identity
    with pytest.raises(ProjectorFamilyError):
        lueders_instrument((p0, np.eye(3, dtype=complex)))
    with pytest.raises(DimensionMismatchError):
        lueders_decohere(z_basis_projectors(), DensityOperator(np.eye(3) / 3))


# --------------------------------------------------- informational completeness


def test_frame_matrix_reproduces_born_rule(rng):
    pov = random_povm(3, 5, rng)
    rho = random_density(3, rng)
    frame = frame_matrix(pov)
    assert frame.shape == (5, 9)
    via_frame = frame @ rho.matrix.reshape(-1)
    assert np.abs(via_frame - np.array(outcome_probs(pov, rho))).max() <= ALG_TOL


def test_informational_completeness_verdicts():
    assert is_informationally_complete(tetrahedron_povm())
    z0, z1 = z_basis_projectors()
    assert not is_informationally_complete(Povm((z0, z1)))
    assert not is_informationally_complete(Povm((EYE2 / 2, EYE2 / 2)))
    assert is_informationally_complete(_six_effect_povm())


def test_reconstruct_round_trip(rng):
    pov = tetrahedron_povm()
    for _ in range(20):
        rho = random_density(2, rng)
        rebuilt = reconstruct_state(pov, outcome_probs(pov, rho))
        assert np.linalg.norm(rebuilt.matrix - rho.matrix) <= 1e-10


def test_reconstruct_round_trip_overdetermined(rng):
    pov = _six_effect_povm()
    rho = random_density(2, rng)
    rebuilt = reconstruct_state(pov, outcome_probs(pov, rho))
    assert np.linalg.norm(rebuilt.matrix - rho.matrix) <= 1e-10


def test_reconstruct_requires_completeness():
    z0, z1 = z_basis_projectors()
    with pytest.raises(NotInformationallyCompleteError):
        reconstruct_state(Povm((z0, z1)), [0.5, 0.5])


def test_reconstruct_rejects_wrong_length():
    with pytest.raises(ValueError):
        reconstruct_state(tetrahedron_povm(), [0.25, 0.25, 0.5])


def test_reconstruct_rejects_unmatchable_probabilities():
    # The tetrahedron block pins the state to I/2, whose z-block
    # probabilities are (1/4, 1/4); the skewed pair below matches nothing.
    probs = [1 / 8] * 4 + [1 / 4 + 0.01, 1 / 4 - 0.01]
    with pytest.raises(InconsistentProbabilitiesError):
        reconstruct_state(_six_effect_povm(), probs)


def test_reconstruct_rejects_negative_state():
    # Consistent as linear algebra, but the solution has eigenvalue -1.
    with pytest.raises(ValueError):
        reconstruct_state(tetrahedron_povm(), [1.0, 0.0, 0.0, 0.0])


# ------------------------------------------------------------ fixed ensembles


def test_tetrahedron_geometry():
    pov = tetrahedron_povm()
    assert pov.n_outcomes == 4
    for i, a in enumerate(pov.effects):
        assert abs(a.trace() - 0.5) <= ALG_TOL
        for j, b in enumerate(pov.effects):
            want = 0.25 if i == j else 1 / 12
            assert abs((a @ b).trace() - want) <= ALG_TOL


def test_z_basis_projectors_form_valid_family():
    z0, z1 = z_basis_projectors()
    assert np.abs(z0 - np.diag([1.0, 0.0])).max() == 0.0
    assert np.abs(z1 - np.diag([0.0, 1.0])).max() == 0.0
    lueders_instrument((z0, z1))  # validates the family


# ------------------------------------------------------------------ ensembles


def test_random_density_is_full_rank(rng):
    for dim in (2, 3, 4, 5):
        rho = random_density(dim, rng)
        assert rho.dim == dim
        assert np.linalg.eigvalsh(rho.matrix).min() > 0.0


def test_random_instrument_shapes(rng):
    ins = random_instrument(3, 4, rng, kraus_per_outcome=2)
    assert ins.dim == 3
    assert ins.n_outcomes == 4
    assert all(len(ops) == 2 for ops in ins.outcomes)


def test_random_povm_shapes_and_completeness(rng):
    pov = random_povm(2, 4, rng)
    assert pov.dim == 2
    assert pov.n_outcomes == 4
    # Four generic effects on a qubit span the operator space.
    assert is_informationally_complete(pov)


def test_random_projector_family_validates(rng):
    ps = random_projector_family(4, (1, 3), rng)
    lueders_instrument(ps)  # validates ranks, orthogonality, completeness
    assert [int(round(p.trace().real)) for p in ps] == [1, 3]
    with pytest.raises(ValueError):
        random_projector_family(4, (1, 2), rng)
    with pytest.raises(ValueError):
        random_projector_family(4, (0, 4), rng)
