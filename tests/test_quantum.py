"""Tests for the two-time quantum measurement scenario."""

import warnings

import numpy as np
import pytest

from dutchbook.quantum import (
    STRUCT_TOL,
    ZERO_PROB_TOL,
    DensityOperator,
    DimensionMismatchError,
    InconsistentProbabilitiesError,
    Instrument,
    NotInformationallyCompleteError,
    NotTracePreservingError,
    Povm,
    QuantumError,
    TinyProbabilityOutcomeError,
    ZeroProbabilityOutcomeError,
    decohered_state,
    first_outcome_probs,
    outcome_probs,
    post_state,
    reconstruct_state,
    reflection_prob,
)
from dutchbook.quantum import _frame_matrix, _trace
from quantum_fixtures import (
    _PAULI,
    ALG_TOL,
    lueders_instrument,
    pure_state,
    random_density,
    random_instrument,
    random_povm,
    random_projector_family,
    random_triple,
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
    return Povm(tuple(np.array(e) / 2 for e in tetra.effects)
                + (z0 / 2, z1 / 2))


# ------------------------------------------------------------------ datatypes


def test_exceptions_share_a_base():
    for err in (DimensionMismatchError, NotTracePreservingError,
                ZeroProbabilityOutcomeError, NotInformationallyCompleteError,
                InconsistentProbabilitiesError):
        assert issubclass(err, QuantumError)
    assert issubclass(TinyProbabilityOutcomeError, ZeroProbabilityOutcomeError)


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
    rho = pure_state([2.0, 0.0])
    assert np.abs(np.array(rho.matrix) - np.diag([1.0, 0.0])).max() <= ALG_TOL
    assert rho.dim == 2


def test_density_operator_matrix_is_read_only():
    rho = pure_state(KET0)
    with pytest.raises(TypeError):
        rho.matrix[0][0] = 0.5


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
    # inf or NaN, which must fail the check, and no warning appears.
    big = np.diag([1e308, 1e308]).astype(complex)
    huge = 1.7e308 + 1.7e308j  # finite, but |huge| overflows a float
    cases = [
        (ValueError, "trace must be 1, got inf",
         lambda: DensityOperator(np.full((2, 2), 1e308, dtype=complex))),
        # The trace sums in order, so it overflows to inf, never to NaN.
        (ValueError, "trace must be 1, got inf",
         lambda: DensityOperator(np.diag([1e308, 1e308, -1e308, -1e308]))),
        (ValueError, "trace must be 1, got -inf",
         lambda: DensityOperator(np.diag([-1e308, -1e308, 1e308, 1e308]))),
        # K†K has entries inf and NaN; a NaN residual used to pass.
        (NotTracePreservingError, "identity",
         lambda: Instrument(((np.diag([1e200 + 1e200j, 0.0]),),))),
        (ValueError, "sum to the identity", lambda: Povm((big, big))),
        # A residual entry whose absolute value overflows fails its check.
        (ValueError, "must be Hermitian",
         lambda: DensityOperator([[0.5, huge], [0, 0.5]])),
        (NotTracePreservingError, "identity",
         lambda: Instrument((([[1, huge], [0, 0]],),))),
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
    assert all(len(ops) == 1 for ops in ins._kraus)


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
    probs = first_outcome_probs(_z_instrument(), pure_state(PLUS))
    assert np.abs(np.array(probs) - 0.5).max() <= ALG_TOL


def test_first_outcome_probs_on_basis_state():
    probs = first_outcome_probs(_z_instrument(), pure_state(KET0))
    assert abs(probs[0] - 1.0) <= ALG_TOL
    assert abs(probs[1]) <= ALG_TOL


def test_first_outcome_probs_dimension_mismatch():
    qutrit = DensityOperator(np.eye(3) / 3)
    with pytest.raises(DimensionMismatchError):
        first_outcome_probs(_z_instrument(), qutrit)


def test_post_state_collapses_plus_to_basis():
    rho = pure_state(PLUS)
    post = post_state(_z_instrument(), 0, rho)
    assert np.abs(np.array(post.matrix) - np.diag([1.0, 0.0])).max() <= ALG_TOL


def test_post_state_zero_probability_outcome():
    rho = pure_state(KET0)
    with pytest.raises(ZeroProbabilityOutcomeError):
        post_state(_z_instrument(), 1, rho)


def _rotated_scenario(theta, eps, phase):
    """|v><v| with v = u0 + eps*phase*u1 for the basis u rotated by theta,
    and the Lueders instrument on u0, u1: outcome 1 has probability eps^2."""
    c, s = np.cos(theta), np.sin(theta)
    u0 = np.array([c, s], dtype=complex)
    u1 = np.array([-s, c], dtype=complex)
    rho = pure_state(u0 + eps * phase * u1)
    ins = lueders_instrument((np.outer(u0, u0.conj()), np.outer(u1, u1.conj())))
    return rho, ins, u1


def test_post_state_of_a_tiny_outcome_is_a_state():
    # Dividing by P0(1) ~ 1e-10 magnifies the image's rounding to ~1e-8,
    # past the Hermiticity tolerance; the posterior is still |u1><u1|.
    rho, ins, u1 = _rotated_scenario(0.3, 1e-5, 1j)
    assert abs(first_outcome_probs(ins, rho)[1] - 1e-10) <= 1e-15
    post = post_state(ins, 1, rho)
    m = np.array(post.matrix)
    assert np.array_equal(m, m.conj().T)
    assert np.abs(m - np.outer(u1, u1.conj())).max() <= 1e-6


def test_post_state_never_fails_untyped_near_the_zero_floor():
    # At P0(1) ~ 1e-12 the magnified rounding can also cost positivity:
    # each outcome is a valid state or has no posterior, never a bare
    # ValueError.
    for theta in np.linspace(0.01, 1.5, 150):
        for phase in (1, 1j):
            rho, ins, _ = _rotated_scenario(theta, 1e-6, phase)
            try:
                post = post_state(ins, 1, rho)
            except ZeroProbabilityOutcomeError:
                continue
            assert isinstance(post, DensityOperator)


def test_post_state_of_a_too_small_outcome_has_no_posterior():
    # P0(1) ~ 1e-12, just above ZERO_PROB_TOL: the normalized image has an
    # eigenvalue of about -1e-10.  That outcome has no posterior, as a zero
    # outcome has none; the other outcome and the scenario's time-zero
    # quantities stay defined.
    rho, ins, _ = _rotated_scenario(0.66, 1e-6, 1)
    p0 = first_outcome_probs(ins, rho)
    assert ZERO_PROB_TOL < p0[1] <= 2e-12
    with pytest.raises(ZeroProbabilityOutcomeError,
                       match="too small for a posterior") as exc:
        post_state(ins, 1, rho)
    assert isinstance(exc.value, TinyProbabilityOutcomeError)
    assert abs(outcome_probs(_x_povm(), post_state(ins, 0, rho))[0]
               - outcome_probs(_x_povm(), rho)[0]) <= 1e-5
    assert abs(sum(reflection_prob(ins, _x_povm(), rho)) - 1) <= ALG_TOL
    assert isinstance(decohered_state(ins, rho), DensityOperator)


def test_outcome_probs_born_rule():
    probs = outcome_probs(_x_povm(), pure_state(PLUS))
    assert abs(probs[0] - 1.0) <= ALG_TOL
    assert abs(probs[1]) <= ALG_TOL
    flat = outcome_probs(tetrahedron_povm(), DensityOperator(EYE2 / 2))
    assert np.abs(np.array(flat) - 0.25).max() <= ALG_TOL


# ------------------------------------------------- reflection and decoherence


def test_trivial_instrument_changes_nothing():
    identity_ins = Instrument(((EYE2,),))
    rho = pure_state(PLUS)
    reflected = reflection_prob(identity_ins, _x_povm(), rho)
    assert np.abs(np.array(reflected)
                  - np.array(outcome_probs(_x_povm(), rho))).max() <= ALG_TOL
    assert np.abs(np.array(decohered_state(identity_ins, rho).matrix)
                  - np.array(rho.matrix)).max() <= ALG_TOL


def test_headline_scenario_plus_state_z_then_x():
    # A sharp first measurement in a conjugate basis wipes out the
    # interference the direct assignment relies on.
    rho = pure_state(PLUS)
    ins = _z_instrument()
    pov = _x_povm()
    reflected = reflection_prob(ins, pov, rho)
    direct = outcome_probs(pov, rho)
    assert np.abs(np.array(reflected) - 0.5).max() <= ALG_TOL
    assert np.abs(np.array(direct) - np.array([1.0, 0.0])).max() <= ALG_TOL
    rho_dec = decohered_state(ins, rho)
    assert np.abs(np.array(rho_dec.matrix) - EYE2 / 2).max() <= ALG_TOL


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
    rho = pure_state(KET0)
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


def test_decohered_state_is_normalized_like_a_posterior():
    # K = [[a, b], [b, a]], a = (s+1)/2, b = (s-1)/2, s = sqrt(1 + 1.9e-10):
    # each entry of K†K - I is within STRUCT_TOL, but K scales |+> by s, so
    # its image has trace 1 + 1.9e-10.  The decohered state is that image
    # over its trace, as a posterior is.
    s = np.sqrt(1 + 1.9e-10)
    ins = Instrument(((np.array([[s + 1, s - 1], [s - 1, s + 1]]) / 2,),))
    rho = pure_state(PLUS)
    assert _trace(ins.apply(0, rho.matrix)).real - 1 > STRUCT_TOL
    rho_dec = decohered_state(ins, rho)
    assert rho_dec.matrix == post_state(ins, 0, rho).matrix
    assert np.abs(np.array(rho_dec.matrix) - np.array(rho.matrix)).max() <= 1e-15


def test_unitary_instrument_decoheres_to_rotation():
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    ins = Instrument(((hadamard,),))
    rho = pure_state(KET0)
    rho_dec = decohered_state(ins, rho)
    expected = hadamard @ np.array(rho.matrix) @ hadamard.conj().T
    assert np.abs(np.array(rho_dec.matrix) - expected).max() <= ALG_TOL


# ----------------------------------------------------------- projective case


def test_lueders_zeroes_off_diagonal_terms(rng):
    rho = random_density(2, rng)
    result = decohered_state(lueders_instrument(z_basis_projectors()), rho)
    expected = np.diag(np.diag(np.array(rho.matrix)))
    assert np.abs(np.array(result.matrix) - expected).max() <= ALG_TOL


def test_lueders_with_identity_family_is_identity(rng):
    rho = random_density(3, rng)
    result = decohered_state(lueders_instrument((np.eye(3, dtype=complex),)), rho)
    assert np.abs(np.array(result.matrix) - np.array(rho.matrix)).max() <= ALG_TOL


def test_lueders_zeroes_cross_blocks(rng):
    ps = random_projector_family(4, (2, 2), rng)
    rho = random_density(4, rng)
    result = np.array(decohered_state(lueders_instrument(ps), rho).matrix)
    cross = ps[0] @ result @ ps[1]
    assert np.abs(cross).max() <= ALG_TOL
    # Diagonal blocks survive untouched.
    kept = ps[0] @ np.array(rho.matrix) @ ps[0]
    assert np.abs(ps[0] @ result @ ps[0] - kept).max() <= ALG_TOL


def test_lueders_is_idempotent(rng):
    for dim, ranks in ((2, (1, 1)), (3, (1, 2)), (4, (2, 2))):
        ps = random_projector_family(dim, ranks, rng)
        rho = random_density(dim, rng)
        ins = lueders_instrument(ps)
        once = decohered_state(ins, rho)
        twice = decohered_state(ins, once)
        assert np.abs(np.array(twice.matrix)
                      - np.array(once.matrix)).max() <= ALG_TOL


def test_lueders_matches_general_instrument(rng):
    ps = random_projector_family(3, (1, 2), rng)
    rho = random_density(3, rng)
    via_instrument = decohered_state(lueders_instrument(ps), rho)
    direct = sum(p @ np.array(rho.matrix) @ p for p in ps)
    assert np.abs(np.array(via_instrument.matrix) - direct).max() <= ALG_TOL


# --------------------------------------------------- informational completeness


def test_frame_matrix_reproduces_born_rule(rng):
    pov = random_povm(3, 5, rng)
    rho = random_density(3, rng)
    frame = np.array(_frame_matrix(pov))
    assert frame.shape == (5, 9)
    # The real coordinates of a Hermitian matrix: its diagonal, then the
    # real and imaginary parts of each entry above it, row by row.
    m = np.array(rho.matrix)
    upper = m[np.triu_indices(3, 1)]
    coords = np.concatenate([m.diagonal().real,
                             np.stack([upper.real, upper.imag], 1).reshape(-1)])
    via_frame = frame @ coords
    assert np.abs(via_frame - np.array(outcome_probs(pov, rho))).max() <= ALG_TOL


def test_informational_completeness_verdicts():
    # Completeness is decided inside `reconstruct_state`: a complete POVM
    # gives back a state, an incomplete one raises.
    rho = DensityOperator(EYE2 / 2)
    for pov in (tetrahedron_povm(), _six_effect_povm()):
        reconstruct_state(pov, outcome_probs(pov, rho))
    z0, z1 = z_basis_projectors()
    for pov in (Povm((z0, z1)), Povm((EYE2 / 2, EYE2 / 2))):
        with pytest.raises(NotInformationallyCompleteError):
            reconstruct_state(pov, outcome_probs(pov, rho))


@pytest.mark.parametrize("eta, bound", [
    (1e-12, None), (1e-10, None), (1e-9, 1e-6), (1e-6, 1e-9),
])
def test_completeness_threshold_is_relative_to_the_frame(eta, bound):
    # The effects (I +- Z)/6, (I +- X)/6 and (I +- eta Y)/6 reach the Y
    # direction with a pivot of eta/3 against a largest frame entry of 1/3,
    # so `IC_TOL` = 1e-10 is the threshold: at eta = 1e-10 the pivot equals
    # the floor and counts as zero.  Above it, the Y coordinate is read off
    # through a pivot of eta/3, magnifying rounding by about 1/eta.
    x, y, z = _PAULI
    pov = Povm(tuple((EYE2 + sign * p) / 6
                     for p in (z, x, eta * y) for sign in (1, -1)))
    rho = DensityOperator((EYE2 + 0.3 * x + 0.4 * y + 0.2 * z) / 2)
    probs = outcome_probs(pov, rho)
    if bound is None:
        with pytest.raises(NotInformationallyCompleteError):
            reconstruct_state(pov, probs)
    else:
        rebuilt = np.array(reconstruct_state(pov, probs).matrix)
        assert np.abs(rebuilt - np.array(rho.matrix)).max() <= bound


@pytest.mark.parametrize("probs", [
    [float("nan"), float("nan")], [float("inf"), 0.0],
], ids=["nan", "inf"])
def test_reconstruct_decides_completeness_before_finiteness(probs):
    with pytest.raises(NotInformationallyCompleteError):
        reconstruct_state(Povm(z_basis_projectors()), probs)


def test_reconstruct_round_trip(rng):
    pov = tetrahedron_povm()
    for _ in range(20):
        rho = random_density(2, rng)
        rebuilt = reconstruct_state(pov, outcome_probs(pov, rho))
        assert np.linalg.norm(np.array(rebuilt.matrix)
                              - np.array(rho.matrix)) <= 1e-10


def test_reconstruct_round_trip_overdetermined(rng):
    pov = _six_effect_povm()
    rho = random_density(2, rng)
    rebuilt = reconstruct_state(pov, outcome_probs(pov, rho))
    assert np.linalg.norm(np.array(rebuilt.matrix)
                          - np.array(rho.matrix)) <= 1e-10


def test_reconstruct_requires_completeness():
    z0, z1 = z_basis_projectors()
    with pytest.raises(NotInformationallyCompleteError):
        reconstruct_state(Povm((z0, z1)), [0.5, 0.5])


def test_reconstruct_rejects_wrong_length():
    with pytest.raises(InconsistentProbabilitiesError,
                       match="^expected 4 probabilities, got 3$"):
        reconstruct_state(tetrahedron_povm(), [0.25, 0.25, 0.5])


def test_reconstruct_rejects_unmatchable_probabilities():
    # The tetrahedron block pins the state to I/2, whose z-block
    # probabilities are (1/4, 1/4); the skewed pair below matches nothing.
    probs = [1 / 8] * 4 + [1 / 4 + 0.01, 1 / 4 - 0.01]
    with pytest.raises(InconsistentProbabilitiesError):
        reconstruct_state(_six_effect_povm(), probs)


def test_reconstruct_rejects_negative_state():
    # Consistent as linear algebra, but the solution has eigenvalue -1.
    with pytest.raises(InconsistentProbabilitiesError):
        reconstruct_state(tetrahedron_povm(), [1.0, 0.0, 0.0, 0.0])


def _pauli_povm():
    """The six effects (I + sigma)/6 and (I - sigma)/6, sigma = X, Y, Z."""
    return Povm(tuple((EYE2 + sign * p) / 6 for p in _PAULI for sign in (1, -1)))


@pytest.mark.parametrize("pov, probs, message", [
    (tetrahedron_povm(), [0.3] * 4, "trace must be 1, got 1.2"),
    # Bloch vector (1, 1, 1): (I + X + Y + Z)/2 has eigenvalue (1 - 3**.5)/2.
    (_pauli_povm(), [1 / 3, 0.0] * 3, "positive semidefinite"),
], ids=["trace", "not-psd"])
def test_reconstruct_refuses_a_unique_solution_that_is_not_a_state(
        pov, probs, message):
    with pytest.raises(InconsistentProbabilitiesError,
                       match=f"^no state matches the probabilities: .*{message}"):
        reconstruct_state(pov, probs)


@pytest.mark.parametrize("probs, message", [
    # Finite, but the residual overflows to NaN, which used to pass the
    # tolerance test and reach the state check with numpy warnings.
    ([1e308, 1e308, -1e308, 0.0], "residual nan"),
    ([float("nan")] * 4, "not finite"),
    ([float("inf"), 0.0, 0.0, 0.0], "not finite"),
], ids=["overflowing", "nan", "inf"])
def test_reconstruct_refuses_non_finite_work_without_warnings(probs, message):
    # The suite turns every RuntimeWarning into an error.
    with pytest.raises(InconsistentProbabilitiesError, match=message):
        reconstruct_state(tetrahedron_povm(), probs)


# ---------------------------------------------------------- numpy reference


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_random_triples_match_a_numpy_reference(dim, rng):
    for _ in range(3):
        rho, ins, pov = random_triple(dim, rng)
        r = np.array(rho.matrix)
        effects = [np.array(e) for e in pov.effects]
        images = [sum(np.array(k) @ r @ np.array(k).conj().T for k in ks)
                  for ks in ins._kraus]
        decohered = sum(images)
        reflection = [(e @ decohered).trace().real for e in effects]
        frame = np.stack([e.T.reshape(-1) for e in effects])
        vec, *_ = np.linalg.lstsq(frame, np.array(reflection, dtype=complex),
                                  rcond=None)
        rebuilt = vec.reshape(dim, dim)
        rebuilt = (rebuilt + rebuilt.conj().T) / 2

        def gap(got, want):
            return np.abs(np.array(got) - np.array(want)).max()

        assert gap(first_outcome_probs(ins, rho),
                   [im.trace().real for im in images]) <= ALG_TOL
        assert gap(reflection_prob(ins, pov, rho), reflection) <= ALG_TOL
        assert gap(outcome_probs(pov, rho),
                   [(e @ r).trace().real for e in effects]) <= ALG_TOL
        assert gap(decohered_state(ins, rho).matrix, decohered) <= ALG_TOL
        assert gap(reconstruct_state(pov, reflection).matrix, rebuilt) <= 1e-10


# ------------------------------------------------------------ fixed ensembles


def test_tetrahedron_geometry():
    pov = tetrahedron_povm()
    assert pov.n_outcomes == 4
    effects = [np.array(e) for e in pov.effects]
    for i, a in enumerate(effects):
        assert abs(a.trace() - 0.5) <= ALG_TOL
        for j, b in enumerate(effects):
            want = 0.25 if i == j else 1 / 12
            assert abs((a @ b).trace() - want) <= ALG_TOL


def test_z_basis_projectors_form_valid_family():
    z0, z1 = z_basis_projectors()
    assert np.abs(z0 - np.diag([1.0, 0.0])).max() == 0.0
    assert np.abs(z1 - np.diag([0.0, 1.0])).max() == 0.0
    lueders_instrument((z0, z1))  # trace preserving: z0 + z1 = I


# ------------------------------------------------------------------ ensembles


def test_random_density_is_full_rank(rng):
    for dim in (2, 3, 4, 5):
        rho = random_density(dim, rng)
        assert rho.dim == dim
        assert np.linalg.eigvalsh(np.array(rho.matrix)).min() > 0.0


def test_random_instrument_shapes(rng):
    ins = random_instrument(3, 4, rng, kraus_per_outcome=2)
    assert ins.dim == 3
    assert ins.n_outcomes == 4
    assert all(len(ops) == 2 for ops in ins._kraus)


def test_random_povm_shapes_and_completeness(rng):
    pov = random_povm(2, 4, rng)
    assert pov.dim == 2
    assert pov.n_outcomes == 4
    # Four generic effects on a qubit span the operator space, so they
    # determine a state.
    reconstruct_state(pov, outcome_probs(pov, random_density(2, rng)))


def test_random_projector_family_validates(rng):
    ps = random_projector_family(4, (1, 3), rng)
    for i, p in enumerate(ps):
        assert np.abs(p - p.conj().T).max() <= STRUCT_TOL
        assert np.abs(p @ p - p).max() <= STRUCT_TOL
        for other in ps[i + 1:]:
            assert np.abs(p @ other).max() <= STRUCT_TOL
    assert np.abs(sum(ps) - np.eye(4)).max() <= STRUCT_TOL
    assert [int(round(p.trace().real)) for p in ps] == [1, 3]
    with pytest.raises(ValueError):
        random_projector_family(4, (1, 2), rng)
    with pytest.raises(ValueError):
        random_projector_family(4, (0, 4), rng)
