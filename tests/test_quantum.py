import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import soe.quantum
from soe.classify import classify
from soe.entity import RelationKind, orthogonal
from soe.errors import CapacityError, ContractError
from soe.probability import validate_measure
from soe.quantum import (
    DIMENSION_CAP,
    BallState,
    SpectralFamily,
    SphereExperiment,
    convex_combine,
    cq_outcome_set,
    cq_probability,
    density_from_ray,
    finite_completed_entity,
    finite_standard_entity,
    is_extremal,
    lift_experiment,
    opnorm,
    _random_densities,
    partial_trace,
    pauli_axis_families,
    qmachine_probability,
    qmachine_to_hilbert,
    random_density,
    random_ket,
    random_spectral_family,
    ray_from_angles,
    singlet_density,
    spectral_family_from_hermitian,
    sphere_experiment_family,
    sq_outcome_set,
    sq_probability,
    validate_density_operator,
    validate_spectral_family,
    verify_cq_sub_entity,
)

Z_FAMILY = SpectralFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


def random_axis(rng) -> np.ndarray:
    u = rng.normal(size=3)
    return u / np.linalg.norm(u)


class TestSpectralFamilies:
    def test_computational_basis(self):
        assert validate_spectral_family(Z_FAMILY).passed

    def test_axis_families(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            family = sphere_experiment_family(SphereExperiment(random_axis(rng)))
            diag = validate_spectral_family(family)
            assert diag.passed, diag.failures

    def test_duplicate_projector_fails(self):
        bad = SpectralFamily([np.diag([1.0, 0.0]), np.diag([1.0, 0.0])])
        diag = validate_spectral_family(bad)
        assert not diag.checks["family.pairwise_orthogonal"]
        assert not diag.checks["family.sums_to_identity"]

    def test_diagonal_clustering(self):
        family = spectral_family_from_hermitian(np.diag([2.0, 2.0, 5.0]))
        assert len(family) == 2
        ranks = sorted(int(round(np.real(np.trace(P)))) for P in family.projections)
        assert ranks == [1, 2]
        assert family.eigenvalues == (2.0, 5.0)

    def test_two_level_diagonal(self):
        family = spectral_family_from_hermitian(np.diag([1.0, -1.0]))
        got = {tuple(np.round(np.real(np.diag(P))).astype(int)) for P in family.projections}
        assert got == {(1, 0), (0, 1)}

    def test_reconstruction_of_random_hermitian(self):
        rng = np.random.default_rng(82)
        for _ in range(10):
            A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            H = (A + A.conj().T) / 2
            family = spectral_family_from_hermitian(H)
            rebuilt = sum(lam * P for lam, P in zip(family.eigenvalues, family.projections))
            assert opnorm(rebuilt - H) <= 1e-8 * max(1.0, opnorm(H))
            assert validate_spectral_family(family).passed

    def test_non_hermitian_rejected(self):
        with pytest.raises(ContractError):
            spectral_family_from_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_hermitian_check_runs_an_svd_only_past_the_frobenius_bound(self, monkeypatch):
        norms = []
        monkeypatch.setattr("soe.quantum.opnorm", lambda M: norms.append(M) or opnorm(M))
        H = np.array([[1.0, 2 - 1j], [2 + 1j, 3.0]])
        # both residuals, H - H* and the reconstruction's, are within half
        # their bounds in Frobenius norm: no SVD
        spectral_family_from_hermitian(H)
        spectral_family_from_hermitian(H + np.array([[0.0, 1e-12], [0.0, 0.0]]))
        assert len(norms) == 0
        # H - H* has Frobenius norm 0.71e-9 > 0.5e-9, so one SVD measures
        # 0.5e-9 <= 1e-9 and accepts
        spectral_family_from_hermitian(H + np.array([[0.0, 0.5e-9], [0.0, 0.0]]))
        assert len(norms) == 1
        norms.clear()
        with pytest.raises(ContractError, match="not Hermitian"):
            spectral_family_from_hermitian(H + np.array([[0.0, 1e-6], [0.0, 0.0]]))
        assert len(norms) == 1

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5),
        st.sampled_from([0.25, 0.49, 0.5, 0.51, 0.7, 0.99, 1.0, 1.01, 2.0]),
        st.sampled_from(["opnorm", "frobenius"]),
        st.sampled_from([1e-9, 1e-8, 1.0]),
        st.booleans(),
    )
    def test_norm_bound_decides_as_the_svd(self, seed, n, ratio, target, tol, scaled):
        """M of rank 1 to n, scaled so its operator or Frobenius norm is
        `ratio` times the bound (at 1/2 the Frobenius shortcut's edge, at 1
        the bound's); scaled compares against tol * max(1, opnorm(S))."""
        rng = np.random.default_rng(seed)
        rank = int(rng.integers(1, n + 1))
        M = (rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))) @ rng.normal(size=(rank, n))
        S = rng.normal(size=(n, n)) * rng.uniform(0.0, 3.0) if scaled else None
        bound = tol * (max(1.0, opnorm(S)) if scaled else 1.0)
        M *= ratio * bound / (opnorm(M) if target == "opnorm" else np.linalg.norm(M))
        assert soe.quantum._opnorm_within(M, tol, scale_of=S) == (opnorm(M) <= bound)

    def test_overeager_clustering_rejected(self):
        # a gap tolerance that merges genuinely distinct eigenvalues cannot
        # reconstruct the observable
        with pytest.raises(ContractError, match="cluster_tol"):
            spectral_family_from_hermitian(np.diag([0.0, 1.0]), cluster_tol=10.0)

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            SpectralFamily([np.eye(65)])


class TestRayStates:
    def test_eigenvector_outcomes(self):
        assert sq_outcome_set(Z_FAMILY, np.array([1.0, 0.0])) == {1}
        assert sq_probability(Z_FAMILY, np.array([1.0, 0.0]), 1) == pytest.approx(1.0)

    def test_equator_outcomes(self):
        c = ray_from_angles(np.pi / 2, 0.0)
        assert sq_outcome_set(Z_FAMILY, c) == {1, 2}

    def test_outcome_set_never_empty(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            family = random_spectral_family(rng, 3)
            c = random_ket(rng, 3)
            assert sq_outcome_set(family, c)

    def test_cosine_law(self):
        rng = np.random.default_rng(84)
        for _ in range(20):
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            c = ray_from_angles(theta, phi)
            axis_family = sphere_experiment_family(SphereExperiment((0.0, 0.0, 1.0)))
            assert sq_probability(axis_family, c, 1) == pytest.approx(
                np.cos(theta / 2) ** 2, abs=1e-12
            )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(85)
        for _ in range(20):
            family = random_spectral_family(rng, 4)
            c = random_ket(rng, 4)
            total = sum(sq_probability(family, c, k) for k in range(1, len(family) + 1))
            assert abs(total - 1.0) <= 1e-10

    def test_ray_outcomes_are_those_of_its_density(self):
        # outcome 2 has probability 1e-14, above the old amplitude threshold
        # (norm 1e-7 > 1e-10) but below the probability tolerance 1e-10
        c = np.array([np.sqrt(1 - 1e-14), np.sqrt(1e-14)])
        W = density_from_ray(c)
        assert sq_outcome_set(Z_FAMILY, c) == cq_outcome_set(Z_FAMILY, W) == {1}
        ray_entity, ray_measure = finite_standard_entity([c], [Z_FAMILY])
        density_entity, density_measure = finite_completed_entity([W], [Z_FAMILY])
        assert ray_entity == density_entity
        assert ray_measure == density_measure

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ContractError):
            sq_outcome_set(Z_FAMILY, np.array([1.0, 1.0]))


class TestDensityStates:
    def test_ray_density_is_extremal(self):
        W = density_from_ray(np.array([1.0, 0.0]))
        assert np.allclose(W, np.diag([1.0, 0.0]))
        assert is_extremal(W)
        assert validate_density_operator(W).passed

    def test_explicit_ray_density_matrix(self):
        theta, phi = 1.1, 2.3
        W = density_from_ray(ray_from_angles(theta, phi))
        half = theta / 2
        expected = np.array(
            [
                [np.cos(half) ** 2, np.sin(half) * np.cos(half) * np.exp(-1j * phi)],
                [np.sin(half) * np.cos(half) * np.exp(1j * phi), np.sin(half) ** 2],
            ]
        )
        assert np.allclose(W, expected, atol=1e-12)

    def test_even_antipodal_mixture_is_center(self):
        theta, phi = 0.8, 0.3
        plus = density_from_ray(ray_from_angles(theta, phi))
        minus = density_from_ray(ray_from_angles(np.pi - theta, phi + np.pi))
        mixed = convex_combine([(0.5, plus), (0.5, minus)])
        assert not is_extremal(mixed)
        assert np.allclose(mixed, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(mixed, qmachine_to_hilbert(BallState((0.0, 0.0, 0.0))), atol=1e-12)

    def test_cq_matches_sq_on_rays(self):
        rng = np.random.default_rng(86)
        for _ in range(10):
            family = random_spectral_family(rng, 3)
            c = random_ket(rng, 3)
            W = density_from_ray(c)
            for k in range(1, len(family) + 1):
                assert cq_probability(family, W, k) == pytest.approx(
                    sq_probability(family, c, k), abs=1e-12
                )
            assert cq_outcome_set(family, W) == sq_outcome_set(family, c)

    def test_maximally_mixed_probabilities(self):
        family = spectral_family_from_hermitian(np.diag([2.0, 2.0, 5.0]))
        W = np.eye(3) / 3
        for k, P in enumerate(family.projections, start=1):
            assert cq_probability(family, W, k) == pytest.approx(
                np.real(np.trace(P)) / 3, abs=1e-12
            )

    def test_cq_probabilities_sum_to_one(self):
        rng = np.random.default_rng(87)
        for _ in range(20):
            family = random_spectral_family(rng, 3)
            W = random_density(rng, 3)
            total = sum(cq_probability(family, W, k) for k in range(1, len(family) + 1))
            assert abs(total - 1.0) <= 1e-10

    def test_bad_weights_rejected(self):
        W = np.eye(2) / 2
        with pytest.raises(ContractError):
            convex_combine([(0.7, W), (0.7, W)])
        with pytest.raises(ContractError):
            convex_combine([(-0.5, W), (1.5, W)])


class TestQuantumMachine:
    def test_surface_state_law(self):
        rng = np.random.default_rng(88)
        for _ in range(20):
            u = random_axis(rng)
            v = random_axis(rng)
            p1, p2 = qmachine_probability(BallState(v), SphereExperiment(u))
            cos_theta = float(np.dot(u, v))
            assert p1 == pytest.approx((1 + cos_theta) / 2, abs=1e-14)
            assert p1 + p2 == 1.0

    def test_center_state(self):
        rng = np.random.default_rng(89)
        for _ in range(5):
            u = random_axis(rng)
            p1, p2 = qmachine_probability(BallState((0.0, 0.0, 0.0)), SphereExperiment(u))
            assert p1 == 0.5 and p2 == 0.5

    def test_eigenstate(self):
        u = (0.0, 0.0, 1.0)
        p1, p2 = qmachine_probability(BallState(u), SphereExperiment(u))
        assert p1 == 1.0 and p2 == 0.0

    def test_affine_along_chords(self):
        rng = np.random.default_rng(90)
        u = random_axis(rng)
        w0 = 0.4 * random_axis(rng)
        w1 = 0.7 * random_axis(rng)
        probes = np.linspace(0.0, 1.0, 7)
        values = []
        for t in probes:
            w = (1 - t) * w0 + t * w1
            values.append(qmachine_probability(BallState(w), SphereExperiment(u))[0])
        gaps = np.diff(values)
        assert np.allclose(gaps, gaps[0], atol=1e-12)

    def test_point_outside_ball_rejected(self):
        with pytest.raises(ContractError):
            BallState((1.1, 0.0, 0.0))
        with pytest.raises(ContractError):
            SphereExperiment((0.5, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coordinates_and_angles_rejected(self, bad):
        # NaN compares false with every bound, so it passed the norm tests
        with pytest.raises(ContractError, match="coordinates must be finite"):
            BallState((0.0, bad, 1.0))
        with pytest.raises(ContractError, match="coordinates must be finite"):
            SphereExperiment((bad, 0.0, 1.0))
        for args in ((bad, 0.0), (0.0, bad), (0.0, 0.0, bad)):
            with pytest.raises(ContractError, match="angles and radius must be finite"):
                BallState.from_angles(*args)
        for args in ((bad, 0.0), (0.0, bad)):
            with pytest.raises(ContractError, match="angles must be finite"):
                SphereExperiment.from_angles(*args)


class TestBallToHilbert:
    def test_north_pole(self):
        W = qmachine_to_hilbert(BallState((0.0, 0.0, 1.0)))
        assert np.allclose(W, np.diag([1.0, 0.0]), atol=1e-12)

    def test_surface_states_are_extremal(self):
        rng = np.random.default_rng(91)
        for _ in range(10):
            v = random_axis(rng)
            assert is_extremal(qmachine_to_hilbert(BallState(v)))

    def test_interior_matches_elastic_on_grid(self):
        rng = np.random.default_rng(92)
        w = 0.37 * random_axis(rng)
        state = BallState(w)
        W = qmachine_to_hilbert(state)
        for theta in np.linspace(0.0, np.pi, 8):
            for phi in np.linspace(0.0, 2 * np.pi, 8, endpoint=False):
                axis = SphereExperiment.from_angles(theta, phi)
                family = sphere_experiment_family(axis)
                p1, p2 = qmachine_probability(state, axis)
                assert cq_probability(family, W, 1) == pytest.approx(p1, abs=1e-10)
                assert cq_probability(family, W, 2) == pytest.approx(p2, abs=1e-10)

    def test_every_density_is_a_ball_point(self):
        # diagonalizing any 2x2 density yields antipodal rays and weights,
        # matching a point of the ball; round-trip through the Bloch vector
        rng = np.random.default_rng(93)
        for _ in range(10):
            W = random_density(rng, 2)
            x = float(np.real(W[0, 1] + W[1, 0]))
            y = float(np.imag(W[1, 0] - W[0, 1]))
            z = float(np.real(W[0, 0] - W[1, 1]))
            assert np.linalg.norm((x, y, z)) <= 1 + 1e-9
            rebuilt = qmachine_to_hilbert(BallState((x, y, z)))
            assert np.allclose(rebuilt, W, atol=1e-10)


class TestLifting:
    def test_lifted_family_validates(self):
        lifted = lift_experiment(Z_FAMILY, 2)
        assert lifted.dimension == 4
        assert all(int(round(np.real(np.trace(P)))) == 2 for P in lifted.projections)
        assert validate_spectral_family(lifted).passed

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 8))
    def test_lift_is_the_kronecker_product_bit_for_bit(self, seed, n, m):
        assert n * m <= DIMENSION_CAP
        family = random_spectral_family(np.random.default_rng(seed), n)
        lifted = lift_experiment(family, m)
        assert lifted.eigenvalues == family.eigenvalues
        assert len(lifted) == len(family)
        for P, lifted_P in zip(family.projections, lifted.projections):
            assert np.array_equal(lifted_P, np.kron(P, np.eye(m)))

    def test_product_state_probabilities(self):
        rng = np.random.default_rng(94)
        for _ in range(10):
            family = random_spectral_family(rng, 2)
            lifted = lift_experiment(family, 3)
            c = random_ket(rng, 2)
            d = random_ket(rng, 3)
            product = np.kron(c, d)
            for k in range(1, len(family) + 1):
                assert sq_probability(lifted, product, k) == pytest.approx(
                    sq_probability(family, c, k), abs=1e-12
                )


class TestPartialTrace:
    def test_product_state_reduces_exactly(self):
        rng = np.random.default_rng(95)
        for _ in range(10):
            c = random_ket(rng, 2)
            d = random_ket(rng, 3)
            W_big = density_from_ray(np.kron(c, d))
            assert np.allclose(partial_trace(W_big, (2, 3)), density_from_ray(c), atol=1e-12)

    def test_singlet_reduces_to_center(self):
        reduced = partial_trace(singlet_density(), (2, 2))
        assert opnorm(reduced - np.eye(2) / 2) <= 1e-12

    def test_defining_property(self):
        rng = np.random.default_rng(96)
        for dims in ((2, 2), (2, 3)):
            n = dims[0] * dims[1]
            for _ in range(10):
                W_big = random_density(rng, n)
                reduced = partial_trace(W_big, dims)
                for _ in range(20):
                    E = density_from_ray(random_ket(rng, dims[0]))
                    lhs = float(np.real(np.trace(reduced @ E)))
                    rhs = float(np.real(np.trace(W_big @ np.kron(E, np.eye(dims[1])))))
                    assert abs(lhs - rhs) <= 1e-9

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(97)
        for _ in range(10):
            reduced = partial_trace(random_density(rng, 6), (2, 3))
            assert validate_density_operator(reduced).passed

    def test_linear(self):
        rng = np.random.default_rng(98)
        A = random_density(rng, 4)
        B = random_density(rng, 4)
        mix = convex_combine([(0.3, A), (0.7, B)])
        assert np.allclose(
            partial_trace(mix, (2, 2)),
            0.3 * partial_trace(A, (2, 2)) + 0.7 * partial_trace(B, (2, 2)),
            atol=1e-12,
        )

    def test_operator_basis_agreement(self):
        # the defining property over a spanning projector set at 2x2
        rng = np.random.default_rng(99)
        W_big = random_density(rng, 4)
        reduced = partial_trace(W_big, (2, 2))
        basis_kets = [
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.array([1.0, 1.0]) / np.sqrt(2),
            np.array([1.0, 1j]) / np.sqrt(2),
        ]
        for c in basis_kets:
            E = density_from_ray(c)
            assert abs(
                float(np.real(np.trace(reduced @ E)))
                - float(np.real(np.trace(W_big @ np.kron(E, np.eye(2)))))
            ) <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractError):
            partial_trace(np.eye(4) / 4, (3, 2))

    def test_invalid_input_rejected(self):
        with pytest.raises(ContractError):
            partial_trace(np.eye(4), (2, 2))  # trace 4, not a density

    def test_stack_reduces_matrix_by_matrix(self):
        rng = np.random.default_rng(96)
        stack = np.array([[random_density(rng, 6) for _ in range(4)] for _ in range(3)])
        reduced = partial_trace(stack, (2, 3))
        assert reduced.shape == (3, 4, 2, 2)
        for i in range(3):
            for j in range(4):
                assert opnorm(reduced[i, j] - partial_trace(stack[i, j], (2, 3))) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 4),
        st.lists(
            st.tuples(
                st.sampled_from(["valid", "lowest", "trace", "hermitian"]),
                st.sampled_from([sign * c for c in (0.25, 0.5, 1.0, 2.0) for sign in (1, -1)]),
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_density_stacks_are_decided_as_by_their_eigenvalues(self, seed, n, kinds):
        """A stack of matrices near the tolerance (lowest eigenvalue, trace
        or Hermitian residual at +-{1/4, 1/2, 1, 2} tol) raises exactly when
        one of them fails validate_density_operator, with the first one's
        failures."""
        rng = np.random.default_rng(seed)
        tol = soe.quantum.VALIDATION_TOL
        stack = np.array([_near_tolerance(rng, n, kind, c * tol) for kind, c in kinds])
        failures = [validate_density_operator(W).failures for W in stack]
        expected = next((f"wanted: {f}" for f in failures if f), None)
        try:
            soe.quantum._require_densities(stack, ContractError, "wanted")
        except ContractError as err:
            assert str(err) == expected
        else:
            assert expected is None

    def test_only_a_stack_the_certificate_refuses_is_measured(self, monkeypatch):
        calls = []
        measure = soe.quantum._density_residuals
        monkeypatch.setattr(soe.quantum, "_density_residuals", lambda W: calls.append(W.shape) or measure(W))
        stack = _random_densities(np.random.default_rng(5), 4, 100)
        partial_trace(stack, (2, 2))
        assert calls == []
        stack[7] = np.diag([0.5, 0.5, 0.5, -0.5])
        with pytest.raises(ContractError, match="density.positive"):
            partial_trace(stack, (2, 2))
        assert calls == [(100, 4, 4)]

    def test_stack_raises_as_its_first_bad_matrix(self):
        rng = np.random.default_rng(97)
        bad = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)  # trace 1, not positive
        worse = np.eye(4)
        stack = np.array([random_density(rng, 4), bad, random_density(rng, 4), worse])
        with pytest.raises(ContractError) as alone:
            partial_trace(bad, (2, 2))
        with pytest.raises(ContractError) as stacked:
            partial_trace(stack, (2, 2))
        assert str(stacked.value) == str(alone.value)
        assert "density.positive" in str(alone.value)


def _near_tolerance(rng, n: int, kind: str, offset: float) -> np.ndarray:
    """An exactly Hermitian n x n matrix: a density operator whose lowest
    eigenvalue is offset ("lowest"), or a density operator with comfortable
    eigenvalues ("valid"), its trace moved to 1 + offset ("trace"), or
    |offset| added above the diagonal ("hermitian", no longer Hermitian)."""
    lowest = offset if kind == "lowest" else rng.uniform(0.01, 0.1)
    rest = rng.uniform(0.1, 1.0, size=n - 1)
    values = np.concatenate([[lowest], rest * (1.0 - lowest) / rest.sum()])
    U, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    A = (U * values) @ U.conj().T
    W = (A + A.conj().T) / 2
    if kind == "trace":
        W *= 1.0 + offset
    if kind == "hermitian":
        W[0, 1] += abs(offset)
    return W


class TestEntityBridge:
    def test_finite_standard_entity_structure(self):
        rng = np.random.default_rng(100)
        kets = [random_ket(rng, 2) for _ in range(3)]
        families = [random_spectral_family(rng, 2) for _ in range(2)]
        entity, measure = finite_standard_entity(kets, families)
        assert len(entity.states) == 3 and len(entity.experiments) == 2
        diag = validate_measure(entity, measure)
        assert diag.passed, diag.failures

    def test_state_orthogonality_matches_inner_product(self):
        # entity-level orthogonality of ray states coincides with vector
        # orthogonality once a family separating the orthogonal pair is present
        rng = np.random.default_rng(101)
        for n in (2, 3):
            for _ in range(8):
                c = random_ket(rng, n)
                d_raw = rng.normal(size=n) + 1j * rng.normal(size=n)
                if rng.uniform() < 0.5:
                    d = d_raw - np.vdot(c, d_raw) * c  # orthogonalize
                    d = d / np.linalg.norm(d)
                else:
                    d = d_raw / np.linalg.norm(d_raw)
                    if abs(np.vdot(c, d)) < 1e-6:
                        continue
                families = [random_spectral_family(rng, n) for _ in range(3)]
                if abs(np.vdot(c, d)) <= 1e-12:
                    # a family containing the two rays separates them
                    P1 = density_from_ray(c)
                    P2 = density_from_ray(d)
                    rest = np.eye(n) - P1 - P2
                    parts = [P1, P2] + ([rest] if opnorm(rest) > 1e-9 else [])
                    families.append(SpectralFamily(parts))
                entity, _ = finite_standard_entity([c, d], families)
                orth = orthogonal(entity, RelationKind.state_global(), "s1", "s2")
                assert orth == (abs(np.vdot(c, d)) <= 1e-12)

    def test_separating_family_blocks_state_implication(self):
        # distinct rays never imply each other once the separating experiment
        # (a projector orthogonal to one but not the other) is sampled
        rng = np.random.default_rng(102)
        for _ in range(10):
            c = random_ket(rng, 2)
            d = random_ket(rng, 2)
            if abs(abs(np.vdot(c, d)) - 1.0) < 1e-9:
                continue
            d_perp = np.array([-np.conj(d[1]), np.conj(d[0])])
            separating = SpectralFamily([density_from_ray(d_perp), density_from_ray(d)])
            entity, _ = finite_standard_entity([c, d], [separating])
            assert not entity.outcome_set("e1", "s1") <= entity.outcome_set("e1", "s2")

    def test_eig_membership_is_range_condition(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            family = random_spectral_family(rng, 3)
            c = random_ket(rng, 3)
            indices = sorted(sq_outcome_set(family, c))
            for size in range(len(family) + 1):
                A = set(range(1, size + 1))
                R = sum(
                    (family.projection(k) for k in A),
                    np.zeros((3, 3), dtype=complex),
                )
                in_eig = set(indices) <= A
                fixed = np.linalg.norm(R @ c - c) <= 1e-9
                assert in_eig == fixed

    @pytest.mark.parametrize("n, seed", [(2, 106), (3, 107), (4, 108)])
    def test_completed_entity_matches_a_scalar_loop(self, n, seed):
        rng = np.random.default_rng(seed)
        densities = [random_density(rng, n) for _ in range(5)] + [density_from_ray(random_ket(rng, n))]
        families = [random_spectral_family(rng, n) for _ in range(3)]
        families.append(SpectralFamily([np.eye(n)]))
        entity, measure = finite_completed_entity(densities, families)
        table, entries = {}, {}
        for i, family in enumerate(families, start=1):
            for j, W in enumerate(densities, start=1):
                outcomes = cq_outcome_set(family, W)
                table[(f"e{i}", f"s{j}")] = frozenset(f"e{i}:o{k}" for k in outcomes)
                for k in outcomes:
                    entries[(f"e{i}", f"s{j}", f"e{i}:o{k}")] = min(1.0, max(0.0, cq_probability(family, W, k)))
        assert dict(entity.cells()) == table
        assert dict(measure.entries) == entries  # exactly, not within a tolerance

    def test_completed_entity_dimension_mismatch(self):
        rng = np.random.default_rng(109)
        families = [random_spectral_family(rng, 2), random_spectral_family(rng, 3)]
        with pytest.raises(ContractError, match=r"^state dimension 2 != family dimension 3$"):
            finite_completed_entity([random_density(rng, 2)], families)

    def test_completed_entity_classifies(self):
        rng = np.random.default_rng(104)
        densities = [random_density(rng, 2) for _ in range(3)]
        families = [random_spectral_family(rng, 2) for _ in range(2)]
        entity, measure = finite_completed_entity(densities, families)
        classify(entity)  # cross-checks must hold on quantum-sampled entities
        assert validate_measure(entity, measure).passed


@pytest.fixture
def cold_ray_search():
    """An empty ray-search cache before and after the test, so that a patched
    soe.quantum neither reads a search made before it nor leaves one behind."""
    soe.quantum._standard_ray_min_residual.cache_clear()
    yield
    soe.quantum._standard_ray_min_residual.cache_clear()


def _outcome(diag) -> tuple:
    return repr(diag.details), diag.checks, diag.failures, diag._overflow


class TestSubEntityDemonstration:
    def test_product_samples_pass_both_descriptions(self):
        rng = np.random.default_rng(105)
        for _ in range(5):
            c = random_ket(rng, 2)
            d = random_ket(rng, 2)
            W_big = density_from_ray(np.kron(c, d))
            reduced = partial_trace(W_big, (2, 2))
            # completed: reduction matches; standard: the ray c itself matches
            assert np.allclose(reduced, density_from_ray(c), atol=1e-12)
            for family in pauli_axis_families():
                lifted = lift_experiment(family, 2)
                for k in (1, 2):
                    big_value = cq_probability(lifted, W_big, k)
                    assert sq_probability(family, c, k) == pytest.approx(big_value, abs=1e-10)
                    assert cq_probability(family, reduced, k) == pytest.approx(
                        big_value, abs=1e-10
                    )

    def test_smoke_2x2(self):
        diag = verify_cq_sub_entity(2, 2, samples=20, seed=7, ray_candidates=900)
        assert diag.passed, diag.failures
        assert diag.details["completed_max_residual"] <= 1e-9
        assert diag.details["standard_ray_min_residual"] > 0.1

    def test_ray_search_matches_a_scalar_reference(self):
        diag = verify_cq_sub_entity(2, 2, samples=5, seed=3, ray_candidates=400)
        probes = pauli_axis_families()
        singlet = singlet_density()
        targets = [[cq_probability(lift_experiment(f, 2), singlet, k) for k in (1, 2)] for f in probes]
        best = min(
            max(
                abs(sq_probability(family, ray_from_angles(theta, phi), k) - target[k - 1])
                for family, target in zip(probes, targets)
                for k in (1, 2)
            )
            for theta in np.linspace(0.0, np.pi, 20)
            for phi in np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
        )
        assert diag.details["ray_candidates"] == 400
        assert abs(diag.details["standard_ray_min_residual"] - best) <= 1e-12

    def test_failures_match_a_scalar_reference(self):
        # tol = -1 fails every residual, so every (state, family, outcome)
        # line is recorded in the order of the scalar loop below
        diag = verify_cq_sub_entity(2, 2, samples=5, seed=3, tol=-1.0, ray_candidates=400)
        rng = np.random.default_rng(3)
        families = [random_spectral_family(rng, 2) for _ in range(3)] + pauli_axis_families()
        big_states = [random_density(rng, 4) for _ in range(5)] + [singlet_density()]
        lines = []
        for W_big in big_states:
            reduced = partial_trace(W_big, (2, 2))
            for family in families:
                lifted = lift_experiment(family, 2)
                for k in range(1, len(family) + 1):
                    residual = abs(cq_probability(family, reduced, k) - cq_probability(lifted, W_big, k))
                    lines.append(f"completed.trace_identity: outcome {k}: residual {residual:.3g}")
        assert diag.failures == lines[: diag.cap]
        # the morphism contract fails too, past the cap
        assert diag._overflow == len(lines) - diag.cap + 1
        assert diag.checks == {
            "completed.trace_identity": False,
            "completed.morphism_contract": False,
            "standard.no_ray_reproduces_entangled_state": True,
        }

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(0, 5))
    def test_batched_draws_equal_sequential_draws(self, seed, n, count):
        # the reference is the one-at-a-time Ginibre draw, written out
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(count):
            G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            W = G @ G.conj().T
            expected.append(W / np.real(np.trace(W)))
        batch = _random_densities(np.random.default_rng(seed), n, count)
        assert batch.shape == (count, n, n)
        assert all(np.array_equal(W, V) for W, V in zip(batch, expected))

    def test_too_few_samples_refused_before_any_draw(self, cold_ray_search, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(soe.quantum, "random_spectral_family", no_draw)
        monkeypatch.setattr(soe.quantum, "_random_densities", no_draw)
        for n_sys, n_env, samples in ((2, 2, -1), (2, 3, -3), (2, 3, 0), (3, 2, 0)):
            with pytest.raises(ContractError, match="samples"):
                verify_cq_sub_entity(n_sys, n_env, samples=samples)

    def test_no_ray_candidates_refused_before_any_draw(self, cold_ray_search, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr(soe.quantum, "random_spectral_family", no_draw)
        monkeypatch.setattr(soe.quantum, "_random_densities", no_draw)
        for count in (0, -4):
            with pytest.raises(ContractError) as err:
                verify_cq_sub_entity(2, 2, ray_candidates=count)
            assert str(err.value) == f"ray_candidates must be at least 1 for 2 x 2, got {count}"

    def test_ray_search_runs_once_per_grid_size(self, cold_ray_search, monkeypatch):
        blocks = []
        monkeypatch.setattr(soe.quantum, "ray_from_angles", lambda *a: blocks.append(a) or ray_from_angles(*a))
        calls = [
            dict(seed=3, samples=5, ray_candidates=400),
            dict(seed=11, samples=0, tol=1e-6, ray_candidates=400),
            dict(seed=3, samples=20, tol=-1.0, ray_candidates=400),
            dict(seed=3, samples=5, ray_candidates=401),  # rounds to the same 20 x 20 grid
        ]
        residuals = [verify_cq_sub_entity(2, 2, **kwargs).details["standard_ray_min_residual"] for kwargs in calls]
        assert len(blocks) == 2  # 20 theta rows, RAY_BLOCK = 10 rows per block: one search
        info = soe.quantum._standard_ray_min_residual.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        assert all(r.hex() == residuals[0].hex() for r in residuals)
        # the verdict compares the cached residual with each call's threshold
        strict = verify_cq_sub_entity(2, 2, samples=5, seed=3, ray_candidates=400, failure_threshold=0.5)
        assert len(blocks) == 2
        assert strict.checks["standard.no_ray_reproduces_entangled_state"] is False
        assert strict.failures == [
            f"standard.no_ray_reproduces_entangled_state: a candidate ray came within {residuals[0]:.3g}"
        ]
        verify_cq_sub_entity(2, 2, samples=0, ray_candidates=100)
        assert len(blocks) == 3  # a new grid size is a new search

    def test_cold_and_warm_searches_report_the_same(self):
        for n_sys, n_env in ((2, 2), (2, 3), (3, 2)):
            for seed in (0, 7, 42):
                for samples in ((0, 5) if n_sys == n_env == 2 else (5,)):
                    for tol in (1e-9, -1.0):
                        soe.quantum._standard_ray_min_residual.cache_clear()
                        soe.quantum._lifted_pauli_axis_families.cache_clear()
                        cold = verify_cq_sub_entity(n_sys, n_env, samples=samples, seed=seed, tol=tol)
                        warm = verify_cq_sub_entity(n_sys, n_env, samples=samples, seed=seed, tol=tol)
                        assert _outcome(cold) == _outcome(warm), (n_sys, n_env, seed, samples, tol)

    def test_pauli_probes_are_lifted_once_per_environment_dimension(self, monkeypatch):
        for n_env in (2, 3):
            verify_cq_sub_entity(2, n_env, samples=1)
        lifts = []
        monkeypatch.setattr(soe.quantum, "lift_experiment", lambda f, m: lifts.append(m) or lift_experiment(f, m))
        for n_env in (2, 3):
            verify_cq_sub_entity(2, n_env, samples=1, seed=9)
            for probe, lifted in zip(pauli_axis_families(), soe.quantum._lifted_pauli_axis_families(n_env)):
                assert all(map(np.array_equal, lifted.projections, lift_experiment(probe, n_env).projections))
        assert lifts == [2, 2, 2, 3, 3, 3]  # the three drawn families of each call alone

    def test_valid_density_stacks_compute_no_eigenvalues(self, monkeypatch):
        def no_eigenvalues(*args):
            raise AssertionError("computed eigenvalues of a valid stack")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigenvalues)
        for seed in range(5):
            assert verify_cq_sub_entity(2, 2, seed=seed, ray_candidates=100).passed

    def test_one_ray_candidate_is_searched(self):
        diag = verify_cq_sub_entity(2, 2, samples=0, seed=5, ray_candidates=1)
        assert diag.details["ray_candidates"] == 1
        assert np.isfinite(diag.details["standard_ray_min_residual"])

    def test_ray_candidates_round_to_a_square_grid(self):
        for asked, searched in ((1000, 1024), (2, 1)):
            diag = verify_cq_sub_entity(2, 2, samples=0, seed=5, ray_candidates=asked)
            assert diag.details["ray_candidates"] == searched

    def test_ray_candidates_are_unused_beyond_two_qubits(self):
        diag = verify_cq_sub_entity(2, 3, samples=2, seed=8, ray_candidates=0)
        assert "ray_candidates" not in diag.details

    def test_no_samples_runs_on_the_singlet_alone(self):
        diag = verify_cq_sub_entity(2, 2, samples=0, seed=5, ray_candidates=400)
        assert diag.passed, diag.failures
        assert diag.details["samples"] == 1

    def test_pauli_probes_are_a_fresh_list(self):
        first = pauli_axis_families()
        expected = list(first)
        first.clear()
        assert pauli_axis_families() == expected
        assert len(expected) == 3

    def test_residuals_are_pinned(self):
        diag = verify_cq_sub_entity(2, 2, seed=42, ray_candidates=10_000)
        assert diag.details["standard_ray_min_residual"] == 0.2969001568483114
        assert diag.details["completed_max_residual"] == 2.220446049250313e-16

    def test_2x3_contract(self):
        diag = verify_cq_sub_entity(2, 3, samples=15, seed=8)
        assert diag.passed, diag.failures
        assert "standard_ray_min_residual" not in diag.details

    def test_dimension_budget(self):
        with pytest.raises(CapacityError):
            verify_cq_sub_entity(4, 5)
