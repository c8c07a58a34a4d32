import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becmirror import (
    NumericalError,
    ValidationError,
    build_diffusion,
    build_drift,
    entanglement_result,
    logarithmic_negativity,
    reduce_to_modes,
    solve_steady_covariance,
    symplectic_eigenvalues,
)
from becmirror.entanglement import entanglement_results

from support import (
    entangled_model,
    mild_model,
    pt_symplectic_oracle,
    random_physical_covariance,
    random_symplectic,
    two_mode_squeezed_covariance,
)

VACUUM4 = 0.5 * np.eye(4)


def _separable(cov: np.ndarray) -> bool:
    return entanglement_result(cov).simon_separable


class TestReduceToModes:
    def test_vacuum_projection(self):
        np.testing.assert_array_equal(reduce_to_modes(0.5 * np.eye(6)), VACUUM4)

    def test_block_diagonal_input_has_zero_cross_block(self):
        full = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        reduced = reduce_to_modes(full)
        np.testing.assert_array_equal(reduced[:2, 2:], np.zeros((2, 2)))
        np.testing.assert_array_equal(reduced[:2, :2], np.eye(2))
        np.testing.assert_array_equal(reduced[2:, 2:], 2.0 * np.eye(2))

    def test_keeps_requested_modes(self):
        full = np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0])
        reduced = reduce_to_modes(full, keep=("mirror", "cavity"))
        np.testing.assert_array_equal(reduced[2:, 2:], 3.0 * np.eye(2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError, match="unknown mode"):
            reduce_to_modes(np.eye(6), keep=("mirror", "laser"))

    def test_rejects_duplicate_modes(self):
        with pytest.raises(ValidationError):
            reduce_to_modes(np.eye(6), keep=("mirror", "mirror"))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            reduce_to_modes(np.eye(4))

    def test_pipeline_output_has_cross_correlations(self):
        params = entangled_model()
        cov = solve_steady_covariance(build_drift(params), build_diffusion(params))
        reduced = reduce_to_modes(cov)
        assert np.linalg.norm(reduced[:2, 2:]) > 1e-3


class TestSymplecticEigenvalues:
    def test_vacuum(self):
        nu_minus, nu_plus = symplectic_eigenvalues(VACUUM4)
        assert nu_minus == pytest.approx(0.5, abs=1e-14)
        assert nu_plus == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("r", [0.0, 0.2, 0.5, 1.0, 2.0, 3.0])
    def test_two_mode_squeezed_family(self, r):
        nu_minus, nu_plus = symplectic_eigenvalues(two_mode_squeezed_covariance(r))
        assert nu_minus == pytest.approx(0.5 * math.exp(-2.0 * r), rel=1e-9)
        assert nu_plus == pytest.approx(0.5 * math.exp(2.0 * r), rel=1e-9)

    def test_oracle_battery(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            cov = random_physical_covariance(rng)
            closed = symplectic_eigenvalues(cov)
            reference = pt_symplectic_oracle(cov)
            assert closed[0] == pytest.approx(reference[0], rel=1e-9, abs=1e-9)
            assert closed[1] == pytest.approx(reference[1], rel=1e-9, abs=1e-9)
            assert closed[1] >= closed[0]

    def test_rejects_asymmetric_matrix(self):
        bad = VACUUM4.copy()
        bad[0, 1] = 0.3
        with pytest.raises(ValidationError, match="symmetric"):
            symplectic_eigenvalues(bad)

    def test_rejects_far_negative_determinant(self):
        cov = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(NumericalError):
            symplectic_eigenvalues(cov)

    def test_stack_isolates_a_matrix_past_the_clamp_band(self):
        rng = np.random.default_rng(29)
        covs = [random_physical_covariance(rng) for _ in range(5)]
        covs = [0.5 * (cov + cov.T) for cov in covs]
        covs.insert(2, np.diag([1.0, -1.0, 1.0, 1.0]))  # past the band: an error
        covs.insert(4, np.diag([1.0, -1e-14, 1.0, 1.0]))  # inside it: one clamp
        results = entanglement_results(np.stack(covs))
        assert [i for i, r in enumerate(results) if i != 2 and r.clamped] == [4]
        assert isinstance(results[2], NumericalError)
        for i, cov in enumerate(covs):
            if i == 2:
                continue
            assert results[i] == entanglement_result(cov)
            if i == 4:
                assert results[i].nu_minus == 0.0
                continue
            reference = pt_symplectic_oracle(cov)
            assert results[i].nu_minus == pytest.approx(reference[0], rel=1e-9, abs=1e-9)
            assert results[i].nu_plus == pytest.approx(reference[1], rel=1e-9, abs=1e-9)

    def test_clamps_and_flags_boundary_cases(self):
        # Determinant a hair below zero: inside the clamp band, not an error.
        result = entanglement_result(np.diag([1.0, -1e-14, 1.0, 1.0]))
        assert result.nu_minus == 0.0
        assert result.clamped
        assert not entanglement_result(VACUUM4).clamped
        assert math.isinf(logarithmic_negativity(np.diag([1.0, 0.0, 1.0, 1.0])))

    @pytest.mark.parametrize("scale", [1e300, 1e160, 1e80])
    def test_overflowing_invariants_raise_validation_error(self, scale):
        # Entries past 1e154 overflow the norm of the symmetry check, past
        # 1e77 the determinant; tier-1 turns a numpy warning into an error.
        with pytest.raises(ValidationError, match="float range"):
            entanglement_result(scale * np.eye(4))

    def test_symmetry_check_survives_an_overflowing_norm(self):
        cov = 1e200 * np.eye(4)
        cov[0, 1] = 1e190
        with pytest.raises(ValidationError, match="symmetric"):
            entanglement_result(cov)
        result = entanglement_result(np.diag([1e160, 0.0, 1.0, 1.0]))
        assert (result.nu_minus, result.sigma) == (0.0, 1.0)


class TestLogarithmicNegativity:
    def test_vacuum_is_zero(self):
        assert logarithmic_negativity(VACUUM4) == 0.0

    @pytest.mark.parametrize("r", np.linspace(0.0, 3.0, 13))
    def test_two_mode_squeezed_value(self, r):
        value = logarithmic_negativity(two_mode_squeezed_covariance(r))
        assert value == pytest.approx(2.0 * r, abs=1e-9)

    def test_thermal_product_state_is_zero(self):
        cov = np.diag([1.3, 1.3, 2.1, 2.1])
        assert logarithmic_negativity(cov) == 0.0

    def test_local_symplectic_invariance(self):
        rng = np.random.default_rng(29)
        for _ in range(150):
            cov = random_physical_covariance(rng)
            local = np.zeros((4, 4))
            local[:2, :2] = random_symplectic(rng, 1)
            local[2:, 2:] = random_symplectic(rng, 1)
            rotated = local @ cov @ local.T
            assert logarithmic_negativity(rotated) == pytest.approx(
                logarithmic_negativity(cov), abs=1e-9
            )

    def test_entangled_steady_state(self):
        params = entangled_model()
        cov = solve_steady_covariance(build_drift(params), build_diffusion(params))
        value = logarithmic_negativity(reduce_to_modes(cov))
        assert value > 0.05

    def test_separable_steady_state(self):
        params = mild_model()
        cov = solve_steady_covariance(build_drift(params), build_diffusion(params))
        assert logarithmic_negativity(reduce_to_modes(cov)) == 0.0

    def test_monotone_nonincreasing_in_thermal_occupation(self):
        values = []
        for n_th in np.linspace(0.0, 0.12, 9):
            params = entangled_model(n_th=float(n_th))
            cov = solve_steady_covariance(
                build_drift(params), build_diffusion(params)
            )
            values.append(logarithmic_negativity(reduce_to_modes(cov)))
        assert values[0] > 0.0
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]


class TestSimonSeparability:
    def test_vacuum_separable(self):
        assert _separable(VACUUM4)

    def test_squeezed_entangled(self):
        assert not _separable(two_mode_squeezed_covariance(0.4))

    def test_consistency_with_negativity(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            cov = random_physical_covariance(rng)
            separable = _separable(cov)
            value = logarithmic_negativity(cov)
            assert separable == (value == 0.0)

    @given(st.floats(min_value=1e-3, max_value=3.0))
    @settings(max_examples=50, deadline=None)
    def test_squeezing_always_detected(self, r):
        cov = two_mode_squeezed_covariance(r)
        assert not _separable(cov)
        assert logarithmic_negativity(cov) > 0.0

    @given(
        st.floats(min_value=0.51, max_value=4.0),
        st.floats(min_value=0.51, max_value=4.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_thermal_products_always_separable(self, nu1, nu2):
        # Strictly off the nu_minus = 1/2 boundary: exactly on it (a vacuum
        # factor) the verdict is a floating-point knife edge, though negativity
        # and the Simon test still agree there by construction.
        cov = np.diag([nu1, nu1, nu2, nu2])
        assert _separable(cov)
        assert logarithmic_negativity(cov) == 0.0


class TestEntanglementResult:
    def test_bundles_consistent_fields(self):
        cov = two_mode_squeezed_covariance(0.6)
        result = entanglement_result(cov)
        assert result.nu_minus == pytest.approx(0.5 * math.exp(-1.2), rel=1e-9)
        assert result.log_negativity == pytest.approx(1.2, abs=1e-9)
        assert not result.simon_separable
        assert result.det_cov == pytest.approx(1.0 / 16.0, rel=1e-9)
        sigma_expected = 0.25 * (
            np.cosh(1.2) ** 2 + np.cosh(1.2) ** 2 + 2.0 * np.sinh(1.2) ** 2
        )
        assert result.sigma == pytest.approx(sigma_expected, rel=1e-9)

    def test_simon_inequality_form_matches(self):
        # Separable iff 4 det V' >= Sigma - 1/4, equivalent to nu_minus >= 1/2.
        rng = np.random.default_rng(37)
        for _ in range(200):
            result = entanglement_result(random_physical_covariance(rng))
            inequality_entangled = 4.0 * result.det_cov < result.sigma - 0.25
            assert inequality_entangled == (not result.simon_separable)
