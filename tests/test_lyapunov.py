from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from becmirror import (
    NumericalError,
    StabilityError,
    ValidationError,
    build_diffusion,
    build_drift,
    derive_parameters,
    integrate_covariance,
    model_params,
    residual,
    solve_steady_covariance,
    symplectic_form,
    thermal_occupation,
)
from becmirror.lyapunov import RESIDUAL_TOL, steady_covariances

from support import (
    TWO_PI,
    entangled_model,
    mild_model,
    random_stable_system,
    reference_input,
)


def damped_mode(gamma: float, omega: float, n_th: float):
    drift = np.array([[-gamma, omega], [-omega, -gamma]])
    diffusion = gamma * (2.0 * n_th + 1.0) * np.eye(2)
    return drift, diffusion


class TestStackedSolver:
    def test_stack_matches_single_solves_and_scipy(self):
        rng = np.random.default_rng(5)
        systems = [random_stable_system(rng, dim) for dim in (6, 6, 6, 6, 6)]
        drifts = np.stack([drift for drift, _ in systems])
        diffusions = np.stack([diffusion for _, diffusion in systems])
        covs, rel = steady_covariances(drifts, diffusions)
        for i, (drift, diffusion) in enumerate(systems):
            np.testing.assert_array_equal(covs[i], solve_steady_covariance(drift, diffusion))
            assert rel[i] == residual(drift, diffusion, covs[i]) <= RESIDUAL_TOL
            reference = scipy.linalg.solve_continuous_lyapunov(drift, -diffusion)
            np.testing.assert_allclose(covs[i], reference, rtol=1e-9, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 6),
        count=st.integers(1, 4),
        points=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_single_point_calls_and_scipy(self, dim, count, points, seed):
        # K = count distinct drifts shared by N = points random PSD
        # diffusions through a random group assignment.
        rng = np.random.default_rng(seed)
        drifts = np.stack([random_stable_system(rng, dim)[0] for _ in range(count)])
        diffusions = np.stack([random_stable_system(rng, dim)[1] for _ in range(points)])
        group = rng.integers(0, count, points)
        covs, rel = steady_covariances(drifts, diffusions, group)
        for i, (g, diffusion) in enumerate(zip(group, diffusions)):
            single, single_rel = steady_covariances(drifts[g][None], diffusion[None])
            np.testing.assert_array_equal(covs[i], single[0])
            assert rel[i] == single_rel[0]
            np.testing.assert_array_equal(covs[i], covs[i].T)
            reference = scipy.linalg.solve_continuous_lyapunov(drifts[g], -diffusion)
            gap = np.linalg.norm(covs[i] - reference) / np.linalg.norm(reference)
            assert gap <= 1e-9

    def test_singular_member_fails_the_whole_stack(self):
        # M = 0 makes the Lyapunov operator vanish.
        drifts = np.stack([-np.eye(6), np.zeros((6, 6))])
        with pytest.raises(NumericalError, match="singular"):
            steady_covariances(drifts, np.stack([np.eye(6), np.eye(6)]))

    def test_member_with_opposite_eigenvalue_pair_is_refused(self):
        # The rotation block has eigenvalues +-i: lambda_i + lambda_j = 0 for
        # i != j makes the operator singular although M itself is not.
        rotation = np.zeros((6, 6))
        rotation[:4, :4] = -np.eye(4)
        rotation[4:, 4:] = [[0.0, 1.0], [-1.0, 0.0]]
        drift, diffusion = random_stable_system(np.random.default_rng(8))
        drifts = np.stack([drift, rotation])
        diffusions = np.stack([diffusion, np.eye(6), diffusion])
        with pytest.raises(NumericalError, match="singular"):
            steady_covariances(drifts, diffusions, np.array([0, 1, 0]))


class TestSolver:
    def test_identity_case(self):
        cov = solve_steady_covariance(-np.eye(6), 2.0 * np.eye(6))
        np.testing.assert_allclose(cov, np.eye(6), atol=1e-14)

    @pytest.mark.parametrize("temperature", [0.0, 10e-6, 1e-3])
    def test_thermal_fixed_point(self, temperature):
        n_th = thermal_occupation(TWO_PI * 1e6, temperature)
        drift, diffusion = damped_mode(TWO_PI * 100.0, TWO_PI * 1e6, n_th)
        cov = solve_steady_covariance(drift, diffusion)
        np.testing.assert_allclose(
            cov, (n_th + 0.5) * np.eye(2), rtol=1e-10, atol=1e-12
        )

    def test_residual_gate_met_on_random_battery(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            drift, diffusion = random_stable_system(rng)
            cov = solve_steady_covariance(drift, diffusion)
            assert residual(drift, diffusion, cov) <= 1e-10
            np.testing.assert_allclose(cov, cov.T, atol=1e-15)

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            drift, diffusion = random_stable_system(rng)
            ours = solve_steady_covariance(drift, diffusion)
            reference = scipy.linalg.solve_lyapunov(drift, -diffusion)
            np.testing.assert_allclose(ours, reference, rtol=1e-8, atol=1e-12)

    def test_linear_in_diffusion_exactly(self):
        rng = np.random.default_rng(2)
        drift, diffusion = random_stable_system(rng)
        base = solve_steady_covariance(drift, diffusion)
        doubled = solve_steady_covariance(drift, 2.0 * diffusion)
        np.testing.assert_array_equal(doubled, 2.0 * base)
        scaled = solve_steady_covariance(drift, 3.7 * diffusion)
        np.testing.assert_allclose(scaled, 3.7 * base, rtol=1e-13)

    def test_unstable_raises(self):
        with pytest.raises(StabilityError, match="unstable"):
            solve_steady_covariance(np.eye(3), np.eye(3))

    def test_marginal_raises(self):
        rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(StabilityError, match="marginal"):
            solve_steady_covariance(rotation, np.eye(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            solve_steady_covariance(-np.eye(3), np.eye(2))

    def test_decoupled_limit_blocks(self):
        n_th = thermal_occupation(TWO_PI * 1e6, 10e-6)
        drift, diffusion = damped_mode(TWO_PI * 100.0, TWO_PI * 1e6, n_th)
        mech = solve_steady_covariance(drift, diffusion)
        np.testing.assert_allclose(
            mech, (n_th + 0.5) * np.eye(2), rtol=1e-10, atol=1e-12
        )
        cavity_drift = np.array([[-0.8, 1.2], [-1.2, -0.8]])
        cavity = solve_steady_covariance(cavity_drift, 0.8 * np.eye(2))
        np.testing.assert_allclose(
            cavity, 0.5 * np.eye(2), rtol=1e-10, atol=1e-12
        )

    def test_physicality_of_model_solutions(self):
        # V + (i/2) Omega >= 0, i.e. all symplectic eigenvalues >= 1/2.
        omega = symplectic_form(3)
        for params in (mild_model(), entangled_model(), mild_model(n_th=5.0)):
            cov = solve_steady_covariance(build_drift(params), build_diffusion(params))
            sympl = np.abs(np.linalg.eigvals(1j * omega @ cov))
            assert np.min(sympl) >= 0.5 - 1e-9


class TestResidual:
    def test_exact_solution_small(self):
        drift, diffusion = damped_mode(0.3, 1.1, 0.7)
        cov = solve_steady_covariance(drift, diffusion)
        assert residual(drift, diffusion, cov) <= 1e-10

    def test_zero_covariance_gives_one(self):
        drift, diffusion = damped_mode(0.3, 1.1, 0.7)
        assert residual(drift, diffusion, np.zeros((2, 2))) == pytest.approx(1.0)

    def test_perturbation_grows_linearly(self):
        drift, diffusion = damped_mode(0.3, 1.1, 0.7)
        cov = solve_steady_covariance(drift, diffusion)
        r1 = residual(drift, diffusion, cov + 1e-6 * np.eye(2))
        r2 = residual(drift, diffusion, cov + 1e-5 * np.eye(2))
        assert r2 / r1 == pytest.approx(10.0, rel=1e-3)

    def test_zero_diffusion_fallback(self):
        drift = -np.eye(2)
        value = residual(drift, np.zeros((2, 2)), np.eye(2))
        assert value == pytest.approx(np.linalg.norm(-2.0 * np.eye(2)))


class TestIntegrator:
    def test_fixed_point_is_preserved(self):
        params = mild_model()
        drift, diffusion = build_drift(params), build_diffusion(params)
        cov = solve_steady_covariance(drift, diffusion)
        advanced = integrate_covariance(drift, diffusion, cov, horizon=50.0, dt=0.01)
        np.testing.assert_allclose(advanced, cov, rtol=1e-9, atol=1e-12)

    def test_monotone_trace_relaxation(self):
        drift, diffusion = damped_mode(0.5, 1.0, 1.5)
        traces = []
        for horizon in (1.0, 2.0, 4.0, 8.0, 30.0):
            cov = integrate_covariance(drift, diffusion, None, horizon, dt=0.005)
            traces.append(np.trace(cov))
        assert all(a < b for a, b in zip(traces, traces[1:]))
        assert traces[-1] == pytest.approx(2.0 * 2.0, rel=1e-6)

    def test_fractional_final_step(self):
        drift, diffusion = damped_mode(0.5, 1.0, 1.5)
        aligned = integrate_covariance(drift, diffusion, None, 30.0, dt=0.005)
        ragged = integrate_covariance(drift, diffusion, None, 30.0017, dt=0.005)
        np.testing.assert_allclose(ragged, aligned, rtol=1e-5)

    def test_agreement_with_solver_on_random_battery(self):
        # A light battery; the full 100-system property runs in acceptance.
        rng = np.random.default_rng(3)
        for _ in range(30):
            drift, diffusion = random_stable_system(rng)
            eigs = np.linalg.eigvals(drift)
            slowest = abs(float(np.max(eigs.real)))
            fastest = float(np.max(np.abs(eigs)))
            direct = solve_steady_covariance(drift, diffusion)
            integrated = integrate_covariance(
                drift, diffusion, None, horizon=22.0 / slowest, dt=0.02 / fastest
            )
            gap = np.linalg.norm(integrated - direct) / np.linalg.norm(direct)
            assert gap <= 1e-6

    def test_canonical_system_agreement(self):
        # Full stiff 6x6 system of the canonical configuration at a stable
        # coupling.  RK4 stability is set by the pair eigenvalues l_i + l_j
        # of the matrix flow, hence the small step; the run takes tens of
        # seconds and is the only full-convergence check at this stiffness.
        derived = replace(derive_parameters(reference_input()), g_mc=100.0, g_ac=100.0)
        params = model_params(derived)
        drift, diffusion = build_drift(params), build_diffusion(params)
        slowest = abs(float(np.max(np.linalg.eigvals(drift).real)))
        direct = solve_steady_covariance(drift, diffusion)
        integrated = integrate_covariance(
            drift, diffusion, None, horizon=8.5 / slowest, dt=2.4e-8
        )
        gap = np.linalg.norm(integrated - direct) / np.linalg.norm(direct)
        assert gap <= 1e-6

    def test_blowup_reports_step_size(self):
        stiff = np.diag([-1.0, -1000.0])
        with pytest.raises(NumericalError, match="smaller dt"):
            integrate_covariance(stiff, np.eye(2), None, horizon=100.0, dt=0.01)

    def test_default_dt_requires_stable_drift(self):
        with pytest.raises(ValidationError, match="dt"):
            integrate_covariance(np.eye(2), np.eye(2), None, horizon=1.0)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValidationError):
            integrate_covariance(-np.eye(2), np.eye(2), None, horizon=0.0, dt=0.1)
