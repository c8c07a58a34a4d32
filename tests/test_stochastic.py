import logging
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from becmirror import (
    HomodyneRecord,
    NumericalError,
    ProbeCavity,
    QUADRATURES,
    StabilityError,
    TrajectoryRecord,
    ValidationError,
    build_diffusion,
    build_drift,
    derive_parameters,
    ensemble_covariance,
    homodyne_output,
    homodyne_weights,
    logarithmic_negativity,
    model_params,
    reconstruct_correlations,
    reduce_to_modes,
    simulate_trajectories,
    solve_steady_covariance,
)
from becmirror.stochastic import exact_transition

from support import entangled_model, mild_model, reference_input

DAMPED_DRIFT = np.array([[-0.5, 1.0], [-1.0, -0.5]])


def damped_diffusion(n_th: float) -> np.ndarray:
    return 0.5 * (2.0 * n_th + 1.0) * np.eye(2)


@pytest.fixture(scope="module")
def entangled_system():
    params = entangled_model()
    drift = build_drift(params)
    diffusion = build_diffusion(params)
    cov = solve_steady_covariance(drift, diffusion)
    return params, drift, diffusion, cov


@pytest.fixture(scope="module")
def relaxation_ensemble(entangled_system):
    _, drift, diffusion, _ = entangled_system
    return simulate_trajectories(
        drift, diffusion, None, dt=1e-3, horizon=260.0, seed=5, n_trajectories=10
    )


#: mechanical frequency of configs/demo.json, in s^-1
DEMO_OM_M = 2.0 * math.pi * 1e6
#: homodyne-sim's record interval on configs/demo.json: 40 samples per period
DEMO_DT = 2.0 * math.pi / (40.0 * DEMO_OM_M)


def five_probe_configs(kappa1, detuning1, coupling):
    """Mirror, condensate and joint probes at the phases homodyne-sim uses."""
    mirror = ProbeCavity(kappa1, detuning1, coupling, 0.0)
    bec = ProbeCavity(kappa1, detuning1, 0.0, coupling)
    both = ProbeCavity(kappa1, detuning1, coupling, coupling)
    return [
        (mirror, 0.0),
        (mirror, math.pi / 2.0),
        (bec, 0.0),
        (bec, math.pi / 2.0),
        (both, math.pi / 4.0),
    ]


@pytest.fixture(scope="module")
def probe_configs():
    return five_probe_configs(0.05, 1.0, 0.08)


@pytest.fixture(scope="module")
def stationary_record_sets(entangled_system, probe_configs):
    _, drift, diffusion, cov = entangled_system
    trajectories = simulate_trajectories(
        drift, diffusion, cov, dt=0.2, horizon=300.0, seed=99, n_trajectories=10
    )
    return [
        [
            homodyne_output(traj, probe, phase, noise_seed=7000 + traj.stream * 10 + c)
            for c, (probe, phase) in enumerate(probe_configs)
        ]
        for traj in trajectories
    ]


class TestSimulateTrajectory:
    def test_zero_noise_zero_start_stays_zero(self):
        (traj,) = simulate_trajectories(
            DAMPED_DRIFT, np.zeros((2, 2)), None,
            dt=0.02, horizon=5.0, seed=0, n_trajectories=1,
        )
        np.testing.assert_array_equal(traj.samples, np.zeros_like(traj.samples))

    def test_initial_covariance_sampling(self):
        cov0 = np.diag([4.0, 9.0])
        trajs = simulate_trajectories(
            DAMPED_DRIFT, damped_diffusion(0.0), cov0,
            dt=0.02, horizon=0.1, seed=2, n_trajectories=400,
        )
        starts = np.array([traj.samples[:, 0] for traj in trajs])
        sample_cov = np.cov(starts.T, bias=True)
        assert sample_cov[0, 0] == pytest.approx(4.0, rel=0.25)
        assert sample_cov[1, 1] == pytest.approx(9.0, rel=0.25)


class TestSimulateTrajectoriesExact:
    def test_step_matches_expm_and_lyapunov_increment(self):
        # Canonical stable point, step a tenth of the decorrelation time.  Q is
        # built from M and D alone; V - Phi V Phi^T only validates it here.
        derived = replace(derive_parameters(reference_input()), g_mc=100.0, g_ac=100.0)
        params = model_params(derived)
        drift, diffusion = build_drift(params), build_diffusion(params)
        cov = solve_steady_covariance(drift, diffusion)
        dt = 0.1 / abs(float(np.max(np.linalg.eigvals(drift).real)))
        phi, q = exact_transition(drift, diffusion, dt)
        # ||M dt|| ~ 1e4, so any exponential of M dt is conditioned to ~1e-12.
        np.testing.assert_allclose(phi, expm(drift * dt), rtol=0, atol=1e-10)
        increment = cov - phi @ cov @ phi.T
        assert np.linalg.norm(q - increment) <= 1e-10 * np.linalg.norm(increment)

    def test_identical_calls_bit_identical(self):
        kwargs = dict(dt=0.3, horizon=30.0, seed=11, n_trajectories=3, first_stream=2)
        p = mild_model()
        drift, diffusion = build_drift(p), build_diffusion(p)
        a = simulate_trajectories(drift, diffusion, np.eye(6), **kwargs)
        b = simulate_trajectories(drift, diffusion, np.eye(6), **kwargs)
        assert [(t.seed, t.stream) for t in a] == [(11, 2), (11, 3), (11, 4)]
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.samples, tb.samples)
            np.testing.assert_array_equal(ta.times, tb.times)
        assert not np.array_equal(a[0].samples, a[1].samples)

    def test_stream_independent_of_trajectory_count(self):
        # The record of stream 4 depends only on its own key: alone, or beside
        # other streams, it agrees to the round-off of the batched product.
        p = mild_model()
        drift, diffusion = build_drift(p), build_diffusion(p)
        kwargs = dict(dt=0.3, horizon=300.0, seed=11)
        alone = simulate_trajectories(
            drift, diffusion, np.eye(6), n_trajectories=1, first_stream=4, **kwargs
        )[0]
        batched = simulate_trajectories(
            drift, diffusion, np.eye(6), n_trajectories=5, **kwargs
        )[4]
        assert alone.stream == batched.stream == 4
        np.testing.assert_allclose(alone.samples, batched.samples, rtol=0, atol=1e-12)

    def test_grid_shape(self):
        trajs = simulate_trajectories(
            DAMPED_DRIFT, damped_diffusion(0.0), None,
            dt=0.01, horizon=2.0, seed=1, n_trajectories=2,
        )
        for traj in trajs:
            assert traj.samples.shape == (2, 201)
            assert traj.dt == 0.01
            np.testing.assert_allclose(np.diff(traj.times), 0.01)

    def test_steps_beyond_the_euler_gate_thermalize(self):
        # dt = 1 exceeds this mode's Euler-Maruyama mean-square stability
        # limit 2 |Re l| / |l|^2 = 0.8; the exact transition is unbiased at any
        # step.
        n_th = 1.5
        trajs = simulate_trajectories(
            DAMPED_DRIFT, damped_diffusion(n_th), None,
            dt=1.0, horizon=2000.0, seed=4, n_trajectories=4,
        )
        estimate, stderr = ensemble_covariance(trajs, burn_in=20.0)
        target = (n_th + 0.5) * np.eye(2)
        assert np.all(np.abs(estimate - target) <= 3.0 * stderr)

    @pytest.mark.parametrize(
        "drift, cov0, kwargs, error",
        [
            (np.eye(2), None, {}, StabilityError),
            (DAMPED_DRIFT, None, {"dt": 0.0}, ValidationError),
            (DAMPED_DRIFT, None, {"dt": -0.1}, ValidationError),
            (DAMPED_DRIFT, None, {"dt": math.nan}, ValidationError),
            (DAMPED_DRIFT, None, {"horizon": 0.0}, ValidationError),
            (DAMPED_DRIFT, None, {"horizon": math.inf}, ValidationError),
            (DAMPED_DRIFT, -np.eye(2), {}, ValidationError),
            (DAMPED_DRIFT, None, {"n_trajectories": 0}, ValidationError),
            (DAMPED_DRIFT, None, {"horizon": 1e8, "n_trajectories": 4}, ValidationError),
            (DAMPED_DRIFT, None, {"seed": -1}, ValidationError),
            (DAMPED_DRIFT, None, {"seed": 1.5}, ValidationError),
            (DAMPED_DRIFT, None, {"first_stream": -1}, ValidationError),
            (DAMPED_DRIFT, np.eye(3), {}, ValidationError),
            (-np.eye(3), None, {}, ValidationError),
            (DAMPED_DRIFT, None, {"n_trajectories": 1.5}, ValidationError),
            (DAMPED_DRIFT, None, {"dt": "x"}, ValidationError),
            (DAMPED_DRIFT, None, {"first_stream": 0.5}, ValidationError),
        ],
    )
    def test_rejects_bad_input(self, drift, cov0, kwargs, error):
        args = dict(dt=0.02, horizon=1.0, seed=0, n_trajectories=1)
        args.update(kwargs)
        with pytest.raises(error):
            simulate_trajectories(drift, damped_diffusion(0.0), cov0, **args)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("argument", ["drift", "diffusion", "cov0"])
    def test_rejects_non_finite_matrices(self, argument, value):
        matrices = dict(drift=DAMPED_DRIFT.copy(), diffusion=damped_diffusion(0.5),
                        cov0=np.eye(2))
        matrices[argument][0, 0] = value
        with pytest.raises(ValidationError, match="non-finite"):
            simulate_trajectories(
                matrices["drift"], matrices["diffusion"], matrices["cov0"],
                dt=0.1, horizon=1.0, seed=0, n_trajectories=1,
            )

    def test_rejects_indefinite_diffusion(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            simulate_trajectories(
                DAMPED_DRIFT, np.diag([1.0, -1.0]), None,
                dt=0.02, horizon=1.0, seed=0, n_trajectories=1,
            )


class TestEnsembleCovariance:
    def test_zero_noise_gives_zero_covariance(self):
        trajs = simulate_trajectories(
            DAMPED_DRIFT, np.zeros((2, 2)), None,
            dt=0.02, horizon=50.0, seed=3, n_trajectories=2,
        )
        estimate, stderr = ensemble_covariance(trajs, burn_in=10.0)
        np.testing.assert_array_equal(estimate, np.zeros((2, 2)))
        np.testing.assert_array_equal(stderr, np.zeros((2, 2)))

    def test_single_damped_mode_thermalizes(self):
        n_th = 1.5
        trajs = simulate_trajectories(
            DAMPED_DRIFT, damped_diffusion(n_th), None,
            dt=0.01, horizon=400.0, seed=4, n_trajectories=4,
        )
        estimate, stderr = ensemble_covariance(trajs, burn_in=20.0)
        target = (n_th + 0.5) * np.eye(2)
        assert np.all(np.abs(estimate - target) <= 3.0 * stderr + 1e-12)

    def test_full_system_matches_lyapunov_within_3_sigma(
        self, entangled_system, relaxation_ensemble
    ):
        _, _, _, cov = entangled_system
        estimate, stderr = ensemble_covariance(relaxation_ensemble, burn_in=60.0)
        z = np.abs(estimate - cov) / np.where(stderr > 0, stderr, 1.0)
        assert np.max(z) <= 3.0

    def test_insufficient_batches_rejected(self):
        trajs = simulate_trajectories(
            DAMPED_DRIFT, damped_diffusion(0.0), None,
            dt=0.02, horizon=5.0, seed=6, n_trajectories=1,
        )
        with pytest.raises(ValidationError, match="trajectories"):
            ensemble_covariance(trajs, burn_in=4.0, batch_length=1.0)

    def test_burn_in_longer_than_horizon_rejected(self):
        trajs = simulate_trajectories(
            DAMPED_DRIFT, damped_diffusion(0.0), None,
            dt=0.02, horizon=5.0, seed=6, n_trajectories=1,
        )
        with pytest.raises(ValidationError, match="burn_in"):
            ensemble_covariance(trajs, burn_in=10.0)

    @pytest.mark.parametrize("burn_in", [-5.0, math.nan, -math.inf])
    def test_negative_or_non_finite_burn_in_rejected(self, burn_in):
        trajs = simulate_trajectories(
            DAMPED_DRIFT, damped_diffusion(0.0), None,
            dt=0.02, horizon=5.0, seed=6, n_trajectories=2,
        )
        with pytest.raises(ValidationError, match="burn_in"):
            ensemble_covariance(trajs, burn_in=burn_in)

    def test_weak_convergence_rate(self):
        # Error against the exact fixed point falls like 1/sqrt(samples) over
        # three decades of accumulated time (stationary start, no burn-in).
        target = (0.5 + 0.5) * np.eye(2)
        errors = []
        horizons = [12.5, 125.0, 1250.0]
        for horizon in horizons:
            reps = []
            for rep in range(3):
                trajs = simulate_trajectories(
                    DAMPED_DRIFT, damped_diffusion(0.5), target,
                    dt=0.02, horizon=horizon, seed=100 + rep, n_trajectories=8,
                )
                estimate, _ = ensemble_covariance(
                    trajs, burn_in=0.0, batch_length=horizon / 8.0
                )
                reps.append(np.linalg.norm(estimate - target))
            errors.append(np.mean(reps))
        slope = np.polyfit(np.log(horizons), np.log(errors), 1)[0]
        assert -0.75 <= slope <= -0.25

    def test_randomized_battery_matches_lyapunov(self):
        # Strongly damped random systems: ensemble estimate within 3.5 sigma
        # elementwise of the algebraic steady state.  The fine record interval
        # (a fraction of every mode's timescale) stays tied to these seeds:
        # the bound is tight for batch-means errors over 40 decay times, and
        # about one seed set in seven exceeds it at any interval.
        rng = np.random.default_rng(77)
        for index in range(5):
            drift = rng.normal(size=(4, 4))
            drift -= (float(np.max(np.linalg.eigvals(drift).real))
                      + rng.uniform(1.0, 2.0)) * np.eye(4)
            root = rng.normal(size=(4, 4))
            diffusion = root @ root.T / 4.0
            cov = solve_steady_covariance(drift, diffusion)
            eigs = np.linalg.eigvals(drift)
            dt_ms = float(np.min(2.0 * np.abs(eigs.real) / np.abs(eigs) ** 2))
            dt = min(0.02 / float(np.max(np.abs(eigs))), 0.05 * dt_ms)
            slowest = abs(float(np.max(eigs.real)))
            trajs = simulate_trajectories(
                drift, diffusion, cov, dt=dt, horizon=40.0 / slowest,
                seed=500 + index, n_trajectories=4,
            )
            estimate, stderr = ensemble_covariance(trajs, burn_in=0.0)
            z = np.abs(estimate - cov) / np.where(stderr > 0, stderr, 1.0)
            assert np.max(z) <= 3.5

    def test_step_refinement_within_statistical_error(self):
        # Records 20x apart in resolution estimate the same covariance.
        target = (0.5 + 0.5) * np.eye(2)
        results = []
        for dt in (0.4, 0.02):
            trajs = simulate_trajectories(
                DAMPED_DRIFT, damped_diffusion(0.5), target,
                dt=dt, horizon=500.0, seed=42, n_trajectories=6,
            )
            results.append(ensemble_covariance(trajs, burn_in=0.0))
        (coarse, err_c), (fine, err_f) = results
        combined = np.sqrt(err_c**2 + err_f**2)
        assert np.all(np.abs(coarse - fine) <= 3.0 * combined + 1e-12)


class TestHomodyneOutput:
    @pytest.mark.parametrize("kappa1, outside", [(0.05, False), (0.5, True)])
    def test_validity_warning_logged_only_outside_the_regime(self, caplog, kappa1,
                                                             outside):
        # The adiabatic readout needs detuning1 > 10 max(kappa1, G_mc1, G_ac1).
        traj = TrajectoryRecord(times=0.5 * np.arange(8), samples=np.ones((6, 8)), dt=0.5,
                                seed=0, stream=0)
        probe = ProbeCavity(kappa1, 1.0, 0.08, 0.0)
        assert probe.validity() is (not outside)
        with caplog.at_level(logging.WARNING, logger="becmirror.stochastic"):
            homodyne_output(traj, probe, 0.0, noise_seed=3)
        assert ("outside its validity regime" in caplog.text) is outside

    def test_requires_noise_seed(self):
        (traj,) = simulate_trajectories(
            build_drift(mild_model()), build_diffusion(mild_model()), None,
            dt=0.025, horizon=5.0, seed=1, n_trajectories=1,
        )
        probe = ProbeCavity(0.05, 1.0, 0.08, 0.0)
        with pytest.raises(ValidationError, match="noise_seed"):
            homodyne_output(traj, probe, 0.0, noise_seed=None)

    def test_vacuum_passthrough_variance(self):
        # Decoupled probe: the record is pure input noise with per-sample
        # quadrature variance 1/(2 dt_record).
        params = mild_model()
        (traj,) = simulate_trajectories(
            build_drift(params), build_diffusion(params), None,
            dt=0.2, horizon=2500.0, seed=8, n_trajectories=1,
        )
        probe = ProbeCavity(0.05, 1.0, 0.0, 0.0)
        record = homodyne_output(traj, probe, 0.7, noise_seed=12)
        expected = 1.0 / (2.0 * record.dt)
        assert record.dt == pytest.approx(0.2)
        assert np.var(record.values) == pytest.approx(expected, rel=0.05)

    def test_mirror_only_signal_content(self):
        # Strong deterministic signal, no diffusion: the record must equal the
        # rotating-frame mirror momentum up to the vacuum noise floor.
        params = mild_model()
        drift = build_drift(params)
        amp = 1e4
        (traj,) = simulate_trajectories(
            drift, np.zeros((6, 6)), amp * np.eye(6),
            dt=0.1, horizon=40.0, seed=9, n_trajectories=1,
        )
        probe = ProbeCavity(0.05, 1.0, 0.08, 0.0)
        record = homodyne_output(traj, probe, 0.0, noise_seed=13)
        times = record.times
        q_m, p_m = traj.samples[0], traj.samples[1]
        rotated_momentum = np.sin(times) * q_m + np.cos(times) * p_m
        expected = -(0.08 / (2.0 * 0.05)) * rotated_momentum
        noise_floor = math.sqrt(1.0 / (2.0 * record.dt))
        assert np.max(np.abs(record.values - expected)) <= 6.0 * noise_floor

    def test_phase_selects_quadrature(self):
        params = mild_model()
        (traj,) = simulate_trajectories(
            build_drift(params), np.zeros((6, 6)), 1e4 * np.eye(6),
            dt=0.1, horizon=40.0, seed=10, n_trajectories=1,
        )
        probe = ProbeCavity(0.05, 1.0, 0.08, 0.0)
        q_record = homodyne_output(traj, probe, math.pi / 2.0, noise_seed=14)
        q_m, p_m = traj.samples[0], traj.samples[1]
        rotated_position = np.cos(q_record.times) * q_m - np.sin(q_record.times) * p_m
        expected = (0.08 / (2.0 * 0.05)) * rotated_position
        noise_floor = math.sqrt(1.0 / (2.0 * q_record.dt))
        assert np.max(np.abs(q_record.values - expected)) <= 6.0 * noise_floor

    @settings(max_examples=200, deadline=None)
    @given(
        fields=st.tuples(*[st.floats(5e-324, 1e308)] * 4),
        phase=st.sampled_from([0.0, math.pi / 4.0, math.pi / 2.0]),
    )
    def test_extreme_probes_give_finite_records_or_refusal(self, fields, phase):
        # ProbeCavity accepts any positive finite kappa1 and detuning1, so the
        # gain G / (2 kappa1) and the rotation detuning1 * t can leave the
        # float range; that must be a refusal, not a warning or a NaN record.
        samples = np.random.default_rng(4).standard_normal((6, 8))
        traj = TrajectoryRecord(
            times=0.5 * np.arange(8), samples=samples, dt=0.5, seed=0, stream=0
        )
        probe = ProbeCavity(*fields)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                record = homodyne_output(traj, probe, phase, noise_seed=3)
            except ValidationError:
                return
        assert np.isfinite(record.values).all()

    def test_weights_shape_and_scale(self):
        probe = ProbeCavity(0.05, 1.0, 0.08, 0.04)
        times = np.linspace(0.0, 10.0, 101)
        weights = homodyne_weights(probe, 0.3, 1.0, times)
        assert weights.shape == (4, 101)
        norms = np.linalg.norm(weights, axis=0)
        expected = np.hypot(0.08, 0.04) / (2.0 * 0.05)
        np.testing.assert_allclose(norms, expected, rtol=1e-12)


def _constant_record_sets(states, configs, times, dt, noise_seed_base=None):
    """Records for time-constant lab-frame states (synthetic test inputs)."""
    sets = []
    for index, state in enumerate(states):
        records = []
        for c, (probe, phase) in enumerate(configs):
            weights = homodyne_weights(probe, phase, probe.detuning1, times)
            values = weights.T @ state
            seed = None
            if noise_seed_base is not None:
                seed = noise_seed_base + index * len(configs) + c
                rng = np.random.Generator(
                    np.random.Philox(np.random.SeedSequence([seed]))
                )
                sigma = math.sqrt(1.0 / (2.0 * dt))
                xi = rng.standard_normal((2, len(times))) * sigma
                values = values + math.cos(phase) * xi[0] + math.sin(phase) * xi[1]
            records.append(
                HomodyneRecord(
                    times=times, values=values, phase=phase, probe=probe,
                    rotation=probe.detuning1, dt=dt, noise_seed=seed,
                )
            )
        sets.append(records)
    return sets


class TestReconstructCorrelations:
    @pytest.mark.parametrize(
        "kappa1, detuning1, coupling, times, max_times",
        [
            (0.05, 1.0, 0.08, np.linspace(0.0, 40.0, 300), 2000),
            # homodyne-sim's probes on configs/demo.json at a weak coupling:
            # the design's entries are ~1e-14, so identifiability must not
            # hang on an absolute tolerance.
            (DEMO_OM_M / 20.0, DEMO_OM_M, 0.1, DEMO_DT * np.arange(400), 200),
        ],
        ids=["unit_probe", "weak_demo_probe"],
    )
    def test_noiseless_synthetic_exact_recovery(
        self, kappa1, detuning1, coupling, times, max_times
    ):
        target = np.array(
            [
                [0.9, 0.1, 0.2, -0.1],
                [0.1, 0.7, 0.0, 0.15],
                [0.2, 0.0, 0.8, -0.05],
                [-0.1, 0.15, -0.05, 1.1],
            ]
        )
        root = np.linalg.cholesky(target)
        # Eight deterministic states whose empirical second moment is exactly
        # the target: +-2 L e_i.
        states = [sign * 2.0 * root[:, i] for i in range(4) for sign in (1.0, -1.0)]
        configs = five_probe_configs(kappa1, detuning1, coupling)
        sets = _constant_record_sets(states, configs, times, dt=times[1] - times[0])
        estimate, stderr = reconstruct_correlations(
            sets, noise_variance=0.0, max_times=max_times
        )
        np.testing.assert_allclose(estimate, target, atol=1e-8)

    def test_vacuum_records_recover_half_identity(self, probe_configs):
        rng = np.random.default_rng(22)
        states = list(rng.normal(scale=math.sqrt(0.5), size=(500, 4)))
        times = np.linspace(0.0, 40.0, 200)
        sets = _constant_record_sets(
            states, probe_configs, times, dt=0.2, noise_seed_base=50_000
        )
        estimate, stderr = reconstruct_correlations(sets)
        z = np.abs(estimate - 0.5 * np.eye(4)) / np.where(stderr > 0, stderr, 1.0)
        assert np.max(z) <= 4.0

    def test_full_pipeline_covariance_and_negativity(
        self, entangled_system, stationary_record_sets
    ):
        _, _, _, cov = entangled_system
        reduced = reduce_to_modes(cov)
        estimate, stderr = reconstruct_correlations(stationary_record_sets)
        z = np.abs(estimate - reduced) / np.where(stderr > 0, stderr, 1.0)
        assert np.max(z) <= 3.5

        negativity_true = logarithmic_negativity(reduced)
        negativity_est = logarithmic_negativity(0.5 * (estimate + estimate.T))
        # Propagate the reconstruction error bars through the negativity by
        # resampling perturbed covariance estimates.
        rng = np.random.default_rng(1)
        spread = []
        for _ in range(200):
            perturbed = estimate + rng.normal(size=(4, 4)) * stderr
            perturbed = 0.5 * (perturbed + perturbed.T)
            try:
                spread.append(logarithmic_negativity(perturbed))
            except NumericalError:
                continue
        sigma = max(float(np.std(spread)), 1e-6)
        assert negativity_true > 0.0
        assert abs(negativity_est - negativity_true) <= 3.0 * sigma

    @pytest.mark.parametrize(
        "configs, times, identified",
        [
            # Mirror-only probes leave every entry with a condensate
            # quadrature in it, and nothing else, unidentified.
            (
                [(ProbeCavity(0.05, 1.0, 0.08, 0.0), 0.0)],
                np.linspace(0.0, 2.0, 40),
                ["q_m*q_m", "q_m*p_m", "p_m*p_m"],
            ),
            # A design of 15 x 2000 rows: the refusal must not factorize it.
            (
                [
                    (ProbeCavity(0.05, 1.0, 0.08 * (1 + k), 0.0), k * math.pi / 5.0)
                    for k in range(5)
                ],
                np.linspace(0.0, 200.0, 2000),
                ["q_m*q_m", "q_m*p_m", "p_m*p_m"],
            ),
            # Uncoupled probes give an all-zero design.
            ([(ProbeCavity(0.05, 1.0, 0.0, 0.0), 0.0)], np.linspace(0.0, 2.0, 40), []),
        ],
        ids=["one_mirror_probe", "five_mirror_probes", "uncoupled_probe"],
    )
    def test_rank_deficient_configuration_reported(self, configs, times, identified):
        states = [np.ones(4), -np.ones(4)]
        sets = _constant_record_sets(states, configs, times, dt=times[1] - times[0])
        with pytest.raises(ValidationError) as error:
            reconstruct_correlations(sets, noise_variance=0.0)
        listed = str(error.value).split(": ")[1].split(";")[0].split(", ")
        assert listed == sorted(
            label
            for p in range(4)
            for q in range(p, 4)
            if (label := f"{QUADRATURES[p]}*{QUADRATURES[q]}") not in identified
        )

    def test_factorizes_nothing_taller_than_the_unknowns(self, monkeypatch):
        # Ten unknowns need no factorization of the 33,270-row design that
        # homodyne-sim builds; a tall SVD or QR there costs time and, on a
        # refusal, a rows x rows matrix.
        for name in ("svd", "pinv", "matrix_rank", "lstsq", "qr"):

            def guarded(a, *args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                if np.ndim(a) >= 2 and np.shape(a)[-2] > 10:
                    raise AssertionError(f"np.linalg.{_name} on shape {np.shape(a)}")
                return _call(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, guarded)
        state = np.array([1.0, -0.5, 0.25, 2.0])
        times = DEMO_DT * np.arange(4436)
        configs = five_probe_configs(DEMO_OM_M / 20.0, DEMO_OM_M, DEMO_OM_M / 400.0)
        sets = _constant_record_sets([state, -state], configs, times, dt=DEMO_DT)
        estimate, _ = reconstruct_correlations(sets, noise_variance=0.0)
        np.testing.assert_allclose(estimate, np.outer(state, state), atol=1e-10)

    def test_fit_memory_stays_below_one_design(self):
        # homodyne-sim's shape: five probes, 4,436 samples kept at stride 2.
        # Its design, 15 pairs x 2,218 kept times x 10 columns, is 2.54 MiB;
        # the pair-by-pair accumulation must never hold that much at once.
        state = np.array([1.0, -0.5, 0.25, 2.0])
        times = DEMO_DT * np.arange(4436)
        configs = five_probe_configs(DEMO_OM_M / 20.0, DEMO_OM_M, DEMO_OM_M / 400.0)
        sets = _constant_record_sets([state, -state], configs, times, dt=DEMO_DT)
        pairs = len(configs) * (len(configs) + 1) // 2
        kept = len(range(0, len(times), len(times) // 2000))
        design_bytes = pairs * kept * 10 * 8
        tracemalloc.start()
        try:
            estimate, _ = reconstruct_correlations(sets, noise_variance=0.0, max_times=2000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(estimate, np.outer(state, state), atol=1e-10)
        assert peak < design_bytes, f"peak {peak / 2**20:.2f} MiB"

    def test_matches_per_trajectory_least_squares(self, stationary_record_sets):
        first = stationary_record_sets[0]
        weights = [
            homodyne_weights(rec.probe, rec.phase, rec.rotation, rec.times)
            for rec in first
        ]
        entries = [(p, q) for p in range(4) for q in range(p, 4)]
        pairs = [(i, j) for i in range(len(first)) for j in range(i, len(first))]
        design = np.vstack(
            [
                np.column_stack(
                    [
                        weights[i][p] * weights[j][q]
                        + (weights[i][q] * weights[j][p] if p != q else 0.0)
                        for p, q in entries
                    ]
                )
                for i, j in pairs
            ]
        )
        noise = 1.0 / (2.0 * first[0].dt)
        solutions = np.array(
            [
                np.linalg.lstsq(
                    design,
                    np.concatenate(
                        [
                            records[i].values * records[j].values - (noise if i == j else 0.0)
                            for i, j in pairs
                        ]
                    ),
                    rcond=None,
                )[0]
                for records in stationary_record_sets
            ]
        )
        mean = solutions.mean(axis=0)
        sem = solutions.std(axis=0, ddof=1) / math.sqrt(len(solutions))

        # The mean of an off-diagonal entry can cancel to 1e-4 of the
        # solutions it averages, so it is held to their size.
        size = np.abs(solutions).max(axis=0)

        estimate, stderr = reconstruct_correlations(stationary_record_sets)
        for col, (p, q) in enumerate(entries):
            assert estimate[p, q] == estimate[q, p]
            assert abs(estimate[p, q] - mean[col]) <= 1e-12 * size[col]
            assert stderr[p, q] == pytest.approx(sem[col], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("kappa1", [1e-300, 5e-324],
                             ids=["products_overflow", "gains_overflow"])
    def test_design_out_of_float_range_refused(self, kappa1):
        # G / (2 kappa1) is 5e299 at kappa1 = 1e-300, so the products of the
        # weights overflow; at 5e-324 the gain itself is inf.  Either design
        # must be refused before its Gram matrix is formed.
        configs = [(ProbeCavity(kappa1, 1.0, 1.0, 1.0), k * math.pi / 5.0) for k in range(5)]
        times = np.linspace(0.0, 2.0, 40)
        with np.errstate(over="ignore", invalid="ignore"):  # the synthetic records
            sets = _constant_record_sets([np.ones(4), -np.ones(4)], configs, times,
                                         dt=times[1] - times[0])
        with pytest.raises(ValidationError, match="float range"):
            reconstruct_correlations(sets, noise_variance=0.0)

    def test_requires_two_trajectories(self, probe_configs):
        times = np.linspace(0.0, 2.0, 20)
        sets = _constant_record_sets([np.ones(4)], probe_configs, times, dt=0.1)
        with pytest.raises(ValidationError, match="2"):
            reconstruct_correlations(sets, noise_variance=0.0)

    def test_duplicate_noise_seeds_rejected(self, probe_configs):
        times = np.linspace(0.0, 2.0, 20)
        sets = _constant_record_sets(
            [np.ones(4), np.zeros(4)], probe_configs, times, dt=0.1,
            noise_seed_base=77,
        )
        clashing = [
            [
                HomodyneRecord(
                    times=r.times, values=r.values, phase=r.phase, probe=r.probe,
                    rotation=r.rotation, dt=r.dt, noise_seed=123,
                )
                for r in records
            ]
            for records in sets
        ]
        with pytest.raises(ValidationError, match="distinct"):
            reconstruct_correlations(clashing)

    def test_mismatched_configurations_rejected(self, probe_configs):
        times = np.linspace(0.0, 2.0, 20)
        sets = _constant_record_sets(
            [np.ones(4), np.zeros(4)], probe_configs, times, dt=0.1,
            noise_seed_base=88,
        )
        swapped = [sets[0], list(reversed(sets[1]))]
        with pytest.raises(ValidationError, match="configurations"):
            reconstruct_correlations(swapped)
