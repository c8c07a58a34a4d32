"""Acceptance suite.

One test per acceptance criterion, each printing a single
``ACCEPTANCE <n>: PASS/FAIL - detail`` line (run with ``-s`` to see the lines
for passing criteria as well).

Criteria 4, 5 and 6 assert reference operating values of the canonical
configuration (log-negativity 0.15/0.20 at g = 300, vanishing temperatures of
20/100 uK, a detuning window around 4.5 om_m).  These values exist only in
this file; the paper text that would confirm them is not in the repository.
The quoted points are far past the stability boundary (G_mc of about 6.7 om_m
at g = 300 rad/s, 60-90 om_m for criteria 5 and 6), where the eigenvalues
and the closed-form product criterion agree that the drift is unstable, and a
survey of the model at the canonical kappa = 7.5 om_m and n_th = 0.0083
(detuning 0.2-10 om_m, G_mc and G_ac 0-8 om_m, gamma up to 0.33 om_m) finds
no stable entangled point.  Those tests are implemented faithfully and fail
with the measured numbers (see the README's acceptance-status section).

Criterion 7 runs at the canonical stable point with the exact-transition
sampler, whose step is not limited by the cavity's stiffness; its companion
test keeps the same contract on a non-stiff entangled system.
"""

import time
from dataclasses import replace

import numpy as np

from becmirror import (
    AxisSpec,
    ModelParams,
    SweepSpec,
    build_diffusion,
    build_drift,
    check_stability_criterion,
    check_stability_eigen,
    derive_parameters,
    ensemble_covariance,
    logarithmic_negativity,
    model_params,
    reduce_to_modes,
    residual,
    run_sweep,
    simulate_trajectories,
    solve_steady_covariance,
    symplectic_eigenvalues,
    thermal_occupation,
)

from becmirror.sweep import BLOCK_POINTS

from support import (
    TWO_PI,
    emitted,
    entangled_model,
    integrate_covariance,
    pt_symplectic_oracle,
    random_physical_covariance,
    random_stable_system,
    reference_input,
    two_mode_squeezed_covariance,
)


def report(criterion: int, passed: bool, detail: str) -> str:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    return line


class TestCriterion1LyapunovCorrectness:
    def test_randomized_solver_and_integrator_agreement(self):
        rng = np.random.default_rng(1001)
        worst_residual = 0.0
        worst_gap = 0.0
        for _ in range(100):
            drift, diffusion = random_stable_system(rng)
            cov = solve_steady_covariance(drift, diffusion)
            worst_residual = max(worst_residual, residual(drift, diffusion, cov))
            eigs = np.linalg.eigvals(drift)
            slowest = abs(float(np.max(eigs.real)))
            fastest = float(np.max(np.abs(eigs)))
            integrated = integrate_covariance(
                drift, diffusion, None, horizon=22.0 / slowest, dt=0.02 / fastest
            )
            gap = np.linalg.norm(integrated - cov) / np.linalg.norm(cov)
            worst_gap = max(worst_gap, float(gap))
        ok = worst_residual <= 1e-10 and worst_gap <= 1e-6
        line = report(
            1,
            ok,
            f"100 random stable systems: max residual {worst_residual:.2e} "
            f"(<= 1e-10), max solver/integrator gap {worst_gap:.2e} (<= 1e-6)",
        )
        assert ok, line


class TestCriterion2ThermalFixedPoint:
    def test_uncoupled_mirror_thermalizes(self):
        om_m = TWO_PI * 1e6
        gamma = TWO_PI * 100.0
        worst = 0.0
        for temperature in (0.0, 10e-6, 1e-3):
            n_th = thermal_occupation(om_m, temperature)
            drift = np.array([[-gamma, om_m], [-om_m, -gamma]])
            diffusion = gamma * (2.0 * n_th + 1.0) * np.eye(2)
            cov = solve_steady_covariance(drift, diffusion)
            target = (n_th + 0.5) * np.eye(2)
            worst = max(worst, float(np.max(np.abs(cov - target))) / (n_th + 0.5))
        ok = worst <= 1e-10
        line = report(
            2,
            ok,
            f"uncoupled mirror covariance matches (n_th + 1/2) I at "
            f"T in (0, 10 uK, 1 mK); worst relative deviation {worst:.2e} (<= 1e-10)",
        )
        assert ok, line


class TestCriterion3EntanglementOracle:
    def test_closed_form_matches_eigen_oracle_and_squeezed_family(self):
        rng = np.random.default_rng(1003)
        worst_nu = 0.0
        for _ in range(1000):
            cov = random_physical_covariance(rng)
            closed_minus, closed_plus = symplectic_eigenvalues(cov)
            oracle_minus, oracle_plus = pt_symplectic_oracle(cov)
            worst_nu = max(
                worst_nu,
                abs(closed_minus - oracle_minus) / max(oracle_minus, 1e-12),
                abs(closed_plus - oracle_plus) / max(oracle_plus, 1e-12),
            )
        worst_en = 0.0
        for r in np.linspace(0.0, 3.0, 61):
            value = logarithmic_negativity(two_mode_squeezed_covariance(float(r)))
            worst_en = max(worst_en, abs(value - 2.0 * float(r)))
        ok = worst_nu <= 1e-9 and worst_en <= 1e-9
        line = report(
            3,
            ok,
            f"1000 random physical states: worst nu mismatch {worst_nu:.2e} "
            f"(<= 1e-9); squeezed family r in [0, 3]: worst |E_N - 2r| "
            f"{worst_en:.2e} (<= 1e-9)",
        )
        assert ok, line


# Reference operating values for the canonical configuration:
# (detuning, expected E_N, tolerance).
CANONICAL_TARGETS = (
    (TWO_PI * 2e6, 0.15, 0.07),
    (TWO_PI * 3e6, 0.20, 0.07),
)


def _canonical_negativity(coupling: float, detuning: float):
    """Pipeline value at the canonical configuration with both couplings set."""
    derived = replace(
        derive_parameters(reference_input()), g_mc=coupling, g_ac=coupling
    )
    params = model_params(derived, detuning)
    drift = build_drift(params)
    rep = check_stability_eigen(drift, params)
    if not rep.is_stable:
        return None, rep
    cov = solve_steady_covariance(drift, build_diffusion(params), check_stability=False)
    return logarithmic_negativity(reduce_to_modes(cov)), rep


class TestCriterion4CanonicalOperatingValues:
    def test_negativity_at_quoted_couplings(self):
        lines = []
        values = {}
        for unit, factor in (("rad/s", 1.0), ("2pi*Hz", TWO_PI)):
            for detuning, expected, tolerance in CANONICAL_TARGETS:
                value, rep = _canonical_negativity(300.0 * factor, detuning)
                values[(unit, detuning)] = value
                state = (
                    f"E_N={value:.4f}" if value is not None
                    else f"unstable (abscissa {rep.spectral_abscissa:.2e}, "
                    f"product criterion {'passes' if rep.criterion_pass else 'fails'})"
                )
                lines.append(
                    f"g=300 {unit}, detuning/2pi={detuning / TWO_PI / 1e6:g} MHz: "
                    f"{state}, expected {expected}+-{tolerance}"
                )
        # Coupling-grid survey at the first detuning: maximum negativity over
        # the stable part of the canonical sweep range.
        spec = SweepSpec(
            base=reference_input(effective_detuning=TWO_PI * 2e6),
            axes=(
                AxisSpec(name="g_mc", start=0.0, stop=500.0, points=11),
                AxisSpec(name="g_ac", start=0.0, stop=500.0, points=11),
            ),
        )
        rows = run_sweep(spec).rows
        stable_en = [
            row.cells["log_negativity"]
            for row in rows
            if row.cells["status"] == "ok"
        ]
        lines.append(
            f"coupling grid [0,500]^2 rad/s at detuning/2pi=2 MHz: "
            f"{len(stable_en)}/{len(rows)} stable, max E_N "
            f"{max(stable_en) if stable_en else float('nan'):.3g}"
        )
        detail = "; ".join(lines)
        # The configuration's native unit (rad/s) is the canonical reading;
        # the 2pi*Hz reading is reported alongside for the record.
        within = all(
            values[("rad/s", detuning)] is not None
            and abs(values[("rad/s", detuning)] - expected) <= tolerance
            for detuning, expected, tolerance in CANONICAL_TARGETS
        )
        low, high = values[("rad/s", TWO_PI * 2e6)], values[("rad/s", TWO_PI * 3e6)]
        ordering = low is not None and high is not None and high > low
        line = report(4, within and ordering, detail)
        assert within and ordering, line


class TestCriterion5TemperatureThreshold:
    def test_negativity_vanishing_temperature(self):
        lines = []
        thresholds = {}
        for mass, expected in ((4e-12, 20e-6), (5e-12, 100e-6)):
            base = reference_input(
                mirror_mass=mass,
                effective_detuning=TWO_PI * 4e6,
                bec_coupling=100.0,
            )
            spec = SweepSpec(
                base=base,
                axes=(AxisSpec(name="temperature", start=1e-7, stop=2e-4, points=100),),
            )
            result = run_sweep(spec)
            en = [row.cells["log_negativity"] for row in result.rows]
            present = [v for v in en if v is not None]
            monotone = all(
                a >= b - 1e-12
                for a, b in zip(present, present[1:])
            )
            positive = [
                row.axis_values[0]
                for row in result.rows
                if row.cells["log_negativity"] not in (None, 0.0)
            ]
            threshold = max(positive) if positive else None
            thresholds[mass] = (threshold, monotone)
            n_unstable = sum(
                1 for row in result.rows if row.cells["status"] == "unstable"
            )
            max_en = f"{max(present):.3g}" if present else "n/a"
            lines.append(
                f"m={mass * 1e12:g} ng: {n_unstable}/100 points unstable, "
                f"max E_N over stable points {max_en}, "
                f"vanishing threshold {threshold} "
                f"(expected {expected:.0e} +- 50%)"
            )
        ok = True
        for mass, expected in ((4e-12, 20e-6), (5e-12, 100e-6)):
            threshold, monotone = thresholds[mass]
            ok = ok and monotone and threshold is not None
            if threshold is not None:
                ok = ok and abs(threshold - expected) <= 0.5 * expected
        line = report(5, ok, "; ".join(lines))
        assert ok, line


class TestCriterion6DetuningWindow:
    def test_single_contiguous_entangled_interval(self):
        om_m = TWO_PI * 1e6
        base = reference_input(bec_coupling=100.0)
        spec = SweepSpec(
            base=base,
            axes=(
                AxisSpec(
                    name="detuning", start=0.5 * om_m, stop=8.0 * om_m, points=120
                ),
            ),
        )
        result = run_sweep(spec)
        entangled = [
            row.axis_values[0] / om_m
            for row in result.rows
            if row.cells["log_negativity"] not in (None, 0.0)
        ]
        stable = sum(1 for row in result.rows if row.cells["status"] == "ok")
        if entangled:
            window = (min(entangled), max(entangled))
            gaps = any(
                b - a > 1.01 * (7.5 * om_m / 119.0) / om_m
                for a, b in zip(entangled, entangled[1:])
            )
            contiguous = not gaps
            contains = window[0] <= 4.5 <= window[1]
            detail = (
                f"E_N > 0 window {window[0]:.2f}..{window[1]:.2f} om_m, "
                f"contiguous={contiguous}, contains 4.5 om_m: {contains}"
            )
            ok = contiguous and contains
        else:
            separable = f", all {stable} stable points separable" if stable else ""
            detail = (
                f"no entangled points on the detuning grid "
                f"(0.5..8 om_m, 120 points; {stable}/120 stable{separable}); "
                f"expected a window around 4.5 om_m"
            )
            ok = False
        line = report(6, ok, detail)
        assert ok, line


class TestCriterion7MonteCarloCrossValidation:
    def test_companion_validation_on_tractable_system(self):
        # The statistical contract, exercised end to end where it is feasible:
        # ensemble covariance within 3 sigma elementwise of the Lyapunov
        # solution (the record-reconstruction half runs in
        # test_stochastic.py::TestReconstructCorrelations).
        params = entangled_model()
        drift, diffusion = build_drift(params), build_diffusion(params)
        cov = solve_steady_covariance(drift, diffusion)
        trajectories = simulate_trajectories(
            drift, diffusion, None, dt=1e-3, horizon=260.0, seed=5, n_trajectories=10
        )
        estimate, stderr = ensemble_covariance(trajectories, burn_in=60.0)
        z = float(np.max(np.abs(estimate - cov) / np.where(stderr > 0, stderr, 1.0)))
        assert z <= 3.0

    def test_canonical_point_feasibility(self):
        # Monte-Carlo cross-validation at the canonical stable point.  The
        # cavity decay makes the system stiff (Euler-Maruyama would need
        # ~1e-11 s steps against a ~3e-3 s decorrelation time), but the exact
        # Gaussian transition has no step limit, so the record is sampled at
        # a tenth of the decorrelation time.
        derived = replace(
            derive_parameters(reference_input()), g_mc=100.0, g_ac=100.0
        )
        params = model_params(derived)
        drift, diffusion = build_drift(params), build_diffusion(params)
        rep = check_stability_eigen(drift)
        assert rep.is_stable
        fastest = float(np.max(np.abs(rep.eigenvalues)))
        decorrelation = 1.0 / abs(rep.spectral_abscissa)
        dt = 0.1 * decorrelation
        cov = solve_steady_covariance(drift, diffusion)

        t0 = time.perf_counter()
        trajectories = simulate_trajectories(
            drift, diffusion, None, dt=dt, horizon=(10.0 + 1e4) * decorrelation,
            seed=1, n_trajectories=4,
        )
        estimate, stderr = ensemble_covariance(
            trajectories, burn_in=10.0 * decorrelation
        )
        elapsed = time.perf_counter() - t0
        z = float(np.max(np.abs(estimate - cov) / np.where(stderr > 0, stderr, 1.0)))
        ok = z <= 3.0 and elapsed <= 300.0
        line = report(
            7,
            ok,
            f"canonical stable point, exact-transition sampler: decorrelation "
            f"time tau {decorrelation:.2e} s (stiffness "
            f"{fastest * decorrelation:.1e}), step {dt:.2e} s; 4 trajectories "
            f"x 1e4 tau after a 10 tau burn-in: max elementwise |z| {z:.2f} "
            f"(<= 3) against the Lyapunov covariance, {elapsed:.2f} s "
            f"(budget 300 s)",
        )
        assert ok, line


class TestCriterion8StabilityDiagnostics:
    def test_grid_self_consistency_and_disagreement_rate(self):
        om = 1.0
        detunings = np.linspace(0.2, 8.0, 50)
        couplings = np.linspace(0.0, 3.0, 50)
        disagreements = 0
        stable_count = 0
        for detuning in detunings:
            for coupling in couplings:
                params = ModelParams(
                    om_m=om, om_a=om, gamma=1e-4, kappa=7.49, detuning=float(detuning),
                    G_mc=float(coupling), G_ac=float(coupling), n_th=0.0083,
                )
                drift = build_drift(params)
                rep = check_stability_eigen(drift, params)
                if rep.is_stable:
                    stable_count += 1
                    assert np.all(rep.eigenvalues.real < 0.0)
                value, passes = check_stability_criterion(params)
                assert value == rep.criterion_value
                if passes != rep.is_stable:
                    disagreements += 1
        rate = disagreements / 2500.0
        line = report(
            8,
            True,
            f"50x50 grid: {stable_count} stable points all self-consistent; "
            f"product-criterion disagreement rate {rate:.1%} (diagnostic only; "
            f"the closed form omits damping terms)",
        )
        assert stable_count > 0, line


class TestCriterion9DeterminismRegression:
    def test_sweep_output_byte_identical(self):
        # Three evaluation blocks, crossing the stability boundary.
        spec = SweepSpec(
            base=reference_input(),
            axes=(AxisSpec(name="g_mc", start=0.0, stop=400.0,
                           points=2 * BLOCK_POINTS + 3),),
        )
        blobs = [emitted(run_sweep(spec)) for _ in range(2)]
        table = blobs[0].splitlines()[6:]
        singles = [
            emitted(run_sweep(replace(spec, axes=(AxisSpec(name="g_mc", start=v, stop=v,
                                                         points=1),)))).splitlines()[-1]
            for v in spec.axes[0].values()
        ]
        repeated, blocked = blobs[0] == blobs[1], table == singles
        line = report(
            9,
            repeated and blocked,
            f"repeated sweep runs produced byte-identical CSV ({len(blobs[0])} bytes): "
            f"{repeated}; its {len(table)} rows equal the one-point sweeps byte for "
            f"byte: {blocked}",
        )
        assert repeated and blocked, line
