import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becmirror import (
    ModelBatch,
    ModelParams,
    QUADRATURES,
    ValidationError,
    build_diffusion,
    build_drift,
    check_stability_criterion,
    check_stability_eigen,
    derive_parameters,
    model_params,
    symplectic_form,
)
from becmirror.dynamics import _model, eigen_stability
from dataclasses import replace

from support import (TWO_PI, hand_placed_diffusion, hand_placed_drift, mild_model,
                     reference_input, routh_hurwitz_verdict)

# Structurally nonzero drift entries for generic parameters (14; the two
# -gamma diagonals vanish for an undamped mirror, leaving 12).
DRIFT_PATTERN = {
    (0, 0), (0, 1),
    (1, 0), (1, 1), (1, 4),
    (2, 3),
    (3, 2), (3, 4),
    (4, 4), (4, 5),
    (5, 0), (5, 2), (5, 4), (5, 5),
}


def quadrature_rate_oracle(p: ModelParams, state: np.ndarray) -> np.ndarray:
    """Time derivative of the quadratures via the complex mode amplitudes.

    Independently evolves the linearized complex equations of motion for
    (b, a, c) and maps the result back to quadratures, exercising none of the
    drift-matrix construction code.
    """
    root2 = math.sqrt(2.0)
    b = (state[0] + 1j * state[1]) / root2
    a = (state[2] + 1j * state[3]) / root2
    c = (state[4] + 1j * state[5]) / root2
    db = -(p.gamma + 1j * p.om_m) * b + 1j * (p.G_mc / 2.0) * (c + np.conj(c))
    da = -1j * p.om_a * a - 1j * (p.G_ac / 2.0) * (c + np.conj(c))
    dc = (
        -(p.kappa + 1j * p.detuning) * c
        + 1j * (p.G_mc / 2.0) * (b + np.conj(b))
        - 1j * (p.G_ac / 2.0) * (a + np.conj(a))
    )
    return np.array(
        [
            root2 * db.real, root2 * db.imag,
            root2 * da.real, root2 * da.imag,
            root2 * dc.real, root2 * dc.imag,
        ]
    )


class TestBuildDrift:
    def test_sparsity_pattern(self):
        drift = build_drift(mild_model())
        nonzero = set(zip(*np.nonzero(drift)))
        assert nonzero == DRIFT_PATTERN

    def test_undamped_mirror_pattern(self):
        drift = build_drift(mild_model(gamma=0.0))
        nonzero = set(zip(*np.nonzero(drift)))
        assert nonzero == DRIFT_PATTERN - {(0, 0), (1, 1)}

    def test_decoupled_block_diagonal(self):
        drift = build_drift(mild_model(G_mc=0.0, G_ac=0.0))
        for i, j in np.ndindex(6, 6):
            if (i // 2) != (j // 2):
                assert drift[i, j] == 0.0

    def test_cavity_block_eigenvalues(self):
        p = mild_model(gamma=0.0, G_mc=0.0, G_ac=0.0, kappa=0.7, detuning=2.3)
        block = build_drift(p)[4:, 4:]
        eigs = np.sort_complex(np.linalg.eigvals(block))
        assert eigs == pytest.approx(np.sort_complex(np.array([-0.7 - 2.3j, -0.7 + 2.3j])))

    def test_matches_complex_equation_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = ModelParams(
                om_m=rng.uniform(0.5, 3.0),
                om_a=rng.uniform(0.5, 3.0),
                gamma=rng.uniform(0.0, 0.5),
                kappa=rng.uniform(0.1, 3.0),
                detuning=rng.uniform(-3.0, 3.0),
                G_mc=rng.uniform(0.0, 2.0),
                G_ac=rng.uniform(0.0, 2.0),
                n_th=0.0,
            )
            drift = build_drift(p)
            state = rng.normal(size=6)
            expected = quadrature_rate_oracle(p, state)
            np.testing.assert_allclose(drift @ state, expected, rtol=1e-12, atol=1e-12)

    def test_full_decoupled_eigenvalues_are_block_union(self):
        p = mild_model(G_mc=0.0, G_ac=0.0)
        drift = build_drift(p)
        full = np.sort_complex(np.linalg.eigvals(drift))
        blocks = np.concatenate(
            [np.linalg.eigvals(drift[k : k + 2, k : k + 2]) for k in (0, 2, 4)]
        )
        np.testing.assert_allclose(full, np.sort_complex(blocks), atol=1e-12)


#: field values a ModelParams admits, zeros of both signs and ints included
_ZEROS = st.sampled_from([0.0, -0.0, 0])
_FIELD_VALUES = {
    **dict.fromkeys(("om_m", "om_a", "kappa"),
                    st.one_of(st.just(1), st.floats(min_value=5e-324, max_value=1e308))),
    **dict.fromkeys(("gamma", "G_mc", "G_ac", "n_th", "n_c"),
                    st.one_of(_ZEROS, st.floats(min_value=0.0, max_value=1e308))),
    "detuning": st.one_of(_ZEROS, st.floats(allow_nan=False, allow_infinity=False)),
}
_MODELS = st.builds(ModelParams, **_FIELD_VALUES)


@st.composite
def _batches(draw) -> ModelBatch:
    """A ModelBatch of 1 to 4 models, each field any float or a zero of
    either sign; a batch is not validated."""
    size = draw(st.integers(1, 4))
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.floats())
    return ModelBatch(**{name: np.array(draw(st.lists(values, min_size=size, max_size=size)))
                         for name in ModelParams.field_names()})


def _dense(p) -> tuple[np.ndarray, np.ndarray]:
    """H and diag(k) of ``p`` as float matrices."""
    h, k, _ = _model(p)
    hamiltonian, damping = np.zeros((6, 6)), np.zeros((6, 6))
    for (i, j), value in h.items():
        hamiltonian[i, j] = value
    for i, rate in k.items():
        damping[i, i] = rate
    return hamiltonian, damping


class TestModelDescription:
    @settings(max_examples=300, deadline=None)
    @given(p=st.one_of(_MODELS, _batches()))
    def test_matrices_equal_the_hand_placed_ones_byte_for_byte(self, p):
        assert build_drift(p).tobytes() == hand_placed_drift(p).tobytes()
        assert build_diffusion(p).tobytes() == hand_placed_diffusion(p).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(p=_MODELS)
    def test_drift_is_the_hamiltonian_flow_less_the_damping(self, p):
        # J H is a Hamiltonian matrix, A^T J + J A = 0, so the damping is all
        # of the drift's departure from that: M^T J + J M = -2 J diag(k).
        # (M + M^T is not -2 diag(k): M[1, 4] = G_mc while M[4, 1] = 0.)
        hamiltonian, damping = _dense(p)
        j = symplectic_form(3)
        drift = build_drift(p)
        assert hamiltonian.tobytes() == hamiltonian.T.tobytes()
        np.testing.assert_array_equal(drift, j @ hamiltonian - damping)
        with np.errstate(over="ignore"):  # rates past 9e307 double to inf on both sides
            np.testing.assert_array_equal(drift.T @ j + j @ drift, -2.0 * j @ damping)


class TestBuildDiffusion:
    def test_vacuum_baths(self):
        p = mild_model(n_th=0.0, gamma=0.25, kappa=0.8)
        np.testing.assert_array_equal(
            build_diffusion(p), np.diag([0.25, 0.25, 0.0, 0.0, 0.8, 0.8])
        )

    def test_undamped_mirror_leaves_only_cavity_noise(self):
        p = mild_model(gamma=0.0, kappa=0.8)
        d = build_diffusion(p)
        assert np.count_nonzero(d) == 2
        assert d[4, 4] == d[5, 5] == 0.8

    def test_thermal_mirror_rows(self):
        derived = derive_parameters(reference_input())
        p = model_params(replace(derived, g_mc=50.0))
        d = build_diffusion(p)
        assert d[0, 0] == pytest.approx(p.gamma * (2.0 * 8.304373e-3 + 1.0), rel=1e-6)
        assert d[0, 0] == d[1, 1]
        assert d[2, 2] == d[3, 3] == 0.0

    def test_bec_rows_zero_for_any_parameters(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = mild_model(
                gamma=rng.uniform(0, 1), kappa=rng.uniform(0.1, 2),
                n_th=rng.uniform(0, 10),
            )
            d = build_diffusion(p)
            assert d[2, 2] == 0.0 and d[3, 3] == 0.0
            assert np.all(np.diag(d) >= 0.0)
            assert np.count_nonzero(d - np.diag(np.diag(d))) == 0

    def test_photon_occupation_enters_cavity_rows(self):
        p = mild_model(n_c=0.5, kappa=1.0)
        assert build_diffusion(p)[4, 4] == 2.0


class TestStabilityCriterion:
    def test_decoupled_positive(self):
        p = mild_model(G_mc=0.0, G_ac=0.0)
        value, passes = check_stability_criterion(p)
        assert value == pytest.approx((p.detuning**2 + p.kappa**2) * p.om_m * p.om_a)
        assert passes

    def test_zero_detuning_passes_regardless_of_couplings(self):
        p = mild_model(detuning=0.0, G_mc=5.0, G_ac=7.0)
        value, passes = check_stability_criterion(p)
        assert value == pytest.approx(p.kappa**2 * p.om_m * p.om_a)
        assert passes

    def test_constructed_violation(self):
        p = mild_model()
        lhs = (p.detuning**2 + p.kappa**2) * p.om_m * p.om_a
        coupling = math.sqrt(2.0 * lhs / p.detuning / 2.0)
        violating = mild_model(G_mc=coupling, G_ac=coupling)
        value, passes = check_stability_criterion(violating)
        assert value == pytest.approx(-lhs, rel=1e-12)
        assert not passes

    @pytest.mark.parametrize("om_a", [0.4, 1.0, 2.5])
    def test_equals_undamped_determinant(self, om_a):
        # Unequal mode frequencies separate om_m om_a (kappa^2 + detuning^2)
        # from the coupling term detuning (G_mc^2 om_a + G_ac^2 om_m).
        p = mild_model(om_a=om_a, gamma=0.0, G_mc=0.9, G_ac=0.6)
        value, _ = check_stability_criterion(p)
        det = np.linalg.det(build_drift(p)) / (p.om_m * p.om_a)
        assert value == pytest.approx(det, rel=1e-12)


class TestStabilityEigen:
    def test_identity_scaled(self):
        report = check_stability_eigen(-np.eye(6))
        assert report.is_stable and not report.is_marginal
        assert report.spectral_abscissa == pytest.approx(-1.0)

    def test_undamped_bec_makes_decoupled_system_marginal(self):
        p = mild_model(G_mc=0.0, G_ac=0.0)
        report = check_stability_eigen(build_drift(p), p)
        assert report.is_marginal
        assert not report.is_stable
        assert report.criterion_pass

    def test_overflowing_norm_keeps_the_marginal_band_relative(self):
        # Entries past 1e154 overflow ||M||_F; tier-1 turns the numpy warning
        # into an error.  The band scales with the matrix, so the verdict
        # matches that of -I.
        report = check_stability_eigen(-1e300 * np.eye(6))
        assert report.is_stable and not report.is_marginal
        assert report.spectral_abscissa == -1e300
        marginal = np.diag([-1e300, 1e-300, -1.0, -1.0, -1.0, -1.0])
        assert check_stability_eigen(marginal).is_marginal

    def test_rejects_nonfinite(self):
        bad = np.eye(6)
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            check_stability_eigen(bad)

    def test_report_without_params_has_no_criterion(self):
        report = check_stability_eigen(-np.eye(6))
        assert report.criterion_value is None
        assert report.criterion_pass is None

    def test_reference_coupling_point_is_unstable(self):
        # Eigenvalue oracle verdict at the nominal coupling point of the
        # canonical configuration, frozen from an independent eigensolve, for
        # both readings of the coupling unit.  det M < 0 there, so a drift
        # with an odd number of positive real eigenvalues is certain and the
        # product criterion (det M at zero damping) agrees with the spectrum.
        for g in (300.0, TWO_PI * 300.0):
            derived = replace(derive_parameters(reference_input()), g_mc=g, g_ac=g)
            p = model_params(derived)
            drift = build_drift(p)
            report = check_stability_eigen(drift, p)
            assert not report.is_stable
            assert report.spectral_abscissa > 0.0
            assert np.linalg.det(drift) < 0.0
            assert not report.criterion_pass

    def test_agrees_with_routh_hurwitz_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            drift = rng.normal(size=(6, 6)) + rng.uniform(-1.0, 0.3) * np.eye(6)
            eigs = np.linalg.eigvals(drift)
            if np.min(np.abs(eigs.real)) < 1e-6 * np.linalg.norm(drift):
                continue
            verdict = routh_hurwitz_verdict(np.poly(drift))
            if verdict is None:
                continue
            report = check_stability_eigen(drift)
            assert report.is_stable == verdict
            checked += 1


class TestBatch:
    def test_stacks_equal_single_models(self):
        models = [
            mild_model(),
            mild_model(G_mc=2.0, detuning=0.3),
            mild_model(detuning=-0.5, n_th=3.0, n_c=0.1),
            mild_model(G_mc=0.0, G_ac=0.0),
        ]
        batch = ModelBatch(**{
            name: np.array([getattr(p, name) for p in models])
            for name in ModelParams.field_names()
        })
        drifts, diffusions = build_drift(batch), build_diffusion(batch)
        criterion, passes = check_stability_criterion(batch)
        eigenvalues, abscissa, marginal, stable = eigen_stability(drifts)
        for i, p in enumerate(models):
            np.testing.assert_array_equal(drifts[i], build_drift(p))
            np.testing.assert_array_equal(diffusions[i], build_diffusion(p))
            assert (criterion[i], passes[i]) == check_stability_criterion(p)
            assert abscissa[i] == pytest.approx(
                np.max(np.linalg.eigvals(build_drift(p)).real), rel=1e-12, abs=1e-15
            )
            report = check_stability_eigen(build_drift(p))
            assert (stable[i], marginal[i]) == (report.is_stable, report.is_marginal)
        assert stable.tolist() == [True, False, False, False]
        assert marginal.tolist() == [False, False, False, True]

    def test_overflowing_batch_gives_inf_without_a_warning(self):
        # gamma (2 n_th + 1) overflows at n_th = 1e308, and om_m om_a kappa^2
        # at kappa = 1e200; the tier-1 filter turns a RuntimeWarning into a
        # failure.
        fields = {name: np.full(2, getattr(mild_model(), name))
                  for name in ModelParams.field_names()}
        batch = ModelBatch(**{**fields, "n_th": np.array([1.0, 1e308]),
                              "kappa": np.array([fields["kappa"][0], 1e200])})
        diffusions = build_diffusion(batch)
        np.testing.assert_array_equal(
            diffusions[0], build_diffusion(mild_model(n_th=1.0, kappa=fields["kappa"][0])))
        assert np.isinf(np.diag(diffusions[1])[:2]).all()
        assert np.isfinite(np.diag(diffusions[1])[2:4]).all()
        value, _ = check_stability_criterion(batch)
        assert np.isfinite(value[0]) and not np.isfinite(value[1])

    def test_valid_mask_applies_the_model_rules(self):
        # Each field at a bad or borderline value, one point each; the mask
        # must reject exactly the points the ModelParams constructor rejects.
        base = {name: getattr(mild_model(), name) for name in ModelParams.field_names()}
        changes = [(name, value) for name in ModelParams.field_names()
                   for value in (-1.0, 0.0, -0.0, math.nan, math.inf, 1e-300)]
        cases = [base] + [{**base, name: value} for name, value in changes]
        batch = ModelBatch(**{
            name: np.array([case[name] for case in cases])
            for name in ModelParams.field_names()
        })
        expected = []
        for case in cases:
            try:
                ModelParams(**case)
            except ValidationError:
                expected.append(False)
            else:
                expected.append(True)
        assert batch.valid().tolist() == expected
        verdict = dict(zip(changes, expected[1:]))
        refused_at_zero = {name for name in ModelParams.field_names() if not verdict[name, 0.0]}
        assert expected[0] and refused_at_zero == {"om_m", "om_a", "kappa"}
        assert verdict["detuning", -1.0] and not verdict["gamma", -1.0]


class TestOrderingConstants:
    def test_quadrature_labels(self):
        assert QUADRATURES == ("q_m", "p_m", "q_a", "p_a", "q_c", "p_c")

    def test_symplectic_form_consistent_with_ordering(self):
        omega = symplectic_form(3)
        assert omega.shape == (6, 6)
        np.testing.assert_array_equal(omega, -omega.T)
        np.testing.assert_array_equal(omega @ omega, -np.eye(6))
        assert omega[0, 1] == 1.0 and omega[1, 0] == -1.0
