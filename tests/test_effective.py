import numpy as np
import pytest

from becmirror import ValidationError, effective_parameters, entangling_regime


class TestEffectiveParameters:
    def test_decoupled_bec(self):
        model = effective_parameters(0.8, 0.0, detuning=5.0, kappa=0.5)
        assert model.coupling_ma == 0.0
        assert model.freq_shift_bec == 0.0
        assert model.freq_shift_mirror > 0.0

    def test_overdamped_cavity_limit(self):
        small = effective_parameters(1.0, 1.0, detuning=2.0, kappa=1e6)
        assert abs(small.coupling_ma) < 1e-10
        assert small.freq_shift_mirror < 1e-10
        assert small.freq_shift_bec < 1e-10

    def test_equal_couplings_at_detuning_equal_kappa(self):
        # G_mc = G_ac = G, detuning = kappa: coupling is -8 G^2 / (2 detuning).
        g = 0.7
        model = effective_parameters(g, g, detuning=1.3, kappa=1.3)
        assert model.coupling_ma == pytest.approx(-4.0 * g * g / 1.3, rel=1e-12)
        assert model.freq_shift_mirror == pytest.approx(2.0 * g * g / 1.3, rel=1e-12)

    def test_sign_convention(self):
        model = effective_parameters(0.5, 0.6, detuning=3.0, kappa=0.4)
        assert model.coupling_ma < 0.0
        assert model.freq_shift_mirror >= 0.0
        assert model.freq_shift_bec >= 0.0

    def test_rejects_blue_detuning(self):
        with pytest.raises(ValidationError, match="red detuning"):
            effective_parameters(0.5, 0.5, detuning=-1.0, kappa=0.4)
        with pytest.raises(ValidationError):
            effective_parameters(0.5, 0.5, detuning=0.0, kappa=0.4)

    def test_scaling_in_couplings(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g_mc, g_ac = rng.uniform(0.1, 2.0, size=2)
            detuning, kappa = rng.uniform(0.5, 6.0), rng.uniform(0.1, 2.0)
            base = effective_parameters(g_mc, g_ac, detuning, kappa)
            doubled_mc = effective_parameters(2.0 * g_mc, g_ac, detuning, kappa)
            assert doubled_mc.coupling_ma == pytest.approx(
                2.0 * base.coupling_ma, rel=1e-12
            )
            assert doubled_mc.freq_shift_mirror == pytest.approx(
                4.0 * base.freq_shift_mirror, rel=1e-12
            )
            doubled_ac = effective_parameters(g_mc, 2.0 * g_ac, detuning, kappa)
            assert doubled_ac.coupling_ma == pytest.approx(
                2.0 * base.coupling_ma, rel=1e-12
            )

    def test_coupling_peaks_at_detuning_equal_kappa(self):
        kappa = 0.9
        detunings = np.linspace(0.05, 10.0, 4001)
        magnitudes = [
            abs(effective_parameters(1.0, 1.0, d, kappa).coupling_ma)
            for d in detunings
        ]
        best = detunings[int(np.argmax(magnitudes))]
        assert best == pytest.approx(kappa, abs=detunings[1] - detunings[0])

    def test_interaction_splits_into_equal_halves(self):
        model = effective_parameters(0.5, 0.7, detuning=4.0, kappa=0.3)
        assert model.beam_splitter_coeff == model.down_conversion_coeff
        assert model.beam_splitter_coeff == pytest.approx(model.coupling_ma / 2.0)

    def test_adiabatic_flag(self):
        assert effective_parameters(0.1, 0.1, detuning=5.0, kappa=0.2).adiabatic
        assert not effective_parameters(1.0, 0.1, detuning=5.0, kappa=0.2).adiabatic

    def test_resonance_flag(self):
        model = effective_parameters(0.1, 0.1, 5.0, 0.2, om_m=1.0, om_a=1.0)
        assert model.resonant is True
        off = effective_parameters(0.1, 0.1, 5.0, 0.2, om_m=1.0, om_a=0.9)
        assert off.resonant is False
        assert off.coupling_ma != 0.0
        unknown = effective_parameters(0.1, 0.1, 5.0, 0.2)
        assert unknown.resonant is None

    def test_rejects_negative_couplings(self):
        with pytest.raises(ValidationError):
            effective_parameters(-0.1, 0.1, 1.0, 0.5)

    @pytest.mark.parametrize("G_mc, G_ac, detuning, kappa", [
        (1.0, 1.0, 1e200, 1.0),  # detuning**2 raises OverflowError
        (1e160, 0.0, 1.0, 1.0),  # G_mc**2 raises OverflowError
        (1e154, 1e154, 1.0, 1.0),  # -8 G_mc G_ac overflows to -inf silently
        (1.0, 1.0, 1e-200, 1e-200),  # the denominator underflows to zero
    ])
    def test_out_of_range_closed_forms_raise_validation_error(self, G_mc, G_ac, detuning,
                                                             kappa):
        with pytest.raises(ValidationError, match="out of float range"):
            effective_parameters(G_mc, G_ac, detuning, kappa)


class TestEntanglingRegime:
    def test_zero_coupling(self):
        assert not entangling_regime(0.0, 1.0)

    def test_boundary_inclusive(self):
        assert entangling_regime(-1.0, 1.0)
        assert entangling_regime(1.0, 1.0)

    def test_strong_coupling(self):
        assert entangling_regime(-2.0, 1.0)

    def test_magnitude_comparison(self):
        assert entangling_regime(-1.5, 1.2)
        assert not entangling_regime(-0.5, 1.2)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValidationError):
            entangling_regime(1.0, 0.0)
