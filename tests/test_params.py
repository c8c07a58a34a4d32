import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becmirror import (
    DerivedParams,
    PhysicalInput,
    ValidationError,
    derive_parameters,
    self_consistent_detuning,
    steady_state_field,
    thermal_occupation,
)
from becmirror.constants import BOLTZMANN_K, HBAR, SPEED_OF_LIGHT

from support import TWO_PI, reference_input


class TestPhysicalInputValidation:
    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValidationError, match="cavity_length"):
            reference_input(cavity_length=0.0)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValidationError, match="temperature"):
            reference_input(temperature=-1e-6)

    def test_rejects_both_finesse_and_decay(self):
        with pytest.raises(ValidationError, match="finesse"):
            reference_input(cavity_decay=1e7)

    def test_rejects_missing_detuning_choice(self):
        with pytest.raises(ValidationError, match="detuning"):
            reference_input(effective_detuning=None)

    def test_rejects_partial_lattice_pair(self):
        with pytest.raises(ValidationError, match="bec_coupling"):
            reference_input(bec_coupling=None, lattice_depth=10.0)

    def test_accepts_lattice_pair(self):
        inp = reference_input(bec_coupling=None, lattice_depth=10.0, atom_number=1e4)
        assert derive_parameters(inp).g_ac == pytest.approx(10.0 * 100.0 / 2.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("mirror_damping", None),
            ("temperature", "1e-5"),
            ("finesse", "1e4"),
            ("cavity_length", True),
            ("laser_power", math.nan),
            ("effective_detuning", math.inf),
            ("bec_coupling", [100.0]),
        ],
    )
    def test_rejects_values_that_are_not_finite_real_numbers(self, field, value):
        with pytest.raises(ValidationError, match=field):
            reference_input(**{field: value})

    def test_negative_detuning_allowed(self):
        inp = reference_input(effective_detuning=-1e6)
        assert derive_parameters(inp).detuning == -1e6

    @pytest.mark.parametrize("field", PhysicalInput.field_names())
    def test_admits_the_values_the_constructor_accepts(self, field):
        # The sweep masks axis values by admits(); each must agree with
        # building the input with that value, for either side of a pair.
        values = [0.0, -0.0, -1.0, 5e-324, 1.0, 1e308, math.inf, -math.inf, math.nan]
        for base in (reference_input(),
                     reference_input(bec_coupling=None, lattice_depth=10.0, atom_number=1e4,
                                     bec_frequency=None, recoil_frequency=1e5)):
            accepted = []
            for value in values:
                try:
                    replace(base, **{field: value})
                except ValidationError:
                    accepted.append(False)
                else:
                    accepted.append(True)
            assert base.admits(field, np.array(values)).tolist() == accepted


class TestDeriveParameters:
    def test_cavity_decay_from_finesse(self):
        derived = derive_parameters(reference_input())
        # kappa = pi c / (2 F L), evaluated by hand for F = 1e4, L = 1 mm.
        assert derived.kappa == pytest.approx(4.709128918e7, rel=1e-9)
        assert derived.kappa == math.pi * SPEED_OF_LIGHT / (2.0 * 1e4 * 1e-3)
        assert derived.kappa == pytest.approx(4.712e7, rel=1e-2)

    def test_direct_cavity_decay_passthrough(self):
        inp = reference_input(finesse=None, cavity_decay=3.3e7)
        assert derive_parameters(inp).kappa == 3.3e7

    def test_laser_frequency(self):
        derived = derive_parameters(reference_input())
        assert derived.om_p == pytest.approx(TWO_PI * SPEED_OF_LIGHT / 1000e-9)

    def test_mirror_coupling_order_of_magnitude(self):
        derived = derive_parameters(reference_input())
        # sqrt(2) (om_p / L) sqrt(hbar / (2 m om_m)) for m = 4 ng, om_m = 2pi MHz.
        assert derived.g_mc == pytest.approx(3858.5019, rel=1e-6)
        assert 1e3 < derived.g_mc < 1e4

    def test_zero_point_motion(self):
        derived = derive_parameters(reference_input())
        expected = math.sqrt(HBAR / (2.0 * 4e-12 * TWO_PI * 1e6))
        assert derived.x_zpf == pytest.approx(expected, rel=1e-12)

    def test_drive_amplitude(self):
        derived = derive_parameters(reference_input())
        expected = math.sqrt(2.0 * 50e-3 * derived.kappa / (HBAR * derived.om_p))
        assert derived.drive == pytest.approx(expected, rel=1e-12)

    def test_bec_frequency_from_recoil(self):
        inp = reference_input(bec_frequency=None, recoil_frequency=2.5e4)
        assert derive_parameters(inp).om_a == 1e5

    def test_thermal_occupation_at_10_microkelvin(self):
        derived = derive_parameters(reference_input())
        # hbar om_m / (k_B T) = 4.79925 -> Bose factor 8.304e-3.
        exponent = HBAR * TWO_PI * 1e6 / (BOLTZMANN_K * 10e-6)
        assert exponent == pytest.approx(4.79925, rel=1e-5)
        assert derived.n_th == pytest.approx(8.304373e-3, rel=1e-6)

    def test_thermal_occupation_zero_temperature(self):
        assert derive_parameters(reference_input(temperature=0.0)).n_th == 0.0

    def test_thermal_occupation_ultracold_underflows_to_zero(self):
        # hbar om_m / (k_B T) = 4.8e4 at 1 nK, past the range of exp.
        assert thermal_occupation(TWO_PI * 1e6, 1e-9) == 0.0

    def test_thermal_occupation_rejects_negative_temperature(self):
        with pytest.raises(ValidationError, match="temperature"):
            thermal_occupation(1e6, -1.0)

    def test_refuses_a_number_derived_out_of_float_range(self):
        # om_p = 2 pi c / 5e-324 overflows, and g_mc with it.
        with pytest.raises(ValidationError, match="out of float range: om_p, g_mc"):
            derive_parameters(reference_input(laser_wavelength=5e-324))

    def test_deterministic_and_pure(self):
        first = derive_parameters(reference_input())
        second = derive_parameters(reference_input())
        assert first == second

    @given(st.floats(min_value=1e-7, max_value=1e-2))
    @settings(max_examples=40, deadline=None)
    def test_thermal_occupation_monotone_in_temperature(self, temp):
        omega = TWO_PI * 1e6
        lower = thermal_occupation(omega, temp)
        upper = thermal_occupation(omega, temp * 1.5)
        assert 0.0 < lower < upper


class TestSteadyStateField:
    def test_undriven_cavity(self):
        derived = replace(derive_parameters(reference_input()), drive=0.0)
        ss = steady_state_field(derived, TWO_PI * 2e6)
        assert ss.photon_number == 0.0
        assert ss.field_amplitude == 0.0
        assert ss.bec_amplitude == 0.0
        assert ss.mirror_amplitude == 0.0
        assert ss.G_mc == 0.0 and ss.G_ac == 0.0

    def test_resonant_drive(self):
        derived = derive_parameters(reference_input())
        ss = steady_state_field(derived, 0.0)
        assert ss.photon_number == pytest.approx((derived.drive / derived.kappa) ** 2)
        assert ss.field_amplitude.imag == 0.0
        assert ss.field_amplitude.real > 0.0

    def test_reference_photon_number(self):
        derived = derive_parameters(reference_input())
        ss = steady_state_field(derived, TWO_PI * 2e6)
        # E^2 / (kappa^2 + detuning^2) evaluated by hand: 9.9795e9 photons.
        assert ss.photon_number == pytest.approx(9.979487e9, rel=1e-6)
        assert ss.photon_number == pytest.approx(1.0e10, rel=2e-2)

    def test_closed_form_photon_number(self):
        derived = derive_parameters(reference_input())
        for detuning in (0.0, 5e6, -3e7, 2e8):
            ss = steady_state_field(derived, detuning)
            expected = derived.drive**2 / (derived.kappa**2 + detuning**2)
            assert ss.photon_number == expected

    def test_mean_field_closed_forms(self):
        derived = derive_parameters(reference_input())
        detuning = TWO_PI * 2e6
        ss = steady_state_field(derived, detuning)
        n = ss.photon_number
        assert ss.field_amplitude == derived.drive / (derived.kappa + 1j * detuning)
        assert abs(ss.field_amplitude) ** 2 == pytest.approx(n, rel=1e-12)
        assert ss.bec_amplitude == pytest.approx(
            -(derived.g_ac / (math.sqrt(2.0) * derived.om_a)) * n
        )
        expected_b = abs(
            (derived.g_mc / math.sqrt(2.0)) * n
            / math.sqrt(derived.gamma**2 + derived.om_m**2)
        )
        assert abs(ss.mirror_amplitude) == pytest.approx(expected_b, rel=1e-12)
        assert ss.bec_amplitude.real <= 0.0

    def test_effective_couplings_nonnegative(self):
        derived = derive_parameters(reference_input())
        ss = steady_state_field(derived, -TWO_PI * 1e6)
        assert ss.G_mc == pytest.approx(
            math.sqrt(2.0) * derived.g_mc * math.sqrt(ss.photon_number)
        )
        assert ss.G_mc >= 0.0 and ss.G_ac >= 0.0


def _bistable_derived() -> DerivedParams:
    # Dimensionless construction: kappa = 1, E = 1, backaction coefficient 10,
    # bare detuning 4 -> cubic (u - 0.1)(5u - 1)(2u - 1) * 10 in u = n.
    return DerivedParams(
        om_p=1.0,
        kappa=1.0,
        drive=1.0,
        x_zpf=1.0,
        g_mc=math.sqrt(10.0),
        g_ac=0.0,
        om_m=1.0,
        om_a=1.0,
        gamma=0.0,
        n_th=0.0,
        detuning=0.0,
    )


class TestSelfConsistentDetuning:
    def test_no_backaction_single_root(self):
        derived = replace(derive_parameters(reference_input()), g_mc=0.0, g_ac=0.0)
        roots = self_consistent_detuning(derived, TWO_PI * 2e6)
        assert len(roots) == 1
        detuning, n = roots[0]
        assert detuning == TWO_PI * 2e6
        assert n == pytest.approx(
            derived.drive**2 / (derived.kappa**2 + detuning**2)
        )

    def test_undriven_single_root(self):
        derived = replace(derive_parameters(reference_input()), drive=0.0)
        roots = self_consistent_detuning(derived, TWO_PI * 2e6)
        assert roots == [(TWO_PI * 2e6, 0.0)]

    def test_bistable_three_roots(self):
        roots = self_consistent_detuning(_bistable_derived(), 4.0)
        assert len(roots) == 3
        ns = [n for _, n in roots]
        dets = [d for d, _ in roots]
        assert ns == pytest.approx([0.1, 0.2, 0.5], rel=1e-12)
        assert dets == pytest.approx([3.0, 2.0, -1.0], rel=1e-12)

    def test_roots_satisfy_both_relations(self):
        derived = _bistable_derived()
        beta = 10.0
        for detuning, n in self_consistent_detuning(derived, 4.0):
            assert n * (1.0 + detuning**2) == pytest.approx(1.0, rel=1e-10)
            assert detuning == pytest.approx(4.0 - beta * n, rel=1e-10)

    def test_against_dense_scan_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            derived = DerivedParams(
                om_p=1.0,
                kappa=1.0,
                drive=float(rng.uniform(0.2, 2.0)),
                x_zpf=1.0,
                g_mc=float(rng.uniform(0.0, 3.0)),
                g_ac=float(rng.uniform(0.0, 1.0)),
                om_m=1.0,
                om_a=1.0,
                gamma=float(rng.uniform(0.0, 0.2)),
                n_th=0.0,
                detuning=0.0,
            )
            bare = float(rng.uniform(-2.0, 8.0))
            beta = (
                derived.om_m * derived.g_mc**2 / (derived.gamma**2 + derived.om_m**2)
                + derived.g_ac**2 / derived.om_a
            )

            def implicit(n):
                det = bare - beta * n
                return n * (1.0 + det**2) - derived.drive**2

            grid = np.linspace(0.0, derived.drive**2 + 1e-9, 200_001)
            values = implicit(grid)
            crossings = int(np.sum(np.sign(values[:-1]) != np.sign(values[1:])))

            roots = self_consistent_detuning(derived, bare)
            assert len(roots) == crossings
            for detuning, n in roots:
                assert abs(implicit(n)) <= 1e-9 * max(1.0, derived.drive**2)
                assert detuning == pytest.approx(bare - beta * n, rel=1e-12, abs=1e-12)
