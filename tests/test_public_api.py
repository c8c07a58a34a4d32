"""Every public call returns or raises a ``BecMirrorError``.

Each name of ``becmirror.__all__`` is either called here through an argument
builder (``CALLS``) or named in ``EXEMPT`` with the reason it takes no
arguments to check.  A builder draws numbers as floats, ints (401-digit ones,
and 5,001-digit ones too long for Python to print, included), bools, strings
and None, magnitudes from 5e-324 to 1e308 of
either sign, and matrices of the wrong shape or with non-finite entries.
Structured arguments are built through the public constructors from such
draws, so a refusal by the constructor counts as the call's.  No other
exception and no ``RuntimeWarning`` may escape.
"""

from __future__ import annotations

import io
import json
import math
import operator
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import becmirror
from becmirror import (
    MODE_INDICES,
    AxisSpec,
    BecMirrorError,
    ModelParams,
    PhysicalInput,
    ProbeCavity,
    SweepSpec,
    TrajectoryRecord,
    ValidationError,
    stochastic,
    sweep,
)

DEMO = json.loads((Path(__file__).resolve().parents[1] / "configs" / "demo.json").read_text())
DEMO_MODEL = becmirror.model_params(becmirror.derive_parameters(PhysicalInput(**DEMO)))
DEMO_DRIFT = becmirror.build_drift(DEMO_MODEL)
DEMO_DIFFUSION = becmirror.build_diffusion(DEMO_MODEL)
DEMO_COV = becmirror.solve_steady_covariance(DEMO_DRIFT, DEMO_DIFFUSION)

MAGNITUDE = st.floats(min_value=5e-324, max_value=1e308)
REAL = st.one_of(MAGNITUDE, MAGNITUDE.map(operator.neg))
NUMBER = st.one_of(
    REAL,
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 10**400, -10**400,
                     10**5000, -10**5000]),
    st.integers(-3, 3),
    st.booleans(),
    st.text(max_size=2),
    st.none(),
)
#: a square matrix of the wrong size, a non-square one, a vector, a scalar
_BAD_SHAPES = st.sampled_from([(1, 1), (3, 3), (2, 3), (4,), ()])


def _numbers(draw, names, valid=MAGNITUDE, base=None):
    """Keyword values: each drawn from ``valid`` or kept from ``base``, and
    half the time one of them replaced by any ``NUMBER``."""
    values = {
        name: base[name] if base and draw(st.booleans()) else draw(valid) for name in names
    }
    if draw(st.booleans()):
        values[draw(st.sampled_from(names))] = draw(NUMBER)
    return values


def _matrix(draw, typical):
    """``typical`` scaled by a signed magnitude, an array of any entries of
    its shape, or one of a wrong shape."""
    kind = draw(st.sampled_from(["scaled", "entries", "shape"]))
    if kind == "scaled":
        with np.errstate(over="ignore"):
            return draw(REAL) * typical
    if kind == "entries":
        return draw(arrays(np.float64, typical.shape, elements=st.floats()))
    return draw(arrays(np.float64, draw(_BAD_SHAPES), elements=st.floats(-2.0, 2.0)))


def _physical(draw):
    values = _numbers(draw, tuple(DEMO), base=DEMO)
    return lambda: PhysicalInput(**values)


def _model(draw):
    values = _numbers(draw, ModelParams.field_names(), base=DEMO_MODEL.__dict__)
    return lambda: ModelParams(**values)


def _probe(draw):
    values = _numbers(draw, [f.name for f in fields(ProbeCavity)])
    return lambda: ProbeCavity(**values)


def _trajectory(draw, dim=6, length=40):
    """A record of ``length`` samples at a drawn interval, scaled by a
    drawn magnitude."""
    dt, scale = draw(MAGNITUDE), draw(REAL)
    noise = np.random.default_rng(draw(st.integers(0, 3))).standard_normal((dim, length))
    with np.errstate(over="ignore"):
        return TrajectoryRecord(times=np.arange(length) * dt, samples=scale * noise, dt=dt,
                                seed=0, stream=0)


def _axis(draw):
    name = draw(st.sampled_from(
        ["temperature", "effective_detuning", "g_mc", "G_ac", "n_th", "kappa", "x"]))
    values = _numbers(draw, ("start", "stop"), valid=REAL)
    points = draw(st.one_of(st.integers(1, 3), NUMBER))
    scale = draw(st.sampled_from(["linear", "log", "x"]))
    return lambda: AxisSpec(name, values["start"], values["stop"], points, scale)


def _sweep_spec(draw):
    base = _physical(draw)
    axes = [_axis(draw) for _ in range(draw(st.integers(1, 2)))]
    effective = draw(st.booleans())
    return lambda: SweepSpec(base(), tuple(axis() for axis in axes), effective)


def _derived(physical):
    return lambda: becmirror.derive_parameters(physical())


def _homodyne_sets(draw):
    trajectories = [_trajectory(draw, length=24) for _ in range(draw(st.integers(1, 3)))]
    probes = [_probe(draw) for _ in range(draw(st.integers(1, 4)))]
    phases = [draw(REAL) for _ in probes]
    return lambda: [
        [becmirror.homodyne_output(traj, probe(), phase, noise_seed=10 * t + k)
         for k, (probe, phase) in enumerate(zip(probes, phases))]
        for t, traj in enumerate(trajectories)
    ]


def _keep(draw):
    modes = st.sampled_from(sorted(MODE_INDICES))
    return draw(st.one_of(st.tuples(modes, modes), st.tuples(modes, NUMBER), NUMBER))


def _call(function, *args, **kwargs):
    """A thunk calling ``function`` with the values of any thunk arguments."""
    def run():
        values = [arg() if callable(arg) else arg for arg in args]
        named = {k: v() if callable(v) else v for k, v in kwargs.items()}
        return function(*values, **named)
    return run


def _small_caps():
    """The cap on stored samples and on sweep points, lowered so that no
    drawn run is slow; a larger run is refused by the same checks."""
    return mock.patch.multiple(stochastic, MAX_SAMPLES=2_000), mock.patch.multiple(
        sweep, MAX_POINTS=16)


CALLS = {
    "AxisSpec": _axis,
    "PhysicalInput": _physical,
    "ModelParams": _model,
    "ProbeCavity": _probe,
    "SweepSpec": _sweep_spec,
    "build_diffusion": lambda draw: _call(becmirror.build_diffusion, _model(draw)),
    "build_drift": lambda draw: _call(becmirror.build_drift, _model(draw)),
    "check_stability_criterion": lambda draw: _call(
        becmirror.check_stability_criterion, _model(draw)),
    "check_stability_eigen": lambda draw: _call(
        becmirror.check_stability_eigen, _matrix(draw, DEMO_DRIFT),
        draw(st.sampled_from([None, _model(draw)]))),
    "derive_parameters": lambda draw: _call(becmirror.derive_parameters, _physical(draw)),
    "effective_parameters": lambda draw: _call(
        becmirror.effective_parameters, **_numbers(
            draw, ("G_mc", "G_ac", "detuning", "kappa", "om_m", "om_a"),
            base=DEMO_MODEL.__dict__)),
    "emit": lambda draw: _call(
        becmirror.emit, _call(becmirror.run_sweep, _sweep_spec(draw)), io.BytesIO,
        draw(st.one_of(st.sampled_from(["csv", "json"]), NUMBER))),
    "ensemble_covariance": lambda draw: _call(
        becmirror.ensemble_covariance,
        [_trajectory(draw, length=64) for _ in range(draw(st.integers(0, 3)))],
        draw(st.one_of(st.just(0.0), NUMBER)),
        batch_length=draw(st.one_of(st.none(), NUMBER))),
    "entanglement_result": lambda draw: _call(
        becmirror.entanglement_result, _matrix(draw, DEMO_COV[:4, :4])),
    "homodyne_output": lambda draw: _call(
        becmirror.homodyne_output, _trajectory(draw), _probe(draw), draw(NUMBER),
        draw(st.one_of(st.integers(0, 9), NUMBER))),
    "homodyne_weights": lambda draw: _call(
        becmirror.homodyne_weights, _probe(draw), draw(NUMBER), draw(NUMBER),
        _matrix(draw, np.linspace(0.0, 1.0, 5))),
    "logarithmic_negativity": lambda draw: _call(
        becmirror.logarithmic_negativity, _matrix(draw, DEMO_COV[:4, :4])),
    "model_params": lambda draw: _call(
        becmirror.model_params, _derived(_physical(draw)),
        draw(st.one_of(st.none(), NUMBER))),
    "reconstruct_correlations": lambda draw: _call(
        becmirror.reconstruct_correlations, _homodyne_sets(draw),
        noise_variance=draw(st.one_of(st.none(), NUMBER)),
        max_times=draw(st.one_of(st.just(2000), NUMBER))),
    "reduce_to_modes": lambda draw: _call(
        becmirror.reduce_to_modes, _matrix(draw, DEMO_COV), _keep(draw)),
    "residual": lambda draw: _call(
        becmirror.residual, _matrix(draw, DEMO_DRIFT), _matrix(draw, DEMO_DIFFUSION),
        _matrix(draw, DEMO_COV)),
    "run_sweep": lambda draw: _call(becmirror.run_sweep, _sweep_spec(draw)),
    "self_consistent_detuning": lambda draw: _call(
        becmirror.self_consistent_detuning, _derived(_physical(draw)), draw(NUMBER)),
    "simulate_trajectories": lambda draw: _call(
        becmirror.simulate_trajectories, _matrix(draw, DEMO_DRIFT),
        _matrix(draw, DEMO_DIFFUSION), draw(st.one_of(st.none(), st.just(DEMO_COV))),
        **_numbers(draw, ("dt", "horizon")),
        seed=draw(st.one_of(st.integers(0, 9), NUMBER)),
        n_trajectories=draw(st.one_of(st.integers(1, 2), NUMBER)),
        first_stream=draw(st.one_of(st.just(0), NUMBER))),
    "solve_steady_covariance": lambda draw: _call(
        becmirror.solve_steady_covariance, _matrix(draw, DEMO_DRIFT),
        _matrix(draw, DEMO_DIFFUSION), check_stability=draw(st.booleans())),
    "steady_state_field": lambda draw: _call(
        becmirror.steady_state_field, _derived(_physical(draw)), draw(NUMBER)),
    "symplectic_eigenvalues": lambda draw: _call(
        becmirror.symplectic_eigenvalues, _matrix(draw, DEMO_COV[:4, :4])),
    "symplectic_form": lambda draw: _call(
        becmirror.symplectic_form, draw(st.one_of(st.integers(0, 4), NUMBER))),
    "thermal_occupation": lambda draw: _call(
        becmirror.thermal_occupation, *_numbers(draw, ("omega", "temperature")).values()),
}

#: exports that take no arguments to check, each with its reason
EXEMPT = {
    "CONSTANTS_VERSION": "a constant",
    "MODE_INDICES": "a constant",
    "QUADRATURES": "a constant",
    "BecMirrorError": "an error class",
    "NumericalError": "an error class",
    "StabilityError": "an error class",
    "ValidationError": "an error class",
    "CavitySteadyState": "a result record of steady_state_field, not validated",
    "DerivedParams": "a result record of derive_parameters, not validated",
    "EffectiveModel": "a result record of effective_parameters, not validated",
    "EntanglementResult": "a result record of entanglement_result, not validated",
    "HomodyneRecord": "a result record of homodyne_output, not validated",
    "ModelBatch": "the sweep's unit of work, validated point by point by its valid()",
    "StabilityReport": "a result record of check_stability_eigen, not validated",
    "SweepResult": "a result record of run_sweep, not validated",
    "TrajectoryRecord": "a result record of simulate_trajectories, not validated",
}


#: calls that let a non-package exception or a numpy warning out before the
#: shared argument checks, each refused now
FORMER_LEAKS = {
    "residual_of_mismatched_sizes": lambda: becmirror.residual(
        -np.eye(2), np.eye(3), np.eye(3)),
    "simulate_with_mismatched_diffusion": lambda: becmirror.simulate_trajectories(
        -np.eye(2), np.eye(3), None, dt=0.1, horizon=1.0, seed=0, n_trajectories=1),
    "probe_of_a_string": lambda: ProbeCavity("a", 1.0, 0.1, 0.1),
    "occupation_of_a_string": lambda: becmirror.thermal_occupation("a", 1.0),
    "occupation_of_a_401_digit_int": lambda: becmirror.thermal_occupation(10**400, 1.0),
    "model_of_a_401_digit_int": lambda: ModelParams(
        **{**DEMO_MODEL.__dict__, "om_m": 10**400}),
    "occupation_overflowing_at_1e308_kelvin": lambda: becmirror.thermal_occupation(
        1.0, 1e308),
    "occupation_dividing_by_zero": lambda: becmirror.thermal_occupation(5e-324, 1.0),
    "ensemble_of_1e200_records": lambda: becmirror.ensemble_covariance(
        [TrajectoryRecord(times=0.1 * np.arange(64), samples=np.full((6, 64), 1e200),
                          dt=0.1, seed=0, stream=s) for s in range(2)], 0.0),
    "backaction_cubic_at_1e308": lambda: becmirror.self_consistent_detuning(
        becmirror.derive_parameters(PhysicalInput(**DEMO)), 1e308),
    "occupation_of_an_int_too_long_to_print": lambda: becmirror.thermal_occupation(
        10**5000, 1.0),
    "modes_of_an_int_too_long_to_print": lambda: becmirror.reduce_to_modes(
        np.eye(6), 10**5000),
}


@pytest.mark.parametrize("name", sorted(FORMER_LEAKS))
def test_former_leak_raises_validation_error(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError):
            FORMER_LEAKS[name]()


@pytest.mark.parametrize("value, digits", [
    (10**5000, 5001), (10**5000 - 1, 5000), (-(10**5000), 5001), (-(10**5000) + 1, 5000),
], ids=["1e5000", "1e5000-1", "-1e5000", "-1e5000+1"])
def test_refusal_shows_an_int_too_long_to_print_by_its_digit_count(value, digits):
    with pytest.raises(ValidationError, match=f"got an int of {digits} digits"):
        becmirror.thermal_occupation(value, 1.0)
    with pytest.raises(ValidationError, match=f"got an int of {digits} digits"):
        becmirror.reduce_to_modes(np.eye(6), value)
    with pytest.raises(ValidationError, match="got a tuple holding an int too long to print"):
        becmirror.reduce_to_modes(np.eye(6), (value,))


def test_every_export_is_called_or_exempt():
    exports = set(becmirror.__all__)
    assert set(CALLS) | set(EXEMPT) == exports
    assert not set(CALLS) & set(EXEMPT)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_public_call_returns_or_raises_package_error(name, data):
    call = CALLS[name](data.draw)
    samples, points = _small_caps()
    with samples, points, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            call()
        except BecMirrorError:
            pass
