import math
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from becmirror import (
    AxisSpec,
    ModelParams,
    SweepSpec,
    ValidationError,
    build_diffusion,
    build_drift,
    derive_parameters,
    emit,
    entanglement_result,
    model_params,
    parse_sweep,
    reduce_to_modes,
    run_sweep,
    solve_steady_covariance,
)
from becmirror import sweep
from becmirror.cli import _parse_axis, load_config
from becmirror.dynamics import eigen_stability
from becmirror.errors import BecMirrorError
from becmirror.sweep import BLOCK_POINTS, _grid_models

from support import TWO_PI, reference_input

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_spec(**axis_overrides) -> SweepSpec:
    axis = dict(name="g_mc", start=20.0, stop=120.0, points=6)
    axis.update(axis_overrides)
    return SweepSpec(base=reference_input(), axes=(AxisSpec(**axis),))


_AXIS_NAMES = st.sampled_from(["temperature", "g_mc", "G_mc", "detuning", "flux", ""])
_AXIS_NUMBERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["1e400", "-inf", "nan", "1_0", "True", ""]),
    st.text(max_size=4),
)
_AXIS_POINTS = st.one_of(
    st.integers(-2, 20).map(str),
    st.sampled_from(["2.5", "1e1", "1_0", "True", ""]),
)
#: axis strings, mostly of the right shape, with valid and invalid pieces
_AXIS_STRINGS = st.one_of(
    st.text(max_size=40),
    st.tuples(_AXIS_NAMES, _AXIS_NUMBERS, _AXIS_NUMBERS, _AXIS_POINTS).map(":".join),
    st.tuples(_AXIS_NAMES, _AXIS_NUMBERS, _AXIS_NUMBERS, _AXIS_POINTS,
              st.sampled_from(["log", "linear", "x"])).map(":".join),
)


def single_point_row(spec: SweepSpec, values: tuple[float, ...]):
    """The row of one grid point, evaluated as a sweep of that point alone."""
    axes = tuple(
        AxisSpec(name=axis.name, start=value, stop=value, points=1)
        for axis, value in zip(spec.axes, values)
    )
    return run_sweep(replace(spec, axes=axes)).rows[0]


def assert_rows_match_single_point_sweeps(spec: SweepSpec, result) -> None:
    """Every row, byte for byte, equals the sweep of its point alone."""
    for row in result.rows:
        assert repr(single_point_row(spec, row.axis_values)) == repr(row)


class TestAxisSpec:
    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValidationError, match="unknown axis"):
            AxisSpec(name="flux_capacitor", start=0.0, stop=1.0, points=3)

    def test_rejects_log_scale_with_nonpositive_bounds(self):
        with pytest.raises(ValidationError, match="log"):
            AxisSpec(name="temperature", start=0.0, stop=1.0, points=3, scale="log")

    def test_linear_and_log_values(self):
        lin = AxisSpec(name="temperature", start=1.0, stop=3.0, points=3)
        np.testing.assert_allclose(lin.values(), [1.0, 2.0, 3.0])
        log = AxisSpec(name="temperature", start=1.0, stop=100.0, points=3, scale="log")
        np.testing.assert_allclose(log.values(), [1.0, 10.0, 100.0])

    def test_single_point_axis(self):
        axis = AxisSpec(name="temperature", start=5.0, stop=5.0, points=1)
        np.testing.assert_allclose(axis.values(), [5.0])

    @pytest.mark.parametrize("field, value", [
        ("start", math.nan), ("start", math.inf), ("stop", -math.inf),
        ("start", "1e-6"), ("stop", None), ("start", True),
        ("points", 2.5), ("points", True), ("points", "3"),
    ])
    def test_rejects_non_finite_bounds_and_non_integer_points(self, field, value):
        axis = dict(name="temperature", start=1e-6, stop=1e-5, points=3)
        axis[field] = value
        with pytest.raises(ValidationError, match=field):
            AxisSpec(**axis)

    @pytest.mark.parametrize("start, stop", [(-1e308, 1e308), (1.5e308, -1e308)])
    def test_rejects_span_that_overflows(self, start, stop):
        with pytest.raises(ValidationError, match="overflows"):
            AxisSpec(name="effective_detuning", start=start, stop=stop, points=3)

    def test_widest_finite_span_gives_finite_values(self):
        axis = AxisSpec(name="effective_detuning", start=-8e307, stop=8e307, points=3)
        np.testing.assert_array_equal(axis.values(), [-8e307, 0.0, 8e307])

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        axis = AxisSpec(name="temperature", start=np.float32(1.0), stop=2,
                        points=np.int64(3))
        assert (type(axis.start), type(axis.stop), type(axis.points)) == (float, float, int)

    @settings(max_examples=300, deadline=None)
    @given(_AXIS_STRINGS)
    def test_any_axis_string_parses_or_raises_package_error(self, text):
        try:
            axis = _parse_axis(text)
        except BecMirrorError:
            return
        assert isinstance(axis, AxisSpec)
        assert math.isfinite(axis.start) and math.isfinite(axis.stop)
        assert np.all(np.isfinite(axis.values()))


class TestSweepSpec:
    def test_rejects_three_axes(self):
        axes = tuple(
            AxisSpec(name="temperature", start=1e-6, stop=1e-5, points=2)
            for _ in range(3)
        )
        with pytest.raises(ValidationError, match="axes"):
            SweepSpec(base=reference_input(), axes=axes)


class TestRunSweep:
    def test_degenerate_single_point_matches_direct_pipeline(self):
        spec = SweepSpec(
            base=reference_input(),
            axes=(AxisSpec(name="g_mc", start=80.0, stop=80.0, points=1),),
        )
        result = run_sweep(spec)
        assert len(result.rows) == 1
        row = result.rows[0].cells

        derived = replace(derive_parameters(reference_input()), g_mc=80.0)
        params = model_params(derived)
        cov = solve_steady_covariance(build_drift(params), build_diffusion(params))
        direct = entanglement_result(reduce_to_modes(cov))
        assert row["status"] == "ok"
        assert row["nu_minus"] == pytest.approx(direct.nu_minus, rel=1e-12)
        assert row["log_negativity"] == direct.log_negativity
        assert row["sigma"] == pytest.approx(direct.sigma, rel=1e-12)

    def test_grid_is_row_major(self):
        spec = SweepSpec(
            base=reference_input(),
            axes=(
                AxisSpec(name="g_mc", start=10.0, stop=20.0, points=2),
                AxisSpec(name="bec_coupling", start=1.0, stop=3.0, points=3),
            ),
        )
        result = run_sweep(spec)
        values = [row.axis_values for row in result.rows]
        assert values == [
            (10.0, 1.0), (10.0, 2.0), (10.0, 3.0),
            (20.0, 1.0), (20.0, 2.0), (20.0, 3.0),
        ]

    def test_unstable_points_marked_not_failed(self):
        spec = SweepSpec(
            base=reference_input(),
            axes=(AxisSpec(name="g_mc", start=50.0, stop=400.0, points=8),),
        )
        result = run_sweep(spec)
        statuses = {row.cells["status"] for row in result.rows}
        assert statuses == {"ok", "unstable"}
        for row in result.rows:
            if row.cells["status"] == "unstable":
                assert row.cells["log_negativity"] is None
                assert row.cells["eigen_stable"] is False
                assert row.cells["spectral_abscissa"] is not None

    def test_error_points_recorded_in_row(self):
        spec = SweepSpec(
            base=reference_input(),
            axes=(AxisSpec(name="gamma", start=-1.0, stop=1.0, points=3),),
        )
        result = run_sweep(spec)
        assert result.rows[0].cells["status"] == "error:ValidationError"
        assert result.rows[-1].cells["status"] in ("ok", "unstable")

    def test_model_parameter_axis_overrides_after_derivation(self):
        spec = SweepSpec(
            base=reference_input(),
            axes=(AxisSpec(name="detuning", start=TWO_PI * 1e6, stop=TWO_PI * 3e6,
                           points=2),),
        )
        result = run_sweep(spec)
        assert all(row.cells["status"] in ("ok", "unstable") for row in result.rows)

    def test_missing_effective_detuning_is_reported_per_point(self):
        base = reference_input(effective_detuning=None, bare_detuning=TWO_PI * 2e6)
        spec = SweepSpec(
            base=base,
            axes=(AxisSpec(name="temperature", start=-1e-6, stop=1e-5, points=3),),
        )
        result = run_sweep(spec)
        assert all(
            row.cells["status"] == "error:ValidationError" for row in result.rows
        )
        assert_rows_match_single_point_sweeps(spec, result)

    def test_point_evaluation_is_order_independent(self):
        spec = small_spec()
        result = run_sweep(spec)
        points = [row.axis_values for row in result.rows]
        shuffled = points.copy()
        random.Random(3).shuffle(shuffled)
        rebuilt = {values: single_point_row(spec, values) for values in shuffled}
        for row in result.rows:
            assert rebuilt[row.axis_values].cells == row.cells

    def test_blocks_match_single_point_sweeps(self):
        # Three blocks, the last one partial; negative G_mc is invalid, and
        # the drift loses stability as G_mc grows.
        spec = SweepSpec(
            base=reference_input(),
            axes=(AxisSpec(name="G_mc", start=-2e7, stop=2e8,
                           points=2 * BLOCK_POINTS + 3),),
            include_effective=True,
        )
        result = run_sweep(spec)
        statuses = [row.cells["status"] for row in result.rows]
        assert set(statuses) == {"error:ValidationError", "ok", "unstable"}
        for row in result.rows:
            assert single_point_row(spec, row.axis_values) == row

    def test_failing_point_leaves_its_block_neighbours_untouched(self):
        # n_th = 1e308 overflows the mirror's diffusion entry to inf, which
        # fails the stacked Lyapunov call of the whole block.
        spec = SweepSpec(
            base=reference_input(),
            axes=(
                AxisSpec(name="n_th", start=0.0, stop=1e308, points=2),
                AxisSpec(name="g_mc", start=20.0, stop=120.0, points=6),
            ),
        )
        with np.errstate(over="ignore"):
            result = run_sweep(spec)
            singles = [single_point_row(spec, row.axis_values) for row in result.rows]
        statuses = [row.cells["status"] for row in result.rows]
        assert statuses == ["ok"] * 6 + ["error:ValidationError"] * 6
        assert list(result.rows) == singles
        assert all(row.cells["eigen_stable"] for row in result.rows)

    def test_overflowed_point_fails_alone_in_the_grid_assembly(self):
        # 2 F overflows at finesse 1e308, so kappa derives to 0 there and the
        # mean-field step refuses the assembly of the whole grid; the points
        # at finesse 1e4 must keep their rows.
        spec = SweepSpec(
            base=reference_input(),
            axes=(
                AxisSpec(name="finesse", start=1e4, stop=1e308, points=2),
                AxisSpec(name="cavity_length", start=1e-3, stop=10.0, points=2),
            ),
        )
        result = run_sweep(spec)
        statuses = [row.cells["status"] for row in result.rows]
        assert statuses[2:] == ["error:ValidationError"] * 2
        assert not any(status.startswith("error") for status in statuses[:2])
        assert_rows_match_single_point_sweeps(spec, result)

    def test_larger_symplectic_eigenvalue_diagnostic(self):
        # nu_plus is emitted per row so its claimed separation from the 1/2
        # threshold can be checked over grids rather than assumed.
        result = run_sweep(small_spec())
        ok_rows = [r for r in result.rows if r.cells["status"] == "ok"]
        assert ok_rows
        assert all(r.cells["nu_plus"] > 0.5 for r in ok_rows)
        assert all(r.cells["nu_plus"] >= r.cells["nu_minus"] for r in ok_rows)

    def test_effective_columns_optional(self):
        spec = SweepSpec(
            base=reference_input(),
            axes=(AxisSpec(name="g_mc", start=50.0, stop=60.0, points=2),),
            include_effective=True,
        )
        result = run_sweep(spec)
        assert "coupling_ma" in result.columns
        ok_rows = [r for r in result.rows if r.cells["status"] == "ok"]
        assert ok_rows and all(r.cells["coupling_ma"] < 0 for r in ok_rows)


class TestGridAssembly:
    """The whole-grid model batch against the single-point derivation."""

    SPECS = {
        "temperature_finesse": (
            AxisSpec(name="temperature", start=-1e-5, stop=2e-5, points=4),
            AxisSpec(name="finesse", start=-1e4, stop=2e4, points=4),
        ),
        "ultracold_cavity_length": (
            AxisSpec(name="temperature", start=1e-9, stop=1e-3, points=7, scale="log"),
            AxisSpec(name="cavity_length", start=-1e-3, stop=2e-3, points=4),
        ),
        "temperature_gamma": (
            AxisSpec(name="temperature", start=0.0, stop=1e-4, points=3),
            AxisSpec(name="gamma", start=-TWO_PI * 100.0, stop=TWO_PI * 100.0, points=3),
        ),
        "effective_detuning_g_ac": (
            AxisSpec(name="effective_detuning", start=-TWO_PI * 2e6, stop=TWO_PI * 4e6,
                     points=4),
            AxisSpec(name="g_ac", start=-50.0, stop=100.0, points=4),
        ),
    }

    @staticmethod
    def scalar_model(spec: SweepSpec, values: tuple[float, ...]) -> ModelParams:
        physical, bare, model = {}, {}, {}
        for axis, value in zip(spec.axes, values):
            if axis.name in ("g_mc", "g_ac"):
                bare[axis.name] = value
            elif axis.name in ModelParams.field_names():
                model[axis.name] = value
            else:
                physical[axis.name] = value
        derived = replace(derive_parameters(replace(spec.base, **physical)), **bare)
        return replace(model_params(derived, model.pop("detuning", None)), **model)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_rows_match_single_point_sweeps(self, name):
        spec = SweepSpec(base=reference_input(), axes=self.SPECS[name],
                         include_effective=True)
        result = run_sweep(spec)
        statuses = {row.cells["status"] for row in result.rows}
        assert "error:ValidationError" in statuses
        assert statuses & {"ok", "unstable"}
        assert_rows_match_single_point_sweeps(spec, result)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_batch_equals_scalar_derivation(self, name):
        # Invalid axis values are masked, not allowed to fail the assembly
        # of the whole grid.
        spec = SweepSpec(base=reference_input(), axes=self.SPECS[name])
        grids = np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
        columns = {axis.name: grid.ravel() for axis, grid in zip(spec.axes, grids)}
        batch, status = _grid_models(spec.base, columns)
        points = list(zip(*(column.tolist() for column in columns.values())))
        for i, values in enumerate(points):
            try:
                expected = self.scalar_model(spec, values)
            except BecMirrorError as exc:
                assert status[i] == f"error:{type(exc).__name__}"
                continue
            assert status[i] is None
            for field in ModelParams.field_names():
                got, want = getattr(batch, field)[i], getattr(expected, field)
                if field == "n_th":
                    assert abs(got - want) <= np.spacing(want)
                else:
                    assert got == want, field
        assert 0 < status.count(None) < len(status)

    def test_zero_and_ultracold_temperatures_give_no_thermal_occupation(self):
        spec = SweepSpec(
            base=reference_input(),
            axes=(AxisSpec(name="temperature", start=0.0, stop=1e-9, points=2),),
        )
        columns = {"temperature": spec.axes[0].values()}
        batch, status = _grid_models(spec.base, columns)
        assert status == [None, None]
        assert batch.n_th.tolist() == [0.0, 0.0]

    def test_model_axes_do_not_hide_an_invalid_derivation(self):
        # The drive overflows at this power, so the derived G_mc and G_ac are
        # infinite: model_params refuses every point before the model axes
        # would replace both couplings with valid values.
        spec = SweepSpec(
            base=reference_input(laser_power=1e308),
            axes=(
                AxisSpec(name="G_mc", start=1e5, stop=2e5, points=2),
                AxisSpec(name="G_ac", start=1e5, stop=2e5, points=2),
            ),
        )
        result = run_sweep(spec)
        assert [row.cells["status"] for row in result.rows] == ["error:ValidationError"] * 4


def count_drifts(monkeypatch) -> list[int]:
    """Record the number of matrices of each stacked eigenvalue call a sweep
    makes."""
    counts: list[int] = []

    def counting(drifts):
        counts.append(len(drifts))
        return eigen_stability(drifts)

    monkeypatch.setattr(sweep, "eigen_stability", counting)
    return counts


class TestDriftSharing:
    """Points whose drifts are bitwise equal share the drift-only work."""

    @staticmethod
    def temperature_spec() -> SweepSpec:
        # The temperature changes the diffusion only.  -2e-5 K is invalid, so
        # each detuning keeps 4 valid points; 4 divides BLOCK_POINTS, so no
        # drift has points in two blocks, and the 80 valid points fill two
        # blocks, the second one partially.
        return SweepSpec(
            base=load_config(str(CONFIGS / "demo.json")),
            axes=(
                AxisSpec(name="temperature", start=-2e-5, stop=1e-4, points=5),
                AxisSpec(name="effective_detuning", start=4.8e6, stop=1.9e7, points=20),
            ),
            include_effective=True,
        )

    def test_rows_match_single_point_sweeps(self):
        spec = self.temperature_spec()
        result = run_sweep(spec)
        statuses = [row.cells["status"] for row in result.rows]
        assert statuses == ["error:ValidationError"] * 20 + ["ok"] * 80
        assert all(row.cells["coupling_ma"] is not None for row in result.rows[20:])
        assert_rows_match_single_point_sweeps(spec, result)

    def test_stability_runs_once_per_distinct_detuning(self, monkeypatch):
        counts = count_drifts(monkeypatch)
        run_sweep(self.temperature_spec())
        assert BLOCK_POINTS % 4 == 0
        assert sum(counts) == 20

    def test_signed_zero_couplings_are_not_merged(self, monkeypatch):
        # linspace(0.0, -0.0) gives both signed zeros; the drift entries they
        # set differ in their sign bit only.
        spec = SweepSpec(base=reference_input(),
                         axes=(AxisSpec(name="g_ac", start=0.0, stop=-0.0, points=2),))
        assert np.signbit(spec.axes[0].values()).tolist() == [False, True]
        counts = count_drifts(monkeypatch)
        result = run_sweep(spec)
        assert sum(counts) == 2
        monkeypatch.undo()
        assert_rows_match_single_point_sweeps(spec, result)

    @staticmethod
    def coupling_spec() -> SweepSpec:
        # At bec_coupling = 0 the condensate block [[0, om_a], [-om_a, 0]] is
        # lossless and decoupled: the drift is marginal and its Lyapunov
        # operator singular.  The other couplings are stable.
        return SweepSpec(
            base=load_config(str(CONFIGS / "demo.json")),
            axes=(
                AxisSpec(name="temperature", start=1e-6, stop=1e-4, points=3),
                AxisSpec(name="bec_coupling", start=0.0, stop=400.0, points=3),
            ),
        )

    def test_unstable_drift_is_not_solved_for(self, monkeypatch):
        # Solving for the singular drift would fail the block, and the
        # one-point fallback would check stability again point by point.
        counts = count_drifts(monkeypatch)
        result = run_sweep(self.coupling_spec())
        assert [row.cells["status"] for row in result.rows] == ["unstable", "ok", "ok"] * 3
        assert sum(counts) == 3

    def test_singular_drift_fails_only_its_points(self, monkeypatch):
        # Declaring every drift stable sends the singular one to the solver
        # next to regular drifts in one block.
        def all_stable(drifts):
            eigenvalues, abscissa, marginal, stable = eigen_stability(drifts)
            return eigenvalues, abscissa, marginal, np.ones_like(stable)

        monkeypatch.setattr(sweep, "eigen_stability", all_stable)
        spec = self.coupling_spec()
        result = run_sweep(spec)
        assert [row.cells["status"] for row in result.rows] == [
            "error:NumericalError", "ok", "ok"
        ] * 3
        assert_rows_match_single_point_sweeps(spec, result)


class TestEmit:
    def test_csv_layout(self):
        blob = emit(run_sweep(small_spec(points=2)))
        lines = blob.decode().splitlines()
        header_lines = [line for line in lines if line.startswith("#")]
        assert any("config_hash=" in line for line in header_lines)
        assert any("constants_version=codata-2018" in line for line in header_lines)
        table = [line for line in lines if not line.startswith("#")]
        assert table[0].startswith("g_mc,status,")
        assert len(table) == 3

    def test_byte_identical_across_runs(self):
        spec = small_spec()
        first = emit(run_sweep(spec))
        second = emit(run_sweep(spec))
        assert first == second

    def test_round_trip_csv(self):
        result = run_sweep(small_spec(points=3))
        blob = emit(result, "csv")
        parsed = parse_sweep(blob, "csv")
        assert parsed["provenance"]["config_hash"] == result.provenance["config_hash"]
        assert len(parsed["rows"]) == 3
        for parsed_row, row in zip(parsed["rows"], result.rows):
            assert parsed_row["g_mc"] == row.axis_values[0]
            assert parsed_row["nu_minus"] == row.cells["nu_minus"]
            assert parsed_row["eigen_stable"] == row.cells["eigen_stable"]

    def test_round_trip_json(self):
        result = run_sweep(small_spec(points=2))
        parsed = parse_sweep(emit(result, "json"), "json")
        assert parsed["provenance"] == result.provenance
        assert parsed["rows"][0]["status"] == result.rows[0].cells["status"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValidationError, match="format"):
            emit(run_sweep(small_spec(points=2)), "yaml")

    def test_config_hash_tracks_configuration(self):
        a = run_sweep(small_spec(points=2)).provenance["config_hash"]
        b = run_sweep(small_spec(points=3)).provenance["config_hash"]
        assert a != b
