import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import becmirror
from becmirror.cli import load_config, main

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Stable, fast-relaxing configuration: near-resonant cavity, low-Q mirror,
# weak drive; suitable for in-process stochastic runs.
DEMO_CONFIG = {
    "cavity_length": 0.01,
    "laser_wavelength": 1000e-9,
    "laser_power": 2.4e-5,
    "mirror_mass": 4e-12,
    "mirror_frequency": TWO_PI * 1e6,
    "mirror_damping": TWO_PI * 5e4,
    "temperature": 10e-6,
    "finesse": 7500.0,
    "bec_coupling": 385.0,
    "bec_frequency": TWO_PI * 1e6,
    "effective_detuning": TWO_PI * 1.5e6,
}


@pytest.fixture
def demo_config(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(DEMO_CONFIG))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigLoading:
    def test_hz_unit_conversion(self, tmp_path):
        raw = dict(DEMO_CONFIG)
        raw["mirror_frequency"] = 1e6
        raw["effective_detuning"] = 1.5e6
        raw["mirror_damping"] = 5e4
        raw["bec_frequency"] = 1e6
        raw["bec_coupling"] = 385.0 / TWO_PI
        raw["frequency_unit"] = "hz"
        path = tmp_path / "hz.json"
        path.write_text(json.dumps(raw))
        loaded = load_config(str(path))
        assert loaded.mirror_frequency == pytest.approx(TWO_PI * 1e6)
        assert loaded.effective_detuning == pytest.approx(TWO_PI * 1.5e6)
        assert loaded.bec_coupling == pytest.approx(385.0)
        assert loaded.cavity_length == 0.01

    def test_flag_overrides_config_unit(self, tmp_path):
        raw = dict(DEMO_CONFIG)
        path = tmp_path / "rad.json"
        path.write_text(json.dumps(raw))
        loaded = load_config(str(path), frequency_unit="rad_s")
        assert loaded.mirror_frequency == DEMO_CONFIG["mirror_frequency"]

    def test_unknown_key_rejected(self, tmp_path):
        raw = dict(DEMO_CONFIG, mystery=1.0)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(Exception, match="mystery"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([DEMO_CONFIG], "JSON object"),
            ({k: v for k, v in DEMO_CONFIG.items() if k != "mirror_mass"}, "mirror_mass"),
            (dict(DEMO_CONFIG, temperature="1e-5"), "temperature"),
            (dict(DEMO_CONFIG, mirror_damping=None), "mirror_damping"),
            (dict(DEMO_CONFIG, cavity_length=True), "cavity_length"),
            (dict(DEMO_CONFIG, frequency_unit="hz", mirror_frequency="1e6"),
             "mirror_frequency"),
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, raw, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "entangle", "--config", str(path))
        assert code == 2
        assert err.startswith("error:") and message in err


    @pytest.mark.parametrize("content", [
        b"\xff\xfe not UTF-8",
        json.dumps(dict(DEMO_CONFIG, laser_power=10**400)).encode(),
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["non_utf8", "401_digit_int", "100000_deep_array"])
    def test_unreadable_config_exits_two_with_one_error_line(self, tmp_path, capsys,
                                                             content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "derive", "--config", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_derivation_out_of_float_range_exits_two_with_one_error_line(self, tmp_path,
                                                                         capsys):
        path = tmp_path / "tiny_wavelength.json"
        path.write_text(json.dumps(dict(DEMO_CONFIG, laser_wavelength=5e-324)))
        code, out, err = run_cli(capsys, "derive", "--config", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "out of float range" in err


#: JSON values a config field may hold, the float range's ends included
_JSON_VALUES = st.one_of(
    st.floats(), st.floats(min_value=5e-324, max_value=1e308),
    st.sampled_from([0, 10**400, -(10**400), True, None, "1e-5", [], {}]),
    st.integers(), st.text(max_size=3),
)


@st.composite
def _config_documents(draw) -> bytes:
    """A config file: the demo config with fields replaced, removed or added,
    or another JSON document, or bytes that are not UTF-8."""
    kind = draw(st.sampled_from(["fields", "fields", "fields", "document", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=8)) + b"\xff"
    if kind == "document":
        leaves = st.one_of(_JSON_VALUES, st.just(DEMO_CONFIG))
        return json.dumps(draw(st.recursive(leaves, st.lists, max_leaves=4))).encode()
    raw = dict(DEMO_CONFIG)
    keys = sorted(DEMO_CONFIG) + ["cavity_decay", "lattice_depth", "frequency_unit", "x"]
    for key in draw(st.lists(st.sampled_from(keys), max_size=3)):
        if draw(st.booleans()):
            raw[key] = draw(st.one_of(_JSON_VALUES, st.sampled_from(["hz", "rad_s"])))
        else:
            raw.pop(key, None)
    return json.dumps(raw).encode()


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "config.json"


@settings(max_examples=150, deadline=None)
@given(content=_config_documents(),
       command=st.sampled_from(["derive", "stability", "covariance", "entangle", "effective"]))
def test_any_config_gives_a_result_or_one_error_line(config_path, content, command):
    config_path.write_bytes(content)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(config_path)])
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert (code, out.getvalue()) == (2, "")
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


class TestSimpleCommands:
    def test_derive(self, demo_config, capsys):
        code, out, err = run_cli(capsys, "derive", "--config", demo_config)
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == pytest.approx(6.27881e6, rel=1e-4)
        assert doc["n_th"] == pytest.approx(8.304e-3, rel=1e-3)

    def test_stability_report(self, demo_config, capsys):
        code, out, err = run_cli(capsys, "stability", "--config", demo_config)
        assert code == 0
        doc = json.loads(out)
        assert doc["is_stable"] is True
        assert len(doc["eigenvalues"]) == 6
        assert all(len(pair) == 2 for pair in doc["eigenvalues"])
        assert doc["criterion_pass"] is True

    def test_covariance(self, demo_config, capsys):
        code, out, err = run_cli(capsys, "covariance", "--config", demo_config)
        assert code == 0
        doc = json.loads(out)
        assert doc["ordering"] == ["q_m", "p_m", "q_a", "p_a", "q_c", "p_c"]
        matrix = np.array(doc["covariance"])
        assert matrix.shape == (6, 6)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
        assert doc["residual"] <= 1e-10

    def test_entangle(self, demo_config, capsys):
        code, out, err = run_cli(capsys, "entangle", "--config", demo_config)
        assert code == 0
        doc = json.loads(out)
        assert doc["nu_minus"] > 0.0
        assert doc["log_negativity"] >= 0.0
        assert isinstance(doc["simon_separable"], bool)
        assert doc["clamped"] is False

    def test_entangle_detuning_override(self, demo_config, capsys):
        code, out, err = run_cli(
            capsys, "entangle", "--config", demo_config,
            "--detuning", str(TWO_PI * 2e6),
        )
        assert code == 0
        assert json.loads(out)["nu_minus"] > 0.0

    def test_entangle_overflowing_covariance_reports_numerical_error(self, tmp_path,
                                                                     capsys):
        # At 1e296 K the Lyapunov residual overflows to NaN: the command
        # reports the failed gate alone, with no floating-point warning.
        raw = json.loads((CONFIGS / "demo.json").read_text())
        path = tmp_path / "hot.json"
        path.write_text(json.dumps({**raw, "temperature": 1e296}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "entangle", "--config", str(path))
        assert (code, out) == (2, "")
        assert err == "error: Lyapunov residual nan exceeds tolerance 1e-10\n"
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_effective(self, demo_config, capsys):
        code, out, err = run_cli(capsys, "effective", "--config", demo_config)
        assert code == 0
        doc = json.loads(out)
        assert doc["coupling_ma"] < 0.0
        assert doc["beam_splitter_coeff"] == doc["down_conversion_coeff"]

    def test_missing_config_errors(self, capsys):
        code = main(["derive", "--config", "/nonexistent.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert "No such file" in err

    def test_constants_pin_mismatch(self, demo_config, capsys, monkeypatch):
        monkeypatch.setenv("BECMIRROR_CONSTANTS", "codata-1986")
        code, _, err = run_cli(capsys, "derive", "--config", demo_config)
        assert code == 2
        assert "codata" in err


class TestSweepCommand:
    def test_writes_csv_and_exits_zero(self, demo_config, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--config", demo_config,
            "--axis", "bec_coupling:0:600:5",
            "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# becmirror sweep")
        assert "bec_coupling,status," in text

    def test_repeat_runs_byte_identical(self, demo_config, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, err = run_cli(
                capsys, "sweep", "--config", demo_config,
                "--axis", "temperature:1e-6:1e-4:7:log",
                "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_two_axes_and_json(self, demo_config, tmp_path, capsys):
        out_path = tmp_path / "sweep.json"
        code, _, err = run_cli(
            capsys, "sweep", "--config", demo_config,
            "--axis", "bec_coupling:100:300:2",
            "--axis", "temperature:1e-6:1e-5:2",
            "--out", str(out_path), "--format", "json",
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["axes"] == ["bec_coupling", "temperature"]
        assert len(doc["rows"]) == 4

    def test_bad_axis_syntax(self, demo_config, capsys):
        for axis in ("temperature:1:2", "temperature:0:1:x", "temperature:a:1:3",
                     "temperature:nan:1e-3:3", "temperature:0:inf:3",
                     "temperature:0:1:2.5"):
            code, _, err = run_cli(
                capsys, "sweep", "--config", demo_config, "--axis", axis, "--out", "-",
            )
            assert code == 2
            assert err.startswith("error:")

    def test_ultracold_temperatures_exit_zero(self, demo_config, capsys):
        # hbar om_m / (k_B T) reaches 4.8e4 at 1 nK; n_th underflows to 0.
        code, out, err = run_cli(
            capsys, "sweep", "--config", demo_config,
            "--axis", "temperature:1e-9:1e-5:3", "--out", "-",
        )
        assert code == 0
        assert out.count(",ok,") == 3

    def test_effective_overflow_gives_error_rows(self, tmp_path, capsys):
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--config", str(CONFIGS / "demo.json"),
            "--axis", "detuning:1e200:1e201:2", "--effective", "--out", str(out_path),
        )
        assert code == 1
        assert "Traceback" not in err
        rows = [line for line in out_path.read_text().splitlines()
                if line.startswith("1e+20")]
        assert len(rows) == 2
        assert all(",error:ValidationError," in row for row in rows)

    @pytest.mark.parametrize("config, axis, expected", [
        ("demo.json", "detuning:1e200:1e201:2", 0),
        ("demo.json", "n_th:0:1e300:3", 1),
        ("canonical.json", "g_mc:0:1e160:3", 0),
        ("demo.json", "effective_detuning:-1e308:1e308:3", 2),
    ])
    def test_extreme_axis_values_raise_no_runtime_warning(self, capsys, config, axis,
                                                          expected):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(
                capsys, "sweep", "--config", str(CONFIGS / config), "--axis", axis,
                "--out", "-",
            )
        assert code == expected
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert "Warning" not in err

    def test_stdout_output(self, demo_config, capsys):
        code = main([
            "sweep", "--config", demo_config,
            "--axis", "bec_coupling:100:200:2", "--out", "-",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("# becmirror sweep")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_and_file_get_the_same_bytes(self, demo_config, tmp_path, capsysbinary,
                                                fmt):
        argv = ["sweep", "--config", demo_config, "--axis", "temperature:1e-6:1e-4:7:log",
                "--axis", "bec_coupling:100:300:3", "--effective", "--format", fmt]
        assert main(argv + ["--out", "-"]) == 0
        written = capsysbinary.readouterr().out
        path = tmp_path / f"sweep.{fmt}"
        assert main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == written
        assert written.startswith(b"# becmirror" if fmt == "csv" else b'{"axes":')


class TestStochasticCommands:
    def test_sde_verify_report(self, demo_config, capsys):
        code, out, err = run_cli(
            capsys, "sde-verify", "--config", demo_config,
            "--trajectories", "3", "--horizon", "2.0e-4", "--burn-in-factor", "4",
        )
        assert code == 0
        doc = json.loads(out)
        assert np.array(doc["lyapunov"]).shape == (6, 6)
        assert np.array(doc["ensemble"]).shape == (6, 6)
        assert np.isfinite(doc["max_abs_z"])
        assert isinstance(doc["pass_3_sigma"], bool)

    def test_sde_verify_step_guard(self, demo_config, capsys):
        code, _, err = run_cli(
            capsys, "sde-verify", "--config", demo_config, "--horizon", "1e3",
        )
        assert code == 2
        assert "cap of 1e+07" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["sde-verify", "--dt", "0"],
            ["sde-verify", "--dt=-1e-9"],
            ["sde-verify", "--horizon", "0"],
            ["homodyne-sim", "--probe-kappa", "0"],
            ["sde-verify", "--seed=-1"],
            ["homodyne-sim", "--seed=-1"],
            ["sde-verify", "--burn-in-factor=-5"],
            ["homodyne-sim", "--burn-in-factor", "nan"],
        ],
    )
    def test_zero_or_negative_values_rejected(self, demo_config, capsys, argv):
        code, _, err = run_cli(capsys, *argv, "--config", demo_config)
        assert code == 2
        assert "must be" in err

    def test_homodyne_sim(self, demo_config, tmp_path, capsys):
        traj_dir = tmp_path / "trajs"
        code, out, err = run_cli(
            capsys, "homodyne-sim", "--config", demo_config,
            "--trajectories", "3", "--horizon", "1.2e-4",
            "--save-trajectories", str(traj_dir),
        )
        assert code == 0
        doc = json.loads(out)
        assert np.array(doc["reconstructed"]).shape == (4, 4)
        assert np.array(doc["stderr"]).shape == (4, 4)
        assert doc["ordering"] == ["q_m", "p_m", "q_a", "p_a"]
        dumps = sorted(traj_dir.glob("trajectory_*.csv"))
        assert len(dumps) == 3
        header = dumps[0].read_text().splitlines()[0]
        assert header == "t,q_m,p_m,q_a,p_a,q_c,p_c"

    def test_homodyne_sim_weak_probe_coupling(self, capsys):
        # A weak probe makes the least-squares design tiny (~1e-14), not
        # rank-deficient: every covariance entry is reconstructed.
        code, out, err = run_cli(
            capsys, "homodyne-sim", "--config", str(CONFIGS / "demo.json"),
            "--trajectories", "2", "--horizon", "1e-4", "--probe-coupling", "0.1",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert np.all(np.isfinite(doc["reconstructed"]))
        assert np.all(np.isfinite(doc["stderr"]))

    def test_homodyne_sim_probe_gain_out_of_float_range(self, capsys):
        # 1 / (2 kappa1) overflows at kappa1 = 5e-324 and the coupling
        # kappa1 / 20 underflows to 0, so the weights are inf * 0 = NaN;
        # only the error line may reach stderr.
        code, out, err = run_cli(
            capsys, "homodyne-sim", "--config", str(CONFIGS / "demo.json"),
            "--trajectories", "2", "--horizon", "1e-5", "--probe-kappa", "5e-324",
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: homodyne record leaves the float range: the probe gain "
            "G / (2 kappa1), its rotation detuning1 * t or the signal is too large"
        ]


class TestStartup:
    def test_import_loads_no_scipy(self):
        # scipy.linalg would add about a third of a second to every start of
        # the program; the package needs numpy only.
        source = str(Path(becmirror.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
        probe = (
            "import sys, becmirror, becmirror.cli; "
            "print(becmirror.__file__); print('scipy' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        ).stdout.split()
        assert Path(out[0]).resolve() == Path(becmirror.__file__).resolve()
        assert out[1] == "False"
