"""Seeded workload generation, the serial replay baseline and output checks.

Each workload is a list of ``becmirror`` CLI argument vectors built from the
benchmark seed.  The seed jitters the configuration and axis bounds by a few
percent (sweeps) or picks the random streams (stochastic check), so different
seeds give different inputs with the same shape of work.  The program only
ever sees the generated config files and argv.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy.linalg

from becmirror import cli
from becmirror.cli import load_config
from becmirror.dynamics import build_diffusion, build_drift, check_stability_eigen
from becmirror.effective import effective_parameters
from becmirror.entanglement import entanglement_result, reduce_to_modes
from becmirror.errors import BecMirrorError
from becmirror.lyapunov import residual, solve_steady_covariance
from becmirror.params import PhysicalInput, derive_parameters, model_params

#: per-point Lyapunov residual gate every ``ok`` sweep row must meet
RESIDUAL_TOL = 1e-10
#: error rows that the replay reproduces (the residual gate refusing an
#: ill-conditioned stable point, on about one seed in fifteen of
#: sweep_couplings) are reported as a known defect up to this many per sweep;
#: beyond it they count as failures
KNOWN_ERROR_POINTS = 4
#: sweep cells must agree with the single-threaded replay to this tolerance
MATCH_RTOL = 1e-9
MATCH_ATOL = 1e-9
#: Lyapunov covariances reported by the CLI against scipy's solver
LYAPUNOV_RTOL = 1e-8
#: sweep nu_- against the scipy/eigenvalue oracle, on this many stable points
ORACLE_RTOL = 1e-7
ORACLE_POINTS = 256
#: ensemble covariance against the Lyapunov covariance, in batch-means
#: standard errors.  With two trajectories the 32 batches of 1.25 relaxation
#: times are correlated and their errors underestimated, so max|z| reaches
#: 3-4.3 on ordinary seeds; the CLI's own 3-sigma verdict is not a steady gate.
ENSEMBLE_Z_TOL = 6.0
#: homodyne reconstruction against the Lyapunov diagonal, relative error
RECONSTRUCT_REL_TOL = 1.0
#: stochastic runs last this many relaxation times 1/|spectral abscissa|
HORIZON_RELAX = 30.0
TRAJECTORIES = 2

_PHYSICAL_FIELDS = frozenset(PhysicalInput.field_names())

_COMPARED = (
    "eigen_stable", "spectral_abscissa", "criterion_value", "criterion_pass",
    "nu_minus", "nu_plus", "log_negativity", "sigma", "det_cov",
    "freq_shift_mirror", "freq_shift_bec", "coupling_ma", "adiabatic",
)


@dataclass
class Command:
    argv: list[str]
    kind: str
    out: Path | None = None


@dataclass
class SweepPlan:
    base: PhysicalInput
    axes: list[tuple[str, np.ndarray]]
    effective: bool
    fmt: str
    stable_band: tuple[float, float]

    @property
    def points(self) -> list[tuple[float, ...]]:
        if len(self.axes) == 1:
            return [(float(v),) for v in self.axes[0][1]]
        return [(float(a), float(b)) for a in self.axes[0][1] for b in self.axes[1][1]]


@dataclass
class Workload:
    name: str
    config: str
    commands: list[Command]
    points: int = 0
    relax: float = 0.0
    sweep: SweepPlan | None = None
    oracle: np.ndarray | None = None
    #: the commands as run with the CLI's default workers, when they differ
    pooled: list[Command] | None = None


@dataclass
class Verdict:
    """Outcome of checking one command's output."""

    ops: int
    failed: int = 0
    known_failed: int = 0
    notes: list[str] = field(default_factory=list)
    values: dict = field(default_factory=dict)


def _jitter(rng: np.random.Generator, width: float) -> float:
    return 1.0 + float(rng.uniform(-width, width))


def _write_config(path: Path, raw: dict) -> str:
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return str(path)


def _axis_arg(name: str, start: float, stop: float, points: int, scale: str) -> str:
    arg = f"{name}:{start!r}:{stop!r}:{points}"
    return arg + ":log" if scale == "log" else arg


def _axis_values(start: float, stop: float, points: int, scale: str) -> np.ndarray:
    if scale == "log":
        return np.geomspace(start, stop, points)
    return np.linspace(start, stop, points)


def serial_args() -> list[str]:
    """``--workers 1`` if this version's ``sweep`` takes that option, else nothing.

    The sweep's default thread pool runs more threads than a small machine
    has cores; its time then depends on how the scheduler hands the GIL
    between them and swings by tens of percent from one run to the next.
    One worker keeps the sweep in one thread.  A version without the option
    is run with its defaults.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        cli.main(["sweep", "--help"])
    return ["--workers", "1"] if "--workers" in out.getvalue() else []


def _sweep_workload(name, cfg, axes, extra, fmt, out, band) -> Workload:
    argv = ["sweep", "--config", cfg]
    for axis in axes:
        argv += ["--axis", _axis_arg(*axis)]
    argv += extra + ["--out", str(out)]
    serial = serial_args()
    plan = SweepPlan(
        base=load_config(cfg),
        axes=[(axis[0], _axis_values(*axis[1:])) for axis in axes],
        effective="--effective" in extra,
        fmt=fmt,
        stable_band=band,
    )
    return Workload(name, cfg, [Command(argv + serial, "sweep", out)], points=len(plan.points),
                    sweep=plan, pooled=[Command(argv, "sweep", out)] if serial else None)


def sweep_couplings(seed: int, root: Path, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    raw = json.loads((root / "configs" / "canonical.json").read_text())
    raw["temperature"] *= _jitter(rng, 0.05)
    cfg = _write_config(work / "canonical.json", raw)
    axes = [
        ("g_mc", 0.0, 500.0 * _jitter(rng, 0.02), 64, "linear"),
        ("g_ac", 0.0, 500.0 * _jitter(rng, 0.02), 64, "linear"),
    ]
    # About 18 % of this grid is eigenvalue-stable at the unjittered bounds.
    return _sweep_workload("sweep_couplings", cfg, axes, [], "csv", work / "sweep.csv",
                           (0.12, 0.24))


def sweep_physical(seed: int, root: Path, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    raw = json.loads((root / "configs" / "demo.json").read_text())
    cfg = _write_config(work / "demo.json", raw)
    detuning = raw["effective_detuning"]
    axes = [
        ("temperature", 1e-6 * _jitter(rng, 0.05), 1e-3 * _jitter(rng, 0.05), 48, "log"),
        ("effective_detuning", 0.5 * detuning * _jitter(rng, 0.02),
         2.0 * detuning * _jitter(rng, 0.02), 48, "linear"),
    ]
    return _sweep_workload("sweep_physical", cfg, axes, ["--effective", "--format", "json"],
                           "json", work / "sweep.json", (1.0, 1.0))


def sde_readout(seed: int, root: Path, work: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    raw = json.loads((root / "configs" / "demo.json").read_text())
    raw["temperature"] *= _jitter(rng, 0.05)
    cfg = _write_config(work / "demo.json", raw)
    params = model_params(derive_parameters(load_config(cfg)))
    drift, diffusion = build_drift(params), build_diffusion(params)
    abscissa = abs(check_stability_eigen(drift).spectral_abscissa)
    horizon = HORIZON_RELAX / abscissa
    common = ["--config", cfg, "--trajectories", str(TRAJECTORIES), "--seed", str(seed),
              "--horizon", repr(horizon)]
    commands = [Command(["sde-verify"] + common, "sde-verify"),
                Command(["homodyne-sim"] + common, "homodyne-sim")]
    return Workload(
        "sde_readout",
        cfg,
        commands,
        relax=len(commands) * TRAJECTORIES * horizon * abscissa,
        oracle=scipy.linalg.solve_continuous_lyapunov(drift, -diffusion),
    )


GENERATORS = {
    "sweep_couplings": sweep_couplings,
    "sweep_physical": sweep_physical,
    "sde_readout": sde_readout,
}


def _point_params(plan: SweepPlan, values: tuple[float, ...]):
    """ModelParams of one grid point, built as the sweep documents it."""
    physical = plan.base
    bare = {}
    for (name, _), value in zip(plan.axes, values):
        if name in _PHYSICAL_FIELDS:
            physical = replace(physical, **{name: value})
        else:
            bare[name] = value
    derived = derive_parameters(physical)
    if bare:
        derived = replace(derived, **bare)
    return model_params(derived)


def replay(plan: SweepPlan) -> tuple[list[dict], float]:
    """Evaluate the sweep grid point by point in this thread.

    Calls the public layer functions directly (no pool, no emitter) and
    returns the cells the CLI table should hold, with the elapsed seconds.
    """
    rows = []
    start = time.perf_counter()
    for values in plan.points:
        try:
            rows.append(_replay_point(plan, values))
        except BecMirrorError as exc:  # the sweep records these as error rows
            rows.append({"status": f"error:{type(exc).__name__}"})
    return rows, time.perf_counter() - start


def _replay_point(plan: SweepPlan, values: tuple[float, ...]) -> dict:
    params = _point_params(plan, values)
    drift = build_drift(params)
    report = check_stability_eigen(drift, params)
    cells = {
        "status": "ok" if report.is_stable else "unstable",
        "eigen_stable": report.is_stable,
        "spectral_abscissa": report.spectral_abscissa,
        "criterion_value": report.criterion_value,
        "criterion_pass": report.criterion_pass,
    }
    if plan.effective and params.detuning > 0:
        eff = effective_parameters(params.G_mc, params.G_ac, params.detuning, params.kappa,
                                   om_m=params.om_m, om_a=params.om_a)
        cells.update(freq_shift_mirror=eff.freq_shift_mirror,
                     freq_shift_bec=eff.freq_shift_bec,
                     coupling_ma=eff.coupling_ma, adiabatic=eff.adiabatic)
    if report.is_stable:
        diffusion = build_diffusion(params)
        cov = solve_steady_covariance(drift, diffusion, check_stability=False)
        residual(drift, diffusion, cov)
        result = entanglement_result(reduce_to_modes(cov))
        cells.update(nu_minus=result.nu_minus, nu_plus=result.nu_plus,
                     log_negativity=result.log_negativity, sigma=result.sigma,
                     det_cov=result.det_cov)
    return cells


def oracle_nu_minus(plan: SweepPlan, expected: list[dict]) -> dict[int, float]:
    """nu_- from scipy's Lyapunov solver and an eigen-decomposition.

    Independent of the package's solver and closed-form measure; evaluated
    on up to ``ORACLE_POINTS`` evenly spaced stable points.
    """
    stable = [i for i, row in enumerate(expected) if row["status"] == "ok"]
    picked = stable[:: -(-len(stable) // ORACLE_POINTS) or 1]
    oracle = {}
    for index in picked:
        params = _point_params(plan, plan.points[index])
        cov = scipy.linalg.solve_continuous_lyapunov(build_drift(params),
                                                     -build_diffusion(params))
        oracle[index] = symplectic_nu_minus(cov[:4, :4])
    return oracle


def _csv_cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_table(blob: bytes, fmt: str, n_axes: int) -> list[tuple[tuple, dict]]:
    """(axis values, cells) per row, parsed independently of the package."""
    if fmt == "json":
        doc = json.loads(blob)
        return [(tuple(row["axis_values"]), row) for row in doc["rows"]]
    lines = [line for line in blob.decode().splitlines() if line and not line.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = dict(zip(header, (_csv_cell(c) for c in line.split(","))))
        rows.append((tuple(cells[h] for h in header[:n_axes]), cells))
    return rows


def _same(a, b) -> bool:
    if a is None or b is None or isinstance(a, bool) or isinstance(b, bool):
        return a == b
    return math.isclose(a, b, rel_tol=MATCH_RTOL, abs_tol=MATCH_ATOL)


def check_sweep(plan: SweepPlan, blob: bytes | None, rc: int, expected: list[dict],
                oracle: dict[int, float]) -> Verdict:
    """Row checks against the gates, the replay and the oracle, plus the
    stable-count band."""
    n = len(plan.points)
    verdict = Verdict(ops=n)
    if rc not in (0, 1) or blob is None:  # 1: the table is written, with error rows
        verdict.failed = n
        verdict.notes.append(f"sweep exited {rc}")
        return verdict
    rows = parse_table(blob, plan.fmt, len(plan.axes))
    if len(rows) != n:
        verdict.failed = n
        verdict.notes.append(f"{len(rows)} rows for {n} grid points")
        return verdict
    errors = stable = 0
    bad_rows, known = set(), set()
    for index, ((axis_values, cells), point, want) in enumerate(zip(rows, plan.points, expected)):
        status = str(cells.get("status"))
        if status.startswith("error"):
            errors += 1
            (known if status == want["status"] else bad_rows).add(index)
            continue
        stable += status == "ok"
        if status != want["status"] or not all(map(_same, axis_values, point)):
            bad_rows.add(index)
            continue
        if any(not _same(cells.get(key), want.get(key)) for key in _COMPARED if key in cells):
            bad_rows.add(index)
            continue
        if status == "ok":
            nu = cells["nu_minus"]
            if not (cells["residual"] <= RESIDUAL_TOL
                    and math.isclose(cells["log_negativity"], _log_negativity(nu),
                                     rel_tol=1e-12, abs_tol=1e-15)
                    and (index not in oracle
                         or math.isclose(nu, oracle[index], rel_tol=ORACLE_RTOL))):
                bad_rows.add(index)
    if rc != (1 if errors else 0):
        verdict.notes.append(f"sweep exited {rc} with {errors} error rows")
        bad_rows = set(range(n))
    if len(known) > KNOWN_ERROR_POINTS:
        bad_rows |= known
    elif known:
        verdict.known_failed = len(known)
        verdict.notes.append(
            f"known defect: {len(known)} error rows, which the replay reproduces: the "
            f"Lyapunov residual gate ({RESIDUAL_TOL:g}) refuses stable points near the "
            f"stability boundary"
        )
    if bad_rows:
        verdict.notes.append(f"{len(bad_rows)} rows failed the gates or the replay cross-check")
    want_stable = sum(row["status"] == "ok" for row in expected)
    low, high = plan.stable_band
    if stable != want_stable or not low <= stable / n <= high:
        verdict.notes.append(
            f"stable count {stable} of {n} (replay {want_stable}, workload band "
            f"{low:.2f}-{high:.2f})"
        )
        bad_rows = set(range(n))
    verdict.failed = len(bad_rows)
    verdict.values = {"error_points": errors, "stable": stable}
    return verdict


def _rel_norm(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def symplectic_nu_minus(cov4: np.ndarray) -> float:
    """Smallest partially transposed symplectic eigenvalue of a 4x4 covariance."""
    flip = np.diag([1.0, 1.0, 1.0, -1.0])
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    return float(np.sort(np.abs(np.linalg.eigvals(1j * omega @ flip @ cov4 @ flip)))[0])


def _log_negativity(nu_minus: float) -> float:
    return math.inf if nu_minus == 0 else max(0.0, -math.log(2.0 * nu_minus))


def check_sde(workload: Workload, kind: str, stdout: str, rc: int) -> Verdict:
    """Compare a stochastic command's estimates with the Lyapunov oracle."""
    verdict = Verdict(ops=1)
    if rc != 0:
        verdict.failed = 1
        verdict.notes.append(f"{kind} exited {rc}")
        return verdict
    out = json.loads(stdout)
    oracle = workload.oracle
    if kind == "sde-verify":
        lyap = np.array(out["lyapunov"])
        estimate, stderr = np.array(out["ensemble"]), np.array(out["stderr"])
        positive = stderr > 0
        z = np.abs(estimate - oracle)[positive] / stderr[positive]
        max_z = float(z.max())
        verdict.values["max_abs_z"] = max_z
        if _rel_norm(lyap, oracle) > LYAPUNOV_RTOL:
            verdict.failed = 1
            verdict.notes.append("sde-verify Lyapunov covariance disagrees with scipy")
        elif max_z > ENSEMBLE_Z_TOL:
            verdict.failed = 1
            verdict.notes.append(f"ensemble max|z| {max_z:.2f} > {ENSEMBLE_Z_TOL}")
        return verdict
    reduced = oracle[:4, :4]
    lyap = np.array(out["lyapunov_reduced"])
    log_neg = _log_negativity(symplectic_nu_minus(reduced))
    if (_rel_norm(lyap, reduced) > LYAPUNOV_RTOL
            or not math.isclose(out["lyapunov_log_negativity"], log_neg, abs_tol=1e-9)):
        verdict.failed = 1
        verdict.notes.append("homodyne-sim Lyapunov covariance or log-negativity is wrong")
    diag = np.diag(reduced)
    rel_err = float(np.max(np.abs(np.diag(np.array(out["reconstructed"])) - diag) / diag))
    verdict.values["reconstruct_rel_err"] = rel_err
    if rel_err > RECONSTRUCT_REL_TOL:
        verdict.known_failed = 1
        verdict.notes.append(
            f"known defect: homodyne reconstruction diagonal is off by a relative "
            f"{rel_err:.3g} (> {RECONSTRUCT_REL_TOL}); the shot-noise variance "
            f"1/(2 dt_record) swamps the (1/40)^2-scaled signal"
        )
    return verdict
