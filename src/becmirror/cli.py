"""Command-line interface.

Configurations are JSON documents whose keys mirror the PhysicalInput field
names.  Frequencies default to angular units (rad/s); pass
``--frequency-unit hz`` (or set ``"frequency_unit": "hz"`` in the config) to
have the frequency-like fields multiplied by 2 pi on load.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import MISSING, asdict, fields

import numpy as np

from . import constants
from .dynamics import (
    QUADRATURES,
    build_diffusion,
    build_drift,
    check_stability_eigen,
)
from .effective import effective_parameters
from .entanglement import entanglement_result, reduce_to_modes
from .errors import BecMirrorError, ValidationError, finite_real, shown
from .lyapunov import residual, solve_steady_covariance
from .params import ModelParams, PhysicalInput, derive_parameters, model_params
from .stochastic import (
    ProbeCavity,
    ensemble_covariance,
    homodyne_output,
    reconstruct_correlations,
    simulate_trajectories,
)
from .sweep import AxisSpec, SweepSpec, emit, run_sweep

#: config keys multiplied by 2 pi under the hz frequency unit
FREQUENCY_FIELDS = (
    "mirror_frequency",
    "mirror_damping",
    "cavity_decay",
    "effective_detuning",
    "recoil_frequency",
    "bec_frequency",
    "bec_coupling",
    "lattice_depth",
)

CONSTANTS_ENV = "BECMIRROR_CONSTANTS"


def load_config(path: str, frequency_unit: str | None = None) -> PhysicalInput:
    """The :class:`PhysicalInput` of the JSON config at ``path``; a file that is not
    UTF-8 JSON within Python's limits, or holds invalid parameters, is refused."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValidationError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError(
            f"config must be a JSON object of parameters, got {type(raw).__name__}"
        )
    unit = frequency_unit or raw.pop("frequency_unit", "rad_s")
    raw.pop("frequency_unit", None)
    if unit not in ("rad_s", "hz"):
        raise ValidationError(f"frequency_unit must be rad_s or hz, got {shown(unit)}")
    unknown = set(raw) - set(PhysicalInput.field_names())
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    missing = [f.name for f in fields(PhysicalInput)
               if f.default is MISSING and f.name not in raw]
    if missing:
        raise ValidationError(f"missing config keys: {missing}")
    if unit == "hz":
        for key in FREQUENCY_FIELDS:
            if raw.get(key) is not None:
                raw[key] = 2.0 * math.pi * finite_real(key, raw[key])
    return PhysicalInput(**raw)


def _check_constants_pin() -> None:
    pinned = os.environ.get(CONSTANTS_ENV)
    if pinned and pinned != constants.CONSTANTS_VERSION:
        raise ValidationError(
            f"{CONSTANTS_ENV}={pinned} does not match the shipped constants "
            f"table {constants.CONSTANTS_VERSION}"
        )


def _dump(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _model(args) -> ModelParams:
    derived = derive_parameters(load_config(args.config, args.frequency_unit))
    return model_params(derived, getattr(args, "detuning", None))


def cmd_derive(args) -> int:
    inp = load_config(args.config, args.frequency_unit)
    _dump(asdict(derive_parameters(inp)))
    return 0


def cmd_stability(args) -> int:
    params = _model(args)
    report = check_stability_eigen(build_drift(params), params)
    _dump(
        {
            "is_stable": report.is_stable,
            "is_marginal": report.is_marginal,
            "eigenvalues": [[ev.real, ev.imag] for ev in report.eigenvalues],
            "spectral_abscissa": report.spectral_abscissa,
            "criterion_value": report.criterion_value,
            "criterion_pass": report.criterion_pass,
        }
    )
    return 0


def cmd_covariance(args) -> int:
    params = _model(args)
    drift = build_drift(params)
    diffusion = build_diffusion(params)
    cov = solve_steady_covariance(drift, diffusion)
    _dump(
        {
            "ordering": list(QUADRATURES),
            "covariance": cov.tolist(),
            "residual": residual(drift, diffusion, cov),
        }
    )
    return 0


def cmd_entangle(args) -> int:
    params = _model(args)
    drift = build_drift(params)
    cov = solve_steady_covariance(drift, build_diffusion(params))
    result = entanglement_result(reduce_to_modes(cov))
    _dump(asdict(result))
    return 0


def cmd_effective(args) -> int:
    params = _model(args)
    model = effective_parameters(
        params.G_mc, params.G_ac, params.detuning, params.kappa,
        om_m=params.om_m, om_a=params.om_a,
    )
    _dump(asdict(model))
    return 0


def _parse_axis(text: str) -> AxisSpec:
    parts = text.split(":")
    if len(parts) not in (4, 5):
        raise ValidationError(
            f"axis must be name:min:max:points[:log], got {shown(text)}"
        )
    scale = "linear"
    if len(parts) == 5:
        if parts[4] not in ("log", "linear"):
            raise ValidationError(f"axis scale must be log or linear, got {shown(parts[4])}")
        scale = parts[4]
    try:
        start, stop, points = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError:
        raise ValidationError(
            f"axis min and max must be numbers and points an integer, got {shown(text)}"
        ) from None
    return AxisSpec(name=parts[0], start=start, stop=stop, points=points, scale=scale)


def cmd_sweep(args) -> int:
    base = load_config(args.config, args.frequency_unit)
    spec = SweepSpec(
        base=base,
        axes=tuple(_parse_axis(a) for a in args.axis),
        include_effective=args.effective,
    )
    # The sweep runs before the output is opened, so a refused one writes nothing.
    result = run_sweep(spec)
    if args.out == "-":
        emit(result, sys.stdout.buffer, args.format)
    else:
        with open(args.out, "wb") as fh:
            emit(result, fh, args.format)
    failed = sum(
        1 for row in result.rows if str(row.cells["status"]).startswith("error")
    )
    if failed:
        print(f"{failed}/{len(result.rows)} grid points failed", file=sys.stderr)
        return 1
    return 0


def _sde_setup(args):
    params = _model(args)
    drift = build_drift(params)
    diffusion = build_diffusion(params)
    report = check_stability_eigen(drift)
    if not report.is_stable:
        raise ValidationError(
            "config is not stable; stochastic verification needs a stationary state"
        )
    tau = 1.0 / abs(report.spectral_abscissa)
    finite_real("--burn-in-factor", args.burn_in_factor, ">= 0")
    horizon = (args.burn_in_factor + 20.0) * tau if args.horizon is None else args.horizon
    return params, drift, diffusion, tau, horizon


def cmd_sde_verify(args) -> int:
    _, drift, diffusion, tau, horizon = _sde_setup(args)
    # A tenth of the decorrelation time resolves it; the exact transition
    # needs no finer step.
    dt = 0.1 * tau if args.dt is None else args.dt
    burn_in = args.burn_in_factor * tau
    cov = solve_steady_covariance(drift, diffusion)
    trajectories = simulate_trajectories(
        drift, diffusion, None, dt=dt, horizon=horizon,
        seed=args.seed, n_trajectories=args.trajectories,
    )
    estimate, stderr = ensemble_covariance(trajectories, burn_in)
    z = np.where(stderr > 0, (estimate - cov) / np.where(stderr > 0, stderr, 1.0), 0.0)
    _dump(
        {
            "ordering": list(QUADRATURES),
            "lyapunov": cov.tolist(),
            "ensemble": estimate.tolist(),
            "stderr": stderr.tolist(),
            "max_abs_z": float(np.max(np.abs(z))),
            "pass_3_sigma": bool(np.all(np.abs(z) <= 3.0)),
            "dt": dt,
            "horizon": horizon,
            "burn_in": burn_in,
            "trajectories": args.trajectories,
        }
    )
    return 0


def cmd_homodyne_sim(args) -> int:
    params, drift, diffusion, _, horizon = _sde_setup(args)
    # Detector interval resolving ~40 samples per mechanical rotation period.
    dt = 2.0 * math.pi / (40.0 * params.om_m) if args.dt is None else args.dt
    cov = solve_steady_covariance(drift, diffusion)
    probe_kappa = params.om_m / 20.0 if args.probe_kappa is None else args.probe_kappa
    coupling = probe_kappa / 20.0 if args.probe_coupling is None else args.probe_coupling
    mirror_probe = ProbeCavity(probe_kappa, params.om_m, coupling, 0.0)
    bec_probe = ProbeCavity(probe_kappa, params.om_m, 0.0, coupling)
    both_probe = ProbeCavity(probe_kappa, params.om_m, coupling, coupling)
    configs = [
        (mirror_probe, 0.0),
        (mirror_probe, math.pi / 2.0),
        (bec_probe, 0.0),
        (bec_probe, math.pi / 2.0),
        (both_probe, math.pi / 4.0),
    ]
    trajectories = simulate_trajectories(
        drift, diffusion, cov, dt=dt, horizon=horizon,
        seed=args.seed, n_trajectories=args.trajectories,
    )
    record_sets = []
    for t_index, traj in enumerate(trajectories):
        records = [
            homodyne_output(traj, probe, phase,
                            noise_seed=args.seed + 1 + t_index * len(configs) + c_index)
            for c_index, (probe, phase) in enumerate(configs)
        ]
        record_sets.append(records)
    estimate, stderr = reconstruct_correlations(record_sets)
    result = entanglement_result(reduce_to_modes(cov))
    if args.save_trajectories:
        os.makedirs(args.save_trajectories, exist_ok=True)
        for traj in trajectories:
            path = os.path.join(
                args.save_trajectories, f"trajectory_{traj.stream:04d}.csv"
            )
            header = "t," + ",".join(QUADRATURES)
            table = np.column_stack([traj.times, traj.samples.T])
            np.savetxt(path, table, delimiter=",", header=header, comments="")
    _dump(
        {
            "ordering": list(QUADRATURES[:4]),
            "reconstructed": estimate.tolist(),
            "stderr": stderr.tolist(),
            "lyapunov_reduced": reduce_to_modes(cov).tolist(),
            "lyapunov_log_negativity": result.log_negativity,
            "trajectories": args.trajectories,
            "dt": dt,
        }
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="becmirror",
        description="Steady-state mirror-condensate entanglement pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, detuning=True):
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument(
            "--frequency-unit",
            choices=("rad_s", "hz"),
            default=None,
            help="interpret config frequencies in this unit (default rad_s)",
        )
        if detuning:
            p.add_argument(
                "--detuning",
                type=float,
                default=None,
                help="override the effective detuning (rad/s after unit conversion)",
            )

    p = sub.add_parser("derive", help="print derived parameters")
    add_common(p, detuning=False)
    p.set_defaults(func=cmd_derive)

    for name, func, text in (
        ("stability", cmd_stability, "print the stability report"),
        ("covariance", cmd_covariance, "print the steady-state covariance"),
        ("entangle", cmd_entangle, "print the entanglement result"),
        ("effective", cmd_effective, "print the cavity-eliminated model"),
    ):
        p = sub.add_parser(name, help=text)
        add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    add_common(p, detuning=False)
    p.add_argument(
        "--axis",
        action="append",
        required=True,
        help="axis as name:min:max:points[:log]; repeat for a second axis",
    )
    p.add_argument("--out", required=True, help="output path, or - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--effective", action="store_true", help="add effective-model columns")
    p.set_defaults(func=cmd_sweep)

    def add_sde(p):
        add_common(p)
        p.add_argument("--trajectories", type=int, default=8)
        p.add_argument("--seed", type=int, default=2024)
        p.add_argument("--dt", type=float, default=None,
                       help="record interval (default: a tenth of the relaxation "
                       "time for sde-verify, 2 pi / (40 om_m) for homodyne-sim)")
        p.add_argument("--horizon", type=float, default=None)
        p.add_argument("--burn-in-factor", type=float, default=10.0,
                       help="burn-in in units of the relaxation time")

    p = sub.add_parser("sde-verify", help="Monte-Carlo check of the Lyapunov solution")
    add_sde(p)
    p.set_defaults(func=cmd_sde_verify)

    p = sub.add_parser("homodyne-sim", help="simulate the homodyne readout chain")
    add_sde(p)
    p.add_argument("--probe-kappa", type=float, default=None)
    p.add_argument("--probe-coupling", type=float, default=None)
    p.add_argument("--save-trajectories", default=None,
                   help="directory for per-trajectory CSV dumps")
    p.set_defaults(func=cmd_homodyne_sim)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_constants_pin()
        return args.func(args)
    except (BecMirrorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
