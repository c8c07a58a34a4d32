"""Parameter sweeps over the full steady-state entanglement pipeline.

A sweep grid is defined by one or two axes over raw experimental inputs,
bare couplings, or reduced model parameters.  The models of all grid points
are assembled at once as a :class:`~becmirror.params.ModelBatch`: the axis
values enter the derivation as arrays (the configuration is derived once, as
numbers, when only coupling or model axes vary), and a per-point mask applies
the validation rules of the single-point constructors.  Each valid point is
then given the id of its drift: points whose drift-matrix parameters agree bit
for bit share one (a temperature axis changes the diffusion only).  The valid
points are evaluated in blocks of :data:`BLOCK_POINTS`, taken in drift-id
order: each block runs the drift-only work (the drift, the stability check
with its authoritative eigenvalue verdict, the product criterion and the
effective parameters) once per distinct drift and copies it to the drift's
points, and runs the diffusion-dependent work (the symmetric Lyapunov solve,
with one operator inverse per distinct stable drift, and the entanglement
measures) per point, through the same stacked code the single-point
functions run at N = 1.  Unstable points are evaluations, not
failures: their rows carry an explicit ``unstable`` status and empty measure
columns.  A point that fails carries the error in its own row and leaves its
neighbours untouched.  Output is deterministic byte-for-byte, with a
provenance header carrying a configuration hash and the pinned constants
version.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import asdict, dataclass, replace
from importlib import metadata
from types import SimpleNamespace

import numpy as np

from . import constants
from .dynamics import (
    build_diffusion,
    build_drift,
    check_stability_criterion,
    eigen_stability,
)
from .effective import effective_parameters
from .entanglement import entanglement_results, reduce_to_modes
from .errors import BecMirrorError, ValidationError
from .lyapunov import RESIDUAL_TOL, steady_covariances
from .params import ModelBatch, ModelParams, PhysicalInput, derive_parameters, finite_real

SCHEMA_VERSION = 1

#: grid points evaluated together by the stacked layer calls; a block takes
#: them in drift-id order, so its distinct drifts are a contiguous id range
#: and points sharing a drift mostly share a block.  The block's per-point
#: (N, 21, 21) Lyapunov inverses, (N, 6, 6) stacks and their temporaries stay
#: well under 1 MB, while a whole-grid stack would raise the peak memory by
#: tens of MB
BLOCK_POINTS = 64

#: the :class:`ModelBatch` fields :func:`build_drift` reads; the product
#: criterion and the effective parameters read a subset of them
_DRIFT_FIELDS = ("om_m", "om_a", "gamma", "kappa", "detuning", "G_mc", "G_ac")

#: overflow at a point yields inf or NaN there, which a mask, a finiteness
#: check or the residual gate turns into that point's row
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")

_BARE_COUPLING_AXES = ("g_mc", "g_ac")
_MODEL_FIELDS = frozenset(ModelParams.field_names())

_MEASURE_COLUMNS = (
    "status",
    "eigen_stable",
    "spectral_abscissa",
    "criterion_value",
    "criterion_pass",
    "nu_minus",
    "nu_plus",
    "log_negativity",
    "sigma",
    "det_cov",
    "residual",
)

_EFFECTIVE_COLUMNS = (
    "freq_shift_mirror",
    "freq_shift_bec",
    "coupling_ma",
    "adiabatic",
)


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis.

    ``name`` must be a :class:`PhysicalInput` field, a bare coupling override
    (``g_mc`` or ``g_ac``), or a :class:`ModelParams` field (applied after
    derivation).  ``scale`` is ``linear`` or ``log``.  ``start`` and
    ``stop`` must be finite real numbers whose difference is finite, and
    ``points`` an integer; they are stored as ``float`` and ``int``.
    """

    name: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        valid = (
            set(PhysicalInput.field_names())
            | set(_BARE_COUPLING_AXES)
            | set(ModelParams.field_names())
        )
        if not isinstance(self.name, str) or self.name not in valid:
            raise ValidationError(
                f"unknown axis parameter {self.name!r}; valid names: {sorted(valid)}"
            )
        object.__setattr__(self, "start", float(finite_real("axis start", self.start)))
        object.__setattr__(self, "stop", float(finite_real("axis stop", self.stop)))
        if not math.isfinite(self.stop - self.start):
            raise ValidationError(
                f"axis span {self.start!r} to {self.stop!r} overflows a float"
            )
        if isinstance(self.points, bool) or not isinstance(self.points, numbers.Integral):
            raise ValidationError(f"axis points must be an integer, got {self.points!r}")
        object.__setattr__(self, "points", int(self.points))
        if self.points < 1:
            raise ValidationError(f"axis needs at least 1 point, got {self.points}")
        if self.scale not in ("linear", "log"):
            raise ValidationError(f"scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValidationError("log axes require positive bounds")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start])
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition over a base configuration."""

    base: PhysicalInput
    axes: tuple[AxisSpec, ...]
    include_effective: bool = False

    def __post_init__(self) -> None:
        if not 1 <= len(self.axes) <= 2:
            raise ValidationError(f"sweeps support 1 or 2 axes, got {len(self.axes)}")


@dataclass(frozen=True)
class SweepRow:
    axis_values: tuple[float, ...]
    cells: dict


@dataclass(frozen=True)
class SweepResult:
    axis_names: tuple[str, ...]
    columns: tuple[str, ...]
    rows: tuple[SweepRow, ...]
    provenance: dict


def _config_hash(spec: SweepSpec) -> str:
    payload = {
        "base": asdict(spec.base),
        "axes": [asdict(axis) for axis in spec.axes],
        "include_effective": spec.include_effective,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _package_version() -> str:
    try:
        return metadata.version("becmirror")
    except metadata.PackageNotFoundError:  # pragma: no cover - dev checkout
        return "unknown"


def _error_status(make, *args, **kwargs) -> str | None:
    """The error status of ``make(*args, **kwargs)``, None if it succeeds."""
    try:
        make(*args, **kwargs)
    except BecMirrorError as exc:
        return f"error:{type(exc).__name__}"
    return None


def _grid_models(
    base: PhysicalInput, columns: dict[str, np.ndarray]
) -> tuple[ModelBatch, list[str | None]]:
    """Models of the points whose axis values are ``columns``, and each
    point's error status, None for a valid model.

    Each distinct value of a physical axis is validated once, as the base
    configuration with that value.  Every :class:`PhysicalInput` rule is about
    one field or about which fields are set, so a point is valid iff each of
    its values is; an invalid value is derived as the base's value and its
    points are masked.  Model axes replace fields after the derivation, and
    :meth:`ModelBatch.valid` masks the points that break a
    :class:`ModelParams` rule before or after that, as :func:`model_params`
    and ``replace`` would reject them.  Entries of the batch at points with an
    error are meaningless.

    Raises
    ------
    BecMirrorError
        If the assembly fails for the grid as a whole.
    """
    size = len(next(iter(columns.values())))
    status: list[str | None] = [None] * size
    physical: dict[str, np.ndarray] = {}
    bare: dict[str, np.ndarray] = {}
    model: dict[str, np.ndarray] = {}
    for name, column in columns.items():
        if name in _BARE_COUPLING_AXES:
            bare[name] = column
        elif name in _MODEL_FIELDS:
            model[name] = column
        else:
            values, inverse = np.unique(column, return_inverse=True)
            errors = [_error_status(replace, base, **{name: v}) for v in values.tolist()]
            status = [s or errors[k] for s, k in zip(status, inverse.tolist())]
            # A field the base leaves unset takes no valid value, so every
            # value of such an axis is invalid and the field stays unset.
            valid = np.array([error is None for error in errors])[inverse]
            if valid.any():
                physical[name] = np.where(valid, column, getattr(base, name))
    inp = base
    if physical:
        inp = SimpleNamespace(**{
            **{name: getattr(base, name) for name in PhysicalInput.field_names()}, **physical
        })
    with np.errstate(**_QUIET):
        derived = derive_parameters(inp)
        if bare:
            derived = replace(derived, **bare)
        batch = ModelBatch.from_derived(derived, size, model.pop("detuning", None))
        valid = batch.valid()
        if model:
            batch = replace(batch, **model)
            valid &= batch.valid()
    invalid = f"error:{ValidationError.__name__}"
    return batch, [s or (None if ok else invalid) for s, ok in zip(status, valid.tolist())]


def _grid_models_or_split(
    base: PhysicalInput, columns: dict[str, np.ndarray]
) -> tuple[ModelBatch, list[str | None]]:
    """:func:`_grid_models`, falling back to halves of the grid when the
    assembly fails as a whole, so that only the failing points carry the
    error."""
    try:
        return _grid_models(base, columns)
    except BecMirrorError as exc:
        size = len(next(iter(columns.values())))
        if size == 1:
            failed = np.full(1, np.nan)
            return ModelBatch(**dict.fromkeys(_MODEL_FIELDS, failed)), [
                f"error:{type(exc).__name__}"
            ]
        parts = [
            _grid_models_or_split(base, {name: c[part] for name, c in columns.items()})
            for part in (slice(None, size // 2), slice(size // 2, None))
        ]
    batch = ModelBatch(**{
        name: np.concatenate([getattr(b, name) for b, _ in parts]) for name in _MODEL_FIELDS
    })
    return batch, parts[0][1] + parts[1][1]


def _drift_ids(batch: ModelBatch) -> np.ndarray:
    """Each model's drift id, numbered in order of first occurrence.

    Models share an id iff their drift fields agree bit for bit: the key is
    the bytes of the fields, so no tolerance merges nearby drifts and -0.0
    and 0.0 stay apart.
    """
    fields = np.stack([getattr(batch, name) for name in _DRIFT_FIELDS], axis=1)
    keys = fields.view(np.dtype((np.void, fields.itemsize * len(_DRIFT_FIELDS))))[:, 0]
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def _evaluate(batch: ModelBatch, group: np.ndarray, cells: list[dict],
              include_effective: bool) -> None:
    """Fill the row cells of a block of models through the stacked layer calls.

    ``group`` holds each model's drift index within the block, nondecreasing
    from 0 with no gaps; models with one index must have bitwise-equal drift
    fields.  The drift-only work runs once per index, on its first model.

    Raises
    ------
    BecMirrorError
        When a stacked call fails for the block as a whole.
    """
    first = np.searchsorted(group, np.arange(group[-1] + 1))
    shared = batch[first]
    drifts = build_drift(shared)
    _, abscissa, _, stable = eigen_stability(drifts)
    criterion, passes = check_stability_criterion(shared)
    point_stable = stable[group]
    for row, is_stable, a, value, ok in zip(
        cells, point_stable.tolist(), abscissa[group].tolist(), criterion[group].tolist(),
        passes[group].tolist(),
    ):
        row.update(status="ok" if is_stable else "unstable", eigen_stable=is_stable,
                   spectral_abscissa=a, criterion_value=value, criterion_pass=ok)
    if include_effective:
        effective = [
            effective_parameters(G_mc, G_ac, detuning, kappa, om_m=om_m, om_a=om_a)
            if detuning > 0 else None
            for G_mc, G_ac, detuning, kappa, om_m, om_a in zip(
                shared.G_mc.tolist(), shared.G_ac.tolist(), shared.detuning.tolist(),
                shared.kappa.tolist(), shared.om_m.tolist(), shared.om_a.tolist(),
            )
        ]
        for row, g in zip(cells, group.tolist()):
            eff = effective[g]
            if eff is not None:
                row.update(freq_shift_mirror=eff.freq_shift_mirror,
                           freq_shift_bec=eff.freq_shift_bec,
                           coupling_ma=eff.coupling_ma, adiabatic=eff.adiabatic)
    index = np.flatnonzero(point_stable)
    if index.size == 0:
        return
    # Only stable drifts are solved for: an unstable one's operator can be
    # singular (two eigenvalues summing to zero) and would fail the block.
    stable_id = np.cumsum(stable) - 1
    covs, residuals = steady_covariances(
        drifts[stable], build_diffusion(batch)[index], stable_id[group[index]]
    )
    passed = residuals <= RESIDUAL_TOL
    results = iter(entanglement_results(reduce_to_modes(covs[passed]).cov))
    for i, rel, gate in zip(index.tolist(), residuals.tolist(), passed.tolist()):
        row = cells[i]
        if not gate:
            row["status"] = "error:NumericalError"
            continue
        row["residual"] = rel
        result = next(results)
        if isinstance(result, BecMirrorError):
            row["status"] = f"error:{type(result).__name__}"
            continue
        row.update(nu_minus=result.nu_minus, nu_plus=result.nu_plus,
                   log_negativity=result.log_negativity, sigma=result.sigma,
                   det_cov=result.det_cov)


def _evaluate_or_split(batch: ModelBatch, group: np.ndarray, cells: list[dict],
                       include_effective: bool) -> None:
    """:func:`_evaluate`, falling back to one point at a time when the block
    fails, so that only the failing point carries the error."""
    try:
        _evaluate(batch, group, cells, include_effective)
    except BecMirrorError as exc:
        if len(cells) == 1:
            cells[0]["status"] = f"error:{type(exc).__name__}"
            return
        alone = np.zeros(1, dtype=np.intp)
        for i, row in enumerate(cells):
            _evaluate_or_split(batch[i : i + 1], alone, [row], include_effective)


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; its rows come in row-major order.

    The models of the whole grid are assembled at once and grouped by drift
    once; the valid points are evaluated in blocks of :data:`BLOCK_POINTS` in
    drift-id order, through the same stacked code whatever the grid size.  A
    point's drift-only results come from bitwise-equal inputs, and its solve
    from its drift's inverse, which is the same alone or stacked, so a
    point's row does not depend on the block it falls in or on the points
    that share its drift, and the output is deterministic.
    """
    axis_names = tuple(axis.name for axis in spec.axes)
    columns = [
        column.ravel()
        for column in np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    ]
    points = list(zip(*(column.tolist() for column in columns)))
    batch, status = _grid_models_or_split(spec.base, dict(zip(axis_names, columns)))

    names = _MEASURE_COLUMNS + (_EFFECTIVE_COLUMNS if spec.include_effective else ())
    cells = [dict.fromkeys(names) for _ in points]
    for row, error in zip(cells, status):
        row["status"] = error
    index = np.flatnonzero([error is None for error in status])
    ids = _drift_ids(batch[index])
    order = np.argsort(ids, kind="stable")
    index, ids = index[order], ids[order]
    with np.errstate(**_QUIET):
        for start in range(0, index.size, BLOCK_POINTS):
            block = index[start : start + BLOCK_POINTS]
            group = ids[start : start + BLOCK_POINTS]
            _evaluate_or_split(batch[block], group - group[0],
                               [cells[i] for i in block.tolist()], spec.include_effective)

    provenance = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": _config_hash(spec),
        "constants_version": constants.CONSTANTS_VERSION,
        "package_version": _package_version(),
    }
    rows = tuple(SweepRow(axis_values=v, cells=c) for v, c in zip(points, cells))
    return SweepResult(axis_names=axis_names, columns=names, rows=rows, provenance=provenance)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit(result: SweepResult, fmt: str = "csv") -> bytes:
    """Serialize a sweep result; byte-identical for identical inputs."""
    if fmt == "csv":
        lines = [
            "# becmirror sweep",
            f"# schema_version={result.provenance['schema_version']}",
            f"# config_hash={result.provenance['config_hash']}",
            f"# constants_version={result.provenance['constants_version']}",
            f"# package_version={result.provenance['package_version']}",
            ",".join(result.axis_names + result.columns),
        ]
        for row in result.rows:
            cells = [repr(v) for v in row.axis_values]
            cells += [_format_cell(row.cells[c]) for c in result.columns]
            lines.append(",".join(cells))
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        doc = {
            "provenance": result.provenance,
            "axes": list(result.axis_names),
            "columns": list(result.columns),
            "rows": [
                {
                    "axis_values": list(row.axis_values),
                    **{c: row.cells[c] for c in result.columns},
                }
                for row in result.rows
            ],
        }
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    raise ValidationError(f"unknown format {fmt!r}; use csv or json")


def _parse_cell(text: str):
    if text == "":
        return None
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return float(text)
    except ValueError:
        return text


def parse_sweep(blob: bytes, fmt: str = "csv") -> dict:
    """Round-trip companion to :func:`emit`."""
    if fmt == "json":
        return json.loads(blob.decode())
    if fmt != "csv":
        raise ValidationError(f"unknown format {fmt!r}; use csv or json")
    provenance: dict = {}
    header: list[str] | None = None
    rows = []
    for line in blob.decode().splitlines():
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                provenance[key.strip()] = _parse_cell(value.strip())
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        rows.append({name: _parse_cell(cell) for name, cell in zip(header, cells)})
    if header is None:
        raise ValidationError("no header line found in CSV input")
    return {"provenance": provenance, "columns": header, "rows": rows}
