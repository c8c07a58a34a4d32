"""Parameter sweeps over the full steady-state entanglement pipeline.

A sweep grid is defined by one or two axes over raw experimental inputs,
bare couplings, or reduced model parameters.  The models of all grid points
are assembled at once as a :class:`~becmirror.params.ModelBatch`: the axis
values and every field the base configuration sets enter the derivation as
arrays over the grid, and a per-point mask applies the validation rules of the
single-point constructors, so a point out of range is masked whatever the
axes.  Each valid point is then given the id of its drift: points whose
drift-matrix parameters agree bit for bit share one (a temperature axis
changes the diffusion only).  The valid
points are evaluated in two stages, in drift-id order.  The drift stage runs
the drift-only work (the drift, the stability check with its authoritative
eigenvalue verdict, the product criterion and the effective parameters) in one
stacked call over every distinct drift of the grid and copies it to the
drift's points.  The solve stage takes the points whose drift is stable and
whose effective parameters did not fail, in blocks of :data:`BLOCK_POINTS`,
and runs the diffusion-dependent work (the symmetric Lyapunov solve, with one
operator inverse per distinct drift of the block, and the entanglement
measures) per point.  Both run the stacked code the single-point functions
run at N = 1.  Unstable points are evaluations, not failures: their rows
carry an explicit ``unstable`` status and empty measure columns.  Every
failure is a per-point mask, set at the stage where the point fails: the
point's row carries ``error:<ErrorType>`` with the cells of the stages it
passed, and its neighbours are untouched.  No stage is retried for a part of
the grid.  Output is deterministic byte-for-byte, with a provenance header
carrying a configuration hash and the pinned constants version.
:func:`emit` formats it column by column, each distinct value once, and
writes it to a binary stream in chunks of :data:`CHUNK_ROWS` rows, so the
whole document is never held in memory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, replace
from itertools import compress, islice
from operator import itemgetter
from types import SimpleNamespace
from typing import BinaryIO

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
from .errors import (BecMirrorError, ValidationError, bounded_integer, finite_real,
                     float_arithmetic, shown)
from .lyapunov import RESIDUAL_TOL, steady_covariances
from .params import ModelBatch, ModelParams, PhysicalInput, derive_parameters

SCHEMA_VERSION = 1

#: points of a solve-stage block, all of them with a stable drift; a block
#: takes them in drift-id order, so points sharing a drift mostly share a
#: block.  The block's (N, 21, 21) Lyapunov inverses, (N, 6, 6) stacks and
#: their temporaries stay well under 1 MB, while a whole-grid stack would
#: raise the peak memory by tens of MB
BLOCK_POINTS = 64

#: most points one grid may hold.  Measured with ``tracemalloc`` on a 200 x 200
#: grid, a row holds about 0.85 kB, and about 1.4 kB at the peak of :func:`emit`
MAX_POINTS = 1_000_000

#: rows of a sweep table that :func:`emit` formats and writes at a time; a
#: chunk of ``--effective`` JSON rows is about 120 kB
CHUNK_ROWS = 256

#: the :class:`ModelBatch` fields :func:`build_drift` reads; the product
#: criterion and the effective parameters read a subset of them
_DRIFT_FIELDS = ("om_m", "om_a", "gamma", "kappa", "detuning", "G_mc", "G_ac")

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
    ``stop`` must be finite real numbers whose difference is finite, stored
    as ``float``, and ``points`` an ``int`` from 1 to :data:`MAX_POINTS`.
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
                f"unknown axis parameter {shown(self.name)}; valid names: {sorted(valid)}"
            )
        object.__setattr__(self, "start", float(finite_real("axis start", self.start)))
        object.__setattr__(self, "stop", float(finite_real("axis stop", self.stop)))
        if not math.isfinite(self.stop - self.start):
            raise ValidationError(
                f"axis span {shown(self.start)} to {shown(self.stop)} overflows a float"
            )
        object.__setattr__(self, "points",
                           bounded_integer("axis points", self.points, 1, MAX_POINTS))
        if self.scale not in ("linear", "log"):
            raise ValidationError(f"scale must be linear or log, got {shown(self.scale)}")
        if self.scale == "log" and (self.start <= 0 or self.stop <= 0):
            raise ValidationError("log axes require positive bounds")

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start])
        if self.scale == "log":
            # Next to the float maximum numpy's power overflows to inf, even
            # between equal bounds, and every value lies within the bounds.
            with float_arithmetic("log axis"):
                values = np.geomspace(self.start, self.stop, self.points)
            return np.clip(values, min(self.start, self.stop), max(self.start, self.stop))
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
        names = [axis.name for axis in self.axes]
        if len(set(names)) < len(names):
            raise ValidationError(f"sweep axes must name distinct parameters, got {names}")
        if math.prod(axis.points for axis in self.axes) > MAX_POINTS:
            raise ValidationError(f"sweep grid exceeds {MAX_POINTS} points")


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


def _grid_models(
    base: PhysicalInput, columns: dict[str, np.ndarray]
) -> tuple[ModelBatch, np.ndarray]:
    """Models of the points whose axis values are ``columns``, and the mask
    of the valid ones.

    Every :class:`PhysicalInput` rule is about one field or about which
    fields are set, so a point is valid iff each of its physical axis values
    is, by :meth:`PhysicalInput.admits`; an invalid value is derived as the
    base's value and its points are masked.  Every field the base sets enters
    the derivation as a column of the grid, so a derived field out of float
    range is inf or NaN at its points, whatever the axes.  Model axes replace
    fields after the derivation, and :meth:`ModelBatch.valid` masks the
    points that break a :class:`ModelParams` rule before or after that, as
    :func:`model_params` and ``replace`` would reject them; such a derived
    field is one of those.  Entries of the batch at invalid points are
    meaningless.
    """
    size = len(next(iter(columns.values())))
    valid = np.ones(size, dtype=bool)
    inp = {name: None if value is None else np.full(size, value, dtype=float)
           for name, value in asdict(base).items()}
    bare: dict[str, np.ndarray] = {}
    model: dict[str, np.ndarray] = {}
    for name, column in columns.items():
        if name in _BARE_COUPLING_AXES:
            bare[name] = column
        elif name in _MODEL_FIELDS:
            model[name] = column
        else:
            admitted = base.admits(name, column)
            valid &= admitted
            # A field the base leaves unset admits no value and stays unset.
            if admitted.any():
                inp[name] = np.where(admitted, column, getattr(base, name))
    with float_arithmetic("sweep grid"):
        derived = replace(derive_parameters(SimpleNamespace(**inp)), **bare)
        batch = ModelBatch.from_derived(derived, size, model.pop("detuning", None))
        valid &= batch.valid()
        if model:
            batch = replace(batch, **model)
            valid &= batch.valid()
    return batch, valid


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


def _drift_stage(shared: ModelBatch, ids: np.ndarray, cells: list[dict],
                 include_effective: bool) -> tuple[np.ndarray, np.ndarray]:
    """Run the drift-only work once per distinct drift and fill the drift cells
    of its points.

    ``shared`` holds one model per drift id, ``ids`` each point's drift id and
    ``cells`` the points' row cells in the same order.  One stacked call each
    builds the drifts, checks their stability and evaluates the product
    criterion; the effective parameters run per drift.  Effective parameters
    out of float range fail their drift's points (``error:ValidationError``),
    which keep their drift cells.

    Returns the (K, 6, 6) drift stack and the mask of the drifts whose points
    are solved for: stable ones with effective parameters, when asked for,
    in float range.
    """
    drifts = build_drift(shared)
    _, abscissa, _, stable = eigen_stability(drifts)
    criterion, passes = check_stability_criterion(shared)
    for row, is_stable, a, value, ok in zip(
        cells, stable[ids].tolist(), abscissa[ids].tolist(), criterion[ids].tolist(),
        passes[ids].tolist(),
    ):
        row.update(status="ok" if is_stable else "unstable", eigen_stable=is_stable,
                   spectral_abscissa=a, criterion_value=value, criterion_pass=ok)
    solve = stable.copy()
    if include_effective:
        updates = []
        for k, (G_mc, G_ac, detuning, kappa, om_m, om_a) in enumerate(zip(
            shared.G_mc.tolist(), shared.G_ac.tolist(), shared.detuning.tolist(),
            shared.kappa.tolist(), shared.om_m.tolist(), shared.om_a.tolist(),
        )):
            update = {}
            if detuning > 0:
                try:
                    eff = effective_parameters(G_mc, G_ac, detuning, kappa,
                                               om_m=om_m, om_a=om_a)
                except BecMirrorError as exc:
                    solve[k] = False
                    update = {"status": f"error:{type(exc).__name__}"}
                else:
                    update = dict(freq_shift_mirror=eff.freq_shift_mirror,
                                  freq_shift_bec=eff.freq_shift_bec,
                                  coupling_ma=eff.coupling_ma, adiabatic=eff.adiabatic)
            updates.append(update)
        for row, k in zip(cells, ids.tolist()):
            row.update(updates[k])
    return drifts, solve


def _solve_block(batch: ModelBatch, ids: np.ndarray, drifts: np.ndarray,
                 cells: list[dict]) -> None:
    """Fill the measure cells of a block of points whose drifts are stable.

    ``ids`` holds each point's index into ``drifts``, ``cells`` its row
    cells.  A diffusion out of float range fails its point
    (``error:ValidationError``), and so does a residual above the gate
    (``error:NumericalError``), a covariance out of float range or a
    singular Lyapunov system included, as in
    :func:`~becmirror.lyapunov.solve_steady_covariance`.  The entanglement
    measures fail a point as :func:`~becmirror.entanglement_result` raises:
    a clamp past its tolerance with ``error:NumericalError``, invariants out of
    float range with ``error:ValidationError``.
    """
    diffusions = build_diffusion(batch)
    finite = np.isfinite(diffusions).all(axis=(-2, -1))
    for row in compress(cells, (~finite).tolist()):
        row["status"] = "error:ValidationError"
    if not finite.any():
        return
    members, group = np.unique(ids[finite], return_inverse=True)
    covs, residuals = steady_covariances(drifts[members], diffusions[finite], group)
    passed = residuals <= RESIDUAL_TOL
    results = iter(entanglement_results(reduce_to_modes(covs[passed])))
    for row, rel, gate in zip(compress(cells, finite.tolist()), residuals.tolist(),
                              passed.tolist()):
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


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; its rows come in row-major order.

    The models of the whole grid are assembled at once and grouped by drift
    once.  The drift stage checks every distinct drift of the valid points in
    one stacked call; the solve stage runs the points of the stable drifts in
    blocks of :data:`BLOCK_POINTS`, in drift-id order, through the same
    stacked code whatever the grid size.  A point's drift-only results come
    from bitwise-equal inputs, and its solve from its drift's inverse, which
    is the same alone or stacked, so a point's row does not depend on the
    block it falls in or on the points that share its drift, and the output
    is deterministic.
    """
    axis_names = tuple(axis.name for axis in spec.axes)
    columns = [
        column.ravel()
        for column in np.meshgrid(*(axis.values() for axis in spec.axes), indexing="ij")
    ]
    points = list(zip(*(column.tolist() for column in columns)))
    batch, valid = _grid_models(spec.base, dict(zip(axis_names, columns)))

    names = _MEASURE_COLUMNS + (_EFFECTIVE_COLUMNS if spec.include_effective else ())
    cells = [dict.fromkeys(names) for _ in points]
    for i in np.flatnonzero(~valid).tolist():
        cells[i]["status"] = "error:ValidationError"
    index = np.flatnonzero(valid)
    ids = _drift_ids(batch[index])
    order = np.argsort(ids, kind="stable")
    index, ids = index[order], ids[order]
    point_cells = [cells[i] for i in index.tolist()]
    first = np.flatnonzero(np.diff(ids, prepend=-1))
    with float_arithmetic("sweep stages"):
        drifts, solve = _drift_stage(batch[index[first]], ids, point_cells,
                                     spec.include_effective)
        # An unstable drift has no stationary covariance, so it is not solved
        # for (and its operator can be singular: two eigenvalues summing to 0).
        keep = solve[ids]
        index, ids = index[keep], ids[keep]
        point_cells = list(compress(point_cells, keep.tolist()))
        for start in range(0, index.size, BLOCK_POINTS):
            block = slice(start, start + BLOCK_POINTS)
            _solve_block(batch[index[block]], ids[block], drifts, point_cells[block])

    provenance = {
        "schema_version": SCHEMA_VERSION,
        "config_hash": _config_hash(spec),
        "constants_version": constants.CONSTANTS_VERSION,
        "package_version": constants.PACKAGE_VERSION,
    }
    rows = tuple(SweepRow(axis_values=v, cells=c) for v, c in zip(points, cells))
    return SweepResult(axis_names=axis_names, columns=names, rows=rows, provenance=provenance)


#: JSON's words for the non-finite floats, keyed by their ``float.__repr__``
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

#: the JSON layout of :func:`emit`; one encoder for every part of the document
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _JSON_NONFINITE.get(text, text)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _kind_texts(values: list, kind: type, float_text, other_text) -> np.ndarray:
    """Object array of the texts of ``values``, all of type ``kind``, with one
    call of ``float_text`` or ``other_text`` per distinct value."""
    if issubclass(kind, float):
        bits = np.fromiter(values, dtype=np.float64, count=len(values)).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        # Any value with a given bit pattern will do: they all print alike.
        pick = np.empty(distinct.size, dtype=np.intp)
        pick[inverse] = np.arange(len(values))
        texts = map(float_text, map(values.__getitem__, pick.tolist()))
        return np.fromiter(texts, dtype=object, count=pick.size)[inverse]
    lookup = {value: other_text(value) for value in set(values)}
    return np.fromiter(map(lookup.__getitem__, values), dtype=object, count=len(values))


def _texts(values: list, float_text, other_text) -> list[str]:
    """The texts of a column of values, formatted once per distinct value.

    Values are grouped by type; within a group, floats are told apart by their
    bit pattern and other values by equality.
    """
    kinds = list(map(type, values))
    groups = set(kinds)
    if len(groups) == 1:  # most columns: no split needed
        return _kind_texts(values, groups.pop(), float_text, other_text).tolist()
    code = {kind: k for k, kind in enumerate(groups)}
    codes = np.fromiter(map(code.__getitem__, kinds), dtype=np.intp, count=len(kinds))
    column = np.fromiter(values, dtype=object, count=len(values))
    texts = np.empty(len(values), dtype=object)
    for kind, k in code.items():
        where = codes == k
        texts[where] = _kind_texts(column[where].tolist(), kind, float_text, other_text)
    return texts.tolist()


def emit(result: SweepResult, stream: BinaryIO, fmt: str = "csv") -> None:
    """Write a sweep result to the binary ``stream``; byte-identical for
    identical inputs.

    CSV: a ``#`` header with the provenance, a line of the axis and cell
    column names, then one line per row.  Axis values are written with
    ``repr``; a cell that is None is empty, a bool is ``true`` or ``false``, a
    float is its ``repr`` and anything else its ``str``.

    JSON: one object with the sorted keys ``axes``, ``columns``,
    ``provenance`` and ``rows``, separators ``,`` and ``:``, and a final
    newline, as ``json.dumps(..., sort_keys=True)`` writes it.  Each row is an
    object of its cells and ``axis_values``, with sorted keys.  A finite float
    is its ``float.__repr__``; a non-finite one is ``NaN``, ``Infinity`` or
    ``-Infinity``.

    The table is formatted column by column, and each distinct value of a
    column once.  Floats count as distinct by bit pattern, never by float
    equality: ``0.0 == -0.0`` (and the two hash alike) although they print
    differently, and NaN never equals itself.  Other cells count as distinct
    by type and value, so ``True`` and ``1.0`` stay apart; they must be
    hashable.

    The format is checked before anything is written.  The header is written
    first, then the rows in chunks of :data:`CHUNK_ROWS`, one ``write`` call
    each, and then the end of the document, so the document is never held
    whole: only the column texts and one chunk are.  ``stream`` needs only a
    ``write`` method that takes bytes; pass an :class:`io.BytesIO` for the
    document as bytes.
    """
    if fmt not in ("csv", "json"):
        raise ValidationError(f"unknown format {shown(fmt)}; use csv or json")
    points = [row.axis_values for row in result.rows]
    cells = [row.cells for row in result.rows]
    # Each column is gathered, turned into texts and freed in turn.
    axes = range(len(result.axis_names))
    if fmt == "csv":
        texts = [_texts(list(map(itemgetter(k), points)), repr, repr) for k in axes]
        texts += [_texts(list(map(itemgetter(name), cells)), repr, _csv_cell)
                  for name in result.columns]
        head = "\n".join([
            "# becmirror sweep",
            f"# schema_version={result.provenance['schema_version']}",
            f"# config_hash={result.provenance['config_hash']}",
            f"# constants_version={result.provenance['constants_version']}",
            f"# package_version={result.provenance['package_version']}",
            ",".join(result.axis_names + result.columns),
        ]) + "\n"
        template, sep, tail = ",".join(["%s"] * len(texts)) + "\n", "", ""
    else:
        # Each row object is one %-template, as json.dumps would lay out its keys.
        keys = sorted(("axis_values",) + result.columns)
        slots = {"axis_values": "[" + ",".join(["%s"] * len(axes)) + "]"}
        template = "{" + ",".join(
            _json(key).replace("%", "%%") + ":" + slots.get(key, "%s") for key in keys
        ) + "}"
        texts = []
        for key in keys:
            if key == "axis_values":
                texts += [_texts(list(map(itemgetter(k), points)), _json_float, _json)
                          for k in axes]
            else:
                texts.append(_texts(list(map(itemgetter(key), cells)), _json_float, _json))
        # "rows" sorts after the other three keys, so it closes the document.
        head = _json({
            "axes": list(result.axis_names),
            "columns": list(result.columns),
            "provenance": result.provenance,
        })[:-1] + ',"rows":['
        sep, tail = ",", "]}\n"
    stream.write(head.encode())
    rows = map(template.__mod__, zip(*texts))
    lead = ""
    while chunk := list(islice(rows, CHUNK_ROWS)):
        # The separator between two chunks opens the later one.
        chunk[0] = lead + chunk[0]
        stream.write(sep.join(chunk).encode())
        lead = sep
    stream.write(tail.encode())
