"""Monte-Carlo trajectory engine and homodyne readout model.

The linear quadrature Langevin system dR = M R dt + dW, whose input-noise
increments have the covariance D dt of the symmetrized correlators, has an
exact Gaussian transition over any step dt: R <- Phi R + L xi with
Phi = exp(M dt), L L^T = Q = int_0^dt exp(M s) D exp(M^T s) ds and xi
standard normal (Van Loan, IEEE TAC 23, 1978; Gillespie, PRE 54, 2084, 1996).
:func:`simulate_trajectories` samples it, so the step carries no
discretization error and only sets the record interval; stiff configurations,
whose fastest mode is the cavity decay, are sampled over many mechanical
decorrelation times.  Ensemble covariances of long runs estimate the Lyapunov
steady state and serve as an independent oracle for it.

Randomness comes from numpy's counter-based Philox bit generator with
explicit ``(seed, stream)`` keys; identical keys reproduce trajectories
bit-for-bit and distinct streams are statistically independent, so
trajectories parallelize without shared state.

A weak second cavity reads out the joint mirror-condensate motion: after
adiabatic elimination its output field is

    c_out = (i / (2 kappa1)) (G_mc1 b~ - G_ac1 a~) + c_in,

where the tildes are slow variables in the frame rotating at the probe
detuning.  Homodyning this output at chosen local-oscillator phases gives
linear combinations of the mirror and condensate quadratures, sampled at the
trajectory's record interval, and the full reduced covariance matrix is
recovered by least squares from the record correlations.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import QUADRATURES, check_stability_eigen
from .errors import (StabilityError, ValidationError, bounded_integer, finite_real,
                     finite_square, float_arithmetic, shown)

logger = logging.getLogger(__name__)

#: most samples one call may store, counted as
#: n_trajectories * (horizon / dt + 1); each holds one float per quadrature
MAX_SAMPLES = 10_000_000

_NOISE_BLOCK = 8192

#: the exact transition is first built at a step h with ||M h||_1 below this,
#: where _TAYLOR_TERMS terms of the exponential series are exact to round-off
_TAYLOR_RADIUS = 0.5
_TAYLOR_TERMS = 18


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Raises
    ------
    ValidationError
        If the seed or the stream is not a non-negative integer.
    """
    key = [bounded_integer("seed", seed, 0), bounded_integer("stream", stream, 0)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


def _psd_root(matrix: np.ndarray, name: str, size: int) -> np.ndarray:
    """R with R R^T = matrix for a symmetric positive semidefinite matrix.

    Raises
    ------
    ValidationError
        If the matrix is not ``size`` x ``size``, has non-finite entries or
        is not positive semidefinite.
    """
    matrix = finite_square(name, matrix, size)
    with float_arithmetic("matrix square root"):  # entries past ~9e307 overflow the sum
        evals, evecs = np.linalg.eigh(0.5 * (matrix + matrix.T))
    if not np.min(evals) >= -1e-10 * max(1.0, float(np.max(np.abs(evals)))):
        raise ValidationError(f"{name} is not positive semidefinite or out of float range")
    return evecs * np.sqrt(np.clip(evals, 0.0, None))


@dataclass(frozen=True)
class TrajectoryRecord:
    """One realization of the quadrature fluctuations on a uniform grid."""

    times: np.ndarray
    samples: np.ndarray  # shape (6, len(times))
    dt: float
    seed: int
    stream: int


@dataclass(frozen=True)
class ProbeCavity:
    """Readout cavity parameters.

    The probe is treated as a pure readout map: its backaction on the system
    is neglected, which assumes the probe drive is much weaker than the main
    one.  The adiabatic readout formula further assumes the probe detuning is
    set to the mechanical frequency and dominates the probe linewidth and
    couplings; :meth:`validity` reports whether it does.
    """

    kappa1: float
    detuning1: float
    G_mc1: float
    G_ac1: float

    def __post_init__(self) -> None:
        for name, bound in (("kappa1", "> 0"), ("detuning1", "> 0"), ("G_mc1", ">= 0"),
                            ("G_ac1", ">= 0")):
            finite_real(name, getattr(self, name), bound)

    def validity(self) -> bool:
        """Whether the detuning exceeds ten times the linewidth and the
        couplings, as the adiabatic readout formula assumes."""
        return self.detuning1 > 10.0 * max(self.kappa1, self.G_mc1, self.G_ac1)


@dataclass(frozen=True)
class HomodyneRecord:
    """Homodyne samples of the probe output at one local-oscillator phase."""

    times: np.ndarray
    values: np.ndarray
    phase: float
    probe: ProbeCavity
    rotation: float
    dt: float
    noise_seed: int | None


def exact_transition(
    drift: np.ndarray, diffusion: np.ndarray, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step transition (Phi, Q) of the linear SDE dR = M R dt + dW.

    Phi = exp(M dt) and Q = int_0^dt exp(M s) D exp(M^T s) ds, the covariance
    of the noise one step accumulates.  Van Loan's block exponential
    exp([[-M, D], [0, M^T]] h) = [[., F12], [0, F22]] gives Phi(h) = F22^T and
    Q(h) = Phi(h) F12 at h = dt / 2^k, chosen so that ||M h||_1 <= 1/2, where a
    truncated Taylor series is exact to round-off.  k doublings,
    Q(2h) = Q(h) + Phi(h) Q(h) Phi(h)^T and Phi(2h) = Phi(h)^2, then reach dt.
    Q is built from M and D alone, never from a steady-state covariance, so
    trajectories sampled with it are an independent check of the Lyapunov
    solution.  A transition out of float range has inf or NaN entries in Q,
    without a warning.
    """
    drift = np.asarray(drift, dtype=float)
    diffusion = np.asarray(diffusion, dtype=float)
    dim = drift.shape[0]
    with float_arithmetic("exact transition"):
        scaled = float(np.max(np.sum(np.abs(drift), axis=0))) * dt
        doublings = max(0, math.frexp(scaled / _TAYLOR_RADIUS)[1])
        h = math.ldexp(dt, -doublings)
        block = np.zeros((2 * dim, 2 * dim))
        block[:dim, :dim] = -drift * h
        block[:dim, dim:] = diffusion * h
        block[dim:, dim:] = drift.T * h
        term = np.eye(2 * dim)
        series = term.copy()
        for n in range(1, _TAYLOR_TERMS + 1):
            term = term @ block / n
            series += term
        phi = series[dim:, dim:].T
        q = phi @ series[:dim, dim:]
        q = 0.5 * (q + q.T)
        for _ in range(doublings):
            q = q + phi @ q @ phi.T
            phi = phi @ phi
    return phi, q


def simulate_trajectories(
    drift: np.ndarray,
    diffusion: np.ndarray,
    cov0: np.ndarray | None,
    *,
    dt: float,
    horizon: float,
    seed: int,
    n_trajectories: int,
    first_stream: int = 0,
) -> list[TrajectoryRecord]:
    """Independent trajectories of the quadrature SDE on consecutive streams.

    Steps with the exact Gaussian transition R <- Phi R + L xi from
    :func:`exact_transition`, which has no discretization error: any ``dt``
    > 0 is accepted and only sets the record interval.  The trajectories
    advance together, one matrix product per step.  Stream ``s`` draws its
    initial state and its noise from its own Philox key ``(seed, s)``, so its
    record does not depend on how many others are sampled alongside it, up to
    the round-off of a product over a different number of columns.

    Parameters
    ----------
    drift, diffusion : numpy.ndarray
        Drift matrix (must be strictly Hurwitz) and positive semidefinite
        diffusion matrix.
    cov0 : numpy.ndarray or None
        Covariance of the Gaussian initial state; ``None`` starts from the
        origin.
    dt : float
        Record interval.
    horizon : float
        Total simulated time; each record holds round(horizon/dt) + 1 samples
        including t = 0.
    seed : int
        Philox seed shared by all trajectories.
    n_trajectories, first_stream : int
        Trajectory ``i`` runs on stream ``first_stream + i``.  Together the
        records may hold at most :data:`MAX_SAMPLES` samples, checked before
        sampling.

    Raises
    ------
    StabilityError
        If the drift matrix is not strictly Hurwitz.
    ValidationError
        If ``dt`` or ``horizon`` is not finite and positive,
        ``n_trajectories`` is not a positive integer, the run would store
        more than :data:`MAX_SAMPLES` samples, the matrices are not square
        of one size or have non-finite entries, or ``cov0`` or the diffusion
        matrix is not positive semidefinite.
    """
    drift = finite_square("drift matrix", drift)
    finite_real("dt", dt, "> 0")
    finite_real("horizon", horizon, "> 0")
    bounded_integer("n_trajectories", n_trajectories, 1, MAX_SAMPLES)
    stored = n_trajectories * (horizon / dt + 1.0)
    if stored > MAX_SAMPLES:
        raise ValidationError(
            f"run would store {stored:.3g} samples (n_trajectories x "
            f"(horizon/dt + 1)), above the cap of {MAX_SAMPLES:.0e}; shorten "
            "the horizon, lengthen dt or sample fewer trajectories"
        )
    report = check_stability_eigen(drift)
    if not report.is_stable:
        raise StabilityError(
            "trajectory simulation requires a strictly stable drift matrix "
            f"(spectral abscissa {report.spectral_abscissa:.6e})"
        )
    dim = drift.shape[0]
    _psd_root(diffusion, "diffusion matrix", dim)
    cov0_root = None if cov0 is None else _psd_root(cov0, "cov0", dim)
    phi, q = exact_transition(drift, diffusion, dt)
    noise_root = _psd_root(q, "step noise covariance", dim)

    n_steps = int(round(horizon / dt))
    first_stream = bounded_integer("first_stream", first_stream, 0)
    streams = range(first_stream, first_stream + n_trajectories)
    rngs = [_rng(seed, s) for s in streams]
    # path[col] is the record of one stream; state holds one column per stream.
    path = np.empty((n_trajectories, dim, n_steps + 1))
    state = np.zeros((dim, n_trajectories))
    if cov0_root is not None:
        for col, rng in enumerate(rngs):
            state[:, col] = cov0_root @ rng.standard_normal(dim)
    path[:, :, 0] = state.T
    k = 0
    while k < n_steps:
        block = min(_NOISE_BLOCK, n_steps - k)
        xi = np.stack([rng.standard_normal((dim, block)) for rng in rngs], axis=-1)
        # steps[j] holds the noise of step k + j + 1, then the state after it.
        steps = np.einsum("ij,jbn->bin", noise_root, xi)
        for j in range(block):
            state = steps[j] = phi @ state + steps[j]
        path[:, :, k + 1 : k + block + 1] = steps.transpose(2, 1, 0)
        k += block
    times = np.arange(n_steps + 1) * dt
    return [
        TrajectoryRecord(times=times, samples=path[col], dt=dt, seed=seed, stream=s)
        for col, s in enumerate(streams)
    ]


def ensemble_covariance(
    trajectories: Sequence[TrajectoryRecord],
    burn_in: float,
    *,
    batch_length: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary covariance estimate with batch-means standard errors.

    Samples before ``burn_in`` are dropped; the remainder of each trajectory
    is split into contiguous batches, each batch contributes its mean outer
    product, and the estimate and elementwise standard errors come from the
    scatter of the batch matrices.  The fluctuations have zero mean by
    construction, so raw second moments are used (no mean removal and hence
    no autocorrelation-induced mean bias).

    ``batch_length`` defaults to a sixteenth of the post-burn-in span; it
    should exceed the system decorrelation time for the standard errors to
    be trustworthy.  An estimate or standard error out of float range is
    refused with :class:`ValidationError`.
    """
    if not trajectories:
        raise ValidationError("at least one trajectory is required")
    dt = trajectories[0].dt
    for traj in trajectories:
        if traj.dt != dt:
            raise ValidationError("trajectories must share a common dt")
    finite_real("burn_in", burn_in, ">= 0")
    span = min(traj.times[-1] for traj in trajectories) - burn_in
    if span <= 0:
        raise ValidationError(
            f"burn_in {shown(burn_in)} consumes the whole trajectory; "
            "simulate a longer horizon"
        )
    if batch_length is None:
        batch_length = span / 16.0
    # A batch past the longest record gives none; the cap keeps the int finite.
    per_batch = max(1, int(round(min(finite_real("batch_length", batch_length, "> 0") / dt,
                                     2.0**53))))

    batches: list[np.ndarray] = []
    with float_arithmetic("ensemble covariance"):
        for traj in trajectories:
            start = int(math.ceil(burn_in / dt))
            data = traj.samples[:, start:]
            n_batches = data.shape[1] // per_batch
            for b in range(n_batches):
                chunk = data[:, b * per_batch : (b + 1) * per_batch]
                batches.append(chunk @ chunk.T / chunk.shape[1])
        if len(trajectories) == 1 and len(batches) < 8:
            raise ValidationError(
                f"a single trajectory yielded only {len(batches)} batches; "
                "use >= 2 trajectories or a horizon of at least "
                f"{burn_in + 8 * per_batch * dt:.3g} with this batch length"
            )
        if len(batches) < 2:
            raise ValidationError(
                "need at least 2 batches for a standard error; "
                "lengthen the trajectories or shrink batch_length"
            )
        stack = np.stack(batches)
        estimate = stack.mean(axis=0)
        stderr = stack.std(axis=0, ddof=1) / math.sqrt(len(batches))
        estimate = 0.5 * (estimate + estimate.T)
        stderr = 0.5 * (stderr + stderr.T)
    if not (np.isfinite(estimate).all() and np.isfinite(stderr).all()):
        raise ValidationError("ensemble covariance out of float range")
    return estimate, stderr


def homodyne_weights(
    probe: ProbeCavity, phase: float, rotation: float, times: np.ndarray
) -> np.ndarray:
    """Lab-frame weights mapping (q_m, p_m, q_a, p_a) to the homodyne signal.

    Writing the adiabatic probe output as
    c_out = (i / (2 kappa1)) (G_mc1 b~ - G_ac1 a~) + c_in with slow variables
    o~(t) = o(t) exp(i rotation t), the phase-``phase`` quadrature of the
    signal part is a time-dependent linear form w(t)^T R(t); this returns w
    as a (4, len(times)) array.

    A gain or an angle rotation * t out of float range gives inf or NaN
    weights without a warning; callers refuse them.  A ``phase`` or
    ``rotation`` that is not a finite real number, or ``times`` that are not
    a vector, raise :class:`ValidationError`.
    """
    finite_real("phase", phase)
    finite_real("rotation", rotation)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValidationError(f"times must be a vector, got shape {times.shape}")
    g = 1.0 / (2.0 * probe.kappa1)
    with float_arithmetic("homodyne weights"):
        w_rot = g * np.array(
            [
                math.sin(phase) * probe.G_mc1,
                -math.cos(phase) * probe.G_mc1,
                -math.sin(phase) * probe.G_ac1,
                math.cos(phase) * probe.G_ac1,
            ]
        )
        angles = rotation * times
        c, s = np.cos(angles), np.sin(angles)
        weights = np.empty((4, len(angles)))
        # Per mode, lab weights are Rot(angle)^T applied to the rotating-frame pair.
        weights[0] = c * w_rot[0] + s * w_rot[1]
        weights[1] = -s * w_rot[0] + c * w_rot[1]
        weights[2] = c * w_rot[2] + s * w_rot[3]
        weights[3] = -s * w_rot[2] + c * w_rot[3]
    return weights


def homodyne_output(
    traj: TrajectoryRecord,
    probe: ProbeCavity,
    phase: float,
    noise_seed: int | None,
) -> HomodyneRecord:
    """Homodyne record of the probe output for one trajectory.

    The detector samples at the trajectory's record times, so ``traj.dt`` is
    its sampling interval and 1/(2 traj.dt) its bandwidth.  The
    slow-variable rotation is applied in post-processing at the probe
    detuning frequency; an independently seeded vacuum input-noise stream of
    per-sample quadrature variance 1/(2 traj.dt) is added on top of the
    signal.

    Raises
    ------
    ValidationError
        If ``noise_seed`` is missing (the readout noise stream must be
        explicitly seeded for reproducibility), or the record leaves the
        float range, as it does with non-finite weights.
    """
    if noise_seed is None:
        raise ValidationError("noise_seed is required for the probe input noise")
    if not probe.validity():
        logger.warning("probe outside its validity regime: detuning1 %g is not ten "
                       "times its linewidth and couplings", probe.detuning1)
    weights = homodyne_weights(probe, phase, probe.detuning1, traj.times)
    rng = _rng(noise_seed)
    sigma = math.sqrt(1.0 / (2.0 * traj.dt))
    # Non-finite weights make every sample they touch non-finite, so one
    # check on the record refuses them and an overflowing signal alike.
    with float_arithmetic("homodyne record"):
        xi_q, xi_p = rng.standard_normal((2, len(traj.times))) * sigma
        noise = math.cos(phase) * xi_q + math.sin(phase) * xi_p
        values = np.einsum("jk,jk->k", weights, traj.samples[:4]) + noise
    if not np.isfinite(values).all():
        raise ValidationError(
            "homodyne record leaves the float range: the probe gain "
            "G / (2 kappa1), its rotation detuning1 * t or the signal is too large"
        )
    return HomodyneRecord(
        times=traj.times,
        values=values,
        phase=phase,
        probe=probe,
        rotation=probe.detuning1,
        dt=traj.dt,
        noise_seed=noise_seed,
    )


_UNIQUE_ENTRIES = [(i, j) for i in range(4) for j in range(i, 4)]


def _entry_label(i: int, j: int) -> str:
    return f"{QUADRATURES[i]}*{QUADRATURES[j]}"


def _pair_block(wi: np.ndarray, wj: np.ndarray) -> np.ndarray:
    """(kept times, 10) coefficients of one record pair's products.

    Row t maps the ten unique covariance entries to the expected product of
    the two records at kept time t, given their (4, kept times) weights.
    """
    block = np.empty((wi.shape[1], len(_UNIQUE_ENTRIES)))
    for col, (p, q) in enumerate(_UNIQUE_ENTRIES):
        if p == q:
            block[:, col] = wi[p] * wj[p]
        else:
            block[:, col] = wi[p] * wj[q] + wi[q] * wj[p]
    return block


def reconstruct_correlations(
    record_sets: Sequence[Sequence[HomodyneRecord]],
    *,
    noise_variance: float | None = None,
    max_times: int = 2000,
) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares estimate of the reduced covariance from homodyne records.

    Equal-time products of the records are linear in the ten unique entries
    of the reduced covariance matrix through the known (time-dependent) gain
    map: the products y_k of record pair k (i <= j) at the kept times are
    y_k ~ A_k x with a (kept times, 10) block A_k, and the design A stacks
    these blocks.  A is never built.  A first pass builds each block,
    refuses one out of float range and finds the largest |entry| c of A; a
    second pass rebuilds each block and adds (A_k / c)^T (A_k / c) to the
    10 x 10 Gram matrix and (A_k / c)^T y_k to a (10, trajectories)
    right-hand side.  The normal equations (A^T A / c^2) x = A^T y / c^2 are
    then solved for every trajectory at once.  The fit's memory therefore
    does not grow with the number of record pairs, and ``max_times`` bounds
    its CPU and each pair's block.  The final estimate and standard errors
    come from the scatter of the per-trajectory solutions, which are
    independent by construction.

    An entry is identifiable when the scaled Gram matrix A^T A / c^2 has no
    eigenvalue at or below 1e-10 of its largest.  The threshold is relative,
    so it does not depend on the probe couplings (A scales as
    (G / kappa1)^2), and an exact dependency stays far below it: the Gram's
    rounding is at most about rows * 1.1e-16 (the unit roundoff) of the
    largest eigenvalue, 4e-12 at the 33,270 rows (15 pairs x 2,218 kept
    times) homodyne-sim sums into it.  The entries reported as
    unidentifiable are those with a component above 1e-8 in an eigenvector
    of such an eigenvalue.

    Parameters
    ----------
    record_sets : sequence of sequences
        One inner sequence per independent trajectory, each holding records
        of the *same* configurations (phase, probe, grid) in the same order.
        Records within one trajectory must carry distinct noise seeds so
        cross products are free of noise bias.
    noise_variance : float, optional
        Per-sample variance of each record's own noise, subtracted from
        same-record products.  Defaults to 1/(2 dt) as produced by
        :func:`homodyne_output`; pass 0.0 for noiseless synthetic records.
    max_times : int
        Time indices are evenly subsampled with stride
        ``n_times // max_times`` (at least 1), so each record pair keeps
        fewer than ``2 * max_times`` of them; this bounds the fit's CPU and
        each pair's block.

    Returns
    -------
    (estimate, stderr)
        4x4 symmetric covariance estimate over (q_m, p_m, q_a, p_a) and the
        elementwise standard errors.

    Raises
    ------
    ValidationError
        If fewer than two trajectories are supplied, configurations are
        inconsistent across trajectories, noise seeds collide, the probe
        gains overflow the design's products, or the configuration set
        leaves covariance entries unidentifiable by the eigenvalue test above
        (the message lists them; probes that all have ``G_ac1 = 0``, for
        instance, leave every entry with q_a or p_a), ``noise_variance`` is
        not a finite real number, ``max_times`` not a positive integer, or
        the products of the records or the estimate leave the float range.
    """
    if len(record_sets) < 2:
        raise ValidationError("need records from >= 2 independent trajectories")
    n_cfg = len(record_sets[0])
    if n_cfg == 0:
        raise ValidationError("record sets are empty")
    first = record_sets[0]
    for records in record_sets:
        if len(records) != n_cfg:
            raise ValidationError("every trajectory must carry the same configurations")
        for rec, ref in zip(records, first):
            if (
                rec.phase != ref.phase
                or rec.probe != ref.probe
                or rec.dt != ref.dt
                or len(rec.times) != len(ref.times)
            ):
                raise ValidationError(
                    "record configurations differ across trajectories"
                )
        seeds = [rec.noise_seed for rec in records]
        if noise_variance != 0.0 and len(set(seeds)) != len(seeds):
            raise ValidationError("noise seeds within a trajectory must be distinct")

    if noise_variance is None:
        noise_variance = 1.0 / (2.0 * first[0].dt)
    finite_real("noise_variance", noise_variance)
    n_times = len(first[0].times)
    stride = max(1, n_times // bounded_integer("max_times", max_times, 1))
    t_idx = np.arange(0, n_times, stride)
    times = first[0].times[t_idx]

    pairs = [(i, j) for i in range(n_cfg) for j in range(i, n_cfg)]
    weights = [
        homodyne_weights(rec.probe, rec.phase, rec.rotation, times) for rec in first
    ]
    # First pass: refuse a block out of float range (a probe gain
    # G / (2 kappa1) near it overflows the products of the weights) and find
    # the largest |entry| c.  The design scales as coupling^2 / kappa1^2;
    # dividing by c makes the test below and the Gram's range independent of
    # that.  An all-zero design (uncoupled probes) keeps c = 1 and is refused.
    scale = 0.0
    for i, j in pairs:
        with float_arithmetic("homodyne design"):
            block = _pair_block(weights[i], weights[j])
        if not np.isfinite(block).all():
            raise ValidationError(
                "homodyne design leaves the float range: the probe gains "
                "G / (2 kappa1) are too large"
            )
        scale = max(scale, float(np.abs(block).max()))
    scale = scale or 1.0

    # Second pass: add each scaled block's share of the normal equations,
    # one right-hand-side column per trajectory.
    values = np.array(
        [[rec.values[t_idx] for rec in records] for records in record_sets]
    )  # (trajectory, configuration, kept time)
    gram = np.zeros((len(_UNIQUE_ENTRIES), len(_UNIQUE_ENTRIES)))
    rhs = np.zeros((len(_UNIQUE_ENTRIES), len(record_sets)))
    with float_arithmetic("normal equations"):
        for i, j in pairs:
            block = _pair_block(weights[i], weights[j]) / scale
            products = values[:, i] * values[:, j]
            if i == j:
                products -= noise_variance
            gram += block.T @ block
            rhs += block.T @ products.T
    if not np.isfinite(rhs).all():
        raise ValidationError("homodyne record products out of float range")

    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    null = eigenvalues <= 1e-10 * eigenvalues[-1]
    if null.any():
        missing = sorted(
            {
                _entry_label(*_UNIQUE_ENTRIES[col])
                for vector in eigenvectors[:, null].T
                for col in np.nonzero(np.abs(vector) > 1e-8)[0]
            }
        )
        raise ValidationError(
            "configuration set cannot identify covariance entries: "
            + ", ".join(missing)
            + "; add local-oscillator phases or coupling configurations"
        )

    with float_arithmetic("reconstructed covariance"):
        stack = (np.linalg.solve(gram, rhs) / scale).T
        mean = stack.mean(axis=0)
        sem = stack.std(axis=0, ddof=1) / math.sqrt(len(record_sets))
    if not (np.isfinite(mean).all() and np.isfinite(sem).all()):
        raise ValidationError("reconstructed covariance out of float range")

    estimate = np.zeros((4, 4))
    stderr = np.zeros((4, 4))
    for col, (p, q) in enumerate(_UNIQUE_ENTRIES):
        estimate[p, q] = estimate[q, p] = mean[col]
        stderr[p, q] = stderr[q, p] = sem[col]
    return estimate, stderr
