"""Steady-state Lyapunov solver.

The stationary covariance of dR/dt = M R + F with symmetrized noise matrix D
solves M V + V M^T = -D.  The operator V -> M V + V M^T maps symmetric
matrices to symmetric ones, so at the fixed system sizes used here the
equation is solved exactly as a dense linear system in the n(n+1)/2 entries
of the upper triangle of V (21 unknowns for n = 6), one equation per entry of
the upper triangle.  The operator depends on M alone, so it is inverted once
per distinct drift and applied to the diffusions of every point that shares
that drift (a temperature sweep changes D only).  An explicit inverse is used
rather than an LU factorization solved for several right-hand sides: LAPACK's
multi-right-hand-side solve does not give the bits of the same solve with one
right-hand side, while an inverse and a stacked matrix-vector product do, so
a point's covariance does not depend on which points share its drift.
"""

from __future__ import annotations

import functools

import numpy as np

from .dynamics import check_stability_eigen
from .errors import NumericalError, StabilityError, finite_square, float_arithmetic

#: relative residual gate on the algebraic solution
RESIDUAL_TOL = 1e-10


def residuals(drifts: np.ndarray, diffusions: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Relative Lyapunov residuals ||M V + V M^T + D||_F / ||D||_F of a stack.

    The stacked core of :func:`residual`, which validates its inputs; here a
    point with non-finite entries gets a NaN or infinite residual, and a
    point whose D vanishes gets the absolute residual.
    """
    r = drifts @ covs + covs @ drifts.swapaxes(-1, -2) + diffusions
    scale = np.linalg.norm(diffusions, axis=(-2, -1))
    return np.linalg.norm(r, axis=(-2, -1)) / np.where(scale == 0.0, 1.0, scale)


def residual(drift: np.ndarray, diffusion: np.ndarray, cov: np.ndarray) -> float:
    """Relative Lyapunov residual ||M V + V M^T + D||_F / ||D||_F.

    Falls back to the absolute residual when D vanishes.  Finite inputs whose
    products or norms leave the float range give an inf or NaN residual
    without a warning; no residual gate passes either.
    """
    drift = finite_square("drift", drift)
    diffusion = finite_square("diffusion", diffusion, len(drift))
    cov = finite_square("covariance", cov, len(drift))
    with float_arithmetic("Lyapunov residual"):
        return float(residuals(drift[None], diffusion[None], cov[None])[0])


@functools.lru_cache(maxsize=None)
def _symmetric_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the Lyapunov operator on symmetric n x n matrices.

    Returns ``(rows, cols, first, second, unknown)``, all read-only:

    - ``rows``, ``cols``: the upper-triangle positions i <= j, in the order
      of both the m = n(n+1)/2 unknowns V_ij and the equations
      (M V + V M^T)_ij = -D_ij;
    - ``first``, ``second``: (m, m) flat indices into the entries of M with
      a zero appended at n*n; equation e's coefficient on unknown u is the
      sum of the two entries they pick.  (M V)_ij = sum_k M_ik V_kj puts
      M_ik on the unknown holding V_kj and (V M^T)_ij = sum_k M_jk V_ik puts
      M_jk on the one holding V_ik; each sum reaches an unknown at most once,
      so one table per sum holds every term;
    - ``unknown``: the (n, n) index of the unknown holding V_ij = V_ji.
    """
    rows, cols = np.triu_indices(n)
    m = rows.size
    unknown = np.empty((n, n), dtype=np.intp)
    unknown[rows, cols] = unknown[cols, rows] = np.arange(m)
    first = np.full((m, m), n * n, dtype=np.intp)
    second = np.full((m, m), n * n, dtype=np.intp)
    for e, (i, j) in enumerate(zip(rows.tolist(), cols.tolist())):
        for k in range(n):
            first[e, unknown[k, j]] = i * n + k
            second[e, unknown[i, k]] = j * n + k
    tables = (rows, cols, first, second, unknown)
    for table in tables:
        table.flags.writeable = False
    return tables


def steady_covariances(
    drifts: np.ndarray, diffusions: np.ndarray, group: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve M V + V M^T = -D for N points that share K distinct drifts.

    The stacked core of :func:`solve_steady_covariance`, without its
    stability check and residual gate: it returns the covariances and their
    relative residuals, and the caller decides what a residual above
    ``RESIDUAL_TOL`` means for that point.

    Parameters
    ----------
    drifts : numpy.ndarray
        (K, n, n) stack of distinct drift matrices.
    diffusions : numpy.ndarray
        (N, n, n) stack of noise matrices, one per point.
    group : numpy.ndarray, optional
        (N,) index into ``drifts`` of each point's drift; by default point i
        has drift i (K = N).

    Each drift gives one (m, m) linear system in the m = n(n+1)/2
    upper-triangle entries of V, whose coefficients are gathered from M (see
    :func:`_symmetric_tables`).  The K systems are inverted once each, in one
    stacked call; only if LAPACK refuses the stack are they inverted one by
    one, so that a singular system fails its own points alone.  Each point
    applies its drift's inverse to the upper triangle of the symmetric part
    of its D, then once more for one step of iterative refinement.  An
    inverse, unlike a factorization solved for many right-hand sides, gives
    the same bits stacked or alone, so a point's result does not depend on
    the other points of the call.  V is filled from its triangle, so it is
    symmetric exactly.

    A point whose drift's system is singular to working precision gets
    residual inf and a meaningless covariance; a point whose covariance
    leaves the float range gets an inf or NaN residual.  Neither passes a
    residual gate, and neither affects the other points.

    Raises
    ------
    ValidationError
        If the stacks are not of square matrices of one size, or not finite.
    """
    drifts = finite_square("drift", drifts, stack=True)
    diffusions = finite_square("diffusion", diffusions, drifts.shape[-1], stack=True)
    count, n, _ = drifts.shape
    rows, cols, first, second, unknown = _symmetric_tables(n)
    padded = np.zeros((count, n * n + 1))
    padded[:, : n * n] = drifts.reshape(count, n * n)
    systems = padded[:, first] + padded[:, second]
    singular = np.zeros(count, dtype=bool)
    try:
        inverses = np.linalg.inv(systems)
    except np.linalg.LinAlgError:
        # An inverse has the same bits alone as stacked.  C order keeps the
        # stacked products below on the same bits as well.
        inverses = np.zeros(systems.shape)
        for k, system in enumerate(systems):
            try:
                inverses[k] = np.linalg.inv(system)
            except np.linalg.LinAlgError:
                singular[k] = True
    if group is not None:
        drifts = drifts[group]
        inverses = inverses[group]
        singular = singular[group]

    def sym_solve(rhs: np.ndarray) -> np.ndarray:
        # Right-hand side: the upper triangle of the symmetric part of rhs.
        upper = 0.5 * (rhs[:, rows, cols] + rhs[:, cols, rows])
        return (inverses @ -upper[..., None])[..., 0][:, unknown]

    covs = sym_solve(diffusions)
    # One step of iterative refinement buys margin on ill-conditioned systems.
    covs = covs + sym_solve(drifts @ covs + covs @ drifts.swapaxes(-1, -2) + diffusions)
    rel = residuals(drifts, diffusions, covs)
    rel[singular] = np.inf
    return covs, rel


def solve_steady_covariance(
    drift: np.ndarray,
    diffusion: np.ndarray,
    *,
    check_stability: bool = True,
) -> np.ndarray:
    """Solve M V + V M^T = -D for the stationary covariance V.

    Parameters
    ----------
    drift : numpy.ndarray
        Square drift matrix M; must be strictly Hurwitz.
    diffusion : numpy.ndarray
        Symmetric noise matrix D of matching shape.
    check_stability : bool
        Re-verify stability before solving (default).  Callers that already
        hold a passing stability report may disable the re-check.

    Returns
    -------
    numpy.ndarray
        Symmetrized covariance matrix.

    Raises
    ------
    StabilityError
        If M is unstable or marginal (no stationary state exists).
    NumericalError
        If the Lyapunov system is singular to working precision, or the
        solution fails the residual gate ``RESIDUAL_TOL``.
    """
    drift = finite_square("drift", drift)
    diffusion = finite_square("diffusion", diffusion, len(drift))
    if check_stability:
        report = check_stability_eigen(drift)
        if not report.is_stable:
            kind = "marginal" if report.is_marginal else "unstable"
            raise StabilityError(
                f"drift matrix is {kind} (spectral abscissa "
                f"{report.spectral_abscissa:.6e}); no stationary covariance"
            )
    # A covariance out of float range gives an inf or NaN residual, which the
    # gate below refuses, as the sweep's does; its overflow is no warning.
    with float_arithmetic("Lyapunov solution"):
        covs, rel = steady_covariances(drift[None], diffusion[None])
    if rel[0] == np.inf:
        raise NumericalError(
            "Lyapunov system is singular to working precision, or its solution overflows"
        )
    if not rel[0] <= RESIDUAL_TOL:
        raise NumericalError(
            f"Lyapunov residual {rel[0]:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}"
        )
    return covs[0]
