"""Steady-state Lyapunov solver and its matrix-ODE integration oracle.

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
:func:`integrate_covariance` advances
dV/dt = M V + V M^T + D with a classical fourth-order Runge-Kutta scheme and
serves as an independent cross-check of the algebraic solution.
"""

from __future__ import annotations

import functools

import numpy as np

from .dynamics import check_stability_eigen
from .errors import NumericalError, StabilityError, ValidationError

#: relative residual gate on the algebraic solution
RESIDUAL_TOL = 1e-10


def _as_square(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains non-finite entries")
    return a


def _finite(stack: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(stack)):
        raise ValidationError(f"{name} contains non-finite entries")


def residuals(drifts: np.ndarray, diffusions: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Relative Lyapunov residuals ||M V + V M^T + D||_F / ||D||_F of a stack.

    The stacked core of :func:`residual`; a point whose D vanishes gets the
    absolute residual.

    Raises
    ------
    ValidationError
        If any input contains non-finite entries.
    """
    _finite(drifts, "drift")
    _finite(diffusions, "diffusion")
    _finite(covs, "covariance")
    r = drifts @ covs + covs @ drifts.swapaxes(-1, -2) + diffusions
    scale = np.linalg.norm(diffusions, axis=(-2, -1))
    return np.linalg.norm(r, axis=(-2, -1)) / np.where(scale == 0.0, 1.0, scale)


def residual(drift: np.ndarray, diffusion: np.ndarray, cov: np.ndarray) -> float:
    """Relative Lyapunov residual ||M V + V M^T + D||_F / ||D||_F.

    Falls back to the absolute residual when D vanishes.
    """
    drift = _as_square(drift, "drift")
    diffusion = _as_square(diffusion, "diffusion")
    cov = _as_square(cov, "covariance")
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
    :func:`_symmetric_tables`).  The K systems are inverted once each, and
    each point applies its drift's inverse to the upper triangle of the
    symmetric part of its D, then once more for one step of iterative
    refinement.  An inverse, unlike a factorization solved for many
    right-hand sides, gives the same bits stacked or alone, so a point's
    result does not depend on the other points of the call.  V is filled
    from its triangle, so it is symmetric exactly.

    Raises
    ------
    ValidationError
        If any input contains non-finite entries.
    NumericalError
        If the system of any drift is singular to working precision; the
        whole call fails, so callers that need per-point verdicts solve
        again one point at a time.
    """
    _finite(drifts, "drift")
    _finite(diffusions, "diffusion")
    count, n, _ = drifts.shape
    rows, cols, first, second, unknown = _symmetric_tables(n)
    padded = np.zeros((count, n * n + 1))
    padded[:, : n * n] = drifts.reshape(count, n * n)
    try:
        inverses = np.linalg.inv(padded[:, first] + padded[:, second])
    except np.linalg.LinAlgError as exc:
        raise NumericalError("Lyapunov system is singular to working precision") from exc
    if group is not None:
        drifts = drifts[group]
        inverses = inverses[group]

    def sym_solve(rhs: np.ndarray) -> np.ndarray:
        # Right-hand side: the upper triangle of the symmetric part of rhs.
        upper = 0.5 * (rhs[:, rows, cols] + rhs[:, cols, rows])
        return (inverses @ -upper[..., None])[..., 0][:, unknown]

    covs = sym_solve(diffusions)
    # One step of iterative refinement buys margin on ill-conditioned systems.
    covs = covs + sym_solve(drifts @ covs + covs @ drifts.swapaxes(-1, -2) + diffusions)
    return covs, residuals(drifts, diffusions, covs)


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
        If the solution fails the residual gate ``RESIDUAL_TOL``.
    """
    drift = _as_square(drift, "drift")
    diffusion = _as_square(diffusion, "diffusion")
    if drift.shape != diffusion.shape:
        raise ValidationError(
            f"shape mismatch: drift {drift.shape} vs diffusion {diffusion.shape}"
        )
    if check_stability:
        report = check_stability_eigen(drift)
        if not report.is_stable:
            kind = "marginal" if report.is_marginal else "unstable"
            raise StabilityError(
                f"drift matrix is {kind} (spectral abscissa "
                f"{report.spectral_abscissa:.6e}); no stationary covariance"
            )
    covs, rel = steady_covariances(drift[None], diffusion[None])
    if not rel[0] <= RESIDUAL_TOL:
        raise NumericalError(
            f"Lyapunov residual {rel[0]:.3e} exceeds tolerance {RESIDUAL_TOL:.0e}"
        )
    return covs[0]


def integrate_covariance(
    drift: np.ndarray,
    diffusion: np.ndarray,
    cov0: np.ndarray | None,
    horizon: float,
    dt: float | None = None,
) -> np.ndarray:
    """Integrate dV/dt = M V + V M^T + D to ``horizon`` with fixed-step RK4.

    Parameters
    ----------
    drift, diffusion : numpy.ndarray
        System matrices as in :func:`solve_steady_covariance`.
    cov0 : numpy.ndarray or None
        Initial covariance; ``None`` starts from zero.
    horizon : float
        Integration time; for a stable drift with spectral abscissa a,
        horizons of at least 20/|a| reach the fixed point to within
        O(exp(-2 |a| horizon)).
    dt : float, optional
        Step size, defaulting to 0.01/|a|.  The default suits systems whose
        eigenvalue magnitudes do not spread far beyond |a|; stiff systems
        need dt below roughly 2.8/max|eigenvalue| for RK4 stability.

    Raises
    ------
    NumericalError
        On norm blow-up, which indicates an unstable step size; the message
        advises a smaller dt.
    """
    drift = _as_square(drift, "drift")
    diffusion = _as_square(diffusion, "diffusion")
    if horizon <= 0:
        raise ValidationError(f"horizon must be > 0, got {horizon!r}")
    if dt is None:
        abscissa = float(np.max(np.linalg.eigvals(drift).real))
        if abscissa >= 0:
            raise ValidationError(
                "dt default requires a stable drift matrix; pass dt explicitly"
            )
        dt = 0.01 / abs(abscissa)
    if dt <= 0:
        raise ValidationError(f"dt must be > 0, got {dt!r}")
    cov = np.zeros_like(drift) if cov0 is None else _as_square(cov0, "cov0").copy()
    # The flow preserves symmetry, so V M^T = (M V)^T along the trajectory;
    # symmetrizing the start lets each stage get away with one product.
    cov = 0.5 * (cov + cov.T)
    diffusion_sym = 0.5 * (diffusion + diffusion.T)

    scale = max(np.linalg.norm(cov), np.linalg.norm(diffusion), 1.0)
    blowup = 1e12 * scale
    steps, remainder = divmod(horizon, dt)
    steps = int(steps)

    def rhs(v: np.ndarray) -> np.ndarray:
        half = drift @ v
        return half + half.T + diffusion_sym

    def rk4_step(v: np.ndarray, h: float) -> np.ndarray:
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    check_every = 50
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            cov = rk4_step(cov, dt)
            if step % check_every == 0 and not np.linalg.norm(cov) < blowup:
                raise NumericalError(
                    f"covariance norm blew up after {step + 1} steps at dt={dt:.3e}; "
                    "use a smaller dt"
                )
        if remainder > 0.0:
            cov = rk4_step(cov, remainder)
    if not np.all(np.isfinite(cov)) or not np.linalg.norm(cov) < blowup:
        raise NumericalError(
            f"covariance norm blew up at dt={dt:.3e}; use a smaller dt"
        )
    return 0.5 * (cov + cov.T)
