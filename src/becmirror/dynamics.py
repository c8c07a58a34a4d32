"""Drift and diffusion matrices of the linearized quadrature dynamics.

The state vector is the quadrature fluctuation vector
R = (q_m, p_m, q_a, p_a, q_c, p_c) for the mirror, condensate and cavity
modes, with q = (o + o^dag)/sqrt(2) and p = (o - o^dag)/(i sqrt(2)).  The
fluctuations obey dR/dt = M R + F with white noise F, so the stationary
covariance solves the Lyapunov equation M V + V M^T = -D.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, bounded_integer, finite_square, float_arithmetic, shown
from .params import ModelBatch, ModelParams

QUADRATURES = ("q_m", "p_m", "q_a", "p_a", "q_c", "p_c")

#: mode name -> (q index, p index) in the fixed quadrature ordering
MODE_INDICES = {"mirror": (0, 1), "bec": (2, 3), "cavity": (4, 5)}

#: spectral abscissa within this times ||M||_F of zero counts as marginal
MARGINAL_TOL = 1e-9


def symplectic_form(n_modes: int = 3) -> np.ndarray:
    """Direct sum of n_modes copies of [[0, 1], [-1, 0]], for 1 to 3 modes."""
    n_modes = bounded_integer("n_modes", n_modes, 1, len(MODE_INDICES))
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def build_drift(p: ModelParams | ModelBatch) -> np.ndarray:
    """Drift matrix of the linearized quadrature dynamics.

    Row by row, the equations of motion are::

        dq_m/dt = -gamma q_m + om_m p_m
        dp_m/dt = -om_m q_m - gamma p_m + G_mc q_c
        dq_a/dt =  om_a p_a
        dp_a/dt = -om_a q_a - G_ac q_c
        dq_c/dt = -kappa q_c + detuning p_c
        dp_c/dt =  G_mc q_m - G_ac q_a - detuning q_c - kappa p_c

    Parameters
    ----------
    p : ModelParams or ModelBatch
        Validated model parameters, one model or a batch of N.

    Returns
    -------
    numpy.ndarray
        Real 6x6 drift matrix in the fixed quadrature ordering, or an
        (N, 6, 6) stack of them for a batch.
    """
    m = np.zeros(np.shape(p.om_m) + (6, 6))
    m[..., 0, 0] = -p.gamma
    m[..., 0, 1] = p.om_m
    m[..., 1, 0] = -p.om_m
    m[..., 1, 1] = -p.gamma
    m[..., 1, 4] = p.G_mc
    m[..., 2, 3] = p.om_a
    m[..., 3, 2] = -p.om_a
    m[..., 3, 4] = -p.G_ac
    m[..., 4, 4] = -p.kappa
    m[..., 4, 5] = p.detuning
    m[..., 5, 0] = p.G_mc
    m[..., 5, 2] = -p.G_ac
    m[..., 5, 4] = -p.detuning
    m[..., 5, 5] = -p.kappa
    return m


def build_diffusion(p: ModelParams | ModelBatch) -> np.ndarray:
    """Diagonal diffusion matrix of the symmetrized input noises.

    The mirror bath contributes gamma (2 n_th + 1) on its two quadratures,
    the cavity vacuum kappa (2 n_c + 1); the condensate mode is noiseless
    (its thermal effects are neglected).  An uncoupled mirror then
    thermalizes to (n_th + 1/2) on both quadrature variances.  A batch gives
    an (N, 6, 6) stack, whose entries out of float range are inf, without a
    warning.
    """
    with float_arithmetic("diffusion"):
        mech = p.gamma * (2.0 * p.n_th + 1.0)
        cav = p.kappa * (2.0 * p.n_c + 1.0)
    d = np.zeros(np.shape(p.om_m) + (6, 6))
    d[..., 0, 0] = d[..., 1, 1] = mech
    d[..., 4, 4] = d[..., 5, 5] = cav
    return d


@dataclass(frozen=True)
class StabilityReport:
    """Eigenvalue stability analysis of a drift matrix.

    ``is_stable`` uses the strict Hurwitz convention (all real parts < 0);
    a spectral abscissa within ``MARGINAL_TOL * ||M||_F`` of zero is flagged
    marginal and reported as unstable.  When model parameters are supplied,
    the closed-form product criterion
    om_m om_a (kappa^2 + detuning^2) - detuning (G_mc^2 om_a + G_ac^2 om_m) > 0
    is evaluated alongside as a diagnostic.  It is det M > 0 at zero
    mechanical damping, a necessary condition only, so the eigenvalue
    verdict is authoritative.
    """

    is_stable: bool
    is_marginal: bool
    eigenvalues: np.ndarray
    spectral_abscissa: float
    criterion_value: float | None = None
    criterion_pass: bool | None = None


def check_stability_criterion(p: ModelParams | ModelBatch) -> tuple[float, bool]:
    """Closed-form product stability criterion.

    Returns the left-hand-side value of
    om_m om_a (kappa^2 + detuning^2) - detuning (G_mc^2 om_a + G_ac^2 om_m)
    and whether it is positive, as arrays for a batch.  The value equals
    det M / (om_m om_a) at gamma = 0.  A strictly Hurwitz 6x6 drift has
    det M > 0, so without damping a negative value proves instability, while
    a positive one proves nothing.  A value out of float range is inf or
    NaN, without a warning.
    """
    with float_arithmetic("stability criterion"):
        value = p.om_m * p.om_a * (p.kappa * p.kappa + p.detuning * p.detuning) - p.detuning * (
            p.G_mc * p.G_mc * p.om_a + p.G_ac * p.G_ac * p.om_m
        )
    return value, value > 0.0


def eigen_stability(
    drifts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalue stability of a stack of square drift matrices.

    The stacked core of :func:`check_stability_eigen`: one eigenvalue call
    over the (N, n, n) stack, then the spectral abscissa and the marginal
    band ``MARGINAL_TOL * ||M||_F`` per matrix.

    Returns
    -------
    tuple of numpy.ndarray
        ``(eigenvalues, abscissa, marginal, stable)`` with shapes (N, n),
        (N,), (N,) and (N,).

    Raises
    ------
    ValidationError
        If ``drifts`` is not a stack of square matrices of finite entries.
    NumericalError
        If the eigenvalue iteration fails on any matrix of the stack.
    """
    drifts = finite_square("drift matrix", drifts, stack=True)
    try:
        eigenvalues = np.linalg.eigvals(drifts)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK breakdown
        raise NumericalError(f"eigenvalue computation failed on\n{shown(drifts)}") from exc
    abscissa = np.max(eigenvalues.real, axis=-1)
    extent = np.abs(abscissa)
    with float_arithmetic("drift norms"):
        size = np.linalg.norm(drifts, axis=(-2, -1))
    huge = np.isinf(size)
    if huge.any():  # entries past ~1e154: measure in units of the largest
        scale = np.max(np.abs(drifts[huge]), axis=(-2, -1))
        size[huge] = np.linalg.norm(drifts[huge] / scale[:, None, None], axis=(-2, -1))
        extent[huge] /= scale
    marginal = extent <= MARGINAL_TOL * size
    stable = (abscissa < 0.0) & ~marginal
    return eigenvalues, abscissa, marginal, stable


def check_stability_eigen(
    drift: np.ndarray, params: ModelParams | None = None
) -> StabilityReport:
    """Authoritative eigenvalue stability check.

    Parameters
    ----------
    drift : numpy.ndarray
        Square real drift matrix.
    params : ModelParams, optional
        When given, the closed-form criterion is evaluated and included in
        the report as a diagnostic.

    Raises
    ------
    ValidationError
        If the matrix is not square or contains non-finite entries.
    NumericalError
        If the eigenvalue iteration fails; the message echoes the matrix.
    """
    drift = finite_square("drift matrix", drift)
    eigenvalues, abscissa, marginal, stable = eigen_stability(drift[None])
    value = passes = None
    if params is not None:
        value, passes = check_stability_criterion(params)
    return StabilityReport(
        is_stable=bool(stable[0]),
        is_marginal=bool(marginal[0]),
        eigenvalues=eigenvalues[0],
        spectral_abscissa=float(abscissa[0]),
        criterion_value=value,
        criterion_pass=passes,
    )
