"""Drift and diffusion matrices of the linearized quadrature dynamics.

The state vector is the quadrature fluctuation vector
R = (q_m, p_m, q_a, p_a, q_c, p_c) for the mirror, condensate and cavity
modes, with q = (o + o^dag)/sqrt(2) and p = (o - o^dag)/(i sqrt(2)).  The
fluctuations obey dR/dt = M R + F with white noise F, so the stationary
covariance solves the Lyapunov equation M V + V M^T = -D.

The model is written once, as the symmetric matrix H of the linearized
Hamiltonian hbar R^T H R / 2, the damping rates k = (gamma, gamma, 0, 0,
kappa, kappa) and the bath occupations n = (n_th, n_th, 0, 0, n_c, n_c) of
the quadratures (the condensate is lossless and noiseless: its thermal
effects are neglected).  The Heisenberg equations of H are dR/dt = J H R,
with J = :func:`symplectic_form` (3), so M = J H - diag(k), and each bath
feeds in a symmetrized noise D = diag(k (2 n + 1)).

H comes from the Hamiltonian of the paper's setup, in units of hbar and in
the frame rotating at the laser frequency om_p::

    (om_c - om_p) c^dag c + om_m b^dag b + om_a a^dag a
        - g_mc c^dag c q_m + g_ac c^dag c q_a + i E (c^dag - c)

for the cavity c (resonance om_c, drive E), the mirror b and the condensate
side mode a: radiation pressure pushes the mirror out, lowering the resonance
by g_mc per unit q_m, and the condensate's density grating shifts it by g_ac
per unit q_a.  With each mode its mean plus a fluctuation, and the cavity
mean alpha real (the drive phase absorbed), c^dag c = alpha^2 +
sqrt(2) alpha q_c to first order, so the part quadratic in the fluctuations
is::

    om_m (q_m^2 + p_m^2)/2 + om_a (q_a^2 + p_a^2)/2 + Delta (q_c^2 + p_c^2)/2
        - G_mc q_m q_c + G_ac q_a q_c

with G = sqrt(2) g alpha and Delta the effective detuning (om_c - om_p
shifted by the static displacements): H = diag(om_m, om_m, om_a, om_a,
Delta, Delta), H[0, 4] = H[4, 0] = -G_mc and H[2, 4] = H[4, 2] = +G_ac.

What the signs mean.  Only the cavity is in the laser's frame: the undriven
mirror and condensate keep their own positive frequencies.  Delta > 0 puts
the laser below the cavity resonance (red), where a mode near Delta exchanges
excitations with the cavity and is cooled; Delta < 0 (blue) squeezes it with
the cavity.  The signs of G_mc and G_ac are phase conventions: q, p -> -q, -p
on one mode flips its coupling and no entanglement measure.  The sign of the
condensate's entry is not: with it positive and Delta > 0 the cavity mediates
an exchange between mirror and condensate, whereas Genes, Vitali & Tombesi
(PRA 77, 050307(R) (2008)) entangle atoms with a mirror by tuning the atoms
to the laser's Stokes sideband, the entry -om_a in this frame, which
:class:`~becmirror.params.ModelParams` does not admit.
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


#: J as moves of rows: (J H)[r] = J[r, s] H[s], so row s of H lands in row r
#: of the drift, keeping its sign iff J[r, s] = +1
_LANDS = {s: (r, j > 0) for (r, s), j in np.ndenumerate(symplectic_form(3)) if j}


def _model(p: ModelParams | ModelBatch) -> tuple[dict, dict, dict]:
    """H, k and n of the module docstring, for one model or a batch.

    Each is given by the entries its parameters set: H keyed by (row,
    column), k and n by quadrature; every other entry is zero.  The drift is
    filled from these by index, not by a matrix product, so each of its
    entries is a parameter or its negation, bit for bit (a zero parameter
    keeps its sign), and an entry that no parameter sets is +0.0.
    """
    h = {(0, 0): p.om_m, (1, 1): p.om_m, (2, 2): p.om_a, (3, 3): p.om_a,
         (4, 4): p.detuning, (5, 5): p.detuning,
         (0, 4): -p.G_mc, (4, 0): -p.G_mc, (2, 4): p.G_ac, (4, 2): p.G_ac}
    return (h, {0: p.gamma, 1: p.gamma, 4: p.kappa, 5: p.kappa},
            {0: p.n_th, 1: p.n_th, 4: p.n_c, 5: p.n_c})


def build_drift(p: ModelParams | ModelBatch) -> np.ndarray:
    """Drift matrix M = J H - diag(k) of the linearized quadrature dynamics.

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
    h, k, _ = _model(p)
    m = np.zeros(np.shape(p.om_m) + (6, 6))
    for (s, column), value in h.items():
        row, keeps_sign = _LANDS[s]
        m[..., row, column] = value if keeps_sign else -value
    for i, rate in k.items():
        m[..., i, i] = -rate  # (J H)[i, i] is 0: H couples no q to its own p
    return m


def build_diffusion(p: ModelParams | ModelBatch) -> np.ndarray:
    """Diagonal diffusion matrix D = diag(k (2 n + 1)) of the symmetrized
    input noises.

    An uncoupled mirror then thermalizes to (n_th + 1/2) on both quadrature
    variances.  A batch gives an (N, 6, 6) stack, whose entries out of float
    range are inf, without a warning.
    """
    _, k, n = _model(p)
    d = np.zeros(np.shape(p.om_m) + (6, 6))
    with float_arithmetic("diffusion"):
        for i, rate in k.items():
            d[..., i, i] = rate * (2.0 * n[i] + 1.0)
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
