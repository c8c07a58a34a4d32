"""Gaussian entanglement measures for the reduced mirror-condensate pair.

The reduced two-mode state is fully characterized by its 4x4 covariance matrix
V' in the (q_m, p_m, q_a, p_a) block form [[X, Z], [Z^T, Y]], vacuum = I/2.
The partially transposed symplectic eigenvalues follow from the closed form

    nu_-+^2 = (Sigma -+ sqrt(Sigma^2 - 4 det V')) / 2,
    Sigma = det X + det Y - 2 det Z,

and the state is entangled exactly when nu_- < 1/2 (the two-mode PPT
separability test), with logarithmic negativity max(0, -ln 2 nu_-).  The
smaller eigenvalue is evaluated through det V' / nu_+^2, which avoids the
catastrophic cancellation of the textbook difference form for strongly
squeezed states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MODE_INDICES
from .errors import NumericalError, ValidationError

#: matrices are accepted as symmetric up to this relative asymmetry
SYMMETRY_TOL = 1e-12

#: domain-boundary violations up to this (relative) size are clamped to zero
CLAMP_TOL = 1e-12


class ClampCounter:
    """Counter of domain-boundary clamps (sweep diagnostic)."""

    def __init__(self) -> None:
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def add(self, n: int) -> None:
        self._count += int(n)

    def reset(self) -> None:
        self._count = 0


CLAMP_EVENTS = ClampCounter()


@dataclass(frozen=True)
class ReducedState:
    """Covariance matrix of a kept mode pair, with its 2x2 block views."""

    cov: np.ndarray
    modes: tuple[str, str]

    @property
    def block_x(self) -> np.ndarray:
        return self.cov[..., :2, :2]

    @property
    def block_y(self) -> np.ndarray:
        return self.cov[..., 2:, 2:]

    @property
    def block_z(self) -> np.ndarray:
        return self.cov[..., :2, 2:]


@dataclass(frozen=True)
class EntanglementResult:
    """Entanglement summary of a reduced two-mode Gaussian state."""

    nu_minus: float
    nu_plus: float
    log_negativity: float
    simon_separable: bool
    sigma: float
    det_cov: float


def reduce_to_modes(
    cov: np.ndarray, keep: tuple[str, str] = ("mirror", "bec")
) -> ReducedState:
    """Trace out all but two modes of a full covariance matrix.

    Tracing out a mode of a Gaussian state amounts to deleting its rows and
    columns; no renormalization is involved.

    Parameters
    ----------
    cov : numpy.ndarray
        Full 6x6 covariance matrix in the fixed quadrature ordering, or an
        (N, 6, 6) stack of them, which gives an (N, 4, 4) stack.
    keep : tuple of str
        Two distinct mode names out of ``mirror``, ``bec``, ``cavity``.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape[-2:] != (6, 6) or cov.ndim > 3:
        raise ValidationError(f"expected a 6x6 covariance matrix, got {cov.shape}")
    if len(keep) != 2 or len(set(keep)) != 2:
        raise ValidationError(f"keep must name two distinct modes, got {keep!r}")
    for mode in keep:
        if mode not in MODE_INDICES:
            raise ValidationError(
                f"unknown mode {mode!r}; choose from {sorted(MODE_INDICES)}"
            )
    idx = [i for mode in keep for i in MODE_INDICES[mode]]
    return ReducedState(cov=cov[..., idx, :][..., idx], modes=(keep[0], keep[1]))


def _cov_of(state: ReducedState | np.ndarray) -> np.ndarray:
    cov = state.cov if isinstance(state, ReducedState) else np.asarray(state, dtype=float)
    if cov.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 covariance matrix, got {cov.shape}")
    asym = np.linalg.norm(cov - cov.T)
    if asym > SYMMETRY_TOL * max(1.0, np.linalg.norm(cov)):
        raise ValidationError("covariance matrix is not symmetric")
    return 0.5 * (cov + cov.T)


def _det2(blocks: np.ndarray) -> np.ndarray:
    return blocks[..., 0, 0] * blocks[..., 1, 1] - blocks[..., 0, 1] * blocks[..., 1, 0]


@dataclass(frozen=True)
class _Pairs:
    """Symplectic pairs of a stack of 4x4 covariances, one entry per matrix.

    ``errors[i]`` holds the :class:`NumericalError` of a matrix whose
    determinant or discriminant is negative beyond the clamp tolerance; its
    other entries are then meaningless.  ``det_cov`` is the determinant
    before any clamp.
    """

    nu_minus: np.ndarray
    nu_plus: np.ndarray
    sigma: np.ndarray
    det_cov: np.ndarray
    errors: list[NumericalError | None]


def _symplectic_pairs(covs: np.ndarray, sign: float) -> _Pairs:
    """Shared core over an (N, 4, 4) stack: sign=-1 gives the
    partial-transpose invariant Sigma."""
    det_raw = np.linalg.det(covs)
    sigma = _det2(covs[:, :2, :2]) + _det2(covs[:, 2:, 2:]) + 2.0 * sign * _det2(covs[:, :2, 2:])
    bound = -CLAMP_TOL * np.maximum(1.0, sigma * sigma)
    det_cov = np.where(det_raw < 0.0, 0.0, det_raw)
    disc_raw = sigma * sigma - 4.0 * det_cov
    bad_det = det_raw < bound
    bad_disc = ~bad_det & (disc_raw < bound)
    ok = ~(bad_det | bad_disc)
    nu_plus_sq = 0.5 * (sigma + np.sqrt(np.where(disc_raw < 0.0, 0.0, disc_raw)))
    # Degenerate state with Sigma <= 0; both eigenvalues collapse.
    degenerate = nu_plus_sq <= 0.0
    CLAMP_EVENTS.add(
        np.count_nonzero((det_raw < 0.0) & ~bad_det)
        + np.count_nonzero((disc_raw < 0.0) & ok)
        + np.count_nonzero(degenerate & ok)
    )
    nu_plus_sq = np.where(degenerate, 0.0, nu_plus_sq)
    # nu_-^2 nu_+^2 = det V', a cancellation-free route to the small root.
    nu_minus = np.where(degenerate, 0.0,
                        np.sqrt(det_cov / np.where(degenerate, 1.0, nu_plus_sq)))
    errors: list[NumericalError | None] = [None] * len(covs)
    for i in np.flatnonzero(bad_det):
        errors[i] = NumericalError(
            f"negative covariance determinant {det_raw[i]:.3e} beyond tolerance"
        )
    for i in np.flatnonzero(bad_disc):
        errors[i] = NumericalError(
            f"negative symplectic discriminant {disc_raw[i]:.3e} beyond tolerance"
        )
    return _Pairs(nu_minus, np.sqrt(nu_plus_sq), sigma, det_raw, errors)


def _symplectic_pair(cov: np.ndarray, sign: float) -> tuple[float, float]:
    pairs = _symplectic_pairs(cov[None], sign)
    if pairs.errors[0] is not None:
        raise pairs.errors[0]
    return float(pairs.nu_minus[0]), float(pairs.nu_plus[0])


def symplectic_eigenvalues(state: ReducedState | np.ndarray) -> tuple[float, float]:
    """Partially transposed symplectic eigenvalues (nu_minus, nu_plus).

    These are the symplectic eigenvalues of the covariance matrix after
    partial transposition of the second mode; ``nu_minus < 1/2`` signals
    entanglement.
    """
    return _symplectic_pair(_cov_of(state), sign=-1.0)


def physical_symplectic_eigenvalues(
    state: ReducedState | np.ndarray,
) -> tuple[float, float]:
    """Symplectic eigenvalues of the state itself (no partial transpose).

    Physical states satisfy nu_minus >= 1/2; useful as a physicality check.
    """
    return _symplectic_pair(_cov_of(state), sign=1.0)


def logarithmic_negativity(state: ReducedState | np.ndarray) -> float:
    """Logarithmic negativity max(0, -ln 2 nu_minus); 0 for separable states."""
    nu_minus, _ = symplectic_eigenvalues(state)
    if nu_minus == 0.0:
        return math.inf
    return max(0.0, -math.log(2.0 * nu_minus))


def simon_separability(state: ReducedState | np.ndarray) -> bool:
    """Two-mode PPT separability verdict: True iff the state is separable.

    Computed from the same nu_minus as :func:`logarithmic_negativity`, so the
    two are consistent by construction: separable iff nu_minus >= 1/2 iff the
    logarithmic negativity vanishes.
    """
    nu_minus, _ = symplectic_eigenvalues(state)
    return nu_minus >= 0.5


def entanglement_results(covs: np.ndarray) -> list[EntanglementResult | NumericalError]:
    """:func:`entanglement_result` over an (N, 4, 4) stack of symmetric
    reduced covariances.

    A matrix past the clamp tolerance yields its :class:`NumericalError` in
    place of a result, so one bad point does not hide its neighbours.
    """
    pairs = _symplectic_pairs(covs, sign=-1.0)
    results: list[EntanglementResult | NumericalError] = []
    for nu_minus, nu_plus, sigma, det_cov, error in zip(
        pairs.nu_minus.tolist(), pairs.nu_plus.tolist(), pairs.sigma.tolist(),
        pairs.det_cov.tolist(), pairs.errors,
    ):
        if error is not None:
            results.append(error)
            continue
        log_neg = math.inf if nu_minus == 0.0 else max(0.0, -math.log(2.0 * nu_minus))
        results.append(EntanglementResult(
            nu_minus=nu_minus,
            nu_plus=nu_plus,
            log_negativity=log_neg,
            simon_separable=nu_minus >= 0.5,
            sigma=sigma,
            det_cov=det_cov,
        ))
    return results


def entanglement_result(state: ReducedState | np.ndarray) -> EntanglementResult:
    """Bundle all entanglement quantities of a reduced state."""
    result = entanglement_results(_cov_of(state)[None])[0]
    if isinstance(result, NumericalError):
        raise result
    return result
