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
from .errors import (BecMirrorError, NumericalError, ValidationError, finite_square,
                     float_arithmetic, shown)

#: matrices are accepted as symmetric up to this relative asymmetry
SYMMETRY_TOL = 1e-12

#: domain-boundary violations up to this (relative) size are clamped to zero
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class EntanglementResult:
    """Entanglement summary of a reduced two-mode Gaussian state."""

    nu_minus: float
    nu_plus: float
    log_negativity: float
    simon_separable: bool
    sigma: float
    det_cov: float
    #: a boundary violation inside :data:`CLAMP_TOL` was clamped to zero: a
    #: negative determinant or discriminant, or a degenerate Sigma <= 0
    clamped: bool


def reduce_to_modes(
    cov: np.ndarray, keep: tuple[str, str] = ("mirror", "bec")
) -> np.ndarray:
    """Covariance matrix of two modes of a full one, the others traced out.

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
    cov = finite_square("covariance matrix", cov, 6, stack=np.ndim(cov) == 3)
    if not hasattr(keep, "__len__") or len(keep) != 2 or len(set(keep)) != 2:
        raise ValidationError(f"keep must name two distinct modes, got {shown(keep)}")
    for mode in keep:
        if mode not in MODE_INDICES:
            raise ValidationError(
                f"unknown mode {shown(mode)}; choose from {sorted(MODE_INDICES)}"
            )
    idx = [i for mode in keep for i in MODE_INDICES[mode]]
    return cov[..., idx, :][..., idx]


def _cov_of(state: np.ndarray) -> np.ndarray:
    cov = finite_square("covariance matrix", state, 4)
    with float_arithmetic("covariance symmetry check"):
        unit, size = cov, np.linalg.norm(cov)
        if np.isinf(size):  # entries past ~1e154: measure in units of the largest
            unit = cov / np.max(np.abs(cov))
            size = np.linalg.norm(unit)
        asym = np.linalg.norm(unit - unit.T)
        symmetric = 0.5 * (cov + cov.T)  # entries past ~9e307 overflow: refused later
    if asym > SYMMETRY_TOL * max(1.0, size):
        raise ValidationError("covariance matrix is not symmetric")
    return symmetric


def _det2(blocks: np.ndarray) -> np.ndarray:
    return blocks[..., 0, 0] * blocks[..., 1, 1] - blocks[..., 0, 1] * blocks[..., 1, 0]


@dataclass(frozen=True)
class _Pairs:
    """Partially transposed symplectic pairs of a stack of 4x4 covariances,
    one entry per matrix.

    ``errors[i]`` holds the error of a matrix whose determinant or
    discriminant is negative beyond the clamp tolerance
    (:class:`NumericalError`) or overflows (:class:`ValidationError`); its
    other entries are then meaningless.  ``det_cov`` is the determinant
    before any clamp, and ``clamped`` marks the matrices a clamp changed.
    """

    nu_minus: np.ndarray
    nu_plus: np.ndarray
    sigma: np.ndarray
    det_cov: np.ndarray
    clamped: np.ndarray
    errors: list[BecMirrorError | None]


def _symplectic_pairs(covs: np.ndarray) -> _Pairs:
    """Shared core over an (N, 4, 4) stack, with the partial-transpose
    invariant Sigma."""
    # Overflow leaves a non-finite discriminant, which the matrix's error
    # reports; a finite one implies finite invariants and pairs.
    with float_arithmetic("symplectic invariants"):
        det_raw = np.linalg.det(covs)
        sigma = _det2(covs[:, :2, :2]) + _det2(covs[:, 2:, 2:]) - 2.0 * _det2(covs[:, :2, 2:])
        bound = -CLAMP_TOL * np.maximum(1.0, sigma * sigma)
        det_cov = np.where(det_raw < 0.0, 0.0, det_raw)
        disc_raw = sigma * sigma - 4.0 * det_cov
        nu_plus_sq = 0.5 * (sigma + np.sqrt(np.where(disc_raw < 0.0, 0.0, disc_raw)))
        # Degenerate state with Sigma <= 0; both eigenvalues collapse.
        degenerate = nu_plus_sq <= 0.0
        nu_plus_sq = np.where(degenerate, 0.0, nu_plus_sq)
        # nu_-^2 nu_+^2 = det V', a cancellation-free route to the small root.
        nu_minus = np.where(degenerate, 0.0,
                            np.sqrt(det_cov / np.where(degenerate, 1.0, nu_plus_sq)))
    overflow = ~np.isfinite(disc_raw)
    bad_det = ~overflow & (det_raw < bound)
    bad_disc = ~overflow & ~bad_det & (disc_raw < bound)
    clamped = (det_raw < 0.0) | (disc_raw < 0.0) | degenerate
    errors: list[BecMirrorError | None] = [None] * len(covs)
    for i in np.flatnonzero(overflow):
        errors[i] = ValidationError(
            "covariance matrix out of float range: its symplectic invariants overflow"
        )
    for i in np.flatnonzero(bad_det):
        errors[i] = NumericalError(
            f"negative covariance determinant {det_raw[i]:.3e} beyond tolerance"
        )
    for i in np.flatnonzero(bad_disc):
        errors[i] = NumericalError(
            f"negative symplectic discriminant {disc_raw[i]:.3e} beyond tolerance"
        )
    return _Pairs(nu_minus, np.sqrt(nu_plus_sq), sigma, det_raw, clamped, errors)


def symplectic_eigenvalues(state: np.ndarray) -> tuple[float, float]:
    """Partially transposed symplectic eigenvalues (nu_minus, nu_plus).

    These are the symplectic eigenvalues of the covariance matrix after
    partial transposition of the second mode; ``nu_minus < 1/2`` signals
    entanglement.
    """
    result = entanglement_result(state)
    return result.nu_minus, result.nu_plus


def logarithmic_negativity(state: np.ndarray) -> float:
    """Logarithmic negativity max(0, -ln 2 nu_minus); 0 for separable states."""
    return entanglement_result(state).log_negativity


def entanglement_results(covs: np.ndarray) -> list[EntanglementResult | BecMirrorError]:
    """:func:`entanglement_result` over an (N, 4, 4) stack of symmetric
    reduced covariances.

    A matrix past the clamp tolerance yields its :class:`NumericalError`, and
    one whose symplectic invariants overflow its :class:`ValidationError`, in
    place of a result, so one bad point does not hide its neighbours.
    """
    pairs = _symplectic_pairs(covs)
    results: list[EntanglementResult | BecMirrorError] = []
    for nu_minus, nu_plus, sigma, det_cov, clamped, error in zip(
        pairs.nu_minus.tolist(), pairs.nu_plus.tolist(), pairs.sigma.tolist(),
        pairs.det_cov.tolist(), pairs.clamped.tolist(), pairs.errors,
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
            clamped=clamped,
        ))
    return results


def entanglement_result(state: np.ndarray) -> EntanglementResult:
    """Bundle all entanglement quantities of a reduced state.

    Raises
    ------
    ValidationError
        If the matrix is not 4x4 and symmetric, or its symplectic invariants
        overflow.
    NumericalError
        If its determinant or discriminant is negative beyond the clamp
        tolerance.
    """
    result = entanglement_results(_cov_of(state)[None])[0]
    if isinstance(result, BecMirrorError):
        raise result
    return result
