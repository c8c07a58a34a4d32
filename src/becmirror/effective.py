"""Adiabatic elimination of the cavity: effective mirror-condensate model.

For large red detuning the cavity quadratures follow the slow mechanical and
condensate motion, leaving frequency shifts on both modes and a direct
position-position coupling between them.  This module only evaluates those
closed forms; entanglement numbers always come from the full three-mode
pipeline (no effective dissipation is available for a reduced model).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

#: detuning must exceed this multiple of the couplings for the flag to pass
ADIABATIC_MARGIN = 10.0


@dataclass(frozen=True)
class EffectiveModel:
    """Closed-form parameters of the cavity-eliminated two-mode model.

    ``coupling_ma`` is signed and comes out negative for positive detuning.
    The position-position interaction splits into an energy-exchange part and
    a pair-creation (down-conversion) part of equal weight ``coupling_ma/2``;
    both coefficients are exposed.
    """

    freq_shift_mirror: float
    freq_shift_bec: float
    coupling_ma: float
    beam_splitter_coeff: float
    down_conversion_coeff: float
    adiabatic: bool
    resonant: bool | None


def effective_parameters(
    G_mc: float,
    G_ac: float,
    detuning: float,
    kappa: float,
    *,
    om_m: float | None = None,
    om_a: float | None = None,
) -> EffectiveModel:
    """Evaluate the adiabatic-elimination closed forms.

    freq_shift_mirror = 4 G_mc^2 detuning / (kappa^2 + detuning^2)
    freq_shift_bec    = 4 G_ac^2 detuning / (kappa^2 + detuning^2)
    coupling_ma       = -8 G_mc G_ac detuning / (kappa^2 + detuning^2)

    Only positive detunings are admitted; the elimination is derived in the
    red-detuned regime.  The ``adiabatic`` flag records whether the detuning
    dominates both couplings by :data:`ADIABATIC_MARGIN`; the ``resonant``
    flag compares ``om_m`` and ``om_a`` when both are given (the closed forms
    assume the two modes degenerate, but off-resonant inputs are evaluated
    anyway and merely flagged).

    Raises
    ------
    ValidationError
        If an input is out of range, or a closed form overflows (or its
        denominator underflows to zero) in float arithmetic.
    """
    if detuning <= 0:
        raise ValidationError(
            f"effective model requires red detuning (> 0), got {detuning!r}"
        )
    if kappa <= 0:
        raise ValidationError(f"kappa must be > 0, got {kappa!r}")
    if G_mc < 0 or G_ac < 0:
        raise ValidationError("effective couplings must be >= 0")
    try:
        lorentz = detuning / (kappa**2 + detuning**2)
        shift_mirror = 4.0 * G_mc**2 * lorentz
        shift_bec = 4.0 * G_ac**2 * lorentz
        coupling = -8.0 * G_mc * G_ac * lorentz
        # Python float products overflow to inf silently; powers raise.
        if not all(map(math.isfinite, (shift_mirror, shift_bec, coupling))):
            raise OverflowError("result out of range")
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValidationError(
            f"effective closed forms out of float range at G_mc={G_mc!r}, "
            f"G_ac={G_ac!r}, detuning={detuning!r}, kappa={kappa!r}"
        ) from exc
    resonant: bool | None = None
    if om_m is not None and om_a is not None:
        resonant = bool(abs(om_m - om_a) <= 1e-9 * max(abs(om_m), abs(om_a)))
    return EffectiveModel(
        freq_shift_mirror=shift_mirror,
        freq_shift_bec=shift_bec,
        coupling_ma=coupling,
        beam_splitter_coeff=coupling / 2.0,
        down_conversion_coeff=coupling / 2.0,
        adiabatic=detuning > ADIABATIC_MARGIN * max(G_mc, G_ac),
        resonant=resonant,
    )


def entangling_regime(coupling_ma: float, om_m: float) -> bool:
    """Whether the effective coupling reaches the mechanical frequency.

    The comparison uses magnitudes (the coupling is negative for positive
    detuning) and the boundary is inclusive.
    """
    if om_m <= 0:
        raise ValidationError(f"om_m must be > 0, got {om_m!r}")
    return abs(coupling_ma) >= om_m
