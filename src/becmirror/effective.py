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

from .errors import ValidationError, finite_real, float_arithmetic

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
    resonant: bool


def effective_parameters(
    G_mc: float,
    G_ac: float,
    detuning: float,
    kappa: float,
    *,
    om_m: float,
    om_a: float,
) -> EffectiveModel:
    """Evaluate the adiabatic-elimination closed forms.

    freq_shift_mirror = 4 G_mc^2 detuning / (kappa^2 + detuning^2)
    freq_shift_bec    = 4 G_ac^2 detuning / (kappa^2 + detuning^2)
    coupling_ma       = -8 G_mc G_ac detuning / (kappa^2 + detuning^2)

    Only positive detunings are admitted; the elimination is derived in the
    red-detuned regime.  The ``adiabatic`` flag records whether the detuning
    dominates both couplings by :data:`ADIABATIC_MARGIN`; the ``resonant``
    flag compares ``om_m`` and ``om_a`` (the closed forms assume the two
    modes degenerate, but off-resonant inputs are evaluated anyway and merely
    flagged).

    Raises
    ------
    ValidationError
        If an input is not a finite real number within its range, or a
        closed form overflows (or its denominator underflows to zero) in
        float arithmetic.
    """
    for name, value, bound in (("red detuning", detuning, "> 0"), ("kappa", kappa, "> 0"),
                               ("G_mc", G_mc, ">= 0"), ("G_ac", G_ac, ">= 0"),
                               ("om_m", om_m, None), ("om_a", om_a, None)):
        finite_real(name, value, bound)
    with float_arithmetic("effective closed forms"):
        lorentz = detuning / (kappa**2 + detuning**2)
        shift_mirror = 4.0 * G_mc**2 * lorentz
        shift_bec = 4.0 * G_ac**2 * lorentz
        coupling = -8.0 * G_mc * G_ac * lorentz
    # Python float products overflow to inf silently; powers raise.
    if not all(map(math.isfinite, (shift_mirror, shift_bec, coupling))):
        raise ValidationError("effective closed forms out of float range")
    return EffectiveModel(
        freq_shift_mirror=shift_mirror,
        freq_shift_bec=shift_bec,
        coupling_ma=coupling,
        beam_splitter_coeff=coupling / 2.0,
        down_conversion_coeff=coupling / 2.0,
        adiabatic=detuning > ADIABATIC_MARGIN * max(G_mc, G_ac),
        resonant=bool(abs(om_m - om_a) <= 1e-9 * max(abs(om_m), abs(om_a))),
    )

