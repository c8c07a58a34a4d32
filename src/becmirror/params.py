"""Parameter derivation for the driven cavity with a vibrating end mirror and
an intracavity atomic condensate.

All frequencies, rates and couplings are angular (rad/s) unless noted.  The
raw experimental knobs live in :class:`PhysicalInput`; :func:`derive_parameters`
turns them into the reduced set entering the linearized dynamics, and
:func:`steady_state_field` evaluates the classical mean fields at the
effective detuning.  :func:`self_consistent_detuning` is the library route
from a bare detuning to the effective ones: it solves the cavity backaction
relation.

The derivation arithmetic broadcasts: run on numbers it returns Python
floats, run on arrays of inputs it returns arrays, and
:meth:`ModelBatch.from_derived` assembles a whole sweep grid from it.
"""

from __future__ import annotations

import logging
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .constants import BOLTZMANN_K, HBAR, SPEED_OF_LIGHT
from .errors import (NumericalError, ValidationError, finite_real, float_arithmetic, shown,
                     within)

logger = logging.getLogger(__name__)

# OR-pairs: exactly one side of each must be supplied.
_CHOICE_GROUPS = (
    (("finesse",), ("cavity_decay",)),
    (("bec_coupling",), ("lattice_depth", "atom_number")),
    (("recoil_frequency",), ("bec_frequency",)),
)

#: the bound of each PhysicalInput field; the remaining field,
#: ``effective_detuning``, may take any finite value
_PHYSICAL_BOUNDS = {
    **dict.fromkeys(("cavity_length", "laser_wavelength", "laser_power", "mirror_mass",
                     "mirror_frequency", "finesse", "cavity_decay", "atom_number",
                     "recoil_frequency", "bec_frequency"), "> 0"),
    **dict.fromkeys(("mirror_damping", "temperature", "bec_coupling", "lattice_depth"), ">= 0"),
}


@dataclass(frozen=True)
class PhysicalInput:
    """Raw experimental parameters.

    Every supplied field must be a finite real number, and every field but
    ``effective_detuning`` is bounded below by 0 (see ``_PHYSICAL_BOUNDS``).
    Of each alternative pair below exactly one side must be supplied; the
    other stays None.

    Attributes:
        cavity_length: Cavity length L (m).
        laser_wavelength: Drive laser wavelength (m).
        laser_power: Drive laser power (W).
        mirror_mass: Effective mass of the mechanical mode (kg).
        mirror_frequency: Mechanical resonance frequency (rad/s).
        mirror_damping: Mechanical amplitude decay rate gamma (rad/s).
        temperature: Mirror bath temperature (K), >= 0.
        effective_detuning: Effective cavity detuning (rad/s), including the
            backaction shifts; :func:`self_consistent_detuning` gives it from
            a bare detuning.
        finesse: Cavity finesse; alternative to ``cavity_decay``.
        cavity_decay: Cavity amplitude decay rate kappa (rad/s); alternative
            to ``finesse``.
        bec_coupling: Condensate-field coupling g_ac (rad/s); alternative to
            the (``lattice_depth``, ``atom_number``) pair.
        lattice_depth: Optical-lattice depth per photon U_o (rad/s).
        atom_number: Number of condensate atoms N.
        recoil_frequency: Atomic recoil frequency (rad/s); the condensate mode
            frequency is four times this value.  Alternative to
            ``bec_frequency``.
        bec_frequency: Condensate mode frequency (rad/s), given directly.
    """

    cavity_length: float
    laser_wavelength: float
    laser_power: float
    mirror_mass: float
    mirror_frequency: float
    mirror_damping: float
    temperature: float
    effective_detuning: float
    finesse: float | None = None
    cavity_decay: float | None = None
    bec_coupling: float | None = None
    lattice_depth: float | None = None
    atom_number: float | None = None
    recoil_frequency: float | None = None
    bec_frequency: float | None = None

    def __post_init__(self) -> None:
        for name, required in _PHYSICAL_FIELDS:
            value = getattr(self, name)
            if value is not None or required:
                finite_real(name, value, _PHYSICAL_BOUNDS.get(name))
        for left, right in _CHOICE_GROUPS:
            given = [[getattr(self, n) is not None for n in side] for side in (left, right)]
            if not any(all(a) and not any(b) for a, b in (given, given[::-1])):
                raise ValidationError(
                    f"exactly one of {'/'.join(left)} or {'/'.join(right)} must be supplied")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def admits(self, name: str, values: np.ndarray) -> np.ndarray:
        """Mask of the ``values`` that field ``name`` may take in place of its
        value here, by the rules of the constructor.

        A field that this input leaves unset takes no value: setting it would
        supply both sides of its alternative pair.
        """
        if getattr(self, name) is None:
            return np.zeros(np.shape(values), dtype=bool)
        mask = np.isfinite(values)
        if name in _PHYSICAL_BOUNDS:
            mask &= within(values, _PHYSICAL_BOUNDS[name])
        return mask


#: (field name, whether it is required) of every PhysicalInput field
_PHYSICAL_FIELDS = tuple((f.name, f.default is MISSING) for f in fields(PhysicalInput))


@dataclass(frozen=True)
class DerivedParams:
    """Quantities derived from :class:`PhysicalInput`.

    Derived from a sweep grid (see :func:`derive_parameters`), the fields
    that vary over it hold arrays.

    Attributes:
        om_p: Laser angular frequency (rad/s).
        kappa: Cavity amplitude decay rate (rad/s).
        drive: Cavity drive amplitude E (rad/s).
        x_zpf: Mirror zero-point motion (m).
        g_mc: Bare mirror-field coupling (rad/s).
        g_ac: Bare condensate-field coupling (rad/s).
        om_m: Mirror frequency (rad/s).
        om_a: Condensate mode frequency (rad/s).
        gamma: Mirror damping rate (rad/s).
        n_th: Mean thermal phonon occupation of the mirror bath.
        detuning: Effective detuning of the input.
    """

    om_p: float
    kappa: float
    drive: float
    x_zpf: float
    g_mc: float
    g_ac: float
    om_m: float
    om_a: float
    gamma: float
    n_th: float
    detuning: float


@dataclass(frozen=True)
class CavitySteadyState:
    """Classical mean fields of the driven system.

    ``field_amplitude`` is the complex intracavity amplitude; the effective
    couplings use its modulus (the drive phase is absorbed by convention, so
    ``G_mc`` and ``G_ac`` are non-negative).
    """

    photon_number: float
    field_amplitude: complex
    bec_amplitude: complex
    mirror_amplitude: complex
    G_mc: float
    G_ac: float


#: the bound of each ModelParams field; the remaining field, ``detuning``,
#: may take any finite value
_MODEL_BOUNDS = {**dict.fromkeys(("om_m", "om_a", "kappa"), "> 0"),
                 **dict.fromkeys(("gamma", "G_mc", "G_ac", "n_th", "n_c"), ">= 0")}


@dataclass(frozen=True)
class ModelParams:
    """Reduced parameter set of the linearized three-mode dynamics."""

    om_m: float
    om_a: float
    gamma: float
    kappa: float
    detuning: float
    G_mc: float
    G_ac: float
    n_th: float
    n_c: float = 0.0

    def __post_init__(self) -> None:
        for name in _MODEL_FIELDS:
            finite_real(name, getattr(self, name), _MODEL_BOUNDS.get(name))

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))


_MODEL_FIELDS = ModelParams.field_names()


@dataclass(frozen=True)
class ModelBatch:
    """Field-wise arrays of N :class:`ModelParams`, the sweep's unit of work.

    Each attribute is a float array of shape (N,) holding that field of every
    model in order.  The layer functions that take a :class:`ModelParams`
    (:func:`~becmirror.dynamics.build_drift`, ...) broadcast over these
    arrays, so a batch and a single model run the same arithmetic.  A batch
    is not validated on construction; :meth:`valid` applies the rules of
    :class:`ModelParams` point by point.
    """

    om_m: np.ndarray
    om_a: np.ndarray
    gamma: np.ndarray
    kappa: np.ndarray
    detuning: np.ndarray
    G_mc: np.ndarray
    G_ac: np.ndarray
    n_th: np.ndarray
    n_c: np.ndarray

    @classmethod
    def from_derived(
        cls, derived: DerivedParams, size: int, detuning: float | np.ndarray | None = None
    ) -> ModelBatch:
        """The models :func:`model_params` assembles, for ``size`` points.

        Fields of ``derived`` and ``detuning`` may be numbers or (size,)
        arrays.  Nothing is validated per point; see :meth:`valid`.

        Raises
        ------
        ValidationError
            If ``derived.kappa`` is a number that is not positive.
        """
        values = _model_fields(derived, detuning)
        return cls(**{
            name: np.broadcast_to(np.asarray(values[name], dtype=float), (size,))
            for name in _MODEL_FIELDS
        })

    def __getitem__(self, index) -> ModelBatch:
        """The batch of the models at ``index``, a slice or an index array."""
        return ModelBatch(**{name: getattr(self, name)[index] for name in _MODEL_FIELDS})

    def valid(self) -> np.ndarray:
        """Mask of the models that pass the rules of :class:`ModelParams`:
        every field finite and each bounded field within its bound."""
        mask = np.logical_and.reduce([np.isfinite(getattr(self, name)) for name in _MODEL_FIELDS])
        for name, bound in _MODEL_BOUNDS.items():
            mask &= within(getattr(self, name), bound)
        return mask


def _number_or_array(value):
    """A scalar result as a Python float (tables print its ``repr``); an
    array as it is."""
    if np.ndim(value) > 0:
        return value
    return float(value)


def thermal_occupation(
    omega: float | np.ndarray, temperature: float | np.ndarray
) -> float | np.ndarray:
    """Bose-Einstein occupation of a mode at ``omega`` (rad/s) and T (K).

    Returns 0 at T = 0 (continuity limit) and underflows to 0 once
    hbar omega / (k_B T) exceeds ~745; rejects negative temperatures.
    Broadcasts over arrays, where an occupation out of float range is inf
    (:meth:`ModelBatch.valid` masks it); numbers give a Python float, and
    are refused if the occupation is out of float range.
    """
    if np.ndim(omega) == np.ndim(temperature) == 0:
        finite_real("omega", omega, "> 0")
        finite_real("temperature", temperature, ">= 0")
    elif np.any(temperature < 0) or np.any(omega <= 0):
        raise ValidationError("temperature must be >= 0 and omega > 0")
    with float_arithmetic("thermal occupation"):
        # x = inf at T = 0, where the expression below gives exactly 0.
        x = HBAR * np.asarray(omega, dtype=float) / (
            BOLTZMANN_K * np.asarray(temperature, dtype=float))
        # 1 / (e^x - 1) written so that e^x cannot overflow at ultracold T.
        occupation = np.exp(-x) / -np.expm1(-x)
    if occupation.ndim == 0 and not np.isfinite(occupation):
        raise ValidationError(f"thermal occupation out of float range at omega={shown(omega)}, "
                              f"T={shown(temperature)}")
    return _number_or_array(occupation)


def derive_parameters(inp: PhysicalInput) -> DerivedParams:
    """Reduce raw experimental inputs to the model parameter set.

    Deterministic and pure: identical inputs give bit-identical outputs.
    ``inp`` may also be any object with the attributes of a
    :class:`PhysicalInput` some of which hold arrays of valid values (a
    sweep grid); the fields of the result are then arrays where they depend
    on those.  Run on numbers, a field out of float range is refused; where
    an input is an array, such a field is inf or NaN, without a warning, for
    :meth:`ModelBatch.valid` to mask.

    Raises
    ------
    ValidationError
        If every input is a number and a derived field is out of float
        range, or if a divisor underflows to 0.
    """
    with float_arithmetic("derived parameters"):
        om_p = 2.0 * math.pi * SPEED_OF_LIGHT / inp.laser_wavelength
        if inp.cavity_decay is not None:
            kappa = inp.cavity_decay
        else:
            # Fabry-Perot amplitude decay (half width): kappa = pi c / (2 F L).
            kappa = math.pi * SPEED_OF_LIGHT / (2.0 * inp.finesse * inp.cavity_length)
        x_zpf = np.sqrt(HBAR / (2.0 * inp.mirror_mass * inp.mirror_frequency))
        drive = np.sqrt(2.0 * inp.laser_power * kappa / (HBAR * om_p))
        g_mc = math.sqrt(2.0) * (om_p / inp.cavity_length) * x_zpf
        if inp.bec_coupling is not None:
            g_ac = inp.bec_coupling
        else:
            g_ac = inp.lattice_depth * np.sqrt(inp.atom_number) / 2.0
        om_a = inp.bec_frequency if inp.bec_frequency is not None else 4.0 * inp.recoil_frequency
    n_th = thermal_occupation(inp.mirror_frequency, inp.temperature)
    values = dict(
        om_p=om_p,
        kappa=kappa,
        drive=drive,
        x_zpf=x_zpf,
        g_mc=g_mc,
        g_ac=g_ac,
        om_m=inp.mirror_frequency,
        om_a=om_a,
        gamma=inp.mirror_damping,
        n_th=n_th,
        detuning=inp.effective_detuning,
    )
    values = {name: _number_or_array(value) for name, value in values.items()}
    if all(np.ndim(value) == 0 for value in values.values()):
        outside = [name for name, value in values.items() if not math.isfinite(value)]
        if outside:
            raise ValidationError(f"derived parameters out of float range: {', '.join(outside)}")
    return DerivedParams(**values)


def steady_state_field(derived: DerivedParams, detuning: float) -> CavitySteadyState:
    """Classical mean fields for a given effective detuning.

    The intracavity amplitude is E / (kappa + i detuning); the mirror and
    condensate means follow from their closed forms, and the effective
    couplings are sqrt(2) g |field|.  Broadcasts over array fields and
    detunings; where an array ``kappa`` is not positive the fields are
    meaningless, and :meth:`ModelBatch.valid` masks those points.

    A field out of float range is inf or NaN, without a warning.

    Raises
    ------
    ValidationError
        If ``kappa`` is a number that is not positive, ``detuning`` is a
        number but not a finite real one, or a divisor underflows to 0.
    """
    if np.ndim(derived.kappa) == 0 and derived.kappa <= 0:
        raise ValidationError(f"kappa must be > 0, got {shown(derived.kappa)}")
    if np.ndim(detuning) == 0:
        finite_real("detuning", detuning)
    with float_arithmetic("mean fields"):
        denom = derived.kappa + 1j * detuning
        field = derived.drive / denom
        n = derived.drive * derived.drive / (derived.kappa * derived.kappa + detuning * detuning)
        bec_amp = -(derived.g_ac / (math.sqrt(2.0) * derived.om_a)) * n
        mirror_amp = (1j * derived.g_mc
                      / (math.sqrt(2.0) * (derived.gamma + 1j * derived.om_m))) * n
        root_n = np.sqrt(n)
        G_mc = math.sqrt(2.0) * derived.g_mc * root_n
        G_ac = math.sqrt(2.0) * derived.g_ac * root_n
    return CavitySteadyState(
        photon_number=_number_or_array(n),
        field_amplitude=field,
        bec_amplitude=bec_amp,
        mirror_amplitude=mirror_amp,
        G_mc=_number_or_array(G_mc),
        G_ac=_number_or_array(G_ac),
    )


def model_params(derived: DerivedParams, detuning: float | None = None) -> ModelParams:
    """Assemble :class:`ModelParams` from derived quantities at a detuning.

    ``detuning`` defaults to the effective detuning carried on ``derived``.
    """
    return ModelParams(**_model_fields(derived, detuning))


def _model_fields(derived: DerivedParams, detuning: float | np.ndarray | None = None) -> dict:
    """Field values of the model at ``detuning``, numbers or arrays."""
    if detuning is None:
        detuning = derived.detuning
    ss = steady_state_field(derived, detuning)
    return dict(
        om_m=derived.om_m,
        om_a=derived.om_a,
        gamma=derived.gamma,
        kappa=derived.kappa,
        detuning=_number_or_array(detuning),
        G_mc=ss.G_mc,
        G_ac=ss.G_ac,
        n_th=derived.n_th,
        n_c=0.0,
    )


def _backaction_coefficient(derived: DerivedParams) -> float:
    # Detuning shift per intracavity photon from the two static displacements.
    return (
        derived.om_m * derived.g_mc**2 / (derived.gamma**2 + derived.om_m**2)
        + derived.g_ac**2 / derived.om_a
    )


_ROOT_RESIDUAL_TOL = 1e-10


def self_consistent_detuning(
    derived: DerivedParams, bare_detuning: float
) -> list[tuple[float, float]]:
    """Solve the backaction relation between detuning and photon number.

    The effective detuning is the bare detuning shifted by the static mirror
    and condensate displacements, both proportional to the photon number,
    which itself depends on the effective detuning.  Eliminating the detuning
    gives a real cubic in the photon number; all real non-negative roots are
    returned as ``(detuning, photon_number)`` pairs sorted by photon number.
    Up to three roots exist (optical bistability).  Negative-photon-number
    roots are discarded and logged.  A ``bare_detuning`` that is not a finite
    real number, a ``kappa`` that is not positive, or a cubic out of float
    range raise :class:`ValidationError`; a polished root that fails its
    residual gate raises :class:`NumericalError`.
    """
    finite_real("bare_detuning", bare_detuning)
    kappa = finite_real("kappa", derived.kappa, "> 0")
    with float_arithmetic("backaction cubic"):
        beta = _backaction_coefficient(derived)
        if derived.drive == 0.0 or beta == 0.0:
            n = derived.drive**2 / (kappa**2 + bare_detuning**2)
            return [(bare_detuning - beta * n, n)]

        # Dimensionless form: u = n / (E/kappa)^2, x_o = bare_detuning / kappa,
        # b = beta (E/kappa)^2 / kappa.  Roots of
        #   b^2 u^3 - 2 x_o b u^2 + (1 + x_o^2) u - 1 = 0.
        n_ref = (derived.drive / kappa) ** 2
        x_o = bare_detuning / kappa
        b = beta * n_ref / kappa
        coeffs = np.array([b * b, -2.0 * x_o * b, 1.0 + x_o * x_o, -1.0])
        try:  # inf or NaN in the coefficients, or in their companion matrix
            roots = np.roots(coeffs)
        except np.linalg.LinAlgError:
            raise ValidationError(f"backaction cubic out of float range: {coeffs}") from None

        def f(u: float) -> float:
            return ((b * b * u - 2.0 * x_o * b) * u + 1.0 + x_o * x_o) * u - 1.0

        def fprime(u: float) -> float:
            return (3.0 * b * b * u - 4.0 * x_o * b) * u + 1.0 + x_o * x_o

        polished: list[float] = []
        for r in roots:
            if abs(r.imag) > 1e-6 * (1.0 + abs(r.real)):
                continue
            u = float(r.real)
            for _ in range(50):
                fu = f(u)
                dfu = fprime(u)
                if dfu == 0.0:
                    break
                step = fu / dfu
                u -= step
                if abs(step) <= 1e-16 * (1.0 + abs(u)):
                    break
            polished.append(u)

    results: list[tuple[float, float]] = []
    seen: list[float] = []
    for u in sorted(polished):
        if u < 0.0:
            logger.info("discarding non-physical root with photon number %g", u * n_ref)
            continue
        if any(abs(u - s) <= 1e-9 * (1.0 + abs(s)) for s in seen):
            continue
        seen.append(u)
        n = u * n_ref
        detuning = bare_detuning - beta * n
        # Residual of n (kappa^2 + detuning^2) = E^2, relative to the term sizes.
        x = x_o - b * u
        scale = 1.0 + u * (1.0 + x * x)
        rel = abs(f(u)) / scale
        if not rel <= _ROOT_RESIDUAL_TOL:
            raise NumericalError(
                f"self-consistent root failed its residual gate: {rel:.3e} > {_ROOT_RESIDUAL_TOL:.0e}"
            )
        results.append((detuning, n))
    results.sort(key=lambda pair: pair[1])
    return results
