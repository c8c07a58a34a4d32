"""Steady-state entanglement of a nanomechanical mirror and an intracavity
Bose-Einstein condensate coupled through a driven optical cavity.

The pipeline runs PhysicalInput -> derive_parameters -> model_params ->
build_drift/build_diffusion -> solve_steady_covariance -> reduce_to_modes ->
logarithmic_negativity, with a stochastic-trajectory engine as an independent
verification path and a sweep driver on top.
"""

from .constants import CONSTANTS_VERSION, PACKAGE_VERSION
from .dynamics import (
    MODE_INDICES,
    QUADRATURES,
    StabilityReport,
    build_diffusion,
    build_drift,
    check_stability_criterion,
    check_stability_eigen,
    symplectic_form,
)
from .effective import EffectiveModel, effective_parameters
from .entanglement import (
    EntanglementResult,
    entanglement_result,
    logarithmic_negativity,
    reduce_to_modes,
    symplectic_eigenvalues,
)
from .errors import (
    BecMirrorError,
    NumericalError,
    StabilityError,
    ValidationError,
)
from .lyapunov import residual, solve_steady_covariance
from .params import (
    CavitySteadyState,
    DerivedParams,
    ModelBatch,
    ModelParams,
    PhysicalInput,
    derive_parameters,
    model_params,
    self_consistent_detuning,
    steady_state_field,
    thermal_occupation,
)
from .stochastic import (
    HomodyneRecord,
    ProbeCavity,
    TrajectoryRecord,
    ensemble_covariance,
    homodyne_output,
    homodyne_weights,
    reconstruct_correlations,
    simulate_trajectories,
)
from .sweep import AxisSpec, SweepResult, SweepSpec, emit, run_sweep

__version__ = PACKAGE_VERSION

__all__ = [
    "AxisSpec",
    "BecMirrorError",
    "CONSTANTS_VERSION",
    "CavitySteadyState",
    "DerivedParams",
    "EffectiveModel",
    "EntanglementResult",
    "HomodyneRecord",
    "MODE_INDICES",
    "ModelBatch",
    "ModelParams",
    "NumericalError",
    "PhysicalInput",
    "ProbeCavity",
    "QUADRATURES",
    "StabilityError",
    "StabilityReport",
    "SweepResult",
    "SweepSpec",
    "TrajectoryRecord",
    "ValidationError",
    "build_diffusion",
    "build_drift",
    "check_stability_criterion",
    "check_stability_eigen",
    "derive_parameters",
    "effective_parameters",
    "emit",
    "ensemble_covariance",
    "entanglement_result",
    "homodyne_output",
    "homodyne_weights",
    "logarithmic_negativity",
    "model_params",
    "reconstruct_correlations",
    "reduce_to_modes",
    "residual",
    "run_sweep",
    "self_consistent_detuning",
    "simulate_trajectories",
    "solve_steady_covariance",
    "steady_state_field",
    "symplectic_eigenvalues",
    "symplectic_form",
    "thermal_occupation",
]
