"""Series solution and identity certification for the wave equation on a
uniformly translating interval (axially moving string between two pinned
supports)."""

__version__ = "0.1.0"

from .certify import Check, certify
from .coefficients import (
    ParsevalSums,
    SpectralSolution,
    parseval_sum,
    solve,
)
from .domain import (
    DerivedConstants,
    InitialData,
    InitialDataSpec,
    StringConfig,
    build_initial_data,
    derive_constants,
    initial_data,
    load_config,
)
from .energy import (
    EnergyReport,
    energy_report,
    initial_energies,
    spectral_energy,
)
from .errors import ConfigurationError, NumericError
from .extension import ExtensionField
from .observability import (
    ObservabilityReport,
    SharpnessReport,
    observe_both_endpoints,
    observe_horizon,
    observe_one_endpoint,
    sharpness_probe,
    velocity_trace_equivalent,
)
from .oracle import (
    CharacteristicSolver,
    CrossValidation,
    FrozenFrameFD,
    cross_validate,
    fd_solve,
)
from .quadrature import Panelization, integrate
from .series import (
    check_periodicity,
    field_components,
    field_on_moving_grid,
)

__all__ = [
    "__version__",
    "CharacteristicSolver",
    "Check",
    "ConfigurationError",
    "CrossValidation",
    "DerivedConstants",
    "EnergyReport",
    "ExtensionField",
    "FrozenFrameFD",
    "InitialData",
    "InitialDataSpec",
    "NumericError",
    "ObservabilityReport",
    "Panelization",
    "ParsevalSums",
    "SharpnessReport",
    "SpectralSolution",
    "StringConfig",
    "build_initial_data",
    "certify",
    "check_periodicity",
    "cross_validate",
    "derive_constants",
    "energy_report",
    "fd_solve",
    "field_components",
    "field_on_moving_grid",
    "initial_data",
    "initial_energies",
    "integrate",
    "load_config",
    "observe_both_endpoints",
    "observe_horizon",
    "observe_one_endpoint",
    "parseval_sum",
    "sharpness_probe",
    "solve",
    "spectral_energy",
    "velocity_trace_equivalent",
]
