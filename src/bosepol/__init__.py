"""Many-body polarization of Gaussian bosonic lattice states.

Core API re-exports; see the subcommand runner in :mod:`bosepol.cli` for the
experiment entry points.
"""

from .states import (
    BlochState,
    GaussianState,
    LatticeSpec,
    ValidationReport,
    bose_occupations,
    coherent_state,
    make_lattice,
    random_gaussian_state,
    squeezed_vacuum_state,
    thermal_state,
    two_mode_squeezed_state,
    validate,
)
from .polarization import (
    PolarizationBreakdown,
    ShiftSpec,
    polarization,
    shift_phases,
)
from .circulant import (
    cell_bloch_blocks,
    decay_bound,
    lambda_max,
    random_circulant_state,
    reduced_determinant,
)
from .rice_mele import (
    PumpProtocol,
    PumpTrajectory,
    RiceMeleParams,
    adiabatic_flux,
    evolve_pump,
    integrated_flux,
    rmm_thermal_state,
    zak_winding,
)
from .winding import (
    ParameterLoop,
    PolarizationTrack,
    WindingResult,
    chern_via_polarization,
    track_polarization,
    winding_number,
    winding_of_values,
)

__all__ = [
    "BlochState",
    "GaussianState",
    "LatticeSpec",
    "ParameterLoop",
    "PolarizationBreakdown",
    "PolarizationTrack",
    "PumpProtocol",
    "PumpTrajectory",
    "RiceMeleParams",
    "ShiftSpec",
    "ValidationReport",
    "WindingResult",
    "adiabatic_flux",
    "bose_occupations",
    "cell_bloch_blocks",
    "chern_via_polarization",
    "coherent_state",
    "decay_bound",
    "evolve_pump",
    "integrated_flux",
    "lambda_max",
    "make_lattice",
    "polarization",
    "random_circulant_state",
    "random_gaussian_state",
    "reduced_determinant",
    "rmm_thermal_state",
    "shift_phases",
    "squeezed_vacuum_state",
    "thermal_state",
    "track_polarization",
    "two_mode_squeezed_state",
    "validate",
    "winding_number",
    "winding_of_values",
    "zak_winding",
]
