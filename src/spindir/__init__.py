"""Transmission of spatial directions and frames through small spin systems:
spin representations, covariant measurements, optimal codes, frame fitting,
and a seeded Monte Carlo harness with a CLI front end."""

from .frames import (
    EulerAngles,
    Frame,
    NaiveEstimate,
    axes_to_euler,
    best_fit_frame,
    euler_to_axes,
    frame_infidelity,
    naive_euler_estimate,
)
from .geometry import Direction, SphereQuadrature, sphere_quadrature
from .groups import (
    FiniteGroup,
    d3_directions,
    d3_qubit_blocks,
    dihedral_d3,
)
from .harness import (
    RunConfig,
    RunResult,
    reference_score,
    run_experiment,
    sample_chi,
    sample_haar_direction,
    sample_haar_frame,
    sample_haar_rotation,
)
from .multispin import (
    attainable_spins,
    j_squared,
    total_j_projector,
    total_spin_ops,
)
from .optimize import (
    ChiDensity,
    CovariantOptimum,
    DirectionCode,
    chi_density,
    coherent_code,
    d3_coherent_error,
    direction_cos_matrix,
    finite_group_optimum,
    optimal_direction_encoding,
)
from .povm import (
    Povm,
    covariant_direction_povm,
    validate_povm,
)
from .protocols import (
    ProtocolScore,
    ProtocolSpec,
    d3_coherent_score,
    d3_covariant_povm,
    d3_covariant_score,
    d3_covariant_two_spin_score,
    d3_outcome_matrix,
    d3_repeated_single_score,
    d3_single_spin_score,
    frame_two_axis_score,
)
from .spins import coherent_states
from .states import SpinJ

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
