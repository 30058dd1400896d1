"""Transmission of spatial directions and frames through small spin systems:
spin representations, covariant measurements, optimal codes, frame fitting,
and a seeded Monte Carlo harness with a CLI front end."""

from .frames import (
    AxisPairEstimate,
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
    Block,
    FiniteGroup,
    IrrepData,
    SignalFamily,
    build_signal_family,
    d3_directions,
    dihedral_d3,
    find_invariant_blocks,
    irrep_content,
    load_group_file,
    schur_fiducial,
)
from .harness import (
    RunConfig,
    RunResult,
    perturb_direction,
    reference_score,
    run_experiment,
    sample_chi,
    sample_haar_direction,
    sample_haar_frame,
    sample_haar_rotation,
)
from .multispin import (
    attainable_spins,
    decompose_multispin,
    j_squared,
    lift_rotation,
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
    default_d3_grid,
    direction_cos_matrix,
    finite_group_optimum,
    optimal_direction_encoding,
)
from .povm import (
    Povm,
    PovmElement,
    coarse_grain_povm,
    covariant_direction_povm,
    covariant_povm_finite,
    outcome_probability,
    state_probabilities,
    validate_povm,
)
from .protocols import (
    ProtocolScore,
    ProtocolSpec,
    d3_coherent_crossover,
    d3_coherent_score,
    d3_covariant_two_spin_score,
    d3_outcome_matrix,
    d3_repeated_single_score,
    d3_single_spin_povm,
    d3_single_spin_score,
    d3_two_spin_povm,
    frame_two_axis_score,
)
from .spins import (
    axis_angle_from_matrix,
    coherent_overlap_sq,
    coherent_state,
    jx_matrix,
    jy_matrix,
    jz_matrix,
    n_dot_j,
    rotate_spin_state,
    rotation_about,
    su2_from_rotation,
    wigner_d_matrix,
    wigner_small_d,
)
from .states import (
    ProductBasis,
    SpinBasis,
    SpinJ,
    StateVector,
    basis_state,
    product_state,
    spin_basis_state,
    state_from_terms,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
