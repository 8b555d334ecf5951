"""cartanflow: radial geometry, slice densities and level dynamics on the
classical noncompact matrix symmetric spaces."""

from .linalg import (
    ConsistencyError,
    ContractViolation,
    commutator,
    dagger,
    load_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
    trace_form,
)
from .spaces import (
    KINDS,
    RestrictedRoot,
    SpaceDescriptor,
    basis_of,
    geometry,
    make_space,
    numeric_roots,
    project_k,
    project_p,
    random_k_element,
    random_p_element,
    restricted_roots,
    root_values,
    wall_distance,
)
from .radial import (
    ExactSliceElement,
    SliceCheck,
    SliceCoords,
    chamber_contains,
    embed_radial,
    exact_slice_reduce,
    radial_coords,
    radial_decompose,
    slice_contains,
)
from .reduction import (
    AqOperator,
    ReducedState,
    a_q_matrix,
    closed_form_density,
    density_constant,
    jacobian_density,
    l_from_slice,
    moment_map,
    r_from_l,
)
from .dynamics import (
    OracleReport,
    PhasePoint,
    Trajectory,
    compare_with_oracle,
    direct_flow,
    integrate_reduced,
    reduce_phase_point,
    reduced_hamiltonian,
    reduced_vector_field,
)
from .sampling import (
    RadialHistogram,
    radial_histogram,
    sample_p_gaussian,
    sample_radial_batch,
    theoretical_radial_density,
    verify_density,
)

__version__ = "0.1.0"
