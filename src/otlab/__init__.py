"""Numerical laboratory for geometric linearization of optimal transport.

The package builds discrete optimal plans for strongly p-convex costs,
solves the degenerate Neumann problem that linearizes them, and measures
the inequalities connecting the two descriptions at desk scale.
"""

from .costs import (
    CostSpec,
    cost_eval,
    cost_grad,
    dual_eval,
    dual_grad,
    u_p,
    v_p,
    verify_assumptions,
)
from .measures import (
    Ball,
    BoundaryData,
    DiscreteMeasure,
    kappa,
    lebesgue_quadrature,
    mollify_boundary,
    projection_lemma_check,
    radial_project,
    restrict,
)
from .meshing import (
    DiskMesh,
    build_mesh,
)
from .neumann import (
    DiagnosticsReport,
    NeumannProblem,
    NewtonRecord,
    ScalarField,
    flux_field,
    holder_product_check,
    net_boundary_flux,
    regularity_diagnostics,
    solve_neumann,
)
from .trajectories import (
    CrossingTimes,
    Trajectory,
    approximate_boundary_data,
    bound2_check,
    crossing_times,
    entry_exit_atoms,
    linfty_displacement,
    omega_mask,
    path_integral,
    select_radius,
)
from .transport import (
    LPRecord,
    TransportPlan,
    add_constant_check,
    benamou_brenier_action,
    c2measures_check,
    check_cyclical_monotonicity,
    compute_smallness,
    data_D,
    data_restriction_check,
    energy_E,
    localisation_check,
    solve_exact,
    transport_cost,
    triangle_check,
    triangle_constant,
)

__version__ = "0.1.0"
