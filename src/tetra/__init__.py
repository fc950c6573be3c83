"""Numerics for a symmetrized-bidisc relative: the tetrablock.

Membership criteria, invariant distances, automorphisms, the distinguished
boundary, and a constructive two-point matrix interpolation / mu-synthesis
solver for 2x2 targets with one off-diagonal degree of freedom.
"""

__version__ = "0.1.0"

from .autgroup import (
    DiscAut,
    act_left,
    act_right,
    diamond,
    flip,
    normalize_triangular,
    schwarz_pick_triangular,
    tau,
)
from .errors import TetraError
from .interpolate import (
    AllSolutionsParams,
    Interpolant,
    SchwarzWorkspace,
    all_solutions_params,
    big_m,
    choose_alpha,
    scalar_np2,
    schwarz_feasible,
    solve_schwarz,
    solve_with_sigma,
    uv_vectors,
    verify_interpolant,
)
from .linalg import op_norm, pi_map
from .metrics import (
    dist_from_origin,
    dist_triangular_pair,
    pseudohyperbolic,
)
from .musyn import (
    SynthesisInstance,
    bft_lower_bound,
    lift_to_sigma,
    mu_diag,
    mu_scaling_oracle,
    synth_two_point,
    synth_two_point_general,
)
from .tetrablock import (
    GeodesicDisc,
    MembershipReport,
    beta_params,
    construct_matrix_rep,
    criterion_max,
    d_of,
    geodesic_eval,
    in_distinguished_boundary,
    is_triangular,
    membership,
    membership_grid_oracle,
    peak_function,
    psi,
    real_slice_member,
    separating_polynomial,
    upsilon_fn,
)

__all__ = [
    "__version__",
    "TetraError",
    # linear algebra
    "op_norm", "pi_map",
    # domain
    "GeodesicDisc", "MembershipReport", "beta_params",
    "construct_matrix_rep", "criterion_max", "d_of", "geodesic_eval",
    "in_distinguished_boundary", "is_triangular", "membership",
    "membership_grid_oracle", "peak_function", "psi", "real_slice_member",
    "separating_polynomial", "upsilon_fn",
    # automorphisms
    "DiscAut", "act_left", "act_right", "diamond", "flip",
    "normalize_triangular", "schwarz_pick_triangular", "tau",
    # metrics
    "dist_from_origin", "dist_triangular_pair", "pseudohyperbolic",
    # interpolation
    "AllSolutionsParams", "Interpolant", "SchwarzWorkspace",
    "all_solutions_params", "big_m", "choose_alpha", "scalar_np2",
    "schwarz_feasible", "solve_schwarz", "solve_with_sigma", "uv_vectors",
    "verify_interpolant",
    # mu-synthesis
    "SynthesisInstance", "bft_lower_bound", "lift_to_sigma", "mu_diag",
    "mu_scaling_oracle", "synth_two_point", "synth_two_point_general",
]
