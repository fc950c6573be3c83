"""Numerics for a symmetrized-bidisc relative: the tetrablock.

Membership criteria, invariant distances, automorphisms, the distinguished
boundary, and a constructive two-point matrix interpolation / mu-synthesis
solver for 2x2 targets with one off-diagonal degree of freedom.

The domain modules (tetrablock, autgroup, metrics) compute in plain complex
arithmetic; the names of the NumPy-backed modules (linalg, interpolate,
musyn) resolve on first access, so ``import tetra`` loads no NumPy.
"""

__version__ = "0.1.0"

import importlib

from .autgroup import (
    DiscAut, act_left, act_right, diamond, flip, normalize_triangular,
    schwarz_pick_triangular, tau,
)
from .errors import TetraError
from .metrics import dist_from_origin, dist_triangular_pair, pseudohyperbolic
from .tetrablock import (
    GeodesicDisc, MembershipReport, beta_params, construct_matrix_rep,
    criterion_max, d_of, geodesic_eval, in_distinguished_boundary,
    is_triangular, membership, membership_grid_oracle, peak_function, psi,
    real_slice_member, separating_polynomial, upsilon_fn,
)

# the NumPy-backed modules, each with the public names it gives
_LAZY = {name: module for module, names in {
    "linalg": "linalg op_norm pi_map",
    "interpolate": """interpolate AllSolutionsParams Interpolant
        SchwarzWorkspace all_solutions_params big_m choose_alpha scalar_np2
        schwarz_feasible solve_schwarz solve_with_sigma uv_vectors
        verify_interpolant""",
    "musyn": """musyn SynthesisInstance bft_lower_bound lift_to_sigma mu_diag
        mu_scaling_oracle synth_two_point synth_two_point_general""",
}.items() for name in names.split()}


def __getattr__(name):
    """A module of ``_LAZY`` or one of its names, imported on first access
    (PEP 562).  Nothing is cached, so a binding that a tracer wraps in the
    module, and later restores, is read as it stands."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


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
