"""Workload names, and the name, unit and direction of every metric the
benchmark prints.

``BENCHMARK.json`` lists the same metrics; a test keeps the two in step.
"""
from __future__ import annotations

WORKLOADS = ("geometry_scan", "interp_audit", "mu_synth", "cli_mix")
SRC_MODULES = (
    "__init__", "autgroup", "cli", "errors", "interpolate",
    "linalg", "metrics", "musyn", "tetrablock",
)
CLI_SUBCOMMANDS = ("member", "dist", "interp", "mu", "synth", "boundary", "auto", "verify")

# (name, unit, better) printed with --trace 0
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_us", "us", "lower"),
    ("op_tail_us", "us", "lower"),
    ("ok_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# functions whose calls and self time are reported, and those whose
# TetraError count is too
TIMED_FUNCTIONS = (
    "musyn.mu_diag", "musyn.synth_two_point",
    "interpolate.verify_interpolant", "interpolate.solve_schwarz",
    "interpolate.solve_with_sigma",
    "tetrablock.membership", "tetrablock.criterion_max",
    "tetrablock.separating_polynomial", "tetrablock.peak_function",
    "metrics.dist_from_origin", "metrics.dist_triangular_pair",
    "autgroup.normalize_triangular", "autgroup.act_left", "autgroup.act_right",
    "linalg.op_norm", "linalg.sqrt_psd", "linalg.inv2", "linalg.mobius_matricial",
) + tuple(f"cli.run.{sub}" for sub in CLI_SUBCOMMANDS)
FAIL_FUNCTIONS = (
    "musyn.synth_two_point", "interpolate.solve_schwarz",
    "interpolate.solve_with_sigma", "tetrablock.separating_polynomial",
)
VARIANTS = ("scaled_line", "mobius_blaschke", "svd_reduced", "sigma_family", "flipped")


def _per_layer():
    out = []
    for fn in TIMED_FUNCTIONS:
        out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.self_s", "s", "lower"))
        if fn in FAIL_FUNCTIONS:
            out.append((f"{fn}.fail", "count", "lower"))
    out += [
        ("musyn.mu_diag.membership_per_call", "count", "lower"),
        ("interpolate.verify_interpolant.membership_per_sample", "count", "lower"),
        ("interpolate.verify_interpolant.op_norm_per_sample", "count", "lower"),
    ]
    out += [(f"interpolate.variant.{v}", "count", "higher") for v in VARIANTS]
    out += [
        ("tetrablock.sep_degree.p50", "count", "lower"),
        ("tetrablock.sep_degree.max", "count", "lower"),
        ("import.tetra_s", "s", "lower"),
        ("import.numpy_s", "s", "lower"),
        ("import.scipy_s", "s", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
        ("host.calib_us", "us", "lower"),
        ("host.calib_iqr_us", "us", "lower"),
    ]
    out += [(f"src.{m}.lines", "count", "lower") for m in SRC_MODULES]
    out += [("src.total.lines", "count", "lower"), ("cli.output_sha256", "hash", "lower")]
    return tuple(out)


PER_LAYER = _per_layer()
