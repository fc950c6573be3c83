"""Command-line interface.

Every capability of the library is exposed as a subcommand emitting one
deterministic JSON document on standard output (complex numbers as
[re, im] arrays, keys sorted, no NaN/Infinity).  Exit codes: 0 success,
2 a well-formed negative verdict (not a member / infeasible / failed
verification), 1 input or usage error with a machine-readable error object
on standard error.

Each document is byte-identical to ``json.dumps(doc, sort_keys=True,
indent=2, allow_nan=False)`` and is built whole before the first write, so
one that cannot be written writes nothing.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .autgroup import DiscAut, act_left, act_right, diamond, flip, normalize_triangular
from .errors import Infeasible, TetraError
from .interpolate import (
    Interpolant,
    schwarz_feasible,
    solve_schwarz,
    solve_with_sigma,
    verify_interpolant,
)
from .linalg import op_norm, pi_map
from .metrics import dist_from_origin, dist_triangular_pair
from .musyn import SynthesisInstance, mu_diag, mu_scaling_oracle, synth_two_point
from .tetrablock import (
    DEFAULT_TOL,
    in_distinguished_boundary,
    membership,
    membership_grid_oracle,
    peak_function,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _as_complex_entry(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(
        isinstance(c, (int, float)) for c in v
    ):
        return complex(v[0], v[1])
    raise ValueError(f"expected a number or [re, im] pair, got {v!r}")


def _parse_point(text: str) -> tuple:
    v = json.loads(text)
    if not isinstance(v, list) or len(v) != 3:
        raise ValueError(f"expected three complex coordinates, got {text!r}")
    return tuple(_as_complex_entry(c) for c in v)


def _parse_matrix(text: str) -> np.ndarray:
    v = json.loads(text)
    if not isinstance(v, list) or len(v) != 2 or any(
        not isinstance(row, list) or len(row) != 2 for row in v
    ):
        raise ValueError(f"expected a 2x2 matrix, got {text!r}")
    return np.array(
        [[_as_complex_entry(v[i][j]) for j in (0, 1)] for i in (0, 1)],
        dtype=complex,
    )


def _provenance(tol: float, seed=None) -> dict:
    return {
        "tool_version": __version__,
        "seed": seed,
        "tolerances": {"margin": tol},
    }


def _put(v, out: list, nl: str) -> None:
    """Append the JSON text of v to out; nl is a newline followed by the
    indent of the line v starts on.  A complex number is written as
    [re, im] and an array as nested lists; floats (numpy's float64 too) as
    float.__repr__ writes them.  One direct pass, because json.dumps with
    an indent always runs json's pure-Python encoder."""
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(
                f"Out of range float values are not JSON compliant: {v!r}")
        out.append(float.__repr__(v))
    elif isinstance(v, str):
        out.append(encode_basestring_ascii(v))
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(v):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _put(v[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, (list, tuple)):
        if not v:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in v:
            out.append(sep)
            _put(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(v, complex):
        _put((v.real, v.imag), out, nl)
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(int.__repr__(v))
    elif isinstance(v, np.ndarray):
        _put(v.tolist(), out, nl)
    else:
        raise TypeError(f"{type(v).__name__} is not JSON serialisable")


def _emit(obj: dict, stream=None) -> None:
    out = []
    _put(obj, out, "\n")
    out.append("\n")
    (stream or sys.stdout).write("".join(out))


_CRITERIA = tuple(f"c{k}" for k in range(1, 10))


def _cmd_member(args, tol: float):
    x = _parse_point(args.point)
    rep = membership(x, closed=args.closed, tol=tol)
    out = {
        "command": "member",
        "point": x,
        "closed": bool(args.closed),
        "report": {
            "in_set": rep.in_set,
            "criteria": dict(zip(_CRITERIA, rep.verdicts())),
            "margins": {
                "m3": rep.m3, "m3p": rep.m3p, "m4": rep.m4,
                "m4p": rep.m4p, "m5": rep.m5, "m6": rep.m6,
            },
            "triangular": rep.triangular,
            "d_value": {
                "finite": math.isfinite(rep.d_value),
                "value": rep.d_value if math.isfinite(rep.d_value) else None,
            },
        },
        "provenance": _provenance(tol),
    }
    if args.oracle_grid:
        out["oracle"] = membership_grid_oracle(
            x, closed=args.closed, n=args.oracle_grid
        )
    return out, (0 if rep.in_set else 2)


def _cmd_dist(args, tol: float):
    x = _parse_point(getattr(args, "from"))
    y = None if args.to is None else _parse_point(args.to)
    if y is None or max(abs(c) for c in y) == 0.0:
        dist = dist_from_origin(x)
    elif max(abs(c) for c in x) == 0.0:
        dist = dist_from_origin(y)
    else:
        dist = dist_triangular_pair(x, y)
    out = {
        "command": "dist",
        "from": x,
        "to": y,
        "distance": dist,
        "quotient": math.tanh(dist),
        "provenance": _provenance(tol),
    }
    return out, 0


def _cmd_interp(args, tol: float):
    l0 = _as_complex_entry(json.loads(args.lambda0))
    x = _parse_point(args.point)
    seed = args.seed if args.seed is not None else 0
    feasible, margin = schwarz_feasible(l0, x)
    base = {
        "command": "interp",
        "feasible": feasible,
        "lambda0": l0,
        "point": x,
        "margin": margin,
        "provenance": _provenance(tol, seed),
    }
    if args.sigma is None and not feasible:
        return base, 2
    try:
        if args.sigma is not None:
            phi = solve_with_sigma(l0, x, args.sigma)
        else:
            t = _as_complex_entry(json.loads(args.t)) if args.t else 0.0
            phi = solve_schwarz(l0, x, t=t)
    except Infeasible:
        base["feasible"] = False
        return base, 2
    report = verify_interpolant(phi, samples=args.samples, seed=seed, tol=tol)
    base.update(
        {
            "feasible": True,
            "variant": phi.variant,
            "sigma": phi.sigma,
            "t": phi.t,
            "flipped": phi.flipped,
            "Z": phi.Z,
            "u": phi.u,
            "v": phi.v,
            "interpolant": phi.to_payload(),
            "verification": report.to_dict(),
        }
    )
    return base, (0 if report.passed else 2)


def _cmd_mu(args, tol: float):
    A = _parse_matrix(args.matrix)
    out = {
        "command": "mu",
        "matrix": A,
        "mu": mu_diag(A),
        "provenance": _provenance(tol),
    }
    if args.oracle:
        out["oracle"] = mu_scaling_oracle(A)
    return out, 0


def _cmd_synth(args, tol: float):
    l0 = _as_complex_entry(json.loads(args.lambda0))
    A1 = _parse_matrix(args.a1)
    A2 = _parse_matrix(args.a2)
    inst = SynthesisInstance(l0, A1, A2)
    feasible, lift = synth_two_point(inst)
    out = {
        "command": "synth",
        "feasible": feasible,
        "lambda0": l0,
        "shape": inst.shape,
        "zeta": inst.zeta,
        "a2": A2,
        "lift_at_zero": None,
        "lift_at_lambda0": None,
        "mu_audit": None,
        "provenance": _provenance(tol),
    }
    if feasible and lift is not None:
        out["lift_at_zero"] = lift(0.0)
        out["lift_at_lambda0"] = lift(l0)
        n_samples = 20
        worst = 0.0
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        for k in range(n_samples):
            lam = (k + 1) / (n_samples + 1) * np.exp(2j * math.pi * golden * k)
            worst = max(worst, mu_diag(lift(lam)))
        out["mu_audit"] = {"max_mu": worst, "samples": n_samples}
    return out, (0 if feasible else 2)


def _cmd_boundary(args, tol: float):
    x = _parse_point(args.point)
    on_b = in_distinguished_boundary(x, tol=tol)
    out = {
        "command": "boundary",
        "point": x,
        "on_boundary": on_b,
        "peak": None,
        "provenance": _provenance(tol, 0),
    }
    if on_b:
        g = peak_function(x, tol=tol)
        val = g(x)
        rng = np.random.default_rng(0)
        n_samples = 200
        G, r = np.empty((n_samples, 2, 2), dtype=complex), np.empty(n_samples)
        for k in range(n_samples):
            G[k] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            r[k] = rng.uniform(0.0, 1.0)
        A = G * (r / np.maximum(op_norm(G), 1e-12))[:, None, None]
        worst = max(0.0, *(abs(g(y)) for y in zip(*pi_map(A))))
        out["peak"] = {
            "value_at_point": val,
            "abs_at_point": abs(val),
            "max_abs_sampled": worst,
            "samples": n_samples,
        }
    return out, (0 if on_b else 2)


def _cmd_auto(args, tol: float):
    op = args.op
    if op == "diamond":
        if args.x is None or args.y is None:
            raise _UsageError("diamond needs --x and --y")
        res = diamond(_parse_point(args.x), _parse_point(args.y))
        result = {"point": res}
    elif op in ("left", "right"):
        if args.x is None or args.omega is None or args.alpha is None:
            raise _UsageError(f"{op} needs --x, --omega and --alpha")
        v = DiscAut(
            _as_complex_entry(json.loads(args.omega)),
            _as_complex_entry(json.loads(args.alpha)),
        )
        x = _parse_point(args.x)
        res = act_left(v, x) if op == "left" else act_right(x, v)
        result = {"point": res}
    elif op == "flip":
        if args.x is None:
            raise _UsageError("flip needs --x")
        result = {"point": flip(_parse_point(args.x))}
    else:  # normalize
        if args.x is None:
            raise _UsageError("normalize needs --x")
        x = _parse_point(args.x)
        v, chi = normalize_triangular(x)
        image = act_right(act_left(v, x), chi)
        result = {
            "upsilon": {"omega": v.omega, "alpha": v.alpha},
            "chi": {"omega": chi.omega, "alpha": chi.alpha},
            "image": image,
        }
    return {
        "command": "auto",
        "op": op,
        "result": result,
        "provenance": _provenance(tol),
    }, 0


def _cmd_verify(args, tol: float):
    with open(args.interpolant) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "interpolant" in payload:
        payload = payload["interpolant"]
    phi = Interpolant.from_payload(payload)
    report = verify_interpolant(phi, samples=args.samples, seed=args.seed, tol=tol)
    out = {
        "command": "verify",
        "passed": report.passed,
        "report": report.to_dict(),
        "provenance": _provenance(tol, args.seed),
    }
    return out, (0 if report.passed else 2)


def _build_parser() -> _Parser:
    p = _Parser(prog="tetra", description=__doc__)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"margin tolerance (default: {DEFAULT_TOL})")
    sub = p.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("member", help="membership report for a point")
    m.add_argument("--point", required=True)
    m.add_argument("--closed", action="store_true")
    m.add_argument("--oracle-grid", type=int, default=None)

    d = sub.add_parser("dist", help="invariant distance")
    d.add_argument("--from", required=True)
    d.add_argument("--to", default=None)

    i = sub.add_parser("interp", help="two-point interpolation from the origin")
    i.add_argument("--lambda0", required=True)
    i.add_argument("--point", required=True)
    i.add_argument("--sigma", type=float, default=None)
    i.add_argument("--t", default=None)
    i.add_argument("--samples", type=int, default=200)
    i.add_argument("--seed", type=int, default=None)

    u = sub.add_parser("mu", help="structured singular value")
    u.add_argument("--matrix", required=True)
    u.add_argument("--oracle", action="store_true")

    s = sub.add_parser("synth", help="two-point mu-synthesis")
    s.add_argument("--lambda0", required=True)
    s.add_argument("--a1", required=True)
    s.add_argument("--a2", required=True)

    b = sub.add_parser("boundary", help="distinguished boundary and peak probe")
    b.add_argument("--point", required=True)

    a = sub.add_parser("auto", help="automorphism actions")
    a.add_argument("--op", required=True,
                   choices=["diamond", "left", "right", "flip", "normalize"])
    a.add_argument("--x", default=None)
    a.add_argument("--y", default=None)
    a.add_argument("--omega", default=None)
    a.add_argument("--alpha", default=None)

    v = sub.add_parser("verify", help="re-verify a stored interpolant")
    v.add_argument("--interpolant", required=True)
    v.add_argument("--samples", type=int, default=500)
    v.add_argument("--seed", type=int, default=0)
    return p


# argparse keeps no state between parses (each returns a fresh Namespace and
# _Parser.error raises), so one parser serves every run() in the process.
_PARSER = _build_parser()

_HANDLERS = {
    "member": _cmd_member,
    "dist": _cmd_dist,
    "interp": _cmd_interp,
    "mu": _cmd_mu,
    "synth": _cmd_synth,
    "boundary": _cmd_boundary,
    "auto": _cmd_auto,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    """Parse argv, execute one subcommand, print its JSON document."""
    try:
        args = _PARSER.parse_args(argv)
        out, code = _HANDLERS[args.cmd](args, args.tol)
    except (_UsageError, TetraError, ValueError, OSError) as exc:
        _emit({"error": {"type": exc.__class__.__name__, "message": str(exc)}},
              stream=sys.stderr)
        return 1
    _emit(out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
