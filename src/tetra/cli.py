"""Command-line interface.

Every capability of the library is exposed as a subcommand emitting one
deterministic JSON document on standard output (complex numbers as
[re, im] arrays, keys sorted, no NaN/Infinity).  Exit codes: 0 success,
2 a well-formed negative verdict (not a member / infeasible / failed
verification), 1 input or usage error with a machine-readable error object
on standard error.

Each handler returns its document's body, exit code and RNG seed; ``run()``
adds the ``command`` and ``provenance`` (tool version, seed and ``--tol``
margin).  A document is ``json.dumps(doc, sort_keys=True, indent=2,
allow_nan=False)`` to the byte, written in one pass that writes each leaf in
its container's loop, whole before the first write, or not at all.

Options read as argparse reads them, from tables built once at import: ``--tol``
before the subcommand, ``--name value`` or ``--name=value``, unique prefixes,
the last of repeats and ``-h``; a value such as ``-1e-3`` needs the ``=`` form.

NumPy loads only in the handlers that compute with matrices: member
(without --oracle-grid), dist, auto, mu (without --oracle) and -h run
without it.
"""
from __future__ import annotations

import itertools
import json
import math
import re
import sys
import types
from json.encoder import encode_basestring_ascii as _esc

from . import __version__
from .autgroup import DiscAut, act_left, act_right, diamond, flip, normalize_triangular
from .errors import Infeasible, TetraError
from .metrics import dist_from_origin, dist_triangular_pair
from .tetrablock import (
    DEFAULT_TOL,
    _validated,
    in_distinguished_boundary,
    membership,
    membership_grid_oracle,
    peak_function,
)


class _UsageError(Exception):
    pass


_REAL = (float, int)  # the exact types of a JSON number
_INF = math.inf
_LITERAL = {True: "true", False: "false", None: "null"}


def _as_complex_entry(v) -> complex:
    try:
        if type(v) in _REAL:  # a JSON true or false is no number
            return complex(v)
        if type(v) is list and len(v) == 2 and type(v[0]) in _REAL and type(v[1]) in _REAL:
            return complex(v[0], v[1])
    except OverflowError:  # an integer past the float range
        pass
    raise ValueError(f"expected a number or [re, im] pair, got {v!r}")


def _parse_point(text: str) -> tuple:
    v = json.loads(text)
    if type(v) is not list or len(v) != 3:
        raise ValueError(f"expected three complex coordinates, got {text!r}")
    return _as_complex_entry(v[0]), _as_complex_entry(v[1]), _as_complex_entry(v[2])


def _parse_matrix(text: str) -> list:
    v = json.loads(text)
    if type(v) is not list or len(v) != 2 or not (
        type(v[0]) is list and len(v[0]) == 2 and type(v[1]) is list and len(v[1]) == 2
    ):
        raise ValueError(f"expected a 2x2 matrix, got {text!r}")
    return [list(map(_as_complex_entry, v[0])), list(map(_as_complex_entry, v[1]))]


def _put(v, out: list, nl: str) -> None:
    """Append the JSON text of v, a container or an item of no exact JSON
    type, to out; nl is a newline and the indent of v's first line.  The loop
    writes each float (as float.__repr__), str, bool, None, int and complex
    ([re, im]) item by exact type and calls _put for containers and for what
    _plain makes plain: one pass, where json.dumps(indent=2) runs Python."""
    inner = nl + "  "
    if type(v) is dict:
        items = [(f"{inner}{_esc(k)}: ", item) for k, item in sorted(v.items())]
        sep, close = "{", nl + "}"
    elif type(v) is list or type(v) is tuple:
        items, sep, close = zip(itertools.repeat(inner), v), "[", nl + "]"
    else:  # one value, as the single item of no brackets
        items, sep, close, inner = (("", _plain(v)),), "", "", nl
    if sep and not v:  # an empty container
        out.append(sep + close[-1:])
        return
    for head, item in items:
        t = type(item)
        if t is float:
            if not -_INF < item < _INF:
                raise ValueError(
                    f"Out of range float values are not JSON compliant: {item!r}")
            out.append(f"{sep}{head}{item!r}")
        elif t is bool or item is None:
            out.append(f"{sep}{head}{_LITERAL[item]}")
        elif t is str:
            out.append(f"{sep}{head}{_esc(item)}")
        elif t is complex and -_INF < item.real < _INF and -_INF < item.imag < _INF:
            out.append(f"{sep}{head}[{inner}  {item.real!r},{inner}  {item.imag!r}{inner}]")
        elif t is int:
            out.append(f"{sep}{head}{item!r}")
        else:
            out.append(sep + head)
            _put(item, out, inner)
        sep = ","
    out.append(close)


def _plain(v):
    """v of exact JSON type: a complex as (re, im), a NumPy array (told by its
    type, NumPy unloaded) as lists, a subclass (NumPy's float64) as its base."""
    if type(v).__name__ == "ndarray" and type(v).__module__ == "numpy":
        return v.tolist()
    for base in (complex, float, int, str, dict, list, tuple):
        if isinstance(v, base):
            return (v.real, v.imag) if base is complex else base(v)
    raise TypeError(f"{type(v).__name__} is not JSON serialisable")


def _emit(obj: dict, stream=None) -> None:
    out = []
    _put(obj, out, "\n")
    out.append("\n")
    (stream or sys.stdout).write("".join(out))


def _cmd_member(args):
    x = _parse_point(args.point)
    rep = membership(x, closed=args.closed, tol=args.tol)
    in_set, c1, c2, c3, c4, c5, c6, c7, c8, c9, m3, m3p, m4, m4p, m5, m6, tri, d, _ = rep
    finite = math.isfinite(d)
    out = {
        "point": x,
        "closed": bool(args.closed),
        "report": {
            "in_set": in_set,
            "criteria": {"c1": c1, "c2": c2, "c3": c3, "c4": c4, "c5": c5,
                         "c6": c6, "c7": c7, "c8": c8, "c9": c9},
            "margins": {"m3": m3, "m3p": m3p, "m4": m4, "m4p": m4p, "m5": m5, "m6": m6},
            "triangular": tri,
            "d_value": {"finite": finite, "value": d if finite else None},
        },
    }
    if args.oracle_grid is not None:
        out["oracle"] = membership_grid_oracle(x, closed=args.closed, n=args.oracle_grid)
    return out, (0 if in_set else 2), None


def _cmd_dist(args):
    x = _parse_point(getattr(args, "from"))
    y = None if args.to is None else _parse_point(args.to)
    mods_x = _validated(x)[3:]  # NonFinite before either origin test reads a modulus
    if y is None or max(_validated(y)[3:]) == 0.0:
        dist = dist_from_origin(x)
    elif max(mods_x) == 0.0:
        dist = dist_from_origin(y)
    else:
        dist = dist_triangular_pair(x, y)
    return {"from": x, "to": y, "distance": dist, "quotient": math.tanh(dist)}, 0, None


def _cmd_interp(args):
    from .interpolate import (
        schwarz_feasible, solve_schwarz, solve_with_sigma, verify_interpolant)

    l0 = _as_complex_entry(json.loads(args.lambda0))
    x = _parse_point(args.point)
    seed = args.seed if args.seed is not None else 0
    feasible, margin = schwarz_feasible(l0, x)
    base = {"feasible": feasible, "lambda0": l0, "point": x, "margin": margin}
    if args.sigma is None and not feasible:
        return base, 2, seed
    try:
        if args.sigma is not None:
            phi = solve_with_sigma(l0, x, args.sigma)
        else:
            t = _as_complex_entry(json.loads(args.t)) if args.t is not None else 0.0
            phi = solve_schwarz(l0, x, t=t)
    except Infeasible:
        base["feasible"] = False
        return base, 2, seed
    report = verify_interpolant(phi, samples=args.samples, seed=seed, tol=args.tol)
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
    return base, (0 if report.passed else 2), seed


def _cmd_mu(args):
    from .musyn import mu_diag

    A = _parse_matrix(args.matrix)
    out = {"matrix": A, "mu": mu_diag(A)}
    if args.oracle:  # the one part of mu that computes with NumPy
        from .musyn import mu_scaling_oracle
        out["oracle"] = mu_scaling_oracle(A)
    return out, 0, None


def _cmd_synth(args):
    import numpy as np

    from .musyn import SynthesisInstance, mu_diag, synth_two_point

    l0 = _as_complex_entry(json.loads(args.lambda0))
    A1 = _parse_matrix(args.a1)
    A2 = _parse_matrix(args.a2)
    inst = SynthesisInstance(l0, A1, A2)
    feasible, lift = synth_two_point(inst)
    out = {
        "feasible": feasible,
        "lambda0": l0,
        "shape": inst.shape,
        "zeta": inst.zeta,
        "a2": A2,
        "lift_at_zero": None,
        "lift_at_lambda0": None,
        "mu_audit": None,
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
    return out, (0 if feasible else 2), None


def _cmd_boundary(args):
    import numpy as np

    from .linalg import op_norm, pi_map

    x = _parse_point(args.point)
    on_b = in_distinguished_boundary(x, tol=args.tol)
    out = {"point": x, "on_boundary": on_b, "peak": None}
    if on_b:
        g = peak_function(x, tol=args.tol)
        val = g(x)
        rng = np.random.default_rng(0)
        n_samples = 200
        G, r = np.empty((n_samples, 2, 2), dtype=complex), np.empty(n_samples)
        for k in range(n_samples):
            G[k].real, G[k].imag = rng.standard_normal((2, 2, 2))
            r[k] = rng.uniform(0.0, 1.0)
        A = G * (r / np.maximum(op_norm(G), 1e-12))[:, None, None]
        worst = max(0.0, *(abs(g(y)) for y in zip(*pi_map(A))))
        out["peak"] = {
            "value_at_point": val,
            "abs_at_point": abs(val),
            "max_abs_sampled": worst,
            "samples": n_samples,
        }
    return out, (0 if on_b else 2), 0


def _cmd_auto(args):
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
    return {"op": op, "result": result}, 0, None


def _cmd_verify(args):
    from .interpolate import Interpolant, verify_interpolant

    with open(args.interpolant) as fh:
        payload = json.load(fh)
    if isinstance(payload, dict) and "interpolant" in payload:
        payload = payload["interpolant"]
    phi = Interpolant.from_payload(payload)
    report = verify_interpolant(phi, samples=args.samples, seed=args.seed, tol=args.tol)
    out = {"passed": report.passed, "report": report.to_dict()}
    return out, (0 if report.passed else 2), args.seed


# Each subcommand's handler, help line and options.  An option is (type,
# default): a bool is a flag, a tuple lists the choices, and a default of
# ... makes the option required.
_TOP = {"--tol": (float, DEFAULT_TOL)}
_COMMANDS = {
    "member": (_cmd_member, "membership report for a point", {
        "--point": (str, ...), "--closed": (bool, False), "--oracle-grid": (int, None)}),
    "dist": (_cmd_dist, "invariant distance", {"--from": (str, ...), "--to": (str, None)}),
    "interp": (_cmd_interp, "two-point interpolation from the origin", {
        "--lambda0": (str, ...), "--point": (str, ...), "--sigma": (float, None),
        "--t": (str, None), "--samples": (int, 200), "--seed": (int, None)}),
    "mu": (_cmd_mu, "structured singular value", {
        "--matrix": (str, ...), "--oracle": (bool, False)}),
    "synth": (_cmd_synth, "two-point mu-synthesis", {
        "--lambda0": (str, ...), "--a1": (str, ...), "--a2": (str, ...)}),
    "boundary": (_cmd_boundary, "distinguished boundary and peak probe", {
        "--point": (str, ...)}),
    "auto": (_cmd_auto, "automorphism actions", {
        "--op": (("diamond", "left", "right", "flip", "normalize"), ...),
        "--x": (str, None), "--y": (str, None),
        "--omega": (str, None), "--alpha": (str, None)}),
    "verify": (_cmd_verify, "re-verify a stored interpolant", {
        "--interpolant": (str, ...), "--samples": (int, 500), "--seed": (int, 0)}),
}
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # values, though they start with "-"


def _table(spec):
    """A spec as _parse_argv reads it: each option's (kind, dest), --help's first
    (argparse's prefix order), each dest's default and the required options."""
    opts = {"--help": (bool, None)}
    opts.update((o, (kind, o[2:].replace("-", "_"))) for o, (kind, _) in spec.items())
    defaults = {opts[o][1]: None if d is ... else d for o, (_, d) in spec.items()}
    return opts, defaults, tuple(o for o, (_, d) in spec.items() if d is ...)


_TABLES = {None: _table(_TOP), **{cmd: _table(c[2]) for cmd, c in _COMMANDS.items()}}
_CHOICES = tuple(_COMMANDS)


def _option(opts, arg):
    """How argparse reads arg: None for a value, else (option or None, "=" text or None)."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] == "h":  # -hh and -h=h are -h too; -hx and -h= are errors
        return "--help", (None if re.fullmatch(r"-h(=?h+)?", arg) else arg[2:])
    if arg[1] == "-":
        name, eq, text = arg.partition("=")
        if name not in opts:
            names = [o for o in opts if o.startswith(name)]
            if len(names) > 1:
                raise _UsageError(f"ambiguous option: {arg} could match {', '.join(names)}")
            name = names[0] if names else None
        if name:
            return name, (text if eq else None)
    return None if _NEGATIVE.match(arg) or " " in arg else (None, None)


def _value(name, kind, text):
    """The value of option name from its text (None if it has none)."""
    if (kind is bool) != (text is None):
        raise _UsageError(f"argument {name}: " + (f"ignored explicit argument {text!r}"
                          if kind is bool else "expected one argument"))
    if isinstance(kind, tuple) and text not in kind:
        raise _UsageError(f"argument {name}: invalid choice: {text!r} "
                          f"(choose from {', '.join(map(repr, kind))})")
    try:
        return True if kind is bool else text if isinstance(kind, tuple) else kind(text)
    except ValueError:
        raise _UsageError(
            f"argument {name}: invalid {kind.__name__} value: {text!r}") from None


def _help(cmd) -> str:
    """The usage of tetra (cmd None) or of one subcommand, then its help."""
    _, about, spec = _COMMANDS[cmd] if cmd else (None, __doc__, _TOP)
    usage = [f"usage: tetra {cmd}" if cmd else "usage: tetra", "[-h]"]
    for o, (kind, default) in spec.items():
        metavar = o[2:].upper() if isinstance(kind, type) else "{%s}" % ",".join(kind)
        o += "" if kind is bool else f" {metavar}"
        usage.append(o if default is ... else f"[{o}]")
    usage += [] if cmd else ["{%s} ..." % ",".join(_COMMANDS)]
    return " ".join(usage) + f"\n\n{about.strip()}\n"


def _parse_argv(argv) -> types.SimpleNamespace:
    """argv read as argparse reads it, into "tol", "cmd" and cmd's options.
    The first value names cmd and "--" ends the options; every argument is
    classified before any is read, so an ambiguous option fails even after -h."""
    args = sys.argv[1:] if argv is None else list(argv)
    opts, defaults, required = _TABLES[None]
    values, extras, cmd, k = dict(defaults), [], None, 0
    kinds = [_option(opts, arg) for arg in itertools.takewhile("--".__ne__, args)]
    while k < len(kinds):
        name, text = kinds[k] or (None, None)
        k += 1
        if kinds[k - 1] is None and not cmd:
            cmd = values["cmd"] = _value("cmd", _CHOICES, args[k - 1])
            opts, defaults, required = _TABLES[cmd]
            values.update(defaults)
            args, k = args[k:], 0
            kinds = [_option(opts, arg) for arg in itertools.takewhile("--".__ne__, args)]
        elif name is None:
            extras.append(args[k - 1])
        elif name == "--help" and text is None:
            sys.stdout.write(_help(cmd))
            raise SystemExit(0)
        else:
            kind, dest = opts[name]  # --help is a flag
            if text is None and kind is not bool and kinds[k:k + 1] == [None]:
                text, k = args[k], k + 1
            values[dest] = _value(name, kind, text)
    missing = [o for o in required if values[opts[o][1]] is None]
    if missing or not cmd:
        raise _UsageError("the following arguments are required: "
                          + (", ".join(missing) or "cmd"))
    if extras or args[len(kinds):]:
        raise _UsageError("unrecognized arguments: " + " ".join(extras + args[len(kinds):]))
    return types.SimpleNamespace(**values)


def run(argv=None) -> int:
    """Parse argv, execute one subcommand, print its JSON document."""
    try:
        args = _parse_argv(argv)
        out, code, seed = _COMMANDS[args.cmd][0](args)
    except (_UsageError, TetraError, ValueError, OSError) as exc:
        _emit({"error": {"type": exc.__class__.__name__, "message": str(exc)}},
              stream=sys.stderr)
        return 1
    out["command"] = args.cmd
    out["provenance"] = {"tool_version": __version__, "seed": seed,
                         "tolerances": {"margin": args.tol}}
    _emit(out)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
