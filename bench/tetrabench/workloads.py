"""The four seeded workloads.

Each workload builds a pool of op inputs from the seed alone, runs one op
(the timed unit, calling ``tetra`` only through public names looked up at
call time, so tracing can wrap them) and checks op results outside the
timed window with the independent code in :mod:`tetrabench.checks`.

The pool is a sequence of blocks with a fixed pattern of op kinds, so every
seed runs the same mix in the same order and only the numbers change.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import tetra as T
from . import checks as C
from . import spec

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the 20 sample points of the CLI's synth mu audit
AUDIT_LAMBDAS = tuple(
    complex((k + 1) / 21 * np.exp(2j * math.pi * GOLDEN * k)) for k in range(20)
)


def _rng(seed, stream):
    return np.random.default_rng([stream, int(seed)])


def _unit(rng):
    return complex(np.exp(2j * math.pi * rng.uniform()))


def _disc(rng, radius):
    return radius * math.sqrt(rng.uniform()) * _unit(rng)


def _gauss(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pi(A):
    return tuple(complex(c) for c in C.pi_of(A))


def _sym_point(rng, norm, x2_zero=False):
    """pi-image of a random symmetric [[x1, w], [w, x2]] with the given
    operator norm: inside E below 1, on its boundary at 1, outside above."""
    x1, x2, w = _gauss(rng, 3)
    if x2_zero:
        x2 = 0.0
    S = np.array([[x1, w], [w, x2]])
    S *= norm / np.linalg.norm(S, 2)
    return _pi(S)


def _contraction(rng, norm):
    G = _gauss(rng, (2, 2))
    return G * (norm / np.linalg.norm(G, 2))


def _unitary(rng):
    Q, R = np.linalg.qr(_gauss(rng, (2, 2)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _quotient(x):
    """Closed-form two-quotient maximum, used only to place inputs."""
    x1, x2, x3 = x

    def d(a, b):
        return (abs(a - b.conjugate() * x3) + abs(a * b - x3)) / (1.0 - abs(b) ** 2)

    return max(d(x1, x2), d(x2, x1))


def _scale(x, s):
    return (s * x[0], s * x[1], s * s * x[2])


class Workload:
    """A pool of ops (``op[0]`` is the op kind) with ``run`` and ``check``;
    ``TRACE_OPS`` is how many of them the traced pass runs."""

    pool: list

    def probe_ops(self):
        """The first op of each kind: what a set-up probe runs."""
        seen = {}
        for op in self.pool:
            seen.setdefault(op[0], op)
        return list(seen.values())


class GeometryScan(Workload):
    """One op classifies one point: open and closed membership, then the
    distance, the peak function or a separating certificate."""

    BLOCK = (
        "interior", "triangular", "interior", "boundary", "interior",
        "near", "interior", "triangular", "exterior", "interior",
        "boundary", "interior", "triangular", "interior", "interior",
        "triangular", "interior", "exterior", "boundary", "interior",
    )
    # the cost of a near-boundary op varies a hundredfold; 1000 of them per
    # pool spread it over the run
    BLOCKS = 1000
    TRACE_OPS = 4000
    STRATA = 14   # half-decades of relative distance in 1e-8 .. 1e-1

    def __init__(self, seed, workdir=None, blocks=None):
        rng = _rng(seed, 1)
        # near-boundary ops come from one stream that ignores the seed:
        # whether separating_polynomial finds a witness there is decided by
        # its grid, so seeded points would make the count of failed ops,
        # and their cost, differ from seed to seed
        fixed = _rng(0, 5)
        closure = [_pi(_contraction(rng, rng.uniform(0.5, 1.0))) for _ in range(32)]
        pool, near, k = [], 0, 0
        for _ in range(blocks or self.BLOCKS):
            for kind in self.BLOCK:
                extra = {}
                if kind == "interior":
                    x = _sym_point(rng, rng.uniform(0.05, 0.95))
                elif kind == "triangular":
                    a, b = _disc(rng, 0.9), _disc(rng, 0.9)
                    x = (a, b, a * b)
                    extra["y"] = _sym_point(rng, rng.uniform(0.05, 0.9))
                elif kind == "boundary":
                    x = _pi(_unitary(rng))
                elif kind == "exterior":
                    x = _sym_point(rng, rng.uniform(1.5, 3.0))
                else:
                    base = _sym_point(fixed, 1.0)
                    delta = 10.0 ** (-8.0 + 0.5 * (near % self.STRATA + fixed.uniform()))
                    near += 1
                    x = _scale(base, 1.0 + delta)
                    extra["closure"] = (base,) + tuple(
                        _pi(_contraction(fixed, fixed.uniform(0.5, 1.0))) for _ in range(2)
                    )
                if kind in ("boundary", "exterior"):
                    extra["closure"] = extra.get("closure", ()) + (
                        closure[k % 32], closure[(k + 1) % 32],
                    )
                    k += 2
                pool.append((kind, x, extra))
        self.pool = pool
        self._refs = None

    def run(self, op):
        _, x, extra = op
        out = {
            "open": T.membership(x).in_set,
            "closed": T.membership(x, closed=True).in_set,
        }
        if not out["closed"]:
            f, cert = T.separating_polynomial(x)
            out["cert"] = [f(p) for p in (x, *extra["closure"])]
            out["degree"] = cert.get("degree", 1)
        elif T.in_distinguished_boundary(x):
            g = T.peak_function(x)
            out["peak"] = [g(p) for p in (x, *extra["closure"])]
        elif out["open"]:
            if T.is_triangular(x):
                out["dist"] = T.dist_triangular_pair(x, extra["y"])
            else:
                out["dist"] = T.dist_from_origin(x)
        return out

    def _references(self):
        if self._refs is None:
            xs = [op[1] for op in self.pool]
            norms = C.point_norm(xs)
            quot = np.full(len(xs), np.nan)
            inner = [i for i, n in enumerate(norms) if n < 1.0 - C.BAND]
            plain = [i for i in inner if self.pool[i][0] != "triangular"]
            tri = [i for i in inner if self.pool[i][0] == "triangular"]
            if plain:
                quot[plain] = C.sampled_quotient([xs[i] for i in plain])
            if tri:
                quot[tri] = C.triangular_pair_quotient(
                    [xs[i] for i in tri], [self.pool[i][2]["y"] for i in tri]
                )
            self._refs = (norms, quot)
        return self._refs

    def check(self, index, out):
        norms, quot = self._references()
        x, norm = self.pool[index][1], norms[index]
        if not (C.verdict_ok(out["open"], norm) and C.verdict_ok(out["closed"], norm)):
            return False
        if norm > 1.0 + C.BAND:
            vals = out.get("cert")
            return bool(vals) and abs(vals[0]) > 1.0 and all(
                abs(v) <= 1.0 + C.CERT_TOL for v in vals[1:]
            )
        if C.on_distinguished_boundary(x):
            vals = out.get("peak")
            return bool(vals) and abs(abs(vals[0]) - 1.0) <= C.CERT_TOL and all(
                abs(v) <= 1.0 + C.CERT_TOL for v in vals[1:]
            )
        if norm < 1.0 - C.BAND:
            return "dist" in out and C.close(math.tanh(out["dist"]), quot[index], C.DIST_RTOL)
        return True


class InterpAudit(Workload):
    """One op solves one two-point problem (lambda0, x) and audits it."""

    BLOCK = (
        "mobius", "line", "sigma", "svd", "mobius_flip",
        "diag", "svd_t", "sigma", "mobius", "infeasible",
    )
    BLOCKS = 30
    TRACE_OPS = 100

    def __init__(self, seed, workdir=None, blocks=None):
        rng = _rng(seed, 2)
        pool = []
        for _ in range(blocks or self.BLOCKS):
            for mode in self.BLOCK:
                pool.append((mode, *self._instance(rng, mode)))
        self.pool = pool
        self._quot = None

    @staticmethod
    def _instance(rng, mode):
        if mode == "line":
            x = _sym_point(rng, rng.uniform(0.2, 0.8), x2_zero=True)
        elif mode == "diag":
            a, b = _disc(rng, 0.85), _disc(rng, 0.85)
            x = (a, b, a * b)
        else:
            x = _sym_point(rng, rng.uniform(0.2, 0.85))
        flip = mode in ("mobius_flip", "svd_t")
        if (abs(x[0]) < abs(x[1])) != flip:
            x = (x[1], x[0], x[2])
        cm = _quotient(x)
        phase = _unit(rng)
        if mode.startswith("svd"):
            # extremal: within solve_schwarz's 1e-10 band, on the feasible side
            l0 = cm * (1.0 + 1e-12) * phase
        elif mode == "infeasible":
            l0 = cm * rng.uniform(0.4, 0.9) * phase
        else:
            l0 = (cm + (1.0 - cm) * rng.uniform(0.15, 0.85)) * phase
        param = 0.0
        if mode == "svd_t":
            param = _disc(rng, 0.9)
        elif mode == "sigma":
            a, b, p = x
            al = abs(l0)
            y2 = al * (1 - abs(a / l0) ** 2 - abs(b) ** 2 + abs(p / l0) ** 2) / abs(a * b - p)
            xi2 = (y2 + math.sqrt(max(y2 * y2 - 4.0, 0.0))) / 2.0
            param = math.exp(0.45 * rng.uniform(-1.0, 1.0) * math.log(xi2))
        return l0, x, param

    def run(self, op):
        mode, l0, x, param = op
        feasible, _ = T.schwarz_feasible(l0, x)
        out = {"feasible": feasible}
        if mode == "sigma":
            phi = T.solve_with_sigma(l0, x, param)
        elif feasible or mode.startswith("svd"):
            phi = T.solve_schwarz(l0, x, t=param)
        else:
            return out
        out["phi"] = phi
        out["passed"] = T.verify_interpolant(phi).passed
        return out

    def check(self, index, out):
        if self._quot is None:
            self._quot = C.sampled_quotient([op[2] for op in self.pool])
        _, l0, x, _ = self.pool[index]
        q, r = self._quot[index], abs(l0)
        if abs(q - r) > C.FEAS_RTOL * r and out["feasible"] != (q < r):
            return False
        if q > r * (1.0 + C.FEAS_RTOL):
            return "phi" not in out
        phi = out.get("phi")
        if phi is None or out["passed"] is not True:
            return False
        F0, F1 = phi.lift_evaluate(0.0), phi.lift_evaluate(l0)
        return (
            max(abs(c) for c in C.pi_of(F0)) <= C.RESIDUAL_TOL
            and max(abs(c - d) for c, d in zip(C.pi_of(F1), x)) <= C.RESIDUAL_TOL
            and np.linalg.norm(F1, 2) <= 1.0 + C.RESIDUAL_TOL
        )


class MuSynth(Workload):
    """Most ops are mu_diag of one frequency response G(jw) of a seeded 2x2
    plant, swept over a log-spaced grid; one op in twenty is a two-point
    synthesis instance with the CLI's 20-point mu audit when feasible."""

    BLOCK = ("mu",) * 10 + ("synth",) + ("mu",) * 9
    BLOCKS = 10
    TRACE_OPS = 3000
    SYNTH = (  # (shape, feasible) of the synthesis op in each block
        ("upper", True), ("lower", True), ("zero", False), ("upper", True),
        ("zero", True), ("lower", False), ("upper", True), ("lower", True),
        ("zero", True), ("upper", False),
    )

    def __init__(self, seed, workdir=None, blocks=None):
        rng = _rng(seed, 3)
        blocks = blocks or self.BLOCKS
        n_mu = self.BLOCK.count("mu") * blocks
        response = self._plant_response(rng, np.logspace(-2.0, 2.0, n_mu))
        pool, f = [], 0
        for blk in range(blocks):
            for kind in self.BLOCK:
                if kind == "mu":
                    pool.append(("mu", response[f]))
                    f += 1
                else:
                    pool.append(("synth", *self._instance(rng, *self.SYNTH[blk])))
        self.pool = pool
        self._mu = None

    @staticmethod
    def _plant_response(rng, omega):
        """G(jw) = C (jw - A)^{-1} B + D for a stable 4-state plant, scaled
        so that the peak mu over the grid lies in 1.2 .. 2."""
        V, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A = V @ np.diag(-(10.0 ** rng.uniform(-1.0, 1.0, 4))) @ V.T
        B, Cm = rng.standard_normal((4, 2)), rng.standard_normal((2, 4))
        D = 0.1 * rng.standard_normal((2, 2))
        G = np.array([Cm @ np.linalg.solve(1j * w * np.eye(4) - A, B) + D for w in omega])
        return G * (rng.uniform(1.2, 2.0) / C.mu_reference(G).max())

    @staticmethod
    def _instance(rng, shape, feasible):
        A2 = _contraction(rng, 1.0)
        A2 *= rng.uniform(0.3, 0.8) / C.mu_reference(A2)[0]
        zeta = _disc(rng, 1.0)
        A1 = np.zeros((2, 2), dtype=complex)
        if shape == "upper":
            A1[0, 1] = zeta
        elif shape == "lower":
            A1[1, 0] = zeta
        # the smallest |lambda0| that makes the instance feasible
        threshold = float(C.mu_reference(A2)[0]) if shape == "zero" else _quotient(_pi(A2))
        u = rng.uniform(0.2, 0.8)
        r = threshold + (1.0 - threshold) * u if feasible else threshold * u
        return r * _unit(rng), A1, A2

    def run(self, op):
        if op[0] == "mu":
            return {"mu": T.mu_diag(op[1])}
        _, l0, A1, A2 = op
        feasible, lift = T.synth_two_point(T.SynthesisInstance(l0, A1, A2))
        out = {"feasible": feasible}
        if feasible:
            out["lift"] = lift
            out["mus"] = [T.mu_diag(lift(lam)) for lam in AUDIT_LAMBDAS]
        return out

    def check(self, index, out):
        op = self.pool[index]
        if op[0] == "mu":
            if self._mu is None:
                mus = [i for i, o in enumerate(self.pool) if o[0] == "mu"]
                self._mu = dict(zip(mus, C.mu_reference([self.pool[i][1] for i in mus])))
            return C.close(out["mu"], self._mu[index], C.MU_RTOL)
        _, l0, A1, A2 = op
        shape = "upper" if A1[0, 1] else "lower" if A1[1, 0] else "zero"
        if shape == "zero":
            threshold = float(C.mu_reference(A2)[0])
        else:
            threshold = float(C.sampled_quotient([_pi(A2)])[0])
        r = abs(l0)
        if abs(threshold - r) > C.FEAS_RTOL * r and out["feasible"] != (threshold < r):
            return False
        if not out["feasible"]:
            return True
        lift = out["lift"]
        F0, F1 = lift(0.0), lift(l0)
        scale = 1.0 + float(np.abs(A2).max())
        corner = {"upper": abs(F0[1, 0]), "lower": abs(F0[0, 1]), "zero": 0.0}[shape]
        refs = C.mu_reference([lift(lam) for lam in AUDIT_LAMBDAS])
        return (
            float(np.abs(F1 - A2).max()) <= C.RESIDUAL_TOL * scale
            and max(abs(F0[0, 0]), abs(F0[1, 1]), corner) <= C.RESIDUAL_TOL
            and all(C.close(m, ref, C.MU_RTOL) for m, ref in zip(out["mus"], refs))
            and refs.max() <= 1.0 + C.MU_RTOL
        )


def _num(v):
    return repr(float(v))


def _cplx(z):
    z = complex(z)
    return f"[{_num(z.real)}, {_num(z.imag)}]"


def _point(x):
    return "[" + ", ".join(_cplx(c) for c in x) + "]"


def _matrix(A):
    return "[" + ", ".join(
        "[" + ", ".join(_cplx(A[i, j]) for j in (0, 1)) + "]" for i in (0, 1)
    ) + "]"


# the four argv that escape tetra.cli.run with a traceback (ROADMAP, Recent)
TRACEBACK_ARGV = (
    ("interp", "--lambda0", "NaN", "--point", "[0.5, 0.25, 0.5]"),
    ("--tol", "nan", "member", "--point", "[0.5, 0.25, 0.5]"),
    ("--tol", "-1", "member", "--closed", "--point", "[1, 1, 1]"),
    ("member", "--point", "[1e300, 1e300, 1e300]"),
)


class CliMix(Workload):
    """One op is one in-process ``tetra.cli.run(argv)`` with stdout and
    stderr captured."""

    BLOCK = (
        "member", "auto", "mu", "dist", "member_closed", "synth", "auto",
        "interp", "mu", "boundary", "member", "dist", "auto", "verify",
        "mu_oracle", "member_grid", "boundary_off", "dist_pair", "auto",
        "interp_sigma", "member", "synth", "mu", "usage_error", "traceback",
    )
    BLOCKS = 8
    TRACE_OPS = 800
    AUTO_OPS = ("diamond", "left", "right", "flip", "normalize")
    # every interpolant variant, flipped targets included
    INTERP_MODES = ("mobius", "line", "svd_t", "diag", "mobius_flip", "svd")

    def __init__(self, seed, workdir, blocks=None):
        import tetra.cli  # noqa: F401  (the entry module of this workload)

        rng = _rng(seed, 4)
        self.solution = Path(workdir) / f"solution-{int(seed)}.json"
        self.solution.parent.mkdir(parents=True, exist_ok=True)
        l0, x, _ = InterpAudit._instance(rng, "mobius")
        code, out, _ = self._call(("interp", "--lambda0", _cplx(l0), "--point", _point(x)))
        if code != 0:
            raise RuntimeError("could not write the solution file for `verify`")
        self.solution.write_text(out)
        counts = {}
        pool = []
        for _ in range(blocks or self.BLOCKS):
            for kind in self.BLOCK:
                k = counts.get(kind, 0)
                counts[kind] = k + 1
                pool.append((kind, *self._argv(rng, kind, k)))
        self.pool = pool
        self._checker = None
        self._seen = {}

    def _argv(self, rng, kind, k):
        """(argv, expect): expect names an independent semantic check."""
        if kind.startswith("member"):
            x = _sym_point(rng, rng.uniform(0.3, 1.5))
            argv = ("member", "--point", _point(x))
            if kind != "member":
                argv += ("--closed",)
            if kind == "member_grid":
                argv += ("--oracle-grid", "60")
            return argv, ("member", x)
        if kind.startswith("mu"):
            A = _gauss(rng, (2, 2)) * rng.uniform(0.2, 1.0)
            argv = ("mu", "--matrix", _matrix(A)) + (("--oracle",) if kind == "mu_oracle" else ())
            return argv, ("mu", A)
        if kind == "dist":
            return ("dist", "--from", _point(_sym_point(rng, rng.uniform(0.1, 0.9)))), None
        if kind == "dist_pair":
            a, b = _disc(rng, 0.8), _disc(rng, 0.8)
            y = _sym_point(rng, rng.uniform(0.1, 0.9))
            return ("dist", "--from", _point((a, b, a * b)), "--to", _point(y)), None
        if kind == "interp":
            mode = self.INTERP_MODES[k % len(self.INTERP_MODES)]
            l0, x, t = InterpAudit._instance(rng, mode)
            argv = ("interp", "--lambda0", _cplx(l0), "--point", _point(x))
            return argv + (("--t", _cplx(t)) if t else ()), None
        if kind == "interp_sigma":
            l0, x, sigma = InterpAudit._instance(rng, "sigma")
            argv = ("interp", "--lambda0", _cplx(l0), "--point", _point(x))
            return argv + ("--sigma", _num(sigma)), None
        if kind == "synth":
            l0, A1, A2 = MuSynth._instance(rng, "upper", True)
            return ("synth", "--lambda0", _cplx(l0), "--a1", _matrix(A1), "--a2", _matrix(A2)), None
        if kind == "boundary":
            return ("boundary", "--point", _point(_pi(_unitary(rng)))), None
        if kind == "boundary_off":
            return ("boundary", "--point", _point(_sym_point(rng, rng.uniform(0.1, 0.9)))), None
        if kind == "verify":
            return ("verify", "--interpolant", str(self.solution)), None
        if kind == "usage_error":
            return ("auto", "--op", "diamond", "--x", _point(_sym_point(rng, 0.5))), None
        if kind == "traceback":
            return TRACEBACK_ARGV[k % len(TRACEBACK_ARGV)], None
        op = self.AUTO_OPS[k % len(self.AUTO_OPS)]
        if op == "normalize":
            a, b = _disc(rng, 0.8), _disc(rng, 0.8)
            return ("auto", "--op", op, "--x", _point((a, b, a * b))), None
        argv = ("auto", "--op", op, "--x", _point(_sym_point(rng, rng.uniform(0.1, 0.7))))
        if op == "diamond":
            argv += ("--y", _point(_sym_point(rng, rng.uniform(0.1, 0.7))))
        elif op in ("left", "right"):
            argv += ("--omega", _cplx(_unit(rng)), "--alpha", _cplx(_disc(rng, 0.8)))
        return argv, None

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = T.cli.run(list(argv))
        return code, out.getvalue(), err.getvalue()

    def run(self, op):
        return self._call(op[1])

    def check(self, index, out):
        key = (index, *out)
        if key not in self._seen:
            self._seen[key] = self._check(index, *out)
        return self._seen[key]

    def _check(self, index, code, out, err):
        if self._checker is None:
            self._checker = C.CliChecker(Path(T.__file__).parent / "schemas")
        kind, argv, expect = self.pool[index]
        command = next(a for a in argv if a in spec.CLI_SUBCOMMANDS)
        doc = self._checker.document(command, code, out, err)
        if doc is None or (kind == "usage_error") != (code == 1):
            return False
        if expect is None:
            return True
        if expect[0] == "member":
            norm = float(C.point_norm([expect[1]])[0])
            in_set = doc["report"]["in_set"]
            return C.verdict_ok(in_set, norm) and code == (0 if in_set else 2)
        return C.close(doc["mu"], float(C.mu_reference(expect[1])[0]), C.MU_RTOL)

    def output_digest(self):
        """sha256 of every stdout and stderr byte one pass over the pool
        emits, in pool order."""
        h = hashlib.sha256()
        for _, argv, _ in self.pool:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    T.cli.run(list(argv))
                except Exception:  # an escaped traceback emits nothing more
                    pass
            h.update(out.getvalue().encode())
            h.update(err.getvalue().encode())
        return h.hexdigest()


WORKLOADS = {
    "geometry_scan": GeometryScan,
    "interp_audit": InterpAudit,
    "mu_synth": MuSynth,
    "cli_mix": CliMix,
}
