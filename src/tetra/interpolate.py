"""Two-point matrix interpolation into the tetrablock (the Schwarz lemma).

Given lambda0 in the punctured disc and x in E, construct an analytic map
phi of the disc into E with phi(0) = (0,0,0) and phi(lambda0) = x, together
with a 2x2 Schur-class lift F (op_norm(F) <= 1 pointwise, pi(F) = phi,
F(0) = [[0, *], [0, 0]]).  Feasibility is decided by the closed-form
two-quotient criterion; the construction routes through:

* a scaled line for triangular targets,
* the matricial Moebius transport of a constant rank-one function for
  strictly interior non-triangular targets (the M(rho)/u/v machinery, in
  closed form on the four entries of Z, with no eigensolver or matrix
  inverse), evaluated as the pencil F(lam) = (C0 + s(lam) C1) diag(lam, 1)
  that the Sherman-Morrison formula gives for a rank-one constant, built
  in the same scalar pass as the workspace (see _mobius),
* an SVD reduction to a scalar two-point Nevanlinna-Pick problem in the
  extremal case (and for the non-uniqueness family),
* the one-parameter sigma family of interpolants sweeping all admissible
  off-diagonal scalings.

Interpolants are verifiable objects: sampled membership, lift norm and
endpoint residuals are recomputed from scratch by ``verify_interpolant``.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .autgroup import pseudohyperbolic
from .errors import (
    BadLambda,
    BadPayload,
    BadShape,
    BadSamples,
    Extremal,
    Infeasible,
    InfeasiblePick,
    NonFinite,
    NormTooLarge,
    NumericalDegenerate,
    OutsideDisc,
    PositiveDefinite,
    SigmaOutOfRange,
    Triangular,
    Unsupported,
    ZeroAlpha,
)
from .linalg import (
    CMat2,
    CVec2,
    _abs2,
    _cdiv,
    _cmul,
    _entries,
    _herm2_spectrum,
    _isqrt_times,
    _require_contraction,
    _right_const,
    as_cmat2,
    mat2,
    op_norm,
    pi_map,
    principal_sqrt,
)
from .tetrablock import (
    CPoint3,
    _check_tol,
    _margins,
    as_cpoint3,
    criterion_max,
    is_triangular,
    membership,  # noqa: F401  (kept importable from here)
)

EXTREMAL_RTOL = 1e-10   # |max quotient - |lambda0|| below this is extremal
_B_ZERO = 1e-13         # |b| below this routes to the b = 0 line branch
_U_TINY = 1e-13         # ||u|| below this leaves the Moebius transport undefined
_ALPHA_TOL = 1e-9       # choose_alpha's bound on the smallest eigenvalue
_VARIANTS = ("scaled_line", "mobius_blaschke", "svd_reduced", "sigma_family")


def _check_lambda0(lam0) -> complex:
    l0 = complex(lam0)
    if abs(l0) < 1e-15 or abs(l0) >= 1.0:
        raise BadLambda(f"lambda0 must satisfy 0 < |lambda0| < 1, got {l0}")
    return l0


def _check_t(t: complex) -> None:
    # written so that a NaN fails
    if not abs(t) <= 1.0 + 1e-12:
        raise OutsideDisc(f"|t| = {abs(t):.6f} is not at most 1")


def schwarz_feasible(lam0, x) -> tuple[bool, float]:
    """Decide solvability of the two-point problem 0 -> 0, lambda0 -> x.

    Feasible exactly when the two-quotient maximum is <= |lambda0|, up to
    the extremal band ``EXTREMAL_RTOL * |lambda0|``, which every two-point
    solver shares; the returned margin is |lambda0| minus that maximum.
    """
    l0 = _check_lambda0(lam0)
    margin = abs(l0) - criterion_max(x)
    return (margin >= -EXTREMAL_RTOL * abs(l0), margin)


def big_m(Z, rho: float) -> CMat2:
    """The Hermitian pivot matrix M(rho) of the interpolation machinery.

    Entries (with Y = 1 - Z*Z and W = 1 - ZZ*):
    [1,1] = [(1 - rho^2 Z*Z) Y^{-1}]_11, [2,2] = [(ZZ* - rho^2) W^{-1}]_22,
    [1,2] = [(1-rho^2) Z* W^{-1}]_12, [2,1] = [(1-rho^2) W^{-1} Z]_21,
    then symmetrised.  A vector alpha with <M alpha, alpha> <= 0 certifies
    solvability of X* u(alpha) = v(alpha) with ||X|| <= rho; the identity
    ||v(alpha)||^2 - rho^2 ||u(alpha)||^2 = <M(rho) alpha, alpha> pins the
    index conventions and is enforced by the test suite.
    """
    Zm = as_cmat2(Z)
    rho = float(rho)
    if not 0.0 <= rho < 1.0:
        raise BadLambda(f"rho must lie in [0, 1), got {rho}")
    _require_contraction(Zm)
    z = Zm.ravel().tolist()
    m11, m12, m22 = _big_m(z, *_defects(z), rho)
    return mat2(m11, m12, m12.conjugate(), m22)


def _defects(z):
    """Y = 1 - Z*Z and W = 1 - ZZ* of a contraction Z with entries z = [z11,
    z12, z21, z22], each as its Hermitian entries (p11, p12, p22) and its
    determinant; NumericalDegenerate where rounding leaves one singular.  On
    contractions 1e-1 to 1e-6 from the unit sphere, each is within 0.92 eps
    absolute of 50 digits (six seeds: 0.95)."""
    z11, z12, z21, z22 = z
    n11, n12, n21, n22 = _abs2(z11), _abs2(z12), _abs2(z21), _abs2(z22)
    y11, y22 = 1.0 - n11 - n21, 1.0 - n12 - n22
    w11, w22 = 1.0 - n11 - n12, 1.0 - n21 - n22
    y12 = -(z11.conjugate() * z12 + z21.conjugate() * z22)
    w12 = -(z11 * z21.conjugate() + z12 * z22.conjugate())
    dy, dw = y11 * y22 - _abs2(y12), w11 * w22 - _abs2(w12)
    if not (dy > 0.0 and dw > 0.0):
        raise NumericalDegenerate("1 - Z*Z is singular to working precision")
    return (y11, y12, y22, dy), (w11, w12, w22, dw)


def _big_m(z, Y, W, rho: float) -> tuple[float, complex, float]:
    """(m11, m12, m22) of M(rho) (see :func:`big_m`), from Z's entries and
    the defects Y, W of :func:`_defects`: with c = 1 - rho^2 the display's
    entries are c (Y^{-1})_11 + rho^2, c (W^{-1})_22 - 1 and c (Z* W^{-1})_12,
    each inverse the adjugate over the determinant; [2,1] is conj([1,2]).
    Within 3.62 eps (normwise, relative) of itself at 50 digits, and 0.92 eps
    ||Y^-1|| of the display with exact Y, W, on _defects' pool (six seeds:
    3.62, 0.94)."""
    y22, dy = Y[2], Y[3]
    w11, w12, dw = W[0], W[1], W[3]
    r2 = rho * rho
    c = 1.0 - r2
    m12 = c * (w11 * z[2].conjugate() - w12 * z[0].conjugate()) / dw
    return c * y22 / dy + r2, m12, c * w11 / dw - 1.0


def uv_vectors(Z, alpha) -> tuple[CVec2, CVec2]:
    """The vector pair u(alpha) = (1-ZZ*)^{-1/2}(alpha1 Z e1 + alpha2 e2),
    v(alpha) = -(1-Z*Z)^{-1/2}(alpha1 e1 + alpha2 Z* e2); NonFinite for a
    non-finite alpha or where u or v overflows."""
    Zm = as_cmat2(Z)
    a = np.asarray(alpha, dtype=complex).ravel()
    if a.shape != (2,):
        raise BadShape(f"alpha must have 2 entries, got {a.size}")
    a = a.tolist()
    if math.hypot(abs(a[0]), abs(a[1])) < 1e-15:
        raise ZeroAlpha("alpha must be nonzero")
    _require_contraction(Zm)
    z = Zm.ravel().tolist()
    _, u, v = _uv_cores(z, *_defects(z), *a)
    if not all(map(cmath.isfinite, u + v)):  # a NaN or inf in alpha gets here too
        raise NonFinite("u(alpha), v(alpha) are not finite")
    return np.array(u), np.array(v)


def _uv_cores(z, Y, W, a1, a2):
    """((g1, g2, h1, h2), u, v): u(a), v(a) of :func:`uv_vectors` and their
    cores g = (1-ZZ*)^{1/2} u, h = -(1-Z*Z)^{1/2} v, from Z's entries and
    the defects Y, W of :func:`_defects`.  Against 50 digits on _choose_alpha's
    alphas: the cores within 1.03 eps relative, u, v within 5.45 eps sqrt(cond)
    of the same expression and 0.37 eps ||Y^-1|| of exact Y, W (six seeds:
    2.97, 5.45, 0.45)."""
    g1, g2 = a1 * z[0], a1 * z[2] + a2
    h1, h2 = a1 + a2 * z[2].conjugate(), a2 * z[3].conjugate()
    v1, v2 = _isqrt_times(*Y, h1, h2)
    return (g1, g2, h1, h2), _isqrt_times(*W, g1, g2), (-v1, -v2)


def choose_alpha(M) -> CVec2:
    """Unit eigenvector of a Hermitian M for its smallest eigenvalue, with
    the first nonzero component rotated to the positive real axis (a fixed
    phase so runs are reproducible).  Requires min eig <= 1e-9.  Computed in
    closed form from the entries of (M + M*)/2, with no eigensolver: see
    :func:`_choose_alpha`."""
    m11, m12, m21, m22 = as_cmat2(M).ravel().tolist()
    h12 = (m12 + m21.conjugate()) / 2.0
    return np.array(_choose_alpha(m11.real, h12, m22.real))


def _choose_alpha(h11: float, h12: complex, h22: float) -> tuple[complex, complex]:
    """:func:`choose_alpha` of H = [[h11, h12], [conj h12, h22]].  With lam
    its least eigenvalue (h11 + h22)/2 - hypot((h11 - h22)/2, |h12|), the
    rows of H - lam I give the eigenvectors (h12, lam - h11) and (lam - h22,
    conj h12); the longer is taken, or e1 when both vanish (H = lam I).  Against
    50 digits, the error times gap/||H|| is within 0.83 eps and the residual
    ||(H - lam) a|| within 0.38 eps ||H||, on M of _big_m's pool (six seeds:
    1.06, 0.38)."""
    lam = _herm2_spectrum(h11, h12, h12.conjugate(), h22)[0]
    if lam > _ALPHA_TOL:
        raise PositiveDefinite(
            f"min eigenvalue {lam:.3e} > {_ALPHA_TOL:.1e}: no admissible alpha"
        )
    n1, n2 = math.hypot(abs(h12), lam - h11), math.hypot(lam - h22, abs(h12))
    if n1 == n2 == 0.0:
        return 1 + 0j, 0j
    if n1 >= n2:
        a = (h12 / n1, (lam - h11) / n1)
    else:
        a = ((lam - h22) / n2, h12.conjugate() / n2)
    c = a[0] if abs(a[0]) > 1e-12 else a[1]
    phase = c.conjugate() / abs(c)
    return a[0] * phase, a[1] * phase


@dataclass(frozen=True)
class SchwarzWorkspace:
    """Frozen bundle of the interpolation data at one (lambda0, x), in six
    fields: lambda0, the matrix Z (with optional off-diagonal scaling sigma),
    the pivot M(|lambda0|), the chosen alpha and the vectors u, v.  ``build``
    checks its arguments, and :func:`_mobius` computes the fields in scalar
    arithmetic on Z's four entries: the defects 1 - Z*Z and 1 - ZZ* once, M
    from their adjugates, alpha in closed form, and u, v through the
    closed-form inverse square roots of the defects, stored as arrays."""

    lambda0: complex
    Z: CMat2
    M: CMat2
    alpha: CVec2
    u: CVec2
    v: CVec2

    @staticmethod
    def build(lam0, x, sigma: float = 1.0) -> "SchwarzWorkspace":
        l0 = _check_lambda0(lam0)
        if not 0.0 < sigma < math.inf:
            raise SigmaOutOfRange(f"sigma must be positive and finite, got {sigma}")
        return _mobius(l0, as_cpoint3(x), sigma)[0]


def _blaschke(a: complex, lam):
    """(lam - a) / (1 - conj(a) lam), elementwise over an array lam."""
    return _cdiv(lam - a, 1.0 - _cmul(a.conjugate(), lam))


def _schur_step(w: complex, b, v):
    """(w + b v) / (1 + conj(w) b v), elementwise: one Schur-algorithm step
    with value w, Blaschke factor b and the inner function's value v."""
    return _cdiv(w + _cmul(b, v), 1.0 + _cmul(_cmul(w.conjugate(), b), v))


def scalar_np2(lam1, v1, lam2, v2, t=0.0):
    """Scalar two-point Nevanlinna-Pick interpolant on the disc.

    Returns a Schur-class evaluator g with g(lam1) = v1, g(lam2) = v2,
    built by one Schur step; when the data are strictly sub-extremal the
    free Schur parameter t in the closed unit disc selects among the
    solutions (distinct t give distinct g), otherwise the solution is the
    unique Blaschke-type one and t is ignored.  g maps a scalar to a
    complex and an array of points to the array of values.
    """
    l1, l2 = complex(lam1), complex(lam2)
    w1, w2 = complex(v1), complex(v2)
    tc = complex(t)
    if not (abs(l1) < 1.0 and abs(l2) < 1.0):  # written so that a NaN fails
        raise BadLambda("interpolation nodes must lie in the open disc")
    if abs(l1 - l2) < 1e-15:
        raise BadLambda("interpolation nodes must be distinct")
    _check_t(tc)
    if not (abs(w1) <= 1.0 and abs(w2) <= 1.0):
        raise InfeasiblePick("target values must lie in the closed disc")

    d_nodes = pseudohyperbolic(l1, l2)
    d_vals = abs(w1 - w2) / abs(1.0 - w1.conjugate() * w2) if abs(w1) < 1.0 else (
        0.0 if abs(w1 - w2) < 1e-12 else math.inf
    )
    if d_vals > d_nodes + 1e-12 * (1.0 + d_nodes):
        raise InfeasiblePick(
            f"d(values) = {d_vals:.12f} exceeds d(nodes) = {d_nodes:.12f}"
        )
    if abs(w1) >= 1.0:
        # unimodular value forces the constant by the maximum principle
        return _Bound((_constant, w1))

    b1_at_l2 = (l2 - l1) / (1.0 - l1.conjugate() * l2)
    h2 = ((w2 - w1) / (1.0 - w1.conjugate() * w2)) / b1_at_l2
    pinned = abs(h2) >= 1.0 - 1e-13
    if pinned:
        h2 = h2 / abs(h2)
    return _Bound((_two_step, w1, l1, l2, h2, pinned, tc))


class _Bound(tuple):
    """(f, *args) called as f(*args, lam): a lift or scalar interpolant that
    holds only the values it reads, as a bare tuple rather than a closure,
    because callers may keep many interpolants."""
    __slots__ = ()

    def __call__(self, lam):
        return self[0](*self[1:], lam)


def _constant(w: complex, lam):
    """w at a point, or at each point of an array."""
    return w if np.ndim(lam) == 0 else np.full(np.shape(lam), w)


def _two_step(w1, l1, l2, h2, pinned, tc, lam):
    """scalar_np2's interpolant: two Schur steps, the inner one with the free
    parameter tc unless the data pin it."""
    lamc = np.asarray(lam, dtype=complex)
    hv = h2 if pinned else _schur_step(h2, _blaschke(l2, lamc), tc)
    out = _schur_step(w1, _blaschke(l1, lamc), hv)
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(slots=True, eq=False)
class Interpolant:
    """A constructed interpolant: phi = pi . F for a Schur-class lift F.

    ``evaluate(lam)`` returns phi(lam) in C^3 and ``lift_evaluate(lam)``
    the 2x2 matrix F(lam); given a 1-D array of n points they return the
    three coordinate arrays and the (n, 2, 2) stack of lifts.  Variants are
    ``scaled_line`` (triangular or b = 0 targets), ``mobius_blaschke``
    (strict interior), ``svd_reduced`` (extremal boundary, reduced to a
    scalar two-point problem), and ``sigma_family`` (the one-parameter family).
    ``flipped`` records the coordinate flip applied when |x1| < |x2| (the
    lift is transposed and conjugated by the permutation matrix on the way
    out).  ``_lift``, the variant's lift, is built by the solver branch that
    picks the variant and holds only the arrays it reads; it maps a point,
    or each point of a 1-D array, to the unflipped 2x2 lift there.
    """

    variant: str
    lambda0: complex
    x: CPoint3
    Z: CMat2 | None = None
    u: CVec2 | None = None
    v: CVec2 | None = None
    sigma: float | None = None
    t: complex = 0j
    flipped: bool = False
    mode: str | None = None
    _scalar_params: tuple | None = field(default=None, repr=False)
    _lift: object = field(kw_only=True, repr=False)

    def lift_evaluate(self, lam):
        """F(lam) for a point of the closed disc, or the (n, 2, 2) stack of
        F at each point of a 1-D array.  A Python or NumPy number is lifted
        in complex scalars, bit for bit as its row of the stack (but for the
        svd_reduced variant, whose factors come from LAPACK)."""
        if isinstance(lam, (int, float, complex, np.number)):
            lams = complex(lam)
            radius = abs(lams)
        else:
            lams = np.asarray(lam, dtype=complex)
            if lams.ndim > 1:
                raise BadLambda(f"expected a point or a 1-D array, got shape {lams.shape}")
            radius = np.abs(lams).max(initial=0.0)
        if not radius <= 1.0 + 1e-12:  # written so that a NaN fails
            raise OutsideDisc(f"|lambda| = {radius:.6f} is not at most 1")
        F = self._lift(lams)
        if self.flipped:
            F = np.ascontiguousarray(F[..., ::-1, ::-1].swapaxes(-1, -2))
        return F

    def evaluate(self, lam):
        """phi(lam) = pi(F(lam)) as a point of C^3, or as three coordinate
        arrays for a 1-D array of points."""
        return pi_map(self.lift_evaluate(lam))

    def to_payload(self) -> dict:
        def c2l(z):
            z = complex(z)
            return [z.real, z.imag]

        payload = {
            "variant": self.variant,
            "lambda0": c2l(self.lambda0),
            "x": [c2l(c) for c in self.x],
            "t": c2l(self.t),
            "flipped": self.flipped,
        }
        if self.sigma is not None:
            payload["sigma"] = float(self.sigma)
        if self.mode is not None:
            payload["mode"] = self.mode
        if self.Z is not None:
            payload["Z"] = [[c2l(self.Z[i, j]) for j in (0, 1)] for i in (0, 1)]
        if self._scalar_params is not None:
            l1, w1, l2, w2, tc = self._scalar_params
            payload["scalar"] = {
                "lambda1": c2l(l1), "value1": c2l(w1),
                "lambda2": c2l(l2), "value2": c2l(w2), "t": c2l(tc),
            }
        return payload

    @staticmethod
    def from_payload(payload: dict) -> "Interpolant":
        """Rebuild deterministically by re-solving from (lambda0, x) and the
        recorded variant parameters, then cross-check the stored Z.  Raises
        BadPayload when the payload does not have that form."""
        if not isinstance(payload, dict):
            raise BadPayload(f"a payload is a JSON object, got {payload!r}")
        variant = payload.get("variant")
        if not isinstance(variant, str) or variant not in _VARIANTS:
            raise BadPayload(f"unknown interpolant variant {variant!r}")
        l0 = _payload_complex(payload.get("lambda0"), "lambda0")
        x = _payload_list(payload.get("x"), 3, "x")
        x = tuple(_payload_complex(c, "x") for c in x)
        t = _payload_complex(payload.get("t", [0.0, 0.0]), "t")
        if variant == "sigma_family":
            sigma = payload.get("sigma")
            if not isinstance(sigma, (int, float)) or isinstance(sigma, bool):
                raise BadPayload(f"payload entry 'sigma' is not a number: {sigma!r}")
            phi = solve_with_sigma(l0, x, sigma)
        else:
            phi = solve_schwarz(l0, x, t=t)
        if phi.variant != variant:
            raise NumericalDegenerate(
                f"payload says {variant!r} but re-solving gives {phi.variant!r}"
            )
        if "Z" in payload and phi.Z is not None:
            Zs = np.array([
                [_payload_complex(z, "Z") for z in _payload_list(row, 2, "Z")]
                for row in _payload_list(payload["Z"], 2, "Z")
            ])
            if float(np.max(np.abs(Zs - phi.Z))) > 1e-9:
                raise NumericalDegenerate("stored Z disagrees with the re-solve")
        return phi


def _payload_list(v, n: int, key: str) -> list:
    """The payload entry ``key`` (or one of its rows), a list of n items."""
    if not isinstance(v, list) or len(v) != n:
        raise BadPayload(f"payload entry {key!r} must be a list of {n}, got {v!r}")
    return v


def _payload_complex(v, key: str) -> complex:
    """A complex number stored as an [re, im] pair of finite JSON numbers."""
    try:
        if all(
            isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)
            for c in _payload_list(v, 2, key)
        ):
            return complex(*v)
    except OverflowError:  # an integer past the float range
        pass
    raise BadPayload(f"payload entry {key!r} is not a finite [re, im] pair: {v!r}")


def _diag_scaled(f11, f12, f21, f22, lam):
    """[[f11, f12], [f21, f22]] diag(lam, 1) at a point, or its (n, 2, 2) stack
    at a 1-D array, each entry a scalar or an array of one value per point.
    NumPy's product scales the first column: it rounds a point as it rounds
    the point's row of the stack, and Python's product does not."""
    F = np.empty(getattr(lam, "shape", ()) + (2, 2), dtype=complex)
    F[..., 0, 0], F[..., 0, 1], F[..., 1, 0], F[..., 1, 1] = f11, f12, f21, f22
    F[..., 0] *= lam[..., None] if F.ndim > 2 else lam
    return F


def _times_diag(G, lam):
    """G diag(lam, 1) for a 2x2 matrix or a stack G (one matrix G serves
    every point): its first column scaled by the point."""
    return _diag_scaled(*_entries(G), lam)


def _mobius(l0: complex, x: CPoint3, sigma: float):
    """(workspace, lift) at checked (lambda0, x, sigma), in one scalar pass.

    The lift is F = M_{-Z}(beta Q0) diag(lam, 1) with beta(lam) =
    (lambda0 - lam)/(1 - conj(lambda0) lam), as a pencil: for X = beta Q0 = c u v*,
    Sherman-Morrison gives (X + Z)(1 + Z*X)^{-1} = Z + c (1-ZZ*) u v*/(1 + c v*Z*u),
    so F = (C0 + s C1) diag(lam, 1) for C0 = (1-ZZ*)^{-1/2} Z (1-Z*Z)^{1/2}, C1 =
    -g h*/(lambda0 |u|^2) (g, h of _uv_cores) and s = beta/(1 + kappa beta) =
    (lambda0 - lam)/(d0 - d1 lam) with kappa = v*Z*u/(lambda0 |u|^2).  As
    Z (1-Z*Z)^{1/2} = (1-ZZ*)^{1/2} Z, C0 is Z itself, so F(lambda0) has exactly
    Z's second column."""
    a, b, p = x
    w = principal_sqrt((a * b - p) / l0)
    z = [a / l0, sigma * w, w / sigma, b]
    if not all(map(cmath.isfinite, z)):  # overflow: x and lambda0 are finite
        raise NormTooLarge("op_norm(Z) overflows: not strictly interior")
    Z = mat2(*z)
    _require_contraction(Z, ": not strictly interior")
    Y, W = _defects(z)
    m11, m12, m22 = _big_m(z, Y, W, abs(l0))
    alpha = _choose_alpha(m11, m12, m22)
    (g1, g2, h1, h2), (u1, u2), (v1, v2) = _uv_cores(z, Y, W, *alpha)
    nu2 = _abs2(u1) + _abs2(u2)
    if nu2 < _U_TINY ** 2:
        raise NumericalDegenerate("u(alpha) vanished; rank-one transport undefined")
    scale = l0 * nu2
    zv1, zv2 = z[0] * v1 + z[1] * v2, z[2] * v1 + z[3] * v2  # v*Z*u = (Zv)* u
    kappa = (zv1.conjugate() * u1 + zv2.conjugate() * u2) / scale
    h1, h2 = h1.conjugate() / -scale, h2.conjugate() / -scale
    C1 = mat2(g1 * h1, g1 * h2, g2 * h1, g2 * h2)
    return SchwarzWorkspace(
        l0, Z, mat2(m11, m12, m12.conjugate(), m22),
        np.array(alpha), np.array([u1, u2]), np.array([v1, v2]),
    ), _Bound((_pencil, l0, 1 + kappa * l0, l0.conjugate() + kappa, Z, C1))


def _pencil(l0, d0, d1, C0, C1, lam):
    """(C0 + s C1) diag(lam, 1), s = (l0 - lam)/(d0 - d1 lam): the lift of
    _mobius, whose C0 is the interpolant's own Z; s and each z + s c round at
    a point as at each point of an array (:func:`_cdiv`, :func:`_cmul`)."""
    s = _cdiv(l0 - lam, d0 - _cmul(d1, lam))
    C = zip(C0.ravel().tolist(), C1.ravel().tolist())
    return _diag_scaled(*[z + _cmul(s, c) for z, c in C], lam)


def _times_point(G, lam):
    """G scaled by the point, or the stack of G scaled by each point."""
    return np.asarray(lam)[..., None, None] * G


def _svd_lift(U, Vh, c, scalar, lam):
    """U diag(c, scalar(lam)) Vh diag(lam, 1), the svd_reduced lift."""
    d = np.empty(np.shape(lam) + (2,), dtype=complex)
    d[..., 0] = c
    d[..., 1] = scalar(lam)
    return _times_diag(_right_const(U * d[..., None, :], Vh), lam)


def solve_schwarz(lam0, x, t=0j) -> Interpolant:
    """Construct an interpolant phi with phi(0) = 0, phi(lambda0) = x.

    Branches: b = 0 and triangular targets get scaled-line solutions; a
    strictly interior non-triangular target gets the Moebius transport of
    the constant rank-one function; an extremal target (two-quotient max
    equal to |lambda0| within 1e-10 relative) is reduced by SVD to a scalar
    two-point problem, where the Schur parameter ``t`` selects among the
    solutions.  Targets with |x1| < |x2| are flipped, solved, and the lift
    flipped back.  Raises Infeasible when the criterion fails.
    """
    l0 = _check_lambda0(lam0)
    t = complex(t)
    _check_t(t)
    xp = as_cpoint3(x)
    feasible, margin = schwarz_feasible(l0, xp)
    if not feasible:
        raise Infeasible(f"feasibility margin {margin:.3e} is below the extremal band")

    a, b, p = xp
    flipped = abs(a) < abs(b)
    if flipped:
        a, b = b, a
    xs = (a, b, p)
    w = principal_sqrt((a * b - p) / l0)

    if abs(b) < _B_ZERO:
        Z = mat2(a / l0, w, w, 0.0)
        return Interpolant(
            variant="scaled_line", lambda0=l0, x=xp, Z=Z,
            t=t, flipped=flipped, mode="line",
            _lift=_Bound((_times_diag, Z)),
        )

    if is_triangular(xs):
        Z = mat2(a / l0, 0.0, 0.0, b / l0)
        return Interpolant(
            variant="scaled_line", lambda0=l0, x=xp, Z=Z,
            t=t, flipped=flipped, mode="diag",
            _lift=_Bound((_times_point, Z)),
        )

    if margin <= EXTREMAL_RTOL * abs(l0):
        Z = mat2(a / l0, w, w, b)
        U, S, Vh = np.linalg.svd(Z)
        c = min(float(S[0]), 1.0)
        s = float(S[1])
        den = U[1, 1] * Vh[1, 1]
        num = c * U[1, 0] * Vh[0, 1]
        if abs(den) < 1e-13 and not abs(num) < 1e-13:
            raise NumericalDegenerate(
                "SVD reduction denominator vanished with nonzero numerator")
        g0 = 0j if abs(den) < 1e-13 else -num / den
        scalar = scalar_np2(0.0, g0, l0, s, t)
        return Interpolant(
            variant="svd_reduced", lambda0=l0, x=xp, Z=Z, t=t, flipped=flipped,
            _scalar_params=(0.0 + 0.0j, complex(g0), l0, complex(s), t),
            _lift=_Bound((_svd_lift, U, Vh, c, scalar)),
        )

    ws, lift = _mobius(l0, xs, 1.0)
    return Interpolant(
        variant="mobius_blaschke", lambda0=l0, x=xp, Z=ws.Z, u=ws.u, v=ws.v,
        t=t, flipped=flipped, _lift=lift,
    )


@dataclass(frozen=True)
class AllSolutionsParams:
    """Scalars of the one-parameter solution family: Y1, Y2, K and the
    reciprocal root pair xi1 <= 1 <= xi2 of xi + 1/xi = Y2; sigma is
    admissible exactly when xi1 < sigma^2 < xi2."""

    Y1: float
    Y2: float
    K: float
    xi1: float
    xi2: float


def all_solutions_params(lam0, x) -> AllSolutionsParams:
    """Family parameters for a strictly interior non-triangular target with
    |b| <= |a|; Extremal (empty family) at the feasibility boundary."""
    l0 = _check_lambda0(lam0)
    a, b, p = as_cpoint3(x)
    if is_triangular((a, b, p)):
        raise Triangular("the sigma family requires ab != p")
    if abs(b) > abs(a):
        raise Unsupported(
            "family parameters assume |b| <= |a|; apply the coordinate flip"
        )
    feasible, margin = schwarz_feasible(l0, (a, b, p))
    if not feasible:
        raise Infeasible(f"feasibility margin {margin:.3e} is below the extremal band")
    if margin <= EXTREMAL_RTOL * abs(l0):
        raise Extremal("at the feasibility boundary Y2 = 2 and the family is empty")
    r = abs(a * b - p)
    al = abs(l0)
    y1 = al * (1.0 - abs(a) ** 2 - abs(b / l0) ** 2 + abs(p / l0) ** 2) / r
    y2 = al * (1.0 - abs(a / l0) ** 2 - abs(b) ** 2 + abs(p / l0) ** 2) / r
    k = al * (1.0 - abs(b) ** 2) / r
    xi2 = (y2 + math.sqrt(max(y2 * y2 - 4.0, 0.0))) / 2.0
    return AllSolutionsParams(Y1=y1, Y2=y2, K=k, xi1=1.0 / xi2, xi2=xi2)


def solve_with_sigma(lam0, x, sigma) -> Interpolant:
    """Member of the one-parameter family with off-diagonal scaling sigma:
    Z(sigma) = [[a/lambda0, sigma w], [w/sigma, b]], lift F(lambda0) =
    [[a, sigma w], [lambda0 w / sigma, b]].  Requires xi1 < sigma^2 < xi2."""
    l0 = _check_lambda0(lam0)
    xp = as_cpoint3(x)
    try:
        sig = float(sigma)
    except OverflowError:  # an integer past the float range
        sig = math.inf if sigma > 0 else -math.inf
    if not sig > 0.0:
        raise SigmaOutOfRange(f"sigma must be positive, got {sigma}")
    params = all_solutions_params(l0, xp)
    s2 = sig * sig
    if not params.xi1 < s2 < params.xi2:
        raise SigmaOutOfRange(
            f"sigma^2 = {s2:.12f} outside ({params.xi1:.12f}, {params.xi2:.12f})"
        )
    ws, lift = _mobius(l0, xp, sig)
    return Interpolant(
        variant="sigma_family", lambda0=l0, x=xp, Z=ws.Z, u=ws.u, v=ws.v,
        sigma=sig, flipped=False, _lift=lift,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Recomputed-from-scratch audit of one interpolant: endpoint residuals,
    worst sampled membership-margin violation, worst lift-norm excess, the
    lift/value consistency gap and the F(0) zero-column residual."""

    passed: bool
    samples: int
    seed: int
    tol: float
    endpoint_zero: float
    endpoint_target: float
    margin_violation: float
    lift_norm_excess: float
    lift_consistency: float
    zero_column: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def verify_interpolant(phi: Interpolant, samples: int = 500, seed: int = 0,
                       tol: float = 1e-9) -> VerificationReport:
    """Sample-based audit of an interpolant against its contract.

    Draws ``samples`` points of the disc (half uniform in area, half pushed
    toward the boundary), and checks closure membership of phi(lambda), the
    Schur bound on the lift, both endpoint values and the zero first column
    of the lift at 0, from one batched lift at the samples and both nodes.
    Deterministic given (seed, samples); samples < 1 raises BadSamples, and
    so do samples above 100 000 (each adds about 0.3 KB of peak memory);
    a NaN, infinite or negative tol raises BadTolerance (tol = 0 is valid).
    """
    n = int(samples)
    if not 1 <= n <= 100_000:
        raise BadSamples(f"the audit needs 1 to 100000 samples, got {n}")
    tol = _check_tol(tol)
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    radii = np.empty(n)
    half = n // 2
    radii[:half] = np.sqrt(rng.uniform(0.0, 1.0, half))
    radii[half:] = 1.0 - 10.0 ** rng.uniform(-4.0, -1.0, n - half)
    lams = radii * np.exp(1j * angles)

    F = phi.lift_evaluate(np.append(lams, [0.0, phi.lambda0]))
    x = pi_map(F)
    x1, x2, x3 = (c[:n] for c in x)
    m3, m3p, *_ = _margins(abs(x1), abs(x2), abs(x3), abs(x1 - x2.conjugate() * x3),
                           abs(x2 - x1.conjugate() * x3), abs(x1 * x2 - x3))
    worst_margin = float(np.max(-np.minimum(m3, m3p), initial=0.0))
    worst_norm = float(np.max(op_norm(F[:n]) - 1.0, initial=0.0))

    endpoint_zero = float(max(abs(c[n]) for c in x))
    endpoint_target = float(max(abs(c[n + 1] - d) for c, d in zip(x, phi.x)))
    zero_column = float(np.max(np.abs(F[n, :, 0])))

    passed = (
        endpoint_zero <= tol
        and endpoint_target <= tol
        and worst_margin <= tol
        and worst_norm <= tol
        and zero_column <= tol
    )
    return VerificationReport(
        passed=passed, samples=n, seed=int(seed), tol=tol,
        endpoint_zero=endpoint_zero, endpoint_target=endpoint_target,
        margin_violation=worst_margin, lift_norm_excess=worst_norm,
        # evaluate is pi . lift_evaluate, so the two agree by construction
        lift_consistency=0.0, zero_column=zero_column,
    )
