"""The tetrablock domain E in C^3.

E is the set of points x = (x1, x2, x3) such that 1 - x1*z - x2*w + x3*z*w
does not vanish for |z| <= 1, |w| <= 1; equivalently the image of the open
2x2 matrix unit ball under A -> (a11, a22, det A).  This module implements:

* the linear-fractional maps Psi/Upsilon and the sup-norm quantity D(x),
* the nine equivalent membership characterisations for E and its closure,
  with signed margins, plus a brute-force grid oracle,
* triangular points, the analytic-disc parametrisation through a point,
* the real slice (an open tetrahedron),
* the distinguished boundary, peak functions, and separating polynomial
  certificates for exterior points,
* 2x2 matrix representatives.

Scalars are kept in plain ``complex`` arithmetic.  Membership is on hot paths
(bisection loops, scans of scattered points): each call validates its point
once, computes its quotients once and builds one report, a named tuple.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadBeta,
    BadSamples,
    InsideClosure,
    NotPeak,
    NonFinite,
    NotReal,
    NumericalDegenerate,
    OnTorus,
    Outside,
    OutsideDisc,
    Pole,
    PoleAtZ,
)
from .linalg import _sv2, mat2

CPoint3 = tuple[complex, complex, complex]

DEFAULT_TOL = 1e-9


def as_cpoint3(x) -> CPoint3:
    """Coerce to a tuple of three finite complex scalars."""
    x1, x2, x3 = x
    x1, x2, x3 = complex(x1), complex(x2), complex(x3)
    if not (cmath.isfinite(x1) and cmath.isfinite(x2) and cmath.isfinite(x3)):
        raise NonFinite("point coordinates must be finite")
    return (x1, x2, x3)


def is_triangular(x) -> bool:
    """True when |x1*x2 - x3| <= 1e-10 (1 + |x1*x2| + |x3|), a scale-aware
    x1*x2 == x3 (matrix representatives are then triangular)."""
    return _quotients(*as_cpoint3(x))[2]


def psi(z, x) -> complex:
    """The slice map Psi(z, x) = (x3*z - x1)/(x2*z - 1).

    On triangular points the map collapses to the constant x1; otherwise
    evaluating at the pole z = 1/x2 raises :class:`PoleAtZ`.
    """
    x1, x2, x3 = as_cpoint3(x)
    z = complex(z)
    if _quotients(x1, x2, x3)[2]:
        return x1
    den = x2 * z - 1.0
    if abs(den) < 1e-14:
        raise PoleAtZ(f"Psi has a pole at z = {z}")
    return (x3 * z - x1) / den


def upsilon_fn(z, x) -> complex:
    """The companion slice map Upsilon(z, x) = Psi(z, (x2, x1, x3))."""
    x1, x2, x3 = x
    return psi(z, (x2, x1, x3))


def d_of(x) -> float:
    """Three-branch formula for D(x) = sup_{|z|<1} |Psi(z, x)|.

    ``(|x1 - conj(x2)*x3| + |x1*x2 - x3|) / (1 - |x2|^2)`` when |x2| < 1;
    ``|x1|`` on triangular points; ``math.inf`` otherwise.
    """
    return _quotients(*as_cpoint3(x))[3]


def criterion_max(x) -> float:
    """max(D(x), D(x2, x1, x3)) as a float (inf when either branch blows up).

    This is the two-quotient maximum deciding both membership-from-the-origin
    feasibility and the origin distance.
    """
    *_, d, dflip = _quotients(*as_cpoint3(x))
    return max(d, dflip)


class MembershipReport(NamedTuple):
    """Per-criterion verdicts and signed margins for one point.

    ``in_set`` is the canonical criterion-(3) verdict.  The margins are the
    raw slack of the corresponding displayed inequality (positive = strictly
    inside per that inequality).  ``c1`` aliases ``c3``: criterion (1) *is*
    membership and (3) is its closed-form decision here.  A named tuple: the
    fields read as attributes, and the report unpacks and compares as the
    tuple of its fields in this order.
    """

    in_set: bool
    c1: bool
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    c6: bool
    c7: bool
    c8: bool
    c9: bool
    m3: float
    m3p: float
    m4: float
    m4p: float
    m5: float
    m6: float
    triangular: bool
    d_value: float
    closed: bool

    def verdicts(self) -> tuple[bool, ...]:
        """``(c1, ..., c9)``."""
        return self[1:10]


def _sym_rep_entries(x1, x2, x3):
    """Entries of the symmetric representative [[x1, w], [w, x2]],
    w = principal sqrt(x1*x2 - x3)."""
    w = cmath.sqrt(x1 * x2 - x3)
    return x1, w, w, x2


def _margins(x1, x2, x3):
    """Moduli and signed margins of the quadratic criteria (3)-(6) at x.

    Returns the moduli ``(|x1|, |x2|, |x3|, |x1 - conj(x2) x3|,
    |x2 - conj(x1) x3|, |x1 x2 - x3|)`` and the margins
    ``(m3, m3p, m4, m4p, m5, m6)``, positive strictly inside per each
    inequality.  The arithmetic is elementwise, so the coordinates may be
    complex scalars or equal-length complex arrays.
    """
    a1, a2, a3 = abs(x1), abs(x2), abs(x3)
    cr12 = abs(x1 - x2.conjugate() * x3)
    cr21 = abs(x2 - x1.conjugate() * x3)
    crd = abs(x1 * x2 - x3)
    return (a1, a2, a3, cr12, cr21, crd), (
        (1.0 - a2 * a2) - (cr12 + crd),
        (1.0 - a1 * a1) - (cr21 + crd),
        1.0 - (a1 * a1 - a2 * a2 + a3 * a3 + 2.0 * cr21),
        1.0 - (-a1 * a1 + a2 * a2 + a3 * a3 + 2.0 * cr12),
        1.0 - (a1 * a1 + a2 * a2 - a3 * a3 + 2.0 * crd),
        (1.0 - a3 * a3) - (cr12 + cr21),
    )


def _quotients(x1, x2, x3):
    """``(moduli, margins, triangular, D(x), D(x2, x1, x3))`` at a validated
    point: :func:`_margins`, and the rest from its moduli (see :func:`d_of`)."""
    mods, margins = _margins(x1, x2, x3)
    a1, a2, a3, cr12, cr21, crd = mods
    tri = crd <= 1e-10 * (1.0 + abs(x1 * x2) + a3)

    def d(num, a_den, a_tri):
        if a_den < 1.0:
            return num / (1.0 - a_den ** 2)
        return a_tri if tri else math.inf

    return mods, margins, tri, d(cr12 + crd, a2, a1), d(cr21 + crd, a1, a2)


def membership(x, closed: bool = False, tol: float = DEFAULT_TOL) -> MembershipReport:
    """Evaluate the nine equivalent membership criteria at x.

    Open mode tests x in E (strict inequalities); closed mode tests x in the
    closure (non-strict, within ``tol``).  Criteria (3)/(3'), (4)/(4'), (5),
    (6) and (9) are evaluated from their closed-form inequalities, (2)/(2')
    via D(x), and (7)=(8) via the operator norm of the symmetric
    representative.  Primed variants are folded into their partners (both
    must hold), and ``in_set`` is the criterion-(3) verdict.

    The quadratic criteria require the coordinate bounds |x2| <= 1 (for the
    x2-signed form), |x1| <= 1 (for the x1-signed form) and |x3| <= 1 (for
    the x3-signed form) to decide membership on all of C^3, not only on the
    region where some coordinate is already known small: the displayed
    inequalities alone admit far-exterior false positives such as
    (0.9, 0.9, 1.62).  These bounds hold automatically on the closure, so
    adjoining them changes no verdict inside.
    """
    return _report(*as_cpoint3(x), closed, tol)


def _report(x1, x2, x3, closed: bool = False, tol: float = DEFAULT_TOL) -> MembershipReport:
    """:func:`membership` at a validated point."""
    (a1, a2, a3, cr12, cr21, crd), (m3, m3p, m4, m4p, m5, m6), tri, dval, dflip = (
        _quotients(x1, x2, x3)
    )

    if closed:
        def ok(margin):
            return margin >= -tol

        def lt1(v):
            return v <= 1.0 + tol
    else:
        def ok(margin):
            return margin > 0.0

        def lt1(v):
            return v < 1.0

    c2 = lt1(dval) and lt1(dflip) and (not tri or (lt1(a1) and lt1(a2)))

    c3 = ok(m3) and (not closed or not tri or lt1(a1))
    c3p = ok(m3p) and (not closed or not tri or lt1(a2))
    c3 = c3 and c3p

    # the coordinate bounds below make the quadratic criteria decisive on all
    # of C^3 (see membership); each is implied by membership itself
    c4 = ok(m4) and lt1(a2)
    c4p = ok(m4p) and lt1(a1)
    c4 = c4 and c4p

    sum12 = a1 + a2
    c5 = ok(m5) and lt1(a3) and (
        not tri or (sum12 <= 2.0 + tol if closed else sum12 < 2.0)
    )

    c6 = ok(m6)
    if closed and abs(a3 - 1.0) <= tol:
        c6 = c6 and lt1(a1)

    c7 = lt1(_sv2(*_sym_rep_entries(x1, x2, x3))[0])

    if closed:
        if 1.0 - a3 > tol:
            bsum = (cr12 + cr21) / (1.0 - a3 * a3)
            c9 = bsum <= 1.0 + tol
        elif a3 <= 1.0 + tol:
            # on |x3| = 1 the disc parametrisation degenerates; the closure
            # meets that torus level exactly along x1 = conj(x2) x3, |x2| <= 1
            c9 = cr12 <= tol and lt1(a2)
        else:
            c9 = False
    else:
        # |x3| < 1 and |beta1| + |beta2| < 1; clearing the positive
        # denominator 1 - |x3|^2 this is exactly the criterion-(6) inequality
        c9 = a3 < 1.0 and m6 > 0.0

    return MembershipReport(
        c3, c3, c2, c3, c4, c5, c6, c7, c7, c9,
        m3, m3p, m4, m4p, m5, m6, tri, dval, closed,
    )


def membership_grid_oracle(x, closed: bool = False, n: int = 200) -> bool:
    """Brute-force membership oracle from the defining polynomial.

    Samples z over a disc grid (``n`` angles x ``max(2, n // 4)`` radii) and
    minimises |1 - x1 z - x2 w + x3 z w| over the w-disc in closed form for
    each z (the polynomial is affine in w, so the w-minimum is
    ``max(|1 - x1 z| - |x2 - x3 z|, 0)`` exactly).  Open-set testing samples
    the closed z-disc; closure testing samples the open z-disc.  This is an
    oracle for cross-validation, not the production membership path, and its
    verdict is conservative at the resolution of the z-grid.
    """
    x1, x2, x3 = as_cpoint3(x)
    if n < 2:
        raise BadSamples("grid size must be >= 2")
    n_ang = int(n)
    n_rad = max(2, n_ang // 4)
    angles = np.exp(2j * np.pi * np.arange(n_ang) / n_ang)
    if closed:
        radii = np.linspace(0.0, 1.0, n_rad + 1)[:-1]  # open disc
    else:
        radii = np.linspace(0.0, 1.0, n_rad)           # closed disc
    for r in radii:
        z = r * angles
        lhs = np.abs(1.0 - x1 * z)
        rhs = np.abs(x2 - x3 * z)
        if closed:
            # a root with |w| < 1 exists iff |1 - x1 z| < |x2 - x3 z|,
            # or both vanish (then the polynomial is identically 0 in w)
            if np.any(lhs < rhs - 1e-12) or np.any((lhs < 1e-12) & (rhs < 1e-12)):
                return False
        else:
            if np.any(lhs - rhs <= 0.0):
                return False
    return True


def beta_params(x) -> tuple[complex, complex]:
    """Analytic-disc parameters (beta1, beta2) of a point with |x3| < 1.

    ``beta1 = (x1 - conj(x2) x3)/(1 - |x3|^2)`` and symmetrically for beta2;
    they reconstruct x via x1 = beta1 + conj(beta2) x3, x2 = beta2 +
    conj(beta1) x3, and satisfy |beta1| + |beta2| < 1 exactly when x in E.
    """
    x1, x2, x3 = as_cpoint3(x)
    if abs(x3) >= 1.0:
        raise OnTorus(f"|x3| = {abs(x3):.6f} >= 1")
    den = 1.0 - abs(x3) ** 2
    b1 = (x1 - x2.conjugate() * x3) / den
    b2 = (x2 - x1.conjugate() * x3) / den
    return (b1, b2)


@dataclass(frozen=True)
class GeodesicDisc:
    """The analytic disc lam -> (beta1 + conj(beta2) lam, beta2 +
    conj(beta1) lam, lam) through the point it parametrises."""

    beta1: complex
    beta2: complex


def geodesic_eval(disc: GeodesicDisc, lam) -> CPoint3:
    """Evaluate the analytic disc at lam in the open unit disc."""
    b1, b2 = complex(disc.beta1), complex(disc.beta2)
    if abs(b1) + abs(b2) >= 1.0:
        raise BadBeta(f"|beta1| + |beta2| = {abs(b1) + abs(b2):.6f} >= 1")
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise OutsideDisc(f"|lambda| = {abs(lam):.6f} >= 1")
    return (b1 + b2.conjugate() * lam, b2 + b1.conjugate() * lam, lam)


_FACES = (
    (-1.0, 1.0, -1.0),
    (-1.0, -1.0, 1.0),
    (1.0, 1.0, 1.0),
    (1.0, -1.0, -1.0),
)


def real_slice_member(x) -> bool:
    """Membership of a real triple in E: the four tetrahedron faces
    c . x + 1 > 0 must all hold strictly."""
    x1, x2, x3 = as_cpoint3(x)
    if max(abs(x1.imag), abs(x2.imag), abs(x3.imag)) > DEFAULT_TOL:
        raise NotReal("coordinates must be real")
    r1, r2, r3 = x1.real, x2.real, x3.real
    return all(c1 * r1 + c2 * r2 + c3 * r3 + 1.0 > 0.0 for c1, c2, c3 in _FACES)


def in_distinguished_boundary(x, tol: float = DEFAULT_TOL) -> bool:
    """True when x1 = conj(x2) x3, |x3| = 1 and |x2| <= 1 (within tol):
    exactly the points pi(U) for 2x2 unitaries U."""
    x1, x2, x3 = as_cpoint3(x)
    return (
        abs(x1 - x2.conjugate() * x3) <= tol
        and abs(abs(x3) - 1.0) <= tol
        and abs(x2) <= 1.0 + tol
    )


def _act_left(om: complex, al: complex, x: CPoint3) -> CPoint3:
    """Left action of the disc automorphism z -> om (z - al)/(conj(al) z - 1)
    on a validated point, in closed form."""
    x1, x2, x3 = x
    alc = al.conjugate()
    den = 1.0 - alc * x1
    if abs(den) < 1e-14:
        raise Pole("left action pole: conj(alpha) * x1 = 1")
    return (
        om * (al - x1) / den,
        (x2 - alc * x3) / den,
        om * (al * x2 - x3) / den,
    )


def peak_function(x0, tol: float = DEFAULT_TOL):
    """Peaking function for a distinguished-boundary point.

    Returns an evaluator g with |g| <= 1 on the closure and |g(x0)| = 1,
    |g(y)| < 1 for y != x0.  Triangular boundary points (|x1| = |x2| = 1)
    use the affine form (conj(x1) y1 + conj(x2) y2 + conj(x3) y3 + 1)/4;
    non-triangular ones transport the quadratic peak at (0, 0, -1) by the
    disc automorphism attached to x0.
    """
    x1, x2, x3 = as_cpoint3(x0)
    if not in_distinguished_boundary((x1, x2, x3), tol=tol):
        raise NotPeak("the point is not on the distinguished boundary")

    if _quotients(x1, x2, x3)[2]:
        c1, c2, c3 = x1.conjugate(), x2.conjugate(), x3.conjugate()

        def g_tri(y) -> complex:
            y1, y2, y3 = as_cpoint3(y)
            return (c1 * y1 + c2 * y2 + c3 * y3 + 1.0) / 4.0

        return g_tri

    # x0 = (conj(x2) x3, x2, x3) with |x2| < 1 corresponds to the disc
    # automorphism z -> x3 (z - conj(x2)) / (x2 z - 1); its inverse has
    # (omega, alpha) = (conj(x3), x3 conj(x2)) = (conj(x3), x1)
    om = x3.conjugate()
    al = x3 * x2.conjugate()

    def g_nontri(y) -> complex:
        z1, z2, z3 = _act_left(om, al, as_cpoint3(y))
        return ((z3 - z1 * z2) - 1.0) / 2.0

    return g_nontri


def separating_polynomial(x):
    """Certified separating polynomial for a point outside the closure.

    Returns ``(f, certificate)`` where f is a polynomial evaluator with
    sup over the closure <= 1 and |f(x)| > 1.  When some coordinate already
    exceeds 1 in modulus (always the case for triangular exterior points)
    the coordinate functional itself certifies; otherwise a witness z in the
    open disc with |Psi(z, x)| > 1 is located by grid search and the
    truncated-geometric-series polynomial is built around it.
    """
    x1, x2, x3 = as_cpoint3(x)
    if _report(x1, x2, x3, closed=True).in_set:
        raise InsideClosure("the point lies in the closure")

    mods = (abs(x1), abs(x2), abs(x3))
    j = max(range(3), key=lambda k: mods[k])
    if mods[j] > 1.0:
        def f_coord(y, _j=j) -> complex:
            return as_cpoint3(y)[_j]

        cert = {"branch": "coordinate", "index": j, "value_at_x": mods[j]}
        return f_coord, cert

    # non-triangular exterior with all coordinates inside the closed polydisc:
    # sup over the disc of |Psi(., x)| exceeds 1, find an interior witness
    best_val, best_z = -1.0, None
    angles = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for r in (0.5, 0.8, 0.9, 0.95, 0.98, 0.995, 0.999, 0.9999):
        z = r * angles
        den = x2 * z - 1.0
        mask = np.abs(den) > 1e-13
        vals = np.abs(x3 * z[mask] - x1) / np.abs(den[mask])
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_z = complex(z[mask][k])
        if best_val > 1.05:
            break
    if best_val <= 1.0 + 1e-9 or best_z is None:
        raise NumericalDegenerate(
            "no interior witness with |Psi(z, x)| > 1 found; the point is "
            "too close to the closure for the grid"
        )
    eps = min((best_val - 1.0) / 4.0, 0.3)
    az = abs(best_z)
    n_terms = max(0, math.ceil(math.log(eps) / math.log(az)) - 1)
    while az ** (n_terms + 1) > eps:
        n_terms += 1
    z0 = best_z
    scale = 1.0 / (1.0 + eps)

    def f_poly(y, _z=z0, _n=n_terms, _s=scale) -> complex:
        y1, y2, y3 = as_cpoint3(y)
        q = y2 * _z
        acc = 1.0 + 0.0j
        for _ in range(_n):
            acc = 1.0 + q * acc
        return _s * (y1 - y3 * _z) * acc

    cert = {
        "branch": "series",
        "z": z0,
        "epsilon": eps,
        "degree": n_terms,
        "psi_at_z": best_val,
    }
    return f_poly, cert


def construct_matrix_rep(x):
    """The symmetric representative A = [[x1, w], [w, x2]] of a closure
    point x, w the principal square root of x1*x2 - x3: pi(A) = x, and A is a
    contraction, strict exactly when x is in E (diag(x1, x2) when x is
    triangular).  Raises Outside for a point outside the closure."""
    x1, x2, x3 = as_cpoint3(x)
    if not _report(x1, x2, x3, closed=True).in_set:
        raise Outside("the point lies outside the closure")
    return mat2(*_sym_rep_entries(x1, x2, x3))
