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
  certificates for exterior points, their witness in closed form,
* 2x2 matrix representatives.

Scalars are kept in plain ``complex`` arithmetic, the 2x2 singular-value
kernel ``_sv2`` included, and NumPy is imported only inside the grid oracle,
so the commands that need no matrix never load it.  On hot paths (bisection,
scans) ``_validated`` checks a point and takes |xi|, ``_kernel`` the other
moduli, the triangular test and D, each once, for every reader; ``_margins``
gives margins and one pass per mode decides c2-c9 into a named-tuple report.
"""
from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

from .errors import (
    BadBeta,
    BadSamples,
    BadShape,
    BadTolerance,
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

CPoint3 = tuple[complex, complex, complex]

DEFAULT_TOL = 1e-9


def _check_tol(tol) -> float:
    """tol as a float; a NaN, infinite or negative tol raises BadTolerance."""
    tol = float(tol)
    if not 0.0 <= tol < math.inf:  # written so that a NaN fails
        raise BadTolerance(f"tol must be finite and non-negative, got {tol}")
    return tol


def as_cpoint3(x) -> CPoint3:
    """Coerce to a tuple of three complex scalars of finite modulus."""
    return _validated(x)[:3]


def _validated(x):
    """``(x1, x2, x3, |x1|, |x2|, |x3|)``: x as three complex scalars and the
    moduli that prove them finite (NonFinite otherwise)."""
    x1, x2, x3 = x
    x1, x2, x3 = complex(x1), complex(x2), complex(x3)
    try:  # abs raises OverflowError where finite parts have no finite modulus
        a1, a2, a3 = abs(x1), abs(x2), abs(x3)
        if a1 < math.inf and a2 < math.inf and a3 < math.inf:
            return x1, x2, x3, a1, a2, a3
    except OverflowError:
        pass
    raise NonFinite("point coordinates must have finite moduli")


def is_triangular(x) -> bool:
    """True when |x1*x2 - x3| <= 1e-10 (1 + |x1*x2| + |x3|), a scale-aware
    x1*x2 == x3 (matrix representatives are then triangular).

    Where x1*x2 overflows, the same inequality is decided with x1 and x2
    scaled by 2**-300 and x3 and the 1 by 2**-600, so that a point such as
    (1e200 + 1e200j, 1e200, 0) is not triangular; where even the scaled
    product overflows, |x1*x2| exceeds |x3| by far and x is not triangular."""
    return _tri(*_validated(x))[0]


def _tri(x1, x2, x3, a1, a2, a3) -> tuple[bool, float]:
    """``(is_triangular(x), |x1 x2 - x3|)`` from :func:`_validated`'s tuple, as
    :func:`_kernel` decides it, but where a modulus overflows as is_triangular says."""
    p = x1 * x2
    try:
        crd, ap = abs(p - x3), abs(p)
    except OverflowError:  # abs of a complex with finite parts
        crd = ap = math.inf
    try:  # an overflowed product makes both sides inf, so only a True is re-decided
        tri = crd <= 1e-10 * (1.0 + ap + a3) and (ap < math.inf or _tri_scaled(x1, x2, x3))
    except OverflowError:  # even scaled, |x1 x2| exceeds |x3| by far
        tri = False
    return tri, crd


def _tri_scaled(x1, x2, x3) -> bool:
    """:func:`_tri` in units of 2**600, for a product x1*x2 that overflows."""
    s, one = 2.0 ** -300, 2.0 ** -600
    p = (x1 * s) * (x2 * s)
    ap = abs(p)
    return ap < math.inf and abs(p - x3 * one) <= 1e-10 * (one + ap + abs(x3) * one)


def psi(z, x) -> complex:
    """The slice map Psi(z, x) = (x3*z - x1)/(x2*z - 1).

    On triangular points the map collapses to the constant x1; otherwise
    evaluating at the pole z = 1/x2 raises :class:`PoleAtZ`.
    """
    x1, x2, x3, *_ = pt = _validated(x)
    z = complex(z)
    if not cmath.isfinite(z):
        raise NonFinite(f"z must be finite, got {z}")
    if _tri(*pt)[0]:
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
    return _kernel(*_validated(x))[5]


def criterion_max(x) -> float:
    """max(D(x), D(x2, x1, x3)) as a float (inf when either branch blows up).

    This is the two-quotient maximum deciding both membership-from-the-origin
    feasibility and the origin distance.  Its relative error times 1 -
    max(|x1|, |x2|)^2 is within 1.18 eps (six seeds: 1.32) as in _margins."""
    *_, d, dflip = _kernel(*_validated(x))
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


def _sv2(a: complex, b: complex, c: complex, d: complex) -> float:
    """Largest singular value of [[a, b], [c, d]], entries complex scalars.

    With phi = det/|det| (1 where det = 0) the matrix is p U + q V with U, V
    unitary and U* V a reflection, so the largest singular value is p + q,
    ``p = |(a + phi conj d, b - phi conj c)| / 2``,
    ``q = |(a - phi conj d, b + phi conj c)| / 2``: nothing cancels near
    repeated singular values.  Within 1.8 eps relative of 50-digit
    arithmetic on six seeded pools of 2000 matrices, a third of them 1e-12
    to 1e-3 from a unitary; ``tetra.linalg._sv2_np`` is its NumPy flavour.
    """
    det = a * d - b * c
    r = abs(det)
    p, q = _halves(a, b, c, d, det / r if r else 1.0)
    return p + q


def _read_cmat2(A) -> tuple[complex, complex, complex, complex]:
    """(a11, a12, a21, a22) of a 2x2 matrix (an array or nested rows) as four
    complex numbers: BadShape for another shape or type, or a non-finite entry."""
    try:  # a str, bytes or dict unpacks like a 2x2 matrix or a row, but is none
        r1, r2 = rows = A.tolist() if hasattr(A, "tolist") else A
        if any(isinstance(r, (str, bytes, dict)) for r in (rows, r1, r2)):
            raise TypeError
        (a11, a12), (a21, a22) = r1, r2
        e = complex(a11), complex(a12), complex(a21), complex(a22)
    except (TypeError, ValueError, OverflowError):
        raise BadShape(f"expected a 2x2 matrix, got {type(A).__name__}") from None
    if not all(map(cmath.isfinite, e)):
        raise BadShape("matrix entries must be finite")
    return e


def _halves(a, b, c, d, phi, mul=operator.mul, mod=abs, hypot=math.hypot):
    """The p and q of :func:`_sv2` for the unimodular phi."""
    u, v = mul(phi, d.conjugate()), mul(phi, c.conjugate())
    return hypot(mod(a + u), mod(b - v)) / 2.0, hypot(mod(a - u), mod(b + v)) / 2.0


def _margins(a1, a2, a3, cr12, cr21, crd):
    """Signed margins ``(m3, m3p, m4, m4p, m5, m6)`` of the quadratic
    criteria (3)-(6), positive strictly inside per each inequality, from the
    moduli ``|x1|, |x2|, |x3|, |x1 - conj(x2) x3|, |x2 - conj(x1) x3|`` and
    ``|x1 x2 - x3|``.  The arithmetic is elementwise, so the moduli may be
    floats or equal-length float arrays.
    Against 50 digits on seeded interior points and four faces of the
    closure dilated by 1 +- 1e-12 to 1e-6: |x1|, |x2|, |x3| within 0.51 eps
    relative, the other moduli 0.54 eps and the margins 2.44 eps absolute,
    44.8 eps per unit slope where first order (six seeds: 2.68, 120 eps)."""
    return (
        (1.0 - a2 * a2) - (cr12 + crd),
        (1.0 - a1 * a1) - (cr21 + crd),
        1.0 - (a1 * a1 - a2 * a2 + a3 * a3 + 2.0 * cr21),
        1.0 - (-a1 * a1 + a2 * a2 + a3 * a3 + 2.0 * cr12),
        1.0 - (a1 * a1 + a2 * a2 - a3 * a3 + 2.0 * crd),
        (1.0 - a3 * a3) - (cr12 + cr21),
    )


def _kernel(x1, x2, x3, a1, a2, a3):
    """``(x1 x2 - x3, cr12, cr21, crd, triangular, D(x), D(x2, x1, x3))`` from
    :func:`_validated`'s tuple, each product and modulus taken once (an
    overflowing one raises NonFinite); cr12, cr21, crd as in :func:`_margins`.
    D's relative error times 1 - |x2|^2 (the flip's times 1 - |x1|^2) is within
    1.20 eps of 50 digits on _margins' pools (six seeds: 1.40 eps)."""
    p = x1 * x2
    dx = p - x3
    try:
        cr12 = abs(x1 - x2.conjugate() * x3)
        cr21 = abs(x2 - x1.conjugate() * x3)
        crd, ap = abs(dx), abs(p)
        tri = crd <= 1e-10 * (1.0 + ap + a3) and (ap < math.inf or _tri_scaled(x1, x2, x3))
    except OverflowError:  # abs of a complex with finite parts
        raise NonFinite("a modulus at the point overflows") from None
    d = (cr12 + crd) / (1.0 - a2 ** 2) if a2 < 1.0 else a1 if tri else math.inf
    dflip = (cr21 + crd) / (1.0 - a1 ** 2) if a1 < 1.0 else a2 if tri else math.inf
    return dx, cr12, cr21, crd, tri, d, dflip


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

    Most margins are first order in the distance to the boundary; two are
    second order on one face each, so that a dilation by 1 -+ 1e-9 moves
    them by about 1e-18 and rounding decides them there.  At pi(sU), U
    unitary (the distinguished boundary), m5 = (1 - s^2)^2; at s (x1, x2,
    x1 x2) with |x1| = 1 > |x2| (a triangular face), m4p = (1 - s)^2 (1 -
    s^2 |x2|^2), and m4 likewise with x1 and x2 exchanged.  In open mode at
    s = 1 - 1e-9, c5 and c4 read "outside" on about two in three such
    points.  c3 and c7 are first order on every face, and ``in_set`` is c3.
    """
    pt = _validated(x)
    return _report(pt, _kernel(*pt), closed, tol)


def _report(pt, kernel, closed: bool, tol: float) -> MembershipReport:
    """:func:`membership` from :func:`_validated` and :func:`_kernel` at the
    point, in one pass per mode."""
    x1, x2, _, a1, a2, a3 = pt
    dx, cr12, cr21, crd, tri, dval, dflip = kernel
    m3, m3p, m4, m4p, m5, m6 = _margins(a1, a2, a3, cr12, cr21, crd)
    w = cmath.sqrt(dx)  # the symmetric representative [[x1, w], [w, x2]]
    norm = _sv2(x1, w, w, x2)

    # the bounds on a1, a2 and a3 make the quadratic criteria decisive on
    # all of C^3 (see membership); each is implied by membership itself
    if closed:
        one, lo = 1.0 + tol, -tol
        c2 = dval <= one and dflip <= one and (not tri or (a1 <= one and a2 <= one))
        c3 = m3 >= lo and m3p >= lo and (not tri or (a1 <= one and a2 <= one))
        c4 = m4 >= lo and a2 <= one and m4p >= lo and a1 <= one
        c5 = m5 >= lo and a3 <= one and (not tri or a1 + a2 <= 2.0 + tol)
        c6 = m6 >= lo and (not abs(a3 - 1.0) <= tol or a1 <= one)
        c7 = norm <= one
        if 1.0 - a3 > tol:
            c9 = (cr12 + cr21) / (1.0 - a3 * a3) <= one
        elif a3 <= one:
            # on |x3| = 1 the disc parametrisation degenerates; the closure
            # meets that torus level exactly along x1 = conj(x2) x3, |x2| <= 1
            c9 = cr12 <= tol and a2 <= one
        else:
            c9 = False
    else:
        c2 = dval < 1.0 and dflip < 1.0 and (not tri or (a1 < 1.0 and a2 < 1.0))
        c3 = m3 > 0.0 and m3p > 0.0
        c4 = m4 > 0.0 and a2 < 1.0 and m4p > 0.0 and a1 < 1.0
        c5 = m5 > 0.0 and a3 < 1.0 and (not tri or a1 + a2 < 2.0)
        c6 = m6 > 0.0
        c7 = norm < 1.0
        # |x3| < 1 and |beta1| + |beta2| < 1; clearing the positive
        # denominator 1 - |x3|^2 this is exactly the criterion-(6) inequality
        c9 = a3 < 1.0 and c6

    return tuple.__new__(MembershipReport, (  # skips the generated __new__
        c3, c3, c2, c3, c4, c5, c6, c7, c7, c9,
        m3, m3p, m4, m4p, m5, m6, tri, dval, closed,
    ))


def membership_grid_oracle(x, closed: bool = False, n: int = 200) -> bool:
    """Brute-force membership oracle from the defining polynomial.

    Samples z over a disc grid (``n`` angles x ``max(2, n // 4)`` radii) and
    minimises |1 - x1 z - x2 w + x3 z w| over the w-disc in closed form for
    each z (the polynomial is affine in w, so the w-minimum is
    ``max(|1 - x1 z| - |x2 - x3 z|, 0)`` exactly).  Open-set testing samples
    the closed z-disc; closure testing samples the open z-disc.  This is an
    oracle for cross-validation, not the production membership path, and its
    verdict is conservative at the resolution of the z-grid.  It costs n^2/4
    evaluations, so n above 10 000 raises BadSamples.
    """
    import numpy as np

    x1, x2, x3 = as_cpoint3(x)
    if not 2 <= n <= 10_000:
        raise BadSamples(f"grid size must be 2 to 10000, got {n}")
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
    # written so that a NaN fails each check
    if not abs(b1) + abs(b2) < 1.0:
        raise BadBeta(f"|beta1| + |beta2| = {abs(b1) + abs(b2):.6f} is not below 1")
    lam = complex(lam)
    if not abs(lam) < 1.0:
        raise OutsideDisc(f"|lambda| = {abs(lam):.6f} is not below 1")
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
    exactly the points pi(U) for 2x2 unitaries U.  A NaN, infinite or
    negative tol raises BadTolerance; an overflowing modulus, NonFinite."""
    x1, x2, x3, _, a2, a3 = _validated(x)
    tol = _check_tol(tol)
    try:  # a modulus of finite parts may overflow
        cr12 = abs(x1 - x2.conjugate() * x3)
    except OverflowError:
        raise NonFinite("a modulus at the point overflows") from None
    return cr12 <= tol and abs(a3 - 1.0) <= tol and a2 <= 1.0 + tol


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
    disc automorphism attached to x0.  tol is checked as in
    :func:`in_distinguished_boundary`.
    """
    if not in_distinguished_boundary(x0, tol=tol):
        raise NotPeak("the point is not on the distinguished boundary")

    x1, x2, x3, *_ = pt = _validated(x0)
    if _tri(*pt)[0]:
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


_RADII = (0.5, 0.8, 0.9, 0.95, 0.98, 0.995, 0.999, 0.9999)


def _circle_max(x1, x2, x3, a2: float, crd: float, r: float) -> tuple[float, complex]:
    """(max, value w of Psi there) of |Psi(z, x)| on |z| = r < 1/a2, a2 = |x2|:
    the image circle has centre c = (x1 - r^2 conj(x2) x3)/(1 - r^2 a2^2) and
    radius R = r crd/(1 - r^2 a2^2), crd = |x1 x2 - x3|, so w = c (1 + R/|c|)."""
    k = 1.0 - (r * a2) ** 2
    c = (x1 - r * r * x2.conjugate() * x3) / k
    big_r = r * crd / k
    ac = abs(c)
    return ac + big_r, c + big_r * (c / ac if ac else 1.0)


def separating_polynomial(x):
    """Certified separating polynomial for a point outside the closure.

    Returns ``(f, certificate)`` where f is a polynomial evaluator with
    sup over the closure <= 1 and |f(x)| > 1.  When some coordinate already
    exceeds 1 in modulus (always the case for triangular exterior points)
    the coordinate functional itself certifies; otherwise the witness z is
    where |Psi(., x)| peaks on the first circle |z| = r of ``_RADII`` on
    which that peak passes 1.05 (else the last), and the truncated geometric
    series around it, summed by Horner's rule (four steps a pass), is f.
    """
    pt = _validated(x)
    kernel = _kernel(*pt)
    if _report(pt, kernel, True, DEFAULT_TOL).in_set:
        raise InsideClosure("the point lies in the closure")

    x1, x2, x3, *mods = pt
    j = max(range(3), key=lambda k: mods[k])
    if mods[j] > 1.0:
        def f_coord(y) -> complex:
            return as_cpoint3(y)[j]

        cert = {"branch": "coordinate", "index": j, "value_at_x": mods[j]}
        return f_coord, cert

    # non-triangular exterior with all coordinates inside the closed polydisc:
    # sup over the disc of |Psi(., x)| exceeds 1; the peak grows with r
    for r in _RADII:
        best_val, w = _circle_max(x1, x2, x3, mods[1], kernel[3], r)
        if best_val > 1.05:
            break
    z0 = (x1 - w) / (x3 - x2 * w) if best_val > 1.0 + 1e-9 else math.nan
    az = abs(z0)
    if not az < 1.0:  # written so that a NaN fails
        raise NumericalDegenerate("no witness with |Psi(z, x)| > 1 on |z| <= 0.9999: "
                                  "the point is too close to the closure")
    eps = min((best_val - 1.0) / 4.0, 0.3)
    n_terms = max(0, math.ceil(math.log(eps) / math.log(az)) - 1)
    while az ** (n_terms + 1) > eps:
        n_terms += 1
    cert = {"branch": "series", "z": z0, "epsilon": eps, "degree": n_terms,
            "psi_at_z": best_val}
    return _series(z0, n_terms, 1.0 / (1.0 + eps)), cert


def _series(z: complex, n: int, s: float):
    """The certificate y -> s (y1 - y3 z)(1 + q + ... + q^n), q = y2 z, by Horner's
    rule: four steps acc = 1 + q acc a pass, then n mod 4, each 1 a complex literal."""
    def f_poly(y) -> complex:
        y1, y2, y3 = as_cpoint3(y)
        q = y2 * z
        acc = 1+0j
        for _ in repeat(None, n >> 2):
            acc = 1+0j + q * (1+0j + q * (1+0j + q * (1+0j + q * acc)))
        for _ in repeat(None, n & 3):
            acc = 1+0j + q * acc
        return s * (y1 - y3 * z) * acc

    return f_poly


def construct_matrix_rep(x):
    """The symmetric representative A = [[x1, w], [w, x2]] of a closure
    point x, w the principal square root of x1*x2 - x3: pi(A) = x, and A is a
    contraction, strict exactly when x is in E (diag(x1, x2) when x is
    triangular).  Raises Outside for a point outside the closure."""
    from .linalg import mat2

    pt = _validated(x)
    kernel = _kernel(*pt)
    if not _report(pt, kernel, True, DEFAULT_TOL).in_set:
        raise Outside("the point lies outside the closure")
    w = cmath.sqrt(kernel[0])
    return mat2(pt[0], w, w, pt[1])
