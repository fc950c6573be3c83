"""Automorphisms of the tetrablock induced by pairs of disc automorphisms.

The semigroup operation ``diamond`` encodes composition of the linear
fractional maps Psi(., x); disc automorphisms embed via ``tau`` and act on
points from the left and right.  Together with the coordinate flip these
generate the known automorphism group of E.  The module also provides the
normalisation moving a triangular point of E to the origin, the explicit
two-point Schwarz-Pick criterion at such a point, whose quotient is tanh of
the invariant distance (read by :mod:`tetra.metrics`) and below 1 exactly on
E, and the disc's pseudohyperbolic distance it compares against.
"""
from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .errors import (
    BadLambda,
    NonFinite,
    NotTriangular,
    NotUnimodular,
    Outside,
    OutsideDisc,
    Pole,
)
from .tetrablock import CPoint3, _act_left, _margins, _tri, _validated, as_cpoint3

_UNIMODULAR_TOL = 1e-12


def pseudohyperbolic(lam1, lam2) -> float:
    """Pseudohyperbolic distance |lam1 - lam2| / |1 - conj(lam1) lam2| on the
    open unit disc, in [0, 1)."""
    l1, l2 = complex(lam1), complex(lam2)
    if not (abs(l1) < 1.0 and abs(l2) < 1.0):  # written so that a NaN fails
        raise OutsideDisc("both points must lie in the open unit disc")
    return abs(l1 - l2) / abs(1.0 - l1.conjugate() * l2)


class DiscAut(namedtuple("DiscAut", "omega alpha")):
    """Automorphism of the unit disc z -> omega (z - alpha)/(conj(alpha) z - 1),
    |omega| = 1, |alpha| < 1, in the normal form fixed by that display; a named
    tuple whose ``_make`` and ``_replace`` check as the constructor does."""

    __slots__ = ()

    def __new__(cls, omega, alpha):
        om, al = complex(omega), complex(alpha)
        # written so that a NaN fails each check
        if not abs(abs(om) - 1.0) <= _UNIMODULAR_TOL:
            raise NotUnimodular(f"|omega| = {abs(om):.15f} is not 1")
        if not abs(al) < 1.0:
            raise OutsideDisc(f"|alpha| = {abs(al):.6f} is not below 1")
        # pin the modulus exactly so repeated compositions cannot drift
        return tuple.__new__(cls, (om / abs(om), al))

    _make = classmethod(lambda cls, it: cls(*it))

    def __reduce__(self):  # no second normalisation, which can move omega's last bit
        return tuple.__new__, (type(self), tuple(self))

    def __call__(self, z) -> complex:
        """The image of z.  A non-finite z raises NonFinite, as psi does,
        rather than returning NaN; z at the pole 1/conj(alpha) raises Pole."""
        z = complex(z)
        if not cmath.isfinite(z):
            raise NonFinite(f"z must be finite, got {z}")
        den = self.alpha.conjugate() * z - 1.0
        if abs(den) < 1e-14:
            raise Pole(f"disc automorphism has a pole at z = {z}")
        return self.omega * (z - self.alpha) / den

    def compose(self, other: "DiscAut") -> "DiscAut":
        """self after other, computed through the 2x2 matrix representatives
        [[omega, -omega*alpha], [conj(alpha), -1]] and renormalised."""
        a1, b1 = self.omega, -self.omega * self.alpha
        c1, d1 = self.alpha.conjugate(), -1.0 + 0.0j
        a2, b2 = other.omega, -other.omega * other.alpha
        c2, d2 = other.alpha.conjugate(), -1.0 + 0.0j
        a = a1 * a2 + b1 * c2
        b = a1 * b2 + b1 * d2
        c = c1 * a2 + d1 * c2
        d = c1 * b2 + d1 * d2
        # rescale so the bottom-right entry is -1; then top-left is omega and
        # the top-right -omega*alpha
        om = -a / d
        al = -b / a
        return DiscAut(om, al)

    def inverse(self) -> "DiscAut":
        return DiscAut(self.omega.conjugate(), self.omega * self.alpha)

    @staticmethod
    def identity() -> "DiscAut":
        return DiscAut(-1.0 + 0.0j, 0.0 + 0.0j)


def diamond(x, y) -> CPoint3:
    """The semigroup operation x <> y = (x1 - x3 y1, y2 - x2 y3,
    x1 y2 - x3 y3) / (1 - x2 y1), with identity (0, 0, -1)."""
    x1, x2, x3 = as_cpoint3(x)
    y1, y2, y3 = as_cpoint3(y)
    den = 1.0 - x2 * y1
    if abs(den) < 1e-14:
        raise Pole("diamond pole: x2 * y1 = 1")
    return (
        (x1 - x3 * y1) / den,
        (y2 - x2 * y3) / den,
        (x1 * y2 - x3 * y3) / den,
    )


def tau(v: DiscAut) -> CPoint3:
    """Embedding of disc automorphisms: tau(v) = (omega*alpha, conj(alpha),
    omega), a non-triangular point with Psi(., tau(v)) = v."""
    return (v.omega * v.alpha, v.alpha.conjugate(), v.omega)


def act_left(v: DiscAut, x) -> CPoint3:
    """Left action v . x = tau(v) <> x, in closed form."""
    return _act_left(v.omega, v.alpha, as_cpoint3(x))


def act_right(x, v: DiscAut) -> CPoint3:
    """Right action x . v = x <> tau(v)."""
    return diamond(x, tau(v))


def flip(x) -> CPoint3:
    """Coordinate flip F(x1, x2, x3) = (x2, x1, x3), an automorphism of E."""
    x1, x2, x3 = as_cpoint3(x)
    return (x2, x1, x3)


def upsilon_star(v: DiscAut) -> DiscAut:
    """The conjugate automorphism v* with F(tau(v)) = tau(v*) and
    F . L_v = R_{v*} . F; in normal form (omega, conj(omega*alpha))."""
    return DiscAut(v.omega, (v.omega * v.alpha).conjugate())


def _triangular_base(pt, name: str) -> CPoint3:
    """The point of pt, from ``_validated``, if triangular and in E, else
    NotTriangular or Outside naming ``name``: E meets {x3 = x1 x2} in the
    bidisc, tested first so that the c3 margins (m3, m3p) cannot overflow."""
    x1, x2, x3, a1, a2, a3 = pt
    tri, crd = _tri(*pt)
    if not tri:
        raise NotTriangular(f"x1*x2 - x3 = {x1 * x2 - x3}")
    if a1 < 1.0 and a2 < 1.0 and min(_margins(a1, a2, a3, abs(x1 - x2.conjugate() * x3),
            abs(x2 - x1.conjugate() * x3), crd)[:2]) > 0.0:
        return pt[:3]
    raise Outside(f"{name} is not in the open domain")


def normalize_triangular(x) -> tuple[DiscAut, DiscAut]:
    """Automorphism pair (v, chi) moving a triangular point of E to the
    origin: act_right(act_left(v, x), chi) = (0, 0, 0)."""
    x1, x2, _ = _triangular_base(_validated(x), "triangular point")
    v = DiscAut(1.0 + 0.0j, x1)            # z -> (z - x1)/(conj(x1) z - 1)
    chi = DiscAut(-1.0 + 0.0j, -x2.conjugate())  # z -> (z + conj(x2))/(x2 z + 1)
    return (v, chi)


def _sp_quotient(x, y) -> float:
    """tanh of the distance from x, triangular in E, to y, both validated:
    the larger of the Schwarz-Pick term at (a, b, c) = (x1, y1, y2) and at
    (x2, y2, y1), with p = 1 - conj(a) b, r = c - conj(a) y3,

        ((1 - |a|^2) |y3 - y1 y2| + |(b - a) conj(p) - conj(r) (y3 - a c)|)
        / (|p|^2 - |r|^2),

    the paper's numerator grouped so that less of it cancels.  Below 1, with
    positive denominators, exactly for y in E; math.inf for y off the open
    tridisc (tested first: nothing overflows) or a denominator not > 0.
    Its relative error times the smaller (|p|^2 - |r|^2)/(|p|^2 + |r|^2) of
    the two terms is within 2.96 eps of 50 digits, y on the pools of
    ``tetrablock._margins`` and x seeded with |x1|, |x2| < 0.9 (six seeds:
    2.96 eps)."""
    (x1, x2, _), (y1, y2, y3) = x, y
    if not (abs(y1) < 1.0 and abs(y2) < 1.0 and abs(y3) < 1.0):
        return math.inf
    dety, lhs = abs(y3 - y1 * y2), 0.0
    for a, b, c in ((x1, y1, y2), (x2, y2, y1)):
        p, r = 1.0 - a.conjugate() * b, c - a.conjugate() * y3
        den = abs(p) ** 2 - abs(r) ** 2
        if not den > 0.0:  # written so that a NaN fails
            return math.inf
        e = (b - a) * p.conjugate() - r.conjugate() * (y3 - a * c)
        lhs = max(lhs, ((1.0 - abs(a) ** 2) * dety + abs(e)) / den)
    return lhs


SchwarzPickResult = namedtuple("SchwarzPickResult", "feasible lhs")


def schwarz_pick_triangular(lam1, lam2, x, y) -> SchwarzPickResult:
    """Two-point Schwarz-Pick criterion at a triangular base point.

    Decides whether an analytic map of the disc into the closure can send
    lam1 -> x and lam2 -> y, for x triangular in E and y in E: the explicit
    two-term quotient ``lhs``, tanh of the invariant distance of x and y, must
    not exceed the pseudohyperbolic distance d(lam1, lam2).  Equality (margin
    0) is feasible for closure-valued maps only.  :class:`Outside` is raised
    for x with membership's verdict, for y exactly when ``lhs`` is not < 1.
    """
    l1, l2 = complex(lam1), complex(lam2)
    if not (abs(l1) < 1.0 and abs(l2) < 1.0):  # written so that a NaN fails
        raise OutsideDisc("interpolation nodes must lie in the open disc")
    if abs(l1 - l2) < 1e-15:
        raise BadLambda("interpolation nodes must be distinct")
    lhs = _sp_quotient(_triangular_base(_validated(x), "x"), as_cpoint3(y))
    if not lhs < 1.0:
        raise Outside("y is not in the open domain")
    return SchwarzPickResult(lhs <= pseudohyperbolic(l1, l2) + 1e-12, lhs)
