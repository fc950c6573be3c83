"""Automorphisms of the tetrablock induced by pairs of disc automorphisms.

The semigroup operation ``diamond`` encodes composition of the linear
fractional maps Psi(., x); disc automorphisms embed via ``tau`` and act on
points from the left and right.  Together with the coordinate flip these
generate the known automorphism group of E.  The module also provides the
triangular-point normalisation (moving any triangular point of E to the
origin), the resulting explicit two-point Schwarz-Pick criterion, and the
pseudohyperbolic distance of the disc that criterion compares against
(re-exported by :mod:`tetra.metrics`).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    BadLambda,
    NotTriangular,
    NotUnimodular,
    NumericalDegenerate,
    Outside,
    OutsideDisc,
    Pole,
)
from .tetrablock import CPoint3, _act_left, _report, as_cpoint3

_UNIMODULAR_TOL = 1e-12


def pseudohyperbolic(lam1, lam2) -> float:
    """Pseudohyperbolic distance |lam1 - lam2| / |1 - conj(lam1) lam2| on the
    open unit disc, in [0, 1)."""
    l1, l2 = complex(lam1), complex(lam2)
    if abs(l1) >= 1.0 or abs(l2) >= 1.0:
        raise OutsideDisc("both points must lie in the open unit disc")
    return abs(l1 - l2) / abs(1.0 - l1.conjugate() * l2)


@dataclass(frozen=True)
class DiscAut:
    """Automorphism of the unit disc z -> omega (z - alpha)/(conj(alpha) z - 1),
    |omega| = 1, |alpha| < 1, in the normal form fixed by that display."""

    omega: complex
    alpha: complex

    def __post_init__(self):
        om, al = complex(self.omega), complex(self.alpha)
        # written so that a NaN fails each check
        if not abs(abs(om) - 1.0) <= _UNIMODULAR_TOL:
            raise NotUnimodular(f"|omega| = {abs(om):.15f} is not 1")
        if not abs(al) < 1.0:
            raise OutsideDisc(f"|alpha| = {abs(al):.6f} is not below 1")
        # pin the modulus exactly so repeated compositions cannot drift
        object.__setattr__(self, "omega", om / abs(om))
        object.__setattr__(self, "alpha", al)

    def __call__(self, z) -> complex:
        z = complex(z)
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


def normalize_triangular(x) -> tuple[DiscAut, DiscAut]:
    """Automorphism pair (v, chi) moving a triangular point of E to the
    origin: act_right(act_left(v, x), chi) = (0, 0, 0)."""
    x1, x2, x3 = as_cpoint3(x)
    rep = _report(x1, x2, x3)
    if not rep.triangular:
        raise NotTriangular(f"x1*x2 - x3 = {x1 * x2 - x3}")
    if not rep.in_set:
        raise Outside("triangular point is not in the open domain")
    v = DiscAut(1.0 + 0.0j, x1)            # z -> (z - x1)/(conj(x1) z - 1)
    chi = DiscAut(-1.0 + 0.0j, -x2.conjugate())  # z -> (z + conj(x2))/(x2 z + 1)
    return (v, chi)


class SchwarzPickResult(NamedTuple):
    feasible: bool
    lhs: float


def schwarz_pick_triangular(lam1, lam2, x, y) -> SchwarzPickResult:
    """Two-point Schwarz-Pick criterion at a triangular base point.

    Decides whether an analytic map of the disc into the closure can send
    lam1 -> x and lam2 -> y, for x triangular in E and y in E: the explicit
    two-term maximum below must not exceed the pseudohyperbolic distance
    d(lam1, lam2).  Equality (margin 0) is feasible for closure-valued maps
    only.
    """
    l1, l2 = complex(lam1), complex(lam2)
    if abs(l1) >= 1.0 or abs(l2) >= 1.0:
        raise OutsideDisc("interpolation nodes must lie in the open disc")
    if abs(l1 - l2) < 1e-15:
        raise BadLambda("interpolation nodes must be distinct")
    x1, x2, x3 = as_cpoint3(x)
    rep = _report(x1, x2, x3)
    if not rep.triangular:
        raise NotTriangular(f"x1*x2 - x3 = {x1 * x2 - x3}")
    if not rep.in_set:
        raise Outside("x is not in the open domain")
    y1, y2, y3 = as_cpoint3(y)
    if not _report(y1, y2, y3).in_set:
        raise Outside("y is not in the open domain")

    ay1, ay2, ay3 = abs(y1) ** 2, abs(y2) ** 2, abs(y3) ** 2
    dety = abs(y3 - y1 * y2)

    num1 = (1.0 - abs(x1) ** 2) * dety + abs(
        y1 - y2.conjugate() * y3
        - x1 * (1.0 + ay1 - ay2 - ay3)
        + x1 * x1 * (y1.conjugate() - y2 * y3.conjugate())
    )
    den1 = abs(1.0 - x1.conjugate() * y1) ** 2 - abs(y2 - x1.conjugate() * y3) ** 2

    num2 = (1.0 - abs(x2) ** 2) * dety + abs(
        y2 - y1.conjugate() * y3
        - x2 * (1.0 - ay1 + ay2 - ay3)
        + x2 * x2 * (y2.conjugate() - y1 * y3.conjugate())
    )
    den2 = abs(1.0 - x2.conjugate() * y2) ** 2 - abs(y1 - x2.conjugate() * y3) ** 2

    if den1 <= 1e-14 or den2 <= 1e-14:
        raise NumericalDegenerate("Schwarz-Pick denominator not positive")
    lhs = max(num1 / den1, num2 / den2)
    return SchwarzPickResult(lhs <= pseudohyperbolic(l1, l2) + 1e-12, lhs)
