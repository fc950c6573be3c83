"""Invariant distances on the tetrablock.

From the origin the Caratheodory, Kobayashi and Lempert distances of E all
equal atanh of the two-quotient maximum behind the membership criteria; the
same holds for any pair of points at least one of which is triangular, by
moving that point to the origin with automorphisms.  No closed form is known
for general pairs, and none is attempted here.
"""
from __future__ import annotations

import math

from .autgroup import act_left, act_right, normalize_triangular
from .autgroup import pseudohyperbolic  # noqa: F401  (re-exported here)
from .errors import Outside, Unsupported
from .tetrablock import _report, as_cpoint3, criterion_max


def dist_from_origin(x) -> float:
    """Distance from the origin of E: atanh of the maximum of the two
    membership quotients (the Caratheodory = Kobayashi = Lempert value)."""
    cm = criterion_max(x)
    if not cm < 1.0:
        raise Outside(f"distance quotient {cm} >= 1: point not in the domain")
    return math.atanh(cm)


def dist_triangular_pair(x, y) -> float:
    """Distance between two points of E when at least one is triangular.

    The triangular point is moved to the origin by automorphisms (which
    leave the distance invariant) and the image of the other point is
    measured from the origin.  For general pairs no formula is known and
    :class:`Unsupported` is raised rather than an approximation returned.
    """
    xp = as_cpoint3(x)
    yp = as_cpoint3(y)
    rx = _report(*xp)
    if not rx.in_set:
        raise Outside("first point is not in the open domain")
    ry = _report(*yp)
    if not ry.in_set:
        raise Outside("second point is not in the open domain")
    if rx.triangular:
        base, other = xp, yp
    elif ry.triangular:
        base, other = yp, xp
    else:
        raise Unsupported(
            "no closed form for the distance between two non-triangular points"
        )
    v, chi = normalize_triangular(base)
    moved = act_right(act_left(v, other), chi)
    return dist_from_origin(moved)
