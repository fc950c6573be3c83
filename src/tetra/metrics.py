"""Invariant distances on the tetrablock.

From the origin the Caratheodory, Kobayashi and Lempert distances of E all
equal atanh of the two-quotient maximum behind the membership criteria; from
a triangular point, atanh of the Schwarz-Pick quotient there, which is that
maximum carried by automorphisms and below 1 exactly on E.  No closed form is
known for general pairs, and none is attempted here.
"""
from __future__ import annotations

import math

from .autgroup import _sp_quotient, _triangular_base
from .autgroup import pseudohyperbolic  # noqa: F401  (re-exported)
from .errors import NotTriangular, Outside, Unsupported
from .tetrablock import _validated, criterion_max


def dist_from_origin(x) -> float:
    """Distance from the origin of E: atanh of the maximum of the two
    membership quotients (the Caratheodory = Kobayashi = Lempert value).
    tanh of it has relative error times 1 - max(|x1|, |x2|)^2 within 1.23
    eps of 50 digits on the pools of ``tetrablock._margins`` (six seeds:
    1.79 eps)."""
    cm = criterion_max(x)
    if not cm < 1.0:
        raise Outside(f"distance quotient {cm} >= 1: point not in the domain")
    return math.atanh(cm)


def dist_triangular_pair(x, y) -> float:
    """Distance between two points of E when at least one is triangular.

    atanh of the two-term Schwarz-Pick quotient at the triangular point, the
    ``lhs`` of :func:`~tetra.autgroup.schwarz_pick_triangular`, which also
    decides the other point's membership; :class:`Outside` names the point
    that fails.  A pair with no triangular point raises :class:`Unsupported`,
    whatever the points' membership: no formula is known for it.
    """
    pair = (_validated(x), "first point"), (_validated(y), "second point")
    for (base, name), (other, other_name) in (pair, pair[::-1]):
        try:
            q = _sp_quotient(_triangular_base(base, name), other[:3])
        except NotTriangular:
            continue
        if not q < 1.0:
            raise Outside(f"{other_name} is not in the open domain")
        return math.atanh(q)
    raise Unsupported("no closed form for the distance between two non-triangular points")
