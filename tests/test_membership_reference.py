"""Membership and the point functions against a transcription of the code
that decided them before the report became a named tuple.

``reference_membership`` below is that ``tetrablock.membership`` line for
line (with its ``as_cpoint3``, ``_margins`` and ``_quotients``): it
validates through a generator, decides each criterion through the
``ok``/``lt1`` closures and returns the report's fields in order.  The
library must give every field bit-for-bit, on every face of the closure and
around it, in both modes and at several tolerances; so must the functions
built on the same quotients.  A rewrite of the criteria (a straight-line
pass, say) must keep passing this as it stands.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from tetra.errors import NonFinite, Outside
from tetra.metrics import dist_from_origin
from tetra.tetrablock import (
    MembershipReport,
    _sv2,
    criterion_max,
    d_of,
    is_triangular,
    membership,
)

from conftest import random_contraction, random_unitary

FIELDS = (
    "in_set", "c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9",
    "m3", "m3p", "m4", "m4p", "m5", "m6", "triangular", "d_value", "closed",
)
TOLS = (0.0, 1e-9, 1e-6)
SCALES = (1.0 - 1e-9, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 1e-9)


def reference_point(x):
    x1, x2, x3 = (complex(c) for c in x)
    for c in (x1, x2, x3):
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise NonFinite("point coordinates must be finite")
    return (x1, x2, x3)


def reference_quotients(x1, x2, x3):
    a1, a2, a3 = abs(x1), abs(x2), abs(x3)
    cr12 = abs(x1 - x2.conjugate() * x3)
    cr21 = abs(x2 - x1.conjugate() * x3)
    crd = abs(x1 * x2 - x3)
    mods = (a1, a2, a3, cr12, cr21, crd)
    margins = (
        (1.0 - a2 * a2) - (cr12 + crd),
        (1.0 - a1 * a1) - (cr21 + crd),
        1.0 - (a1 * a1 - a2 * a2 + a3 * a3 + 2.0 * cr21),
        1.0 - (-a1 * a1 + a2 * a2 + a3 * a3 + 2.0 * cr12),
        1.0 - (a1 * a1 + a2 * a2 - a3 * a3 + 2.0 * crd),
        (1.0 - a3 * a3) - (cr12 + cr21),
    )
    tri = crd <= 1e-10 * (1.0 + abs(x1 * x2) + a3)

    def d(num, a_den, a_tri):
        if a_den < 1.0:
            return num / (1.0 - a_den ** 2)
        return a_tri if tri else math.inf

    return mods, margins, tri, d(cr12 + crd, a2, a1), d(cr21 + crd, a1, a2)


def reference_membership(x, closed=False, tol=1e-9):
    """The report fields, in order, as the closure-based code gave them."""
    x1, x2, x3 = reference_point(x)
    (a1, a2, a3, cr12, cr21, crd), (m3, m3p, m4, m4p, m5, m6), tri, dval, dflip = (
        reference_quotients(x1, x2, x3)
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
    w = cmath.sqrt(x1 * x2 - x3)
    c7 = lt1(_sv2(x1, w, w, x2))
    if closed:
        if 1.0 - a3 > tol:
            c9 = (cr12 + cr21) / (1.0 - a3 * a3) <= 1.0 + tol
        elif a3 <= 1.0 + tol:
            c9 = cr12 <= tol and lt1(a2)
        else:
            c9 = False
    else:
        c9 = a3 < 1.0 and m6 > 0.0
    return (c3, c3, c2, c3, c4, c5, c6, c7, c7, c9,
            m3, m3p, m4, m4p, m5, m6, tri, dval, closed)


def _pi(A):
    return (A[0, 0], A[1, 1], A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0])


def _unimodular(rng):
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def face_points():
    """Seeded points on and around every face of the closure: interior,
    exterior, distinguished boundary, triangular (inside, on the boundary
    and outside), |x3| = 1 (inside and outside), the images of norm-one
    contractions, and each boundary point dilated by the factors in
    ``SCALES``."""
    rng = np.random.default_rng(1414)
    inner, boundary = [], []
    for _ in range(40):
        inner.append(_pi(random_contraction(rng, lo=0.05, hi=0.95)))
        inner.append(_pi(random_contraction(rng, lo=1.05, hi=2.5)))
        boundary.append(_pi(random_unitary(rng)))
        boundary.append(_pi(random_contraction(rng, lo=1.0, hi=1.0)))
        a, b = rng.uniform(0.0, 0.99) * _unimodular(rng), _unimodular(rng)
        inner.append((a, rng.uniform(0.0, 0.99) * b, a * rng.uniform(0.0, 0.99) * b))
        boundary.append((a, b, a * b))
        x2, x3 = rng.uniform(0.0, 1.0) * _unimodular(rng), _unimodular(rng)
        boundary.append((x2.conjugate() * x3, x2, x3))
        inner.append((rng.uniform(0.0, 1.0) * _unimodular(rng), x2, x3))
        # outside, yet every quadratic margin of (3) or of (6) is >= 0: only
        # the coordinate bounds decide these
        a, b = rng.uniform(1.0, 2.0) * a, rng.uniform(1.0, 2.0) * b
        inner.append((a, b, a * b))
        x2 = rng.uniform(1.0, 2.0) * _unimodular(rng)
        inner.append((x2.conjugate() * x3, x2, x3))
    boundary += [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (1, 0, 0)]
    inner += [(0, 0, 0), (0.5, 0.25, 0.5), (0.3, 0.2, 0.06), (0.9, 0.9, 1.62)]
    dilated = [(s * x1, s * x2, s * s * x3) for x1, x2, x3 in boundary for s in SCALES]
    return inner + dilated


POINTS = face_points()


def same_bits(got, want):
    assert len(got) == len(want)
    assert [repr(v) for v in got] == [repr(v) for v in want]


def test_points_cover_every_verdict():
    # the sample decides both ways in both modes, on and off the tol band
    seen = {(closed, membership(x, closed=closed, tol=tol).in_set)
            for x in POINTS for closed in (False, True) for tol in TOLS}
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("closed", [False, True])
def test_membership_matches_the_closure_based_code(closed, tol):
    for x in POINTS:
        rep = membership(x, closed=closed, tol=tol)
        same_bits(rep, reference_membership(x, closed=closed, tol=tol))
        assert rep.verdicts() == tuple(getattr(rep, f"c{k}") for k in range(1, 10))


def test_point_functions_match_the_closure_based_code():
    for x in POINTS:
        _, _, tri, d, dflip = reference_quotients(*reference_point(x))
        same_bits((is_triangular(x), d_of(x), criterion_max(x)), (tri, d, max(d, dflip)))
        cm = max(d, dflip)
        if cm < 1.0:
            same_bits((dist_from_origin(x),), (math.atanh(cm),))
        else:
            with pytest.raises(Outside):
                dist_from_origin(x)


def scattered_points(n=20000):
    """Seeded points off the faces: the images of random matrices with norms
    log-uniform in 0.05..2, so |x1| and |x2| fill (0, 2) and D takes its
    quotient branch on most of them."""
    rng = np.random.default_rng(2024)
    G = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    G *= (np.exp(rng.uniform(math.log(0.05), math.log(2.0), n))
          / np.linalg.norm(G, 2, axis=(1, 2)))[:, None, None]
    return [_pi(A) for A in G]


def test_quotients_match_the_transcription_bit_for_bit():
    # every float of the two quotients, through each function that returns
    # one: rounding a single operation differently (a2 * a2 for a2 ** 2,
    # say, which differ on about one float in a thousand) moves some of them
    points = scattered_points()
    branches = set()
    for x in points:
        _, _, _, d, dflip = reference_quotients(*reference_point(x))
        cm = max(d, dflip)
        want = (d, cm, math.atanh(cm) if cm < 1.0 else None, d)
        got = (d_of(x), criterion_max(x), dist_from_origin(x) if cm < 1.0 else None,
               membership(x).d_value)
        same_bits(got, want)
        branches.add((abs(x[1]) < 1.0, abs(x[0]) < 1.0, cm < 1.0))
    # (|x2| < 1, |x1| < 1, max < 1): each quotient takes each branch, and the
    # maximum falls on both sides of 1 wherever it can
    assert branches == {(True, True, True), (True, True, False), (True, False, False),
                        (False, True, False), (False, False, False)}


def test_report_is_an_immutable_named_tuple():
    rep = membership((0.5, 0.25, 0.5))
    assert MembershipReport._fields == FIELDS
    assert tuple(getattr(rep, name) for name in FIELDS) == tuple(rep)
    assert rep.verdicts() == (True,) * 9
    assert rep == membership((0.5, 0.25, 0.5)) and hash(rep) == hash(tuple(rep))
    with pytest.raises(AttributeError):
        rep.in_set = False
    with pytest.raises(TypeError):
        rep[0] = False
