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

The second half transcribes, the same way, the functions that read the
point's moduli and its triangular test outside the report (``is_triangular``,
``psi``, ``in_distinguished_boundary``, ``separating_polynomial``,
``construct_matrix_rep``, ``normalize_triangular``, ``dist_triangular_pair``)
and ``mu_diag``'s bisection, as they were before the membership pass took
each modulus once; the library must match them bit for bit on the same
points.
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from tetra.autgroup import DiscAut, normalize_triangular
from tetra.errors import (
    InsideClosure,
    NonFinite,
    NotTriangular,
    NumericalDegenerate,
    Outside,
    PoleAtZ,
    Unsupported,
)
from tetra.linalg import as_cmat2, pi_map
from tetra.metrics import dist_from_origin, dist_triangular_pair
from tetra.musyn import mu_diag
from tetra.tetrablock import (
    MembershipReport,
    _sv2,
    construct_matrix_rep,
    criterion_max,
    d_of,
    in_distinguished_boundary,
    is_triangular,
    membership,
    psi,
    separating_polynomial,
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


# --- the functions beside the report, as they were transcribed ------------

def reference_tri(x1, x2, x3):
    p = x1 * x2
    ap = abs(p)
    if not abs(p - x3) <= 1e-10 * (1.0 + ap + abs(x3)):
        return False
    if ap < math.inf:
        return True
    s, one = 2.0 ** -300, 2.0 ** -600
    p = (x1 * s) * (x2 * s)
    ap = abs(p)
    return ap < math.inf and abs(p - x3 * one) <= 1e-10 * (one + ap + abs(x3) * one)


def reference_psi(z, x):
    x1, x2, x3 = reference_point(x)
    if reference_tri(x1, x2, x3):
        return x1
    den = x2 * z - 1.0
    if abs(den) < 1e-14:
        raise PoleAtZ(f"Psi has a pole at z = {z}")
    return (x3 * z - x1) / den


def reference_in_distinguished_boundary(x, tol):
    x1, x2, x3 = reference_point(x)
    cr12 = abs(x1 - x2.conjugate() * x3)
    return cr12 <= tol and abs(abs(x3) - 1.0) <= tol and abs(x2) <= 1.0 + tol


RADII = (0.5, 0.8, 0.9, 0.95, 0.98, 0.995, 0.999, 0.9999)


def reference_separating_polynomial(x):
    """(certificate, f at x) as separating_polynomial gave them."""
    x1, x2, x3 = reference_point(x)
    if reference_membership((x1, x2, x3), closed=True)[0]:
        raise InsideClosure("the point lies in the closure")
    mods = (abs(x1), abs(x2), abs(x3))
    j = max(range(3), key=lambda k: mods[k])
    if mods[j] > 1.0:
        return {"branch": "coordinate", "index": j, "value_at_x": mods[j]}, (x1, x2, x3)[j]
    for r in RADII:
        k = 1.0 - (r * abs(x2)) ** 2
        c = (x1 - r * r * x2.conjugate() * x3) / k
        big_r = r * abs(x1 * x2 - x3) / k
        ac = abs(c)
        best_val, w = ac + big_r, c + big_r * (c / ac if ac else 1.0)
        if best_val > 1.05:
            break
    z0 = (x1 - w) / (x3 - x2 * w) if best_val > 1.0 + 1e-9 else math.nan
    az = abs(z0)
    if not az < 1.0:
        raise NumericalDegenerate("no witness")
    eps = min((best_val - 1.0) / 4.0, 0.3)
    n_terms = max(0, math.ceil(math.log(eps) / math.log(az)) - 1)
    while az ** (n_terms + 1) > eps:
        n_terms += 1
    q, acc = x2 * z0, 1.0 + 0.0j
    for _ in range(n_terms):
        acc = 1.0 + q * acc
    cert = {"branch": "series", "z": z0, "epsilon": eps, "degree": n_terms,
            "psi_at_z": best_val}
    return cert, (1.0 / (1.0 + eps)) * (x1 - x3 * z0) * acc


def reference_construct_matrix_rep(x):
    x1, x2, x3 = reference_point(x)
    if not reference_membership((x1, x2, x3), closed=True)[0]:
        raise Outside("the point lies outside the closure")
    w = cmath.sqrt(x1 * x2 - x3)
    return (x1, w, w, x2)


def reference_triangular_base(xp, name):
    x1, x2, x3 = xp
    if not reference_tri(x1, x2, x3):
        raise NotTriangular(f"x1*x2 - x3 = {x1 * x2 - x3}")
    if abs(x1) < 1.0 and abs(x2) < 1.0 and min(reference_quotients(x1, x2, x3)[1][:2]) > 0.0:
        return xp
    raise Outside(f"{name} is not in the open domain")


def reference_normalize_triangular(x):
    x1, x2, _ = reference_triangular_base(reference_point(x), "triangular point")
    return (DiscAut(1.0 + 0.0j, x1), DiscAut(-1.0 + 0.0j, -x2.conjugate()))


def reference_sp_quotient(x, y):
    (x1, x2, _), (y1, y2, y3) = x, y
    if not (abs(y1) < 1.0 and abs(y2) < 1.0 and abs(y3) < 1.0):
        return math.inf
    dety, lhs = abs(y3 - y1 * y2), 0.0
    for a, b, c in ((x1, y1, y2), (x2, y2, y1)):
        p, r = 1.0 - a.conjugate() * b, c - a.conjugate() * y3
        den = abs(p) ** 2 - abs(r) ** 2
        if not den > 0.0:
            return math.inf
        e = (b - a) * p.conjugate() - r.conjugate() * (y3 - a * c)
        lhs = max(lhs, ((1.0 - abs(a) ** 2) * dety + abs(e)) / den)
    return lhs


def reference_dist_triangular_pair(x, y):
    pair = (reference_point(x), "first point"), (reference_point(y), "second point")
    for (base, name), (other, other_name) in (pair, pair[::-1]):
        try:
            q = reference_sp_quotient(reference_triangular_base(base, name), other)
        except NotTriangular:
            continue
        if not q < 1.0:
            raise Outside(f"{other_name} is not in the open domain")
        return math.atanh(q)
    raise Unsupported("no closed form for the distance between two non-triangular points")


def reference_mu_diag(A):
    a, b, p = pi_map(as_cmat2(A))
    if not any((a, b, p)):
        return 0.0

    def member(r):
        return reference_membership((r * a, r * b, r * r * p), closed=True)[0]

    lo, hi = 0.0, 1.0
    while member(hi):
        lo, hi = hi, hi * 2.0
    while hi - lo > 1e-9 * lo:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return 2.0 / (lo + hi)


def outcome(call):
    """The value, or the exception's type and message, as comparable text."""
    try:
        return repr(call())
    except Exception as exc:  # the type and message stand for the answer
        return f"{type(exc).__name__}: {exc}"


def same_outcomes(got, want):
    # compared a point at a time, so a failure names the point
    for x, g, w in zip(POINTS, got, want):
        assert g == w, x


ZS = (0.0, 0.5, 0.3 + 0.4j, -0.9j, 0.99 * cmath.exp(2j), 1.5 - 0.5j)


def test_triangular_test_and_psi_match_the_transcription():
    same_outcomes([outcome(lambda: is_triangular(x)) for x in POINTS],
                  [outcome(lambda: reference_tri(*reference_point(x))) for x in POINTS])
    for z in ZS:
        same_outcomes([outcome(lambda: psi(z, x)) for x in POINTS],
                      [outcome(lambda: reference_psi(z, x)) for x in POINTS])


@pytest.mark.parametrize("tol", TOLS)
def test_distinguished_boundary_matches_the_transcription(tol):
    got = [in_distinguished_boundary(x, tol=tol) for x in POINTS]
    assert got == [reference_in_distinguished_boundary(x, tol) for x in POINTS]
    assert True in got and False in got


def test_separating_polynomial_matches_the_transcription():
    # branch, z, epsilon, degree, psi_at_z and f at the point, each bit
    def certified(x):
        f, cert = separating_polynomial(x)
        return cert, f(x)

    got = [outcome(lambda: certified(x)) for x in POINTS]
    same_outcomes(got, [outcome(lambda: reference_separating_polynomial(x)) for x in POINTS])
    assert {g.split("'")[3] for g in got if g.startswith("({'branch'")} == {"coordinate", "series"}


def test_construct_matrix_rep_matches_the_transcription():
    got = [outcome(lambda: tuple(complex(a) for a in construct_matrix_rep(x).ravel()))
           for x in POINTS]
    same_outcomes(got, [outcome(lambda: reference_construct_matrix_rep(x)) for x in POINTS])


def pairs():
    """Each point of POINTS with a triangular point of E and with another
    point of POINTS, in both orders."""
    rng = np.random.default_rng(88)
    out = []
    for k, x in enumerate(POINTS):
        a, b = (rng.uniform(0.0, 0.9) * _unimodular(rng) for _ in range(2))
        out += [(x, (a, b, a * b)), ((a, b, a * b), x), (x, POINTS[(7 * k + 3) % len(POINTS)])]
    return out


def test_triangular_point_functions_match_the_transcription():
    same_outcomes([outcome(lambda: normalize_triangular(x)) for x in POINTS],
                  [outcome(lambda: reference_normalize_triangular(x)) for x in POINTS])
    got = [outcome(lambda: dist_triangular_pair(x, y)) for x, y in pairs()]
    want = [outcome(lambda: reference_dist_triangular_pair(x, y)) for x, y in pairs()]
    assert got == want
    kinds = {g.split(":")[0] if g[0].isalpha() else "distance" for g in got}
    assert kinds == {"Outside", "Unsupported", "distance"}


def mu_matrices():
    """Seeded contractions of norms 0.05 to 2.5, unitaries, triangular and
    rank-one matrices, and the README example."""
    rng = np.random.default_rng(1515)
    mats = [np.array([[0.5, 0.5j], [0.5j, 0.5]])]
    for _ in range(30):
        mats.append(random_contraction(rng, lo=0.05, hi=2.5))
        mats.append(random_unitary(rng))
        T = random_contraction(rng, lo=0.1, hi=1.5)
        T[1, 0] = 0.0
        mats.append(T)
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        mats.append(np.outer(u, u.conj()) * rng.uniform(0.1, 2.0))
    return mats


def test_mu_diag_matches_the_transcribed_bisection():
    mats = mu_matrices()
    assert [repr(mu_diag(A)) for A in mats] == [repr(reference_mu_diag(A)) for A in mats]
