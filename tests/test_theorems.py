"""Theorems of the paper checked on the objects tetra builds.

The other test files check each construction against its own contract; these
check the paper's statements about them: the Schwarz lemma for the
interpolants, the invariance of membership under the automorphisms, the
invariances of mu and the two closed forms that decide membership at a
triangular point.  They are derandomised Hypothesis tests, so every run draws
the same examples.
"""
import cmath
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tetra.autgroup import (
    DiscAut,
    act_left,
    act_right,
    flip,
    normalize_triangular,
    schwarz_pick_triangular,
)
from tetra.errors import Outside, Pole
from tetra.interpolate import all_solutions_params, solve_schwarz, solve_with_sigma
from tetra.linalg import mat2, op_norm, pi_map
from tetra.metrics import pseudohyperbolic
from tetra.musyn import (
    MU_RTOL,
    SynthesisInstance,
    bft_lower_bound,
    mu_diag,
    synth_two_point,
    synth_two_point_general,
)
from tetra.tetrablock import (
    criterion_max,
    in_distinguished_boundary,
    is_triangular,
    membership,
)

from conftest import random_contraction, random_disc, random_point_in_e, random_unitary
from test_distance_oracle import c_T

_ENTRIES = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
_ANGLE = st.floats(0.0, 2.0 * math.pi)

# the audit points of the disc: 8 radii out to 1 - 1e-4, 6 angles each
_LAMS = np.outer(
    [0.05, 0.3, 0.6, 0.8, 0.9, 0.99, 0.999, 0.9999],
    np.exp(1j * (0.4 + 2.0 * np.pi * np.arange(6) / 6)),
).ravel()

# the variant each kind of instance below must route to
_VARIANT = {
    "mobius": "mobius_blaschke",
    "extremal": "svd_reduced",
    "line": "scaled_line",
    "diag": "scaled_line",
    "sigma": "sigma_family",
}


def _matrix(e, norm, zero=None):
    """The 2x2 matrix with entries e[0] + i e[1], ... scaled to operator
    norm ``norm``, with the entry ``zero`` set to 0 first."""
    G = mat2(*(complex(e[2 * k], e[2 * k + 1]) for k in range(4)))
    if zero is not None:
        G[zero] = 0.0
    n = op_norm(G)
    assume(n > 1e-3)
    return G * (norm / n)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    kind=st.sampled_from(sorted(_VARIANT)),
    e=_ENTRIES,
    norm=st.floats(0.05, 0.9),
    swap=st.booleans(),
    slack=st.floats(0.05, 1.0),
    theta=_ANGLE,
    t=st.tuples(st.floats(0.0, 1.0), _ANGLE),
    u=st.floats(0.05, 0.95),
)
def test_interpolants_obey_the_schwarz_lemma(kind, e, norm, swap, slack, theta, t, u):
    """criterion_max(phi(lam)) <= |lam| + 1e-9 on the disc for every variant.

    phi(0) = 0 and phi maps the disc into the closure, so the two-quotient
    maximum, which is the tanh of the Caratheodory distance from the origin,
    cannot exceed |lam|.  Instances of every variant are drawn: both scaled
    lines (b = 0 and triangular targets), the Moebius transport, the SVD
    reduction (|lambda0| equal to the criterion, with a Schur parameter t),
    the sigma family, each with the coordinates of x swapped or not, so that
    both the flipped and the unflipped solvers run.  Measured worst excess
    criterion_max(phi(lam)) - |lam| over 4000 examples drawn this way:
    2.3e-13, at the SVD reduction near the circle, whose phi is a complex
    geodesic (the inequality is an equality along it); every other variant
    stayed at least 3.4e-4 below |lam|.  The tolerance 1e-9 is the margin
    tolerance of ``membership``, 4000 times that worst case.
    """
    zero = {"line": (1, 1), "diag": (1, 0)}.get(kind)
    x = pi_map(_matrix(e, norm, zero))
    if swap and kind != "sigma":
        x = (x[1], x[0], x[2])
    cm = criterion_max(x)
    # keep each instance clear of the solver's other branches
    nonzero = min(abs(x[0]), abs(x[1])) > 1e-6
    triangular = abs(x[0] * x[1] - x[2]) <= 1e-6
    assume(cm > 1e-3)
    assume(kind == "line" or (nonzero and triangular == (kind == "diag")))
    rot = cmath.exp(1j * theta)
    if kind == "extremal":
        phi = solve_schwarz(cm * rot, x, t=cmath.rect(*t))
    elif kind == "sigma":
        if abs(x[0]) < abs(x[1]):
            x = (x[1], x[0], x[2])
        l0 = (cm + slack * (0.999 - cm)) * rot
        p = all_solutions_params(l0, x)
        phi = solve_with_sigma(l0, x, math.sqrt(p.xi1 ** (1.0 - u) * p.xi2 ** u))
    else:
        phi = solve_schwarz((cm + slack * (0.999 - cm)) * rot, x)
    assert phi.variant == _VARIANT[kind]
    assert phi.flipped == (kind != "sigma" and abs(x[0]) < abs(x[1]))
    for point, lam in zip(zip(*phi.evaluate(_LAMS)), _LAMS):
        assert criterion_max(point) <= abs(lam) + 1e-9


@settings(max_examples=250, deadline=None, derandomize=True)
@given(
    e=_ENTRIES,
    norm=st.floats(0.2, 1.8),
    omega=_ANGLE,
    alpha=st.tuples(st.floats(0.0, 0.9), _ANGLE),
)
def test_membership_is_invariant_under_automorphisms(e, norm, omega, alpha):
    """The open and closed membership verdicts of x and of its images under
    flip, act_left and act_right agree, away from the boundary.

    The automorphisms map E and its closure onto themselves, and the
    exterior to itself where they are defined.  Points come from matrices of
    norm 0.2 to 1.8, so about half lie outside the closure; those with
    min(|m3|, |m3p|) <= 1e-6 are skipped, since rounding decides their
    verdicts.  Measured over 3000 examples drawn this way: the smallest
    min(|m3|, |m3p|) of an image of a kept point was 5.4e-6, 5000 times the
    closed-mode tolerance 1e-9, so no verdict here is decided by rounding.
    """
    x = pi_map(_matrix(e, norm))
    rep = membership(x)
    assume(min(abs(rep.m3), abs(rep.m3p)) > 1e-6)
    closed = membership(x, closed=True).in_set
    v = DiscAut(cmath.exp(1j * omega), cmath.rect(*alpha))
    images = [flip(x)]
    for act in (lambda: act_left(v, x), lambda: act_right(x, v)):
        try:
            images.append(act())
        except Pole:
            pass
    for y in images:
        assert membership(y).in_set == rep.in_set
        assert membership(y, closed=True).in_set == closed


def test_automorphisms_preserve_the_distinguished_boundary():
    """act_left, act_right and flip map pi(U(2)) into the distinguished
    boundary, and interior points to points off it.

    The automorphisms are homeomorphisms of the closure of E that map E onto
    itself, so they map its Shilov boundary, the points pi(U) for unitary U,
    onto itself.  400 seeded unitaries, automorphisms v with |alpha| < 0.95
    and interior points from matrices of norm below 0.95.  Measured on these
    draws, the defect max(|x1 - conj(x2) x3|, ||x3| - 1|, |x2| - 1) of an
    image of pi(U) was at most 2.4e-15 (3.0e-15 over 4000 draws), so the
    tolerance is 1e-14; the least defect of an image of an interior point was
    0.21 (0.16 over 4000 draws), so those images are off the boundary even at
    tolerance 0.05.
    """
    rng = np.random.default_rng(18)
    for _ in range(400):
        x = pi_map(random_unitary(rng))
        y = random_point_in_e(rng)
        v = DiscAut(cmath.exp(2j * math.pi * rng.uniform()), random_disc(rng))
        for act in (lambda p: act_left(v, p), lambda p: act_right(p, v), flip):
            assert in_distinguished_boundary(act(x), tol=1e-14)
            assert not in_distinguished_boundary(act(y), tol=0.05)


def test_automorphisms_preserve_the_distance_bound():
    """c_T(g x, g y) = c_T(x, y) for g = act_left(v, .), act_right(., v) and
    flip, at 40 seeded pairs of non-triangular points of E.

    Each of them carries the family of slice maps Psi(w, .), Upsilon(w, .),
    |w| = 1, onto itself, up to a disc automorphism applied to the values
    (which rho does not see) and a change of w on the circle, so c_T, the
    maximum of rho over that family, is invariant.  v has |alpha| < 0.95 and
    so no pole on E.  Measured worst |c_T(g x, g y) - c_T(x, y)| over seeds
    0 to 19 of these draws (2400 checks): 7.8e-15 for act_left, 4.4e-15 for
    act_right and 0 for flip, which only swaps the two slice families; the
    tolerance is 4 times the worst."""
    rng = np.random.default_rng(19)
    for _ in range(40):
        x, y = random_point_in_e(rng), random_point_in_e(rng)
        assert not (is_triangular(x) or is_triangular(y))
        v = DiscAut(cmath.exp(2j * math.pi * rng.uniform()), random_disc(rng))
        c = c_T(x, y)
        for g in (lambda p: act_left(v, p), lambda p: act_right(p, v), flip):
            assert abs(c_T(g(x), g(y)) - c) <= 3.2e-14


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    e=_ENTRIES,
    norm=st.floats(0.05, 3.0),
    zero=st.sampled_from([None, (0, 1), (1, 0)]),
    theta=st.tuples(_ANGLE, _ANGLE),
)
def test_mu_is_invariant_under_diagonal_unitaries_and_transpose(e, norm, zero, theta):
    """mu_diag(D A D*) = mu_diag(A) = mu_diag(A.T) for diagonal unitary D.

    Both maps fix pi(A) = (a11, a22, det A), on which mu depends alone.
    Matrices of norm 0.05 to 3, triangular ones included, with a diagonal
    entry above 1e-3 in modulus, so that mu(A) >= 1e-3.  pi(A.T) equals
    pi(A) in floating point; D A D* moves pi(A) in the last bits, which can
    change a bisection verdict only next to the true radius, so each side
    stays within half of the bisection stop MU_RTOL = 1e-9 of the true mu,
    and the two within MU_RTOL.  Measured over 4000 examples drawn this
    way: all three values agreed bit for bit, worst difference 0.
    """
    A = _matrix(e, norm, zero)
    assume(max(abs(A[0, 0]), abs(A[1, 1])) > 1e-3)
    D = np.diag(np.exp(1j * np.array(theta)))
    mu = mu_diag(A)
    assert abs(mu_diag(A.T) - mu) <= MU_RTOL * mu
    assert abs(mu_diag(D @ A @ D.conj().T) - mu) <= MU_RTOL * mu


def test_commutant_bound_stays_below_one_under_a_synthesised_solution():
    """F is analytic with mu(F) <= 1 on the disc, so the diagonal-scaling
    infimum of the commutant operator at its values at 0 and lambda0 is at
    most 1.  Twelve seeded instances, four of each A1 shape, with
    |lambda0| = threshold / slack for slack in (0.9, 1): the threshold is
    the two-quotient maximum of pi(A2) for a corner shape and mu(A2) for the
    zero shape.  Measured worst case: 0.9971."""
    shapes = {"upper": mat2(0, 1, 0, 0), "lower": mat2(0, 0, 1, 0),
              "zero": mat2(0, 0, 0, 0)}
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(12):
        shape = ("upper", "lower", "zero")[k % 3]
        while True:
            A2 = random_contraction(rng, lo=0.2, hi=0.9)
            x = pi_map(A2)
            if not membership(x).in_set:
                continue
            threshold = mu_diag(A2) if shape == "zero" else criterion_max(x)
            l0 = threshold / rng.uniform(0.9, 1.0) * np.exp(2j * np.pi * rng.uniform())
            if abs(l0) < 0.99:
                break
        feasible, F = synth_two_point(SynthesisInstance(l0, shapes[shape], A2))
        assert feasible
        worst = max(worst, bft_lower_bound([0.0, l0], [F(0.0), F(l0)]))
    assert worst <= 1.0


def test_extremal_interpolants_are_geodesics(rng):
    """An svd_reduced interpolant phi is a complex geodesic: c_T, the Psi/
    Upsilon lower bound for the Caratheodory distance, which phi cannot
    increase, gives exactly rho(l1, l2) at every pair of nodes.  Forty
    seeded targets with |lambda0| at the two-quotient maximum itself, four
    node pairs each, |l| <= 0.99.  Measured worst case: |c_T - rho| =
    4.9e-15 over 2560 pairs (160 targets on each of four seeds).  With
    |lambda0| raised by 1e-12 relative, still inside the extremal band and
    so still svd_reduced, c_T falls below rho by up to 1.3e-10 (1 - rho):
    the data are then not quite extremal."""
    checked = 0
    while checked < 40:
        x = random_point_in_e(rng, hi=0.85)
        cm = criterion_max(x)
        if not 1e-3 < cm < 0.95:
            continue
        phi = solve_schwarz(cm * np.exp(2j * np.pi * rng.uniform()), x,
                            t=random_disc(rng, 1.0))
        assert phi.variant == "svd_reduced"
        for _ in range(4):
            l1, l2 = random_disc(rng, 0.99), random_disc(rng, 0.99)
            c = c_T(phi.evaluate(l1), phi.evaluate(l2))
            assert abs(c - pseudohyperbolic(l1, l2)) <= 1e-13
        checked += 1


def test_the_distance_bound_rules_out_two_point_synthesis(rng):
    """For a solution F of F(l1) = A, F(l2) = B with mu(F) <= 1, each slice
    Psi(w, .) o pi o F (|w| = 1) is a disc self-map, so c_T(pi(A), pi(B)) is
    at most rho(l1, l2): where c_T exceeds rho, synth_two_point_general must
    answer infeasible.  At a triangular base point c_T is also the criterion's
    own left side, so where c_T is below rho it must answer feasible.  The
    nodes are placed at rho = c_T times a factor in (0.5, 1.5).  Left out is
    the band from rho - 4e-15 to rho + 1e-12 + 4e-15: the criterion allows
    1e-12, and 4e-15 is 4 times the worst |c_T - lhs| measured on these
    draws, 8.9e-16 over 2000 pairs (40 seeds)."""
    ruled_out = 0
    for k in range(60):
        while True:
            A = random_contraction(rng, hi=0.9)
            A[(1, 0) if k % 2 else (0, 1)] = 0.0
            if membership(pi_map(A)).in_set:
                break
        B = random_contraction(rng, hi=0.95)
        c = c_T(pi_map(A), pi_map(B))
        l1 = random_disc(rng, 0.8)
        r = min(c * rng.uniform(0.5, 1.5), 0.999) * cmath.exp(2j * math.pi * rng.uniform())
        l2 = (l1 + r) / (1.0 + l1.conjugate() * r)
        rho = pseudohyperbolic(l1, l2)
        feasible = synth_two_point_general(l1, l2, A, B)
        if c > rho + 1e-12 + 4e-15:
            assert not feasible
            ruled_out += 1
        elif c < rho - 4e-15:
            assert feasible
    assert ruled_out >= 20, ruled_out


def _modulus(rng):
    """Uniform in [0, 1.5), or 1 -+ 10**-u with u uniform in [1, 15]."""
    if rng.uniform() < 0.5:
        return rng.uniform(0.0, 1.5)
    return 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(1.0, 15.0)


# 4 x the worst |min(m3, m3p)| over the points where the two verdicts
# differed (see the test)
BIDISC_BAND = 1.4e-15


def test_e_meets_the_triangular_points_in_the_bidisc():
    """membership((a, b, a b)).in_set == (|a| < 1 and |b| < 1): the defining
    polynomial factors there, 1 - a z - b w + a b z w = (1 - a z)(1 - b w).

    20000 seeded points, each modulus drawn by _modulus, so that half of the
    moduli lie 1e-1 to 1e-15 from the unit circle.  A point whose c3 margin
    min(m3, m3p) is within BIDISC_BAND of 0 is left out: there rounding
    decides c3, the membership verdict.  At (a, b, a b) the exact margins
    are (1 - |b|^2)(1 - |a|) and (1 - |a|^2)(1 - |b|), so next to the
    corner |a| = |b| = 1 they fall below rounding while both moduli are
    still 1e-8 or so from 1: a band on the moduli alone would not hold.
    Measured over seeds 0 to 15 (320000 points): the verdicts differed on
    6694 points, each with |min(m3, m3p)| <= 3.4e-16 and a modulus within
    6.4e-9 of 1; the band is 4 times the former.

    The bidisc holds for exactly triangular points only.  is_triangular
    allows x3 = a b + delta with |delta| up to about 1e-10 (1 + |a b|), and
    such a point can lie in the bidisc but outside E: at (1 - 1e-11, 0,
    1e-10), m3 < 0.  normalize_triangular validates with the bidisc and then
    membership's c3 margins, so on both points of each draw, (a, b, a b)
    and (a, b, a b + delta), it raises Outside exactly when membership reads
    outside, with no band.  2180 of the near points lie in the bidisc but
    outside E."""
    rng = np.random.default_rng(20)
    off_e_in_the_bidisc = 0
    for _ in range(20000):
        ra, rb = _modulus(rng), _modulus(rng)
        a = ra * cmath.exp(2j * math.pi * rng.uniform())
        b = rb * cmath.exp(2j * math.pi * rng.uniform())
        rep = membership((a, b, a * b))
        bidisc = abs(a) < 1.0 and abs(b) < 1.0
        if abs(min(rep.m3, rep.m3p)) > BIDISC_BAND:
            assert rep.in_set == bidisc, (a, b)
        delta = 0.99e-10 * (1.0 + abs(a * b)) * rng.uniform()
        near = (a, b, a * b + delta * cmath.exp(2j * math.pi * rng.uniform()))
        for x in ((a, b, a * b), near):
            assert is_triangular(x)
            try:
                normalize_triangular(x)
                outside = False
            except Outside:
                outside = True
            assert outside == (not membership(x).in_set), x
        off_e_in_the_bidisc += bidisc and not membership(near).in_set
    assert off_e_in_the_bidisc >= 1000, off_e_in_the_bidisc


_KINDS = ("inside", "outside", "near", "y2_off_the_disc", "scaled")
_SCALES = (1e1, 1e3, 1e10, 1e30, 1e100, 1e250)


def _second_point(rng, kind):
    """A point of one family: pi(t A), A a complex symmetric matrix of norm
    1 (the symmetric representative of its image, which is then in E
    exactly when t < 1), with t in [0, 0.99) ("inside"), [1.01, 3)
    ("outside") or 1 -+ 10**-u, u uniform in [2, 14] ("near"); a point with
    |y1|, |y3| < 1 <= |y2| < 3; or a near point times one of _SCALES."""
    if kind == "y2_off_the_disc":
        y2 = rng.uniform(1.0, 3.0) * cmath.exp(2j * math.pi * rng.uniform())
        return (random_disc(rng, 1.0), y2, random_disc(rng, 1.0))
    a, b, w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    n = op_norm(mat2(a, w, w, b))
    if kind == "inside":
        t = rng.uniform(0.0, 0.99)
    elif kind == "outside":
        t = rng.uniform(1.01, 3.0)
    else:
        t = 1.0 + rng.choice((-1.0, 1.0)) * 10.0 ** -rng.uniform(2.0, 14.0)
    t /= n
    y = (t * a, t * b, t * t * (a * b - w * w))
    if kind == "scaled":
        s = _SCALES[rng.integers(len(_SCALES))]
        y = tuple(s * c for c in y)
    return y


# 4 x the worst |min(m3, m3p)| of y over the pairs where the two verdicts
# differed (see the test)
QUOTIENT_BAND = 9.6e-14


def test_the_schwarz_pick_quotient_decides_membership_of_the_other_point():
    """schwarz_pick_triangular raises Outside exactly when y is not in E.

    At a triangular base x in E the quotient is criterion_max of y moved by
    the automorphism that carries x to 0, so it is below 1, with positive
    denominators, exactly on E.  20000 seeded pairs: x = (a, b, a b) with
    |a|, |b| < 0.98 and y from each family of _second_point in turn.  A pair
    with |min(m3, m3p)| of y within QUOTIENT_BAND is left out: there c3, the
    membership verdict, reads inside and the quotient can read >= 1 by
    rounding.  Measured over seeds 0 to 9 (200000 pairs): the verdicts
    differed on 3 pairs, each with |min(m3, m3p)| <= 2.0e-14, all of them
    near points; on other draws, 2.4e-14 over 199994 pairs.  The band is 4
    times the larger.  The scales skip 1e154 or so, where membership itself
    overflows (test_distances_survive_coordinates_near_1e154 covers the
    distance there)."""
    rng = np.random.default_rng(21)
    seen = set()
    for k in range(20000):
        kind = _KINDS[k % len(_KINDS)]
        a, b = random_disc(rng, 0.98), random_disc(rng, 0.98)
        y = _second_point(rng, kind)
        rep = membership(y)
        if abs(min(rep.m3, rep.m3p)) <= QUOTIENT_BAND:
            continue
        try:
            schwarz_pick_triangular(0.1, 0.6, (a, b, a * b), y)
            outside = False
        except Outside:
            outside = True
        assert outside == (not rep.in_set), (a, b, y)
        seen.add((kind, outside))
    assert seen == {("inside", False), ("near", False), ("near", True),
                    ("outside", True), ("y2_off_the_disc", True), ("scaled", True)}
