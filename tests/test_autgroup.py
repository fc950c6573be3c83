import json
import math

import jsonschema
import numpy as np
import pytest

import tetra.autgroup
import tetra.metrics
import tetra.tetrablock
from tetra.autgroup import (
    DiscAut,
    _sp_quotient,
    act_left,
    act_right,
    diamond,
    flip,
    normalize_triangular,
    schwarz_pick_triangular,
    tau,
    upsilon_star,
)
from tetra.errors import (
    BadLambda,
    BadShape,
    NotTriangular,
    NotUnimodular,
    Outside,
    OutsideDisc,
    Pole,
    Unsupported,
)
from tetra.cli import run
from tetra.linalg import op_norm
from tetra.metrics import dist_from_origin, dist_triangular_pair, pseudohyperbolic
from tetra.musyn import synth_two_point_general
from tetra.tetrablock import as_cpoint3, criterion_max, is_triangular, membership

from conftest import random_contraction, random_disc, random_point_in_e
from test_cli import SCHEMAS


def random_aut(rng, r=0.9):
    return DiscAut(np.exp(2j * np.pi * rng.uniform()), random_disc(rng, r))


def points_close(x, y, tol=1e-11):
    return max(abs(a - b) for a, b in zip(x, y)) <= tol


# --- DiscAut -------------------------------------------------------------

def test_discaut_validates():
    with pytest.raises(OutsideDisc):
        DiscAut(1.0, 1.0)
    with pytest.raises(ValueError):
        DiscAut(0.5, 0.0)  # omega must be unimodular


def test_discaut_rejects_nan():
    with pytest.raises(NotUnimodular):
        DiscAut(complex("nan"), 0.0)
    with pytest.raises(OutsideDisc):
        DiscAut(1.0, complex("nan"))


def test_discaut_maps_disc_to_disc(rng):
    for _ in range(200):
        v = random_aut(rng)
        z = random_disc(rng, 0.999)
        assert abs(v(z)) < 1.0
        # boundary to boundary
        w = np.exp(2j * np.pi * rng.uniform())
        assert abs(v(w)) == pytest.approx(1.0, abs=1e-12)
    # alpha maps to 0
    v = DiscAut(1.0, 0.3 + 0.1j)
    assert abs(v(0.3 + 0.1j)) < 1e-14


def test_discaut_compose_and_inverse(rng):
    for _ in range(200):
        v1, v2 = random_aut(rng), random_aut(rng)
        z = random_disc(rng, 0.95)
        assert v1.compose(v2)(z) == pytest.approx(v1(v2(z)), abs=1e-12)
        assert v1.inverse()(v1(z)) == pytest.approx(z, abs=1e-12)
    e = DiscAut.identity()
    assert e(0.37 - 0.2j) == pytest.approx(0.37 - 0.2j, abs=1e-14)


def test_discaut_pole_guard():
    v = DiscAut(1.0, 0.5)
    with pytest.raises(Pole):
        v(2.0)  # 1/conj(alpha) = 2 is the pole


# --- diamond semigroup ---------------------------------------------------

def test_diamond_associative(rng):
    for _ in range(300):
        x = tau(random_aut(rng))
        y = tau(random_aut(rng))
        z = tau(random_aut(rng))
        assert points_close(diamond(diamond(x, y), z), diamond(x, diamond(y, z)))


def test_diamond_identity_element(rng):
    e = (0.0, 0.0, -1.0)
    assert points_close(tau(DiscAut.identity()), e, tol=0.0)
    for _ in range(100):
        x = tau(random_aut(rng))
        assert points_close(diamond(e, x), x)
        assert points_close(diamond(x, e), x)


def test_tau_is_homomorphism(rng):
    for _ in range(300):
        v1, v2 = random_aut(rng), random_aut(rng)
        lhs = tau(v1.compose(v2))
        rhs = diamond(tau(v1), tau(v2))
        assert points_close(lhs, rhs)


def test_flip_antihomomorphism(rng):
    for _ in range(200):
        x, y = tau(random_aut(rng)), tau(random_aut(rng))
        assert points_close(flip(diamond(x, y)), diamond(flip(y), flip(x)))


# --- group actions on the domain ------------------------------------------

def test_actions_preserve_membership(rng):
    for _ in range(200):
        v = random_aut(rng)
        x = random_point_in_e(rng)
        assert membership(act_left(v, x)).in_set
        assert membership(act_right(x, v)).in_set


def test_actions_commute(rng):
    for _ in range(200):
        v1, v2 = random_aut(rng), random_aut(rng)
        x = random_point_in_e(rng)
        lhs = act_right(act_left(v1, x), v2)
        rhs = act_left(v1, act_right(x, v2))
        assert points_close(lhs, rhs)


def test_flip_conjugates_left_to_right(rng):
    for _ in range(200):
        v = random_aut(rng)
        x = random_point_in_e(rng)
        lhs = flip(act_left(v, x))
        rhs = act_right(flip(x), upsilon_star(v))
        assert points_close(lhs, rhs)


def test_left_action_composes(rng):
    for _ in range(200):
        v1, v2 = random_aut(rng), random_aut(rng)
        x = random_point_in_e(rng)
        assert points_close(
            act_left(v1, act_left(v2, x)), act_left(v1.compose(v2), x)
        )


# --- triangular normalization ---------------------------------------------

def test_normalize_triangular_lands_at_origin(rng):
    for _ in range(200):
        a, b = random_disc(rng), random_disc(rng)
        xt = (a, b, a * b)
        v, chi = normalize_triangular(xt)
        image = act_right(act_left(v, xt), chi)
        assert points_close(image, (0.0, 0.0, 0.0))


# triangular within is_triangular's tolerance and in the bidisc, but off E:
# m3 < 0 at the first, |x3| > 1 at the second
NEAR_TRIANGULAR_OFF_E = (
    (1 - 1e-11, 0.0, 1e-10),
    (1 - 1e-11, 1 - 1e-11, (1 - 1e-11) ** 2 + 2.5e-10),
)


def test_normalize_triangular_guards():
    with pytest.raises(NotTriangular):
        normalize_triangular((0.5, 0.25, 0.5))
    with pytest.raises(Outside):
        normalize_triangular((1.5, 0.2, 0.3))
    for x in NEAR_TRIANGULAR_OFF_E:
        assert is_triangular(x) and not membership(x).in_set
        with pytest.raises(Outside):
            normalize_triangular(x)


# --- explicit Schwarz-Pick bound ------------------------------------------

def test_schwarz_pick_zero_base_equals_criterion(rng):
    # at the origin base each term reduces, operation for operation, to one
    # of criterion_max's two quotients, so the values agree bit for bit
    for _ in range(2000):
        y = random_point_in_e(rng)
        res = schwarz_pick_triangular(0.0, 0.5, (0.0, 0.0, 0.0), y)
        assert res.lhs == criterion_max(y)
        assert res.feasible == (res.lhs <= 0.5 + 1e-12)
        assert dist_triangular_pair((0, 0, 0), y) == dist_from_origin(y)


def test_schwarz_pick_matches_normalization(rng):
    for _ in range(200):
        a, b = random_disc(rng, 0.85), random_disc(rng, 0.85)
        xt = (a, b, a * b)
        y = random_point_in_e(rng)
        res = schwarz_pick_triangular(0.1, 0.6, xt, y)
        v, chi = normalize_triangular(xt)
        moved = act_right(act_left(v, y), chi)
        assert res.lhs == pytest.approx(criterion_max(moved), abs=1e-9)


def test_schwarz_pick_feasibility_threshold(rng):
    # the bound is sharp: lhs exactly at the pseudohyperbolic distance flips it
    xt = (0.0, 0.0, 0.0)
    y = (0.3, 0.0, 0.0)
    lam2 = 0.31
    res = schwarz_pick_triangular(0.0, lam2, xt, y)
    assert res.lhs == pytest.approx(0.3, abs=1e-12)
    assert res.feasible
    assert pseudohyperbolic(0.0, lam2) > res.lhs
    res2 = schwarz_pick_triangular(0.0, 0.29, xt, y)
    assert not res2.feasible


def test_schwarz_pick_guards():
    with pytest.raises(BadLambda):
        schwarz_pick_triangular(0.2, 0.2, (0, 0, 0), (0.1, 0, 0))
    with pytest.raises(OutsideDisc):
        schwarz_pick_triangular(0.2, 1.5, (0, 0, 0), (0.1, 0, 0))
    with pytest.raises(NotTriangular):
        schwarz_pick_triangular(0.1, 0.2, (0.5, 0.25, 0.5), (0.1, 0, 0))
    with pytest.raises(Outside):
        schwarz_pick_triangular(0.1, 0.2, (0, 0, 0), (1.5, 0, 0))
    for x in NEAR_TRIANGULAR_OFF_E:
        with pytest.raises(Outside, match="^x is"):
            schwarz_pick_triangular(0.1, 0.2, x, (0.1, 0, 0))


# --- the Schwarz-Pick quotient, tanh of the triangular-pair distance --------

def test_schwarz_pick_accepts_a_point_of_e_next_to_the_boundary():
    # one denominator is 1 - |y2|^2, about 2e-15 here, with a numerator of 0;
    # it is positive, so the quotient is finite: only a denominator that is
    # not positive reads as inf, a point outside E
    for y in ((0.0, 1.0 - 1e-15, 0.0), (1.0 - 1e-15, 0.0, 0.0)):
        res = schwarz_pick_triangular(0.0, 0.5, (0.0, 0.0, 0.0), y)
        assert res.lhs == criterion_max(y) == 1.0 - 1e-15
        assert not res.feasible
        assert dist_triangular_pair((0.0, 0.0, 0.0), y) == dist_from_origin(y)


def test_dist_triangular_pair_reads_the_quotient_without_normalizing(monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("the distance went through the normalization")

    for module in (tetra.autgroup, tetra.metrics):
        for name in ("normalize_triangular", "act_left", "act_right", "dist_from_origin"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for _ in range(100):
        a, b = random_disc(rng), random_disc(rng)
        xt = (a, b, a * b)
        y = random_point_in_e(rng)
        d = dist_triangular_pair(xt, y)
        assert d == dist_triangular_pair(y, xt)
        assert d == math.atanh(schwarz_pick_triangular(0.1, 0.6, xt, y).lhs)


def pairs_with_quotient(rng, q, n):
    """n pairs (x, y), x triangular with |x1|, |x2| < 0.95 and y in E, whose
    pair quotient is within rounding of q: y is the preimage, under x's
    normalization, of a point pi(t A) with criterion_max q, t found by
    bisection along a random matrix A of norm 1."""
    out = []
    while len(out) < n:
        a, b = random_disc(rng), random_disc(rng)
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = G / op_norm(G)
        lo, hi = 0.0, 1.0
        for _ in range(60):
            t = 0.5 * (lo + hi)
            z = (t * A[0, 0], t * A[1, 1], t * t * (A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]))
            lo, hi = (t, hi) if criterion_max(z) < q else (lo, t)
        # pi(A) may lie inside E, and then no t reaches q
        if not abs(criterion_max(z) - q) <= 1e-3 * (1.0 - q):
            continue
        v, chi = normalize_triangular((a, b, a * b))
        y = act_left(v.inverse(), act_right(z, chi.inverse()))
        if membership(y).in_set:
            out.append(((a, b, a * b), as_cpoint3(y)))
    return out


def quotient_by_normalization(mp, x, y):
    """The pair quotient from its definition at mp's working precision: move
    x to the origin by normalize_triangular's pair (left action of
    z -> (z - x1)/(conj(x1) z - 1), then right action of
    z -> (z + conj(x2))/(x2 z + 1)) and take criterion_max of y's image."""
    x1, x2 = (mp.mpmathify(complex(c)) for c in x[:2])
    y1, y2, y3 = (mp.mpmathify(c) for c in y)
    den = 1 - mp.conj(x1) * y1
    m1, m2, m3 = (x1 - y1) / den, (y2 - mp.conj(x1) * y3) / den, (x1 * y2 - y3) / den
    den = 1 - m2 * mp.conj(x2)
    z1, z2, z3 = (m1 - m3 * mp.conj(x2)) / den, (m2 - x2) / den, (m3 - m1 * x2) / den
    crd = abs(z1 * z2 - z3)
    return max(
        (abs(z1 - mp.conj(z2) * z3) + crd) / (1 - abs(z2) ** 2),
        (abs(z2 - mp.conj(z1) * z3) + crd) / (1 - abs(z1) ** 2),
    )


# 4 x the worst of |quotient - exact| / (1 - exact) over 21 seeds of
# pairs_with_quotient (50 pairs per level): 1.3e-13, 3.1e-12 and 1.8e-10 at
# quotients 0.7, 0.99 and 0.9999.  The normalization path in double measured
# 5.0e-14, 4.2e-12 and 1.2e-10; the paper's expanded numerator, before its
# regrouping into two products, 3.5e-13, 3.8e-11 and 2.8e-9.
QUOTIENT_TOL = {0.7: 5.2e-13, 0.99: 1.3e-11, 0.9999: 7.2e-10}


def test_schwarz_pick_quotient_matches_the_normalization_in_40_digits(rng):
    """The closed-form quotient against the normalization path evaluated in
    40-digit arithmetic, at pairs whose quotient is 0.7, 0.99 and 0.9999;
    the error is measured relative to 1 - q, which atanh divides by."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for q, tol in QUOTIENT_TOL.items():
            for x, y in pairs_with_quotient(rng, q, 50):
                exact = quotient_by_normalization(mpmath.mp, x, y)
                err = abs(_sp_quotient(as_cpoint3(x), y) - exact) / (1 - exact)
                assert err <= tol, (q, float(err))


# --- validation at a triangular point builds no membership report ----------

def _forbid_reports(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a membership report was built")

    for module in (tetra.tetrablock, tetra.autgroup, tetra.metrics):
        for name in ("_report", "membership"):
            monkeypatch.setattr(module, name, forbidden, raising=False)


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the type stands for the answer
        return type(exc)


UPPER = np.array([[0.05, 0.3], [0.0, 0.04]], dtype=complex)
FULL = np.array([[0.3, 0.2], [0.1, 0.2]], dtype=complex)
# every input of the guard tests of the four functions, with its error
GUARD_CASES = [
    (lambda: normalize_triangular((0.5, 0.25, 0.5)), NotTriangular),
    (lambda: normalize_triangular((1.5, 0.2, 0.3)), Outside),
    (lambda: schwarz_pick_triangular(0.2, 0.2, (0, 0, 0), (0.1, 0, 0)), BadLambda),
    (lambda: schwarz_pick_triangular(0.2, 1.5, (0, 0, 0), (0.1, 0, 0)), OutsideDisc),
    (lambda: schwarz_pick_triangular(0.1, 0.2, (0.5, 0.25, 0.5), (0.1, 0, 0)), NotTriangular),
    (lambda: schwarz_pick_triangular(0.1, 0.2, (0, 0, 0), (1.5, 0, 0)), Outside),
    (lambda: schwarz_pick_triangular(math.nan, 0.5, (0.3, 0.2, 0.06), (0.5, 0.25, 0.5)), OutsideDisc),
    (lambda: dist_triangular_pair((0.5, 0.25, 0.5), (0.3, 0.2, 0.1)), Unsupported),
    (lambda: dist_triangular_pair((0.3, 0.2, 0.06), (1.5, 0.0, 0.0)), Outside),
    (lambda: dist_triangular_pair((1.5, 0.2, 0.3), (0.1, 0.0, 0.0)), Outside),
    *[(lambda x=x: normalize_triangular(x), Outside) for x in NEAR_TRIANGULAR_OFF_E],
    *[(lambda x=x: schwarz_pick_triangular(0.1, 0.2, x, (0.1, 0, 0)), Outside)
      for x in NEAR_TRIANGULAR_OFF_E],
    *[(lambda x=x: dist_triangular_pair(x, (0.1, 0.0, 0.0)), Outside)
      for x in NEAR_TRIANGULAR_OFF_E],
    *[(lambda x=x: dist_triangular_pair((0.3, 0.2, 0.1), x), Outside)
      for x in NEAR_TRIANGULAR_OFF_E],
    (lambda: synth_two_point_general(0.1, 0.6, FULL, FULL), BadShape),
    (lambda: synth_two_point_general(0.1, 0.6, np.diag([0.1, 0.2]), FULL), BadShape),
    (lambda: synth_two_point_general(0.1, 0.6, UPPER, np.diag([0.1, 0.2])), BadShape),
    (lambda: synth_two_point_general(math.nan, 0.5, UPPER, FULL), OutsideDisc),
]


def test_triangular_point_functions_build_no_membership_report(monkeypatch, rng):
    """normalize_triangular, schwarz_pick_triangular, dist_triangular_pair
    and synth_two_point_general decide membership from the two closed forms
    alone: with membership and its report replaced by functions that raise,
    they give the same answers on seeded inputs (errors included) and the
    same error types on every input of their guard tests."""
    pairs = []
    for _ in range(100):
        a, b = random_disc(rng), random_disc(rng)
        pairs.append(((a, b, a * b), random_point_in_e(rng)))
    mats = []
    for _ in range(40):
        A, B = random_contraction(rng, hi=1.2), random_contraction(rng, hi=1.2)
        A[1, 0] = 0.0
        mats.append((A, B))

    def answers():
        return [
            [_outcome(lambda: normalize_triangular(x)) for x, _ in pairs],
            [_outcome(lambda: schwarz_pick_triangular(0.1, 0.6, x, y)) for x, y in pairs],
            [_outcome(lambda: dist_triangular_pair(x, y)) for x, y in pairs],
            [_outcome(lambda: dist_triangular_pair(y, x)) for x, y in pairs],
            [_outcome(lambda: synth_two_point_general(0.1, 0.6, A, B)) for A, B in mats],
        ]

    expected = answers()
    assert Outside in expected[4] and True in expected[4]
    _forbid_reports(monkeypatch)
    assert answers() == expected
    for call, error in GUARD_CASES:
        with pytest.raises(error):
            call()


BIG = (0.0, 1e154, 1.5e154 + 1.5e154j)


def test_distances_survive_coordinates_near_1e154(monkeypatch, capsys):
    """Each coordinate of BIG has a finite modulus, but conj(x2) x3 does not,
    so a membership report of BIG overflows.  The quotient reads BIG off the
    open tridisc before any arithmetic: inf, and Outside from the functions
    that read it, in the library and through the CLI (exit 1 and one error
    document)."""
    _forbid_reports(monkeypatch)
    x = (0.1, 0.2, 0.02)
    assert _sp_quotient(as_cpoint3(x), as_cpoint3(BIG)) == math.inf
    for call in (
        lambda: dist_triangular_pair(x, BIG),
        lambda: dist_triangular_pair(BIG, x),
        lambda: schwarz_pick_triangular(0.1, 0.6, x, BIG),
    ):
        with pytest.raises(Outside):
            call()
    big = "[0, 1e154, [1.5e154, 1.5e154]]"
    for ends in (("[0.1, 0.2, 0.02]", big), (big, "[0.1, 0.2, 0.02]")):
        code = run(["dist", "--from", ends[0], "--to", ends[1]])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        doc = json.loads(err)  # one document: trailing data would not parse
        jsonschema.validate(doc, SCHEMAS["error"])
        assert doc["error"]["type"] == "Outside"
