import numpy as np
import pytest

from tetra.autgroup import (
    DiscAut,
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
    NotTriangular,
    NotUnimodular,
    Outside,
    OutsideDisc,
    Pole,
)
from tetra.metrics import pseudohyperbolic
from tetra.tetrablock import criterion_max, membership

from conftest import random_disc, random_point_in_e


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


def test_normalize_triangular_guards():
    with pytest.raises(NotTriangular):
        normalize_triangular((0.5, 0.25, 0.5))
    with pytest.raises(Outside):
        normalize_triangular((1.5, 0.2, 0.3))


# --- explicit Schwarz-Pick bound ------------------------------------------

def test_schwarz_pick_zero_base_equals_criterion(rng):
    for _ in range(200):
        y = random_point_in_e(rng)
        res = schwarz_pick_triangular(0.0, 0.5, (0.0, 0.0, 0.0), y)
        assert res.lhs == pytest.approx(criterion_max(y), abs=1e-12)
        assert res.feasible == (res.lhs <= 0.5 + 1e-12)


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
