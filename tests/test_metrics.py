import math

import numpy as np
import pytest

from tetra.autgroup import DiscAut, act_left, act_right, flip
from tetra.errors import Outside, OutsideDisc, Unsupported
from tetra.metrics import dist_from_origin, dist_triangular_pair, pseudohyperbolic
from tetra.tetrablock import criterion_max

from conftest import random_disc, random_point_in_e


def test_pseudohyperbolic_known_values():
    assert pseudohyperbolic(0.3, 0.625) == pytest.approx(0.4, abs=1e-14)
    assert pseudohyperbolic(0.0, 0.5) == pytest.approx(0.5, abs=1e-14)
    assert pseudohyperbolic(0.2j, 0.2j) == 0.0


def test_pseudohyperbolic_symmetry_and_invariance(rng):
    for _ in range(300):
        l1, l2 = random_disc(rng), random_disc(rng)
        d = pseudohyperbolic(l1, l2)
        assert d == pytest.approx(pseudohyperbolic(l2, l1), abs=1e-14)
        assert 0.0 <= d < 1.0
        # Moebius invariance
        v = DiscAut(np.exp(2j * np.pi * rng.uniform()), random_disc(rng, 0.9))
        assert pseudohyperbolic(v(l1), v(l2)) == pytest.approx(d, abs=1e-12)
    with pytest.raises(OutsideDisc):
        pseudohyperbolic(1.5, 0.0)


def test_dist_from_origin_axis_points():
    # the slice (t, 0, 0) realises the disc: distance atanh(t)
    for t in (0.1, 0.5, 0.9, 0.99):
        assert dist_from_origin((t, 0.0, 0.0)) == pytest.approx(
            math.atanh(t), abs=1e-12
        )
    assert dist_from_origin((0.0, 0.0, 0.0)) == 0.0


def test_dist_from_origin_is_atanh_of_criterion(rng):
    for _ in range(200):
        x = random_point_in_e(rng)
        assert dist_from_origin(x) == pytest.approx(
            math.atanh(criterion_max(x)), abs=1e-12
        )
    with pytest.raises(Outside):
        dist_from_origin((1.2, 0.0, 0.0))


def test_dist_triangular_pair_reduces_to_origin(rng):
    # distance from a triangular point equals the normalized origin distance
    for _ in range(100):
        a, b = random_disc(rng, 0.8), random_disc(rng, 0.8)
        xt = (a, b, a * b)
        y = random_point_in_e(rng)
        d = dist_triangular_pair(xt, y)
        assert d == dist_triangular_pair(y, xt)  # symmetric dispatch
        assert d >= 0.0
    assert dist_triangular_pair((0, 0, 0), (0.5, 0, 0)) == pytest.approx(
        math.atanh(0.5), abs=1e-12
    )


def test_dist_triangular_pair_invariant_under_actions(rng):
    for _ in range(100):
        a, b = random_disc(rng, 0.7), random_disc(rng, 0.7)
        xt = (a, b, a * b)
        y = random_point_in_e(rng)
        d = dist_triangular_pair(xt, y)
        v = DiscAut(np.exp(2j * np.pi * rng.uniform()), random_disc(rng, 0.8))
        chi = DiscAut(np.exp(2j * np.pi * rng.uniform()), random_disc(rng, 0.8))
        xt2 = act_right(act_left(v, xt), chi)
        y2 = act_right(act_left(v, y), chi)
        d2 = dist_triangular_pair(xt2, y2)
        assert d2 == pytest.approx(d, abs=1e-9)


def test_distances_are_invariant_under_the_flip(rng):
    # flip (x1, x2, x3) -> (x2, x1, x3) is an automorphism of E.  Both
    # distances are bit-identical under it: the two quotients of
    # dist_from_origin, and the two Schwarz-Pick terms of
    # dist_triangular_pair, trade places.  Over seeds 0 to 19 of these draws
    # (20 000 pairs for the latter) no value moved
    for _ in range(500):
        x = random_point_in_e(rng)
        assert dist_from_origin(flip(x)) == dist_from_origin(x)
        a, b = random_disc(rng), random_disc(rng)
        xt = (a, b, a * b)
        y = random_point_in_e(rng)
        for p, q in ((xt, y), (y, xt)):
            d, df = dist_triangular_pair(p, q), dist_triangular_pair(flip(p), flip(q))
            assert df == d


def test_dist_triangular_pair_triangle_inequality_via_origin(rng):
    # d(x, y) <= d(x, 0) + d(0, y) for triangular x
    for _ in range(100):
        a, b = random_disc(rng, 0.7), random_disc(rng, 0.7)
        xt = (a, b, a * b)
        y = random_point_in_e(rng)
        lhs = dist_triangular_pair(xt, y)
        rhs = dist_from_origin(xt) + dist_from_origin(y)
        assert lhs <= rhs + 1e-10


def test_dist_triangular_pair_guards():
    with pytest.raises(Unsupported):
        dist_triangular_pair((0.5, 0.25, 0.5), (0.3, 0.2, 0.1))
    with pytest.raises(Outside):
        dist_triangular_pair((0.3, 0.2, 0.06), (1.5, 0.0, 0.0))
    with pytest.raises(Outside):
        dist_triangular_pair((1.5, 0.2, 0.3), (0.1, 0.0, 0.0))
    # triangular within is_triangular's tolerance and in the bidisc, but off
    # E (m3 < 0); the message names the point that fails
    near = (1 - 1e-11, 0.0, 1e-10)
    with pytest.raises(Outside, match="^first point"):
        dist_triangular_pair(near, (0.1, 0.0, 0.0))
    with pytest.raises(Outside, match="^second point"):
        dist_triangular_pair((0.3, 0.2, 0.1), near)
