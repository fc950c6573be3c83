"""An independent two-point distance oracle for the tetrablock.

Each slice map Psi(w, .) and Upsilon(w, .) with |w| = 1 sends E into the
disc, so

    c_T(x, y) = max over |w| = 1 of max(rho(Psi(w, x), Psi(w, y)),
                                        rho(Upsilon(w, x), Upsilon(w, y)))

(rho the pseudohyperbolic distance) is at most tanh of the Caratheodory
distance.  It is computed here from its definition alone, by a 4096-angle
scan of the circle and a golden-section refinement, with none of tetra's
distance code, and compared with the closed forms at triangular pairs.
"""
import math

import numpy as np

from tetra.autgroup import schwarz_pick_triangular
from tetra.metrics import dist_triangular_pair

from conftest import random_disc, random_point_in_e

_ANGLES = 2.0 * np.pi * np.arange(4096) / 4096
_STEP = 2.0 * np.pi / 4096
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _slice(w, x1, x2, x3):
    """Psi(w, x) = (x3 w - x1) / (x2 w - 1); Upsilon swaps x1 and x2."""
    return (x3 * w - x1) / (x2 * w - 1.0)


def _rho(a, b):
    return np.abs(a - b) / np.abs(1.0 - np.conj(a) * b)


def _golden_max(f, lo, hi, tol=1e-13):
    """Maximum of f on [lo, hi] by golden-section search."""
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return max(fc, fd)


def c_T(x, y):
    best = 0.0
    for swap in (False, True):
        xs = (x[1], x[0], x[2]) if swap else x
        ys = (y[1], y[0], y[2]) if swap else y

        def f(theta):
            w = np.exp(1j * theta)
            return _rho(_slice(w, *xs), _slice(w, *ys))

        k = int(np.argmax(f(_ANGLES)))
        theta = _ANGLES[k]
        best = max(best, _golden_max(f, theta - _STEP, theta + _STEP))
    return float(best)


def test_c_T_matches_the_triangular_closed_forms(rng):
    # x triangular, y anywhere in E: both closed forms give tanh of the
    # distance, and c_T reaches it
    for _ in range(300):
        x1, x2 = random_disc(rng), random_disc(rng)
        x = (x1, x2, x1 * x2)
        y = random_point_in_e(rng)
        c = c_T(x, y)
        assert abs(c - math.tanh(dist_triangular_pair(x, y))) <= 1e-12
        # lhs does not depend on the nodes, only on x and y
        assert abs(c - schwarz_pick_triangular(0.0, 0.5, x, y).lhs) <= 1e-12
