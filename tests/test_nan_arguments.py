"""A NaN argument raises the typed error its range check names.

Each check below is written as ``not abs(z) < 1.0`` (or ``<=``), so that a
NaN fails it, rather than as ``abs(z) >= 1.0``, which a NaN passes; a disc
automorphism and ``psi`` reject a non-finite argument outright, and so does
every point function of ``tetrablock``, which validates its point once
before it computes anything.
"""
import math

import numpy as np
import pytest

from tetra.autgroup import DiscAut, pseudohyperbolic, schwarz_pick_triangular
from tetra.errors import (
    BadBeta, BadLambda, BadShape, BadTolerance, InfeasiblePick, NonFinite, OutsideDisc,
)
from tetra.interpolate import scalar_np2, solve_schwarz, verify_interpolant
from tetra.metrics import dist_triangular_pair
from tetra.musyn import bft_lower_bound, synth_two_point_general
from tetra.tetrablock import (
    GeodesicDisc, as_cpoint3, criterion_max, d_of, geodesic_eval, in_distinguished_boundary,
    is_triangular, membership, psi, upsilon_fn,
)

NAN = math.nan
X = (0.5, 0.25, 0.5)
TRI = (0.3, 0.2, 0.06)
UPPER = [[0.3, 0.1], [0.0, 0.2]]
FULL = [[0.3, 0.1], [0.2, 0.2]]
PHI = solve_schwarz(-0.9, X)
BIG = complex(1.5e308, 1.5e308)

CASES = [
    (lambda: pseudohyperbolic(NAN, 0.2), OutsideDisc),
    (lambda: pseudohyperbolic(0.2, complex(0.1, NAN)), OutsideDisc),
    (lambda: scalar_np2(NAN, 0.1, 0.5, 0.2), BadLambda),
    (lambda: scalar_np2(0.0, 0.1, NAN, 0.2), BadLambda),
    (lambda: scalar_np2(0.0, 0.1, 0.5, NAN), InfeasiblePick),
    (lambda: schwarz_pick_triangular(NAN, 0.5, TRI, X), OutsideDisc),
    (lambda: schwarz_pick_triangular(0.0, NAN, TRI, X), OutsideDisc),
    (lambda: synth_two_point_general(NAN, 0.5, UPPER, FULL), OutsideDisc),
    (lambda: synth_two_point_general(0.0, NAN, UPPER, FULL), OutsideDisc),
    (lambda: bft_lower_bound([NAN], [FULL]), BadShape),
    (lambda: bft_lower_bound([0.0, NAN], [UPPER, FULL]), BadShape),
    (lambda: geodesic_eval(GeodesicDisc(NAN, 0.1), 0.2), BadBeta),
    (lambda: geodesic_eval(GeodesicDisc(0.2, 0.1), NAN), OutsideDisc),
    (lambda: psi(NAN, X), NonFinite),
    (lambda: psi(complex(0.0, NAN), TRI), NonFinite),
    (lambda: upsilon_fn(NAN, X), NonFinite),
    (lambda: PHI.lift_evaluate(NAN), OutsideDisc),
    (lambda: PHI.evaluate(np.array([0.1, NAN, 0.2])), OutsideDisc),
    (lambda: DiscAut(1.0, 0.5)(NAN), NonFinite),
    (lambda: DiscAut(1.0, 0.5)(complex(0.2, math.inf)), NonFinite),
    (lambda: verify_interpolant(PHI, samples=4, tol=NAN), BadTolerance),
    (lambda: membership((NAN, 0.25, 0.5)), NonFinite),
    (lambda: membership((0.5, complex(0.25, math.inf), 0.5), closed=True), NonFinite),
    (lambda: is_triangular((0.3, 0.2, NAN)), NonFinite),
    (lambda: d_of((0.5, math.inf, 0.5)), NonFinite),
    (lambda: criterion_max((0.5, 0.25, complex(NAN, 0.1))), NonFinite),
    (lambda: in_distinguished_boundary((-math.inf, 0.25, 0.5)), NonFinite),
    # finite parts whose modulus overflows are no more a point than an inf
    (lambda: membership((BIG, 0.0, 0.0)), NonFinite),
    (lambda: criterion_max((0.0, BIG, 0.0)), NonFinite),
    (lambda: dist_triangular_pair((0.1, 0.2, 0.02), (0.0, 0.0, BIG)), NonFinite),
]


@pytest.mark.parametrize("call, error", CASES, ids=[str(k) for k in range(len(CASES))])
def test_a_nan_argument_raises_a_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_a_point_of_large_but_finite_moduli_is_a_point():
    x = (1e300, complex(1e300, 1e300), 1.7e308)
    assert as_cpoint3(x) == tuple(complex(c) for c in x)
