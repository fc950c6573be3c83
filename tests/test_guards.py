"""Each argument guard of the library raises its own typed error.

One case per guard that no other test reaches: a pole, a radius or node
pair outside a solver's range, and a stored interpolant whose variant does
not match its re-solve.
"""
import pytest

from tetra.autgroup import diamond
from tetra.errors import BadLambda, BadShape, NumericalDegenerate, Pole
from tetra.interpolate import Interpolant, big_m, scalar_np2, solve_schwarz
from tetra.musyn import bft_lower_bound
from tetra.tetrablock import membership_grid_oracle

UPPER = [[0.3, 0.1], [0.0, 0.2]]
MOBIUS = solve_schwarz(-0.9, (0.5, 0.25, 0.5))
assert MOBIUS.variant == "mobius_blaschke"

CASES = {
    "diamond pole": (lambda: diamond((0.1, 0.5, 0.2), (2.0, 0.1, 0.3)), Pole),
    "big_m at rho = 1": (lambda: big_m(UPPER, 1.0), BadLambda),
    "scalar_np2 equal nodes": (lambda: scalar_np2(0.3, 0.1, 0.3, 0.2), BadLambda),
    "relabelled payload": (
        lambda: Interpolant.from_payload({**MOBIUS.to_payload(), "variant": "svd_reduced"}),
        NumericalDegenerate,
    ),
    "bft unequal lengths": (lambda: bft_lower_bound([0.1, 0.2], [UPPER]), BadShape),
    "bft equal nodes": (lambda: bft_lower_bound([0.1, 0.1], [UPPER, UPPER]), BadShape),
}


@pytest.mark.parametrize("call, error", CASES.values(), ids=list(CASES))
def test_a_guard_raises_its_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_the_closure_grid_oracle_finds_an_exterior_root():
    # |x1| > 1: the defining polynomial has a root with |z|, |w| < 1
    assert membership_grid_oracle((1.2, 0.3, 0.1), closed=True, n=60) is False
    assert membership_grid_oracle((0.5, 0.25, 0.5), closed=True, n=60) is True
