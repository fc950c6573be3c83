"""Each argument guard of the library raises its own typed error.

One case per guard that no other test reaches: a pole, a radius or node
pair outside a solver's range, a stored interpolant whose variant does not
match its re-solve, and a point whose coordinates have finite moduli while
a modulus the membership criteria take of them overflows.
"""
import functools
import json
from importlib import resources

import jsonschema
import pytest

from tetra.autgroup import diamond
from tetra.cli import run
from tetra.errors import BadLambda, BadShape, NonFinite, NumericalDegenerate, Pole
from tetra.interpolate import Interpolant, big_m, scalar_np2, solve_schwarz
from tetra.musyn import bft_lower_bound
from tetra.metrics import dist_from_origin
from tetra.tetrablock import (
    criterion_max,
    d_of,
    in_distinguished_boundary,
    membership,
    membership_grid_oracle,
)

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


# |x1 - conj(x2) x3| = |x3| |x2| is about 2.1e308, past the float range,
# while each coordinate's modulus is finite
OVERFLOWING = (0.0, 1e154, 1.5e154 + 1.5e154j)
OVERFLOWING_TEXT = "[0, 1e154, [1.5e154, 1.5e154]]"


@pytest.mark.parametrize("call", [
    membership, functools.partial(membership, closed=True), criterion_max, d_of,
    in_distinguished_boundary, dist_from_origin,
], ids=["membership", "membership closed", "criterion_max", "d_of",
        "in_distinguished_boundary", "dist_from_origin"])
def test_an_overflowing_modulus_raises_nonfinite(call):
    with pytest.raises(NonFinite):
        call(OVERFLOWING)


@pytest.mark.parametrize("argv", [
    ("member", "--point", OVERFLOWING_TEXT),
    ("member", "--closed", "--point", OVERFLOWING_TEXT),
    ("dist", "--from", OVERFLOWING_TEXT),
    ("boundary", "--point", OVERFLOWING_TEXT),
])
def test_an_overflowing_modulus_is_one_json_error(capsys, argv):
    assert run(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)  # exactly one document
    with resources.files("tetra.schemas").joinpath("error.json").open() as fh:
        jsonschema.validate(error, json.load(fh))
    assert error["error"]["type"] == "NonFinite"

