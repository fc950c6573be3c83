"""Each argument guard of the library raises its own typed error.

One case per guard that no other test reaches: a pole, a radius or node
pair outside a solver's range, a stored interpolant whose variant does not
match its re-solve, and a point whose coordinates have finite moduli while
a modulus the membership criteria take of them overflows (where only the
triangular test is asked, that test answers).
"""
import functools
import json
from importlib import resources

import jsonschema
import pytest

from tetra.autgroup import diamond
from tetra.cli import run
from tetra.autgroup import normalize_triangular
from tetra.errors import (
    BadLambda,
    BadShape,
    NonFinite,
    NotTriangular,
    NumericalDegenerate,
    Outside,
    Pole,
)
from tetra.interpolate import Interpolant, big_m, scalar_np2, solve_schwarz
from tetra.musyn import bft_lower_bound
from tetra.metrics import dist_from_origin, dist_triangular_pair
from tetra.tetrablock import (
    criterion_max,
    d_of,
    in_distinguished_boundary,
    is_triangular,
    membership,
    membership_grid_oracle,
    psi,
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


def one_json_error(capsys, argv):
    """The error type of the one JSON error document that argv exits 1 with."""
    assert run(list(argv)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    error = json.loads(err)  # exactly one document
    with resources.files("tetra.schemas").joinpath("error.json").open() as fh:
        jsonschema.validate(error, json.load(fh))
    return error["error"]["type"]


@pytest.mark.parametrize("argv", [
    ("member", "--point", OVERFLOWING_TEXT),
    ("member", "--closed", "--point", OVERFLOWING_TEXT),
    ("dist", "--from", OVERFLOWING_TEXT),
    ("boundary", "--point", OVERFLOWING_TEXT),
])
def test_an_overflowing_modulus_is_one_json_error(capsys, argv):
    assert one_json_error(capsys, argv) == "NonFinite"



# x1 x2 overflows to inf, and even x1 x2 / 2**600 has finite parts but no
# finite modulus: the triangular test in units of 2**600 overflows too
SCALED_OVERFLOWING = (1e244 + 1e244j, 6e244, 0.0)
SCALED_OVERFLOWING_TEXT = "[[1e244, 1e244], 6e244, 0]"


@pytest.mark.parametrize("call", [
    membership, functools.partial(membership, closed=True), criterion_max, d_of,
    dist_from_origin,
], ids=["membership", "membership closed", "criterion_max", "d_of", "dist_from_origin"])
def test_an_overflowing_scaled_product_raises_nonfinite(call):
    with pytest.raises(NonFinite):
        call(SCALED_OVERFLOWING)


# |x1 x2| is about 2.1e308, past the float range, while each coordinate's
# modulus is finite: the triangular test decides it in units of 2**600
TRI_OVERFLOWING = (1e154, 1.5e154 + 1.5e154j, 0.0)
TRI_OVERFLOWING_TEXT = "[1e154, [1.5e154, 1.5e154], 0]"


def test_an_overflowing_product_is_not_triangular():
    # where even x1 x2 / 2**600 has no finite modulus, |x1 x2| exceeds |x3|
    # by far: the triangular test answers there too
    for x in (TRI_OVERFLOWING, SCALED_OVERFLOWING):
        assert is_triangular(x) is False
        # not triangular, so Psi is the linear-fractional map, finite off its pole
        assert psi(0.0, x) == x[0]
        assert abs(psi(0.5, x)) < 1.0
        with pytest.raises(NotTriangular):
            normalize_triangular(x)
        with pytest.raises(Outside, match="first point"):
            dist_triangular_pair(x, (0.0, 0.0, 0.0))
        with pytest.raises(NonFinite):  # membership still needs |x1 x2 - x3|
            membership(x)


def test_normalizing_an_overflowing_product_is_one_json_error(capsys):
    for text in (TRI_OVERFLOWING_TEXT, SCALED_OVERFLOWING_TEXT):
        argv = ["auto", "--op", "normalize", "--x", text]
        assert one_json_error(capsys, argv) == "NotTriangular"
