import argparse
import contextlib
import io
import json
import math
import shlex
import subprocess
import sys
import warnings
from collections import Counter
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetra import cli
from tetra.autgroup import DiscAut
from tetra.cli import run
from tetra.errors import (
    BadPayload, BadSamples, BadTolerance, NonFinite, NotUnimodular, TetraError,
)
from tetra.interpolate import Interpolant, solve_schwarz, verify_interpolant
from tetra.tetrablock import DEFAULT_TOL, as_cpoint3, membership_grid_oracle

from test_readme_examples import GOLDEN, ROOT, readme_examples, run_examples

SCHEMAS = {}
for name in (
    "member", "dist", "interp", "mu", "synth", "boundary", "auto", "verify",
    "error",
):
    with resources.files("tetra.schemas").joinpath(f"{name}.json").open() as fh:
        SCHEMAS[name] = json.load(fh)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check(capsys, schema, *argv, code=0):
    rc, out, err = invoke(capsys, *argv)
    assert rc == code, (rc, out, err)
    doc = json.loads(out)
    jsonschema.validate(doc, SCHEMAS[schema])
    return doc


def test_member_inside(capsys):
    doc = check(capsys, "member", "member", "--point", "[0.5, 0.25, 0.5]")
    assert doc["report"]["in_set"] is True
    assert doc["report"]["d_value"]["value"] == pytest.approx(0.8)
    assert doc["report"]["margins"]["m3"] == pytest.approx(0.1875)


def test_member_outside_exit_code(capsys):
    doc = check(capsys, "member", "member", "--point", "[2, 0, 0]", code=2)
    assert doc["report"]["in_set"] is False


def test_member_closed_on_a_distinguished_boundary_point(capsys):
    # pi of a unitary: every closed criterion holds, c7 and c8 included
    point = ("[[0.38248592535333326,-0.7726402928303634],"
             "[0.4230652429504839,0.7511885950982172],"
             "[0.998582708444185,-0.05322193529246919]]")
    doc = check(capsys, "member", "member", "--closed", "--point", point)
    criteria = doc["report"]["criteria"]
    assert criteria["c7"] is True and criteria["c8"] is True
    assert all(criteria.values())


def test_member_closed_with_oracle(capsys):
    doc = check(
        capsys, "member", "member", "--point", "[1, 1, 1]", "--closed",
        "--oracle-grid", "60",
    )
    assert doc["report"]["in_set"] is True
    assert doc["oracle"] is True


def test_member_complex_wire_format(capsys):
    doc = check(
        capsys, "member", "member", "--point", "[[0, 0.3], [0.1, 0], 0]",
    )
    assert doc["point"][0] == [0.0, 0.3]
    assert doc["report"]["in_set"] is True


def test_dist_origin(capsys):
    doc = check(capsys, "dist", "dist", "--from", "[0.3, 0, 0]")
    assert doc["to"] is None
    assert doc["quotient"] == pytest.approx(0.3)


def test_dist_pair(capsys):
    doc = check(
        capsys, "dist", "dist", "--from", "[0.3, 0, 0]",
        "--to", "[0.2, 0.1, 0.02]",
    )
    assert doc["distance"] > 0.0


def test_dist_unsupported_pair_errors(capsys):
    rc, out, err = invoke(
        capsys, "dist", "--from", "[0.5, 0.25, 0.5]", "--to", "[0.3, 0.2, 0.1]"
    )
    assert rc == 1
    doc = json.loads(err)
    jsonschema.validate(doc, SCHEMAS["error"])
    assert doc["error"]["type"] == "Unsupported"


def test_interp_feasible(capsys):
    doc = check(
        capsys, "interp", "interp", "--lambda0", "[-0.9, 0]",
        "--point", "[0.5, 0.25, 0.5]", "--samples", "60",
    )
    assert doc["feasible"] is True
    assert doc["margin"] == pytest.approx(0.1)
    assert doc["variant"] == "mobius_blaschke"
    assert doc["verification"]["passed"] is True


def test_interp_infeasible_exit_code(capsys):
    doc = check(
        capsys, "interp", "interp", "--lambda0", "0.5",
        "--point", "[0.5, 0.25, 0.5]", code=2,
    )
    assert doc["feasible"] is False
    assert doc["margin"] == pytest.approx(-0.3)


def test_interp_sigma_family(capsys):
    doc = check(
        capsys, "interp", "interp", "--lambda0", "0.9",
        "--point", "[0.5, 0.25, 0.5]", "--sigma", "1.1", "--samples", "60",
    )
    assert doc["variant"] == "sigma_family"
    assert doc["sigma"] == pytest.approx(1.1)


def test_interp_t_parameter(capsys):
    doc = check(
        capsys, "interp", "interp", "--lambda0", "[-0.8, 0]",
        "--point", "[0.5, 0.25, 0.5]", "--t", "0.5", "--samples", "60",
    )
    assert doc["variant"] == "svd_reduced"
    assert doc["t"] == [0.5, 0.0]


def test_mu_with_oracle(capsys):
    doc = check(
        capsys, "mu", "mu", "--matrix", "[[0.5, [0, 0.5]], [[0, 0.5], 0.5]]",
        "--oracle",
    )
    assert doc["mu"] == pytest.approx(0.7071067811865476, abs=1e-8)
    assert doc["oracle"] == pytest.approx(doc["mu"], abs=1e-6)


def test_synth_feasible(capsys):
    doc = check(
        capsys, "synth", "synth", "--lambda0", "0.7",
        "--a1", "[[0, 1], [0, 0]]",
        "--a2", "[[0.5, 0.5], [-0.5, 0.5]]",
    )
    assert doc["feasible"] is True
    assert doc["shape"] == "upper"
    assert doc["mu_audit"]["max_mu"] <= 1.0 + 1e-7
    at0 = doc["lift_at_zero"]
    assert max(abs(c) for c in at0[0][0] + at0[1][1] + at0[1][0]) < 1e-10


def test_synth_infeasible_exit_code(capsys):
    doc = check(
        capsys, "synth", "synth", "--lambda0", "0.6",
        "--a1", "[[0, 1], [0, 0]]",
        "--a2", "[[0.5, 0.5], [-0.5, 0.5]]", code=2,
    )
    assert doc["feasible"] is False
    assert doc["lift_at_zero"] is None


def test_boundary_on_and_off(capsys):
    doc = check(
        capsys, "boundary", "boundary", "--point", "[[0,1], [0,-1], 1]",
    )
    assert doc["on_boundary"] is True
    assert doc["peak"]["abs_at_point"] == pytest.approx(1.0, abs=1e-12)
    assert doc["peak"]["max_abs_sampled"] <= 1.0 + 1e-10

    doc2 = check(
        capsys, "boundary", "boundary", "--point", "[0.5, 0.25, 0.5]", code=2,
    )
    assert doc2["on_boundary"] is False and doc2["peak"] is None


def test_auto_ops(capsys):
    doc = check(
        capsys, "auto", "auto", "--op", "diamond",
        "--x", "[0.1, 0.2, 0.3]", "--y", "[0.2, 0.1, -0.5]",
    )
    assert "point" in doc["result"]
    doc2 = check(
        capsys, "auto", "auto", "--op", "normalize", "--x", "[0.3, 0.2, 0.06]",
    )
    img = doc2["result"]["image"]
    assert max(abs(c) for pair in img for c in pair) < 1e-12
    doc3 = check(
        capsys, "auto", "auto", "--op", "left", "--x", "[0.3, 0.2, 0.06]",
        "--omega", "[1, 0]", "--alpha", "0.1",
    )
    assert "point" in doc3["result"]
    doc4 = check(capsys, "auto", "auto", "--op", "flip", "--x", "[0.1, 0.2, 0.3]")
    assert doc4["result"]["point"][0] == [0.2, 0.0]


def test_verify_roundtrip(tmp_path, capsys):
    doc = check(
        capsys, "interp", "interp", "--lambda0", "[-0.9, 0]",
        "--point", "[0.5, 0.25, 0.5]", "--samples", "40",
    )
    payload_file = tmp_path / "phi.json"
    payload_file.write_text(json.dumps(doc["interpolant"]))
    doc2 = check(
        capsys, "verify", "verify", "--interpolant", str(payload_file),
        "--samples", "80",
    )
    assert doc2["passed"] is True
    # the whole-response envelope is accepted too
    envelope = tmp_path / "envelope.json"
    envelope.write_text(json.dumps(doc))
    doc3 = check(
        capsys, "verify", "verify", "--interpolant", str(envelope),
        "--samples", "80",
    )
    assert doc3["passed"] is True


@pytest.mark.parametrize("variant, flipped, argv", [
    ("scaled_line", False, ("--lambda0", "-0.8", "--point", "[0.3, 0, 0.05]")),
    ("scaled_line", False, ("--lambda0", "0.8", "--point", "[0.3, 0.2, 0.06]")),
    ("mobius_blaschke", False, ("--lambda0", "-0.6", "--point", "[0.3, 0.2, 0.1]")),
    ("mobius_blaschke", True, ("--lambda0", "-0.6", "--point", "[0.2, 0.3, 0.1]")),
    ("svd_reduced", False, (
        "--lambda0", "-0.8", "--point", "[0.5, 0.25, 0.5]", "--t", "[0.3, -0.4]",
    )),
    ("sigma_family", False, (
        "--lambda0", "-0.6", "--point", "[0.3, 0.2, 0.1]", "--sigma", "1.1",
    )),
])
def test_every_variant_round_trips_through_verify(tmp_path, capsys, variant,
                                                  flipped, argv):
    audit = ("--samples", "64", "--seed", "7")
    doc = check(capsys, "interp", "interp", *argv, *audit)
    assert (doc["variant"], doc["flipped"]) == (variant, flipped)
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(doc))
    doc2 = check(capsys, "verify", "verify", "--interpolant", str(solution), *audit)
    assert doc2["report"] == doc["verification"]


_LINE = {"variant": "scaled_line", "lambda0": [-0.8, 0.0],
         "x": [[0.3, 0.0], [0.0, 0.0], [0.05, 0.0]]}
_SIGMA = {"variant": "sigma_family", "lambda0": [-0.6, 0.0],
          "x": [[0.3, 0.0], [0.2, 0.0], [0.1, 0.0]]}


@pytest.mark.parametrize("payload", [
    [1, 2],
    5,
    {"interpolant": 5},
    {"interpolant": [1, 2]},
    {"variant": "mobius_blaschke"},
    {**_LINE, "variant": None},
    {**_LINE, "variant": ["scaled_line"]},
    {**_LINE, "variant": "no_such_variant"},
    {**_LINE, "lambda0": [-0.8]},
    {**_LINE, "lambda0": "-0.8"},
    {**_LINE, "lambda0": [math.nan, 0.0]},
    {**_LINE, "x": [[0.3, 0.0], [0.0, 0.0]]},
    {**_LINE, "x": [[0.3, 0.0], [0.0, 0.0], ["0.05", 0.0]]},
    {**_LINE, "t": [0.1]},
    {**_LINE, "Z": [[0.0, 0.0]]},
    {**_LINE, "Z": [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
    _SIGMA,
    {**_SIGMA, "sigma": "1.1"},
    {**_LINE, "lambda0": [True, 0.0]},
    {**_LINE, "x": [[0.3, False], [0.0, 0.0], [0.05, 0.0]]},
    {**_SIGMA, "sigma": True},
    {**_LINE, "lambda0": [10 ** 400, 0.0]},
    {**_LINE, "x": [[0.3, 0.0], [0.0, 0.0], [0.05, -(10 ** 400)]]},
])
def test_verify_rejects_a_malformed_payload(tmp_path, capsys, payload):
    solution = tmp_path / "solution.json"
    solution.write_text(json.dumps(payload))
    rc, out, err = invoke(capsys, "verify", "--interpolant", str(solution))
    assert rc == 1 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == "BadPayload"


@pytest.mark.parametrize("t", ["[5, 0]", "[NaN, 0]"])
def test_interp_rejects_t_outside_the_disc(capsys, t):
    rc, out, err = invoke(
        capsys, "interp", "--lambda0", "[-0.6, 0]", "--point", "[0.3, 0.2, 0.1]",
        "--t", t,
    )
    assert rc == 1 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == "OutsideDisc"


@pytest.mark.parametrize("omega, alpha, kind", [
    ("NaN", "0", "NotUnimodular"),
    ("1", "NaN", "OutsideDisc"),
])
def test_auto_rejects_nan_automorphisms(capsys, omega, alpha, kind):
    rc, out, err = invoke(
        capsys, "auto", "--op", "left", "--x", "[0.1, 0.2, 0.02]",
        "--omega", omega, "--alpha", alpha,
    )
    assert rc == 1 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == kind


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_audit_needs_a_sample(tmp_path, capsys, samples):
    doc = check(
        capsys, "interp", "interp", "--lambda0", "[-0.9, 0]",
        "--point", "[0.5, 0.25, 0.5]", "--samples", "40",
    )
    payload_file = tmp_path / "phi.json"
    payload_file.write_text(json.dumps(doc))
    for argv in (
        ("interp", "--lambda0", "[-0.9, 0]", "--point", "[0.5, 0.25, 0.5]"),
        ("verify", "--interpolant", str(payload_file)),
    ):
        rc, out, err = invoke(capsys, *argv, "--samples", samples)
        assert rc == 1 and out == ""
        error = json.loads(err)
        jsonschema.validate(error, SCHEMAS["error"])
        assert error["error"]["type"] == "BadSamples"


@pytest.mark.parametrize("command", ["interp", "verify", "member"])
def test_a_sample_count_past_its_bound_is_refused(tmp_path, capsys, command):
    # 10^12 samples or angles would ask for terabytes: the audit allows
    # 100 000 samples and the grid oracle 10 000 angles
    big = "1000000000000"
    interp = ("interp", "--lambda0", "[-0.9, 0]", "--point", "[0.5, 0.25, 0.5]")
    if command == "verify":
        payload_file = tmp_path / "phi.json"
        payload_file.write_text(json.dumps(check(capsys, "interp", *interp)))
    argv = {
        "interp": (*interp, "--samples", big),
        "verify": ("verify", "--interpolant", str(tmp_path / "phi.json"), "--samples", big),
        "member": ("member", "--point", "[0.5, 0.25, 0.5]", "--oracle-grid", big),
    }[command]
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == "BadSamples"


@pytest.mark.parametrize("argv, kind", [
    (("interp", "--lambda0", "[-0.9, 0]", "--point", "[0.5, 0.25, 0.5]", "--t", ""),
     "JSONDecodeError"),
    (("member", "--point", "[0.5, 0.25, 0.5]", "--oracle-grid", "0"), "BadSamples"),
    (("member", "--point", "[0.5, 0.25, 0.5]", "--oracle-grid", "1"), "BadSamples"),
    (("member", "--point", "[0.5, 0.25, 0.5]", "--oracle-grid", "-5"), "BadSamples"),
])
def test_an_empty_or_zero_value_is_not_an_absent_option(capsys, argv, kind):
    # `--t ""` and `--oracle-grid 0` are given values, read like any other
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == kind


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_audit_needs_a_finite_non_negative_tol(tmp_path, capsys, tol):
    doc = check(
        capsys, "interp", "interp", "--lambda0", "[-0.9, 0]",
        "--point", "[0.5, 0.25, 0.5]", "--samples", "40",
    )
    payload_file = tmp_path / "phi.json"
    payload_file.write_text(json.dumps(doc))
    for argv in (
        ("interp", "--lambda0", "[-0.9, 0]", "--point", "[0.5, 0.25, 0.5]"),
        ("verify", "--interpolant", str(payload_file)),
    ):
        rc, out, err = invoke(capsys, "--tol", tol, *argv, "--samples", "40")
        assert rc == 1 and out == ""
        error = json.loads(err)
        jsonschema.validate(error, SCHEMAS["error"])
        assert error["error"]["type"] == "BadTolerance"


def test_mu_overflow_is_one_json_error():
    # pi(A) of this finite matrix overflows; the error names that, and no
    # numpy warning precedes it on stderr
    out = subprocess.run(
        [sys.executable, "-m", "tetra.cli", "mu", "--matrix",
         "[[1e300,1e300],[1e300,1e300]]"],
        capture_output=True, text=True,
    )
    assert out.returncode == 1 and out.stdout == ""
    error = json.loads(out.stderr)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == "NumericalDegenerate"
    assert "pi(A)" in error["error"]["message"]


def test_mu_oracle_overflow_is_one_json_error():
    # every scaled norm of this nilpotent matrix overflows; the oracle says
    # so in one JSON error, and no numpy warning precedes it on stderr
    out = subprocess.run(
        [sys.executable, "-m", "tetra.cli", "mu", "--matrix", "[[0,1e200],[0,0]]",
         "--oracle"],
        capture_output=True, text=True,
    )
    assert out.returncode == 1 and out.stdout == ""
    error = json.loads(out.stderr)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == "NumericalDegenerate"


def test_mu_ignores_the_margin_tolerance():
    # --tol reaches membership margins, not mu's fixed bisection stop, so a
    # zero or negative --tol gives the default answer and does not hang
    matrix = "[[0.5, [0, 0.5]], [[0, 0.5], 0.5]]"
    docs = []
    for tol in ((), ("--tol", "0"), ("--tol", "-1")):
        out = subprocess.run(
            [sys.executable, "-m", "tetra.cli", *tol, "mu", "--matrix", matrix,
             "--oracle"],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        docs.append(json.loads(out.stdout))
    for doc in docs[1:]:
        assert (doc["mu"], doc["oracle"]) == (docs[0]["mu"], docs[0]["oracle"])


def test_malformed_values_raise_typed_value_errors(capsys):
    # each is a TetraError, and a ValueError for callers that catch that
    cases = (
        (NonFinite, lambda: as_cpoint3((math.inf, 0.0, 0.0))),
        (NotUnimodular, lambda: DiscAut(2.0, 0.0)),
        (BadSamples, lambda: membership_grid_oracle((0.0, 0.0, 0.0), n=1)),
        (BadPayload, lambda: Interpolant.from_payload([1, 2])),
        (BadTolerance, lambda: verify_interpolant(solve_schwarz(-0.9, (0.5, 0.25, 0.5)), tol=-1.0)),
    )
    for cls, call in cases:
        assert issubclass(cls, TetraError) and issubclass(cls, ValueError)
        with pytest.raises(cls):
            call()
    rc, out, err = invoke(capsys, "member", "--point", "[1e400, 0, 0]")
    assert rc == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("argv", [
    ("member", "--point", "[[1.5e308, 1.5e308], 0, 0]"),
    ("dist", "--from", "[0.1, 0.2, [1.5e308, -1.5e308]]"),
    # det(A2) overflows inside pi(A2): once NaN, once inf
    ("synth", "--lambda0", "0.5", "--a1", "[[0,1],[0,0]]",
     "--a2", "[[1e200,1e200],[1e200,1e200]]"),
    ("synth", "--lambda0", "0.5", "--a1", "[[0,1],[0,0]]",
     "--a2", "[[1e200,1],[0,1e200]]"),
])
def test_an_overflowing_coordinate_modulus_is_one_json_error(capsys, argv):
    # one error document on stderr, and no numpy warning beside it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == "" and caught == []
    error = json.loads(err)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("point", [
    "[0, 0, [1.5e308, 1.5e308]]",   # a coordinate whose modulus overflows
    "[0, NaN, 0]",                  # a NaN after a zero coordinate
])
@pytest.mark.parametrize("option", ["--to", "--from"])
def test_dist_validates_both_points_before_the_origin_test(capsys, option, point):
    # the origin test reads the moduli the validation returns: neither point
    # is mistaken for the origin or reaches the JSON writer unvalidated
    other = "--from" if option == "--to" else "--to"
    rc, out, err = invoke(capsys, "dist", other, "[0.1, 0, 0]", option, point)
    assert rc == 1 and out == ""
    error = json.loads(err)  # exactly one document
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == "NonFinite"


@pytest.mark.parametrize("argv", [
    ("member", "--point", "[true, false, 0]"),
    ("member", "--point", "[[0.5, false], 0, 0]"),
    ("mu", "--matrix", "[[true, 0], [0, 0]]"),
    ("interp", "--lambda0", "false", "--point", "[0.5, 0.25, 0.5]"),
    # nor is an integer past the float range
    ("member", "--point", f"[{10 ** 400}, 0, 0]"),
    ("mu", "--matrix", f"[[[0, {10 ** 400}], 0], [0, 0]]"),
    ("dist", "--from", "[0.1, 0, 0]", "--to", f"[0, -{10 ** 400}, 0]"),
    ("interp", "--lambda0", str(10 ** 400), "--point", "[0.5, 0.25, 0.5]"),
])
def test_json_booleans_are_not_numbers(capsys, argv):
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == ""
    error = json.loads(err)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"]["type"] == "ValueError"
    assert "expected a number or [re, im] pair" in error["error"]["message"]


def test_usage_error_is_machine_readable(capsys):
    rc, out, err = invoke(capsys, "member", "--point", "[2, 0, 0")
    assert rc == 1 and out == ""
    doc = json.loads(err)
    jsonschema.validate(doc, SCHEMAS["error"])

    rc2, _, err2 = invoke(capsys, "member")
    assert rc2 == 1
    jsonschema.validate(json.loads(err2), SCHEMAS["error"])

    rc3, _, err3 = invoke(capsys, "auto", "--op", "diamond", "--x", "[0,0,0]")
    assert rc3 == 1
    assert json.loads(err3)["error"]["type"] == "_UsageError"


def test_shared_parser_keeps_no_state_between_runs(tmp_path, capsys):
    # one option table serves every run() in the process; no run leaves
    # anything behind that changes the next
    def outcome(*argv):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    calls = (
        ("auto", "--op", "diamond", "--x", "[0, 0, 0]"),        # usage error
        ("member", "--point", "[0.5, 0.25, 0.5]", "--closed", "--bogus"),
        ("--help",),
        ("member", "--point", "[1e400, 0, 0]"),                  # TetraError
        ("--tol", "1e-3", "member", "--closed", "--point", "[1, 0.5, 0.5]"),
    )
    readme = run_examples(tmp_path)
    first = [outcome(*argv) for argv in calls]
    assert readme == run_examples(tmp_path)
    assert first == [outcome(*argv) for argv in calls]
    assert [code for code, _, _ in first] == [1, 1, ("SystemExit", 0), 1, 0]
    assert first[2][1].startswith("usage: tetra")


def test_output_is_deterministic(capsys):
    _, out1, _ = invoke(capsys, "member", "--point", "[0.5, 0.25, 0.5]")
    _, out2, _ = invoke(capsys, "member", "--point", "[0.5, 0.25, 0.5]")
    assert out1 == out2
    _, out3, _ = invoke(
        capsys, "boundary", "--point", "[[0,1], [0,-1], 1]"
    )
    _, out4, _ = invoke(
        capsys, "boundary", "--point", "[[0,1], [0,-1], 1]"
    )
    assert out3 == out4


def test_tol_flag(capsys):
    doc = check(
        capsys, "member", "--tol", "1e-6", "member", "--point", "[0.5, 0.25, 0.5]",
    )
    assert doc["provenance"]["tolerances"]["margin"] == pytest.approx(1e-6)


def failure(capsys, *argv):
    """The error object of an argv that exits 1 with nothing on stdout."""
    rc, out, err = invoke(capsys, *argv)
    assert rc == 1 and out == "", (rc, out, err)
    doc = json.loads(err)
    jsonschema.validate(doc, SCHEMAS["error"])
    return doc["error"]


_PHI = json.dumps(solve_schwarz(-0.9, (0.5, 0.25, 0.5)).to_payload())


@pytest.mark.parametrize("argv, seed", [
    (("member", "--point", "[0.5, 0.25, 0.5]"), None),
    (("dist", "--from", "[0.3, 0, 0]"), None),
    (("interp", "--lambda0", "-0.9", "--point", "[0.5, 0.25, 0.5]", "--samples", "8"), 0),
    (("interp", "--lambda0", "-0.9", "--point", "[0.5, 0.25, 0.5]", "--samples", "8",
      "--seed", "7"), 7),
    (("interp", "--lambda0", "0.5", "--point", "[0.5, 0.25, 0.5]", "--seed", "3"), 3),
    (("mu", "--matrix", "[[0.5, 0], [0, 0.5]]"), None),
    (("synth", "--lambda0", "0.6", "--a1", "[[0, 1], [0, 0]]",
      "--a2", "[[0.5, 0.5], [-0.5, 0.5]]"), None),
    (("boundary", "--point", "[0.5, 0.25, 0.5]"), 0),
    (("auto", "--op", "flip", "--x", "[0.1, 0.2, 0.3]"), None),
    (("verify", "--interpolant", "PHI", "--samples", "8"), 0),
    (("verify", "--interpolant", "PHI", "--samples", "8", "--seed", "4"), 4),
])
def test_every_document_carries_its_command_and_provenance(tmp_path, capsys, argv, seed):
    solution = tmp_path / "phi.json"
    solution.write_text(_PHI)
    argv = tuple(str(solution) if a == "PHI" else a for a in argv)
    rc, out, err = invoke(capsys, "--tol", "1e-6", *argv)
    assert rc in (0, 2) and err == "", err
    doc = json.loads(out)
    assert doc["command"] == argv[0]
    assert doc["provenance"] == {
        "tool_version": cli.__version__, "seed": seed, "tolerances": {"margin": 1e-6},
    }


@pytest.mark.parametrize("seed", [(), ("--seed", "5")])
def test_interp_sigma_outside_its_window_reports_the_seed(capsys, seed):
    # solve_with_sigma raises Infeasible; that early return still hands
    # run() the audit seed
    doc = check(
        capsys, "interp", "interp", "--lambda0", "0.3", "--point", "[0.5, 0.25, 0.5]",
        "--sigma", "1.0", *seed, code=2,
    )
    assert doc["feasible"] is False and doc["margin"] == -0.5
    assert "variant" not in doc
    assert doc["provenance"]["seed"] == (5 if seed else 0)


@pytest.mark.parametrize("op, argv, message", [
    ("diamond", ("--x", "[0, 0, 0]"), "diamond needs --x and --y"),
    ("left", ("--x", "[0.1, 0.2, 0.3]", "--omega", "1"), "left needs --x, --omega and --alpha"),
    ("right", ("--omega", "1", "--alpha", "0.1"), "right needs --x, --omega and --alpha"),
    ("flip", ("--y", "[0, 0, 0]"), "flip needs --x"),
    ("normalize", (), "normalize needs --x"),
])
def test_auto_names_the_options_its_op_needs(capsys, op, argv, message):
    assert failure(capsys, "auto", "--op", op, *argv) == {
        "type": "_UsageError", "message": message,
    }


def test_dist_from_the_origin_measures_the_other_point(capsys):
    doc = check(capsys, "dist", "dist", "--from", "[0, 0, 0]", "--to", "[0.5, 0.25, 0.5]")
    assert doc["distance"] == 1.0986122886681098  # log 3: the origin is either end
    assert doc["distance"] == check(
        capsys, "dist", "dist", "--from", "[0.5, 0.25, 0.5]")["distance"]


@pytest.mark.parametrize("argv, message", [
    (("member", "--point", "[0.5, 0.25]"), "expected three complex coordinates"),
    (("mu", "--matrix", "[[0.5, 0], [0.5]]"), "expected a 2x2 matrix"),
])
def test_a_misshapen_point_or_matrix_is_a_value_error(capsys, argv, message):
    error = failure(capsys, *argv)
    assert error["type"] == "ValueError" and message in error["message"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_boundary_needs_a_finite_non_negative_tol(capsys, tol):
    # on the boundary, and (for -1) a point the margin would have refused
    for point in ("[0.6, 0.6, 1]", "[0.5, 0.25, 0.5]"):
        error = failure(capsys, "--tol", tol, "boundary", "--point", point)
        assert error["type"] == "BadTolerance"


def test_import_leaves_scipy_unloaded():
    # numpy is tetra's only dependency, so the CLI loads no SciPy either
    probe = "import sys, tetra.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_import_leaves_argparse_unloaded():
    # the CLI reads argv from its own option table, so a fresh process that
    # imports it loads neither argparse nor the gettext and locale it pulls in
    probe = ("import sys, tetra.cli; "
             "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


_NUMPY_FREE_ARGV = [
    ["member", "--point", "[0.5, 0.25, 0.5]"],
    ["member", "--closed", "--point", "[1, 1, 1]"],
    ["dist", "--from", "[0.5, 0.25, 0.5]"],
    ["dist", "--from", "[0.5, 0.25, 0.125]", "--to", "[0.1, 0.2, 0.3]"],
    ["auto", "--op", "diamond", "--x", "[0.1, 0.2, 0.02]", "--y", "[0.3, 0.1, 0.05]"],
    ["auto", "--op", "left", "--x", "[0.1, 0.2, 0.02]", "--omega", "1", "--alpha", "0.3"],
    ["auto", "--op", "right", "--x", "[0.1, 0.2, 0.02]", "--omega", "[0, 1]", "--alpha", "0.3"],
    ["auto", "--op", "flip", "--x", "[0.1, 0.2, 0.02]"],
    ["auto", "--op", "normalize", "--x", "[0.3, 0.2, 0.06]"],
    ["--help"],
]
_NUMPY_BACKED = ("numpy", "tetra.linalg", "tetra.interpolate", "tetra.musyn")


def test_member_dist_auto_and_help_leave_numpy_unloaded():
    # a fresh process: import tetra alone, then run each command that needs
    # no matrix; neither loads numpy or a numpy-backed module.  Afterwards
    # every public name still resolves, each on its first access
    probe = f"""
import contextlib, io, json, sys
loaded = lambda: [m for m in {_NUMPY_BACKED!r} if m in sys.modules]
import tetra
bare = loaded()
from tetra.cli import run
codes = []
for argv in {_NUMPY_FREE_ARGV!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(run(argv))
        except SystemExit as exc:
            codes.append(exc.code)
after = loaded()
missing = [n for n in tetra.__all__ if getattr(tetra, n, None) is None]
from tetra import solve_schwarz
print(json.dumps([bare, codes, after, missing, solve_schwarz.__module__,
                  tetra.linalg.__name__, "__all__" in dir(tetra)]))
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == [
        [], [0] * len(_NUMPY_FREE_ARGV), [], [], "tetra.interpolate", "tetra.linalg", True,
    ]


_MU_ARGV = ["mu", "--matrix", "[[0.5, [0, 0.5]], [[0, 0.5], 0.5]]"]


def test_mu_without_oracle_leaves_numpy_unloaded():
    # a fresh process: mu, also on a non-finite and an overflowing matrix,
    # loads no numpy-backed module but musyn; --oracle then loads NumPy and
    # prints the scaling oracle beside the bisection's value
    probe = f"""
import contextlib, io, json, sys
from tetra.cli import run
docs, codes = [], []
for argv in ({_MU_ARGV!r}, ["mu", "--matrix", "[[NaN, 0], [0, 0]]"],
             ["mu", "--matrix", "[[1e300, 0], [0, 1e300]]"], {_MU_ARGV!r} + ["--oracle"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        codes.append(run(argv))
    docs.append(json.loads(out.getvalue()))
    if len(docs) == 3:
        before = [m for m in {_NUMPY_BACKED!r} if m in sys.modules]
print(json.dumps([codes, before, "numpy" in sys.modules, docs]))
"""
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    codes, before, numpy_after, docs = json.loads(out.stdout)
    assert codes == [0, 1, 1, 0]
    assert before == ["tetra.musyn"] and numpy_after
    assert repr(docs[0]["mu"]) == "0.7071067809481405" and "oracle" not in docs[0]
    assert docs[1]["error"]["type"] == "BadShape"
    assert docs[2]["error"]["type"] == "NumericalDegenerate"
    assert repr(docs[3]["mu"]) == "0.7071067809481405"
    assert repr(docs[3]["oracle"]) == "0.7071067811865476"


_RECORD_LIBS = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_numpy_free_commands_leave_dataclasses_and_typing_unloaded():
    # a fresh process: the NumPy-free layer's records are named tuples, so
    # no command that needs no matrix, nor mu, loads dataclasses and what it
    # pulls in, nor typing unless the interpreter's start-up already does
    # (a site-packages .pth file can)
    probe = f"""
import contextlib, io, json, sys
from tetra.cli import run
codes = []
for argv in {_NUMPY_FREE_ARGV + [_MU_ARGV]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            codes.append(run(argv))
        except SystemExit as exc:
            codes.append(exc.code)
print(json.dumps([codes, [m for m in {_RECORD_LIBS!r} if m in sys.modules],
                  "typing" in sys.modules]))
"""
    bare = subprocess.run(
        [sys.executable, "-c", "import sys; print('typing' in sys.modules)"],
        capture_output=True, text=True, check=True,
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    codes, loaded, typing_loaded = json.loads(out.stdout)
    assert codes == [0] * (len(_NUMPY_FREE_ARGV) + 1)
    assert loaded == []
    assert typing_loaded == (bare.stdout.strip() == "True")


# --- the argv parser -----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise cli._UsageError(message)


def _build_parser() -> _Parser:
    """The argparse parser the CLI used before its option table, kept as
    the oracle for cli._parse_argv."""
    p = _Parser(prog="tetra", description=__doc__)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help=f"margin tolerance (default: {DEFAULT_TOL})")
    sub = p.add_subparsers(dest="cmd", required=True)

    m = sub.add_parser("member", help="membership report for a point")
    m.add_argument("--point", required=True)
    m.add_argument("--closed", action="store_true")
    m.add_argument("--oracle-grid", type=int, default=None)

    d = sub.add_parser("dist", help="invariant distance")
    d.add_argument("--from", required=True)
    d.add_argument("--to", default=None)

    i = sub.add_parser("interp", help="two-point interpolation from the origin")
    i.add_argument("--lambda0", required=True)
    i.add_argument("--point", required=True)
    i.add_argument("--sigma", type=float, default=None)
    i.add_argument("--t", default=None)
    i.add_argument("--samples", type=int, default=200)
    i.add_argument("--seed", type=int, default=None)

    u = sub.add_parser("mu", help="structured singular value")
    u.add_argument("--matrix", required=True)
    u.add_argument("--oracle", action="store_true")

    s = sub.add_parser("synth", help="two-point mu-synthesis")
    s.add_argument("--lambda0", required=True)
    s.add_argument("--a1", required=True)
    s.add_argument("--a2", required=True)

    b = sub.add_parser("boundary", help="distinguished boundary and peak probe")
    b.add_argument("--point", required=True)

    a = sub.add_parser("auto", help="automorphism actions")
    a.add_argument("--op", required=True,
                   choices=["diamond", "left", "right", "flip", "normalize"])
    a.add_argument("--x", default=None)
    a.add_argument("--y", default=None)
    a.add_argument("--omega", default=None)
    a.add_argument("--alpha", default=None)

    v = sub.add_parser("verify", help="re-verify a stored interpolant")
    v.add_argument("--interpolant", required=True)
    v.add_argument("--samples", type=int, default=500)
    v.add_argument("--seed", type=int, default=0)
    return p


_REFERENCE = _build_parser()
_SUBPARSERS = next(
    a for a in _REFERENCE._actions if isinstance(a, argparse._SubParsersAction)
).choices


def _outcome(parse, argv):
    """("accepted", repr of the attributes), ("rejected",) or ("help", exit
    code, whether stdout starts with the usage line)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            ns = parse(list(argv))
    except cli._UsageError:
        return ("rejected",)
    except SystemExit as exc:
        return "help", exc.code, out.getvalue().startswith("usage: tetra")
    return "accepted", repr(vars(ns))


def _agree(argv):
    expected = _outcome(_REFERENCE.parse_args, argv)
    assert _outcome(cli._parse_argv, argv) == expected, argv
    return expected[0]


# values of every kind: well-formed ones, ones the option's type refuses,
# both kinds of negative number, and strings that look like options
_GOOD = {
    None: ["[0.5, 0.25, 0.5]", "[[0, 0.3], 0.1, 0]", "0.7", "[[0,1],[0,0]]", "s.json",
           "-0.5", "-1e-3"],
    int: ["60", "0", "7", " 12 ", "1_0", "-3"],
    float: ["1.1", "0", "1e-3", "nan", ".5", "-.5", "-2", "-inf"],
}
_EQUALS_ONLY = ("-1e-3", "-inf")  # the values that must follow an "="
_ANY = [
    "-2", "-0.5", "-.5", "-1e-3", "-inf", "-1.", "-x", "-1 2", "--x y", "", "-",
    "abc", "1.5", "bogus", "DIAMOND", "a=b", "--", "-h", "--help", "--bogus",
]
_NOISE = [
    ("--",), ("-h",), ("--help",), ("--he",), ("--bogus",), ("--bogus", "1"), ("-x",),
    ("-0.5",), ("-1e-3",), ("stray",), ("--tol", "1e-3"), ("--to", "1e-3"),
    ("--closed=1",), ("--=x",), ("-hh",), ("-hx",), ("-h=h",), ("--help=x",),
]


def _spellings(option, parser):
    """The spellings of option: its name and unique prefixes, then its
    ambiguous prefixes (such as interp's --s)."""
    names = [o for a in parser._actions for o in a.option_strings]
    prefixes = [option[:n] for n in range(3, len(option))]
    ambiguous = [p for p in prefixes if sum(o.startswith(p) for o in names) > 1]
    return [option] + [p for p in prefixes if p not in ambiguous], ambiguous


_HEADS = [("--tol", "1e-6"), ("--tol=-1e-3",), ("--tol", "-1"), ("--to", "nan"), ("--t=0",),
          ("--tol", "1", "--tol=2")]
_BAD_HEADS = [("--tol", "-inf"), ("--tol",), ("--tol", "x"), ("-h",), ("--bogus",), ("--",)]


@st.composite
def _argvs(draw):
    """Half well-formed argv (any spelling, form, order and repeat an option
    allows), half argv with faults drawn from every kind argparse tells
    apart."""
    clean = draw(st.booleans())
    head = draw(st.sampled_from([()] * 6 + _HEADS + ([] if clean else _BAD_HEADS * 2)))
    cmd = draw(st.sampled_from(sorted(_SUBPARSERS)))
    parser = _SUBPARSERS[cmd]
    pieces = []
    for action in parser._actions[1:]:
        if not draw(st.floats(0, 1)) < (1.0 if action.required and clean else
                                         0.9 if action.required else 0.4):
            continue
        option = action.option_strings[0]
        good, ambiguous = _spellings(option, parser)
        spelling = draw(st.sampled_from([option] * 3 + good + ([] if clean else ambiguous)))
        if action.nargs == 0:
            pieces.append((spelling,))
            continue
        values = list(action.choices or _GOOD.get(action.type, _GOOD[None]))
        value = draw(st.sampled_from(values if clean else values * 2 + _ANY))
        # argparse reads --point=-- as the empty list, a defect the table
        # does not copy (test_an_equals_double_dash_is_a_value)
        forms = ["space", "equals"] + ([] if clean else ["missing"])
        if value == "--":
            forms.remove("equals")
        elif clean and value in _EQUALS_ONLY:
            forms = ["equals"]
        form = draw(st.sampled_from(forms))
        pieces.append({"space": (spelling, value), "equals": (f"{spelling}={value}",),
                       "missing": (spelling,)}[form])
    pieces = draw(st.permutations(pieces))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):  # repeats, and faults
        extra = draw(st.sampled_from(pieces or _NOISE) if clean else st.sampled_from(_NOISE))
        pieces.insert(draw(st.integers(0, len(pieces))), extra)
    return [*head, cmd] + [a for piece in pieces for a in piece]


@settings(max_examples=1500, deadline=None, derandomize=True)
@given(argv=_argvs())
def test_argv_parser_matches_argparse_reference(argv):
    _agree(argv)


def test_argv_parser_matches_argparse_on_the_readme_and_benchmark_argv(tmp_path):
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from tetrabench.workloads import CliMix
    finally:
        sys.path.remove(str(ROOT / "bench"))
    argvs = [shlex.split(example)[1:] for example in readme_examples()]
    argvs += [op[1] for seed in (1, 2, 3) for op in CliMix(seed, tmp_path).pool]
    outcomes = Counter(_agree(argv) for argv in argvs)
    assert outcomes == {"accepted": len(argvs)}


@pytest.mark.parametrize("argv", [
    ("--to", "1e-3", "member", "--poi", "[1, 0, 0]", "--clo"),
    ("interp", "--lambda0", "-0.5", "--point=[0.5, 0.25, 0.5]", "--seed", "-2"),
    ("interp", "--lambda0=-1e-3", "--point", "[0, 0, 0]", "--t", "-.5"),
    ("auto", "--op", "left", "--op", "flip", "--x", "[0.1, 0.2, 0.02]"),
    ("--tol=-inf", "mu", "--matrix", "[[0,1],[0,0]]", "--oracle"),
])
def test_argv_parser_accepts_what_argparse_accepts(argv):
    assert _agree(argv) == "accepted"


@pytest.mark.parametrize("argv, message", [
    (("interp", "--s", "1"), "ambiguous option: --s could match --sigma, --samples, --seed"),
    (("interp", "--lambda0", "-1e-3", "--point", "[0, 0, 0]"),
     "argument --lambda0: expected one argument"),
    (("member", "--point", "-inf"), "argument --point: expected one argument"),
    (("member", "--closed=1", "--point", "[0, 0, 0]"),
     "argument --closed: ignored explicit argument '1'"),
    (("member",), "the following arguments are required: --point"),
    ((), "the following arguments are required: cmd"),
    (("member", "--point", "[0, 0, 0]", "--tol", "1e-3"),
     "unrecognized arguments: --tol 1e-3"),
    (("verify", "--interpolant", "s.json", "--samples", "many"),
     "argument --samples: invalid int value: 'many'"),
    (("--tol", "small", "member"), "argument --tol: invalid float value: 'small'"),
    (("auto", "--op", "spin"), "argument --op: invalid choice: 'spin' (choose from "
     "'diamond', 'left', 'right', 'flip', 'normalize')"),
    (("bogus",), "argument cmd: invalid choice: 'bogus' (choose from 'member', 'dist', "
     "'interp', 'mu', 'synth', 'boundary', 'auto', 'verify')"),
])
def test_argv_parser_refuses_with_argparse_wording(capsys, argv, message):
    assert _agree(argv) == "rejected"
    assert run(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)
    jsonschema.validate(error, SCHEMAS["error"])
    assert error["error"] == {"type": "_UsageError", "message": message}


@pytest.mark.parametrize("argv", [
    ("-h",), ("--help",), ("--he",), ("--tol", "1", "-h", "--bogus"),
    ("member", "-h"), ("interp", "--point", "[0, 0, 0]", "--help"), ("auto", "--bogus", "-h"),
])
def test_help_prints_usage_and_exits_0(capsys, argv):
    assert _agree(argv) == "help"
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: tetra" + (f" {argv[0]}" if argv[0] in _SUBPARSERS else ""))


def test_an_equals_double_dash_is_a_value(capsys):
    # argparse reads --point=-- as the empty list, which the handler then
    # fails on with a traceback; the table reads the text "--", which is
    # not JSON, so the command exits 1 with one error document
    assert vars(_REFERENCE.parse_args(["boundary", "--point=--"]))["point"] == []
    assert cli._parse_argv(["boundary", "--point=--"]).point == "--"
    rc, out, err = invoke(capsys, "boundary", "--point=--")
    assert rc == 1 and out == ""
    jsonschema.validate(json.loads(err), SCHEMAS["error"])


# --- the document writer -------------------------------------------------

def _wire(v):
    if isinstance(v, complex):
        return [v.real, v.imag]
    if isinstance(v, np.ndarray):
        return v.tolist()
    raise TypeError(f"{type(v).__name__} is not JSON serialisable")


def _dumps(doc) -> str:
    """The encoder the CLI wrote its documents with before, kept as the
    oracle for cli._emit."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False, default=_wire) + "\n"


def _emitted(doc) -> str:
    stream = io.StringIO()
    cli._emit(doc, stream=stream)
    return stream.getvalue()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e308, 1.7976931348623157e308,
     -1e-300, 0.1, 1 / 3]
)
_TEXT = st.text() | st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\x7f\n\t", "\u00e9\u2028\U0001f600", ""]
)
_COMPLEX = st.builds(complex, _FLOATS, _FLOATS)
_ARRAYS = st.builds(
    lambda values, cplx: np.array(values, dtype=complex if cplx else float),
    st.lists(_FLOATS, max_size=4) | st.lists(st.lists(_FLOATS, min_size=2, max_size=2),
                                             min_size=1, max_size=2),
    st.booleans(),
)
_LEAVES = (
    st.none() | st.booleans() | _FLOATS | _TEXT | _COMPLEX | _ARRAYS
    | st.integers() | st.integers(-(2 ** 80), 2 ** 80) | st.sampled_from([10 ** 30, -(2 ** 63)])
)
_DOCS = st.recursive(
    _LEAVES,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(_TEXT, inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(doc=st.dictionaries(_TEXT, _DOCS, max_size=5))
def test_writer_matches_json_dumps_byte_for_byte(doc):
    assert _emitted(doc) == _dumps(doc)


def test_writer_matches_json_dumps_on_named_cases():
    doc = {
        "empty": [{}, [], (), {"": []}],
        "nested": {"b": [1, (2.5, [True, None])], "a": {"z": -0.0, "y": 5e-324}},
        "numbers": [10 ** 40, -(2 ** 64), False, 1e308, -1e-320, np.float64(0.1)],
        "text": ['q"uote', "back\\slash", "\x01ctl\n", "\u00fcn\u00efc\u00f6de \u2603"],
        "complex": [1 + 2j, complex(-0.0, 1e-310), np.complex128(3 - 4j)],
        "arrays": [np.eye(2), np.array([[1j, 2], [3, -4j]]), np.zeros(0)],
    }
    assert _emitted(doc) == _dumps(doc)


@pytest.mark.parametrize("value, error", [
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
    (np.float64(math.nan), ValueError), (complex(0.0, math.inf), ValueError),
    (np.array([1.0, math.nan]), ValueError),
    (np.bool_(True), TypeError), (np.float32(0.5), TypeError), (object(), TypeError),
])
def test_writer_refuses_what_json_refuses_and_writes_nothing(value, error):
    doc = {"a": 1.0, "b": [0.5, {"c": value}], "z": "last"}
    with pytest.raises(error):
        _dumps(doc)
    stream = io.StringIO()
    with pytest.raises(error):
        cli._emit(doc, stream=stream)
    assert stream.getvalue() == ""


# every leaf type the loop writes in place, then what it hands to _put
_LEAF_CASES = {
    "float": 0.1, "negative zero": -0.0, "subnormal": 5e-324, "true": True,
    "false": False, "none": None, "str": 'q"\\\u00e9', "empty str": "", "int": -7,
    "complex": complex(1.5, -0.0), "400-digit int": -(10 ** 399), "float64": np.float64(0.1),
    "complex128": np.complex128(3 - 4j), "ndarray": np.array([[1j, 2], [3, -4j]]),
    "empty dict": {}, "empty list": [], "empty tuple": (),
}


def _nested(leaf, container, depth):
    """leaf as the first and last item of container (dict, list or tuple),
    depth containers down."""
    v = leaf
    for _ in range(depth):
        v = {"a": v, "z": leaf} if container is dict else container([v, leaf])
    return v


@pytest.mark.parametrize("container", [dict, list, tuple])
@pytest.mark.parametrize("leaf", _LEAF_CASES.values(), ids=list(_LEAF_CASES))
def test_writer_writes_each_leaf_type_in_each_container_at_each_depth(leaf, container):
    single = {"k": leaf} if container is dict else container([leaf])
    for depth in (1, 2, 3, 4):
        doc = {"doc": _nested(leaf, container, depth), "single": single}
        assert _emitted(doc) == _dumps(doc), depth


@pytest.mark.parametrize("bad", [
    complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, math.nan),
    np.complex128(complex(0.0, -math.inf)),
], ids=["nan real", "inf imaginary", "both", "complex128"])
@pytest.mark.parametrize("container", [dict, list, tuple])
def test_writer_refuses_a_non_finite_complex_item_and_writes_nothing(bad, container):
    for depth in (1, 3):
        doc = {"a": 0.5, "b": _nested(bad, container, depth)}
        stream = io.StringIO()
        with pytest.raises(ValueError, match="Out of range float"):
            cli._emit(doc, stream=stream)
        assert stream.getvalue() == ""


def _minimal_argv(cmd, spec):
    """cmd with a value for each of its required options."""
    argv = [cmd]
    for option, (kind, default) in spec.items():
        if default is ...:
            argv += [option, kind[0] if isinstance(kind, tuple) else "1"]
    return argv


@pytest.mark.parametrize("cmd", list(cli._COMMANDS))
def test_every_option_of_every_command_is_parsed_with_its_default(cmd):
    spec = cli._COMMANDS[cmd][2]
    parsed = vars(cli._parse_argv(_minimal_argv(cmd, spec)))
    expected = {"cmd": cmd, "tol": DEFAULT_TOL}
    for option, (kind, default) in spec.items():
        dest = option[2:].replace("-", "_")
        given = kind[0] if isinstance(kind, tuple) else kind("1")
        expected[dest] = given if default is ... else default
    assert parsed == expected
    # each option's value is read into its own dest, under its full name
    for option, (kind, default) in spec.items():
        if kind is bool:
            argv = _minimal_argv(cmd, spec) + [option]
            value = True
        else:
            value = kind[-1] if isinstance(kind, tuple) else kind("2")
            argv = _minimal_argv(cmd, spec) + [f"{option}={value}"]
        assert vars(cli._parse_argv(argv))[option[2:].replace("-", "_")] == value, option


def test_readme_outputs_are_json_dumps_documents():
    records = json.loads(GOLDEN.read_text())
    outputs = [r[k] for r in records.values() for k in ("stdout", "stderr") if r[k]]
    assert outputs
    for out in outputs:
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out
