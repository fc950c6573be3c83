import cmath
import collections
import dataclasses
import json
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetra import interpolate
from tetra.errors import (
    BadLambda,
    BadShape,
    BadTolerance,
    Extremal,
    Infeasible,
    InfeasiblePick,
    NonFinite,
    NormTooLarge,
    NumericalDegenerate,
    OutsideDisc,
    PositiveDefinite,
    SigmaOutOfRange,
    Triangular,
    Unsupported,
    ZeroAlpha,
)
from tetra.interpolate import (
    Interpolant,
    SchwarzWorkspace,
    all_solutions_params,
    big_m,
    choose_alpha,
    scalar_np2,
    schwarz_feasible,
    solve_schwarz,
    solve_with_sigma,
    uv_vectors,
    verify_interpolant,
)
from tetra.linalg import eigvals_herm2, mat2, op_norm, pi_map
from tetra.metrics import pseudohyperbolic
from tetra.cli import run
from tetra.musyn import SynthesisInstance, mu_diag, synth_two_point
from tetra.tetrablock import (
    _margins,
    construct_matrix_rep,
    criterion_max,
    is_triangular,
    membership,
)

from conftest import random_disc, random_feasible_instance, random_point_in_e
from test_distance_oracle import c_T

BENCH = pathlib.Path(__file__).parent.parent / "bench"
EPS = np.finfo(float).eps
GOLD_X = (0.5, 0.25, 0.5)
GOLD_L0 = -0.8
GOLD_W = math.sqrt(0.46875)  # principal root of (ab - p)/lambda0 = 15/32


# --- feasibility ----------------------------------------------------------

def test_schwarz_feasible_golden_extremal():
    ok, margin = schwarz_feasible(GOLD_L0, GOLD_X)
    assert ok
    assert margin == pytest.approx(0.0, abs=1e-12)


def test_schwarz_feasible_margins():
    ok, margin = schwarz_feasible(-0.9, GOLD_X)
    assert ok and margin == pytest.approx(0.1, abs=1e-12)
    ok2, margin2 = schwarz_feasible(0.5, GOLD_X)
    assert not ok2 and margin2 == pytest.approx(-0.3, abs=1e-12)


@pytest.mark.parametrize("shrink, feasible", [(5e-11, True), (2e-10, False)])
def test_feasibility_band_is_one_rule(shrink, feasible, capsys):
    # |lambda0| below the criterion by 5e-11 relative lies in the extremal
    # band EXTREMAL_RTOL = 1e-10, and by 2e-10 outside it: schwarz_feasible,
    # solve_schwarz, synth_two_point and `tetra interp` all agree on both
    x = (0.3 + 0.1j, 0.2 - 0.05j, 0.1 + 0.02j)
    l0 = criterion_max(x) * (1.0 - shrink) * cmath.exp(0.7j)
    assert schwarz_feasible(l0, x)[0] is feasible
    if feasible:
        phi = solve_schwarz(l0, x)
        assert phi.variant == "svd_reduced"
        assert verify_interpolant(phi).passed
    else:
        with pytest.raises(Infeasible):
            solve_schwarz(l0, x)
    inst = SynthesisInstance(l0, [[0, 1], [0, 0]], construct_matrix_rep(x))
    assert synth_two_point(inst)[0] is feasible
    argv = ["interp", "--lambda0", json.dumps([l0.real, l0.imag]),
            "--point", json.dumps([[c.real, c.imag] for c in x])]
    assert run(argv) == (0 if feasible else 2)
    assert json.loads(capsys.readouterr().out)["feasible"] is feasible


def test_schwarz_feasible_guards():
    with pytest.raises(BadLambda):
        schwarz_feasible(0.0, GOLD_X)
    with pytest.raises(BadLambda):
        schwarz_feasible(1.0, GOLD_X)


# --- the pivot matrix -----------------------------------------------------

def test_big_m_quadratic_identity(rng):
    # <M(rho) alpha, alpha> = ||v(alpha)||^2 - rho^2 ||u(alpha)||^2 for all
    # alpha, which pins the orientation of the mixed terms
    for _ in range(200):
        l0, x = random_feasible_instance(rng)
        a, b, p = x
        if abs(a) < abs(b):
            a, b = b, a
        if abs(b) < 1e-8 or abs(a * b - p) < 1e-8:
            continue
        Z = SchwarzWorkspace.build(l0, (a, b, p)).Z
        rho = abs(l0)
        M = big_m(Z, rho)
        assert np.allclose(M, M.conj().T)
        al = np.array(
            [rng.standard_normal() + 1j * rng.standard_normal() for _ in range(2)]
        )
        u, v = uv_vectors(Z, al)
        lhs = np.vdot(v, v).real - rho * rho * np.vdot(u, u).real
        rhs = np.vdot(al, M @ al).real
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_big_m_determinant_identity(rng):
    # det(M(|l0|) det(1 - Z*Z)) = -(y - y1)(y - y2) across the sigma family
    I2 = np.eye(2)
    checked = 0
    for _ in range(100):
        l0, x = random_feasible_instance(rng)
        a, b, p = x
        if abs(a) < abs(b):
            a, b = b, a
        try:
            par = all_solutions_params(l0, (a, b, p))
        except Exception:
            continue
        r = abs(a * b - p)
        for s2 in (1.0, 0.5 * (par.xi1 + 1.0), 0.5 * (1.0 + par.xi2)):
            Z = SchwarzWorkspace.build(l0, (a, b, p), sigma=math.sqrt(s2)).Z
            M = big_m(Z, abs(l0))
            c = np.linalg.det(I2 - Z.conj().T @ Z).real
            y = r * (s2 + 1.0 / s2)
            lhs = np.linalg.det(M).real * c * c
            rhs = -(y - r * par.Y1) * (y - r * par.Y2)
            assert lhs == pytest.approx(rhs, abs=1e-9)
            checked += 1
    assert checked >= 30


def test_choose_alpha_properties():
    M = np.array([[1.0, 0.0], [0.0, -2.0]])
    al = choose_alpha(M)
    assert np.linalg.norm(al) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(al, M @ al).real == pytest.approx(-2.0, abs=1e-12)
    # phase convention: first sizeable entry is positive real
    assert abs(al[1].imag) < 1e-14 and al[1].real > 0
    with pytest.raises(PositiveDefinite):
        choose_alpha(np.eye(2))


def choose_alpha_by_eigh(M):
    """choose_alpha's definition through LAPACK: eigh's eigenvector for the
    least eigenvalue, its first entry above 1e-12 turned positive real."""
    _, evecs = np.linalg.eigh((M + M.conj().T) / 2.0)
    a = evecs[:, 0].astype(complex)
    c = next(c for c in a if abs(c) > 1e-12)
    return a * (c.conjugate() / abs(c))


def test_choose_alpha_matches_eigh(rng):
    # random Hermitian M shifted so that the least eigenvalue is -d, d in
    # [0, 1], with eigenvalue gaps of 1e-3 and above.  Over 40 seeds x 1000
    # M of each kind the worst distance from eigh's vector was 6.7e-16
    # (real), 7.2e-16 (complex) and 0 (diagonal); the bound is 2e-15.
    for kind in ("real", "complex", "diagonal"):
        for _ in range(300):
            G = rng.standard_normal((2, 2))
            if kind == "complex":
                G = G + 1j * rng.standard_normal((2, 2))
            H = G + G.conj().T
            if kind == "diagonal":
                H = np.diag(np.diag(H))
            lo, hi = np.linalg.eigvalsh(H)
            if hi - lo < 1e-3:
                continue
            M = H - (lo + rng.uniform()) * np.eye(2)
            ref = choose_alpha_by_eigh(M)
            al = choose_alpha(M)
            assert al.shape == (2,) and al.dtype == complex
            assert np.max(np.abs(al - ref)) <= 2e-15, kind
            if kind != "complex":
                assert not al.imag.any()
            if kind == "diagonal":
                assert al.tolist() in ([1, 0], [0, 1])


def test_choose_alpha_on_a_repeated_eigenvalue():
    # M = c I: every vector is an eigenvector, and e1 is the one returned
    for c in (0.0, -0.5, 1e-9, -3.0):
        al = choose_alpha(c * np.eye(2))
        assert al.tolist() == [1, 0]
        assert np.vdot(al, c * np.eye(2) @ al).real == c
    # within rounding of c I the Rayleigh quotient is still the least eigenvalue
    for eps in (1e-17, 1e-15):
        M = np.array([[-0.5, eps * 1j], [-eps * 1j, -0.5 + eps]])
        al = choose_alpha(M)
        assert abs(np.linalg.norm(al) - 1.0) <= 4e-16
        assert abs(np.vdot(al, M @ al).real - np.linalg.eigvalsh(M)[0]) <= 4e-16
    with pytest.raises(PositiveDefinite):
        choose_alpha(2e-9 * np.eye(2))


def test_uv_vectors_guards():
    Z = mat2(0.5, 0, 0, 0.5)
    with pytest.raises(ZeroAlpha):
        uv_vectors(Z, [0.0, 0.0])
    with pytest.raises(NormTooLarge):
        uv_vectors(mat2(1.5, 0, 0, 0), [1.0, 0.0])


def test_uv_vectors_of_a_non_finite_or_huge_alpha_is_non_finite():
    # a NaN or inf in alpha, or a finite alpha whose u and v overflow, is a
    # typed error rather than NaN or inf vectors, and numpy warns nothing
    Z = mat2(0, 0, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in ([math.nan, 1.0], [math.inf, 0.0], [1e308, 1e308]):
            with pytest.raises(NonFinite):
                uv_vectors(Z, alpha)


def test_uv_vectors_needs_two_entries():
    Z = mat2(0.5, 0, 0, 0.5)
    for alpha in ([1.0], [1.0, 0.0, 0.0], []):
        with pytest.raises(BadShape):
            uv_vectors(Z, alpha)


def test_workspace_of_a_far_exterior_point_is_not_interior():
    # finite data whose w or Z overflows: a norm question, not a bad matrix
    for x, sigma in (((1e200, 1e200, 0.0), 1.0), ((1e200 + 1e200j, 1e200, 0.0), 1.0),
                     ((1e155, 1e155, 0.0), 1.0), ((0.5, 0.25, 0.0), 1e-310)):
        with pytest.raises(NormTooLarge, match="not strictly interior"):
            SchwarzWorkspace.build(0.5, x, sigma=sigma)


# --- scalar two-point problem ----------------------------------------------

def test_scalar_np2_golden_reduction():
    # the golden extremal instance reduces to g(0) = 3/10, g(-4/5) = 5/8
    assert pseudohyperbolic(0.3, 0.625) == pytest.approx(0.4, abs=1e-14)
    g = scalar_np2(0.0, 0.3, GOLD_L0, 0.625, 0.0)
    assert g(0.0) == pytest.approx(0.3, abs=1e-12)
    assert g(GOLD_L0) == pytest.approx(0.625, abs=1e-12)


def test_scalar_np2_distinct_parameters_differ():
    g0 = scalar_np2(0.0, 0.3, GOLD_L0, 0.625, 0.0)
    g1 = scalar_np2(0.0, 0.3, GOLD_L0, 0.625, 0.5)
    assert abs(g0(0.3) - g1(0.3)) > 1e-6
    for g in (g0, g1):
        assert g(0.0) == pytest.approx(0.3, abs=1e-12)
        assert g(GOLD_L0) == pytest.approx(0.625, abs=1e-12)


def test_scalar_np2_schur_bound(rng):
    for t in (0.0, 0.3 + 0.4j, -0.99, 1.0):
        g = scalar_np2(0.0, 0.3, GOLD_L0, 0.625, t)
        for _ in range(300):
            lam = math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            assert abs(g(lam)) <= 1.0 + 1e-10


def test_scalar_np2_unimodular_blaschke_case():
    # d(v1, v2) equal to d(l1, l2) forces the unique Blaschke solution
    g = scalar_np2(0.0, 0.0, 0.5, 0.5, 0.7)
    assert g(0.25) == pytest.approx(0.25, abs=1e-12)


def test_scalar_np2_guards():
    with pytest.raises(InfeasiblePick):
        scalar_np2(0.0, 0.0, 0.5, 0.9, 0.0)
    with pytest.raises(OutsideDisc):
        scalar_np2(0.0, 0.1, 0.5, 0.2, 1.5)


def test_scalar_np2_rejects_a_nan_t():
    with pytest.raises(OutsideDisc):
        scalar_np2(0.0, 0.1, 0.5, 0.2, complex("nan"))


@pytest.mark.parametrize("lam0, x", [
    (-0.8, (0.3, 0.0, 0.05)),    # scaled line
    (0.8, (0.3, 0.2, 0.06)),     # triangular
    (-0.6, (0.3, 0.2, 0.1)),     # Moebius transport
    (-0.8, (0.5, 0.25, 0.5)),    # extremal, the only branch that uses t
])
def test_solve_schwarz_checks_t_on_every_branch(lam0, x):
    for t in (5.0, complex("nan"), complex(0.0, 1.0 + 1e-9)):
        with pytest.raises(OutsideDisc):
            solve_schwarz(lam0, x, t=t)
    assert solve_schwarz(lam0, x, t=1j).t == 1j


@settings(max_examples=60, deadline=None)
@given(
    w2r=st.floats(-0.6, 0.6),
    w2i=st.floats(-0.6, 0.6),
    tr=st.floats(-0.7, 0.7),
)
def test_scalar_np2_always_interpolates(w2r, w2i, tr):
    l2, w1 = 0.75, 0.2
    w2 = complex(w2r, w2i)
    if pseudohyperbolic(w1, w2) > pseudohyperbolic(0.0, l2) - 1e-3:
        return
    g = scalar_np2(0.0, w1, l2, w2, tr)
    assert g(0.0) == pytest.approx(w1, abs=1e-10)
    assert g(l2) == pytest.approx(w2, abs=1e-10)


# --- workspace and solver ---------------------------------------------------

def test_golden_z_spectrum():
    # at the extremal golden instance the solver's Z touches the sphere
    phi = solve_schwarz(GOLD_L0, GOLD_X)
    Z = phi.Z
    assert Z[0, 0] == pytest.approx(-0.625, abs=1e-12)
    assert Z[1, 1] == pytest.approx(0.25, abs=1e-12)
    assert Z[0, 1] == pytest.approx(GOLD_W, abs=1e-12)
    assert Z[1, 0] == pytest.approx(GOLD_W, abs=1e-12)
    assert op_norm(Z) == pytest.approx(1.0, abs=1e-10)
    lo, hi = eigvals_herm2(Z)  # Z is real symmetric here
    assert lo == pytest.approx(-1.0, abs=1e-10)
    assert hi == pytest.approx(0.625, abs=1e-10)


def workspace_targets(rng, per=4):
    """(rel, lambda0, x, sigma) at relative feasibility margins rel = 1e-2,
    1e-5 and 1e-8, |lambda0| = criterion_max(x) / (1 - rel): per Moebius
    targets (sigma = 1) and per sigma-family ones, sigma^2 = xi2^(1/4) or
    xi1^(1/4) in turn, at each margin."""
    out = []
    for rel in (1e-2, 1e-5, 1e-8):
        for k in range(2 * per):
            while True:
                x = random_point_in_e(rng, hi=0.85)
                if abs(x[0]) < abs(x[1]):
                    x = (x[1], x[0], x[2])
                l0 = criterion_max(x) / (1.0 - rel) * cmath.exp(2j * math.pi * rng.uniform())
                if abs(l0) < 0.999 and not is_triangular(x):
                    break
            sigma = 1.0
            if k >= per:
                par = all_solutions_params(l0, x)
                sigma = math.sqrt((par.xi2 if k % 2 else par.xi1) ** 0.25)
            out.append((rel, l0, x, sigma))
    return out


def workspace_by_definition(mp, Z, lambda0, alpha):
    """M(rho) of Z at rho = |lambda0|, its alpha (choose_alpha's unit
    eigenvector and phase rule) and u, v at the given alpha, each from its
    definition in mpmath (matrix inverses, eigh and sqrtm) at mp's working
    precision."""
    Z = mp.matrix(Z.tolist())
    I, Zs = mp.eye(2), Z.H
    Y, W = I - Zs * Z, I - Z * Zs
    r2 = abs(mp.mpmathify(lambda0)) ** 2
    M = mp.matrix(2, 2)
    M[0, 0] = ((I - r2 * Zs * Z) * mp.inverse(Y))[0, 0]
    M[1, 1] = ((Z * Zs - r2 * I) * mp.inverse(W))[1, 1]
    M[0, 1] = ((1 - r2) * Zs * mp.inverse(W))[0, 1]
    M[1, 0] = ((1 - r2) * mp.inverse(W) * Z)[1, 0]
    M = (M + M.H) / 2
    evals, Q = mp.eigh(M)
    k = 0 if evals[0] <= evals[1] else 1
    a = [Q[0, k], Q[1, k]]
    c = a[0] if abs(a[0]) > 1e-12 else a[1]
    a1, a2 = (mp.mpmathify(e) for e in alpha)
    g = mp.matrix([a1 * Z[0, 0], a1 * Z[1, 0] + a2])
    h = mp.matrix([a1 + a2 * mp.conj(Z[1, 0]), a2 * mp.conj(Z[1, 1])])
    u = mp.inverse(mp.sqrtm(W)) * g
    v = -(mp.inverse(mp.sqrtm(Y)) * h)
    return {
        "M": [M[i, j] for i in (0, 1) for j in (0, 1)],
        "alpha": [e * mp.conj(c) / abs(c) for e in a], "u": list(u), "v": list(v),
        "least": min(evals),
    }


def relative_error(mp, got, exact):
    """max |got - exact| / max |exact| over the entries."""
    err = max(abs(mp.mpmathify(g) - e) for g, e in zip(np.ravel(got).tolist(), exact))
    return float(err / max(abs(e) for e in exact))


# 4 x the worst relative error of SchwarzWorkspace.build against
# workspace_by_definition at 40 digits, measured over 100 seeds of
# workspace_targets (400 Moebius and 400 sigma targets per margin):
# M 9.8e-15, 9.7e-12, 8.9e-9; alpha 2.7e-15, 2.7e-12, 2.8e-9; u 1.3e-15,
# 6.2e-14, 1.8e-12; v 1.8e-13, 3.4e-12, 5.0e-11 at margins 1e-2, 1e-5, 1e-8
WORKSPACE_TOL = {
    1e-2: {"M": 4e-14, "alpha": 1.1e-14, "u": 5.2e-15, "v": 7.4e-13},
    1e-5: {"M": 3.9e-11, "alpha": 1.1e-11, "u": 2.5e-13, "v": 1.4e-11},
    1e-8: {"M": 3.6e-8, "alpha": 1.2e-8, "u": 7.2e-12, "v": 2.1e-10},
}


def test_workspace_matches_its_definition_in_40_digits(rng):
    """SchwarzWorkspace's M, alpha, u and v, computed in double-precision
    closed forms, against their definitions in 40-digit arithmetic, at the
    tolerances of WORKSPACE_TOL; M's error grows about as eps / margin.  At
    margin 1e-8 a sigma target can raise PositiveDefinite (23 of the 400
    measured): M's least eigenvalue is then within M's own rounding (at
    most 1.4e-9 of its norm measured), so the sign the closed form reads is
    noise; for those the test checks big_m and that bound."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for rel, l0, x, sigma in workspace_targets(rng):
            tol = WORKSPACE_TOL[rel]
            try:
                ws = SchwarzWorkspace.build(l0, x, sigma=sigma)
            except PositiveDefinite:
                assert rel == 1e-8 and sigma != 1.0
                Z = family_z(l0, x, sigma)
                ref = workspace_by_definition(mpmath.mp, Z, l0, (1.0, 0.0))
                assert relative_error(mpmath.mp, big_m(Z, abs(l0)), ref["M"]) <= tol["M"]
                assert -tol["M"] <= ref["least"] / max(abs(e) for e in ref["M"]) <= 0
                continue
            ref = workspace_by_definition(mpmath.mp, ws.Z, l0, ws.alpha.tolist())
            for name in ("M", "alpha", "u", "v"):
                assert relative_error(mpmath.mp, getattr(ws, name), ref[name]) <= tol[name], (
                    rel, sigma, name)


def test_workspace_build_requires_strict_interior():
    ws = SchwarzWorkspace.build(-0.9, GOLD_X)
    assert op_norm(ws.Z) < 1.0
    assert ws.Z[0, 0] == pytest.approx(0.5 / -0.9, abs=1e-12)
    with pytest.raises(NormTooLarge):
        SchwarzWorkspace.build(GOLD_L0, GOLD_X)


def test_workspace_build_needs_a_finite_positive_sigma():
    for sigma in (0.0, -0.0, -1.0, math.nan, math.inf):
        with pytest.raises(SigmaOutOfRange):
            SchwarzWorkspace.build(-0.9, GOLD_X, sigma=sigma)


def test_moebius_and_sigma_solves_call_no_lapack_sqrt_psd_or_inv2(monkeypatch):
    # the workspace and the pencil are scalar closed forms: with numpy.linalg
    # raising, both solvers and the lift still run
    sigma = math.sqrt(all_solutions_params(-0.9, GOLD_X).xi2) * 0.9

    class NoLinalg:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.linalg.{name} reached")

    monkeypatch.setattr(np, "linalg", NoLinalg())
    # one scalar pass per solve builds both the workspace and the pencil
    calls = collections.Counter()
    for name in ("_uv_cores", "_defects", "_choose_alpha"):
        def counted(*args, _f=getattr(interpolate, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(interpolate, name, counted)
    phis = []
    for solve in (lambda: solve_schwarz(-0.9, GOLD_X),
                  lambda: solve_schwarz(-0.9, (0.25, 0.5, 0.5)),
                  lambda: solve_with_sigma(-0.9, GOLD_X, sigma)):
        calls.clear()
        phis.append(solve())
        assert calls == {"_uv_cores": 1, "_defects": 1, "_choose_alpha": 1}
    assert [(p.variant, p.flipped) for p in phis] == [
        ("mobius_blaschke", False), ("mobius_blaschke", True), ("sigma_family", False),
    ]
    for phi in phis:
        assert phi.lift_evaluate(np.array([0.0, 0.3j, phi.lambda0])).shape == (3, 2, 2)


def test_solve_schwarz_extremal_golden():
    phi = solve_schwarz(GOLD_L0, GOLD_X)
    assert phi.variant == "svd_reduced"
    assert phi.evaluate(0.0) == pytest.approx((0, 0, 0), abs=1e-12)
    assert phi.evaluate(GOLD_L0) == pytest.approx(GOLD_X, abs=1e-10)
    # the reduced scalar data: g(0) = -c U10 V01 / (U11 V11) = 3/10, s = 5/8
    _, g0, l0, s, _ = phi._scalar_params
    assert abs(g0) == pytest.approx(0.3, abs=1e-10)
    assert s == pytest.approx(0.625, abs=1e-10)
    assert l0 == GOLD_L0


def test_solve_schwarz_interpolates_all_variants(rng):
    seen = set()
    for k in range(120):
        l0, x = random_feasible_instance(rng)
        phi = solve_schwarz(l0, x)
        seen.add(phi.variant)
        assert max(abs(c) for c in phi.evaluate(0.0)) < 1e-9
        assert phi.evaluate(l0) == pytest.approx(x, abs=1e-9)
    # line targets and extremal targets are rare under this generator
    phi_line = solve_schwarz(0.7, (0.5, 0.0, 0.1))
    assert phi_line.evaluate(0.7) == pytest.approx((0.5, 0.0, 0.1), abs=1e-12)
    seen.add(phi_line.variant)
    phi_diag = solve_schwarz(0.7, (0.5, 0.3, 0.15))
    assert phi_diag.evaluate(0.7) == pytest.approx((0.5, 0.3, 0.15), abs=1e-12)
    assert "mobius_blaschke" in seen and "scaled_line" in seen


def test_solve_schwarz_flip_branch(rng):
    phi = solve_schwarz(-0.8 + 0.1j, (0.1, 0.5, 0.2))
    assert phi.flipped
    assert phi.evaluate(-0.8 + 0.1j) == pytest.approx((0.1, 0.5, 0.2), abs=1e-10)
    rep = verify_interpolant(phi, samples=300, seed=5)
    assert rep.passed


def test_solve_schwarz_infeasible():
    with pytest.raises(Infeasible):
        solve_schwarz(0.5, GOLD_X)


def test_solve_schwarz_t_family_on_extremal():
    phi0 = solve_schwarz(GOLD_L0, GOLD_X, t=0.0)
    phi1 = solve_schwarz(GOLD_L0, GOLD_X, t=0.5)
    diff = max(
        abs(a - b) for a, b in zip(phi0.evaluate(0.3), phi1.evaluate(0.3))
    )
    assert diff > 1e-6
    for phi in (phi0, phi1):
        assert verify_interpolant(phi, samples=300, seed=7).passed


def test_interpolants_compare_by_identity():
    # the generated field-wise __eq__ compared the Z, u, v arrays and raised
    phi = solve_schwarz(0.95j, GOLD_X)
    assert (phi == solve_schwarz(0.95j, GOLD_X)) is False
    assert phi == phi and len({phi, phi}) == 1


def test_interpolant_payload_roundtrip(rng):
    for _ in range(20):
        l0, x = random_feasible_instance(rng)
        phi = solve_schwarz(l0, x)
        phi2 = Interpolant.from_payload(phi.to_payload())
        assert phi2.variant == phi.variant
        for k in range(8):
            lam = 0.9 * np.exp(2j * np.pi * k / 8)
            assert phi2.evaluate(lam) == pytest.approx(
                phi.evaluate(lam), abs=1e-10
            )


def test_interpolant_payload_rejects_tampering():
    phi = solve_schwarz(-0.9, GOLD_X)
    payload = phi.to_payload()
    payload["Z"][0][0] = [0.9, 0.0]
    with pytest.raises(NumericalDegenerate):
        Interpolant.from_payload(payload)


# --- the one-parameter family -----------------------------------------------

def test_all_solutions_params_golden():
    par = all_solutions_params(0.9, GOLD_X)
    assert par.K == pytest.approx(2.25, abs=1e-12)
    assert par.Y1 == pytest.approx(2.3555555555555556, abs=1e-12)
    assert par.Y2 == pytest.approx(2.25, abs=1e-12)
    assert par.xi1 * par.xi2 == pytest.approx(1.0, abs=1e-12)
    assert par.xi2 + 1.0 / par.xi2 == pytest.approx(par.Y2, abs=1e-12)


def test_all_solutions_params_invariants(rng):
    n = 0
    while n < 100:
        l0, x = random_feasible_instance(rng)
        a, b, p = x
        if abs(a) < abs(b):
            a, b = b, a
        try:
            par = all_solutions_params(l0, (a, b, p))
        except (Triangular, Extremal):
            continue
        n += 1
        assert par.xi1 * par.xi2 == pytest.approx(1.0, abs=1e-10)
        assert par.K > 1.0
        assert par.Y2 > 2.0
        assert par.K + 1.0 / par.K > par.Y2
        assert par.Y1 >= par.Y2 - 1e-12


def test_all_solutions_params_guards():
    with pytest.raises(Extremal):
        all_solutions_params(GOLD_L0, GOLD_X)
    with pytest.raises(Triangular):
        all_solutions_params(0.9, (0.5, 0.3, 0.15))
    with pytest.raises(Unsupported):
        all_solutions_params(0.9, (0.25, 0.5, 0.5))
    with pytest.raises(Infeasible):
        all_solutions_params(0.5, GOLD_X)


def family_z(lam0, x, sigma):
    # the family's pivot from its defining formula, without interiority guards
    from tetra.linalg import principal_sqrt
    a, b, p = x
    w = principal_sqrt((a * b - p) / lam0)
    return mat2(a / lam0, sigma * w, w / sigma, b)


def test_solve_with_sigma_window(rng):
    par = all_solutions_params(0.9, GOLD_X)
    for s2 in np.linspace(par.xi1 * 1.02, par.xi2 * 0.98, 7):
        phi = solve_with_sigma(0.9, GOLD_X, math.sqrt(s2))
        assert phi.evaluate(0.9) == pytest.approx(GOLD_X, abs=1e-9)
        assert max(abs(c) for c in phi.evaluate(0.0)) < 1e-10
        assert op_norm(family_z(0.9, GOLD_X, math.sqrt(s2))) < 1.0
    with pytest.raises(SigmaOutOfRange):
        solve_with_sigma(0.9, GOLD_X, math.sqrt(par.xi2 * 1.01))
    for sigma in (-1.0, 10 ** 400, -(10 ** 400)):  # ints past the float range too
        with pytest.raises(SigmaOutOfRange):
            solve_with_sigma(0.9, GOLD_X, sigma)
    # the pivot norm leaves the ball just outside the window
    assert op_norm(family_z(0.9, GOLD_X, math.sqrt(par.xi2 * 1.01))) >= 1.0


# --- verification -----------------------------------------------------------

def test_verify_interpolant_passes_and_reports(rng):
    l0, x = random_feasible_instance(rng)
    phi = solve_schwarz(l0, x)
    rep = verify_interpolant(phi, samples=400, seed=11)
    assert rep.passed
    d = rep.to_dict()
    assert d["samples"] == 400 and d["seed"] == 11
    assert d["endpoint_zero"] < 1e-9 and d["endpoint_target"] < 1e-9
    assert d["margin_violation"] == 0.0
    assert d["lift_norm_excess"] <= 1e-9


def test_verify_interpolant_needs_a_finite_non_negative_tol():
    phi = solve_schwarz(-0.9, GOLD_X)
    for tol in (math.nan, math.inf, -math.inf, -1e-300):
        with pytest.raises(BadTolerance):
            verify_interpolant(phi, samples=8, tol=tol)
    assert issubclass(BadTolerance, ValueError)
    # zero is a valid tolerance: every residual must vanish exactly
    rep = verify_interpolant(phi, samples=8, tol=0.0)
    assert rep.tol == 0.0 and rep.passed == (
        max(rep.endpoint_zero, rep.endpoint_target, rep.margin_violation,
            rep.lift_norm_excess, rep.zero_column) == 0.0
    )


def test_verify_interpolant_mu_bound(rng):
    # the lift stays mu-contractive, not just norm-contractive
    l0, x = random_feasible_instance(rng)
    phi = solve_schwarz(l0, x)
    for _ in range(50):
        lam = math.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert mu_diag(phi.lift_evaluate(lam)) <= 1.0 + 1e-8


# --- the batched lift and audit -----------------------------------------------

def disc_points(rng, n):
    """Half uniform in area, half within 1e-4 .. 1e-1 of the circle, plus 0
    and a point of the circle itself."""
    r = np.concatenate([
        np.sqrt(rng.uniform(size=n // 2)),
        1.0 - 10.0 ** rng.uniform(-4.0, -1.0, n - n // 2),
    ])
    return np.append(r * np.exp(2j * np.pi * rng.uniform(size=n)), [0.0, 1j])


def extremal_lambda0(rng, x):
    # inside solve_schwarz's 1e-10 band around the two-quotient maximum
    return criterion_max(x) * (1.0 + 1e-12) * np.exp(2j * np.pi * rng.uniform())


def every_variant(rng):
    """One interpolant of each variant and branch: both scaled-line modes,
    Moebius transport plain and flipped, the SVD reduction with t != 0
    (plain and flipped) and a sigma-family member."""
    x = random_point_in_e(rng, hi=0.85)
    a, b = max(x[:2], key=abs), min(x[:2], key=abs)
    front, back = (a, b, x[2]), (b, a, x[2])
    sigma = math.sqrt(all_solutions_params(-0.9, GOLD_X).xi2) * 0.9
    phis = [
        solve_schwarz(0.7, (0.5, 0.0, 0.1)),
        solve_schwarz(0.7, (0.5, 0.3, 0.15)),
        solve_schwarz(0.95j, front),
        solve_schwarz(-0.95, back),
        solve_schwarz(extremal_lambda0(rng, front), front, t=0.4 - 0.3j),
        solve_schwarz(extremal_lambda0(rng, back), back, t=-0.5j),
        solve_with_sigma(-0.9, GOLD_X, sigma),
    ]
    assert [(p.variant, p.mode, p.flipped) for p in phis] == [
        ("scaled_line", "line", False), ("scaled_line", "diag", False),
        ("mobius_blaschke", None, False), ("mobius_blaschke", None, True),
        ("svd_reduced", None, False), ("svd_reduced", None, True),
        ("sigma_family", None, False),
    ]
    return phis


def test_lift_stack_matches_pointwise_lift(rng):
    # a point is lifted in complex scalars and the stack in arrays, with the
    # same roundings: each row is the point's lift bit for bit, except for
    # svd_reduced, whose lift goes through LAPACK's factors and a matmul
    lams = disc_points(rng, 40)
    kinds = (  # (stack, the point types each of its entries is passed as)
        (lams, (complex, np.complex128, np.asarray)),
        (lams.real, (float, np.float64)),
        (np.array([-1, 0, 1]), (int, np.int64)),
    )
    for _ in range(3):
        for phi in every_variant(rng):
            if phi.variant == "svd_reduced":
                def same(a, b):
                    return np.max(np.abs(a - b)) <= 1e-15
            else:
                same = np.array_equal
            for stack, types in kinds:
                F = phi.lift_evaluate(stack)
                assert F.shape == (stack.size, 2, 2)
                for k, lam in enumerate(stack):
                    for kind in types:
                        Fk = phi.lift_evaluate(kind(lam))
                        assert Fk.shape == (2, 2)
                        assert same(F[k], Fk), (phi.variant, kind, lam)
            x = phi.evaluate(lams)
            for k, lam in enumerate(lams):
                xk = phi.evaluate(lam)
                assert all(type(c) is complex for c in xk)
                assert max(abs(c[k] - d) for c, d in zip(x, xk)) <= 1e-15


def test_scalar_np2_evaluates_arrays(rng):
    lams = disc_points(rng, 30)
    for t in (0.0, 0.3 + 0.4j, 1.0):
        for v2 in (0.625, 0.2 - 0.1j):
            g = scalar_np2(0.0, 0.3, GOLD_L0, v2, t)
            vals = g(lams)
            assert np.array_equal(vals, [g(lam) for lam in lams])
            assert type(g(0.2)) is complex
    g_const = scalar_np2(0.0, 1.0, 0.5, 1.0)
    assert np.array_equal(g_const(lams), np.ones(lams.size))


def test_lift_rejects_a_point_outside_the_disc():
    phi = solve_schwarz(-0.9, GOLD_X)
    lams = np.array([0.1, 0.5j, 1.0 + 1e-9, -0.3])
    with pytest.raises(OutsideDisc):
        phi.lift_evaluate(lams)
    with pytest.raises(OutsideDisc):
        phi.evaluate(lams)
    with pytest.raises(BadLambda):
        phi.lift_evaluate(np.zeros((2, 2)))
    # a lone point is checked in complex scalars, with the stack's message;
    # an int past the float range is outside too (|lambda| = inf)
    for lam in (1.0 + 1e-9, complex("nan"), np.inf, 2, np.complex64(1.5j), 10**400):
        with pytest.raises(OutsideDisc) as point:
            phi.lift_evaluate(lam)
        with pytest.raises(OutsideDisc):
            phi.evaluate(lam)
        with pytest.raises(OutsideDisc) as stack:
            phi.lift_evaluate(np.array([lam]))
        assert str(point.value) == str(stack.value)


def audit_lams(samples, seed):
    """verify_interpolant's sample points: the same draws in the same order."""
    rng = np.random.default_rng(seed)
    n = int(samples)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    radii = np.empty(n)
    half = n // 2
    radii[:half] = np.sqrt(rng.uniform(0.0, 1.0, half))
    radii[half:] = 1.0 - 10.0 ** rng.uniform(-4.0, -1.0, n - half)
    return radii * np.exp(1j * angles)


def audit_oracle(phi, samples=500, seed=0, tol=1e-9):
    """The per-sample audit: for each sample point one lift, one value, one
    closed membership report and one operator norm."""
    lams = audit_lams(samples, seed)
    worst_margin = worst_norm = worst_consistency = 0.0
    for lam in lams:
        F = phi.lift_evaluate(lam)
        pt = phi.evaluate(lam)
        rep = membership(pt, closed=True, tol=tol)
        worst_margin = max(worst_margin, -min(rep.m3, rep.m3p))
        worst_norm = max(worst_norm, op_norm(F) - 1.0)
        diff = np.array(pi_map(F)) - np.array(pt)
        worst_consistency = max(worst_consistency, float(np.max(np.abs(diff))))

    endpoint_zero = max(abs(c) for c in phi.evaluate(0.0))
    endpoint_target = max(
        abs(c - d) for c, d in zip(phi.evaluate(phi.lambda0), phi.x)
    )
    zero_column = float(np.max(np.abs(phi.lift_evaluate(0.0)[:, 0])))
    fields = {
        "endpoint_zero": endpoint_zero,
        "endpoint_target": endpoint_target,
        "margin_violation": max(worst_margin, 0.0),
        "lift_norm_excess": max(worst_norm, 0.0),
        "lift_consistency": worst_consistency,
        "zero_column": zero_column,
    }
    fields["passed"] = all(v <= tol for v in fields.values())
    return fields


def test_verify_interpolant_agrees_with_per_sample_oracle(rng):
    checked, verdicts = 0, set()
    for k in range(10):
        for phi in every_variant(rng):
            tol = 1e-16 if k % 4 == 3 else 1e-9
            rep = verify_interpolant(phi, samples=150, seed=k, tol=tol).to_dict()
            ref = audit_oracle(phi, samples=150, seed=k, tol=tol)
            assert rep["passed"] is ref["passed"]
            for key, val in ref.items():
                if key != "passed":
                    assert abs(rep[key] - val) <= 1e-15, (phi.variant, key)
            verdicts.add(rep["passed"])
            checked += 1
    assert checked >= 60 and verdicts == {True, False}


def audit_from_public_pieces(phi, samples, seed, tol):
    """verify_interpolant's report from pi_map, _margins and op_norm on the
    audit's own sample stack, the samples followed by 0 and lambda0."""
    n = samples
    F = phi.lift_evaluate(np.append(audit_lams(n, seed), [0.0, phi.lambda0]))
    x = pi_map(F)
    x1, x2, x3 = (c[:n] for c in x)
    m3, m3p, *_ = _margins(abs(x1), abs(x2), abs(x3), abs(x1 - x2.conjugate() * x3),
                           abs(x2 - x1.conjugate() * x3), abs(x1 * x2 - x3))
    fields = {
        "endpoint_zero": float(max(abs(c[n]) for c in x)),
        "endpoint_target": float(max(abs(c[n + 1] - d) for c, d in zip(x, phi.x))),
        "margin_violation": float(np.max(-np.minimum(m3, m3p), initial=0.0)),
        "lift_norm_excess": float(np.max(op_norm(F[:n]) - 1.0, initial=0.0)),
        "zero_column": float(np.max(np.abs(F[n, :, 0]))),
    }
    return dict(fields, passed=max(fields.values()) <= tol, samples=n, seed=seed,
                tol=tol, lift_consistency=0.0)


def test_verify_interpolant_is_its_public_pieces_bit_for_bit(rng):
    # every field equal (== on floats) to pi_map, _margins and op_norm on the
    # same stack, for each variant and branch, flipped targets included
    verdicts = set()
    for seed in (0, 17):
        for phi in every_variant(rng):
            for samples in (1, 2, 500):
                for tol in (1e-9, 1e-16):
                    rep = verify_interpolant(phi, samples=samples, seed=seed, tol=tol)
                    ref = audit_from_public_pieces(phi, samples, seed, tol)
                    assert rep.to_dict() == ref, (phi.variant, phi.mode, samples, seed)
                    verdicts.add(rep.passed)
    assert verdicts == {True, False}
    # a lift with a non-finite entry is refused as the stack's validation
    # refuses it
    phi = solve_schwarz(-0.9, GOLD_X)
    bad = dataclasses.replace(phi, _lift=lambda lam: np.full(np.shape(lam) + (2, 2), np.nan))
    with pytest.raises(BadShape, match="matrix entries must be finite"):
        verify_interpolant(bad, samples=4)


def certified_norm_bound(phi, lams):
    """Each variant's closed-form bound on ||F(lam)|| at the points lams:
    ||Z|| on the scaled line; max(|a|, |b|)/|lambda0| on the diagonal, where
    F = lam Z; max(c, |g(lam)|) for svd_reduced, F = U diag(c, g) Vh
    diag(lam, 1); and for the Moebius transport (sigma family included) 1
    where big_m's identity gives ||v|| <= |lambda0| ||u||, as M_{-Z} maps
    the closed unit ball onto itself (inf where it does not)."""
    if phi.variant == "scaled_line":
        if phi.mode == "line":
            bound = op_norm(phi.Z)
        else:
            bound = max(abs(phi.x[0]), abs(phi.x[1])) / abs(phi.lambda0)
    elif phi.variant == "svd_reduced":
        c = min(float(np.linalg.svd(phi.Z, compute_uv=False)[0]), 1.0)
        return np.maximum(c, np.abs(scalar_np2(*phi._scalar_params)(lams)))
    else:
        u, v = np.linalg.norm(phi.u), np.linalg.norm(phi.v)
        bound = 1.0 if v <= abs(phi.lambda0) * u else math.inf
    return np.full(lams.size, bound)


def test_the_construction_bounds_the_audited_lift_norm():
    # each interpolant's construction certifies its lift norm: on the
    # interp_audit pools of seeds 1-2 and acceptance-5-style instances the
    # 500-sample audit never reports more than the closed-form bound allows,
    # and no sampled norm passes it by more than a few roundings
    sys.path.insert(0, str(BENCH))
    try:
        from tetrabench.workloads import InterpAudit
    finally:
        sys.path.remove(str(BENCH))
    phis = []
    for seed in (1, 2):
        for mode, l0, x, param in InterpAudit(seed).pool:
            if mode == "sigma":
                phis.append(solve_with_sigma(l0, x, param))
            elif mode != "infeasible":
                phis.append(solve_schwarz(l0, x, t=param))
    rng = np.random.default_rng(405)
    phis += [solve_schwarz(*random_feasible_instance(rng, slack=0.9)) for _ in range(150)]
    seen = collections.Counter()
    for k, phi in enumerate(phis):
        lams = audit_lams(500, k)
        bound = certified_norm_bound(phi, lams)
        assert bound.max() <= 1.0, (phi.variant, phi.mode)
        slack = 1.0 + 8.0 * EPS
        assert np.all(op_norm(phi.lift_evaluate(lams)) <= bound * slack)
        rep = verify_interpolant(phi, samples=500, seed=k)
        assert rep.lift_norm_excess <= max(bound.max() * slack - 1.0, 0.0)
        seen[phi.variant, phi.mode, phi.flipped] += 1
    assert len(seen) == 7 and min(seen.values()) >= 60, seen


def mobius_targets(rng):
    """Seeded Moebius interpolants at relative feasibility margins 1e-2,
    1e-5 and 1e-8: |lambda0| = criterion_max(x) / (1 - margin)."""
    phis = []
    for rel in (1e-2, 1e-2, 1e-2, 1e-5, 1e-5, 1e-5, 1e-8, 1e-8, 1e-8):
        while True:
            x = random_point_in_e(rng, hi=0.85)
            l0 = criterion_max(x) / (1.0 - rel) * np.exp(2j * np.pi * rng.uniform())
            phi = solve_schwarz(l0, x) if abs(l0) < 0.999 else None
            if phi is not None and phi.variant == "mobius_blaschke":
                phis.append(phi)
                break
    return phis


def psd_sqrt(P):
    """Hermitian square root of a positive definite P, by LAPACK's eigh."""
    w, V = np.linalg.eigh(P)
    return (V * np.sqrt(w)) @ V.conj().T


def lift_by_definition(phi, lam):
    """M_{-Z}(beta(lam) Q0) diag(lam, 1) with Q0 = u v*/(lambda0 |u|^2) and
    beta(lam) = (lambda0 - lam)/(1 - conj(lambda0) lam), flipped back like
    the interpolant's own lift.  The matricial Moebius map is taken from its
    definition, M_{-Z}(X) = (1 - Z Z*)^{-1/2} (X + Z) (1 + Z* X)^{-1}
    (1 - Z* Z)^{1/2}, with LAPACK's inverse and square root."""
    l0, Z = phi.lambda0, phi.Z
    Q0 = np.outer(phi.u, phi.v.conj()) / (l0 * np.vdot(phi.u, phi.u).real)
    X = (l0 - lam) / (1.0 - l0.conjugate() * lam) * Q0
    I, Zs = np.eye(2), Z.conj().T
    F = (np.linalg.inv(psd_sqrt(I - Z @ Zs)) @ (X + Z) @ np.linalg.inv(I + Zs @ X)
         @ psd_sqrt(I - Zs @ Z) @ np.diag([lam, 1.0]))
    return F[::-1, ::-1].T if phi.flipped else F


def test_mobius_lift_matches_its_definition(rng):
    # Both forms lose about eps / sqrt(rel) near the feasibility boundary,
    # rel = margin / |lambda0|: against 40-digit arithmetic the definition
    # was 1.6e-12 off and the pencil 8.1e-13 at rel = 1e-8, and the two
    # differed by at most 0.58 eps / sqrt(rel) at every margin checked.
    checked = 0
    for _ in range(3):
        phis = [p for p in every_variant(rng) if p.u is not None]  # Moebius and sigma
        phis += mobius_targets(rng)
        for phi in phis:
            rel = schwarz_feasible(phi.lambda0, phi.x)[1] / abs(phi.lambda0)
            tol = 1e-12 + 1e-15 / math.sqrt(rel)
            lams = np.append(disc_points(rng, 40), phi.lambda0)
            F = phi.lift_evaluate(lams)
            for k, lam in enumerate(lams):
                ref = lift_by_definition(phi, complex(lam))
                assert np.max(np.abs(F[k] - ref)) <= tol * (1.0 + op_norm(ref))
                assert np.array_equal(F[k], phi.lift_evaluate(lam))
            checked += 1
    assert checked == 3 * (3 + 9)


def test_mobius_lift_at_lambda0_keeps_the_second_column_of_z(rng):
    # the pencil's constant term is Z itself and its s vanishes at lambda0,
    # so F(lambda0) = Z diag(lambda0, 1): the second column is Z's, bit for bit
    checked = 0
    for _ in range(3):
        phis = [p for p in every_variant(rng) if p.u is not None]  # Moebius and sigma
        for phi in phis + mobius_targets(rng):
            F = phi.lift_evaluate(phi.lambda0)
            if phi.flipped:
                F = F[::-1, ::-1].T
            assert F[:, 1].tobytes() == phi.Z[:, 1].tobytes()
            checked += 1
    assert checked == 3 * (3 + 9)


def test_schwarz_pick_along_every_lift(rng):
    # c_T(phi(l1), phi(l2)) is a lower bound for the Caratheodory distance
    # of E, which phi cannot increase: it is at most rho(l1, l2)
    for _ in range(2):
        for phi in every_variant(rng):
            for _ in range(8):
                l1, l2 = random_disc(rng, 0.99), random_disc(rng, 0.99)
                c = c_T(phi.evaluate(l1), phi.evaluate(l2))
                assert c <= pseudohyperbolic(l1, l2) + 1e-12, phi.variant
