import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tetra.errors import (
    BadLambda,
    BadShape,
    Extremal,
    Infeasible,
    InfeasiblePick,
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
from tetra.linalg import eigvals_herm2, mat2, mobius_matricial, op_norm, pi_map
from tetra.metrics import pseudohyperbolic
from tetra.cli import run
from tetra.musyn import SynthesisInstance, mu_diag, synth_two_point
from tetra.tetrablock import construct_matrix_rep, criterion_max, membership

from conftest import random_disc, random_feasible_instance, random_point_in_e
from test_distance_oracle import c_T

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


def test_uv_vectors_guards():
    Z = mat2(0.5, 0, 0, 0.5)
    with pytest.raises(ZeroAlpha):
        uv_vectors(Z, [0.0, 0.0])
    with pytest.raises(NormTooLarge):
        uv_vectors(mat2(1.5, 0, 0, 0), [1.0, 0.0])


def test_uv_vectors_needs_two_entries():
    Z = mat2(0.5, 0, 0, 0.5)
    for alpha in ([1.0], [1.0, 0.0, 0.0], []):
        with pytest.raises(BadShape):
            uv_vectors(Z, alpha)


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
    with pytest.raises(SigmaOutOfRange):
        solve_with_sigma(0.9, GOLD_X, -1.0)
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
    lams = disc_points(rng, 40)
    for _ in range(3):
        for phi in every_variant(rng):
            F = phi.lift_evaluate(lams)
            x = phi.evaluate(lams)
            assert F.shape == (lams.size, 2, 2)
            for k, lam in enumerate(lams):
                Fk = phi.lift_evaluate(lam)
                assert Fk.shape == (2, 2)
                assert np.max(np.abs(F[k] - Fk)) <= 1e-15
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


def audit_oracle(phi, samples=500, seed=0, tol=1e-9):
    """The per-sample audit: for each sample point one lift, one value, one
    closed membership report and one operator norm."""
    rng = np.random.default_rng(seed)
    n = int(samples)
    angles = rng.uniform(0.0, 2.0 * math.pi, n)
    radii = np.empty(n)
    half = n // 2
    radii[:half] = np.sqrt(rng.uniform(0.0, 1.0, half))
    radii[half:] = 1.0 - 10.0 ** rng.uniform(-4.0, -1.0, n - half)
    lams = radii * np.exp(1j * angles)

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


def lift_by_definition(phi, lam):
    """M_{-Z}(beta(lam) Q0) diag(lam, 1) with Q0 = u v*/(lambda0 |u|^2) and
    beta(lam) = (lambda0 - lam)/(1 - conj(lambda0) lam), flipped back like
    the interpolant's own lift."""
    l0 = phi.lambda0
    Q0 = np.outer(phi.u, phi.v.conj()) / (l0 * np.vdot(phi.u, phi.u).real)
    beta = (l0 - lam) / (1.0 - l0.conjugate() * lam)
    F = mobius_matricial(-phi.Z, beta * Q0) @ np.diag([lam, 1.0])
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


def test_schwarz_pick_along_every_lift(rng):
    # c_T(phi(l1), phi(l2)) is a lower bound for the Caratheodory distance
    # of E, which phi cannot increase: it is at most rho(l1, l2)
    for _ in range(2):
        for phi in every_variant(rng):
            for _ in range(8):
                l1, l2 = random_disc(rng, 0.99), random_disc(rng, 0.99)
                c = c_T(phi.evaluate(l1), phi.evaluate(l2))
                assert c <= pseudohyperbolic(l1, l2) + 1e-12, phi.variant
