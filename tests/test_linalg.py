import warnings

import numpy as np
import pytest

from tetra.errors import BadShape, NormTooLarge, PositiveDefinite
from tetra.interpolate import _big_m, _choose_alpha, _defects, _uv_cores, big_m
from tetra.linalg import (
    _abs2,
    _cdiv,
    _cmul,
    _isqrt_times,
    _require_contraction,
    _sv2_np,
    as_cmat2,
    eigvals_herm2,
    mat2,
    op_norm,
    pi_map,
    principal_sqrt,
)
from tetra.tetrablock import _sv2

from conftest import random_unitary


def random_mat(rng, scale=1.0):
    return scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))


def random_herm(rng):
    A = random_mat(rng)
    return (A + A.conj().T) / 2.0


def test_op_norm_matches_numpy(rng):
    for _ in range(500):
        A = random_mat(rng, rng.uniform(0.1, 3.0))
        assert op_norm(A) == pytest.approx(np.linalg.norm(A, 2), abs=1e-10)


def test_spectral_kernel_is_accurate_near_repeated_values():
    # LAPACK's values to 8 eps times the largest singular value, where a
    # trace/determinant radicand loses half the digits: scaled unitaries,
    # unitaries plus 1e-7 noise, near-scalar Hermitian matrices cI + 1e-9 H
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for i in range(1200):
        if i % 3 == 0:
            A = random_unitary(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        elif i % 3 == 1:
            A = random_unitary(rng) + 1e-7 * random_mat(rng)
        else:
            A = rng.uniform(-2.0, 2.0) * np.eye(2) + 1e-9 * random_herm(rng)
        s = np.linalg.svd(A, compute_uv=False)
        tol = 8.0 * eps * s[0]
        assert abs(op_norm(A) - s[0]) <= tol, A
        if i % 3 == 2:
            err = np.subtract(eigvals_herm2(A), np.linalg.eigvalsh(A))
            assert np.abs(err).max() <= tol, A


def test_op_norm_known_values():
    assert op_norm(np.eye(2)) == pytest.approx(1.0, abs=1e-14)
    assert op_norm(mat2(0, 2, 0, 0)) == pytest.approx(2.0, abs=1e-14)
    # rank-one [[1,1],[1,1]] has norm 2
    assert op_norm(np.ones((2, 2))) == pytest.approx(2.0, abs=1e-14)


def test_as_cmat2_rejects_bad_shape():
    with pytest.raises(BadShape):
        as_cmat2(np.zeros((3, 3)))
    with pytest.raises(BadShape):
        as_cmat2([1.0, 2.0])


def test_eigvals_herm2_sorted(rng):
    for _ in range(200):
        H = random_herm(rng)
        lo, hi = eigvals_herm2(H)
        ref = np.linalg.eigvalsh(H)
        assert lo == pytest.approx(ref[0], abs=1e-10)
        assert hi == pytest.approx(ref[1], abs=1e-10)


def test_pi_map():
    A = mat2(1 + 2j, 3, 4, 5j)
    x = pi_map(A)
    assert x[0] == 1 + 2j and x[1] == 5j
    assert x[2] == pytest.approx((1 + 2j) * 5j - 12, abs=1e-14)


def test_principal_sqrt():
    assert principal_sqrt(4.0) == pytest.approx(2.0)
    r = principal_sqrt(-1.0)
    assert r == pytest.approx(1j)
    # principal branch has nonnegative real part
    for z in (3 + 4j, -3 + 4j, -3 - 4j, 3 - 4j):
        assert principal_sqrt(z).real >= 0
        assert principal_sqrt(z) ** 2 == pytest.approx(z, abs=1e-12)


def same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def test_complex_kernels_round_like_python(rng):
    # the array paths reproduce Python's complex arithmetic bit for bit,
    # signed zeros included, which keeps stacked and single results equal
    n = 4000
    a = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-3, 3, n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b[::7] = b[::7].real
    b[1::7] = 1j * b[1::7].imag
    a[2::7] = complex(0.0, -0.0)
    assert same_bits(_cmul(a, b), [complex(p) * complex(q) for p, q in zip(a, b)])
    assert same_bits(_cdiv(a, b), [complex(p) / complex(q) for p, q in zip(a, b)])


def test_kernels_on_stacks_match_single_matrices(rng):
    A = np.array([random_mat(rng, rng.uniform(0.1, 3.0)) for _ in range(300)])
    assert same_bits(op_norm(A), [op_norm(M) for M in A])
    x = pi_map(A)
    assert all(same_bits(c, [pi_map(M)[k] for M in A]) for k, c in enumerate(x))
    assert isinstance(op_norm(A[0]), float)
    with pytest.raises(BadShape):
        op_norm(np.zeros((2, 2, 2, 2)))
    with pytest.raises(BadShape):
        as_cmat2(A)


def test_op_norm_stacks_match_single_matrices_on_every_branch(rng):
    # det = 0 takes the phase 1: the zero matrix, rank-one matrices (a zero
    # row or column, or one row twice the other) and diag(x, 0); det != 0 on
    # scaled unitaries
    mats = [np.zeros((2, 2), dtype=complex)]
    for _ in range(100):
        u, v = random_mat(rng)
        mats += [
            np.array([u, [0, 0]]), np.array([u, v]).T * [1, 0],
            np.array([u, 2.0 * u]), np.outer(u, v), np.diag([u[0], 0]),
            random_unitary(rng) * 10.0 ** rng.uniform(-3.0, 3.0),
        ]
    A = np.array(mats)
    assert np.count_nonzero(pi_map(A)[2] == 0) > 400
    assert same_bits(op_norm(A), [op_norm(M) for M in A])


@pytest.mark.parametrize("A, scale", [
    (np.full((2, 2), 1e200), 2.0 ** -665),
    (np.diag([1e-200, 1e-200]), 2.0 ** 664),
], ids=["det-overflows", "det-underflows"])
def test_singular_values_hold_over_the_float_range(A, scale):
    # against LAPACK on the matrix scaled into range, with no warning,
    # for a lone matrix and inside a stack of ordinary ones
    expect = np.linalg.svd(A * scale, compute_uv=False) / scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = op_norm(A)
        stack = op_norm(np.array([np.eye(2), A, 0.5 * np.eye(2)]))
    assert top == pytest.approx(expect[0], rel=1e-15)
    assert list(stack) == [1.0, top, 0.5]


@pytest.mark.parametrize("A", [
    np.full((2, 2), 1e200), np.array([[1e200, 1.0], [0.0, 1e200]]),
], ids=["det-invalid", "det-overflows"])
def test_pi_map_lets_an_overflowing_determinant_through_without_a_warning(A):
    # the coordinates come back non-finite, for a lone matrix and inside a
    # stack, and the caller's finiteness check decides; no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = pi_map(A)
        stack = pi_map(np.array([np.eye(2), A]))
    assert x[:2] == (1e200, 1e200) and not np.isfinite(x[2])
    assert all(same_bits(c, [1.0, x[k]]) for k, c in enumerate(stack))


def test_contraction_checks_reject_an_overflowing_norm():
    # op_norm was NaN here, which passed the check and failed later with
    # a misleading BadShape
    with pytest.raises(NormTooLarge):
        big_m(np.full((2, 2), 1e200), 0.5)
    # a det with finite parts, 1.44e308 (1 + i), and no finite modulus: the
    # plain-complex _sv2 raises OverflowError, and op_norm gives the verdict
    with pytest.raises(NormTooLarge):
        big_m(mat2(1.2e154 * (1 + 1j), 0, 0, 1.2e154), 0.5)


def test_contraction_check_gives_op_norms_verdict(rng):
    # the check tries plain-complex _sv2 first and leaves all but a clear
    # pass to op_norm: one verdict within a few ulps of norm 1 and at the
    # fast path's 1 - 2^-48 edge, and the same errors for overflowing or
    # non-finite entries
    for _ in range(3000):
        A = random_mat(rng)
        edge = 1.0 - 2.0 ** -48 if rng.uniform() < 0.5 else 1.0
        A *= (edge + rng.integers(-8, 9) * 2.0 ** -53) / op_norm(A)
        try:
            _require_contraction(A)
            passed = True
        except NormTooLarge:
            passed = False
        assert passed == (op_norm(A) < 1.0)
    with pytest.raises(NormTooLarge):
        _require_contraction(mat2(1e308 + 1e308j, 0, 0, 0))  # abs overflows
    for bad in (np.nan, np.inf):
        with pytest.raises(BadShape):
            _require_contraction(mat2(bad, 0, 0, 0))
    _require_contraction(mat2(1e-300, 1e-300j, 0, 1e-310))


def accuracy_pool():
    """The 2000 seeded matrices of the 50-digit tests: Gaussian and scaled
    unitary matrices at scales 1e-3 to 1e3, and a third 1e-12 to 1e-3 from a
    unitary."""
    rng = np.random.default_rng(2)
    mats = []
    for i in range(2000):
        if i % 3 == 0:
            A = random_mat(rng, 10.0 ** rng.uniform(-3.0, 3.0))
        elif i % 3 == 1:
            G = random_mat(rng)
            A = random_unitary(rng) + 10.0 ** rng.uniform(-12.0, -3.0) * G / op_norm(G)
        else:
            A = random_unitary(rng) * 10.0 ** rng.uniform(-3.0, 3.0)
        mats.append(A)
    return np.array(mats)


def test_sv2_flavours_are_within_their_bounds_of_50_digit_arithmetic():
    # the forward rounding error of each flavour against the largest
    # singular value evaluated at 50 digits on the same double inputs:
    # Gaussian and scaled unitary matrices at scales 1e-3 to 1e3, and a
    # third 1e-12 to 1e-3 from a unitary.  The bounds are the worst errors
    # measured on this pool, 1.594 eps for the complex _sv2 and 1.711 eps
    # for _sv2_np (six seeds gave up to 1.77 and 2.45 eps; np.abs rounds a
    # complex modulus worse than abs does).  A kernel past its bound is a
    # finding, not a reason for a looser bound.
    mpmath = pytest.importorskip("mpmath")
    mats = accuracy_pool()
    eps = np.finfo(float).eps
    worst = {"complex": 0.0, "numpy": 0.0}
    with mpmath.workdps(50):
        for A in mats:
            a, b, c, d = (mpmath.mpc(z) for z in A.ravel().tolist())
            fro = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
            det2 = abs(a * d - b * c) ** 2
            ref = mpmath.sqrt((fro + mpmath.sqrt(fro * fro - 4 * det2)) / 2)
            for flavour, s in (("complex", _sv2(*A.ravel().tolist())),
                               ("numpy", _sv2_np(*A.reshape(4)))):
                worst[flavour] = max(worst[flavour], float(abs(s - ref) / ref) / eps)
    assert worst["complex"] <= 1.60 and worst["numpy"] <= 1.72, worst
    # the NumPy flavour gives a stack the same bits as each matrix alone
    single = [_sv2_np(*A.reshape(4)) for A in mats]
    assert same_bits(_sv2_np(*mats.reshape(-1, 4).T), single)


def test_pi_map_is_within_its_bound_of_50_digit_arithmetic():
    # a11 and a22 are copied; det A = a11 a22 - a12 a21, against 50 digits on
    # the same double entries, has absolute error within 0.897 eps of
    # |a11 a22| + |a12 a21| on the 50-digit pool, for each matrix alone and
    # on the stack, which gives the same bits (six seeds: 1.073 eps)
    mpmath = pytest.importorskip("mpmath")
    mats = accuracy_pool()
    stacked = pi_map(mats)
    eps = np.finfo(float).eps
    worst = {"scalar": 0.0, "stacked": 0.0}
    with mpmath.workdps(50):
        for i, A in enumerate(mats):
            a, b, c, d = A.ravel().tolist()
            x = pi_map(A)
            assert x[:2] == (a, d) and (stacked[0][i], stacked[1][i]) == (a, d)
            a, b, c, d = (mpmath.mpc(z) for z in (a, b, c, d))
            ref, scale = a * d - b * c, abs(a * d) + abs(b * c)
            for flavour, det in (("scalar", x[2]), ("stacked", complex(stacked[2][i]))):
                worst[flavour] = max(worst[flavour], float(abs(det - ref) / scale) / eps)
    assert worst["scalar"] <= 0.90 and worst["stacked"] <= 0.90, worst


def test_isqrt_times_is_within_its_bound_of_50_digit_arithmetic():
    # P^{-1/2} x against the same expression at 50 digits on the same double
    # inputs, for P = A*A with x = A's first row, and for the defect
    # P = 1 - Z*Z of Z = A / (op_norm(A) (1 + 10^-u)), u in 1..6, as
    # interpolate._defects forms it (cond P up to 4.7e5): the relative error
    # in the 2-norm is within 2.706 eps times sqrt(cond P) on the 50-digit
    # pool (six seeds: 2.706); unscaled it reaches 121.5 eps
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    cases = []
    for i, A in enumerate(accuracy_pool()):
        a, b, c, d = A.ravel().tolist()
        p11, p22 = _abs2(a) + _abs2(c), _abs2(b) + _abs2(d)
        p12 = a.conjugate() * b + c.conjugate() * d
        cases.append((p11, p12, p22, p11 * p22 - _abs2(p12), a, b))
        Z = A / (op_norm(A) * (1.0 + 10.0 ** -(1.0 + 5.0 * (i * 0.618 % 1.0))))
        cases.append((*_defects(Z.ravel().tolist())[0], a / abs(a), b))
    worst = 0.0
    with mpmath.workdps(50):
        for args in cases:
            if not args[3] > 0.0:
                continue  # rounding left P singular
            v1, v2 = _isqrt_times(*args)
            p11, p12, p22, det, x1, x2 = (mpmath.mpmathify(t) for t in args)
            s = mpmath.sqrt(det)
            t = mpmath.sqrt(p11 + p22 + 2 * s)
            r11, r22 = p11 + s, p22 + s
            dd = (r11 * r22 - abs(p12) ** 2) / t
            ref1, ref2 = (r22 * x1 - p12 * x2) / dd, (r11 * x2 - mpmath.conj(p12) * x1) / dd
            top = ((p11 + p22) + mpmath.sqrt((p11 - p22) ** 2 + 4 * abs(p12) ** 2)) / 2
            err = mpmath.sqrt((abs(v1 - ref1) ** 2 + abs(v2 - ref2) ** 2)
                              / (abs(ref1) ** 2 + abs(ref2) ** 2))
            worst = max(worst, float(err / eps / (top / mpmath.sqrt(det))))
    assert worst <= 2.71, worst


def _exact_defects(mp, z):
    """Y = 1 - Z*Z and W = 1 - ZZ* of Z's entries z at mpmath precision."""
    z11, z12, z21, z22 = z
    y12 = -(mp.conj(z11) * z12 + mp.conj(z21) * z22)
    w12 = -(z11 * mp.conj(z21) + z12 * mp.conj(z22))
    Y = mp.matrix([[1 - abs(z11) ** 2 - abs(z21) ** 2, y12],
                   [mp.conj(y12), 1 - abs(z12) ** 2 - abs(z22) ** 2]])
    W = mp.matrix([[1 - abs(z11) ** 2 - abs(z12) ** 2, w12],
                   [mp.conj(w12), 1 - abs(z21) ** 2 - abs(z22) ** 2]])
    return Y, W


def _inverse(mp, P):
    """The inverse of a 2x2 mpmath matrix: its adjugate over its determinant."""
    return mp.matrix([[P[1, 1], -P[0, 1]], [-P[1, 0], P[0, 0]]]) / (
        P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0])


def _spectrum(mp, P):
    """(least, largest) eigenvalue of a Hermitian 2x2 mpmath matrix."""
    tr, det = P[0, 0].real + P[1, 1].real, (P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0]).real
    disc = mp.sqrt(max(tr * tr - 4 * det, 0))
    return (tr - disc) / 2, (tr + disc) / 2


def _isqrt_exact(mp, P, x1, x2):
    """P^{-1/2} (x1, x2) at mpmath precision: _isqrt_times' closed form,
    exact in exact arithmetic."""
    p11, p12, p22 = P[0, 0].real, P[0, 1], P[1, 1].real
    s = mp.sqrt(p11 * p22 - abs(p12) ** 2)
    t = mp.sqrt(p11 + p22 + 2 * s)
    r11, r22 = p11 + s, p22 + s
    d = (r11 * r22 - abs(p12) ** 2) / t
    return (r22 * x1 - p12 * x2) / d, (r11 * x2 - mp.conj(p12) * x1) / d


def interpolation_kernel_errors(mp, mats):
    """The worst errors, in eps, of interpolate's scalar kernels against
    mpmath at its working precision, on Z = A / (op_norm(A) (1 + 10^-u)) for
    the i-th matrix A, u = 1 + i mod 6, and rho = 0.3, 0.6, 0.9 or 0.99 in
    turn.  Forward errors evaluate the same expression on the same double
    inputs; the definitions take Y, W, their inverses and inverse square
    roots exactly from Z, where the error scales with ||Y^-1|| = ||W^-1|| =
    1 / (1 - ||Z||^2).  Returns the worst of each and the number of alphas."""
    eps = np.finfo(float).eps
    worst = dict.fromkeys(["defects", "big_m", "big_m_def", "alpha", "alpha_res",
                           "cores", "uv", "uv_def"], 0.0)
    alphas = 0

    def norm(v):
        return mp.sqrt(sum(abs(t) ** 2 for t in v))

    def rel(got, ref):
        return norm([a - b for a, b in zip(got, ref)]) / norm(ref)

    for i, A in enumerate(mats):
        Z = A / (op_norm(A) * (1.0 + 10.0 ** -(1 + i % 6)))
        z = Z.ravel().tolist()
        Yd, Wd = _defects(z)
        zm = [mp.mpc(c) for c in z]
        Y, W = _exact_defects(mp, zm)
        (ylo, yhi), (wlo, whi) = _spectrum(mp, Y), _spectrum(mp, W)
        exact = [Y[0, 0].real, Y[0, 1], Y[1, 1].real, ylo * yhi,
                 W[0, 0].real, W[0, 1], W[1, 1].real, wlo * whi]
        worst["defects"] = max(worst["defects"], max(
            float(abs(a - b)) for a, b in zip(Yd + Wd, exact)) / eps)
        inv = 1 / min(ylo, wlo)

        rho = (0.3, 0.6, 0.9, 0.99)[i % 4]
        m = _big_m(z, Yd, Wd, rho)
        r2 = mp.mpf(rho) ** 2
        c = 1 - r2
        (y11, y12, y22, dy), (w11, w12, w22, dw) = Yd, Wd
        same = (c * y22 / dy + r2, c * (w11 * mp.conj(zm[2]) - w12 * mp.conj(zm[0])) / dw,
                c * w11 / dw - 1)
        worst["big_m"] = max(worst["big_m"], float(max(
            abs(a - b) for a, b in zip(m, same)) / max(map(abs, same))) / eps)
        Zm = mp.matrix([[zm[0], zm[1]], [zm[2], zm[3]]])
        Zs = Zm.H
        I2 = mp.eye(2)
        Yi, Wi = _inverse(mp, Y), _inverse(mp, W)
        display = (((I2 - r2 * Zs * Zm) * Yi)[0, 0].real, (c * Zs * Wi)[0, 1],
                   ((Zm * Zs - r2 * I2) * Wi)[1, 1].real)
        worst["big_m_def"] = max(worst["big_m_def"], float(max(
            abs(a - b) for a, b in zip(m, display)) / max(map(abs, display)) / inv) / eps)

        try:
            a1, a2 = _choose_alpha(*m)
        except PositiveDefinite:
            continue
        alphas += 1
        h11, h12, h22 = mp.mpf(m[0]), mp.mpc(m[1]), mp.mpf(m[2])
        q = mp.sqrt(((h11 - h22) / 2) ** 2 + abs(h12) ** 2)
        lam = (h11 + h22) / 2 - q
        n1, n2 = norm([h12, lam - h11]), norm([lam - h22, h12])
        ref = (h12 / n1, (lam - h11) / n1) if n1 >= n2 else ((lam - h22) / n2, mp.conj(h12) / n2)
        lead = ref[0] if abs(ref[0]) > 1e-12 else ref[1]
        ref = [r * mp.conj(lead) / abs(lead) for r in ref]
        size = abs(h11) + abs(h22) + 2 * abs(h12)  # at least ||H||
        worst["alpha"] = max(worst["alpha"], float(rel((a1, a2), ref) * 2 * q / size) / eps)
        residual = norm([h11 * a1 + h12 * a2 - lam * a1, mp.conj(h12) * a1 + h22 * a2 - lam * a2])
        worst["alpha_res"] = max(worst["alpha_res"], float(residual / size) / eps)

        cores, u, v = _uv_cores(z, Yd, Wd, a1, a2)
        A1, A2 = mp.mpc(a1), mp.mpc(a2)
        g1, g2, k1, k2 = ref = (A1 * zm[0], A1 * zm[2] + A2, A1 + A2 * mp.conj(zm[2]),
                                A2 * mp.conj(zm[3]))
        worst["cores"] = max(worst["cores"], float(rel(cores, ref)) / eps)
        Ydm = mp.matrix([[y11, y12], [mp.conj(y12), y22]])
        Wdm = mp.matrix([[w11, w12], [mp.conj(w12), w22]])
        cond = max(s[1] / s[0] for s in (_spectrum(mp, Ydm), _spectrum(mp, Wdm)))
        vs = _isqrt_exact(mp, Ydm, k1, k2)
        same = (*_isqrt_exact(mp, Wdm, g1, g2), -vs[0], -vs[1])
        worst["uv"] = max(worst["uv"], float(rel(u + v, same) / mp.sqrt(cond)) / eps)
        vd = _isqrt_exact(mp, Y, k1, k2)
        defined = (*_isqrt_exact(mp, W, g1, g2), -vd[0], -vd[1])
        worst["uv_def"] = max(worst["uv_def"], float(rel(u + v, defined) / inv) / eps)
    return worst, alphas


def test_interpolation_kernels_are_within_their_bounds_of_50_digit_arithmetic():
    # interpolate._defects, _big_m, _choose_alpha and _uv_cores against 50
    # digits on the 50-digit pool scaled to contractions 1e-1 to 1e-6 from
    # the unit sphere (see interpolation_kernel_errors).  The bounds are
    # the worst errors measured on this pool (479 alphas); six seeds gave up
    # to the figures in each kernel's docstring.  A kernel past its bound is
    # a finding, not a reason for a looser bound.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        worst, alphas = interpolation_kernel_errors(mpmath, accuracy_pool())
    assert alphas >= 450, alphas
    bounds = {"defects": 0.92, "big_m": 3.62, "big_m_def": 0.92, "alpha": 0.83,
              "alpha_res": 0.38, "cores": 1.03, "uv": 5.45, "uv_def": 0.37}
    assert all(worst[k] <= bound for k, bound in bounds.items()), worst
