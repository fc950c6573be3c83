"""Structured singular value (diagonal perturbations) and 2-point synthesis.

For the two-element diagonal perturbation structure, mu of a 2x2 matrix A
depends only on pi(A) = (a11, a22, det A): mu(A) < 1 exactly when pi(A)
lies in the tetrablock.  That reduction turns the robust-stabilisation
style interpolation problems here into tetrablock geometry:

* ``mu_diag`` computes mu by bisection on the membership criterion, in
  plain complex arithmetic (NumPy loads only in the functions below), with
  ``mu_scaling_oracle`` as an independent cross-check: the operator norm
  at the balancing diagonal scaling, in closed form, which equals mu for
  this 2-block structure (Packard & Doyle, Automatica 1993),
* ``synth_two_point`` solves the two-point problem F(0) of a fixed
  one-corner shape, F(lambda0) = A2, mu(F) <= 1 pointwise,
* ``synth_two_point_general`` decides the two-interior-point problem when
  the first target is triangular,
* ``lift_to_sigma`` turns any tetrablock-valued analytic map into a
  normalised matrix-valued one,
* ``bft_lower_bound`` evaluates the commutant-style diagonal-scaling
  infimum on the Szego-kernel span as a further numerical oracle.
"""
from __future__ import annotations

import math

from .autgroup import schwarz_pick_triangular
from .errors import BadShape, NumericalDegenerate, Outside, TooManyPoints
from .tetrablock import _read_cmat2, as_cpoint3, membership

_OFFDIAG_TOL = 1e-13
_PI_MAX = 1e150   # input bound of mu_diag (on pi(A)) and mu_scaling_oracle (on A)
MU_RTOL = 1e-9    # mu_diag's bisection stop, relative to the radius


def mu_diag(A) -> float:
    """Structured singular value of a 2x2 matrix for diagonal perturbations.

    mu(A) = 1 / inf{ ||X|| : X diagonal, 1 - AX singular }; equivalently
    the reciprocal of the largest r with (r a11, r a22, r^2 det A) still in
    the closed tetrablock, found by bisection to ``MU_RTOL`` relative to r
    (membership is monotone in r because the domain is starlike under this
    scaling).  As det(1 - AX) = 1 - a11 x1 - a22 x2 + det(A) x1 x2, mu is 0
    exactly when pi(A) = (0, 0, 0).  A is read once, as four complex numbers
    (by the reader as_cmat2 shares): BadShape for another shape or a non-finite
    entry, NumericalDegenerate where the bisection's squares overflow: pi(A)
    beyond 1e150 or mu(A) below 1e-150.
    """
    a11, a12, a21, a22 = _read_cmat2(A)
    x = a, b, p = a11, a22, a11 * a22 - a12 * a21
    try:  # abs raises OverflowError where finite parts have no finite modulus
        small = abs(a) < _PI_MAX and abs(b) < _PI_MAX and abs(p) < _PI_MAX
    except OverflowError:
        small = False
    if not small:
        raise NumericalDegenerate(f"pi(A) = {x} overflows: a modulus reaches 1e150")
    if not any(x):
        return 0.0

    def member(r: float) -> bool:
        return membership((r * a, r * b, r * r * p), closed=True).in_set

    lo, hi = 0.0, 1.0
    while member(hi):
        lo = hi
        hi *= 2.0
        if hi > _PI_MAX:
            raise NumericalDegenerate("mu(A) < 1e-150 overflows the bisection")
    while hi - lo > MU_RTOL * lo:
        mid = 0.5 * (lo + hi)
        if member(mid):
            lo = mid
        else:
            hi = mid
    return 2.0 / (lo + hi)


def mu_scaling_oracle(A) -> float:
    """Diagonal-scaling infimum inf_{d>0} ||diag(d,1) A diag(1/d,1)||.

    For the 2-block diagonal structure this equals mu (the scaling upper
    bound is tight), so it serves as an independent oracle for
    :func:`mu_diag`.  The squared norm is an increasing function of
    |a12|^2 d^2 + |a21|^2 / d^2 with the other invariants fixed, so the
    infimum is attained at d^2 = |a21| / |a12|, where both corners have
    modulus sqrt(|a12 a21|), and is the norm there.  A triangular A (a12 or
    a21 exactly 0) has no minimiser: the infimum max(|a11|, |a22|) is
    approached as d -> 0 or d -> inf, so it is returned in closed form.
    Raises NumericalDegenerate when an entry of A reaches 1e150, the bound
    below which no scaled norm overflows.
    """
    from .linalg import as_cmat2, op_norm
    M = as_cmat2(A)
    if not (abs(M) < _PI_MAX).all():
        raise NumericalDegenerate(f"an entry of A reaches 1e150: {abs(M).max():.3e}")
    if M[0, 1] == 0 or M[1, 0] == 0:
        return max(abs(complex(M[0, 0])), abs(complex(M[1, 1])))
    return op_norm(_dscale(M, (math.log(abs(M[1, 0])) - math.log(abs(M[0, 1]))) / 2.0))


def _dscale(T, s: float):
    """The diagonal scaling diag(e^s, 1) T diag(e^-s, 1)."""
    from .linalg import mat2
    d = math.exp(s)
    return mat2(T[0, 0], T[0, 1] * d, T[1, 0] / d, T[1, 1])


def _golden_section(f, lo, hi, tol: float) -> float:
    """Minimum of a unimodal f on [lo, hi] by golden-section search, which
    narrows the bracket below ``tol``.  The bracket shrinks by the same
    factor at every evaluation of f, so their number depends only on
    (hi - lo) / tol: 48 take [-18, 18] below 1e-8."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return min(fc, fd)


def _corners(M) -> tuple[bool, bool]:
    """Whether the upper and the lower off-diagonal corner of a 2x2 matrix
    are nonzero beyond ``_OFFDIAG_TOL``."""
    return abs(M[0, 1]) > _OFFDIAG_TOL, abs(M[1, 0]) > _OFFDIAG_TOL


def _corner_shape(M) -> tuple[str, complex]:
    """Classify the 2x2 array M (an instance's A1) as 'upper'/'lower'/'zero'
    one-corner shape; returns the corner scalar zeta."""
    if max(abs(M[0, 0]), abs(M[1, 1])) > _OFFDIAG_TOL:
        raise BadShape("A1 must have zero diagonal")
    up, low = _corners(M)
    if up and low:
        raise BadShape("A1 must have at most one nonzero corner")
    if up:
        return "upper", complex(M[0, 1])
    if low:
        return "lower", complex(M[1, 0])
    return "zero", 0.0 + 0.0j


class SynthesisInstance:
    """Two-point synthesis data: nodes 0 and lambda0, targets A1 (one-corner
    or zero shape, with corner scalar zeta read from A1) and A2
    (non-diagonal)."""

    def __init__(self, lambda0, A1, A2):
        from .interpolate import _check_lambda0
        from .linalg import as_cmat2
        self.lambda0 = _check_lambda0(lambda0)
        self.A1 = as_cmat2(A1)
        self.A2 = as_cmat2(A2)
        self.shape, self.zeta = _corner_shape(self.A1)
        if not any(_corners(self.A2)):
            raise BadShape(
                "diagonal A2 targets need tangential (derivative) conditions, "
                "which are out of scope here"
            )


def _scaled_lift(A2, l0: complex):
    def F(lam):
        return (complex(lam) / l0) * A2

    return F


def _conjugated_lift(phi, delta: complex, transpose: bool):
    """D G D^-1 for D = diag(delta, 1) and G the lift of phi, entry-wise:
    [[g11, delta g12], [g21/delta, g22]] (transposed when ``transpose``), each
    entry + 0j so that F(0)'s zeros are +0.0; within 1.23 eps relative of
    D G D^-1 at 50 digits, entry by entry (six seeds: 1.28 eps)."""
    from .linalg import mat2

    def F(lam):
        (g11, g12), (g21, g22) = phi.lift_evaluate(lam).tolist()
        G = mat2(g11 + 0j, delta * g12 + 0j, g21 / delta + 0j, g22 + 0j)
        return G.T if transpose else G

    return F


def _triangular_corner_lift(A2, l0: complex):
    a, b = A2[0, 0], A2[1, 1]

    def F(lam):
        lamc = complex(lam)
        out = A2.copy()
        out[0, 0] = lamc * a / l0
        out[1, 1] = lamc * b / l0
        return out

    return F


def synth_two_point(inst: SynthesisInstance):
    """Two-point mu-synthesis at the origin: find analytic F with F(0) of
    the A1 one-corner shape (corner value free), F(lambda0) = A2 and
    mu(F(lambda)) <= 1 on the disc.

    Feasibility: for a nonzero corner, the two-quotient criterion
    max-quotient(pi(A2)) <= |lambda0|; for the zero shape, membership of
    (a/lambda0, b/lambda0, p/lambda0^2) in the closed tetrablock.  Returns
    (feasible, F) with F a matrix-valued evaluator, or (feasible, None)
    when infeasible.
    """
    from .interpolate import schwarz_feasible, solve_schwarz
    from .linalg import pi_map
    l0 = inst.lambda0
    A2 = inst.A2
    x = pi_map(A2)
    if not membership(x).in_set:
        raise Outside("pi(A2) must lie in the open tetrablock")
    a, b, p = x
    c, d = complex(A2[0, 1]), complex(A2[1, 0])
    a2_upper, a2_lower = _corners(A2)

    if inst.shape == "zero":
        scaled = (a / l0, b / l0, p / (l0 * l0))
        feasible = membership(scaled, closed=True).in_set
        if not feasible:
            return False, None
        return True, _scaled_lift(A2, l0)

    if not schwarz_feasible(l0, x)[0]:
        return False, None

    upper = inst.shape == "upper"
    if a2_upper and a2_lower:
        phi = solve_schwarz(l0, x)
        w_at = phi.lift_evaluate(l0)[0, 1]
        if upper:
            return True, _conjugated_lift(phi, c / w_at, transpose=False)
        # transpose preserves pi and mu; the conjugation tunes the (1,0) entry
        return True, _conjugated_lift(phi, d / w_at, transpose=True)

    # triangular A2: one off-diagonal corner only
    if a2_upper == upper:
        # matching orientation: scale the diagonal, keep the corner constant
        return True, _triangular_corner_lift(A2, l0)
    # crossed orientation: the scaled line has F(0) = 0, a degenerate
    # instance of the required shape (the free corner entry is 0)
    return True, _scaled_lift(A2, l0)


def synth_two_point_general(lam1, lam2, A, B) -> bool:
    """Feasibility of the two-interior-point problem F(lam1) = A (triangular
    non-diagonal), F(lam2) = B (non-diagonal), mu(F) <= 1, via the explicit
    Schwarz-Pick criterion at the triangular base point pi(A)."""
    from .linalg import as_cmat2, pi_map
    Am = as_cmat2(A)
    Bm = as_cmat2(B)
    if all(_corners(Am)):
        raise BadShape("A must be triangular")
    if not any(_corners(Am)):
        raise BadShape("A must not be diagonal")
    if not any(_corners(Bm)):
        raise BadShape("B must not be diagonal")
    return schwarz_pick_triangular(lam1, lam2, pi_map(Am), pi_map(Bm)).feasible


def lift_to_sigma(phi):
    """Matrix lift F = [[phi1, phi1 phi2 - phi3], [1, phi2]] of a
    tetrablock-valued map: pi(F) = phi identically, and mu(F) <= 1 wherever
    phi lies in the closed tetrablock."""
    from .linalg import mat2
    evaluate = phi.evaluate if hasattr(phi, "evaluate") else phi

    def F(lam):
        x1, x2, x3 = as_cpoint3(evaluate(lam))
        return mat2(x1, x1 * x2 - x3, 1.0, x2)

    return F


def _bft_norm(Lh, Lh_inv, mats) -> float:
    """Norm of the compressed commutant operator with blocks mats[j] at the
    Szego-kernel span over the nodes, via the similarity by Lh = L*, L the
    Cholesky factor of the nodes' Gram matrix."""
    import numpy as np
    n = len(mats)
    B = np.zeros((2 * n, 2 * n), dtype=complex)
    for j, F in enumerate(mats):
        B[2 * j:2 * j + 2, 2 * j:2 * j + 2] = F.conj().T
    return float(np.linalg.norm(Lh @ B @ Lh_inv, 2))


def bft_lower_bound(points, targets) -> float:
    """Diagonal-scaling infimum of the commutant-operator norm for one or
    two interpolation nodes: inf over D_j = diag(d_j, 1), d_j > 0, of the
    norm of the operator sending k_{lambda_j} (x) xi to itself with block
    (D_j F_j D_j^{-1})* on the j-th kernel slot.

    For one node the 2x2 Gram factor is a scalar and cancels, so this is
    :func:`mu_scaling_oracle` of the target, which equals its mu_diag.  For
    two nodes it is a numerical infimum: a 41-point grid and golden-section
    search on log d_1, each of whose probes is a 48-evaluation
    golden-section search on log d_2, about 4000 norm evaluations in all.
    It is an upper bound on the true infimum, with no claim that the
    infimum is attained.
    """
    import numpy as np
    from .linalg import as_cmat2
    pts = [complex(z) for z in points]
    mats = [as_cmat2(T) for T in targets]
    if len(pts) != len(mats):
        raise BadShape("points and targets must have equal length")
    n = len(pts)
    if n == 0 or n > 2:
        raise TooManyPoints("only 1 or 2 interpolation nodes are supported")
    for z in pts:
        if not abs(z) < 1.0:  # written so that a NaN fails
            raise BadShape("nodes must lie in the open unit disc")
    if n == 2 and abs(pts[0] - pts[1]) < 1e-14:
        raise BadShape("nodes must be distinct")
    if all(float(np.max(np.abs(T))) == 0.0 for T in mats):
        return 0.0

    if n == 1:
        return mu_scaling_oracle(mats[0])

    # golden section on log d_1 between the grid points either side of the
    # best one, on log d_2 over [-18, 18]: the wide ranges let the
    # scaling of a triangular target shrink its corner to e^-18 of its size.
    grid = np.linspace(-6.0, 6.0, 41)
    # the Szego Gram matrix (kron I2) depends on the nodes only: built once
    S = np.array([[1.0 / (1.0 - w.conjugate() * z) for w in pts] for z in pts])
    Lh = np.linalg.cholesky(np.kron(S, np.eye(2))).conj().T
    Lh_inv = np.linalg.inv(Lh)

    def min_over_s2(s1: float) -> float:
        return _golden_section(
            lambda s2: _bft_norm(
                Lh, Lh_inv, [_dscale(mats[0], s1), _dscale(mats[1], s2)]
            ),
            -18.0, 18.0, 1e-8,
        )

    rows = [min_over_s2(s1) for s1 in grid]
    k = int(np.argmin(rows))
    lo = grid[k - 1] if k > 0 else -18.0
    hi = grid[k + 1] if k < len(grid) - 1 else 18.0
    refined = _golden_section(min_over_s2, lo, hi, 1e-8)
    return float(min(rows[k], refined))
