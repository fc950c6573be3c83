"""2x2 complex matrix kernel, the NumPy side.

The solvers work with 2x2 complex matrices: Schur-class values and matrix
representatives of tetrablock points.  This module keeps them in closed
form — the largest singular value and Hermitian eigenvalues from one formula,
:func:`tetra.tetrablock._sv2` for complex scalars and :func:`_sv2_np` for
NumPy arrays — so no general-purpose eigensolver sits on the hot path.  The
domain modules (``tetrablock``, ``autgroup``, ``metrics``) stay free of
NumPy; this is the first module that a computation with matrices loads.

A ``CMat2`` is simply a (2, 2) complex ``numpy`` array; ``CVec2`` a length-2
complex array.  Helpers below validate and coerce.  ``op_norm`` and
``pi_map`` also take an (n, 2, 2) stack, and give for each of its matrices
exactly what they give for that matrix alone.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import BadShape, NormTooLarge
from .tetrablock import _halves, _read_cmat2, _sv2

CMat2 = np.ndarray
CVec2 = np.ndarray


def mat2(a11, a12, a21, a22) -> CMat2:
    """Build a 2x2 complex matrix from its entries."""
    return np.array([[a11, a12], [a21, a22]], dtype=complex)


def as_cmat2(A, stack: bool = False) -> CMat2:
    """Coerce to a finite 2x2 complex array, validating shape and finiteness.

    With ``stack`` an (n, 2, 2) stack of such matrices is accepted as well.
    Anything but an ndarray is read by mu_diag's reader, ``_read_cmat2``, as
    one matrix or (with ``stack``) a list or tuple of them: BadShape if not.
    """
    if not isinstance(A, np.ndarray):
        try:
            return mat2(*_read_cmat2(A))
        except BadShape:
            if not (stack and isinstance(A, (list, tuple))):
                raise
        A = np.array([as_cmat2(m) for m in A])
    M = np.asarray(A, dtype=complex)
    if M.ndim not in ((2, 3) if stack else (2,)) or M.shape[-2:] != (2, 2):
        raise BadShape(f"expected a 2x2 matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise BadShape("matrix entries must be finite")
    return M


def _complex(re, im):
    """The complex array re + i im, signed zeros kept (a scalar for floats)."""
    if isinstance(re, float):
        return complex(re, im)
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def _cmul(a, b):
    """Complex product a * b, elementwise, rounded as Python's complex
    product rounds it: four real products and two sums.  NumPy's own array
    product can differ in the last bit; going through this keeps each of n
    stacked results bit-identical to the result for that element alone.
    Scalars take their own complex product."""
    if np.isscalar(a) and np.isscalar(b):
        return a * b
    return _complex(
        a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    )


def _cdiv(a, b):
    """Complex quotient a / b, elementwise, by Smith's algorithm in the
    operation order of Python's complex division (see :func:`_cmul`)."""
    if np.isscalar(a) and np.isscalar(b):
        return complex(a) / complex(b)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    by_real = np.abs(b.real) >= np.abs(b.imag)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = np.where(by_real, b.imag / b.real, b.real / b.imag)
        denom = np.where(by_real, b.real + b.imag * ratio, b.real * ratio + b.imag)
        return _complex(
            np.where(by_real, a.real + a.imag * ratio, a.real * ratio + a.imag) / denom,
            np.where(by_real, a.imag - a.real * ratio, a.imag * ratio - a.real) / denom,
        )


def _entries(M):
    """(m11, m12, m21, m22) of a 2x2 matrix as scalars, or of an (n, 2, 2)
    stack as four arrays."""
    return tuple(M.reshape(M.shape[:-2] + (4,)).T)


def _det(m11, m12, m21, m22):
    return _cmul(m11, m22) - _cmul(m12, m21)


def _sv2_np(a, b, c, d, det=None):
    """:func:`tetra.tetrablock._sv2` of NumPy complex scalars or arrays, each
    element exactly its scalar result (products rounded by :func:`_cmul`);
    within 2.5 eps relative on _sv2's pools, as np.abs rounds worse.  A
    caller that holds ``_det(a, b, c, d)`` already passes it as det."""
    if det is None:
        det = _det(a, b, c, d)
    r = np.abs(det)
    zero = r == 0
    s = r + zero
    phi = _complex(det.real / s + zero, det.imag / s)
    p, q = _halves(a, b, c, d, phi, _cmul, np.abs, np.hypot)
    return p + q


def _sv2_ranged(M, det=None):
    """:func:`_sv2_np` of a 2x2 matrix or of each matrix of a stack, det as
    there.  Where the largest singular value comes out non-finite or below
    2^-500 (det over- or underflowed), it is redone on A 2^-e, 2^e the power
    of two just above A's largest real or imaginary part, and scaled back;
    others are kept."""
    with np.errstate(over="ignore", invalid="ignore"):
        top = _sv2_np(*_entries(M), det)
        redo = ~((top >= 2.0 ** -500) & (top < math.inf))
        if M.ndim == 3:
            for i in np.flatnonzero(redo):
                top[i] = _sv2_ranged(M[i])
        elif redo:
            e = np.frexp(np.maximum(abs(M.real), abs(M.imag)).max())[1]
            return np.ldexp(_sv2_np(*_entries(M * np.ldexp(1.0, -e))), e)
    return top


def op_norm(A):
    """Largest singular value of a 2x2 matrix, or the array of them for an
    (n, 2, 2) stack: p + q of :func:`_sv2`, the norms of the two scaled
    unitaries that A splits into once det A is turned onto the positive axis.
    Accurate for every finite A, inf where the norm passes the largest float."""
    M = as_cmat2(A, stack=True)
    s = _sv2_ranged(M)
    return float(s) if M.ndim == 2 else s


def _require_contraction(Z, note: str = "") -> None:
    """Raise NormTooLarge unless op_norm(Z) < 1; a NaN norm fails too.
    Plain-complex :func:`_sv2`, within 6e-16 of op_norm on contractions,
    passes a Z whose norm it puts below 1 - 2^-48; op_norm, which also
    validates Z, decides every other case (and any overflow there)."""
    try:
        if _sv2(*Z.ravel().tolist()) < 1.0 - 2.0 ** -48:
            return
    except OverflowError:
        pass
    n = op_norm(Z)
    if not n < 1.0:
        raise NormTooLarge(f"op_norm(Z) = {n:.6f} >= 1{note}")


def _isqrt_times(p11: float, p12: complex, p22: float, det: float, x1, x2):
    """P^{-1/2} (x1, x2) for the positive definite P = [[p11, p12],
    [conj p12, p22]] of determinant det, in plain scalar arithmetic: with
    s = sqrt(det P) and t = sqrt(tr P + 2 s), R = P + s I = t P^{1/2}, so
    P^{-1/2} = t adj(R)/det R, det R taken from R's entries.  Within 2.71 eps
    sqrt(cond P) relative of 50 digits on P = A*A, 1 - Z*Z from _sv2's pool."""
    s = math.sqrt(max(det, 0.0))
    t = math.sqrt(max(p11 + p22 + 2.0 * s, 0.0))
    r11, r22 = p11 + s, p22 + s
    d = (r11 * r22 - _abs2(p12)) / t
    return (r22 * x1 - p12 * x2) / d, (r11 * x2 - p12.conjugate() * x1) / d


def _abs2(z: complex) -> float:
    """|z|^2 of a complex scalar, without the square root of abs."""
    return z.real * z.real + z.imag * z.imag


def _right_const(G, C):
    """G @ C for a 2x2 matrix or a stack G and a constant 2x2 C: the (2n, 2)
    stack of rows times C at once."""
    return (G.reshape(-1, 2) @ C).reshape(G.shape)


def pi_map(A) -> tuple:
    """The coordinate map A -> (a11, a22, det A) onto C^3; for an (n, 2, 2)
    stack, the three coordinate arrays.  det A is within 0.90 eps of |a11 a22|
    + |a12 a21| of 50 digits on _sv2's pool (six seeds: 1.07 eps)."""
    M = as_cmat2(A, stack=True)
    m11, m12, m21, m22 = _entries(M)
    with np.errstate(over="ignore", invalid="ignore"):
        x = (m11, m22, _det(m11, m12, m21, m22))
    if M.ndim == 2:
        return tuple(complex(c) for c in x)
    return x


def _herm2_spectrum(h11, h12, h21, h22):
    """Eigenvalues (ascending) of the Hermitian 2x2 [[h11, h12], [h21, h22]]:
    tr/2 -+ hypot((h11 - h22)/2, |h12|), the q of :func:`_sv2` at phi = 1."""
    h11, h12, h21, h22 = complex(h11), complex(h12), complex(h21), complex(h22)
    tr = h11.real + h22.real
    q = _halves(h11, h12, h21, h22, 1.0)[1]
    return tr / 2.0 - q, tr / 2.0 + q


def eigvals_herm2(H) -> tuple[float, float]:
    """Eigenvalues (ascending) of a 2x2 Hermitian matrix, closed form."""
    M = as_cmat2(H)
    return _herm2_spectrum(*_entries((M + M.conj().T) / 2.0))


def principal_sqrt(z) -> complex:
    """Principal branch square root of a complex scalar."""
    return cmath.sqrt(complex(z))
