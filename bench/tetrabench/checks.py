"""Independent reference computations for checking every op's result.

Nothing here calls ``tetra``.  Membership and ``mu`` come from the operator
norm of the balanced 2x2 representative ``[[a11, w], [w, a22]]`` computed
by batched numpy SVD; the two-quotient maximum behind the invariant
distance comes from sampling the slice map Psi on the unit circle; the
triangular-pair distance comes from the explicit two-term Schwarz-Pick
formula rather than the automorphism normalisation the library uses.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BAND = 1e-9        # |norm - 1| <= BAND: either membership verdict is accepted
CERT_TOL = 1e-9    # slack on |f| <= 1 and |g(x)| = 1 for certificates
MU_RTOL = 1e-6     # mu_diag bisects to 1e-9; the closed-mode margin adds a little
DIST_RTOL = 1e-6   # tanh(distance) against the sampled two-quotient maximum
FEAS_RTOL = 1e-6   # feasibility band around |lambda0|
RESIDUAL_TOL = 1e-8


def balanced_norm(a11, w2, a22):
    """Operator norm of ``[[a11, w], [w, a22]]`` with ``w**2 = w2``, batched."""
    a11 = np.asarray(a11, dtype=complex)
    w = np.sqrt(np.asarray(w2, dtype=complex))
    M = np.empty(a11.shape + (2, 2), dtype=complex)
    M[..., 0, 0] = a11
    M[..., 0, 1] = w
    M[..., 1, 0] = w
    M[..., 1, 1] = a22
    return np.linalg.svd(M, compute_uv=False)[..., 0]


def point_norm(points):
    """Balanced-representative norm of the pi-preimage of each point:
    below 1 inside the tetrablock, 1 on its boundary, above 1 outside."""
    P = np.asarray(points, dtype=complex).reshape(-1, 3)
    return balanced_norm(P[:, 0], P[:, 0] * P[:, 1] - P[:, 2], P[:, 1])


def mu_reference(mats):
    """mu of each 2x2 matrix for diagonal perturbations: the balanced
    representative with ``w**2 = a12*a21`` (D-scaling is exact here)."""
    A = np.asarray(mats, dtype=complex).reshape(-1, 2, 2)
    return balanced_norm(A[:, 0, 0], A[:, 0, 1] * A[:, 1, 0], A[:, 1, 1])


def verdict_ok(verdict, norm) -> bool:
    """A membership verdict (open or closed) against the reference norm."""
    if abs(norm - 1.0) <= BAND:
        return True
    return bool(verdict) == (norm < 1.0)


def close(value, ref, rtol) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + 1e-12


def _circle_sup(x1, x2, x3):
    """max over |z| = 1 of |(x3 z - x1) / (x2 z - 1)|: a 512-point grid,
    then four 32-fold zooms around the best sample (the modulus is unimodal
    on the circle), to about 1e-8 rad."""
    n, zooms = 512, 4
    x1, x2, x3 = (np.asarray(c, dtype=complex)[:, None] for c in (x1, x2, x3))
    rows = np.arange(x1.shape[0])

    def modulus(theta):
        z = np.exp(1j * theta)
        return np.abs(x3 * z - x1) / np.abs(x2 * z - 1.0)

    theta = np.broadcast_to(2.0 * np.pi * np.arange(n) / n, (x1.shape[0], n))
    width = 2.0 * np.pi / n
    offsets = np.linspace(-1.0, 1.0, 65)
    for _ in range(zooms + 1):
        vals = modulus(theta)
        k = np.argmax(vals, axis=1)
        best, centre = vals[rows, k], theta[rows, k]
        theta = centre[:, None] + width * offsets[None, :]
        width *= 2.0 / 64.0
    return best


def sampled_quotient(points):
    """max(D(x), D(x2, x1, x3)) for points with |x1|, |x2| < 1, where
    D(x) = sup over the disc of |Psi(z, x)| is read off the unit circle."""
    P = np.asarray(points, dtype=complex).reshape(-1, 3)
    chunk = 128   # keeps the (points, samples) arrays near 1 MB
    out = np.empty(P.shape[0])
    for s in range(0, P.shape[0], chunk):
        p = P[s:s + chunk]
        out[s:s + chunk] = np.maximum(
            _circle_sup(p[:, 0], p[:, 1], p[:, 2]),
            _circle_sup(p[:, 1], p[:, 0], p[:, 2]),
        )
    return out


def triangular_pair_quotient(xs, ys):
    """tanh of the distance between triangular x and y in E, from the
    explicit two-term Schwarz-Pick maximum."""
    X = np.asarray(xs, dtype=complex).reshape(-1, 3)
    Y = np.asarray(ys, dtype=complex).reshape(-1, 3)
    y1, y2, y3 = Y[:, 0], Y[:, 1], Y[:, 2]
    ay1, ay2, ay3 = np.abs(y1) ** 2, np.abs(y2) ** 2, np.abs(y3) ** 2
    dety = np.abs(y3 - y1 * y2)

    def term(a, u, v, au, av):
        num = (1.0 - np.abs(a) ** 2) * dety + np.abs(
            u - np.conj(v) * y3 - a * (1.0 + au - av - ay3)
            + a * a * (np.conj(u) - v * np.conj(y3))
        )
        den = np.abs(1.0 - np.conj(a) * u) ** 2 - np.abs(v - np.conj(a) * y3) ** 2
        return num / den

    return np.maximum(term(X[:, 0], y1, y2, ay1, ay2), term(X[:, 1], y2, y1, ay2, ay1))


def on_distinguished_boundary(x) -> bool:
    x1, x2, x3 = x
    return (
        abs(x1 - x2.conjugate() * x3) <= BAND
        and abs(abs(x3) - 1.0) <= BAND
        and abs(x2) <= 1.0 + BAND
    )


def pi_of(F):
    """(a11, a22, det) of a 2x2 matrix."""
    return (F[0, 0], F[1, 1], F[0, 0] * F[1, 1] - F[0, 1] * F[1, 0])


class CliChecker:
    """Exit code in {0, 1, 2} and a schema-valid JSON document on the stream
    that code implies (stdout for 0/2, stderr for 1), the other one empty."""

    def __init__(self, schema_dir):
        import jsonschema

        self._validators = {
            p.stem: jsonschema.Draft202012Validator(json.loads(p.read_text()))
            for p in Path(schema_dir).glob("*.json")
        }

    def document(self, command, code, out, err):
        """The parsed JSON document, or None when the contract is broken."""
        if code not in (0, 1, 2):
            return None
        text, other, schema = (err, out, "error") if code == 1 else (out, err, command)
        if other or schema not in self._validators:
            return None
        try:
            doc = json.loads(text)
        except ValueError:
            return None
        if not self._validators[schema].is_valid(doc):
            return None
        return doc
