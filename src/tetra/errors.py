"""Typed errors raised across the package.

Every failure mode that callers are expected to handle gets its own class so
that library users (and the CLI) can branch on the type instead of parsing
messages.  All of them derive from :class:`TetraError`.
"""


class TetraError(Exception):
    """Base class for all package errors."""


# --- linear algebra kernel ---------------------------------------------------

class NormTooLarge(TetraError):
    """An operator-norm precondition (typically ``< 1``) was violated."""


class BadShape(TetraError):
    """A matrix argument does not have the required shape or sparsity pattern."""


# --- tetrablock domain -------------------------------------------------------

class NonFinite(TetraError, ValueError):
    """A point coordinate is NaN or infinite."""


class PoleAtZ(TetraError):
    """The linear-fractional map was evaluated at its pole."""


class OnTorus(TetraError):
    """|x3| >= 1 where the parametrisation requires |x3| < 1."""


class BadBeta(TetraError):
    """The analytic-disc parameters violate |beta1| + |beta2| < 1."""


class NotReal(TetraError):
    """A real triple was required but an imaginary part is nonzero."""


class NotPeak(TetraError):
    """The point is not on the distinguished boundary, so no peak function."""


class InsideClosure(TetraError):
    """A separating certificate was requested for a point of the closure."""


class Outside(TetraError):
    """The point lies outside the (closed) tetrablock where it must not."""


class NotTriangular(TetraError):
    """A triangular point (x1*x2 == x3) was required."""


# --- metrics -----------------------------------------------------------------

class OutsideDisc(TetraError):
    """A unit-disc argument has modulus >= 1."""


class Unsupported(TetraError):
    """The requested quantity has no formula implemented here (and none is
    claimed to exist in general)."""


# --- interpolation -----------------------------------------------------------

class BadLambda(TetraError):
    """The interpolation node must satisfy 0 < |lambda0| < 1."""


class ZeroAlpha(TetraError):
    """The direction vector alpha must be nonzero."""


class PositiveDefinite(TetraError):
    """The Hermitian form is positive definite; no admissible alpha exists."""


class Infeasible(TetraError):
    """The interpolation data fails the solvability criterion."""


class InfeasiblePick(TetraError):
    """The scalar two-point Pick problem is infeasible (d(v1,v2) > d(l1,l2))."""


class NumericalDegenerate(TetraError):
    """An internal quantity that theory guarantees nonzero collapsed numerically."""


class Extremal(TetraError):
    """The data sits exactly on the solvability boundary; the one-parameter
    family degenerates there."""


class Triangular(TetraError):
    """The target is triangular; the non-triangular machinery does not apply."""


class SigmaOutOfRange(TetraError):
    """sigma**2 lies outside the admissible open interval (xi1, xi2)."""


class BadPayload(TetraError, ValueError):
    """A stored interpolant payload is not a JSON object with a known
    variant and well-formed lambda0, x (and sigma, t, Z where read)."""


class BadSamples(TetraError, ValueError):
    """A sampled audit was asked for fewer than one sample, or a grid oracle
    for fewer than two grid points."""


class BadTolerance(TetraError, ValueError):
    """An audit or distinguished-boundary tolerance is NaN, infinite or
    negative."""


# --- automorphisms -----------------------------------------------------------

class Pole(TetraError):
    """The diamond composition hit its pole (1 - x2*y1 == 0)."""


class NotUnimodular(TetraError, ValueError):
    """A disc automorphism's rotation omega does not have modulus 1."""


# --- mu-synthesis ------------------------------------------------------------

class TooManyPoints(TetraError):
    """Only one- and two-point problems are supported."""
