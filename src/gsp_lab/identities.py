"""Integral identities linking the profile, its elasticity, and the moments.

Write g(s) = f(a s)/f(a) for the scale-free profile and E for the
elasticity.  Integrating g E, s g E, and g**2 E against ds over (0, 1]
collapses, after integrating by parts, to expressions in the normalized
moments alone:

    int g E ds      = 1 - A
    int s g E ds    = 1 - 2 B
    int g**2 E ds   = (1 - C) / 2

Differentiating the normalized moments in the scale gives first-order
identities (E(a) below is the elasticity at the endpoint):

    A' = (1 - (1 + E(a)) A) / a
    B' = (1 - (2 + E(a)) B) / a
    C' = (1 - (1 + 2 E(a)) C) / a

and theta' follows from the quotient rule.  Finally, with the quadratic
weight w(s) = (s - theta)^2 g(s) and D = int w ds:

    int w E(a s) ds / D  =  E(a theta)        (weighted-mean identity)
    int w (E(a s) - E(a theta))^2 ds  >=  0   (variance functional)

hold with equality to zero of the variance exactly on power laws; for any
other admissible spec the variance is strictly positive at some scale.
All residuals below are reported so that "zero" means the identity holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeight, NegativeVariance, NonPositiveInput
from .moments import moment_bundle
from .quadrature import integrate

__all__ = [
    "DerivativeQuartet",
    "IdentityReport",
    "reduction_residuals",
    "abc_derivatives",
    "fd_derivatives",
    "theta_derivative_integral_form",
    "wm_residual",
    "variance_functional",
    "variance_with_error",
    "identity_report",
]

# Derivative and weighted-mean paths compare quantities that nearly cancel,
# so their inner integrals run tighter than the public default.
_TIGHT_TOL = 1e-12
_NEGATIVE_FLOOR = -1e-13
_WEIGHT_FLOOR = 1e-14
# Relative step of fd_derivatives' default stencil, which reaches a +- h with
# h = _FD_STEP * a; the CLI keeps only scales whose stencil fits the support.
_FD_STEP = 1e-5


def _profile_integral(spec, a, integrand, tol):
    """Quadrature of a function of s over the profile range (s_floor, 1].

    The range starts at the spec's support floor in units of a, and the
    spec's knots, in the same units, are the breakpoints.
    """
    return integrate(integrand, spec.support[0] / a, 1.0, tol,
                     breakpoints=spec.knots / a)


def _profile_integrals(spec, a, bundle, tol):
    """The three g-E moments on the left-hand side of the reductions."""
    fa = bundle.fa

    def g_e(s):
        x = a * s
        return spec.eval(x) / fa * spec.elasticity(x)

    def s_g_e(s):
        return s * g_e(s)

    def g2_e(s):
        x = a * s
        g = spec.eval(x) / fa
        return g * g * spec.elasticity(x)

    i1 = _profile_integral(spec, a, g_e, tol).value
    i2 = _profile_integral(spec, a, s_g_e, tol).value
    i3 = _profile_integral(spec, a, g2_e, tol).value
    return i1, i2, i3


def reduction_residuals(spec, a, tol=1e-10, bundle=None):
    """|LHS - RHS| for the three integral reductions, as a 3-tuple.

    The left-hand sides are honest quadratures of the profile-elasticity
    moments; the right-hand sides come from the moment bundle.  The two
    routes share no algebra, so agreement is a real check on both.
    """
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    i1, i2, i3 = _profile_integrals(spec, float(a), b, tol)
    return (
        abs(i1 - (1.0 - b.A)),
        abs(i2 - (1.0 - 2.0 * b.B)),
        abs(i3 - (1.0 - b.C) / 2.0),
    )


@dataclass(frozen=True)
class DerivativeQuartet:
    """d/da of (A, B, C, theta) at one scale."""

    a: float
    dA: float
    dB: float
    dC: float
    dtheta: float

    def as_array(self):
        return np.array([self.dA, self.dB, self.dC, self.dtheta])


def abc_derivatives(spec, a, tol=_TIGHT_TOL, bundle=None):
    """Closed-form scale derivatives of A, B, C, theta."""
    a = float(a)
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    ea = spec.elasticity(a)
    dA = (1.0 - (1.0 + ea) * b.A) / a
    dB = (1.0 - (2.0 + ea) * b.B) / a
    dC = (1.0 - (1.0 + 2.0 * ea) * b.C) / a
    dtheta = (dB * b.A - b.B * dA) / (b.A * b.A)
    return DerivativeQuartet(a=a, dA=dA, dB=dB, dC=dC, dtheta=dtheta)


def fd_derivatives(spec, a, h=None, tol=_TIGHT_TOL):
    """Central-difference scale derivatives of (A, B, C, theta).

    Uses steps h and h/2; if the two estimates disagree beyond what central
    differencing should leave behind, the Richardson combination
    (4 d_{h/2} - d_h) / 3 is returned instead of either.
    """
    a = float(a)
    if h is None:
        h = _FD_STEP * a
    if h <= 0.0 or a - h <= 0.0:
        raise NonPositiveInput("need 0 < h < a for a central difference")

    def quartet(aa):
        b = moment_bundle(spec, aa, tol)
        return np.array([b.A, b.B, b.C, b.theta])

    d_h = (quartet(a + h) - quartet(a - h)) / (2.0 * h)
    d_h2 = (quartet(a + 0.5 * h) - quartet(a - 0.5 * h)) / h
    gap = np.max(np.abs(d_h - d_h2))
    if gap > 1e-7 * max(1.0, float(np.max(np.abs(d_h2)))):
        d = (4.0 * d_h2 - d_h) / 3.0
    else:
        d = d_h2
    return DerivativeQuartet(a=a, dA=float(d[0]), dB=float(d[1]),
                             dC=float(d[2]), dtheta=float(d[3]))


def theta_derivative_integral_form(spec, a, tol=_TIGHT_TOL, bundle=None):
    """theta' computed as (1 / (a A)) int (s - theta) g E ds.

    Algebraically equal to the quotient-rule form in abc_derivatives, but
    numerically a completely different route -- useful as a cross-check.
    """
    a = float(a)
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    fa, theta = b.fa, b.theta

    def integrand(s):
        x = a * s
        return (s - theta) * spec.eval(x) / fa * spec.elasticity(x)

    val = _profile_integral(spec, a, integrand, tol).value
    return val / (a * b.A)


def _wm_and_weight(spec, a, bundle, tol):
    """Weighted-mean residual and its normalizer D = int (s-theta)^2 g ds."""
    fa, theta = bundle.fa, bundle.theta

    def w(s):
        d = s - theta
        return d * d * spec.eval(a * s) / fa

    def w_e(s):
        x = a * s
        d = s - theta
        return d * d * spec.eval(x) / fa * spec.elasticity(x)

    d_val = _profile_integral(spec, a, w, tol).value
    e_val = _profile_integral(spec, a, w_e, tol).value
    if d_val < _WEIGHT_FLOOR:
        raise DegenerateWeight(f"weight normalizer D={d_val:g} at a={a:g}")
    return e_val / d_val - spec.elasticity(a * theta), d_val


def wm_residual(spec, a, tol=_TIGHT_TOL, bundle=None):
    """Weighted-mean residual: int w E ds / D minus E at the centroid.

    Zero (to quadrature accuracy) for power laws; its sign and size say how
    the elasticity drifts across (0, a) relative to its centroid value.
    """
    a = float(a)
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    return _wm_and_weight(spec, a, b, tol)[0]


def variance_with_error(spec, a, tol=_TIGHT_TOL, bundle=None):
    """Variance functional at scale a plus its quadrature error estimate."""
    a = float(a)
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    fa, theta = b.fa, b.theta
    e_center = spec.elasticity(a * theta)

    def integrand(s):
        x = a * s
        d = s - theta
        de = spec.elasticity(x) - e_center
        return d * d * (spec.eval(x) / fa) * de * de

    res = _profile_integral(spec, a, integrand, tol)
    val = res.value
    if val < 0.0:
        if val < _NEGATIVE_FLOOR:
            raise NegativeVariance(f"variance integral {val:g} at a={a:g}")
        val = 0.0
    return val, res.error_estimate


def variance_functional(spec, a, tol=_TIGHT_TOL, bundle=None):
    """int (s - theta)^2 g (E(a s) - E(a theta))^2 ds at scale a.

    Nonnegative by construction and zero exactly when the elasticity is
    constant on (0, a) -- i.e. when f is a power law there.  Tiny negative
    values (roundoff) are clamped to zero; anything more negative raises.
    """
    val, _ = variance_with_error(spec, a, tol, bundle)
    return val


@dataclass(frozen=True)
class IdentityReport:
    """All identity diagnostics at one scale, ready for serialization."""

    a: float
    reduction: tuple[float, float, float]
    closed: DerivativeQuartet
    finite_diff: DerivativeQuartet
    wm: float
    variance: float
    weight_normalizer: float


def identity_report(spec, a, tol=1e-10, fd_step=None):
    """Evaluate every identity diagnostic at scale a.

    ``tol`` governs the reduction-residual quadratures; the derivative,
    weighted-mean, and variance paths always run at the tighter internal
    tolerance because their comparisons sit near cancellation.
    """
    a = float(a)
    b = moment_bundle(spec, a, _TIGHT_TOL)
    red = reduction_residuals(spec, a, tol, bundle=b)
    closed = abc_derivatives(spec, a, bundle=b)
    fin = fd_derivatives(spec, a, h=fd_step)
    wm, d_val = _wm_and_weight(spec, a, b, _TIGHT_TOL)
    var = variance_functional(spec, a, bundle=b)
    return IdentityReport(
        a=a,
        reduction=red,
        closed=closed,
        finite_diff=fin,
        wm=wm,
        variance=var,
        weight_normalizer=d_val,
    )
