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

Every quantity comes from the one quadrature pass of the moments module,
which serves any number of scales: it gives the normalized moments, the
left-hand sides of the reductions, the weight integrals (expanded into
moments every scale shares) and the finite-difference stencils.  The
single-scale functions are the one-scale case of the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveInput
from .moments import _TIGHT_TOL, moment_bundle, moment_bundles

__all__ = [
    "DerivativeQuartet",
    "IdentityReport",
    "reduction_residuals",
    "abc_derivatives",
    "fd_derivatives",
    "theta_derivative_integral_form",
    "variance_functional",
    "identity_reports",
]

# Relative step of fd_derivatives' default stencil, which reaches a +- h with
# h = _FD_STEP * a; the CLI keeps only scales whose stencil fits the support.
_FD_STEP = 1e-5


def _reductions(spec, bundles):
    """|LHS - RHS| of the three reductions at each bundle's scale.

    On a table the profile starts at s0 = x0 / a > 0, and integrating by
    parts from there leaves the boundary terms s0 g(s0), s0^2 g(s0) and
    s0 g(s0)^2 / 2 on the right-hand sides.
    """
    x0 = spec.support[0]
    f0 = spec.eval(x0) if x0 > 0.0 else 0.0
    out = []
    for b in bundles:
        s0, g0 = x0 / b.a, f0 / b.fa
        out.append((
            abs(b.AE - (1.0 - b.A - s0 * g0)),
            abs(b.BE - (1.0 - 2.0 * b.B - s0 * s0 * g0)),
            abs(b.CE - (1.0 - b.C - s0 * g0 * g0) / 2.0),
        ))
    return out


def reduction_residuals(spec, a, tol=1e-10, bundle=None):
    """|LHS - RHS| for the three integral reductions, as a 3-tuple.

    The left-hand sides are honest quadratures of the profile-elasticity
    moments; the right-hand sides come from the normalized moments.  The
    two routes share no algebra, so agreement is a real check on both.
    """
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    return _reductions(spec, [b])[0]


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


def _closed_form(b, ea):
    a = b.a
    dA = (1.0 - (1.0 + ea) * b.A) / a
    dB = (1.0 - (2.0 + ea) * b.B) / a
    dC = (1.0 - (1.0 + 2.0 * ea) * b.C) / a
    dtheta = (dB * b.A - b.B * dA) / (b.A * b.A)
    return DerivativeQuartet(a=a, dA=dA, dB=dB, dC=dC, dtheta=dtheta)


def abc_derivatives(spec, a, tol=_TIGHT_TOL, bundle=None):
    """Closed-form scale derivatives of A, B, C, theta."""
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    return _closed_form(b, spec.elasticity(b.a))


def _stencil(a, h):
    """The scales a - h, a - h/2, a + h/2, a + h of a central difference."""
    if h is None:
        h = _FD_STEP * a
    if h <= 0.0 or a - h <= 0.0:
        raise NonPositiveInput("need 0 < h < a for a central difference")
    return h, (a - h, a - 0.5 * h, a + 0.5 * h, a + h)


def _central(a, h, bundles):
    """Central differences from the bundles at the stencil of a."""
    q = [np.array([b.A, b.B, b.C, b.theta]) for b in bundles]
    d_h = (q[3] - q[0]) / (2.0 * h)
    d_h2 = (q[2] - q[1]) / h
    gap = np.max(np.abs(d_h - d_h2))
    if gap > 1e-7 * max(1.0, float(np.max(np.abs(d_h2)))):
        d = (4.0 * d_h2 - d_h) / 3.0
    else:
        d = d_h2
    return DerivativeQuartet(a=a, dA=float(d[0]), dB=float(d[1]),
                             dC=float(d[2]), dtheta=float(d[3]))


def fd_derivatives(spec, a, h=None, tol=_TIGHT_TOL):
    """Central-difference scale derivatives of (A, B, C, theta).

    Uses steps h and h/2; if the two estimates disagree beyond what central
    differencing should leave behind, the Richardson combination
    (4 d_{h/2} - d_h) / 3 is returned instead of either.  The four stencil
    scales share one quadrature pass, so their moments differ only by the
    integrals between them.
    """
    a = float(a)
    h, points = _stencil(a, h)
    return _central(a, h, moment_bundles(spec, points, tol))


def theta_derivative_integral_form(spec, a, tol=_TIGHT_TOL, bundle=None):
    """theta' computed as (1 / (a A)) int (s - theta) g E ds.

    Algebraically equal to the quotient-rule form in abc_derivatives, but
    numerically a completely different route -- useful as a cross-check.
    The integral is BE - theta AE; on a table, whose profile starts at
    s0 > 0, integrating by parts leaves the boundary term
    s0 g(s0) (theta - s0), which is taken off.
    """
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    x0 = spec.support[0]
    s0, g0 = x0 / b.a, (spec.eval(x0) / b.fa if x0 > 0.0 else 0.0)
    return (b.BE - b.theta * b.AE - s0 * g0 * (b.theta - s0)) / (b.a * b.A)


def variance_functional(spec, a, tol=_TIGHT_TOL, bundle=None):
    """int (s - theta)^2 g (E(a s) - E(a theta))^2 ds at scale a.

    Nonnegative by construction and zero exactly when the elasticity is
    constant on (0, a) -- i.e. when f is a power law there.  Tiny negative
    values (roundoff) are clamped to zero; anything more negative raises.
    """
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    return b.variance


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


def identity_reports(spec, scales, tol=1e-10, fd_step=None):
    """Every identity diagnostic at every scale, from one quadrature pass.

    The pass integrates the moments up to every scale and every
    finite-difference stencil scale around it.  It runs at min(tol, 1e-12):
    the derivatives, compared near cancellation, need the tighter
    tolerance, and the reductions share it.
    """
    scales = [float(a) for a in scales]
    stencils = [_stencil(a, fd_step) for a in scales]
    points = [p for a, (_, stencil) in zip(scales, stencils) for p in (a, *stencil)]
    bundles = moment_bundles(spec, points, min(tol, _TIGHT_TOL))
    at = bundles[0::5]
    elasticity = np.atleast_1d(spec.elasticity(np.array(scales)))
    return [
        IdentityReport(
            a=a,
            reduction=red,
            closed=_closed_form(b, float(ea)),
            finite_diff=_central(a, h, bundles[5 * k + 1:5 * k + 5]),
            wm=b.wm,
            variance=b.variance,
            weight_normalizer=b.D,
        )
        for k, (a, b, red, ea, (h, _)) in enumerate(
            zip(scales, at, _reductions(spec, at), elasticity, stencils)
        )
    ]

