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

Every quantity comes from two quadrature passes over x that serve any
number of scales: the moment pass of the moments module, which also gives
the left-hand sides of the reductions and the finite-difference stencils,
and ``weight_integrals``, which needs that pass's theta.  The single-scale
functions are the one-scale case of the same two passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWeight, NegativeVariance, NonPositiveInput
from .moments import moment_bundle, moment_bundles
from .quadrature import cumulative

__all__ = [
    "DerivativeQuartet",
    "IdentityReport",
    "WeightIntegrals",
    "reduction_residuals",
    "abc_derivatives",
    "fd_derivatives",
    "theta_derivative_integral_form",
    "wm_residual",
    "weight_integrals",
    "variance_functional",
    "variance_with_error",
    "identity_report",
    "identity_reports",
]

# Derivative and weighted-mean paths compare quantities that nearly cancel,
# so their inner integrals run tighter than the public default.
_TIGHT_TOL = 1e-12
_NEGATIVE_FLOOR = -1e-13
_WEIGHT_FLOOR = 1e-14
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
    The integral is BE - theta AE.
    """
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    return (b.BE - b.theta * b.AE) / (b.a * b.A)


@dataclass(frozen=True)
class WeightIntegrals:
    """The quadratic-weight quantities at a list of scales, one entry each.

    ``D`` is the normalizer int w ds, ``wm`` the weighted-mean residual,
    ``variance`` the variance functional and ``variance_error`` its
    quadrature error estimate.
    """

    D: tuple[float, ...]
    wm: tuple[float, ...]
    variance: tuple[float, ...]
    variance_error: tuple[float, ...]


def weight_integrals(spec, bundles, tol=_TIGHT_TOL):
    """D, the weighted-mean residual and the variance at each bundle's scale.

    One quadrature pass over x integrates, for every scale a with its theta
    and E_c = E(a theta), the columns (x/a - theta)^2 f, times 1, E and
    (E - E_c)^2, each reported only at its own scale and held to ``tol`` in
    the scale-free unit a f(a).
    """
    a = np.array([b.a for b in bundles])
    fa = np.array([b.fa for b in bundles])
    theta = np.array([b.theta for b in bundles])
    e_center = np.asarray(spec.elasticity(a * theta))
    cuts, where = np.unique(a, return_inverse=True)

    def columns(x):
        f, e = spec.eval(x), spec.elasticity(x)
        d = x[:, None] / a - theta
        w = d * d * f[:, None]
        de = e[:, None] - e_center
        return np.hstack((w, w * e[:, None], w * de * de))

    own = np.full((cuts.size, a.size), np.inf)
    own[where, np.arange(a.size)] = a * fa
    res = cumulative(columns, spec.support[0], cuts, tol,
                     units=np.tile(own, 3), breakpoints=spec.knots)
    value = res.value[where].reshape(a.size, 3, a.size)
    error = res.error_estimate[where].reshape(a.size, 3, a.size)
    k = np.arange(a.size)
    d_x, we_x, var_x = value[k, :, k].T
    D, var, var_err = d_x / (a * fa), var_x / (a * fa), error[k, 2, k] / (a * fa)
    for b, dk, vk in zip(bundles, D, var):
        if dk < _WEIGHT_FLOOR:
            raise DegenerateWeight(f"weight normalizer D={dk:g} at a={b.a:g}")
        if vk < _NEGATIVE_FLOOR:
            raise NegativeVariance(f"variance integral {vk:g} at a={b.a:g}")
    return WeightIntegrals(
        D=tuple(D.tolist()),
        wm=tuple((we_x / d_x - e_center).tolist()),
        variance=tuple(np.maximum(var, 0.0).tolist()),
        variance_error=tuple(var_err.tolist()),
    )


def wm_residual(spec, a, tol=_TIGHT_TOL, bundle=None):
    """Weighted-mean residual: int w E ds / D minus E at the centroid.

    Zero (to quadrature accuracy) for power laws; its sign and size say how
    the elasticity drifts across (0, a) relative to its centroid value.
    """
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    return weight_integrals(spec, [b], tol).wm[0]


def variance_with_error(spec, a, tol=_TIGHT_TOL, bundle=None):
    """Variance functional at scale a plus its quadrature error estimate."""
    b = bundle if bundle is not None else moment_bundle(spec, a, tol)
    w = weight_integrals(spec, [b], tol)
    return w.variance[0], w.variance_error[0]


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


def identity_reports(spec, scales, tol=1e-10, fd_step=None):
    """``identity_report`` at every scale, from two quadrature passes.

    The first pass integrates the moments up to every scale and every
    finite-difference stencil scale around it; the second, which needs the
    first pass's theta, the weight integrals at every scale.  The first
    pass runs at min(tol, 1e-12): the derivatives, compared near
    cancellation, need the tighter tolerance, and the reductions share it.
    The weighted-mean and variance paths always run at 1e-12.
    """
    scales = [float(a) for a in scales]
    stencils = [_stencil(a, fd_step) for a in scales]
    points = [p for a, (_, stencil) in zip(scales, stencils) for p in (a, *stencil)]
    bundles = moment_bundles(spec, points, min(tol, _TIGHT_TOL))
    at = bundles[0::5]
    weights = weight_integrals(spec, at, _TIGHT_TOL)
    elasticity = np.atleast_1d(spec.elasticity(np.array(scales)))
    return [
        IdentityReport(
            a=a,
            reduction=red,
            closed=_closed_form(b, float(ea)),
            finite_diff=_central(a, h, bundles[5 * k + 1:5 * k + 5]),
            wm=weights.wm[k],
            variance=weights.variance[k],
            weight_normalizer=weights.D[k],
        )
        for k, (a, b, red, ea, (h, _)) in enumerate(
            zip(scales, at, _reductions(spec, at), elasticity, stencils)
        )
    ]


def identity_report(spec, a, tol=1e-10, fd_step=None):
    """Evaluate every identity diagnostic at scale a.

    This is ``identity_reports`` at the single scale a.
    """
    return identity_reports(spec, [a], tol, fd_step)[0]
