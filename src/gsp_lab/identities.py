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

The closed forms are checked against finite differences of (A, B, C,
theta) over the one-sided stencil a - 2h, a - h, a with h = 1e-5 a, by the
second-order backward weights (3 q(a) - 4 q(a - h) + q(a - 2h)) / (2h)
(Fornberg, Math. Comp. 51(184), 1988).  The stencil lies in (0, a], so it
fits the support wherever the scale does.

Every quantity comes from the one quadrature pass of the moments module,
which serves any number of scales: it gives the normalized moments, the
left-hand sides of the reductions, the weight integrals (expanded into
moments every scale shares) and the values on the stencils.
"""

from __future__ import annotations

import numpy as np

from .errors import _Record
from .moments import _TIGHT_TOL, moment_bundles

__all__ = ["IdentityReport", "identity_reports"]

# Relative step of the backward differences: the stencil of a scale a is
# a - 2h, a - h, a with h = _FD_STEP * a.
_FD_STEP = 1e-5


class IdentityReport(_Record):
    """All identity diagnostics, one row per scale in the order given.

    ``reduction`` holds the three reduction residuals; ``closed`` and
    ``finite_diff`` are d/da of (A, B, C, theta), from the closed forms and
    from backward differences.
    """

    fields = ("a", "reduction", "closed", "finite_diff", "wm", "variance",
              "weight_normalizer")


def identity_reports(spec, scales, tol=1e-10):
    """Every identity diagnostic at every scale, from one quadrature pass.

    The pass integrates the moments up to every scale and the two stencil
    scales below it.  It runs at min(tol, 1e-12): the derivatives, compared
    near cancellation, need the tighter tolerance, and the reductions share
    it.

    The reductions' left-hand sides come from honest quadratures of the
    profile-elasticity moments: M_10 and M_11, the integrals of g (E - E_ref)
    and s g (E - E_ref), with E_ref A and E_ref B added back, and
    int g**2 E ds.  Their right-hand sides come from the normalized moments,
    so the first two test M_10 and M_11 against A and B: the routes share
    no algebra, and agreement is a real check on both.
    """
    a = np.array(scales, dtype=float)
    h = _FD_STEP * a
    points = np.array((a, a - h, a - 2.0 * h)).T
    m = moment_bundles(spec, points.ravel(), min(tol, _TIGHT_TOL))
    # q[k, j] = (A, B, C, theta) at a_k - j h_k, point j of scale k's stencil
    q = np.array((m.A, m.B, m.C, m.theta)).T.reshape(len(a), 3, 4)
    A, B, C = q[:, 0, :3].T
    AE, BE, CE = (v[0::3] for v in (m.AE, m.BE, m.CE))

    reduction = np.array((np.abs(AE - (1.0 - A)), np.abs(BE - (1.0 - 2.0 * B)),
                          np.abs(CE - (1.0 - C) / 2.0))).T

    ea = spec.elasticity(a)
    dA = (1.0 - (1.0 + ea) * A) / a
    dB = (1.0 - (2.0 + ea) * B) / a
    dC = (1.0 - (1.0 + 2.0 * ea) * C) / a
    closed = np.array((dA, dB, dC, (dB * A - B * dA) / (A * A))).T
    finite_diff = (3.0 * q[:, 0] - 4.0 * q[:, 1] + q[:, 2]) / (2.0 * h)[:, None]

    return IdentityReport(a=a, reduction=reduction, closed=closed,
                          finite_diff=finite_diff, wm=m.wm[0::3],
                          variance=m.variance[0::3], weight_normalizer=m.D[0::3])
