"""Primitive integrals, normalized moments, and centroids at a scale a.

For a spec f and a scale a > 0 the primitives are

    F(a) = int_0^a f,   H(a) = int_0^a x f,   G(a) = int_0^a f**2,

and the scale-free versions divide out powers of a and f(a):

    A = F / (a f(a)),   B = H / (a^2 f(a)),   C = G / (a f(a)^2),
    theta = B / A.

With the profile g(s) = f(a s)/f(a) and the elasticity E, the same units
give the elasticity-weighted moments the integration-by-parts reductions
need:

    AE = int g E ds,   BE = int s g E ds,   CE = int g**2 E ds.

With the quadratic weight w(s) = (s - theta)^2 g(s), the weighted-mean and
variance identities need D = int w ds, wm = int w E ds / D - E(a theta) and
variance = int w (E(a s) - E(a theta))^2 ds.  With one shift E_ref for the
whole grid (the median of E at the scales) these expand into the moments
M_jk = int s^k g (E - E_ref)^j ds, j, k in {0, 1, 2}, that every scale
shares (the shifted-data method of Chan, Golub & LeVeque, Am. Stat. 37(3),
1983).  So everything comes from one quadrature pass over x for any number
of scales: the 13 columns f, x f, x^2 f, their products with (E - E_ref)
and (E - E_ref)^2, and f**2, f E, x f E, f**2 E are integrated up to every
scale at once, each held to its tolerance in its scale-free unit
a^(k+1) f(a) or a f(a)^2.

The centroid of the region under f on [0, a] sits at (H/F, G/(2F)); theta
is its abscissa in units of a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateWeight,
    NegativeVariance,
    NonPositiveValue,
    ThetaOutOfRange,
)
from .quadrature import cumulative

__all__ = ["MomentBundle", "moment_bundles"]


def _median(values):
    """``np.median`` of a non-empty 1-d array, bit for bit, without the lazy
    ``numpy.ma`` import (~14 ms) that ``np.median`` costs."""
    s = np.sort(values)  # NaNs sort last, and np.median returns one
    if np.isnan(s[-1]):
        return float(s[-1])
    mid = s.size // 2
    return float(s[mid] if s.size % 2 else (s[mid - 1] + s[mid]) / 2.0)


# The variance and the derivative checks compare quantities that nearly
# cancel, so their integrals run tighter than the public default.
_TIGHT_TOL = 1e-12
_NEGATIVE_FLOOR = -1e-13
_WEIGHT_FLOOR = 1e-14
_UNIT_NAMES = ("a f(a)", "a^2 f(a)", "a^3 f(a)", "a f(a)^2")


@dataclass(frozen=True)
class MomentBundle:
    """Everything the identity and detection layers need at one scale.

    f(a) is evaluated exactly once and shared by all normalizations, so the
    bundle is internally consistent by construction.
    """

    a: float
    fa: float
    F: float
    H: float
    G: float
    A: float
    B: float
    C: float
    theta: float
    xbar: float
    ybar: float
    AE: float
    BE: float
    CE: float
    D: float
    wm: float
    variance: float
    variance_error: float
    errors: tuple[float, float, float] = (0.0, 0.0, 0.0)


def moment_bundles(spec, scales, tol=1e-10):
    """Primitive integrals, normalized moments and the centroid at every
    scale, from one quadrature pass.

    The scales may come in any order and repeat; the bundles follow them.
    Each of F, H, G, AE, BE, CE meets ``tol`` relative to its scale-free
    value, with an absolute floor of ``tol`` in scale-free units; the
    shifted columns behind D, wm and the variance meet 1e-12.

    For tabulated specs, whose support starts at x[0] > 0, the integrals run
    from x[0] and the unobservable head (0, x[0]] is accounted for by adding
    an elementary bound on its mass to each error estimate of F, H, G: f is
    positive and decays toward 0, so f(x[0]) bounds it there.  The values
    themselves are never silently corrected.

    Raises NonPositiveValue, before integrating, if a scale-free unit
    a f(a), a^2 f(a), a^3 f(a) or a f(a)^2 underflows to zero or
    overflows: the normalizations divide by them.  Raises
    ThetaOutOfRange if the scale-free centroid abscissa B/A falls
    outside (0, 1) -- which cannot happen for an admissible spec and so
    flags either an inadmissible input or a failed integration.  Raises
    DegenerateWeight if D vanishes, and NegativeVariance if the variance is
    negative beyond roundoff; tiny negative values are clamped to zero.
    """
    scales = [spec.check_scale(a) for a in scales]
    cuts, where = np.unique(scales, return_inverse=True)
    fa = np.asarray(spec.eval(cuts))
    with np.errstate(over="ignore", under="ignore"):
        # a f(a)^2 as cuts * (fa * fa): another order rounds differently
        unit = np.column_stack((cuts * fa, cuts * cuts * fa, cuts * cuts * cuts * fa,
                                cuts * (fa * fa)))
    for a, row in zip(cuts, unit):
        for name, u in zip(_UNIT_NAMES, row):
            if not 0.0 < u < np.inf:
                raise NonPositiveValue(
                    f"unit {name} = {u:g} at a={a:g} is outside the float64 range"
                )
    e_ref = _median(spec.elasticity(cuts))

    def columns(x):
        f, e = spec.eval(x), spec.elasticity(x)
        xf = x * f
        m0 = np.column_stack((f, xf, x * xf))
        d = (e - e_ref)[:, None]
        return np.hstack((m0, m0 * d, m0 * (d * d),
                          np.column_stack((f * f, f * e, xf * e, f * f * e))))

    m_unit, c_unit = unit[:, :3], unit[:, 3:]
    units = np.hstack((m_unit, m_unit, m_unit, c_unit, m_unit[:, :2], c_unit))
    tols = np.repeat([tol, _TIGHT_TOL, _TIGHT_TOL, tol], [3, 3, 3, 4])
    lo = spec.support[0]
    res = cumulative(columns, lo, cuts, tols, units=units, breakpoints=spec.knots)
    errors = res.error_estimate[:, [0, 1, 9]]
    if lo > 0.0:
        flo = spec.eval(lo)
        errors = errors + np.array([lo * flo, lo * lo * flo, lo * flo * flo])
    scaled = res.value / units
    # M[:, j, k] is the scale-free int s^k g (E - E_ref)^j ds, dM its error
    M = scaled[:, :9].reshape(-1, 3, 3)
    dM = (res.error_estimate[:, :9] / units[:, :9]).reshape(-1, 3, 3)
    theta = M[:, 0, 1] / M[:, 0, 0]
    for a, t in zip(cuts, theta):
        if not 0.0 < t < 1.0:
            raise ThetaOutOfRange(f"theta={t:g} outside (0, 1) at a={a:g}")
    # W_j = int (s - theta)^2 g (E - E_ref)^j ds, and the variance expands
    # around c = E(a theta) - E_ref
    c = spec.elasticity(cuts * theta) - e_ref
    beta = np.column_stack((theta * theta, -2.0 * theta, np.ones_like(theta)))
    alpha = np.column_stack((c * c, -2.0 * c, np.ones_like(c)))
    W = np.einsum("ijk,ik->ij", M, beta)
    variance = np.einsum("ij,ij->i", W, alpha)
    for a, dk, vk in zip(cuts, W[:, 0], variance):
        if dk < _WEIGHT_FLOOR:
            raise DegenerateWeight(f"weight normalizer D={dk:g} at a={a:g}")
        if vk < _NEGATIVE_FLOOR:
            raise NegativeVariance(f"variance integral {vk:g} at a={a:g}")
    F, H, G = res.value[:, [0, 1, 9]].T
    # one row per cut, in MomentBundle's field order
    table = np.column_stack((
        cuts, fa, F, H, G, scaled[:, [0, 1, 9]], theta, H / F, G / (2.0 * F),
        scaled[:, 10:], W[:, 0], W[:, 1] / W[:, 0] - c, np.maximum(variance, 0.0),
        np.einsum("ijk,ij,ik->i", dM, np.abs(alpha), np.abs(beta)),
    ))
    bundles = [MomentBundle(*row, errors=tuple(err))
               for row, err in zip(table.tolist(), errors.tolist())]
    return [bundles[k] for k in where]
