"""Primitive integrals, normalized moments, and centroids over scales a.

For a spec f and a scale a > 0 the primitives are

    F(a) = int_0^a f,   H(a) = int_0^a x f,   G(a) = int_0^a f**2,

and the scale-free versions divide out powers of a and f(a):

    A = F / (a f(a)),   B = H / (a^2 f(a)),   C = G / (a f(a)^2),
    theta = B / A.

With the profile g(s) = f(a s)/f(a), the elasticity E and one shift E_ref
for the whole grid (the median of E at the scales), the moments
M_jk = int s^k g (E - E_ref)^j ds, j, k in {0, 1, 2}, serve every scale
(the shifted-data method of Chan, Golub & LeVeque, Am. Stat. 37(3), 1983).
They give the elasticity-weighted moments the integration-by-parts
reductions need,

    AE = int g E ds = M_10 + E_ref A,   BE = int s g E ds = M_11 + E_ref B,

so the reductions test M_10 and M_11, honest quadratures of g (E - E_ref)
and s g (E - E_ref), against A and B.  Beside CE = int g**2 E ds, they give,
with the quadratic weight w(s) = (s - theta)^2 g(s), D = int w ds,
wm = int w E ds / D - E(a theta) and the variance
int w (E(a s) - E(a theta))^2 ds.  So everything comes from one quadrature
pass over x for any number of scales: the 11 columns f, x f, x^2 f, their
products with (E - E_ref) and (E - E_ref)^2, f**2 and f**2 E are
integrated up to every scale at once, each held to its tolerance in its
scale-free unit a^(k+1) f(a) or a f(a)^2.

The centroid of the region under f on [0, a] sits at (H/F, G/(2F)); theta
is its abscissa in units of a.  All of it comes as one ``Moments`` of arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import GspLabError, _Record
from .functions import _TINY_NORMAL
from .quadrature import cumulative

__all__ = ["Moments", "moment_bundles"]


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


class Moments(_Record):
    """Everything the identity and detection layers need, at every scale.

    Each field is a 1-d array over the requested scales, in their order;
    ``errors`` is (scales, 3), the error estimates of F, H and G.  Scales
    index the last axis (the second to last of ``errors``), so a leading
    axis could hold replicas.  f(a) is evaluated once per distinct scale
    and shared by all normalizations.
    """

    fields = ("a", "fa", "F", "H", "G", "A", "B", "C", "theta", "xbar", "ybar",
              "AE", "BE", "CE", "D", "wm", "variance", "variance_error", "errors")


def moment_bundles(spec, scales, tol=1e-10):
    """Primitive integrals, normalized moments and the centroid at every
    scale, from one quadrature pass, as one ``Moments``.

    The scales may come in any order and repeat; the fields follow them,
    so one scale is ``moment_bundles(spec, [a], tol).F[0]`` and so on.
    Each of F, H, G, CE meets ``tol`` relative to its scale-free value,
    with an absolute floor of ``tol`` in scale-free units; the shifted
    columns behind AE, BE, D, wm and the variance meet 1e-12, so AE and BE
    carry the error of M_10 and M_11 plus |E_ref| times that of A and B.

    A scale outside the support raises ``check_scale``'s DomainExceeded (the
    first one, in the order given).  Raises GspLabError, before integrating,
    if a scale-free unit a f(a), a^2 f(a), a^3 f(a) or a f(a)^2 falls below
    the smallest normal double or overflows ("unit ..."), since the
    normalizations divide by them and a subnormal unit has lost digits.
    Afterwards it raises GspLabError if B/A, the scale-free centroid
    abscissa, falls outside (0, 1) ("theta=", which an admissible spec
    cannot give, so it flags a bad input or a failed integration), if D
    vanishes ("weight normalizer D=") or if the variance is negative
    beyond roundoff ("variance integral"); tiny negative values are
    clamped to zero.  Each check names the smallest offending scale.
    """
    scales = spec.check_scale(scales).ravel()
    # the distinct scales, ascending, and where each requested scale is among them
    ranked = scales[scales.argsort()]
    cuts = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    where = cuts.searchsorted(scales)
    fa = spec.eval(cuts)
    with np.errstate(over="ignore", under="ignore"):
        # a f(a)^2 as cuts * (fa * fa): another order rounds differently
        unit = np.array((cuts * fa, cuts * cuts * fa, cuts * cuts * cuts * fa,
                         cuts * (fa * fa))).T
    bad = np.argwhere(~((_TINY_NORMAL <= unit) & (unit < np.inf)))
    if bad.size:
        i, j = bad[0]
        raise GspLabError(f"unit {_UNIT_NAMES[j]} = {unit[i, j]:g} at a={cuts[i]:g} "
                          "is outside the float64 range")
    e_ref = _median(spec.elasticity(cuts))

    def columns(x):
        f, e = spec.eval(x), spec.elasticity(x)
        out = np.empty((x.size, 11))
        m0 = out[:, :3]
        m0[:, 0], m0[:, 1] = f, x * f
        m0[:, 2] = x * m0[:, 1]
        d = (e - e_ref)[:, None]
        out[:, 3:6], out[:, 6:9] = m0 * d, m0 * (d * d)
        out[:, 9], out[:, 10] = f * f, f * f * e
        return out

    units = unit[:, [0, 1, 2, 0, 1, 2, 0, 1, 2, 3, 3]]
    tols = np.repeat([tol, _TIGHT_TOL, _TIGHT_TOL, tol], [3, 3, 3, 2])
    res = cumulative(columns, 0.0, cuts, tols, units=units, breakpoints=spec.knots)
    errors = res.error_estimate[:, [0, 1, 9]]
    scaled = res.value / units
    # M[:, j, k] is the scale-free int s^k g (E - E_ref)^j ds, dM its error
    M = scaled[:, :9].reshape(-1, 3, 3)
    dM = (res.error_estimate[:, :9] / units[:, :9]).reshape(-1, 3, 3)
    theta = M[:, 0, 1] / M[:, 0, 0]
    bad = (~((0.0 < theta) & (theta < 1.0))).nonzero()[0]
    if bad.size:
        i = bad[0]
        raise GspLabError(f"theta={theta[i]:g} outside (0, 1) at a={cuts[i]:g}")
    # W_j = int (s - theta)^2 g (E - E_ref)^j ds, and the variance expands
    # around c = E(a theta) - E_ref
    c = spec.elasticity(cuts * theta) - e_ref
    # C-ordered copies: einsum's summation order may follow its operands' layout
    beta = np.array((theta * theta, -2.0 * theta, np.ones_like(theta))).T.copy()
    alpha = np.array((c * c, -2.0 * c, np.ones_like(c))).T.copy()
    W = np.einsum("ijk,ik->ij", M, beta)
    variance = np.einsum("ij,ij->i", W, alpha)
    D = W[:, 0]
    # the first scale where D or, failing that, the variance is out of range
    bad = ((D < _WEIGHT_FLOOR) | (variance < _NEGATIVE_FLOOR)).nonzero()[0]
    if bad.size:
        i = bad[0]
        if D[i] < _WEIGHT_FLOOR:
            raise GspLabError(f"weight normalizer D={D[i]:g} at a={cuts[i]:g}")
        raise GspLabError(f"variance integral {variance[i]:g} at a={cuts[i]:g}")
    F, H, G = res.value[:, [0, 1, 9]].T
    # one row per field of Moments but errors, one column per requested scale
    table = np.concatenate((
        (cuts, fa, F, H, G), scaled[:, [0, 1, 9]].T, (theta, H / F, G / (2.0 * F)),
        (M[:, 1, :2] + e_ref * M[:, 0, :2]).T,
        (scaled[:, 10], D, W[:, 1] / D - c, np.maximum(variance, 0.0),
         np.einsum("ijk,ij,ik->i", dM, np.abs(alpha), np.abs(beta))),
    )).take(where, axis=1)
    return Moments(*table, errors=errors[where])
