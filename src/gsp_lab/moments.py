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

All six come from one quadrature pass over x for any number of scales: the
columns f, x f, f**2, f E, x f E and f**2 E are integrated up to every scale
at once, each held to the tolerance in its scale-free unit a f(a),
a^2 f(a) or a f(a)^2.

The centroid of the region under f on [0, a] sits at (H/F, G/(2F)); theta
is its abscissa in units of a.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainExceeded,
    NonPositiveInput,
    NonPositiveValue,
    ThetaOutOfRange,
)
from .quadrature import cumulative

__all__ = ["MomentBundle", "ShapeProfile", "moment_bundle", "moment_bundles"]


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
    errors: tuple[float, float, float] = (0.0, 0.0, 0.0)


def moment_bundles(spec, scales, tol=1e-10):
    """``moment_bundle`` at every scale, from one quadrature pass.

    The scales may come in any order and repeat; the bundles follow them.
    Each of F, H, G, AE, BE, CE meets ``tol`` relative to its scale-free
    value, with an absolute floor of ``tol`` in scale-free units.

    For tabulated specs, whose support starts at x[0] > 0, the integrals run
    from x[0] and the unobservable head (0, x[0]] is accounted for by adding
    an elementary bound on its mass to each error estimate: f is positive
    and decays toward 0, so f(x[0]) bounds it there.  The values themselves
    are never silently corrected.
    """
    scales = [spec.check_scale(a) for a in scales]
    cuts, where = np.unique(scales, return_inverse=True)
    fa = np.asarray(spec.eval(cuts))
    with np.errstate(over="ignore", under="ignore"):
        fa2 = fa * fa
    for a, f2 in zip(cuts, fa2):
        if not 0.0 < f2 < np.inf:
            raise NonPositiveValue(
                f"f(a)^2 = {f2:g} at a={a:g} is outside the float64 range; "
                "rescale the amplitude"
            )

    def columns(x):
        f = spec.eval(x)
        base = np.column_stack((f, x * f, f * f))
        return np.hstack((base, base * spec.elasticity(x)[:, None]))

    units = np.column_stack((cuts * fa, cuts * cuts * fa, cuts * fa * fa))
    units = np.hstack((units, units))
    lo = spec.support[0]
    res = cumulative(columns, lo, cuts, tol, units=units, breakpoints=spec.knots)
    errors = res.error_estimate[:, :3]
    if lo > 0.0:
        flo = spec.eval(lo)
        errors = errors + np.array([lo * flo, lo * lo * flo, lo * flo * flo])
    bundles = []
    for a, fak, raw, scaled, err in zip(cuts.tolist(), fa.tolist(), res.value.tolist(),
                                        (res.value / units).tolist(), errors.tolist()):
        F, H, G = raw[:3]
        A, B, C, AE, BE, CE = scaled
        theta = B / A
        if not 0.0 < theta < 1.0:
            raise ThetaOutOfRange(f"theta={theta:g} outside (0, 1) at a={a:g}")
        bundles.append(MomentBundle(
            a=a, fa=fak, F=F, H=H, G=G, A=A, B=B, C=C, theta=theta,
            xbar=H / F, ybar=G / (2.0 * F), AE=AE, BE=BE, CE=CE, errors=tuple(err),
        ))
    return [bundles[k] for k in where]


def moment_bundle(spec, a, tol=1e-10):
    """Primitive integrals plus normalized moments and the centroid at scale a.

    This is ``moment_bundles`` at the single scale a, where the handling of
    a table's unobserved head is described.

    Raises NonPositiveValue, before integrating, if f(a)**2 underflows to
    zero or overflows: the normalizations divide by it.  Raises
    ThetaOutOfRange if the scale-free centroid abscissa B/A falls
    outside (0, 1) -- which cannot happen for an admissible spec and so
    flags either an inadmissible input or a failed integration.
    """
    return moment_bundles(spec, [a], tol)[0]


class ShapeProfile:
    """The scale-free profile g(s) = f(a s) / f(a) on (0, 1].

    g(1) = 1 by construction; for a power law with exponent p the profile
    is s**p at every scale, which is what makes it the right object for
    scale-collapse arguments.
    """

    def __init__(self, spec, a):
        self.spec = spec
        self.a = spec.check_scale(a)
        self.fa = spec.eval(self.a)
        #: smallest s the profile can be evaluated at (0 for analytic specs)
        self.s_floor = spec.support[0] / self.a

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        scalar = arr.ndim == 0
        vec = np.atleast_1d(arr)
        if vec.size and (not np.all(np.isfinite(vec)) or np.any(vec <= 0.0)):
            raise NonPositiveInput("profile argument s must be positive")
        if vec.size and np.any(vec > 1.0 + 1e-12):
            raise DomainExceeded("profile argument s must not exceed 1")
        out = np.asarray(self.spec.eval(vec * self.a)) / self.fa
        return float(out[0]) if scalar else out

