"""Primitive integrals, normalized moments, and centroids at a scale a.

For a spec f and a scale a > 0 the primitives are

    F(a) = int_0^a f,   H(a) = int_0^a x f,   G(a) = int_0^a f**2,

and the scale-free versions divide out powers of a and f(a):

    A = F / (a f(a)),   B = H / (a^2 f(a)),   C = G / (a f(a)^2),
    theta = B / A.

The centroid of the region under f on [0, a] sits at (H/F, G/(2F)); theta
is its abscissa in units of a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainExceeded,
    NonPositiveInput,
    NonPositiveValue,
    ThetaOutOfRange,
)
from .quadrature import integrate

__all__ = ["MomentBundle", "ShapeProfile", "moment_bundle"]


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
    errors: tuple[float, float, float] = (0.0, 0.0, 0.0)


def moment_bundle(spec, a, tol=1e-10):
    """Primitive integrals plus normalized moments and the centroid at scale a.

    For tabulated specs, whose support starts at x[0] > 0, the integrals run
    from x[0] and the unobservable head (0, x[0]] is accounted for by adding
    an elementary bound on its mass to each error estimate: f is positive
    and decays toward 0, so f(x[0]) bounds it there.  The values themselves
    are never silently corrected.

    Raises NonPositiveValue, before integrating, if f(a)**2 underflows to
    zero or overflows: the normalizations divide by it.  Raises
    ThetaOutOfRange if the scale-free centroid abscissa B/A falls
    outside (0, 1) -- which cannot happen for an admissible spec and so
    flags either an inadmissible input or a failed integration.
    """
    a = spec.check_scale(a)
    fa = spec.eval(a)
    if not 0.0 < fa * fa < math.inf:
        raise NonPositiveValue(
            f"f(a)^2 = {fa * fa:g} at a={a:g} is outside the float64 range; "
            "rescale the amplitude"
        )
    lo, knots = spec.support[0], spec.knots
    rf = integrate(spec.eval, lo, a, tol, breakpoints=knots)
    rh = integrate(lambda x: x * spec.eval(x), lo, a, tol, breakpoints=knots)
    rg = integrate(lambda x: np.asarray(spec.eval(x)) ** 2, lo, a, tol,
                   breakpoints=knots)
    F, H, G = rf.value, rh.value, rg.value
    errors = (rf.error_estimate, rh.error_estimate, rg.error_estimate)
    if lo > 0.0:
        flo = spec.eval(lo)
        errors = (errors[0] + lo * flo, errors[1] + lo * lo * flo,
                  errors[2] + lo * flo * flo)
    A = F / (a * fa)
    B = H / (a * a * fa)
    C = G / (a * fa * fa)
    theta = B / A
    if not 0.0 < theta < 1.0:
        raise ThetaOutOfRange(f"theta={theta:g} outside (0, 1) at a={a:g}")
    return MomentBundle(
        a=a,
        fa=fa,
        F=F,
        H=H,
        G=G,
        A=A,
        B=B,
        C=C,
        theta=theta,
        xbar=H / F,
        ybar=G / (2.0 * F),
        errors=errors,
    )


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

