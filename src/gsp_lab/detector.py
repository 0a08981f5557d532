"""Scale-collapse detection: is a spec a pure power law on its domain?

For f(x) = amp * x**p the centroid ordinate is proportional to the value of
f at the centroid abscissa with a universal constant that depends only on
the exponent:

    ybar(a) = lambda(p) * f(xbar(a)),
    lambda(p) = (p + 1) / (2 (2 p + 1)) * ((p + 2) / (p + 1))**p.

The converse also holds for admissible specs: if the proportionality holds
at every scale with a single constant, the function is a power law.  The
detector therefore sweeps the scales it is given, fits the best single
constant, and looks at the worst relative residual together with the
elasticity variance functional -- two unrelated routes that must both
collapse, each an array expression over the whole grid.  Making and checking
the grid is the caller's job (the CLI's grid builder).

lambda is not injective: it dips from 1/2 at p -> 0 to a minimum of about
0.48202 near p = 0.3266, climbs back through 1/2 at p = 1, and tends to
e/4 from below as p grows.  Inverting it therefore returns a set of
exponents (possibly empty, possibly two), one from each monotone branch.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainExceeded, GspLabError, _Record
from .functions import Tabulated, _geomspace
from .moments import _median, moment_bundles

__all__ = [
    "Verdict",
    "DetectionResult",
    "lambda_of_p",
    "invert_lambda",
    "gsp_residual_sweep",
    "fit_lambda",
    "recover_p",
    "classify",
]

_ELASTICITY_PROBES = 33
_MARGIN_FACTOR = 10.0  # how many quadrature-error widths count as "on the line"
# (tol_gsp, tol_var): the thresholds on the collapse residual and the
# variance functional, looser on a table, where the interpolation's kinks
# at its knots put a floor under both statistics.
_ANALYTIC_THRESHOLDS = (1e-6, 1e-9)
_TABLE_THRESHOLDS = (1e-3, 1e-5)


class Verdict(str, Enum):
    POWER_LAW = "PowerLaw"
    NOT_POWER_LAW = "NotPowerLaw"
    INCONCLUSIVE = "Inconclusive"


def lambda_of_p(p):
    """The centroid constant for exponent p > 0: a float, or elementwise an array."""
    p = np.asarray(p, dtype=float)
    if not ((0.0 < p) & (p < np.inf)).all():  # NaN fails both comparisons
        raise DomainExceeded("exponent must be positive and finite")
    out = (p + 1.0) / (2.0 * (2.0 * p + 1.0)) * ((p + 2.0) / (p + 1.0)) ** p
    return out if out.ndim else float(out)


def _dlog_lambda(p):
    """d log(lambda)/dp: negative below the curve's one minimum, positive above."""
    q = p + 1.0
    return math.log1p(1.0 / q) - 1.0 / (q * (2.0 * p + 1.0)) - p / (q * (p + 2.0))


def _bisect(fn, a, b):
    """Where fn, of opposite signs at a and b, changes sign: [a, b] is halved
    until no float lies between its ends, and a is returned."""
    rising = fn(a) < fn(b)
    while a < (m := 0.5 * (a + b)) < b:
        if (fn(m) > 0.0) != rising:
            a = m
        else:
            b = m
    return a


def invert_lambda(lam, p_range=(0.01, 10.0)):
    """All exponents in p_range whose constant equals lam, in ascending order.

    The curve falls to its one minimum, near p = 0.3266 where
    d log(lambda)/dp changes sign, and rises after it, so the minimum is
    bisected first and then each monotone branch inside p_range that
    reaches lam, each to the last float: the answer has 0, 1 or 2 elements.
    Within 8 ulps of the minimum, where float64 cannot tell the curve from
    flat, the minimizer alone is returned.  A lam that is not finite has no
    root.
    """
    lam = float(lam)
    lo, hi = float(p_range[0]), float(p_range[1])
    if lo <= 0.0 or hi <= lo:
        raise DomainExceeded("p_range must satisfy 0 < lo < hi")
    if not math.isfinite(lam):
        return ()
    p_min = min(max(_bisect(_dlog_lambda, 0.1, 1.0), lo), hi)

    def gap(p):
        return lambda_of_p(p) - lam

    if lo < p_min < hi and abs(gap(p_min)) <= 8.0 * math.ulp(lam):
        return (p_min,)
    return tuple(_bisect(gap, a, b) for a, b in ((lo, p_min), (p_min, hi))
                 if a < b and gap(a) * gap(b) <= 0.0)


def gsp_residual_sweep(ybar, fx, lam):
    """Relative collapse residual |ybar - lam * f(xbar)| / ybar at every
    scale, from the arrays ybar and fx = f(xbar)."""
    if lam <= 0.0:
        raise DomainExceeded("the proportionality constant must be positive")
    return np.abs(ybar - lam * fx) / ybar


def fit_lambda(ybar, fx):
    """Least-squares constant through the origin for ybar vs fx = f(xbar).
    The sums run left to right; ``np.sum`` adds pairwise and rounds otherwise."""
    den = (fx * fx).cumsum()[-1]
    if den <= 0.0 or not math.isfinite(den):
        raise GspLabError("sum of squares of f(xbar) vanished")
    return float((ybar * fx).cumsum()[-1] / den)


def recover_p(spec, moments):
    """Estimate the exponent two ways, and the amplitude on top, as
    ``(p_theta, p_elasticity, amp)``.

    Route one maps the normalized centroid theta at each scale through
    p = (2 theta - 1) / (1 - theta) and takes the median over the grid.
    Route two takes the median pointwise elasticity on a log grid of
    abscissae from the first scale to the last.  On a power law
    the two agree exactly; their disagreement is a model-misfit signal,
    which is why both are reported.
    """
    theta = moments.theta
    p_theta = _median((2.0 * theta - 1.0) / (1.0 - theta))
    xs = _geomspace(moments.a[0], moments.a[-1], _ELASTICITY_PROBES)
    p_elast = _median(spec.elasticity(xs))
    logf = np.log(spec.eval(xs))
    amp = float(np.exp(np.mean(logf - p_theta * np.log(xs))))
    return p_theta, p_elast, amp


class DetectionResult(_Record):
    """Verdict plus everything needed to audit it."""

    fields = ("verdict", "lambda_hat", "p_theta", "p_elasticity", "amp",
              "gsp_residual_max", "variance_max", "tol_gsp", "tol_var", "scales",
              "gsp_residuals", "variances", "notes")
    notes = ""

    def to_dict(self):
        return {**vars(self), "verdict": self.verdict.value}


def _residual_margin(spec, moments, fx, lam):
    """Propagated quadrature uncertainty of the collapse residual at every
    scale, with fx = f(xbar)."""
    rel_f, rel_h, rel_g = moments.errors.T / (moments.F, moments.H, moments.G)
    e_at = np.abs(spec.elasticity(moments.xbar))
    model = lam * fx / moments.ybar
    return (rel_g + rel_f) + model * e_at * (rel_h + rel_f)


def classify(spec, scales, tol=1e-10):
    """Run the full detection pipeline over the scales, which must lie in
    the spec's support, and return a DetectionResult.

    The thresholds go by family: tabulated specs get looser ones than
    analytic specs (``_TABLE_THRESHOLDS``, ``_ANALYTIC_THRESHOLDS``).  A
    verdict is downgraded to Inconclusive when the deciding statistic sits
    within ten propagated quadrature-error widths of its threshold -- close
    enough that rerunning at a tighter tolerance could flip it.
    """
    tol_gsp, tol_var = (_TABLE_THRESHOLDS if isinstance(spec, Tabulated)
                        else _ANALYTIC_THRESHOLDS)

    m = moment_bundles(spec, scales, tol)
    fx = spec.eval(m.xbar)
    lam_hat = fit_lambda(m.ybar, fx)
    residuals = gsp_residual_sweep(m.ybar, fx, lam_hat)
    p_theta, p_elast, amp = recover_p(spec, m)

    i_r = int(np.argmax(residuals))
    r_max = float(residuals[i_r])
    i_v = int(np.argmax(m.variance))
    v_max = float(m.variance[i_v])

    margin_r = _MARGIN_FACTOR * _residual_margin(spec, m, fx, lam_hat)[i_r]
    margin_v = _MARGIN_FACTOR * m.variance_error[i_v]

    p_consistent = abs(p_theta - p_elast) <= 0.01 * max(1.0, abs(p_theta))
    passes = r_max <= tol_gsp and v_max <= tol_var and p_consistent
    near_r = abs(r_max - tol_gsp) <= margin_r
    near_v = abs(v_max - tol_var) <= margin_v

    notes = []
    if near_r:
        notes.append("collapse residual within quadrature margin of threshold")
    if near_v:
        notes.append("variance within quadrature margin of threshold")
    if not p_consistent:
        notes.append(
            f"exponent routes disagree: theta {p_theta:.6g} vs "
            f"elasticity {p_elast:.6g}"
        )

    if near_r or near_v:
        verdict = Verdict.INCONCLUSIVE
    elif passes:
        verdict = Verdict.POWER_LAW
    else:
        verdict = Verdict.NOT_POWER_LAW

    return DetectionResult(
        verdict=verdict,
        lambda_hat=lam_hat,
        p_theta=p_theta,
        p_elasticity=p_elast,
        amp=amp,
        gsp_residual_max=r_max,
        variance_max=v_max,
        tol_gsp=tol_gsp,
        tol_var=tol_var,
        scales=tuple(m.a.tolist()),
        gsp_residuals=tuple(residuals.tolist()),
        variances=tuple(m.variance.tolist()),
        notes="; ".join(notes),
    )
