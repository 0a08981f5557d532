"""Globally adaptive Gauss-Kronrod integration with open endpoints.

The engine applies a 15-point Kronrod rule (with its embedded 7-point Gauss
rule) on each panel and keeps a max-heap of panels ordered by local error,
always bisecting the worst one.  Endpoints of the requested interval are
never sampled: every node of the 15-point rule is strictly interior to its
panel, which lets integrands be singular (but integrable) at the ends.

The per-panel error estimate follows the classical QUADPACK recipe: the raw
|K15 - G7| difference is damped through the panel's total variation proxy
``resasc`` so that the estimate stays honest on rough integrands without
being wildly pessimistic on smooth ones.

Known kinks of the integrand (the knots of a tabulated function) can be
passed as breakpoints, as in QUADPACK's QAGP: the initial panels then end at
them, and all of their nodes go to the integrand in one call, so an
integrand smooth between its knots usually converges without any bisection.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainExceeded, NonPositiveInput, ToleranceNotReached

__all__ = ["QuadResult", "integrate"]

# 15-point Kronrod abscissae on (-1, 1), ascending.  Odd indices (1, 3, ...,
# 13) are the embedded 7-point Gauss nodes.  Values as tabulated for the
# classical (G7, K15) pair.
_XGK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)

_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)

_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

_EPS = float(np.finfo(float).eps)
_DEFAULT_BUDGET = 10_000


@dataclass(frozen=True)
class QuadResult:
    """Value of an integral together with the engine's own error bound.

    ``converged`` is False only on the result a ToleranceNotReached carries:
    the subdivision budget ran out before the error estimate met the
    tolerance, and the value and estimate are the best available.
    """

    value: float
    error_estimate: float
    subdivisions: int
    converged: bool = True


def _panel(integrand, lo, hi):
    """K15 value and QUADPACK-style error estimate on one panel."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = center + half * _XGK
    fx = np.asarray(integrand(nodes), dtype=float)
    resk = half * float(_WGK @ fx)
    resg = half * float(_WG @ fx[1::2])
    resabs = half * float(_WGK @ np.abs(fx))
    mean = resk / (hi - lo)
    resasc = half * float(_WGK @ np.abs(fx - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    err = max(err, 50.0 * _EPS * resabs)
    return resk, err


def _panels(integrand, edges):
    """K15 values and error estimates on every panel between ``edges``.

    ``_panel``'s rule and error estimate, row by row, with the nodes of all
    panels evaluated in a single integrand call; einsum keeps each row's
    summation order independent of the panel count.
    """
    lo, hi = edges[:-1], edges[1:]
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = center[:, None] + half[:, None] * _XGK
    fx = np.asarray(integrand(nodes.ravel()), dtype=float).reshape(nodes.shape)
    resk = half * np.einsum("ij,j->i", fx, _WGK)
    resg = half * np.einsum("ij,j->i", fx[:, 1::2], _WG)
    resabs = half * np.einsum("ij,j->i", np.abs(fx), _WGK)
    mean = resk / (hi - lo)
    resasc = half * np.einsum("ij,j->i", np.abs(fx - mean[:, None]), _WGK)
    err = np.abs(resk - resg)
    damp = (resasc != 0.0) & (err != 0.0)
    err[damp] = resasc[damp] * np.minimum(
        1.0, (200.0 * err[damp] / resasc[damp]) ** 1.5
    )
    err = np.maximum(err, 50.0 * _EPS * resabs)
    return resk, err


def integrate(integrand, lo, hi, tol=1e-10, *, breakpoints=(),
              max_subdivisions=_DEFAULT_BUDGET):
    """Integrate ``integrand`` over (lo, hi) to the requested tolerance.

    ``integrand`` is called with a numpy vector of strictly interior nodes
    and must return the values elementwise.  The target is
    ``max(tol, tol * |value|)`` -- i.e. ``tol`` acts as an absolute floor
    and a relative goal at the same time.

    ``breakpoints`` are abscissae where the integrand may be non-smooth;
    those strictly inside (lo, hi) split the interval into the initial
    panels, which are evaluated in one integrand call.  The result returns
    at once if they meet the target; otherwise they are bisected like any
    other panel.  ``max_subdivisions`` bounds the panel count over and above
    these initial panels, so every breakpoint is honoured.

    On budget exhaustion ToleranceNotReached is raised with the flagged
    best-effort result (``converged=False``) attached as ``result``.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainExceeded("integration bounds must be finite")
    if hi <= lo:
        raise DomainExceeded(f"empty or inverted interval [{lo:g}, {hi:g}]")
    if tol <= 0.0:
        raise NonPositiveInput("tolerance must be positive")

    cuts = ()
    if len(breakpoints):
        cuts = np.asarray(breakpoints, dtype=float)
        cuts = cuts[(cuts > lo) & (cuts < hi)]
    if len(cuts):
        edges = np.concatenate(([lo], np.unique(cuts), [hi]))
        values, errs = _panels(integrand, edges)
        total_value = float(np.sum(values))
        total_err = float(np.sum(errs))
        panels = len(values)
        if total_err <= max(tol, tol * abs(total_value)):
            return QuadResult(total_value, total_err, panels, converged=True)
        edges = edges.tolist()
        heap = [
            (-e, k, plo, phi, v, e)
            for k, (plo, phi, v, e) in enumerate(
                zip(edges, edges[1:], values.tolist(), errs.tolist())
            )
        ]
        heapq.heapify(heap)
        seq = panels - 1
    else:
        value, err = _panel(integrand, lo, hi)
        seq = 0
        heap = [(-err, seq, lo, hi, value, err)]
        total_value = value
        total_err = err
        panels = 1
    budget = max_subdivisions + panels - 1
    narrow_sum = 0.0  # error stuck in panels too narrow to split further
    min_width = 8.0 * _EPS * (hi - lo)

    while total_err > max(tol, tol * abs(total_value)):
        if panels >= budget or not heap:
            raise ToleranceNotReached(
                f"error {total_err:.3e} above tolerance after {panels} panels",
                QuadResult(total_value, total_err, panels, converged=False),
            )
        _, _, plo, phi, pval, perr = heapq.heappop(heap)
        if phi - plo <= max(min_width, 8.0 * _EPS * max(abs(plo), abs(phi))):
            # Cannot be refined at this precision; park its error.
            narrow_sum += perr
            if not heap and narrow_sum >= total_err:
                raise ToleranceNotReached(
                    "interval fully refined to machine width",
                    QuadResult(total_value, total_err, panels, converged=False),
                )
            continue
        mid = 0.5 * (plo + phi)
        lval, lerr = _panel(integrand, plo, mid)
        rval, rerr = _panel(integrand, mid, phi)
        total_value += lval + rval - pval
        total_err += lerr + rerr - perr
        panels += 1
        seq += 1
        heapq.heappush(heap, (-lerr, seq, plo, mid, lval, lerr))
        seq += 1
        heapq.heappush(heap, (-rerr, seq, mid, phi, rval, rerr))

    return QuadResult(total_value, total_err, panels, converged=True)
