"""Vector-valued, globally adaptive Chebyshev-Fejer integration with open endpoints.

One kernel, ``cumulative``, integrates every column of a matrix-valued
integrand from ``lo`` up to each of a sorted set of cut points.  All outputs
share one subdivision of (lo, last cut], as in DCUHRE (Berntsen, Espelid and
Genz, ACM TOMS 17, 1991): the cuts and any breakpoints (a table's knots,
where the integrand may be non-smooth, as in QUADPACK's QAGP) are edges of
the initial panels, and every panel serves each cut above it.

Each panel is sampled at the 16 Chebyshev points of the first kind, and its
value is Fejer's first rule, the exact integral of the interpolant at those
points (Trefethen, Approximation Theory and Approximation Practice, 2013,
ch. 19), with weights computed at import.  Endpoints are never sampled:
every node is strictly interior to its panel, which lets integrands be
singular (but integrable) at the ends.  The raw error is read off the tail
of the interpolant's Chebyshev series, 2 * half-width * max |c_12..c_15|
(O'Hara and Smith, Comput. J. 11(2), 1968), and damped as QUADPACK damps
its |K15 - G7|, through the panel's total variation proxy ``resasc``, so
that the estimate stays honest on rough integrands without being wildly
pessimistic on smooth ones.  The sampler models a CDF with the same
interpolants on the same panels, so this module owns the one panel model:
the nodes, the weights and the maps to Chebyshev coefficients.

An output -- one column integrated up to one cut -- carries the sum of its
panels' error estimates and must meet its own target ``tol * max(unit,
|value|)``: a relative tolerance with an absolute floor in the output's own
unit.  Refinement runs in rounds.  Each round bisects every panel whose error
is at least a quarter of the largest panel error under a failing output
(maximum marking), and evaluates all the new panels together, in calls of a
bounded number of panels so that the working arrays stay small.

The panel at ``lo`` is the exception when it comes back marked right after
a split, as at an algebraic endpoint singularity.  Its two halves give the
rate s at which its integral shrinks (like h^s), and it is cut at once at
every dyadic point toward ``lo`` that bisection would reach in the rounds its
error needs at that rate: a geometric mesh toward the singular end (Davis &
Rabinowitz, 1984).  Where the end converges fast, that is one bisection.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainExceeded, ToleranceNotReached, _Record

__all__ = ["QuadResult", "cumulative"]

# Each panel is sampled at the _CHEB_N Chebyshev points of the first kind,
# which are interior: no panel's ends are evaluated.
_CHEB_N = 16
_THETA = (2.0 * np.arange(_CHEB_N)[::-1] + 1.0) * np.pi / (2.0 * _CHEB_N)
_CHEB_NODES = np.cos(_THETA)  # ascending on (-1, 1)
# The last _TAIL Chebyshev coefficients of a panel's interpolant estimate
# its error.
_TAIL = 4


def _model_maps():
    """Matrices taking g at the nodes to the Chebyshev coefficients of its
    interpolant (n of them) and of the interpolant's integral from -1 (n + 1),
    and the Fejer weights that integrate the interpolant over (-1, 1)."""
    n = _CHEB_N
    to_g = (2.0 / n) * np.cos(np.outer(np.arange(n), _THETA))
    to_g[0] *= 0.5
    # integral of T_0 is T_1; of T_k, T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1))
    integ = np.zeros((n + 1, n))
    integ[1, 0] = 1.0
    for k in range(1, n):
        integ[k + 1, k] = 0.5 / (k + 1)
        integ[k - 1, k] -= 0.5 / (k - 1) if k > 1 else 0.0
    # zero at x = -1, where T_k = (-1)**k; einsum, not matmul: a first BLAS
    # call at import would add ~0.4 MB of buffers to every process
    integ[0] = -np.einsum("k,kj->j", (-1.0) ** np.arange(1, n + 1), integ[1:])
    # Fejer's first rule: w_j = (2/n) (1 - 2 sum_m cos(2 m theta_j) / (4 m^2 - 1))
    # for m = 1 .. n/2, each angle 2 m theta_j = m (2j + 1) pi / n reduced
    # exactly into [0, pi], so the weights are symmetric and good to an ulp
    m = np.arange(1, n // 2 + 1)
    r = np.outer(2 * np.arange(n)[::-1] + 1, m) % (2 * n)
    cos = np.cos(np.minimum(r, 2 * n - r) * (np.pi / n))
    weights = (2.0 / n) * (1.0 - 2.0 * np.einsum("jm,m->j", cos, 1.0 / (4.0 * m * m - 1.0)))
    return to_g, np.einsum("ik,kj->ij", integ, to_g), weights


_TO_G, _TO_P, _WEIGHTS = _model_maps()

_EPS = float(np.finfo(float).eps)
# No panel's error estimate is below this share of its integral of |f|, so
# no output's error sum is below this share of its integral of |f| either.
_ERROR_FLOOR = 50.0 * _EPS
_DEFAULT_BUDGET = 10_000
# Panels per integrand call: bounds the (panels, _CHEB_N, columns) working arrays.
_CHUNK = 128
# A panel is bisected when its error is at least this share of the largest
# panel error under some failing output.
_MARK = 0.25


class QuadResult(_Record):
    """Values of the integrals together with the engine's own error bounds,
    every one of which met its target.

    ``value`` and ``error_estimate`` are (cuts, columns) arrays, and
    ``edges`` are the final panels' edges, ascending from ``lo`` to the last
    cut, every cut and breakpoint among them.
    """

    fields = ("value", "error_estimate", "edges")


def _nodes(lo, hi):
    """The half-widths, (panels, 1), and the nodes, (panels, _CHEB_N), of
    the panels (lo, hi)."""
    half = 0.5 * (hi - lo)[:, None]
    return half, 0.5 * (lo + hi)[:, None] + half * _CHEB_NODES


def _rule(integrand, lo, hi):
    """Fejer values and error estimates, each (panels, columns), on (lo, hi).

    All nodes go to the integrand in one call; einsum keeps each entry's
    summation order independent of the panel and column counts.
    """
    half, nodes = _nodes(lo, hi)
    fx = np.asarray(integrand(nodes.ravel()), dtype=float)
    fx = fx.reshape(len(lo), _CHEB_N, -1)
    value = half * np.einsum("ijc,j->ic", fx, _WEIGHTS)
    tail = np.einsum("ijc,kj->ikc", fx, _TO_G[-_TAIL:])
    err = 2.0 * half * np.abs(tail).max(axis=1)
    work = np.abs(fx)
    resabs = half * np.einsum("ijc,j->ic", work, _WEIGHTS)
    mean = value / (2.0 * half)
    np.abs(np.subtract(fx, mean[:, None], out=work), out=work)
    resasc = half * np.einsum("ijc,j->ic", work, _WEIGHTS)
    damp = (resasc != 0.0) & (err != 0.0)
    err[damp] = resasc[damp] * np.minimum(
        1.0, (200.0 * err[damp] / resasc[damp]) ** 1.5
    )
    return value, np.maximum(err, _ERROR_FLOOR * resabs)


def _wide(plo, phi, min_width):
    """Whether the panels (plo, phi) are wide enough to split."""
    return phi - plo > np.maximum(
        min_width, 8.0 * _EPS * np.maximum(np.abs(plo), np.abs(phi))
    )


def _panels(integrand, lo, hi):
    """``_rule`` on (lo, hi), at most ``_CHUNK`` panels per integrand call."""
    val = err = None
    for start in range(0, len(lo), _CHUNK):
        stop = start + _CHUNK
        v, e = _rule(integrand, lo[start:stop], hi[start:stop])
        if val is None:
            val, err = np.empty((len(lo), v.shape[1])), np.empty((len(lo), v.shape[1]))
        val[start:stop], err[start:stop] = v, e
    return val, err


def cumulative(integrand, lo, cuts, tol=1e-10, *, units=1.0, breakpoints=()):
    """Integrals of every column of ``integrand`` over (lo, cut], per cut.

    ``integrand`` is called with a numpy vector of strictly interior nodes
    and returns an (n, m) array, one column per quantity (or an (n,) array
    for m = 1).  ``cuts`` must be finite and strictly increasing above
    ``lo``.  The result's ``value`` and ``error_estimate`` are (len(cuts), m)
    arrays.

    ``tol`` and ``units`` broadcast to that shape: output (j, c) converges
    when its error estimate is at most ``tol[j, c] * max(units[j, c],
    |value[j, c]|)``.  An infinite unit leaves an output unreported, so it
    never drives the refinement.  ``breakpoints`` strictly inside (lo,
    cuts[-1]) are edges of the initial panels.  The module's budget of
    ``_DEFAULT_BUDGET`` panels bounds the panel count over and above the
    initial panels, so every cut and breakpoint is honoured.

    Either every output meets its target or ToleranceNotReached is raised,
    naming the worst error and the panel count when the budget runs out, or
    saying that the failing panels are at machine width.
    """
    lo = float(lo)
    cuts = np.atleast_1d(np.asarray(cuts, dtype=float))
    if (cuts.ndim != 1 or not cuts.size or not math.isfinite(lo)
            or not np.isfinite(cuts).all()):
        raise DomainExceeded("integration bounds must be finite")
    if cuts[0] <= lo or (cuts[1:] <= cuts[:-1]).any():
        raise DomainExceeded(f"empty or inverted interval [{lo:g}, {cuts[0]:g}]")
    if not (np.asarray(tol) > 0.0).all():
        raise DomainExceeded("tolerance must be positive")

    hi = float(cuts[-1])
    inner = np.asarray(breakpoints, dtype=float).ravel()
    # sorted and deduplicated by hand: a plain np.unique asks np.ma.is_masked
    # and so imports numpy.ma (~14 ms); with return_inverse it does not
    edges = np.sort(np.concatenate(([lo], inner[(inner > lo) & (inner < hi)], cuts)))
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    val, err = _panels(integrand, edges[:-1], edges[1:])
    units = np.broadcast_to(np.asarray(units, dtype=float), (cuts.size, val.shape[1]))
    tol = np.broadcast_to(np.asarray(tol, dtype=float), units.shape)
    budget = _DEFAULT_BUDGET + len(val) - 1
    min_width = 8.0 * _EPS * (hi - lo)

    split_lo = False  # whether the last round split the panel at lo
    while True:
        ends = np.searchsorted(edges, cuts)  # panels below each cut
        starts = np.concatenate(([0], ends[:-1]))
        value = np.add.reduceat(val, starts).cumsum(axis=0)
        error = np.add.reduceat(err, starts).cumsum(axis=0)
        target = tol * np.maximum(units, np.abs(value))
        failing = error > target
        if not failing.any():
            return QuadResult(value, error, edges)

        plo, phi = edges[:-1], edges[1:]
        ratio = np.where(_wide(plo, phi, min_width)[:, None], err, 0.0)
        # Largest splittable panel error under each output; a failing
        # output marks the panels within _MARK of it.  A panel lies under
        # every cut from its own segment on, so it takes the lowest
        # threshold among those.
        peak = np.maximum.accumulate(np.maximum.reduceat(ratio, starts), axis=0)
        thresh = np.where(failing & (peak > 0.0), _MARK * peak, np.inf)
        thresh = np.minimum.accumulate(thresh[::-1], axis=0)[::-1]
        ratio /= np.repeat(thresh, ends - starts, axis=0)
        score = ratio.max(axis=1)
        marked = (score >= 1.0).nonzero()[0]
        room = budget - len(val)
        if not marked.size or room <= 0:
            worst = float(np.max(error[failing]))
            reason = (f"error {worst:.3e} above tolerance after {len(val)} panels"
                      if marked.size else "interval fully refined to machine width")
            raise ToleranceNotReached(reason)
        if marked.size > room:
            worst_first = np.argsort(-score[marked], kind="stable")
            marked = np.sort(marked[worst_first[:room]])

        new = 0.5 * (plo[marked] + phi[marked])
        at = marked + 1
        if split_lo and marked[0] == 0:
            # The two panels at lo are the halves of the last one there.  If
            # the integral shrinks like h^s toward lo, V0 + V1 = 2^s V0, and
            # each halving divides the error at lo by 2^s: cut at once at
            # every point the bisections that error needs would reach.
            with np.errstate(all="ignore"):
                s = np.log2(1.0 + val[1] / val[0])
                tightest = np.min(np.where(failing, target, np.inf), axis=0)
                need = np.log2(err[0] / tightest) / s
            need = need[(s > 0.0) & np.isfinite(need)]
            depth = min(math.ceil(max(need, default=1.0)), room - marked.size + 1)
            geo = [new[0]]
            while len(geo) < depth and _wide(lo, geo[-1], min_width):
                geo.append(0.5 * (lo + geo[-1]))
            new = np.concatenate((geo[::-1], new[1:]))
            at = np.concatenate((np.ones(len(geo) - 1, dtype=int), at))
        split_lo = marked[0] == 0

        edges = np.insert(edges, at, new)
        fresh = np.zeros(len(edges) - 1, dtype=bool)
        placed = at + np.arange(at.size)  # where the new edges landed
        fresh[placed - 1] = fresh[placed] = True
        fval, ferr = _panels(integrand, edges[:-1][fresh], edges[1:][fresh])
        slots = fresh.nonzero()[0] - np.arange(len(fval))  # old panels below
        val = np.insert(np.delete(val, marked, axis=0), slots, fval, axis=0)
        err = np.insert(np.delete(err, marked, axis=0), slots, ferr, axis=0)
