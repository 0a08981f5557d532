"""Sampling from the normalized measure with density f / F(a) on (0, a].

The measure puts mass f(x) dx / F(a) on (0, a]; its mean reproduces the
centroid abscissa H/F, and the mean of f under it reproduces twice the
centroid ordinate, G/F.  Draws come from inverse-CDF transform of uniform
variates, so a stream of uniforms maps deterministically to a stream of
draws.

Power laws invert in closed form.  Every other spec goes through a table
of cumulative masses on 256 knot intervals, built once per (spec, a, tol)
by one cumulative quadrature pass; the sampling state holds the table and
applies either inverse itself.  A draw starts from a cubic Hermite
interpolant of the inverse CDF on its knot interval, with exact end slopes
1/g (the PINV idea of Derflinger, Hoermann and Leydold, ACM TOMACS 20(4),
2010); its CDF residual is then checked with one 15-point Kronrod panel
from the interval's left knot, and only draws that miss the tolerance take
bracketed Newton steps.  Each draw's arithmetic depends on its own uniform
alone, never on the rest of the batch, so a batch is solved in blocks of
2**14 draws: the working arrays stay near 2 MB for any batch size, and the
draws are bit-identical to one unblocked solve.  The table's masses are
computed to min(1e-12, tol / 100), but no tighter than the 1e-14 the
kernel can reach.

Randomness is counter-based (Philox) and keyed by the seed: states with
equal seeds produce identical draws on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox  # at import time, not on the first draw

from .errors import DomainExceeded, ToleranceNotReached
from .functions import PowerLaw
from .quadrature import cumulative
# The raw 15-point rule is reused for local CDF refinements inside a table
# interval; its nodes are strictly interior, so x = 0 is never touched.
from .quadrature import _WGK, _XGK

__all__ = ["SamplerState", "MCEstimate", "mc_estimates"]

_TABLE_INTERVALS = 256
# Draws per quantile solve: (2**14, 15) float64 node arrays are 2 MB.
_QUANTILE_BLOCK = 2**14
# The tightest relative tolerance the K15 kernel meets on O(1) masses (it
# stalls near 5e-15); a draw's own residual is held to max(tol, 1e-9).
_TABLE_TOL_FLOOR = 1e-14
# Newton converges in a few steps; the cap also covers a run of bisection
# fallbacks from a 2**-8 wide knot interval down to ~2**-58.
_NEWTON_STEPS = 50
_MIN_ESTIMATE_N = 100


class _CdfTable:
    """Cumulative integrals of the profile g(s) = f(a s)/f(a) on a knot grid.

    Working in profile units keeps every entry O(1) regardless of the
    spec's amplitude or the scale, so the quadrature's absolute floor stays
    meaningful.  Each interval also stores the cubic Hermite
    interpolant of its inverse CDF s(t), whose end slopes ds/dt = 1/g come
    from g at the knots; it supplies the starting guess of every quantile.
    """

    def __init__(self, spec, a, tol):
        self.spec = spec
        self.a = a
        self.fa = spec.eval(a)
        lo = spec.support[0]
        self.s_lo = lo / a
        if self.s_lo == 0.0 < lo:
            raise DomainExceeded(
                f"a={a:g}: the table floor {lo:g} underflows to 0 in units of a"
            )
        self.knots = np.linspace(self.s_lo, 1.0, _TABLE_INTERVALS + 1)
        # One pass gives the mass up to every knot, each within
        # min(1e-12, 0.01 tol) but no tighter than the kernel reaches: the
        # masses are at most 1 in profile units.  Knots that overflow in
        # those units lie above 1, where the pass drops them.
        with np.errstate(over="ignore"):
            breakpoints = spec.knots / a
        res = cumulative(self._g, self.s_lo, self.knots[1:],
                         max(_TABLE_TOL_FLOOR, min(1e-12, 0.01 * tol)),
                         breakpoints=breakpoints)
        self.cum = np.concatenate(([0.0], res.value[:, 0]))
        self.total = float(self.cum[-1])
        masses = np.diff(self.cum)

        # Hermite coefficients in tau = (t - cum_k) / mass_k on each interval:
        # s = s_k + tau (d0 + tau (c2 + tau c3)), with end tangents
        # d = mass_k / g in s units.  An analytic spec has g(0+) = 0 at the
        # first knot, whose tangent falls back to the chord.
        width = np.diff(self.knots)
        if self.s_lo > 0.0:
            g_knots = self._g(self.knots)
            self._d0 = masses / g_knots[:-1]
        else:
            g_knots = np.concatenate(([0.0], self._g(self.knots[1:])))
            self._d0 = np.concatenate(([width[0]], masses[1:] / g_knots[1:-1]))
        d1 = masses / g_knots[1:]
        self._c2 = 3.0 * width - 2.0 * self._d0 - d1
        self._c3 = self._d0 + d1 - 2.0 * width

    def _g(self, s):
        return np.asarray(self.spec.eval(self.a * s)) / self.fa

    def _local_cdf(self, base_idx, s):
        """cum at left knot plus a single K15 panel from that knot to s."""
        left = self.knots[base_idx]
        center = 0.5 * (left + s)
        half = 0.5 * (s - left)
        nodes = center[:, None] + half[:, None] * _XGK[None, :]
        # Guard the degenerate s == left case; nodes collapse to the knot.
        np.maximum(nodes, np.nextafter(self.s_lo, 1.0), out=nodes)
        gv = self._g(nodes.ravel()).reshape(nodes.shape)
        # einsum, not a BLAS gemv: a fixed per-row summation order that does
        # not depend on the row count, and no BLAS threads for a 15-wide dot.
        return self.cum[base_idx] + half * np.einsum("ij,j->i", gv, _WGK)

    def quantiles(self, u, tol):
        """Solve int_{s_lo}^{s} g = u * total for each u, vectorized.

        Every draw starts from the interval's Hermite guess and has its
        residual checked once; only the draws that miss ``tol * total`` take
        safeguarded Newton steps inside their shrinking bracket.  Draws are
        solved in blocks of ``_QUANTILE_BLOCK``, which bounds the (block, 15)
        node arrays of the residual checks at 2 MB whatever the draw count;
        since a draw's arithmetic never depends on its neighbours, blocking
        does not change a bit of the result.
        """
        t = np.asarray(u, dtype=float) * self.total
        s = np.empty_like(t)
        worst = 0.0
        for start in range(0, t.size, _QUANTILE_BLOCK):
            block = slice(start, start + _QUANTILE_BLOCK)
            s[block], resid = self._solve_block(t[block], tol)
            worst = np.maximum(worst, np.max(np.abs(resid)))
        if worst > max(tol, 1e-9) * self.total:
            raise ToleranceNotReached(
                f"quantile residual {worst:.3e} above tolerance"
            )
        return s

    def _solve_block(self, t, tol):
        """Quantiles of the masses t and their CDF residuals."""
        idx = np.searchsorted(self.cum, t, side="right") - 1
        idx = np.clip(idx, 0, _TABLE_INTERVALS - 1)
        lo = self.knots[idx]
        hi = self.knots[idx + 1]
        tau = (t - self.cum[idx]) / (self.cum[idx + 1] - self.cum[idx])
        s = lo + tau * (self._d0[idx] + tau * (self._c2[idx] + tau * self._c3[idx]))
        np.clip(s, lo, hi, out=s)
        resid = self._local_cdf(idx, s) - t

        goal = tol * self.total
        act = np.flatnonzero(np.abs(resid) > goal)
        lo, hi, sa, ra = lo[act], hi[act], s[act], resid[act]
        for _ in range(_NEWTON_STEPS):
            if not act.size:
                break
            above = ra > 0.0
            hi = np.where(above, sa, hi)
            lo = np.where(above, lo, sa)
            step = sa - ra / self._g(sa)
            new = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            ra = self._local_cdf(idx[act], new) - t[act]
            s[act] = new
            resid[act] = ra
            # A bracket too narrow to halve cannot move the draw any more.
            keep = (np.abs(ra) > goal) & (new != sa)
            act, lo, hi, sa, ra = act[keep], lo[keep], hi[keep], new[keep], ra[keep]
        return s, resid


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo means of x and f(x) with their standard errors."""

    mean_x: float
    mean_fx: float
    stderr_x: float
    stderr_fx: float
    n: int


class SamplerState:
    """Deterministic sampling state for one (spec, a) pair.

    The seed fully determines the draw sequence.  A power law inverts in
    closed form, a * u**(1/(p+1)); any other spec gets its CDF table, built
    once, here.
    """

    def __init__(self, spec, a, seed, tol=1e-10):
        self.spec = spec
        self.a = spec.check_scale(a)
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        key = np.array([self.seed, 0], dtype=np.uint64)
        self._gen = Generator(Philox(key=key))
        self._tol = tol
        self._table = None if isinstance(spec, PowerLaw) else _CdfTable(spec, self.a, tol)

    def draw(self, n):
        n = int(n)
        if n <= 0:
            raise DomainExceeded("draw count must be positive")
        u = self._gen.random(n)
        # random() can emit exactly 0, whose quantile sits outside the open
        # support; nudge to the smallest positive double instead.
        u[u == 0.0] = np.nextafter(0.0, 1.0)
        if self._table is None:
            return self.a * u ** (1.0 / (self.spec.p + 1.0))
        return self.a * self._table.quantiles(u, self._tol)


def mc_estimates(state, n):
    """Means of x and f(x) over n fresh draws, with standard errors.

    Requires n >= 100 so the standard errors mean something.
    """
    n = int(n)
    if n < _MIN_ESTIMATE_N:
        raise DomainExceeded(
            f"need at least {_MIN_ESTIMATE_N} draws for an estimate, got {n}"
        )
    xs = state.draw(n)
    fxs = np.asarray(state.spec.eval(xs), dtype=float)
    return MCEstimate(
        mean_x=float(np.mean(xs)),
        mean_fx=float(np.mean(fxs)),
        stderr_x=float(np.std(xs, ddof=1) / math.sqrt(n)),
        stderr_fx=float(np.std(fxs, ddof=1) / math.sqrt(n)),
        n=n,
    )
