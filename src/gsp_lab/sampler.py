"""Sampling from the normalized measure with density f / F(a) on (0, a].

The measure puts mass f(x) dx / F(a) on (0, a]; its mean reproduces the
centroid abscissa H/F, and the mean of f under it reproduces twice the
centroid ordinate, G/F.  Draws come from inverse-CDF transform of uniform
variates, so a stream of uniforms maps deterministically to a stream of
draws.

Power laws invert in closed form.  Every other spec goes through a model
of its CDF, built once per (spec, a, tol); the sampling state holds it and
applies either inverse itself.  One cumulative quadrature pass gives the
mass up to each of 256 equal cuts, computed to min(1e-12, tol / 100) but no
tighter than twice the kernel's error floor, 100 machine epsilons of the
masses' unit, 1.  The kernel's final panels are the model's pieces,
interpolation on the quadrature's own intervals (the PINV layout of
Derflinger, Hoermann and Leydold, ACM TOMACS 20(4), 2010): the cuts and a
table's knots are among their edges, and the panels toward 0, where
g ~ s**p is not smooth, are cut geometrically.  On each piece the model is
the interpolant of g at the kernel's 16 Chebyshev points, the one the
kernel integrated there and whose error it held to its target, integrated
exactly, so the CDF there is the sum of the masses below plus a Chebyshev
series (Trefethen, Approximation Theory and Approximation Practice, 2013).

A draw finds its piece through a guide table and starts from a cubic
Hermite interpolant of the inverse CDF on it, with exact end slopes 1/g,
as PINV does.  Its CDF residual is read off the piece's model by Clenshaw's
recurrence, and only draws whose residual misses tol times the total mass
take bracketed Newton steps, with the slope from the model's derivative:
no draw evaluates the spec.

Every run works one block of 2**14 draws at a time, from the uniforms to
the output, in arrays made once per run and sized to one block, and each
draw's arithmetic depends on its own uniform alone, so the draws are
bit-identical whatever the blocking.  ``draw`` holds its n draws, 8 bytes
each, plus the uniforms and the quantile solve's eight rows, and the few
arrays of the draws that take Newton steps (1.4 MB at the tracemalloc peak
on the perturbed family); ``mc_estimates`` holds one block's working arrays
alone, whatever n, since it reduces each block to its moments before
drawing the next.

Randomness is counter-based (Philox) and keyed by the seed, one 64-bit
word; a seed outside [0, 2**64) is refused rather than wrapped onto another.
States with equal seeds produce identical draws for one numpy version on
one SIMD path.  numpy's power, exp and log may round differently on another
path, so there the draws agree to about 1 ulp: ``sample --family power --p 2
--n 20000 --seed 7`` differs on 1,216 of its 20,000 lines between numpy's
AVX-512 path and the path with AVX-512 off.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainExceeded, ToleranceNotReached, _Record
from .functions import _TINY_NORMAL, PowerLaw
from .quadrature import _CHEB_N, _ERROR_FLOOR, _TO_G, _TO_P, _nodes, cumulative

__all__ = ["SamplerState", "MCEstimate", "mc_estimates"]

_TABLE_INTERVALS = 256
# Draws per block, in every mode; a run makes its block arrays once.  The
# quantile solve peaks at 1.4 MB (tracemalloc, perturbed family) and the
# %.17g formatting at 1.3 MB, its text included (on unit draws and on a mix
# across 23 decades alike).
_BLOCK = 2**14
# The kernel's error sum on a mass never falls below _ERROR_FLOOR of it, and
# the masses are at most ~1 in profile units, the unit of its target: twice
# that leaves the kernel room to meet it at any exponent, so its panels, the
# model's pieces, always exist.  A draw's residual is held to max(tol, 1e-9).
_TABLE_TOL_FLOOR = 2.0 * _ERROR_FLOOR
# Newton converges in a few steps; the cap also covers a run of bisection
# fallbacks from a piece at most 2**-8 wide down to ~2**-58.
_NEWTON_STEPS = 50
_MIN_ESTIMATE_N = 100
# Philox's key word: a seed is one uint64, so no two seeds share a stream.
_SEED_LIMIT = 2**64

_TINY = math.ulp(0.0)  # the smallest positive double


def _lowest(a):
    """The floor of a draw in units of a: a times it rounds to a positive
    double, and it is at most 1, so every draw a s lies in (0, a]."""
    return _TINY / min(a, 1.0)


# np.take(..., mode="clip") throughout: every index taken is a piece's, and
# the default mode, "raise", fills a copy of out before writing out itself.
def _clenshaw(coef, idx, x, work):
    """sum_k coef[k, idx] T_k(x) (Clenshaw's recurrence), one row of coef at a
    time, written over x; work is five scratch rows at least x.size long."""
    x2, b1, b2, tmp, row = (w[:x.size] for w in work)
    np.multiply(2.0, x, out=x2)
    np.take(coef[-1], idx, out=b1, mode="clip")
    b2.fill(0.0)
    for c in coef[-2:0:-1]:
        np.multiply(x2, b1, out=tmp)
        np.add(np.take(c, idx, out=row, mode="clip"), tmp, out=tmp)
        tmp -= b2
        b1, b2, tmp = tmp, b1, b2
    np.multiply(x, b1, out=x)
    np.add(np.take(coef[0], idx, out=row, mode="clip"), x, out=x)
    return np.subtract(x, b2, out=x)


class _CdfTable:
    """A model of the CDF of the profile g(s) = f(a s)/f(a).

    Working in profile units keeps every entry O(1) regardless of the
    spec's amplitude or the scale, so the quadrature's absolute floor stays
    meaningful.  It keeps the tolerance it was built for and the piece edges
    with the cumulative mass at each; each piece -- a panel of the kernel's
    pass -- keeps the Chebyshev coefficients of g and of g's integral from
    its left edge (its CDF model), and the cubic Hermite interpolant of its
    inverse CDF s(t), whose end slopes ds/dt = 1/g come from g at the
    edges; that interpolant supplies the starting guess of every quantile.
    Midpoints, widths and masses are recomputed from the edges and
    cumulative masses where they are needed.
    """

    def __init__(self, spec, a, tol):
        self.spec = spec
        self.a = a
        self.tol = tol
        self.fa = spec.eval(a)
        # Knots that overflow in units of a lie above 1, where the kernel
        # drops them; subnormal ones would give panels whose nodes round to 0.
        with np.errstate(over="ignore"):
            breaks = spec.knots / a
        # The masses are at most 1 in profile units: the kernel computes them
        # to min(1e-12, 0.01 tol), but no tighter than it reaches.
        kernel_tol = max(_TABLE_TOL_FLOOR, min(1e-12, 0.01 * tol))
        cuts = np.linspace(0.0, 1.0, _TABLE_INTERVALS + 1)[1:]
        # The kernel's panels are the pieces, and a piece's model is the
        # interpolant the kernel integrated there, at the same nodes.  One
        # spec evaluation gives g at the nodes of up to a block's worth of
        # pieces, 1,024, so a table of many knots never holds more than a
        # block of nodes; einsum, not a BLAS gemm, keeps a fixed summation
        # order per piece.  A piece's mass is its model read at x = 1, as a
        # draw reads it, so the model is continuous across edges.
        self.edges = cumulative(self._g, 0.0, cuts, kernel_tol,
                                breakpoints=breaks[breaks >= _TINY_NORMAL]).edges
        width = np.diff(self.edges)
        half = 0.5 * width
        pieces = width.size
        values = np.empty((pieces, _CHEB_N))
        for i in range(0, pieces, _BLOCK // _CHEB_N):
            part = slice(i, i + _BLOCK // _CHEB_N)
            _, nodes = _nodes(self.edges[:-1][part], self.edges[1:][part])
            values[part] = self._g(nodes.ravel()).reshape(nodes.shape)
        self._g_coef = np.einsum("pj,kj->kp", values, _TO_G)
        self._p_coef = np.einsum("pj,kj->kp", values, _TO_P)
        self._p_coef *= half
        del values  # before the masses' workspace and the guide table
        masses = _clenshaw(self._p_coef, np.arange(pieces), np.ones(pieces),
                           np.empty((5, pieces)))
        self.cum = np.concatenate(([0.0], np.cumsum(masses)))
        self.total = float(self.cum[-1])

        # The guide table: cell k of the masses starts in piece _guide[k],
        # the last piece whose left mass falls in a lower cell.
        self._cell_scale = pieces / self.total
        self._upper = np.append(self.cum[1:-1], np.inf)
        cells = self._cell(self.cum, np.empty(self.cum.size, np.intp))
        self._guide = np.maximum(np.searchsorted(cells, np.arange(pieces)) - 1, 0)
        # Hermite coefficients in tau = (t - cum_k) / mass_k on each piece:
        # s = s_k + tau (d0 + tau (c2 + tau c3)), with end tangents
        # d = mass_k / g in s units.  g(0+) = 0 at the first edge, whose
        # tangent falls back to the chord.
        g_right = self._g(self.edges[1:])
        self._d0 = np.concatenate((width[:1], masses[1:] / g_right[:-1]))
        d1 = masses / g_right
        self._c2 = 3.0 * width - 2.0 * self._d0 - d1
        self._c3 = self._d0 + d1 - 2.0 * width

    def _g(self, s):
        return self.spec.eval(self.a * s) / self.fa

    def _cell(self, t, out):
        """The guide-table cell of each mass t, equal shares of the total,
        written over the intp array out."""
        np.multiply(t, self._cell_scale, out=out, casting="unsafe")  # truncated
        return np.minimum(out, self.edges.size - 2, out=out)

    def _locate(self, t, work):
        """The piece of each mass t, ``searchsorted(cum, t, "right") - 1``
        clipped to the pieces, through the guide table (the indexed search of
        Chen and Asau, 1974), written over work[0] as intp, with work[3:6]
        as scratch: a draw steps up at most once from the piece its cell
        starts in, and the few that need more steps (in cells many narrow
        pieces share, as a table's knots near 0 make) take a binary search."""
        n = t.size
        idx, cell, upper = work[0, :n].view(np.intp), work[3, :n].view(np.intp), work[4, :n]
        above = work[5].view(np.bool_)[:n]
        np.take(self._guide, self._cell(t, cell), out=idx, mode="clip")
        np.less_equal(np.take(self._upper, idx, out=upper, mode="clip"), t, out=above)
        np.add(idx, above, out=idx)
        np.less_equal(np.take(self._upper, idx, out=upper, mode="clip"), t, out=above)
        act = np.flatnonzero(above)
        idx[act] = np.searchsorted(self._upper, t[act], "right")
        return idx

    @staticmethod
    def workspace(m):
        """The eight rows ``quantiles`` works in, for blocks of up to m draws."""
        return np.empty((8, m))

    def quantiles(self, u, work):
        """Solve int_0^s g = u * total for each u of a block, and
        return the solutions and their CDF residuals.

        A draw's piece is a panel of the kernel's pass, whose interpolant,
        the piece's CDF model, met the kernel's target.
        Every draw starts from its piece's Hermite guess and has its
        residual, read off the model, checked once; only the draws that miss
        ``tol * total`` take safeguarded Newton steps on the model inside
        their shrinking bracket, reading their pieces' coefficients afresh
        at each step, and none evaluates the spec.  u is overwritten with its
        masses and every other array is a row of work, from ``workspace``:
        the solutions and residuals returned are rows 1 and 2, so a run
        reuses one workspace for every block.  Only the draws that take
        Newton steps get arrays of their own.
        """
        n = u.size
        t = np.multiply(u, self.total, out=u)
        idx = self._locate(t, work)
        s, x, scratch = work[1, :n], work[2, :n], work[3:, :n]
        lo, hi, base, span, tau = scratch
        np.take(self.edges, idx, out=lo, mode="clip")
        np.take(self.edges[1:], idx, out=hi, mode="clip")
        np.take(self.cum, idx, out=base, mode="clip")
        np.subtract(np.take(self.cum[1:], idx, out=span, mode="clip"), base, out=span)
        np.divide(np.subtract(t, base, out=tau), span, out=tau)
        # s = lo + tau (d0 + tau (c2 + tau c3)), clipped to the piece
        np.multiply(tau, np.take(self._c3, idx, out=s, mode="clip"), out=s)
        for c in (self._c2, self._d0):
            np.add(np.take(c, idx, out=span, mode="clip"), s, out=s)
            np.multiply(tau, s, out=s)
        np.add(lo, s, out=s)
        np.clip(s, lo, hi, out=s)
        # x = (s - mid) / half, mid = 0.5 (lo + hi) and half = 0.5 (hi - lo)
        np.multiply(0.5, np.add(lo, hi, out=x), out=x)
        np.multiply(0.5, np.subtract(hi, lo, out=span), out=span)
        np.divide(np.subtract(s, x, out=x), span, out=x)
        resid = _clenshaw(self._p_coef, idx, x, scratch)
        np.add(np.take(self.cum, idx, out=base, mode="clip"), resid, out=resid)
        np.subtract(resid, t, out=resid)

        goal = self.tol * self.total
        miss = work[4].view(np.bool_)[:n]
        act = np.flatnonzero(np.greater(np.abs(resid, out=lo), goal, out=miss))
        lo, hi = self.edges[idx[act]], self.edges[idx[act] + 1]
        for _ in range(_NEWTON_STEPS):
            if not act.size:
                break
            k, sa, ra, ta = idx[act], s[act], resid[act], t[act]
            left, right = self.edges[k], self.edges[k + 1]
            mid, half = 0.5 * (left + right), 0.5 * (right - left)
            above = ra > 0.0
            hi = np.where(above, sa, hi)
            lo = np.where(above, lo, sa)
            with np.errstate(divide="ignore", invalid="ignore"):
                step = sa - ra / _clenshaw(self._g_coef, k, (sa - mid) / half, scratch)
            new = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            ra = self.cum[k] + _clenshaw(self._p_coef, k, (new - mid) / half, scratch) - ta
            s[act] = new
            resid[act] = ra
            # A bracket too narrow to halve cannot move the draw any more.
            keep = (np.abs(ra) > goal) & (new != sa)
            act, lo, hi = act[keep], lo[keep], hi[keep]
        # a mass that underflows (u = 5e-324) solves to s = 0, outside (0, 1]
        np.maximum(s, _lowest(self.a), out=s)
        return s, resid


class MCEstimate(_Record):
    """Monte Carlo means of x and f(x) with their standard errors."""

    fields = ("mean_x", "mean_fx", "stderr_x", "stderr_fx", "n")


class SamplerState:
    """Deterministic sampling state for one (spec, a) pair.

    The seed, an integer in [0, 2**64), fully determines the draw
    sequence.  A power law inverts in closed form, a * u**(1/(p+1)); any
    other spec gets its CDF model, built once, here.
    """

    def __init__(self, spec, a, seed, tol=1e-10):
        self.spec = spec
        self.a = spec.check_scale(a)
        self.seed = int(seed)
        if not 0 <= self.seed < _SEED_LIMIT:
            raise DomainExceeded(f"seed must lie in [0, 2**64), got {self.seed}")
        # Here, not at import: numpy.random costs ~10 ms and 6 MB, which only
        # a process that draws should pay.
        from numpy.random import Generator, Philox
        key = np.array([self.seed, 0], dtype=np.uint64)
        self._gen = Generator(Philox(key=key))
        self._table = None if isinstance(spec, PowerLaw) else _CdfTable(spec, self.a, tol)

    def draw(self, n):
        """The next n draws, as one array."""
        n = int(n)
        if n <= 0:
            raise DomainExceeded("draw count must be positive")
        x = np.empty(n)
        start = 0
        for s in self._blocks(n):
            np.multiply(self.a, s, out=x[start:start + s.size])
            start += s.size
        return x

    def _blocks(self, n):
        """The next n draws in units of a, one block of ``_BLOCK`` at a time.

        A table's draws whose CDF residual stays above ``max(table.tol,
        1e-9)`` of the mass raise ToleranceNotReached, naming the worst, once
        the last block is drawn: the check reads every block, as on one solve.
        """
        worst, table = 0.0, self._table
        m = min(n, _BLOCK)
        u = np.empty(m)
        work = None if table is None else table.workspace(m)
        for start in range(0, n, _BLOCK):
            uk = self._gen.random(out=u[:min(_BLOCK, n - start)])
            # random() can emit exactly 0, whose quantile sits outside the
            # open support; nudge to the smallest positive double instead.
            np.maximum(uk, _TINY, out=uk)
            if table is None:
                uk **= 1.0 / (self.spec.p + 1.0)
                yield np.maximum(uk, _lowest(self.a), out=uk)
                continue
            s, resid = table.quantiles(uk, work)
            worst = np.maximum(worst, np.abs(resid, out=resid).max())
            yield s
        if table is not None and worst > max(table.tol, 1e-9) * table.total:
            raise ToleranceNotReached(
                f"quantile residual {worst:.3e} above tolerance"
            )


def mc_estimates(state, n):
    """Means of x and f(x) over n fresh draws, with standard errors.

    Requires n >= 100 so the standard errors mean something.  The draws
    are those of ``state.draw(n)``, but never held together: each block is
    reduced to the count, means and summed squared deviations of x/a and
    f(x)/f(a), merged into the running ones by the pairwise update of Chan,
    Golub and LeVeque (Am. Stat. 37(3), 1983).  The memory is one block's
    for any n, and the profile units keep the squares inside the float64
    range at any scale and amplitude; the results are scaled back at the end.
    """
    n = int(n)
    if n < _MIN_ESTIMATE_N:
        raise DomainExceeded(
            f"need at least {_MIN_ESTIMATE_N} draws for an estimate, got {n}"
        )
    a, spec = state.a, state.spec
    fa = spec.eval(a)
    count, mean, m2 = 0, np.zeros(2), np.zeros(2)
    for s in state._blocks(n):
        rows = (s, spec.eval(a * s) / fa)
        k = s.size
        block_mean = np.array([y.mean() for y in rows])
        ss = np.array([np.square(np.subtract(y, m, out=y), out=y).sum()
                       for y, m in zip(rows, block_mean)])
        delta = block_mean - mean
        mean += delta * (k / (count + k))
        m2 += ss + delta**2 * (count * k / (count + k))
        count += k
    stderr = np.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return MCEstimate(
        mean_x=float(a * mean[0]),
        mean_fx=float(fa * mean[1]),
        stderr_x=float(a * stderr[0]),
        stderr_fx=float(fa * stderr[1]),
        n=n,
    )
