"""Sampling from the normalized measure with density f / F(a) on (0, a].

The measure puts mass f(x) dx / F(a) on (0, a]; its mean reproduces the
centroid abscissa H/F, and the mean of f under it reproduces twice the
centroid ordinate, G/F.  Draws come from inverse-CDF transform of uniform
variates, so a stream of uniforms maps deterministically to a stream of
draws.

Power laws invert in closed form.  Every other spec goes through a checked
model of its CDF, built once per (spec, a, tol); the sampling state holds
it and applies either inverse itself.  One cumulative quadrature pass
gives the mass up to each of 256 knots, computed to min(1e-12, tol / 100)
but no tighter than twice the kernel's error floor, 100 machine epsilons
of the masses' unit, 1.  On each knot interval, g is interpolated at 16
Chebyshev points and the interpolant integrated exactly, so the CDF there
is the mass at the left knot plus a Chebyshev series (Trefethen,
Approximation Theory and Approximation Practice, 2013).  Each model is
checked once, at build time, against the adaptive kernel: at its
interval's mass and at its midpoint, to a tenth of a draw's tolerance (or
twice the kernel's target, if that is looser).  An interval that fails is
split and its parts checked again: the first interval geometrically toward
0, where g ~ s**p is not smooth, and any other at the table's knots inside
it, or at its geometric mean if it holds none.  A model that cannot pass
raises ToleranceNotReached before any draw.

A draw finds its piece through a guide table and starts from a cubic
Hermite interpolant of the inverse CDF on it, with exact end slopes 1/g
(the PINV idea of Derflinger, Hoermann and Leydold, ACM TOMACS 20(4),
2010).  Its CDF residual is read off the piece's model by Clenshaw's
recurrence, and only draws whose residual misses tol times the total mass
take bracketed Newton steps, with the slope from the model's derivative:
no draw evaluates the spec.

Every run works one block of 2**14 draws at a time, from the uniforms to
the output, and each draw's arithmetic depends on its own uniform alone, so
the draws are bit-identical whatever the blocking.  ``draw`` holds its n
draws, 8 bytes each, plus one block's working arrays (2.6-4.1 MB);
``mc_estimates`` holds one block's working arrays alone, whatever n, since
it reduces each block to its moments before drawing the next.

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
from .quadrature import _ERROR_FLOOR, cumulative

__all__ = ["SamplerState", "MCEstimate", "mc_estimates"]

_TABLE_INTERVALS = 256
# Draws per block, in every mode: a block's quantile solve takes 2.2-3.7 MB,
# its %.17g formatting 2.6 MB (tracemalloc peak, on unit draws and on a mix
# across 23 decades alike) and its text at most 0.4 MB.
_BLOCK = 2**14
# The kernel's error sum on a mass never falls below _ERROR_FLOOR of it, and
# the masses are at most ~1 in profile units, the unit of its target: twice
# that leaves the refinement room to meet it at any exponent.  A draw's own
# residual is held to max(tol, 1e-9).
_TABLE_TOL_FLOOR = 2.0 * _ERROR_FLOOR
# Newton converges in a few steps; the cap also covers a run of bisection
# fallbacks from a 2**-8 wide knot interval down to ~2**-58.
_NEWTON_STEPS = 50
_MIN_ESTIMATE_N = 100
# Philox's key word: a seed is one uint64, so no two seeds share a stream.
_SEED_LIMIT = 2**64

# The CDF model of a piece interpolates g at the _CHEB_N Chebyshev points of
# the first kind, which are interior: x = 0 is never evaluated.
_CHEB_N = 16
_THETA = (2.0 * np.arange(_CHEB_N)[::-1] + 1.0) * np.pi / (2.0 * _CHEB_N)
_CHEB_NODES = np.cos(_THETA)  # ascending on (-1, 1)
_TINY = math.ulp(0.0)  # the smallest positive double


def _lowest(a):
    """The floor of a draw in units of a: a times it rounds to a positive
    double, and it is at most 1, so every draw a s lies in (0, a]."""
    return _TINY / min(a, 1.0)


def _model_maps():
    """Matrices taking g at the nodes to the Chebyshev coefficients of its
    interpolant (n of them) and of the interpolant's integral from -1 (n + 1)."""
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
    return to_g, np.einsum("ik,kj->ij", integ, to_g)


_TO_G, _TO_P = _model_maps()


def _clenshaw(coef, idx, x):
    """sum_k coef[k, idx] T_k(x) (Clenshaw's recurrence), one row of coef at a time."""
    x2 = 2.0 * x
    b1, b2, tmp = coef[-1, idx], np.zeros_like(x2), np.empty_like(x2)
    for c in coef[-2:0:-1]:
        np.multiply(x2, b1, out=tmp)
        np.add(c[idx], tmp, out=tmp)
        tmp -= b2
        b1, b2, tmp = tmp, b1, b2
    return coef[0, idx] + x * b1 - b2


class _CdfTable:
    """A checked model of the CDF of the profile g(s) = f(a s)/f(a).

    Working in profile units keeps every entry O(1) regardless of the
    spec's amplitude or the scale, so the quadrature's absolute floor stays
    meaningful.  It keeps the tolerance it was built for and the piece edges
    with the cumulative mass at each; each piece -- a knot interval, or a
    part of one that failed its check -- keeps the Chebyshev coefficients of
    g and of g's integral from its left edge (its CDF model), and the cubic
    Hermite interpolant of its inverse CDF s(t), whose end slopes ds/dt =
    1/g come from g at the final edges; that interpolant supplies the
    starting guess of every quantile.  Midpoints, widths and masses are
    recomputed from the edges and cumulative masses where they are needed.
    """

    def __init__(self, spec, a, tol):
        self.spec = spec
        self.a = a
        self.tol = tol
        self.fa = spec.eval(a)
        # Knots that overflow in units of a lie above 1, where the kernel
        # drops them; subnormal ones would give panels whose nodes round to 0.
        with np.errstate(over="ignore"):
            self._breaks = spec.knots / a
        self._breaks = self._breaks[self._breaks >= _TINY_NORMAL]
        # The masses are at most 1 in profile units: the kernel computes them
        # to min(1e-12, 0.01 tol), but no tighter than it reaches.  A model
        # must match the kernel to a tenth of a draw's tolerance, or, if that
        # is looser, to twice the kernel's target: it is checked against the
        # difference of two kernel values, each off by up to that target.
        self._kernel_tol = max(_TABLE_TOL_FLOOR, min(1e-12, 0.01 * tol))
        self._model_tol = max(0.1 * tol, 2.0 * self._kernel_tol)

        self.edges = np.linspace(0.0, 1.0, _TABLE_INTERVALS + 1)
        res = cumulative(self._g, 0.0, self.edges[1:], self._kernel_tol,
                         breakpoints=self._breaks)
        self.cum = np.concatenate(([0.0], res.value[:, 0]))
        self.total = float(self.cum[-1])
        self._p_coef = np.empty((_CHEB_N + 1, _TABLE_INTERVALS))
        self._g_coef = np.empty((_CHEB_N, _TABLE_INTERVALS))
        todo = np.ones(_TABLE_INTERVALS, dtype=bool)
        while todo.any():
            todo = self._refine(todo)

        # The guide table: cell k of the masses starts in piece _guide[k],
        # the last piece whose left mass falls in a lower cell.
        pieces = self.edges.size - 1
        self._cell_scale = pieces / self.total
        self._upper = np.append(self.cum[1:-1], np.inf)
        self._guide = np.maximum(
            np.searchsorted(self._cell(self.cum), np.arange(pieces)) - 1, 0)
        # Hermite coefficients in tau = (t - cum_k) / mass_k on each piece:
        # s = s_k + tau (d0 + tau (c2 + tau c3)), with end tangents
        # d = mass_k / g in s units.  g(0+) = 0 at the first edge, whose
        # tangent falls back to the chord.
        g_right = self._g(self.edges[1:])
        masses = np.diff(self.cum)
        width = np.diff(self.edges)
        self._d0 = np.concatenate((width[:1], masses[1:] / g_right[:-1]))
        d1 = masses / g_right
        self._c2 = 3.0 * width - 2.0 * self._d0 - d1
        self._c3 = self._d0 + d1 - 2.0 * width

    def _g(self, s):
        return self.spec.eval(self.a * s) / self.fa

    def _cell(self, t):
        """The guide-table cell of each mass t: equal shares of the total."""
        return np.minimum((t * self._cell_scale).astype(np.intp), self.edges.size - 2)

    def _locate(self, t):
        """The piece of each mass t, ``searchsorted(cum, t, "right") - 1``
        clipped to the pieces, through the guide table (the indexed search of
        Chen and Asau, 1974): from the piece its cell starts in, a draw steps
        up past every piece that ends at or below it, a few steps at most."""
        idx = self._guide[self._cell(t)]
        act = np.flatnonzero(self._upper[idx] <= t)
        while act.size:
            idx[act] += 1
            act = act[self._upper[idx[act]] <= t[act]]
        return idx

    def _refine(self, todo):
        """Model and check the pieces marked ``todo``; split those that fail,
        and return the mask of the pieces still to model.

        A round updates the table's edges, the masses at them and the
        pieces' Chebyshev coefficients, and nothing else: g at the edges is
        evaluated once they are final.  One spec evaluation gives g at the
        pieces' nodes.  One kernel pass gives the CDF at their left edges
        and midpoints; a new edge's mass is the kernel's difference from the
        nearest edge below it whose mass is known, which is the left edge of
        a piece modelled in this round.
        """
        i = np.flatnonzero(todo)
        edges = self.edges
        left, half = edges[i], 0.5 * (edges[i + 1] - edges[i])
        nodes = (left + half)[:, None] + half[:, None] * _CHEB_NODES
        values = self._g(nodes.ravel()).reshape(nodes.shape)

        pts = np.column_stack((left, left + half)).ravel()
        res = cumulative(self._g, pts[0], pts[1:], self._kernel_tol,
                         breakpoints=self._breaks)
        kernel = np.concatenate(([0.0], res.value[:, 0])).reshape(-1, 2)
        known = ~np.isnan(self.cum)
        at_edge = np.full(edges.size, np.nan)
        at_edge[i] = kernel[:, 0]
        base = np.maximum.accumulate(np.where(known, np.arange(edges.size), 0))
        cum = np.where(known, self.cum, self.cum[base] + (at_edge - at_edge[base]))
        self.cum = cum

        # einsum, not a BLAS gemm: a fixed summation order per piece
        self._g_coef[:, i] = np.einsum("pj,kj->kp", values, _TO_G)
        self._p_coef[:, i] = half * np.einsum("pj,kj->kp", values, _TO_P)
        mass = cum[i + 1] - cum[i]
        to_mid = kernel[:, 1] - kernel[:, 0]
        err = np.maximum(np.abs(_clenshaw(self._p_coef, i, np.ones(i.size)) - mass),
                         np.abs(_clenshaw(self._p_coef, i, np.zeros(i.size)) - to_mid))
        err /= self.total
        todo[i] = False
        bad = np.flatnonzero(err > self._model_tol)
        if not bad.size:
            return todo
        with np.errstate(divide="ignore"):
            growth = mass[bad] / to_mid[bad]
        inner = [self._split(edges[i[b]], edges[i[b] + 1], err[b], growth[k])
                 for k, b in enumerate(bad)]
        at = np.repeat(i[bad] + 1, [len(x) for x in inner])
        self.edges = np.insert(edges, at, np.concatenate(inner))
        self.cum = np.insert(cum, at, np.nan)
        self._p_coef = np.insert(self._p_coef, at, 0.0, axis=1)
        self._g_coef = np.insert(self._g_coef, at, 0.0, axis=1)
        todo = np.insert(todo, at, True)
        todo[i[bad] + np.searchsorted(at, i[bad], side="right")] = True
        return todo

    def _split(self, left, right, err, growth):
        """The inner edges that split the failing piece (left, right], whose
        model is off by ``err`` of the total and whose mass is ``growth``
        times its mass up to its midpoint.

        The piece at 0 is cut geometrically, as the kernel cuts its panel
        at 0: if its mass, and its model's error with it, shrink like
        width**rate, the error needs ``want`` halvings.  The cuts stop where
        the new piece's lowest node would underflow in x.
        Any other piece is split at the table's knots inside it, and one
        with none (a table segment that spans decades, or an undeclared
        kink) at its geometric mean.  A cut is taken only if every part
        keeps its midpoint strictly inside it, as the next round's kernel
        pass needs; a piece too narrow for that cannot be split further.
        """
        if left == 0.0:
            rate = math.log2(growth) if 1.0 < growth < math.inf else 0.0
            want = math.log2(err / self._model_tol) / rate if rate > 0.0 else 1.0
            lowest = 0.5 * (1.0 + float(_CHEB_NODES[0])) * self.a * right
            deepest = (math.floor(math.log2(lowest) - math.log2(_TINY))
                       if lowest > 0.0 else 0)
            depth = min(max(1, math.ceil(want)), deepest)
            cuts = right * 2.0 ** -np.arange(depth, 0, -1, dtype=float)
        else:
            cuts = self._breaks[(self._breaks > left) & (self._breaks < right)]
            if not cuts.size:
                cuts = np.array([math.sqrt(left) * math.sqrt(right)])
        ends = np.concatenate(([left], cuts, [right]))
        mid = ends[:-1] + 0.5 * np.diff(ends)
        if cuts.size and ((ends[:-1] < mid) & (mid < ends[1:])).all():
            return cuts
        raise ToleranceNotReached(
            f"CDF model error {err:.3e} above tolerance on "
            f"({self.a * left:g}, {self.a * right:g}]"
        )

    def quantiles(self, u):
        """Solve int_0^s g = u * total for each u of a block, and
        return the solutions and their CDF residuals.

        A draw's piece is a knot interval, or one of the parts a failing
        interval was split into, whose CDF model matched the kernel at build
        time to a tenth of the table's tolerance (or the kernel's floor).
        Every draw starts from its piece's Hermite guess and has its
        residual, read off the model, checked once; only the draws that miss
        ``tol * total`` take safeguarded Newton steps on the model inside
        their shrinking bracket, reading their pieces' coefficients afresh
        at each step, and none evaluates the spec.  The working arrays are
        17 to 28 float arrays of u's size: callers pass one block at a time.
        """
        t = u * self.total
        idx = self._locate(t)
        lo = self.edges[idx]
        hi = self.edges[idx + 1]
        base = self.cum[idx]
        tau = (t - base) / (self.cum[idx + 1] - base)
        s = lo + tau * (self._d0[idx] + tau * (self._c2[idx] + tau * self._c3[idx]))
        np.clip(s, lo, hi, out=s)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        resid = base + _clenshaw(self._p_coef, idx, (s - mid) / half) - t

        goal = self.tol * self.total
        act = np.flatnonzero(np.abs(resid) > goal)
        lo, hi = lo[act], hi[act]
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
                step = sa - ra / _clenshaw(self._g_coef, k, (sa - mid) / half)
            new = np.where((step > lo) & (step < hi), step, 0.5 * (lo + hi))
            ra = self.cum[k] + _clenshaw(self._p_coef, k, (new - mid) / half) - ta
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
        for start in range(0, n, _BLOCK):
            u = self._gen.random(min(_BLOCK, n - start))
            # random() can emit exactly 0, whose quantile sits outside the
            # open support; nudge to the smallest positive double instead.
            u[u == 0.0] = _TINY
            if table is None:
                s = u ** (1.0 / (self.spec.p + 1.0))
                yield np.maximum(s, _lowest(self.a), out=s)
                continue
            s, resid = table.quantiles(u)
            worst = np.maximum(worst, np.max(np.abs(resid)))
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
