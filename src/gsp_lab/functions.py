"""Function families on (0, top] and their admissibility checks.

A spec represents a positive function f on (0, top] with f -> 0 at 0+; top
is inf but for a table, whose top is its last sample.  All families expose
the same two operations -- the value and the logarithmic derivative
x f'(x) / f(x) (the "elasticity") -- accepting either a scalar or a numpy
array of positive abscissae.  ``validate`` screens a spec against those
hypotheses and raises Inadmissible at the first one it breaks.
"""

from __future__ import annotations

import io
import math
import re
import sys

import numpy as np

from .errors import (
    CsvFormatError,
    DomainExceeded,
    Inadmissible,
    NonPositiveValue,
    _Record,
)

__all__ = [
    "FunctionSpec",
    "PowerLaw",
    "PerturbedPowerLaw",
    "Custom",
    "Tabulated",
    "validate",
    "load_tabulated_csv",
]

_HULL_SLACK = 1e-12  # relative slack when checking a table's top
_HEAD_DEPTH = np.arange(20.0, 0.0, -1.0)  # k of a table's head breakpoints x[0] 2^-k
_TINY_NORMAL = sys.float_info.min  # the smallest normal double


def _geomspace(lo, hi, n):
    """``np.geomspace(lo, hi, n)`` for positive finite float ends and n >= 1,
    bit for bit: numpy's own arithmetic, without its Python-level steps."""
    t = np.log10(lo)
    y = np.arange(0, n, dtype=float)
    y *= (np.log10(hi) - t) / max(n - 1, 1)
    y += t
    out = np.power(10.0, y)
    out[-1] = hi
    out[0] = lo
    return out


class FunctionSpec:
    """Common behaviour for every function family.

    Subclasses implement ``_value`` and ``_elast`` on float arrays of any
    shape; this base class handles input checking and the positivity
    guarantee on evaluation.  A 0-d input gives numpy's float scalar, an
    array gives an array.  Instances are immutable after construction.
    """

    family = "abstract"
    #: the largest abscissa the function is defined at: it lives on (0, top].
    #: Analytic families have no top; a table's is its last sample.
    top = math.inf
    #: abscissae where f may be non-smooth (a table's sample points); the
    #: quadratures split at them.  Analytic families are smooth everywhere.
    knots = np.empty(0)

    def _check_x(self, x):
        arr = np.asarray(x, dtype=float)
        # NaN carries through min and max; an empty array passes
        lo, hi = arr.min(initial=math.inf), arr.max(initial=-math.inf)
        if not (0.0 < lo and hi < math.inf):
            raise DomainExceeded(
                f"{self.family}: abscissae must be positive and finite"
            )
        if hi > self.top * (1.0 + _HULL_SLACK):
            raise DomainExceeded(f"{self.family}: abscissa outside (0, {self.top:g}]")
        return arr

    def eval(self, x):
        """f(x).  Raises NonPositiveValue if the result is not positive.

        A value that overflows or underflows fails that check, which is then
        the only report: numpy's floating-point warnings are silenced.
        """
        arr = self._check_x(x)
        with np.errstate(over="ignore", under="ignore"):
            out = self._value(arr)
        lo, hi = out.min(initial=math.inf), out.max(initial=-math.inf)
        if not (0.0 < lo and hi < math.inf):
            raise NonPositiveValue(
                f"{self.family}: evaluation produced a non-positive value"
            )
        return out[()]

    def elasticity(self, x):
        """x f'(x) / f(x) -- the local power-law exponent."""
        return self._elast(self._check_x(x))[()]

    def in_support(self, a):
        """Whether the scale ``a`` (elementwise, for an array) is a truncation scale in
        the support: positive, and at most its top plus the hull slack."""
        return (0.0 < a) & (a <= self.top * (1.0 + _HULL_SLACK))

    def check_scale(self, a):
        """``a`` as floats, once each scale is checked to be a truncation scale in
        the support; the first that is not, in the order given, raises."""
        a = np.asarray(a, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(a) & self.in_support(a)))
        if bad.size:
            b = a.flat[bad[0]]
            if not math.isfinite(b) or b <= 0.0:
                raise DomainExceeded("scale a must be positive and finite")
            raise DomainExceeded(f"a={b:g} beyond the function's support")
        return a[()]

    def _value(self, x):
        raise NotImplementedError

    def _elast(self, x):
        raise NotImplementedError


class PowerLaw(FunctionSpec, _Record):
    """f(x) = amp * x**p."""

    fields = ("p", "amp")
    amp = 1.0
    family = "power"

    def _value(self, x):
        return self.amp * x**self.p

    def _elast(self, x):
        return np.full_like(x, self.p)


class PerturbedPowerLaw(FunctionSpec, _Record):
    """f(x) = amp * x**p * (1 + eps * sin(log x)).

    A log-periodic wobble around a pure power law; for |eps| < 1 the function
    stays positive.  Its elasticity oscillates around p:

        E(x) = p + eps * cos(log x) / (1 + eps * sin(log x))
    """

    fields = ("p", "eps", "amp")
    amp = 1.0
    family = "perturbed"

    def _wobble(self, x):
        return 1.0 + self.eps * np.sin(np.log(x))

    def _value(self, x):
        return self.amp * x**self.p * self._wobble(x)

    def _elast(self, x):
        logx = np.log(x)
        return self.p + self.eps * np.cos(logx) / (1.0 + self.eps * np.sin(logx))


class Custom(FunctionSpec):
    """User-supplied value and derivative callables.

    ``fn`` and ``dfn`` take a numpy array of positive abscissae and return
    f and f' there.  Elasticity is formed as the quotient x f'(x) / f(x).
    """

    family = "custom"

    def __init__(self, fn, dfn):
        self._fn = fn
        self._dfn = dfn

    def _value(self, x):
        return np.asarray(self._fn(x), dtype=float)

    def _elast(self, x):
        f = self._value(x)
        if (np.abs(f) < 1e-300).any():
            raise NonPositiveValue(
                "custom: |f| too small to form the elasticity quotient"
            )
        return x * np.asarray(self._dfn(x), dtype=float) / f


def _pchip_coefficients(t, y):
    """Rows c0..c3 of the PCHIP cubics c0 + c1 dt + c2 dt^2 + c3 dt^3, dt = t - t_i.

    The knot slopes are the Fritsch-Butland weighted harmonic means of the
    secant slopes (SIAM J. Sci. Stat. Comput. 5(2), 1984), 0 where those
    turn, with the one-sided rule at the ends.  Every step keeps scipy's
    PchipInterpolator's floating-point order, so the two agree bit for bit.
    """
    h = np.diff(t)
    m = np.diff(y) / h
    d = np.array([m[0], m[0]])
    if t.size > 2:
        w1 = 2.0 * h[1:] + h[:-1]
        w2 = h[1:] + 2.0 * h[:-1]
        with np.errstate(divide="ignore", invalid="ignore"):  # m = 0 gives 1/inf = 0
            inner = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        inner[np.sign(m[1:]) != np.sign(m[:-1])] = 0.0
        # one-sided three-point slopes at both ends, kept shape-preserving
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        ends = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        steep = (np.sign(m0) != np.sign(m1)) & (np.abs(ends) > 3.0 * np.abs(m0))
        ends = np.where(np.sign(ends) != np.sign(m0), 0.0,
                        np.where(steep, 3.0 * m0, ends))
        d = np.concatenate((ends[:1], inner, ends[1:]))
    c = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - c, c / h))


class Tabulated(FunctionSpec):
    """Positive samples (x_i, f_i) interpolated monotonically in log-log, on (0, x[-1]].

    On [x[0], x[-1]] the interpolant is the shape-preserving PCHIP through
    (log x, log f), with Fritsch-Butland harmonic-mean knot slopes: any
    exact power-law table (a straight line there) is reproduced without
    model bias.  Below x[0] it continues the floor's power law: log f is
    the straight line through the first sample with the cubic's first knot
    slope c1, so the elasticity there is c1.  A table's ``PowerLaw``
    verdict therefore means "consistent with a power law on (0, a] that
    continues the floor".  The elasticity is the cubic's derivative.
    Samples it cannot interpolate raise Inadmissible, naming the fault.
    """

    family = "tabulated"

    def __init__(self, x, f):
        x = np.asarray(x, dtype=float)
        f = np.asarray(f, dtype=float)
        if x.ndim != 1 or x.shape != f.shape:
            raise Inadmissible("tabulated: x and f must be equal-length 1-d")
        if x.size < 2:
            raise Inadmissible("tabulated: need at least 2 samples")
        if not (np.isfinite(x).all() and np.isfinite(f).all()):
            raise Inadmissible("tabulated: samples must be finite")
        if (x <= 0.0).any() or (f <= 0.0).any():
            raise Inadmissible("tabulated: samples must be positive")
        t = np.log(x)  # nondecreasing in x, so this also catches log x ties
        if (t[1:] <= t[:-1]).any():
            raise Inadmissible("tabulated: x must be strictly increasing")
        self.x = x
        self.f = f
        self.top = float(x[-1])
        self._t = t
        # column 0 is the head's line, column i + 1 the cubic from knot i;
        # _left[j] is the knot that column j's offset dt is taken from
        c = _pchip_coefficients(t, np.log(f))
        self._c = np.concatenate(([[c[0, 0]], [c[1, 0]], [0.0], [0.0]], c), axis=1)
        self._left = np.concatenate((t[:1], t[:-1]))
        # The head's dyadic breakpoints x[0] 2^-k mesh it geometrically
        # toward 0 from the start, so the quadratures spend no round there.
        # They go as deep as the head's mass below them, 2^-k(c1 + 1) of
        # its mass below x[0], is above machine epsilon: a steep head gets
        # few, which keeps the kernel's nodes where f does not underflow.
        # Subnormal ones would give panels whose nodes round to 0.
        k = _HEAD_DEPTH[_HEAD_DEPTH * (c[1, 0] + 1.0) <= 52.0]
        head = x[0] * 2.0 ** -k
        self.knots = np.concatenate((head[head >= _TINY_NORMAL], x))

    def _locate(self, x):
        # each point's column and offset dt; the hull's slack extends the last cubic
        t = np.log(x)
        j = np.minimum(np.searchsorted(self._t, t, side="right"), self._t.size - 1)
        return self._c[:, j], t - self._left[j]

    def _value(self, x):
        c, dt = self._locate(x)
        return np.exp(c[0] + c[1] * dt + c[2] * (dt * dt) + c[3] * (dt * dt * dt))

    def _elast(self, x):
        c, dt = self._locate(x)
        return c[1] + 2.0 * c[2] * dt + 3.0 * c[3] * (dt * dt)


_PROBE_COUNT = 80
_DECAY_PROBES = 27  # dyadic probes reach 2**-26 ~ 1.5e-8
_DECAY_TAIL = 8
_DECAY_DROP = 1e-3  # required cumulative loss across the tail probes
_DECAY_SLACK = 1e-12  # relative rise a decay check forgives between neighbours


def _probe_grid(spec):
    """Log-spaced probes on the support's part of [1e-6, 1e6], or on a table's
    whole hull [x[0], x[-1]] when the two do not meet: the probes reach no
    lower than x[0], below which a table is its floor's power law."""
    lo, hi = (spec.x[0] if isinstance(spec, Tabulated) else 0.0), spec.top
    if lo < 1e6 and hi > 1e-6:
        lo, hi = max(lo, 1e-6), min(hi, 1e6)
    return _geomspace(lo, hi, _PROBE_COUNT)


def validate(spec):
    """Screen a spec against the admissibility hypotheses.

    Checks, in order: parameter sanity for the parametric families, strict
    positivity on a log-spaced probe grid, and monotone decay toward zero on
    the smallest dyadic probes, or, for a table, a positive floor slope c1
    (so its head's power law decays).  Returns None if every check passes, and
    otherwise raises Inadmissible naming the first violated hypothesis
    ("positivity" or "f(0+)=0") with the detail in parentheses; probing is
    the best a finite procedure can do, so passing is evidence, not proof.
    """
    if isinstance(spec, (PowerLaw, PerturbedPowerLaw)):
        # NaN passes every comparison below, so name it here
        for name in ("p", "amp", "eps"):
            value = getattr(spec, name, 0.0)
            if not math.isfinite(value):
                raise Inadmissible(f"positivity ({name}={value:g} is not finite)")
        if spec.amp <= 0.0:
            raise Inadmissible("positivity (amp must be positive)")
        if isinstance(spec, PerturbedPowerLaw) and abs(spec.eps) >= 1.0:
            raise Inadmissible(
                "positivity (|eps| >= 1 lets 1 + eps*sin(log x) vanish)"
            )
        if spec.p <= 0.0:
            raise Inadmissible(f"f(0+)=0 (exponent p={spec.p:g} does not decay at 0)")

    try:
        spec.eval(_probe_grid(spec))
        if not isinstance(spec, Tabulated):
            vals = spec.eval(2.0 ** -np.arange(_DECAY_PROBES, dtype=float))
    except NonPositiveValue as exc:
        raise Inadmissible(f"positivity ({exc})") from None

    if isinstance(spec, Tabulated):
        slope = spec._c[1, 0]  # the head's exponent, read off its line
        if slope <= 0.0:
            raise Inadmissible(f"f(0+)=0 (table floor slope {slope:g} does not "
                               "decay toward x=0)")
        return

    tail = vals[-_DECAY_TAIL:]  # f at the smallest probes, largest x first
    if (tail[1:] > tail[:-1] * (1.0 + _DECAY_SLACK)).any():
        raise Inadmissible("f(0+)=0 (no monotone decay on the smallest dyadic probes)")
    # Monotone alone cannot separate decay to zero from decay to a positive
    # floor, so the tail of probes must also keep losing ground overall.
    if tail[-1] > tail[0] * (1.0 - _DECAY_DROP):
        raise Inadmissible("f(0+)=0 (values level off instead of heading to zero)")


# csv.field_size_limit()'s default: the row walk refuses a longer cell
_FIELD_LIMIT = 131_072
# the body of a plain table: lines of exactly one comma each, and no cell
# longer than that limit
_CELL = rf"[^,\n]{{0,{_FIELD_LIMIT}}}"
_PLAIN_BODY = re.compile(rf"{_CELL},{_CELL}(?:\n{_CELL},{_CELL})*")


def _is_float(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _read_array(data):
    """x and f of a plain table in ``data``, from one pass over its cells, or
    None for a file this pass leaves to ``_read_rows``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    head, _, body = text.partition("\n")
    body = body.removesuffix("\n")
    if ('"' in text or "\r" in text or _is_float(head.partition(",")[0])
            or not _PLAIN_BODY.fullmatch(body)
            or max(map(len, head.split(","))) > _FIELD_LIMIT):
        return None
    try:
        v = np.fromiter(map(float, body.replace("\n", ",").split(",")), float)
    except ValueError:  # a cell float() refuses
        return None
    x, f = v.reshape(-1, 2).T.copy()
    if x.size > 1 and np.isfinite(v).all() and (v > 0.0).all() and (x[1:] > x[:-1]).all():
        return x, f
    return None


def _read_rows(text):
    """x and f from the rows csv.reader reads in ``text``; the first row at
    fault raises CsvFormatError, naming the line the row starts on."""
    import csv  # here: only the files _read_array leaves reach this walk

    xs: list[float] = []
    fs: list[float] = []
    reader = csv.reader(io.StringIO(text, newline=""))
    line = 1  # where the next row starts
    try:
        for row in reader:
            lineno, line = line, reader.line_num + 1
            try:
                "".join(row).encode("utf-8")
            except UnicodeEncodeError:
                raise CsvFormatError(lineno, "bytes that are not UTF-8 text") from None
            if not row or all(not cell.strip() for cell in row):
                continue
            if lineno == 1:
                if _is_float(row[0]):
                    raise CsvFormatError(1, "expected a header row, found data")
                continue  # the expected header row
            if len(row) != 2:
                raise CsvFormatError(lineno, f"expected 2 columns, got {len(row)}")
            try:
                xv = float(row[0])
                fv = float(row[1])
            except ValueError:
                raise CsvFormatError(lineno, f"non-numeric row {row!r}") from None
            if not (math.isfinite(xv) and math.isfinite(fv)):
                raise CsvFormatError(lineno, "non-finite sample")
            if xv <= 0.0 or fv <= 0.0:
                raise CsvFormatError(lineno, "samples must be positive")
            if xs and xv <= xs[-1]:
                raise CsvFormatError(lineno, "x must be strictly increasing")
            xs.append(xv)
            fs.append(fv)
    except csv.Error as exc:  # a cell longer than csv's field size limit
        raise CsvFormatError(line, str(exc)) from None
    if len(xs) < 2:
        raise CsvFormatError(1, "need at least 2 data rows")
    return np.array(xs), np.array(fs)


def load_tabulated_csv(path):
    """Read a two-column CSV (header row, then x, f pairs) into a Tabulated.

    The file is read once and decoded as UTF-8, a leading byte-order mark
    dropped.  A plain table -- no quote or carriage return, a header whose
    first cell is not a number, then lines of one comma each, and no cell
    longer than csv.reader's field size limit -- is read by
    ``_read_array``: one ``float`` pass over the cells into one array, and
    its checks (finite, positive, x strictly increasing, 2 rows or more)
    as array operations.  Every other file, and every table that pass
    refuses, goes to ``_read_rows``, the row-by-row walk over what
    csv.reader reads (quoted cells, CR line ends, blank rows), which is the
    reference: where both read a file they give the same bits, and only the
    walk words a refusal.  Structural problems, bytes that are not UTF-8
    text among them, are reported with the 1-based line number where the
    offending row starts.
    """
    with open(path, "rb") as fh:
        # as the utf-8-sig codec drops it, without importing that codec
        data = fh.read().removeprefix(b"\xef\xbb\xbf")
    xf = _read_array(data)
    if xf is None:
        # surrogateescape turns undecodable bytes into lone surrogates, so
        # the row that holds them can be named
        xf = _read_rows(data.decode("utf-8", "surrogateescape"))
    return Tabulated(*xf)
