"""Closed-form oracles for every invocation the benchmark runs.

Nothing here imports gsp_lab: the expected values come from the calculus of
the two analytic families, so a bug shared by the program and its own tests
still shows up here.

For f(x) = x^p (1 + eps sin ln x) the primitives F, H, G follow from

    int_0^a x^q dx            = a^(q+1) / (q+1)
    int_0^a x^q sin(ln x) dx  = a^(q+1) ((q+1) sin ln a - cos ln a) / ((q+1)^2 + 1)
    int_0^a x^q cos(2 ln x) dx = a^(q+1) ((q+1) cos 2ln a + 2 sin 2ln a) / ((q+1)^2 + 4)

and sin^2 = (1 - cos 2 ln x) / 2; eps = 0 gives the pure power law.

A check returns a Verdict: ``failed`` lists why the invocation did not give
the expected answer, and ``wrong`` says whether it gave a wrong one (a
decisive answer other than the expected one, or output values that contradict
the closed forms).  An invocation that gives no answer -- it crashes, or
reports Inconclusive where a decisive verdict is due -- has failed without
being wrong.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

# The CLI's default scale grid: --a-min 0.1 --a-max 10 --a-count 17.
GRID = np.geomspace(0.1, 10.0, 17)

ANALYTIC_REL = 1e-8   # quadrature runs at tol=1e-10; leave two decades of slack
DERIV_REL = 1e-7      # closed-form derivative columns divide by a and A
POWER_VARIANCE = 1e-12
POWER_REDUCTION = 1e-7
POWER_WM = 1e-9
SAMPLE_SIGMAS = 5.0   # Monte Carlo means must land within this many standard errors

EXIT_BY_VERDICT = {"PowerLaw": 0, "NotPowerLaw": 1, "Inconclusive": 4}
DECISIVE_EXITS = (0, 1)


def _pow(q, a):
    return a ** (q + 1.0) / (q + 1.0)


def _sin_log(q, a):
    k = q + 1.0
    la = math.log(a)
    return a**k * (k * math.sin(la) - math.cos(la)) / (k * k + 1.0)


def _cos_2log(q, a):
    k = q + 1.0
    la = math.log(a)
    return a**k * (k * math.cos(2.0 * la) + 2.0 * math.sin(2.0 * la)) / (k * k + 4.0)


@dataclass(frozen=True)
class Perturbed:
    """f(x) = x^p (1 + eps sin ln x) with amplitude 1; eps = 0 is a power law."""

    p: float
    eps: float = 0.0

    def f(self, x):
        return x**self.p * (1.0 + self.eps * math.sin(math.log(x)))

    def elasticity(self, x):
        la = math.log(x)
        return self.p + self.eps * math.cos(la) / (1.0 + self.eps * math.sin(la))

    def moment(self, k, a):
        """int_0^a x^k f(x) dx."""
        return _pow(self.p + k, a) + self.eps * _sin_log(self.p + k, a)

    def F(self, a):
        return self.moment(0, a)

    def H(self, a):
        return self.moment(1, a)

    def G(self, a):
        q = 2.0 * self.p
        e = self.eps
        return (_pow(q, a) + 2.0 * e * _sin_log(q, a)
                + 0.5 * e * e * (_pow(q, a) - _cos_2log(q, a)))

    def sweep_row(self, a):
        """(xbar, ybar, theta, A, B, C) at scale a."""
        fa, F, H, G = self.f(a), self.F(a), self.H(a), self.G(a)
        A, B, C = F / (a * fa), H / (a * a * fa), G / (a * fa * fa)
        return H / F, G / (2.0 * F), B / A, A, B, C

    def derivatives(self, a):
        """Closed-form d/da of (A, B, C, theta)."""
        _, _, theta, A, B, C = self.sweep_row(a)
        e = self.elasticity(a)
        dA = (1.0 - (1.0 + e) * A) / a
        dB = (1.0 - (2.0 + e) * B) / a
        dC = (1.0 - (1.0 + 2.0 * e) * C) / a
        return dA, dB, dC, (dB * A - B * dA) / (A * A)

    def weight_normalizer(self, a):
        """D = int_0^1 (s - theta)^2 f(a s) / f(a) ds."""
        fa = self.f(a)
        m = [self.moment(k, a) / (a ** (k + 1) * fa) for k in range(3)]
        theta = m[1] / m[0]
        return m[2] - 2.0 * theta * m[1] + theta * theta * m[0]

    def fit(self, grid):
        """lambda_hat and the collapse residuals the detector should find."""
        rows = [self.sweep_row(a) for a in grid]
        fx = np.array([self.f(r[0]) for r in rows])
        ybar = np.array([r[1] for r in rows])
        lam = float(ybar @ fx / (fx @ fx))
        return lam, np.abs(ybar - lam * fx) / ybar

    def p_theta(self, grid):
        th = np.array([self.sweep_row(a)[2] for a in grid])
        return float(np.median((2.0 * th - 1.0) / (1.0 - th)))

    @property
    def is_power(self):
        return self.eps == 0.0


def lambda_of_p(p):
    return (p + 1.0) / (2.0 * (2.0 * p + 1.0)) * ((p + 2.0) / (p + 1.0)) ** p


@dataclass(frozen=True)
class Table:
    """A table sampling ``truth`` with knots starting at x0.

    The program integrates from x0 and bounds the unobserved head (0, x0];
    it may also model that head.  A value is accepted if it lies within the
    head's share of the true moment plus ``interp_rel`` (the interpolation
    error, set from a measured maximum with a tenfold margin) of the full
    closed form, so both choices pass.
    """

    truth: Perturbed
    x0: float
    interp_rel: float

    def rel_tol(self, a):
        t = self.truth
        head = max(t.F(self.x0) / t.F(a), t.H(self.x0) / t.H(a), t.G(self.x0) / t.G(a))
        # quotients like theta = B / A pick up the error of both factors
        return 4.0 * (head + self.interp_rel) + ANALYTIC_REL


@dataclass
class Verdict:
    failed: list = field(default_factory=list)
    wrong: bool = False

    def fail(self, reason, wrong=True):
        self.failed.append(reason)
        self.wrong = self.wrong or wrong


def _close(got, want, rel, abs_=0.0):
    return abs(got - want) <= abs_ + rel * abs(want)


def _parse_csv(text, header):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != tuple(header):
        raise ValueError(f"header {rows[:1]!r}, expected {list(header)!r}")
    return np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)


def _check_grid(v, scales):
    if len(scales) != len(GRID) or not np.allclose(scales, GRID, rtol=1e-12, atol=0.0):
        v.fail(f"scale column is not the default 17-scale grid: {list(scales)[:3]}...")
        return False
    return True


VERIFY_HEADER = (
    "a", "red_i1", "red_i2", "red_i3",
    "dA_closed", "dB_closed", "dC_closed", "dtheta_closed",
    "dA_fd", "dB_fd", "dC_fd", "dtheta_fd",
    "wm_residual", "variance", "weight_normalizer", "row_pass",
)
SWEEP_HEADER = ("a", "xbar", "ybar", "theta", "A", "B", "C", "gsp_residual", "variance")


def check_verify(truth, rc, text, v):
    rows = _parse_csv(text, VERIFY_HEADER)
    if not _check_grid(v, rows[:, 0]):
        return
    for row in rows:
        a = row[0]
        for name, got, want in zip(("dA", "dB", "dC", "dtheta"), row[4:8], truth.derivatives(a)):
            if not _close(got, want, DERIV_REL, DERIV_REL):
                v.fail(f"{name}_closed={float(got)!r} at a={a:g}, closed form {float(want)!r}")
        d = truth.weight_normalizer(a)
        if not _close(row[14], d, DERIV_REL):
            v.fail(f"weight_normalizer={float(row[14])!r} at a={a:g}, closed form {d!r}")
        if row[13] < 0.0:
            v.fail(f"negative variance {float(row[13])!r} at a={a:g}")
        if truth.is_power and (max(row[1:4]) > POWER_REDUCTION or abs(row[12]) > POWER_WM
                               or row[13] > POWER_VARIANCE):
            v.fail(f"power-law identity residual above threshold at a={a:g}")
    passed = rows[:, 15]
    if not np.all((passed == 0.0) | (passed == 1.0)):
        v.fail("row_pass is not 0/1")
    elif (rc == 0) != bool(np.all(passed == 1.0)):
        v.fail(f"exit {rc} disagrees with row_pass column")


def check_sweep(truth, rc, text, v, table=None):
    rows = _parse_csv(text, SWEEP_HEADER)
    if not _check_grid(v, rows[:, 0]):
        return
    names = SWEEP_HEADER[1:7]
    if table is None:
        _, resid = truth.fit(GRID)
    for i, row in enumerate(rows):
        a = row[0]
        rel = ANALYTIC_REL if table is None else table.rel_tol(a)
        for name, got, want in zip(names, row[1:7], truth.sweep_row(a)):
            if not _close(got, want, rel):
                v.fail(f"{name}={float(got)!r} at a={a:g}, closed form {float(want)!r} (rel tol {rel:.1e})")
        r, var = row[7], row[8]
        if not (math.isfinite(r) and r >= 0.0 and math.isfinite(var) and var >= 0.0):
            v.fail(f"gsp_residual={float(r)!r} variance={float(var)!r} at a={a:g}")
        elif table is None:
            if not _close(r, resid[i], 0.0, ANALYTIC_REL):
                v.fail(f"gsp_residual={r!r} at a={a:g}, closed form {float(resid[i])!r}")
            if truth.is_power and var > POWER_VARIANCE:
                v.fail(f"variance {float(var)!r} on a power law at a={a:g}")
            if truth.is_power and not _close(row[2] / truth.f(row[1]),
                                             lambda_of_p(truth.p), ANALYTIC_REL):
                v.fail(f"ybar / f(xbar) = {float(row[2] / truth.f(row[1]))!r} at "
                       f"a={a:g}, lambda(p) = {lambda_of_p(truth.p)!r}")


def check_detect(truth, rc, text, v, table=None):
    d = json.loads(text)
    verdict = d["verdict"]
    if EXIT_BY_VERDICT.get(verdict) != rc:
        v.fail(f"verdict {verdict!r} disagrees with exit {rc}")
    if not _check_grid(v, np.array(d["scales"])):
        return
    lam, resid = truth.fit(GRID)
    if table is None:
        rel = ANALYTIC_REL
        if not np.allclose(d["gsp_residuals"], resid, rtol=0.0, atol=ANALYTIC_REL):
            v.fail("gsp_residuals differ from the closed-form collapse residuals")
        if not _close(d["p_theta"], truth.p_theta(GRID), 1e-6):
            v.fail(f"p_theta={d['p_theta']!r}, closed form {truth.p_theta(GRID)!r}")
    else:
        rel = max(table.rel_tol(a) for a in GRID)
    if not _close(d["lambda_hat"], lam, rel):
        v.fail(f"lambda_hat={d['lambda_hat']!r}, closed form {lam!r} (rel tol {rel:.1e})")
    if any(x < 0.0 or not math.isfinite(x) for x in d["variances"]):
        v.fail("negative or non-finite variance")


def check_sample_draws(truth, a, n, text, v):
    lines = text.split("\n")
    if lines[0] != "x" or lines[-1] != "" or len(lines) != n + 2:
        v.fail(f"expected a header 'x' and {n} draws, got {len(lines) - 2} lines")
        return
    x = np.array(lines[1:-1], dtype=float)
    if not (np.all(x > 0.0) and np.all(x <= a)):
        v.fail(f"draws outside (0, {a:g}]: min {float(x.min())!r} max {float(x.max())!r}")
    mean = truth.H(a) / truth.F(a)
    se = float(np.std(x, ddof=1)) / math.sqrt(n)
    if abs(float(np.mean(x)) - mean) > SAMPLE_SIGMAS * se:
        v.fail(f"mean draw {float(np.mean(x))!r} is not within {SAMPLE_SIGMAS} se of H/F={mean!r}")


def check_sample_estimate(truth, a, n, text, v):
    d = json.loads(text)
    if d["n"] != n:
        v.fail(f"n={d['n']!r}, expected {n}")
    F = truth.F(a)
    for key, se_key, want in (("mean_x", "stderr_x", truth.H(a) / F),
                              ("mean_fx", "stderr_fx", truth.G(a) / F)):
        if not abs(d[key] - want) <= SAMPLE_SIGMAS * d[se_key]:
            v.fail(f"{key}={d[key]!r} is not within {SAMPLE_SIGMAS} x {se_key}="
                   f"{d[se_key]!r} of the closed form {float(want)!r}")


def check(inv, rc, raised, text):
    """Judge one invocation from its exit code and standard output."""
    v = Verdict()
    if raised:
        v.fail(f"crashed or was killed (exit {rc})", wrong=False)
        return v
    if rc != inv.expect_rc:
        wrong = rc in DECISIVE_EXITS and inv.expect_rc in DECISIVE_EXITS
        v.fail(f"exit {rc}, expected {inv.expect_rc}", wrong=wrong)
        if rc not in DECISIVE_EXITS and rc != 4:
            return v  # config or admissibility error: there is no output to judge
    try:
        if inv.command == "verify":
            check_verify(inv.truth, rc, text, v)
        elif inv.command == "sweep":
            check_sweep(inv.truth, rc, text, v, inv.table)
        elif inv.command == "detect":
            check_detect(inv.truth, rc, text, v, inv.table)
        elif inv.estimate:
            check_sample_estimate(inv.truth, inv.a, inv.n, text, v)
        else:
            check_sample_draws(inv.truth, inv.a, inv.n, text, v)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        v.fail(f"unreadable output: {exc}")
    return v
