import warnings

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from gsp_lab import (
    Custom,
    PerturbedPowerLaw,
    PowerLaw,
    Tabulated,
    Verdict,
    classify,
    identity_reports,
    moment_bundles,
)
from conftest import DEFAULT_SCALES, gallery

SCALES = [0.5, 1.0, 2.0, 8.0]

# Frozen oracle values, computed with scipy.integrate.quad before this
# package existed (PerturbedPowerLaw p=1, a=1): the weighted-mean residual,
# the variance functional at three wobble sizes, and theta.
ORACLE_WM_EPS01 = -4.800486786085e-02
ORACLE_THETA_EPS01 = 0.673611111111
ORACLE_VAR = {
    0.02: 6.055693938302e-06,
    0.05: 3.825857762859e-05,
    0.10: 1.557752479419e-04,
}


@pytest.mark.parametrize("label,spec", gallery())
@pytest.mark.parametrize("a", SCALES)
def test_reduction_residuals_vanish(label, spec, a):
    res = identity_reports(spec, [a]).reduction[0]
    assert max(res) <= 1e-7, (label, a, res)


def test_table_reductions_hold_from_zero():
    # a table's profile starts at 0, below x0 on its floor's power law: on
    # exact x^1.5 samples on [0.01, 10] the plain reductions hold, below x0
    # too, where a head cut at x0 would leave red_i1 = s0^2.5, 1e-5 at a = 1
    x = np.geomspace(0.01, 10.0, 200)
    spec = Tabulated(x, x**1.5)
    scales = [0.001, 0.005] + DEFAULT_SCALES.tolist()
    rep = identity_reports(spec, scales)
    for a, red in zip(rep.a, rep.reduction):
        assert max(red) <= 1e-12, a


def test_reduction_left_sides_match_scipy_for_perturbed():
    # same three integrals through scipy, as an engine-independent route
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    a = 2.0
    m = moment_bundles(spec, [a], 1e-12)
    g = lambda s: spec.eval(a * s) / m.fa[0]
    E = lambda s: spec.elasticity(a * s)
    i1, _ = sp_integrate.quad(lambda s: g(s) * E(s), 0, 1,
                              epsabs=1e-13, epsrel=1e-13)
    i2, _ = sp_integrate.quad(lambda s: s * g(s) * E(s), 0, 1,
                              epsabs=1e-13, epsrel=1e-13)
    i3, _ = sp_integrate.quad(lambda s: g(s) ** 2 * E(s), 0, 1,
                              epsabs=1e-13, epsrel=1e-13)
    assert abs(i1 - (1.0 - m.A[0])) < 1e-10
    assert abs(i2 - (1.0 - 2.0 * m.B[0])) < 1e-10
    assert abs(i3 - (1.0 - m.C[0]) / 2.0) < 1e-10


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("a", SCALES)
def test_power_law_scale_derivatives_are_zero(p, a):
    d = identity_reports(PowerLaw(p=p), [a]).closed[0]
    assert max(abs(v) for v in d) <= 1e-10


@pytest.mark.parametrize("label,spec", gallery())
@pytest.mark.parametrize("a", SCALES)
def test_closed_form_matches_finite_difference(label, spec, a):
    rep = identity_reports(spec, [a])
    closed, fd = rep.closed[0], rep.finite_diff[0]
    tol = 1e-5 + 1e-4 * np.abs(closed)
    assert np.all(np.abs(closed - fd) <= tol), (label, a, closed, fd)
    # the backward difference meets verify's bar with room to spare: its
    # worst gap here is 6.7e-6 of the bar, and 7.2e-5 on power p = 40
    assert np.all(np.abs(closed - fd) <= 1e-3 * tol), (label, a, closed, fd)


def _dtheta_integral(spec, scales):
    """theta' from its integral form (1 / (a A)) int (s - theta) g E ds
    = (BE - theta AE) / (a A)."""
    m = moment_bundles(spec, scales, 1e-12)
    return (m.BE - m.theta * m.AE) / (m.a * m.A)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_theta_prime_two_routes_agree(a):
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    rep = identity_reports(spec, [a])
    assert abs(rep.closed[0, 3] - _dtheta_integral(spec, [a])[0]) < 1e-9


def test_theta_prime_integral_form_holds_on_a_table():
    # on exact x^1.5 samples on [0.01, 10] both routes give theta' = 0, at
    # scales below x0 as well as above it, to roundoff in the scale-free
    # a theta'
    x = np.geomspace(0.01, 10.0, 200)
    spec = Tabulated(x, x**1.5)
    scales = (0.001, 0.005, 0.05, 0.1, 1.0, 5.0)
    rep = identity_reports(spec, scales)
    integrals = _dtheta_integral(spec, scales)
    for a, quotient, integral in zip(rep.a, rep.closed[:, 3], integrals):
        assert a * abs(quotient - integral) <= 1e-14, (a, quotient, integral)


def test_support_check_works_elementwise():
    # 0, the smallest double, scales around the table's first sample (no
    # edge of its support), and scales at, just inside and just past its
    # top, within the hull slack (1e-12) and beyond it: an array gets each
    # scalar answer in its place
    x = np.geomspace(0.01, 10.0, 50)
    table = Tabulated(x, x**1.5)
    lo, hi = table.x[0], table.top
    a = np.array([0.0, 5e-324, lo * (1 - 2e-12), lo, lo * (1 + 2e-5), 1.0,
                  hi * (1 - 2e-5), hi * (1 - 5e-13), hi, hi * (1 + 5e-13),
                  hi * (1 + 2e-12)])
    in_table = [False, True, True, True, True, True, True, True, True, True, False]
    for spec, in_want in ((table, in_table),
                          (PowerLaw(p=1.0), [False] + [True] * (a.size - 1))):
        assert spec.in_support(a).tolist() == in_want
        assert [spec.in_support(float(v)) for v in a] == in_want


# ------------------------------------------------ weighted mean / variance

@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("a", SCALES)
def test_weighted_mean_identity_on_power_laws(p, a):
    assert abs(moment_bundles(PowerLaw(p=p), [a], 1e-12).wm[0]) <= 1e-10


def test_weighted_mean_residual_matches_oracle():
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    assert abs(moment_bundles(spec, [1.0], 1e-12).wm[0] - ORACLE_WM_EPS01) < 1e-9


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("a", SCALES)
def test_variance_vanishes_on_power_laws(p, a):
    assert moment_bundles(PowerLaw(p=p), [a], 1e-12).variance[0] <= 1e-14


@pytest.mark.parametrize("eps", sorted(ORACLE_VAR))
def test_variance_matches_oracle(eps):
    spec = PerturbedPowerLaw(p=1.0, eps=eps)
    val = moment_bundles(spec, [1.0], 1e-12).variance[0]
    assert val == pytest.approx(ORACLE_VAR[eps], rel=1e-8)


def test_variance_scales_quadratically_in_wobble():
    ratios = [ORACLE_VAR[e] / e**2 for e in sorted(ORACLE_VAR)]
    measured = [
        moment_bundles(PerturbedPowerLaw(p=1.0, eps=e), [1.0], 1e-12).variance[0] / e**2
        for e in sorted(ORACLE_VAR)
    ]
    for r, m in zip(ratios, measured):
        assert m == pytest.approx(r, rel=1e-8)
    assert max(measured) / min(measured) < 2.0


def test_variance_of_a_wide_elasticity_matches_scipy():
    # f = x^0.5 + x^20: E runs from 0.5 to 20 across the grid, so the one
    # shift E_ref is far from E(a theta) at the small and the large scales,
    # where the shifted-moment expansion cancels most
    spec = Custom(lambda x: x**0.5 + x**20,
                  lambda x: 0.5 * x**-0.5 + 20.0 * x**19)
    f = lambda x: x**0.5 + x**20
    E = lambda x: (0.5 * x**0.5 + 20.0 * x**20) / (x**0.5 + x**20)
    m = moment_bundles(spec, DEFAULT_SCALES)
    for a, t, var, var_err in zip(m.a, m.theta, m.variance, m.variance_error):
        fn = lambda s: (s - t) ** 2 * f(a * s) / f(a) * (E(a * s) - E(a * t)) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sp_integrate.IntegrationWarning)
            ref = sum(sp_integrate.quad(fn, lo, hi, epsabs=1e-17, epsrel=1e-13,
                                        limit=200)[0] for lo, hi in ((0, t), (t, 1)))
        gap = abs(var - ref)
        assert gap <= 1e-12, (a, var, ref)
        assert gap <= var_err + 1e-15, (a, gap, var_err)
    assert classify(spec, DEFAULT_SCALES).verdict is Verdict.NOT_POWER_LAW


def test_report_collects_everything_coherently():
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    rep = identity_reports(spec, [1.0])
    assert rep.a.tolist() == [1.0]
    assert rep.reduction.shape == (1, 3)
    assert rep.closed.shape == rep.finite_diff.shape == (1, 4)
    assert rep.weight_normalizer[0] > 0.0
    assert abs(rep.wm[0] - ORACLE_WM_EPS01) < 1e-9
    assert rep.variance[0] == pytest.approx(ORACLE_VAR[0.10], rel=1e-8)
    m = moment_bundles(spec, [1.0], 1e-12)
    assert m.theta[0] == pytest.approx(ORACLE_THETA_EPS01, abs=1e-10)
