import numpy as np
import pytest
from scipy import integrate as sp_integrate

from gsp_lab import (
    PerturbedPowerLaw,
    PowerLaw,
    ScaleGrid,
    Tabulated,
    abc_derivatives,
    fd_derivatives,
    identity_report,
    moment_bundle,
    reduction_residuals,
    theta_derivative_integral_form,
    variance_functional,
    wm_residual,
)
from conftest import gallery

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
    res = reduction_residuals(spec, a, 1e-10)
    assert max(res) <= 1e-7, (label, a, res)


def test_table_reductions_carry_the_boundary_terms():
    # on a table the profile starts at s0 = x0 / a > 0; for exact x^1.5
    # samples on [0.01, 10] the residual red_i1 without the boundary terms
    # would be s0^2.5, 1e-5 at a = 1
    x = np.geomspace(0.01, 10.0, 200)
    spec = Tabulated(x, x**1.5)
    for a in ScaleGrid.log_spaced().clipped_to(spec):
        assert max(reduction_residuals(spec, a)) <= 1e-12, a


def test_reduction_left_sides_match_scipy_for_perturbed():
    # same three integrals through scipy, as an engine-independent route
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    a = 2.0
    b = moment_bundle(spec, a, 1e-12)
    g = lambda s: spec.eval(a * s) / b.fa
    E = lambda s: spec.elasticity(a * s)
    i1, _ = sp_integrate.quad(lambda s: g(s) * E(s), 0, 1,
                              epsabs=1e-13, epsrel=1e-13)
    i2, _ = sp_integrate.quad(lambda s: s * g(s) * E(s), 0, 1,
                              epsabs=1e-13, epsrel=1e-13)
    i3, _ = sp_integrate.quad(lambda s: g(s) ** 2 * E(s), 0, 1,
                              epsabs=1e-13, epsrel=1e-13)
    assert abs(i1 - (1.0 - b.A)) < 1e-10
    assert abs(i2 - (1.0 - 2.0 * b.B)) < 1e-10
    assert abs(i3 - (1.0 - b.C) / 2.0) < 1e-10


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("a", SCALES)
def test_power_law_scale_derivatives_are_zero(p, a):
    d = abc_derivatives(PowerLaw(p=p), a)
    assert max(abs(v) for v in (d.dA, d.dB, d.dC, d.dtheta)) <= 1e-10


@pytest.mark.parametrize("label,spec", gallery())
@pytest.mark.parametrize("a", SCALES)
def test_closed_form_matches_finite_difference(label, spec, a):
    closed = abc_derivatives(spec, a).as_array()
    fd = fd_derivatives(spec, a).as_array()
    tol = 1e-5 + 1e-4 * np.abs(closed)
    assert np.all(np.abs(closed - fd) <= tol), (label, a, closed, fd)


@pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
def test_theta_prime_two_routes_agree(a):
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    quotient = abc_derivatives(spec, a).dtheta
    integral = theta_derivative_integral_form(spec, a)
    assert abs(quotient - integral) < 1e-9


def test_fd_rejects_step_reaching_zero():
    from gsp_lab import NonPositiveInput

    with pytest.raises(NonPositiveInput):
        fd_derivatives(PowerLaw(p=1.0), 1.0, h=1.0)


# ------------------------------------------------ weighted mean / variance

@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("a", SCALES)
def test_weighted_mean_identity_on_power_laws(p, a):
    assert abs(wm_residual(PowerLaw(p=p), a)) <= 1e-10


def test_weighted_mean_residual_matches_oracle():
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    assert abs(wm_residual(spec, 1.0) - ORACLE_WM_EPS01) < 1e-9


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("a", SCALES)
def test_variance_vanishes_on_power_laws(p, a):
    assert variance_functional(PowerLaw(p=p), a) <= 1e-14


@pytest.mark.parametrize("eps", sorted(ORACLE_VAR))
def test_variance_matches_oracle(eps):
    spec = PerturbedPowerLaw(p=1.0, eps=eps)
    val = variance_functional(spec, 1.0)
    assert val == pytest.approx(ORACLE_VAR[eps], rel=1e-8)


def test_variance_scales_quadratically_in_wobble():
    ratios = [ORACLE_VAR[e] / e**2 for e in sorted(ORACLE_VAR)]
    measured = [
        variance_functional(PerturbedPowerLaw(p=1.0, eps=e), 1.0) / e**2
        for e in sorted(ORACLE_VAR)
    ]
    for r, m in zip(ratios, measured):
        assert m == pytest.approx(r, rel=1e-8)
    assert max(measured) / min(measured) < 2.0


def test_report_collects_everything_coherently():
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    rep = identity_report(spec, 1.0)
    assert rep.a == 1.0
    assert len(rep.reduction) == 3
    assert rep.weight_normalizer > 0.0
    assert abs(rep.wm - ORACLE_WM_EPS01) < 1e-9
    assert rep.variance == pytest.approx(ORACLE_VAR[0.10], rel=1e-8)
    b = moment_bundle(spec, 1.0, 1e-12)
    assert b.theta == pytest.approx(ORACLE_THETA_EPS01, abs=1e-10)
