import json
import math

import mpmath
import numpy as np
import pytest

from gsp_lab import (
    DomainExceeded,
    GspLabError,
    PerturbedPowerLaw,
    PowerLaw,
    Tabulated,
    Verdict,
    classify,
    fit_lambda,
    gsp_residual_sweep,
    invert_lambda,
    lambda_of_p,
    moment_bundles,
    recover_p,
)
from gsp_lab import detector
from gsp_lab.functions import FunctionSpec
from gsp_lab.quadrature import _DEFAULT_BUDGET
from conftest import DEFAULT_SCALES, make_perturbed_table, make_tabulated_power

# Constants frozen from the curve scan done with scipy before this package
# was written: the minimum of the proportionality curve, a few anchors, and
# two full inverse images.
CURVE_MIN_P = 0.326590129326
CURVE_MIN_VALUE = 0.482024412479931
CURVE_AT_10 = 0.625214445316669
LIMIT_AT_INFINITY = 0.679570457114761  # e/4
ROOTS_049 = (0.086753946678, 0.712257638939)
ROOTS_0484 = (0.194018974710, 0.494186087791)


def test_curve_anchors():
    assert lambda_of_p(1.0) == pytest.approx(0.5, abs=1e-15)
    assert lambda_of_p(2.0) == pytest.approx(8.0 / 15.0, abs=1e-15)
    assert lambda_of_p(0.5) == pytest.approx(0.375 * math.sqrt(5.0 / 3.0), abs=1e-15)
    assert lambda_of_p(10.0) == pytest.approx(CURVE_AT_10, abs=1e-12)


def test_curve_minimum_and_limit():
    assert lambda_of_p(CURVE_MIN_P) == pytest.approx(CURVE_MIN_VALUE, abs=1e-12)
    # local minimum: nudging p either way increases the value
    assert lambda_of_p(CURVE_MIN_P - 0.01) > CURVE_MIN_VALUE
    assert lambda_of_p(CURVE_MIN_P + 0.01) > CURVE_MIN_VALUE
    # far tail creeps up toward e/4 without reaching it (gap shrinks ~ 1/p)
    assert CURVE_AT_10 < lambda_of_p(200.0) < LIMIT_AT_INFINITY
    assert lambda_of_p(5000.0) == pytest.approx(LIMIT_AT_INFINITY, abs=2e-4)
    gap_200 = LIMIT_AT_INFINITY - lambda_of_p(200.0)
    gap_1000 = LIMIT_AT_INFINITY - lambda_of_p(1000.0)
    assert gap_200 / gap_1000 == pytest.approx(5.0, rel=0.05)


def test_curve_rejects_bad_exponents():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainExceeded, match="exponent must be positive"):
            lambda_of_p(bad)


def test_curve_is_vectorized():
    p = np.array([0.5, 1.0, 2.0])
    out = lambda_of_p(p)
    assert out.shape == (3,)
    assert out[1] == 0.5
    # a 0-d input answers a float, the array's element to the last bit but
    # at p = 2, where numpy squares a 0-d base instead of calling pow
    for v, want in zip(p.tolist(), out.tolist()):
        for scalar in (v, np.float64(v), np.array(v)):
            got = lambda_of_p(scalar)
            assert type(got) is float
            assert got == want or (v == 2.0 and abs(got - want) == np.spacing(want))


# -------------------------------------------------------------- inversion

def test_inverse_below_minimum_is_empty():
    assert invert_lambda(0.45) == ()


def test_inverse_of_non_injective_value_has_two_roots():
    roots = invert_lambda(0.49)
    assert len(roots) == 2
    for got, want in zip(roots, ROOTS_049):
        assert got == pytest.approx(want, abs=1e-9)

    roots = invert_lambda(0.484)
    assert len(roots) == 2
    for got, want in zip(roots, ROOTS_0484):
        assert got == pytest.approx(want, abs=1e-9)


def test_inverse_of_half_is_exactly_one():
    # the curve equals 1/2 at p=1 and again only in the p -> 0 limit, which
    # sits outside the default range
    roots = invert_lambda(0.5)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [0.7, 1.0, 2.0, 5.0])
def test_inverse_round_trip(p):
    roots = invert_lambda(lambda_of_p(p))
    assert min(abs(r - p) for r in roots) <= 1e-9


def _lambda_minimum():
    """The curve's minimizer and its minimum, from a 30-digit root of
    d log(lambda)/dp taken by mpmath's numerical derivative."""
    with mpmath.workdps(30):
        def lam(p):
            return (p + 1) / (2 * (2 * p + 1)) * ((p + 2) / (p + 1)) ** p

        p_min = mpmath.findroot(lambda p: mpmath.diff(lambda q: mpmath.log(lam(q)), p),
                                0.3266)
        return float(p_min), float(lam(p_min))


def test_inverse_at_and_just_above_the_minimum():
    # the minimum is a tangency with one root; just above it the two roots
    # lie ~7e-7, ~7e-6 and ~7e-5 apart, between two points of any practical
    # scan
    p_min, lam_min = _lambda_minimum()
    roots = invert_lambda(lam_min)
    assert len(roots) == 1
    assert roots[0] == pytest.approx(p_min, abs=1e-12)
    for lam in (lam_min + 1e-14, lam_min + 1e-12, lam_min + 1e-10):
        roots = invert_lambda(lam)
        assert len(roots) == 2
        assert roots[0] < p_min < roots[1]
        for r in roots:
            assert abs(lambda_of_p(r) - lam) <= 1e-15, (lam, r)


def test_inverse_respects_requested_range():
    assert invert_lambda(0.49, p_range=(0.5, 10.0)) == pytest.approx(
        (ROOTS_049[1],), abs=1e-9
    )
    # both roots of 0.484 lie outside these ranges, which miss the minimum
    assert invert_lambda(0.484, p_range=(0.5, 10.0)) == ()
    assert invert_lambda(0.484, p_range=(0.01, 0.15)) == ()
    # a value no float exponent reaches
    for lam in (math.inf, -math.inf, math.nan):
        assert invert_lambda(lam) == ()
    with pytest.raises(DomainExceeded, match="p_range must satisfy"):
        invert_lambda(0.5, p_range=(-1.0, 2.0))


# -------------------------------------------------------- sweep / fitting

def test_residual_zero_at_the_true_constant():
    spec = PowerLaw(p=1.0)
    m = moment_bundles(spec, DEFAULT_SCALES)
    res = gsp_residual_sweep(m.ybar, spec.eval(m.xbar), lambda_of_p(1.0))
    assert np.max(res) < 1e-10


def test_residual_with_wrong_constant_is_the_offset():
    # for p=1 the ordinate is exactly half of f at the centroid, so using
    # 0.46875 instead of 0.5 leaves |1 - 2*0.46875| = 0.0625 at every scale
    spec = PowerLaw(p=1.0)
    m = moment_bundles(spec, DEFAULT_SCALES)
    res = gsp_residual_sweep(m.ybar, spec.eval(m.xbar), 0.46875)
    assert np.allclose(res, 0.0625, atol=1e-9)


def test_sweep_and_fit_refuse_degenerate_input():
    ones = np.ones(3)
    for lam in (0.0, -0.5):
        with pytest.raises(DomainExceeded, match="constant must be positive"):
            gsp_residual_sweep(ones, ones, lam)
    with pytest.raises(GspLabError, match="sum of squares of f\\(xbar\\) vanished"):
        fit_lambda(ones, np.zeros(3))


@pytest.mark.parametrize("p", [0.5, 2.0])
def test_fitted_constant_matches_curve(p):
    spec = PowerLaw(p=p)
    m = moment_bundles(spec, DEFAULT_SCALES)
    lam = fit_lambda(m.ybar, spec.eval(m.xbar))
    assert lam == pytest.approx(lambda_of_p(p), abs=1e-10)


def test_exponent_recovery_routes_agree_on_power_law():
    spec = PowerLaw(p=2.0, amp=7.0)
    p_theta, p_elasticity, amp = recover_p(spec, moment_bundles(spec, DEFAULT_SCALES))
    assert p_theta == pytest.approx(2.0, abs=1e-9)
    assert p_elasticity == pytest.approx(2.0, abs=1e-12)
    assert amp == pytest.approx(7.0, rel=1e-8)


def test_exponent_recovery_flags_drift_for_wobble():
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    p_theta, p_elasticity, _ = recover_p(spec, moment_bundles(spec, DEFAULT_SCALES))
    # both estimates hover near 1 but the theta route absorbs the wobble
    assert abs(p_theta - 1.0) < 0.1
    assert abs(p_elasticity - 1.0) < 0.1


# ---------------------------------------------------------------- verdicts

@pytest.mark.parametrize("p", [0.3, 1.0, 5.0])
def test_classify_accepts_power_laws(p):
    result = classify(PowerLaw(p=p), DEFAULT_SCALES)
    assert result.verdict is Verdict.POWER_LAW
    assert result.p_theta == pytest.approx(p, abs=1e-6)


def test_classify_rejects_wobble():
    result = classify(PerturbedPowerLaw(p=1.0, eps=0.1), DEFAULT_SCALES)
    assert result.verdict is Verdict.NOT_POWER_LAW
    assert result.gsp_residual_max > result.tol_gsp
    assert result.variance_max > result.tol_var
    assert result.notes == "exponent routes disagree: theta 1.02631 vs elasticity 1.03732"


def test_classify_accepts_tabulated_power_law(tab_x15):
    result = classify(tab_x15, DEFAULT_SCALES)
    assert result.verdict is Verdict.POWER_LAW
    assert result.p_theta == pytest.approx(1.5, abs=0.01)


@pytest.mark.parametrize("floor", [0.01, 0.1])
@pytest.mark.parametrize("law, verdict", [
    ("x^1.5", Verdict.POWER_LAW),
    ("eps=0.1", Verdict.NOT_POWER_LAW),
    ("eps=0.01", Verdict.NOT_POWER_LAW),
    ("x+x^3/100", Verdict.NOT_POWER_LAW),
])
def test_table_verdicts_follow_the_data_not_the_floor(floor, law, verdict):
    # 200 log-spaced samples on [floor, 10] over the default grid, whose
    # lowest scale is 0.1: the head below the floor continues its power
    # law, so the verdict no longer sits on the margin of a truncated head
    x = np.geomspace(floor, 10.0, 200)
    f = {"x^1.5": x**1.5, "eps=0.1": x * (1.0 + 0.1 * np.sin(np.log(x))),
         "eps=0.01": x * (1.0 + 0.01 * np.sin(np.log(x))),
         "x+x^3/100": x + x**3 / 100.0}[law]
    result = classify(Tabulated(x, f), DEFAULT_SCALES)
    assert result.verdict is verdict, result.notes
    if verdict is Verdict.POWER_LAW:
        assert result.p_theta == pytest.approx(1.5, abs=1e-12)
        assert result.lambda_hat == pytest.approx(lambda_of_p(1.5), rel=1e-12)


def test_steep_table_head_meshes_no_deeper_than_it_needs():
    # x^40 on [0.01, 10]: 20 head breakpoints would put the kernel's nodes
    # near 4e-11, where the head's f underflows to 0; the one it needs keeps
    # them near 1e-5
    x = np.geomspace(0.01, 10.0, 200)
    spec = Tabulated(x, x**40)
    assert spec.knots[0] == 0.005
    result = classify(spec, DEFAULT_SCALES)
    assert result.verdict is Verdict.POWER_LAW
    assert result.p_theta == pytest.approx(40.0, rel=1e-12)


def test_classify_on_a_kinked_table_stays_cheap(perturbed_table, monkeypatch):
    # regression guard on work done: one panel per knot interval, all
    # of an integral's panels in one call; chasing the kinks of the
    # elasticity by bisection took ~64,000 calls
    calls = []
    for name in ("eval", "elasticity"):
        plain = getattr(FunctionSpec, name)

        def counting(self, x, _plain=plain):
            calls.append(1)
            return _plain(self, x)

        monkeypatch.setattr(FunctionSpec, name, counting)
    result = classify(perturbed_table, DEFAULT_SCALES)
    assert result.verdict is Verdict.NOT_POWER_LAW
    assert len(calls) <= 2000


def test_table_with_more_knots_than_the_budget_gets_a_verdict():
    spec = make_perturbed_table(n=20_001)
    assert spec.knots.size > _DEFAULT_BUDGET
    assert classify(spec, DEFAULT_SCALES).verdict is Verdict.NOT_POWER_LAW


def test_loose_tolerance_yields_inconclusive():
    # at tol=1e-4 the quadrature noise and the analytic threshold overlap,
    # and the verdict must admit it cannot tell
    result = classify(PowerLaw(p=1.3), DEFAULT_SCALES, tol=1e-4)
    assert result.verdict is Verdict.INCONCLUSIVE
    assert result.notes != ""


def test_variance_on_its_threshold_is_inconclusive(monkeypatch):
    # a variance that sits on its threshold is within any quadrature margin
    # of it, so the verdict cannot be told apart from the other side
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    measured = classify(spec, DEFAULT_SCALES)
    assert measured.verdict is Verdict.NOT_POWER_LAW
    monkeypatch.setattr(detector, "_ANALYTIC_THRESHOLDS",
                        (measured.tol_gsp, measured.variance_max))
    result = classify(spec, DEFAULT_SCALES)
    assert result.verdict is Verdict.INCONCLUSIVE
    assert result.tol_var == result.variance_max == measured.variance_max
    assert result.notes.startswith("variance within quadrature margin of threshold")


def test_collapse_residual_on_its_threshold_is_inconclusive(monkeypatch):
    # the twin of the variance case, for the collapse residual's margin
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    measured = classify(spec, DEFAULT_SCALES)
    monkeypatch.setattr(detector, "_ANALYTIC_THRESHOLDS",
                        (measured.gsp_residual_max, measured.tol_var))
    result = classify(spec, DEFAULT_SCALES)
    assert result.verdict is Verdict.INCONCLUSIVE
    assert result.tol_gsp == result.gsp_residual_max == measured.gsp_residual_max
    assert result.notes == ("collapse residual within quadrature margin of threshold; "
                            "exponent routes disagree: theta 1.02631 vs elasticity 1.03732")


def test_result_serializes_to_json():
    result = classify(PowerLaw(p=2.0), DEFAULT_SCALES)
    blob = json.dumps(result.to_dict())
    round_tripped = json.loads(blob)
    assert round_tripped["verdict"] == "PowerLaw"
    assert len(round_tripped["scales"]) == len(round_tripped["gsp_residuals"])
