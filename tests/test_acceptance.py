"""Acceptance gate: eight end-to-end checks, one printed line each.

Every test prints exactly one ``ACCEPTANCE n: PASS/FAIL - ...`` line
(visible in the pytest summary) and then asserts, so a red run still
shows the full scoreboard.
"""

import numpy as np

from gsp_lab import (
    PerturbedPowerLaw,
    PowerLaw,
    SamplerState,
    Verdict,
    classify,
    identity_reports,
    invert_lambda,
    lambda_of_p,
    mc_estimates,
    moment_bundles,
)

from conftest import DEFAULT_SCALES, gallery, make_tabulated_power

P_MATRIX = (0.3, 0.5, 1.0, 2.0, 5.0)
AMP_MATRIX = (1.0, 7.0)
A_MATRIX = (0.1, 1.0, 10.0)
SCALES = (0.5, 1.0, 2.0, 8.0)

# Two-root preimage of lambda=0.49, frozen from a standalone scan of the
# lambda curve run before this package was written (scipy bisection on a
# dense grid).  Values just below 1/2 always have two preimages because
# the curve dips between its equal endpoints at p->0 and p=1.
ROOTS_049 = (0.086753946678, 0.712257638939)


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_acceptance_01_centroid_closed_forms():
    worst = 0.0
    cases = 0
    for p in P_MATRIX:
        for amp in AMP_MATRIX:
            spec = PowerLaw(p=p, amp=amp)
            m = moment_bundles(spec, A_MATRIX)
            for a, xbar, ybar in zip(A_MATRIX, m.xbar, m.ybar):
                xbar_true = a * (p + 1.0) / (p + 2.0)
                ybar_true = amp * a**p * (p + 1.0) / (2.0 * (2.0 * p + 1.0))
                worst = max(
                    worst,
                    abs(xbar - xbar_true) / a,
                    abs(ybar - ybar_true) / ybar_true,
                )
                cases += 1
    _report(1, worst <= 1e-9,
            f"centroid closed forms, {cases} cases, max rel err {worst:.3e}")


def test_acceptance_02_scaling_constant_from_quadrature():
    worst = 0.0
    for p in P_MATRIX:
        lam = lambda_of_p(p)
        for amp in AMP_MATRIX:
            spec = PowerLaw(p=p, amp=amp)
            m = moment_bundles(spec, A_MATRIX)
            ratio = m.ybar / spec.eval(m.xbar)
            worst = max(worst, float(np.max(np.abs(ratio - lam) / lam)))
    anchors_ok = (
        abs(lambda_of_p(1.0) - 0.5) < 1e-14
        and abs(lambda_of_p(2.0) - 8.0 / 15.0) < 1e-14
    )
    ok = worst <= 1e-8 and anchors_ok
    _report(2, ok,
            f"ybar/f(xbar) matches the lambda curve, max rel err {worst:.3e}, "
            f"anchors lambda(1)=1/2 and lambda(2)=8/15 {'ok' if anchors_ok else 'BAD'}")


def test_acceptance_03_integration_by_parts_reductions():
    worst = 0.0
    worst_label = ""
    for label, spec in gallery():
        for a, red in zip(SCALES, identity_reports(spec, SCALES).reduction):
            r = max(red)
            if r > worst:
                worst, worst_label = r, f"{label}@a={a}"
    _report(3, worst <= 1e-7,
            f"scale-derivative reductions over the full gallery, "
            f"max residual {worst:.3e} ({worst_label})")


def test_acceptance_04_derivative_identities():
    worst_gap = 0.0
    worst_flat = 0.0
    for label, spec in gallery():
        rep = identity_reports(spec, SCALES)
        closed, fin = rep.closed, rep.finite_diff
        # tolerance max(1e-5 abs, 1e-4 rel) == 1e-4 * max(0.1, |closed|)
        worst_gap = max(worst_gap, float(np.max(np.abs(closed - fin) /
                                                np.maximum(0.1, np.abs(closed)))))
        if isinstance(spec, PowerLaw):
            worst_flat = max(worst_flat, float(np.max(np.abs(closed))))
    ok = worst_gap <= 1e-4 and worst_flat <= 1e-10
    _report(4, ok,
            f"closed-form derivatives vs finite differences, worst scaled gap "
            f"{worst_gap:.3e} (tol 1e-4); power-law derivatives flat to {worst_flat:.3e}")


def _wobble_variance(eps):
    """The variance functional of x (1 + eps sin log x) at a = 1."""
    return moment_bundles(PerturbedPowerLaw(p=1.0, eps=eps), [1.0], 1e-12).variance[0]


def test_acceptance_05_variance_dichotomy():
    grid = DEFAULT_SCALES
    worst_power = 0.0
    for label, spec in gallery():
        if not isinstance(spec, PowerLaw):
            continue
        variance = moment_bundles(spec, grid, 1e-12).variance
        worst_power = max(worst_power, float(np.max(variance)))
    bump = _wobble_variance(0.1)
    ratios = [_wobble_variance(e) / e**2 for e in (0.02, 0.05, 0.1)]
    quadratic = max(ratios) / min(ratios) <= 2.0
    ok = worst_power <= 1e-12 and bump >= 1e-6 and quadratic
    _report(5, ok,
            f"variance functional: <= {worst_power:.3e} on power laws, "
            f"{bump:.3e} on the wobble at a=1, eps^2 ratios "
            f"{min(ratios):.4f}..{max(ratios):.4f}")


def test_acceptance_06_detector_round_trip():
    worst_p = 0.0
    verdicts_ok = True
    for p in P_MATRIX:
        res = classify(PowerLaw(p=p), DEFAULT_SCALES)
        verdicts_ok &= res.verdict is Verdict.POWER_LAW
        worst_p = max(worst_p, abs(res.p_theta - p))
    wobble = classify(PerturbedPowerLaw(p=1.0, eps=0.1), DEFAULT_SCALES)
    tab = classify(make_tabulated_power(), DEFAULT_SCALES)
    ok = (
        verdicts_ok
        and worst_p <= 1e-6
        and wobble.verdict is Verdict.NOT_POWER_LAW
        and tab.verdict is Verdict.POWER_LAW
        and abs(tab.p_theta - 1.5) <= 0.01
    )
    _report(6, ok,
            f"classify round-trip: max |p_hat - p| = {worst_p:.3e}, wobble -> "
            f"{wobble.verdict.value}, tabulated -> {tab.verdict.value} "
            f"(p_hat={tab.p_theta:.6f})")


def test_acceptance_07_monte_carlo_centroids():
    n = 1_000_000
    worst_z = 0.0
    deterministic = True
    for p in (1.0, 2.0):
        spec = PowerLaw(p=p)
        est = mc_estimates(SamplerState(spec, 1.0, seed=0), n)
        m = moment_bundles(spec, [1.0])
        worst_z = max(
            worst_z,
            abs(est.mean_x - m.xbar[0]) / est.stderr_x,
            abs(0.5 * est.mean_fx - m.ybar[0]) / (0.5 * est.stderr_fx),
        )
        again = SamplerState(spec, 1.0, seed=0).draw(n)
        first = SamplerState(spec, 1.0, seed=0).draw(n)
        deterministic &= first.tobytes() == again.tobytes()
    ok = worst_z <= 4.0 and deterministic
    _report(7, ok,
            f"10^6-draw centroid estimates, worst |z| = {worst_z:.2f} "
            f"(limit 4); same-seed draws byte-identical: {deterministic}")


def test_acceptance_08_lambda_inversion():
    worst = 0.0
    for p in (0.7, 1.0, 2.0, 5.0):
        roots = invert_lambda(lambda_of_p(p), p_range=(0.01, 10.0))
        worst = max(worst, min(abs(r - p) for r in roots))
    pair = invert_lambda(0.49, p_range=(0.01, 10.0))
    pair_ok = len(pair) == 2 and all(
        abs(r - e) <= 1e-9 for r, e in zip(pair, ROOTS_049)
    )
    none_below_dip = invert_lambda(0.45, p_range=(0.01, 10.0)) == ()
    ok = worst <= 1e-9 and pair_ok and none_below_dip
    _report(8, ok,
            f"lambda inversion round-trip err {worst:.3e}; lambda=0.49 -> "
            f"{len(pair)} roots matching the frozen scan; lambda=0.45 -> none")
