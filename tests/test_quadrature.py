import math

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from gsp_lab import (
    DomainExceeded,
    PowerLaw,
    ToleranceNotReached,
    cumulative,
    moment_bundles,
)
from gsp_lab import quadrature
from gsp_lab.quadrature import _CHUNK
from conftest import DEFAULT_SCALES, make_cubic_custom, make_tabulated_power


def _same(a, b):
    """Whether two results agree bit for bit."""
    return (a.value.tobytes() == b.value.tobytes()
            and a.error_estimate.tobytes() == b.error_estimate.tobytes()
            and a.edges.tobytes() == b.edges.tobytes())


def test_polynomial_is_exact_in_one_panel():
    res = cumulative(lambda x: 3.0 * x**2, 0.0, 2.0, 1e-12)
    assert res.edges.size - 1 == 1
    assert abs(res.value[0, 0] - 8.0) < 1e-13


@pytest.mark.parametrize(
    "fn,lo,hi,exact,tol",
    [
        (lambda x: x**0.3, 0.0, 1.0, 1.0 / 1.3, 1e-10),
        # a divergent (but integrable) endpoint: the error at 0 falls only
        # like h^0.5 as the panel there shrinks, so the demand is looser
        (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 2.0, 1e-6),
        (lambda x: np.sin(40.0 * x), 0.0, np.pi, (1 - np.cos(40 * np.pi)) / 40,
         1e-10),
        # int_0^30 e^-x x^4 dx in closed form
        (lambda x: np.exp(-x) * x**4, 0.0, 30.0,
         24.0 - math.exp(-30.0) * (30.0**4 + 4 * 30.0**3 + 12 * 30.0**2 + 24 * 30.0 + 24),
         1e-10),
    ],
)
def test_agrees_with_exact_and_estimate_is_honest(fn, lo, hi, exact, tol):
    res = cumulative(fn, lo, hi, tol)
    err = abs(res.value[0, 0] - exact)
    assert err <= max(tol, tol * abs(exact)) * 5
    assert err <= res.error_estimate[0, 0] * 10 + 1e-15  # estimate not wildly low


@pytest.mark.parametrize("fn, exact", [
    (lambda x: x**0.3, 1.0 / 1.3),
    (lambda x: x**0.01, 1.0 / 1.01),
    (lambda x: -x * np.log(x), 0.25),
], ids=["x^0.3", "x^0.01", "-x log x"])
def test_endpoint_singularity_takes_few_rounds(fn, exact):
    # one bisection of the panel at 0 per round would take 29, 34 and 17
    # calls; the geometric cut there reaches the depth the error needs at once
    calls = []

    def counting(x):
        calls.append(1)
        return fn(x)

    res = cumulative(counting, 0.0, 1.0, 1e-12)
    err = abs(res.value[0, 0] - exact)
    assert len(calls) <= 3
    assert err <= 5e-15 * exact
    assert err <= res.error_estimate[0, 0]


def test_matches_scipy_quad_on_rough_integrand():
    # dual route: same integral through an unrelated adaptive engine
    fn = lambda x: np.abs(np.sin(7.0 * x)) ** 1.5
    mine = cumulative(fn, 0.0, 5.0, 1e-9).value[0, 0]
    # the kinks of |sin 7x| at k pi / 7 are breakpoints for scipy
    ref, _ = sp_integrate.quad(fn, 0.0, 5.0, epsabs=1e-11, epsrel=1e-11,
                               limit=500, points=np.pi * np.arange(1, 12) / 7)
    assert abs(mine - ref) < 1e-8


def test_endpoints_are_never_sampled():
    seen = []

    def fn(x):
        seen.append((float(np.min(x)), float(np.max(x))))
        return 1.0 / np.sqrt(x)

    cumulative(fn, 0.0, 1.0, 1e-6)
    lo_seen = min(lo for lo, _ in seen)
    hi_seen = max(hi for _, hi in seen)
    assert lo_seen > 0.0
    assert hi_seen < 1.0


def test_budget_exhaustion_raises_with_partial_result(monkeypatch):
    monkeypatch.setattr(quadrature, "_DEFAULT_BUDGET", 8)
    fn = lambda x: 1.0 / np.sqrt(np.abs(x - np.sqrt(2) / 2) + 1e-14)
    with pytest.raises(ToleranceNotReached, match="above tolerance after 8 panels") as info:
        cumulative(fn, 0.0, 1.0, 1e-13)
    assert not hasattr(info.value, "result")


def test_budget_limited_round_splits_the_worst_panels(monkeypatch):
    # four knot panels, each holding a sqrt kink, are all marked, but the
    # budget leaves room for two splits: the two largest errors take them,
    # and the panel count stops at the budget
    monkeypatch.setattr(quadrature, "_DEFAULT_BUDGET", 3)
    weights = (1.0, 3.0, 2.0, 1.5)
    fn = lambda x: sum(w * np.sqrt(np.abs(x - (0.1 + 0.25 * k)))
                       for k, w in enumerate(weights))
    edges = np.linspace(0.0, 1.0, 5)
    _, err = quadrature._panels(fn, edges[:-1], edges[1:])
    err = err[:, 0]
    assert np.all(err >= quadrature._MARK * err.max())
    calls = []

    def recording(x):
        calls.append(np.array(x))
        return fn(x)

    with pytest.raises(ToleranceNotReached, match="after 6 panels") as info:
        cumulative(recording, 0.0, 1.0, 1e-13, breakpoints=edges[1:-1])
    assert not hasattr(info.value, "result")
    assert len(calls) == 2
    split = set(np.floor(4.0 * calls[1]).astype(int).tolist())
    assert split == set(np.argsort(-err)[:2].tolist())


@pytest.mark.parametrize("tol", [1e-8], ids=["converged"])
def test_edges_are_the_final_panels(tol):
    # the edges of every panel the values sum: from lo to the last cut,
    # every cut and breakpoint among them
    fn = lambda x: 1.0 / np.sqrt(np.abs(x - np.sqrt(2) / 2) + 1e-14)
    cuts, breaks = [0.25, 0.5, 1.0], [0.1, 0.6]
    res = cumulative(fn, 0.0, cuts, tol, breakpoints=breaks)
    assert res.edges[0] == 0.0 and res.edges[-1] == 1.0
    assert np.all(np.diff(res.edges) > 0.0)
    assert np.isin(cuts + breaks, res.edges).all()


def test_bad_intervals_rejected():
    with pytest.raises(DomainExceeded):
        cumulative(lambda x: x, 1.0, 1.0)
    with pytest.raises(DomainExceeded):
        cumulative(lambda x: x, 2.0, 1.0)
    with pytest.raises(DomainExceeded):
        cumulative(lambda x: x, 0.0, np.inf)


def test_determinism():
    fn = lambda x: np.sin(13.0 * x) ** 2 / (x + 0.1)
    a = cumulative(fn, 0.0, 3.0, 1e-11)
    b = cumulative(fn, 0.0, 3.0, 1e-11)
    assert _same(a, b)


# ----------------------------------------------------------- breakpoints

def test_kink_at_a_breakpoint_takes_two_panels():
    c = 0.3
    kinked = lambda x: np.abs(x - c)
    res = cumulative(kinked, 0.0, 1.0, 1e-12, breakpoints=[c])
    assert res.edges.size - 1 == 2
    assert abs(res.value[0, 0] - 0.5 * (c * c + (1.0 - c) ** 2)) <= 1e-12
    assert cumulative(kinked, 0.0, 1.0, 1e-12).edges.size - 1 > 2


def test_breakpoints_at_or_outside_the_interval_are_ignored():
    fn = lambda x: np.sin(3.0 * x) + x**2
    plain = cumulative(fn, 0.2, 1.0, 1e-12)
    edges = cumulative(fn, 0.2, 1.0, 1e-12, breakpoints=[1.0, -1.0, 0.2, 5.0])
    assert _same(edges, plain)


@pytest.mark.parametrize("empty", [(), [], np.empty(0)])
def test_no_breakpoints_is_bit_identical(empty):
    fn = lambda x: np.sin(13.0 * x) ** 2 / (x + 0.1)
    assert _same(cumulative(fn, 0.0, 3.0, 1e-11, breakpoints=empty),
                 cumulative(fn, 0.0, 3.0, 1e-11))


def test_breakpoint_panels_that_miss_are_bisected():
    # sqrt(|x - c|) has an infinite slope at c, so its knot panels cannot
    # meet the tolerance without refinement
    fn = lambda x: np.sqrt(np.abs(x - 0.3))
    res = cumulative(fn, 0.0, 1.0, 1e-10, breakpoints=[0.3, 0.7])
    exact = 2.0 / 3.0 * (0.3**1.5 + 0.7**1.5)
    assert res.edges.size - 1 > 3
    assert abs(res.value[0, 0] - exact) <= 1e-9


def test_more_breakpoint_panels_than_the_budget_still_converge(monkeypatch):
    # the budget bounds bisections, not the panels the breakpoints demand
    monkeypatch.setattr(quadrature, "_DEFAULT_BUDGET", 8)
    cuts = np.linspace(0.0, 1.0, 41)
    res = cumulative(lambda x: np.abs(np.sin(20.0 * np.pi * x)), 0.0, 1.0,
                     1e-12, breakpoints=cuts)
    assert res.edges.size - 1 == 40
    assert abs(res.value[0, 0] - 2.0 / np.pi) <= 1e-12


# ------------------------------------------------------------ cumulative

def test_cumulative_prefixes_match_closed_forms():
    fn = lambda x: np.column_stack((np.sin(3.0 * x), x**2, np.exp(-x)))
    cuts = np.array([0.5, 1.0, 2.0, 3.0])
    res = cumulative(fn, 0.0, cuts, 1e-12)
    assert res.value.shape == res.error_estimate.shape == (4, 3)
    exact = np.column_stack(((1.0 - np.cos(3.0 * cuts)) / 3.0, cuts**3 / 3.0,
                             1.0 - np.exp(-cuts)))
    assert np.all(np.abs(res.value - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))


def test_cumulative_holds_each_output_to_its_own_unit():
    # int_0^c x^0.3 = c^1.3 / 1.3: in the unit c^1.3 each prefix is O(1), so
    # the tolerance becomes relative at every cut, four decades down too
    cuts = np.array([1e-4, 1e-2, 1.0])
    exact = cuts**1.3 / 1.3
    res = cumulative(lambda x: x**0.3, 0.0, cuts, 1e-10, units=cuts[:, None] ** 1.3)
    assert np.all(np.abs(res.value[:, 0] - exact) <= 1e-10 * exact)
    # with unit 1 the small prefixes only have to meet the absolute floor
    assert cumulative(lambda x: x**0.3, 0.0, cuts, 1e-10).edges.size - 1 < res.edges.size - 1


def test_infinite_unit_leaves_an_output_unreported():
    # the second column has an infinite slope at 0.3, which only drives
    # refinement while its outputs are reported
    fn = lambda x: np.column_stack((x, np.sqrt(np.abs(x - 0.3))))
    shown = cumulative(fn, 0.0, [0.5, 1.0], 1e-10)
    hidden = cumulative(fn, 0.0, [0.5, 1.0], 1e-10, units=[1.0, np.inf])
    assert hidden.edges.size - 1 == 2 < shown.edges.size - 1
    assert hidden.value[1, 0] == pytest.approx(0.5, abs=1e-12)


def test_integrand_calls_are_chunked():
    # the working arrays stay bounded however many panels there are
    sizes = []

    def fn(x):
        sizes.append(x.size)
        return np.column_stack((x, x * x))

    cuts = np.linspace(0.001, 1.0, 4 * _CHUNK)
    res = cumulative(fn, 0.0, cuts, 1e-12)
    assert max(sizes) <= 15 * _CHUNK < sum(sizes)
    assert np.all(np.abs(res.value[:, 1] - cuts**3 / 3.0) <= 1e-12 * cuts**3)


def test_cuts_must_increase_above_lo():
    fn = lambda x: x
    with pytest.raises(DomainExceeded):
        cumulative(fn, 1.0, [0.5, 2.0])
    with pytest.raises(DomainExceeded):
        cumulative(fn, 0.0, [1.0, 1.0])
    with pytest.raises(DomainExceeded):
        cumulative(fn, 0.0, [])


def _knot_split_reference(spec, scales, moments):
    """Scale-free A, B, C and the variance at every scale, from one
    scipy.integrate.quad_vec pass in x from 0 that splits at the table
    knots, its head's among them, and the scales; the rows vanish beyond
    each scale."""
    a = np.asarray(scales)
    fa, theta = moments.fa, moments.theta
    e_center = spec.elasticity(a * theta)

    def rows(x):
        f, e, s = spec.eval(x), spec.elasticity(x), x / a
        out = np.array([f / (a * fa), s * f / (a * fa), f * f / (a * fa * fa),
                        (s - theta) ** 2 * f / fa * (e - e_center) ** 2 / a])
        return np.where(x < a, out, 0.0)

    points = np.union1d(spec.knots[:-1], a[:-1])
    ref, err = sp_integrate.quad_vec(rows, 0.0, a[-1], points=points,
                                     epsabs=1e-300, epsrel=1e-14, norm="max")
    assert err <= 1e-12
    return ref


def test_cumulative_holds_each_column_to_its_own_tolerance():
    # x^0.3 twice, the first column at 1e-4 and the second at 1e-12: the
    # tight column drives the shared refinement, and each meets its target
    cuts = np.array([0.25, 0.5, 1.0])
    fn = lambda x: np.column_stack((x**0.3, x**0.3))
    tol = np.array([1e-4, 1e-12])
    res = cumulative(fn, 0.0, cuts, tol)
    exact = cuts**1.3 / 1.3
    for c in range(2):
        target = tol[c] * np.maximum(1.0, np.abs(res.value[:, c]))
        assert np.all(res.error_estimate[:, c] <= target)
        assert np.all(np.abs(res.value[:, c] - exact) <= target)
    loose = cumulative(fn, 0.0, cuts, 1e-4)
    assert loose.edges.size - 1 < res.edges.size - 1
    assert np.max(np.abs(loose.value[:, 0] - exact)) > 1e-12
    with pytest.raises(DomainExceeded, match="tolerance must be positive"):
        cumulative(fn, 0.0, cuts, np.array([1e-10, 0.0]))


def test_table_moments_to_machine_precision(perturbed_table):
    spec = perturbed_table
    scales = DEFAULT_SCALES.tolist()
    m = moment_bundles(spec, scales)
    ref = _knot_split_reference(spec, scales, m)
    for i, a in enumerate(m.a):
        for got, want in ((m.A[i], ref[0, i]), (m.B[i], ref[1, i]), (m.C[i], ref[2, i])):
            # F, H and G differ from A, B and C by exact factors of a and f(a)
            assert abs(got - want) <= 1e-12 * want, a
        assert abs(m.variance[i] - ref[3, i]) <= 1e-12, a


# --------------------------------------------------------------- moments

def test_moment_kinds_match_hand_integrals():
    # f = 3 x^2 on (0, 2]: all six integrals are elementary
    spec = PowerLaw(p=2.0, amp=3.0)
    f, df = spec.eval, lambda x: 6.0 * x
    want = {
        "F": (f, 8.0),
        "H": (lambda x: x * f(x), 12.0),
        "G": (lambda x: f(x) ** 2, 57.6),
        "I1": (lambda x: x * df(x), 16.0),
        "I2": (lambda x: x**2 * df(x), 24.0),
        "I3": (lambda x: x * f(x) * df(x), 115.2),
    }
    for kind, (fn, val) in want.items():
        res = cumulative(fn, 0.0, 2.0, 1e-11)
        assert abs(res.value[0, 0] - val) <= 1e-9 * val, kind


def test_moment_x_form_reductions_for_custom_spec():
    # int x f' = a f(a) - F and friends, on a non-power-law
    spec = make_cubic_custom()
    a = 1.7
    fa = spec.eval(a)
    f = spec.eval
    df = lambda x: spec.elasticity(x) * f(x) / x  # f' = E f / x
    F = cumulative(f, 0.0, a, 1e-12).value[0, 0]
    H = cumulative(lambda x: x * f(x), 0.0, a, 1e-12).value[0, 0]
    G = cumulative(lambda x: f(x) ** 2, 0.0, a, 1e-12).value[0, 0]
    i1 = cumulative(lambda x: x * df(x), 0.0, a, 1e-12).value[0, 0]
    i2 = cumulative(lambda x: x**2 * df(x), 0.0, a, 1e-12).value[0, 0]
    i3 = cumulative(lambda x: x * f(x) * df(x), 0.0, a, 1e-12).value[0, 0]
    assert abs(i1 - (a * fa - F)) < 1e-10
    assert abs(i2 - (a * a * fa - 2.0 * H)) < 1e-10
    assert abs(i3 - 0.5 * (a * fa * fa - G)) < 1e-10


@pytest.mark.parametrize("x0", [1e-4, 1e-2, 0.09])
@pytest.mark.parametrize("p", [0.05, 0.3, 1.5, 3.0])
def test_exact_power_tables_match_the_closed_forms_from_zero(p, x0):
    # 4 x^p sampled on [x0, 10]: below x0 the table continues its floor's
    # power law, so F, H and G on (0, a] are the closed forms, at a scale
    # below the first sample as well as above it
    spec = make_tabulated_power(amp=4.0, p=p, lo=x0, hi=10.0, n=200)
    a = np.array([0.5 * x0, 0.1, 1.0, 10.0])
    m = moment_bundles(spec, a, 1e-10)
    for got, k, amp in ((m.F, p + 1.0, 4.0), (m.H, p + 2.0, 4.0),
                        (m.G, 2.0 * p + 1.0, 16.0)):
        want = amp * a**k / k
        assert np.all(np.abs(got - want) <= 1e-12 * want), (got / want - 1.0)


def test_moment_beyond_tabulated_hull_rejected():
    spec = make_tabulated_power(lo=0.01, hi=10.0, n=80)
    with pytest.raises(DomainExceeded):
        moment_bundles(spec, [11.0])
    # below the first sample is the head's power law, not outside the support
    assert moment_bundles(spec, [0.005]).theta[0] == pytest.approx(2.5 / 3.5, rel=1e-12)
