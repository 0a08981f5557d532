import math
import re

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from gsp_lab import (
    Custom,
    DomainExceeded,
    GspLabError,
    Moments,
    PerturbedPowerLaw,
    PowerLaw,
    QuadResult,
    Tabulated,
    Verdict,
    classify,
    identity_reports,
    moment_bundles,
)
from gsp_lab import moments
from gsp_lab.moments import _median
from conftest import DEFAULT_SCALES, make_cubic_custom, make_perturbed_table


def test_spec_example_values():
    m = moment_bundles(PowerLaw(p=2.0, amp=3.0), [2.0])
    assert abs(m.F[0] - 8.0) < 1e-9
    assert abs(m.H[0] - 12.0) < 1e-9
    assert abs(m.G[0] - 57.6) < 1e-8
    assert abs(m.xbar[0] - 1.5) < 1e-10
    assert abs(m.ybar[0] - 3.6) < 1e-9
    assert abs(m.theta[0] - 0.75) < 1e-11
    assert m.fa[0] == 12.0


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_power_law_normalized_moments(p, a):
    m = moment_bundles(PowerLaw(p=p, amp=1.7), [a])
    assert abs(m.A[0] - 1.0 / (p + 1.0)) < 1e-10
    assert abs(m.B[0] - 1.0 / (p + 2.0)) < 1e-10
    assert abs(m.C[0] - 1.0 / (2.0 * p + 1.0)) < 1e-10
    assert abs(m.theta[0] - (p + 1.0) / (p + 2.0)) < 1e-10


def test_amplitude_cancels_in_normalized_moments():
    a = 2.3
    m1 = moment_bundles(PowerLaw(p=1.5, amp=1.0), [a])
    m7 = moment_bundles(PowerLaw(p=1.5, amp=7.0), [a])
    assert abs(m1.A[0] - m7.A[0]) < 1e-12
    assert abs(m1.B[0] - m7.B[0]) < 1e-12
    assert abs(m1.C[0] - m7.C[0]) < 1e-12
    assert abs(m7.ybar[0] - 7.0 * m1.ybar[0]) < 1e-9 * m7.ybar[0]


def test_perturbed_primitives_against_scipy():
    # independent engine, same integrals
    p, eps, a = 1.0, 0.1, 1.0
    fn = lambda x: x**p * (1.0 + eps * np.sin(np.log(x)))
    F, _ = sp_integrate.quad(fn, 0, a, epsabs=1e-13, epsrel=1e-13)
    H, _ = sp_integrate.quad(lambda x: x * fn(x), 0, a, epsabs=1e-13, epsrel=1e-13)
    G, _ = sp_integrate.quad(lambda x: fn(x) ** 2, 0, a, epsabs=1e-13, epsrel=1e-13)
    prim = moment_bundles(PerturbedPowerLaw(p=p, eps=eps), [a], 1e-12)
    assert abs(prim.F[0] - F) < 1e-11
    assert abs(prim.H[0] - H) < 1e-11
    assert abs(prim.G[0] - G) < 1e-11


def _closed_primitives(p, eps, a):
    """F, H, G of x^p (1 + eps sin ln x) on (0, a], from
    int_0^a x^q sin(ln x) dx = a^k (k sin ln a - cos ln a) / (k^2 + 1) with
    k = q + 1, its cos(2 ln x) analogue, and sin^2 = (1 - cos 2 ln x) / 2."""
    la = np.log(a)

    def pw(q):
        return a ** (q + 1.0) / (q + 1.0)

    def sin1(q):
        k = q + 1.0
        return a**k * (k * np.sin(la) - np.cos(la)) / (k * k + 1.0)

    def cos2(q):
        k = q + 1.0
        return a**k * (k * np.cos(2.0 * la) + 2.0 * np.sin(2.0 * la)) / (k * k + 4.0)

    q = 2.0 * p
    return (pw(p) + eps * sin1(p), pw(p + 1.0) + eps * sin1(p + 1.0),
            pw(q) + 2.0 * eps * sin1(q) + 0.5 * eps * eps * (pw(q) - cos2(q)))


@pytest.mark.parametrize("spec,p,eps", [(PowerLaw(p=1.5), 1.5, 0.0),
                                        (PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, 0.1)],
                         ids=["power", "perturbed"])
@pytest.mark.parametrize("a", [0.01, 0.1, 1.0, 10.0])
def test_primitives_are_accurate_relative_to_their_size(spec, p, eps, a):
    # tol applies in scale-free units, so it is a relative accuracy at small
    # scales too instead of an absolute floor far above F, H and G there
    m = moment_bundles(spec, [a], 1e-10)
    for got, want in zip((m.F[0], m.H[0], m.G[0]), _closed_primitives(p, eps, a)):
        assert abs(got - want) <= 1e-9 * want


def _mp_profile_moments(f, E, a, kink=None):
    """A, theta, wm, the variance, and AE, BE, CE (int g E, int s g E and
    int g^2 E) of f, whose elasticity is E, at the scale a, from 30-digit
    tanh-sinh quadratures of the profile g(s) = f(a s) / f(a) over (0, 1],
    split at kink / a when a > kink; f and E take and give mpf."""
    with mpmath.workdps(30):
        a = mpmath.mpf(a)
        fa = f(a)
        nodes = [0, kink / a, 1] if kink is not None and a > kink else [0, 1]

        def g(s):
            return f(a * s) / fa

        def quad(fn):
            return mpmath.quad(fn, nodes)

        A = quad(g)
        theta = quad(lambda s: s * g(s)) / A
        w = lambda s: (s - theta) ** 2 * g(s)
        e_theta = E(a * theta)
        wm = quad(lambda s: w(s) * E(a * s)) / quad(w) - e_theta
        variance = quad(lambda s: w(s) * (E(a * s) - e_theta) ** 2)
        AE = quad(lambda s: g(s) * E(a * s))
        BE = quad(lambda s: s * g(s) * E(a * s))
        CE = quad(lambda s: g(s) ** 2 * E(a * s))
        return [float(v) for v in (A, theta, wm, variance, AE, BE, CE)]


_MOMENT_NAMES = ("A", "theta", "wm", "variance", "AE", "BE", "CE")


def _mp_perturbed(p, eps):
    """x^p (1 + eps sin ln x) and its elasticity, in mpf."""
    p, eps = mpmath.mpf(p), mpmath.mpf(eps)

    def f(x):
        return x**p * (1 + eps * mpmath.sin(mpmath.log(x)))

    def E(x):
        t = mpmath.log(x)
        return p + eps * mpmath.cos(t) / (1 + eps * mpmath.sin(t))

    return f, E


@pytest.mark.parametrize("p, eps", [(1.0, 0.1), (0.3, 0.2)])
def test_perturbed_moments_match_closed_forms_and_mpmath(p, eps):
    # F, H, G against their closed forms, and the scale-free A, theta, wm,
    # variance, AE, BE and CE against 30-digit quadratures, across two
    # decades of a
    amp, scales = 2.5, [0.1, 1.0, 10.0]
    m = moment_bundles(PerturbedPowerLaw(p=p, eps=eps, amp=amp), scales, 1e-12)
    for i, a in enumerate(scales):
        F, H, G = _closed_primitives(p, eps, a)
        for name, want in (("F", amp * F), ("H", amp * H), ("G", amp * amp * G)):
            got = getattr(m, name)[i]
            assert abs(got - want) <= 1e-12 * want, (name, a, got, want)
        ref = _mp_profile_moments(*_mp_perturbed(p, eps), a)
        # the reference and the closed forms agree: A = F / (a f(a))
        assert ref[0] == pytest.approx(
            F / (a * a**p * (1.0 + eps * math.sin(math.log(a)))), rel=1e-14)
        for name, want in zip(_MOMENT_NAMES, ref):
            got = getattr(m, name)[i]
            assert abs(got - want) <= 1e-12 * abs(want), (name, a, got, want)


def test_quad_error_fields_are_present_and_small():
    prim = moment_bundles(PowerLaw(p=1.0), [1.0], 1e-10)
    assert prim.errors.shape == (1, 3)
    assert np.all((0.0 <= prim.errors) & (prim.errors <= 1e-9))


def test_cubic_custom_matches_elementary_antiderivatives():
    spec = make_cubic_custom()
    a = 1.3
    m = moment_bundles(spec, [a], 1e-11)
    F = a**3 / 3 + a**4 / 4
    H = a**4 / 4 + a**5 / 5
    G = a**5 / 5 + a**6 / 3 + a**7 / 7
    assert abs(m.F[0] - F) < 1e-10
    assert abs(m.H[0] - H) < 1e-10
    assert abs(m.G[0] - G) < 1e-10
    assert 0.0 < m.theta[0] < 1.0


def test_theta_stays_in_unit_interval_across_gallery():
    from conftest import gallery

    for label, spec in gallery():
        hi = min(spec.top, 8.0)
        m = moment_bundles(spec, [hi], 1e-10)
        assert 0.0 < m.theta[0] < 1.0, label


@pytest.mark.parametrize("table", ["perturbed", "x^1.5"])
def test_table_moment_pass_takes_no_refinement_round(table, monkeypatch):
    # the head's breakpoints x0 2^-k mesh (0, x0] geometrically from the
    # start: the 200-knot pass at tol 1e-10 is its initial panels alone, 2
    # kernel calls of at most 128 panels, with no round at the head
    from gsp_lab import quadrature

    x = np.geomspace(0.01, 10.0, 200)
    spec = (make_perturbed_table() if table == "perturbed"
            else Tabulated(x, x**1.5))
    calls = []
    plain = quadrature._rule
    monkeypatch.setattr(quadrature, "_rule",
                        lambda *args: calls.append(1) or plain(*args))
    moment_bundles(spec, DEFAULT_SCALES, 1e-10)
    assert len(calls) == 2


def test_tabulated_bundle_tracks_the_sampled_law(tab_x15):
    m = moment_bundles(tab_x15, [2.0], 1e-10)
    p = 1.5
    assert abs(m.theta[0] - (p + 1) / (p + 2)) < 1e-6
    assert abs(m.A[0] - 1.0 / (p + 1.0)) < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 18])
def test_median_is_numpy_median_bit_for_bit(n):
    rng = np.random.default_rng(n)
    big = np.finfo(float).max
    specials = ([], [np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [np.nan, np.inf],
                [big, big])
    for extra in specials:
        for _ in range(20):
            v = rng.standard_normal(n) * 10.0 ** rng.uniform(-8.0, 8.0, n)
            v[rng.permutation(n)[:len(extra)]] = extra[:n]
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, big + big
                want, got = np.float64(np.median(v)), np.float64(_median(v))
            assert got.tobytes() == want.tobytes(), v


# ------------------------------------------------------ the Moments contract

def test_fields_follow_unsorted_repeated_scales():
    # every field has one entry per requested scale, in the order given and
    # with repeats kept, equal to the value at that scale: bit for bit to the
    # pass over the distinct scales, and to the tolerance to a pass of its own
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    scales = [4.0, 0.5, 2.0, 0.5, 1.0, 4.0]
    distinct = sorted(set(scales))
    m = moment_bundles(spec, scales)
    ref = moment_bundles(spec, distinct)
    at = [distinct.index(a) for a in scales]
    assert m.a.tolist() == scales
    assert m.errors.shape == (len(scales), 3)
    for name in Moments.fields:
        got, want = getattr(m, name), getattr(ref, name)
        assert got.shape[0] == len(scales), name
        assert got.tobytes() == want[at].tobytes(), name
    for i, a in enumerate(scales):
        one = moment_bundles(spec, [a])
        for name in ("fa", "F", "H", "G", "A", "B", "C", "theta", "xbar", "ybar",
                     "AE", "BE", "CE", "D"):
            assert getattr(m, name)[i] == pytest.approx(getattr(one, name)[0],
                                                        rel=1e-9), (name, a)
        assert abs(m.wm[i] - one.wm[0]) <= 1e-11, a
        assert abs(m.variance[i] - one.variance[0]) <= 1e-11, a


@pytest.mark.parametrize("amp, scales, message", [
    # f(a)^2 overflows at every scale: the smallest is named, whatever the order
    (1e160, [10.0, 1.0, 0.1], "unit a f(a)^2 = inf at a=0.1 "),
    # a unit below the smallest normal double is refused as 0 is: a f(a) is
    # subnormal at a=1e-6 and at a=1e-5 alike
    (1e-300, [1.0, 1e-5, 1e-6], "unit a f(a) = 9.99999e-319 at a=1e-06 "),
    (1e-300, [1.0, 1e-5], "unit a f(a) = 1e-315 at a=1e-05 "),
    # the units are checked in the order (a f, a^2 f, a^3 f, a f^2): at
    # a=1e-80 a f(a) = 1e-240 and a^2 f(a) is the first to go subnormal
    (1.0, [1.0, 1e-80], "unit a^2 f(a) = 9.99989e-321 at a=1e-80 "),
])
def test_unit_check_names_the_smallest_offending_scale(amp, scales, message):
    with pytest.raises(GspLabError, match="^unit ") as info:
        moment_bundles(PowerLaw(p=2.0, amp=amp), scales)
    assert str(info.value) == message + "is outside the float64 range"


_TABLE_X = np.geomspace(0.01, 10.0, 50)
_NOT_A_SCALE = "scale a must be positive and finite"


@pytest.mark.parametrize("spec, scales, message", [
    (PowerLaw(p=2.0), [1.0, math.nan, 2.0, -1.0], _NOT_A_SCALE),
    (PowerLaw(p=2.0), [1.0, 2.0, -1.0, math.inf], _NOT_A_SCALE),
    (PowerLaw(p=2.0), [1.0, math.inf, 2.0], _NOT_A_SCALE),
    (Tabulated(_TABLE_X, _TABLE_X**1.5), [1.0, 20.0, 0.005, 2.0],
     "a=20 beyond the function's support"),
    # a table's support reaches down to 0, below its first sample 0.01: the
    # floor of (0, 10] is the first scale refused
    (Tabulated(_TABLE_X, _TABLE_X**1.5), [0.005, 1e-300, 0.0, 20.0], _NOT_A_SCALE),
    (Tabulated(_TABLE_X, _TABLE_X**1.5), [10.0 * (1.0 + 2e-12), 1.0],
     "a=10 beyond the function's support"),
], ids=["nan", "negative", "inf", "above", "floor", "past-slack"])
def test_scale_check_names_the_first_bad_scale(spec, scales, message):
    # the first bad scale in the order given gets check_scale's message,
    # whether the scales come as an array or one at a time
    with pytest.raises(DomainExceeded) as info:
        moment_bundles(spec, scales)
    assert str(info.value) == message
    with pytest.raises(DomainExceeded, match=f"^{re.escape(message)}$"):
        spec.check_scale(scales)
    first_bad = next(a for a in scales if not (math.isfinite(a) and spec.in_support(a)))
    with pytest.raises(DomainExceeded, match=f"^{re.escape(message)}$"):
        spec.check_scale(first_bad)
    # the scales before it are clean, and come back as their floats
    clean = scales[:scales.index(first_bad)]
    checked = spec.check_scale(clean)
    assert isinstance(checked, np.ndarray) and checked.dtype == float
    assert checked.tolist() == clean


def _doctor_pass(monkeypatch, edits):
    """Make the moment pass return doctored values: ``edits`` maps a scale
    to the (column, amount in units of that column) pairs added there."""
    plain = moments.cumulative

    def doctored(fn, lo, cuts, tol, units, **kwargs):
        res = plain(fn, lo, cuts, tol, units=units, **kwargs)
        value = res.value.copy()
        for a, changes in edits.items():
            i = int(np.searchsorted(cuts, a))
            for col, amount in changes:
                value[i, col] += amount * units[i, col]
        kept = {k: getattr(res, k) for k in QuadResult.fields}
        return QuadResult(**{**kept, "value": value})

    monkeypatch.setattr(moments, "cumulative", doctored)


# columns of the pass: 1 is x f (so theta), 2 is x^2 f (so D), 8 is
# x^2 f (E - E_ref)^2 (so the variance, and nothing else)
_THETA_UP = (1, 5.0)
_D_DOWN = (2, -1.0)
_VAR_DOWN = (8, -1.0)


@pytest.mark.parametrize("edits, check, message", [
    ({2.0: [_THETA_UP], 4.0: [_THETA_UP]}, "theta=", " outside (0, 1) at a=2"),
    ({1.0: [_VAR_DOWN], 2.0: [_D_DOWN], 4.0: [_VAR_DOWN]}, "variance integral ",
     " at a=1"),
    # at one scale D is checked before the variance
    ({1.0: [_VAR_DOWN, _D_DOWN], 2.0: [_VAR_DOWN]}, "weight normalizer D=", " at a=1"),
    ({0.5: [_VAR_DOWN], 1.0: [_D_DOWN]}, "variance integral ", " at a=0.5"),
], ids=["theta", "variance", "weight-first", "variance-first"])
def test_value_checks_name_the_smallest_offending_scale(monkeypatch, edits, check,
                                                        message):
    _doctor_pass(monkeypatch, edits)
    with pytest.raises(GspLabError, match=f"^{check}") as info:
        moment_bundles(PerturbedPowerLaw(p=1.0, eps=0.1), [4.0, 0.5, 2.0, 0.5, 1.0])
    assert str(info.value).endswith(message)


# ------------------------------------- a non-power law with closed-form moments

_MIX_C = 1.0  # f = x + c x^5: the elasticity runs from 1 toward 5


def _mixture():
    return Custom(lambda x: x + _MIX_C * x**5, lambda x: 1.0 + 5.0 * _MIX_C * x**4)


def test_mixture_moments_match_closed_forms_at_every_scale():
    a = np.geomspace(0.01, 100.0, 25)
    c = _MIX_C
    fa = a + c * a**5
    F = a**2 / 2.0 + c * a**6 / 6.0
    H = a**3 / 3.0 + c * a**7 / 7.0
    G = a**3 / 3.0 + 2.0 * c * a**7 / 7.0 + c * c * a**11 / 11.0
    want = {"F": F, "H": H, "G": G, "A": F / (a * fa), "B": H / (a * a * fa),
            "C": G / (a * fa * fa), "theta": H / (a * F)}
    m = moment_bundles(_mixture(), a, 1e-12)
    for name, exact in want.items():
        rel = np.abs(getattr(m, name) - exact) / exact
        assert np.max(rel) <= 1e-12, (name, a[np.argmax(rel)], np.max(rel))
    # the variance grows like (4 c a^4)^2 at small scales; from the detector's
    # lowest scale 0.1 up it is far above the roundoff of the one-shift
    # expansion (about 1e-16 of the shifted moments), and positive
    assert np.all(m.variance[a >= 0.1] > 1e-12)


def test_mixture_is_not_a_power_law():
    assert classify(_mixture(), DEFAULT_SCALES).verdict is Verdict.NOT_POWER_LAW


# ------------------ the weaker hypothesis: C^1, locally Lipschitz elasticity

# f = x^p exp(k min(log x, 0)^2 / 2) with k < 0: f is C^1 and its elasticity
# p + k min(log x, 0) is Lipschitz with a kink at x = 1, where f'' jumps
_KINK_P, _KINK_K = 1.5, -1.0


def _kinked():
    p, k = _KINK_P, _KINK_K

    def f(x):
        t = np.minimum(np.log(x), 0.0)
        return x**p * np.exp(0.5 * k * t * t)

    return Custom(f, lambda x: f(x) * (p + k * np.minimum(np.log(x), 0.0)) / x)


def _kinked_primitive(a, c, q):
    """int_0^a of x^(c-1) exp(-q min(log x, 0)^2) dx: with t = log x, a
    Gaussian integral in t up to min(log a, 0), plus (a^c - 1) / c above 1.
    F, H and G are (c, q) = (p+1, -k/2), (p+2, -k/2) and (2p+1, -k)."""
    t = min(math.log(a), 0.0)
    head = (0.5 * math.sqrt(math.pi / q) * math.exp(c * c / (4.0 * q))
            * math.erfc(math.sqrt(q) * (c / (2.0 * q) - t)))
    return head + (math.expm1(c * math.log(a)) / c if a > 1.0 else 0.0)


def _kinked_exact(scales):
    p, q = _KINK_P, -0.5 * _KINK_K
    return {name: np.array([_kinked_primitive(a, c, qq) for a in scales])
            for name, c, qq in (("F", p + 1.0, q), ("H", p + 2.0, q),
                                ("G", 2.0 * p + 1.0, 2.0 * q))}


def _mp_kinked():
    """The kinked f and its elasticity, in mpf."""
    p, k = mpmath.mpf(_KINK_P), mpmath.mpf(_KINK_K)

    def f(x):
        t = min(mpmath.log(x), 0)
        return x**p * mpmath.exp(k * t * t / 2)

    return f, lambda x: p + k * min(mpmath.log(x), 0)


def test_kinked_elasticity_moments_match_closed_forms():
    # F, H, G against their closed forms at every default scale, and the
    # scale-free A, theta, wm, variance, AE, BE and CE against 30-digit
    # quadratures split at the kink, at every fourth
    assert DEFAULT_SCALES[0] < 1.0 < DEFAULT_SCALES[-1]
    m = moment_bundles(_kinked(), DEFAULT_SCALES, 1e-12)
    for name, exact in _kinked_exact(DEFAULT_SCALES).items():
        rel = np.abs(getattr(m, name) - exact) / exact
        assert np.max(rel) <= 1e-12, (name, DEFAULT_SCALES[np.argmax(rel)], np.max(rel))
    for i in range(0, DEFAULT_SCALES.size, 4):
        a = DEFAULT_SCALES[i]
        for name, want in zip(_MOMENT_NAMES, _mp_profile_moments(*_mp_kinked(), a, kink=1)):
            got = getattr(m, name)[i]
            assert abs(got - want) <= 1e-12 * abs(want), (name, a, got, want)


def test_kinked_elasticity_moments_next_to_the_kink():
    # the kink of f'' at x = 1 lies 0.29% of the panel (0.6505, 1.001) below
    # its top: the 16 Chebyshev points leave only the last 0.24% unsampled
    # (the 15 Kronrod points left 0.43%), so the tail sees the kink, the
    # kernel splits toward it and F(1.001) holds
    scales = np.array([0.1, 0.3, 1.001, 3.0, 10.0])
    m = moment_bundles(_kinked(), scales, 1e-12)
    rel = np.abs(m.F - _kinked_exact(scales)["F"]) / m.F
    assert np.max(rel) <= 1e-12, (scales[np.argmax(rel)], np.max(rel))


def test_kinked_elasticity_keeps_the_identities():
    # verify's thresholds: reductions to 1e-7, derivatives to 1e-5 + 1e-4 |d|;
    # the stencil around a = 1 straddles the kink
    rep = identity_reports(_kinked(), DEFAULT_SCALES)
    assert np.max(rep.reduction) <= 1e-7
    closed, fd = rep.closed, rep.finite_diff
    assert np.all(np.abs(closed - fd) <= 1e-5 + 1e-4 * np.abs(closed))
    assert np.all(rep.variance > 0.0)


def test_kinked_elasticity_is_not_a_power_law():
    assert classify(_kinked(), DEFAULT_SCALES).verdict is Verdict.NOT_POWER_LAW
