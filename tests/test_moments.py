import numpy as np
import pytest
from scipy import integrate as sp_integrate

from gsp_lab import (
    PerturbedPowerLaw,
    PowerLaw,
    moment_bundles,
)
from gsp_lab.moments import _median
from conftest import make_cubic_custom


def test_spec_example_values():
    b = moment_bundles(PowerLaw(p=2.0, amp=3.0), [2.0])[0]
    assert abs(b.F - 8.0) < 1e-9
    assert abs(b.H - 12.0) < 1e-9
    assert abs(b.G - 57.6) < 1e-8
    assert abs(b.xbar - 1.5) < 1e-10
    assert abs(b.ybar - 3.6) < 1e-9
    assert abs(b.theta - 0.75) < 1e-11
    assert b.fa == 12.0


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, 5.0])
@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_power_law_normalized_moments(p, a):
    b = moment_bundles(PowerLaw(p=p, amp=1.7), [a])[0]
    assert abs(b.A - 1.0 / (p + 1.0)) < 1e-10
    assert abs(b.B - 1.0 / (p + 2.0)) < 1e-10
    assert abs(b.C - 1.0 / (2.0 * p + 1.0)) < 1e-10
    assert abs(b.theta - (p + 1.0) / (p + 2.0)) < 1e-10


def test_amplitude_cancels_in_normalized_moments():
    a = 2.3
    b1 = moment_bundles(PowerLaw(p=1.5, amp=1.0), [a])[0]
    b7 = moment_bundles(PowerLaw(p=1.5, amp=7.0), [a])[0]
    assert abs(b1.A - b7.A) < 1e-12
    assert abs(b1.B - b7.B) < 1e-12
    assert abs(b1.C - b7.C) < 1e-12
    assert abs(b7.ybar - 7.0 * b1.ybar) < 1e-9 * b7.ybar


def test_perturbed_primitives_against_scipy():
    # independent engine, same integrals
    p, eps, a = 1.0, 0.1, 1.0
    fn = lambda x: x**p * (1.0 + eps * np.sin(np.log(x)))
    F, _ = sp_integrate.quad(fn, 0, a, epsabs=1e-13, epsrel=1e-13)
    H, _ = sp_integrate.quad(lambda x: x * fn(x), 0, a, epsabs=1e-13, epsrel=1e-13)
    G, _ = sp_integrate.quad(lambda x: fn(x) ** 2, 0, a, epsabs=1e-13, epsrel=1e-13)
    prim = moment_bundles(PerturbedPowerLaw(p=p, eps=eps), [a], 1e-12)[0]
    assert abs(prim.F - F) < 1e-11
    assert abs(prim.H - H) < 1e-11
    assert abs(prim.G - G) < 1e-11


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
    b = moment_bundles(spec, [a], 1e-10)[0]
    for got, want in zip((b.F, b.H, b.G), _closed_primitives(p, eps, a)):
        assert abs(got - want) <= 1e-9 * want


def test_quad_error_fields_are_present_and_small():
    prim = moment_bundles(PowerLaw(p=1.0), [1.0], 1e-10)[0]
    assert len(prim.errors) == 3
    assert all(0.0 <= e <= 1e-9 for e in prim.errors)


def test_cubic_custom_matches_elementary_antiderivatives():
    spec = make_cubic_custom()
    a = 1.3
    b = moment_bundles(spec, [a], 1e-11)[0]
    F = a**3 / 3 + a**4 / 4
    H = a**4 / 4 + a**5 / 5
    G = a**5 / 5 + a**6 / 3 + a**7 / 7
    assert abs(b.F - F) < 1e-10
    assert abs(b.H - H) < 1e-10
    assert abs(b.G - G) < 1e-10
    assert 0.0 < b.theta < 1.0


def test_theta_stays_in_unit_interval_across_gallery():
    from conftest import gallery

    for label, spec in gallery():
        hi = min(spec.support[1], 8.0)
        b = moment_bundles(spec, [hi], 1e-10)[0]
        assert 0.0 < b.theta < 1.0, label


def test_tabulated_bundle_tracks_the_sampled_law(tab_x15):
    b = moment_bundles(tab_x15, [2.0], 1e-10)[0]
    p = 1.5
    assert abs(b.theta - (p + 1) / (p + 2)) < 1e-6
    assert abs(b.A - 1.0 / (p + 1.0)) < 1e-6


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
