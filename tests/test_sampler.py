import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate as sp_integrate

from gsp_lab import sampler
from gsp_lab import (
    Custom,
    DomainExceeded,
    PerturbedPowerLaw,
    PowerLaw,
    SamplerState,
    mc_estimates,
    moment_bundles,
)
from gsp_lab.functions import FunctionSpec
from conftest import make_tabulated_power


def quantiles(spec, a, u, tol=1e-10):
    """x with measure u on (0, x], for interior u: the closed form the sampler
    applies to a power law, otherwise the sampler's CDF table."""
    u = np.asarray(u, dtype=float)
    if isinstance(spec, PowerLaw):
        return a * u ** (1.0 / (spec.p + 1.0))
    return a * sampler._CdfTable(spec, a, tol).quantiles(u, tol)


def test_power_law_quantile_closed_form():
    # for p=1 the CDF is (x/a)^2, so u=0.25 pulls back to x=0.5
    assert quantiles(PowerLaw(p=1.0), 1.0, 0.25) == pytest.approx(0.5, abs=1e-15)


def test_generic_solver_reproduces_closed_form():
    # same function, but routed through the table solver via Custom
    p, a = 2.0, 3.0
    generic = Custom(lambda x: x**p, lambda x: p * x ** (p - 1))
    u = np.linspace(0.001, 0.999, 199)
    x_solver = quantiles(generic, a, u, 1e-11)
    x_exact = a * u ** (1.0 / (p + 1.0))
    assert np.max(np.abs(x_solver - x_exact)) < 1e-10 * a


def test_table_is_built_in_one_pass(monkeypatch):
    # one cumulative quadrature gives the masses up to all 256 knots; one
    # integral per interval took 262 spec evaluations
    calls = []
    plain = FunctionSpec.eval

    def counting(self, x):
        calls.append(1)
        return plain(self, x)

    monkeypatch.setattr(FunctionSpec, "eval", counting)
    sampler._CdfTable(PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, 1e-10)
    assert len(calls) <= 20


def test_quantile_round_trip_against_scipy():
    # F(x(u)) / F(a) should give u back; F through scipy, x through us
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    a = 2.0
    fn = lambda x: x * (1.0 + 0.1 * np.sin(np.log(x)))
    Fa, _ = sp_integrate.quad(fn, 0, a, epsabs=1e-13, epsrel=1e-13)
    us = (0.1, 0.25, 0.5, 0.75, 0.9)
    for u, x in zip(us, quantiles(spec, a, us, 1e-11)):
        Fx, _ = sp_integrate.quad(fn, 0, x, epsabs=1e-13, epsrel=1e-13)
        assert abs(Fx / Fa - u) < 1e-8


def _reference_cdf(spec, lo, xs):
    """F(x) = int_lo^x f at each x from scipy, piece by piece in sorted order,
    each piece split at the spec's knots inside it."""
    order = np.argsort(xs)
    edges = np.concatenate(([lo], np.asarray(xs, dtype=float)[order]))
    pieces = []
    with warnings.catch_warnings():
        # quad flags roundoff at this tolerance; its own error estimate is
        # checked instead, far below the 2e-10 under test
        warnings.simplefilter("ignore", sp_integrate.IntegrationWarning)
        for x0, x1 in zip(edges[:-1], edges[1:]):
            inner = spec.knots[(spec.knots > x0) & (spec.knots < x1)]
            value, err = sp_integrate.quad(
                spec.eval, x0, x1, epsabs=1e-14, epsrel=1e-14,
                points=inner if inner.size else None, limit=200 + inner.size,
            )
            assert err <= 1e-12 * abs(value) + 1e-14
            pieces.append(value)
    F = np.empty(len(order))
    F[order] = np.cumsum(pieces)
    return F


@pytest.mark.parametrize(
    "name, a",
    [("perturbed", 1.0), ("steep_custom", 1.0), ("tab_x15", 10.0),
     ("kinked_table", 10.0)],
)
def test_quantile_u_error_against_scipy(name, a, tab_x15, perturbed_table):
    # the sampler's accuracy gate: F(x(u)) / F(a) gives u back to 2e-10;
    # x^20 has a steep head, where the Hermite starting guess is weakest,
    # and the perturbed table's log-log slope kinks at every knot
    spec = {
        "perturbed": PerturbedPowerLaw(p=1.0, eps=0.1),
        "steep_custom": Custom(lambda x: x**20, lambda x: 20.0 * x**19),
        "tab_x15": tab_x15,
        "kinked_table": perturbed_table,
    }[name]
    u = np.random.default_rng(2024).random(50)
    x = quantiles(spec, a, u, 1e-10)
    F = _reference_cdf(spec, spec.support[0], np.append(x, a))
    assert np.max(np.abs(F[:-1] / F[-1] - u)) <= 2e-10


def test_quantiles_increase_with_u():
    spec = PerturbedPowerLaw(p=2.0, eps=0.05)
    u = np.linspace(0.01, 0.99, 61)
    x = quantiles(spec, 1.5, u)
    assert np.all(np.diff(x) > 0.0)


def test_tabulated_quantiles_stay_in_hull(tab_x15):
    # the extreme interior u pull back to the hull floor and to a
    u = np.linspace(0.0, 1.0, 21)
    u[0], u[-1] = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    x = quantiles(tab_x15, 10.0, u)
    assert x[0] == pytest.approx(tab_x15.support[0])
    assert x[-1] == pytest.approx(10.0)
    assert np.all(x >= tab_x15.support[0]) and np.all(x <= 10.0)


# ----------------------------------------------------------- determinism

@pytest.fixture(params=["power", "perturbed", "tab_x15"])
def draw_spec(request):
    """The closed-form path and both table paths (analytic and tabulated)."""
    if request.param == "tab_x15":
        return request.getfixturevalue("tab_x15")
    return {
        "power": PowerLaw(p=1.0),
        "perturbed": PerturbedPowerLaw(p=1.0, eps=0.1),
    }[request.param]


def test_same_key_same_draws(draw_spec):
    s1 = SamplerState(draw_spec, 1.0, seed=42)
    s2 = SamplerState(draw_spec, 1.0, seed=42)
    assert np.array_equal(s1.draw(100), s2.draw(100))


@pytest.mark.parametrize("spec, want", [
    (PowerLaw(p=1.0),
     [0.93384873230116194, 0.54347528141929657, 0.64814942606411541]),
    (PerturbedPowerLaw(p=1.0, eps=0.1),
     [0.93637307984347007, 0.55448187540782978, 0.65818306937828430]),
], ids=["power", "perturbed"])
def test_seed_draws_are_frozen(spec, want):
    # the Philox key is [seed, 0]: these bytes must never move
    assert SamplerState(spec, 1.0, seed=7).draw(3).tolist() == want


def test_table_is_built_once_per_state(monkeypatch):
    built = []

    class CountingTable(sampler._CdfTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(sampler, "_CdfTable", CountingTable)
    state = SamplerState(PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, seed=11)
    assert len(built) == 1
    state.draw(16), state.draw(8)
    assert len(built) == 1


def test_batching_does_not_change_the_stream(draw_spec):
    # refining only the draws that miss must not couple a draw to its batch,
    # nor may the quantile solve's blocks of 2**14 draws
    for sizes in ((20, 30), (7_000, 20_000, 13_000)):
        s1 = SamplerState(draw_spec, 1.0, seed=7)
        s2 = SamplerState(draw_spec, 1.0, seed=7)
        whole = s1.draw(sum(sizes))
        parts = np.concatenate([s2.draw(k) for k in sizes])
        assert np.array_equal(whole, parts)


def test_streams_and_seeds_decorrelate():
    base = SamplerState(PowerLaw(p=1.0), 1.0, seed=7)
    other_seed = SamplerState(PowerLaw(p=1.0), 1.0, seed=8)
    assert not np.array_equal(base.draw(64), other_seed.draw(64))


def test_table_draws_stay_cheap(monkeypatch):
    # regression guard on work done: the Hermite guess and its check take
    # 15 points per draw, refinement a little more; a bisection to the same
    # tolerance needs ~400
    state = SamplerState(PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, seed=4)
    points = []
    plain_eval = FunctionSpec.eval

    def counting_eval(self, x):
        points.append(np.size(x))
        return plain_eval(self, x)

    monkeypatch.setattr(FunctionSpec, "eval", counting_eval)
    n = 10_000
    state.draw(n)
    assert sum(points) <= 40 * n


def test_table_draw_memory_is_bounded():
    # the quantile solve works in blocks, so its (draws, 15) node arrays do
    # not grow with the batch: 68 MB for one unblocked solve of 1e5 draws
    state = SamplerState(PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, seed=4)
    tracemalloc.start()
    try:
        state.draw(100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6


# ------------------------------------------------------------- estimates

def test_estimate_needs_enough_draws():
    state = SamplerState(PowerLaw(p=1.0), 1.0, seed=0)
    with pytest.raises(DomainExceeded, match="need at least 100 draws"):
        mc_estimates(state, 99)


def test_estimates_recover_centroid_moments():
    spec = PowerLaw(p=2.0)
    m = moment_bundles(spec, [1.0])
    state = SamplerState(spec, 1.0, seed=123)
    est = mc_estimates(state, 40_000)
    assert abs(est.mean_x - m.xbar[0]) <= 4.0 * est.stderr_x
    assert abs(0.5 * est.mean_fx - m.ybar[0]) <= 2.0 * est.stderr_fx
    assert est.n == 40_000


def test_estimates_through_generic_solver():
    spec = PerturbedPowerLaw(p=1.0, eps=0.1)
    m = moment_bundles(spec, [1.0])
    state = SamplerState(spec, 1.0, seed=5)
    est = mc_estimates(state, 20_000)
    assert abs(est.mean_x - m.xbar[0]) <= 4.0 * est.stderr_x
    assert abs(0.5 * est.mean_fx - m.ybar[0]) <= 2.0 * est.stderr_fx

