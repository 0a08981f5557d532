import math
import tracemalloc
import warnings
from pathlib import Path

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
    Tabulated,
    ToleranceNotReached,
    load_tabulated_csv,
    mc_estimates,
    moment_bundles,
)
from gsp_lab.functions import FunctionSpec
from conftest import make_perturbed_table, make_tabulated_power


def quantiles(spec, a, u, tol=1e-10):
    """x with measure u on (0, x], for interior u: the closed form the sampler
    applies to a power law, otherwise the sampler's CDF table."""
    u = np.asarray(u, dtype=float)
    if isinstance(spec, PowerLaw):
        return a * u ** (1.0 / (spec.p + 1.0))
    table = sampler._CdfTable(spec, a, tol)
    return a * table.quantiles(u.copy(), table.workspace(u.size))[0]


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
    # f(a), one cumulative quadrature for the masses up to all 256 cuts (two
    # calls of 128 panels, two refinement rounds) whose panels are the
    # pieces, then g at every piece's nodes and at its edges
    calls = []
    plain = FunctionSpec.eval

    def counting(self, x):
        calls.append(1)
        return plain(self, x)

    monkeypatch.setattr(FunctionSpec, "eval", counting)
    sampler._CdfTable(PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, 1e-10)
    assert len(calls) == 7


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


def _reference_cdf(spec, xs):
    """F(x) = int_0^x f at each x from scipy, piece by piece in sorted order,
    each piece split at the spec's knots inside it."""
    order = np.argsort(xs)
    edges = np.concatenate(([0.0], np.asarray(xs, dtype=float)[order]))
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


def _coarse_kinked_table():
    """12 knots of x (1 + 0.5 sin(log x)): few knots, each a strong kink."""
    x = np.geomspace(0.01, 10.0, 12)
    return Tabulated(x, x * (1.0 + 0.5 * np.sin(np.log(x))))


@pytest.mark.parametrize(
    "name, a",
    [("perturbed", 1.0), ("steep_custom", 1.0), ("tab_x15", 10.0),
     ("kinked_table", 10.0), ("perturbed_p0.05", 1.0), ("perturbed_p0.3", 1.0),
     ("perturbed_p3", 1.0), ("coarse_kinked_table", 10.0)],
)
def test_quantile_u_error_against_scipy(name, a, tab_x15, perturbed_table):
    # the sampler's accuracy gate: F(x(u)) / F(a) gives u back to 2e-10;
    # x^20 has a steep head, where the Hermite starting guess is weakest,
    # the perturbed table's log-log slope kinks at every knot, and a wide
    # wobble on a small exponent bends g hardest in the first interval
    spec = {
        "perturbed": PerturbedPowerLaw(p=1.0, eps=0.1),
        "steep_custom": Custom(lambda x: x**20, lambda x: 20.0 * x**19),
        "tab_x15": tab_x15,
        "kinked_table": perturbed_table,
        "perturbed_p0.05": PerturbedPowerLaw(p=0.05, eps=0.5),
        "perturbed_p0.3": PerturbedPowerLaw(p=0.3, eps=0.5),
        "perturbed_p3": PerturbedPowerLaw(p=3.0, eps=0.5),
        "coarse_kinked_table": _coarse_kinked_table(),
    }[name]
    u = np.random.default_rng(2024).random(50)
    x = quantiles(spec, a, u, 1e-10)
    F = _reference_cdf(spec, np.append(x, a))
    assert np.max(np.abs(F[:-1] / F[-1] - u)) <= 2e-10


@pytest.mark.parametrize(
    "name, a", [("x^0.001", 1.0), ("perturbed", 7.0), ("coarse_kinked_table", 10.0)])
def test_model_matches_the_cdf_inside_every_piece(name, a):
    # each piece's model is the interpolant the kernel integrated on that
    # panel, held to the table's 1e-12; it matches the CDF inside every piece
    # too, at the midpoint and halfway to either edge
    spec = {
        "x^0.001": Custom(lambda x: x**0.001, lambda x: 0.001 * x**-0.999),
        "perturbed": PerturbedPowerLaw(p=1.0, eps=0.1),
        "coarse_kinked_table": _coarse_kinked_table(),
    }[name]
    table = sampler._CdfTable(spec, a, 1e-10)
    pieces = table.edges.size - 1
    k = np.repeat(np.arange(pieces), 3)
    x = np.tile([-0.5, 0.0, 0.5], pieces)
    mid = 0.5 * (table.edges[k] + table.edges[k + 1])
    half = 0.5 * (table.edges[k + 1] - table.edges[k])
    model = table.cum[k] + sampler._clenshaw(table._p_coef, k, x.copy(),
                                             np.empty((5, x.size)))
    ref = _reference_cdf(spec, a * (mid + x * half)) / (a * table.fa)
    assert np.max(np.abs(model - ref)) <= 1e-11 * table.total


@pytest.mark.parametrize("p", [0.05, 0.3, 1.0])
def test_first_interval_draws_match_the_exact_cdf(p):
    # f = x^p through the table path: the CDF is u = s^(p+1) exactly.  Below
    # the first cut g ~ s^p is not smooth at 0, which one 15-point panel from
    # 0 could not resolve (1.8e-7 at p = 0.05); the kernel's geometric cuts do
    spec = PerturbedPowerLaw(p=p, eps=0.0)
    first = (1.0 / sampler._TABLE_INTERVALS) ** (p + 1.0)
    u = first * np.random.default_rng(16).random(200)
    s = quantiles(spec, 1.0, u, 1e-10)
    assert np.max(np.abs(s ** (p + 1.0) - u)) <= 2e-10


def test_quantiles_increase_with_u():
    spec = PerturbedPowerLaw(p=2.0, eps=0.05)
    u = np.linspace(0.01, 0.99, 61)
    x = quantiles(spec, 1.5, u)
    assert np.all(np.diff(x) > 0.0)


def test_tabulated_quantiles_stay_in_support(tab_x15):
    # the extreme interior u reach below the first sample x0 = 1e-4, into the
    # head's power law, and up to a
    u = np.linspace(0.0, 1.0, 21)
    u[0], u[-1] = np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)
    x = quantiles(tab_x15, 10.0, u)
    assert x[0] < tab_x15.x[0]
    assert x[-1] == pytest.approx(10.0)
    assert np.all(np.diff(x) > 0.0) and np.all(x >= 0.0) and np.all(x <= 10.0)


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
     [0.93637307984347040, 0.55448187540783189, 0.65818306937828586]),
], ids=["power", "perturbed"])
def test_seed_draws_are_frozen(spec, want):
    # the Philox key is [seed, 0]: these bytes must never move
    assert SamplerState(spec, 1.0, seed=7).draw(3).tolist() == want


class _ZeroFirst:
    """A generator stub whose first uniform is exactly 0, the rest 1/2."""

    def random(self, out):
        out.fill(0.5)
        out[0] = 0.0
        return out


_SEEDED_TABLE = Path(__file__).resolve().parents[1] / "samebytes" / "table.csv"


@pytest.mark.parametrize("a", [1e-3, 1.0, 7.0])
@pytest.mark.parametrize("spec", [
    PerturbedPowerLaw(p=1.0, eps=0.1), load_tabulated_csv(_SEEDED_TABLE),
    PowerLaw(p=0.001)], ids=["perturbed", "seeded-table", "power"])
def test_no_draw_is_zero(spec, a):
    # a uniform of 0 is nudged to 5e-324, whose mass underflows; its draw
    # still lies in (0, a], where the estimate can evaluate f
    if not isinstance(spec, PowerLaw):
        table = sampler._CdfTable(spec, a, 1e-10)
        s, _ = table.quantiles(np.array([5e-324]), table.workspace(1))
        assert 0.0 < a * s[0] <= a
    state = SamplerState(spec, a, seed=7)
    state._gen = _ZeroFirst()
    x = state.draw(3)
    assert np.all((0.0 < x) & (x <= a)), x
    state._gen = _ZeroFirst()
    assert mc_estimates(state, 100).mean_x > 0.0


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


@pytest.mark.parametrize("n", [0, -1])
def test_draw_count_must_be_positive(n):
    with pytest.raises(DomainExceeded, match="draw count must be positive"):
        SamplerState(PowerLaw(p=1.0), 1.0, seed=0).draw(n)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_is_refused(seed):
    # Philox's key is one uint64: a wider seed would alias one inside it
    with pytest.raises(DomainExceeded, match=r"seed must lie in \[0, 2\*\*64\)"):
        SamplerState(PowerLaw(p=1.0), 1.0, seed=seed)


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


@pytest.mark.parametrize(
    "name, a", [("perturbed", 1.0), ("steep_custom", 1.0), ("kinked_table", 10.0)])
def test_draws_evaluate_no_spec(name, a, perturbed_table, monkeypatch):
    # every spec evaluation happens while the state is built
    spec = {
        "perturbed": PerturbedPowerLaw(p=1.0, eps=0.1),
        "steep_custom": Custom(lambda x: x**20, lambda x: 20.0 * x**19),
        "kinked_table": perturbed_table,
    }[name]
    state = SamplerState(spec, a, seed=4)
    calls = []
    plain_eval = FunctionSpec.eval

    def counting_eval(self, x):
        calls.append(1)
        return plain_eval(self, x)

    monkeypatch.setattr(FunctionSpec, "eval", counting_eval)
    state.draw(20_000)
    assert calls == []


def _gathered_clenshaw(coef, x):
    """The recurrence over a gathered (rows, points) coefficient matrix: the
    reference the row-at-a-time ``sampler._clenshaw`` must match bit for bit."""
    x2 = 2.0 * x
    b1, b2, tmp = np.array(coef[-1], dtype=float), np.zeros_like(x2), np.empty_like(x2)
    for c in coef[-2:0:-1]:
        np.multiply(x2, b1, out=tmp)
        np.add(c, tmp, out=tmp)
        tmp -= b2
        b1, b2, tmp = tmp, b1, b2
    return coef[0] + x * b1 - b2


@pytest.mark.parametrize("name", ["_p_coef", "_g_coef"])
def test_clenshaw_reads_the_rows_it_would_gather(name):
    table = sampler._CdfTable(PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, 1e-10)
    coef = getattr(table, name)
    rng = np.random.default_rng(19)
    idx = rng.integers(0, coef.shape[1], 5000)
    x = np.concatenate(([-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 4997)))
    got = sampler._clenshaw(coef, idx, x.copy(), np.empty((5, x.size)))
    want = _gathered_clenshaw(coef[:, idx], x)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "name, a",
    [("perturbed_p3", 1.0), ("perturbed_p0.05", 1.0), ("kinked_table", 10.0)])
def test_guide_table_finds_the_searchsorted_piece(name, a, perturbed_table):
    # many pieces share the first cells where the mass starts slowly (p = 3),
    # the piece at 0 is split geometrically at p = 0.05, and a table's
    # pieces are uneven; every cum value is probed, with both neighbours
    spec = {
        "perturbed_p3": PerturbedPowerLaw(p=3.0, eps=0.5),
        "perturbed_p0.05": PerturbedPowerLaw(p=0.05, eps=0.5),
        "kinked_table": perturbed_table,
    }[name]
    table = sampler._CdfTable(spec, a, 1e-10)
    cum = table.cum
    t = np.concatenate((
        cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf),
        table.total * np.random.default_rng(3).random(5000),
    ))
    t = t[(t >= 0.0) & (t <= table.total)]
    want = np.clip(np.searchsorted(cum, t, side="right") - 1, 0, cum.size - 2)
    assert np.array_equal(table._locate(t, table.workspace(t.size)), want)


def test_draw_working_set_per_value():
    # the quantile solve of four blocks on the perturbed table works in arrays
    # made once: beyond the draws held, 8 bytes each, it peaks at most 96
    # bytes a value of one block
    state = SamplerState(PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, seed=4)
    state.draw(10)  # one-time allocations are not the working set
    n = 4 * sampler._BLOCK
    tracemalloc.start()
    try:
        state.draw(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - 8 * n) / sampler._BLOCK <= 96


def test_table_build_memory_is_bounded_on_many_knots():
    # every knot is a piece; their nodes are evaluated a block's worth of
    # pieces at a time, so the build holds little beyond its coefficients
    spec = make_perturbed_table(n=20_001)
    tracemalloc.start()
    try:
        sampler._CdfTable(spec, 10.0, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


def test_table_draw_memory_is_bounded():
    # the quantile solve works in blocks, so its working arrays do not grow
    # with the batch
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


_ESTIMATE_SPECS = pytest.mark.parametrize(
    "spec", [PowerLaw(p=2.0), PerturbedPowerLaw(p=1.0, eps=0.1)],
    ids=["power", "perturbed"])


@pytest.mark.parametrize("n", [100, 2**14, 3 * 2**14 + 5, 10**6])
@_ESTIMATE_SPECS
def test_streamed_estimate_matches_the_whole_draw(spec, n):
    # the blocks' moments, merged pairwise in units of a and f(a), are those
    # of the same seed's draws held at once, up to the reordered sums
    est = mc_estimates(SamplerState(spec, 1.0, seed=13), n)
    x = SamplerState(spec, 1.0, seed=13).draw(n)
    fx = spec.eval(x)
    want = (np.mean(x), np.mean(fx),
            np.std(x, ddof=1) / math.sqrt(n), np.std(fx, ddof=1) / math.sqrt(n))
    got = (est.mean_x, est.mean_fx, est.stderr_x, est.stderr_fx)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert est.n == n


@_ESTIMATE_SPECS
def test_estimate_memory_does_not_grow_with_n(spec):
    # a million draws would take 8 MB each for x and f(x); the estimate
    # holds one block of 2**14 at a time
    state = SamplerState(spec, 1.0, seed=4)
    tracemalloc.start()
    try:
        mc_estimates(state, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_a_residual_miss_in_any_block_raises_after_the_last(monkeypatch):
    # the check reads every block and names the worst residual, not the
    # first miss, whether the draws are held (draw) or reduced as they come
    # (mc_estimates)
    solve = sampler._CdfTable.quantiles
    sizes = []

    def missing(self, u, work):
        s, resid = solve(self, u, work)
        sizes.append(u.size)
        resid[-1] = {1: 0.125, 2: 0.25}.get(len(sizes), resid[-1])
        return s, resid

    state = SamplerState(PerturbedPowerLaw(p=1.0, eps=0.1), 1.0, seed=4)
    monkeypatch.setattr(sampler._CdfTable, "quantiles", missing)
    n = 2 * sampler._BLOCK + 5
    for run in (state.draw, lambda n: mc_estimates(state, n)):
        sizes.clear()
        with pytest.raises(ToleranceNotReached, match=r"quantile residual 2\.500e-01"):
            run(n)
        assert sizes == [sampler._BLOCK, sampler._BLOCK, 5]
