import argparse
import contextlib
import csv
import importlib.util
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from collections import deque
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsp_lab import PerturbedPowerLaw, PowerLaw, SamplerState, cli
from gsp_lab._g17 import _g17_blocks, _scaled17
from gsp_lab.cli import RunConfig, main
from gsp_lab.sampler import _BLOCK


def run_cli(*argv):
    return main(list(argv))


def _g17_text(values, block=_BLOCK):
    return b"".join(_g17_blocks(values, block))


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}


# ----------------------------------------------------------------- verify

def test_verify_power_law_passes(tmp_path):
    out = tmp_path / "v.csv"
    code = run_cli("verify", "--family", "power", "--p", "2", "--out", str(out))
    assert code == 0
    cols = read_csv_columns(out)
    assert len(cols["a"]) == 17
    assert np.all(cols["variance"] <= 1e-12)
    assert np.all(cols["row_pass"] == 1.0)


def test_verify_wobble_fails_with_positive_variance(tmp_path):
    out = tmp_path / "v.csv"
    code = run_cli("verify", "--family", "perturbed", "--p", "1",
                   "--eps", "0.1", "--out", str(out))
    assert code == 1
    cols = read_csv_columns(out)
    assert np.all(cols["variance"] > 0.0)
    # the universal identities still hold for the wobble
    assert np.all(cols["red_i1"] <= 1e-7)
    assert np.all(cols["red_i2"] <= 1e-7)
    assert np.all(cols["red_i3"] <= 1e-7)


@pytest.mark.parametrize("a_min, a_max", [("1e-10", "1e-8"), ("1e5", "1e7")])
def test_verify_power_law_passes_far_from_unit_scale(a_min, a_max, tmp_path, capsys):
    # d/da grows as 1/a, and so does the finite differences' roundoff, about
    # 1e-11/a: judged as a d/da, x^2 passes every check at every scale
    out = tmp_path / "v.csv"
    assert run_cli("verify", "--family", "power", "--p", "2", "--a-min", a_min,
                   "--a-max", a_max, "--out", str(out)) == 0
    assert np.all(read_csv_columns(out)["row_pass"] == 1.0)
    assert capsys.readouterr().err == "verify: PASS (17 scales)\n"


def test_verify_rejects_non_decaying_exponent():
    assert run_cli("verify", "--family", "power", "--p", "-1") == 3


def test_verify_table_ending_at_a_max_writes_rows(tmp_path, capsys):
    # the finite-difference stencil of a = 10 lies below it, inside a table
    # ending at x = 10, so the grid keeps its top scale; the exact power-law
    # table passes every check there too
    x = np.geomspace(0.01, 10.0, 200)
    table = tmp_path / "t.csv"
    table.write_text("x,f\n" + "".join(f"{v:.17g},{v**1.5:.17g}\n" for v in x))
    out = tmp_path / "v.csv"
    code = run_cli("verify", "--csv", str(table), "--out", str(out))
    cols = read_csv_columns(out)
    assert len(cols["a"]) == 17
    assert cols["a"].max() == 10.0
    assert np.all(cols["row_pass"] == 1.0)
    assert code == 0
    assert capsys.readouterr().err == "verify: PASS (17 scales)\n"


def test_grid_commands_walk_one_grid_on_a_table_ending_at_a_max(tmp_path):
    # verify, detect and sweep report the same scales, a = 10 included, on
    # the CI's table on [0.01, 10]
    ci = _ci_table(tmp_path / "ci.csv")
    scales = {}
    for command in ("verify", "detect", "sweep"):
        out = tmp_path / f"{command}.csv"
        run_cli(command, "--csv", ci, "--format", "csv", "--out", str(out))
        scales[command] = read_csv_columns(out)["a"].tolist()
    assert len(scales["verify"]) == 17
    assert scales["verify"][-1] == 10.0
    assert scales["verify"] == scales["detect"] == scales["sweep"]


def test_verify_stays_cheap(monkeypatch):
    # regression guard on work done: one quadrature pass over the grid and
    # its finite-difference stencils; one integral per quantity and scale
    # took 8,634 calls
    from gsp_lab.functions import FunctionSpec

    calls = []
    for name in ("eval", "elasticity"):
        plain = getattr(FunctionSpec, name)

        def counting(self, x, _plain=plain):
            calls.append(1)
            return _plain(self, x)

        monkeypatch.setattr(FunctionSpec, name, counting)
    assert run_cli("verify", "--family", "perturbed", "--p", "1",
                   "--eps", "0.1", "--format", "json", "--out", os.devnull) == 1
    assert len(calls) <= 400


@pytest.mark.parametrize("command", ["verify", "detect", "sweep"])
@pytest.mark.parametrize("source", ["power", "table"])
def test_one_quadrature_pass_per_command(command, source, monkeypatch, x15_csv):
    # the moments, the reductions' left sides, the stencils and the weight
    # integrals of every scale all come from one cumulative call
    from gsp_lab import quadrature

    calls = []
    plain = quadrature.cumulative

    def counting(*args, **kwargs):
        calls.append(1)
        return plain(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("gsp_lab") and getattr(mod, "cumulative", None) is plain:
            monkeypatch.setattr(mod, "cumulative", counting)
    spec = ["--family", "power", "--p", "2"] if source == "power" else ["--csv", str(x15_csv)]
    assert run_cli(command, *spec, "--format", "json", "--out", os.devnull) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["detect", "sweep"])
@pytest.mark.parametrize("source", ["power", "perturbed", "table"])
def test_grid_commands_evaluate_the_spec_on_arrays(command, source, monkeypatch,
                                                   x15_csv):
    # f and E at the centroids, the fit, the residuals and their margins are
    # array expressions over the grid: no spec, a table included, is ever
    # evaluated at a single point
    from gsp_lab.functions import FunctionSpec

    scalar = []
    for name in ("eval", "elasticity"):
        plain = getattr(FunctionSpec, name)

        def recording(self, x, _plain=plain, _name=name):
            if not (isinstance(x, np.ndarray) and x.ndim == 1):
                scalar.append((_name, x))
            return _plain(self, x)

        monkeypatch.setattr(FunctionSpec, name, recording)
    spec = {"power": ["--family", "power", "--p", "2"],
            "perturbed": ["--family", "perturbed", "--p", "1", "--eps", "0.1"],
            "table": ["--csv", str(x15_csv)]}[source]
    rc = run_cli(command, *spec, "--format", "json", "--out", os.devnull)
    assert rc == (1 if (command, source) == ("detect", "perturbed") else 0)
    assert scalar == []


def _kernel_calls(monkeypatch):
    """Record the smallest node of every ``quadrature._rule`` call."""
    from gsp_lab import quadrature

    seen = []
    plain = quadrature._rule

    def counting(integrand, lo, hi):
        seen.append(float(np.min(lo + 0.5 * (hi - lo) * (1.0 + quadrature._CHEB_NODES[0]))))
        return plain(integrand, lo, hi)

    monkeypatch.setattr(quadrature, "_rule", counting)
    return seen


@pytest.mark.parametrize("command", ["verify", "detect", "sweep"])
def test_perturbed_endpoint_takes_few_kernel_rounds(command, monkeypatch):
    # the moment integrands vanish like x^p at 0: one bisection per round
    # there would take 17 kernel calls, the geometric cut takes a few
    seen = _kernel_calls(monkeypatch)
    run_cli(command, "--family", "perturbed", "--p", "1", "--eps", "0.1",
            "--format", "json", "--out", os.devnull)
    assert 1 <= len(seen) <= 4


@pytest.mark.parametrize("p, most", [("0.3", 3), ("0.01", 3), ("2", 1)])
def test_power_detect_kernel_rounds(p, most, monkeypatch):
    # one bisection per round at 0 would take 24 calls at p=0.3 and 28 at
    # p=0.01; a smooth end (p=2) needs no refinement round at all
    seen = _kernel_calls(monkeypatch)
    assert run_cli("detect", "--family", "power", "--p", p, "--out", os.devnull) == 0
    assert 1 <= len(seen) <= most


@pytest.mark.parametrize("command", ["verify", "detect"])
def test_fast_converging_end_is_probed_no_deeper(command, monkeypatch):
    # x^40 converges at 0 after one bisection of the panel below the first
    # cut, near 0.1: its lowest node is about 1.2e-4.  Each cut deeper would
    # halve it, and probing where x^40 underflows makes the run fail
    seen = _kernel_calls(monkeypatch)
    assert run_cli(command, "--family", "power", "--p", "40",
                   "--format", "json", "--out", os.devnull) == 0
    assert min(seen) == pytest.approx(1.204e-4, rel=1e-3)


# ----------------------------------------------------------------- detect

def test_detect_power_law(tmp_path):
    out = tmp_path / "d.json"
    code = run_cli("detect", "--family", "power", "--p", "2", "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["verdict"] == "PowerLaw"
    assert abs(result["p_theta"] - 2.0) < 1e-6
    assert abs(result["lambda_hat"] - 0.533333) < 1e-5


def test_detect_tabulated_csv(tmp_path, x15_csv):
    out = tmp_path / "d.json"
    code = run_cli("detect", "--csv", str(x15_csv), "--out", str(out))
    assert code == 0
    result = json.loads(out.read_text())
    assert result["verdict"] == "PowerLaw"
    assert abs(result["p_theta"] - 1.5) <= 0.01


def test_detect_csv_writes_the_per_scale_statistics(tmp_path):
    # one row per grid scale, the same numbers the JSON report carries
    out, ref = tmp_path / "d.csv", tmp_path / "d.json"
    argv = ("detect", "--family", "perturbed", "--p", "1", "--eps", "0.1")
    assert run_cli(*argv, "--format", "csv", "--out", str(out)) == 1
    assert run_cli(*argv, "--out", str(ref)) == 1
    lines = out.read_text().splitlines()
    assert lines[0] == "a,gsp_residual,variance"
    assert len(lines) == 1 + 17
    cols = read_csv_columns(out)
    result = json.loads(ref.read_text())
    assert cols["a"].tolist() == result["scales"]
    assert cols["gsp_residual"].tolist() == result["gsp_residuals"]
    assert cols["variance"].tolist() == result["variances"]


def test_detect_wobble_is_rejected(tmp_path):
    out = tmp_path / "d.json"
    code = run_cli("detect", "--family", "perturbed", "--p", "1",
                   "--eps", "0.1", "--out", str(out))
    assert code == 1
    assert json.loads(out.read_text())["verdict"] == "NotPowerLaw"


def test_detect_loose_tolerance_is_inconclusive(tmp_path):
    out = tmp_path / "d.json"
    code = run_cli("detect", "--family", "power", "--p", "1.3",
                   "--tol", "1e-4", "--out", str(out))
    assert code == 4
    assert json.loads(out.read_text())["verdict"] == "Inconclusive"


# ------------------------------------------------------------------ sweep

def test_sweep_power_law_theta_is_flat(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli("sweep", "--family", "power", "--p", "1", "--out", str(out))
    assert code == 0
    cols = read_csv_columns(out)
    assert np.allclose(cols["theta"], 2.0 / 3.0, atol=1e-9)
    assert np.all(cols["gsp_residual"] < 1e-9)


def test_sweep_power_law_moments_are_exact_to_rounding(tmp_path):
    # x^2 gives A, B, C = 1/3, 1/4, 1/5 at every scale: the kernel's weights
    # carry no bias of their own, where 15-digit constants put A 18 ulps low
    out = tmp_path / "s.csv"
    assert run_cli("sweep", "--family", "power", "--p", "2", "--out", str(out)) == 0
    cols = read_csv_columns(out)
    for name, exact in (("A", 1.0 / 3.0), ("B", 0.25), ("C", 0.2)):
        assert np.max(np.abs(cols[name] - exact)) <= 4 * np.spacing(exact), name


def test_sweep_wobble_theta_oscillates(tmp_path):
    out = tmp_path / "s.csv"
    code = run_cli("sweep", "--family", "perturbed", "--p", "1",
                   "--eps", "0.1", "--out", str(out))
    assert code == 0
    theta = read_csv_columns(out)["theta"]
    assert theta.max() - theta.min() > 3e-3


def test_sweep_tiny_grid_is_config_error():
    assert run_cli("sweep", "--family", "power", "--p", "1",
                   "--a-count", "1") == 2


def _x_f_table(path, x, f):
    path.write_text("x,f\n" + "".join(f"{v!r},{w!r}\n" for v, w in zip(x, f)))
    return str(path)


def _ci_table(path):
    """The 200-knot perturbed table on [0.01, 10] that CI writes."""
    t = np.linspace(np.log(0.01), np.log(10.0), 200)
    t[1:-1] += np.random.default_rng(1).uniform(-0.25, 0.25, 198) * (t[1] - t[0])
    x = np.exp(t)
    x[0], x[-1] = 0.01, 10.0
    x = x.tolist()
    return _x_f_table(path, x, [v * (1.0 + 0.1 * math.sin(math.log(v))) for v in x])


@pytest.mark.parametrize("case, line", [
    ("ulps-wide", "scales must be strictly increasing"),
    ("outside-table", "only 1 grid scales fit inside the support (0, 0.12]"),
    ("a-count-4", "grid needs at least 5 scales"),
    # sample's one scale is held to the support as a grid's scales are
    ("sample-above-table", "sample scale a=20 lies outside the support (0, 10]"),
])
def test_grid_errors_are_one_line_config_errors(case, line, tmp_path, capsys):
    low = np.geomspace(0.05, 0.12, 30).tolist()
    ci = _ci_table(tmp_path / "ci.csv")
    argv = {
        "ulps-wide": ("sweep", "--family", "power", "--p", "2", "--a-min", "1",
                      "--a-max", "1.0000000000000004", "--a-count", "9"),
        "outside-table": ("detect", "--csv", _x_f_table(tmp_path / "x15.csv", low,
                                                        [v**1.5 for v in low])),
        "a-count-4": ("sweep", "--family", "power", "--p", "2", "--a-count", "4"),
        "sample-above-table": ("sample", "--csv", ci, "--a", "20", "--n", "10"),
    }[case]
    assert run_cli(*argv) == 2
    assert capsys.readouterr() == ("", f"config error: {line}\n")


def test_sweep_csv_round_trips_at_17_digits(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("sweep", "--family", "power", "--p", "2", "--out", str(out))
    first = out.read_text()
    cols = read_csv_columns(out)
    rewritten = ["a,xbar,ybar,theta,A,B,C,gsp_residual,variance"]
    for i in range(len(cols["a"])):
        rewritten.append(",".join(
            f"{cols[k][i]:.17g}" for k in
            ("a", "xbar", "ybar", "theta", "A", "B", "C",
             "gsp_residual", "variance")
        ))
    assert first == "\n".join(rewritten) + "\n"


# ----------------------------------------------------------------- sample

def test_sample_is_byte_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ("sample", "--family", "power", "--p", "1", "--a", "1",
            "--n", "500", "--seed", "7")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    draws = read_csv_columns(a)["x"]
    assert draws.shape == (500,)
    assert np.all((draws > 0.0) & (draws <= 1.0))


def test_sample_estimate_json(tmp_path):
    out = tmp_path / "e.json"
    code = run_cli("sample", "--family", "power", "--p", "2", "--a", "1",
                   "--n", "5000", "--seed", "3", "--estimate",
                   "--out", str(out))
    assert code == 0
    est = json.loads(out.read_text())
    assert est["n"] == 5000
    # true mean for p=2 on (0, 1] is 3/4
    assert abs(est["mean_x"] - 0.75) <= 4.0 * est["stderr_x"]


@pytest.mark.parametrize("a", ["1e300", "1e-300"])
def test_sample_estimate_at_the_float64_ends_is_finite(tmp_path, capsys, a):
    # the moments are taken in units of a and f(a): in x units the squared
    # deviations overflow near 1e300 and underflow to 0 near 1e-300
    out = tmp_path / "e.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli("sample", "--family", "perturbed", "--p", "1", "--eps", "0.1",
                     "--a", a, "--n", "300", "--estimate", "--out", str(out))
    assert rc == 0 and caught == []
    est = json.loads(out.read_text())
    for key in ("stderr_x", "stderr_fx"):
        assert math.isfinite(est[key]) and est[key] > 0.0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("sample: n=300 mean_x=")


def test_sample_estimate_format_csv(tmp_path):
    # --format csv: a header and one 17-digit row of the same numbers the
    # default JSON holds; --format json gives the default's bytes
    base = ("sample", "--family", "power", "--p", "2", "--a", "1", "--n", "5000",
            "--seed", "3", "--estimate")
    paths = {fmt: tmp_path / f"e_{fmt}" for fmt in ("", "json", "csv")}
    for fmt, path in paths.items():
        assert run_cli(*base, *(("--format", fmt) if fmt else ()), "--out", str(path)) == 0
    assert paths["json"].read_bytes() == paths[""].read_bytes()
    est = json.loads(paths[""].read_text())
    header, row, end = paths["csv"].read_text().split("\n")
    assert header == "mean_x,mean_fx,stderr_x,stderr_fx,n" and end == ""
    assert row == ",".join(f"{est[k]:.17g}" for k in header.split(","))


@pytest.mark.parametrize("how", ["flag", "config"])
def test_sample_draws_as_json_are_a_config_error(tmp_path, capsys, how):
    # draws are CSV only; JSON is the estimate's format
    base = ("sample", "--family", "power", "--p", "2", "--a", "1", "--n", "10")
    if how == "flag":
        extra = ("--format", "json")
    else:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"format": "json"}))
        extra = ("--config", str(path))
    out = tmp_path / "draws.csv"
    assert run_cli(*base, *extra, "--out", str(out)) == 2
    assert capsys.readouterr() == (
        "", "config error: sample writes its draws as CSV only: json needs --estimate\n")
    assert not out.exists()
    assert run_cli(*base, "--format", "csv", "--out", str(out)) == 0
    assert out.read_text().startswith("x\n")


def test_sample_estimate_needs_enough_draws():
    assert run_cli("sample", "--family", "power", "--p", "1",
                   "--n", "10", "--estimate") == 2


@pytest.mark.parametrize("flags", [
    ("--a-count", "3"), ("--a-min", "5", "--a-max", "1"),
], ids=["a-count-3", "inverted-bounds"])
def test_sample_reads_no_grid_flag(flags, tmp_path):
    plain, flagged = tmp_path / "plain.txt", tmp_path / "flagged.txt"
    base = ("sample", "--family", "power", "--p", "2", "--a", "1", "--n", "5")
    assert run_cli(*base, "--out", str(plain)) == 0
    assert run_cli(*base, *flags, "--out", str(flagged)) == 0
    assert flagged.read_bytes() == plain.read_bytes()


def _exact_ties(rng):
    """Doubles whose exact decimal has 18 significant digits ending in 5:
    j / 2**t for odd j < 2**53 has exactly t decimal places, the last a 5."""
    ties = []
    for t in range(3, 26):
        lo, hi = 10 ** (17 - t) * 2**t, min(10 ** (18 - t) * 2**t, 2**53)
        lo = max(math.ceil(lo), 1)
        j = lo + rng.integers(0, int(hi) - lo, 200) | 1
        ties.append(np.ldexp(j.astype(float), -t))
    return np.concatenate(ties)


def _fixed_layout(x):
    """(X, k) of a value %.17g prints in fixed notation: its decimal
    exponent and the number of trailing zeros of its 17-digit D."""
    whole, _, frac = f"{x:.17g}".partition(".")
    exp = len(whole) - 1 if whole != "0" else len(frac.lstrip("0")) - len(frac) - 1
    return exp, 17 - len((whole + frac).strip("0"))


def _trailing_zero_values(rng):
    """One double for every decimal exponent X in [-4, 16] and every count
    k in 0..16 of trailing zeros of its 17-digit D."""
    found = {}
    for exp in range(-4, 17):
        for k in range(17):
            for m in (rng.integers(10**16, 10**17, 400) // 10**k * 10**k).tolist():
                x = float(f"{m}e{exp - 16}")
                if 1e-4 <= x < 1e17 and _fixed_layout(x) == (exp, k):
                    found[exp, k] = x
                    break
    assert len(found) == 21 * 17
    return np.array(list(found.values()))


def test_g17_lines_matches_python_formatting():
    # every layout the formatter tells apart, interleaved in one call: each
    # count of trailing zeros at each fixed-notation exponent, integers (no
    # point), the fast range's edges and the values Python formats
    rng = np.random.default_rng(8)
    binades = np.repeat(np.arange(-1074, 1024), 20)
    decades = 10.0 ** np.arange(-8, 19)
    edges = np.array([1e-4, 1.0, 2.0**53, 1e17])
    ties = _exact_ties(rng)
    for x in ties[:50].tolist():
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    integers = np.concatenate([np.floor(2.0 ** rng.uniform(0, 56.4, 2000)),
                               2.0 ** np.arange(57), [2.0**53 - 1, 1e17 - 16, 123000.0]])
    assert not any("." in f"{x:.17g}" for x in integers.tolist())
    values = np.concatenate([
        np.ldexp(1.0 + rng.random(binades.size), binades),
        decades, np.nextafter(decades, 0.0), np.nextafter(decades, np.inf),
        [0.5, 1.0, 2.0**53 + 2, 0.99999999999999994, 0.0],
        ties, _trailing_zero_values(rng), integers,
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [-0.0, -1.5, -1e-4, -2.0**49, np.nan, np.inf, -np.inf],
    ])
    rng.shuffle(values)
    for part in (values, values[:0], values[:1]):
        text = "".join(f"{x:.17g}\n" for x in part.tolist())
        assert _g17_text(part) == text.encode("ascii")


@settings(max_examples=300)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_g17_lines_matches_python_formatting_on_any_floats(values):
    # blocks of 7: each block's arrays hold the bytes of the one before
    assert _g17_text(np.array(values), 7) == "".join(f"{x:.17g}\n" for x in values).encode()


def test_g17_lines_next_to_powers_of_ten_match_python_formatting():
    # within two ulps of 10**k the log10 guess can miss the decimal exponent
    # by one, and Python formats those values; the fast range's edges too
    centres = np.array([float(f"1e{k}") for k in range(-4, 18)] + [2.0**53])
    near = [centres]
    for toward in (0.0, np.inf):
        step = centres
        for _ in range(2):
            step = np.nextafter(step, toward)
            near.append(step)
    values = np.concatenate(near)
    exponents = np.array([Decimal(x).adjusted() for x in values.tolist()])
    assert (np.floor(np.log10(values)) != exponents).any()
    text = "".join(f"{x:.17g}\n" for x in values.tolist()).encode()
    assert _g17_text(values, values.size) == text
    assert _g17_text(values, 7) == text


def test_scaled17_matches_exact_arithmetic():
    # the floor of v * 10**k and its round-up flag (half to even) against
    # Fraction arithmetic, at the k the formatter's log10 guess gives: random
    # values, exact ties at the 17th digit (odd j / 2**(1 + k) times 10**k is
    # j 5**k / 2), and neighbours of 2**53, of 10**X and of 1e17, where the
    # guess can miss: a floor of 16 or 18 digits must not come out with 17
    rng = np.random.default_rng(39)
    ties = []
    for k in range(1, 21):
        lo, hi = -(-2 * 10**16 // 5**k), min(2 * 10**17 // 5**k, 2**53)
        j = rng.integers(lo, hi, 200) | 1
        ties.append(np.ldexp(j.astype(float), -1 - k))
    centres = np.array([float(f"1e{x}") for x in range(-4, 18)] + [2.0**53])
    near = [np.nextafter(centres, toward) for toward in (0.0, np.inf)]
    near += [np.nextafter(near[0], 0.0), np.nextafter(near[1], np.inf)]
    v = np.concatenate([10.0 ** rng.uniform(-4, 17, 20000), *ties, centres, *near,
                        rng.random(2000)])
    v = v[(1e-4 <= v) & (v < 1e17)]
    dexp = np.clip(np.floor(np.log10(v)), -4, 16).astype(np.int8)
    w = np.zeros((6, v.size), np.uint64)
    w[0].view(float)[:] = v
    up = np.empty(v.size, bool)
    _scaled17(w, dexp, up)
    got, got_up = w[0].tolist(), up.tolist()
    ties = missed = 0
    for x, e, q, q_up in zip(v.tolist(), dexp.tolist(), got, got_up):
        exact = Fraction(x) * 10 ** (16 - e)
        floor = math.floor(exact)
        if 10**16 <= floor < 10**17:
            half = exact - floor - Fraction(1, 2)
            assert (q, q_up) == (floor, half > 0 or (half == 0 and floor % 2 == 1)), x
            ties += half == 0
        else:
            assert not 10**16 <= q < 10**17, x
            missed += 1
    assert ties >= 3000 and missed > 0


def test_g17_blocks_leave_no_stale_bytes():
    # one array of three blocks formatted in the same arrays: Python-formatted
    # rows (24 columns wide) and integer parts, then unit draws, then a short
    # block of short texts, each against what the block before left
    rng = np.random.default_rng(34)
    specials = np.array([0.0, -0.0, -1.5, -2.0**49, np.nan, np.inf, -np.inf, 2.0**50,
                         1e300, -2.2250738585072014e-308, 5e-324])
    first = np.concatenate([
        np.resize(specials, _BLOCK // 4),
        np.floor(2.0 ** rng.uniform(0, 50, _BLOCK // 4)),
        2.0 ** rng.uniform(0, 50, _BLOCK // 4),
        10.0 ** rng.uniform(-300, 300, _BLOCK - 3 * (_BLOCK // 4)),
    ])
    rng.shuffle(first)
    last = np.resize([0.5, 1.0, 2.0, 0.25, 1e-4, 10.0, 0.0], 1000)
    values = np.concatenate([first, rng.random(_BLOCK), last])
    texts = list(_g17_blocks(values, _BLOCK))
    assert len(texts) == 3
    assert b"".join(texts) == "".join(f"{x:.17g}\n" for x in values.tolist()).encode()


@pytest.mark.parametrize("kind", ["unit", "decades"])
def test_g17_lines_working_set_per_value(kind):
    # four blocks formatted in arrays made once, each block's text dropped
    # before the next is formatted, as a file's writelines drops it
    rng = np.random.default_rng(6)
    n = 4 * _BLOCK
    values = rng.random(n) if kind == "unit" else 10.0 ** rng.uniform(-6, 17, n)
    deque(_g17_blocks(values[:10], _BLOCK), maxlen=0)  # one-time allocations
    tracemalloc.start()
    try:
        deque(_g17_blocks(values, _BLOCK), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / _BLOCK <= 96


def _scaled_table(tmp_path, a):
    """A perturbed sqrt table that covers a and [1e-6, 1e6], with a floor
    a normal double in units of a."""
    x = np.geomspace(min(1e-6 * a, 1e-6), max(10.0 * a, 1e6), 200)
    f = np.sqrt(x) * (1.0 + 0.1 * np.sin(np.log(x)))
    path = tmp_path / "scaled.csv"
    path.write_text("x,f\n" + "".join(
        f"{xv!r},{fv!r}\n" for xv, fv in zip(x.tolist(), f.tolist())))
    return ["--csv", str(path)]


@pytest.mark.parametrize("a", ["1e-300", "1e-3", "1", "7", "1e12", "1e300"])
@pytest.mark.parametrize("family", ["power", "perturbed", "table"])
def test_sample_lines_are_shortest_17_digit_text(tmp_path, family, a):
    spec_args = {
        "power": ["--family", "power", "--p", "0.001"],
        "perturbed": ["--family", "perturbed", "--p", "1", "--eps", "0.1"],
    }.get(family) or _scaled_table(tmp_path, float(a))
    out = tmp_path / "draws.csv"
    assert run_cli("sample", *spec_args, "--a", a, "--n", "2000",
                   "--seed", "5", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x" and len(lines) == 2001
    assert all(f"{float(line):.17g}" == line for line in lines[1:])


@pytest.mark.parametrize("p, eps, tol", [
    *(pytest.param("1", "0.1", tol, id=tol) for tol in ("1e-13", "1e-15", "1e-20")),
    *(pytest.param("0.05", "0.04", tol, id=f"p0.05-{tol}")
      for tol in ("1e-12", "1e-13", "1e-15", "1e-20")),
])
def test_sample_below_the_kernel_floor_still_draws(tmp_path, p, eps, tol):
    # the CDF table is held to the quadrature's reach, not to 0.01 tol; at
    # p = 0.05 the masses near 1 put the kernel's error floor above 1e-14
    out = tmp_path / "draws.csv"
    assert run_cli("sample", "--family", "perturbed", "--p", p, "--eps",
                   eps, "--a", "1", "--n", "200", "--seed", "3",
                   "--tol", tol, "--out", str(out)) == 0
    assert len(read_csv_columns(out)["x"]) == 200


@pytest.mark.parametrize("target", ["stdout", "out", "process", "stringio"])
@pytest.mark.parametrize("spec, flags", [
    (PowerLaw(p=2.0), ("--family", "power", "--p", "2")),
    (PerturbedPowerLaw(p=1.0, eps=0.1),
     ("--family", "perturbed", "--p", "1", "--eps", "0.1")),
], ids=["power", "perturbed"])
def test_sample_writes_every_block_of_draws(tmp_path, capsys, spec, flags, target):
    # three blocks of draws and a short one, each formatted as written, in
    # the same arrays, to pytest's capture, a file, a real process's stdout
    # and an io.StringIO
    n = 3 * _BLOCK + 5
    argv = ("sample", *flags, "--a", "1", "--n", str(n), "--seed", "9")
    if target == "stdout":
        assert run_cli(*argv) == 0
        text = capsys.readouterr().out
    elif target == "out":
        out = tmp_path / "draws.txt"
        assert run_cli(*argv, "--out", str(out)) == 0
        text = out.read_bytes().decode("ascii")
    elif target == "process":
        proc = subprocess.run([sys.executable, "-m", "gsp_lab.cli", *argv],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        text = proc.stdout.decode("ascii")
    else:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert run_cli(*argv) == 0
        text = sink.getvalue()
    draws = SamplerState(spec, 1.0, seed=9).draw(n).tolist()
    assert text == "x\n" + "".join(f"{v:.17g}\n" for v in draws)


@pytest.mark.parametrize("flags", [
    ("--family", "power", "--p", "2"),
    ("--family", "perturbed", "--p", "1", "--eps", "0.1"),
], ids=["power", "perturbed"])
def test_sample_makes_its_arrays_once_per_run(tmp_path, flags):
    # four blocks peak no higher than one, but for the three more blocks of
    # draws held, 8 bytes each, and 5% slack
    out = tmp_path / "draws.txt"

    def peak(n):
        argv = ("sample", *flags, "--a", "1", "--n", str(n), "--seed", "9", "--out", str(out))
        run_cli(*argv)  # one-time allocations are not the working set
        tracemalloc.start()
        try:
            assert run_cli(*argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * _BLOCK) <= 1.05 * peak(_BLOCK) + 8 * 3 * _BLOCK


def test_sample_on_a_terminal_writes_its_draws_before_its_summary():
    # a terminal's text layer is line-buffered but its binary buffer is not
    # (unless PYTHONUNBUFFERED is set): the blocks must still reach it
    # before the stderr line
    import pty
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    master, slave = pty.openpty()
    proc = subprocess.Popen([sys.executable, "-m", "gsp_lab.cli", "sample", "--family",
                             "power", "--p", "2", "--a", "1", "--n", "3", "--seed", "1"],
                            stdout=slave, stderr=slave, env=env)
    os.close(slave)
    chunks = []
    while True:
        try:
            chunk = os.read(master, 4096)
        except OSError:  # EIO once the child has closed the terminal
            break
        if not chunk:
            break
        chunks.append(chunk)
    os.close(master)
    assert proc.wait() == 0
    draws = SamplerState(PowerLaw(p=2.0), 1.0, seed=1).draw(3).tolist()
    lines = b"".join(chunks).decode("ascii").splitlines()
    assert lines == ["x", *(f"{v:.17g}" for v in draws), "sample: wrote 3 draws (seed=1)"]


# ------------------------------------------------------------ config file

def _file_keys(cfg):
    """The config as a config file holds it: every field but the command."""
    return {k: getattr(cfg, k) for k in RunConfig.fields if k != "command"}


def test_config_file_round_trip_and_override(tmp_path):
    cfg = RunConfig(command="sweep", family="power", p=2.0, a_count=9)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_file_keys(cfg)))

    out = tmp_path / "s.csv"
    code = run_cli("sweep", "--config", str(path), "--out", str(out))
    assert code == 0
    assert len(read_csv_columns(out)["a"]) == 9

    # a flag given on the command line beats the file value
    out2 = tmp_path / "s2.csv"
    code = run_cli("sweep", "--config", str(path), "--a-count", "5",
                   "--out", str(out2))
    assert code == 0
    assert len(read_csv_columns(out2)["a"]) == 5


def test_config_round_trips_losslessly(tmp_path):
    cfg = RunConfig(command="detect", family="perturbed", p=1.25,
                    eps=0.05, tol=3e-11, seed=99)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_file_keys(cfg)))
    reparsed = RunConfig(command="detect", **json.loads(path.read_text()))
    assert ([getattr(reparsed, k) for k in RunConfig.fields]
            == [getattr(cfg, k) for k in RunConfig.fields])


def test_unknown_config_key_is_config_error(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"familly": "power"}))
    assert run_cli("detect", "--config", str(path)) == 2


@pytest.mark.parametrize("command, text, line", [
    ("detect", b'{"p": "\xff"}', "config file is not valid JSON: 'utf-8' codec can't "
     "decode byte 0xff in position 7: invalid start byte"),
    # JSON's Infinity is a float, and int() of it overflows
    ("detect", b'{"a_count": Infinity}',
     "bad value for 'a_count': cannot convert float infinity to integer"),
    ("detect", b'{"seed": Infinity}',
     "bad value for 'seed': cannot convert float infinity to integer"),
    ("sample", b'{"n": Infinity}',
     "bad value for 'n': cannot convert float infinity to integer"),
    # int() would truncate 9.7 to a 9-scale grid, as the flag never does
    ("sweep", b'{"a_count": 9.7}', "bad value for 'a_count': 9.7 is not an integer"),
    # a seed is one uint64; 1e30 would alias a seed inside it
    ("sample", b'{"seed": 1e30}',
     "seed must lie in [0, 2**64), got 1000000000000000019884624838656"),
    ("detect", b'{"family": "cubic"}', "unknown family 'cubic'"),
    ("detect", b'{"format": "xml"}', "unknown format 'xml'"),
    ("detect", b'[1]', "config file must hold a JSON object"),
    ("sample", b'{"estimate": 1}', "bad value for 'estimate': expected true/false"),
    ("detect", b'{"a_min": Infinity}', "grid bounds must be finite"),
    ("detect", b'{"a_min": 5, "a_max": 1}', "need 0 < a-min < a-max"),
    # None: the path names a directory
    ("detect", None, "cannot read config file: [Errno 21] Is a directory: {path!r}"),
], ids=["non-utf8", "a_count-inf", "seed-inf", "n-inf", "a_count-fraction",
        "seed-1e30", "family", "format", "not-an-object", "estimate-int",
        "a_min-inf", "a_min-above-a_max", "directory"])
def test_config_file_faults_are_one_line_config_errors(command, text, line, tmp_path,
                                                       capsys):
    path = tmp_path / "c.json"
    if text is None:
        path.mkdir()
    else:
        path.write_bytes(text)
    assert run_cli(command, "--config", str(path)) == 2
    assert capsys.readouterr() == ("", f"config error: {line.format(path=str(path))}\n")


@pytest.mark.parametrize("argv, code, line", [
    (("detect", "--tol", "0"), 2, "config error: tolerance must be positive"),
    (("sample", "--a", "0"), 2, "config error: sample scale a must be positive"),
    (("sample", "--n", "0"), 2, "config error: need at least 1 draw"),
    # one past the largest count a run may ask for
    (("detect", "--a-count", "1125899906842625"), 1,
     "error: out of memory (cannot allocate 1125899906842625 float64 values)"),
    (("sample", "--n", "1125899906842625"), 1,
     "error: out of memory (cannot allocate 1125899906842625 float64 values)"),
], ids=["tol-0", "sample-a-0", "sample-n-0", "a-count-2^50+1", "n-2^50+1"])
def test_flag_faults_end_in_one_line(argv, code, line, capsys):
    assert run_cli(*argv) == code
    assert capsys.readouterr() == ("", f"{line}\n")


def test_subnormal_unit_on_a_power_law_is_an_error_not_a_verdict(capsys):
    # a f(a)^2 is subnormal over this grid, 4.9e-319 to 1.5e-316: C divided
    # by it came back 5.7e-7 off and the residual said NotPowerLaw
    assert run_cli("detect", "--family", "power", "--p", "0.12197137884293219",
                   "--amp", "4.6209389473686e-149",
                   "--a-min", "4.0180930031425905e-18",
                   "--a-max", "4.0180930031425905e-16") == 1
    assert capsys.readouterr() == ("", "error: unit a f(a)^2 = 4.89619e-319 at "
                                   "a=4.01809e-18 is outside the float64 range\n")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_64_bits_is_a_config_error(seed, capsys):
    # 2**64 wrote the bytes of seed 0, and -1 those of 2**64 - 1
    assert run_cli("sample", "--family", "power", "--p", "2", "--a", "1",
                   "--n", "2", "--seed", seed) == 2
    assert capsys.readouterr() == (
        "", f"config error: seed must lie in [0, 2**64), got {seed}\n")


def test_largest_seed_draws(capsys):
    assert run_cli("sample", "--family", "power", "--p", "2", "--a", "1",
                   "--n", "2", "--seed", str(2**64 - 1)) == 0
    assert capsys.readouterr().err == (
        "sample: wrote 2 draws (seed=18446744073709551615)\n")


def test_missing_csv_is_config_error(tmp_path):
    assert run_cli("detect", "--csv", str(tmp_path / "nope.csv")) == 2


def test_malformed_csv_is_inadmissible(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,f\n1.0,2.0\n0.5,3.0\n")
    assert run_cli("detect", "--csv", str(bad)) == 3


def test_csv_naming_a_directory_is_config_error(tmp_path, capsys):
    assert run_cli("detect", "--csv", str(tmp_path)) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_non_utf8_csv_is_inadmissible_with_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"x,f\n1.0,2.0\n2.0,\xff3.0\n3.0,4.0\n")
    assert run_cli("detect", "--csv", str(bad)) == 3
    assert "line 3: " in capsys.readouterr().err


def test_out_into_missing_directory_is_config_error(tmp_path, capsys):
    out = tmp_path / "missing" / "s.csv"
    assert run_cli("sweep", "--family", "power", "--p", "1",
                   "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("amp", ["1e-200", "1e200"])
def test_extreme_amplitude_ends_in_one_line(amp, capsys):
    # f(a)^2 underflows or overflows: one designed error, no exception and
    # no floating-point warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli("detect", "--family", "power", "--p", "2", "--amp", amp)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert caught == []


def test_huge_exponent_ends_in_the_unit_guard_line(capsys):
    # x**200 is admissible, but its unit a f(a)^2 underflows at the lowest
    # scale: the moments' unit guard reports it, with no floating-point
    # warnings in front
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli("detect", "--family", "power", "--p", "200")
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: unit a f(a)^2 = 0 at a=0.1 is outside the float64 range\n"
    assert caught == []


def test_power_law_is_a_power_law_across_exponents(capsys):
    # validate decides x^p from p alone, so neither x^p's underflow at small
    # x nor a slow decay refuses it: on the default grid every p in
    # [1e-12, 80] is a power law
    @settings(max_examples=40)
    @given(st.floats(-12.0, math.log10(80.0)))
    def check(log_p):
        p = min(10.0**log_p, 80.0)
        assert run_cli("detect", "--family", "power", "--p", repr(p),
                       "--out", os.devnull) == 0, p
        assert capsys.readouterr().err.startswith("detect: PowerLaw ")

    check()


def test_strong_wobbles_get_a_verdict_and_draws(capsys):
    # x^p (1 + eps sin log x) with |eps| < 1 is admissible however its wobble
    # compares with p: detect gives a verdict, and sample writes its draws,
    # each in one stderr line
    @settings(max_examples=40)
    @given(st.floats(0.02, 3.0), st.floats(0.3, 0.99, exclude_max=True), st.booleans())
    def check(p, eps, negative):
        eps = -eps if negative else eps
        spec = ("--family", "perturbed", "--p", repr(p), "--eps", repr(eps))
        for argv in (("detect", *spec), ("sample", *spec, "--a", "1", "--n", "10")):
            rc = run_cli(*argv, "--out", os.devnull)
            err = capsys.readouterr().err
            assert rc != 3 and err.count("\n") == 1, (argv, rc, err)

    check()


@st.composite
def _fuzzed_argv(draw):
    """A command on either family: p log-uniform on [1e-2, 300], amp in
    1e+-300, |eps| < 0.99, a grid (or sample's scale) of up to 6 decades
    inside 1e+-20, tol in [1e-15, 1e-3] and up to 3,000 draws."""
    command = draw(st.sampled_from(("verify", "detect", "sweep", "sample")))
    family = draw(st.sampled_from(("power", "perturbed")))
    argv = [command, "--family", family,
            "--p", repr(10.0 ** draw(st.floats(-2.0, math.log10(300.0)))),
            "--amp", repr(10.0 ** draw(st.floats(-300.0, 300.0))),
            "--tol", repr(10.0 ** draw(st.floats(-15.0, -3.0)))]
    if family == "perturbed":
        argv += ["--eps", repr(draw(st.floats(-0.99, 0.99, exclude_min=True,
                                              exclude_max=True)))]
    decades = draw(st.floats(0.0, 6.0, exclude_min=True))
    lo = draw(st.floats(-20.0, 20.0 - decades))
    if command != "sample":
        return argv + ["--a-min", repr(10.0**lo), "--a-max", repr(10.0 ** (lo + decades))]
    argv += ["--a", repr(10.0**lo), "--n", str(draw(st.integers(1, 3000))),
             "--seed", str(draw(st.integers(0, 2**64 - 1)))]
    return argv + ["--estimate"] * draw(st.booleans())


def test_fuzzed_flags_end_in_designed_exits(capsys):
    # every run ends in a designed exit code with no traceback; a failing
    # detect, sweep or sample says why in one line; and a power law is never
    # judged not to be one: its exit 1 is an error, not a verdict
    @settings(max_examples=80, deadline=None)
    @given(_fuzzed_argv())
    def check(argv):
        rc = run_cli(*argv, "--out", os.devnull)
        err = capsys.readouterr().err
        assert rc in range(5) and "Traceback" not in err, (argv, rc, err)
        if rc and argv[0] != "verify":
            assert err.count("\n") == 1, (argv, rc, err)
        if argv[2] == "power":
            assert "detect: NotPowerLaw" not in err and "verify: FAIL" not in err, argv
            assert rc != 1 or err.startswith("error: "), (argv, err)

    check()


def _sqrt_table(path, lo, hi, n):
    x = np.geomspace(lo, hi, n).tolist()
    return _x_f_table(path, x, [math.sqrt(v) for v in x])


@pytest.mark.parametrize("lo,hi,grid,code", [
    (1e10, 1e20, ("--a-min", "1e11", "--a-max", "1e19"), 0),
    (1e-300, 1e-290, (), 2),
    (1e-300, 1e-290, ("--a-min", "1e-299", "--a-max", "1e-291"), 1),
    (1e-305, 1e305, ("--a-min", "1e100", "--a-max", "1e300"), 1),
    (1e-305, 1e305, ("--a-min", "1e-300", "--a-max", "1e-100"), 1),
])
def test_table_outside_the_probe_window_ends_in_one_line(tmp_path, capsys, lo, hi,
                                                         grid, code):
    # validate evaluates no table, so a hull outside the window [1e-6, 1e6]
    # that it probes a Custom spec on is admissible; a scale whose units
    # a^k f(a) or a f(a)^2 leave the float64 range is refused before the
    # moment pass
    table = _sqrt_table(tmp_path / "t.csv", lo, hi, 50)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli("detect", "--csv", table, *grid, "--out", os.devnull)
    err = capsys.readouterr().err
    assert rc == code
    assert err.count("\n") == 1 and "Traceback" not in err
    assert caught == []
    if code == 1:  # names the unit the moments cannot divide by
        assert err.startswith("error: unit ") and "outside the float64 range" in err


def test_sample_estimate_on_a_table_reaches_into_its_head(tmp_path, capsys):
    # x^1.5 sampled on [0.01, 10], drawn at a = 0.02: the head below the
    # first sample holds (1/2)^2.5 = 18% of the mass, and the means of x and
    # f(x) land on the closed-form centroid H/F and G/F
    x = np.geomspace(0.01, 10.0, 200).tolist()
    table = _x_f_table(tmp_path / "x15.csv", x, [v**1.5 for v in x])
    out = tmp_path / "estimate.json"
    assert run_cli("sample", "--csv", table, "--a", "0.02", "--n", "20000",
                   "--seed", "3", "--estimate", "--out", str(out)) == 0
    est = json.loads(out.read_text())
    a, p = 0.02, 1.5
    assert abs(est["mean_x"] - a * (p + 1) / (p + 2)) <= 5.0 * est["stderr_x"]
    assert abs(est["mean_fx"] - a**p * (p + 1) / (2 * p + 1)) <= 5.0 * est["stderr_fx"]


def test_sample_on_a_table_spanning_float64_ends_cleanly(tmp_path, capsys):
    # at a=1e-300 the top knots overflow in profile units and are dropped
    # without a warning; at a=1e300 the knots below the smallest normal
    # double in units of a are dropped, as their panels' nodes would round
    # to 0, and the draws still sample the sqrt law: mean x/a = theta = 0.6
    table = _sqrt_table(tmp_path / "t.csv", 1e-305, 1e305, 200)
    out = tmp_path / "estimate.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        small = run_cli("sample", "--csv", table, "--a", "1e-300", "--n", "100",
                        "--out", os.devnull)
        big = run_cli("sample", "--csv", table, "--a", "1e300", "--n", "20000",
                      "--estimate", "--out", str(out))
    assert (small, big) == (0, 0)
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == "sample: wrote 100 draws (seed=0)"
    assert err[1].startswith("sample: n=20000 mean_x=")
    est = json.loads(out.read_text())
    assert abs(est["mean_x"] / 1e300 - 0.6) <= 5.0 * est["stderr_x"] / 1e300


@pytest.mark.parametrize("argv", [
    ("detect", "--family", "power", "--p", "2", "--a-count", "1000000000000000"),
    ("sample", "--family", "power", "--p", "2", "--a", "1", "--n", "1000000000000000"),
    ("detect", "--family", "power", "--p", "2", "--a-count", str(2**60 - 1)),
    ("detect", "--family", "power", "--p", "2", "--a-count", str(2**63 - 1)),
    ("detect", "--family", "power", "--p", "2", "--a-count", str(10**30)),
    ("sample", "--family", "power", "--p", "2", "--a", "1", "--n", str(2**60)),
    ("sample", "--family", "power", "--p", "2", "--a", "1", "--n", str(10**30)),
], ids=["detect-grid", "sample-draws", "detect-grid-2^60-1", "detect-grid-2^63-1",
        "detect-grid-10^30", "sample-draws-2^60", "sample-draws-10^30"])
def test_out_of_memory_ends_in_one_line(argv):
    # 10^15 float64 values are 7.1 PiB: no machine can allocate them, so the
    # request fails at once without touching memory; numpy cannot even name
    # 2^60 or more of them as a MemoryError, so those are refused up front
    proc = subprocess.run([sys.executable, "-m", "gsp_lab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_a_grid_no_array_can_hold_fails_as_numpy_does(capsys):
    # 10^15 scales are 7.1 PiB: the grid's allocation fails at once, with
    # the message np.geomspace's gives
    with pytest.raises(MemoryError) as info:
        np.geomspace(0.1, 10.0, 10**15)
    assert main(["detect", "--family", "power", "--p", "2", "--a-count", str(10**15)]) == 1
    assert capsys.readouterr().err == f"error: out of memory ({info.value})\n"


@pytest.mark.parametrize("argv", [
    ("sweep", "--family", "power", "--p", "0.5", "--a-min", "1e300",
     "--a-max", "1.7976931348623157e308"),
    ("detect", "--family", "power", "--p", "0.5", "--a-min", "1e-300",
     "--a-max", "1.7976931348623157e308"),
], ids=["sweep", "detect"])
def test_grid_up_to_the_float64_top_ends_in_one_line(argv, capsys):
    # np.geomspace overflows inside on its way to the largest double, but the
    # grid it returns is finite; only the moments' unit check may speak
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli(*argv, "--out", os.devnull)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: unit ") and err.count("\n") == 1
    assert caught == []


def test_table_with_tied_log_abscissae_is_inadmissible(tmp_path, capsys):
    # the loader sees three distinct x, but their logs are equal, so Tabulated
    # refuses the table; the refusal is the spec's, not the run's
    path = tmp_path / "tie.csv"
    path.write_text("x,f\n1e300,1\n1.0000000000000002e300,2\n1.0000000000000004e300,3\n")
    assert run_cli("detect", "--csv", str(path)) == 3
    assert capsys.readouterr().err == (
        "inadmissible spec: tabulated: x must be strictly increasing\n"
    )


def test_main_builds_no_parser(monkeypatch, capsys):
    # a well-formed command line is read from the flag tables; the parser is
    # built only for a line it must word an error or help for
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(2):
        assert run_cli("detect", "--family", "power", "--p", "2", "--out", os.devnull) == 0
    assert built == []
    with pytest.raises(SystemExit) as info:
        run_cli("detect", "--bogus")
    assert info.value.code == 2
    assert built.count("gsp-lab") == 1


def test_unknown_family_rejected_by_parser():
    with pytest.raises(SystemExit) as info:
        run_cli("verify", "--family", "cubic")
    assert info.value.code == 2


_SHARED_FLAGS = ["-h", "--family", "--p", "--amp", "--eps", "--csv", "--a-min",
                 "--a-max", "--a-count", "--tol", "--seed", "--out", "--format",
                 "--config"]


@pytest.mark.parametrize("command", ["verify", "detect", "sweep", "sample"])
def test_help_lists_options_in_declaration_order(command, capsys):
    # the shared flags come from one parent parser; each subcommand still
    # lists them first, in the order they are declared, then its own
    with pytest.raises(SystemExit) as info:
        run_cli(command, "--help")
    assert info.value.code == 0
    help_text = capsys.readouterr().out
    listed = [line.split()[0].rstrip(",") for line in help_text.splitlines()
              if line.startswith("  -")]
    extra = ["--a", "--n", "--estimate"] if command == "sample" else []
    assert listed == _SHARED_FLAGS + extra


@pytest.mark.parametrize("flags, name", [
    (("--family", "power", "--p", "nan"), "p"),
    (("--family", "power", "--p", "inf"), "p"),
    (("--family", "power", "--p", "2", "--amp", "nan"), "amp"),
    (("--family", "perturbed", "--p", "1", "--eps", "nan"), "eps"),
], ids=["p-nan", "p-inf", "amp-nan", "eps-nan"])
def test_non_finite_parameter_is_named_in_one_line(flags, name, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run_cli("detect", *flags, "--out", os.devnull)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"inadmissible spec: positivity ({name}=")
    assert "not finite" in err and err.count("\n") == 1
    assert caught == []


@pytest.mark.parametrize("flags, code, first_line", [
    (("--family", "perturbed", "--p", "1", "--eps", "-1e-2"), 1, "detect: NotPowerLaw ("),
    (("--family", "power", "--p", "2", "--amp", "-1e3"), 3,
     "inadmissible spec: positivity (amp must be positive)\n"),
    (("--family", "power", "--p", "-1e-3"), 3,
     "inadmissible spec: f(0+)=0 (exponent p=-0.001 does not decay at 0)\n"),
    (("--family", "power", "--p", "-inf"), 3,
     "inadmissible spec: positivity (p=-inf is not finite)\n"),
], ids=["eps", "amp", "p", "p-inf"])
def test_negative_value_after_a_float_flag_is_read(flags, code, first_line, capsys):
    # argparse alone takes "-1e-2" or "-inf" for an option; the value must
    # reach the checks and end as the "--flag=value" spelling does
    rc = run_cli("detect", *flags, "--out", os.devnull)
    err = capsys.readouterr().err
    assert rc == code
    assert err.startswith(first_line) and err.count("\n") == 1
    joined = (*flags[:-2], f"{flags[-2]}={flags[-1]}")
    assert run_cli("detect", *joined, "--out", os.devnull) == rc
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("argv, message", [
    (("detect", "--p", "-x"), "argument --p: expected one argument"),
    (("detect", "--seed", "-1e3"), "argument --seed: expected one argument"),
    # --a is a flag of sample only; elsewhere it is an ambiguous prefix
    (("detect", "--a", "-1e-3"), "ambiguous option: --a could match"),
])
def test_other_dashed_words_keep_the_parser_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli(*argv)
    assert info.value.code == 2
    assert f"gsp-lab detect: error: {message}" in capsys.readouterr().err


_COMMAND_NAMES = ["verify", "detect", "sweep", "sample"]
_FLAG_NAMES = sorted({"--" + key.replace("_", "-") for key in cli._KEY_TYPES} | {"--config"})
# every flag, and prefixes and underscore spellings argparse reads or refuses
_FLAGS = st.sampled_from(_FLAG_NAMES + ["--fam", "--a-m", "--es", "--a_min", "--a_count"])
_VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-inf", "nan", "1e999", "9.5", "-1", "-1e3", "-x", "",
                     "power", "perturbed", "cubic", "csv", "json", "xml", "table.csv"]),
)
_WORDS = st.one_of(
    st.sampled_from(_COMMAND_NAMES), _FLAGS, _VALUES,
    st.sampled_from(["-h", "--help", "--", "bogus"]),
    st.builds("{}={}".format, _FLAGS, _VALUES),
)
# "{:_}" spells -1000 "-1_000", which int() reads and argparse takes for a flag
_TYPED = {float: st.floats().map(repr),
          int: st.integers(-2**70, 2**70).flatmap(
              lambda i: st.sampled_from([str(i), f"{i:_}"])),
          str: st.sampled_from(["power", "perturbed", "csv", "json", "table.csv"])}


def _item(flag):
    """The flag, then a value of its key's type or any value; --estimate alone."""
    cast = cli._KEY_TYPES.get(flag[2:].replace("-", "_"), str)
    if cast is bool:
        return st.just((flag,))
    return st.tuples(st.just(flag), st.one_of(_TYPED[cast], _VALUES))


def _lines(items, most):
    """A command, then up to ``most`` items, cut to six words."""
    return st.builds(lambda command, drawn: [command, *(w for i in drawn for w in i)][:6],
                     st.sampled_from(_COMMAND_NAMES), st.lists(items, max_size=most))


_ITEMS = _FLAGS.flatmap(_item)
_ARGV = st.one_of(_lines(_ITEMS, 2), _lines(st.one_of(_ITEMS, st.tuples(_WORDS)), 3),
                  st.lists(_WORDS, max_size=6))
_PARSER = cli._build_parser()


def _parsed(argv):
    """vars() of argparse's namespace for argv, or the code it exits with."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(_PARSER.parse_args(cli._join_negative_values(argv)))
    except SystemExit as exc:
        return exc.code


@settings(max_examples=1000)
@given(_ARGV)
def test_flag_tables_read_what_argparse_reads(argv):
    # repr, so that nan equals nan and 1 is not 1.0
    read, parsed = cli._read_argv(argv), _parsed(argv)
    if read is not None:
        assert isinstance(parsed, dict)
        assert {k: repr(v) for k, v in read.items()} == {k: repr(v) for k, v in parsed.items()}
    if not isinstance(parsed, dict):
        assert read is None


def _benchmark_modules():
    """perfbench's inputs and oracles, and samebytes' run matrix."""
    root = Path(__file__).resolve().parents[1]
    sys.path[:0] = [str(root / "perfbench"), str(root / "samebytes")]
    try:
        import inputs
        import matrix
        import oracles
    finally:
        del sys.path[:2]
    return inputs, matrix, oracles


def test_same_bytes_expect_entries_hold_on_their_simd_path(tmp_path, monkeypatch):
    # an entry after "path=" holds only where NPY_DISABLE_CPU_FEATURES names
    # the same features, in any order ("path=" alone: numpy's default path);
    # samebytes/run.py is loaded by path, since perfbench has a run.py too
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "samebytes"))
    try:
        spec = importlib.util.spec_from_file_location("samebytes_run",
                                                      root / "samebytes" / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        del sys.path[0]
    monkeypatch.setattr(run, "_commit", lambda ref: ref)
    expect = tmp_path / "expect.txt"
    expect.write_text("# a comment\nbase abc\n"
                      "detect --family power --p 2\n"
                      "changed sweep --csv {table.csv}\n"
                      "path= sample --family power --p 2 --a 1 --n 1\n"
                      "  path=AVX512_SPR,X86_V4,AVX512_ICL changed sample --csv {table.csv}\n")
    both = {"detect --family power --p 2": False, "sweep --csv {table.csv}": True}
    assert run._expected(expect, "abc", "") == {
        **both, "sample --family power --p 2 --a 1 --n 1": False}
    assert run._expected(expect, "abc", "X86_V4 AVX512_ICL AVX512_SPR") == {
        **both, "sample --csv {table.csv}": True}
    assert run._expected(expect, "abc", "X86_V4") == both
    assert run._expected(expect, "another", "") == {}


def test_flag_tables_read_every_benchmark_and_same_bytes_run(tmp_path):
    inputs, matrix, _ = _benchmark_modules()
    argvs = [list(inv.argv) for workload in inputs.WORKLOADS
             for inv in inputs.make_inputs(workload, 1, str(tmp_path)).batch]
    assert len(argvs) == 13
    assert all(cli._read_argv(argv) is not None for argv in argvs)
    runs = dict.fromkeys(text for _, text in matrix.RUNS)  # as samebytes/run.py counts
    refused = [text for text in runs
               if cli._read_argv([re.sub(r"\{[^}]+\}", "file", word)
                                  for word in shlex.split(text)]) is None]
    assert len(runs) == 886
    # the runs whose help or usage error argparse writes, and a seed of -1,
    # which argparse reads and the config check refuses
    assert refused == ["sample --family power --p 2 --a 1 --seed -1",
                       "detect --family cubic", "", "detect --bogus",
                       "detect --a-count 9.5", "--help"]


@pytest.mark.parametrize("workload", ["analytic", "tabulated"])
def test_benchmark_oracles_accept_the_output(workload, tmp_path):
    # each grid command of the benchmark, run in process, passes the
    # benchmark's own judge of its exit code and stdout
    inputs, _, oracles = _benchmark_modules()
    for inv in inputs.make_inputs(workload, 1, str(tmp_path)).batch:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(inv.argv))
        assert oracles.check(inv, rc, False, out.getvalue()).failed == [], inv.label


# numpy functions whose Python-level steps cost more than the arithmetic
# they do for gsp_lab (a first call in a fresh process among them)
_NUMPY_HELPERS = ("unique", "column_stack", "hstack", "all", "any")


@pytest.mark.parametrize("workload", ["analytic", "tabulated"])
def test_benchmark_commands_enter_no_numpy_helper(workload, tmp_path):
    # the benchmark's grid commands, run in process, call numpy's kernels
    # and array methods, never the Python-level helpers above; np.geomspace,
    # which makes the grids, calls np.any on its own ends
    inputs, _, _ = _benchmark_modules()
    helpers = {inspect.unwrap(getattr(np, name)).__code__: name for name in _NUMPY_HELPERS}
    geomspace = inspect.unwrap(np.geomspace).__code__
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in helpers and frame.f_back.f_code is not geomspace:
            entered.append(helpers[frame.f_code])

    for inv in inputs.make_inputs(workload, 1, str(tmp_path)).batch:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            sys.setprofile(profile)
            try:
                main(list(inv.argv))
            finally:
                sys.setprofile(None)
        assert entered == [], inv.label


def test_console_script_entry_point(tmp_path):
    # one end-to-end pass through the installed executable
    out = tmp_path / "d.json"
    proc = subprocess.run(
        [sys.executable, "-m", "gsp_lab.cli", "detect", "--family", "power",
         "--p", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["verdict"] == "PowerLaw"
    assert "PowerLaw" in proc.stderr
