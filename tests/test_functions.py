import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

from gsp_lab import (
    CsvFormatError,
    Custom,
    DomainExceeded,
    Inadmissible,
    NonPositiveValue,
    PerturbedPowerLaw,
    PowerLaw,
    Tabulated,
    load_tabulated_csv,
    validate,
)
from gsp_lab.functions import _pchip_coefficients, _read_array, _read_rows
from conftest import gallery, make_perturbed_table, make_tabulated_power


def test_power_law_closed_forms():
    spec = PowerLaw(p=2.0, amp=3.0)
    assert spec.eval(2.0) == 12.0
    assert spec.elasticity(2.0) == 2.0


@pytest.mark.parametrize("p", [0.3, 1.0, 2.0, 5.0])
def test_power_law_elasticity_is_constant(p):
    spec = PowerLaw(p=p)
    x = np.geomspace(1e-3, 1e3, 41)
    assert np.allclose(spec.elasticity(x), p, rtol=0, atol=0)


def test_perturbed_matches_hand_formulas():
    p, eps, amp = 1.0, 0.1, 2.0
    spec = PerturbedPowerLaw(p=p, eps=eps, amp=amp)
    x = np.array([0.37, 1.0, 4.5])
    wob = 1.0 + eps * np.sin(np.log(x))
    assert np.allclose(spec.eval(x), amp * x**p * wob, rtol=1e-15)
    want_e = p + eps * np.cos(np.log(x)) / wob
    assert np.allclose(spec.elasticity(x), want_e, rtol=1e-15)


def test_scalar_in_scalar_out():
    # on every family, a 0-d input gives a float (PowerLaw's constant
    # elasticity, made by np.full_like, included), equal to the array
    # path's value
    for name, spec in gallery():
        for method in (spec.eval, spec.elasticity):
            for x in (2.0, np.float64(2.0), np.array(2.0)):
                assert isinstance(method(x), float), (name, method.__name__, x)
                assert method(x) == method(np.array([2.0]))[0], (name, method.__name__)
            out = method(np.array([1.0, 2.0]))
            assert isinstance(out, np.ndarray) and out.shape == (2,)
            empty = method(np.empty(0))
            assert isinstance(empty, np.ndarray) and empty.shape == (0,)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_non_positive_abscissa_rejected(bad):
    with pytest.raises(DomainExceeded, match="abscissae must be positive and finite"):
        PowerLaw(p=1.0).eval(bad)
    with pytest.raises(DomainExceeded, match="scale a must be positive and finite"):
        PowerLaw(p=1.0).check_scale(bad)


def test_negative_custom_value_rejected():
    spec = Custom(lambda x: x - 0.5, lambda x: 1.0)
    with pytest.raises(NonPositiveValue):
        spec.eval(0.25)


def test_custom_elasticity_quotient():
    spec = Custom(lambda x: x**2 + x**3, lambda x: 2 * x + 3 * x**2)
    x = 0.8
    want = x * (2 * x + 3 * x**2) / (x**2 + x**3)
    assert abs(spec.elasticity(x) - want) < 1e-15
    # a positive f too small to divide by is refused, not turned into inf
    tiny = Custom(lambda x: 1e-305 * x, lambda x: 1e-305 * np.ones_like(x))
    assert tiny.eval(0.5) > 0.0
    with pytest.raises(NonPositiveValue, match=r"^custom: \|f\| too small"):
        tiny.elasticity(0.5)


# ------------------------------------------------------------- tabulated

def test_tabulated_reproduces_power_law_between_knots():
    spec = make_tabulated_power(amp=4.0, p=1.5)
    x = np.geomspace(2e-4, 9e1, 57)  # deliberately off-knot
    assert np.allclose(spec.eval(x), 4.0 * x**1.5, rtol=1e-12)
    assert np.allclose(spec.elasticity(x), 1.5, atol=1e-12)


def test_tabulated_hull_is_hard_boundary():
    # the hull's top is a hard boundary; below its first sample a table
    # continues the floor's power law down to 0
    spec = make_tabulated_power(lo=0.01, hi=10.0, n=50)
    with pytest.raises(DomainExceeded, match=r"abscissa outside \(0, 10\]"):
        spec.eval(10.5)
    with pytest.raises(DomainExceeded, match="must be positive"):
        spec.eval(0.0)
    head = np.array([1e-200, 1e-5, 0.005])
    assert np.allclose(spec.eval(head), 4.0 * head**1.5, rtol=1e-12)
    assert np.allclose(spec.elasticity(head), 1.5, atol=1e-12)
    # endpoints themselves are fair game
    spec.eval(0.01), spec.eval(10.0)


def test_tabulated_structural_checks():
    with pytest.raises(Inadmissible, match="x must be strictly increasing"):
        Tabulated([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])  # not increasing
    with pytest.raises(Inadmissible, match="samples must be positive"):
        Tabulated([1.0, 2.0], [1.0, -2.0])
    with pytest.raises(Inadmissible, match="need at least 2 samples"):
        Tabulated([1.0], [1.0])
    with pytest.raises(Inadmissible, match="x and f must be equal-length 1-d"):
        Tabulated([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(Inadmissible, match="samples must be finite"):
        Tabulated([1.0, 2.0], [1.0, math.inf])
    with pytest.raises(Inadmissible, match="x must be strictly increasing"):
        # distinct x, equal log x
        Tabulated([1.0, 1e300, np.nextafter(1e300, np.inf)], [1.0, 2.0, 3.0])


def _parity_table(kind, n):
    rng = np.random.default_rng([n, len(kind)])
    if kind == "nonuniform":
        x = np.sort(np.exp(rng.uniform(np.log(0.01), np.log(10.0), n)))
        return x, x**0.7 * (1.0 + 0.3 * np.sin(3.0 * np.log(x)))
    x = np.geomspace(0.01, 10.0, n)
    if kind == "exact":
        return x, x**1.5
    if kind == "perturbed":
        return x, x * (1.0 + 0.1 * np.sin(np.log(x)))
    if kind == "noisy":  # the log-log slopes change sign
        return x, x**1.5 * np.exp(1e-2 * rng.standard_normal(n))
    if kind == "dip":  # a dip two knots in from each end: the end slope rule
        f = x**1.5     # caps the first slope at 3 m and zeroes the last one
        f[[2 % n, -3 % n]] /= 1e4
        return x, f
    f = x**1.5  # "flat": equal consecutive values, a zero secant slope
    k = (n - 1) // 2
    f[k:k + max(2, n // 5)] = f[k]
    return x, f


@pytest.mark.parametrize("n", [2, 3, 7, 200, 2001])
@pytest.mark.parametrize(
    "kind", ["exact", "perturbed", "noisy", "dip", "flat", "nonuniform"])
def test_tabulated_matches_scipy_pchip_bit_for_bit(kind, n):
    x, f = _parity_table(kind, n)
    spec = Tabulated(x, f)
    rng = np.random.default_rng(5)
    q = np.concatenate((
        np.exp(rng.uniform(np.log(x[0]), np.log(x[-1]), 2000)),
        x,
        x[[0, -1, -1]] * (1.0 + np.array([1e-13, -1e-13, 1e-13])),
    ))
    ref = PchipInterpolator(np.log(x), np.log(f))
    log_f, slope = ref(np.log(q)), ref.derivative()(np.log(q))
    assert np.array_equal(spec.eval(q), np.exp(log_f))
    assert np.array_equal(spec.elasticity(q), slope)
    # below x[0] the table is the line through the first sample with the
    # cubic's first knot slope, not the first cubic's extension
    below = x[0] * (1.0 - 1e-13)
    d0 = ref.derivative()(np.log(x[0]))
    dt = np.log(below) - np.log(x[0])
    assert spec.eval(below) == np.exp(np.log(f[0]) + d0 * dt)
    assert spec.elasticity(below) == d0


def _end_slope(h0, h1, m0, m1):
    """The one-sided three-point slope at a table end, kept shape-preserving,
    one end at a time: the reference for the ends of the knot slopes."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def test_end_slopes_match_scipy_and_the_one_end_rule_on_random_tables():
    # random walks in log-log whose secants change sign anywhere, the two
    # ends included; every branch of the end rule is taken at both ends
    rng = np.random.default_rng(22)
    branches = set()
    for _ in range(300):
        n = int(rng.integers(3, 9))
        t = np.cumsum(rng.uniform(0.05, 1.0, n)) - 3.0
        y = rng.standard_normal(n)
        c = _pchip_coefficients(t, y)
        assert np.array_equal(c, PchipInterpolator(t, y).c[::-1])
        h, m = np.diff(t), np.diff(y) / np.diff(t)
        # the last knot's slope is the first of the mirrored table, negated
        last = -_pchip_coefficients(-t[::-1], y[::-1])[1, 0]
        ends = ((c[1, 0], (h[0], h[1], m[0], m[1])),
                (last, (h[-1], h[-2], m[-1], m[-2])))
        for side, (end, (h0, h1, m0, m1)) in enumerate(ends):
            want = _end_slope(h0, h1, m0, m1)
            assert end == want
            branches.add((side, 0 if want == 0.0 else 3 if want == 3.0 * m0 else 1))
    assert branches == {(side, b) for side in (0, 1) for b in (0, 1, 3)}


# ------------------------------------------------------------- validation

def test_validate_accepts_gallery_members():
    for spec in (PowerLaw(p=2.0), PerturbedPowerLaw(p=1.0, eps=0.1),
                 make_tabulated_power()):
        assert validate(spec) is None


def test_validate_flags_non_decaying_exponent():
    with pytest.raises(Inadmissible, match=r"^f\(0\+\)=0 \("):
        validate(PowerLaw(p=-0.5))


def test_validate_flags_oversized_wobble():
    with pytest.raises(Inadmissible, match=r"^positivity \("):
        validate(PerturbedPowerLaw(p=1.0, eps=1.2))


def test_validate_flags_negative_amplitude():
    with pytest.raises(Inadmissible, match=r"^positivity \("):
        validate(PowerLaw(p=1.0, amp=-3.0))


@pytest.mark.parametrize("spec, name", [
    (PowerLaw(p=math.nan), "p"),
    (PowerLaw(p=math.inf), "p"),
    (PowerLaw(p=1.0, amp=math.nan), "amp"),
    (PowerLaw(p=1.0, amp=math.inf), "amp"),
    (PerturbedPowerLaw(p=1.0, eps=math.nan), "eps"),
    (PerturbedPowerLaw(p=math.nan, eps=0.1), "p"),
], ids=["p-nan", "p-inf", "amp-nan", "amp-inf", "eps-nan", "perturbed-p-nan"])
def test_validate_names_a_non_finite_parameter(spec, name):
    # NaN passes every sign test, so only its own check keeps it out; the
    # message must name the parameter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Inadmissible) as info:
            validate(spec)
    failed, detail = str(info.value).split(" (", 1)
    assert failed == "positivity"
    assert detail.startswith(f"{name}=") and "not finite" in detail


def test_validate_flags_nonzero_limit_at_origin():
    spec = Custom(lambda x: 1.0 + x, lambda x: 1.0)
    with pytest.raises(Inadmissible, match=r"^f\(0\+\)=0 \("):
        validate(spec)
    # a black box whose wobble outgrows x^p on the dyadic probes (the
    # PerturbedPowerLaw with these parameters is admissible), and tables
    # whose floor slope, the exponent of their head's power law, is negative
    # or zero
    wobble = Custom(lambda x: x**0.05 * (1.0 + 0.5 * np.sin(np.log(x))),
                    lambda x: x**-0.95 * (0.05 * (1.0 + 0.5 * np.sin(np.log(x)))
                                          + 0.5 * np.cos(np.log(x))))
    with pytest.raises(Inadmissible, match=r"^f\(0\+\)=0 \(no monotone decay on the "
                       r"smallest dyadic probes\)$"):
        validate(wobble)
    for f, slope in (([3, 2, 2.5, 4], r"-1\.30126"), ([2, 2, 3, 4], "0")):
        with pytest.raises(Inadmissible, match=rf"^f\(0\+\)=0 \(table floor slope "
                           rf"{slope} does not decay toward x=0\)$"):
            validate(Tabulated([1, 2, 3, 4], f))


def test_validate_decides_analytic_families_and_tables_without_evaluating(monkeypatch):
    # finite p > 0, amp > 0 and |eps| < 1 give 0 < f <= amp (1 + |eps|) x^p,
    # and a table with a positive floor slope stays within its samples, so
    # validate evaluates none of them, wherever float64 under- or overflows
    def refuse(self, x):
        raise AssertionError(f"validate evaluated a {self.family} spec")

    for cls in (PowerLaw, PerturbedPowerLaw, Tabulated):
        monkeypatch.setattr(cls, "_value", refuse)

    @settings(max_examples=200)
    @given(st.floats(1e-300, 1e3), st.floats(1e-300, 1e300),
           st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
    def check(p, amp, eps):
        assert validate(PowerLaw(p=p, amp=amp)) is None
        assert validate(PerturbedPowerLaw(p=p, eps=eps, amp=amp)) is None

    check()
    assert validate(make_perturbed_table()) is None


# ------------------------------------------------------------- CSV loader

def test_csv_round_trip(x15_csv, tmp_path):
    spec = load_tabulated_csv(x15_csv)
    assert (spec.x[0], spec.top) == (1e-4, 1e2)
    assert abs(spec.eval(1.0) - 4.0) < 1e-12
    # blank rows, and rows of blank cells, between the data are skipped
    gaps = tmp_path / "gaps.csv"
    gaps.write_text("x,f\n1,1\n\n2,4\n , \n4,16\n\n")
    spec = load_tabulated_csv(gaps)
    assert spec.x.tolist() == [1.0, 2.0, 4.0] and spec.f.tolist() == [1.0, 4.0, 16.0]


def test_csv_reports_offending_line(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,f\n1.0,2.0\n1.5,oops\n")
    with pytest.raises(CsvFormatError) as info:
        load_tabulated_csv(bad)
    assert info.value.line == 3

    bad.write_text("x,f\n1.0,2.0\n0.5,1.0\n")
    with pytest.raises(CsvFormatError) as info:
        load_tabulated_csv(bad)
    assert info.value.line == 3

    bad.write_text("x,f\n1.0,2.0\n\n0.5,1.0\n")  # a skipped blank line still counts
    with pytest.raises(CsvFormatError) as info:
        load_tabulated_csv(bad)
    assert info.value.line == 4

    bad.write_text("x,f\n1.0,2.0,3.0\n")
    with pytest.raises(CsvFormatError) as info:
        load_tabulated_csv(bad)
    assert info.value.line == 2

    bad.write_text("1.0,2.0\n2.0,3.0\n")
    with pytest.raises(CsvFormatError) as info:
        load_tabulated_csv(bad)
    assert info.value.line == 1

    for text, message in (("x,f\n1,nan\n2,3\n", "line 2: non-finite sample"),
                          ("x,f\n1,-2\n2,3\n", "line 2: samples must be positive"),
                          ("x,f\n1,2\n", "line 1: need at least 2 data rows")):
        bad.write_text(text)
        with pytest.raises(CsvFormatError, match=f"^{message}$"):
            load_tabulated_csv(bad)


def test_csv_drops_a_byte_order_mark(tmp_path):
    # a UTF-8 BOM before the header changes nothing, and one before data no
    # longer hides the missing header (it used to drop the first sample)
    rows = "0.01,0.001\n0.1,0.0316\n1,1\n10,31.6\n"
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text("x,f\n" + rows)
    want = load_tabulated_csv(plain)
    for text in ("x,f\n" + rows, '"x",f\n' + rows):  # the array pass and the row walk
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        spec = load_tabulated_csv(bom)
        assert (spec.x.tobytes(), spec.f.tobytes()) == (want.x.tobytes(), want.f.tobytes())
    for text in (rows, '"0.01",0.001\n1,1\n'):
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        with pytest.raises(CsvFormatError, match="^line 1: expected a header row, found data$"):
            load_tabulated_csv(bom)


def test_csv_names_the_line_a_row_starts_on(tmp_path):
    # a quoted cell that spans lines puts every later row past its row count
    bad = tmp_path / "bad.csv"
    for data, message in (
        (b'x,f\n"0.01",0.001\n0.1,"0.0316\n"\n1,-1\n10,31.6\n',
         "line 5: samples must be positive"),
        (b'x,f\n"0.01\n\n",0.001\r\xff,1\n', "line 5: bytes that are not UTF-8 text"),
        (b'x,f\n"0.01\n",0.001\n"1\n",2,3\n', "line 4: expected 2 columns, got 3"),
    ):
        bad.write_bytes(data)
        with pytest.raises(CsvFormatError, match=f"^{message}$"):
            load_tabulated_csv(bad)


@pytest.mark.parametrize("table, line", [
    ('x,f\n0.5,1\n"0.{zeros}1",2\n3,4\n', 3),
    ("x,f\n0.5,1\n0.{zeros}1,2\n3,4\n", 3),
    ("x,f\n0.5,1\n1.{zeros}0,2\n3,4\n", 3),
    ("x{zeros},f\n0.5,1\n1,2\n3,4\n", 1),
], ids=["quoted", "unquoted", "unquoted-number", "unquoted-header"])
def test_csv_names_the_line_of_an_oversized_cell(tmp_path, table, line):
    # a cell longer than csv.reader's field size limit is a one-line format
    # error naming its row's line, not csv's own error, quoted or not: the
    # array pass leaves the file to the row walk, though float() reads 1.0
    # in the third cell and the header's cells are never parsed
    bad = tmp_path / "bad.csv"
    bad.write_text(table.format(zeros="0" * 139_996))
    with pytest.raises(CsvFormatError, match=rf"^line {line}: field larger than field "
                                             r"limit \(131072\)$") as info:
        load_tabulated_csv(bad)
    assert info.value.line == line


# cells that float() reads oddly or refuses, and the ways a row may end
_ODD_CELLS = ("1_000", " 2 ", "\t3", "inf", "nan", "infinity", "-Infinity", "0x10", "-1",
              "0", "", " ", "x", "1e999", "5e-324", "\udcff")
_ENDS = ("\n", "\n", "\n", "\r\n", "\r")


@st.composite
def _csv_files(draw):
    """Bytes of a CSV table: header or none, a BOM, blank rows, quoted and
    padded cells, each line end, odd cells, 1-3 columns, x not always
    increasing, 0-5 data rows and bytes that are not UTF-8.  One file in two
    is plain, as the array pass reads it, but for its cells."""
    plain = draw(st.booleans())
    odd = st.integers(0, 39 if plain else 19)
    lines = ["x,f" if plain else draw(st.sampled_from(["x,f", "x", "x,f,g", '"x",f', "",
                                                      "1,2", " ,"]))]
    x = 0.0
    for _ in range(draw(st.integers(0, 5))):
        if not plain and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " , ", ",", "  "])))
        x += draw(st.sampled_from([0.25, 1.0, 1e3] * 4 + [1e-300, 0.0, -0.5]))
        row = [repr(x), repr(draw(st.floats(1e-3, 1e3)))]
        if not plain:
            row = [*row, "7"][:draw(st.sampled_from([2] * 8 + [1, 3]))]
        for i, cell in enumerate(row):
            way = draw(odd)
            if way == 0:
                cell = draw(st.sampled_from(_ODD_CELLS))
            elif way == 1:
                cell = f" {cell} "
            elif way == 2 and not plain:
                cell = f'"{cell}"'
            elif way == 3 and not plain:
                cell = f'"{cell}\n"'
            row[i] = cell
        lines.append(",".join(row))
    ends = [("\n" if plain else draw(st.sampled_from(_ENDS))) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    bom = draw(st.sampled_from([b"", b"", b"", b"\xef\xbb\xbf"]))
    return bom + text.encode("utf-8", "surrogateescape")


def _outcome(read):
    """The bits of the table's x and f that ``read`` gives, or its error's
    type and text."""
    try:
        spec = read()
    except Inadmissible as exc:
        return type(exc), str(exc)
    return spec.x.tobytes(), spec.f.tobytes()


def test_array_pass_reads_what_the_row_walk_reads(tmp_path):
    # the loader, which tries the array pass first, and the row walk alone
    # accept and refuse the same files, with the same bits and messages
    path = tmp_path / "t.csv"
    taken = collections.Counter()

    @settings(max_examples=800)
    @given(_csv_files())
    def check(data):
        path.write_bytes(data)
        body = data.removeprefix(b"\xef\xbb\xbf")
        walked = _outcome(lambda: Tabulated(*_read_rows(
            body.decode("utf-8", "surrogateescape"))))
        assert _outcome(lambda: load_tabulated_csv(path)) == walked
        array = _read_array(body)
        if array is not None:
            assert _outcome(lambda: Tabulated(*array)) == walked
        taken[array is not None, isinstance(walked[0], bytes)] += 1

    check()
    # each pass read a share of the files, and the array pass left every
    # refusal to the walk
    assert taken[True, True] >= 50 and taken[False, True] >= 20
    assert taken[True, False] == 0 and taken[False, False] >= 200

