import numpy as np
import pytest
from hypothesis import settings

# property tests draw the same examples on every run, and keep no database
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

from gsp_lab import Custom, PerturbedPowerLaw, PowerLaw, Tabulated

# the grid of the CLI's default --a-min, --a-max and --a-count
DEFAULT_SCALES = np.geomspace(0.1, 10.0, 17)


def make_tabulated_power(amp=4.0, p=1.5, lo=1e-4, hi=1e2, n=241):
    """Exact power-law samples on a log grid; straight line in log-log."""
    x = np.geomspace(lo, hi, n)
    return Tabulated(x, amp * x**p)


def make_perturbed_table(seed=1, n=200, lo=0.01, hi=10.0):
    """x (1 + 0.1 sin(log x)) on n seeded knots: log-spaced, interior knots
    jittered by up to a quarter of the spacing.  The log-log PCHIP through
    them has a kink in its slope, the elasticity, at every interior knot."""
    t = np.linspace(np.log(lo), np.log(hi), n)
    rng = np.random.default_rng([seed, 1])
    t[1:-1] += rng.uniform(-0.25, 0.25, n - 2) * (t[1] - t[0])
    x = np.exp(t)
    x[0], x[-1] = lo, hi
    return Tabulated(x, x * (1.0 + 0.1 * np.sin(np.log(x))))


def make_cubic_custom():
    # f = x^2 + x^3 with hand-written derivative; primitives are elementary:
    # F = a^3/3 + a^4/4, H = a^4/4 + a^5/5, G = a^5/5 + 2 a^6/6 + a^7/7.
    return Custom(lambda x: x**2 + x**3, lambda x: 2.0 * x + 3.0 * x**2)


def gallery():
    """The mixed bag every identity is expected to survive."""
    specs = [
        ("power_p0.3", PowerLaw(p=0.3)),
        ("power_p0.5", PowerLaw(p=0.5)),
        ("power_p1", PowerLaw(p=1.0)),
        ("power_p2", PowerLaw(p=2.0)),
        ("power_p5", PowerLaw(p=5.0)),
        ("power_p2_amp7", PowerLaw(p=2.0, amp=7.0)),
        ("perturbed_p1", PerturbedPowerLaw(p=1.0, eps=0.1)),
        ("perturbed_p2", PerturbedPowerLaw(p=2.0, eps=0.05)),
        ("cubic", make_cubic_custom()),
        ("tab_x15", make_tabulated_power()),
    ]
    return specs


@pytest.fixture(scope="session")
def tab_x15():
    return make_tabulated_power()


@pytest.fixture(scope="session")
def perturbed_table():
    return make_perturbed_table()


@pytest.fixture(scope="session")
def x15_csv(tmp_path_factory):
    """The tabulated fixture in CSV form, for loader and CLI tests."""
    path = tmp_path_factory.mktemp("fixtures") / "x15.csv"
    x = np.geomspace(1e-4, 1e2, 241)
    f = 4.0 * x**1.5
    lines = ["x,f"] + [f"{xv:.17g},{fv:.17g}" for xv, fv in zip(x, f)]
    path.write_text("\n".join(lines) + "\n")
    return path
