import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import gsp_lab
from gsp_lab import detector, errors, functions, identities, moments, quadrature, sampler
from conftest import make_perturbed_table

_SRC = str(Path(gsp_lab.__file__).resolve().parents[1])


def _fresh_python(code, *args, openblas_threads=None):
    """Stdout of ``code`` run by a fresh interpreter that imports this checkout.

    Its environment is this process's, which importing gsp_lab may have
    changed, with OPENBLAS_NUM_THREADS set to ``openblas_threads`` or unset.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = _SRC
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def test_public_names_are_the_modules_exports():
    modules = (errors, functions, quadrature, moments, identities, sampler, detector)
    exported = set().union(*(m.__all__ for m in modules))
    public = {
        name for name, value in vars(gsp_lab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == exported


def test_cli_import_leaves_scipy_out():
    code = "import sys, gsp_lab.cli; print('scipy' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_cli_import_leaves_numpy_random_out():
    code = "import sys, gsp_lab.cli; print('numpy.random' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_cli_import_leaves_argparse_out():
    # argparse, and the gettext and locale it loads, come only with a parser
    code = ("import sys, gsp_lab.cli; "
            "print([m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])")
    assert _fresh_python(code) == "[]"


def test_cli_import_leaves_dataclasses_and_csv_out():
    # the result carriers are plain classes, and csv comes only with the row
    # walk that reads the tables the array pass leaves
    code = ("import sys, gsp_lab.cli; "
            "print([m for m in ('dataclasses', 'csv') if m in sys.modules])")
    assert _fresh_python(code) == "[]"


# gsp_lab makes no BLAS call, so a process that loads numpy through it asks
# OpenBLAS for one thread; a preset value, or numpy loaded first, is kept.
_BLAS_THREADS = """
import json, os, sys
if sys.argv[1] == "numpy first":
    import numpy
import gsp_lab.cli
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), threads]))
"""


def test_cli_import_asks_openblas_for_one_thread():
    def run(order, preset=None):
        return json.loads(_fresh_python(_BLAS_THREADS, order, openblas_threads=preset))

    value, threads = run("gsp_lab first")
    assert value == "1"
    assert threads in (1, None)
    assert run("gsp_lab first", preset="3")[0] == "3"
    assert run("numpy first")[0] is None


# Every module verify, detect and sweep need is imported with gsp_lab.cli,
# so they pay for no import after start-up (a forked worker inherits them
# all); sample imports numpy.random, and only that, for its first state.
_WARM_SET = """
import contextlib, io, json, sys
import gsp_lab.cli
families = (["--family", "power", "--p", "2"],
            ["--family", "perturbed", "--p", "1", "--eps", "0.1"],
            ["--csv", sys.argv[1]])
grid = [[cmd, *fam] for cmd in ("verify", "detect", "sweep") for fam in families]
draws = [["sample", *fam, "--a", "1", "--n", "200", "--seed", "7"] for fam in families]
new = []
for runs in (grid, draws):
    before = set(sys.modules)
    for argv in runs:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            gsp_lab.cli.main(argv)
    new.append(sorted(set(sys.modules) - before))
print(json.dumps(new))
"""

_RANDOM_SET = """
import json, sys
import gsp_lab.cli
before = set(sys.modules)
import numpy.random
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_commands_import_nothing_after_start_up(tmp_path):
    spec = make_perturbed_table()
    table = tmp_path / "table.csv"
    table.write_text("x,f\n" + "".join(
        f"{x!r},{f!r}\n" for x, f in zip(spec.x.tolist(), spec.f.tolist())))
    grid_new, sample_new = json.loads(_fresh_python(_WARM_SET, str(table)))
    random_set = json.loads(_fresh_python(_RANDOM_SET))
    assert grid_new == []
    assert "numpy.random" in random_set
    assert sample_new == random_set


def test_cli_holds_no_verdict_policy():
    # the thresholds and checks of verify and detect, and the moment pass
    # they judge, are the detector's; the CLI formats and maps exit codes
    from gsp_lab import cli

    policy = {"_RED_TOL", "_ABC_ABS", "_ABC_REL", "_WM_TOL", "_VAR_TOL", "_CHECK_NAMES",
              "moment_bundles", "fit_lambda", "gsp_residual_sweep"}
    assert policy & set(vars(cli)) == set()


def test_readme_verdicts_table_states_every_threshold():
    # each float constant of the detector (a threshold, the margin factor,
    # the route gap) is named in a row of the README's Verdicts table that
    # states each of its values
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Verdicts\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    constants = {}
    for name, value in vars(detector).items():
        values = value if isinstance(value, tuple) else (value,)
        if name.startswith("_") and name[1:].isupper() and all(
                isinstance(v, float) for v in values):
            constants[name] = values
    assert len(constants) == 9
    for name, values in constants.items():
        named = [row for row in rows if f"`{name}`" in row]
        assert named, name
        stated = {float(word) for row in named
                  for word in re.findall(r"(?<![\w.])\d+(?:\.\d+)?(?:e-?\d+)?(?![\w.])", row)}
        assert set(values) <= stated, (name, values)
