import inspect
import os
import subprocess
import sys
from pathlib import Path

import gsp_lab
from gsp_lab import detector, errors, functions, identities, moments, quadrature, sampler
from conftest import make_perturbed_table

_SRC = str(Path(gsp_lab.__file__).resolve().parents[1])


def _fresh_python(code, *args):
    """Stdout of ``code`` run by a fresh interpreter that imports this checkout."""
    env = dict(os.environ, PYTHONPATH=_SRC)
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


# Every module a command needs is imported with gsp_lab.cli, so no command
# pays for an import after start-up (a forked worker inherits them all).
_WARM_SET = """
import contextlib, io, sys
import gsp_lab.cli
before = set(sys.modules)
families = (["--family", "power", "--p", "2"],
            ["--family", "perturbed", "--p", "1", "--eps", "0.1"],
            ["--csv", sys.argv[1]])
runs = [[cmd, *fam] for cmd in ("verify", "detect", "sweep") for fam in families]
runs += [["sample", *fam, "--a", "1", "--n", "200", "--seed", "7"] for fam in families]
for argv in runs:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        gsp_lab.cli.main(argv)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_commands_import_nothing_after_start_up(tmp_path):
    spec = make_perturbed_table()
    table = tmp_path / "table.csv"
    table.write_text("x,f\n" + "".join(
        f"{x!r},{f!r}\n" for x, f in zip(spec.x.tolist(), spec.f.tolist())))
    assert _fresh_python(_WARM_SET, str(table)) == ""
