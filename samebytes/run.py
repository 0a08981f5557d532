"""Run the same-bytes matrix on two trees and report every run that differs.

    python samebytes/run.py --base REF [--head REF] [--group NAME ...]
                            [--expect FILE]

Each run of ``matrix.RUNS`` is ``gsp_lab.cli.main`` with the run's words,
once against each tree's ``src``: the base is REF's ``src`` as ``git
archive`` writes it into a temporary directory, and the head is the working
tree's, or REF's when --head names one.  Each tree gets one worker process,
the two side by side, that imports its ``gsp_lab.cli`` and ``numpy.random``
(which a ``sample`` run's first state imports) once and runs every run in a
forked child (``perfbench/isolate.run``), with stdout and stderr in files
in the run's directory; a worker that cannot import them fails every run of
its tree.  Both trees read the same input files, get the caller's
environment (so ``NAME=VALUE python samebytes/run.py ...`` reaches both)
and run in directories at the same relative place, so paths in messages
match.

A run is identical when its exit code, stdout, stderr and ``--out`` file
are; a traceback is compared by its last line, since its frames name the
tree.  Each differing run is printed with a diff and, where only numbers
moved, the largest change relative to max(1, |base value|).  Then the
count of identical runs and the sha256 of their results, in matrix order.

--expect FILE names the runs a change alters on purpose, one entry a line
('#' starts a comment), after a first line ``base SHA`` naming the commit
they differ from; against any other base the file expects nothing, so its
entries do not carry over to the next change.  An entry is a run's text or
``changed`` and a run's text, either of them optionally after
``path=FEATURES``: such an entry holds only when NPY_DISABLE_CPU_FEATURES
names the same features (comma-separated, in any order; ``path=`` alone is
numpy's default path), so a run that moves on one SIMD path only can be
listed without failing the other.  A run named plainly passes only when its
exit code and stderr are identical and every number of its stdout and
``--out`` file moved by at most 1e-12 * max(1, |base value|), with the
text around them unchanged; a ``changed`` run passes when it differs in
any way.  Every expected run is printed with its diff.  The exit status is
1 when a run differs and is not expected, or a plain entry exceeds that
bound, or an expected run is identical, or a run timed out, or its worker
failed; else 0.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import matrix

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_TABLES = ("table.csv", "x15.csv")
_TRACEBACK = "Traceback (most recent call last):"
# an optionally signed decimal, as the CLI writes its numbers
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                     r"|[-+]?(?:inf|nan|Infinity|NaN)")
_DIFF_LINES = 40
_TIMEOUT_S = 600
_BOUND = 1e-12  # an expected run's largest change, relative to max(1, |base value|)
_CHANGED = "changed "  # an expect entry for a run that may change in any way
_PATH = "path="  # an expect entry that holds on one SIMD path only


def _checkout(ref, dest):
    """REF's src directory under dest, as git archive writes it."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest / "src"


def _write_inputs(files):
    """Every input file, from literal bytes; returns the placeholder map,
    with paths relative to a run's directory two levels below."""
    files.mkdir()
    for name, data in matrix.FILES.items():
        (files / name).write_bytes(data)
    for name in _TABLES:
        shutil.copyfile(HERE / name, files / name)
    (files / "dir").mkdir()
    rel = Path("..", "..", files.name)
    names = [*matrix.FILES, *_TABLES, "dir", "missing.csv", "missing.json"]
    return {name: str(rel / name) for name in names} | {"out": "out.txt"}


def _commit(ref):
    """REF's full commit hash, or None when the repository lacks it."""
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                           f"{ref}^{{commit}}"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _features(value):
    """The set of CPU features a NPY_DISABLE_CPU_FEATURES value names."""
    return set(re.split(r"[\s,]+", value.strip())) - {""}


def _expected(path, base, disabled):
    """The runs path expects to differ from base on the SIMD path that the
    NPY_DISABLE_CPU_FEATURES value disabled selects, each mapped to whether
    it may change in any way (a ``changed`` entry): none when its base line
    names another commit."""
    names = [line.strip() for line in path.read_text().splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    if not names:
        return {}
    word, _, sha = names[0].partition(" ")
    if word != "base" or not sha.strip():
        sys.exit(f"{path}: the first entry must be 'base SHA'")
    if _commit(sha.strip()) != _commit(base):
        print(f"{path} names base {sha.strip()}, not {base}: no run is expected to differ")
        return {}
    expected = {}
    for name in names[1:]:
        if name.startswith(_PATH):
            value, _, name = name.removeprefix(_PATH).partition(" ")
            if _features(value) != _features(disabled):
                continue
        expected[name.removeprefix(_CHANGED)] = name.startswith(_CHANGED)
    return expected


def _expand(text, places):
    return [re.sub(r"\{([^}]+)\}", lambda m: places[m.group(1)], word)
            for word in shlex.split(text)]


def _serve(jobs):
    """A worker: each (words, directory) of the JSON file jobs runs in a
    forked child of this process, which has imported its tree's gsp_lab.cli,
    and the run's exit code, or "timed out", goes to the file rc beside its
    stdout and stderr."""
    import gsp_lab.cli  # noqa: F401  (once, before the forks)
    import numpy.random  # noqa: F401  (a sample run's first state would import it)
    import isolate

    for argv, cwd in json.loads(Path(jobs).read_text()):
        os.makedirs(cwd)
        os.chdir(cwd)
        rc = isolate.run(argv, "stdout", "stderr", None, 0, _TIMEOUT_S).rc
        Path("rc").write_text(json.dumps("timed out" if rc == -signal.SIGKILL else rc))


def _result(cwd):
    """(exit code, stdout, stderr, --out bytes or None) of the run in cwd,
    with the exit code "no worker" when no worker ran it."""
    if not (cwd / "rc").exists():
        return ("no worker", b"", b"", None)
    err = (cwd / "stderr").read_bytes()
    if _TRACEBACK.encode() in err:
        err = err.rstrip().rsplit(b"\n", 1)[-1]
    out = cwd / "out.txt"
    return (json.loads((cwd / "rc").read_text()), (cwd / "stdout").read_bytes(), err,
            out.read_bytes() if out.exists() else None)


def _largest_change(base, head):
    """The largest change of a number relative to max(1, |base value|), when
    base and head differ only in their numbers, else None."""
    a, b = base.decode(errors="replace"), head.decode(errors="replace")
    if _NUMBER.split(a) != _NUMBER.split(b):
        return None
    worst = 0.0
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if x != y:
            x, y = float(x), float(y)
            if not (math.isfinite(x) and math.isfinite(y)):
                return math.inf
            worst = max(worst, abs(x - y) / max(1.0, abs(x)))
    return worst


def _within_bound(base, head):
    """Whether head's results differ from base's only in numbers of stdout
    and the --out file, each by at most _BOUND."""
    if base[0] != head[0] or base[2] != head[2]:
        return False
    for x, y in ((base[1], head[1]), (base[3], head[3])):
        if x != y:
            if x is None or y is None:
                return False
            change = _largest_change(x, y)
            if change is None or change > _BOUND:
                return False
    return True


def _report(name, base, head):
    print(f"DIFFERS  {name}")
    for part, x, y in zip(("exit code", "stdout", "stderr", "--out"), base, head):
        if x == y:
            continue
        if not isinstance(x, bytes) or not isinstance(y, bytes):
            print(f"  {part}: {x!r} -> {y!r}")
            continue
        change = _largest_change(x, y)
        print(f"  {part}: " + ("text changed" if change is None
                               else f"largest numeric change {change:.3g}"))
        diff = difflib.unified_diff(x.decode(errors="replace").splitlines(),
                                    y.decode(errors="replace").splitlines(),
                                    "base", "head", lineterm="", n=0)
        for k, line in enumerate(diff):
            if k == _DIFF_LINES:
                print("    ...")
                break
            print("    " + line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the ref to compare against")
    parser.add_argument("--head", help="the ref to compare (default: the working tree)")
    parser.add_argument("--group", action="append",
                        choices=sorted({group for group, _ in matrix.RUNS}),
                        help="run only this group (repeatable; default: every group)")
    parser.add_argument("--expect", type=Path,
                        help="file naming the runs that may differ, after a 'base SHA' line")
    args = parser.parse_args(argv)

    env = dict(os.environ)
    expected = (_expected(args.expect, args.base, env.get("NPY_DISABLE_CPU_FEATURES", ""))
                if args.expect else {})
    runs = list(dict.fromkeys(text for group, text in matrix.RUNS
                              if args.group is None or group in args.group))

    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")  # no bytecode in a tree
        trees = {"base": _checkout(args.base, tmp / "base-tree"),
                 "head": (_checkout(args.head, tmp / "head-tree") if args.head
                          else ROOT / "src")}
        places = _write_inputs(tmp / "files")

        workers = {}
        for side, src in trees.items():
            (tmp / f"{side}.json").write_text(json.dumps(
                [(_expand(text, places), str(tmp / side / str(k)))
                 for k, text in enumerate(runs)]))
            path = os.pathsep.join((str(src), str(HERE), str(ROOT / "perfbench")))
            with open(tmp / f"{side}.log", "wb") as log:
                workers[side] = subprocess.Popen(
                    [sys.executable, "-c", "import sys, run; run._serve(sys.argv[1])",
                     f"{side}.json"], cwd=tmp, env={**env, "PYTHONPATH": path},
                    stdout=log, stderr=subprocess.STDOUT)
        for side, worker in workers.items():
            if worker.wait():
                log = (tmp / f"{side}.log").read_bytes().rstrip().splitlines() or [b""]
                print(f"WORKER FAILED  {side}: {log[-1].decode(errors='replace')}")
        results = [[_result(tmp / side / str(k)) for side in trees]
                   for k in range(len(runs))]

    digest = hashlib.sha256()
    same = failed = 0
    for name, (base, head) in zip(runs, results):
        trouble = [r[0] for r in (base, head) if isinstance(r[0], str)]
        if trouble:
            print(f"{trouble[0].upper()}  {name}")
            failed += 1
        elif base == head:
            same += 1
            digest.update(repr((name, base)).encode())
            if name in expected:
                print(f"EXPECTED BUT IDENTICAL  {name}")
                failed += 1
        else:
            _report(name, base, head)
            if name not in expected:
                print("  (not in the expect file)")
                failed += 1
            elif not expected[name] and not _within_bound(base, head):
                print(f"  (expected, but not a change of numbers by at most {_BOUND:g})")
                failed += 1
    print(f"{len(runs)} runs: {same} identical (sha256 {digest.hexdigest()}), "
          f"{len(runs) - same} differ, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
