"""Seeded inputs and the fixed invocation list of each workload.

A workload is one batch of CLI invocations, repeated in a closed loop with
one invocation in flight at a time.  The program sees only argv and the CSV
files written here; the seed fixes both, so equal seeds give equal inputs
(the input digest records this).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from oracles import Perturbed, Table

WORKLOADS = ("analytic", "tabulated", "sampling")

PERTURBED = Perturbed(p=1.0, eps=0.1)
POWER2 = Perturbed(p=2.0)
POWER15 = Perturbed(p=1.5)

TABLE_KNOTS = 200
TABLE_LO, TABLE_HI = 0.01, 10.0
# Interior knots move by up to this share of the log spacing.  The endpoints
# stay put so the support, and with it the scale grid, is the same for every
# seed; the panel count then varies by about 1% between seeds.
TABLE_JITTER = 0.25
# Largest relative error of the log-log PCHIP interpolant of the perturbed
# table against the true f (measured over many seeds: below 1e-5), times ten.
# The exact x^1.5 table is linear in log-log, which PCHIP reproduces.
PERTURBED_TABLE_INTERP = 1e-4
EXACT_TABLE_INTERP = 1e-10

SAMPLE_A = 1.0


@dataclass(frozen=True)
class Invocation:
    label: str          # stable name, e.g. "detect perturbed-table"
    command: str
    argv: tuple
    expect_rc: int
    truth: Perturbed
    table: Table | None = None
    scales: int = 0     # scales on the grid the command walks (0 for sample)
    a: float = SAMPLE_A
    n: int = 0
    estimate: bool = False


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    batch: tuple        # Invocation, in the order one batch runs them
    digests: dict       # input file name -> sha256
    digest: str         # sha256 over argv and file digests


def _family_args(truth):
    if truth.is_power:
        return ("--family", "power", "--p", repr(truth.p))
    return ("--family", "perturbed", "--p", repr(truth.p), "--eps", repr(truth.eps))


def _grid_commands(truth, source_args, name, expect, table=None):
    return tuple(
        Invocation(f"{cmd} {name}", cmd, (cmd, *source_args), expect[cmd], truth,
                   table=table, scales=17)
        for cmd in ("verify", "detect", "sweep") if cmd in expect
    )


def table_knots(seed):
    rng = np.random.default_rng([seed, 1])
    t = np.linspace(np.log(TABLE_LO), np.log(TABLE_HI), TABLE_KNOTS)
    t[1:-1] += rng.uniform(-TABLE_JITTER, TABLE_JITTER, TABLE_KNOTS - 2) * (t[1] - t[0])
    x = np.exp(t)
    x[0], x[-1] = TABLE_LO, TABLE_HI
    return x


def write_table(path, truth, x):
    with open(path, "w") as fh:
        fh.write("x,f\n")
        fh.writelines(f"{float(v)!r},{truth.f(float(v))!r}\n" for v in x)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def make_inputs(workload, seed, workdir):
    """Write the workload's input files under ``workdir`` and list its batch."""
    files = {}
    if workload == "analytic":
        batch = (
            _grid_commands(PERTURBED, _family_args(PERTURBED), "perturbed",
                           {"verify": 1, "detect": 1, "sweep": 0})
            + _grid_commands(POWER2, _family_args(POWER2), "power",
                             {"verify": 0, "detect": 0, "sweep": 0})
        )
    elif workload == "tabulated":
        x = table_knots(seed)
        batch = ()
        # The exact table expects exit 0 although the program currently says
        # Inconclusive (exit 4) on it: that known defect is meant to show.
        for name, truth, interp, detect_rc in (
            ("perturbed-table", PERTURBED, PERTURBED_TABLE_INTERP, 1),
            ("exact-table", POWER15, EXACT_TABLE_INTERP, 0),
        ):
            path = os.path.join(workdir, f"{name}.csv")
            write_table(path, truth, x)
            files[f"{name}.csv"] = _sha256(path)
            batch += _grid_commands(truth, ("--csv", path), name,
                                    {"detect": detect_rc, "sweep": 0},
                                    table=Table(truth, TABLE_LO, interp))
    elif workload == "sampling":
        seeds = np.random.default_rng([seed, 2]).integers(0, 2**31, size=3)
        batch = tuple(
            Invocation(label, "sample",
                       ("sample", *_family_args(truth), "--a", repr(SAMPLE_A),
                        "--n", str(n), "--seed", str(int(s)), *extra),
                       0, truth, n=n, estimate=bool(extra))
            for (label, truth, n, extra), s in zip((
                ("sample perturbed", PERTURBED, 100_000, ()),
                ("sample power", POWER2, 100_000, ()),
                ("sample power --estimate", POWER2, 1_000_000, ("--estimate",)),
            ), seeds)
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")

    h = hashlib.sha256()
    for inv in batch:
        argv = [os.path.basename(a) if a.startswith(workdir) else a for a in inv.argv]
        h.update(repr(argv).encode())
    for name in sorted(files):
        h.update(f"{name}={files[name]}".encode())
    return Inputs(workload, seed, batch, files, h.hexdigest())
