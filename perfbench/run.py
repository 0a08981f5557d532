#!/usr/bin/env python3
"""gsp-lab benchmark: CLI batches in a closed loop, checked against oracles.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program under test is ``src/gsp_lab``
of that checkout.  One client runs the workload's batch of invocations over
and over, one invocation at a time, each in a fresh forked child (see
isolate.py), until ``--seconds`` have passed.  Every output is judged by the
closed-form oracles in oracles.py.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced batches and reports the per-layer metrics
(see spans.py) plus the tracing overhead.  Human-readable lines start with
``#``; the last line of stdout is the JSON result.  Failed invocations are
logged on stderr.  Exit status is 0 after a complete run, whatever the
program did; it is 2 when there is no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import inputs
import isolate
import oracles
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
MIN_BATCHES = 3
HARD_LIMIT_S = 150.0    # no batch starts, and no invocation runs, past this
MIN_TRACE_BATCHES = 2   # of each kind, traced and untraced
COMMANDS = ("verify", "detect", "sweep", "sample")


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


class Bench:
    def __init__(self, inputs, workdir, seconds):
        self.inputs = inputs
        self.workdir = workdir
        self.seconds = seconds
        self.batches = []       # per batch: {"traced": bool, "invs": [record]}
        self.setup = []         # import times of fresh interpreters
        self.probes = []        # speed_probe times, taken between invocations
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.problems = []      # benchmark-level correctness problems
        self._verdicts = {}     # (label, digest, rc, raised) -> oracles.Verdict
        self._first = {}        # label -> (digest, rc) of its first run
        self._ids = itertools.count(1)
        self.hard_deadline = None

    # ------------------------------------------------------------ running

    @property
    def scale(self):
        """Factor from this run's seconds to seconds at reference speed."""
        return isolate.PROBE_REF_S / _median(self.probes)

    def probe_setup(self):
        self.setup.append(isolate.import_time(str(SRC)))
        self.probes.append(isolate.speed_probe())

    def run_batch(self, traced):
        number = len(self.batches) + 1
        records = []
        for inv in self.inputs.batch:
            inv_id = next(self._ids)
            base = self.workdir / f"inv{inv_id}"
            trace_path = f"{base}.spans.json" if traced else None
            out = isolate.run(inv.argv, f"{base}.out", f"{base}.err", trace_path,
                              inv_id, timeout=max(1.0, self.hard_deadline - time.monotonic()))
            self.probes.append(isolate.speed_probe())
            records.append(self._judge(number, inv_id, inv, out, trace_path))
        self.batches.append({"traced": traced, "invs": records})

    def _judge(self, number, inv_id, inv, out, trace_path):
        with open(out.out_path, "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        key = (inv.label, digest, out.rc, out.raised)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = oracles.check(inv, out.rc, out.raised,
                                         data.decode("utf-8", "replace"))
            self._verdicts[key] = verdict
        reasons = list(verdict.failed)
        wrong = verdict.wrong
        first = self._first.setdefault(inv.label, (digest, out.rc))
        if first != (digest, out.rc):
            reasons.append("output bytes or exit code differ from the first run "
                           "of this invocation")
            wrong = True
        layers = {}
        if trace_path is not None:
            if os.path.exists(trace_path):
                layers = spans.summarize(trace_path)
            else:
                reasons.append("traced child wrote no spans")
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.wrong = self.wrong or wrong
            with open(out.err_path, errors="replace") as fh:
                err = fh.read().strip().splitlines()
            print(f"perfbench: FAIL batch {number} invocation {inv_id} [{inv.label}] "
                  f"argv={' '.join(inv.argv)}: {'; '.join(reasons[:3])}"
                  f"{f' (and {len(reasons) - 3} more)' if len(reasons) > 3 else ''}"
                  f"{' | stderr: ' + err[-1] if err else ''}", file=sys.stderr)
        for path in (out.out_path, out.err_path, trace_path):
            if path is not None and os.path.exists(path):
                os.remove(path)
        return {
            "label": inv.label, "command": inv.command, "scales": inv.scales,
            "wall_s": out.wall_s, "cpu_s": out.cpu_s, "rss_mb": out.peak_rss_mb,
            "out_bytes": len(data), "layers": layers,
        }

    def run(self, trace):
        start = time.monotonic()
        deadline = start + self.seconds
        self.hard_deadline = start + HARD_LIMIT_S

        def more(short):
            now = time.monotonic()
            return now < deadline or (short and now < self.hard_deadline)

        if not trace:
            while more(len(self.batches) < MIN_BATCHES):
                frac = (time.monotonic() - start) / self.seconds
                while len(self.setup) < min(SETUP_PROBES, 1 + int(frac * SETUP_PROBES)):
                    self.probe_setup()
                self.run_batch(traced=False)
            while len(self.setup) < SETUP_PROBES:
                self.probe_setup()
        else:
            while more(min(self._count(True), self._count(False)) < MIN_TRACE_BATCHES):
                self.run_batch(traced=self._count(True) < self._count(False))
            self._check_counts()

    def _count(self, traced):
        return sum(1 for b in self.batches if b["traced"] == traced)

    # ----------------------------------------------------------- metrics

    def _batches(self, traced=False):
        return [b["invs"] for b in self.batches if b["traced"] == traced]

    def _median_sum(self, batches, key="wall_s", command=None):
        """Median over batches of a per-batch sum of ``key``, at reference speed."""
        return self.scale * _median([
            sum(r[key] for r in b if command in (None, r["command"])) for b in batches])

    def end_to_end(self):
        batches = self._batches()
        return {
            "setup_s": self.scale * _median(self.setup),
            "batch_s": self._median_sum(batches),
            "cpu_s": self._median_sum(batches, "cpu_s"),
            "peak_rss_mb": max(r["rss_mb"] for b in batches for r in b),
        }

    def command_times(self, batches):
        present = {r["command"] for b in batches for r in b}
        return {f"{cmd}_s": self._median_sum(batches, command=cmd)
                for cmd in COMMANDS if cmd in present}

    @staticmethod
    def _layer_totals(batch):
        total = {}
        for r in batch:
            for k, v in r["layers"].items():
                total[k] = total.get(k, 0) + v
        return total

    def _check_counts(self):
        counts = [{k: v for k, v in self._layer_totals(b).items() if not k.endswith("_s")}
                  for b in self._batches(traced=True)]
        for i, c in enumerate(counts[1:], start=2):
            if c != counts[0]:
                diff = sorted(k for k in c if c[k] != counts[0].get(k))
                self.problems.append(f"traced batch {i} counts differ from batch 1: {diff}")

    def per_layer(self):
        traced = self._batches(traced=True)
        totals = [self._layer_totals(b) for b in traced]
        m = {k: (self.scale * _median([t[k] for t in totals]) if k.endswith("_s")
                 else totals[0][k])
             for k in totals[0]}
        first = traced[0]
        scales = sum(r["scales"] for r in first)
        m.update({
            "quadrature.panels_per_integral": _ratio(m["quadrature.panels"],
                                                     m["quadrature.integrate_calls"]),
            "quadrature.points_per_eval_call": _ratio(m["quadrature.eval_points"],
                                                      m["quadrature.eval_calls"]),
            "moments.bundles_per_scale": _ratio(m["moments.bundle_calls"], scales),
            "sampler.points_per_draw": _ratio(m["sampler.draw_eval_points"],
                                              m["sampler.draws"]),
            "cli.invocations": len(first),
            "cli.out_bytes": sum(r["out_bytes"] for r in first),
        })
        untraced = self._batches(traced=False)
        plain = self._median_sum(untraced)
        with_spans = self._median_sum(traced)
        m["trace.overhead_s"] = with_spans - plain
        m["trace.untraced_batch_s"] = plain
        m["trace.traced_batch_s"] = with_spans
        for cmd in COMMANDS:
            m[f"cmd.{cmd}_s"] = 0.0
        m.update({f"cmd.{k}": v for k, v in self.command_times(untraced).items()})
        m["cmd.fail_rate"] = _ratio(self.failed, self.attempted)
        return m

    def summary_lines(self, trace, env):
        untraced = self._batches()
        n = len(untraced)
        lines = [
            f"perfbench workload={self.inputs.workload} seed={self.inputs.seed} "
            f"trace={int(trace)} inputs=sha256:{self.inputs.digest[:16]} "
            + " ".join(f"{k}=sha256:{v[:16]}" for k, v in self.inputs.digests.items()),
            "env " + " ".join(f"{k}={v}" for k, v in env.items()),
            f"batches={len(self.batches)} untraced={n} traced={self._count(True)} "
            f"invocations={self.attempted} speed={self.scale:.3f} "
            f"(probe median {_median(self.probes):.5f} s over {len(self.probes)}, "
            f"reference {isolate.PROBE_REF_S} s)",
        ]
        e2e = self.end_to_end()
        times = sorted(self.scale * sum(r["wall_s"] for r in b) for b in untraced)
        tail = (f"p{100 * (n - 10) // n}={times[n - 11]:.4f} s (10 batches above)"
                if n >= 11 else "tail n/a (fewer than 11 batches)")
        lines.append(f"{'batch_s':<12} median={e2e['batch_s']:.4f} s over {n} batches; "
                     f"{tail}; unscaled median={e2e['batch_s'] / self.scale:.4f} s")
        if not trace:
            lines.append(f"{'setup_s':<12} median={e2e['setup_s']:.4f} s over "
                         f"{len(self.setup)} fresh imports")
        cmd = self.command_times(untraced)
        for c in COMMANDS:
            key = f"{c}_s"
            lines.append(f"{key:<12} " + (f"{cmd[key]:.4f} s (median per batch)"
                                          if key in cmd else "n/a (not in this workload)"))
        lines.append(f"{'cpu_s':<12} {e2e['cpu_s']:.4f} s (median per batch)")
        lines.append(f"{'peak_rss_mb':<12} {e2e['peak_rss_mb']:.1f} MB "
                     "(highest of any invocation)")
        lines.append(f"{'fail_rate':<12} {_ratio(self.failed, self.attempted):.4f} ratio "
                     f"({self.failed} failed / {self.attempted} attempted)")
        for p in self.problems:
            lines.append(f"problem: {p}")
        return ["# " + line for line in lines]


def _environment():
    import numpy
    import scipy
    nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "cli_threads": min(8, nproc),  # the CLI's default with GSP_LAB_THREADS unset
        "GSP_LAB_THREADS": "unset",
    }


def _select(spec, computed):
    out = {}
    for entry in spec:
        name = entry["name"]
        if name not in computed:
            raise KeyError(f"metric {name!r} of BENCHMARK.json was not measured")
        out[name] = {"value": computed[name], "unit": entry["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gsp_lab" / "cli.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'gsp_lab'} is missing",
              file=sys.stderr)
        return 2
    os.environ.pop("GSP_LAB_THREADS", None)
    sys.path.insert(0, str(SRC))
    import gsp_lab.cli  # children inherit the imported modules
    if Path(gsp_lab.cli.__file__).resolve().parent != (SRC / "gsp_lab").resolve():
        print(f"perfbench: imported {gsp_lab.cli.__file__}, not this checkout's",
              file=sys.stderr)
        return 2

    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        bench = Bench(inputs.make_inputs(args.workload, args.seed, str(workdir)),
                      workdir, args.seconds)
        bench.run(bool(args.trace))
        if args.trace:
            metrics = _select(spec["per_layer"], bench.per_layer())
        else:
            metrics = _select(spec["end_to_end"], bench.end_to_end())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for line in bench.summary_lines(bool(args.trace), _environment()):
        print(line)
    print(json.dumps({
        "correct": not bench.wrong and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
