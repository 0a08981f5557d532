"""Run one CLI invocation in a forked child and measure it.

Users run ``gsp-lab`` as one fresh process per command, so nothing computed
by one command is available to the next.  The parent imports gsp_lab.cli once
(what every fresh process pays is measured separately as setup_s) and forks a
child per invocation; the child calls ``gsp_lab.cli.main(argv)`` with its
stdout and stderr redirected to files and exits.  Wall time is taken inside
the child around ``main``; CPU time and peak RSS come from the child's rusage.

The machine this runs on is shared, and its speed drifts by tens of percent
from one minute to the next.  ``speed_probe`` times a fixed mix of
interpreter and small-array work; the parent runs it after every invocation,
and a run's times are rescaled by the reference time over the median probe,
so that a slower machine stretches the probe and the invocations alike.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

# Median time of speed_probe, run back to back on an idle 2-core x86-64 box (Python
# 3.11, numpy 2.4).  Reported times are seconds at that speed.
PROBE_REF_S = 0.007

_PROBE_X = np.linspace(-0.99, 0.99, 15)
_PROBE_W = np.full(15, 1.0 / 15.0)

RAISED_EXIT = 1  # what the interpreter exits with on an uncaught exception


def _probe_work(rounds):
    acc = 0.0
    for i in range(rounds):
        acc += float(_PROBE_W @ np.sin(0.5 + 1e-3 * i * _PROBE_X))
        acc += sum(j * j for j in range(20))
    return acc


def speed_probe():
    """Seconds this process needs for a fixed amount of interpreter work.

    A short untimed round first refills the caches a finished child evicted,
    so the probe times the machine's speed, not the parent's cold start.
    """
    _probe_work(300)
    t0 = time.perf_counter()
    _probe_work(1000)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Outcome:
    rc: int             # negative: killed by that signal
    raised: bool        # crashed, or killed after the timeout
    wall_s: float       # inside the child, around main
    cpu_s: float        # user + sys of the child
    peak_rss_mb: float
    out_path: str
    err_path: str


def _child(argv, out_path, err_path, trace_path, inv_id, report_fd):
    out = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(out, 1)
    os.dup2(err, 2)
    os.close(out)
    os.close(err)
    recorder = None
    if trace_path:
        import spans
        recorder = spans.Recorder(inv_id)
        recorder.install()
    import gsp_lab.cli
    raised = False
    t0 = time.perf_counter()
    try:
        rc = gsp_lab.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc, raised = RAISED_EXIT, True
    wall = time.perf_counter() - t0
    sys.stdout.flush()
    sys.stderr.flush()
    if recorder is not None:
        recorder.dump(trace_path)
    report = json.dumps({"rc": int(rc), "raised": raised, "wall_s": wall}).encode()
    os.write(report_fd, report)


def run(argv, out_path, err_path, trace_path, inv_id, timeout):
    """Fork, run ``main(argv)`` in the child, wait for it and measure it.

    The child is killed once ``timeout`` seconds have passed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    started = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(r)
            _child(argv, out_path, err_path, trace_path, inv_id, w)
        except BaseException:
            code = 70
        finally:
            os._exit(code)
    os.close(w)
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0.0:
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([r], [], [], left)
            if ready:
                chunk = os.read(r, 65536)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    try:
        report = json.loads(b"".join(chunks))
    except ValueError:  # the child died before reporting
        report = {"rc": -os.WTERMSIG(status) if os.WIFSIGNALED(status) else RAISED_EXIT,
                  "raised": True, "wall_s": time.perf_counter() - started}
    return Outcome(
        rc=report["rc"],
        raised=report["raised"],
        wall_s=report["wall_s"],
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        out_path=out_path,
        err_path=err_path,
    )


_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import gsp_lab.cli; "
    "print(time.perf_counter() - t0)"
)


def import_time(src_dir, timeout=60.0):
    """Seconds a fresh interpreter spends importing gsp_lab.cli."""
    env = dict(os.environ, PYTHONPATH=src_dir)
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE], env=env, capture_output=True,
        text=True, timeout=timeout, check=True,
    )
    return float(done.stdout.strip())
