"""Spans at the public boundaries of gsp_lab, recorded from outside it.

``Recorder.install`` runs in a forked child before it calls ``main``.  It
wraps every public function of the seven layers and rebinds the wrapper in
every gsp_lab module that holds the function (``from .x import y`` copies
the binding, so patching the defining module alone would miss most calls).
It also wraps the methods that carry the inner loops: ``FunctionSpec.eval``,
``elasticity`` and ``derivative``, and ``SamplerState.__init__`` and
``draw``.

A span is (id, parent id, name, start, end, count, flag).  ``count`` is the
work the call did: points evaluated, panels of an integral, draws.  ``flag``
marks an integral that did not converge.  Spans stay in memory and are
written once, after ``main`` returns; ``summarize`` turns one file into the
per-layer numbers of that invocation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "functions", "quadrature", "moments", "identities", "detector", "sampler")

EVAL_METHODS = ("eval", "elasticity", "derivative")
INTEGRATE = "quadrature.integrate"
DRAW = "sampler.SamplerState.draw"
SAMPLER_INIT = "sampler.SamplerState.__init__"
ROOT_ID = 1  # cli.main is the first span of every invocation

# Named span totals reported per layer: metric -> span names.  A span nested
# in another span of the same group is not counted twice.
SPAN_TOTALS = {
    "functions.validate_s": ("functions.validate",),
    "functions.load_csv_s": ("functions.load_tabulated_csv",),
    "identities.report_s": ("identities.identity_report",),
    "identities.fd_derivatives_s": ("identities.fd_derivatives",),
    "identities.reduction_s": ("identities.reduction_residuals",),
    "identities.variance_s": ("identities.variance_functional", "identities.variance_with_error"),
    "detector.classify_s": ("detector.classify",),
    "sampler.init_s": (SAMPLER_INIT,),
    "sampler.draw_s": (DRAW,),
}


def _points(args, kwargs, result, exc):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    return int(np.size(x)), 0


def _panels(args, kwargs, result, exc):
    if exc is not None:
        partial = getattr(exc, "result", None)
        return (partial.subdivisions if partial is not None else 0), 1
    return result.subdivisions, int(not result.converged)


def _draws(args, kwargs, result, exc):
    n = args[1] if len(args) > 1 else kwargs.get("n", 0)
    return int(n), 0


class Recorder:
    """Collects the spans of one invocation in memory."""

    def __init__(self, invocation):
        self.invocation = invocation
        self.spans = []
        self._ids = itertools.count(ROOT_ID)
        self._local = threading.local()

    def wrap(self, name, fn, measure=None):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            # Threads of the CLI's pool start with an empty stack; what they
            # run was submitted by cli.main, the invocation's root span.
            parent = stack[-1] if stack else (0 if sid == ROOT_ID else ROOT_ID)
            stack.append(sid)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                count, flag = measure(args, kwargs, result, exc) if measure else (0, 0)
                spans.append((sid, parent, name, t0, t1, count, flag))

        return traced

    def install(self):
        """Wrap the public functions and inner-loop methods of every layer."""
        mods = {layer: importlib.import_module(f"gsp_lab.{layer}") for layer in LAYERS}
        holders = [m for k, m in sys.modules.items()
                   if m is not None and (k == "gsp_lab" or k.startswith("gsp_lab."))]
        for layer, mod in mods.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if not inspect.isfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, _panels if name == INTEGRATE else None)
                for holder in holders:
                    for key in [k for k, v in vars(holder).items() if v is fn]:
                        setattr(holder, key, traced)
        spec_cls = getattr(mods["functions"], "FunctionSpec", None)
        for meth in EVAL_METHODS:
            if spec_cls is not None and meth in vars(spec_cls):
                setattr(spec_cls, meth, self.wrap(
                    f"functions.FunctionSpec.{meth}", vars(spec_cls)[meth], _points))
        state_cls = getattr(mods["sampler"], "SamplerState", None)
        for meth, measure in (("__init__", None), ("draw", _draws)):
            if state_cls is not None and meth in vars(state_cls):
                setattr(state_cls, meth, self.wrap(
                    f"sampler.SamplerState.{meth}", vars(state_cls)[meth], measure))

    def dump(self, path):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [(s[0], s[1], index[s[2]], s[3], s[4], s[5], s[6]) for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"invocation": self.invocation, "names": names, "spans": rows}, fh)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(path):
    """Per-layer counts and times of one invocation's span file."""
    with open(path) as fh:
        data = json.load(fh)
    names = data["names"]
    spans = data["spans"]
    name_of = {s[0]: names[s[2]] for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append((s[3], s[4]))

    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({k: 0.0 for k in SPAN_TOTALS})
    out.update({
        "quadrature.integrate_calls": 0, "quadrature.panels": 0,
        "quadrature.nonconverged": 0, "quadrature.eval_calls": 0,
        "quadrature.eval_points": 0, "functions.eval_calls": 0,
        "functions.eval_points": 0, "moments.bundle_calls": 0,
        "sampler.draws": 0, "sampler.draw_eval_points": 0,
    })
    group_of = {n: k for k, group in SPAN_TOTALS.items() for n in group}
    is_eval = {f"functions.FunctionSpec.{m}" for m in EVAL_METHODS}
    for sid, parent, ni, t0, t1, count, flag in spans:
        name = names[ni]
        dur = t1 - t0
        kids = children.get(sid)
        out[f"{name.split('.', 1)[0]}.self_s"] += dur - (_covered(kids, t0, t1) if kids else 0.0)
        metric = group_of.get(name)
        if metric is not None and group_of.get(name_of.get(parent)) != metric:
            out[metric] += dur
        if name in is_eval:
            out["functions.eval_calls"] += 1
            out["functions.eval_points"] += count
            if name_of.get(parent) == INTEGRATE:
                out["quadrature.eval_calls"] += 1
                out["quadrature.eval_points"] += count
            elif name_of.get(parent) == DRAW:
                out["sampler.draw_eval_points"] += count
        elif name == INTEGRATE:
            out["quadrature.integrate_calls"] += 1
            out["quadrature.panels"] += count
            out["quadrature.nonconverged"] += flag
        elif name == "moments.moment_bundle":
            out["moments.bundle_calls"] += 1
        elif name == DRAW:
            out["sampler.draws"] += count
    return out
