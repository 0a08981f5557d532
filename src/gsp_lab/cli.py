"""Batch front end: verification suites, detection, sweeps, and sampling.

Four subcommands share one flag vocabulary::

    gsp-lab verify  --family power --p 2
    gsp-lab detect  --csv table.csv --out verdict.json
    gsp-lab sweep   --family perturbed --p 1 --eps 0.1 --a-min 0.1 --a-max 10
    gsp-lab sample  --family power --p 1 --a 1 --n 100000 --seed 7 --estimate

Config files are flat JSON whose keys mirror the long flags (dashes as
underscores); values given on the command line override the file.  Data is
written to --out, or stdout when --out is absent; human-readable summaries
always go to stderr so the data stream stays parseable.

Exit codes: 0 pass / power law, 1 residual failure / not a power law,
2 config error, 3 inadmissible spec, 4 inconclusive.  They depend on
nothing besides the config and the verdict.  Every failure raises, and main
maps its kind to its code in one handler, one stderr line each: ConfigError
2, Inadmissible 3, any other error 1 (a run too large to allocate among
them, and a count of scales or draws that no array can hold).

One function makes and checks the scale grid of verify, detect and sweep,
one array: the log-spaced scales of the flags, strictly increasing, kept
to the function's support.  Fewer than 5 scales left is a config error, as
is a sample scale outside the support (sample reads no grid flag).  Each
of the three integrates over the whole grid at once, in one quadrature
pass that gives the moments and the weight integrals at every scale (and,
for verify, at the finite-difference stencil below it, which the
identities module owns), as arrays the rows are built from.
Numbers are serialized with 17 significant digits, which makes reruns
byte-diffable; sample's draws go through a vectorized formatter whose
bytes equal Python's f"{x:.17g}".

A well-formed command line (the command, then each flag in full with its
value) is read straight from the flag tables below.  Anything else, help
and every usage error included, goes to argparse, which is imported and
built only then, so it alone writes help and usage text, with exit code 2.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from ._g17 import _g17_blocks
from .detector import Verdict, classify, fit_lambda, gsp_residual_sweep
from .errors import GspLabError, Inadmissible, _Record
from .functions import (
    PerturbedPowerLaw,
    PowerLaw,
    _geomspace,
    load_tabulated_csv,
    validate,
)
from .identities import identity_reports
from .moments import moment_bundles
from .sampler import _BLOCK, _MIN_ESTIMATE_N, _SEED_LIMIT, SamplerState, mc_estimates

__all__ = ["RunConfig", "ConfigError", "main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_INADMISSIBLE = 3
EXIT_INCONCLUSIVE = 4

# verify thresholds (per row; fixed so reports are comparable across runs)
_RED_TOL = 1e-7
_ABC_ABS = 1e-5
_ABC_REL = 1e-4
_WM_TOL = 1e-9
_VAR_TOL = 1e-12
# the fewest scales a grid may keep, from the flags to the last mask
_MIN_SCALES = 5
# the most scales or draws a run may ask for: 8 PiB of float64, which numpy
# still refuses with a MemoryError (from 2**60 on, a ValueError or IndexError)
_MAX_COUNT = 2**50


class ConfigError(GspLabError):
    """Bad flags, bad config file, or an impossible grid."""


class RunConfig(_Record):
    """Everything a run needs; round-trips losslessly through flat JSON.

    A key's type in a config file is its default's (str where that is None);
    an int key refuses a float with a fraction rather than truncate it.
    """

    fields = ("command", "family", "p", "amp", "eps", "csv", "a_min", "a_max",
              "a_count", "tol", "seed", "out", "format", "a", "n", "estimate")
    family = "power"
    p = 1.0
    amp = 1.0
    eps = 0.1
    csv = None
    a_min = 0.1
    a_max = 10.0
    a_count = 17
    tol = 1e-10
    seed = 0
    out = None
    format = None
    a = 1.0
    n = 1000
    estimate = False


# Each key is a flag of the same name (dashes for underscores), listed in
# --help in field order; the last three are flags of sample alone.
_KEY_TYPES = {k: str if v is None else type(v)
              for k, v in vars(RunConfig(command=None)).items() if k != "command"}
_SAMPLE_ONLY = ("a", "n", "estimate")
_HELP = {"csv": "tabulated spec from a two-column CSV", "a": "truncation scale",
         "n": "number of draws",
         "estimate": "emit Monte Carlo means instead of raw draws"}
# a family builds its spec from the config keys named as its fields
_FAMILIES = {"power": PowerLaw, "perturbed": PerturbedPowerLaw}
_CHOICES = {"family": _FAMILIES, "format": ("csv", "json")}


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8 text
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    out = {}
    for key, val in raw.items():
        if key not in _KEY_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if val is None:
            continue
        cast = _KEY_TYPES[key]
        try:
            if cast is bool and not isinstance(val, bool):
                raise ValueError("expected true/false")
            out[key] = cast(val)
            if cast is int and isinstance(val, float) and out[key] != val:
                # int() truncates; the flag itself refuses a fraction
                raise ValueError(f"{val!r} is not an integer")
        except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return out


def _build_parser():
    import argparse

    def add_flag(parser, key):
        cast = _KEY_TYPES[key]
        kind = ({"action": "store_true", "default": None} if cast is bool
                else {"type": cast, "choices": _CHOICES.get(key)})
        parser.add_argument("--" + key.replace("_", "-"), help=_HELP.get(key), **kind)

    # the flags every subcommand shares, declared once
    common = argparse.ArgumentParser(add_help=False)
    for key in _KEY_TYPES:
        if key not in _SAMPLE_ONLY:
            add_flag(common, key)
    common.add_argument("--config", help="flat JSON config file")

    parser = argparse.ArgumentParser(
        prog="gsp-lab",
        description="Scaling-identity verification, power-law detection, "
        "scale sweeps, and reproducible sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext, parents=[common])
        if name == "sample":
            for key in _SAMPLE_ONLY:
                add_flag(cmd, key)
    return parser


def _join_negative_values(argv):
    """``argv`` with ``--p -1e-3`` written ``--p=-1e-3`` for each float flag
    of the command, for the parser: argparse reads a word that starts with
    '-' as an option unless it is a plain decimal like -1, so ``-1e-3`` or
    ``-inf`` would never reach the checks that name the bad value."""
    command = next((word for word in argv if not word.startswith("-")), None)
    flags = {"--" + k.replace("_", "-") for k, cast in _KEY_TYPES.items()
             if cast is float and (k not in _SAMPLE_ONLY or command == "sample")}
    out = []
    for word in argv:
        if out and out[-1] in flags and word.startswith("-"):
            try:
                float(word)
                out[-1] += "=" + word
                continue
            except ValueError:
                pass
        out.append(word)
    return out


def _read_argv(argv):
    """The mapping argparse's namespace gives for ``argv``, read from the flag
    tables when each item is well formed: a flag of the command spelled in
    full, then a value of its key's type and choices, or ``--estimate``
    alone.  A value may start with '-' only after a float flag, and only
    where float() reads it, as _join_negative_values joins it.  The last of
    a repeated flag wins.  Anything else gives None, for the parser."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    types = {k: cast for k, cast in _KEY_TYPES.items()
             if k not in _SAMPLE_ONLY or argv[0] == "sample"}
    types["config"] = str
    flags = {"--" + k.replace("_", "-"): k for k in types}
    args = {"command": argv[0], **dict.fromkeys(types)}
    words = iter(argv[1:])
    for word in words:
        key = flags.get(word)
        if key is None:
            return None
        cast = types[key]
        if cast is bool:
            args[key] = True
            continue
        word = next(words, None)
        if word is None or (word.startswith("-") and cast is not float):
            return None
        try:
            args[key] = cast(word)
        except ValueError:
            return None
        if key in _CHOICES and args[key] not in _CHOICES[key]:
            return None
    return args


def _config_from_args(args):
    values = _load_config_file(args["config"]) if args["config"] else {}
    values.update({k: v for k, v in args.items() if k in _KEY_TYPES and v is not None})
    cfg = RunConfig(command=args["command"], **values)
    _check_config(cfg)
    return cfg


def _check_config(cfg):
    if cfg.csv is None and cfg.family not in _FAMILIES:
        raise ConfigError(f"unknown family {cfg.family!r}")
    if cfg.format is not None and cfg.format not in _CHOICES["format"]:
        raise ConfigError(f"unknown format {cfg.format!r}")
    if cfg.command != "sample":  # the only command that builds no grid
        if not (math.isfinite(cfg.a_min) and math.isfinite(cfg.a_max)):
            raise ConfigError("grid bounds must be finite")
        if cfg.a_min <= 0.0 or cfg.a_max <= cfg.a_min:
            raise ConfigError("need 0 < a-min < a-max")
        if cfg.a_count < _MIN_SCALES:
            raise ConfigError(f"grid needs at least {_MIN_SCALES} scales")
    if not (math.isfinite(cfg.tol) and cfg.tol > 0.0):
        raise ConfigError("tolerance must be positive")
    if cfg.command == "sample":
        if not (math.isfinite(cfg.a) and cfg.a > 0.0):
            raise ConfigError("sample scale a must be positive")
        if cfg.n < 1:
            raise ConfigError("need at least 1 draw")
        if not 0 <= cfg.seed < _SEED_LIMIT:
            raise ConfigError(f"seed must lie in [0, 2**64), got {cfg.seed}")
        if cfg.estimate and cfg.n < _MIN_ESTIMATE_N:
            raise ConfigError(f"estimates need n >= {_MIN_ESTIMATE_N}, got {cfg.n}")
    count = cfg.n if cfg.command == "sample" else cfg.a_count
    if count > _MAX_COUNT:
        raise MemoryError(f"cannot allocate {count} float64 values")


def _build_spec(cfg):
    if cfg.csv is not None:
        try:
            return load_tabulated_csv(cfg.csv)
        except OSError as exc:
            raise ConfigError(str(exc)) from exc
    family = _FAMILIES[cfg.family]
    return family(**{k: getattr(cfg, k) for k in family.fields})


def _grid_for(cfg, spec):
    """The scale grid, made and checked as the module says."""
    with np.errstate(over="ignore"):  # near the float64 top; the grid is finite
        scales = _geomspace(cfg.a_min, cfg.a_max, cfg.a_count)
    if (scales[1:] <= scales[:-1]).any():
        raise ConfigError("scales must be strictly increasing")
    scales = scales[spec.in_support(scales)]
    if scales.size < _MIN_SCALES:
        raise ConfigError(f"only {scales.size} grid scales fit inside the support "
                          f"(0, {spec.top:g}]")
    return scales


def _emit(text, out, blocks=()):
    """Write text, then each block of ASCII bytes in blocks, to out or stdout."""
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(text.encode())
                fh.writelines(blocks)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        return
    sys.stdout.write(text)
    raw = getattr(sys.stdout, "buffer", None)
    if raw is None:  # an io.StringIO, as under contextlib.redirect_stdout
        sys.stdout.writelines(block.decode("ascii") for block in blocks)
    else:
        sys.stdout.flush()  # the text goes out before the blocks
        raw.writelines(blocks)
        raw.flush()  # and the blocks before anything said on stderr


def _say(msg):
    print(msg, file=sys.stderr)


def _write_rows(cfg, default, header, rows, payload):
    """Write payload as JSON, or header and rows as 17-digit CSV, as --format
    says, or else as the command's default format says."""
    if (cfg.format or default) == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = ",".join(header) + "\n" + "".join(
            ",".join(map("{:.17g}".format, row)) + "\n" for row in rows)
    _emit(text, cfg.out)


# ---------------------------------------------------------------- commands


_VERIFY_HEADER = (
    "a", "red_i1", "red_i2", "red_i3",
    "dA_closed", "dB_closed", "dC_closed", "dtheta_closed",
    "dA_fd", "dB_fd", "dC_fd", "dtheta_fd",
    "wm_residual", "variance", "weight_normalizer", "row_pass",
)
_CHECK_NAMES = ("reduction", "derivative-match", "weighted-mean", "variance")


def cmd_verify(cfg, spec):
    rep = identity_reports(spec, _grid_for(cfg, spec), cfg.tol)
    closed, fin = rep.closed, rep.finite_diff
    # checks[k, j]: whether scale k passes check j of _CHECK_NAMES
    checks = np.array((
        rep.reduction.max(axis=1) <= _RED_TOL,
        (np.abs(closed - fin) <= _ABC_ABS + _ABC_REL * np.abs(closed)).all(axis=1),
        np.abs(rep.wm) <= _WM_TOL,
        rep.variance <= _VAR_TOL,
    )).T
    ok = checks.all(axis=1)
    rows = np.concatenate((rep.a[:, None], rep.reduction, closed, fin, rep.wm[:, None],
                           rep.variance[:, None], rep.weight_normalizer[:, None],
                           ok[:, None]), axis=1).tolist()
    _write_rows(cfg, "csv", _VERIFY_HEADER, rows,
                [dict(zip(_VERIFY_HEADER, row)) for row in rows])
    if not ok.all():
        for a, passed in zip(rep.a[~ok], checks[~ok]):
            bad = [name for name, good in zip(_CHECK_NAMES, passed) if not good]
            _say(f"verify: FAIL at a={a:g}: {', '.join(bad)}")
        return EXIT_FAIL
    _say(f"verify: PASS ({len(rows)} scales)")
    return EXIT_PASS


def cmd_detect(cfg, spec):
    result = classify(spec, _grid_for(cfg, spec), cfg.tol)
    _write_rows(cfg, "json", ("a", "gsp_residual", "variance"),
                zip(result.scales, result.gsp_residuals, result.variances),
                result.to_dict())
    _say(f"detect: {result.verdict.value} "
         f"(p_theta={result.p_theta:.6g}, lambda_hat={result.lambda_hat:.6g})")
    return {Verdict.POWER_LAW: EXIT_PASS, Verdict.NOT_POWER_LAW: EXIT_FAIL,
            Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE}[result.verdict]


def cmd_sweep(cfg, spec):
    m = moment_bundles(spec, _grid_for(cfg, spec), cfg.tol)
    fx = spec.eval(m.xbar)
    lam_hat = fit_lambda(m.ybar, fx)
    residuals = gsp_residual_sweep(m.ybar, fx, lam_hat)
    header = ("a", "xbar", "ybar", "theta", "A", "B", "C",
              "gsp_residual", "variance")
    rows = np.array((m.a, m.xbar, m.ybar, m.theta, m.A, m.B, m.C,
                     residuals, m.variance)).T.tolist()
    _write_rows(cfg, "csv", header, rows, {
        "lambda_hat": lam_hat, "rows": [dict(zip(header, row)) for row in rows]})
    _say(f"sweep: {len(rows)} scales, lambda_hat={lam_hat:.10g}")
    return EXIT_PASS


def cmd_sample(cfg, spec):
    if not spec.in_support(cfg.a):
        raise ConfigError(f"sample scale a={cfg.a:g} lies outside the support "
                          f"(0, {spec.top:g}]")
    state = SamplerState(spec, cfg.a, cfg.seed, tol=cfg.tol)
    if cfg.estimate:
        est = mc_estimates(state, cfg.n)
        _emit(json.dumps(vars(est), indent=2) + "\n", cfg.out)
        _say(f"sample: n={est.n} mean_x={est.mean_x:.10g}")
        return EXIT_PASS
    # every draw is solved before the first byte is written; the text is
    # formatted one block at a time, as it is written
    _emit("x\n", cfg.out, _g17_blocks(state.draw(cfg.n), _BLOCK))
    _say(f"sample: wrote {cfg.n} draws (seed={cfg.seed})")
    return EXIT_PASS


_COMMANDS = {
    "verify": (cmd_verify, "run the identity suite over a scale grid"),
    "detect": (cmd_detect, "classify the function as power law / not / inconclusive"),
    "sweep": (cmd_sweep, "emit per-scale moments and residuals as plot-ready data"),
    "sample": (cmd_sample, "draw from the normalized measure at one scale"),
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = (_read_argv(argv)
            or vars(_build_parser().parse_args(_join_negative_values(argv))))
    try:
        cfg = _config_from_args(args)
        spec = _build_spec(cfg)
        validate(spec)
        return _COMMANDS[cfg.command][0](cfg, spec)
    except ConfigError as exc:
        _say(f"config error: {exc}")
        return EXIT_CONFIG
    except Inadmissible as exc:
        _say(f"inadmissible spec: {exc}")
        return EXIT_INADMISSIBLE
    except GspLabError as exc:
        _say(f"error: {exc}")
        return EXIT_FAIL
    except MemoryError as exc:
        _say(f"error: out of memory ({exc})" if str(exc) else "error: out of memory")
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
