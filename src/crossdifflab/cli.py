"""Command-line entry points.

Exit codes: 0 = all checks passed, 1 = a check failed, 2 = config error
(a bad config, flag or dump, named in one line) or unreadable input
file, 3 = numerical abort (CFL violation or blow-up).
"""

from __future__ import annotations

import argparse
import json
import sys

from .kolmo import CflViolation, NumericalBlowUp
from .lab import (ConfigError, RunManifest, build_field, config_errors,
                  parse_config, run, sweep)
from .torus import Field, dump_field, load_field, make_grid
from .weights import Weight, a2_constant, maximal_function


def _load_config(path: str, kind: str, eps: str | None = None):
    """The run of the config file, parsed once; `eps`, the comma-separated
    widths of `skt-converge --eps`, replaces the config's own eps first."""
    with open(path) as fh:
        text = fh.read()
    if eps is not None:
        with config_errors("--eps"):
            widths = [float(e) for e in eps.split(",")]
        try:
            raw = json.loads(text)
        except json.JSONDecodeError:
            raw = None  # parse_config names the error
        if isinstance(raw, dict) and raw.get("kind") == kind:
            text = json.dumps(dict(raw, eps=widths))
    cfg = parse_config(text)
    if cfg.kind != kind:
        raise ConfigError(
            f"config kind {cfg.kind!r} does not match subcommand "
            f"(expected {kind!r})")
    return cfg


def _load_field(path: str) -> Field:
    """The first slice of a field dump, on the dump's own grid; a malformed
    dump, or one whose dim or n is not a valid grid, is a ConfigError."""
    with config_errors(path):
        return load_field(path)


def _config_command(sub, kind):
    def handler(args):
        cfg = _load_config(args.config, kind, getattr(args, "eps", None))
        manifest = run(cfg, args.out)
        print(manifest.to_json(), end="")
        return 0 if manifest.passed else 1
    sub.add_argument("--config", required=True)
    sub.add_argument("--out", default=None,
                     help="output directory for manifest/CSV/dumps")
    sub.set_defaults(handler=handler)


def _weight_from_arg(arg: str, n: int, dim: int) -> Weight:
    """A weight from a field dump path or a family shorthand:
    constant[:c], twolevel:lo,hi or spike:base,peak,width."""
    if ":" not in arg:
        field = _load_field(arg)
    else:
        name, _, params = arg.partition(":")
        try:
            vals = [float(x) for x in params.split(",")] if params else []
        except ValueError:
            name, vals = "", []  # unparsable numbers: the usage error below
        if name == "constant" and len(vals) <= 1:
            spec = {"family": "constant", "value": vals[0] if vals else 1.0}
        elif name == "twolevel" and len(vals) == 2:
            spec = {"family": "piecewise", "levels": vals}
        elif name == "spike" and len(vals) == 3:
            spec = dict(zip(("base", "peak", "width"), vals), family="spike")
        else:
            raise ConfigError(f"bad weight {arg!r}: expected constant[:c], "
                              "twolevel:lo,hi or spike:base,peak,width")
        with config_errors(f"--n {n} --dim {dim}"):
            grid = make_grid(dim, n, 1.0, 1)
        field = build_field(grid, spec, "--weight")
    with config_errors(f"bad weight {arg!r}"):
        return Weight(field)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cdl",
        description="Periodic-torus lab for Kolmogorov/dual/cross-diffusion "
                    "studies")
    subs = parser.add_subparsers(dest="command", required=True)

    _config_command(subs.add_parser(
        "solve-kolmogorov", help="forward Kolmogorov solve"), "kolmogorov")
    _config_command(subs.add_parser(
        "solve-dual", help="backward dual solve + a-priori checks"), "dual")
    _config_command(subs.add_parser(
        "verify-duality", help="randomized duality-identity check"),
        "verify_duality")
    _config_command(subs.add_parser(
        "stability-study", help="rough-vs-mollified diffusion stability"),
        "stability")
    _config_command(subs.add_parser("skt-run", help="cross-diffusion solve"),
                    "skt")
    conv = subs.add_parser("skt-converge",
                           help="kernel-to-Dirac convergence study")
    conv.add_argument("--eps", default=None,
                      help="comma-separated kernel widths, overrides config")
    _config_command(conv, "converge")

    a2p = subs.add_parser("a2-check", help="A2 constant of a weight")
    a2p.add_argument("--weight", required=True,
                     help="field dump path or family spec like twolevel:1,9")
    a2p.add_argument("--n", type=int, default=64)
    a2p.add_argument("--dim", type=int, default=1)

    def a2_handler(args):
        w = _weight_from_arg(args.weight, args.n, args.dim)
        out = {"a2_constant": a2_constant(w),
               "n": w.values.grid.n, "dim": w.values.grid.dim}
        print(json.dumps(out, indent=2))
        return 0
    a2p.set_defaults(handler=a2_handler)

    mx = subs.add_parser("maximal", help="discrete maximal function")
    mx.add_argument("--field", required=True, help="input field dump")
    mx.add_argument("--out", default=None, help="output dump for Mf")

    def maximal_handler(args):
        mf = maximal_function(_load_field(args.field))
        if args.out:
            dump_field(args.out, mf)
        v = mf.values
        # near the float range, the mean of v / n^dim (exact) times n^dim,
        # whose sum cannot overflow
        scale = v.size if v.max() > sys.float_info.max / v.size else 1
        print(json.dumps({"sup": float(v.max()),
                          "mean": float((v / scale).mean() * scale)},
                         indent=2))
        return 0
    mx.set_defaults(handler=maximal_handler)

    sw = subs.add_parser("sweep", help="sweep one numeric config axis")
    sw.add_argument("--config", required=True)
    sw.add_argument("--axis", required=True, help="dotted path, e.g. grid.n")
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--out", default=None)

    def sweep_handler(args):
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        with config_errors("--values"):
            values = [json.loads(v) for v in args.values.split(",")]
        results = sweep(cfg, args.axis, values, args.out)
        code = 0
        for v, res in zip(values, results):
            if isinstance(res, RunManifest):
                status = "pass" if res.passed else "FAIL"
                code = max(code, 0 if res.passed else 1)
            else:
                status = f"ERROR: {res}"
                code = max(code, 3 if isinstance(
                    res, (CflViolation, NumericalBlowUp)) else 2)
            print(f"{args.axis}={v}: {status}")
        return code
    sw.set_defaults(handler=sweep_handler)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 2
    except (CflViolation, NumericalBlowUp) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
