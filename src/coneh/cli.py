"""Batch front-end: every computation as a subcommand with JSON/CSV output.

Each ``cmd_*`` function computes and returns ``(body, table, header, ok)``:
the report's own fields, the rows a CSV prints (None where the report has
no table), the CSV columns, and whether its verdicts passed.  `main` alone
parses argv, runs the command, wraps the body in the schema tag, the tool
version and the config echo, writes it, and returns the exit code.  The
config echo is every parsed option but --output, the unset ones omitted;
--lambda is echoed under both ``lam`` and ``lambda``.

Exit codes: 0 success, 1 usage error, 2 resolution-insufficient,
3 verification or numeric failure; a `ConehError` prints its error object
and exits with its own code.  Identical argv + seed produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__, eigensolver, gridcheck, growth, harmonics, selftest
from .errors import (ConehError, InvalidArgument, NumericFailure,
                     ResolutionInsufficient)
from .spectra import Circle, CrossSection, RoundSphere, load_spectrum

SCHEMA = "coneh/1"

EXIT_OK = 0
EXIT_USAGE = InvalidArgument.exit_code
EXIT_RESOLUTION = ResolutionInsufficient.exit_code
EXIT_VERIFICATION = NumericFailure.exit_code


def _number(convert, arg: str, text: str):
    try:
        return convert(arg)
    except ValueError:
        raise InvalidArgument(
            f"cross-section {text!r}: {arg!r} is not a valid "
            f"{convert.__name__}") from None


def parse_cross_section(text: str) -> CrossSection:
    """Grammar: sphere:<d> | circle:<L> | metric-circle:<file> | spectrum:<file>."""
    kind, sep, arg = text.partition(":")
    if not sep:
        raise InvalidArgument(
            f"cross-section {text!r} must look like kind:argument")
    if kind == "sphere":
        return RoundSphere(_number(int, arg, text))
    if kind == "circle":
        return Circle(_number(float, arg, text))
    if kind == "metric-circle":
        return eigensolver.load_density(arg)
    if kind == "spectrum":
        return load_spectrum(arg)
    raise InvalidArgument(f"unknown cross-section kind {kind!r}")


def _config(args) -> dict:
    """The config echo of a report, by the rule in the module docstring."""
    config = {key: value for key, value in vars(args).items()
              if key not in ("command", "func", "output")
              and value is not None}
    if "lam" in config:
        config["lambda"] = config["lam"]
    return config


def _emit(args, doc: dict, table: list[dict] | None,
          header: list[str] | None):
    """Write `doc` as JSON, or the `header` columns of `table` as CSV; an
    --output path that cannot be written is InvalidArgument, and a count
    too long to print (past Python's integer-to-text digit limit) is
    NumericFailure."""
    try:
        if args.format == "csv" and table is not None:
            rows = [header, *([t[h] for h in header] for t in table)]
            text = "".join(",".join(repr(v) if isinstance(v, float) else str(v)
                                    for v in row) + "\n" for row in rows)
        else:
            text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    except ValueError as exc:
        raise NumericFailure(
            "the report holds an integer of more than "
            f"{sys.get_int_max_str_digits()} digits") from exc
    if not args.output:
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgument(f"{args.output}: {exc.strerror or exc}") from exc


def cmd_spectrum(args):
    X = parse_cross_section(args.cross_section)
    spec, bars = eigensolver.certified_spectrum(X, args.lambda_max)
    spectrum = spec.to_json(error_bars=bars)
    return {"spectrum": spectrum}, spectrum["entries"], ["lambda", "mult"], True


def cmd_count(args):
    X = parse_cross_section(args.cross_section)
    lams = args.lam
    table = [{"lambda": lam, "count": count, "count_left": left}
             for lam, count, left in zip(lams, X.count_array(lams).tolist(),
                                         X.count_left_array(lams).tolist())]
    return {"counts": table}, table, ["lambda", "count", "count_left"], True


def cmd_hk(args):
    X = parse_cross_section(args.cross_section)
    if args.k_max is not None:
        table = [s._asdict()
                 for s in growth.hk_staircase(X, args.n, args.k_max)]
        return {"staircase": table}, table, ["k_lo", "k_hi", "h"], True
    rep = growth.hk_bounds(X, args.n, args.k)
    return {"growth_report": rep._asdict()}, None, None, True


def cmd_weyl(args):
    X = parse_cross_section(args.cross_section)
    table = [{"lambda": lam} | growth.weyl_ratio(X, args.n, lam)._asdict()
             for lam in args.lam]
    return {"weyl": table}, table, ["lambda", *growth.WeylRatio._fields], True


def cmd_asymptotic(args):
    X = parse_cross_section(args.cross_section)
    table = [r._asdict()
             for r in growth.empirical_ratio_convergence(X, args.n, args.k)]
    body = {"pointwise_limit": growth.asymptotic_ratio(X, args.n),
            "cesaro_limit": growth.cesaro_limit(X, args.n),
            "table": table}
    return body, table, list(growth.EmpiricalRatio._fields), True


def cmd_collapsed(args):
    X = parse_cross_section(args.cross_section)
    rep = growth.collapsed_bounds(X, args.n, args.m, args.k)
    return {"collapsed_report": rep._asdict()}, None, None, True


def cmd_frequency(args):
    u = harmonics.load_harmonic(args.harmonic)
    svals = args.s
    table = [{"s": s, "I": harmonics.I(u, s), "D": harmonics.D(u, s),
              "U": harmonics.U(u, s), "J": harmonics.J(u, s)} for s in svals]
    residuals = [
        {"r": a, "s": b,
         "residual": harmonics.frequency_identity_check(u, a, b)}
        for a, b in zip(svals, svals[1:]) if a < b]
    _, order_report = harmonics.sharp_growth_order(u)
    body = {"table": table, "identity_residuals": residuals,
            "sharp_growth_order": order_report}
    ok = all(r["residual"] <= 1e-8 for r in residuals)
    return body, table, ["s", "I", "D", "U", "J"], ok


def cmd_three_circles(args):
    u = harmonics.load_harmonic(args.harmonic)
    table = [{"s": s} | harmonics.three_circles_ratio(u, s, args.k)._asdict()
             for s in args.s]
    ok = all(t["satisfied"] for t in table)
    return ({"three_circles": table}, table,
            ["s", *harmonics.ThreeCirclesResult._fields], ok)


def cmd_verify_grid(args):
    order, residuals = gridcheck.convergence_order(
        tuple(args.mode), args.length, tuple(args.window), args.resolutions)
    ok = 1.8 <= order <= 2.2
    body = {"fitted_order": order, "residual_max_norms": residuals,
            "order_in_contract": ok}
    table = [{"resolution": m, "residual_max": r}
             for m, r in zip(args.resolutions, residuals)]
    return body, table, ["resolution", "residual_max"], ok


def cmd_selftest(args):
    report = selftest.run_selftest(args.seed)
    return report, None, None, report["all_passed"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by `main`.

    Parsing leaves the parser unchanged, and every default is immutable,
    so no call sees what an earlier one parsed."""
    p = argparse.ArgumentParser(
        prog="coneh",
        description="Spectral counting functions, growth dimensions and "
                    "frequency checks on Euclidean cones")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, summary, cross_section=True):
        sp = sub.add_parser(name, help=summary)
        if cross_section:
            sp.add_argument("--cross-section", required=True,
                            help="sphere:<d> | circle:<L> | "
                                 "metric-circle:<file> | spectrum:<file>")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None,
                        help="output path (default: stdout)")
        sp.set_defaults(func=func)
        return sp

    sp = command("spectrum", cmd_spectrum, "certified spectrum emission")
    sp.add_argument("--lambda-max", type=float, required=True)

    sp = command("count", cmd_count, "counting function N_X")
    sp.add_argument("--lambda", dest="lam", type=float, nargs="+",
                    required=True)

    sp = command("hk", cmd_hk, "growth-dimension report or staircase")
    sp.add_argument("--n", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=float)
    group.add_argument("--k-max", dest="k_max", type=float)

    sp = command("weyl", cmd_weyl, "Weyl ratio table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, nargs="+",
                    required=True)

    sp = command("asymptotic", cmd_asymptotic,
                 "pointwise and Cesaro ratio convergence table")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=float, nargs="+", required=True)

    sp = command("collapsed", cmd_collapsed, "collapsed-case bounds")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=float, required=True)

    sp = command("frequency", cmd_frequency,
                 "I/D/U/J table plus identity residuals", cross_section=False)
    sp.add_argument("--harmonic", required=True,
                    help="cone-harmonic JSON file")
    sp.add_argument("--s", type=float, nargs="+", required=True)

    sp = command("three-circles", cmd_three_circles, "doubling-ratio verdicts",
                 cross_section=False)
    sp.add_argument("--harmonic", required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--s", type=float, nargs="+", required=True)

    sp = command("verify-grid", cmd_verify_grid,
                 "grid harmonicity and convergence order", cross_section=False)
    sp.add_argument("--mode", type=float, nargs=3, required=True,
                    metavar=("ALPHA", "J", "C"))
    sp.add_argument("--length", type=float, default=2.0 * math.pi)
    sp.add_argument("--window", type=float, nargs=2, default=(0.5, 1.5))
    sp.add_argument("--resolutions", type=int, nargs="+",
                    default=(32, 64, 128))

    sp = command("selftest", cmd_selftest, "run the invariant spot-check suite",
                 cross_section=False)
    sp.add_argument("--seed", type=int, default=42)

    return p


def _error_object(exc: ConehError) -> str:
    doc = {"schema": SCHEMA, "version": __version__,
           "error": {"type": type(exc).__name__, "message": str(exc),
                     "exit_code": exc.exit_code}}
    extra = getattr(exc, "certified_bound", None)
    if extra is not None:
        doc["error"]["certified_bound"] = extra
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        body, table, header, ok = args.func(args)
        _emit(args, {"schema": SCHEMA, "version": __version__,
                     "config": _config(args)} | body, table, header)
    except ConehError as exc:
        sys.stdout.write(_error_object(exc))
        return exc.exit_code
    return EXIT_OK if ok else EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
