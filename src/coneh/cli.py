"""Batch front-end: every computation as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 usage error, 2 resolution-insufficient,
3 verification or numeric failure.  All reports are self-describing: they
embed the schema tag, tool version and the resolved configuration, and
identical argv + seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import __version__, eigensolver, gridcheck, growth, harmonics, selftest
from .errors import ConehError, InvalidArgument, NumericFailure
from .spectra import (Circle, CrossSection, MetricCircleNumeric, RoundSphere,
                      load_spectrum)

SCHEMA = "coneh/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RESOLUTION = 2
EXIT_VERIFICATION = 3


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
        return MetricCircleNumeric(eigensolver.load_density(arg))
    if kind == "spectrum":
        return load_spectrum(arg)
    raise InvalidArgument(f"unknown cross-section kind {kind!r}")


def _report(config: dict, body: dict) -> dict:
    return {"schema": SCHEMA, "version": __version__, "config": config} | body


def _emit(args, doc: dict, table: list[dict] | None = None,
          header: list[str] | None = None):
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


def _cs_config(args) -> dict:
    cfg = {"cross_section": args.cross_section, "format": args.format}
    for key in ("n", "m", "k", "k_max", "lam", "s", "seed"):
        if hasattr(args, key) and getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    return cfg


def cmd_spectrum(args) -> int:
    X = parse_cross_section(args.cross_section)
    spec = X.spectrum_upto(args.lam_max)
    bars = X.error_bars(spec) if isinstance(X, MetricCircleNumeric) else None
    spectrum = spec.to_json(error_bars=bars)
    doc = _report(_cs_config(args) | {"lambda_max": args.lam_max},
                  {"spectrum": spectrum})
    _emit(args, doc, spectrum["entries"], ["lambda", "mult"])
    return EXIT_OK


def cmd_count(args) -> int:
    X = parse_cross_section(args.cross_section)
    lams = args.lam
    table = [{"lambda": lam, "count": count, "count_left": left}
             for lam, count, left in zip(lams, X.count_array(lams).tolist(),
                                         X.count_left_array(lams).tolist())]
    doc = _report(_cs_config(args) | {"lambda": lams}, {"counts": table})
    _emit(args, doc, table, ["lambda", "count", "count_left"])
    return EXIT_OK


def cmd_hk(args) -> int:
    X = parse_cross_section(args.cross_section)
    if args.k_max is not None:
        table = [s._asdict()
                 for s in growth.hk_staircase(X, args.n, args.k_max)]
        doc = _report(_cs_config(args), {"staircase": table})
        _emit(args, doc, table, ["k_lo", "k_hi", "h"])
        return EXIT_OK
    rep = growth.hk_bounds(X, args.n, args.k)
    _emit(args, _report(_cs_config(args), {"growth_report": asdict(rep)}))
    return EXIT_OK


def cmd_weyl(args) -> int:
    X = parse_cross_section(args.cross_section)
    table = [{"lambda": lam} | growth.weyl_ratio(X, args.n, lam)._asdict()
             for lam in args.lam]
    doc = _report(_cs_config(args) | {"lambda": args.lam}, {"weyl": table})
    _emit(args, doc, table, ["lambda", *growth.WeylRatio._fields])
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    X = parse_cross_section(args.cross_section)
    table = [r._asdict()
             for r in growth.empirical_ratio_convergence(X, args.n, args.k)]
    doc = _report(_cs_config(args) | {"k": args.k}, {
        "pointwise_limit": growth.asymptotic_ratio(X, args.n),
        "cesaro_limit": growth.cesaro_limit(X, args.n),
        "table": table})
    _emit(args, doc, table, list(growth.EmpiricalRatio._fields))
    return EXIT_OK


def cmd_collapsed(args) -> int:
    X = parse_cross_section(args.cross_section)
    rep = growth.collapsed_bounds(X, args.n, args.m, args.k)
    _emit(args, _report(_cs_config(args), {"collapsed_report": asdict(rep)}))
    return EXIT_OK


def cmd_frequency(args) -> int:
    u = harmonics.load_harmonic(args.harmonic)
    svals = args.s
    table = [{"s": s, "I": harmonics.I(u, s), "D": harmonics.D(u, s),
              "U": harmonics.U(u, s), "J": harmonics.J(u, s)} for s in svals]
    residuals = [
        {"r": a, "s": b,
         "residual": harmonics.frequency_identity_check(u, a, b)}
        for a, b in zip(svals, svals[1:]) if a < b]
    gamma, order_report = harmonics.sharp_growth_order(u)
    doc = _report({"harmonic": args.harmonic, "s": svals,
                   "format": args.format},
                  {"table": table, "identity_residuals": residuals,
                   "sharp_growth_order": order_report})
    _emit(args, doc, table, ["s", "I", "D", "U", "J"])
    ok = all(r["residual"] <= 1e-8 for r in residuals)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_three_circles(args) -> int:
    u = harmonics.load_harmonic(args.harmonic)
    table = [{"s": s} | harmonics.three_circles_ratio(u, s, args.k)._asdict()
             for s in args.s]
    doc = _report({"harmonic": args.harmonic, "k": args.k, "s": args.s,
                   "format": args.format}, {"three_circles": table})
    _emit(args, doc, table, ["s", *harmonics.ThreeCirclesResult._fields])
    return EXIT_OK if all(t["satisfied"] for t in table) \
        else EXIT_VERIFICATION


def cmd_verify_grid(args) -> int:
    order, residuals = gridcheck.convergence_order(
        tuple(args.mode), args.length, tuple(args.window), args.resolutions)
    ok = 1.8 <= order <= 2.2
    doc = _report({"mode": list(args.mode), "length": args.length,
                   "window": list(args.window),
                   "resolutions": args.resolutions, "format": args.format},
                  {"fitted_order": order, "residual_max_norms": residuals,
                   "order_in_contract": ok})
    table = [{"resolution": m, "residual_max": r}
             for m, r in zip(args.resolutions, residuals)]
    _emit(args, doc, table, ["resolution", "residual_max"])
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_selftest(args) -> int:
    report = selftest.run_selftest(args.seed)
    doc = _report({"seed": args.seed, "format": args.format}, report)
    _emit(args, doc)
    return EXIT_OK if report["all_passed"] else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
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
    sp.add_argument("--lambda-max", dest="lam_max", type=float, required=True)

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
    sp.add_argument("--window", type=float, nargs=2, default=[0.5, 1.5])
    sp.add_argument("--resolutions", type=int, nargs="+",
                    default=[32, 64, 128])

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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConehError as exc:
        sys.stdout.write(_error_object(exc))
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
