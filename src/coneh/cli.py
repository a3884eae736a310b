"""Batch front-end: every computation as a subcommand with JSON/CSV output.

Exit codes: 0 success, 1 usage error, 2 resolution-insufficient,
3 verification or numeric failure.  All reports are self-describing: they
embed the schema tag, tool version and the resolved configuration, and
identical argv + seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys

from . import __version__, eigensolver, gridcheck, growth, harmonics, selftest
from .errors import (ConehError, InvalidArgument, NumericFailure,
                     PreconditionViolation, ResolutionInsufficient)
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
    doc = {"schema": SCHEMA, "version": __version__, "config": config}
    doc.update(body)
    return doc


def _emit(args, doc: dict, csv_rows: tuple[list[str], list[list]] | None = None):
    if args.format == "csv" and csv_rows is not None:
        header, rows = csv_rows
        buf = io.StringIO()
        buf.write(",".join(header) + "\n")
        for row in rows:
            buf.write(",".join(repr(v) if isinstance(v, float) else str(v)
                               for v in row) + "\n")
        text = buf.getvalue()
    else:
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    doc = _report(_cs_config(args) | {"lambda_max": args.lam_max},
                  {"spectrum": spec.to_json(error_bars=bars)})
    rows = [[lam, mult] for lam, mult in spec.entries]
    _emit(args, doc, (["lambda", "mult"], rows))
    return EXIT_OK


def cmd_count(args) -> int:
    X = parse_cross_section(args.cross_section)
    lams = args.lam
    table = [{"lambda": lam, "count": count, "count_left": left}
             for lam, count, left in zip(lams, X.count_array(lams).tolist(),
                                         X.count_left_array(lams).tolist())]
    doc = _report(_cs_config(args) | {"lambda": lams}, {"counts": table})
    _emit(args, doc, (["lambda", "count", "count_left"],
                      [[t["lambda"], t["count"], t["count_left"]] for t in table]))
    return EXIT_OK


def cmd_hk(args) -> int:
    X = parse_cross_section(args.cross_section)
    if args.k_max is not None:
        steps = growth.hk_staircase(X, args.n, args.k_max)
        doc = _report(_cs_config(args), {"staircase": [
            {"k_lo": s.k_lo, "k_hi": s.k_hi, "h": s.h, "jump": s.jump}
            for s in steps]})
        _emit(args, doc, (["k_lo", "k_hi", "h"],
                          [[s.k_lo, s.k_hi, s.h] for s in steps]))
        return EXIT_OK
    rep = growth.hk_bounds(X, args.n, args.k)
    doc = _report(_cs_config(args), {"growth_report": rep.to_json()})
    _emit(args, doc)
    return EXIT_OK


def cmd_weyl(args) -> int:
    X = parse_cross_section(args.cross_section)
    table = []
    for lam in args.lam:
        r = growth.weyl_ratio(X, args.n, lam)
        table.append({"lambda": lam, "ratio": r.ratio, "limit": r.limit,
                      "deviation": r.deviation})
    doc = _report(_cs_config(args) | {"lambda": args.lam}, {"weyl": table})
    _emit(args, doc, (["lambda", "ratio", "limit", "deviation"],
                      [[t["lambda"], t["ratio"], t["limit"], t["deviation"]]
                       for t in table]))
    return EXIT_OK


def cmd_asymptotic(args) -> int:
    X = parse_cross_section(args.cross_section)
    rows = growth.empirical_ratio_convergence(X, args.n, args.k)
    doc = _report(_cs_config(args) | {"k": args.k}, {
        "pointwise_limit": growth.asymptotic_ratio(X, args.n),
        "cesaro_limit": growth.cesaro_limit(X, args.n),
        "table": [r._asdict() for r in rows]})
    _emit(args, doc, (["k", "pointwise_ratio", "pointwise_deviation",
                       "cesaro_ratio", "cesaro_deviation"],
                      [list(r) for r in rows]))
    return EXIT_OK


def cmd_collapsed(args) -> int:
    X = parse_cross_section(args.cross_section)
    rep = growth.collapsed_bounds(X, args.n, args.m, args.k)
    _emit(args, _report(_cs_config(args), {"collapsed_report": rep.to_json()}))
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
    _emit(args, doc, (["s", "I", "D", "U", "J"],
                      [[t["s"], t["I"], t["D"], t["U"], t["J"]] for t in table]))
    ok = all(r["residual"] <= 1e-8 for r in residuals)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_three_circles(args) -> int:
    u = harmonics.load_harmonic(args.harmonic)
    verdicts = []
    for s in args.s:
        res = harmonics.three_circles_ratio(u, s, args.k)
        verdicts.append({"s": s, "ratio": res.ratio, "bound": res.bound,
                         "satisfied": res.satisfied})
    doc = _report({"harmonic": args.harmonic, "k": args.k, "s": args.s,
                   "format": args.format}, {"three_circles": verdicts})
    _emit(args, doc, (["s", "ratio", "bound", "satisfied"],
                      [[v["s"], v["ratio"], v["bound"], v["satisfied"]]
                       for v in verdicts]))
    return EXIT_OK if all(v["satisfied"] for v in verdicts) \
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
    _emit(args, doc, (["resolution", "residual_max"],
                      [[m, r] for m, r in zip(args.resolutions, residuals)]))
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

    def common(sp, cross_section=True):
        if cross_section:
            sp.add_argument("--cross-section", required=True,
                            help="sphere:<d> | circle:<L> | "
                                 "metric-circle:<file> | spectrum:<file>")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None,
                        help="output path (default: stdout)")

    sp = sub.add_parser("spectrum", help="certified spectrum emission")
    common(sp)
    sp.add_argument("--lambda-max", dest="lam_max", type=float, required=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("count", help="counting function N_X")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, nargs="+",
                    required=True)
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("hk", help="growth-dimension report or staircase")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=float)
    group.add_argument("--k-max", dest="k_max", type=float)
    sp.set_defaults(func=cmd_hk)

    sp = sub.add_parser("weyl", help="Weyl ratio table")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, nargs="+",
                    required=True)
    sp.set_defaults(func=cmd_weyl)

    sp = sub.add_parser("asymptotic",
                        help="pointwise and Cesaro ratio convergence table")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=float, nargs="+", required=True)
    sp.set_defaults(func=cmd_asymptotic)

    sp = sub.add_parser("collapsed", help="collapsed-case bounds")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.set_defaults(func=cmd_collapsed)

    sp = sub.add_parser("frequency",
                        help="I/D/U/J table plus identity residuals")
    common(sp, cross_section=False)
    sp.add_argument("--harmonic", required=True,
                    help="cone-harmonic JSON file")
    sp.add_argument("--s", type=float, nargs="+", required=True)
    sp.set_defaults(func=cmd_frequency)

    sp = sub.add_parser("three-circles", help="doubling-ratio verdicts")
    common(sp, cross_section=False)
    sp.add_argument("--harmonic", required=True)
    sp.add_argument("--k", type=float, required=True)
    sp.add_argument("--s", type=float, nargs="+", required=True)
    sp.set_defaults(func=cmd_three_circles)

    sp = sub.add_parser("verify-grid",
                        help="grid harmonicity and convergence order")
    common(sp, cross_section=False)
    sp.add_argument("--mode", type=float, nargs=3, required=True,
                    metavar=("ALPHA", "J", "C"))
    sp.add_argument("--length", type=float, default=2.0 * math.pi)
    sp.add_argument("--window", type=float, nargs=2, default=[0.5, 1.5])
    sp.add_argument("--resolutions", type=int, nargs="+",
                    default=[32, 64, 128])
    sp.set_defaults(func=cmd_verify_grid)

    sp = sub.add_parser("selftest", help="run the invariant spot-check suite")
    common(sp, cross_section=False)
    sp.add_argument("--seed", type=int, default=42)
    sp.set_defaults(func=cmd_selftest)

    return p


def _error_object(exc: ConehError, code: int) -> str:
    doc = {"schema": SCHEMA, "version": __version__,
           "error": {"type": type(exc).__name__, "message": str(exc),
                     "exit_code": code}}
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
    except ResolutionInsufficient as exc:
        sys.stdout.write(_error_object(exc, EXIT_RESOLUTION))
        return EXIT_RESOLUTION
    except (NumericFailure, PreconditionViolation) as exc:
        sys.stdout.write(_error_object(exc, EXIT_VERIFICATION))
        return EXIT_VERIFICATION
    except (ConehError, OSError, KeyError, json.JSONDecodeError) as exc:
        code = EXIT_USAGE
        if isinstance(exc, ConehError):
            sys.stdout.write(_error_object(exc, code))
        else:
            sys.stderr.write(f"error: {exc}\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
