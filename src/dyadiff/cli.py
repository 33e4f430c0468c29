"""Command-line front end.

Subcommands: delta, distance, ball, profile, evolve, verify.  Single results
are emitted as JSON documents, tables as whitespace-separated rows with a
`#` header line.  Decimal inputs are rounded to binary at a configurable
digit count and the applied rounding is always echoed, making the exactness
boundary of the dyadic layer visible.

Exit codes: 0 success, 2 parse error, 3 range error, 4 a series, search or
quadrature could not be certified, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Context, Decimal
from fractions import Fraction

from . import laplacian, spectral
from .dyadic import MAX_LEVEL, DyadicPoint, dyadic_distance, smallest_common_interval
from .exceptions import CapExceeded, ExpansionParseError, LevelRangeError, QuadratureError
from .spectral import DiffusionParams, TruncationPolicy

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_RANGE = 3
EXIT_CAP = 4
EXIT_VERIFY = 5

DEFAULT_DIGITS = 53
# --digits ranges over 0..MAX_DIGITS: a rounded point is no finer than the
# finest dyadic level, and its mantissa has at most MAX_DIGITS fraction bits
MAX_DIGITS = MAX_LEVEL
# decimal inputs are read exactly up to this exponent; an exact read past it
# would build 10^|exponent|.  10^2048 is far past the coarsest interval,
# 2^MAX_LEVEL, and 10^-2048 far below half the finest grid step, 2^-MAX_DIGITS
MAX_DECIMAL_EXPONENT = MAX_LEVEL + MAX_DIGITS
# the suites of `dyadiff verify`, named here so that only that subcommand
# imports `dyadiff.verify`
VERIFY_SUITES = ("dyadic", "spectral", "laplacian", "euclidean")


def _fmt(v: float) -> str:
    try:
        return f"{float(v):.17g}"
    except OverflowError:  # an exact value past the double range
        return f"{Context(prec=17).divide(Decimal(v.numerator), Decimal(v.denominator)):.17g}"


def parse_point(text: str, digits: int) -> tuple[DyadicPoint, Fraction | Decimal]:
    """Parse a decimal string, round to `digits` binary digits.

    Returns the point and the (signed) rounding that was applied.  A decimal
    with an exponent past +-MAX_DECIMAL_EXPONENT is decided from that
    exponent: above, LevelRangeError; below, the point is 0 at every
    `digits`, and the rounding is returned as an exact Decimal.
    """
    if not 0 <= digits <= MAX_DIGITS:
        raise LevelRangeError(f"--digits {digits} is outside 0..{MAX_DIGITS}")
    negative = f"input {text!r} is negative; points live on the half-line"
    try:
        decimal = Decimal(text)
    except ArithmeticError:  # not a decimal, such as "3/8": it has no exponent
        decimal = Decimal(0)
    if decimal.is_finite() and abs(decimal.adjusted()) > MAX_DECIMAL_EXPONENT:
        if decimal.is_zero():
            return DyadicPoint(0), Fraction(0)
        if decimal.is_signed():
            raise ValueError(negative)
        if decimal.adjusted() > 0:
            raise LevelRangeError(f"input {text!r} is at or above 10^{MAX_DECIMAL_EXPONENT + 1}")
        return DyadicPoint(0), decimal.copy_negate()
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ExpansionParseError(0, f"cannot parse {text!r} as a real number") from None
    if value < 0:
        raise ValueError(negative)
    scale = 1 << digits
    rounded = Fraction(round(value * scale), scale)
    point = DyadicPoint.from_fraction(rounded)
    return point, rounded - value


def _interval_record(interval) -> dict:
    return {
        "level": interval.level,
        "index": interval.index,
        "lower": _fmt(interval.lower),
        "upper": _fmt(interval.upper),
    }


def _point_record(text: str, point: DyadicPoint, rounding: Fraction) -> dict:
    return {
        "input": text,
        "value": _fmt(point.value),
        "mantissa": point.mantissa,
        "exponent": point.exponent,
        "rounding_applied": _fmt(rounding),
    }


def _emit(doc: dict, out) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def cmd_delta(args, out) -> int:
    x, rx = parse_point(args.x, args.digits)
    y, ry = parse_point(args.y, args.digits)
    delta = dyadic_distance(x, y)
    common = smallest_common_interval(x, y)
    doc = {
        "command": "delta",
        "x": _point_record(args.x, x, rx),
        "y": _point_record(args.y, y, ry),
        "delta": _fmt(delta),
        "interval": _interval_record(common) if common is not None else "point",
    }
    _emit(doc, out)
    return EXIT_OK


def cmd_distance(args, out) -> int:
    x, rx = parse_point(args.x, args.digits)
    y, ry = parse_point(args.y, args.digits)
    params = DiffusionParams(args.s, args.t)
    trunc = TruncationPolicy(tail_tol=args.tail_tol)
    doc = {
        "command": "distance",
        "x": _point_record(args.x, x, rx),
        "y": _point_record(args.y, y, ry),
        "s": _fmt(args.s),
        "t": _fmt(args.t),
        "method": args.method,
    }
    if args.method in ("closed", "both"):
        doc["closed"] = _fmt(spectral.distance_closed(x, y, params, trunc))
    if args.method in ("spectral", "both"):
        doc["spectral"] = _fmt(spectral.distance_spectral(x, y, params, trunc))
    if args.method == "both":
        doc["discrepancy"] = _fmt(
            abs(float(doc["closed"]) - float(doc["spectral"]))
        )
    _emit(doc, out)
    return EXIT_OK


def cmd_ball(args, out) -> int:
    x, rx = parse_point(args.x, args.digits)
    params = DiffusionParams(args.s, args.t)
    trunc = TruncationPolicy(tail_tol=args.tail_tol)
    result = spectral.ball(x, args.r, params, trunc)
    doc = {
        "command": "ball",
        "x": _point_record(args.x, x, rx),
        "r": _fmt(args.r),
        "s": _fmt(args.s),
        "t": _fmt(args.t),
    }
    if result.is_whole_space:
        doc["ball"] = "whole_space"
    else:
        doc["ball"] = _interval_record(result.interval)
    _emit(doc, out)
    return EXIT_OK


def cmd_profile(args, out) -> int:
    if args.i_min > args.i_max:
        raise ValueError("i-min must not exceed i-max")
    params = DiffusionParams(args.s, args.t)
    trunc = TruncationPolicy(tail_tol=args.tail_tol)
    lo, limit, hi = spectral.sandwich(params, trunc)
    out.write("# i lambda psi\n")
    for i in range(args.i_min, args.i_max + 1):
        lam = Fraction(2) ** i
        out.write(f"{i} {_fmt(lam)} {_fmt(spectral.psi(params, lam, trunc))}\n")
    out.write(f"# psi_infinity {_fmt(limit)}\n")
    out.write(f"# sandwich_lower {_fmt(lo)}\n")
    out.write(f"# sandwich_upper {_fmt(hi)}\n")
    return EXIT_OK


def cmd_evolve(args, out) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        expansion = laplacian.parse_expansion(fh.read())
    trunc = TruncationPolicy(tail_tol=args.tail_tol)
    # t = 0 is the identity (multiplier e^0 = 1 on every level); the general
    # spectral machinery requires t > 0, so handle it directly.
    if args.t == 0:
        params = None
        evolved = expansion
    else:
        params = DiffusionParams(args.s, args.t)
        evolved = laplacian.evolve_spectral(expansion, params)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(laplacian.format_expansion(evolved))
    else:
        out.write(laplacian.format_expansion(evolved))
    if args.query:
        f = expansion.to_piecewise()
        out.write("# x u_spectral u_kernel discrepancy\n")
        for text in args.query:
            x, _ = parse_point(text, args.digits)
            u_spec = evolved.evaluate(x)
            if params is None:
                u_kernel = f.evaluate(x)
            else:
                u_kernel = laplacian.evolve_pointwise(f, x, params, trunc)
            out.write(
                f"{_fmt(x.value)} {_fmt(u_spec)} {_fmt(u_kernel)} "
                f"{_fmt(abs(u_spec - u_kernel))}\n"
            )
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from . import verify  # only this subcommand pays for its import

    results = verify.run_verify(args.suite, seed=args.seed)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        out.write(f"[{status}] {r.suite}: {r.name}{detail}\n")
        if not r.passed:
            failures += 1
    out.write(f"# {len(results) - failures}/{len(results)} properties passed\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadiff",
        description="Fractional dyadic diffusion geometry on the half-line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand takes exactly the flags it reads; argparse converts a
    # string default with the flag's type, so the environment parses like a flag
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                        help=f"binary digits kept when rounding decimal inputs, 0..{MAX_DIGITS}")
    series = argparse.ArgumentParser(add_help=False)
    series.add_argument("--s", type=float, required=True, help="fractional order s > 0")
    series.add_argument("--t", type=float, required=True, help="diffusion time t > 0")
    series.add_argument("--tail-tol", type=float,
                        default=os.environ.get("DYADIFF_TAIL_TOL", "1e-12"),
                        help="tail tolerance relative to the value of each series")

    p = sub.add_parser("delta", parents=[digits],
                       help="dyadic distance and minimal common interval")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("distance", parents=[digits, series],
                       help="diffusion distance d_t(x, y)")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--method", choices=("closed", "spectral", "both"), default="closed")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("ball", parents=[digits, series],
                       help="diffusion ball around x of radius r")
    p.add_argument("x")
    p.add_argument("r", type=float)
    p.set_defaults(func=cmd_ball)

    p = sub.add_parser("profile", parents=[series], help="table of psi_t over powers of 2")
    p.add_argument("--i-min", type=int, default=-20)
    p.add_argument("--i-max", type=int, default=20)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("evolve", parents=[digits, series],
                       help="heat evolution of a Haar expansion file")
    p.add_argument("input", help="expansion file: one `j k coefficient` per line")
    p.add_argument("--query", nargs="*", default=[],
                   help="points at which to evaluate both evolution routes")
    p.add_argument("--out", default=None, help="write the evolved expansion here")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("verify", help="run the seeded property suites")
    p.add_argument("suite", nargs="?", default="all",
                   choices=("all",) + VERIFY_SUITES)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad flags, which matches our parse code
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return args.func(args, out)
    except (ExpansionParseError, FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except QuadratureError as exc:
        print(f"quadrature not certified: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OverflowError) as exc:
        print(f"range error: {exc}", file=sys.stderr)
        return EXIT_RANGE


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
