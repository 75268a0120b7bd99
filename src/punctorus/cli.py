"""Command-line front end: law evaluation, sampling, and the solver.

Every numeric output is plain data (CSV rows or a JSON document); there
is no plotting.  Units: geodesic lengths are hyperbolic lengths in
natural units, and Teichmueller distance is reported as d = log m, the
log of the extremal dilatation.  (Some displays define the distance as
an infimum of dilatations K without taking the log; this tool always
reports the logarithm.)

Exit codes: 0 success, 2 usage error or a request too large to allocate,
3 accessory-solver failure (the solver's diagnostics are printed to
stderr as JSON).

Each command imports only its own layers.  ``pdf``, ``cdf`` and
``sample`` of the closed-form laws load ``mc`` and ``closedform``;
their modulus and Teichmueller laws, ``teich`` and ``quasimobius`` add
``modmap``; ``accessory`` and ``cr-map --modulus`` add the solver,
``lame``, without ``modmap``; ``cr-map --table`` adds both, and
``verify`` loads every module.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import mc
from .tabular import csv_text, float_text

_UNITS_EPILOG = (
    "Units: lengths are hyperbolic (natural units); Teichmueller distance "
    "is d = log m, the logarithm of the extremal dilatation."
)


def _write(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(doc, precision: int) -> str:
    """doc as indented JSON and a newline.  Each float in its dicts,
    lists, tuples and numpy arrays is first rounded to the double its
    ``float_text`` reads as, so it is written with at most ``precision``
    significant digits; at 17 it keeps its value and its text."""
    def rounded(v):
        if isinstance(v, float):
            return float(float_text(v, precision))
        if isinstance(v, dict):
            return {k: rounded(x) for k, x in v.items()}
        if isinstance(v, np.ndarray):
            v = v.tolist()
        return [rounded(x) for x in v] if isinstance(v, (list, tuple)) else v

    return json.dumps(rounded(doc), indent=2) + "\n"


def _emit_rows(args, header: tuple[str, ...], rows: list[tuple]) -> None:
    if args.format == "json":
        text = _json_text([dict(zip(header, row)) for row in rows], args.precision)
    else:
        text = csv_text(header, rows, args.precision)
    _write(args.out, text)


def _grid(args) -> np.ndarray:
    if args.start is None or args.stop is None or args.step is None:
        raise ValueError("grid evaluation needs --from, --to and --step")
    if not all(map(math.isfinite, (args.start, args.stop, args.step))):
        raise ValueError("--from, --to and --step must be finite")
    if args.step <= 0 or args.stop < args.start:
        raise ValueError("need --step > 0 and --to >= --from")
    span = (args.stop - args.start) / args.step
    if not math.isfinite(span):
        raise ValueError("grid too large: (--to - --from) / --step overflows")
    n = int(math.floor(span + 1e-9)) + 1
    return args.start + args.step * np.arange(n)


def _cmd_curve(args, evaluate, colname: str) -> int:
    if args.at is not None:
        val = evaluate(args.at)
        if args.format == "json":
            _emit_rows(args, ("law", "x", colname), [(args.law, args.at, val)])
        else:
            _write(args.out, float_text(val, args.precision) + "\n")
        return 0
    xs = _grid(args)
    ys = evaluate(xs)
    _emit_rows(args, ("x", colname),
               [(x.item(), y.item()) for x, y in zip(xs, ys)])
    return 0


def _cmd_pdf(args) -> int:
    return _cmd_curve(args, mc.CURVES[args.law][0], "pdf")


def _cmd_cdf(args) -> int:
    return _cmd_curve(args, mc.CURVES[args.law][1], "cdf")


def _cmd_sample(args) -> int:
    summary = mc.run_law(mc.McConfig(n_samples=args.n, seed=args.seed, law=args.law))
    if args.format == "json":
        _write(args.out, _json_text(summary.to_json_dict(), args.precision))
    else:
        _emit_rows(args, *summary.rows())
    return 0


def _emit_solve(args, tau: float) -> int:
    from . import lame

    rec = lame.solve_accessory(tau).as_record()
    _emit_rows(args, tuple(rec), [tuple(rec.values())])
    return 0


def _cmd_cr_map(args) -> int:
    if args.table:
        from . import modmap

        _emit_rows(args, *modmap.build_cr_table().rows())
        return 0
    if args.modulus <= 0:
        raise ValueError("modulus must be positive")
    return _emit_solve(args, 1.0 / args.modulus)


def _cmd_accessory(args) -> int:
    return _emit_solve(args, args.tau)


def _cmd_teich(args) -> int:
    if args.stats:
        from . import modmap

        mean, median, sd = modmap.summary_stats()
        _emit_rows(args, ("mean", "median", "sd"), [(mean, median, sd)])
        return 0
    args.law = "teich"
    if args.at is None and args.start is None:
        args.start, args.stop, args.step = 0.0, 4.0, 0.01
    return _cmd_pdf(args)


def _cmd_quasimobius(args) -> int:
    from . import modmap

    k = modmap.quasimobius_K(args.src, args.dst)
    _emit_rows(args, ("src_cr", "dst_cr", "K"), [(args.src, args.dst, k)])
    return 0


def _cmd_verify(args) -> int:
    from . import verify  # its checks reach torusgroup; no other command needs them

    results = verify.run_checks(quick=args.quick)
    if args.format == "json":
        _write(None, _json_text([r.to_json_dict() for r in results], 17))
        return 0 if all(r.nominal for r in results) else 1
    wide = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        note = "" if r.expected_pass else " (expected FAIL)"
        flag = "" if r.nominal else "  ** NOT NOMINAL **"
        lines.append(f"{r.name:{wide}s}  {status}{note}  {r.detail}{flag}\n")
    nominal = all(r.nominal for r in results)
    lines.append("result: " + ("nominal\n" if nominal else "NOT nominal\n"))
    _write(None, "".join(lines))
    return 0 if nominal else 1


def _digits(text: str) -> int:
    """A --precision value: a count of significant digits, 0 or more.

    Counts above 767 read as 767: no double has more significant digits
    in its exact decimal expansion, and ``g`` drops trailing zeros, so
    the output is the same, without a buffer of the count's size.
    """
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"need a whole number of digits, 0 or more; got {text!r}")
    return min(value, 767)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative float literal as a value.

    argparse takes a token that starts with '-' for an option unless it
    reads as a negative number: -N or -N.N on Python 3.11, never -inf;
    so ``--at -1e-3`` and ``--at -inf`` exited 2 with "expected one
    argument".  No option here looks like a number, so every token
    ``float`` accepts is a value.  Subparsers are built from this class.
    """

    def _parse_optional(self, arg_string):
        if arg_string.startswith("-"):
            try:
                float(arg_string)
            except ValueError:
                pass
            else:
                return None
        return super()._parse_optional(arg_string)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--precision", type=_digits, default=17,
                   help="significant digits for emitted floats")


def _add_grid(p: argparse.ArgumentParser) -> None:
    p.add_argument("--at", type=float, help="evaluate at a single point")
    p.add_argument("--from", dest="start", type=float, help="grid start")
    p.add_argument("--to", dest="stop", type=float, help="grid end (inclusive)")
    p.add_argument("--step", type=float, help="grid spacing")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="punctorus",
        description="Closed-form laws, accessory-parameter solves, and Monte "
                    "Carlo checks for random once-punctured tori.",
        epilog=_UNITS_EPILOG)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pdf", help="evaluate a probability density",
                       epilog=_UNITS_EPILOG)
    p.add_argument("--law", choices=tuple(mc.CURVES), required=True)
    _add_grid(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_pdf)

    p = sub.add_parser("cdf", help="evaluate a cumulative distribution",
                       epilog=_UNITS_EPILOG)
    p.add_argument("--law", choices=tuple(mc.CURVES), required=True)
    _add_grid(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_cdf)

    p = sub.add_parser("sample", help="Monte Carlo sample a law",
                       epilog=_UNITS_EPILOG)
    p.add_argument("--law", choices=mc.LAWS, required=True)
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--seed", type=int,
                   default=os.environ.get("PUNCTORUS_SEED", "0"),
                   help="RNG seed (default: PUNCTORUS_SEED or 0)")
    _add_common(p)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("cr-map",
                       help="cross ratio of a modulus, or the whole table",
                       epilog=_UNITS_EPILOG)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--modulus", type=float,
                      help="solve one modulus m directly, at tau = 1/m")
    mode.add_argument("--table", action="store_true",
                      help="emit the node table, m from 1 to 50")
    _add_common(p)
    p.set_defaults(fn=_cmd_cr_map)

    p = sub.add_parser("accessory",
                       help="solve the accessory parameter at one tau",
                       epilog=_UNITS_EPILOG)
    p.add_argument("--tau", type=float, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_accessory)

    p = sub.add_parser("teich",
                       help="Teichmueller-distance density or its moments",
                       epilog=_UNITS_EPILOG)
    p.add_argument("--stats", action="store_true",
                   help="emit mean/median/sd instead")
    _add_grid(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_teich)

    p = sub.add_parser("quasimobius",
                       help="weak quasi-Moebius constant between two "
                            "quadrilateral cross ratios",
                       epilog=_UNITS_EPILOG)
    p.add_argument("--src", type=float, required=True, help="source cross ratio")
    p.add_argument("--dst", type=float, required=True, help="image cross ratio")
    _add_common(p)
    p.set_defaults(fn=_cmd_quasimobius)

    p = sub.add_parser("verify", help="run the built-in verification suite",
                       epilog=_UNITS_EPILOG)
    p.add_argument("--quick", action="store_true",
                   help="smaller sample sizes and fewer solves")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="a line per check, or each check's result as JSON")
    p.set_defaults(fn=_cmd_verify)

    return parser


def _solver_failure():
    """lame.SolverFailure once the solver has loaded, else () (which no
    exception matches): only a command that imported lame can raise it."""
    return getattr(sys.modules.get(f"{__package__}.lame"), "SolverFailure", ())


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _solver_failure() as exc:
        json.dump({"error": "solver failure", "message": str(exc),
                   "diagnostics": exc.diagnostics}, sys.stderr)
        sys.stderr.write("\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"error: request too large: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
