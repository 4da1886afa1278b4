"""Command-line surface: evaluation, convolution, verification suites.

Commands
    eval      print E/H/B values of a channel (closed form or series power)
    convolve  check-convolve channels / powers, emit a channel document
    coeffs    series weights with partial sums and tail bounds, as CSV
    suite     randomized verification suites with seeded, reproducible CSVs

Exit codes: 0 all checks passed, 1 violation found, 2 usage/parse error.
Suites derive every trial's generator from (seed, trial indices), so a
fixed configuration yields byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Iterable, Sequence

from . import area as area_mod
from . import bounds as bounds_mod
from .channel import Channel, ChannelError, bec, bsc, parse_channel, serialize_channel
from .convolution import SupportCapError, check_convolve, check_power
from .functionals import Functional, _series_tag, evaluate
from .optimizer import RUN_CSV_HEADER, extremal_channel_cells
from .series import coefficient, coefficient_tail, phi_series, poly_from_string

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

CLAIM_CELL_THRESHOLD = 0.9


def load_channel(spec: str) -> Channel:
    """Inline channel `bsc:<eps>` / `bec:<h>`, or path to a channel document."""
    if spec.startswith("bsc:"):
        return bsc(float(spec[4:]))
    if spec.startswith("bec:"):
        return bec(float(spec[4:]))
    with open(spec, "r", encoding="utf-8") as handle:
        return parse_channel(handle.read())


def _parse_functional(text: str) -> Functional:
    try:
        return Functional(text.upper())
    except ValueError:
        raise ValueError(f"unknown functional {text!r}; choose E, H or B") from None


def _parse_ensemble(text: str) -> area_mod.EnsembleParams:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"ensemble must be `d_l,d_r`, got {text!r}")
    return area_mod.EnsembleParams(int(parts[0]), int(parts[1]))


def _number(kind, accept, expected: str):
    """An argparse type for numbers of kind (int or float) that accept
    takes; any other value is a usage error before the command prints
    anything."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {expected}")
        return value

    return parse


# suite seeds are non-negative, as the trial streams' keys take them
_non_negative = _number(int, lambda v: v >= 0, "non-negative integer")
_positive = _number(int, lambda v: v >= 1, "positive integer")
# NaN and the infinities fail each of these
_finite = _number(float, math.isfinite, "finite number")
_finite_positive = _number(float, lambda v: 0.0 < v < math.inf, "finite positive number")
_finite_non_negative = _number(float, lambda v: 0.0 <= v < math.inf, "finite non-negative number")


class _Given(argparse.Action):
    """Stores an option's value, or appends it with append=True, as argparse's
    own store and append actions do, and records the option in the
    namespace's `given`, so a command can tell an option passed from a
    default."""

    def __init__(self, option_strings, dest, append=False, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.append = append

    def __call__(self, parser, namespace, values, option_string=None):
        if self.append:
            values = [*(getattr(namespace, self.dest) or ()), values]
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.option_strings[0]}


# The options each suite reads; passing any other is a usage error.
_INEQ_OPTIONS = frozenset({"--seed", "--trials", "--tol", "--out"})
_SWEEP_OPTIONS = _INEQ_OPTIONS | {"--rho", "--functional"}
SUITE_OPTIONS = {
    "ineq": _INEQ_OPTIONS,
    "upper": _SWEEP_OPTIONS,
    "lower": _SWEEP_OPTIONS,
    "extremes": _SWEEP_OPTIONS,
    "area": _INEQ_OPTIONS | {"--ensemble", "--grid-points", "--margin", "--k-const"},
    "claim": frozenset({"--seed", "--out", "--ensemble", "--restarts", "--search-grid"}),
}


def _write_lines(path: str | None, lines: Iterable[str]) -> None:
    if path is None:
        for line in lines:
            print(line)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            for line in lines:
                handle.write(line + "\n")


def cmd_eval(args: argparse.Namespace) -> int:
    a = load_channel(args.channel)
    tags = list(Functional) if args.all or args.functional is None else [
        _parse_functional(args.functional)
    ]
    for tag in tags:
        if args.power is not None and tag is not Functional.E:
            sv = phi_series(tag, a, args.power, tol=args.tol)
            print(f"{tag.value}(a^[{args.power}]) = {sv.value:.12g}  (tail bound {sv.error_bound:.3g})")
        elif args.power is not None:
            p = evaluate(Functional.E, a)
            combined = 0.5 * (1.0 - (1.0 - 2.0 * p) ** args.power)
            print(f"E(a^[{args.power}]) = {combined:.12g}")
        else:
            print(f"{tag.value}(a) = {evaluate(tag, a):.12g}")
    return EXIT_OK


def cmd_convolve(args: argparse.Namespace) -> int:
    result = load_channel(args.channels[0])
    try:
        for spec in args.channels[1:]:
            result = check_convolve(result, load_channel(spec), cap=args.cap)
        if args.power is not None:
            result = check_power(result, args.power, cap=args.cap)
    except SupportCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: use `eicomb eval <channel> --power d` for series-evaluated values",
              file=sys.stderr)
        return EXIT_USAGE
    doc = serialize_channel(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(doc)
    else:
        sys.stdout.write(doc)
    if args.summary:
        for tag in Functional:
            print(f"# {tag.value} = {evaluate(tag, result):.12g}")
    return EXIT_OK


def cmd_coeffs(args: argparse.Namespace) -> int:
    tag = _series_tag(_parse_functional(args.functional))
    lines = ["n,coefficient,partial_sum,tail_bound"]
    partial = 0.0
    for n in range(1, args.count + 1):
        c = coefficient(tag, n)
        partial += c
        lines.append(f"{n},{c!r},{partial!r},{coefficient_tail(tag, n)!r}")
    _write_lines(args.out, lines)
    bracket_ok = partial <= 1.0 <= partial + coefficient_tail(tag, args.count)
    print(f"partial_sum={partial:.12g} tail_bound={coefficient_tail(tag, args.count):.3g} "
          f"brackets_one={bracket_ok}")
    return EXIT_OK if bracket_ok else EXIT_VIOLATION


def _suite_tags(args: argparse.Namespace) -> Sequence[Functional]:
    if args.functional is None:
        return bounds_mod.SERIES_TAGS
    return (_series_tag(_parse_functional(args.functional)),)


def _suite_rhos(args: argparse.Namespace):
    if args.rho:
        return tuple(poly_from_string(text) for text in args.rho)
    return bounds_mod.DEFAULT_SWEEP_RHOS


def cmd_suite(args: argparse.Namespace) -> int:
    name = args.name
    unread = sorted(args.given - SUITE_OPTIONS[name])
    if unread:
        raise ValueError(f"suite {name} does not read {', '.join(unread)}")
    # Exact-convolution checks are judged at rounding level, series-based
    # sweeps at the series tolerance.
    tol = args.tol if args.tol is not None else (
        bounds_mod.EXACT_SLACK_TOL if name == "ineq" else bounds_mod.SWEEP_SLACK_TOL
    )
    if name == "ineq":
        reports, summaries = bounds_mod.inequality_suite(
            args.seed, args.trials, tol=tol
        )
        lines = [bounds_mod.CSV_HEADER] + [r.csv_row() for r in reports]
        _write_lines(args.out, lines)
        violations = sum(s.violations for s in summaries.values())
        min_slack = min(s.min_slack for s in summaries.values())
        print(f"suite=ineq trials={sum(s.trials for s in summaries.values())} "
              f"violations={violations} min_slack={min_slack:.3e}")
        return EXIT_OK if violations == 0 else EXIT_VIOLATION

    if name in ("upper", "lower", "extremes"):
        runner = {
            "upper": bounds_mod.upper_bound_sweep,
            "lower": bounds_mod.lower_bound_sweep,
            "extremes": bounds_mod.fixed_error_sweep,
        }[name]
        kwargs = dict(per_cell=args.trials, tol=tol, rhos=_suite_rhos(args),
                      tags=_suite_tags(args))
        reports, summary = runner(args.seed, **kwargs)
        lines = [bounds_mod.CSV_HEADER] + [r.csv_row() for r in reports]
        _write_lines(args.out, lines)
        print(f"suite={name} trials={summary.trials} violations={summary.violations} "
              f"inconclusive={summary.inconclusive} min_slack={summary.min_slack:.3e}")
        return EXIT_OK if summary.ok else EXIT_VIOLATION

    if name == "area":
        params = _parse_ensemble(args.ensemble)
        c0 = args.margin if args.margin is not None else params.default_margin()
        # built before the sweep, so a K it rejects fails before any output
        interval = area_mod.certified_interval(params, args.k_const)
        rows = area_mod.area_margin_sweep(
            params, args.seed, c0=c0, grid_points=args.grid_points,
            channels_per_point=args.trials,
        )
        lines = [area_mod.AREA_CSV_HEADER + ",bec_min_cond"]
        for row in rows:
            cond = area_mod.bec_minimizer_condition(params, row.h)
            lines.append(row.csv_row(params) + f",{int(cond)}")
        _write_lines(args.out, lines)
        checked = [r for r in rows if r.checked]
        violations = sum(1 for r in checked if r.margin < -tol)
        worst = min((r.margin for r in checked), default=math.nan)
        print(f"suite=area ensemble={params.var_degree},{params.check_degree} "
              f"c0={c0:.6g} certified_points={len(checked)} violations={violations} "
              f"worst_margin={worst:.3e}")
        print(f"interval left={interval.left:.6g} right={interval.right:.6g} "
              f"valid={interval.valid}")
        return EXIT_OK if violations == 0 else EXIT_VIOLATION

    if name == "claim":
        params = _parse_ensemble(args.ensemble)
        h_values = [round(0.1 * k, 1) for k in range(1, 10)]
        seeds = list(range(args.seed, args.seed + args.restarts))
        cells = extremal_channel_cells(
            params.area_poly, h_values, seeds, grid=args.search_grid,
        )
        lines = ["direction,h," + RUN_CSV_HEADER]
        for cell in cells:
            direction = "min" if cell.minimize else "max"
            for res in cell.results:
                for tr in res.trace:
                    lines.append(f"{direction},{cell.h}," + tr.csv_row(res.seed))
                lines.append(
                    f"{direction},{cell.h},{res.seed},verdict,"
                    f"{res.verdict.value},{res.objective!r}"
                )
        _write_lines(args.out, lines)
        failures = 0
        for cell in cells:
            direction = "min" if cell.minimize else "max"
            status = "ok" if cell.hit_fraction >= CLAIM_CELL_THRESHOLD else "MISS"
            if status == "MISS":
                failures += 1
            print(f"claim {direction} h={cell.h}: {cell.hits}/{cell.seeds} "
                  f"{'BSC' if cell.minimize else 'BEC'} verdicts  [{status}]")
        return EXIT_OK if failures == 0 else EXIT_VIOLATION

    raise ValueError(f"unknown suite {name!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eicomb",
        description="Check-node combining algebra for discrete BMS channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print functional values of a channel")
    p_eval.add_argument("channel", help="bsc:<eps>, bec:<h>, or channel file path")
    p_eval.add_argument("--functional", help="E, H or B (default: all)")
    p_eval.add_argument("--all", action="store_true", help="print all three functionals")
    p_eval.add_argument("--power", type=_positive, help="evaluate the d-fold self-convolution by series")
    p_eval.add_argument("--tol", type=_finite_positive, default=1e-10, help="series tolerance")
    p_eval.set_defaults(fn=cmd_eval)

    p_conv = sub.add_parser("convolve", help="check-node convolution of channels")
    p_conv.add_argument("channels", nargs="+", help="channel specs to convolve left to right")
    p_conv.add_argument("--power", type=_positive, help="raise the result to the d-th convolution power")
    p_conv.add_argument("--summary", action="store_true", help="append functional values as comments")
    p_conv.add_argument("--cap", type=_positive, default=10**6, help="support size cap")
    p_conv.add_argument("--out", help="write the channel document here instead of stdout")
    p_conv.set_defaults(fn=cmd_convolve)

    p_coef = sub.add_parser("coeffs", help="series weights with partial sums and tail bounds")
    p_coef.add_argument("--functional", required=True, help="H or B")
    p_coef.add_argument("--count", type=_positive, default=100, help="number of weights to list")
    p_coef.add_argument("--out", help="CSV output path (default stdout)")
    p_coef.set_defaults(fn=cmd_coeffs)

    p_suite = sub.add_parser(
        "suite", help="randomized verification suites",
        description="Randomized verification suites.  A suite reads only its own "
                    "options; passing another is a usage error.  "
                    + "; ".join(f"{name} reads {', '.join(sorted(options))}"
                                for name, options in SUITE_OPTIONS.items()) + ".",
    )
    p_suite.add_argument("name", choices=list(SUITE_OPTIONS))
    p_suite.add_argument("--seed", action=_Given, type=_non_negative, default=0,
                         help="suite seed (non-negative)")
    p_suite.add_argument("--trials", action=_Given, type=_non_negative, default=1000,
                         help="trials per inequality / per sweep cell / per grid point")
    p_suite.add_argument("--tol", action=_Given, type=_finite, default=None,
                         help="slack tolerance when judging violations "
                              "(default 1e-12 exact suites, 1e-9 series sweeps)")
    p_suite.add_argument("--out", action=_Given, help="CSV output path (default stdout)")
    p_suite.add_argument("--rho", action=_Given, append=True,
                         help="polynomial like `x^3` or `x^5-0.75*x^6` (repeatable)")
    p_suite.add_argument("--functional", action=_Given, help="restrict sweeps to H or B")
    p_suite.add_argument("--ensemble", action=_Given, default="3,6",
                         help="d_l,d_r for area/claim suites")
    p_suite.add_argument("--grid-points", action=_Given, type=_positive, default=50,
                         help="entropy grid size for the area suite")
    p_suite.add_argument("--margin", action=_Given, type=_finite_positive,
                         help="area margin c0 (default (d_l-1)exp(-sqrt(d_r-1)))")
    p_suite.add_argument("--k-const", action=_Given, type=_finite_non_negative, default=1.0,
                         help="K in the certified-interval left edge h2(K/sqrt(d_r))")
    p_suite.add_argument("--restarts", action=_Given, type=_positive, default=20,
                         help="seeded restarts per claim cell")
    p_suite.add_argument("--search-grid", action=_Given, type=int, default=256,
                         help="coordinate-descent grid resolution")
    p_suite.set_defaults(fn=cmd_suite, given=frozenset())
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process; parse_args leaves it
    unchanged, so calls share it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ChannelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
