"""Command-line interface.

Subcommands: ``compute`` (entropy of distributions from a file),
``conditional`` and ``joint`` (on a joint file), ``trace`` (closed-form
uniform entropy), ``check`` (seeded axiom suite, JSON report), and ``sweep``
(CSV over one ranged parameter).  Data goes to standard output, warnings
and errors to standard error.  Exit codes: 0 success, 1 bad input or
parameters, 2 check verdict mismatch.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .checker import CheckConfig, run_suite
from .distributions import read_distributions, read_joint
from .entropies import (
    EntropyFamily,
    _family_builder,
    conditional_entropy,
    entropy,
    joint_entropy,
    make_family,
    uniform_trace,
)
from .errors import FormatError, GentropiesError, ParameterError

FAMILY_NAMES = "shannon, general, nath, renyi, tsallis, havrda-charvat, hct"

#: Most points a sweep range may hold; longer ranges are refused up front.
MAX_SWEEP_POINTS = 10 ** 6


class _Parser(argparse.ArgumentParser):
    # usage errors are input errors (exit 1); exit 2 is reserved for
    # check-verdict mismatches
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_family_flags(sp: argparse.ArgumentParser, as_string: bool = False) -> None:
    kind = str if as_string else float
    sp.add_argument("--family", required=True, help=f"one of: {FAMILY_NAMES}")
    sp.add_argument("--alpha", type=kind, default=None, help="order parameter")
    sp.add_argument("--lambda", dest="lam", type=kind, default=None,
                    help="deformation parameter")
    sp.add_argument("--tau", type=kind, default=None, help="scale parameter (< 0)")


def _family_from_args(args: argparse.Namespace) -> EntropyFamily:
    return make_family(args.family, alpha=args.alpha, lam=args.lam, tau=args.tau)


def _print_value(value: float) -> None:
    print(f"{value:.15g}")


def _cmd_compute(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    for dist in read_distributions(args.input):
        _print_value(entropy(family, dist))
    return 0


def _cmd_conditional(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    _print_value(conditional_entropy(family, read_joint(args.input)))
    return 0


def _cmd_joint(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    _print_value(joint_entropy(family, read_joint(args.input)))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    _print_value(uniform_trace(family, args.n))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    cfg = CheckConfig(
        family=family,
        trials=args.trials,
        max_rows=args.max_rows,
        max_cols=args.max_cols,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    report = run_suite(cfg)
    text = report.to_json()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    expected = "violation detected" if args.expect_violation else "pass"
    if report.verdict == expected:
        return 0
    print(f"check verdict {report.verdict!r}, expected {expected!r}", file=sys.stderr)
    return 2


def _parse_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ParameterError(f"range must be start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ParameterError(f"unparseable range {spec!r}: {exc}") from exc
    if not all(map(math.isfinite, (start, stop, step))):
        raise ParameterError(f"range bounds and step must be finite, got {spec!r}")
    if step <= 0.0:
        raise ParameterError(f"range step must be positive, got {step!r}")
    limit = stop + 1e-12 * max(1.0, abs(stop))
    if (limit - start) / step >= MAX_SWEEP_POINTS:
        raise ParameterError(
            f"range {spec!r} holds more than {MAX_SWEEP_POINTS} points"
        )
    values = []
    i = 0
    while (v := start + i * step) <= limit:
        values.append(v)
        i += 1
    if not values:
        raise ParameterError(f"empty range {spec!r}")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    _family_builder(args.family, args.alpha, args.lam, args.tau)  # the name and the flag set
    raw = {"alpha": args.alpha, "lambda": args.lam, "tau": args.tau}
    ranged = [k for k, v in raw.items() if v is not None and ":" in v]
    if len(ranged) != 1:
        raise ParameterError(
            "exactly one of --alpha/--lambda/--tau must carry a start:stop:step range"
        )
    key = ranged[0]
    values = _parse_range(raw[key])
    fixed: dict[str, float] = {}
    for k, v in raw.items():
        if v is None or k == key:
            continue
        try:
            fixed[k] = float(v)
        except ValueError as exc:
            raise ParameterError(f"invalid number for --{k}: {v!r}") from exc

    dists = read_distributions(args.input)
    if len(dists) != 1:
        raise FormatError(
            f"sweep expects exactly one distribution, found {len(dists)} in {args.input}"
        )
    dist = dists[0]

    print("param,entropy")
    for v in values:
        params = dict(fixed)
        params[key] = v
        try:
            family = make_family(
                args.family,
                alpha=params.get("alpha"),
                lam=params.get("lambda"),
                tau=params.get("tau"),
            )
            value = entropy(family, dist)
        except GentropiesError as exc:
            print(
                f"warning: skipping {key}={v:.15g}: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            continue
        print(f"{v:.15g},{value:.15g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gentropies",
        description=(
            "Generalized entropies from distribution files, plus a seeded "
            "axiom-verification suite. Data goes to stdout, diagnostics to "
            "stderr; exit codes: 0 ok, 1 bad input, 2 check verdict mismatch."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    compute = sub.add_parser("compute", help="entropy of each distribution in a file")
    _add_family_flags(compute)
    compute.add_argument("input", help="distribution file (JSON or CSV)")
    compute.set_defaults(func=_cmd_compute)

    cond = sub.add_parser("conditional", help="conditional entropy of a joint file")
    _add_family_flags(cond)
    cond.add_argument("input", help="joint file (JSON or CSV)")
    cond.set_defaults(func=_cmd_conditional)

    joint = sub.add_parser("joint", help="entropy of the flattened joint")
    _add_family_flags(joint)
    joint.add_argument("input", help="joint file (JSON or CSV)")
    joint.set_defaults(func=_cmd_joint)

    trace = sub.add_parser("trace", help="closed-form entropy of the uniform distribution")
    _add_family_flags(trace)
    trace.add_argument("--n", type=int, required=True, help="dimension")
    trace.set_defaults(func=_cmd_trace)

    check = sub.add_parser("check", help="run the seeded axiom suite")
    _add_family_flags(check)
    check.add_argument("--trials", type=int, default=100)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--tolerance", type=float, default=1e-9)
    check.add_argument("--max-rows", type=int, default=8)
    check.add_argument("--max-cols", type=int, default=8)
    check.add_argument("--output", default=None, help="report path (default: stdout)")
    check.add_argument(
        "--expect-violation",
        action="store_true",
        help="succeed when the suite detects a strong-additivity violation",
    )
    check.set_defaults(func=_cmd_check)

    sweep = sub.add_parser("sweep", help="CSV sweep over one ranged parameter")
    _add_family_flags(sweep, as_string=True)
    sweep.add_argument("input", help="distribution file (JSON or CSV)")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse handles --help and usage errors by exiting; surface the
        # code so main() always returns
        return int(exc.code or 0)
    try:
        return args.func(args)
    except GentropiesError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
