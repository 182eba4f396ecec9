"""Command-line interface.

Subcommands: ``compute`` (entropy of distributions from a file),
``conditional`` and ``joint`` (on a joint file), ``trace`` (closed-form
uniform entropy), ``check`` (seeded axiom suite, JSON report), and ``sweep``
(CSV over one ranged parameter).  Data goes to standard output, warnings
and errors to standard error.  Exit codes: 0 success, 1 bad input or
parameters, 2 check verdict mismatch, 141 standard output closed early (a
reader such as ``head`` went away): the command then ends quietly, with
nothing on standard error, as a filter that SIGPIPE ends would.

A process loads only what its command runs.  ``trace`` and ``--help`` load
`entropies` and `deformed`, which are plain Python, and no numpy.
``compute``, ``conditional``, ``joint`` and ``sweep`` add the file readers
and the kernels, `distributions`, `_stable` and numpy (and ``json`` for a
JSON file); ``conditional`` with an exponential mean adds `generators`, and
``check`` loads `checker` with all of these.

`console_main` is the process entry (``python -m gentropies.cli`` and the
``gentropies`` script): it runs `main`, flushes standard output and error and
ends with ``os._exit``, skipping interpreter teardown.  So no ``atexit`` hook
runs after `main` returns, and whatever must reach a file is closed inside
`main`.  `main(argv)` itself returns the exit code, for in-process callers.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

from .entropies import (
    _FAMILY_TABLE,
    EntropyFamily,
    _family_builder,
    conditional_entropy,
    entropy,
    joint_entropy,
    make_family,
    uniform_trace,
)
from .errors import FormatError, GentropiesError, ParameterError

FAMILY_NAMES = ", ".join(name for name in _FAMILY_TABLE if name != "havrda_charvat")

#: Most points a sweep range may hold; longer ranges are refused up front.
MAX_SWEEP_POINTS = 10 ** 6

#: Exit status when standard output is a closed pipe: 128 + SIGPIPE, as a shell reports
#: a filter that the signal ended.
EXIT_BROKEN_PIPE = 141


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


def _flags(args: argparse.Namespace) -> dict[str, object]:
    """The family flags by name, in `make_family`'s order."""
    return {"alpha": args.alpha, "lambda": args.lam, "tau": args.tau}


def _family_from_args(args: argparse.Namespace) -> EntropyFamily:
    return make_family(args.family, *_flags(args).values())


def _readers():
    """The module of the file readers: only the commands that read a file load
    it, and numpy with it."""
    from . import distributions
    return distributions


#: value subcommand -> (its help, the help of its input, the values it prints)
_VALUE_COMMANDS = {
    "compute": ("entropy of each distribution in a file", "distribution file (JSON or CSV)",
                lambda family, args: (entropy(family, d)
                                      for d in _readers().read_distributions(args.input))),
    "conditional": ("conditional entropy of a joint file", "joint file (JSON or CSV)",
                    lambda family, args: [conditional_entropy(family,
                                                              _readers().read_joint(args.input))]),
    "joint": ("entropy of the flattened joint", "joint file (JSON or CSV)",
              lambda family, args: [joint_entropy(family, _readers().read_joint(args.input))]),
    "trace": ("closed-form entropy of the uniform distribution", "dimension",
              lambda family, args: [uniform_trace(family, args.n)]),
}


def _cmd_value(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    # printed as computed: a later value's error leaves the earlier ones on stdout
    for value in _VALUE_COMMANDS[args.command][2](family, args):
        print(f"{value:.15g}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .checker import CheckConfig, run_suite  # only this command runs the suite
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
    raw = _flags(args)
    _family_builder(args.family, *raw.values())  # the name and the flag set
    ranged = [k for k, v in raw.items() if v is not None and ":" in v]
    if len(ranged) != 1:
        raise ParameterError(
            "exactly one of --alpha/--lambda/--tau must carry a start:stop:step range"
        )
    key = ranged[0]
    values = _parse_range(raw[key])
    for k, v in raw.items():
        if v is None or k == key:
            continue
        try:
            raw[k] = float(v)
        except ValueError as exc:
            raise ParameterError(f"invalid number for --{k}: {v!r}") from exc

    dists = _readers().read_distributions(args.input)
    if len(dists) != 1:
        raise FormatError(
            f"sweep expects exactly one distribution, found {len(dists)} in {args.input}"
        )
    dist = dists[0]

    print("param,entropy")
    for v in values:
        raw[key] = v
        try:
            value = entropy(make_family(args.family, *raw.values()), dist)
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
            "stderr; exit codes: 0 ok, 1 bad input, 2 check verdict mismatch, "
            "141 stdout closed early (broken pipe)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, (text, input_text, _) in _VALUE_COMMANDS.items():
        sp = sub.add_parser(name, help=text)
        _add_family_flags(sp)
        if name == "trace":
            sp.add_argument("--n", type=int, required=True, help=input_text)
        else:
            sp.add_argument("input", help=input_text)
        sp.set_defaults(func=_cmd_value)

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
    except BrokenPipeError:
        return _broken_pipe()
    except (GentropiesError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _broken_pipe() -> int:
    """Point standard output at the null device, so that no later flush meets
    the closed pipe again, and give `EXIT_BROKEN_PIPE`; nothing goes to stderr."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return EXIT_BROKEN_PIPE


def console_main() -> NoReturn:
    """Run `main` and end the process with its code, without teardown.

    A final flush into a closed pipe ends quietly with `EXIT_BROKEN_PIPE`.
    Any other failing flush ends through ``sys.exit``, so the interpreter
    reports it as it would anyway: exit status 120 and an "Exception ignored"
    line on standard error.
    """
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        code = _broken_pipe()
    except (OSError, ValueError):  # another failing stream, or a closed one
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    console_main()
