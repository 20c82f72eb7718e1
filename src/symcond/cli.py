"""Command-line front end: argparse, exit codes and I/O.

Subcommands: ``run`` (full report for one scenario), ``sweep`` (phase
sweep), ``fig1`` (the sweep of the bundled qubit-qubit scenario, written
to ``--out``), ``theorems`` (hypothesis/equality verdicts with assertion
exit codes), ``selftest`` (the seeded randomized property checks of
:mod:`symcond.oracles`). :mod:`symcond.report` forms and renders every
report; this module parses the arguments, writes stdout and ``--out``,
and maps each error to its exit code: 0 ok, 2 parse/schema error,
3 invariant violation (an evaluation that overflows to a non-finite
value included), 4 I/O failure, 5 assertion failed. Sweeps are written
piece by piece as ``sweep_chunks`` forms them.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .oracles import selftest_checks
from .report import render_theorems, run_report, run_report_csv, sweep_chunks, sweep_columns, theorem_verdicts, to_json
from .scenario import (
    MAX_SWEEP_ROWS,
    InvariantViolation,
    Scenario,
    ScenarioError,
    SweepSpec,
    fig1_scenario_path,
    load_scenario,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4
EXIT_ASSERT = 5

SEED_ENV_VAR = "SYMCOND_SEED"
DEFAULT_SEED = 42


def _effective_tol(args, scenario: Scenario) -> float:
    return args.tol if args.tol is not None else scenario.tolerance


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    report = run_report(scenario, _effective_tol(args, scenario))
    sys.stdout.write(run_report_csv(report) if args.format == "csv" else to_json(report))
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    base = scenario.sweep
    start = args.start if args.start is not None else (base.start if base else None)
    stop = args.stop if args.stop is not None else (base.stop if base else None)
    steps = args.steps if args.steps is not None else (base.steps if base else None)
    missing = [
        flag
        for flag, value in (("--from", start), ("--to", stop), ("--steps", steps))
        if value is None
    ]
    if missing:
        raise ScenarioError(
            "sweep", f"scenario declares no sweep and {', '.join(missing)} not given"
        )
    outcomes = len(scenario.model.outcomes)
    if steps * outcomes > MAX_SWEEP_ROWS:
        raise ScenarioError("sweep.steps", f"{steps} points × {outcomes} outcomes exceed {MAX_SWEEP_ROWS} rows")
    columns = sweep_columns(scenario, SweepSpec(start, stop, steps).grid())
    sys.stdout.writelines(sweep_chunks(columns, args.format))
    return EXIT_OK


def cmd_fig1(args) -> int:
    scenario = load_scenario(fig1_scenario_path())
    columns = sweep_columns(scenario, scenario.sweep.grid())
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(sweep_chunks(columns, args.format))
    if not args.quiet:
        print(f"wrote {len(columns.phi)} records to {args.out}")
    return EXIT_OK


def cmd_theorems(args) -> int:
    scenario = load_scenario(args.scenario)
    verdicts = theorem_verdicts(scenario, _effective_tol(args, scenario))
    if args.format == "json" or not args.quiet:
        sys.stdout.write(render_theorems(verdicts, args.format))
    if args.require is not None:
        required = verdicts[args.require]
        if not (required.all_hypotheses_hold and required.all_equalities_hold):
            if not args.quiet:
                print(f"required {args.require} does not hold", file=sys.stderr)
            return EXIT_ASSERT
        return EXIT_OK
    ok = all(v.claimed_equalities_hold for v in verdicts.values())
    return EXIT_OK if ok else EXIT_ASSERT


def _seed() -> int:
    """The selftest seed: $SYMCOND_SEED as a non-negative integer, else DEFAULT_SEED."""
    text = os.environ.get(SEED_ENV_VAR)
    if text is None:
        return DEFAULT_SEED
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ScenarioError(SEED_ENV_VAR, f"must be a non-negative integer, got {text!r}")
    return seed


def cmd_selftest(args) -> int:
    seed = _seed()
    failures = 0
    for name, residual, threshold in selftest_checks(seed):
        ok = residual < threshold
        failures += 0 if ok else 1
        if not args.quiet:
            word = "PASS" if ok else "FAIL"
            print(f"selftest {name}: {word} (max residual {residual:.3e}, threshold {threshold:.0e})")
    if not args.quiet:
        print(f"selftest seed {seed}: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return EXIT_OK if failures == 0 else EXIT_ASSERT


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite number above zero."""
    try:
        tol = float(text)
    except ValueError:
        tol = float("nan")
    if not 0 < tol < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return tol


_FLAGS = {
    "--tol": dict(
        type=_tolerance,
        default=None,
        help="comparison tolerance (default: the scenario's, 1e-9 if it declares none)",
    ),
    "--quiet": dict(action="store_true", help="suppress informational output"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Register the named shared flags; each subcommand takes only those it reads."""
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def _add_format(parser: argparse.ArgumentParser, choices: tuple[str, ...], default: str) -> None:
    """Register --format with only the values this subcommand reads; without
    the flag it writes ``default``."""
    parser.add_argument("--format", choices=choices, default=None, help=f"output format (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcond",
        description="Outcome-conditioned expectation values under symmetry constraints.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("run", help="evaluate one scenario and emit a structured report")
    p.add_argument("scenario", help="path to a .scenario file")
    _add_flags(p, "--tol")
    _add_format(p, ("csv", "json"), "json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep the system-state phase over a grid")
    p.add_argument("scenario", help="path to a .scenario file")
    p.add_argument("--from", dest="start", type=float, default=None, help="grid start (radians)")
    p.add_argument("--to", dest="stop", type=float, default=None, help="grid end (radians)")
    p.add_argument("--steps", type=int, default=None, help="number of grid points")
    _add_format(p, ("csv", "json"), "csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fig1", help="write the sweep of the bundled qubit-qubit scenario")
    p.add_argument("--out", required=True, help="output file path")
    _add_format(p, ("csv", "json"), "csv")
    _add_flags(p, "--quiet")
    p.set_defaults(func=cmd_fig1)

    p = sub.add_parser("theorems", help="verify the coherence-irrelevance theorems on a scenario")
    p.add_argument("scenario", help="path to a .scenario file")
    p.add_argument(
        "--require",
        choices=("theorem1", "theorem2"),
        default=None,
        help="exit 5 unless this theorem's hypotheses and equalities all hold",
    )
    _add_flags(p, "--tol")
    _add_format(p, ("json",), "text")
    _add_flags(p, "--quiet")
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("selftest", help="run seeded randomized property checks")
    _add_flags(p, "--quiet")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # An overflowing evaluation is reported once, as the InvariantViolation
        # of its non-finite result, not also as numpy warnings on stderr.
        with np.errstate(all="ignore"):
            return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
