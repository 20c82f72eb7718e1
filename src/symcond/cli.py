"""Command-line front end.

Subcommands: ``run`` (full report for one scenario), ``sweep`` (phase
sweep), ``fig1`` (the sweep of the bundled canonical qubit-qubit scenario,
written to a file),
``theorems`` (hypothesis/equality verdicts with assertion exit codes),
``selftest`` (the seeded randomized property checks of
:mod:`symcond.oracles`).

Exit codes: 0 ok, 2 parse/schema error, 3 invariant violation, 4 I/O
failure, 5 assertion failed. All numeric output uses 17 significant
digits and "\\n" line endings so identical inputs give byte-identical
output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .engine import P_FLOOR, CompiledModel, ZeroProbabilityOutcome, _averages
from .oracles import selftest_checks
from .scenario import (
    MAX_SWEEP_ROWS,
    InvariantViolation,
    Scenario,
    ScenarioError,
    SweepSpec,
    fig1_scenario_path,
    load_scenario,
)
from .symmetry import decohere, verify_theorems

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4
EXIT_ASSERT = 5

SEED_ENV_VAR = "SYMCOND_SEED"
DEFAULT_SEED = 42


def fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal formatting for reproducible files."""
    return format(float(x), ".17g")


@dataclass(frozen=True)
class SweepRecord:
    """One (phase, outcome) evaluation of the coherent/decohered contrast."""

    phi: float
    outcome: str
    probability: float
    delta_coherent: float
    delta_decohered: float
    difference: float


def sweep_records(scenario: Scenario, grid: np.ndarray) -> tuple[list[SweepRecord], list[str]]:
    """Evaluate the conditional-change contrast over a grid of system-state phases.

    For each grid point the scenario's system state at that phase and its
    decohered counterpart (pinched by the system part of the conserved
    quantity) are measured; ``difference`` is delta_coherent −
    delta_decohered. Rows are ordered by (grid index, outcome label). A
    zero-probability outcome at one point is recorded as an error string
    and does not abort the sweep.

    The G states form one (G, 2, 2) stack, pinched by one ``decohere``
    call; each stack is evaluated by one ``CompiledModel.conditional_values``
    call; each row's delta is after − before, and a pair of cells whose
    p is not above P_FLOOR gives the ``ZeroProbabilityOutcome`` text of
    the first such cell as its error line.
    """
    if scenario.conserved is None:
        raise ScenarioError("conserved", "phase sweeps need a conserved quantity for the decohered branch")
    compiled = CompiledModel(scenario.model, scenario.observable)
    states = scenario.system_states(grid)
    p, before, after = (a.tolist() for a in compiled.conditional_values(states))
    decohered = decohere(states, scenario.conserved.system_spectrum)
    p_dec, before_dec, after_dec = (a.tolist() for a in compiled.conditional_values(decohered))
    labels = scenario.model.outcomes
    order = sorted(range(len(labels)), key=labels.__getitem__)
    records: list[SweepRecord] = []
    errors: list[str] = []
    for g, phi in enumerate(grid.tolist()):
        for i in order:
            low = next((q[g][i] for q in (p, p_dec) if not q[g][i] > P_FLOOR), None)
            if low is not None:
                errors.append(f"phi={fmt(phi)} outcome={labels[i]}: {ZeroProbabilityOutcome(labels[i], low)}")
                continue
            d, d_dec = after[g][i] - before[g][i], after_dec[g][i] - before_dec[g][i]
            records.append(SweepRecord(phi, labels[i], p[g][i], d, d_dec, d - d_dec))
    return records, errors


def sweep_to_csv(records: list[SweepRecord], errors: list[str]) -> str:
    """Render sweep records as deterministic CSV with a gnuplot-style header."""
    buf = io.StringIO()
    buf.write("# conditional-change sweep: difference = delta_coherent - delta_decohered\n")
    buf.write("# columns: 1:phi(rad) 2:outcome 3:probability 4:delta_coherent 5:delta_decohered 6:difference\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["phi", "outcome", "probability", "delta_coherent", "delta_decohered", "difference"])
    for r in records:
        writer.writerow(
            [fmt(r.phi), r.outcome, fmt(r.probability), fmt(r.delta_coherent), fmt(r.delta_decohered), fmt(r.difference)]
        )
    for e in errors:
        buf.write(f"# error: {e}\n")
    return buf.getvalue()


def sweep_to_json(records: list[SweepRecord], errors: list[str]) -> str:
    payload = {"records": [asdict(r) for r in records], "errors": errors}
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def verdict_to_dict(verdict) -> dict:
    return {
        "tolerance": verdict.tolerance,
        "hypotheses": {
            name: {"residual": residual, "held": held}
            for (name, residual), held in zip(
                verdict.hypotheses.items(), verdict.hypotheses_held.values()
            )
        },
        "equalities": {
            name: {
                "residual": residual,
                "held": verdict.equalities_held[name],
                "claimed": verdict.equality_claimed(name),
            }
            for name, residual in verdict.equalities.items()
        },
        "claimed_equalities_hold": verdict.claimed_equalities_hold,
    }


def run_report(scenario: Scenario, tol: float) -> dict:
    """Full structured report for one scenario at its own phase.

    The outcome rows and averages come from one ``CompiledModel.traces``
    call: p(x) is clamped to [0, 1] as born_probability clamps, before,
    after and the weak value's imaginary part are trace rows over p(x),
    and an outcome not above P_FLOOR is an ``error`` entry. Rows are
    sorted by outcome label.
    """
    model, observable = scenario.model, scenario.observable
    labels = model.outcomes
    state = scenario.system_state()
    compiled = CompiledModel(model, observable)
    traces = compiled.traces(state.matrix)
    probability = [min(max(p, 0.0), 1.0) for p in traces[0].real.tolist()]
    weak, after_numerator = traces[1].tolist(), traces[2].real.tolist()
    outcomes = []
    for i in sorted(range(len(labels)), key=labels.__getitem__):
        p = probability[i]
        if not p > P_FLOOR:
            outcomes.append({"outcome": labels[i], "probability": p, "error": "zero-probability outcome"})
            continue
        before, after = weak[i].real / p, after_numerator[i] / p
        outcomes.append(
            {
                "outcome": labels[i],
                "probability": p,
                "before": before,
                "after": after,
                "delta": after - before,
                "weak_value_imag": (weak[i] / p).imag,
            }
        )
    before, after = _averages(traces)
    report = {
        "scenario": scenario.source,
        "tolerance": tol,
        "validation": "ok",
        "outcomes": outcomes,
        "averages": {"before": before, "after": after},
    }
    if scenario.conserved is not None:
        verdicts = verify_theorems(model, state, observable, scenario.conserved, tol, _compiled=compiled)
        theorem1 = verdicts["theorem1"]
        checks = {
            "conservation": theorem1.hypotheses["conservation"],
            "yanase": theorem1.hypotheses["yanase"],
            "symmetric_product_state": verdicts["theorem2"].terms["symmetric_state"][0],
        }
        report["checks"] = {
            name: {"residual": residual, "tolerance": tol, "held": residual < tol}
            for name, residual in checks.items()
        }
        report["theorems"] = {name: verdict_to_dict(v) for name, v in verdicts.items()}
    return report


def run_report_csv(report: dict) -> str:
    """Flat CSV rendering of a run report (checks become comments)."""
    buf = io.StringIO()
    buf.write(f"# scenario: {report['scenario']}\n")
    buf.write(f"# tolerance: {fmt(report['tolerance'])}\n")
    for name, entry in report.get("checks", {}).items():
        buf.write(f"# check {name}: residual {fmt(entry['residual'])} held {entry['held']}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["outcome", "probability", "before", "after", "delta", "weak_value_imag"])
    for entry in report["outcomes"]:
        if "error" in entry:
            buf.write(f"# outcome {entry['outcome']}: {entry['error']} (p={fmt(entry['probability'])})\n")
            continue
        writer.writerow(
            [
                entry["outcome"],
                fmt(entry["probability"]),
                fmt(entry["before"]),
                fmt(entry["after"]),
                fmt(entry["delta"]),
                fmt(entry["weak_value_imag"]),
            ]
        )
    return buf.getvalue()


def _effective_tol(args, scenario: Scenario) -> float:
    return args.tol if args.tol is not None else scenario.tolerance


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    tol = _effective_tol(args, scenario)
    report = run_report(scenario, tol)
    if args.format == "csv":
        sys.stdout.write(run_report_csv(report))
    else:
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n")
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
    records, errors = sweep_records(scenario, SweepSpec(start, stop, steps).grid())
    if args.format == "json":
        sys.stdout.write(sweep_to_json(records, errors))
    else:
        sys.stdout.write(sweep_to_csv(records, errors))
    return EXIT_OK


def cmd_fig1(args) -> int:
    scenario = load_scenario(fig1_scenario_path())
    records, errors = sweep_records(scenario, scenario.sweep.grid())
    text = sweep_to_json(records, errors) if args.format == "json" else sweep_to_csv(records, errors)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    if not args.quiet:
        print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_theorems(args) -> int:
    scenario = load_scenario(args.scenario)
    if scenario.conserved is None:
        raise ScenarioError("conserved", "theorem checks need a conserved quantity")
    tol = _effective_tol(args, scenario)
    state = scenario.system_state()
    verdicts = verify_theorems(scenario.model, state, scenario.observable, scenario.conserved, tol)
    if args.format == "json":
        payload = {name: verdict_to_dict(v) for name, v in verdicts.items()}
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    elif not args.quiet:
        for name, verdict in verdicts.items():
            for hyp, residual in verdict.hypotheses.items():
                state_word = "held" if verdict.hypotheses_held[hyp] else "broken"
                print(f"{name} hypothesis {hyp}: residual {residual:.3e} (tolerance {tol:.3e}, {state_word})")
            for eq, residual in verdict.equalities.items():
                claim_word = "claimed" if verdict.equality_claimed(eq) else "not claimed"
                state_word = "held" if verdict.equalities_held[eq] else "broken"
                print(f"{name} equality {eq}: residual {residual:.3e} (tolerance {tol:.3e}, {claim_word}, {state_word})")
            if verdict.all_hypotheses_hold:
                summary = "hypotheses satisfied; " + (
                    "equalities hold" if verdict.all_equalities_hold else "EQUALITY FAILED"
                )
            else:
                summary = "hypothesis not satisfied" + (
                    "" if verdict.claimed_equalities_hold else "; CLAIMED EQUALITY FAILED"
                )
            print(f"{name}: {summary}")

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
