"""Reports: what ``symcond run``, ``sweep``, ``fig1`` and ``theorems`` print.

``run_report`` forms the report of one scenario at its own phase (p(x),
the conditional values before and after measurement, the theorem
verdicts); ``sweep_records`` evaluates the coherent-minus-decohered
contrast over a grid of system-state phases. CSV renderings write every
float with 17 significant digits and comments as ``#`` lines; JSON is
strict (sorted keys, NaN and infinities refused); lines end in "\\n", so
identical inputs give byte-identical output. This module imports neither
the oracles nor the samplers.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass

import numpy as np

from .engine import P_FLOOR, CompiledModel, ZeroProbabilityOutcome, _averages, _clamped
from .scenario import Scenario, ScenarioError
from .symmetry import decohere, verify_theorems


def fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal formatting for reproducible files."""
    return format(float(x), ".17g")


def to_json(payload) -> str:
    """Strict JSON: sorted keys, two-space indent, NaN and infinities refused."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


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


def render_sweep(records: list[SweepRecord], errors: list[str], kind: str | None) -> str:
    """The sweep as JSON when ``kind`` is "json", else as CSV."""
    if kind == "json":
        return to_json({"records": [asdict(r) for r in records], "errors": errors})
    return sweep_to_csv(records, errors)


def verdict_to_dict(verdict) -> dict:
    held, equal = verdict.hypotheses_held, verdict.equalities_held
    return {
        "tolerance": verdict.tolerance,
        "hypotheses": {
            name: {"residual": residual, "held": held[name]} for name, residual in verdict.hypotheses.items()
        },
        "equalities": {
            name: {"residual": residual, "held": equal[name], "claimed": verdict.equality_claimed(name)}
            for name, residual in verdict.equalities.items()
        },
        "claimed_equalities_hold": verdict.claimed_equalities_hold,
    }


def theorem_verdicts(scenario: Scenario, tol: float) -> dict:
    """Both theorems' verdicts for the scenario at its own phase."""
    if scenario.conserved is None:
        raise ScenarioError("conserved", "theorem checks need a conserved quantity")
    return verify_theorems(scenario.model, scenario.system_state(), scenario.observable, scenario.conserved, tol)


def render_theorems(verdicts: dict, kind: str | None) -> str:
    """The theorem verdicts as JSON when ``kind`` is "json", else as one
    text line per hypothesis and equality plus a summary per theorem."""
    entries = {name: verdict_to_dict(v) for name, v in verdicts.items()}
    if kind == "json":
        return to_json(entries)
    lines = []
    for name, entry in entries.items():
        tol, hypotheses, equalities = entry["tolerance"], entry["hypotheses"], entry["equalities"]
        for hyp, h in hypotheses.items():
            held = "held" if h["held"] else "broken"
            lines.append(f"{name} hypothesis {hyp}: residual {h['residual']:.3e} (tolerance {tol:.3e}, {held})")
        for eq, e in equalities.items():
            claim, held = "claimed" if e["claimed"] else "not claimed", "held" if e["held"] else "broken"
            lines.append(f"{name} equality {eq}: residual {e['residual']:.3e} (tolerance {tol:.3e}, {claim}, {held})")
        if all(h["held"] for h in hypotheses.values()):
            summary = "hypotheses satisfied; " + (
                "equalities hold" if all(e["held"] for e in equalities.values()) else "EQUALITY FAILED"
            )
        else:
            summary = "hypothesis not satisfied" + (
                "" if entry["claimed_equalities_hold"] else "; CLAIMED EQUALITY FAILED"
            )
        lines.append(f"{name}: {summary}")
    return "".join(line + "\n" for line in lines)


# The keys of an outcome entry of the run report, in the order of the run CSV's columns.
RUN_COLUMNS = ("outcome", "probability", "before", "after", "delta", "weak_value_imag")


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
    probability = _clamped(traces[0].real).tolist()
    weak, after_numerator = traces[1].tolist(), traces[2].real.tolist()
    outcomes = []
    for i in sorted(range(len(labels)), key=labels.__getitem__):
        p = probability[i]
        if not p > P_FLOOR:
            outcomes.append({"outcome": labels[i], "probability": p, "error": "zero-probability outcome"})
            continue
        before, after = weak[i].real / p, after_numerator[i] / p
        outcomes.append(dict(zip(RUN_COLUMNS, (labels[i], p, before, after, after - before, (weak[i] / p).imag))))
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
    writer.writerow(RUN_COLUMNS)
    for entry in report["outcomes"]:
        if "error" in entry:
            buf.write(f"# outcome {entry['outcome']}: {entry['error']} (p={fmt(entry['probability'])})\n")
            continue
        writer.writerow([entry["outcome"], *(fmt(entry[key]) for key in RUN_COLUMNS[1:])])
    return buf.getvalue()
