"""Reports: what ``symcond run``, ``sweep``, ``fig1`` and ``theorems`` print.

``run_report`` forms the report of one scenario at its own phase (p(x),
the conditional values before and after measurement, the theorem
verdicts); ``sweep_columns`` evaluates the coherent-minus-decohered
contrast over a grid of system-state phases, as columns that
``sweep_chunks`` renders piece by piece. CSV renderings write every float
with 17 significant digits and comments as ``#`` lines; JSON is strict
(sorted keys); lines end in "\\n", so identical inputs give
byte-identical output. A report holding a non-finite number is refused
with InvariantViolation before anything is rendered. This module imports
neither the oracles nor the samplers.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .engine import P_FLOOR, CompiledModel, ZeroProbabilityOutcome, _averages, _clamped
from .objects import Violation
from .scenario import InvariantViolation, Scenario, ScenarioError
from .symmetry import decohere, verify_theorems


def fmt(x: float) -> str:
    """Fixed 17-significant-digit decimal formatting for reproducible files."""
    return format(float(x), ".17g")


def to_json(payload) -> str:
    """Strict JSON: sorted keys, two-space indent, NaN and infinities refused."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _require_finite(values: np.ndarray) -> None:
    """Raise InvariantViolation at the first non-finite entry of ``values``.

    A finite, valid scenario can still overflow the evaluation (an
    observable with entries near 1e308): JSON cannot hold the result and
    CSV would print it as a number, so every format refuses it alike,
    before anything is written.
    """
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise InvariantViolation("evaluation", Violation("finite values", float(values.flat[bad[0]])))


def _numbers(node) -> Iterator[float]:
    """Every float of a nested report (dicts, lists, tuples), in order."""
    if isinstance(node, float):
        yield node
    elif isinstance(node, (dict, list, tuple)):
        for child in node.values() if isinstance(node, dict) else node:
            yield from _numbers(child)


# Grid points a sweep evaluates at a time, and rows it renders at a time:
# beyond its numeric columns, a sweep's memory stays flat in the grid size.
SWEEP_CHUNK = 1024


class SweepColumns(NamedTuple):
    """The coherent/decohered contrast of a sweep, one array entry per row.

    Rows are ordered by (grid index, outcome label); ``outcome`` indexes
    ``labels``, the outcome labels sorted. ``errors`` holds one line per
    zero-probability cell, in the same order.
    """

    labels: tuple[str, ...]
    outcome: np.ndarray
    phi: np.ndarray
    probability: np.ndarray
    delta_coherent: np.ndarray
    delta_decohered: np.ndarray
    difference: np.ndarray
    errors: list[str]


def sweep_columns(scenario: Scenario, grid: np.ndarray) -> SweepColumns:
    """Evaluate the conditional-change contrast over a grid of system-state phases.

    For each grid point the scenario's system state at that phase and its
    decohered counterpart (pinched by the system part of the conserved
    quantity) are measured; ``difference`` is delta_coherent −
    delta_decohered, each delta after − before. A cell where either
    branch has p not above P_FLOOR gives no row but an error line (the
    ``ZeroProbabilityOutcome`` text of the first such p) and does not
    abort the sweep; a non-finite value in a row raises InvariantViolation.

    The grid is taken SWEEP_CHUNK points at a time: the chunk's (G, 2, 2)
    stack and its pinched twin, stacked, go through one
    ``CompiledModel.conditional_values`` call, which gives a state the
    same numbers alone or in a stack.
    """
    if scenario.conserved is None:
        raise ScenarioError("conserved", "phase sweeps need a conserved quantity for the decohered branch")
    compiled = CompiledModel(scenario.model, scenario.observable)
    spectrum = scenario.conserved.system_spectrum
    labels = scenario.model.outcomes
    order = sorted(range(len(labels)), key=labels.__getitem__)
    p, delta = np.empty((2, 2, len(grid), len(order)))  # [(p, delta), branch, point, outcome]
    for a in range(0, len(grid), SWEEP_CHUNK):
        states = scenario.system_states(grid[a : a + SWEEP_CHUNK])
        q, before, after = compiled.conditional_values(np.concatenate([states, decohere(states, spectrum)]))
        p[:, a : a + len(states)] = q[:, order].reshape(2, len(states), -1)
        with np.errstate(invalid="ignore"):  # cells at or below the floor hold junk, dropped below
            delta[:, a : a + len(states)] = (after - before)[:, order].reshape(2, len(states), -1)
    kept = (p > P_FLOOR).all(axis=0)
    point, outcome = kept.nonzero()
    coherent, decohered = delta[:, kept]
    difference = coherent - decohered
    _require_finite(difference)  # non-finite wherever either delta is
    names = tuple(labels[i] for i in order)
    errors = []
    for g, j in zip(*(~kept).nonzero()):
        low = next(q for q in p[:, g, j].tolist() if not q > P_FLOOR)
        errors.append(f"phi={fmt(grid[g])} outcome={names[j]}: {ZeroProbabilityOutcome(names[j], low)}")
    return SweepColumns(names, outcome, grid[point], p[0, kept], coherent, decohered, difference, errors)


def _csv_field(text: str) -> str:
    """``text`` as one field of a CSV row, quoted where ``csv.writer`` quotes it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


_SWEEP_CSV_HEADER = (
    "# conditional-change sweep: difference = delta_coherent - delta_decohered\n"
    "# columns: 1:phi(rad) 2:outcome 3:probability 4:delta_coherent 5:delta_decohered 6:difference\n"
    "phi,outcome,probability,delta_coherent,delta_decohered,difference\n"
)


def sweep_chunks(columns: SweepColumns, kind: str | None) -> Iterator[str]:
    """The sweep as JSON when ``kind`` is "json", else as CSV, in pieces of
    at most SWEEP_CHUNK rows, to be written in order as they come.

    CSV: ``_SWEEP_CSV_HEADER``, one row per record with every float to 17
    significant digits, then one ``# error:`` line per error. JSON:
    ``{"errors": [...], "records": [...]}`` as ``to_json`` writes it,
    floats as ``float.__repr__``. Each row is one %-format of a template
    built once per outcome, the label quoted (CSV) or escaped (JSON) in it.
    """
    c = columns
    if kind == "json":
        templates = [
            '\n    {\n      "delta_coherent": %r,\n      "delta_decohered": %r,\n      "difference": %r,\n'
            f'      "outcome": {json.dumps(label).replace("%", "%%")},\n'
            '      "phi": %r,\n      "probability": %r\n    }'
            for label in c.labels
        ]
        fields = (c.delta_coherent, c.delta_decohered, c.difference, c.phi, c.probability)
        errors = ",\n".join(f"    {json.dumps(e)}" for e in c.errors)
        head = '{\n  "errors": ' + (f"[\n{errors}\n  ]" if c.errors else "[]") + ',\n  "records": ['
        tail = ("\n  ]" if len(c.phi) else "]") + "\n}\n"
        joiner = ","
    else:
        templates = [f"%.17g,{_csv_field(label).replace('%', '%%')},%.17g,%.17g,%.17g,%.17g\n" for label in c.labels]
        fields = (c.phi, c.probability, c.delta_coherent, c.delta_decohered, c.difference)
        head, tail, joiner = _SWEEP_CSV_HEADER, "".join(f"# error: {e}\n" for e in c.errors), ""
    yield head
    for a in range(0, len(c.phi), SWEEP_CHUNK):
        rows = zip(c.outcome[a : a + SWEEP_CHUNK].tolist(), zip(*(f[a : a + SWEEP_CHUNK].tolist() for f in fields)))
        yield (joiner if a else "") + joiner.join([templates[o] % values for o, values in rows])
    yield tail


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
    """Both theorems' verdicts for the scenario at its own phase; a
    non-finite residual raises InvariantViolation."""
    if scenario.conserved is None:
        raise ScenarioError("conserved", "theorem checks need a conserved quantity")
    verdicts = verify_theorems(scenario.model, scenario.system_state(), scenario.observable, scenario.conserved, tol)
    _require_finite(np.fromiter(_numbers([[v.hypotheses, v.equalities, v.terms] for v in verdicts.values()]), float))
    return verdicts


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
    sorted by outcome label. A non-finite number anywhere in the report
    raises InvariantViolation.
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
    _require_finite(np.fromiter(_numbers(report), float))
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
