"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import csv
import io
import json
import tracemalloc
import warnings
from functools import cached_property

import numpy as np
import pytest

from symcond import (
    P_FLOOR,
    ConservedQuantity,
    ObservableOp,
    fig1_scenario_path,
    load_scenario,
)
from symcond.cli import (
    EXIT_ASSERT,
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    main,
)
from symcond.oracles import selftest_checks
from symcond.report import SWEEP_CHUNK, run_report, sweep_chunks, sweep_columns
from symcond.sampling import (
    random_conserving_unitary,
    random_density,
    random_diagonal_observable,
    random_number_conserving_model,
)
from symcond.scenario import matrix_to_pairs

FIG1 = str(fig1_scenario_path())


def write_doc(tmp_path, doc, name="case.scenario"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def fig1_doc():
    return json.loads(fig1_scenario_path().read_text())


def test_run_reports_json(capsys):
    rc = main(["run", FIG1])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    total = sum(o["probability"] for o in report["outcomes"])
    assert total == pytest.approx(1.0, abs=1e-10)
    labels = [o["outcome"] for o in report["outcomes"]]
    assert labels == sorted(labels)
    assert report["checks"]["conservation"]["held"]
    assert set(report["theorems"]) == {"theorem1", "theorem2"}


def test_run_csv_format(capsys):
    rc = main(["run", FIG1, "--format", "csv"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    rows = [r for r in out.splitlines() if r and not r.startswith("#")]
    header = rows[0].split(",")
    assert header[0] == "outcome"
    assert len(rows) == 3  # header plus one row per outcome


def test_run_is_deterministic(capsys):
    main(["run", FIG1])
    first = capsys.readouterr().out
    main(["run", FIG1])
    second = capsys.readouterr().out
    assert first == second


def test_run_missing_file_is_parse_error(tmp_path, capsys):
    rc = main(["run", str(tmp_path / "nope.scenario")])
    assert rc == EXIT_PARSE
    assert "error:" in capsys.readouterr().err


def test_run_malformed_json_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.scenario"
    p.write_text("{broken")
    rc = main(["run", str(p)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert "not valid JSON" in err
    # An integer literal past int's 4,300-digit conversion limit makes
    # json.loads raise a plain ValueError, not a JSONDecodeError.
    p.write_text('{"theta": 1' + "0" * 5000 + "}")
    assert main(["run", str(p)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: $: not valid JSON: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize(
    "field",
    [
        "system_state.matrix",
        "model.apparatus_state.matrix",
        "observable.matrix",
        "conserved.system",
        "conserved.apparatus",
    ],
)
def test_non_square_matrix_is_parse_error(tmp_path, capsys, field, command):
    doc = fig1_doc()
    half = matrix_to_pairs(np.eye(2) / 2)
    number = matrix_to_pairs(np.diag([0.0, 1.0]))
    doc["system_state"] = {"matrix": half}
    doc["model"]["apparatus_state"] = {"matrix": half}
    doc["observable"] = {"matrix": matrix_to_pairs(np.diag([-1.0, 1.0]))}
    doc["conserved"] = {"system": number, "apparatus": number}
    *parents, last = field.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[last] = matrix_to_pairs(np.ones((2, 3)) / 2)
    assert main([command, write_doc(tmp_path, doc)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {field}: expected a square matrix, got 2×3\n"


def test_run_invariant_violation_exit_code(tmp_path, capsys):
    doc = fig1_doc()
    doc["system_state"] = {"matrix": [[[0.45, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.45, 0.0]]]}
    rc = main(["run", write_doc(tmp_path, doc)])
    assert rc == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "trace" in err


def test_overflowing_unitary_is_invariant_violation(tmp_path, capsys):
    # U†U overflows to inf and NaN, so the unitarity residual is NaN; a NaN
    # residual must fail validation rather than pass it.
    u = np.full((4, 4), 1e200)
    u[1::2] *= -1

    def diag(*d):
        return matrix_to_pairs(np.diag(d))

    doc = {
        "model": {
            "kind": "explicit",
            "unitary": matrix_to_pairs(u),
            "apparatus_state": {"matrix": diag(1.0, 0.0)},
            "pointer": {"outcomes": ["a", "b"], "projectors": [diag(1.0, 0.0), diag(0.0, 1.0)]},
        },
        "system_state": {"matrix": diag(0.5, 0.5)},
        "observable": "sigma_z",
    }
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["run", write_doc(tmp_path, doc)])
    captured = capsys.readouterr()
    assert rc == EXIT_INVARIANT
    assert captured.out == ""
    assert "error: model: invariant 'unitarity' violated" in captured.err


@pytest.mark.parametrize("banded", [False, True])
def test_overflowing_unitary_prints_only_the_error_line(tmp_path, banded):
    # Run as its own process, outside pytest's warning capture: an entry
    # of 1e308 overflows U†U (dense route) or a sector block (band route,
    # a JC unitary at n = 128), and stderr carries the one error line,
    # no RuntimeWarning.
    import os
    import subprocess
    import sys
    from pathlib import Path

    from symcond.jaynes_cummings import JCModelSpec, jc_unitary_closed_form

    dim_a = 64 if banded else 2
    u = jc_unitary_closed_form(JCModelSpec(2, dim_a, theta=0.7)) if banded else np.eye(4, dtype=complex)
    u[5 if banded else 0, 5 if banded else 1] = 1e308

    def diag(*d):
        return matrix_to_pairs(np.diag(d))

    half = [1.0] * (dim_a // 2) + [0.0] * (dim_a // 2)
    doc = {
        "model": {
            "kind": "explicit",
            "unitary": matrix_to_pairs(u),
            "apparatus_state": {"matrix": diag(*[1.0 / dim_a] * dim_a)},
            "pointer": {"outcomes": ["a", "b"], "projectors": [diag(*half), diag(*half[::-1])]},
        },
        "system_state": {"matrix": diag(0.5, 0.5)},
        "observable": "sigma_z",
    }
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, "-m", "symcond", "run", write_doc(tmp_path, doc)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == EXIT_INVARIANT
    assert proc.stdout == ""
    assert proc.stderr == "error: model: invariant 'unitarity' violated (residual nan)\n"


def overflowing_observable_doc():
    # Hermitian and finite, so it passes validation, yet entries near the
    # largest double overflow the conditional values and the residuals.
    doc = fig1_doc()
    big = 1.7e308
    doc["observable"] = {"matrix": [[[big, 0.0], [big, 0.0]], [[big, 0.0], [-big, 0.0]]]}
    return doc


@pytest.mark.parametrize(
    "command, flags",
    [
        ("run", []),
        ("run", ["--format", "csv"]),
        ("sweep", []),
        ("sweep", ["--format", "json"]),
        ("theorems", []),
        ("theorems", ["--format", "json"]),
    ],
)
def test_overflowing_evaluation_is_invariant_violation(command, flags, tmp_path, capsys):
    # Every command that evaluates a scenario file, in every format: one
    # error line, nothing on stdout, exit 3, and no numpy warning (turned
    # into an exception here). fig1 reads only the bundled scenario.
    path = write_doc(tmp_path, overflowing_observable_doc())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([command, path, *flags])
    captured = capsys.readouterr()
    assert rc == EXIT_INVARIANT
    assert captured.out == ""
    assert captured.err.startswith("error: evaluation: invariant 'finite values' violated (residual ")
    assert captured.err.count("\n") == 1


def test_sweep_with_explicit_grid(capsys):
    rc = main(["sweep", FIG1, "--from", "0", "--to", "3.14159", "--steps", "3", "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["records"]) == 6  # 3 grid points x 2 outcomes
    assert doc["errors"] == []


def test_sweep_csv_shape(capsys):
    rc = main(["sweep", FIG1, "--from", "0", "--to", "1.0", "--steps", "2"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    lines = out.split("\n")
    data = [l for l in lines if l and not l.startswith("#")]
    assert data[0] == "phi,outcome,probability,delta_coherent,delta_decohered,difference"
    assert len(data) == 5
    reader = csv.DictReader(data)
    first = next(reader)
    assert float(first["phi"]) == pytest.approx(0.0)


def test_sweep_needs_a_grid(tmp_path, capsys):
    doc = fig1_doc()
    del doc["sweep"]
    rc = main(["sweep", write_doc(tmp_path, doc)])
    assert rc == EXIT_PARSE
    assert "sweep" in capsys.readouterr().err


def test_sweep_scenario_grid_is_used(tmp_path, capsys):
    doc = fig1_doc()
    doc["sweep"]["steps"] = 5
    rc = main(["sweep", write_doc(tmp_path, doc), "--format", "json"])
    assert rc == EXIT_OK
    doc_out = json.loads(capsys.readouterr().out)
    assert len(doc_out["records"]) == 10


def test_sweep_reports_zero_probability_outcomes(tmp_path, capsys):
    # The swap scenario: outcome "-" is impossible at phase 0 and 2π,
    # outcome "+" at phase π.
    doc = swap_doc()
    rc = main(["sweep", write_doc(tmp_path, doc), "--from", "0", "--to", str(2 * np.pi), "--steps", "5"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert [l for l in out.splitlines() if l.startswith("# error:")] == [
        "# error: phi=0 outcome=-: outcome '-' has probability 0.000e+00, not above 1e-12",
        "# error: phi=3.1415926535897931 outcome=+: outcome '+' has probability 0.000e+00, not above 1e-12",
        "# error: phi=6.2831853071795862 outcome=-: outcome '-' has probability 0.000e+00, not above 1e-12",
    ]
    assert len([l for l in out.splitlines() if l and not l.startswith("#")]) == 1 + 7


def _plain(node) -> bool:
    """Whether a report holds only the types the json module writes natively."""
    if type(node) is dict:
        return all(type(k) is str and _plain(v) for k, v in node.items())
    if type(node) is list:
        return all(_plain(v) for v in node)
    return type(node) in (str, int, float, bool, type(None))


def test_reports_hold_plain_scalars(tmp_path, capsys):
    # Round-off makes every residual of this number-conserving model nonzero,
    # so a numpy scalar anywhere in the report would reach the encoder.
    rng = np.random.default_rng(5)
    model, quantity = random_number_conserving_model(2, 3, rng)
    doc = {
        "model": {
            "kind": "explicit",
            "unitary": matrix_to_pairs(model.unitary),
            "apparatus_state": {"matrix": matrix_to_pairs(model.apparatus_state.matrix)},
            "pointer": {
                "outcomes": list(model.outcomes),
                "projectors": [matrix_to_pairs(p) for p in model.pointer.projectors],
            },
        },
        "system_state": {"matrix": matrix_to_pairs(random_density(2, rng).matrix)},
        "observable": {"matrix": matrix_to_pairs(random_diagonal_observable(2, rng).matrix)},
        "conserved": {
            "system": matrix_to_pairs(quantity.system_part.matrix),
            "apparatus": matrix_to_pairs(quantity.apparatus_part.matrix),
        },
    }
    path = write_doc(tmp_path, doc)
    report = run_report(load_scenario(path), 1e-9)
    assert _plain(report)
    assert report["checks"]["conservation"]["residual"] > 0.0
    assert report["theorems"]["theorem2"]["equalities"]["before_chain"]["residual"] > 0.0

    for argv in (["run", path], ["theorems", path, "--format", "json"]):
        assert main(argv) == EXIT_OK
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert _plain(payload)
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
def test_tol_flag_must_be_finite_and_positive(value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["theorems", FIG1, "--tol", value])
    assert exc.value.code == EXIT_PARSE
    assert "--tol" in capsys.readouterr().err


def test_flags_are_only_accepted_where_they_are_read(tmp_path, capsys):
    # Each subcommand registers only the shared flags it reads, so a flag
    # that would be ignored is a usage error instead.
    out = str(tmp_path / "unused.csv")
    for argv in (
        ["selftest", "--format", "json", "--tol", "5"],
        ["fig1", "--out", out, "--tol", "1e-30"],
        ["sweep", FIG1, "--tol", "1e-9"],
        ["run", FIG1, "--quiet"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_PARSE
        assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "unused.csv").exists()


def test_format_takes_only_the_values_each_subcommand_writes(tmp_path, capsys):
    # theorems writes json or its text report, so csv is a usage error, and
    # each subcommand's help names the format it writes without the flag.
    with pytest.raises(SystemExit) as exc:
        main(["theorems", FIG1, "--format", "csv"])
    assert exc.value.code == EXIT_PARSE
    assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err
    assert main(["theorems", FIG1, "--format", "json"]) == EXIT_OK
    assert list(json.loads(capsys.readouterr().out)) == ["theorem1", "theorem2"]
    out = str(tmp_path / "curve")
    for argv, default, head in (
        (["run", FIG1], "json", "{"),
        (["sweep", FIG1, "--steps", "2"], "csv", "# conditional-change sweep"),
        (["fig1", "--out", out, "--quiet"], "csv", "# conditional-change sweep"),
        (["theorems", FIG1], "text", "theorem1 hypothesis conservation: "),
    ):
        assert main(argv) == EXIT_OK
        written = (tmp_path / "curve").read_text() if argv[0] == "fig1" else capsys.readouterr().out
        assert written.startswith(head), argv
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--help"])
        assert exc.value.code == EXIT_OK
        assert f"output format (default: {default})" in " ".join(capsys.readouterr().out.split())


def test_non_finite_scenario_number_is_parse_error(tmp_path, capsys):
    doc = fig1_doc()
    doc["system_state"]["coherent"]["polar"] = float("nan")
    assert main(["run", write_doc(tmp_path, doc)]) == EXIT_PARSE
    doc = fig1_doc()
    doc["tolerance"] = float("nan")
    assert main(["theorems", write_doc(tmp_path, doc)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "polar: expected a finite number" in err
    assert "tolerance: expected a finite number" in err


def test_jaynes_cummings_size_is_bounded_before_building(tmp_path, capsys):
    # 2**40 levels could never be allocated; the bound must reject the
    # document by its field before any array of that size is asked for.
    doc = fig1_doc()
    doc["model"]["dim_a"] = 2**40
    assert main(["run", write_doc(tmp_path, doc)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: model.dim_a: " in captured.err
    assert "2048" in captured.err


@pytest.mark.parametrize("command, max_compiles", [(["run", FIG1], 2), (["theorems", FIG1], 2)])
def test_theorem_inputs_are_measured_once(command, max_compiles, monkeypatch, capsys):
    import symcond.report
    import symcond.symmetry

    counts = {"compile": 0, "traces": 0, "conservation": 0, "yanase": 0, "symmetric": 0}

    class CountingModel(symcond.symmetry.CompiledModel):
        def __init__(self, *args):
            counts["compile"] += 1
            super().__init__(*args)

        def traces(self, states):
            counts["traces"] += 1
            return super().traces(states)

    def counting(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(symcond.report, "CompiledModel", CountingModel)
    monkeypatch.setattr(symcond.symmetry, "CompiledModel", CountingModel)
    monkeypatch.setattr(symcond.symmetry, "check_conservation", counting("conservation", symcond.symmetry.check_conservation))
    monkeypatch.setattr(symcond.symmetry, "check_yanase", counting("yanase", symcond.symmetry.check_yanase))
    symmetric = counting("symmetric", symcond.symmetry.check_symmetric_product_state)
    monkeypatch.setattr(symcond.symmetry, "check_symmetric_product_state", symmetric)
    # Counted too if the report binds the residual under its own name.
    monkeypatch.setattr(symcond.report, "check_symmetric_product_state", symmetric, raising=False)
    main(command)
    capsys.readouterr()
    assert counts["compile"] <= max_compiles
    # Both theorems read one stack [ρ, Φ(ρ)] under each of the two
    # compiles; the run report evaluates ρ once more for its outcome rows.
    assert counts["traces"] <= {"run": 3, "theorems": 2}[command[0]]
    assert counts["conservation"] == 1
    assert counts["yanase"] == 1
    # Theorem 2 needs ρ⊗ϱ and ρ⊗Φ(ϱ); the run report reads the first.
    assert counts["symmetric"] == 2


def test_decohered_twin_shares_the_unitary_and_its_band(tmp_path, monkeypatch, capsys):
    # At n = 128 the JC unitary has a band view. The decohered-apparatus
    # model of the theorem checks differs only in ϱ: it must reuse U and the
    # band, not copy U and scan it again.
    import symcond.report
    import symcond.symmetry
    from symcond.objects import MeasurementModel

    detect, scans = MeasurementModel.band.func, []
    band = cached_property(lambda model: scans.append(model) or detect(model))
    band.__set_name__(MeasurementModel, "band")
    monkeypatch.setattr(MeasurementModel, "band", band)
    models = []

    class RecordingModel(symcond.symmetry.CompiledModel):
        def __init__(self, model, observable):
            models.append(model)
            super().__init__(model, observable)

    monkeypatch.setattr(symcond.report, "CompiledModel", RecordingModel)
    monkeypatch.setattr(symcond.symmetry, "CompiledModel", RecordingModel)
    doc = fig1_doc()
    dim_a = 64
    doc["model"].update(dim_a=dim_a, apparatus_state={"matrix": matrix_to_pairs(random_density(dim_a, np.random.default_rng(9)).matrix)})
    doc["model"]["pointer"] = {"outcomes": ["low", "high"], "blocks": [list(range(32)), list(range(32, 64))]}
    assert main(["run", write_doc(tmp_path, doc)]) == EXIT_OK
    capsys.readouterr()
    original, twin = models
    assert twin is not original and twin.unitary is original.unitary and twin.pointer is original.pointer
    assert twin.band is original.band is not None
    assert len(scans) == 1


@pytest.mark.parametrize(
    "flags, field",
    [(["--from", "nan"], "sweep.from"), (["--to", "inf"], "sweep.to"), (["--steps", "1"], "sweep.steps")],
)
def test_sweep_grid_must_be_finite_with_two_points(flags, field, capsys):
    assert main(["sweep", FIG1, *flags]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {field}: " in captured.err


@pytest.mark.parametrize("source", ["flag", "scenario"])
def test_sweep_size_is_bounded_before_building(source, tmp_path, capsys):
    # 10**13 points could never be held; the bound must reject them by
    # field, whether from --steps or the scenario, before any array of
    # that size is asked for.
    doc = fig1_doc()
    if source == "scenario":
        doc["sweep"]["steps"] = 10**13
        argv = ["sweep", write_doc(tmp_path, doc)]
    else:
        argv = ["sweep", FIG1, "--steps", str(10**13)]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_PARSE
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: sweep.steps: " in captured.err
    from symcond.scenario import MAX_SWEEP_ROWS

    assert f"{10**13} points × 2 outcomes exceed {MAX_SWEEP_ROWS} rows" in captured.err
    # One point past the limit is rejected too; fig1 has two outcomes.
    assert main(["sweep", FIG1, "--steps", str(MAX_SWEEP_ROWS // 2 + 1)]) == EXIT_PARSE
    assert main(["sweep", FIG1, "--steps", "2"]) == EXIT_OK


def per_point_sweep(scenario, grid):
    """The sweep evaluated one grid point at a time, one conditional_values()
    call per state, and one outcome at a time: the reference for the
    stacked sweep, as one dict per row and the error lines."""
    from symcond import P_FLOOR, CompiledModel, ZeroProbabilityOutcome, decohere

    compiled = CompiledModel(scenario.model, scenario.observable)
    labels = scenario.model.outcomes
    records, errors = [], []
    for phi in grid:
        state = scenario.system_state(float(phi)).matrix
        cells = [
            [a.tolist() for a in compiled.conditional_values(s)]
            for s in (state, decohere(state, scenario.conserved.system_part))
        ]
        for outcome in sorted(labels):
            i = labels.index(outcome)
            (p, before, after), (p_dec, before_dec, after_dec) = ([a[i] for a in cell] for cell in cells)
            low = [q for q in (p, p_dec) if not q > P_FLOOR]
            if low:
                errors.append(f"phi={format(float(phi), '.17g')} outcome={outcome}: {ZeroProbabilityOutcome(outcome, low[0])}")
                continue
            delta, delta_dec = after - before, after_dec - before_dec
            records.append(
                {
                    "phi": float(phi),
                    "outcome": outcome,
                    "probability": p,
                    "delta_coherent": delta,
                    "delta_decohered": delta_dec,
                    "difference": delta - delta_dec,
                }
            )
    return records, errors


def column_records(columns):
    """The sweep columns as one dict per row, as ``per_point_sweep`` gives them."""
    return [
        {
            "phi": phi,
            "outcome": columns.labels[o],
            "probability": p,
            "delta_coherent": dc,
            "delta_decohered": dd,
            "difference": diff,
        }
        for o, phi, p, dc, dd, diff in zip(
            *(
                c.tolist()
                for c in (
                    columns.outcome,
                    columns.phi,
                    columns.probability,
                    columns.delta_coherent,
                    columns.delta_decohered,
                    columns.difference,
                )
            )
        )
    ]


@pytest.mark.parametrize("zero_outcome", [False, True])
def test_stacked_sweep_equals_per_point_reports(zero_outcome, tmp_path):
    # Same rows, values, error lines and order as evaluating each point
    # alone. With both qubits in |0⟩ the "+" outcome has p ≈ 0 everywhere.
    doc = fig1_doc()
    if zero_outcome:
        doc["system_state"]["coherent"]["polar"] = np.pi
        doc["model"]["apparatus_state"]["coherent"]["polar"] = np.pi
    scenario = load_scenario(write_doc(tmp_path, doc))
    grid = np.linspace(-1.3, 7.9, 37)
    columns = sweep_columns(scenario, grid)
    assert (column_records(columns), columns.errors) == per_point_sweep(scenario, grid)
    assert bool(columns.errors) == zero_outcome


def reference_csv(records, errors):
    """The per-record CSV renderer the chunked writer replaced: the csv
    module's quoting, one ``format(x, ".17g")`` per float."""
    buf = io.StringIO()
    buf.write("# conditional-change sweep: difference = delta_coherent - delta_decohered\n")
    buf.write("# columns: 1:phi(rad) 2:outcome 3:probability 4:delta_coherent 5:delta_decohered 6:difference\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["phi", "outcome", "probability", "delta_coherent", "delta_decohered", "difference"])
    for r in records:
        writer.writerow(
            [format(r[key], ".17g") if key != "outcome" else r[key] for key in r]
        )
    for e in errors:
        buf.write(f"# error: {e}\n")
    return buf.getvalue()


def reference_json(records, errors):
    """The per-record JSON renderer the chunked writer replaced: one
    ``json.dumps`` of the whole payload."""
    return json.dumps({"records": records, "errors": errors}, indent=2, sort_keys=True, allow_nan=False) + "\n"


def swap_doc():
    """A swap hands the system state to the apparatus, so the pointer reads
    the coherent state in the |±⟩ basis: at phase 0 (and 2π) outcome "-"
    is impossible, at phase π outcome "+" is."""

    def pairs(rows):
        return [[[float(x), 0.0] for x in row] for row in rows]

    return {
        "model": {
            "kind": "explicit",
            "unitary": pairs([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
            "apparatus_state": {"matrix": pairs([[1, 0], [0, 0]])},
            "pointer": {
                "outcomes": ["+", "-"],
                "projectors": [pairs([[0.5, 0.5], [0.5, 0.5]]), pairs([[0.5, -0.5], [-0.5, 0.5]])],
            },
        },
        "system_state": {"coherent": {"polar": np.pi / 2, "phase": 0.0}},
        "observable": "sigma_z",
        "conserved": {"system": pairs([[0, 0], [0, 1]]), "apparatus": pairs([[0, 0], [0, 1]])},
    }


def labelled_fig1_doc(*labels):
    doc = fig1_doc()
    doc["model"]["pointer"]["outcomes"] = list(labels)
    return doc


SWEEP_CASES = {
    "fig1-own-grid": (fig1_doc, lambda: load_scenario(FIG1).sweep.grid()),
    "fig1-wrapped-grid": (fig1_doc, lambda: np.linspace(-1.3, 7.9, 37)),
    "swap-zero-probability": (swap_doc, lambda: np.linspace(0.0, 2 * np.pi, 9)),
    "csv-quoted-labels": (lambda: labelled_fig1_doc("a,b", 'q"t'), lambda: np.linspace(0.0, 1.0, 3)),
    "non-ascii-labels": (lambda: labelled_fig1_doc("é", "50% 𝜑"), lambda: np.linspace(0.0, 1.0, 3)),
    "chunk-1": (fig1_doc, lambda: np.linspace(0.0, 2 * np.pi, SWEEP_CHUNK - 1)),
    "chunk": (fig1_doc, lambda: np.linspace(0.0, 2 * np.pi, SWEEP_CHUNK)),
    "chunk+1": (swap_doc, lambda: np.linspace(0.0, 2 * np.pi, SWEEP_CHUNK + 1)),
}


@pytest.mark.parametrize("kind", ["csv", "json"])
@pytest.mark.parametrize("case", SWEEP_CASES)
def test_sweep_chunks_equal_the_per_record_renderers(case, kind, tmp_path):
    # The columns, written chunk by chunk with one %-format per row, give
    # the bytes the per-record renderers give for the per-point reference:
    # labels quoted, escaped and %-safe, error lines in place, and grids
    # one point either side of a chunk boundary.
    doc, grid = SWEEP_CASES[case]
    scenario = load_scenario(write_doc(tmp_path, doc()))
    grid = grid()
    reference = reference_json if kind == "json" else reference_csv
    assert "".join(sweep_chunks(sweep_columns(scenario, grid), kind)) == reference(*per_point_sweep(scenario, grid))


@pytest.mark.parametrize("kind", ["csv", "json"])
def test_all_error_sweep_writes_no_records(kind, tmp_path, monkeypatch):
    # With the floor above every probability, each cell is an error line
    # and the JSON records list is empty.
    import symcond.report

    monkeypatch.setattr(symcond.report, "P_FLOOR", 2.0)
    scenario = load_scenario(FIG1)
    grid = np.linspace(0.0, 1.0, 3)
    columns = sweep_columns(scenario, grid)
    assert len(columns.phi) == 0 and len(columns.errors) == 6
    text = "".join(sweep_chunks(columns, kind))
    assert text == (reference_json if kind == "json" else reference_csv)([], columns.errors)
    if kind == "json":
        assert '\n  "records": []\n}\n' in text


def test_sweep_chunks_are_written_as_formed(capsys, monkeypatch):
    # The CLI writes each piece as the writer yields it, never one string
    # of the whole sweep: a grid of 2·SWEEP_CHUNK + 1 points gives two
    # outcomes' rows in 5 row pieces between the header and the tail.
    import sys

    writes = []
    real = sys.stdout

    class Recorder:
        def write(self, text):
            writes.append(text)
            return real.write(text)

        def writelines(self, lines):
            for line in lines:
                self.write(line)

    monkeypatch.setattr(sys, "stdout", Recorder())
    assert main(["sweep", FIG1, "--steps", str(2 * SWEEP_CHUNK + 1)]) == EXIT_OK
    assert len(writes) == 1 + 5 + 1
    assert max(w.count("\n") for w in writes) == SWEEP_CHUNK


def test_selftest_decomposes_each_random_observable_once(monkeypatch):
    import symcond.linalg
    import symcond.oracles
    import symcond.symmetry

    # Only the decoherence-algebra check decomposes non-diagonal operators
    # (the other checks pinch by number operators). Each of its 20 random
    # L must be decomposed once, not once per pinching.
    dense = []
    real = symcond.linalg.hermitian_eig

    def counting(h, *args):
        h = np.asarray(h)
        if np.count_nonzero(h - np.diag(np.diagonal(h))):
            dense.append(h.tobytes())
        return real(h, *args)

    monkeypatch.setattr(symcond.oracles, "hermitian_eig", counting, raising=False)
    monkeypatch.setattr(symcond.symmetry, "hermitian_eig", counting)
    checks = {name: residual for name, residual, _ in selftest_checks(42)}
    assert checks["decoherence_algebra"] < 1e-10
    assert len(dense) == 20
    assert len(set(dense)) == 20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fig1_is_the_bundled_scenario_sweep(fmt, tmp_path, capsys):
    out = tmp_path / f"curve.{fmt}"
    assert main(["fig1", "--out", str(out), "--format", fmt, "--quiet"]) == EXIT_OK
    assert main(["sweep", FIG1, "--format", fmt]) == EXIT_OK
    assert out.read_bytes() == capsys.readouterr().out.encode("utf-8")


def test_fig1_writes_canonical_file(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["fig1", "--out", str(out)])
    assert rc == EXIT_OK
    assert "wrote 402 records" in capsys.readouterr().out
    text = out.read_text()
    lines = text.split("\n")
    data = [l for l in lines if l and not l.startswith("#")]
    assert len(data) == 403  # header + 201 points x 2 outcomes
    rows = list(csv.DictReader(data))
    # phase 0 and pi sit on the grid; the coherent and decohered branches
    # must agree there
    by_phase = {}
    for r in rows:
        by_phase.setdefault(float(r["phi"]), []).append(float(r["difference"]))
    assert max(abs(d) for d in by_phase[0.0]) < 1e-9
    pi_key = min(by_phase, key=lambda k: abs(k - np.pi))
    assert pi_key == pytest.approx(np.pi, abs=1e-12)
    assert max(abs(d) for d in by_phase[pi_key]) < 1e-9
    # at pi/2 the interference term is live
    half_key = min(by_phase, key=lambda k: abs(k - np.pi / 2))
    assert max(abs(d) for d in by_phase[half_key]) > 1e-3


def test_fig1_output_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["fig1", "--out", str(a), "--quiet"]) == EXIT_OK
    assert main(["fig1", "--out", str(b), "--quiet"]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_fig1_periodicity_endpoints(tmp_path):
    out = tmp_path / "curve.csv"
    main(["fig1", "--out", str(out), "--quiet"])
    data = [l for l in out.read_text().split("\n") if l and not l.startswith("#")]
    rows = list(csv.DictReader(data))
    first = [r for r in rows if float(r["phi"]) == 0.0]
    last = [r for r in rows if r is rows[-1] or r is rows[-2]]
    for f, l in zip(first, last):
        assert f["outcome"] == l["outcome"]
        for col in ("probability", "delta_coherent", "delta_decohered"):
            assert float(f[col]) == pytest.approx(float(l[col]), abs=1e-9)


def test_fig1_unwritable_path_is_io_error(tmp_path, capsys):
    rc = main(["fig1", "--out", str(tmp_path / "missing" / "curve.csv")])
    assert rc == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_theorems_fig1_passes(capsys):
    rc = main(["theorems", FIG1])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "theorem1" in out and "theorem2" in out


def test_theorems_json_structure(capsys):
    rc = main(["theorems", FIG1, "--format", "json"])
    assert rc == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"theorem1", "theorem2"}
    t2 = doc["theorem2"]
    assert t2["claimed_equalities_hold"] is True
    assert "symmetric_state" in t2["hypotheses"]


def test_theorems_require_distinguishes_branches(tmp_path, capsys):
    # The bundled phase-zero state has live coherences, so the first
    # theorem's state hypothesis fails while the second theorem holds.
    rc1 = main(["theorems", FIG1, "--require", "theorem1", "--quiet"])
    assert rc1 == EXIT_ASSERT
    capsys.readouterr()
    rc2 = main(["theorems", FIG1, "--require", "theorem2", "--quiet"])
    assert rc2 == EXIT_OK
    capsys.readouterr()


def test_theorems_asymmetric_phase(tmp_path, capsys):
    doc = fig1_doc()
    doc["system_state"]["coherent"]["phase"] = 0.4 * np.pi
    path = write_doc(tmp_path, doc)
    # nothing is claimed, so the default mode passes...
    rc = main(["theorems", path, "--quiet"])
    assert rc == EXIT_OK
    capsys.readouterr()
    # ...but demanding the second theorem exposes the broken hypothesis
    rc = main(["theorems", path, "--require", "theorem2", "--quiet"])
    assert rc == EXIT_ASSERT
    capsys.readouterr()


def test_theorems_yanase_is_per_projector_whatever_the_values(tmp_path, capsys):
    # Equal outcome values make Σ_x v_x P^x = 1, which commutes with any
    # L_A; the number-basis projectors do not commute with L_A = σ_x
    # (‖[P^x, σ_x]‖_F = √2). A Yanase check on the values would pass and
    # turn theorem 1's failing equality into a false counterexample.
    rng = np.random.default_rng(0)
    sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
    quantity = ConservedQuantity(ObservableOp(np.diag([0.0, 1.0])), ObservableOp(sigma_x))
    doc = {
        "model": {
            "kind": "explicit",
            "unitary": matrix_to_pairs(random_conserving_unitary(quantity, rng)),
            "apparatus_state": {"matrix": matrix_to_pairs(np.diag([0.7, 0.3]))},
            "pointer": {
                "outcomes": ["a", "b"],
                "projectors": [matrix_to_pairs(np.diag([1.0, 0.0])), matrix_to_pairs(np.diag([0.0, 1.0]))],
                "values": [1.0, 1.0],
            },
        },
        "system_state": {"matrix": matrix_to_pairs(np.diag([0.6, 0.4]))},
        "observable": "sigma_z",
        "conserved": {
            "system": matrix_to_pairs(quantity.system_part.matrix),
            "apparatus": matrix_to_pairs(sigma_x),
        },
    }
    rc = main(["theorems", write_doc(tmp_path, doc), "--format", "json"])
    verdict = json.loads(capsys.readouterr().out)["theorem1"]
    assert rc == EXIT_OK
    assert verdict["hypotheses"]["yanase"]["residual"] == pytest.approx(np.sqrt(2), abs=1e-12)
    assert not verdict["hypotheses"]["yanase"]["held"]
    for name in ("conservation", "observable_commutes", "state_commutes"):
        assert verdict["hypotheses"][name]["held"]
    # The equality really fails here; it is just no longer claimed.
    assert not verdict["equalities"]["system_commutes_before"]["held"]
    assert not verdict["equalities"]["system_commutes_before"]["claimed"]


def test_pointer_without_a_level_table_is_invariant_violation(tmp_path, capsys):
    # The projectors pass the dense checks at the scenario tolerance (their
    # overlap is 5e-10) but share no eigenbasis to within DEFAULT_TOL, so
    # no route can read them: exit 3, never a traceback or a number.
    v = np.array([5e-10, 1.0]) / np.hypot(5e-10, 1.0)
    doc = {
        "model": {
            "kind": "explicit",
            "unitary": matrix_to_pairs(np.eye(4)),
            "apparatus_state": {"matrix": matrix_to_pairs(np.diag([0.5, 0.5]))},
            "pointer": {"outcomes": ["a", "b"], "projectors": [matrix_to_pairs(np.diag([1.0, 0.0])), matrix_to_pairs(np.outer(v, v))]},
        },
        "system_state": {"matrix": matrix_to_pairs(np.diag([0.5, 0.5]))},
        "observable": "sigma_z",
        "tolerance": 1e-9,
    }
    assert main(["run", write_doc(tmp_path, doc)]) == EXIT_INVARIANT
    assert "error: model: invariant 'pointer.commutation' violated" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["jaynes-cummings", "explicit"])
def test_duplicate_outcome_labels_name_the_outcomes_field(kind, tmp_path, capsys):
    doc = fig1_doc()
    if kind == "explicit":
        doc["model"] = {
            "kind": "explicit",
            "unitary": matrix_to_pairs(np.eye(4)),
            "apparatus_state": {"matrix": matrix_to_pairs(np.diag([1.0, 0.0]))},
            "pointer": {"projectors": [matrix_to_pairs(np.diag([1.0, 0.0])), matrix_to_pairs(np.diag([0.0, 1.0]))]},
        }
    doc["model"]["pointer"]["outcomes"] = ["+", "+"]
    rc = main(["run", write_doc(tmp_path, doc)])
    assert rc == EXIT_PARSE
    assert "error: model.pointer.outcomes: duplicate outcome labels in ('+', '+')" in capsys.readouterr().err


def zero_outcome_doc():
    # Both polars at π put both qubits in their ground level, so outcome "+"
    # is impossible: its p(x) is rounding noise (~4e-33), not above P_FLOOR.
    doc = fig1_doc()
    doc["model"]["apparatus_state"]["coherent"]["polar"] = np.pi
    doc["system_state"]["coherent"]["polar"] = np.pi
    return doc


@pytest.mark.parametrize(
    "label",
    ["+\n0.5,+,1,2,3,4", "a\rb", "\x00", "tab\t", "\u2028"],
    ids=["newline-row", "carriage-return", "nul", "tab", "line-separator"],
)
@pytest.mark.parametrize("argv", [["run", "--format", "csv"], ["sweep", "--steps", "2"]], ids=["run-csv", "sweep"])
def test_non_printable_outcome_labels_name_the_outcomes_field(label, argv, tmp_path, capsys):
    # A line break in a label written into a "#" comment would start a CSV
    # data row of the label's choosing; every such label is rejected.
    doc = zero_outcome_doc()
    doc["model"]["pointer"]["outcomes"] = [label, "-"]
    command, *flags = argv
    assert main([command, write_doc(tmp_path, doc), *flags]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: model.pointer.outcomes: ")
    assert "non-printable" in captured.err


def test_run_reports_a_zero_probability_outcome_as_an_error_entry(tmp_path, capsys):
    path = write_doc(tmp_path, zero_outcome_doc())
    assert main(["run", path]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    bad, good = report["outcomes"]
    assert set(bad) == {"outcome", "probability", "error"}
    assert bad["outcome"] == "+" and bad["error"] == "zero-probability outcome"
    assert 0 < bad["probability"] <= P_FLOOR
    assert good["outcome"] == "-" and good["probability"] == 1.0
    # The averages sum only the outcomes above the floor.
    assert report["averages"] == {"before": good["before"], "after": good["after"]}

    assert main(["run", path, "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert f"# outcome +: zero-probability outcome (p={format(bad['probability'], '.17g')})" in lines
    rows = [line for line in lines if not line.startswith("#")]
    assert [row.split(",")[0] for row in rows] == ["outcome", "-"]


def test_run_rows_follow_label_order_not_model_order(tmp_path, capsys):
    doc = fig1_doc()
    pointer = doc["model"]["pointer"]
    pointer["outcomes"], pointer["blocks"], pointer["values"] = ["b", "a"], [[1], [0]], [1.0, -1.0]
    path = write_doc(tmp_path, doc)
    assert main(["run", path]) == EXIT_OK
    assert [o["outcome"] for o in json.loads(capsys.readouterr().out)["outcomes"]] == ["a", "b"]
    assert main(["run", path, "--format", "csv"]) == EXIT_OK
    rows = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert [row.split(",")[0] for row in rows] == ["outcome", "a", "b"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep"], "phase sweeps need a conserved quantity for the decohered branch"),
        (["theorems"], "theorem checks need a conserved quantity"),
    ],
)
def test_sweep_and_theorems_need_a_conserved_quantity(argv, message, tmp_path, capsys):
    # An explicit model declares no conserved quantity unless the document does.
    doc = {
        "model": {
            "kind": "explicit",
            "unitary": matrix_to_pairs(np.eye(4)),
            "apparatus_state": {"matrix": matrix_to_pairs(np.diag([1.0, 0.0]))},
            "pointer": {
                "outcomes": ["a", "b"],
                "projectors": [matrix_to_pairs(np.diag([1.0, 0.0])), matrix_to_pairs(np.diag([0.0, 1.0]))],
            },
        },
        "system_state": {"coherent": {"polar": 1.0, "phase": 0.0}},
        "observable": "sigma_z",
        "sweep": {"parameter": "phase", "from": 0.0, "to": 1.0, "steps": 3},
    }
    assert main([*argv, write_doc(tmp_path, doc)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: conserved: {message}\n"


def test_theorems_require_fails_when_a_hypothesis_breaks(tmp_path, capsys):
    # Off phase 0 the state has a coherence the symmetric-state hypothesis forbids.
    doc = fig1_doc()
    doc["system_state"]["coherent"]["phase"] = 0.7
    assert main(["theorems", write_doc(tmp_path, doc), "--require", "theorem2"]) == EXIT_ASSERT
    captured = capsys.readouterr()
    assert "theorem2 hypothesis symmetric_state: " in captured.out and "broken" in captured.out
    assert captured.err == "required theorem2 does not hold\n"


def test_selftest_passes_and_is_seeded(capsys, monkeypatch):
    monkeypatch.setenv("SYMCOND_SEED", "7")
    rc = main(["selftest"])
    assert rc == EXIT_OK
    first = capsys.readouterr().out
    assert "PASS" in first and "FAIL" not in first
    rc = main(["selftest"])
    assert rc == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


def test_selftest_seed_must_be_a_non_negative_integer(capsys, monkeypatch):
    for text in ("abc", "-1", "1e3"):
        monkeypatch.setenv("SYMCOND_SEED", text)
        assert main(["selftest"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SYMCOND_SEED: ") and repr(text) in captured.err


def test_selftest_seed_takes_what_int_takes(capsys, monkeypatch):
    monkeypatch.setenv("SYMCOND_SEED", "7")
    main(["selftest"])
    plain = capsys.readouterr().out
    monkeypatch.setenv("SYMCOND_SEED", " 7 ")
    assert main(["selftest"]) == EXIT_OK
    assert capsys.readouterr().out == plain
    monkeypatch.setenv("SYMCOND_SEED", "12345678901234567890123")
    assert main(["selftest"]) == EXIT_OK
    assert "selftest seed 12345678901234567890123: all checks passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "target, nan_like, failing",
    [
        (
            "blockwise_conditional_values",
            lambda values: tuple(np.full_like(v, np.nan) for v in values),
            {"blockwise_crosspath"},
        ),
        (
            "apply_instrument",
            lambda branches: np.full_like(branches, np.nan),
            {"probability_reproducibility", "weak_value_dual_route"},
        ),
        (
            # A NaN probability is compared, never skipped as a zero-probability outcome.
            "traces",
            lambda traces: np.full_like(traces, np.nan),
            {"average_identities", "weak_value_dual_route", "theorem1_instances", "blockwise_crosspath"},
        ),
    ],
    ids=["blockwise", "instrument", "traces"],
)
def test_selftest_fails_on_a_nan_residual(target, nan_like, failing, capsys, monkeypatch):
    import symcond.oracles
    from symcond.engine import CompiledModel

    owner = CompiledModel if target == "traces" else symcond.oracles
    real = getattr(owner, target)

    def nan_valued(*args):
        return nan_like(real(*args))

    monkeypatch.setattr(owner, target, nan_valued)
    assert main(["selftest"]) == EXIT_ASSERT
    lines = capsys.readouterr().out.splitlines()
    failed = {line.split()[1].rstrip(":") for line in lines if "FAIL (max residual nan," in line}
    assert failed == failing
    assert lines[-1].endswith(f"{len(failing)} check(s) failed")


def test_selftest_draws_and_evaluates_every_instance(monkeypatch):
    import symcond.oracles

    log, models, operands = [], [], {}

    def recording(name):
        real = getattr(symcond.oracles, name)

        def wrapped(*args, **kwargs):
            log.append(name)
            out = real(*args, **kwargs)
            if name == "random_model":
                models.append(out)
            return out

        monkeypatch.setattr(symcond.oracles, name, wrapped)

    for name in (
        "random_model",
        "random_density",
        "random_observable",
        "random_diagonal_density",
        "random_number_conserving_model",
        "random_hermitian",
        "jc_unitary_closed_form",
        "_theorem1",
        "blockwise_conditional_values",
    ):
        recording(name)
    instrument = symcond.oracles.apply_instrument

    def counting_instrument(model, operand, outcome):
        operands[id(model)] = operands.get(id(model), 0) + operand[..., 0, 0].size
        return instrument(model, operand, outcome)

    monkeypatch.setattr(symcond.oracles, "apply_instrument", counting_instrument)
    assert all(residual < threshold for _, residual, threshold in selftest_checks(42))

    # Each instance is drawn once and read by every check that applies to it.
    conserving = "random_number_conserving_model"
    expected = (["random_model"] + ["random_density"] * 5 + ["random_observable"]) * 20 + [
        conserving,
        "random_diagonal_density",
        "random_density",
        "_theorem1",
        "_theorem1",
        "blockwise_conditional_values",
    ] * 10 + ["random_hermitian", "random_density"] * 20 + ["jc_unitary_closed_form"] * 15
    assert log == expected
    # Every outcome's instrument takes the instance's 5 states plus Oρ₀.
    assert len(models) == 20
    assert [operands[id(m)] for m in models] == [6 * len(m.outcomes) for m in models]


def test_selftest_compiles_each_instance_once(monkeypatch):
    # One compile per unconstrained instance (20), and per conserving
    # instance one shared by both theorem-1 branches and the blockwise
    # check, plus one of its decohered-apparatus twin (10 × 2).
    from symcond.engine import CompiledModel

    compiles = []
    init = CompiledModel.__init__

    def counting(self, *args, **kwargs):
        compiles.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CompiledModel, "__init__", counting)
    # Only theorem 1 is measured: theorem 2's own hypotheses never are.
    import symcond.symmetry

    theorem2 = []
    for name in ("check_symmetric_product_state", "check_cross_elements_imaginary"):
        monkeypatch.setattr(symcond.symmetry, name, lambda *args, name=name: theorem2.append(name))
    selftest_checks(42)
    assert len(compiles) == 20 + 10 * 2
    assert theorem2 == []


def test_undecodable_scenario_is_parse_error(tmp_path, capsys):
    path = tmp_path / "utf16.scenario"
    path.write_bytes(b"\xff\xfe" + json.dumps(fig1_doc()).encode("utf-16-le"))
    assert main(["run", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: cannot read scenario file: ") and "utf-8" in err


def test_over_nested_scenario_is_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.scenario"
    path.write_text("[" * 100_000)
    assert main(["run", str(path)]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: $: not valid JSON: nested too deeply\n"


def test_console_script_is_installed():
    # Runs without an install: the module entry point from the source tree,
    # plus the console-script declaration that an install would wire up.
    import os
    import subprocess
    import sys
    import tomllib
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "symcond", "run", FIG1], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    json.loads(proc.stdout)
    with open(root / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["symcond"] == "symcond.cli:main"
