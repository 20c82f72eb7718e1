"""Tests for the JSON scenario loader."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symcond import (
    CompiledModel,
    InvariantViolation,
    Scenario,
    ScenarioError,
    fig1_scenario_path,
    load_scenario,
    parse_scenario,
)
from symcond.sampling import random_density
from symcond.scenario import matrix_to_pairs, parse_complex_matrix


def fig1_doc() -> dict:
    return json.loads(fig1_scenario_path().read_text())


def test_bundled_scenario_parses():
    sc = load_scenario(fig1_scenario_path())
    assert isinstance(sc, Scenario)
    assert sc.model.dim_s == 2
    assert sc.model.dim_a == 2
    assert sc.model.outcomes == ("+", "-")
    assert sc.conserved is not None
    assert sc.system_state(0.3).dim == 2  # a phase sweep can override the phase
    assert sc.sweep is not None
    assert sc.sweep.steps == 201
    assert sc.tolerance == pytest.approx(1e-9)


def test_bundled_scenario_state_family():
    sc = load_scenario(fig1_scenario_path())
    rho0 = sc.system_state(0.0)
    assert rho0.matrix[1, 1].real == pytest.approx(np.cos(np.pi / 8) ** 2)
    rho_pi = sc.system_state(np.pi)
    assert_allclose(rho_pi.matrix[0, 1], -rho0.matrix[0, 1], atol=1e-12)


def test_parse_complex_matrix_roundtrip():
    m = np.array([[0.5, 0.25 - 0.1j], [0.25 + 0.1j, 0.5]], dtype=complex)
    again = parse_complex_matrix(matrix_to_pairs(m), "x")
    assert_allclose(again, m, atol=0)


def test_parse_complex_matrix_error_paths():
    with pytest.raises(ScenarioError) as err:
        parse_complex_matrix([[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "m")
    assert err.value.path == "m[1]"
    with pytest.raises(ScenarioError) as err:
        parse_complex_matrix([[[0.0, 0.0], [1.0]]], "m")
    assert err.value.path == "m[0][1]"


@pytest.mark.parametrize(
    "node, message",
    [
        ([], "m: expected a non-empty array of rows"),
        ([[[0.0, 0.0]], []], "m[1]: expected a non-empty array of [re, im] pairs"),
        ([[[0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], "m[1]: row length 2 != 1"),
        ([[[0.0, 0.0], [True, 0.0]]], "m[0][1]: expected an [re, im] pair of numbers"),
        ([[[0.0, 0.0], [1.0, 0.0, 2.0]]], "m[0][1]: expected an [re, im] pair of numbers"),
        ([[[0.0, 0.0], ["1", 0.0]]], "m[0][1]: expected an [re, im] pair of numbers"),
        ([[(0.0, 0.0)]], "m[0][0]: expected an [re, im] pair of numbers"),
        ([[[0.0, 0.0]], [[0.0, float("nan")]]], "m[1][0]: expected a finite number, got nan"),
        ([[[float("-inf"), 0.0]]], "m[0][0]: expected a finite number, got -inf"),
    ],
)
def test_parse_complex_matrix_rejections(node, message):
    with pytest.raises(ScenarioError) as err:
        parse_complex_matrix(node, "m")
    assert str(err.value) == message


def test_parse_complex_matrix_is_exact():
    rng = np.random.default_rng(64)
    special = [0, -3, 2**60 + 1, -0.0, 0.1, 1e-300, 5e-324, -2.5e-310]
    wide = [
        [[special[(i + j) % 8], float(rng.normal())] if (i * j) % 3 else [float(rng.normal()), special[i % 8]]
         for j in range(64)]
        for i in range(64)
    ]
    for node in ([[[1, -0.0], [0.1, 2**60 + 1]], [[-3, 1e-300], [5e-324, -7]]], wide):
        want = np.array([[complex(*cell) for cell in row] for row in node])
        assert parse_complex_matrix(node, "m").tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "edit, path",
    [
        (lambda d: d["system_state"]["coherent"].update(polar=float("nan")), "system_state.coherent.polar"),
        (lambda d: d["model"].update(theta=float("inf")), "model.theta"),
        (lambda d: d.update(tolerance=float("nan")), "tolerance"),
        (lambda d: d.update(tolerance=0.0), "tolerance"),
        (lambda d: d.update(tolerance=-1e-9), "tolerance"),
    ],
)
def test_non_finite_numbers_and_bad_tolerances_are_rejected(edit, path):
    doc = fig1_doc()
    edit(doc)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == path


def test_overflowing_literal_is_rejected():
    text = json.dumps(fig1_doc()).replace('"from": 0.0', '"from": 1e999')
    assert "1e999" in text
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert str(err.value) == "sweep.from: expected a finite number, got inf"


def test_malformed_json_is_a_scenario_error():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("{not json", source="inline")
    assert err.value.path == "$"


def test_missing_field_reports_its_path():
    doc = fig1_doc()
    del doc["model"]["theta"]
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "model.theta"


def test_unknown_model_kind():
    doc = fig1_doc()
    doc["model"]["kind"] = "dephasing"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "model.kind"


def test_unknown_named_observable():
    doc = fig1_doc()
    doc["observable"] = "sigma_w"
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(doc))


def test_trace_violation_is_flagged_by_object():
    doc = fig1_doc()
    doc["system_state"] = {"matrix": matrix_to_pairs(np.diag([0.45, 0.45]).astype(complex))}
    with pytest.raises(InvariantViolation) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.object_name == "system_state"
    assert err.value.violation.invariant == "trace"


def test_explicit_model_roundtrip():
    # A hand-assembled swap-style model goes through the explicit path and
    # produces the same numbers as direct construction.
    u = np.eye(4, dtype=complex)
    xi = np.diag([0.3, 0.7]).astype(complex)
    doc = {
        "model": {
            "kind": "explicit",
            "unitary": matrix_to_pairs(u),
            "apparatus_state": {"matrix": matrix_to_pairs(xi)},
            "pointer": {
                "outcomes": ["-", "+"],
                "projectors": [
                    matrix_to_pairs(np.diag([1.0, 0.0]).astype(complex)),
                    matrix_to_pairs(np.diag([0.0, 1.0]).astype(complex)),
                ],
                "values": [-1.0, 1.0],
            },
        },
        "system_state": {"matrix": matrix_to_pairs(np.diag([0.2, 0.8]).astype(complex))},
        "observable": {"matrix": matrix_to_pairs(np.diag([-1.0, 1.0]).astype(complex))},
    }
    sc = parse_scenario(json.dumps(doc))
    assert sc.conserved is None
    with pytest.raises(ScenarioError):
        sc.system_state(0.3)
    p, before, after = CompiledModel(sc.model, sc.observable).conditional_values(sc.system_state().matrix)
    plus = sc.model.outcomes.index("+")
    assert p[plus] == pytest.approx(0.7)
    assert after[plus] - before[plus] == pytest.approx(0.0, abs=1e-12)


def test_explicit_model_non_unitary_is_invariant_violation():
    doc = {
        "model": {
            "kind": "explicit",
            "unitary": matrix_to_pairs(0.5 * np.eye(4, dtype=complex)),
            "apparatus_state": {"matrix": matrix_to_pairs(np.diag([0.3, 0.7]).astype(complex))},
            "pointer": {
                "outcomes": ["-", "+"],
                "projectors": [
                    matrix_to_pairs(np.diag([1.0, 0.0]).astype(complex)),
                    matrix_to_pairs(np.diag([0.0, 1.0]).astype(complex)),
                ],
            },
        },
        "system_state": {"matrix": matrix_to_pairs(np.diag([0.2, 0.8]).astype(complex))},
        "observable": "sigma_z",
    }
    with pytest.raises(InvariantViolation) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.object_name == "model"
    assert err.value.violation.invariant == "unitarity"


def test_explicit_conserved_quantity():
    doc = fig1_doc()
    doc["conserved"] = {
        "system": matrix_to_pairs(np.diag([0.0, 1.0]).astype(complex)),
        "apparatus": matrix_to_pairs(np.diag([0.0, 1.0]).astype(complex)),
    }
    sc = parse_scenario(json.dumps(doc))
    assert sc.conserved is not None
    assert_allclose(sc.conserved.system_part.matrix, np.diag([0.0, 1.0]))


def test_conserved_dimension_mismatch():
    doc = fig1_doc()
    doc["conserved"] = {
        "system": matrix_to_pairs(np.diag([0.0, 1.0, 2.0]).astype(complex)),
        "apparatus": matrix_to_pairs(np.diag([0.0, 1.0]).astype(complex)),
    }
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "conserved.system"


def test_sweep_validation():
    doc = fig1_doc()
    doc["sweep"]["steps"] = 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "sweep.steps"
    doc = fig1_doc()
    doc["sweep"]["parameter"] = "theta"
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "sweep.parameter"


def test_coherent_system_state_needs_qubit():
    doc = fig1_doc()
    doc["model"]["dim_s"] = 3
    doc["observable"] = {"matrix": matrix_to_pairs(np.diag([0.0, 1.0, 2.0]).astype(complex))}
    with pytest.raises(ScenarioError) as err:
        parse_scenario(json.dumps(doc))
    assert err.value.path == "system_state"


def test_phase_override_requires_coherent_family():
    doc = fig1_doc()
    doc["system_state"] = {
        "matrix": matrix_to_pairs(np.diag([0.5, 0.5]).astype(complex))
    }
    del doc["sweep"]
    sc = parse_scenario(json.dumps(doc))
    with pytest.raises(ScenarioError):
        sc.system_state(0.3)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError) as err:
        load_scenario(tmp_path / "absent.scenario")
    assert "cannot read" in str(err.value)


def jc_wide_text() -> str:
    """dim_s = 2, dim_a = 64 JC scenario with a full 64×64 apparatus state."""
    rng = np.random.default_rng(15)
    doc = {
        "model": {
            "kind": "jaynes-cummings",
            "dim_s": 2,
            "dim_a": 64,
            "theta": 0.9,
            "apparatus_state": {"matrix": matrix_to_pairs(random_density(64, rng).matrix)},
        },
        "system_state": {"coherent": {"polar": 0.8, "phase": 0.3}},
        "observable": "sigma_z",
        "conserved": "number",
    }
    return json.dumps(doc)


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


def test_parse_runs_no_collection_and_leaves_no_garbage(collector_on):
    # Decoding the 64×64 matrix builds ~4,200 lists; without the pause
    # they trip several gen-0 collections while alive and get promoted.
    text = jc_wide_text()
    gc.collect()
    before = gc.get_stats()[0]["collections"]
    scenario = parse_scenario(text)
    assert gc.get_stats()[0]["collections"] == before
    assert gc.collect() == 0  # the parse built no reference cycles
    assert gc.isenabled()
    assert scenario.model.dim_a == 64


def _invariant_broken(text: str) -> str:
    doc = json.loads(text)
    doc["model"]["apparatus_state"] = {"matrix": matrix_to_pairs(np.eye(64) / 32)}
    return json.dumps(doc)


@pytest.mark.parametrize(
    "make, raises",
    [
        (lambda t: t, None),
        (lambda t: t.replace('"theta": 0.9', '"theta": "x"'), ScenarioError),
        (_invariant_broken, InvariantViolation),
    ],
    ids=["parsed", "scenario-error", "invariant-violation"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_restores_the_collector_state(collector_on, make, raises, enabled):
    text = make(jc_wide_text())
    if not enabled:
        gc.disable()
    if raises is None:
        parse_scenario(text)
    else:
        with pytest.raises(raises):
            parse_scenario(text)
    assert gc.isenabled() is enabled
