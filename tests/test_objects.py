"""Tests for state, observable, pointer, and model containers."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symcond import (
    DensityState,
    EffectSet,
    MeasurementModel,
    ObservableOp,
    PointerObservable,
    born_probability,
    fig1_scenario_path,
    induced_povm,
    load_scenario,
    validate,
)


def number_state(dim: int, k: int) -> DensityState:
    m = np.zeros((dim, dim), dtype=complex)
    m[k, k] = 1.0
    return DensityState(m)


def test_density_state_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        DensityState(np.zeros((2, 3), dtype=complex))


def test_validate_density_trace_deficit():
    v = validate(DensityState(np.diag([0.25, 0.25]).astype(complex)))
    assert v is not None
    assert v.invariant == "trace"
    assert v.residual == pytest.approx(0.5)


def test_validate_density_hermiticity():
    m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
    v = validate(DensityState(m))
    assert v is not None
    assert v.invariant == "hermiticity"


def test_validate_density_nan_entry_is_a_hermiticity_violation():
    # A NaN residual fails the first test it meets instead of passing it.
    v = validate(DensityState(np.array([[0.5, np.nan], [0.0, 0.5]], dtype=complex)))
    assert v is not None
    assert v.invariant == "hermiticity"
    assert np.isnan(v.residual)


def test_validate_density_negativity():
    v = validate(DensityState(np.diag([1.5, -0.5]).astype(complex)))
    assert v is not None
    assert v.invariant == "psd"
    assert v.residual == pytest.approx(0.5)


def test_validate_observable():
    assert validate(ObservableOp(np.diag([-1.0, 1.0]))) is None
    bad = ObservableOp(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    v = validate(bad)
    assert v is not None
    assert v.invariant == "hermiticity"


def test_validate_pointer_idempotence():
    soft = PointerObservable(("a", "b"), (0.5 * np.eye(2), 0.5 * np.eye(2)))
    v = validate(soft)
    assert v is not None
    assert v.invariant == "idempotence"


def test_validate_pointer_orthogonality():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    overlapping = PointerObservable(("a", "b"), (p0, p0))
    v = validate(overlapping)
    assert v is not None
    assert v.invariant == "orthogonality"


def test_validate_pointer_completeness():
    lone = PointerObservable(("a",), (np.diag([1.0, 0.0]).astype(complex),))
    v = validate(lone)
    assert v is not None
    assert v.invariant == "completeness"


def _diagonal_pointer(*diagonals) -> PointerObservable:
    return PointerObservable(
        tuple(f"x{i}" for i in range(len(diagonals))),
        tuple(np.diag(np.asarray(d, dtype=complex)) for d in diagonals),
    )


@pytest.mark.parametrize(
    "diagonals, invariant",
    [
        (([1, 1j, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]), "hermiticity"),
        (([1, 0.5, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]), "idempotence"),
        (([1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1], [0, 0, 0, 0, 1, 0]), "orthogonality"),
        # Pairs (0, 3) and (1, 2) overlap; the loop meets (0, 3) first.
        (([1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 1, 1], [1, 0, 0, 0, 0, 0]), "orthogonality"),
        (([1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 0]), "completeness"),
        (([1, np.nan, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]), "hermiticity"),
        (([1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 1, 1]), None),
    ],
)
def test_diagonal_pointer_validation_matches_the_pairwise_loop(diagonals, invariant):
    # A diagonal family is validated from its level table; the same family
    # conjugated by a random unitary is not diagonal and takes the
    # pairwise loop. Both must name the same first violation.
    pointer = _diagonal_pointer(*diagonals)
    v = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 6)) + 0j)[0]
    rotated = PointerObservable(pointer.outcomes, tuple(v @ p @ v.conj().T for p in pointer.projectors))
    assert pointer.diagonals is not None
    assert rotated.diagonals is None
    got, want = validate(pointer), validate(rotated)
    # The same family given as its table: the same levels and verdict.
    table = PointerObservable.from_table(pointer.outcomes, np.array(diagonals, dtype=complex))
    assert table.levels[0] is None
    assert np.array_equal(table.levels[1], pointer.levels[1], equal_nan=True)
    assert repr(validate(table)) == repr(got)
    if invariant is None:
        assert got is None and want is None
        return
    assert got.invariant == want.invariant == invariant
    if np.isnan(want.residual):
        assert np.isnan(got.residual)
    else:
        assert abs(got.residual - want.residual) < 1e-12
    if len(diagonals) == 4:
        assert got.residual == pytest.approx(1.0)


@pytest.mark.parametrize("overlap, invariant", [(1e-11, None), (5e-11, "commutation"), (9e-11, "completeness")])
def test_validation_requires_a_level_table(overlap, invariant):
    # Nearly orthogonal projectors pass the dense checks, but every route
    # reads the pointer's level table, which they may not have; validation
    # fails exactly where PointerObservable.levels would raise.
    v = np.array([overlap, 1.0]) / np.hypot(overlap, 1.0)
    pointer = PointerObservable(("a", "b"), (np.diag([1.0, 0.0]).astype(complex), np.outer(v, v)))
    violation = validate(pointer)
    assert (violation and violation.invariant) == invariant
    if invariant == "commutation":
        with pytest.raises(ValueError, match="share no eigenbasis"):
            pointer.levels
    elif invariant is None:
        assert pointer.levels[0] is not None


def test_validate_model_flags_bad_apparatus_state():
    ptr = PointerObservable(
        ("-", "+"), (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    )
    bad = MeasurementModel(
        DensityState(np.diag([0.4, 0.4]).astype(complex)), np.eye(4, dtype=complex), ptr
    )
    v = validate(bad)
    assert v is not None
    assert v.invariant == "apparatus_state.trace"


def test_validate_model_flags_non_unitary():
    ptr = PointerObservable(
        ("-", "+"), (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    )
    bad = MeasurementModel(number_state(2, 0), 0.5 * np.eye(4, dtype=complex), ptr)
    v = validate(bad)
    assert v is not None
    assert v.invariant == "unitarity"


def test_validate_fig1_model_is_clean():
    setup = load_scenario(fig1_scenario_path())
    assert validate(setup.model) is None
    assert validate(setup.observable) is None
    assert validate(setup.system_state(0.7)) is None


def test_pointer_dimensions_and_lookup():
    ptr = PointerObservable(
        ("-", "+"),
        (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )
    assert ptr.dim == 2
    assert_allclose(ptr.projector("+"), np.diag([0.0, 1.0]))
    with pytest.raises(KeyError, match="unknown outcome"):
        ptr.projector("sideways")


def test_table_pointer_builds_projectors_on_request():
    table = np.array([[1, 0, 1], [0, 1, 0]], dtype=complex)
    ptr = PointerObservable.from_table(("a", "b"), table)
    assert ptr.dim == 3
    assert ptr.levels[0] is None and np.array_equal(ptr.levels[1], table)
    for label, row, projector in zip(ptr.outcomes, table, ptr.projectors, strict=True):
        assert np.array_equal(projector, np.diag(row))
        assert np.array_equal(ptr.projector(label), np.diag(row))
    # An all-diagonal family keeps only its table; a rotated one keeps its matrices.
    family = PointerObservable(("a", "b"), tuple(map(np.diag, table)))
    assert family._matrices is None and np.array_equal(family.diagonals, table)
    v = np.linalg.qr(np.random.default_rng(4).normal(size=(3, 3)) + 0j)[0]
    rotated = tuple(v @ np.diag(row) @ v.conj().T for row in table)
    assert np.array_equal(PointerObservable(("a", "b"), rotated).projectors, rotated)
    with pytest.raises(ValueError, match="2 outcome labels for 3 table rows"):
        PointerObservable.from_table(("a", "b"), np.eye(3))
    with pytest.raises(ValueError, match="duplicate"):
        PointerObservable.from_table(("a", "a"), table)


def test_pointer_rejects_duplicate_labels():
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="duplicate"):
        PointerObservable(("x", "x"), (p0, p1))


def test_model_dimension_split():
    ptr = PointerObservable(
        ("-", "+"), (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    )
    m = MeasurementModel(number_state(2, 0), np.eye(6, dtype=complex), ptr)
    assert m.dim_s == 3
    assert m.dim_a == 2
    assert m.outcomes == ("-", "+")


def test_model_rejects_mismatched_pointer():
    ptr3 = PointerObservable(
        ("a", "b", "c"),
        tuple(np.diag([1.0 if i == k else 0.0 for i in range(3)]).astype(complex) for k in range(3)),
    )
    with pytest.raises(ValueError, match="pointer dimension"):
        MeasurementModel(number_state(2, 0), np.eye(4, dtype=complex), ptr3)


def test_born_probability_limits():
    plus = DensityState(np.full((2, 2), 0.5, dtype=complex))
    assert born_probability(number_state(2, 1), np.eye(2, dtype=complex)) == pytest.approx(1.0)
    assert born_probability(number_state(2, 1), np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0)
    assert born_probability(plus, np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.5)


def test_induced_povm_identity_unitary_ignores_system():
    # With U = 1 the effect is tr[P xi] times the system identity.
    rng = np.random.default_rng(9)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    xi = g @ g.conj().T
    xi /= np.trace(xi).real
    ptr = PointerObservable(
        ("-", "+"), (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    )
    model = MeasurementModel(DensityState(xi), np.eye(4, dtype=complex), ptr)
    effects = induced_povm(model)
    for label in ("-", "+"):
        weight = np.trace(ptr.projector(label) @ xi).real
        assert_allclose(effects.effect(label), weight * np.eye(2), atol=1e-12)


def test_induced_povm_fig1_values():
    # theta = pi/3 and a polar-angle pi/3 apparatus qubit give effects with
    # rational entries: diag(3/16, 15/16) plus a +-3i/16 off-diagonal pair.
    setup = load_scenario(fig1_scenario_path())
    effects = induced_povm(setup.model)
    want_plus = np.array([[3.0 / 16.0, -3j / 16.0], [3j / 16.0, 15.0 / 16.0]])
    assert_allclose(effects.effect("+"), want_plus, atol=1e-12)
    assert_allclose(effects.effect("-"), np.eye(2) - want_plus, atol=1e-12)


def test_induced_povm_reproduces_probabilities():
    from symcond.sampling import random_density, random_model

    rng = np.random.default_rng(2024)
    model = random_model(2, 3, rng)
    effects = induced_povm(model)
    from symcond.oracles import apply_instrument

    for _ in range(20):
        rho = random_density(2, rng)
        for label in model.outcomes:
            p_instr = np.trace(apply_instrument(model, rho.matrix, label)).real
            p_povm = born_probability(rho, effects.effect(label))
            assert abs(p_instr - p_povm) < 1e-10


def test_validate_registers_no_invariants_for_an_effect_set():
    es = EffectSet(("a",), (np.eye(2, dtype=complex),))
    with pytest.raises(TypeError, match="no invariants registered for EffectSet"):
        validate(es)


def test_effect_set_lookup_errors():
    es = EffectSet(("a",), (np.eye(2, dtype=complex),))
    with pytest.raises(KeyError, match="unknown outcome"):
        es.effect("b")
