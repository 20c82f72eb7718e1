"""Tests for instruments, conditional values, and averages."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symcond import (
    P_FLOOR,
    CompiledModel,
    DensityState,
    EffectSet,
    MeasurementModel,
    ObservableOp,
    PointerObservable,
    ZeroProbabilityOutcome,
    fig1_scenario_path,
    induced_povm,
    load_scenario,
    weak_value,
)
from symcond import engine, objects
from symcond.jaynes_cummings import JCModelSpec, jc_unitary_closed_form, number_pointer
from symcond.objects import _unitarity_residual, validate
from symcond.oracles import apply_instrument, dual_instrument
from symcond.sampling import random_density, random_model, random_observable, random_unitary


def number_pointer_2() -> PointerObservable:
    return PointerObservable(
        ("-", "+"),
        (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)),
    )


def identity_model(xi: np.ndarray) -> MeasurementModel:
    return MeasurementModel(DensityState(xi), np.eye(4, dtype=complex), number_pointer_2())


def probabilities(model: MeasurementModel, rho: DensityState) -> dict[str, float]:
    """p(x) for every outcome, from the compiled model of the identity observable."""
    p, _, _ = CompiledModel(model, ObservableOp(np.eye(model.dim_s))).conditional_values(rho.matrix)
    return dict(zip(model.outcomes, p.tolist()))


def test_apply_instrument_identity_unitary():
    xi = np.diag([0.3, 0.7]).astype(complex)
    model = identity_model(xi)
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    assert_allclose(apply_instrument(model, rho, "+"), 0.7 * rho, atol=1e-12)
    assert_allclose(apply_instrument(model, rho, "-"), 0.3 * rho, atol=1e-12)


def test_apply_instrument_total_trace_is_preserved():
    rng = np.random.default_rng(21)
    model = random_model(2, 3, rng)
    rho = random_density(2, rng).matrix
    total = sum(
        np.trace(apply_instrument(model, rho, x)).real for x in model.outcomes
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_apply_instrument_is_linear():
    rng = np.random.default_rng(22)
    model = random_model(2, 2, rng)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    lhs = apply_instrument(model, 0.3 * a + 2.0 * b, model.outcomes[0])
    rhs = 0.3 * apply_instrument(model, a, model.outcomes[0]) + 2.0 * apply_instrument(
        model, b, model.outcomes[0]
    )
    assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("dim_s", [2, 3, 4])
@pytest.mark.parametrize("dim_a", [2, 3, 4])
def test_dual_instrument_is_adjoint_of_apply_instrument(dim_s, dim_a):
    # tr[dual(A) r] = tr[(A ⊗ 1) (1 ⊗ P^x) U (r ⊗ ϱ) U†] = tr[A apply(r)],
    # for operators that need not be Hermitian.
    rng = np.random.default_rng(100 * dim_s + dim_a)
    model = random_model(dim_s, dim_a, rng)
    for _ in range(3):
        a = rng.normal(size=(dim_s, dim_s)) + 1j * rng.normal(size=(dim_s, dim_s))
        r = rng.normal(size=(dim_s, dim_s)) + 1j * rng.normal(size=(dim_s, dim_s))
        for label in model.outcomes:
            lhs = np.trace(dual_instrument(model, a, label) @ r)
            rhs = np.trace(a @ apply_instrument(model, r, label))
            assert abs(lhs - rhs) < 1e-12


@pytest.mark.parametrize("dim_s", [2, 3, 4])
@pytest.mark.parametrize("dim_a", [2, 3, 4])
def test_stacked_apply_instrument_equals_each_operand(dim_s, dim_a):
    rng = np.random.default_rng(300 + 10 * dim_s + dim_a)
    model = random_model(dim_s, dim_a, rng)
    operands = rng.normal(size=(2, 3, dim_s, dim_s)) + 1j * rng.normal(size=(2, 3, dim_s, dim_s))
    operands[0, 0] = random_density(dim_s, rng).matrix
    for label in model.outcomes:
        stacked = apply_instrument(model, operands, label)
        assert stacked.shape == operands.shape
        for index in np.ndindex(*operands.shape[:2]):
            assert np.array_equal(stacked[index], apply_instrument(model, operands[index], label))


def test_apply_instrument_unknown_outcome():
    model = identity_model(np.diag([0.3, 0.7]).astype(complex))
    with pytest.raises(KeyError):
        apply_instrument(model, np.eye(2, dtype=complex), "oops")


def test_outcome_probability_pointer_eigenstate():
    # U = 1 and an apparatus prepared in the +1 pointer level: the record
    # is '+' with certainty regardless of the system state.
    model = identity_model(np.diag([0.0, 1.0]).astype(complex))
    rho = DensityState(np.full((2, 2), 0.5, dtype=complex))
    p = probabilities(model, rho)
    assert p["+"] == pytest.approx(1.0)
    assert p["-"] == pytest.approx(0.0)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(23)
    for _ in range(10):
        model = random_model(2, 3, rng)
        rho = random_density(2, rng)
        total = sum(probabilities(model, rho).values())
        assert total == pytest.approx(1.0, abs=1e-10)


def test_conditional_after_identity_unitary():
    # Nothing couples, so the post-measurement system average is just tr[O rho].
    model = identity_model(np.diag([0.3, 0.7]).astype(complex))
    rho = DensityState(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    obs = ObservableOp(np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex))
    expected = np.trace(obs.matrix @ rho.matrix).real
    _, _, after = CompiledModel(model, obs).conditional_values(rho.matrix)
    assert after.tolist() == pytest.approx([expected, expected], abs=1e-12)


def test_conditional_values_for_identity_observable():
    rng = np.random.default_rng(24)
    model = random_model(2, 2, rng)
    rho = random_density(2, rng)
    one = ObservableOp(np.eye(2, dtype=complex))
    p, before, after = CompiledModel(model, one).conditional_values(rho.matrix)
    kept = p >= 1e-6
    assert kept.any()
    assert after[kept] == pytest.approx(1.0, abs=1e-10)
    assert before[kept] == pytest.approx(1.0, abs=1e-10)


def test_conditional_after_eigenstate():
    model = identity_model(np.diag([0.3, 0.7]).astype(complex))
    rho = DensityState(np.diag([0.0, 1.0]).astype(complex))
    obs = ObservableOp(np.diag([3.0, 7.0]))
    _, _, after = CompiledModel(model, obs).conditional_values(rho.matrix)
    assert after[model.outcomes.index("+")] == pytest.approx(7.0)


def test_conditional_before_eigenstate_gives_eigenvalue():
    # For rho supported in one eigenspace of O the pre-measurement value
    # collapses to that eigenvalue for every outcome, any model.
    rng = np.random.default_rng(25)
    model = random_model(2, 3, rng)
    rho = DensityState(np.diag([1.0, 0.0]).astype(complex))
    obs = ObservableOp(np.diag([2.5, -4.0]))
    p, before, _ = CompiledModel(model, obs).conditional_values(rho.matrix)
    assert (p >= 1e-6).any()
    assert before[p >= 1e-6] == pytest.approx(2.5, abs=1e-10)


def test_conditional_before_matches_rank_one_weak_value():
    # Pure state and a rank-one effect reduce to Re(<phi|O|psi>/<phi|psi>).
    rng = np.random.default_rng(26)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    phi = rng.normal(size=2) + 1j * rng.normal(size=2)
    phi /= np.linalg.norm(phi)
    obs = random_observable(2, rng)
    proj = np.outer(phi, phi.conj())
    effects = EffectSet(("hit", "miss"), (proj, np.eye(2) - proj))
    rho = DensityState(np.outer(psi, psi.conj()))
    got = weak_value(effects, rho, obs, "hit").real
    amp = phi.conj() @ obs.matrix @ psi
    overlap = phi.conj() @ psi
    assert got == pytest.approx((amp / overlap).real, abs=1e-10)


def instrument_weak_value(model, rho, obs, label) -> complex:
    """Oracle: tr[apply_instrument(Oρ)] / tr[apply_instrument(ρ)]."""
    p = np.trace(apply_instrument(model, rho.matrix, label)).real
    return complex(np.trace(apply_instrument(model, obs.matrix @ rho.matrix, label))) / p


def test_conditional_before_routes_agree():
    rng = np.random.default_rng(27)
    for _ in range(20):
        model = random_model(2, 2, rng)
        rho = random_density(2, rng)
        obs = random_observable(2, rng)
        effects = induced_povm(model)
        p, before, _ = CompiledModel(model, obs).conditional_values(rho.matrix)
        for i, label in enumerate(model.outcomes):
            if p[i] < 1e-6:
                continue
            want = instrument_weak_value(model, rho, obs, label).real
            assert abs(before[i] - want) < 1e-10
            assert abs(weak_value(effects, rho, obs, label).real - want) < 1e-10


def test_weak_value_routes_agree_including_imag():
    rng = np.random.default_rng(28)
    model = random_model(2, 2, rng)
    rho = random_density(2, rng)
    obs = random_observable(2, rng)
    effects = induced_povm(model)
    compiled = CompiledModel(model, obs)
    traces = compiled.traces(rho.matrix)
    p, before, _ = compiled.conditional_values(rho.matrix)
    for i, label in enumerate(model.outcomes):
        want = instrument_weak_value(model, rho, obs, label)
        wv_model = traces[1, i] / p[i]
        assert abs(wv_model - want) < 1e-10
        assert abs(weak_value(effects, rho, obs, label) - want) < 1e-10
        assert wv_model.real == pytest.approx(before[i], abs=1e-12)


@pytest.mark.parametrize("dim_s", [2, 3, 4])
@pytest.mark.parametrize("dim_a", [2, 3, 4])
def test_compiled_model_matches_instrument_oracle(dim_s, dim_a):
    # One compile serves every state; each value is checked against the
    # Schrödinger-picture ratios tr[O apply(ρ)]/p and tr[apply(Oρ)]/p.
    rng = np.random.default_rng(300 + 10 * dim_s + dim_a)
    model = random_model(dim_s, dim_a, rng)
    obs = random_observable(dim_s, rng)
    compiled = CompiledModel(model, obs)
    for _ in range(4):
        rho = random_density(dim_s, rng)
        traces = compiled.traces(rho.matrix)
        probability, before, after = compiled.conditional_values(rho.matrix)
        assert traces.shape == (3, len(model.outcomes))
        for i, label in enumerate(model.outcomes):
            out = apply_instrument(model, rho.matrix, label)
            p = np.trace(out).real
            assert abs(probability[i] - p) < 1e-12
            assert p > 1e-6  # keeps the ratios below well conditioned
            want_wv = instrument_weak_value(model, rho, obs, label)
            assert abs(traces[1, i] / probability[i] - want_wv) < 1e-12
            assert abs(before[i] - want_wv.real) < 1e-12
            assert abs(after[i] - np.trace(obs.matrix @ out).real / p) < 1e-12


@pytest.mark.parametrize("dim_s", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("dim_a", [1, 2, 3, 5])
def test_compiled_model_matches_dual_instrument(dim_s, dim_a):
    # The compiled stacks M(x), M(x)·O and K(x) against the per-outcome
    # Heisenberg sandwich, for a non-Hermitian observable and apparatus
    # state, so no symmetry of the inputs can hide an index mistake.
    # Rotated projectors are not diagonal in the product basis and are
    # read through their rotated level table; unrotated ones sum over
    # their levels directly, one of them with a weight neither 0 nor 1.
    rng = np.random.default_rng(500 + 10 * dim_s + dim_a)
    n = dim_s * dim_a

    def gaussian(dim):
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    for rotated in (True, False):
        w = random_unitary(dim_a, rng)
        levels = np.array_split(np.arange(dim_a), min(dim_a, 3))
        if rotated:
            projectors = tuple(w[:, block] @ w[:, block].conj().T for block in levels)
        else:
            diagonals = np.zeros((len(levels), dim_a), dtype=complex)
            for i, block in enumerate(levels):
                diagonals[i, block] = 1.0
            diagonals[0, 0] = 0.3 - 0.4j
            projectors = tuple(np.diag(d) for d in diagonals)
        pointer = PointerObservable(tuple(f"x{i}" for i in range(len(levels))), projectors)
        assert (pointer.diagonals is None) == (rotated and dim_a > 1)
        model = MeasurementModel(DensityState(gaussian(dim_a) / dim_a), random_unitary(n, rng), pointer)
        obs = ObservableOp(gaussian(dim_s))
        eye_s = np.eye(dim_s)
        m = np.stack([dual_instrument(model, eye_s, x) for x in model.outcomes])
        k = np.stack([dual_instrument(model, obs.matrix, x) for x in model.outcomes])
        want = np.concatenate([m, m @ obs.matrix, k])
        got = CompiledModel(model, obs)._operators
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12


def test_diagonal_compile_memory_is_quadratic_in_n():
    # A wide system (d_s > d_a) on a diagonal pointer: the compile's peak
    # stays within 16 n×n complex arrays, so no d_a·d_s⁴ intermediate
    # (2·16⁴ entries here, 2 MB) is formed.
    rng = np.random.default_rng(41)
    dim_s, dim_a = 16, 2
    n = dim_s * dim_a
    levels = tuple(np.diag(row).astype(complex) for row in np.eye(dim_a))
    pointer = PointerObservable(("0", "1"), levels)
    assert pointer.diagonals is not None
    model = MeasurementModel(DensityState(np.eye(dim_a) / dim_a), random_unitary(n, rng), pointer)
    obs = random_observable(dim_s, rng)
    tracemalloc.start()
    try:
        CompiledModel(model, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n * n * 16


def sector_unitary(dim_s: int, dim_a: int, rng: np.random.Generator) -> np.ndarray:
    """exp(−iH) for a random Hermitian H built sector by sector of the total
    excitation r + c, so every entry off those sectors is exactly 0.0."""
    total = np.add.outer(np.arange(dim_s), np.arange(dim_a)).ravel()
    u = np.zeros((total.size, total.size), dtype=complex)
    for sector in range(dim_s + dim_a - 1):
        idx = np.flatnonzero(total == sector)
        g = rng.normal(size=(len(idx),) * 2) + 1j * rng.normal(size=(len(idx),) * 2)
        w, v = np.linalg.eigh(g + g.conj().T)
        u[np.ix_(idx, idx)] = (v * np.exp(-1j * w)) @ v.conj().T
    return u


def band_and_dense_models(monkeypatch, apparatus, unitary, pointer):
    """The same model twice, built on each side of the band crossover (the
    band view is cached on first read, so each is read while patched)."""
    models = []
    for crossover in (0, 10**9):
        monkeypatch.setattr(objects, "BAND_MIN_DIM", crossover)
        models.append(MeasurementModel(apparatus, unitary, pointer))
        models[-1].band
    monkeypatch.undo()
    banded, dense = models
    assert banded.band is not None and dense.band is None
    return banded, dense


BAND_CASES = [("jc", 2, d) for d in (2, 3, 5, 8, 16, 33, 64)] + [
    ("sectors", s, a) for s, a in ((2, 2), (2, 7), (3, 3), (3, 8), (4, 4), (4, 9))
]


@pytest.mark.parametrize("kind, dim_s, dim_a", BAND_CASES)
def test_band_route_matches_dual_instrument_and_dense_route(monkeypatch, kind, dim_s, dim_a):
    # The band contraction against the Heisenberg sandwich and the dense
    # compile, for a non-Hermitian operator, a complex non-Hermitian
    # apparatus state and a pointer weight neither 0 nor 1.
    rng = np.random.default_rng(700 + 10 * dim_s + dim_a)
    if kind == "jc":
        unitary = jc_unitary_closed_form(JCModelSpec(dim_s, dim_a, theta=float(rng.uniform(0.3, 2.5))))
    else:
        unitary = sector_unitary(dim_s, dim_a, rng)
    levels = np.array_split(np.arange(dim_a), min(dim_a, 3))
    diagonals = np.zeros((len(levels), dim_a), dtype=complex)
    for i, block in enumerate(levels):
        diagonals[i, block] = 1.0
    diagonals[-1, -1] = 0.3 - 0.4j
    pointer = PointerObservable(tuple(f"x{i}" for i in range(len(levels))), tuple(map(np.diag, diagonals)))
    xi = rng.normal(size=(dim_a, dim_a)) + 1j * rng.normal(size=(dim_a, dim_a))
    banded, dense = band_and_dense_models(monkeypatch, DensityState(xi / dim_a), unitary, pointer)
    a = rng.normal(size=(dim_s, dim_s)) + 1j * rng.normal(size=(dim_s, dim_s))
    operators = (np.eye(dim_s), a)
    got = engine.branch_operators(banded, operators)
    want = np.array([[dual_instrument(banded, op, x) for x in banded.outcomes] for op in operators])
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-12
    assert np.abs(got - engine.branch_operators(dense, operators)).max() < 1e-13
    assert _unitarity_residual(banded) == pytest.approx(_unitarity_residual(dense), abs=1e-14)


@pytest.mark.parametrize("dim_s, dim_a", [(2, 64), (3, 8), (4, 4)])
def test_band_unitarity_residual_equals_dense_on_a_non_unitary(monkeypatch, dim_s, dim_a):
    # Scaling one column and mixing two sectors' worth of rows within the
    # band gives an O(1) residual, so a dropped term cannot hide in round-off.
    rng = np.random.default_rng(800 + dim_s + dim_a)
    u = sector_unitary(dim_s, dim_a, rng)
    u[:, 1] *= 1.5
    u[u != 0] += 0.1j
    xi = DensityState(np.eye(dim_a) / dim_a)
    banded, dense = band_and_dense_models(monkeypatch, xi, u, number_pointer(dim_a))
    want = _unitarity_residual(dense)
    assert want > 0.5
    assert _unitarity_residual(banded) == pytest.approx(want, rel=1e-13)
    v = validate(banded)
    assert v.invariant == "unitarity" and v.residual == pytest.approx(want, rel=1e-13)


def test_band_view_routing(monkeypatch):
    rng = np.random.default_rng(47)
    xi = DensityState(random_density(64, rng).matrix)
    u = jc_unitary_closed_form(JCModelSpec(2, 64, theta=0.9))
    # The shape of jc_wide-style models is on the band side of the crossover.
    assert MeasurementModel(xi, u, number_pointer(64)).band is not None
    # One off-band entry of 1e-300, or a NaN off the band, leaves no band view.
    for value in (1e-300, np.nan, 1e-300j):
        off = u.copy()
        off[5, 6] = value
        assert MeasurementModel(xi, off, number_pointer(64)).band is None
    # A NaN on the band keeps the view, and is a unitarity violation, never a pass.
    for index in ((0, 0), (5, 64 + 4), (127, 127)):
        bad = u.copy()
        bad[index] = np.nan
        model = MeasurementModel(xi, bad, number_pointer(64))
        assert model.band is not None
        v = validate(model)
        assert v.invariant == "unitarity" and np.isnan(v.residual)
    # Below the crossover, and for d_s > d_a, the dense route serves.
    small = jc_unitary_closed_form(JCModelSpec(2, 8, theta=0.9))
    assert MeasurementModel(DensityState(np.eye(8) / 8), small, number_pointer(8)).band is None
    monkeypatch.setattr(objects, "BAND_MIN_DIM", 0)
    assert MeasurementModel(DensityState(np.eye(2) / 2), sector_unitary(3, 2, rng), number_pointer(2)).band is None


def test_non_diagonal_pointer_takes_the_dense_route(monkeypatch):
    rng = np.random.default_rng(48)
    calls = []
    band_levels = engine._band_levels
    monkeypatch.setattr(engine, "_band_levels", lambda *args: calls.append(1) or band_levels(*args))
    monkeypatch.setattr(objects, "BAND_MIN_DIM", 0)
    w = random_unitary(4, rng)
    rotated = PointerObservable(("a", "b"), (w[:, :2] @ w[:, :2].conj().T, w[:, 2:] @ w[:, 2:].conj().T))
    for pointer, routed in ((rotated, 0), (number_pointer(4), 1)):
        model = MeasurementModel(random_density(4, rng), sector_unitary(3, 4, rng), pointer)
        assert model.band is not None
        obs = random_observable(3, rng)
        got = CompiledModel(model, obs)._operators[-len(model.outcomes) :]
        want = np.stack([dual_instrument(model, obs.matrix, x) for x in model.outcomes])
        assert np.abs(got - want).max() < 1e-12
        assert len(calls) == routed
        calls.clear()


def test_band_compile_memory_is_quadratic_in_n(monkeypatch):
    # A square banded model, where the band contraction's d_a·d_s⁴ terms
    # are largest against n²: a gather of ϱ over all of them would be
    # 8 n² entries per operator; the compile's peak stays below that.
    monkeypatch.setattr(objects, "BAND_MIN_DIM", 0)
    rng = np.random.default_rng(49)
    dim_s = dim_a = 8
    n = dim_s * dim_a
    model = MeasurementModel(random_density(dim_a, rng), sector_unitary(dim_s, dim_a, rng), number_pointer(dim_a))
    assert model.band is not None
    obs = random_observable(dim_s, rng)
    tracemalloc.start()
    try:
        CompiledModel(model, obs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n * n * 16


def test_conditional_change_identity_unitary_is_zero():
    model = identity_model(np.diag([0.3, 0.7]).astype(complex))
    rho = DensityState(np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex))
    obs = ObservableOp(np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex))
    p, before, after = CompiledModel(model, obs).conditional_values(rho.matrix)
    assert (p > P_FLOOR).all()
    assert (after - before).tolist() == pytest.approx([0.0, 0.0], abs=1e-12)


def test_conditional_change_fig1_frozen_values():
    # Hand-checked reference point for the bundled qubit-qubit setup at
    # phase zero, where the interference terms vanish.
    setup = load_scenario(fig1_scenario_path())
    rho = setup.system_state(0.0)
    p, before, after = CompiledModel(setup.model, setup.observable).conditional_values(rho.matrix)
    plus, minus = setup.model.outcomes.index("+"), setup.model.outcomes.index("-")
    assert p[plus] == pytest.approx(0.82766504294495524, abs=1e-12)
    assert before[plus] == pytest.approx(0.9336477008475339, abs=1e-12)
    assert after[plus] == pytest.approx(0.54691816067802734, abs=1e-12)
    assert after[plus] - before[plus] == pytest.approx(-0.38672954016950656, abs=1e-12)
    assert p[minus] == pytest.approx(0.1723349570550447, abs=1e-12)
    assert before[minus] == pytest.approx(-0.38089070466370573, abs=1e-12)
    assert after[minus] == pytest.approx(0.57511055241116749, abs=1e-12)


def test_zero_probability_outcome_raises():
    model = identity_model(np.diag([0.0, 1.0]).astype(complex))
    rho = DensityState(np.diag([0.5, 0.5]).astype(complex))
    obs = ObservableOp(np.diag([-1.0, 1.0]))
    p, _, _ = CompiledModel(model, obs).conditional_values(rho.matrix)
    assert p.tolist() == [0.0, 1.0]  # "-" is flagged by its p, for the caller to test
    with pytest.raises(ZeroProbabilityOutcome, match="'-' has probability 0.000e\\+00"):
        weak_value(induced_povm(model), rho, obs, "-")


def test_nan_apparatus_state_raises_instead_of_nan_report():
    xi = np.diag([0.3, 0.7]).astype(complex)
    xi[0, 1] = np.nan
    model = identity_model(xi)
    rho = DensityState(np.diag([0.5, 0.5]).astype(complex))
    obs = ObservableOp(np.diag([-1.0, 1.0]))
    p, _, _ = CompiledModel(model, obs).conditional_values(rho.matrix)
    assert np.isnan(p).all()  # not above P_FLOOR, so every caller skips or reports it
    # induced_povm rejects NaN effects; the sandwich route hands them on.
    effects = EffectSet(model.outcomes, tuple(dual_instrument(model, np.eye(2), x) for x in model.outcomes))
    for label in ("-", "+"):
        with pytest.raises(ZeroProbabilityOutcome, match="nan"):
            weak_value(effects, rho, obs, label)


def test_average_before_recovers_unconditioned_mean():
    rng = np.random.default_rng(29)
    for _ in range(10):
        model = random_model(2, 3, rng)
        rho = random_density(2, rng)
        obs = random_observable(2, rng)
        want = np.trace(obs.matrix @ rho.matrix).real
        p, before, _ = CompiledModel(model, obs).conditional_values(rho.matrix)
        assert (p > P_FLOOR).all()
        assert np.sum(p * before) == pytest.approx(want, abs=1e-10)


def test_average_after_matches_heisenberg_mean():
    from symcond.linalg import dagger, kron

    rng = np.random.default_rng(30)
    for _ in range(10):
        model = random_model(2, 3, rng)
        rho = random_density(2, rng)
        obs = random_observable(2, rng)
        joint = kron(rho.matrix, model.apparatus_state.matrix)
        evolved = model.unitary @ joint @ dagger(model.unitary)
        want = np.trace(kron(obs.matrix, np.eye(model.dim_a)) @ evolved).real
        p, _, after = CompiledModel(model, obs).conditional_values(rho.matrix)
        assert (p > P_FLOOR).all()
        assert np.sum(p * after) == pytest.approx(want, abs=1e-10)


def test_stacked_evaluation_equals_each_state():
    # One call on a (G, d_s, d_s) stack gives, state by state, the very
    # traces and the p, before and after of one call on that state alone,
    # and those are the trace rows over the clamped p.
    rng = np.random.default_rng(1230)
    model = random_model(3, 4, rng)
    compiled = CompiledModel(model, random_observable(3, rng))
    states = [random_density(3, rng) for _ in range(7)]
    stack = np.stack([s.matrix for s in states])
    traces = compiled.traces(stack)
    assert traces.shape == (7, 3, len(model.outcomes))
    p, before, after = compiled.conditional_values(stack)
    assert p.shape == before.shape == after.shape == (7, len(model.outcomes))
    for g, state in enumerate(states):
        assert np.array_equal(traces[g], compiled.traces(state.matrix))
        single = compiled.conditional_values(state.matrix)
        assert all(np.array_equal(a[g], b) for a, b in zip((p, before, after), single))
        for i, (tr_p, tr_weak, tr_after) in enumerate(traces[g].T.tolist()):
            want_p = min(max(tr_p.real, 0.0), 1.0)
            assert (p[g, i], before[g, i], after[g, i]) == (want_p, tr_weak.real / want_p, tr_after.real / want_p)


def test_stacked_values_flag_zero_probability_rows():
    model = identity_model(np.diag([1.0, 0.0]).astype(complex))
    compiled = CompiledModel(model, ObservableOp(np.diag([1.0, -1.0]).astype(complex)))
    stack = np.stack([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])]).astype(complex)
    p, before, after = compiled.conditional_values(stack)
    # Outcome "+" reads apparatus level 1, which ϱ never populates.
    assert p[:, 1].tolist() == [0.0, 0.0]
    assert not (p[:, 1] > P_FLOOR).any()
    for g in range(2):
        single = compiled.conditional_values(stack[g])
        assert (p[g, 0], before[g, 0], after[g, 0]) == tuple(a[0] for a in single)
    assert before[:, 0].tolist() == [0.0, 1.0]
    assert after[:, 0].tolist() == [0.0, 1.0]
