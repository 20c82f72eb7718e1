"""Tests for decoherence maps, conservation checks, and the two theorems."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from symcond import (
    P_FLOOR,
    CompiledModel,
    ConservedQuantity,
    DensityState,
    JCModelSpec,
    MeasurementModel,
    ObservableOp,
    PointerObservable,
    ZeroProbabilityOutcome,
    build_jc_model,
    check_conservation,
    check_cross_elements_imaginary,
    check_symmetric_product_state,
    check_yanase,
    decohere,
    fig1_scenario_path,
    load_scenario,
    parse_scenario,
    validate,
    verify_theorems,
)
from symcond.jaynes_cummings import ladder_lower, number_operator, number_pointer
from symcond.linalg import commutator, frob, hermitian_eig, kron, unitary_from_generator
from symcond.oracles import blockwise_conditional_values
from symcond.sampling import (
    random_conserving_unitary,
    random_density,
    random_diagonal_density,
    random_diagonal_observable,
    random_hermitian,
    random_number_conserving_model,
    random_pointer,
    random_unitary,
)
from symcond.scenario import matrix_to_pairs

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def real_qubit_state(polar: float) -> DensityState:
    v = np.array([np.sin(polar / 2), np.cos(polar / 2)], dtype=complex)
    return DensityState(np.outer(v, v.conj()))


def test_decohere_kills_single_qubit_coherence():
    assert_allclose(decohere(SIGMA_X, np.diag([-1.0, 1.0]).astype(complex)), np.zeros((2, 2)), atol=1e-15)


def test_decohere_fixed_point_for_commuting_input():
    l = np.diag([0.0, 1.0, 2.0]).astype(complex)
    a = np.diag([0.4, -0.2, 1.1]).astype(complex)
    assert_allclose(decohere(a, l), a, atol=1e-15)


def test_decohere_keeps_coherence_inside_a_degenerate_sector():
    # |0,1> and |1,0> share total number 1, so their cross term survives
    # pinching by the total-number operator.
    n_tot = kron(np.diag([0.0, 1.0]), np.eye(2)) + kron(np.eye(2), np.diag([0.0, 1.0]))
    cross = np.zeros((4, 4), dtype=complex)
    cross[1, 2] = 1.0
    assert_allclose(decohere(cross, n_tot), cross, atol=1e-15)
    # but coherence between different totals dies
    cross2 = np.zeros((4, 4), dtype=complex)
    cross2[0, 3] = 1.0
    assert_allclose(decohere(cross2, n_tot), np.zeros((4, 4)), atol=1e-15)


def test_decohere_is_idempotent_and_preserves_structure():
    rng = np.random.default_rng(31)
    for _ in range(10):
        dim = int(rng.integers(2, 7))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        l = (h + h.conj().T) / 2
        out = decohere(rho, l)
        assert frob(decohere(out, l) - out) < 1e-10
        assert frob(out - out.conj().T) < 1e-12
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() > -1e-12
        assert frob(out @ l - l @ out) < 1e-9


def test_decohere_rejects_a_nan_conserved_quantity():
    # A NaN L must not read as "nothing to pinch" and return a unchanged.
    with pytest.raises(ValueError, match="not Hermitian"):
        decohere(np.eye(2), np.diag([np.nan, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_decohere_keeps_a_non_finite_entry_outside_the_blocks(bad):
    # Σ_l Q^l a Q^l gives NaN for a non-finite entry (0·NaN); the diagonal
    # mask route must not zero it into a clean block-diagonal matrix.
    a = np.eye(4, dtype=complex) / 4
    a[0, 3] = bad
    for l in (number_operator(4), rotated_hermitian(np.random.default_rng(3), [0.0, 1.0, 1.0, 2.0])):
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(decohere(a, l)).all()
            assert not np.isfinite(decohere(a[None], l)).all()


def rotated_hermitian(rng: np.random.Generator, levels: list[float]) -> np.ndarray:
    """W diag(levels) W† for a random unitary W: degenerate clusters rotated
    off the standard basis."""
    g = rng.normal(size=(len(levels), len(levels))) + 1j * rng.normal(size=(len(levels), len(levels)))
    w, _ = np.linalg.qr(g)
    return w @ np.diag(levels) @ w.conj().T


@pytest.mark.parametrize("seed", range(5))
def test_mask_pinch_equals_projector_sum(seed):
    # V (m ∘ V†aV) V† against Σ_l Q^l a Q^l from the lazily built projectors.
    rng = np.random.default_rng(1200 + seed)
    levels = [0.0, 0.0, 1.0, 2.5, 2.5, 2.5, -1.0]
    a = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    dec = hermitian_eig(rotated_hermitian(rng, levels))
    assert len(dec.eigenvalues) == 4 and dec.vectors is not None
    assert frob(decohere(a, dec) - sum(q @ a @ q for q in dec.projectors)) < 1e-12
    # A diagonal L pinches by the elementwise mask alone, exactly.
    diag = hermitian_eig(np.diag(rng.permutation(levels)))
    assert diag.vectors is None
    assert np.array_equal(decohere(a, diag), sum(q @ a @ q for q in diag.projectors))


def test_decohere_stack_equals_each_matrix():
    rng = np.random.default_rng(1220)
    rotated = rotated_hermitian(rng, [0.0, 1.0, 1.0, 3.0])
    stack = np.stack([random_density(4, rng).matrix for _ in range(6)])
    for l in (rotated, np.diag([1.0, 0.0, 1.0, 2.0]), ObservableOp(rotated)):
        pinched = decohere(stack, l)
        assert pinched.shape == stack.shape
        for k in range(len(stack)):
            assert_allclose(pinched[k], decohere(stack[k], l), rtol=0, atol=1e-14)


def test_decohere_by_a_number_operator_needs_no_projectors():
    # Pinching by N_A pinches elementwise: memory stays a few d×d arrays
    # where one dense projector per level would take d³·16 bytes (268 MB).
    d = 256
    rng = np.random.default_rng(1221)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    l = number_operator(d)
    tracemalloc.start()
    try:
        out = decohere(a, l)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * d * d * 16
    assert np.array_equal(out, np.diag(np.diagonal(a)))


def _dense_symmetric_residual(state_s, state_a, quantity) -> float:
    """The transpose-invariance residual formed on the dense n×n product."""
    _, vs = np.linalg.eigh(quantity.system_part.matrix)
    _, va = np.linalg.eigh(quantity.apparatus_part.matrix)
    basis = kron(vs, va)
    x = basis.conj().T @ kron(state_s.matrix, state_a.matrix) @ basis
    return frob(x - x.T)


def test_check_symmetric_product_state_matches_dense_formula():
    rng = np.random.default_rng(1222)
    degenerate = ObservableOp(rotated_hermitian(rng, [0.0, 1.0, 1.0]))
    quantities = [
        ConservedQuantity(number_operator(2), number_operator(4)),
        ConservedQuantity(degenerate, number_operator(4)),
        ConservedQuantity(number_operator(3), ObservableOp(random_hermitian(4, rng))),
        ConservedQuantity(degenerate, ObservableOp(np.diag([2.0, 0.0, 1.0, 1.0]))),
    ]
    for q in quantities:
        ds, da = q.system_part.dim, q.apparatus_part.dim
        for _ in range(5):
            rho, xi = random_density(ds, rng), random_density(da, rng)
            want = _dense_symmetric_residual(rho, xi, q)
            assert abs(check_symmetric_product_state(rho, xi, q) - want) < 1e-12


def test_conserved_quantity_is_decomposed_once(monkeypatch):
    # L_S and L_A are each diagonalized once, and both pinchings, both
    # symmetric-state residuals and the cross-element check read that one
    # decomposition. (Non-diagonal parts, so eigh runs; the hypotheses
    # need not hold for every residual to be measured.)
    calls = []
    real = np.linalg.eigh

    def counting(h, *args, **kwargs):
        calls.append(np.shape(h))
        return real(h, *args, **kwargs)

    setup = load_scenario(fig1_scenario_path())
    quantity = ConservedQuantity(ObservableOp(SIGMA_X), ObservableOp(SIGMA_X))
    monkeypatch.setattr(np.linalg, "eigh", counting)
    verify_theorems(setup.model, setup.system_state(0.3), setup.observable, quantity)
    assert calls == [(2, 2), (2, 2)]


def test_check_conservation_jc_family():
    rng = np.random.default_rng(32)
    for dim_a in (2, 3, 5):
        xi = random_density(dim_a, rng)
        model, quantity = build_jc_model(JCModelSpec(2, dim_a, theta=0.8), xi)
        assert check_conservation(model, quantity) < 1e-10


def test_check_conservation_identity_unitary():
    model = MeasurementModel(
        DensityState(np.diag([0.4, 0.6]).astype(complex)),
        np.eye(4, dtype=complex),
        number_pointer(2),
    )
    q = ConservedQuantity(number_operator(2), number_operator(2))
    assert check_conservation(model, q) == pytest.approx(0.0, abs=1e-15)


def test_check_conservation_swap_spectrum_mismatch():
    # SWAP conserves A + A but not A + B when the two parts differ.
    swap = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i, i * 2 + j] = 1.0
    model = MeasurementModel(
        DensityState(np.diag([0.4, 0.6]).astype(complex)),
        swap,
        number_pointer(2),
    )
    matched = ConservedQuantity(ObservableOp(np.diag([0.0, 1.0])), ObservableOp(np.diag([0.0, 1.0])))
    skewed = ConservedQuantity(ObservableOp(np.diag([0.0, 1.0])), ObservableOp(np.diag([0.0, 2.0])))
    assert check_conservation(model, matched) == pytest.approx(0.0, abs=1e-15)
    assert check_conservation(model, skewed) > 0.1


def test_check_conservation_diagonal_pair_is_read_entry_by_entry(monkeypatch):
    # Diagonal L_S and L_A: (L_j − L_i)·U_ij against the dense commutator,
    # on non-conserving unitaries and non-integer, degenerate levels, with
    # no n×n product and no kron of the total operator.
    rng = np.random.default_rng(38)
    pairs = [
        (number_operator(3), number_operator(4)),
        (ObservableOp(np.diag([0.5, -1.25, 0.5])), ObservableOp(np.diag([2.0, 0.0, 0.1, 2.0]))),
    ]
    for ls, la in pairs:
        q = ConservedQuantity(ls, la)
        total = q.total_operator()
        unitaries = [random_unitary(12, rng), random_conserving_unitary(q, rng)]
        dense = [frob(u @ total - total @ u) for u in unitaries]
        monkeypatch.setattr(ConservedQuantity, "total_operator", None)
        for u, want in zip(unitaries, dense):
            model = MeasurementModel(random_density(4, rng), u, number_pointer(4))
            assert check_conservation(model, q) == pytest.approx(want, rel=1e-12, abs=1e-15)
            for value in (np.nan, np.inf, -np.inf * 1j):
                for index in ((0, 0), (2, 7)):
                    broken = u.copy()
                    broken[index] = value
                    broken_model = MeasurementModel(model.apparatus_state, broken, model.pointer)
                    assert np.isnan(check_conservation(broken_model, q))
        monkeypatch.undo()


def test_check_conservation_non_diagonal_pair_takes_the_dense_route():
    rng = np.random.default_rng(39)
    q = ConservedQuantity(ObservableOp(SIGMA_X), ObservableOp(np.diag([0.0, 1.0, 2.0])))
    total = q.total_operator()
    u = random_unitary(6, rng)
    model = MeasurementModel(random_density(3, rng), u, number_pointer(3))
    assert check_conservation(model, q) == frob(u @ total - total @ u)
    conserving = MeasurementModel(model.apparatus_state, random_conserving_unitary(q, rng), model.pointer)
    assert check_conservation(conserving, q) < 1e-12


def test_check_conservation_dimension_mismatch():
    model = MeasurementModel(
        DensityState(np.diag([0.4, 0.6]).astype(complex)),
        np.eye(4, dtype=complex),
        number_pointer(2),
    )
    q = ConservedQuantity(number_operator(3), number_operator(2))
    with pytest.raises(ValueError, match="dimension"):
        check_conservation(model, q)


def test_check_yanase_cases():
    xi = DensityState(np.diag([0.4, 0.6]).astype(complex))
    number_model = MeasurementModel(xi, np.eye(4, dtype=complex), number_pointer(2))
    q_number = ConservedQuantity(number_operator(2), number_operator(2))
    assert check_yanase(number_model, q_number) == pytest.approx(0.0, abs=1e-15)

    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    tilted = MeasurementModel(
        xi, np.eye(4, dtype=complex), PointerObservable(("u", "v"), (plus, minus))
    )
    assert check_yanase(tilted, q_number) > 0.1

    q_trivial = ConservedQuantity(number_operator(2), ObservableOp(np.eye(2, dtype=complex)))
    assert check_yanase(tilted, q_trivial) == pytest.approx(0.0, abs=1e-15)


def test_check_yanase_label_only_pointer():
    # Without eigenvalues the check is the same per-projector residual.
    xi = DensityState(np.diag([0.4, 0.6]).astype(complex))
    q = ConservedQuantity(number_operator(2), number_operator(2))
    unlabeled = MeasurementModel(xi, np.eye(4, dtype=complex), number_pointer(2))
    assert check_yanase(unlabeled, q) == pytest.approx(0.0, abs=1e-15)
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    tilted = MeasurementModel(
        xi, np.eye(4, dtype=complex), PointerObservable(("u", "v"), (plus, minus))
    )
    assert check_yanase(tilted, q) > 0.1


def test_check_yanase_label_only_pointer_propagates_nan():
    # The first projector commutes with L_A, so a fold that drops NaN
    # would report 0.0 for the NaN in the second one.
    xi = DensityState(np.diag([0.4, 0.6]).astype(complex))
    q = ConservedQuantity(number_operator(2), number_operator(2))
    broken = np.diag([0.0, 1.0]).astype(complex)
    broken[1, 1] = np.nan
    pointer = PointerObservable(("a", "b"), (np.diag([1.0, 0.0]).astype(complex), broken))
    model = MeasurementModel(xi, np.eye(4, dtype=complex), pointer)
    assert np.isnan(check_yanase(model, q))


def test_check_yanase_does_not_read_outcome_values():
    # Equal values make Σ_x v_x P^x = 1, which commutes with everything;
    # the residual is the projectors' own, whatever values a document attaches.
    def residual(values):
        pointer = {"outcomes": ["0", "1"], "blocks": [[0], [1]]}
        if values is not None:
            pointer["values"] = values
        doc = {
            "model": {
                "kind": "jaynes-cummings",
                "dim_s": 2,
                "dim_a": 2,
                "theta": 0.0,
                "apparatus_state": {"matrix": matrix_to_pairs(np.diag([0.4, 0.6]))},
                "pointer": pointer,
            },
            "system_state": {"matrix": matrix_to_pairs(np.diag([0.3, 0.7]))},
            "observable": "sigma_z",
            "conserved": {"system": matrix_to_pairs(np.diag([0.0, 1.0])), "apparatus": matrix_to_pairs(SIGMA_X)},
        }
        scenario = parse_scenario(json.dumps(doc))
        return check_yanase(scenario.model, scenario.conserved)

    residuals = [residual(values) for values in (None, [1.0, 1.0], [1.0, -1.0])]
    assert residuals == [residuals[0]] * 3
    assert residuals[0] == pytest.approx(np.sqrt(2), abs=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_check_yanase_matches_dense_commutators(seed):
    # random_pointer projectors are not diagonal in the apparatus basis, so
    # the check reads their rotated level table; the oracle forms every
    # commutator [P^x, L_A] densely.
    rng = np.random.default_rng(70 + seed)
    dim_a = 2 + seed % 4
    model = MeasurementModel(random_density(dim_a, rng), random_unitary(2 * dim_a, rng), random_pointer(dim_a, rng))
    assert model.pointer.levels[0] is not None
    la = random_hermitian(dim_a, rng)
    want = max(frob(p @ la - la @ p) for p in model.pointer.projectors)
    got = check_yanase(model, ConservedQuantity(number_operator(2), ObservableOp(la)))
    assert abs(got - want) < 1e-12


def _dense_yanase(model, quantity) -> float:
    # The per-outcome dense formula: max_x ‖(w_xi − w_xj)·L_ij‖_F over every
    # (i, j) of L = B†L_A B, zeros and diagonal included.
    basis, weights = model.pointer.levels
    la = quantity.apparatus_part.matrix
    if basis is not None:
        la = basis.conj().T @ la @ basis
    residuals = [frob((w[:, None] - w[None, :]) * la) for w in weights]
    return np.nan if any(np.isnan(residuals)) else max(residuals)


@pytest.mark.parametrize("pointer_kind", ["number", "coarse", "rotated", "nan", "inf"])
@pytest.mark.parametrize("la_kind", ["number", "sigma_x", "hermitian", "nan_diagonal"])
def test_check_yanase_reads_only_nonzero_off_diagonal_entries(pointer_kind, la_kind):
    # The residual from L_A's nonzero off-diagonal entries against the
    # dense formula over all d_a² entries: equal to the last digits, exactly
    # 0 for a diagonal L_A, and NaN wherever the dense formula is NaN (a
    # non-finite weight meets L's zeros there, and a NaN on L's diagonal
    # meets w_xi − w_xi = 0).
    rng = np.random.default_rng(81)
    dim_a = 6
    pointer = number_pointer(dim_a)
    if pointer_kind == "coarse":
        pointer = number_pointer(dim_a, partition=[("a", [0, 3]), ("b", [1, 2, 5]), ("c", [4])])
    elif pointer_kind == "rotated":
        v = random_unitary(dim_a, rng)
        pointer = PointerObservable(pointer.outcomes, tuple(v @ p @ v.conj().T for p in pointer.projectors))
        assert pointer.levels[0] is not None
    elif pointer_kind in ("nan", "inf"):
        table = pointer.diagonals.copy()
        table[2, 2] = np.nan if pointer_kind == "nan" else np.inf
        pointer = PointerObservable.from_table(pointer.outcomes, table)
    la = {
        "number": np.diag(np.arange(dim_a, dtype=float)),
        "sigma_x": np.kron(np.eye(dim_a // 2), SIGMA_X),
        "hermitian": random_hermitian(dim_a, rng),
        "nan_diagonal": np.diag([0.0, 1.0, np.nan, 3.0, 4.0, 5.0]),
    }[la_kind]
    model = MeasurementModel(random_density(dim_a, rng), np.eye(2 * dim_a, dtype=complex), pointer)
    q = ConservedQuantity(number_operator(2), ObservableOp(la))
    with np.errstate(invalid="ignore"):
        got, want = check_yanase(model, q), _dense_yanase(model, q)
    if np.isnan(want):
        assert np.isnan(got)
    elif la_kind == "number" and pointer_kind != "rotated":
        assert got == want == 0.0
    else:
        assert abs(got - want) <= 1e-14 * max(1.0, want)
    assert np.isnan(got) == (pointer_kind in ("nan", "inf") or la_kind == "nan_diagonal")


def test_non_commuting_projectors_have_no_level_table():
    # |0⟩⟨0| and |+⟩⟨+| share no eigenbasis: every route that reads the
    # level table refuses the pointer, and validation names the defect.
    plus = np.full((2, 2), 0.5, dtype=complex)
    pointer = PointerObservable(("0", "+"), (np.diag([1.0, 0.0]).astype(complex), plus))
    model = MeasurementModel(DensityState(np.diag([0.4, 0.6]).astype(complex)), np.eye(4, dtype=complex), pointer)
    q = ConservedQuantity(number_operator(2), number_operator(2))
    obs = ObservableOp(np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError, match="share no eigenbasis"):
        CompiledModel(model, obs)
    with pytest.raises(ValueError, match="share no eigenbasis"):
        check_cross_elements_imaginary(model, obs, q)
    with pytest.raises(ValueError, match="share no eigenbasis"):
        check_yanase(model, q)
    assert validate(pointer).invariant == "orthogonality"


def test_check_symmetric_product_state_fig1_residuals():
    setup = load_scenario(fig1_scenario_path())
    xi = setup.model.apparatus_state
    q = setup.conserved
    assert check_symmetric_product_state(setup.system_state(0.0), xi, q) < 1e-12
    assert check_symmetric_product_state(setup.system_state(np.pi), xi, q) < 1e-12
    assert check_symmetric_product_state(setup.system_state(np.pi / 2), xi, q) == pytest.approx(1.0, abs=1e-12)
    assert check_symmetric_product_state(setup.system_state(0.4 * np.pi), xi, q) == pytest.approx(
        0.95105651629515342, abs=1e-12
    )


def test_check_symmetric_product_state_diagonal_inputs():
    rng = np.random.default_rng(33)
    q = ConservedQuantity(number_operator(2), number_operator(3))
    rho = random_diagonal_density(2, rng)
    xi = random_diagonal_density(3, rng)
    assert check_symmetric_product_state(rho, xi, q) < 1e-14


def test_check_cross_elements_qubit_family_vanishes():
    rng = np.random.default_rng(11)
    for dim_a in (2, 3, 4):
        g = rng.normal(size=(dim_a, dim_a)) + 1j * rng.normal(size=(dim_a, dim_a))
        xi = g @ g.conj().T
        xi /= np.trace(xi).real
        model, q = build_jc_model(JCModelSpec(2, dim_a, theta=0.7), DensityState(xi))
        obs = ObservableOp(np.diag([-1.0, 1.0]))
        assert check_cross_elements_imaginary(model, obs, q) < 1e-10


def test_check_cross_elements_qutrit_system_does_not_vanish():
    # The vanishing of real cross elements is specific to a qubit system
    # factor; a 3-level system coupled the same way shows a finite residual.
    rng = np.random.default_rng(11)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    xi = g @ g.conj().T
    xi /= np.trace(xi).real
    model, q = build_jc_model(JCModelSpec(3, 3, theta=0.7), DensityState(xi))
    obs = ObservableOp(np.diag([0.3, -1.2, 2.1]).astype(complex))
    assert check_cross_elements_imaginary(model, obs, q) > 0.1


def test_check_cross_elements_identity_unitary():
    model = MeasurementModel(
        DensityState(np.diag([0.4, 0.6]).astype(complex)),
        np.eye(4, dtype=complex),
        number_pointer(2),
    )
    q = ConservedQuantity(number_operator(2), number_operator(2))
    obs = ObservableOp(np.diag([-1.0, 1.0]))
    assert check_cross_elements_imaginary(model, obs, q) == pytest.approx(0.0, abs=1e-15)


def _nan_observable_instance():
    # A conserving 2×3 model whose random pointer is not diagonal in the
    # number basis (so checks read its rotated level table), with the
    # observable diag(NaN, 1).
    rng = np.random.default_rng(44)
    model, q = random_number_conserving_model(2, 3, rng)
    model = MeasurementModel(model.apparatus_state, model.unitary, random_pointer(3, rng))
    assert model.pointer.diagonals is None
    obs = ObservableOp(np.diag([np.nan, 1.0]).astype(complex))
    return model, random_density(2, rng), obs, q


def test_check_cross_elements_rotated_route_propagates_nan():
    model, _, obs, q = _nan_observable_instance()
    assert np.isnan(check_cross_elements_imaginary(model, obs, q))


def test_theorem2_equalities_propagate_nan():
    model, rho, obs, q = _nan_observable_instance()
    verdict = verify_theorems(model, rho, obs, q)["theorem2"]
    assert np.isnan(verdict.equalities["before_chain"])
    assert np.isnan(verdict.equalities["after_chain"])
    assert not verdict.all_equalities_hold


def _dense_cross_elements(model, observable, quantity) -> float:
    # The definition, with one dense sandwich U†(O ⊗ P^x)U per outcome;
    # the number operators are non-degenerate, so eigenvalues label sectors.
    ws, vs = np.linalg.eigh(quantity.system_part.matrix)
    wa, va = np.linalg.eigh(quantity.apparatus_part.matrix)
    sys_of, app_of = np.repeat(ws, len(wa)), np.tile(wa, len(ws))
    mask = (sys_of[:, None] != sys_of[None, :]) & (app_of[:, None] != app_of[None, :])
    basis, u = kron(vs, va), model.unitary
    return max(
        float(np.abs((basis.conj().T @ u.conj().T @ kron(observable.matrix, p) @ u @ basis).real[mask]).max())
        for p in model.pointer.projectors
    )


@pytest.mark.parametrize(
    "kind, dim_s, dim_a, parts",
    [
        ("random", 2, 3, 2),
        ("random", 2, 6, 3),
        ("random", 3, 4, 2),
        ("random", 4, 6, 3),
        ("random", 3, 5, 5),
        ("weighted", 3, 4, 2),
        ("rotated", 2, 5, 2),
        ("rotated", 3, 4, 3),
        ("jaynes-cummings", 2, 6, 2),
        ("jaynes-cummings", 4, 4, 2),
    ],
)
def test_check_cross_elements_diagonal_route_matches_dense_sandwich(kind, dim_s, dim_a, parts):
    # Coarse number pointers are diagonal, so the check sums over their
    # levels in the apparatus basis; a unitarily conjugated pointer is not,
    # and is read through its rotated level table. The oracle forms every
    # dense sandwich.
    rng = np.random.default_rng(40 + 10 * dim_s + dim_a)
    blocks = np.array_split(np.arange(dim_a), parts)
    pointer = number_pointer(dim_a, partition=[(f"x{i}", b.tolist()) for i, b in enumerate(blocks)])
    if kind == "weighted":  # not a projector; the definition still applies
        pointer = PointerObservable(pointer.outcomes, (0.5 * pointer.projectors[0], *pointer.projectors[1:]))
    if kind == "rotated":
        v = random_unitary(dim_a, rng)
        pointer = PointerObservable(pointer.outcomes, tuple(v @ p @ v.conj().T for p in pointer.projectors))
    assert (pointer.diagonals is None) == (kind == "rotated")
    assert (pointer.levels[0] is None) == (kind != "rotated")
    if kind != "jaynes-cummings":
        q = ConservedQuantity(number_operator(dim_s), number_operator(dim_a))
        model = MeasurementModel(random_density(dim_a, rng), random_conserving_unitary(q, rng), pointer)
        obs = random_diagonal_observable(dim_s, rng)
    else:
        spec = JCModelSpec(dim_s, dim_a, theta=0.7, pointer=pointer)
        model, q = build_jc_model(spec, random_density(dim_a, rng))
        obs = ObservableOp(np.diag([0.3, -1.2, 2.1, 0.5][:dim_s]).astype(complex))
    got = check_cross_elements_imaginary(model, obs, q)
    assert abs(got - _dense_cross_elements(model, obs, q)) < 1e-12
    if kind == "jaynes-cummings":
        # The qubit family satisfies the hypothesis; dim_s = 4 breaks it
        # (residual ≈ 1.09).
        assert got < 1e-10 if dim_s == 2 else got > 1.0


def test_theorem1_random_conserving_instances():
    rng = np.random.default_rng(34)
    for _ in range(10):
        model, q = random_number_conserving_model(2, 3, rng)
        obs = random_diagonal_observable(2, rng)
        rho_diag = random_diagonal_density(2, rng)
        v = verify_theorems(model, rho_diag, obs, q)["theorem1"]
        assert v.all_hypotheses_hold
        assert v.all_equalities_hold
        assert v.claimed_equalities_hold
        # branch with a non-commuting state: only the decohered-model pair
        # is claimed, and it must still hold
        rho_any = random_density(2, rng)
        v2 = verify_theorems(model, rho_any, obs, q)["theorem1"]
        assert v2.equalities["ancilla_commutes_before"] < 1e-9
        assert v2.equalities["ancilla_commutes_after"] < 1e-9
        assert v2.claimed_equalities_hold


def test_theorem1_flags_noncommuting_observable():
    setup = load_scenario(fig1_scenario_path())
    rho = real_qubit_state(np.pi / 4)
    v = verify_theorems(setup.model, rho, ObservableOp(SIGMA_X), setup.conserved)["theorem1"]
    assert v.hypotheses["observable_commutes"] > 1e-3
    assert not v.all_hypotheses_hold
    # no claim is made, so a broken equality does not fail the verdict
    assert not v.equality_claimed("system_commutes_before")
    assert v.claimed_equalities_hold


def test_theorem1_state_coherence_breaks_first_branch():
    # Coherent system state at phase pi/2: the state hypothesis fails and
    # the model-vs-decohered-model equalities really do break.
    setup = load_scenario(fig1_scenario_path())
    rho = setup.system_state(np.pi / 2)
    v = verify_theorems(setup.model, rho, setup.observable, setup.conserved)["theorem1"]
    assert v.hypotheses["state_commutes"] > 0.1
    assert v.equalities["system_commutes_before"] > 1e-3
    assert v.equalities["system_commutes_after"] > 1e-3
    # the second branch needs no state hypothesis and must survive
    assert v.equalities["ancilla_commutes_before"] < 1e-9
    assert v.equalities["ancilla_commutes_after"] < 1e-9
    assert v.claimed_equalities_hold


def test_theorem2_fig1_symmetric_phases():
    setup = load_scenario(fig1_scenario_path())
    for phi in (0.0, np.pi):
        v = verify_theorems(setup.model, setup.system_state(phi), setup.observable, setup.conserved)["theorem2"]
        assert v.all_hypotheses_hold
        assert max(v.equalities.values()) < 1e-9


def test_theorem2_asymmetric_phase_breaks_chain():
    setup = load_scenario(fig1_scenario_path())
    v = verify_theorems(
        setup.model, setup.system_state(0.4 * np.pi), setup.observable, setup.conserved
    )["theorem2"]
    assert v.hypotheses["symmetric_state"] > 0.1
    assert max(v.equalities.values()) > 1e-3
    assert v.claimed_equalities_hold  # nothing is claimed when a hypothesis fails


@st.composite
def conserving_models(draw, use_jc=st.booleans()):
    """(model, q, rng) with n = d_s·d_a ≤ 16 and theorem 1's model
    hypotheses true by construction: a U that conserves L_S ⊗ 1 + 1 ⊗ L_A
    (Jaynes-Cummings when ``use_jc`` draws True, else ``random_conserving_unitary``
    over an L_A with a degenerate eigenvalue), a number pointer whose
    outcomes are unions of L_A's eigenspaces, and a full random ϱ; ``rng``
    goes on to draw the rest of the instance."""
    dim_s = draw(st.sampled_from([2, 3, 4]))
    dim_a = draw(st.integers(2, 16 // dim_s))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(use_jc):
        levels = np.arange(dim_a)  # N_A: one eigenspace per level
        theta = draw(st.floats(-2 * np.pi, 2 * np.pi))
        jc, q = build_jc_model(JCModelSpec(dim_s, dim_a, theta), DensityState(np.eye(dim_a) / dim_a))
        unitary = jc.unitary
    else:
        # dim_a eigenvalues from dim_a − 1 values: at least one repeats.
        levels = np.sort(draw(st.lists(st.integers(0, dim_a - 2), min_size=dim_a, max_size=dim_a)))
        q = ConservedQuantity(number_operator(dim_s), ObservableOp(np.diag(levels.astype(float))))
        unitary = random_conserving_unitary(q, rng)
    sectors = np.unique(levels)
    outcome_of = np.array(draw(st.lists(st.integers(0, 2), min_size=len(sectors), max_size=len(sectors))))
    partition = [
        (f"x{k}", np.flatnonzero(np.isin(levels, sectors[outcome_of == k])).tolist()) for k in np.unique(outcome_of)
    ]
    return MeasurementModel(random_density(dim_a, rng), unitary, number_pointer(dim_a, partition)), q, rng


@st.composite
def conserving_instances(draw):
    """(model, ρ, O, q): a ``conserving_models`` model and a diagonal O.
    ρ is diagonal (every hypothesis holds) or a full density matrix (the
    state hypothesis breaks)."""
    model, q, rng = draw(conserving_models())
    dim_s = model.dim_s
    rho = random_diagonal_density(dim_s, rng) if draw(st.booleans()) else random_density(dim_s, rng)
    return model, rho, random_diagonal_observable(dim_s, rng), q


def test_theorem1_is_sound_on_drawn_conserving_instances():
    # No drawn instance may have an equality claimed (its hypotheses held)
    # and broken; enough instances reach each claim that this is not vacuous.
    reached = {"system_commutes_before": 0, "ancilla_commutes_before": 0}

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(conserving_instances())
    def check(instance):
        v = verify_theorems(*instance)["theorem1"]
        broken = [n for n in v.equalities if v.equality_claimed(n) and not v.equalities_held[n]]
        assert not broken, (broken, v.hypotheses, v.equalities)
        for name in reached:
            reached[name] += v.equality_claimed(name)

    check()
    assert reached["system_commutes_before"] >= 20, reached
    assert reached["ancilla_commutes_before"] >= 50, reached


def real_density(dim: int, rng: np.random.Generator) -> DensityState:
    """Full-rank random density matrix with real entries: symmetric in the number basis."""
    g = rng.standard_normal((dim, dim))
    m = g @ g.T
    return DensityState((m / np.trace(m)).astype(complex))


@st.composite
def symmetric_instances(draw):
    """(model, ρ, O, q): a ``conserving_models`` model, mostly
    Jaynes-Cummings, with a real diagonal O. ρ and ϱ are each, mostly, real
    (theorem 2's symmetric-state hypothesis then holds) and otherwise a full
    complex density matrix."""
    mostly = st.sampled_from([True, True, True, False])
    model, q, rng = draw(conserving_models(use_jc=mostly))
    if draw(mostly):
        model = MeasurementModel(real_density(model.dim_a, rng), model.unitary, model.pointer)
    rho = real_density(model.dim_s, rng) if draw(mostly) else random_density(model.dim_s, rng)
    return model, rho, random_diagonal_observable(model.dim_s, rng), q


def test_theorem2_is_sound_on_drawn_conserving_instances():
    # No drawn instance may have every theorem-2 hypothesis held and a chain
    # broken; enough instances reach the claim that this is not vacuous.
    reached = []

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(symmetric_instances())
    def check(instance):
        v = verify_theorems(*instance)["theorem2"]
        if v.all_hypotheses_hold:
            assert v.all_equalities_hold, (v.hypotheses, v.equalities)
            reached.append(max(v.equalities.values()))

    check()
    assert len(reached) >= 20, reached


def theorem2_counterexample(broken: str):
    """A Jaynes-Cummings instance with real ρ, ϱ and diagonal O (every
    theorem-2 hypothesis held) altered so that only ``broken`` fails.

    With a qubit system every step of a real coupling flips the system
    level, so U†(O ⊗ P^x)U has no real doubly-off-diagonal element while
    O ⊗ P^x is real and commutes with σ_z ⊗ 1 (the rotated pointer), or is
    imaginary and anticommutes with it (the σ_y part of O): each
    alteration keeps ``cross_elements``. A qutrit system lets two steps
    reach such an element, which breaks ``cross_elements`` alone."""
    rng = np.random.default_rng(42)
    dim_s = 3 if broken == "cross_elements" else 2
    model, q = build_jc_model(JCModelSpec(dim_s, 3, 0.9), real_density(3, rng))
    rho = real_density(dim_s, rng)
    obs = ObservableOp(np.diag(rng.standard_normal(dim_s)).astype(complex))
    if broken == "conservation":
        # exp(−iθ σ_x ⊗ (a + a†)): the counter-rotating terms change the total number.
        a = ladder_lower(3)
        u = unitary_from_generator(kron(SIGMA_X, a + a.conj().T), 0.9)
        model = MeasurementModel(model.apparatus_state, u, model.pointer)
    elif broken == "yanase":
        c, s = np.cos(0.3), np.sin(0.3)
        r = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])  # a real rotation mixing levels 0 and 1
        projectors = tuple(np.outer(r[:, i], r[:, i]).astype(complex) for i in range(3))
        model = MeasurementModel(model.apparatus_state, model.unitary, PointerObservable(("x0", "x1", "x2"), projectors))
    elif broken == "observable_commutes":
        obs = ObservableOp(obs.matrix + np.array([[0, -1j], [1j, 0]]))  # + σ_y
    return model, rho, obs, q


@pytest.mark.parametrize("broken", ["conservation", "yanase", "observable_commutes", "cross_elements"])
def test_theorem2_counterexample_breaks_only_one_hypothesis(broken):
    # Each hypothesis is needed: with it alone broken, a chain fails.
    v = verify_theorems(*theorem2_counterexample(broken))["theorem2"]
    assert [h for h, held in v.hypotheses_held.items() if not held] == [broken]
    assert v.hypotheses[broken] > 1e-2
    assert max(v.equalities.values()) > 1e-3, v.equalities
    assert v.claimed_equalities_hold  # nothing is claimed


def test_a_hypothesis_at_the_tolerance_is_broken():
    # Held means strictly below the tolerance.
    instance = theorem2_counterexample("cross_elements")
    residual = verify_theorems(*instance)["theorem2"].hypotheses["cross_elements"]
    v = verify_theorems(*instance, tol=residual)["theorem2"]
    assert not v.hypotheses_held["cross_elements"]
    assert v.hypotheses_held["conservation"]
    assert not v.equality_claimed("before_chain")


def residual_bytes(residuals) -> list:
    return [(name, np.float64(r).tobytes()) for name, r in residuals.items()]


def test_verify_theorems_shares_without_moving_a_bit():
    # Sharing the hypotheses, compiles and decohered state must not move a
    # bit: a caller's compile gives the same verdicts field for field, and
    # each hypothesis residual is the one its checker gives called alone.
    rng = np.random.default_rng(35)
    setup = load_scenario(fig1_scenario_path())
    cases = [(setup.model, setup.system_state(0.4), setup.observable, setup.conserved)]
    for _ in range(3):
        model, q = random_number_conserving_model(2, 3, rng)
        cases.append((model, random_density(2, rng), random_diagonal_observable(2, rng), q))
    for model, rho, obs, q in cases:
        verdicts = verify_theorems(model, rho, obs, q, 1e-9)
        reused = verify_theorems(model, rho, obs, q, 1e-9, _compiled=CompiledModel(model, obs))
        assert list(verdicts) == list(reused) == ["theorem1", "theorem2"]
        for name, verdict in verdicts.items():
            assert verdict == reused[name]
            for part in ("hypotheses", "equalities"):
                assert residual_bytes(getattr(verdict, part)) == residual_bytes(getattr(reused[name], part))

        decohered = DensityState(decohere(model.apparatus_state.matrix, q.apparatus_part))
        symmetric = (
            check_symmetric_product_state(rho, model.apparatus_state, q),
            check_symmetric_product_state(rho, decohered, q),
        )
        shared = {
            "conservation": check_conservation(model, q),
            "yanase": check_yanase(model, q),
            "observable_commutes": frob(commutator(obs.matrix, q.system_part.matrix)),
        }
        alone = {
            "theorem1": {**shared, "state_commutes": frob(commutator(rho.matrix, q.system_part.matrix))},
            "theorem2": {
                **shared,
                "symmetric_state": max(symmetric),
                "cross_elements": check_cross_elements_imaginary(model, obs, q),
            },
        }
        for name, want in alone.items():
            assert residual_bytes(verdicts[name].hypotheses) == residual_bytes(want), name
        terms = verdicts["theorem2"].terms["symmetric_state"]
        assert np.array(terms).tobytes() == np.array(symmetric).tobytes()


def per_cell_spreads(cells):
    """Spreads of before and after over (compiled, state) cells, one
    conditional_values() call per cell on its state alone: the reference
    for the stacked grid. An outcome at or below P_FLOOR in any cell is
    skipped; a NaN p is kept."""
    evaluations = [[a.tolist() for a in compiled.conditional_values(state.matrix)] for compiled, state in cells]
    before, after = [], []
    for i in range(len(evaluations[0][0])):
        if any(p[i] <= P_FLOOR for p, _, _ in evaluations):
            continue
        for deviations, xs in ((before, [v[1][i] for v in evaluations]), (after, [v[2][i] for v in evaluations])):
            deviations.extend(x - min(xs) for x in xs)
    return tuple(np.nan if np.isnan(d).any() else max(d, default=0.0) for d in (before, after))


def per_cell_equalities(model, rho, obs, q):
    decohered = MeasurementModel(
        DensityState(decohere(model.apparatus_state.matrix, q.apparatus_part)), model.unitary, model.pointer
    )
    original, dec = CompiledModel(model, obs), CompiledModel(decohered, obs)
    pinched = DensityState(decohere(rho.matrix, q.system_part))
    spreads = {
        "system_commutes": per_cell_spreads([(original, rho), (dec, rho)]),
        "ancilla_commutes": per_cell_spreads([(dec, rho), (dec, pinched)]),
        "chain": per_cell_spreads([(original, rho), (dec, rho), (original, pinched), (dec, pinched)]),
    }
    return {
        "system_commutes_before": spreads["system_commutes"][0],
        "system_commutes_after": spreads["system_commutes"][1],
        "ancilla_commutes_before": spreads["ancilla_commutes"][0],
        "ancilla_commutes_after": spreads["ancilla_commutes"][1],
        "before_chain": spreads["chain"][0],
        "after_chain": spreads["chain"][1],
    }


def grid_cases():
    setup = load_scenario(fig1_scenario_path())
    cases = [
        ("fig1", setup.model, setup.system_state(phi), setup.observable, setup.conserved)
        for phi in (0.0, 0.4, np.pi / 2, 0.4 * np.pi, np.pi, 5.1)
    ]
    rng = np.random.default_rng(36)
    for dim_s, dim_a in ((2, 2), (2, 3), (3, 2), (3, 3)):
        model, q = random_number_conserving_model(dim_s, dim_a, rng)
        cases.append(("conserving", model, random_density(dim_s, rng), random_diagonal_observable(dim_s, rng), q))
        cases.append(("conserving", model, random_diagonal_density(dim_s, rng), random_diagonal_observable(dim_s, rng), q))
    # ϱ = |0⟩⟨0| and U = 1: the outcome "1" (apparatus level 1) has p = 0
    # in every cell, so it is skipped rather than turning the spreads NaN.
    q = ConservedQuantity(number_operator(2), number_operator(2))
    empty = MeasurementModel(DensityState(np.diag([1.0, 0.0])), np.eye(4, dtype=complex), number_pointer(2))
    cases.append(("zero", empty, random_density(2, rng), random_diagonal_observable(2, rng), q))
    # Hadamard then CNOT maps |+⟩ to |0⟩|0⟩, so outcome "1" has p = 0 for ρ
    # = |+⟩⟨+| but p = 1/2 for Φ(ρ) = 1/2: skipped only where a cell is empty.
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    cnot = np.eye(4)[[0, 1, 3, 2]].astype(complex)
    mixing = MeasurementModel(DensityState(np.diag([1.0, 0.0])), cnot @ kron(hadamard, np.eye(2)), number_pointer(2))
    cases.append(("partly zero", mixing, DensityState(np.full((2, 2), 0.5)), ObservableOp(np.diag([-1.0, 1.0])), q))
    cases.append(("nan", *_nan_observable_instance()))
    # ϱ = diag(NaN, 1): every cell's p is NaN, which is no zero-probability
    # outcome, so the NaN values enter every spread.
    nan_p = MeasurementModel(DensityState(np.diag([np.nan, 1.0])), np.eye(4, dtype=complex), number_pointer(2))
    cases.append(("nan p", nan_p, DensityState(np.full((2, 2), 0.5)), ObservableOp(np.diag([-1.0, 1.0])), q))
    return cases


@pytest.mark.parametrize("kind, model, rho, obs, q", grid_cases())
def test_equalities_equal_per_cell_reports_bit_for_bit(kind, model, rho, obs, q):
    verdicts = verify_theorems(model, rho, obs, q)
    got = {**verdicts["theorem1"].equalities, **verdicts["theorem2"].equalities}
    want = per_cell_equalities(model, rho, obs, q)
    assert list(got) == list(want)
    for name in want:
        assert np.float64(got[name]).tobytes() == np.float64(want[name]).tobytes(), name
    if kind in ("zero", "partly zero"):
        p, _, _ = CompiledModel(model, obs).conditional_values(rho.matrix)
        assert p[model.outcomes.index("1")] < 1e-12 < p[model.outcomes.index("0")]
        assert all(np.isfinite(v) for v in got.values())
    assert all(np.isnan(v) for v in got.values()) == (kind in ("nan", "nan p"))


@pytest.mark.parametrize(
    "xs", [[-0.0, 0.0], [0.0, -0.0], [-np.inf, 1.0], [np.inf, 1.0], [np.inf, np.inf], [1.0, np.nan], [2.0, 1.0]]
)
def test_spreads_keep_the_per_report_arithmetic(xs):
    # Signed zeros and infinities come out as the per-cell fold gives
    # them: deviations x − min(xs), NaN if any is NaN, and +0.0 for a zero spread.
    from symcond.symmetry import _TheoremInputs

    grid = np.ones((3, 2, 2, 1))
    grid[1:, :, 0, 0] = xs
    got = _TheoremInputs({}, None, grid).spreads((0, 0), (1, 0))
    deviations = [x - min(xs) for x in xs]
    want = np.nan if np.isnan(deviations).any() else max(deviations)
    assert np.array(got).tobytes() == np.array([want, want]).tobytes()


def test_spreads_compare_a_nan_probability_and_skip_a_zero_one():
    # A NaN p is no zero-probability outcome: its values (NaN, as
    # conditional_values divides by p) enter the spread. A p at the floor
    # is still skipped, whatever its values.
    from symcond.symmetry import _TheoremInputs

    grid = np.ones((3, 2, 1, 2))  # [(p, before, after), model, state, outcome]
    grid[:, 1, 0, 0] = np.nan
    grid[0, 1, 0, 1] = P_FLOOR
    grid[1:, 1, 0, 1] = 5.0
    assert np.isnan(_TheoremInputs({}, None, grid).spreads((0, 0), (1, 0))).all()
    grid[:, 1, 0, 0] = 1.0
    assert _TheoremInputs({}, None, grid).spreads((0, 0), (1, 0)) == (0.0, 0.0)


def test_blockwise_matches_direct_on_fig1():
    setup = load_scenario(fig1_scenario_path())
    rho = setup.system_state(0.0)
    before, after = blockwise_conditional_values(setup.model, rho, setup.observable, setup.conserved)
    plus = setup.model.outcomes.index("+")
    assert before[plus] == pytest.approx(0.9336477008475339, abs=1e-11)
    assert after[plus] == pytest.approx(0.54691816067802734, abs=1e-11)


def test_blockwise_matches_direct_on_random_conserving_models():
    rng = np.random.default_rng(35)
    for _ in range(20):
        model, q = random_number_conserving_model(2, 3, rng)
        rho = random_density(2, rng)
        obs = random_diagonal_observable(2, rng)
        _, direct_befores, direct_afters = CompiledModel(model, obs).conditional_values(rho.matrix)
        try:
            befores, afters = blockwise_conditional_values(model, rho, obs, q)
        except Exception as exc:
            assert isinstance(exc, ZeroProbabilityOutcome)
            continue
        for before, after, direct_before, direct_after in zip(befores, afters, direct_befores, direct_afters):
            assert abs(before - direct_before) < 1e-9
            assert abs(after - direct_after) < 1e-9


def test_blockwise_nan_probability_raises_instead_of_nan_values():
    setup = load_scenario(fig1_scenario_path())
    varrho = setup.model.apparatus_state.matrix.copy()
    varrho[1, 1] = np.nan
    model = MeasurementModel(DensityState(varrho), setup.model.unitary, setup.model.pointer)
    with pytest.raises(ZeroProbabilityOutcome, match="nan"):
        blockwise_conditional_values(model, setup.system_state(0.0), setup.observable, setup.conserved)


def test_blockwise_nan_precondition_residual_raises_value_error():
    # A NaN in U makes the conservation residual NaN, which is not below
    # any tolerance: the precondition names it, before any probability.
    rng = np.random.default_rng(37)
    model, q = random_number_conserving_model(2, 2, rng)
    unitary = model.unitary.copy()
    unitary[0, 0] = np.nan
    broken = MeasurementModel(model.apparatus_state, unitary, model.pointer)
    assert np.isnan(check_conservation(broken, q))
    with pytest.raises(ValueError, match="precondition 'conservation' violated: residual nan") as exc:
        blockwise_conditional_values(broken, random_density(2, rng), random_diagonal_observable(2, rng), q)
    assert not isinstance(exc.value, ZeroProbabilityOutcome)


def test_blockwise_names_the_first_zero_probability_outcome():
    # U = 1 and the apparatus in level 0: every other pointer level has p = 0.
    model = MeasurementModel(DensityState(np.diag([1.0, 0.0, 0.0]).astype(complex)), np.eye(6), number_pointer(3))
    q = ConservedQuantity(number_operator(2), number_operator(3))
    rho = DensityState(np.diag([0.3, 0.7]).astype(complex))
    obs = ObservableOp(np.diag([-1.0, 1.0]))
    with pytest.raises(ZeroProbabilityOutcome, match=f"^outcome {model.outcomes[1]!r} "):
        blockwise_conditional_values(model, rho, obs, q)


def test_blockwise_rejects_noncommuting_observable():
    setup = load_scenario(fig1_scenario_path())
    rho = setup.system_state(0.0)
    with pytest.raises(ValueError, match="precondition"):
        blockwise_conditional_values(setup.model, rho, ObservableOp(SIGMA_X), setup.conserved)


def test_blockwise_rejects_nonconserving_unitary():
    rng = np.random.default_rng(36)
    model = MeasurementModel(
        DensityState(np.diag([0.4, 0.6]).astype(complex)),
        random_unitary(4, rng),
        number_pointer(2),
    )
    q = ConservedQuantity(number_operator(2), number_operator(2))
    rho = DensityState(np.diag([0.3, 0.7]).astype(complex))
    obs = ObservableOp(np.diag([-1.0, 1.0]))
    with pytest.raises(ValueError, match="conservation"):
        blockwise_conditional_values(model, rho, obs, q)


def test_random_conserving_unitary_commutes():
    rng = np.random.default_rng(37)
    q = ConservedQuantity(number_operator(2), number_operator(4))
    u = random_conserving_unitary(q, rng)
    total = q.total_operator()
    assert frob(u @ u.conj().T - np.eye(8)) < 1e-12
    assert frob(u @ total - total @ u) < 1e-12
