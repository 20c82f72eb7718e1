"""Tests for the exchange-coupling model family and its closed-form unitary."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from symcond import (
    DensityState,
    JCModelSpec,
    QubitCoherentState,
    build_jc_model,
    check_conservation,
    check_yanase,
    fig1_scenario_path,
    jc_hamiltonian,
    jc_unitary_closed_form,
    load_scenario,
    qubit_coherent_state,
    validate,
)
from symcond.jaynes_cummings import (
    ladder_lower,
    ladder_raise,
    number_operator,
    number_pointer,
)
from symcond.linalg import frob, kron, unitary_from_generator
from symcond.sampling import random_density


def test_ladder_qubit_entries():
    assert_allclose(ladder_raise(2), np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert_allclose(ladder_lower(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ladder_dim3_amplitudes():
    up = ladder_raise(3)
    assert up[1, 0] == pytest.approx(1.0)
    assert up[2, 1] == pytest.approx(np.sqrt(2.0))
    assert np.count_nonzero(up) == 2


def test_ladder_adjointness_is_exact():
    for dim in (2, 3, 7):
        assert np.array_equal(ladder_lower(dim), ladder_raise(dim).conj().T)


def test_ladder_commutator_shows_truncation():
    # [raise, lower] = -1 everywhere except the top level, which picks up
    # the weight the cut ladder cannot pass on.
    dim = 4
    comm = ladder_raise(dim) @ ladder_lower(dim) - ladder_lower(dim) @ ladder_raise(dim)
    assert_allclose(comm, np.diag([-1.0, -1.0, -1.0, 3.0]), atol=1e-12)


def test_number_operator_entries():
    assert_allclose(number_operator(4).matrix, np.diag([0.0, 1.0, 2.0, 3.0]))


def test_jc_hamiltonian_qubit_qubit():
    h = jc_hamiltonian(2, 2).matrix
    want = np.zeros((4, 4), dtype=complex)
    want[1, 2] = want[2, 1] = 1.0  # |0,1><1,0| + h.c.
    assert_allclose(h, want, atol=1e-15)


def test_jc_hamiltonian_qubit_qutrit_hand_expansion():
    # raise_2 (x) lower_3 couples |0,1>->|1,0> with amplitude 1 and
    # |0,2>->|1,1> with amplitude sqrt(2); plus the conjugate pairs.
    h = jc_hamiltonian(2, 3).matrix
    want = np.zeros((6, 6), dtype=complex)
    want[3, 1] = want[1, 3] = 1.0
    want[4, 2] = want[2, 4] = np.sqrt(2.0)
    assert_allclose(h, want, atol=1e-15)


@pytest.mark.parametrize("dim_s,dim_a", [(2, 2), (2, 8), (3, 5), (4, 4)])
def test_jc_hamiltonian_conserves_total_number(dim_s, dim_a):
    h = jc_hamiltonian(dim_s, dim_a).matrix
    n_tot = kron(number_operator(dim_s).matrix, np.eye(dim_a)) + kron(
        np.eye(dim_s), number_operator(dim_a).matrix
    )
    assert frob(h @ n_tot - n_tot @ h) < 1e-12


def test_closed_form_zero_angle_is_identity():
    u = jc_unitary_closed_form(JCModelSpec(2, 4, theta=0.0))
    assert_allclose(u, np.eye(8), atol=1e-15)


def test_closed_form_qubit_qubit_block():
    # At theta = pi/3 the one-excitation block rotates by cos/sin of pi/3.
    u = jc_unitary_closed_form(JCModelSpec(2, 2, theta=np.pi / 3))
    col = u[:, 1]  # image of |0,1>
    assert col[1] == pytest.approx(0.5)
    assert col[2] == pytest.approx(-1j * np.sqrt(3.0) / 2.0)
    assert abs(col[0]) == pytest.approx(0.0)
    assert abs(col[3]) == pytest.approx(0.0)
    # the zero- and top-excitation corners are untouched
    assert u[0, 0] == pytest.approx(1.0)
    assert u[3, 3] == pytest.approx(1.0)


@pytest.mark.parametrize("dim_a", [2, 3, 5, 8, 10])
def test_closed_form_matches_spectral_exponential(dim_a):
    rng = np.random.default_rng(dim_a)
    for theta in rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=4):
        spec = JCModelSpec(2, dim_a, theta=float(theta))
        direct = jc_unitary_closed_form(spec)
        h = jc_hamiltonian(2, dim_a).matrix
        reference = unitary_from_generator(h, float(theta))
        assert frob(direct - reference) < 1e-10


def test_closed_form_is_unitary():
    u = jc_unitary_closed_form(JCModelSpec(2, 6, theta=1.3))
    assert frob(u @ u.conj().T - np.eye(12)) < 1e-12


def test_closed_form_requires_qubit_system():
    with pytest.raises(ValueError, match="dim_s = 2"):
        jc_unitary_closed_form(JCModelSpec(3, 3, theta=1.0))


def test_model_spec_validation():
    with pytest.raises(ValueError):
        JCModelSpec(1, 2, theta=0.5)
    with pytest.raises(ValueError):
        JCModelSpec(2, 2, theta=float("nan"))


def test_number_pointer_default_partition():
    ptr = number_pointer(3)
    assert ptr.outcomes == ("0", "1", "2")
    assert_allclose(sum(int(x) * ptr.projector(x) for x in ptr.outcomes), np.diag([0.0, 1.0, 2.0]))


def test_number_pointer_custom_partition():
    ptr = number_pointer(3, partition=[("low", [0, 1]), ("high", [2])])
    assert ptr.outcomes == ("low", "high")
    assert_allclose(ptr.projector("low"), np.diag([1.0, 1.0, 0.0]))
    assert_allclose(-ptr.projector("low") + ptr.projector("high"), np.diag([-1.0, -1.0, 1.0]))


def test_number_pointer_is_built_as_its_table():
    # One outcome per level: the (256, 256) table, never 256 dense 256×256
    # projectors (268 MB).
    tracemalloc.start()
    try:
        ptr = number_pointer(256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 256 * 256 * 16
    assert np.array_equal(ptr.diagonals, np.eye(256))


def test_number_pointer_rejects_bad_partition():
    with pytest.raises(ValueError, match="exactly once"):
        number_pointer(3, partition=[("a", [0]), ("b", [0, 2])])
    with pytest.raises(ValueError, match="exactly once"):
        number_pointer(3, partition=[("a", [0])])


def test_qubit_coherent_state_limits():
    ground = qubit_coherent_state(QubitCoherentState(polar=np.pi))
    assert_allclose(ground.matrix, np.diag([1.0, 0.0]), atol=1e-15)
    excited = qubit_coherent_state(QubitCoherentState(polar=0.0))
    assert_allclose(excited.matrix, np.diag([0.0, 1.0]), atol=1e-15)


def test_qubit_coherent_state_population_split():
    rho = qubit_coherent_state(QubitCoherentState(polar=np.pi / 4, phase=0.3))
    assert rho.matrix[1, 1].real == pytest.approx(np.cos(np.pi / 8) ** 2)
    assert rho.matrix[0, 0].real == pytest.approx(np.sin(np.pi / 8) ** 2)
    assert np.trace(rho.matrix).real == pytest.approx(1.0)


def test_qubit_coherent_state_phase_enters_off_diagonal():
    a = qubit_coherent_state(QubitCoherentState(polar=np.pi / 2, phase=0.0))
    b = qubit_coherent_state(QubitCoherentState(polar=np.pi / 2, phase=np.pi / 2))
    assert a.matrix[0, 1].imag == pytest.approx(0.0, abs=1e-15)
    assert abs(b.matrix[0, 1].imag) > 0.4


def test_build_jc_model_dimension_check():
    with pytest.raises(ValueError, match="does not match"):
        build_jc_model(JCModelSpec(2, 3, theta=0.5), DensityState(np.eye(2, dtype=complex) / 2))


def test_build_jc_model_spectral_route_for_larger_system():
    rng = np.random.default_rng(40)
    model, quantity = build_jc_model(JCModelSpec(3, 3, theta=0.9), random_density(3, rng))
    assert validate(model) is None
    assert check_conservation(model, quantity) < 1e-10


def test_fig1_scenario_invariants():
    setup = load_scenario(fig1_scenario_path())
    assert setup.model.dim_s == 2
    assert setup.model.dim_a == 2
    assert setup.model.outcomes == ("+", "-")
    assert validate(setup.model) is None
    assert check_conservation(setup.model, setup.conserved) < 1e-12
    assert check_yanase(setup.model, setup.conserved) < 1e-12
    xi = setup.model.apparatus_state.matrix
    assert xi[1, 1].real == pytest.approx(np.cos(np.pi / 6) ** 2)
