"""Tests for the dense linear-algebra helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from symcond.linalg import (
    cluster_labels,
    cluster_tolerance,
    commutator,
    ensure_hermitian,
    frob,
    hermitian_eig,
    kron,
    partial_trace,
    unitary_from_generator,
)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def test_kron_identities():
    eye2 = np.eye(2, dtype=complex)
    assert_allclose(kron(eye2, eye2), np.eye(4))
    d = np.diag([0.0, 1.0]).astype(complex)
    assert_allclose(kron(d, d), np.diag([0.0, 0.0, 0.0, 1.0]))


def test_kron_matches_index_formula():
    a = SIGMA_X
    b = SIGMA_Z
    got = kron(a, b)
    want = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want[i * 2 + k, j * 2 + l] = a[i, j] * b[k, l]
    assert_allclose(got, want)


@pytest.mark.parametrize(
    "shape_a, shape_b", [((2, 2), (2, 2)), ((4, 4), (16, 16)), ((2, 3), (4, 1)), ((1, 1), (3, 5)), ((3, 2), (1, 1))]
)
@pytest.mark.parametrize("complex_a, complex_b", [(False, False), (True, False), (False, True), (True, True)])
def test_kron_equals_numpy_kron_exactly(shape_a, shape_b, complex_a, complex_b):
    rng = np.random.default_rng(7)

    def draw(shape, is_complex):
        m = rng.normal(size=shape)
        return m + 1j * rng.normal(size=shape) if is_complex else m

    a, b = draw(shape_a, complex_a), draw(shape_b, complex_b)
    got, want = kron(a, b), np.kron(a, b)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_kron_associativity_and_trace():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)
    assert_allclose(np.trace(kron(a, b)), np.trace(a) * np.trace(b), atol=1e-12)


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    x = kron(a, b)
    assert_allclose(partial_trace(x, 2, 3, over="apparatus"), a * np.trace(b), atol=1e-12)
    assert_allclose(partial_trace(x, 2, 3, over="system"), b * np.trace(a), atol=1e-12)


def test_kron_and_partial_trace_take_stacks_matrix_by_matrix():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    stacked = kron(a, b)
    assert stacked.shape == (4, 6, 6)
    assert np.array_equal(stacked, np.stack([kron(m, b) for m in a]))
    assert np.array_equal(kron(b, a), np.stack([kron(b, m) for m in a]))
    for over in ("apparatus", "system"):
        want = np.stack([partial_trace(x, 2, 3, over) for x in stacked])
        assert np.array_equal(partial_trace(stacked, 2, 3, over), want)


def test_partial_trace_bell_marginals():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(bell, bell.conj())
    assert_allclose(partial_trace(rho, 2, 2, over="apparatus"), np.eye(2) / 2, atol=1e-15)
    assert_allclose(partial_trace(rho, 2, 2, over="system"), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_rejects_bad_input():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6, dtype=complex), 2, 2, over="apparatus")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4, dtype=complex), 2, 2, over="environment")


def test_cluster_labels_groups_near_degenerate():
    values = np.array([0.0, 1e-12, 1.0, 1.0 + 5e-10, 2.0])
    labels = cluster_labels(values, tol=1e-9)
    assert labels.tolist() == [0, 0, 1, 1, 2]


def test_cluster_tolerance_scales_with_norm():
    assert cluster_tolerance(np.array([0.0, 0.5])) == pytest.approx(1e-9)
    assert cluster_tolerance(np.array([0.0, 100.0])) == pytest.approx(1e-7)


def test_hermitian_eig_degenerate_diagonal():
    dec = hermitian_eig(np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex))
    assert_allclose(dec.eigenvalues, [0.0, 1.0, 2.0])
    ranks = [int(round(np.trace(q).real)) for q in dec.projectors]
    assert ranks == [1, 2, 1]


def test_hermitian_eig_pauli_x():
    dec = hermitian_eig(SIGMA_X)
    assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert_allclose(dec.projectors[0], minus, atol=1e-14)
    assert_allclose(dec.projectors[1], plus, atol=1e-14)


@pytest.mark.parametrize("dim", [2, 5, 16, 32])
def test_hermitian_eig_projector_axioms(dim):
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (g + g.conj().T) / 2
    dec = hermitian_eig(h)
    total = np.zeros((dim, dim), dtype=complex)
    recon = np.zeros((dim, dim), dtype=complex)
    for lam, q in zip(dec.eigenvalues, dec.projectors):
        assert frob(q @ q - q) < 1e-10
        assert frob(q - q.conj().T) < 1e-12
        total += q
        recon += lam * q
    assert frob(total - np.eye(dim)) < 1e-10
    assert frob(recon - h) < 1e-10 * max(1.0, frob(h))
    for i, qi in enumerate(dec.projectors):
        for qj in dec.projectors[i + 1 :]:
            assert frob(qi @ qj) < 1e-10


def test_hermitian_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(bad)


def test_hermitian_eig_symmetrizes_tiny_defect():
    h = SIGMA_Z + np.array([[0.0, 1e-9], [0.0, 0.0]])
    dec = hermitian_eig(h)
    assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-8)


def test_unitary_from_generator_zero_angle():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2
    assert_allclose(unitary_from_generator(h, 0.0), np.eye(4), atol=1e-14)


def test_unitary_from_generator_pauli_x_quarter_turn():
    u = unitary_from_generator(SIGMA_X, np.pi / 2)
    assert_allclose(u, -1j * SIGMA_X, atol=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_unitary_from_generator_is_a_one_parameter_group(t1, t2):
    rng = np.random.default_rng(17)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = (g + g.conj().T) / 2
    u1 = unitary_from_generator(h, t1)
    u2 = unitary_from_generator(h, t2)
    u12 = unitary_from_generator(h, t1 + t2)
    assert frob(u1 @ u1.conj().T - np.eye(3)) < 1e-10
    assert frob(u1 @ u2 - u12) < 1e-9


def test_commutator_antisymmetry():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert_allclose(commutator(a, b), -commutator(b, a), atol=1e-12)


def test_nan_is_never_symmetrized_away():
    # A NaN defect compares false with the tolerance; it must raise, not
    # pass as Hermitian, on the eigh route and on the diagonal route.
    with pytest.raises(ValueError, match="not Hermitian"):
        ensure_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eig(np.array([[1.0, np.nan], [np.nan, 0.0]]))


@pytest.mark.parametrize(
    "diagonal", [[0.0, 1.0, 2.0, 3.0], [2.0, 0.0, 1.0, 1.0, 0.0], [1.0, 0.0], [5.0, 5.0, 5.0]]
)
def test_hermitian_eig_diagonal_route_matches_eigh(diagonal):
    # A diagonal matrix skips eigh; its clusters, eigenvalues and lazy
    # projectors are the ones eigh's decomposition gives.
    h = np.diag(diagonal).astype(complex)
    dec = hermitian_eig(h)
    assert dec.vectors is None
    w, v = np.linalg.eigh(h)
    labels = cluster_labels(w, cluster_tolerance(w))
    assert_allclose(dec.eigenvalues, [w[labels == k].mean() for k in range(labels[-1] + 1)], rtol=0, atol=0)
    for k, q in enumerate(dec.projectors):
        block = v[:, labels == k]
        assert np.array_equal(q, block @ block.conj().T)
    assert dec.eigenvalues[dec.labels].tolist() == diagonal


def test_cluster_labels_merge_gaps_below_tolerance():
    values = np.array([0.0, 1e-12, 1.0, 1.0 + 5e-10, 2.0, 3.0])
    assert cluster_labels(values, 1e-9).tolist() == [0, 0, 1, 1, 2, 3]
    assert cluster_labels(np.array([]), 1e-9).tolist() == []
