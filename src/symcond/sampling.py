"""Seeded random instance generators for self-tests and property checks.

Everything takes an explicit ``numpy.random.Generator`` so identical seeds
give identical instances; nothing here touches global random state.
"""

from __future__ import annotations

import numpy as np

from .jaynes_cummings import number_operator, number_pointer
from .linalg import dagger, unitary_from_generator
from .objects import DensityState, MeasurementModel, ObservableOp, PointerObservable
from .symmetry import ConservedQuantity, decohere


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Hermitian matrix with standard Gaussian entries, hermitized."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + dagger(g)) / 2


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with the standard phase fix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density(dim: int, rng: np.random.Generator) -> DensityState:
    """Full-rank random density matrix GG†/tr[GG†]."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ dagger(g)
    return DensityState(m / np.trace(m).real)


def random_observable(dim: int, rng: np.random.Generator) -> ObservableOp:
    return ObservableOp(random_hermitian(dim, rng))


def random_pointer(dim: int, rng: np.random.Generator) -> PointerObservable:
    """Projective pointer from a random orthonormal basis.

    The basis columns are split into a random count (between 2 and dim)
    of contiguous groups. Labels are "x0", "x1", … with no eigenvalues
    attached.
    """
    n_outcomes = int(rng.integers(2, dim + 1)) if dim > 2 else 2
    v = random_unitary(dim, rng)
    cuts = np.array_split(np.arange(dim), n_outcomes)
    projectors = []
    for idx in cuts:
        block = v[:, idx]
        projectors.append(block @ dagger(block))
    labels = tuple(f"x{i}" for i in range(n_outcomes))
    return PointerObservable(outcomes=labels, projectors=tuple(projectors))


def random_model(dim_s: int, dim_a: int, rng: np.random.Generator) -> MeasurementModel:
    """Unconstrained random measurement model (no conservation law)."""
    return MeasurementModel(
        apparatus_state=random_density(dim_a, rng),
        unitary=random_unitary(dim_s * dim_a, rng),
        pointer=random_pointer(dim_a, rng),
    )


def random_conserving_unitary(quantity: ConservedQuantity, rng: np.random.Generator) -> np.ndarray:
    """Random unitary commuting with the additive conserved quantity.

    A complex Gaussian matrix is hermitized, pinched onto the
    fixed-total-eigenvalue blocks of L (so the generator commutes with L
    exactly up to round-off), then exponentiated. No rejection sampling.
    """
    total = quantity.total_operator()
    n = total.shape[0]
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    g = (g + dagger(g)) / 2
    return unitary_from_generator(decohere(g, total), 1.0)


def random_diagonal_density(dim: int, rng: np.random.Generator) -> DensityState:
    """Random density matrix diagonal in the number basis."""
    probs = rng.random(dim)
    return DensityState(np.diag(probs / probs.sum()).astype(complex))


def random_diagonal_observable(dim: int, rng: np.random.Generator) -> ObservableOp:
    """Random observable diagonal in the number basis (commutes with it)."""
    return ObservableOp(np.diag(rng.standard_normal(dim)).astype(complex))


def random_number_conserving_model(
    dim_s: int, dim_a: int, rng: np.random.Generator
) -> tuple[MeasurementModel, ConservedQuantity]:
    """Random model satisfying the additive number conservation law.

    The conserved pair is the two number operators, the pointer is
    number-diagonal (so its compatibility condition holds exactly), the
    apparatus state is a full random density matrix, and the unitary is a
    random block exponential commuting with the total number.
    """
    quantity = ConservedQuantity(
        system_part=number_operator(dim_s),
        apparatus_part=number_operator(dim_a),
    )
    model = MeasurementModel(
        apparatus_state=random_density(dim_a, rng),
        unitary=random_conserving_unitary(quantity, rng),
        pointer=number_pointer(dim_a),
    )
    return model, quantity
