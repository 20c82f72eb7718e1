"""Excitation-exchange (Jaynes-Cummings) model family.

Builders for truncated ladder operators, number operators, the
excitation-exchange interaction Hamiltonian

    H_I = σ_S^+ ⊗ σ_A^- + σ_S^- ⊗ σ_A^+,

its closed-form blocked unitary for a qubit system, and Bloch-sphere
qubit states. The interaction conserves the total excitation number
N_S ⊗ 1 + 1 ⊗ N_A, which makes this family the natural testbed for every
symmetry result in the package. The canonical qubit-qubit phase sweep is
the bundled scenario file (``fig1_scenario_path()``), built from these
pieces by :mod:`symcond.scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin, sqrt

import numpy as np

from .linalg import kron, unitary_from_generator
from .objects import DensityState, MeasurementModel, ObservableOp, PointerObservable
from .symmetry import ConservedQuantity


def ladder_raise(dim: int) -> np.ndarray:
    """Truncated raising operator Σ_{k=0}^{dim-2} √(k+1) |k+1⟩⟨k|.

    The sum stops at k = dim-2: letting k run to dim-1 would reference the
    state |dim⟩ outside the space, so the top rung is simply annihilated
    (the standard finite truncation).
    """
    if dim < 2:
        raise ValueError(f"ladder needs dim >= 2, got {dim}")
    m = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        m[k + 1, k] = sqrt(k + 1)
    return m


def ladder_lower(dim: int) -> np.ndarray:
    """Truncated lowering operator, the exact adjoint of :func:`ladder_raise`."""
    return ladder_raise(dim).conj().T


def number_operator(dim: int) -> ObservableOp:
    """Excitation number diag(0, 1, …, dim−1)."""
    return ObservableOp(np.diag(np.arange(dim, dtype=float)))


def jc_hamiltonian(dim_s: int, dim_a: int) -> ObservableOp:
    """Excitation-exchange interaction σ_S^+ ⊗ σ_A^- + σ_S^- ⊗ σ_A^+."""
    h = kron(ladder_raise(dim_s), ladder_lower(dim_a)) + kron(
        ladder_lower(dim_s), ladder_raise(dim_a)
    )
    return ObservableOp(h)


def number_pointer(
    dim_a: int, partition: list[tuple[str, list[int]]] | None = None
) -> PointerObservable:
    """Pointer with number-diagonal projectors, held as its 0/1 level table.

    By default one outcome per number state, labelled by its excitation
    count. ``partition`` coarse-grains instead: each (label, levels) entry
    becomes the projector onto those number states. Every level must be
    used exactly once. Row x of the (|X|, dim_a) table is 1 on the levels
    of outcome x; no dim_a×dim_a matrix is built.
    """
    if partition is None:
        partition = [(str(k), [k]) for k in range(dim_a)]
    used = [k for _, levels in partition for k in levels]
    if sorted(used) != list(range(dim_a)):
        raise ValueError(
            f"partition {partition!r} does not cover each of the {dim_a} levels exactly once"
        )
    table = np.zeros((len(partition), dim_a), dtype=complex)
    table[[x for x, (_, levels) in enumerate(partition) for _ in levels], used] = 1.0
    return PointerObservable.from_table([label for label, _ in partition], table)


@dataclass
class JCModelSpec:
    """Parameters of one excitation-exchange measurement interaction.

    ``pointer`` defaults to one outcome per apparatus number state.
    """

    dim_s: int
    dim_a: int
    theta: float
    pointer: PointerObservable | None = None

    def __post_init__(self) -> None:
        if self.dim_s < 2 or self.dim_a < 2:
            raise ValueError(f"need dim_s, dim_a >= 2, got {self.dim_s}, {self.dim_a}")
        if not np.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


def jc_unitary_closed_form(spec: JCModelSpec) -> np.ndarray:
    """Closed-form e^{−iθH_I} for a qubit system, assembled block by block.

    The conservation law splits the product basis into the uncoupled
    singletons {|0,0⟩} and {|1,d_A−1⟩} plus the two-dimensional sectors
    span{|0,l⟩, |1,l−1⟩} for l = 1 … d_A−1, on which the exponential is

        cos(θ√l)·1 − i·sin(θ√l)·σ_x.

    Only derived for dim_s = 2; other system dimensions go through
    :func:`symcond.linalg.unitary_from_generator`.
    """
    if spec.dim_s != 2:
        raise ValueError(f"closed form requires dim_s = 2, got {spec.dim_s}")
    da = spec.dim_a
    u = np.zeros((2 * da, 2 * da), dtype=complex)
    u[0, 0] = 1.0  # |0,0⟩ is annihilated by both exchange terms
    u[2 * da - 1, 2 * da - 1] = 1.0  # |1,d_A−1⟩: raising the full apparatus truncates
    for l in range(1, da):
        i0 = l  # |0, l⟩
        i1 = da + (l - 1)  # |1, l-1⟩
        c, s = cos(spec.theta * sqrt(l)), sin(spec.theta * sqrt(l))
        u[i0, i0] = c
        u[i1, i1] = c
        u[i0, i1] = -1j * s
        u[i1, i0] = -1j * s
    return u


@dataclass
class QubitCoherentState:
    """Bloch-sphere qubit parameters: cos(polar/2)|1⟩ + e^{iφ}sin(polar/2)|0⟩."""

    polar: float
    phase: float = 0.0

    def vector(self) -> np.ndarray:
        return self.vectors(self.phase)

    def vectors(self, phases) -> np.ndarray:
        """The family's vectors at each of ``phases`` (this state's own
        phase is not used), stacked along the leading axes: shape
        (*phases.shape, 2)."""
        phases = np.asarray(phases, dtype=float)
        return np.stack(
            [np.exp(1j * phases) * sin(self.polar / 2), np.full(phases.shape, cos(self.polar / 2))],
            axis=-1,
        )


def qubit_coherent_state(state: QubitCoherentState) -> DensityState:
    """Pure density matrix of a Bloch-sphere qubit state."""
    v = state.vector()
    return DensityState(np.outer(v, v.conj()))


def build_jc_model(
    spec: JCModelSpec, apparatus_state: DensityState
) -> tuple[MeasurementModel, ConservedQuantity]:
    """Measurement model + conserved number pair for one interaction spec.

    Uses the closed-form unitary for a qubit system and the spectral
    exponential otherwise.
    """
    if apparatus_state.dim != spec.dim_a:
        raise ValueError(
            f"apparatus state dimension {apparatus_state.dim} does not match spec dim_a {spec.dim_a}"
        )
    if spec.dim_s == 2:
        unitary = jc_unitary_closed_form(spec)
    else:
        unitary = unitary_from_generator(
            jc_hamiltonian(spec.dim_s, spec.dim_a).matrix, spec.theta
        )
    pointer = spec.pointer if spec.pointer is not None else number_pointer(spec.dim_a)
    model = MeasurementModel(apparatus_state=apparatus_state, unitary=unitary, pointer=pointer)
    quantity = ConservedQuantity(
        system_part=number_operator(spec.dim_s),
        apparatus_part=number_operator(spec.dim_a),
    )
    return model, quantity
