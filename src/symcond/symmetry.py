"""Conservation-law checks, decoherence maps, and the theorem verifier.

An additive conserved quantity is a pair (L_S, L_A) with the premeasurement
unitary commuting with L_S ⊗ 1 + 1 ⊗ L_A. Decohering a state with respect
to L means pinching it by the spectral projectors of L, which removes
coherence between distinct eigenvalue sectors.

The verifier measures (never assumes) the hypotheses and reports
residuals for every claimed equality, so a caller can tell "hypothesis
broken, nothing asserted" apart from "hypothesis held, equality failed".
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import P_FLOOR, CompiledModel
from .linalg import SpectralDecomposition, commutator, dagger, frob, hermitian_eig, kron
from .objects import DensityState, MeasurementModel, ObservableOp


def _worst(*residuals: float) -> float:
    """The largest residual, NaN if any is NaN, 0.0 for none.

    Python's ``max`` keeps its running value when a comparison with NaN
    is false, so a NaN residual would otherwise read as a pass.
    """
    return math.nan if any(math.isnan(r) for r in residuals) else max(residuals, default=0.0)


@dataclass
class ConservedQuantity:
    """Additive pair (L_S, L_A) of self-adjoint system/apparatus parts.

    Each part is decomposed once, on first use, by :func:`hermitian_eig`;
    pinching, the symmetric-state check and the cross-element check all
    read these decompositions. Their eigenvectors are the pinned product
    eigenbasis of the theorem-2 hypotheses: inside a degenerate eigenspace
    the basis is whatever ``eigh`` returns, which is stable for identical
    input, so one convention is pinned and reused; a diagonal part keeps
    the standard basis.
    """

    system_part: ObservableOp
    apparatus_part: ObservableOp

    @cached_property
    def system_spectrum(self) -> SpectralDecomposition:
        return hermitian_eig(self.system_part.matrix)

    @cached_property
    def apparatus_spectrum(self) -> SpectralDecomposition:
        return hermitian_eig(self.apparatus_part.matrix)

    def total_operator(self) -> np.ndarray:
        """L_S ⊗ 1 + 1 ⊗ L_A on the product space."""
        ls, la = self.system_part.matrix, self.apparatus_part.matrix
        return kron(ls, np.eye(la.shape[0])) + kron(np.eye(ls.shape[0]), la)


def decohere(
    a: np.ndarray, l: ObservableOp | np.ndarray | SpectralDecomposition
) -> np.ndarray:
    """Pinch ``a`` by the spectral projectors of ``l``: Σ_l Q^l a Q^l.

    With ``l``'s eigenvectors V and the mask m_jk = 1 where columns j and
    k share an eigenvalue (0 elsewhere), this is V (m ∘ V†aV) V†, and for
    a diagonal ``l`` just m ∘ a; no projector is formed and memory stays
    O(d²) per matrix. ``a`` may be one d×d matrix or a (…, d, d) stack,
    pinched matrix by matrix; the result is complex with ``a``'s shape.

    Idempotent; the output commutes with ``l``; operators already
    commuting with ``l`` are fixed points. Pass ``hermitian_eig(l)`` (or a
    :class:`ConservedQuantity` spectrum) to pinch without decomposing
    ``l`` again.
    """
    if isinstance(l, SpectralDecomposition):
        dec = l
    else:
        dec = hermitian_eig(l.matrix if isinstance(l, ObservableOp) else l)
    a = np.asarray(a, dtype=complex)
    same = dec.labels[:, None] == dec.labels[None, :]
    if dec.vectors is None:
        # Σ_l Q^l a Q^l turns a non-finite entry anywhere into NaN (0·NaN);
        # the mask keeps it in place rather than zeroing it.
        return np.where(same | ~np.isfinite(a), a, 0)
    return dec.vectors @ np.where(same, dec.to_eigenbasis(a), 0) @ dagger(dec.vectors)


def check_conservation(model: MeasurementModel, quantity: ConservedQuantity) -> float:
    """Residual ‖[U, L_S ⊗ 1 + 1 ⊗ L_A]‖_F of the additive conservation law.

    When L_S and L_A are both diagonal, as every number pair is, so is
    L = L_S ⊗ 1 + 1 ⊗ L_A, and [U, L]_ij = (L_j − L_i)·U_ij is read entry
    by entry in O(n²) work. A NaN or inf in U then gives a NaN residual,
    as it does through the dense products of the general route.
    """
    ls, la, u = quantity.system_part.matrix, quantity.apparatus_part.matrix, model.unitary
    if len(ls) * len(la) != len(u):
        raise ValueError(
            f"conserved quantity acts on dimension {len(ls) * len(la)}, model on {len(u)}"
        )
    if all(np.count_nonzero(m) == np.count_nonzero(m.diagonal()) for m in (ls, la)):
        if not np.isfinite(u).all():
            return math.nan
        total = np.add.outer(ls.diagonal(), la.diagonal()).ravel()
        return frob((total - total[:, None]) * u)
    return frob(commutator(u, quantity.total_operator()))


def check_yanase(model: MeasurementModel, quantity: ConservedQuantity) -> float:
    """max_x ‖[P^x, L_A]‖_F: every pointer projector must commute with L_A.

    From the pointer's level table: with L = B†L_A B, [P^x, L_A] has entries
    (w_xi − w_xj)·L_ij in B's basis, so only L's nonzero off-diagonal
    entries are read, for every outcome at once: |X|·nnz work, and exactly
    0 for a diagonal L. A non-finite weight, or a non-finite diagonal entry
    of L, gives NaN, as in the dense commutator, where it meets 0.
    """
    basis, weights = model.pointer.levels
    la = quantity.apparatus_part.matrix
    if basis is not None:
        la = dagger(basis) @ la @ basis
    read = la != 0
    np.fill_diagonal(read, ~np.isfinite(la.diagonal()))
    i, j = read.nonzero()
    entries, step = la[i, j], max(1, 2**20 // max(len(i), 1))  # blocks of at most 2^20 terms (16 MB)
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows become NaN below
        residuals = np.concatenate([
            np.linalg.norm((weights[x : x + step, i] - weights[x : x + step, j]) * entries, axis=1)
            for x in range(0, len(weights), step)
        ])
    residuals[~np.isfinite(weights).all(axis=1)] = math.nan
    return _worst(*residuals.tolist())


def check_symmetric_product_state(
    state_s: DensityState, state_a: DensityState, quantity: ConservedQuantity
) -> float:
    """Transpose-invariance residual of ρ ⊗ ϱ in the conserved eigenbasis.

    The product state is rotated into the pinned product eigenbasis of
    (L_S, L_A) and compared against its transpose there; for a Hermitian
    matrix this residual vanishes exactly when all entries are real. The
    rotation acts factor by factor, A = V_S†ρV_S and B = V_A†ϱV_A, and
    ‖A⊗B − Aᵀ⊗Bᵀ‖_F is taken entry by entry: d_s³ + d_a³ + n² work
    instead of n³ products on the dense n×n state.
    """
    a = quantity.system_spectrum.to_eigenbasis(state_s.matrix)
    b = quantity.apparatus_spectrum.to_eigenbasis(state_a.matrix)
    return frob(kron(a, b) - kron(a.T, b.T))


def check_cross_elements_imaginary(
    model: MeasurementModel, observable: ObservableOp, quantity: ConservedQuantity
) -> float:
    """Largest real part of a doubly-off-diagonal element of U†(O ⊗ P^x)U.

    Elements are taken in the pinned product eigenbasis between basis
    vectors whose L_S eigenvalues differ AND whose L_A eigenvalues differ;
    all outcomes are scanned and the overall max |Re| returned. (This is
    the second hypothesis of the four-way equality chain; it is checked
    per outcome because the source statement does not single one out.)

    From the pointer's level table, P^x = B diag(w_x) B†: with
    Y = (1 ⊗ B†)·U·(V_S ⊗ V_A) and Y_x its rows (r, c) at the levels c of
    x, W_x = Y_x† (O ⊗ diag(w_x)) Y_x, about n³ over all outcomes instead
    of |X| dense n×n sandwiches.
    """
    dec_s, dec_a = quantity.system_spectrum, quantity.apparatus_spectrum
    dim_a = len(dec_a.labels)
    sys_of = np.repeat(dec_s.labels, dim_a)
    app_of = np.tile(dec_a.labels, len(dec_s.labels))
    mask = (sys_of[:, None] != sys_of[None, :]) & (app_of[:, None] != app_of[None, :])
    if not mask.any():
        return 0.0
    if dec_s.vectors is None and dec_a.vectors is None:
        u = model.unitary  # both parts diagonal: the product eigenbasis is the standard one
    else:
        u = model.unitary @ kron(dec_s.basis, dec_a.basis)
    basis, weights = model.pointer.levels
    ds, n = model.dim_s, model.unitary.shape[0]
    y = u.reshape(ds, dim_a, n)  # rows (r, c)
    if basis is not None:
        y = dagger(basis) @ y
    largest = np.zeros((n, n))
    for w in weights:
        levels = np.flatnonzero(w)
        rows = y[:, levels, :]
        weighted = (observable.matrix @ rows.reshape(ds, -1)).reshape(rows.shape) * w[levels, None]
        w_x = rows.reshape(-1, n).conj().T @ weighted.reshape(-1, n)
        np.maximum(largest, np.abs(w_x.real), out=largest)
    return float(largest[mask].max())


@dataclass
class TheoremVerdict:
    """Measured hypothesis residuals and equality residuals, plus the
    tolerance they are judged against.

    A hypothesis or equality "holds" iff its residual is below the
    tolerance. ``requires`` records which hypotheses each equality is
    conditioned on; an equality is a *claim* only when those all hold
    (the theorems give sufficient conditions, so a broken hypothesis
    asserts nothing). Residuals are reported unconditionally either way.
    """

    hypotheses: dict[str, float]
    equalities: dict[str, float]
    tolerance: float
    requires: dict[str, tuple[str, ...]]
    # For a hypothesis whose residual is the max of several measurements,
    # those measurements in order, so a caller can report one of them
    # without measuring it again.
    terms: dict[str, tuple[float, ...]] = field(default_factory=dict)

    def _held(self, residuals: dict[str, float]) -> dict[str, bool]:
        return {name: r < self.tolerance for name, r in residuals.items()}

    @property
    def hypotheses_held(self) -> dict[str, bool]:
        return self._held(self.hypotheses)

    @property
    def equalities_held(self) -> dict[str, bool]:
        return self._held(self.equalities)

    @property
    def all_hypotheses_hold(self) -> bool:
        return all(self.hypotheses_held.values())

    @property
    def all_equalities_hold(self) -> bool:
        return all(self.equalities_held.values())

    def equality_claimed(self, name: str) -> bool:
        """Whether the named equality's required hypotheses all hold."""
        held = self.hypotheses_held
        return all(held[h] for h in self.requires[name])

    @property
    def claimed_equalities_hold(self) -> bool:
        """True when every equality whose hypotheses hold also holds.

        Vacuously true when no equality is claimed.
        """
        held = self.equalities_held
        return all(held[name] for name in self.equalities if self.equality_claimed(name))


# Cells of the (model, state) grid the theorem equalities compare: the
# original or decohered-apparatus model, crossed with ρ or Φ_{L_S}(ρ).
_ORIGINAL, _DECOHERED = 0, 1
_RHO, _PINCHED = 0, 1


def _shared_hypotheses(
    model: MeasurementModel, observable: ObservableOp, quantity: ConservedQuantity
) -> dict[str, float]:
    """Conservation, pointer compatibility and [O, L_S] = 0: what every derivation here needs."""
    return {
        "conservation": check_conservation(model, quantity),
        "yanase": check_yanase(model, quantity),
        "observable_commutes": frob(commutator(observable.matrix, quantity.system_part.matrix)),
    }


@dataclass
class _TheoremInputs:
    """What both theorems share, each measured or built once."""

    hypotheses: dict[str, float]  # conservation, yanase, observable_commutes
    model2: MeasurementModel  # the decohered-apparatus companion model
    grid: np.ndarray  # [(p, before, after), model, state, outcome]

    def spreads(self, *cells: tuple[int, int]) -> tuple[float, float]:
        """Largest spread (max − min) of before and of after over the named
        (model, state) cells, outcome by outcome.

        An outcome where any of these cells has a p at or below P_FLOOR
        is skipped: its conditional values are undefined, so nothing is
        claimed. A NaN p is kept, so NaN propagates; no outcome left
        gives 0.0.
        """
        models, states = (list(axis) for axis in zip(*cells))
        grid = self.grid[:, models, states]  # [(p, before, after), cell, outcome]
        values = grid[1:, :, ~(grid[0] <= P_FLOOR).any(axis=0)]
        with np.errstate(invalid="ignore"):  # inf − inf is NaN, reported as such
            before, after = (values - values.min(axis=1, keepdims=True)).reshape(2, -1).tolist()
        # The leading 0.0 makes a zero spread +0.0 whatever the signs of the zeros.
        return _worst(0.0, *before), _worst(0.0, *after)


def _companion(
    model: MeasurementModel,
    observable: ObservableOp,
    quantity: ConservedQuantity,
    compiled: CompiledModel | None = None,
) -> tuple[MeasurementModel, tuple[CompiledModel, CompiledModel]]:
    """The decohered-apparatus companion model, and the compiles of the
    original and the companion; ``compiled`` is reused when the caller
    already compiled (model, observable)."""
    decohered = DensityState(decohere(model.apparatus_state.matrix, quantity.apparatus_spectrum))
    model2 = copy.copy(model)  # only ϱ differs: U, the pointer and U's band (read above) are shared
    model2.apparatus_state = decohered
    return model2, (compiled or CompiledModel(model, observable), CompiledModel(model2, observable))


def _state_grid(
    compiles: tuple[CompiledModel, CompiledModel], state: DensityState, quantity: ConservedQuantity
) -> np.ndarray:
    """The ``_TheoremInputs.grid`` of ``state``: the stack [ρ, Φ_{L_S}(ρ)]
    evaluated under each compile, one call each."""
    states = np.stack([state.matrix, decohere(state.matrix, quantity.system_spectrum)])
    return np.stack([c.conditional_values(states) for c in compiles], axis=1)


def _theorem_inputs(
    model: MeasurementModel,
    state: DensityState,
    observable: ObservableOp,
    quantity: ConservedQuantity,
    compiled: CompiledModel | None = None,
) -> _TheoremInputs:
    """The shared inputs; ``compiled`` is reused when the caller already
    compiled (model, observable)."""
    model2, compiles = _companion(model, observable, quantity, compiled)
    hypotheses = _shared_hypotheses(model, observable, quantity)
    return _TheoremInputs(hypotheses, model2, _state_grid(compiles, state, quantity))


def _theorem1(
    shared: _TheoremInputs, state: DensityState, quantity: ConservedQuantity, tol: float
) -> TheoremVerdict:
    hypotheses = {
        **shared.hypotheses,
        "state_commutes": frob(commutator(state.matrix, quantity.system_part.matrix)),
    }
    sys_before, sys_after = shared.spreads((_ORIGINAL, _RHO), (_DECOHERED, _RHO))
    anc_before, anc_after = shared.spreads((_DECOHERED, _RHO), (_DECOHERED, _PINCHED))
    equalities = {
        "system_commutes_before": sys_before,
        "system_commutes_after": sys_after,
        "ancilla_commutes_before": anc_before,
        "ancilla_commutes_after": anc_after,
    }
    base = ("conservation", "yanase", "observable_commutes")
    requires = {
        "system_commutes_before": base + ("state_commutes",),
        "system_commutes_after": base + ("state_commutes",),
        "ancilla_commutes_before": base,
        "ancilla_commutes_after": base,
    }
    return TheoremVerdict(hypotheses, equalities, tol, requires)


def _theorem2(
    shared: _TheoremInputs,
    model: MeasurementModel,
    state: DensityState,
    observable: ObservableOp,
    quantity: ConservedQuantity,
    tol: float,
) -> TheoremVerdict:
    symmetric = (
        check_symmetric_product_state(state, model.apparatus_state, quantity),
        check_symmetric_product_state(state, shared.model2.apparatus_state, quantity),
    )
    hypotheses = {
        **shared.hypotheses,
        "symmetric_state": _worst(*symmetric),
        "cross_elements": check_cross_elements_imaginary(model, observable, quantity),
    }
    before_chain, after_chain = shared.spreads(
        (_ORIGINAL, _RHO), (_DECOHERED, _RHO), (_ORIGINAL, _PINCHED), (_DECOHERED, _PINCHED)
    )
    equalities = {"before_chain": before_chain, "after_chain": after_chain}
    all_hyp = tuple(hypotheses)
    requires = {"before_chain": all_hyp, "after_chain": all_hyp}
    return TheoremVerdict(hypotheses, equalities, tol, requires, {"symmetric_state": symmetric})


def verify_theorems(
    model: MeasurementModel,
    state: DensityState,
    observable: ObservableOp,
    quantity: ConservedQuantity,
    tol: float = 1e-9,
    *,
    _compiled: CompiledModel | None = None,
) -> dict[str, TheoremVerdict]:
    """Both coherence-irrelevance theorems: ``{"theorem1": …, "theorem2": …}``.

    Builds the companion model with apparatus state Φ_{L_A}(ϱ) and
    measures, once for both verdicts:

    shared hypotheses
        ``conservation``        ‖[U, L_S⊗1 + 1⊗L_A]‖
        ``yanase``              max_x ‖[P^x, L_A]‖ (pointer compatibility)
        ``observable_commutes`` ‖[O, L_S]‖

    theorem 1 (two branches, for a decohered apparatus)
        hypothesis ``state_commutes``: ‖[ρ, L_S]‖ (first branch only);
        ``system_commutes_{before,after}``: values agree between the
            original and decohered-apparatus models (claimed when all four
            hypotheses hold);
        ``ancilla_commutes_{before,after}``: on the decohered-apparatus
            model, values agree between ρ and Φ_{L_S}(ρ) (claimed without
            ``state_commutes``).

    theorem 2 (four-way chains, for symmetric product states)
        hypothesis ``symmetric_state``: transpose-invariance residual of
            ρ ⊗ ϱ in the pinned eigenbasis, for both the original and the
            decohered apparatus state (max of the two; both are kept, in
            that order, in ``terms["symmetric_state"]``);
        hypothesis ``cross_elements``: max |Re| of doubly-off-diagonal
            elements of U†(O ⊗ P^x)U;
        ``before_chain``/``after_chain``: the max spread of the four
            values over {ρ, Φ_{L_S}(ρ)} × {original, decohered apparatus}
            (claimed when every hypothesis holds).

    ``_compiled`` (private) is CompiledModel(model, observable) when the
    caller has already built it.
    """
    shared = _theorem_inputs(model, state, observable, quantity, _compiled)
    return {
        "theorem1": _theorem1(shared, state, quantity, tol),
        "theorem2": _theorem2(shared, model, state, observable, quantity, tol),
    }
