"""Instrument action, outcome probabilities, and conditional values.

Every quantity is computed from two system operators per pointer outcome
x, both images of the Heisenberg-picture instrument:

    M(x) = tr_A[(1 ⊗ ϱ) U† (1 ⊗ P^x) U]    the induced effect,
    K(x) = tr_A[(1 ⊗ ϱ) U† (O ⊗ P^x) U]    its "after" twin.

From these p(x) = tr[M(x)ρ], the value assigned retrodictively to the
pre-measurement state (the real part of the generalized weak value) is

    before(x) = Re tr[M(x) O ρ] / p(x),

and the expectation in the normalized post-measurement state is

    after(x)  = tr[K(x) ρ] / p(x) = tr[(O ⊗ P^x) U (ρ ⊗ ϱ) U†] / p(x).

M(x) and K(x) depend on the model and the observable, never on the
state, so :class:`CompiledModel` builds them once and evaluates any
number of states against them. It is the one evaluation route, and it
answers in one shape: :meth:`CompiledModel.traces`, the kernel, gives
the (3, |X|) rows tr[M(x)ρ], tr[M(x)Oρ] and tr[K(x)ρ] for one state or a
(G, 3, |X|) block for a (G, d_s, d_s) stack, and
:meth:`CompiledModel.conditional_values` turns them into the arrays p,
before and after (their change is after − before). Outcome averages are
sums of the trace rows, Σ_x p(x)·before(x) = Σ_x Re tr[M(x)Oρ] and
Σ_x p(x)·after(x) = Σ_x Re tr[K(x)ρ]. Sweeps, reports, selftest and the
theorem verifiers all read these arrays; the verifiers read both
theorems' equalities from one 2×2 grid of them (original or decohered
apparatus × ρ or Φ_{L_S}(ρ)).

The compile never forms U†(O ⊗ P^x)U. The partial trace over A is cyclic
for apparatus-only factors, so with G = U(1 ⊗ ϱ) and V_a = (a† ⊗ 1)U

    M(x) = tr_A[U† (1 ⊗ P^x) G],    K(x) = tr_A[V_O† (1 ⊗ P^x) G].

The pointer enters as its level table P^x = B diag(w_x) B†
(``PointerObservable.levels``; B = 1 for a pointer diagonal in the
apparatus basis). With U's apparatus rows taken to B's basis,
U ← (1 ⊗ B†)U, only level-diagonal blocks are needed: with
conj(V_a) = (aᵀ ⊗ 1)·conj(U), one product for all k operators a at once,
each level c gives

    T^a_c[s, t] = Σ_{r,α} conj(V_a)[(r,c),(s,α)] G[(r,c),(t,α)],

one batched (d_a, k·d_s, n)·(d_a, n, d_s) product over c, and the branch
operator of outcome x is the level sum Σ_c w_xc T^a_c, one (|X| × d_a)
product. Neither a nor w is assumed Hermitian, real or 0/1. This costs
about 2k·n²·d_s + n²·d_a work (n = d_s·d_a; n²·d_a more when B ≠ 1) and
O(k·n²) memory, instead of 4|X|·n³ for the sandwiches. The sandwiches
themselves, and the Schrödinger-picture instrument, are the independent
checks of this route in :mod:`symcond.oracles`.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger, ensure_hermitian
from .objects import DensityState, EffectSet, MeasurementModel, ObservableOp, born_probability

# Conditional values are undefined at p(x) = 0. A probability not above
# this floor (NaN included) marks a zero-probability outcome: the array
# routes leave the test to their callers, and the per-outcome formulas
# raise ZeroProbabilityOutcome instead of returning junk.
P_FLOOR = 1e-12


class ZeroProbabilityOutcome(ValueError):
    """Raised when a conditional value is requested at p(x) not above P_FLOOR."""

    def __init__(self, outcome: str, probability: float):
        super().__init__(
            f"outcome {outcome!r} has probability {probability:.3e}, not above {P_FLOOR:.0e}"
        )


def branch_operators(model: MeasurementModel, operators: tuple[np.ndarray, ...]) -> np.ndarray:
    """Heisenberg branch operators of several system operators at once.

    Returns the (len(operators), |X|, d_s, d_s) stack whose [k, i] entry
    equals ``oracles.dual_instrument(model, operators[k], model.outcomes[i])``,
    built by the level-sum contraction of the module docstring from the
    pointer's level table, never forming U†(a ⊗ P^x)U: about
    2k·n²·d_s + n²·d_a work in O(k·n²) memory for k operators.
    """
    ds, da = model.dim_s, model.dim_a
    n = ds * da
    basis, weights = model.pointer.levels
    u = model.unitary
    if basis is not None:
        u = (dagger(basis) @ u.reshape(ds, da, n)).reshape(n, n)  # rows (r, B-level)
    g = (u.reshape(n * ds, da) @ model.apparatus_state.matrix).reshape(ds, da, ds, da)
    k = len(operators)
    a_t = np.stack(operators).transpose(0, 2, 1).reshape(k * ds, ds)  # [(k, r), r']
    v = (a_t @ u.conj().reshape(ds, da * n)).reshape(k, ds, da, ds, da)  # [k, r, c, s, α]
    left = v.transpose(2, 0, 3, 1, 4).reshape(da, k * ds, n)  # [c, (k, s), (r, α)]
    right = g.transpose(1, 2, 0, 3).reshape(da, ds, n)  # [c, t, (r, α)]
    t = (left @ right.transpose(0, 2, 1)).reshape(da, k * ds * ds)  # T^a_c[s, t]
    return (weights @ t).reshape(-1, k, ds, ds).transpose(1, 0, 2, 3)


def induced_povm(model: MeasurementModel) -> EffectSet:
    """Effects M(x) of the POVM the measurement model implements on the system.

    Read from the same M(x) stack a :class:`CompiledModel` builds. M(x) is
    Hermitian and PSD: the partial trace over the apparatus is cyclic for
    apparatus-only factors, so it equals the sandwich
    tr_A[(1 ⊗ ϱ^{1/2}) U† (1 ⊗ P^x) U (1 ⊗ ϱ^{1/2})]. The set reproduces
    the model's outcome statistics: tr[M(x)ρ] equals the trace of the
    instrument output for every ρ.
    """
    (m,) = branch_operators(model, (np.eye(model.dim_s),))
    return EffectSet(model.outcomes, tuple(ensure_hermitian(e) for e in m))


def _clamped(p: np.ndarray) -> np.ndarray:
    """``min(max(p, 0.0), 1.0)`` entry by entry, as born_probability clamps
    (NaN and −0.0 come through as they do there)."""
    p = np.where(0.0 > p, 0.0, p)
    return np.where(1.0 < p, 1.0, p)


class CompiledModel:
    """A measurement model and an observable reduced to their branch operators.

    Built once per (model, observable): for every outcome x it stacks M(x),
    M(x)·O and K(x), the d_s×d_s images of ``oracles.dual_instrument``, with
    one :func:`branch_operators` call (about 4n²·d_s + n²·d_a work,
    whatever the number of outcomes); a pointer without a level table
    (projectors that share no eigenbasis) raises ValueError.
    :meth:`traces`, the kernel, then costs one stacked d_s×d_s product
    per state, whatever the apparatus dimension, and takes a
    (G, d_s, d_s) stack of states as readily as one state;
    :meth:`conditional_values` reads p, before and after from it.
    """

    def __init__(self, model: MeasurementModel, observable: ObservableOp):
        self.outcomes = model.outcomes
        o = observable.matrix
        m, k = branch_operators(model, (np.eye(model.dim_s), o))
        self._operators = np.concatenate([m, m @ o, k])

    def traces(self, states: np.ndarray) -> np.ndarray:
        """The stacked traces of one state (d_s, d_s) or a stack (G, d_s, d_s).

        Returns shape (3, |X|) or (G, 3, |X|): rows tr[M(x)ρ], tr[M(x)Oρ]
        and tr[K(x)ρ], outcomes in model order. Each is the trace of one
        product, so a state gives the same numbers alone or in a stack.
        """
        states = np.asarray(states)
        traces = np.trace(self._operators @ states[..., None, :, :], axis1=-2, axis2=-1)
        return traces.reshape(*states.shape[:-2], 3, len(self.outcomes))

    def conditional_values(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p(x), before(x) and after(x) for one d_s×d_s state or a
        (G, d_s, d_s) stack, each of shape (|X|,) or (G, |X|), from the
        :meth:`traces` rows: p = tr[M(x)ρ] clamped to [0, 1] as
        born_probability clamps, before = Re tr[M(x)Oρ]/p and
        after = Re tr[K(x)ρ]/p; the change is after − before. Where p is
        not above P_FLOOR the values are meaningless (and raise no
        warning); callers test p."""
        traces = self.traces(states)
        p = _clamped(traces[..., 0, :].real)
        with np.errstate(divide="ignore", invalid="ignore"):
            return p, traces[..., 1, :].real / p, traces[..., 2, :].real / p


def _averages(traces: np.ndarray) -> tuple[float, float]:
    """(Σ_x p(x)·before(x), Σ_x p(x)·after(x)) = (Σ_x Re tr[M(x)Oρ],
    Σ_x Re tr[K(x)ρ]) from one state's (3, |X|) ``CompiledModel.traces``,
    summed in model order; outcomes not above P_FLOOR add 0."""
    before = after = 0.0
    for p, weak, aft in zip(*traces.real.tolist()):
        if p > P_FLOOR:
            before += weak
            after += aft
    return before, after


def weak_value(
    effects: EffectSet, state: DensityState, observable: ObservableOp, outcome: str
) -> complex:
    """Complex weak value tr[M(x)Oρ]/p(x) for the given effect M(x) of a POVM.

    For a measurement model use :class:`CompiledModel`: the ratio of its
    :meth:`~CompiledModel.traces` rows tr[M(x)Oρ] / tr[M(x)ρ] is the same
    number with M(x) the induced effect, and its real part is ``before``.
    The imaginary part is a diagnostic only and never enters a conditional
    change. Raises ZeroProbabilityOutcome at p(x) not above P_FLOOR.
    """
    m = effects.effect(outcome)
    p = born_probability(state, m)
    if not p > P_FLOOR:
        raise ZeroProbabilityOutcome(outcome, p)
    return complex(np.trace(m @ observable.matrix @ state.matrix)) / p
