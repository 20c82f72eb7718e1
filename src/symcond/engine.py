"""Instrument action, outcome probabilities, and conditional values.

Every quantity is computed from two system operators per pointer outcome
x, both images of :func:`dual_instrument` (the Heisenberg-picture
instrument):

    M(x) = tr_A[(1 ⊗ ϱ) U† (1 ⊗ P^x) U]    the induced effect,
    K(x) = tr_A[(1 ⊗ ϱ) U† (O ⊗ P^x) U]    its "after" twin.

From these p(x) = tr[M(x)ρ], the value assigned retrodictively to the
pre-measurement state (the real part of the generalized weak value) is

    before(x) = Re tr[M(x) O ρ] / p(x),

and the expectation in the normalized post-measurement state is

    after(x)  = tr[K(x) ρ] / p(x) = tr[(O ⊗ P^x) U (ρ ⊗ ϱ) U†] / p(x).

M(x) and K(x) depend on the model and the observable, never on the
state, so :class:`CompiledModel` builds them once and evaluates any
number of states against them; it is the one evaluation route, and the
single-outcome functions below are thin wrappers over it.

The compile never forms U†(O ⊗ P^x)U. The partial trace over A is cyclic
for apparatus-only factors, so with G = U(1 ⊗ ϱ) and V = (O† ⊗ 1)U

    M(x) = tr_A[U† (1 ⊗ P^x) G],    K(x) = tr_A[V† (1 ⊗ P^x) G].

Contracting the system row index and the traced apparatus index first
gives, for W = U and W = V, T_W[c, s, d, t] = Σ_{r,a} conj(W[(r,c),(s,a)])
G[(r,d),(t,a)], one n×n product each, and then every outcome at once as
Σ_cd P^x_cd T_W[c, s, d, t]. A compile costs about 2n³ + n²·d_a for
n = d_s·d_a, instead of 4|X|·n³ for the sandwiches.

A diagonal pointer (every P^x = Σ_c w_xc |c⟩⟨c| in the apparatus basis,
as any pointer compatible with a non-degenerate L_A = N_A is) needs only
the level-diagonal blocks c = d. For each level c,

    Q_c[(r', s), (r, t)] = Σ_a conj(U[(r',c),(s,a)]) G[(r,c),(t,a)],

one batched (d_a, d_s², d_a)·(d_a, d_a, d_s²) product, then
T^a_c[s, t] = Σ_{r',r} a[r', r] Q_c[(r', s), (r, t)] for every operator a
from one product against the stacked operators, and the branch operator
of outcome x is the level sum Σ_c w_xc T^a_c, one (|X| × d_a) product.
Neither a nor w is assumed Hermitian, real or 0/1. This costs about
n²·d_a + n²·d_s² instead of 2n³ + n²·d_a.

:func:`dual_instrument` (the Heisenberg sandwich, one outcome at a time)
and :func:`apply_instrument` (the Schrödinger-picture instrument) are the
documented formulas and the independent checks of this route; no
production path calls either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import dagger, ensure_hermitian, kron, partial_trace
from .objects import (
    DensityState,
    EffectSet,
    MeasurementModel,
    ObservableOp,
    born_probability,
)

# Conditional values are undefined at p(x) = 0; probabilities not above
# this floor (NaN included) raise ZeroProbabilityOutcome instead of
# returning junk.
P_FLOOR = 1e-12


class ZeroProbabilityOutcome(ValueError):
    """Raised when a conditional value is requested at p(x) not above P_FLOOR."""


@dataclass(frozen=True)
class ConditionalReport:
    """Before/after conditional values for one outcome."""

    outcome: str
    probability: float
    before: float
    after: float
    delta: float


def apply_instrument(
    model: MeasurementModel, operand: np.ndarray, outcome: str
) -> np.ndarray:
    """Unnormalized outcome branch tr_A[(1 ⊗ P^x) U (operand ⊗ ϱ) U†].

    Linear in ``operand``, which need not be Hermitian. This is the
    Schrödinger-picture instrument; it is the adjoint of
    :func:`dual_instrument` and serves as its independent check.
    """
    proj = kron(np.eye(model.dim_s), model.pointer.projector(outcome))
    joint = model.unitary @ kron(operand, model.apparatus_state.matrix) @ model.unitary.conj().T
    return partial_trace(proj @ joint, model.dim_s, model.dim_a, over="apparatus")


def dual_instrument(
    model: MeasurementModel, operator: np.ndarray, outcome: str
) -> np.ndarray:
    """Heisenberg-picture branch operator tr_A[(1 ⊗ ϱ) U† (operator ⊗ P^x) U].

    The adjoint of :func:`apply_instrument`: for every system operator
    ``a`` and operand ``r``, tr[dual_instrument(a) r] equals
    tr[a apply_instrument(r)]. ``operator`` = 1 gives the induced effect
    M(x); the observable gives K(x). It forms the full n×n sandwich for
    one outcome, so it is the formula's reference form and the check of
    :func:`branch_operators`, which builds every outcome without it.
    """
    u = model.unitary
    heisenberg = dagger(u) @ kron(operator, model.pointer.projector(outcome)) @ u
    x4 = heisenberg.reshape(model.dim_s, model.dim_a, model.dim_s, model.dim_a)
    return np.einsum("ab,sbta->st", model.apparatus_state.matrix, x4)


def branch_operators(model: MeasurementModel, operators: tuple[np.ndarray, ...]) -> np.ndarray:
    """Heisenberg branch operators of several system operators at once.

    Returns the (len(operators), |X|, d_s, d_s) stack whose [k, i] entry
    equals ``dual_instrument(model, operators[k], model.outcomes[i])``,
    built by the shared contraction of G = U(1 ⊗ ϱ) given in the module
    docstring, never forming U†(a ⊗ P^x)U. A diagonal pointer
    (``model.pointer.diagonals`` is not None) takes the level-sum route,
    about n²·d_a + n²·d_s² work; any other pointer takes the dense route,
    about 2n³ + n²·d_a.
    """
    ds, da = model.dim_s, model.dim_a
    n = ds * da
    u = model.unitary
    g = (u.reshape(n * ds, da) @ model.apparatus_state.matrix).reshape(ds, da, ds, da)
    weights = model.pointer.diagonals
    if weights is not None:
        left = u.reshape(ds, da, ds, da).conj().transpose(1, 0, 2, 3).reshape(da, ds * ds, da)
        right = g.transpose(1, 3, 0, 2).reshape(da, da, ds * ds)  # [c, a, (r', t)]
        q = (left @ right).reshape(da, ds, ds, ds, ds)  # [c, r, s, r', t]
        q = q.transpose(0, 2, 4, 1, 3).reshape(da * ds * ds, ds * ds)  # [(c, s, t), (r, r')]
        flat = np.stack(operators).reshape(len(operators), ds * ds).T  # [(r, r'), k]
        t = (q @ flat).reshape(da, ds * ds * len(operators))  # T^a_c[s, t]
        return (weights @ t).reshape(-1, ds, ds, len(operators)).transpose(3, 0, 1, 2)
    right = g.transpose(0, 3, 1, 2).reshape(n, n)  # [(r, a), (d, t)]
    projectors = np.stack(model.pointer.projectors).reshape(-1, da * da).T  # [(c, d), x]
    stacks = []
    # One operator at a time: the n×n temporaries are not multiplied by
    # the operator count, and the products cost the same.
    for a in operators:
        v = (dagger(a) @ u.reshape(ds, da * n)).reshape(ds, da, ds, da)  # [r, c, s, a]
        t = v.conj().transpose(1, 2, 0, 3).reshape(n, n) @ right  # [(c, s), (d, t)]
        t = t.reshape(da, ds, da, ds).transpose(1, 3, 0, 2).reshape(ds * ds, da * da)
        stacks.append((t @ projectors).reshape(ds, ds, -1).transpose(2, 0, 1))
    return np.stack(stacks)


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


def _checked_probability(p: float, outcome: str) -> float:
    if not p > P_FLOOR:
        raise ZeroProbabilityOutcome(
            f"outcome {outcome!r} has probability {p:.3e}, not above {P_FLOOR:.0e}"
        )
    return p


@dataclass(frozen=True)
class BranchValues:
    """The state-dependent traces of one outcome, from :meth:`CompiledModel.evaluate`."""

    outcome: str
    probability: float  # p(x) = tr[M(x)ρ], clamped to [0, 1] as born_probability does
    weak_numerator: complex  # tr[M(x)Oρ]
    after_numerator: float  # Re tr[K(x)ρ]

    def report(self) -> ConditionalReport:
        """Before/after/delta; raises ZeroProbabilityOutcome at p not above P_FLOOR."""
        p = _checked_probability(self.probability, self.outcome)
        before = self.weak_numerator.real / p
        after = self.after_numerator / p
        return ConditionalReport(
            outcome=self.outcome, probability=p, before=before, after=after, delta=after - before
        )


class CompiledModel:
    """A measurement model and an observable reduced to their branch operators.

    Built once per (model, observable): for every outcome x it stacks M(x),
    M(x)·O and K(x), the d_s×d_s images of :func:`dual_instrument`, with
    one :func:`branch_operators` call (about 2n³ + n²·d_a work, or
    n²·d_a + n²·d_s² for a diagonal pointer, whatever the number of
    outcomes).
    :meth:`evaluate` then costs one stacked d_s×d_s product per state,
    whatever the apparatus dimension.
    """

    def __init__(self, model: MeasurementModel, observable: ObservableOp):
        self.outcomes = model.outcomes
        o = observable.matrix
        m, k = branch_operators(model, (np.eye(model.dim_s), o))
        self._operators = np.concatenate([m, m @ o, k])

    def evaluate(self, state: DensityState) -> dict[str, BranchValues]:
        """p(x), tr[M(x)Oρ] and Re tr[K(x)ρ] for every outcome, keyed by label
        in outcome order."""
        traces = np.trace(self._operators @ state.matrix, axis1=1, axis2=2).tolist()
        n = len(self.outcomes)
        return {
            x: BranchValues(
                outcome=x,
                probability=min(max(traces[i].real, 0.0), 1.0),
                weak_numerator=traces[n + i],
                after_numerator=traces[2 * n + i].real,
            )
            for i, x in enumerate(self.outcomes)
        }


def outcome_averages(values: dict[str, BranchValues]) -> tuple[float, float]:
    """(Σ_x p(x)·before(x), Σ_x p(x)·after(x)) = (Σ_x Re tr[M(x)Oρ],
    Σ_x Re tr[K(x)ρ]); outcomes not above P_FLOOR add 0."""
    before = after = 0.0
    for v in values.values():
        if v.probability > P_FLOOR:
            before += v.weak_numerator.real
            after += v.after_numerator
    return before, after


def _branch(
    model: MeasurementModel, state: DensityState, observable: ObservableOp, outcome: str
) -> BranchValues:
    model.pointer.projector(outcome)  # KeyError naming the known labels
    return CompiledModel(model, observable).evaluate(state)[outcome]


def outcome_probability(model: MeasurementModel, state: DensityState, outcome: str) -> float:
    """p(x) = tr[M(x)ρ], clamped to [0, 1]."""
    return _branch(model, state, ObservableOp(np.eye(model.dim_s)), outcome).probability


def conditional_after(
    model: MeasurementModel,
    state: DensityState,
    observable: ObservableOp,
    outcome: str,
) -> float:
    """Expectation of the observable in the normalized post-outcome state,
    tr[K(x)ρ]/p(x)."""
    return conditional_change(model, state, observable, outcome).after


def conditional_before(
    source: MeasurementModel | EffectSet,
    state: DensityState,
    observable: ObservableOp,
    outcome: str,
) -> float:
    """Generalized weak value Re tr[M(x)Oρ]/p(x) of the pre-measurement state.

    The real part of :func:`weak_value`; ``source`` supplies M(x) as
    described there.
    """
    return weak_value(source, state, observable, outcome).real


def weak_value(
    source: MeasurementModel | EffectSet,
    state: DensityState,
    observable: ObservableOp,
    outcome: str,
) -> complex:
    """Full complex weak value tr[M(x)Oρ]/p(x).

    M(x) is the given effect of an ``EffectSet``, or the induced effect of
    a ``MeasurementModel``. ``conditional_before`` is the real part; the
    imaginary part is exposed here purely as a diagnostic and never
    enters any conditional change.
    """
    if isinstance(source, EffectSet):
        m = source.effect(outcome)
        p = born_probability(state, m)
        numerator = complex(np.trace(m @ observable.matrix @ state.matrix))
    else:
        values = _branch(source, state, observable, outcome)
        p, numerator = values.probability, values.weak_numerator
    return numerator / _checked_probability(p, outcome)


def conditional_change(
    model: MeasurementModel,
    state: DensityState,
    observable: ObservableOp,
    outcome: str,
) -> ConditionalReport:
    """Before/after/delta report for one outcome (delta = after − before)."""
    return _branch(model, state, observable, outcome).report()


def average_before(
    model: MeasurementModel, state: DensityState, observable: ObservableOp
) -> float:
    """Σ_x p(x)·before(x) = Σ_x Re tr[M(x)Oρ]; equals tr[Oρ].
    Zero-probability outcomes add 0."""
    return outcome_averages(CompiledModel(model, observable).evaluate(state))[0]


def average_after(
    model: MeasurementModel, state: DensityState, observable: ObservableOp
) -> float:
    """Σ_x p(x)·after(x) = Σ_x tr[K(x)ρ]; equals the post-interaction
    expectation tr[(O ⊗ 1) U (ρ ⊗ ϱ) U†]. Zero-probability outcomes add 0."""
    return outcome_averages(CompiledModel(model, observable).evaluate(state))[1]
