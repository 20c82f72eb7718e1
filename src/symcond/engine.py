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
theorem verifier all read these arrays; the verifier reads both
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

When U conserves the total excitation exactly, its only nonzero entries
sit on r + c = s + α, and ``MeasurementModel.band`` holds them as
Ub[r, c, s] = U[(r, c), (s, r + c − s)]. For a diagonal pointer the
level blocks then read

    T^a_c[s, t] = Σ_{r,q} a[q,r]·conj(Ub[q,c,s])·Ub[r,c,t]·ϱ[r+c−t, q+c−s],

with ϱ indexed by the offsets r − t and q − s only (a strided view of ϱ,
zero-padded by d_s − 1 on each side), so no d_a·d_s⁴ gather is formed:
about 2k·d_a·d_s⁴ work and 2(k+1)·d_a·d_s³ entries of memory (at most
2(k+1)·n² for d_s ≤ d_a), no n×n temporary. The band view exists only for
n ≥ ``objects.BAND_MIN_DIM`` = 128 and d_s ≤ d_a. That crossover was
measured on one core (CPython 3.11, numpy 2.4/OpenBLAS) as the time to
build and validate a model and compile it and its decohered twin: the
band route took 0.26–0.32× the dense time at (2, 64), (4, 32), (2, 128),
(8, 32) and (2, 256), 0.65× at (8, 16), 0.78× at (16, 16), 0.50× at
(32, 32) and 1.00× at (12, 12), but 1.4–1.8× at every n ≤ 32, and at
n = 64…121 from 0.37× on narrow shapes to 1.35× on near-square ones
((8, 8), (10, 10), (11, 11)), whose fixed ~65 µs of extra numpy calls
is not repaid. A U with any other nonzero (NaN included), a rotated
pointer, d_s > d_a and smaller n take the dense route above, which
stays the general path.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
    pointer's level table, never forming U†(a ⊗ P^x)U: from U's band
    (``model.band``) when it has one and the pointer is diagonal, about
    2k·d_a·d_s⁴ work, else from the dense U, about 2k·n²·d_s + n²·d_a
    work; O(k·n²) memory either way for k operators.
    """
    ds, da = model.dim_s, model.dim_a
    basis, weights = model.pointer.levels
    band = model.band if basis is None else None
    if band is None:
        t = _dense_levels(model, basis, operators)
    else:
        t = _band_levels(band, model.apparatus_state.matrix, operators)
    return (weights @ t.reshape(da, -1)).reshape(-1, len(operators), ds, ds).transpose(1, 0, 2, 3)


def _dense_levels(
    model: MeasurementModel, basis: np.ndarray | None, operators: tuple[np.ndarray, ...]
) -> np.ndarray:
    """The (d_a, k, d_s, d_s) stack T^a_c from the dense U, rotated to B's basis."""
    ds, da = model.dim_s, model.dim_a
    n = ds * da
    u = model.unitary
    if basis is not None:
        u = (dagger(basis) @ u.reshape(ds, da, n)).reshape(n, n)  # rows (r, B-level)
    g = (u.reshape(n * ds, da) @ model.apparatus_state.matrix).reshape(ds, da, ds, da)
    k = len(operators)
    a_t = np.stack(operators).transpose(0, 2, 1).reshape(k * ds, ds)  # [(k, r), r']
    v = (a_t @ u.conj().reshape(ds, da * n)).reshape(k, ds, da, ds, da)  # [k, r, c, s, α]
    left = v.transpose(2, 0, 3, 1, 4).reshape(da, k * ds, n)  # [c, (k, s), (r, α)]
    right = g.transpose(1, 2, 0, 3).reshape(da, ds, n)  # [c, t, (r, α)]
    return left @ right.transpose(0, 2, 1)  # T^a_c[s, t]


def _band_levels(band: np.ndarray, rho: np.ndarray, operators: tuple[np.ndarray, ...]) -> np.ndarray:
    """The (d_a, k, d_s, d_s) stack T^a_c from U's band Ub:

        T^a_c[s, t] = Σ_{r,q} a[q,r]·conj(Ub[q,c,s])·Ub[r,c,t]·ϱ[r+c−t, q+c−s].

    ϱ is read through the offsets r − t and q − s, never gathered into a
    d_a·d_s⁴ array: E[r,c,t,j] = Ub[r,c,t]·ϱ[r+c−t, c+j−d_s+1] multiplies a
    strided view of ϱ (zero-padded by d_s − 1 on each side), one product
    takes F = a·E over r for every operator, and the sum over q reads F at
    j = q − s + d_s − 1 through a second strided view.
    """
    ds, da, _ = band.shape
    k, w = len(operators), 2 * ds - 1
    padded = np.zeros((da + w - 1,) * 2, dtype=complex)
    padded[ds - 1 : ds - 1 + da, ds - 1 : ds - 1 + da] = rho
    s0, s1 = padded.strides
    windows = as_strided(padded[ds - 1 :], (ds, da, ds, w), (s0, s0 + s1, -s0, s1), writeable=False)
    e = band[..., None] * windows  # [r, c, t, j]
    f = (np.stack(operators).reshape(k * ds, ds) @ e.reshape(ds, -1)).reshape(k, ds, da, ds, w)
    del e  # F[k, q, c, t, j] = Σ_r a_k[q, r]·E[r, c, t, j] holds all that is needed
    f0, f1, f2, f3, f4 = f.strides
    g = as_strided(f[..., ds - 1 :], (k, ds, da, ds, ds), (f0, f1 + f4, f2, f3, -f4), writeable=False)
    return np.einsum("qcs,kqcts->ckst", band.conj(), g)  # g[k, q, c, t, s] = F at j = q − s + d_s − 1


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
    one :func:`branch_operators` call (about 4n²·d_s + n²·d_a work, or
    4·d_a·d_s⁴ from U's band, whatever the number of outcomes); a
    pointer without a level table (projectors that share no eigenbasis)
    raises ValueError.
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
    summed in model order; outcomes at or below P_FLOOR add 0, and one
    with a NaN p is added, not skipped."""
    before = after = 0.0
    for p, weak, aft in zip(*traces.real.tolist()):
        if not p <= P_FLOOR:
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
