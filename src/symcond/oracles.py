"""Independent routes that check the production route, and the selftest that runs them.

Each route computes what :class:`~symcond.engine.CompiledModel` computes, by
a formula that shares none of its evaluation code:

- :func:`apply_instrument`, the Schrödinger-picture instrument, checks the
  outcome probabilities and weak values read from the induced effects M(x);
- :func:`dual_instrument`, the Heisenberg sandwich of one outcome, checks
  the level-sum contraction that builds every M(x) and K(x) at once;
- :func:`blockwise_conditional_values`, the sum over total-eigenvalue sector
  pairs that the additive conservation law permits, checks the conditional
  values before and after.

:func:`selftest_checks` draws seeded random instances, each once for
every check that reads it, and measures the production route against
these routes and closed forms. No production module imports anything
from here.
"""

from __future__ import annotations

import itertools
from math import pi

import numpy as np

from .engine import P_FLOOR, CompiledModel, ZeroProbabilityOutcome, _averages, induced_povm
from .jaynes_cummings import JCModelSpec, jc_hamiltonian, jc_unitary_closed_form
from .linalg import (
    cluster_labels,
    cluster_tolerance,
    dagger,
    frob,
    hermitian_eig,
    kron,
    partial_trace,
    unitary_from_generator,
)
from .objects import DensityState, MeasurementModel, ObservableOp
from .sampling import (
    random_density,
    random_diagonal_density,
    random_diagonal_observable,
    random_hermitian,
    random_model,
    random_number_conserving_model,
    random_observable,
)
from .symmetry import (
    ConservedQuantity,
    _companion,
    _shared_hypotheses,
    _state_grid,
    _theorem1,
    _TheoremInputs,
    _worst,
    decohere,
)


def apply_instrument(
    model: MeasurementModel, operand: np.ndarray, outcome: str
) -> np.ndarray:
    """Unnormalized outcome branch tr_A[(1 ⊗ P^x) U (operand ⊗ ϱ) U†].

    Linear in ``operand``, which need not be Hermitian. This is the
    Schrödinger-picture instrument; it is the adjoint of
    :func:`dual_instrument` and serves as its independent check.
    ``operand`` may be one d_s×d_s matrix or a (…, d_s, d_s) stack; each
    matrix of a stack gets the arithmetic it gets alone, so the branches
    are the one-operand results bit for bit.
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
    ``engine.branch_operators``, which builds every outcome without it.
    """
    u = model.unitary
    heisenberg = dagger(u) @ kron(operator, model.pointer.projector(outcome)) @ u
    x4 = heisenberg.reshape(model.dim_s, model.dim_a, model.dim_s, model.dim_a)
    return np.einsum("ab,sbta->st", model.apparatus_state.matrix, x4)


def blockwise_conditional_values(
    model: MeasurementModel,
    state: DensityState,
    observable: ObservableOp,
    quantity: ConservedQuantity,
    tol: float = 1e-9,
) -> tuple[np.ndarray, np.ndarray]:
    """Conditional (before, after) of every outcome, two arrays in
    ``model.outcomes`` order, evaluated blockwise over total-eigenvalue
    sectors: an independent path that must agree with the direct formulas.

    The conservation law confines U to blocks of fixed total eigenvalue
    l = m + μ, so each conditional value decomposes into a sum over sector
    pairs (m, μ), (n, ν) with m + μ = n + ν = l of projected traces:

        after  = (1/p)  Σ_l Σ_{(m,μ)_l} Σ_{(n,ν)_l}
                 tr[(O ⊗ P^x) U (Q_S^m ρ Q_S^n ⊗ Q_A^μ ϱ Q_A^ν) U†]
        before = (1/2p) Σ_l Σ_{(m,μ)_l} Σ_{(n,ν)_l}
                 tr[(1 ⊗ P^x) U (Q_S^m (Oρ + ρO) Q_S^n ⊗ Q_A^μ ϱ Q_A^ν) U†]

    Each sector-pair block is formed once and traced against the stacked
    Heisenberg operators of all outcomes, each outcome's sum in the same
    order as alone. The derivation needs the conservation law, pointer
    compatibility, and [O, L_S] = 0; their residuals are measured first
    and any not below ``tol`` (NaN included) raises ValueError. p(x) is
    computed directly here, not through the engine; the first outcome
    whose p(x) is not above P_FLOOR raises ZeroProbabilityOutcome.
    """
    for name, residual in _shared_hypotheses(model, observable, quantity).items():
        if not residual < tol:
            raise ValueError(
                f"blockwise path precondition {name!r} violated: "
                f"residual {residual:.3e} not below {tol:.3e}"
            )

    dec_s = hermitian_eig(quantity.system_part.matrix)
    dec_a = hermitian_eig(quantity.apparatus_part.matrix)
    rho = state.matrix
    varrho = model.apparatus_state.matrix
    u = model.unitary
    projs = np.stack(model.pointer.projectors)  # [x, c, d], outcomes in model order
    eye_s = np.eye(model.dim_s)

    joint = u @ kron(rho, varrho) @ dagger(u)
    p = np.trace(kron(eye_s, projs) @ joint, axis1=-2, axis2=-1).real
    for outcome, px in zip(model.outcomes, p.tolist()):
        if not px > P_FLOOR:
            raise ZeroProbabilityOutcome(outcome, px)

    # Pairs (m, μ) grouped by their total eigenvalue m + μ.
    sector_pairs = list(itertools.product(range(len(dec_s.eigenvalues)), range(len(dec_a.eigenvalues))))
    totals = np.array([dec_s.eigenvalues[m] + dec_a.eigenvalues[mu] for m, mu in sector_pairs])
    order = np.argsort(totals, kind="stable")
    labels_sorted = cluster_labels(totals[order], cluster_tolerance(totals))
    label_of = np.empty(len(sector_pairs), dtype=int)
    label_of[order] = labels_sorted
    blocks: dict[int, list[tuple[int, int]]] = {}
    for pair, lab in zip(sector_pairs, label_of):
        blocks.setdefault(int(lab), []).append(pair)

    # Heisenberg-picture operators make each projected trace a single
    # contraction: tr[A U B U†] = tr[(U† A U) B]. Row 0 serves after
    # (O ⊗ P^x against ρ), row 1 before (1 ⊗ P^x against Oρ + ρO).
    ops = dagger(u) @ np.stack([kron(observable.matrix, projs), kron(eye_s, projs)]) @ u
    operands = np.stack([rho, observable.matrix @ rho + rho @ observable.matrix])

    sums = np.zeros((2, len(p)), dtype=complex)
    for pairs in blocks.values():
        for (m, mu), (n, nu) in itertools.product(pairs, pairs):
            system = dec_s.projectors[m] @ operands @ dec_s.projectors[n]
            apparatus = dec_a.projectors[mu] @ varrho @ dec_a.projectors[nu]
            sums += np.trace(ops @ kron(system, apparatus)[:, None], axis1=-2, axis2=-1)
    after_sum, before_sum = sums.real
    return before_sum / (2 * p), after_sum / p


def _largest(residuals: list) -> float:
    """The largest of the residuals (floats or arrays) by the NaN-propagating
    fold ``_worst``; +0.0 if none is above zero."""
    return _worst(*np.hstack([0.0, *residuals]).tolist())


def selftest_checks(seed: int) -> list[tuple[str, float, float]]:
    """Seeded randomized property checks: (name, worst residual, threshold).

    Random instances are drawn once each and read by every check that
    applies to them. Each of 20 unconstrained instances (a random model,
    five states, an observable) feeds the probability check (all five
    states), the weak-value check and the average identities (the first
    state). Each of 10 number-conserving instances (a diagonal observable,
    a diagonal and a full state) feeds theorem 1 (both states) and the
    blockwise path (the full state), both reading one compile; theorem 1
    alone is measured, with one compile of the decohered-apparatus twin. The
    pinching algebra and the closed form draw their own. An outcome is
    skipped only where p is a number at or below the floor, so a NaN p
    fails its check.
    """
    rng = np.random.default_rng(seed)
    probability, averages, weak = [], [], []
    for _ in range(20):
        dims = rng.integers(2, 4, size=2)
        model = random_model(int(dims[0]), int(dims[1]), rng)
        states = np.stack([random_density(model.dim_s, rng).matrix for _ in range(5)])
        observable = random_observable(model.dim_s, rng)
        compiled = CompiledModel(model, observable)

        # Induced POVM reproduces the Schrödinger-picture instrument statistics,
        # and the weak value from M(x) agrees with the instrument applied to
        # Oρ₀, the last operand of the same stack.
        effects = np.stack(induced_povm(model).effects)
        born = np.clip(np.trace(effects @ states[:, None], axis1=-2, axis2=-1).real, 0.0, 1.0)
        operands = np.concatenate([states, [observable.matrix @ states[0]]])
        p, before, _ = compiled.conditional_values(states[0])
        for i, outcome in enumerate(model.outcomes):
            traces = np.trace(apply_instrument(model, operands, outcome), axis1=-2, axis2=-1).real
            probability.append(np.abs(born[:, i] - traces[:-1]))
            if not p[i] <= 1e-6:
                weak.append(abs(before[i] - traces[-1] / traces[0]))

        # Outcome-averaged before/after values match their closed forms.
        evolved = model.unitary @ kron(states[0], model.apparatus_state.matrix) @ model.unitary.conj().T
        target_after = float(np.trace(kron(observable.matrix, np.eye(model.dim_a)) @ evolved).real)
        target_before = float(np.trace(observable.matrix @ states[0]).real)
        avg_before, avg_after = _averages(compiled.traces(states[0]))
        averages += [abs(avg_before - target_before), abs(avg_after - target_after)]

    theorem1, blockwise = [], []
    for _ in range(10):
        dims = rng.integers(2, 4, size=2)
        model, quantity = random_number_conserving_model(int(dims[0]), int(dims[1]), rng)
        observable = random_diagonal_observable(model.dim_s, rng)
        diag_state = random_diagonal_density(model.dim_s, rng)
        full_state = random_density(model.dim_s, rng)

        compiled = CompiledModel(model, observable)

        # Both coherence-irrelevance branches of theorem 1, from one
        # companion compile and one measurement of the shared hypotheses.
        companion, compiles = _companion(model, observable, quantity, compiled)
        hypotheses = _shared_hypotheses(model, observable, quantity)
        for state, branch in ((diag_state, "system"), (full_state, "ancilla")):
            shared = _TheoremInputs(hypotheses, companion, _state_grid(compiles, state, quantity))
            v = _theorem1(shared, state, quantity, 1e-9)
            theorem1 += [v.equalities[f"{branch}_commutes_before"], v.equalities[f"{branch}_commutes_after"]]

        # Blockwise sector path against the direct conditional values.
        p, before, after = compiled.conditional_values(full_state.matrix)
        before_bw, after_bw = blockwise_conditional_values(model, full_state, observable, quantity)
        kept = ~(p <= 1e-6)
        blockwise += [np.abs(before_bw - before)[kept], np.abs(after_bw - after)[kept]]

    # Pinching algebra: idempotent, trace-preserving, L-compatible, fixed points.
    algebra = []
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        l_op = random_hermitian(dim, rng)
        spectrum = hermitian_eig(l_op)
        a = random_density(dim, rng).matrix
        pinched = decohere(a, spectrum)
        commuting = l_op @ l_op
        algebra += [
            frob(decohere(pinched, spectrum) - pinched),
            abs(np.trace(pinched).real - np.trace(a).real),
            frob(pinched @ l_op - l_op @ pinched),
            -float(np.linalg.eigvalsh(pinched).min()),  # −λ_min: above 0 only if not PSD
            frob(decohere(commuting, spectrum) - commuting),
        ]

    # Blocked closed-form unitary against the spectral exponential.
    closed_form = []
    for dim_a in range(2, 7):
        for _ in range(3):
            theta = float(rng.uniform(-2 * pi, 2 * pi))
            spec = JCModelSpec(dim_s=2, dim_a=dim_a, theta=theta)
            direct = jc_unitary_closed_form(spec)
            spectral = unitary_from_generator(jc_hamiltonian(2, dim_a).matrix, theta)
            closed_form.append(frob(direct - spectral))

    return [
        ("probability_reproducibility", _largest(probability), 1e-10),
        ("average_identities", _largest(averages), 1e-9),
        ("weak_value_dual_route", _largest(weak), 1e-9),
        ("theorem1_instances", _largest(theorem1), 1e-9),
        ("decoherence_algebra", _largest(algebra), 1e-10),
        ("closed_form_unitary", _largest(closed_form), 1e-10),
        ("blockwise_crosspath", _largest(blockwise), 1e-9),
    ]
