"""Cross-checking independent computational routes to the same numbers.

Physics code earns trust when two formulas that must agree, computed
through different algebra, actually do. This script runs two such pairs:

1. Conditional values, direct vs blockwise. Under a conservation law the
   joint evolution never mixes total-eigenvalue sectors. The conditional
   before/after values can therefore be assembled sector pair by sector
   pair, an expansion with completely different intermediate quantities
   than the direct trace formulas (CompiledModel.conditional_values,
   which divides the rows of the CompiledModel.traces kernel by p(x)).

2. The exchange-coupling unitary, closed form vs exponential. For a
   qubit system the propagator decomposes into 2x2 rotation blocks with
   known angles; the generic route diagonalizes the full coupling
   Hamiltonian. Entrywise agreement at 1e-10 or better.

Run:  python3 demos/dual_routes.py
"""

from __future__ import annotations

import numpy as np

from symcond import (
    CompiledModel,
    JCModelSpec,
    ZeroProbabilityOutcome,
    jc_hamiltonian,
    jc_unitary_closed_form,
)
from symcond.linalg import frob, unitary_from_generator
from symcond.oracles import blockwise_conditional_values
from symcond.sampling import (
    random_density,
    random_diagonal_observable,
    random_number_conserving_model,
)


def main() -> None:
    rng = np.random.default_rng(1234)

    print("== route 1: blockwise sector sums vs direct traces ==")
    worst = 0.0
    checked = 0
    for trial in range(10):
        model, quantity = random_number_conserving_model(2, 3, rng)
        rho = random_density(2, rng)
        obs = random_diagonal_observable(2, rng)
        _, direct_befores, direct_afters = CompiledModel(model, obs).conditional_values(rho.matrix)
        try:
            befores, afters = blockwise_conditional_values(model, rho, obs, quantity)
        except ZeroProbabilityOutcome:
            continue
        rows = zip(model.outcomes, befores.tolist(), afters.tolist(), direct_befores.tolist(), direct_afters.tolist())
        for label, b_block, a_block, b_direct, a_direct in rows:
            gap = max(abs(b_block - b_direct), abs(a_block - a_direct))
            worst = max(worst, gap)
            checked += 1
            if trial == 0:
                print(f"  outcome {label}: before {b_block:+.9f} / {b_direct:+.9f}   "
                      f"after {a_block:+.9f} / {a_direct:+.9f}")
    print(f"  {checked} outcome evaluations, worst disagreement {worst:.3e}")

    print("\n== route 2: closed-form unitary vs matrix exponential ==")
    for dim_a in (2, 4, 8):
        worst = 0.0
        for theta in rng.uniform(-2 * np.pi, 2 * np.pi, size=10):
            spec = JCModelSpec(2, dim_a, theta=float(theta))
            closed = jc_unitary_closed_form(spec)
            h = jc_hamiltonian(2, dim_a).matrix
            spectral = unitary_from_generator(h, float(theta))
            worst = max(worst, float(np.max(np.abs(closed - spectral))))
        print(f"  dim_a = {dim_a:2d}: worst entrywise gap over 10 angles = {worst:.3e}")

    # the closed form also makes the sector structure visible: print the
    # support pattern for a small case
    print("\nclosed-form support pattern, dim_a = 3, theta = 0.9:")
    u = jc_unitary_closed_form(JCModelSpec(2, 3, theta=0.9))
    pattern = np.where(np.abs(u) > 1e-12, "x", ".")
    for row in pattern:
        print("  " + " ".join(row))
    print("  (rows/cols ordered |0,0> |0,1> |0,2> |1,0> |1,1> |1,2>;")
    print("   each 'x' block couples states of one total excitation number)")

    print(f"\nunitarity defect of that matrix: {frob(u @ u.conj().T - np.eye(6)):.3e}")


if __name__ == "__main__":
    main()
