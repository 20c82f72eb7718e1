"""When does apparatus coherence matter? Exercising the theorem verifier.

A conserved additive quantity L = L_S (x) 1 + 1 (x) L_A splits state
space into eigenvalue sectors. The pinching map Phi_L wipes out all
coherence between sectors. The question both theorems answer: which of
those coherences actually influence conditional expectation values?

Theorem-1-style claim: if the observable commutes with L_S (and, for the
first branch, the system state does too), then replacing the apparatus
state by its decohered version changes nothing.

Theorem-2-style claim: with a symmetric (all-real in the conserved
eigenbasis) product state and a purely imaginary cross-element structure,
even the system state's own coherences can be pinched away freely.

One call, verify_theorems, measures the shared hypotheses once and returns
both verdicts; each case below reads the one theorem it illustrates.

Run:  python3 demos/decoherence_and_theorems.py
"""

from __future__ import annotations

import numpy as np

from symcond import (
    ObservableOp,
    check_conservation,
    check_yanase,
    decohere,
    fig1_scenario_path,
    load_scenario,
    verify_theorems,
)


def show(title: str, verdict) -> None:
    print(f"\n-- {title} --")
    print("hypotheses:")
    for name, residual in verdict.hypotheses.items():
        mark = "ok    " if residual < verdict.tolerance else "BROKEN"
        print(f"  {mark} {name:24s} residual {residual:.3e}")
    print("equalities:")
    for name, residual in verdict.equalities.items():
        held = "holds " if residual < verdict.tolerance else "FAILS "
        claimed = "claimed" if verdict.equality_claimed(name) else "not claimed"
        print(f"  {held} {name:24s} residual {residual:.3e}  ({claimed})")


def main() -> None:
    setup = load_scenario(fig1_scenario_path())
    model, quantity = setup.model, setup.conserved

    print("conservation residual:", f"{check_conservation(model, quantity):.3e}")
    print("pointer-compatibility residual:", f"{check_yanase(model, quantity):.3e}")

    # The apparatus state carries coherence between the two number sectors;
    # pinching by L_A removes the off-diagonal terms.
    xi = model.apparatus_state.matrix
    print("\napparatus state:")
    print(np.array_str(xi, precision=4, suppress_small=True))
    print("after pinching by L_A:")
    print(np.array_str(decohere(xi, quantity.apparatus_part.matrix), precision=4))

    # Case 1: a diagonal (hence commuting) system state. Both branches of
    # the first theorem apply and every equality holds.
    rho_diag = setup.system_state(np.pi / 2)
    rho_diag = type(rho_diag)(np.diag(np.diag(rho_diag.matrix)))
    show("theorem 1, commuting state",
         verify_theorems(model, rho_diag, setup.observable, quantity)["theorem1"])

    # Case 2: the phase-pi/2 coherent state does not commute with L_S.
    # The first branch's hypothesis fails and its equalities genuinely
    # break; the second branch never needed that hypothesis and survives.
    rho_coh = setup.system_state(np.pi / 2)
    show("theorem 1, coherent state",
         verify_theorems(model, rho_coh, setup.observable, quantity)["theorem1"])

    # Case 3: a non-commuting observable voids every claim. The verifier
    # reports the broken hypothesis and marks the equalities unclaimed.
    sigma_x = ObservableOp(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    show("theorem 1, sigma_x observable",
         verify_theorems(model, rho_diag, sigma_x, quantity)["theorem1"])

    # Case 4: phase 0 gives an all-real product state. The stronger
    # four-way chains hold: coherent vs pinched, in the state and in the
    # apparatus, all give identical conditional values.
    show("theorem 2, symmetric state (phase 0)",
         verify_theorems(model, setup.system_state(0.0), setup.observable, quantity)["theorem2"])

    # Case 5: phase 0.4*pi makes the product state complex; the symmetry
    # hypothesis fails and the chains visibly split.
    show("theorem 2, asymmetric state (phase 0.4 pi)",
         verify_theorems(model, setup.system_state(0.4 * np.pi), setup.observable, quantity)["theorem2"])


if __name__ == "__main__":
    main()
