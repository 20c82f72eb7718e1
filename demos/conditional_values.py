"""Walk through one measurement model and its conditional expectation values.

A qubit is measured indirectly: it couples to a second qubit (the probe)
through a unitary, and we read a pointer observable on the probe. For
each pointer outcome there are two natural conditional values of a system
observable O: the one assigned retrodictively to the pre-measurement
state, and the ordinary average in the post-measurement state. This
script computes both, their change, and shows how the retrodictive value
can leave the spectrum of O entirely once the post-selection is sharp
enough.

Run:  python3 demos/conditional_values.py
"""

from __future__ import annotations

import numpy as np

from symcond import (
    P_FLOOR,
    CompiledModel,
    DensityState,
    EffectSet,
    ObservableOp,
    fig1_scenario_path,
    induced_povm,
    load_scenario,
    weak_value,
)


def main() -> None:
    setup = load_scenario(fig1_scenario_path())
    model = setup.model
    obs = setup.observable  # diag(-1, +1) in the energy basis

    print("== model ==")
    print(f"system dim {model.dim_s}, apparatus dim {model.dim_a}, "
          f"outcomes {model.outcomes}")

    # The apparatus couples for a fixed time; the effective POVM on the
    # system alone is obtained by tracing the probe out.
    effects = induced_povm(model)
    print("\ninduced effect for outcome '+':")
    print(np.array_str(effects.effect("+"), precision=4, suppress_small=True))

    rho = setup.system_state(0.0)
    print("\nsystem state (phase 0):")
    print(np.array_str(rho.matrix, precision=4, suppress_small=True))

    # The model is compiled once per observable; every state is then
    # evaluated against the same branch operators. The kernel gives three
    # trace rows per outcome, tr[M(x) rho], tr[M(x) O rho] and tr[K(x) rho];
    # conditional_values divides them by p(x), outcomes in model order.
    compiled = CompiledModel(model, obs)
    p, before, after = compiled.conditional_values(rho.matrix)
    print("\n== conditional values per outcome ==")
    for label, px, b, a in zip(model.outcomes, p, before, after):
        if not px > P_FLOOR:  # no conditional value at p(x) = 0
            print(f"outcome {label}: p = {px:.6f}  (zero-probability outcome)")
            continue
        print(f"outcome {label}: p = {px:.6f}  "
              f"before = {b:+.6f}  after = {a:+.6f}  "
              f"delta = {a - b:+.6f}")

    # Both families of conditional values average back to unconditioned
    # expectations, just against different states: sum_x p(x) <O>_before
    # is the sum of the tr[M(x) O rho] row, sum_x p(x) <O>_after that of
    # the tr[K(x) rho] row.
    traces = compiled.traces(rho.matrix)
    avg_before, avg_after = traces[1:].real.sum(axis=1)
    print("\n== averages ==")
    print(f"sum_x p(x) <O>_before = {avg_before:+.6f}"
          f"  (tr[O rho] = {np.trace(obs.matrix @ rho.matrix).real:+.6f})")
    print(f"sum_x p(x) <O>_after  = {avg_after:+.6f}")

    # Note the '+' row above: before-values need not lie in [-1, 1] even
    # though the spectrum of O does. Push harder with a nearly orthogonal
    # post-selection on a bare POVM to make the effect unmistakable.
    print("\n== anomalous retrodiction under sharp post-selection ==")
    psi = np.array([np.cos(0.1), np.sin(0.1)])
    phi = np.array([np.sin(0.15), -np.cos(0.15)])  # nearly orthogonal to psi
    proj = np.outer(phi, phi.conj()).astype(complex)
    post = EffectSet(("hit", "miss"), (proj, np.eye(2) - proj))
    state = DensityState(np.outer(psi, psi.conj()).astype(complex))
    sz = ObservableOp(np.diag([-1.0, 1.0]))
    wv = weak_value(post, state, sz, "hit")
    print(f"overlap |<phi|psi>|^2 = {abs(phi @ psi) ** 2:.4f}")
    print(f"weak value on 'hit' = {wv.real:+.4f} {wv.imag:+.4f}i  "
          f"(spectrum of O is [-1, +1])")


if __name__ == "__main__":
    main()
