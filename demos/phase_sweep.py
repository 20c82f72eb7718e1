"""Sweep the system-state phase and watch decoherence become visible.

The bundled qubit-qubit scenario prepares the system in a fixed-polar
coherent state whose relative phase phi is the sweep parameter. For each
phi we compare the conditional change of O between the prepared state and
its decohered (diagonal) version. At phi in {0, pi} the two branches
agree to machine precision even though the state is far from diagonal;
in between they split. The split is the signature that the conditional
values are sensitive to exactly those coherences the symmetry argument
does not protect.

Run:  python3 demos/phase_sweep.py
"""

from __future__ import annotations

import numpy as np

from symcond import fig1_scenario_path, load_scenario
from symcond.report import sweep_columns


def ascii_plot(phis: np.ndarray, values: np.ndarray, width: int = 61, height: int = 15) -> None:
    lo, hi = float(values.min()), float(values.max())
    span = hi - lo if hi > lo else 1.0
    cols = np.linspace(0, len(phis) - 1, width).astype(int)
    grid = [[" "] * width for _ in range(height)]
    for c, idx in enumerate(cols):
        r = int(round((values[idx] - lo) / span * (height - 1)))
        grid[height - 1 - r][c] = "*"
    for i, row in enumerate(grid):
        label = hi if i == 0 else (lo if i == height - 1 else None)
        prefix = f"{label:+8.4f} |" if label is not None else "         |"
        print(prefix + "".join(row))
    print("         +" + "-" * width)
    print("          0" + " " * (width // 2 - 4) + "phi" + " " * (width // 2 - 3) + "2pi")


def main() -> None:
    scenario = load_scenario(fig1_scenario_path())  # 201 points over [0, 2pi]
    columns = sweep_columns(scenario, scenario.sweep.grid())
    assert not columns.errors

    for outcome in ("+", "-"):
        rows = columns.outcome == columns.labels.index(outcome)
        phis = columns.phi[rows]
        diff = columns.difference[rows]
        print(f"\n=== outcome '{outcome}': delta(coherent) - delta(decohered) ===")
        ascii_plot(phis, diff)
        k = int(np.argmax(np.abs(diff)))
        print(f"max |difference| = {abs(diff[k]):.6f} at phi = {phis[k]:.4f} "
              f"({phis[k] / np.pi:.3f} pi)")
        at0 = diff[0]
        atpi = diff[100]
        print(f"difference at phi=0:  {at0:+.3e}")
        print(f"difference at phi=pi: {atpi:+.3e}")

    # the decohered branch is phase-independent by construction, so its
    # delta is one horizontal line per outcome
    plus = columns.outcome == columns.labels.index("+")
    dec = sorted({round(d, 12) for d in columns.delta_decohered[plus].tolist()})
    print(f"\ndecohered-branch delta for '+' across the whole sweep: {dec}")

if __name__ == "__main__":
    main()
