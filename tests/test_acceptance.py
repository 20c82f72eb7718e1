"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (visible under ``pytest -s``)
and then asserts, so the suite both documents and enforces the bar.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from symcond import (
    P_FLOOR,
    CompiledModel,
    ConservedQuantity,
    DensityState,
    JCModelSpec,
    MeasurementModel,
    ObservableOp,
    PointerObservable,
    ZeroProbabilityOutcome,
    build_jc_model,
    decohere,
    fig1_scenario_path,
    induced_povm,
    jc_unitary_closed_form,
    load_scenario,
    verify_theorems,
)
from symcond.cli import main
from symcond.jaynes_cummings import number_operator, number_pointer
from symcond.linalg import frob
from symcond.oracles import apply_instrument, blockwise_conditional_values
from symcond.report import sweep_columns
from symcond.sampling import (
    random_density,
    random_diagonal_density,
    random_diagonal_observable,
    random_model,
    random_number_conserving_model,
    random_conserving_unitary,
    random_observable,
    random_unitary,
)


def report(n: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} {name}: {detail}"


def brute_force_curve(phis):
    """Reference sweep computed from first principles.

    Deliberately avoids every library entry point: plain numpy plus
    scipy's Pade matrix exponential, with the composite operators spelled
    out inline.
    """
    import scipy.linalg

    raising = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    lowering = raising.conj().T
    h = np.kron(raising, lowering) + np.kron(lowering, raising)
    u = scipy.linalg.expm(-1j * (np.pi / 3) * h)
    xi_vec = np.array([np.sin(np.pi / 6), np.cos(np.pi / 6)], dtype=complex)
    xi = np.outer(xi_vec, xi_vec.conj())
    projectors = {"+": np.diag([0.0, 1.0]), "-": np.diag([1.0, 0.0])}
    obs = np.diag([-1.0, 1.0]).astype(complex)
    eye2 = np.eye(2)

    rows = {}
    for phi in phis:
        v = np.array([np.exp(1j * phi) * np.sin(np.pi / 8), np.cos(np.pi / 8)])
        rho = np.outer(v, v.conj())
        branches = {"coh": rho, "dec": np.diag(np.diag(rho))}
        for label, proj in projectors.items():
            vals = {}
            for tag, r in branches.items():
                joint = u @ np.kron(r, xi) @ u.conj().T
                p = np.trace(np.kron(eye2, proj) @ joint).real
                after = np.trace(np.kron(obs, proj) @ joint).real / p
                sym = (obs @ r + r @ obs) / 2
                joint_b = u @ np.kron(sym, xi) @ u.conj().T
                before = np.trace(np.kron(eye2, proj) @ joint_b).real / p
                vals[tag] = (p, after - before)
            rows[(phi, label)] = (
                vals["coh"][0],
                vals["coh"][1],
                vals["dec"][1],
                vals["coh"][1] - vals["dec"][1],
            )
    return rows


def test_criterion_1_fig1_reproduction():
    setup = load_scenario(fig1_scenario_path())
    grid = np.linspace(0.0, 2.0 * np.pi, 201)
    start = time.perf_counter()
    columns = sweep_columns(setup, grid)
    elapsed = time.perf_counter() - start
    assert columns.errors == []
    assert len(columns.phi) == 402

    # One row per (phi, label): (probability, delta_coherent, delta_decohered, difference).
    flat = {
        (phi, columns.labels[o]): row
        for o, phi, *row in zip(
            columns.outcome.tolist(),
            columns.phi.tolist(),
            columns.probability.tolist(),
            columns.delta_coherent.tolist(),
            columns.delta_decohered.tolist(),
            columns.difference.tolist(),
        )
    }

    # pinned phases: coherent and decohered deltas agree at 0 and pi,
    # split at pi/2
    worst_pinned = max(abs(flat[(phi, lab)][3]) for phi in (grid[0], grid[100]) for lab in ("+", "-"))
    split = max(abs(flat[(grid[50], lab)][3]) for lab in ("+", "-"))

    oracle = brute_force_curve(grid)
    worst = 0.0
    for (phi, label), (p, d_coh, d_dec, diff) in oracle.items():
        r = flat[(phi, label)]
        worst = max(worst, *(abs(a - b) for a, b in zip(r, (p, d_coh, d_dec, diff))))

    ok = elapsed < 5.0 and worst_pinned < 1e-9 and split > 1e-3 and worst < 1e-9
    report(
        1,
        "fig1 reproduction",
        ok,
        f"{elapsed:.2f}s, pinned {worst_pinned:.2e}, split {split:.2e}, oracle {worst:.2e}",
    )


def test_criterion_2_probability_reproducibility():
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(100):
        dim_s = int(rng.integers(2, 5))
        dim_a = int(rng.integers(2, 5))
        model = random_model(dim_s, dim_a, rng)
        effects = induced_povm(model)
        for _ in range(20):
            rho = random_density(dim_s, rng)
            for label in model.outcomes:
                p_povm = np.trace(effects.effect(label) @ rho.matrix).real
                p_instr = np.trace(apply_instrument(model, rho.matrix, label)).real
                worst = max(worst, abs(p_povm - p_instr))
    report(2, "probability reproducibility", worst < 1e-10, f"max |diff| {worst:.2e}")


def test_criterion_3_average_identities():
    from symcond.linalg import dagger, kron

    rng = np.random.default_rng(301)
    worst = 0.0
    for _ in range(100):
        dim_s = int(rng.integers(2, 4))
        dim_a = int(rng.integers(2, 4))
        model = random_model(dim_s, dim_a, rng)
        rho = random_density(dim_s, rng)
        obs = random_observable(dim_s, rng)
        want_before = np.trace(obs.matrix @ rho.matrix).real
        joint = model.unitary @ kron(rho.matrix, model.apparatus_state.matrix) @ dagger(model.unitary)
        want_after = np.trace(kron(obs.matrix, np.eye(dim_a)) @ joint).real
        p, before, after = CompiledModel(model, obs).conditional_values(rho.matrix)
        kept = p > P_FLOOR
        got_before, got_after = np.sum((p * before)[kept]), np.sum((p * after)[kept])
        worst = max(
            worst,
            abs(got_before - want_before),
            abs(got_after - want_after),
        )
    report(3, "average identities", worst < 1e-9, f"max residual {worst:.2e}")


def test_criterion_4_theorem1_suite():
    rng = np.random.default_rng(401)
    worst_a = 0.0
    worst_b = 0.0
    for _ in range(100):
        dim_a = int(rng.integers(2, 4))
        model, q = random_number_conserving_model(2, dim_a, rng)
        obs = random_diagonal_observable(2, rng)

        # branch with a commuting system state
        rho_diag = random_diagonal_density(2, rng)
        v = verify_theorems(model, rho_diag, obs, q)["theorem1"]
        assert v.all_hypotheses_hold
        worst_a = max(
            worst_a, v.equalities["system_commutes_before"], v.equalities["system_commutes_after"]
        )

        # branch that decoheres the state instead
        rho_any = random_density(2, rng)
        v = verify_theorems(model, rho_any, obs, q)["theorem1"]
        worst_b = max(
            worst_b, v.equalities["ancilla_commutes_before"], v.equalities["ancilla_commutes_after"]
        )

    # one counterexample per hypothesis, each isolated: the named
    # hypothesis breaks, the other three stay satisfied, and at least one
    # claimed-in-the-clean-case equality visibly fails
    xi_vec = np.array([np.sin(np.pi / 6), np.cos(np.pi / 6)], dtype=complex)
    xi = DensityState(np.outer(xi_vec, xi_vec.conj()))
    q2 = ConservedQuantity(number_operator(2), number_operator(2))
    rho_diag = DensityState(np.diag([0.2, 0.8]).astype(complex))
    obs_diag = ObservableOp(np.diag([-1.0, 1.0]))
    sigma_x = ObservableOp(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    u_cons = random_conserving_unitary(q2, np.random.default_rng(0))
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
    setup = load_scenario(fig1_scenario_path())

    cases = {
        "observable_commutes": (
            MeasurementModel(xi, u_cons, number_pointer(2)),
            rho_diag,
            sigma_x,
            q2,
        ),
        "state_commutes": (setup.model, setup.system_state(np.pi / 2), setup.observable, setup.conserved),
        "yanase": (
            MeasurementModel(xi, u_cons, PointerObservable(("u", "v"), (plus, minus))),
            rho_diag,
            obs_diag,
            q2,
        ),
        "conservation": (
            MeasurementModel(
                xi, random_unitary(4, np.random.default_rng(0)), number_pointer(2)
            ),
            rho_diag,
            obs_diag,
            q2,
        ),
    }
    counter_ok = True
    details = []
    for name, (model, rho, obs, q) in cases.items():
        v = verify_theorems(model, rho, obs, q)["theorem1"]
        others = max(res for hyp, res in v.hypotheses.items() if hyp != name)
        broken_eq = max(v.equalities.values())
        good = v.hypotheses[name] > 1e-3 and others < 1e-9 and broken_eq > 1e-3
        counter_ok = counter_ok and good
        details.append(f"{name} eq {broken_eq:.2e}")

    ok = worst_a < 1e-9 and worst_b < 1e-9 and counter_ok
    report(
        4,
        "theorem 1 suite",
        ok,
        f"branch residuals {worst_a:.2e}/{worst_b:.2e}; counterexamples " + ", ".join(details),
    )


def test_criterion_5_theorem2_suite():
    worst_hold = 0.0
    worst_break = np.inf
    for dim_a in range(2, 7):
        rng = np.random.default_rng(100 + dim_a)
        g = rng.normal(size=(dim_a, dim_a))
        xi = (g @ g.T).astype(complex)
        xi /= np.trace(xi).real
        model, q = build_jc_model(JCModelSpec(2, dim_a, theta=0.9), DensityState(xi))
        obs = ObservableOp(np.diag(rng.normal(size=2)).astype(complex))

        c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
        sym = DensityState(np.array([[s * s, s * c], [s * c, c * c]], dtype=complex))
        v = verify_theorems(model, sym, obs, q)["theorem2"]
        worst_hold = max(worst_hold, max(v.hypotheses.values()), max(v.equalities.values()))

        vec = np.array([np.exp(1j * 0.4 * np.pi) * s, c])
        asym = DensityState(np.outer(vec, vec.conj()))
        v = verify_theorems(model, asym, obs, q)["theorem2"]
        assert v.hypotheses["symmetric_state"] > 1e-3
        worst_break = min(worst_break, max(v.equalities.values()))

    ok = worst_hold < 1e-9 and worst_break > 1e-3
    report(
        5,
        "theorem 2 suite",
        ok,
        f"symmetric residual {worst_hold:.2e}, weakest asymmetric break {worst_break:.2e}",
    )


def test_criterion_6_blockwise_cross_path():
    rng = np.random.default_rng(601)
    worst = 0.0
    checked = 0
    for _ in range(50):
        dim_a = int(rng.integers(2, 4))
        model, q = random_number_conserving_model(2, dim_a, rng)
        rho = random_density(2, rng)
        obs = random_diagonal_observable(2, rng)
        _, direct_befores, direct_afters = CompiledModel(model, obs).conditional_values(rho.matrix)
        try:
            befores, afters = blockwise_conditional_values(model, rho, obs, q)
        except ZeroProbabilityOutcome:
            continue
        for before, after, direct_before, direct_after in zip(befores, afters, direct_befores, direct_afters):
            worst = max(
                worst,
                abs(before - direct_before),
                abs(after - direct_after),
            )
            checked += 1
    ok = worst < 1e-9 and checked >= 50
    report(6, "blockwise cross-path", ok, f"max residual {worst:.2e} over {checked} outcome pairs")


def test_criterion_7_closed_form_vs_exponential():
    import scipy.linalg

    worst = 0.0
    for dim_a in range(2, 11):
        rng = np.random.default_rng(700 + dim_a)
        raising = np.zeros((dim_a, dim_a), dtype=complex)
        for k in range(dim_a - 1):
            raising[k + 1, k] = np.sqrt(k + 1.0)
        sp2 = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
        h = np.kron(sp2, raising.conj().T) + np.kron(sp2.conj().T, raising)
        for theta in rng.uniform(-2.0 * np.pi, 2.0 * np.pi, size=20):
            closed = jc_unitary_closed_form(JCModelSpec(2, dim_a, theta=float(theta)))
            reference = scipy.linalg.expm(-1j * float(theta) * h)
            worst = max(worst, float(np.max(np.abs(closed - reference))))
    report(7, "closed form vs exponential", worst < 1e-10, f"max entry diff {worst:.2e}")


def test_criterion_8_decoherence_algebra():
    rng = np.random.default_rng(801)
    worst = 0.0
    psd_floor = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = g @ g.conj().T
        a /= np.trace(a).real
        hg = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        l = (hg + hg.conj().T) / 2

        out = decohere(a, l)
        worst = max(worst, frob(decohere(out, l) - out))
        worst = max(worst, abs(np.trace(out).real - 1.0))
        worst = max(worst, frob(out @ l - l @ out))
        psd_floor = min(psd_floor, float(np.linalg.eigvalsh(out).min()))

        coeffs = rng.normal(size=3)
        commuting = coeffs[0] * np.eye(dim) + coeffs[1] * l + coeffs[2] * (l @ l) / max(1.0, frob(l @ l))
        worst = max(worst, frob(decohere(commuting, l) - commuting))
    ok = worst < 1e-10 and psd_floor > -1e-10
    report(8, "decoherence algebra", ok, f"max residual {worst:.2e}, min eigenvalue {psd_floor:.2e}")


def test_criterion_9_deterministic_outputs(tmp_path, capsys):
    from symcond import fig1_scenario_path

    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["fig1", "--out", str(a), "--quiet"]) == 0
    assert main(["fig1", "--out", str(b), "--quiet"]) == 0
    files_equal = a.read_bytes() == b.read_bytes()

    fig1 = str(fig1_scenario_path())
    assert main(["run", fig1]) == 0
    first = capsys.readouterr().out
    assert main(["run", fig1]) == 0
    second = capsys.readouterr().out
    assert main(["sweep", fig1, "--from", "0", "--to", "6.28", "--steps", "7"]) == 0
    sweep1 = capsys.readouterr().out
    assert main(["sweep", fig1, "--from", "0", "--to", "6.28", "--steps", "7"]) == 0
    sweep2 = capsys.readouterr().out
    stdout_equal = first == second and sweep1 == sweep2

    ok = files_equal and stdout_equal
    with capsys.disabled():
        print()
        report(
            9,
            "deterministic outputs",
            ok,
            f"fig1 files identical: {files_equal}, run/sweep stdout identical: {stdout_equal}",
        )
