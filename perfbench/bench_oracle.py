"""Independent numpy oracle for the benchmark's CLI outputs.

It reads the same scenario document the program reads, rebuilds every
operator from the documented conventions (README: kron(system,
apparatus) ordering, sigma_z = diag(-1, +1), coherent qubit vector
[e^{iφ} sin(polar/2), cos(polar/2)]), and recomputes each emitted value
through the reduced operators

    M(x) = tr_A[U†(1⊗P^x)U (1⊗ϱ)],   K(x) = tr_A[U†(O⊗P^x)U (1⊗ϱ)],

    p(x) = tr[M(x)ρ],  before(x) = Re tr[M(x)Oρ]/p,  after(x) = tr[K(x)ρ]/p,

a different route from the program's instrument applications. For
Jaynes-Cummings models it builds U = exp(-iθH) from the exchange
Hamiltonian with ``eigh``. It never calls symcond.
"""

from __future__ import annotations

import csv
import json
from math import cos, sin

import numpy as np

TOL = 1e-9

NAMED = {"sigma_z": np.diag([-1.0, 1.0]).astype(complex)}


class OracleMismatch(Exception):
    """An emitted value disagrees with the oracle or the output is malformed."""


def _matrix(node) -> np.ndarray:
    a = np.asarray(node, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _coherent(polar: float, phase: float) -> np.ndarray:
    v = np.array([np.exp(1j * phase) * sin(polar / 2), cos(polar / 2)])
    return np.outer(v, v.conj())


def _raise(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), -1).astype(complex)


def exchange_unitary(dim_s: int, dim_a: int, theta: float) -> np.ndarray:
    """exp(-iθ(σ+⊗a + σ-⊗a†)) with truncated ladders, via eigh."""
    up_s, up_a = _raise(dim_s), _raise(dim_a)
    h = np.kron(up_s, up_a.conj().T) + np.kron(up_s.conj().T, up_a)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


class Case:
    """Operators of one scenario document, with M(x) and K(x) precomputed."""

    def __init__(self, document: bytes):
        doc = json.loads(document)
        model = doc["model"]
        app = model["apparatus_state"]
        pointer = model["pointer"]
        if model["kind"] == "jaynes-cummings":
            ds, da = model["dim_s"], model["dim_a"]
            u = exchange_unitary(ds, da, model["theta"])
            projectors = []
            for levels in pointer["blocks"]:
                p = np.zeros((da, da), dtype=complex)
                p[levels, levels] = 1.0
                projectors.append(p)
        elif model["kind"] == "explicit":
            u = _matrix(model["unitary"])
            projectors = [_matrix(p) for p in pointer["projectors"]]
            da = projectors[0].shape[0]
            ds = u.shape[0] // da
        else:
            raise ValueError(f"oracle does not model kind {model['kind']!r}")
        if "coherent" in app:
            rho_a = _coherent(app["coherent"]["polar"], app["coherent"].get("phase", 0.0))
        else:
            rho_a = _matrix(app["matrix"])
        if doc["conserved"] != "number":
            raise ValueError("oracle pinches by the number operator only")
        obs = doc["observable"]
        self.observable = NAMED[obs] if isinstance(obs, str) else _matrix(obs["matrix"])
        state = doc["system_state"]
        self.polar = state["coherent"]["polar"] if "coherent" in state else None
        self.state = (
            _coherent(self.polar, state["coherent"].get("phase", 0.0))
            if self.polar is not None else _matrix(state["matrix"])
        )
        self.n = ds * da
        self.outcomes = sorted(pointer["outcomes"])
        self.m = {}
        self.k = {}
        udag = u.conj().T
        eye_s = np.eye(ds)
        for label, p in zip(pointer["outcomes"], projectors):
            for target, sys_op in ((self.m, eye_s), (self.k, self.observable)):
                x = (udag @ np.kron(sys_op, p) @ u).reshape(ds, da, ds, da)
                target[label] = np.einsum("iajb,ba->ij", x, rho_a)

    def values(self, rho: np.ndarray, outcome: str) -> tuple[float, float, float, float]:
        """(p, before, after, Im weak value) of one outcome."""
        m = self.m[outcome]
        p = float(np.trace(m @ rho).real)
        wv = complex(np.trace(m @ self.observable @ rho)) / p
        after = float(np.trace(self.k[outcome] @ rho).real) / p
        return p, wv.real, after, wv.imag


def _close(name: str, got, want: float) -> None:
    got = float(got)
    if not abs(got - want) <= TOL:
        raise OracleMismatch(f"{name}: emitted {got!r}, oracle {want!r}")


def _flag(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_sweep(case: Case, argv: list[str], stdout: str) -> tuple[int, int]:
    """Check every CSV row; return (rows, grid points)."""
    if case.polar is None:
        raise OracleMismatch("sweep needs a coherent system state")
    grid = np.linspace(float(_flag(argv, "--from")), float(_flag(argv, "--to")), int(_flag(argv, "--steps")))
    lines = stdout.splitlines()
    errors = [line for line in lines if line.startswith("# error")]
    if errors:
        raise OracleMismatch(f"sweep reported {errors[0]!r}")
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    header = ["phi", "outcome", "probability", "delta_coherent", "delta_decohered", "difference"]
    if not rows or rows[0] != header:
        raise OracleMismatch(f"unexpected sweep header {rows[:1]!r}")
    expected = [(phi, x) for phi in grid for x in case.outcomes]
    if len(rows) - 1 != len(expected):
        raise OracleMismatch(f"{len(rows) - 1} sweep rows, expected {len(expected)}")
    for row, (phi, outcome) in zip(rows[1:], expected):
        if row[1] != outcome:
            raise OracleMismatch(f"row outcome {row[1]!r}, expected {outcome!r}")
        rho = _coherent(case.polar, float(phi))
        p, before, after, _ = case.values(rho, outcome)
        # Pinching by the nondegenerate number operator keeps the diagonal.
        _, before_d, after_d, _ = case.values(np.diag(np.diag(rho)), outcome)
        tag = f"phi={row[0]} outcome={outcome}"
        _close(f"{tag} phi", row[0], float(phi))
        _close(f"{tag} probability", row[2], p)
        _close(f"{tag} delta_coherent", row[3], after - before)
        _close(f"{tag} delta_decohered", row[4], after_d - before_d)
        _close(f"{tag} difference", row[5], (after - before) - (after_d - before_d))
    return len(expected), len(grid)


def _check_verdict(name: str, verdict: dict) -> None:
    """The generated models satisfy these hypotheses by construction, and
    every equality the program claims must hold."""
    for hyp in ("conservation", "yanase", "observable_commutes"):
        if not verdict["hypotheses"][hyp]["held"]:
            raise OracleMismatch(f"{name} hypothesis {hyp} reported broken")
    for eq, entry in verdict["equalities"].items():
        if entry["claimed"] and not entry["held"]:
            raise OracleMismatch(f"{name} claimed equality {eq} reported broken")


def check_run(case: Case, stdout: str) -> int:
    """Check every outcome row and both averages of a JSON run report."""
    report = json.loads(stdout)
    entries = report["outcomes"]
    if [e["outcome"] for e in entries] != case.outcomes:
        raise OracleMismatch(f"run outcomes {[e['outcome'] for e in entries]}, expected {case.outcomes}")
    avg_before = avg_after = 0.0
    for entry in entries:
        if "error" in entry:
            raise OracleMismatch(f"outcome {entry['outcome']}: {entry['error']}")
        p, before, after, wv_imag = case.values(case.state, entry["outcome"])
        avg_before += p * before
        avg_after += p * after
        tag = f"outcome={entry['outcome']}"
        _close(f"{tag} probability", entry["probability"], p)
        _close(f"{tag} before", entry["before"], before)
        _close(f"{tag} after", entry["after"], after)
        _close(f"{tag} delta", entry["delta"], after - before)
        _close(f"{tag} weak_value_imag", entry["weak_value_imag"], wv_imag)
    _close("averages.before", report["averages"]["before"], avg_before)
    _close("averages.after", report["averages"]["after"], avg_after)
    if not report["checks"]["conservation"]["held"]:
        raise OracleMismatch("conservation check reported broken")
    for name, verdict in report["theorems"].items():
        _check_verdict(name, verdict)
    return len(entries)


def check_theorems(stdout: str) -> None:
    payload = json.loads(stdout)
    if sorted(payload) != ["theorem1", "theorem2"]:
        raise OracleMismatch(f"theorem report keys {sorted(payload)}")
    for name, verdict in payload.items():
        _check_verdict(name, verdict)


def check_selftest(stdout: str) -> None:
    if "all checks passed" not in stdout:
        raise OracleMismatch(f"selftest output: {stdout.strip().splitlines()[-1:]!r}")
