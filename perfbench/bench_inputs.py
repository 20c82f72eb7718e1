"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports symcond, so a change to the program cannot change
what it is fed. Every op is a pure function of (seed, stream, index):
the same seed gives byte-identical scenario documents and argument
lists, and the sha256 of each document is recorded with the results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import pi
from pathlib import Path

import numpy as np

WORKLOADS = ("fig1_sweep", "jc_wide_sweep", "scenario_batch")

# Streams keep warm-up inputs, measured inputs and the shared jc_wide_sweep
# scenario apart.
MEASURED, WARMUP, SHARED = 0, 1, 2

# scenario_batch cycles through these shapes; the schedule is fixed so the
# mix of sizes (and so the cost distribution) is the same for every seed.
# (kind, dim_s, dim_a, outcomes); n = dim_s * dim_a runs from 4 to 64.
BATCH_SHAPES = (
    ("explicit", 2, 2, 2),
    ("jaynes-cummings", 3, 2, 2),
    ("explicit", 2, 8, 4),
    ("jaynes-cummings", 4, 4, 2),
    ("explicit", 4, 8, 4),
    ("jaynes-cummings", 3, 8, 4),
    ("explicit", 2, 32, 4),
    ("jaynes-cummings", 4, 16, 4),
)

JC_WIDE_DIM_A = 64
JC_WIDE_OUTCOMES = 4


@dataclass
class Op:
    """One CLI invocation. ``argv`` holds ``SCENARIO`` where the file path goes."""

    index: int
    command: str
    argv: list[str]
    document: bytes | None = None  # generated scenario; None for a bundled file
    env: dict[str, str] = field(default_factory=dict)


SCENARIO = "{scenario}"


def _rng(seed: int, workload: str, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream, index])


def _pairs(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _encode(doc: dict) -> bytes:
    # json writes floats with repr, which round-trips exactly.
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank density matrix GG†/tr, made exactly Hermitian."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def contiguous_blocks(dim: int, parts: int) -> list[list[int]]:
    return [chunk.tolist() for chunk in np.array_split(np.arange(dim), parts)]


def number_conserving_unitary(dim_s: int, dim_a: int, rng: np.random.Generator) -> np.ndarray:
    """exp(-iH) for a random Hermitian H that is block-diagonal in the total
    excitation number s + a, built sector by sector so U commutes with
    N_S⊗1 + 1⊗N_A exactly."""
    total = np.add.outer(np.arange(dim_s), np.arange(dim_a)).ravel()
    u = np.zeros((total.size, total.size), dtype=complex)
    for t in np.unique(total):
        idx = np.flatnonzero(total == t)
        b = len(idx)
        g = rng.standard_normal((b, b)) + 1j * rng.standard_normal((b, b))
        w, v = np.linalg.eigh((g + g.conj().T) / 2)
        u[np.ix_(idx, idx)] = (v * np.exp(-1j * w)) @ v.conj().T
    return u


def _pointer_projectors(dim_a: int, blocks: list[list[int]]) -> list:
    out = []
    for levels in blocks:
        p = np.zeros((dim_a, dim_a))
        p[levels, levels] = 1.0
        out.append(_pairs(p))
    return out


def batch_document(kind: str, dim_s: int, dim_a: int, outcomes: int, rng: np.random.Generator) -> dict:
    """A number-conserving scenario with full-rank states, a number-diagonal
    pointer and a diagonal observable, so the conservation, pointer
    compatibility and observable-commutation hypotheses all hold."""
    blocks = contiguous_blocks(dim_a, outcomes)
    labels = [f"x{k}" for k in range(outcomes)]
    model: dict = {"kind": kind, "apparatus_state": {"matrix": _pairs(random_density(dim_a, rng))}}
    if kind == "explicit":
        model["unitary"] = _pairs(number_conserving_unitary(dim_s, dim_a, rng))
        model["pointer"] = {"outcomes": labels, "projectors": _pointer_projectors(dim_a, blocks)}
    else:
        model.update(dim_s=dim_s, dim_a=dim_a, theta=float(rng.uniform(0.3, 2.5)))
        model["pointer"] = {"outcomes": labels, "blocks": blocks}
    return {
        "model": model,
        "system_state": {"matrix": _pairs(random_density(dim_s, rng))},
        "observable": {"matrix": _pairs(np.diag(rng.standard_normal(dim_s)))},
        "conserved": "number",
        "tolerance": 1e-9,
    }


def jc_wide_document(seed: int) -> dict:
    """Qubit system on a 64-level apparatus (n = 128), coarse 4-outcome pointer."""
    rng = _rng(seed, "jc_wide_sweep", SHARED, 0)
    blocks = contiguous_blocks(JC_WIDE_DIM_A, JC_WIDE_OUTCOMES)
    return {
        "model": {
            "kind": "jaynes-cummings",
            "dim_s": 2,
            "dim_a": JC_WIDE_DIM_A,
            "theta": float(rng.uniform(0.3, 2.5)),
            "apparatus_state": {"matrix": _pairs(random_density(JC_WIDE_DIM_A, rng))},
            "pointer": {
                "outcomes": [f"n{b[0]}-{b[-1]}" for b in blocks],
                "blocks": blocks,
            },
        },
        "system_state": {"coherent": {"polar": float(rng.uniform(0.3, 2.8)), "phase": 0.0}},
        "observable": "sigma_z",
        "conserved": "number",
        "tolerance": 1e-9,
    }


class Workload:
    """Deterministic op stream of one workload under one seed."""

    def __init__(self, name: str, seed: int, root: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.bundled = root / "src" / "symcond" / "data" / "fig1.scenario"
        self._jc_wide = _encode(jc_wide_document(seed)) if name == "jc_wide_sweep" else None

    def op(self, index: int, stream: int = MEASURED) -> Op:
        rng = _rng(self.seed, self.name, stream, index)
        if self.name == "fig1_sweep":
            a = float(rng.uniform(0.0, 2 * pi))
            return Op(index, "sweep", ["sweep", SCENARIO, "--from", repr(a), "--to", repr(a + 1.0), "--steps", "21"])
        if self.name == "jc_wide_sweep":
            a = float(rng.uniform(0.0, 2 * pi))
            b = a + float(rng.uniform(0.1, pi))
            return Op(
                index, "sweep", ["sweep", SCENARIO, "--from", repr(a), "--to", repr(b), "--steps", "2"],
                document=self._jc_wide,
            )
        if index % 10 == 9:
            return Op(index, "selftest", ["selftest"], env={"SYMCOND_SEED": str(int(rng.integers(0, 2**31)))})
        kind, dim_s, dim_a, outcomes = BATCH_SHAPES[(index - index // 10) % len(BATCH_SHAPES)]
        document = _encode(batch_document(kind, dim_s, dim_a, outcomes, rng))
        if index % 2 == 0:
            return Op(index, "run", ["run", SCENARIO], document=document)
        return Op(index, "theorems", ["theorems", SCENARIO, "--format", "json"], document=document)

    def first_document(self) -> bytes:
        """The first measured input, whose load ``setup_s`` times."""
        op = self.op(0)
        return op.document if op.document is not None else self.bundled.read_bytes()
