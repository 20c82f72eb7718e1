#!/usr/bin/env python3
"""Mutation check: does tier-1 notice a small fault in the production route?

    python3 tools/mutants.py

Copies this checkout to a temporary directory and runs tier-1 there once
unmutated (the control, which must pass). Then, for each mutant in
``MUTANTS``, it edits one production module of a fresh copy, runs tier-1
again and prints a table: a mutant is *killed* when tier-1 fails under
it. Each mutant replaces a target text that must occur exactly once in
its module, so a mutant whose code has moved is reported as an error and
never silently skipped. Only production modules are mutated, never the
oracles (``symcond.oracles``, ``symcond.sampling``) the tests compare
against. A mutant that survives calls for a new test, never for a change
to this list. Exit status: 0 when every mutant is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_run", ".benchmarks")
TIMEOUT_S = 900

# (name, module, target text, replacement)
MUTANTS = (
    (
        "branch_operators: drop the transpose of the operator stack",
        "engine",
        "np.stack(operators).transpose(0, 2, 1).reshape(k * ds, ds)",
        "np.stack(operators).reshape(k * ds, ds)",
    ),
    (
        "_band_levels: drop the conj in the band contraction",
        "engine",
        'np.einsum("qcs,kqcts->ckst", band.conj(), g)',
        'np.einsum("qcs,kqcts->ckst", band, g)',
    ),
    (
        "_unitarity_residual: drop the - 1 from the sector blocks",
        "objects",
        "return frob(gram - inside[:, None, :] * np.eye(ds))",
        "return frob(gram)",
    ),
    (
        "_check_level_family: report the last failing pair",
        "objects",
        "k = pairs[0]",
        "k = pairs[-1]",
    ),
    (
        "validate: density hermiticity test without its NaN guard",
        "objects",
        "m = obj.matrix\n        r = frob(m - dagger(m))\n        if not r <= tol:",
        "m = obj.matrix\n        r = frob(m - dagger(m))\n        if r > tol:",
    ),
    (
        "check_yanase: drop the NaN guard of non-finite weights",
        "symmetry",
        "    residuals[~np.isfinite(weights).all(axis=1)] = math.nan\n",
        "",
    ),
    (
        "number_pointer: the first two levels swap rows",
        "jaynes_cummings",
        "for _ in levels], used] = 1.0",
        "for _ in levels], [used[1], used[0], *used[2:]]] = 1.0",
    ),
    (
        "_TheoremInputs.spreads: skip a NaN p as a zero one",
        "symmetry",
        "~(grid[0] <= P_FLOOR).any(axis=0)",
        "(grid[0] > P_FLOOR).all(axis=0)",
    ),
    (
        "TheoremVerdict._held: < becomes <=",
        "symmetry",
        "{name: r < self.tolerance for",
        "{name: r <= self.tolerance for",
    ),
    (
        "check_cross_elements_imaginary: drop the conj",
        "symmetry",
        "rows.reshape(-1, n).conj().T",
        "rows.reshape(-1, n).T",
    ),
    (
        "_companion: skip the pinching of the apparatus state",
        "symmetry",
        "decohered = DensityState(decohere(model.apparatus_state.matrix, quantity.apparatus_spectrum))",
        "decohered = model.apparatus_state",
    ),
    (
        "_theorem1: ancilla branch on the original model",
        "symmetry",
        "shared.spreads((_DECOHERED, _RHO), (_DECOHERED, _PINCHED))",
        "shared.spreads((_ORIGINAL, _RHO), (_ORIGINAL, _PINCHED))",
    ),
    (
        "_clamped: return p unchanged",
        "engine",
        "    p = np.where(0.0 > p, 0.0, p)\n    return np.where(1.0 < p, 1.0, p)",
        "    return p",
    ),
    (
        "sweep_columns: flip the sign of the difference column",
        "report",
        "difference = coherent - decohered",
        "difference = decohered - coherent",
    ),
    (
        "sweep_chunks: drop the separator between JSON chunks",
        "report",
        'yield (joiner if a else "") + joiner.join(',
        "yield joiner.join(",
    ),
    (
        "run_report: rows in model order, not sorted by label",
        "report",
        "for i in sorted(range(len(labels)), key=labels.__getitem__):",
        "for i in range(len(labels)):",
    ),
    (
        "run_report_csv: drop the comment of a zero-probability outcome",
        "report",
        "            buf.write(f\"# outcome {entry['outcome']}: {entry['error']} (p={fmt(entry['probability'])})\\n\")\n",
        "",
    ),
)


def copy_checkout(into: Path) -> Path:
    tree = into / "checkout"
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return tree


def tier1(tree: Path) -> tuple[bool, str]:
    """Run tier-1 in ``tree``; (passed, the first failing test or a short reason)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p))
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    summary = proc.stdout.strip().splitlines()[-1:] or ["no output"]
    return proc.returncode == 0, failed.group(1) if failed else summary[0]


def mutate(tree: Path, module: str, target: str, replacement: str) -> None:
    path = tree / "src" / "symcond" / f"{module}.py"
    text = path.read_text(encoding="utf-8")
    count = text.count(target)
    if count != 1:
        raise SystemExit(f"mutant target occurs {count} times in {module}.py, not once: {target!r}")
    path.write_text(text.replace(target, replacement), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="symcond-mutants-") as tmp:
        passed, detail = tier1(copy_checkout(Path(tmp) / "control"))
        print(f"control (unmutated): {'passed' if passed else 'FAILED'} ({detail})")
        if not passed:
            return 1
        rows = []
        for i, (name, module, target, replacement) in enumerate(MUTANTS, 1):
            tree = copy_checkout(Path(tmp) / f"mutant{i}")
            mutate(tree, module, target, replacement)
            passed, detail = tier1(tree)
            rows.append((i, module, name, "survived" if passed else "killed", "" if passed else detail))
            shutil.rmtree(tree)
    width = max(len(name) for _, _, name, _, _ in rows)
    mwidth = max(len(module) for _, module, _, _, _ in rows)
    print(f"{'#':>2}  {'module':<{mwidth}} {'mutant':<{width}}  {'result':<8}  first failing test")
    for i, module, name, result, detail in rows:
        print(f"{i:>2}  {module:<{mwidth}} {name:<{width}}  {result:<8}  {detail}")
    survivors = sum(result == "survived" for *_, result, _ in rows)
    print(f"{len(rows) - survivors} of {len(rows)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
