"""The public surface of the package, pinned, and the production modules
kept apart from the oracles that check them."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import symcond

PACKAGE = Path(symcond.__file__).parent

# The production route. The independent routes that check it (oracles)
# and the random instances they run on (sampling) sit beside it, and
# nothing here may reach them: a broken oracle must never be able to
# change what the route computes.
PRODUCTION = ("linalg", "objects", "engine", "symmetry", "jaynes_cummings", "scenario", "report", "__init__")
CHECKS = {"oracles", "sampling"}


# Adding or removing an export is a reviewed change: it edits this list,
# and the count the roadmap tracks follows it.
EXPORTS = [
    "DEFAULT_TOL",
    "P_FLOOR",
    "CompiledModel",
    "ConservedQuantity",
    "DensityState",
    "EffectSet",
    "InvariantViolation",
    "JCModelSpec",
    "MeasurementModel",
    "ObservableOp",
    "PointerObservable",
    "QubitCoherentState",
    "Scenario",
    "ScenarioError",
    "SpectralDecomposition",
    "SweepSpec",
    "TheoremVerdict",
    "Violation",
    "ZeroProbabilityOutcome",
    "born_probability",
    "build_jc_model",
    "check_conservation",
    "check_cross_elements_imaginary",
    "check_symmetric_product_state",
    "check_yanase",
    "decohere",
    "fig1_scenario_path",
    "hermitian_eig",
    "induced_povm",
    "jc_hamiltonian",
    "jc_unitary_closed_form",
    "kron",
    "ladder_lower",
    "ladder_raise",
    "load_scenario",
    "number_operator",
    "number_pointer",
    "parse_scenario",
    "partial_trace",
    "qubit_coherent_state",
    "unitary_from_generator",
    "validate",
    "verify_theorems",
    "weak_value",
    "__version__",
]


def test_exports_are_pinned():
    assert symcond.__all__ == EXPORTS
    assert len(EXPORTS) == 45
    assert all(hasattr(symcond, name) for name in EXPORTS)


def imported_modules(tree: ast.Module) -> set[str]:
    """Every package module a parsed module imports, by its last name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (node.module or "").split(".")[-1]
            found.add(base)
            if node.level and not node.module:  # from . import name
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def test_production_modules_import_no_oracle():
    for name in PRODUCTION:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        assert not imported_modules(tree) & CHECKS, name


def test_importing_the_package_leaves_the_oracles_unloaded():
    # A fresh interpreter, started beside the package so that it imports this copy.
    code = "import sys, symcond, symcond.scenario; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "symcond.scenario" in loaded
    assert not loaded & {f"symcond.{name}" for name in CHECKS}


def test_importing_the_report_leaves_the_oracles_unloaded():
    # Tests, demos and the CLI's run/sweep/theorems reach reports through
    # this module; it must not pull in the selftest's oracles.
    code = "import sys, symcond.report; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=PACKAGE.parent)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "symcond.report" in loaded
    assert not loaded & {f"symcond.{name}" for name in CHECKS}
