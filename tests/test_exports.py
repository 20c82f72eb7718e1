"""The public surface of the package, pinned."""

from __future__ import annotations

import symcond


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
    "apply_instrument",
    "blockwise_conditional_values",
    "born_probability",
    "build_jc_model",
    "check_conservation",
    "check_cross_elements_imaginary",
    "check_symmetric_product_state",
    "check_yanase",
    "decohere",
    "dual_instrument",
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
    "random_conserving_unitary",
    "unitary_from_generator",
    "validate",
    "verify_theorem1",
    "verify_theorem2",
    "verify_theorems",
    "weak_value",
    "__version__",
]


def test_exports_are_pinned():
    assert symcond.__all__ == EXPORTS
    assert len(EXPORTS) == 51
    assert all(hasattr(symcond, name) for name in EXPORTS)
