"""Outcome-conditioned expectation values under symmetry constraints.

A small numerical laboratory for finite-dimensional quantum measurement
models: outcome probabilities, conditional expectation values before and
after measurement, symmetry-induced decoherence maps, a verifier for the
coherence-irrelevance theorems, and an excitation-exchange
(Jaynes-Cummings) model family to exercise them on.
"""

from .engine import (
    P_FLOOR,
    CompiledModel,
    ZeroProbabilityOutcome,
    induced_povm,
    weak_value,
)
from .jaynes_cummings import (
    JCModelSpec,
    QubitCoherentState,
    build_jc_model,
    jc_hamiltonian,
    jc_unitary_closed_form,
    ladder_lower,
    ladder_raise,
    number_operator,
    number_pointer,
    qubit_coherent_state,
)
from .linalg import (
    DEFAULT_TOL,
    SpectralDecomposition,
    hermitian_eig,
    kron,
    partial_trace,
    unitary_from_generator,
)
from .scenario import (
    InvariantViolation,
    Scenario,
    ScenarioError,
    SweepSpec,
    fig1_scenario_path,
    load_scenario,
    parse_scenario,
)
from .objects import (
    DensityState,
    EffectSet,
    MeasurementModel,
    ObservableOp,
    PointerObservable,
    Violation,
    born_probability,
    validate,
)
from .symmetry import (
    ConservedQuantity,
    TheoremVerdict,
    check_conservation,
    check_cross_elements_imaginary,
    check_symmetric_product_state,
    check_yanase,
    decohere,
    verify_theorems,
)

__version__ = "0.1.0"

__all__ = [
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
