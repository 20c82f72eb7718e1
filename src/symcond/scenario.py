"""Declarative scenario files: parsing, validation, and object building.

A scenario is a single JSON document (conventionally ``*.scenario``)
describing one experiment: the measurement model, the system state, the
observable, an optional conserved quantity, and an optional phase sweep.
Complex matrices are serialized as nested arrays of two-element
``[re, im]`` pairs so files stay language-neutral and diff-friendly.

Parsing failures raise :class:`ScenarioError` carrying the offending
field path; physics-invariant failures raise :class:`InvariantViolation`
naming the object and the first broken invariant. The command-line layer
maps these to distinct exit codes.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .jaynes_cummings import (
    JCModelSpec,
    QubitCoherentState,
    build_jc_model,
    number_operator,
    number_pointer,
    qubit_coherent_state,
)
from .objects import (
    DensityState,
    MeasurementModel,
    ObservableOp,
    PointerObservable,
    Violation,
    validate,
)
from .symmetry import ConservedQuantity

DEFAULT_TOLERANCE = 1e-9
# Largest Jaynes-Cummings product dimension dim_s·dim_a a scenario may ask
# for; checked before any array is built, since a tiny file could
# otherwise request a matrix of many gigabytes.
MAX_JC_DIMENSION = 2048
# Largest sweep, in rows (grid points × outcomes), checked before the grid
# is built. A sweep holds its rows as numeric columns (48 B per row) and
# writes them in chunks: at this cap a fig1 sweep peaked at 52-55 MB RSS
# in CSV or JSON against 32 MB at 4 rows, ~0.1 kB per row.
MAX_SWEEP_ROWS = 200_000

NAMED_OBSERVABLES = {
    # Number-basis convention: the excited state |1⟩ carries eigenvalue +1.
    "sigma_z": np.diag([-1.0, 1.0]).astype(complex),
    "sigma_x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "sigma_y": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    "identity": np.eye(2, dtype=complex),
}


class ScenarioError(ValueError):
    """Schema or parse error, addressed by field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class InvariantViolation(Exception):
    """A parsed object failed a physics invariant."""

    def __init__(self, object_name: str, violation: Violation):
        self.object_name = object_name
        self.violation = violation
        super().__init__(f"{object_name}: {violation}")


@dataclass(frozen=True)
class SweepSpec:
    """Phase-sweep grid: ``steps`` evenly spaced points over [start, stop].

    Construction rejects non-finite ends and fewer than two points with a
    :class:`ScenarioError` naming the ``sweep`` field.
    """

    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        for key, value in (("from", self.start), ("to", self.stop)):
            if not math.isfinite(value):
                raise ScenarioError(f"sweep.{key}", f"expected a finite number, got {value}")
        if self.steps < 2:
            raise ScenarioError("sweep.steps", f"need at least 2 grid points, got {self.steps}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass
class Scenario:
    """A fully built experiment: validated objects plus sweep metadata."""

    model: MeasurementModel
    observable: ObservableOp
    conserved: ConservedQuantity | None
    tolerance: float
    sweep: SweepSpec | None
    source: str
    _coherent_family: QubitCoherentState | None = None
    _fixed_state: DensityState | None = None

    def system_state(self, phase: float | None = None) -> DensityState:
        """The system state, at an overridden sweep phase if given."""
        if phase is None:
            if self._fixed_state is not None:
                return self._fixed_state
            return qubit_coherent_state(self._coherent_family)
        return DensityState(self.system_states(phase))

    def system_states(self, phases) -> np.ndarray:
        """The coherent system state at each of ``phases``, stacked: shape
        (G, 2, 2) for G phases, entry g equal to ``system_state(phases[g])``;
        a single phase gives one 2×2 matrix."""
        if self._coherent_family is None:
            raise ScenarioError(
                "system_state", "phase sweeps need a coherent (parametric) system state"
            )
        v = self._coherent_family.vectors(phases)
        return v[..., :, None] * v.conj()[..., None, :]


def _require(node: dict, key: str, path: str):
    if not isinstance(node, dict):
        raise ScenarioError(path, f"expected an object, got {type(node).__name__}")
    if key not in node:
        raise ScenarioError(f"{path}.{key}", "missing required field")
    return node[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(path, f"expected a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(path, f"expected a finite number, got {value}")
    return number


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(path, f"expected an integer, got {type(value).__name__}")
    return value


def _pair_array(node) -> np.ndarray | None:
    """The (rows, cols, 2) float array of a well-formed, finite [re, im]
    matrix, or None if any check fails.

    Shapes are checked with ``len`` and types on one flat list of numbers,
    so numpy converts a flat list instead of walking the nesting; each
    value is the same ``float()`` conversion either way.
    """
    if type(node) is not list or not node or set(map(type, node)) != {list}:
        return None
    cols = len(node[0])
    if not cols or set(map(len, node)) != {cols}:
        return None
    cells = list(chain.from_iterable(node))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
        return None
    flat = list(chain.from_iterable(cells))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        pairs = np.array(flat, dtype=float).reshape(len(node), cols, 2)
    except OverflowError:
        return None
    if not np.isfinite(pairs).all():
        return None
    return pairs


def parse_complex_matrix(node, path: str) -> np.ndarray:
    """Nested [re, im]-pair arrays to a complex matrix, rectangularity checked.

    Entries must be finite. Well-formed input is converted in one step;
    anything else is walked cell by cell to name the first bad field.
    """
    pairs = _pair_array(node)
    if pairs is not None:
        return np.ascontiguousarray(pairs).view(complex)[..., 0]
    if not isinstance(node, list) or not node:
        raise ScenarioError(path, "expected a non-empty array of rows")
    width = None
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            raise ScenarioError(f"{path}[{i}]", "expected a non-empty array of [re, im] pairs")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ScenarioError(f"{path}[{i}]", f"row length {len(row)} != {width}")
        entries = []
        for j, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in cell)
            ):
                raise ScenarioError(f"{path}[{i}][{j}]", "expected an [re, im] pair of numbers")
            entries.append(complex(*(_number(c, f"{path}[{i}][{j}]") for c in cell)))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def _square_matrix(node, path: str) -> np.ndarray:
    """:func:`parse_complex_matrix`, rejecting a non-square matrix by field path."""
    m = parse_complex_matrix(node, path)
    if m.shape[0] != m.shape[1]:
        raise ScenarioError(path, f"expected a square matrix, got {m.shape[0]}×{m.shape[1]}")
    return m


def matrix_to_pairs(m: np.ndarray) -> list[list[list[float]]]:
    """Inverse of :func:`parse_complex_matrix`, for report writers."""
    return [[[float(c.real), float(c.imag)] for c in row] for row in np.asarray(m, dtype=complex)]


def _parse_state(node, path: str) -> tuple[DensityState | None, QubitCoherentState | None]:
    """A state node: {"coherent": {...}} or {"matrix": [...]}."""
    if not isinstance(node, dict):
        raise ScenarioError(path, "expected an object with 'coherent' or 'matrix'")
    if "coherent" in node:
        c = node["coherent"]
        polar = _number(_require(c, "polar", f"{path}.coherent"), f"{path}.coherent.polar")
        phase = _number(c.get("phase", 0.0), f"{path}.coherent.phase")
        return None, QubitCoherentState(polar=polar, phase=phase)
    if "matrix" in node:
        return DensityState(_square_matrix(node["matrix"], f"{path}.matrix")), None
    raise ScenarioError(path, "state needs either 'coherent' or 'matrix'")


def _pointer_fields(node, key: str, what: str, path: str) -> tuple[list, list]:
    """Outcome labels and the per-outcome ``key`` list of a pointer node; an
    optional ``values`` list (one finite number per outcome) is checked, then dropped."""
    outcomes = _require(node, "outcomes", path)
    parts = _require(node, key, path)
    if not isinstance(outcomes, list) or not all(isinstance(x, str) for x in outcomes):
        raise ScenarioError(f"{path}.outcomes", "expected an array of labels")
    if len(set(outcomes)) != len(outcomes):
        raise ScenarioError(f"{path}.outcomes", f"duplicate outcome labels in {tuple(outcomes)}")
    for label in outcomes:
        if not label.isprintable():
            raise ScenarioError(f"{path}.outcomes", f"outcome label {label!r} has a non-printable character")
    if not isinstance(parts, list) or len(parts) != len(outcomes):
        raise ScenarioError(f"{path}.{key}", f"expected one {what} per outcome")
    values = node.get("values")
    if values is not None:
        if not isinstance(values, list) or len(values) != len(outcomes):
            raise ScenarioError(f"{path}.values", "expected one value per outcome")
        for v in values:
            _number(v, f"{path}.values")
    return outcomes, parts


def _parse_pointer_partition(node, dim_a: int, path: str) -> PointerObservable:
    """Number-diagonal pointer node for the exchange-interaction model."""
    outcomes, blocks = _pointer_fields(node, "blocks", "level-list", path)
    partition = []
    for label, levels in zip(outcomes, blocks):
        if not isinstance(levels, list):
            raise ScenarioError(f"{path}.blocks", "each block must be an array of levels")
        partition.append((label, [_integer(k, f"{path}.blocks") for k in levels]))
    try:
        return number_pointer(dim_a, partition=partition)
    except ValueError as exc:
        raise ScenarioError(f"{path}.blocks", str(exc)) from None


def _parse_explicit_pointer(node, path: str) -> PointerObservable:
    outcomes, projectors = _pointer_fields(node, "projectors", "matrix", path)
    mats = [parse_complex_matrix(p, f"{path}.projectors[{i}]") for i, p in enumerate(projectors)]
    try:
        return PointerObservable(outcomes, mats)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _parse_model(node, path: str) -> tuple[MeasurementModel, ConservedQuantity | None]:
    kind = _require(node, "kind", path)
    app_state, app_coherent = _parse_state(
        _require(node, "apparatus_state", path), f"{path}.apparatus_state"
    )
    if kind == "jaynes-cummings":
        dim_s = _integer(_require(node, "dim_s", path), f"{path}.dim_s")
        dim_a = _integer(_require(node, "dim_a", path), f"{path}.dim_a")
        if dim_s * dim_a > MAX_JC_DIMENSION:
            raise ScenarioError(
                f"{path}.dim_a",
                f"dim_s·dim_a = {dim_s * dim_a} exceeds the limit of {MAX_JC_DIMENSION}",
            )
        theta = _number(_require(node, "theta", path), f"{path}.theta")
        if app_coherent is not None:
            if dim_a != 2:
                raise ScenarioError(
                    f"{path}.apparatus_state", "coherent apparatus states are qubit-only"
                )
            app_state = qubit_coherent_state(app_coherent)
        pointer = None
        if "pointer" in node:
            pointer = _parse_pointer_partition(node["pointer"], dim_a, f"{path}.pointer")
        try:
            spec = JCModelSpec(dim_s=dim_s, dim_a=dim_a, theta=theta, pointer=pointer)
            model, quantity = build_jc_model(spec, app_state)
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from None
        return model, quantity
    if kind == "explicit":
        unitary = parse_complex_matrix(_require(node, "unitary", path), f"{path}.unitary")
        if app_coherent is not None:
            app_state = qubit_coherent_state(app_coherent)
        pointer = _parse_explicit_pointer(_require(node, "pointer", path), f"{path}.pointer")
        try:
            return MeasurementModel(app_state, unitary, pointer), None
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from None
    raise ScenarioError(f"{path}.kind", f"unknown model kind {kind!r}")


def _parse_observable(node, dim_s: int, path: str) -> ObservableOp:
    if isinstance(node, str):
        if node not in NAMED_OBSERVABLES:
            raise ScenarioError(path, f"unknown named observable {node!r}")
        m = NAMED_OBSERVABLES[node]
        if m.shape[0] != dim_s:
            raise ScenarioError(
                path, f"named observable {node!r} is qubit-only, system dimension is {dim_s}"
            )
        return ObservableOp(m)
    if isinstance(node, dict) and "matrix" in node:
        m = _square_matrix(node["matrix"], f"{path}.matrix")
        if m.shape[0] != dim_s:
            raise ScenarioError(
                f"{path}.matrix", f"dimension {m.shape[0]} does not match system dimension {dim_s}"
            )
        return ObservableOp(m)
    raise ScenarioError(path, "expected a named observable or {'matrix': ...}")


def _parse_conserved(node, dim_s: int, dim_a: int, path: str) -> ConservedQuantity:
    if node == "number":
        return ConservedQuantity(number_operator(dim_s), number_operator(dim_a))
    if isinstance(node, dict) and "system" in node and "apparatus" in node:
        ls = _square_matrix(node["system"], f"{path}.system")
        la = _square_matrix(node["apparatus"], f"{path}.apparatus")
        if ls.shape[0] != dim_s:
            raise ScenarioError(f"{path}.system", f"dimension {ls.shape[0]} != system {dim_s}")
        if la.shape[0] != dim_a:
            raise ScenarioError(f"{path}.apparatus", f"dimension {la.shape[0]} != apparatus {dim_a}")
        return ConservedQuantity(ObservableOp(ls), ObservableOp(la))
    raise ScenarioError(path, "expected 'number' or {'system': ..., 'apparatus': ...}")


def _parse_sweep(node, path: str) -> SweepSpec:
    parameter = _require(node, "parameter", path)
    if parameter != "phase":
        raise ScenarioError(f"{path}.parameter", f"only 'phase' sweeps are supported, got {parameter!r}")
    start = _number(_require(node, "from", path), f"{path}.from")
    stop = _number(_require(node, "to", path), f"{path}.to")
    steps = _integer(_require(node, "steps", path), f"{path}.steps")
    return SweepSpec(start=start, stop=stop, steps=steps)


def _validate_or_raise(obj, name: str, tol: float) -> None:
    violation = validate(obj, tol)
    if violation is not None:
        raise InvariantViolation(name, violation)


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and validate a scenario document from a string.

    The cyclic garbage collector is paused while the decoded document is
    alive and then restored to the state it was found in (left off if it
    was off). A decoded document is a tree, so reference counting frees
    it; a collection started by its thousands of lists would only promote
    them and bring on a full collection of the caller's heap later.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_document(text, source)
    finally:
        if enabled:
            gc.enable()


def _parse_document(text: str, source: str) -> Scenario:
    """:func:`parse_scenario`'s body; the document dies when this returns."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer over int's digit limit
        raise ScenarioError("$", f"not valid JSON: {exc}") from None
    except RecursionError:
        raise ScenarioError("$", "not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ScenarioError("$", "top level must be an object")

    tolerance = _number(doc.get("tolerance", DEFAULT_TOLERANCE), "tolerance")
    if not tolerance > 0:
        raise ScenarioError("tolerance", f"must be positive, got {tolerance}")
    model, default_quantity = _parse_model(_require(doc, "model", "model"), "model")
    fixed_state, coherent = _parse_state(
        _require(doc, "system_state", "system_state"), "system_state"
    )
    if coherent is not None and model.dim_s != 2:
        raise ScenarioError("system_state", "coherent system states are qubit-only")
    observable = _parse_observable(_require(doc, "observable", "observable"), model.dim_s, "observable")
    if fixed_state is not None and fixed_state.dim != model.dim_s:
        raise ScenarioError(
            "system_state.matrix",
            f"dimension {fixed_state.dim} does not match system dimension {model.dim_s}",
        )

    conserved = default_quantity
    if "conserved" in doc:
        conserved = _parse_conserved(doc["conserved"], model.dim_s, model.dim_a, "conserved")

    sweep = _parse_sweep(doc["sweep"], "sweep") if "sweep" in doc else None

    scenario = Scenario(
        model=model,
        observable=observable,
        conserved=conserved,
        tolerance=tolerance,
        sweep=sweep,
        source=source,
        _coherent_family=coherent,
        _fixed_state=fixed_state,
    )

    # Physics invariants, checked object by object for exact error naming.
    _validate_or_raise(scenario.model, "model", tolerance)
    _validate_or_raise(scenario.system_state(), "system_state", tolerance)
    _validate_or_raise(scenario.observable, "observable", tolerance)
    if conserved is not None:
        _validate_or_raise(conserved.system_part, "conserved.system", tolerance)
        _validate_or_raise(conserved.apparatus_part, "conserved.apparatus", tolerance)
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(str(p), f"cannot read scenario file: {exc}") from None
    return parse_scenario(text, source=str(p))


def fig1_scenario_path() -> Path:
    """Path of the bundled canonical qubit-qubit sweep scenario."""
    return Path(__file__).parent / "data" / "fig1.scenario"
