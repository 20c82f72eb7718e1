"""Validated domain objects: states, observables, pointers, effects, models.

Constructors only enforce structural consistency (shapes, matching label
counts); a pointer diagonal in the apparatus basis is held as its level
table, with no d_a×d_a matrix per outcome. The physics invariants of
states, observables, pointers and models are checked separately by
:func:`validate`, which reports the first violation instead of raising
(an effect set, derived from a model by ``induced_povm``, has none
registered). That split lets the command-line layer construct objects
from untrusted input and turn reports into clean exit codes, and lets
tests build deliberately broken objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PSD_TOL,
    as_matrix,
    dagger,
    frob,
)


@dataclass
class DensityState:
    """A density operator: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = as_matrix(self.matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"density matrix must be square, got {self.matrix.shape}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class ObservableOp:
    """A self-adjoint operator (observable or conserved-quantity part)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = as_matrix(self.matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"observable must be square, got {self.matrix.shape}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _labels(outcomes, count: int, what: str) -> tuple[str, ...]:
    """Outcome labels as strings, one per ``what`` and all distinct."""
    labels = tuple(str(x) for x in outcomes)
    if len(labels) != count:
        raise ValueError(f"{len(labels)} outcome labels for {count} {what}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate outcome labels in {labels}")
    return labels


class PointerObservable:
    """Projective pointer readout: outcome labels with orthogonal projectors.

    Outcome labels are opaque strings. Every route reads the pointer as its
    :attr:`levels` table, summing over each outcome's levels instead of
    multiplying d_a×d_a projectors. A pointer is *diagonal* when every
    P^x = Σ_c w_xc |c⟩⟨c| in the apparatus basis, as any pointer compatible
    with a non-degenerate L_A = N_A is. A diagonal pointer is stored as its
    (|X|, d_a) table w alone, :attr:`diagonals` (None for any other
    pointer): :meth:`from_table` takes it directly, and an all-diagonal
    family given to the constructor keeps only its diagonals. Only a
    non-diagonal family keeps its matrices. The weights are taken as they
    are: they need not be real or 0/1, so an invalid diagonal pointer
    still gets a table, and :func:`validate` reads its defects from it.
    """

    def __init__(self, outcomes, projectors) -> None:
        matrices = tuple(as_matrix(p) for p in projectors)
        self.outcomes = _labels(outcomes, len(matrices), "projectors")
        dims = {p.shape for p in matrices}
        if len(dims) != 1 or any(s[0] != s[1] for s in dims):
            raise ValueError(f"projectors must share one square shape, got {dims}")
        table = np.array([p.diagonal() for p in matrices])
        # Diagonal when no off-diagonal entry is nonzero (NaN counts), tested once.
        diagonal = sum(map(np.count_nonzero, matrices)) == np.count_nonzero(table)
        self.diagonals, self._matrices = (table, None) if diagonal else (None, matrices)

    @classmethod
    def from_table(cls, outcomes, weights) -> PointerObservable:
        """The diagonal pointer P^x = diag(w_x) of the (|X|, d_a) table w, with no d_a×d_a matrix."""
        pointer = cls.__new__(cls)
        pointer.diagonals, pointer._matrices = np.array(weights, dtype=complex), None
        if pointer.diagonals.ndim != 2 or not pointer.diagonals.size:
            raise ValueError(f"expected a non-empty (outcomes, levels) table, got shape {pointer.diagonals.shape}")
        pointer.outcomes = _labels(outcomes, len(pointer.diagonals), "table rows")
        return pointer

    @property
    def dim(self) -> int:
        return self.diagonals.shape[1] if self._matrices is None else self._matrices[0].shape[0]

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Every P^x as a d_a×d_a matrix, built on request for a diagonal pointer."""
        return tuple(map(np.diag, self.diagonals)) if self._matrices is None else self._matrices

    @cached_property
    def levels(self) -> tuple[np.ndarray | None, np.ndarray]:
        """(B, w): a unitary B and the (|X|, d_a) table w with B†P^xB = diag(w_x).

        A diagonal pointer gives (None, :attr:`diagonals`). Otherwise B holds
        the eigenvectors of Σ_x c_x P^x for distinct c_x. Projectors that
        share no eigenbasis leave B†P^xB an off-diagonal residual above
        DEFAULT_TOL, and ValueError is raised rather than a wrong table."""
        if self.diagonals is not None:
            return None, self.diagonals
        basis, table, residual = self._rotation
        if not residual <= DEFAULT_TOL:
            raise ValueError(f"pointer projectors share no eigenbasis (residual {residual:.3e})")
        return basis, table

    @cached_property
    def _rotation(self) -> tuple[np.ndarray, np.ndarray, float]:
        # B, w and ‖off-diagonal part of B†P^xB‖, for levels and validate.
        stack, d = np.array(self._matrices), self.dim
        _, basis = np.linalg.eigh(np.arange(1.0, len(stack) + 1) @ stack.transpose(1, 0, 2))
        rotated = (dagger(basis) @ stack @ basis).reshape(len(stack), d * d)
        table = rotated[:, :: d + 1].copy()  # each row's diagonal, flattened
        rotated[:, :: d + 1] = 0
        return basis, table, frob(rotated)

    def projector(self, outcome: str) -> np.ndarray:
        try:
            x = self.outcomes.index(outcome)
        except ValueError:
            raise KeyError(f"unknown outcome label {outcome!r}; have {self.outcomes}") from None
        return np.diag(self.diagonals[x]) if self._matrices is None else self._matrices[x]


@dataclass
class EffectSet:
    """A discrete POVM: PSD effects summing to the identity."""

    outcomes: tuple[str, ...]
    effects: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        self.effects = tuple(as_matrix(m) for m in self.effects)
        self.outcomes = _labels(self.outcomes, len(self.effects), "effects")

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def effect(self, outcome: str) -> np.ndarray:
        try:
            return self.effects[self.outcomes.index(outcome)]
        except ValueError:
            raise KeyError(f"unknown outcome label {outcome!r}; have {self.outcomes}") from None


# Smallest n = d_s·d_a served by MeasurementModel.band. Below it the band
# routes' fixed cost (~65 µs of extra numpy calls per model) is not repaid
# on every shape: near-square models up to n = 121 run slower on the band
# (see the engine module docstring for the measurement).
BAND_MIN_DIM = 128


@dataclass
class MeasurementModel:
    """Apparatus state + premeasurement unitary + pointer readout.

    The apparatus dimension comes from the apparatus state; the system
    dimension is what remains of the unitary's size after dividing it out.
    """

    apparatus_state: DensityState
    unitary: np.ndarray
    pointer: PointerObservable
    dim_s: int = field(init=False)
    dim_a: int = field(init=False)

    def __post_init__(self) -> None:
        self.unitary = as_matrix(self.unitary)
        n = self.unitary.shape[0]
        if self.unitary.shape[0] != self.unitary.shape[1]:
            raise ValueError(f"unitary must be square, got {self.unitary.shape}")
        self.dim_a = self.apparatus_state.dim
        if n % self.dim_a != 0:
            raise ValueError(
                f"unitary size {n} is not a multiple of apparatus dimension {self.dim_a}"
            )
        self.dim_s = n // self.dim_a
        if self.pointer.dim != self.dim_a:
            raise ValueError(
                f"pointer dimension {self.pointer.dim} does not match apparatus "
                f"dimension {self.dim_a}"
            )

    @property
    def outcomes(self) -> tuple[str, ...]:
        return self.pointer.outcomes

    @cached_property
    def band(self) -> np.ndarray | None:
        """U's excitation band, the (d_s, d_a, d_s) array
        Ub[r, c, s] = U[(r, c), (s, r + c − s)] (0 where r + c − s is not
        an apparatus level), or None.

        It exists when every nonzero entry of U lies on r + c = s + α, as
        for a unitary conserving N_S ⊗ 1 + 1 ⊗ N_A exactly: the JC closed
        form and any explicit unitary built sector by sector. A NaN off
        the band is a nonzero off the band. It is also None for d_s > d_a
        and below n = ``BAND_MIN_DIM``, where the band routes do not pay.
        Computed once per model; the compile and :func:`validate` read it.
        """
        ds, da = self.dim_s, self.dim_a
        n = ds * da
        if n < BAND_MIN_DIM or ds > da:
            return None
        r, c, s = np.arange(ds)[:, None, None], np.arange(da)[:, None], np.arange(ds)
        alpha = r + c - s
        inside = (alpha >= 0) & (alpha < da)
        band = np.where(inside, self.unitary.ravel().take((r * da + c) * n + s * da + alpha.clip(0, da - 1)), 0)
        # Nonzero real and imaginary parts, counted apart (several times
        # faster than counting complex entries); NaN != 0 counts.
        on_band = np.count_nonzero(band.view(float) != 0)
        return band if on_band == np.count_nonzero(self.unitary.view(float) != 0) else None


@dataclass(frozen=True)
class Violation:
    """First failed invariant of an object, with the measured residual."""

    invariant: str
    residual: float

    def __str__(self) -> str:
        return f"invariant {self.invariant!r} violated (residual {self.residual:.3e})"


def _check_projector_family(
    pointer: PointerObservable, tol: float
) -> Violation | None:
    table = pointer.diagonals
    if table is not None:
        return _check_level_family(table, tol)
    eye = np.eye(pointer.dim)
    for p in pointer.projectors:
        r = frob(p - dagger(p))
        if not r <= tol:
            return Violation("hermiticity", r)
    for p in pointer.projectors:
        r = frob(p @ p - p)
        if not r <= tol:
            return Violation("idempotence", r)
    for i, p in enumerate(pointer.projectors):
        for q in pointer.projectors[i + 1 :]:
            r = frob(p @ q)
            if not r <= tol:
                return Violation("orthogonality", r)
    r = frob(sum(pointer.projectors) - eye)
    if not r <= tol:
        return Violation("completeness", r)
    r = pointer._rotation[2]  # above DEFAULT_TOL, PointerObservable.levels raises
    if not r <= min(tol, DEFAULT_TOL):
        return Violation("commutation", r)
    return None


def _check_level_family(table: np.ndarray, tol: float) -> Violation | None:
    """The checks of :func:`_check_projector_family` for diagonal projectors,
    read from their (|X|, d) diagonal table.

    For diagonal P and Q, ‖P − P†‖, ‖P² − P‖ and ‖Σ_x P^x − 1‖ are norms of
    the diagonals, and ‖PQ‖² = Σ_k |p_k|²|q_k|², so one Gram product of
    squared magnitudes gives every pair; none of these sums cancels. The
    first violation is the one the pairwise loop would report: invariants
    in the same order, outcomes in index order, pairs (i, j > i) row-major.
    """
    diffs = np.concatenate((table - table.conj(), table * table - table))
    residuals = np.sqrt((diffs.real * diffs.real + diffs.imag * diffs.imag).sum(axis=1))
    failed = (~(residuals <= tol)).nonzero()[0]
    if failed.size:
        k = failed[0]
        return Violation(("hermiticity", "idempotence")[k // len(table)], float(residuals[k]))
    squares = table.real * table.real + table.imag * table.imag
    overlaps = np.sqrt(squares @ squares.T)
    rows, cols = (~(overlaps <= tol)).nonzero()
    pairs = (rows < cols).nonzero()[0]
    if pairs.size:
        k = pairs[0]
        return Violation("orthogonality", float(overlaps[rows[k], cols[k]]))
    r = frob(table.sum(axis=0) - 1.0)
    if not r <= tol:
        return Violation("completeness", r)
    return None


def _unitarity_residual(model: MeasurementModel) -> float:
    """‖U†U − 1‖_F, from the sector blocks when U has a band view.

    U†U is then block-diagonal over the sectors l = r + c, and the block
    of sector l is U_l†U_l with U_l[r, s] = Ub[r, l − r, s]: the residual
    is the root-sum-square of U_l†U_l − 1 over the d_s×d_s blocks (zero
    rows and columns pad the levels a sector lacks), about d_a·d_s³ work
    instead of n³. Overflow becomes a non-finite residual, not a warning.
    """
    band = model.band
    with np.errstate(over="ignore", invalid="ignore"):
        if band is None:
            u = model.unitary
            return frob(dagger(u) @ u - np.eye(len(u)))
        ds, da, _ = band.shape
        c = np.arange(ds + da - 1)[:, None] - np.arange(ds)  # [l, r] = l − r
        inside = (c >= 0) & (c < da)
        blocks = np.where(inside[:, :, None], band[np.arange(ds), c.clip(0, da - 1)], 0)
        gram = blocks.conj().transpose(0, 2, 1) @ blocks  # U_l†U_l, sector by sector
        return frob(gram - inside[:, None, :] * np.eye(ds))


def validate(obj, tol: float = DEFAULT_TOL) -> Violation | None:
    """Report the first violated invariant of a state, observable, pointer
    or model, or None; any other object, an ``EffectSet`` among them,
    raises ``TypeError``.

    PSD checks use the dedicated ``PSD_TOL`` clamp threshold rather than
    ``tol``, matching how negative round-off eigenvalues are treated
    everywhere else in the package. A model's unitarity residual
    ‖U†U − 1‖_F comes from the d_s×d_s sector blocks of
    ``MeasurementModel.band`` when U has one, else from the dense n³
    product. Every test is written so that a NaN residual fails it: an
    overflowed or NaN entry is a violation, never a pass, and its
    overflow raises no floating-point warning.
    """
    if isinstance(obj, DensityState):
        m = obj.matrix
        r = frob(m - dagger(m))
        if not r <= tol:
            return Violation("hermiticity", r)
        wmin = float(np.linalg.eigvalsh((m + dagger(m)) / 2).min())
        if not wmin >= -PSD_TOL:
            return Violation("psd", -wmin)
        r = abs(float(np.trace(m).real) - 1.0)
        if not r <= tol:
            return Violation("trace", r)
        return None
    if isinstance(obj, ObservableOp):
        r = frob(obj.matrix - dagger(obj.matrix))
        if not r <= tol:
            return Violation("hermiticity", r)
        return None
    if isinstance(obj, PointerObservable):
        return _check_projector_family(obj, tol)
    if isinstance(obj, MeasurementModel):
        inner = validate(obj.apparatus_state, tol)
        if inner is not None:
            return Violation(f"apparatus_state.{inner.invariant}", inner.residual)
        r = _unitarity_residual(obj)
        if not r <= tol:
            return Violation("unitarity", r)
        inner = validate(obj.pointer, tol)
        if inner is not None:
            return Violation(f"pointer.{inner.invariant}", inner.residual)
        return None
    raise TypeError(f"no invariants registered for {type(obj).__name__}")


def born_probability(state: DensityState, effect: np.ndarray) -> float:
    """Outcome probability tr[M(x)ρ], clamped to [0, 1]."""
    p = float(np.trace(as_matrix(effect) @ state.matrix).real)
    return min(max(p, 0.0), 1.0)

