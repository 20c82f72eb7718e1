"""Dense complex linear-algebra kernel.

Everything downstream works with plain ``numpy.complex128`` 2-D arrays
(row-major). This module collects the small set of primitives the rest of
the package is built on: tensor products, partial traces, clustered
Hermitian eigendecompositions, spectral matrix functions, and the
tolerance conventions shared by all modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Default Frobenius tolerance for "equal within tol" checks.
DEFAULT_TOL = 1e-10
# Inputs with Hermitian defect below this are silently symmetrized.
SYMMETRIZE_TOL = 1e-8
# Eigenvalues in [-PSD_TOL, 0) are treated as round-off and clamped to 0.
PSD_TOL = 1e-9


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex128 array (copying if needed)."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def frob(a: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(a))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def ensure_hermitian(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (a + a†)/2, rejecting large defects.

    Symmetrization is silent while ``‖a − a†‖_F < SYMMETRIZE_TOL``; a
    defect at or above it raises, since downstream spectral formulas
    assume exact self-adjointness. A NaN anywhere makes the defect NaN,
    which raises too.
    """
    defect = frob(a - dagger(a))
    if not defect < SYMMETRIZE_TOL:
        raise ValueError(
            f"matrix is not Hermitian: defect {defect:.3e} >= tolerance {SYMMETRIZE_TOL:.3e}"
        )
    return (a + dagger(a)) / 2


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (system factor first).

    The same elementwise products as ``np.kron``, so bit-identical to it,
    formed by one broadcast multiply without its general-rank overhead.
    Either factor may be a (…, r, c) stack; leading axes broadcast.
    """
    (ra, ca), (rb, cb) = a.shape[-2:], b.shape[-2:]
    x = a[..., :, None, :, None] * b[..., None, :, None, :]
    return x.reshape(*x.shape[:-4], ra * rb, ca * cb)


def partial_trace(x: np.ndarray, dim_s: int, dim_a: int, over: str) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    x : ndarray
        Operator on the product space, shape ``(dim_s*dim_a, dim_s*dim_a)``,
        with the system factor first in the Kronecker ordering, or a
        (…, dim_s*dim_a, dim_s*dim_a) stack of them, traced one by one.
    dim_s, dim_a : int
        Factor dimensions.
    over : {"system", "apparatus"}
        Which factor to trace out.

    Returns
    -------
    ndarray
        Operator on the remaining factor. The full trace is preserved.
    """
    n = dim_s * dim_a
    if x.shape[-2:] != (n, n):
        raise ValueError(f"operator shape {x.shape} does not match dims {dim_s}x{dim_a}")
    x4 = x.reshape(*x.shape[:-2], dim_s, dim_a, dim_s, dim_a)
    if over == "apparatus":
        return np.trace(x4, axis1=-3, axis2=-1)
    if over == "system":
        return np.trace(x4, axis1=-4, axis2=-2)
    raise ValueError(f"unknown subsystem tag {over!r}; expected 'system' or 'apparatus'")


def cluster_tolerance(eigenvalues: np.ndarray) -> float:
    """Clustering width for near-degenerate eigenvalues.

    Relative to the operator norm but never below 1e-9 in absolute terms,
    so exact degeneracies survive round-off while distinct physical levels
    (spaced O(1) in every model here) are never merged.
    """
    scale = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
    return 1e-9 * max(1.0, scale)


def cluster_labels(values: np.ndarray, tol: float) -> np.ndarray:
    """Group ascending values into clusters of width ``tol``.

    Returns an integer label per entry; entries whose gap to the previous
    one is below ``tol`` share a label. Input must be sorted ascending.
    """
    steps = np.diff(np.asarray(values, dtype=float)) >= tol
    return np.concatenate(([0], np.cumsum(steps))).astype(int)[: len(values)]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigensystem of a d×d Hermitian matrix h.

    ``eigenvalues`` holds one representative (cluster mean) per distinct
    eigenvalue, ascending. ``vectors`` is the unitary V whose columns are
    eigenvectors of h, and ``labels[j]`` the index into ``eigenvalues`` of
    column j. When h is diagonal ``vectors`` is None: its eigenvectors are
    the standard basis vectors in their natural order, so V = 1 and
    ``labels[j]`` belongs to basis vector j.

    The spectral projectors are Q^l = Σ_{j: labels[j] = l} v_j v_j†, so
    with the mask m_jk = [labels[j] = labels[k]] the pinching is

        Σ_l Q^l a Q^l = V (m ∘ V†aV) V†,

    which ``symmetry.decohere`` forms from ``labels`` and ``vectors`` in
    O(d²) memory per matrix (the mask alone when h is diagonal).
    """

    eigenvalues: np.ndarray
    labels: np.ndarray
    vectors: np.ndarray | None = None

    @property
    def basis(self) -> np.ndarray:
        """V as a dense matrix (the identity when h is diagonal)."""
        return np.eye(len(self.labels), dtype=complex) if self.vectors is None else self.vectors

    def to_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        """V†aV over the last two axes (``a`` itself when h is diagonal)."""
        if self.vectors is None:
            return a
        return dagger(self.vectors) @ a @ self.vectors

    @cached_property
    def projectors(self) -> list[np.ndarray]:
        """The dense Q^l, one d×d matrix per eigenvalue, built on first use.

        They sum to the identity. Only the blockwise oracle and tests read
        them; pinching never does.
        """
        columns = (self.basis[:, self.labels == lab] for lab in range(len(self.eigenvalues)))
        return [c @ dagger(c) for c in columns]


def hermitian_eig(h: np.ndarray) -> SpectralDecomposition:
    """Clustered spectral decomposition of a Hermitian matrix.

    Eigenvalues within ``cluster_tolerance`` of each other are merged into
    one cluster, so exact degeneracies broken only by round-off come back
    as one spectral projection. A diagonal matrix (every number operator
    is one) skips ``eigh``: its eigenvalues are its diagonal and its
    eigenvectors the standard basis (``vectors`` is None). Otherwise the
    eigenvectors are ``eigh``'s, in ascending eigenvalue order.

    ``h`` must be Hermitian within ``SYMMETRIZE_TOL``; it is symmetrized
    first, and a NaN entry raises ValueError.
    """
    h = ensure_hermitian(as_matrix(h))
    if np.count_nonzero(h) == np.count_nonzero(h.diagonal()):
        diagonal = h.diagonal().real
        order = np.argsort(diagonal, kind="stable")
        w, v = diagonal[order], None
    else:
        (w, v), order = np.linalg.eigh(h), np.arange(len(h))
    sorted_labels = cluster_labels(w, cluster_tolerance(w))
    clusters = np.split(w, np.flatnonzero(np.diff(sorted_labels)) + 1)
    labels = np.empty_like(sorted_labels)
    labels[order] = sorted_labels
    return SpectralDecomposition(np.array([c.mean() for c in clusters if len(c)]), labels, v)


def unitary_from_generator(h: np.ndarray, theta: float) -> np.ndarray:
    """Spectral exponential ``e^{−iθh}`` of a Hermitian generator h."""
    h = ensure_hermitian(as_matrix(h))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * w)) @ dagger(v)

