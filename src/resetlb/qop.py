"""Dense operator algebra on multi-qubit Hilbert spaces.

Conventions used throughout the package:

* Qubit 0 is the leftmost tensor factor; the basis state ``|s0 s1 ...>``
  maps to row index ``sum(s_k * 2**(n-1-k))``.
* ``sigma_z |s> = (-1)**s |s>``, i.e. ``|0>`` is the +1 eigenstate.
* Density matrices are Hermitian, unit trace and positive semidefinite
  within an absolute tolerance (default ``1e-9``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

PAULI = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "+": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "-": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}

KET_0 = np.array([1.0, 0.0], dtype=complex)
KET_1 = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


class DensityMatrixError(ValueError):
    """A matrix failed density-matrix validation; carries the violation."""

    def __init__(self, violation: str, magnitude: float, tol: float):
        self.violation = violation
        self.magnitude = magnitude
        self.tol = tol
        super().__init__(
            f"density-matrix validation failed: {violation} "
            f"(violation {magnitude:.3e}, tolerance {tol:.1e})"
        )


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a Hilbert-space dimension that must be 2**n, n >= 1."""
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return int(dim).bit_length() - 1


@dataclass(frozen=True)
class DensityMatrix:
    """Validated n-qubit density matrix.

    Construction checks finite entries, Hermiticity, unit trace and
    positivity within ``tol`` (absolute); use :func:`validate_density`
    for a detailed error.
    """

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2:
            raise DensityMatrixError("not a square matrix", float("nan"), self.tol)
        _check_density(mat, self.tol)
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return n_qubits_of(self.dim)


def _check_density(mat: np.ndarray, tol: float) -> np.ndarray:
    """Check one matrix (D, D) or every matrix of a stack (..., D, D); a
    violation reports the largest over the stack.  Returns the ascending
    eigenvalues of the Hermitian part (mat + mat^H) / 2."""
    if mat.ndim < 2 or mat.shape[-2] != mat.shape[-1]:
        raise DensityMatrixError("not a square matrix", float("nan"), tol)
    try:
        n_qubits_of(mat.shape[-1])
    except ValueError:
        raise DensityMatrixError("dimension is not a power of two", float("nan"), tol) from None
    if not np.all(np.isfinite(mat)):
        # every comparison below is False for NaN
        raise DensityMatrixError("non-finite entries", float("nan"), tol)
    adj = mat.conj().swapaxes(-1, -2)
    herm = np.abs(mat - adj).max()
    if herm > tol:
        raise DensityMatrixError("not Hermitian", float(herm), tol)
    tr = np.abs(mat.trace(axis1=-2, axis2=-1) - 1.0).max()
    if tr > tol:
        raise DensityMatrixError("trace differs from 1", float(tr), tol)
    evals = np.linalg.eigvalsh((mat + adj) / 2.0)
    low = -evals[..., 0].min()
    if low > tol:
        raise DensityMatrixError("negative eigenvalue", float(low), tol)
    return evals


def validate_density(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Validate a raw matrix as a density matrix or raise DensityMatrixError."""
    return DensityMatrix(matrix, tol)


_CHECK_BYTES = 2**17  # stack slice per check: its temporaries are a few times this


def states_from_real(xs: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[tuple[DensityMatrix, ...], np.ndarray]:
    """Validated density matrices of the rows of ``xs`` (k, D^2), real
    coordinates as :func:`from_real` reads them, and their spectra (k, D).

    The states are read-only views of one complex stack, checked in slices
    so that the check's temporaries stay small; each spectrum is the
    ascending eigenvalues of the state, which is Hermitian by construction.
    """
    d = int(round(np.sqrt(xs.shape[1])))
    stack = np.empty((len(xs), d, d), dtype=complex)
    for mat, x in zip(stack, xs):
        mat[:] = from_real(x)
    step = max(1, _CHECK_BYTES // stack[0].nbytes)
    spectra = np.concatenate([_check_density(stack[i : i + step], tol) for i in range(0, len(stack), step)])
    stack.setflags(write=False)
    states = []
    for mat in stack:
        state = object.__new__(DensityMatrix)  # the stack check above stands for __post_init__
        object.__setattr__(state, "matrix", mat)
        object.__setattr__(state, "tol", tol)
        states.append(state)
    return tuple(states), spectra


def local_pauli(n: int, site: int, which: str) -> np.ndarray:
    """Single-site operator I x ... x sigma_which x ... x I on n qubits."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} qubits")
    try:
        op = PAULI[which]
    except KeyError:
        raise ValueError(f"unknown Pauli label {which!r}") from None
    return embed_single_qubit(op, n, site)


def embed_single_qubit(op: np.ndarray, n: int, site: int) -> np.ndarray:
    """Embed a 2x2 operator at the given site of an n-qubit register."""
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def ket(bits: str) -> np.ndarray:
    """Computational-basis ket from a bit string, e.g. ket('10')."""
    vecs = {"0": KET_0, "1": KET_1, "+": KET_PLUS, "-": KET_MINUS}
    out = np.array([1.0 + 0.0j])
    for b in bits:
        out = np.kron(out, vecs[b])
    return out


def projector(vec: np.ndarray) -> np.ndarray:
    """|v><v| for a normalized state vector."""
    return np.outer(vec, vec.conj())


def bell_state() -> np.ndarray:
    """Density matrix of (|00> + |11>)/sqrt(2)."""
    v = (ket("00") + ket("11")) / np.sqrt(2.0)
    return projector(v)


def partial_trace(rho: np.ndarray, keep, n: int | None = None) -> np.ndarray:
    """Trace out all qubits not in ``keep``; remaining qubits keep their order.

    ``keep`` is a collection of qubit indices; the result acts on
    ``len(keep)`` qubits ordered by ascending original index.
    """
    keep = sorted(set(keep))
    if n is None:
        n = n_qubits_of(rho.shape[0])
    if not keep:
        raise ValueError("keep set must be non-empty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices {keep} out of range for {n} qubits")
    traced = [q for q in range(n) if q not in keep]
    work = rho.reshape((2,) * (2 * n))
    dims = n
    for q in sorted(traced, reverse=True):
        work = np.trace(work, axis1=q, axis2=q + dims)
        dims -= 1
    d = 2 ** len(keep)
    return work.reshape(d, d)


def partial_transpose(rho: np.ndarray, part, n: int | None = None) -> np.ndarray:
    """Transpose the qubits in ``part`` (row/column index swap on those axes)
    of one state ``(D, D)`` or of every state of a stack ``(..., D, D)``."""
    d, lead = rho.shape[-1], rho.shape[:-2]
    if n is None:
        n = n_qubits_of(d)
    k = len(lead)
    axes = list(range(k + 2 * n))
    for q in normalize_bipartition(part, n):
        axes[k + q], axes[k + q + n] = axes[k + q + n], axes[k + q]
    return rho.reshape(lead + (2,) * (2 * n)).transpose(axes).reshape(lead + (d, d))


def normalize_bipartition(part, n: int) -> tuple[int, ...]:
    """Check that ``part`` is a non-empty proper subset of the qubit set."""
    subset = tuple(sorted(set(int(q) for q in part)))
    if not subset:
        raise ValueError("bipartition subset must be non-empty")
    if subset[0] < 0 or subset[-1] >= n:
        raise ValueError(f"bipartition {subset} out of range for {n} qubits")
    if len(subset) == n:
        raise ValueError("bipartition subset must be a proper subset")
    return subset


def trace_norm(mat: np.ndarray) -> float:
    """Sum of singular values."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("trace norm requires a square matrix")
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def random_density(n: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix from the Ginibre ensemble."""
    d = 2**n
    r = d if rank is None else rank
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# --- vectorization (column stacking) -------------------------------------
#
# vec stacks columns: vec(A rho B) = (B^T kron A) vec(rho).  This convention
# is used for every superoperator in the package.


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`."""
    d = int(round(np.sqrt(v.size)))
    return v.reshape((d, d), order="F")


def to_real(rho: np.ndarray) -> np.ndarray:
    """Real coordinates vec(Re rho - Im rho) of a Hermitian rho, an isometry onto R^(D^2)."""
    return vec(rho.real - rho.imag)


def from_real(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_real`, Hermitian by construction."""
    m = unvec(x)
    return (m + m.T) / 2.0 + 1j * ((m.T - m) / 2.0)


def left_right_superop(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of rho -> a @ rho @ b under column-stacking vec."""
    return np.kron(b.T, a)
