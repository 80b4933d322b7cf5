"""Hamiltonians and Lindblad generators as vectorized superoperators.

Every builder returns a :class:`Superoperator` acting on column-stacked
density matrices, ``d/dt vec(rho) = L vec(rho)``; building one is the only
check of the Lindblad contract the solvers rely on.  Spin Hamiltonians,
one table row per kind, are written by bit arithmetic on the basis index;
``-i[H, rho]`` is written by :func:`assemble` straight into the one
D^2 x D^2 result, so that dissipators can be combined freely.  The
single-qubit generators (local noise, dephasing, reset) are placed as 4x4
blocks by vec-index arithmetic, in O(n 4^n) work.  The thermal part is a
rank-D population transfer plus one-sided products with a D x D matrix,
also written by vec-index arithmetic; its cost is one D^2 x D x D^2
product.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from resetlb import qop
from resetlb.qop import left_right_superop, n_qubits_of

TRACE_ROW_TOL = 1e-10
HERMITICITY_TOL = 1e-10
_DEGENERACY_TOL = 1e-8
_SCALE_BYTES = 2**20  # |L| rows held at once while Superoperator takes norm and peak


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Dense D^2 x D^2 Liouvillian acting on column-stacked density matrices.

    Construction refuses non-finite entries, a skew of row (c, r) from the
    conjugate of row (r, c) vec-transposed beyond ``HERMITICITY_TOL`` x
    max|L| (Hermiticity), and trace-row entries beyond ``TRACE_ROW_TOL`` x
    max(1, max|L|).  ``norm`` is the inf-norm (largest absolute row sum);
    it and max|L| are taken over blocks of rows of about ``_SCALE_BYTES``,
    so no D^2 x D^2 temporary is made.

    Construction takes ownership of a complex128 ``matrix``: it is stored,
    not copied, and made read-only; pass a copy to keep writing into it.
    """

    matrix: np.ndarray
    n_qubits: int
    norm: float = field(init=False, repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d = 2**self.n_qubits
        if mat.shape != (d * d, d * d):
            raise ValueError(f"superoperator shape {mat.shape} does not match n={self.n_qubits}")
        norm = peak = 0.0
        rows = max(1, _SCALE_BYTES // (8 * d * d))
        for start in range(0, d * d, rows):
            magnitude = np.abs(mat[start : start + rows])
            block_norm = float(magnitude.sum(axis=1).max())
            if not np.isfinite(block_norm):
                raise ValueError("superoperator has non-finite entries")
            norm, peak = max(norm, block_norm), max(peak, float(magnitude.max()))
        # row (c, r) of the [c, r, c', r'] view against row (r, c), conjugated
        # and vec-transposed, for r >= c0 over blocks of 64 // d values c >= c0:
        # one pass when d <= 8, about half of L at larger d
        blocks = mat.reshape(d, d, d, d)
        step = max(1, 64 // d)
        for c in range(0, d, step):
            rows, partners = blocks[c : c + step, c:], blocks[c:, c : c + step]
            skew = np.max(np.abs(rows - partners.transpose(1, 0, 3, 2).conj()))
            if skew > HERMITICITY_TOL * peak:
                raise ValueError(f"superoperator does not preserve Hermiticity (deviation {skew:.3e})")
        if np.max(np.abs(mat[:: d + 1].sum(axis=0))) > TRACE_ROW_TOL * max(1.0, peak):
            raise ValueError("superoperator is not trace preserving")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "norm", norm)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action on a density matrix, returned as a matrix."""
        return qop.unvec(self.matrix @ qop.vec(rho))


# --- parameter records -----------------------------------------------------


@dataclass(frozen=True)
class GasNoiseParams:
    """Local noise channel: inversion decay B, polarization decay C, bath
    parameter s in [0, 1] (s = 1/2 is an infinite-temperature bath)."""

    B: float
    C: float
    s: float

    def __post_init__(self):
        if self.B < 0:
            raise ValueError("B must be non-negative")
        if 2 * self.C < self.B - 1e-15:
            raise ValueError("need 2C >= B for a positive dephasing rate")
        if not 0 <= self.s <= 1:
            raise ValueError("s must lie in [0, 1]")


@dataclass(frozen=True)
class ThermalBathParams:
    """Global photon bath of coupling gamma at inverse temperature beta."""

    gamma: float
    beta: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.beta <= 0:
            raise ValueError("beta must be positive")


def bloch_vector(state: np.ndarray) -> np.ndarray:
    """Components (b1, b2, b3) of rho = I/2 + b1 sx + b2 sy + b3 sz."""
    return np.array(
        [0.5 * np.trace(state @ qop.PAULI[w]).real for w in ("x", "y", "z")]
    )


def state_from_bloch(b1: float, b2: float, b3: float) -> np.ndarray:
    """Single-qubit density matrix with the given Bloch components."""
    if b1**2 + b2**2 + b3**2 > 0.25 + 1e-12:
        raise ValueError("Bloch vector lies outside the Bloch ball")
    return (
        0.5 * qop.PAULI["identity"]
        + b1 * qop.PAULI["x"]
        + b2 * qop.PAULI["y"]
        + b3 * qop.PAULI["z"]
    )


@dataclass(frozen=True)
class ResetSpec:
    """Reset rate r and one single-qubit reset state per qubit.

    Reset states are stored as density matrices so that pure and mixed
    resets share one code path.
    """

    r: float
    states: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("reset rate must be non-negative")
        frozen = []
        for st in self.states:
            mat = np.array(st, dtype=complex)
            if mat.shape != (2, 2):
                raise ValueError("reset states must be single-qubit density matrices")
            qop.validate_density(mat, tol=1e-9)
            mat.setflags(write=False)
            frozen.append(mat)
        object.__setattr__(self, "states", tuple(frozen))

    @classmethod
    def uniform(cls, r: float, n: int, state: np.ndarray) -> "ResetSpec":
        """Same reset state on every qubit."""
        return cls(r, tuple(state for _ in range(n)))

    @classmethod
    def pure(cls, r: float, n: int, label: str = "+") -> "ResetSpec":
        """Pure reset into |label> on every qubit (label in 0/1/+/-)."""
        return cls.uniform(r, n, qop.projector(qop.ket(label)))

    @classmethod
    def mixed(cls, r: float, n: int, purity: float, label: str = "+") -> "ResetSpec":
        """Imperfect reset p |chi><chi| + (1 - p) I/2 on every qubit."""
        rho = purity * qop.projector(qop.ket(label)) + (1 - purity) * np.eye(2) / 2
        return cls.uniform(r, n, rho)

    def purity(self, i: int = 0) -> float:
        """Purity parameter p of reset state i written as p|chi><chi| + (1-p)I/2."""
        return 2.0 * float(np.linalg.norm(bloch_vector(self.states[i])))


# Spin kinds: the parameters each reads and its coefficients (xx, yy, zz, x, z, tilt) in
#   g (xx sum_{i<j} sx_i sx_j + yy sum_{i<j} sy_i sy_j + zz sum_{i<j} sz_i sz_j + x sum_k sx_k)
#   + z sum_k sz_k + tilt sum_k (k+1)/n sz_k
_SPIN_KINDS = {
    "ising": (("g", "omega"), lambda s: (0, 0, 1, 0, 0.5 * s.omega, 0)),
    "sxsx": (("g", "omega"), lambda s: (1, 0, 0, 0, 0.5 * s.omega, 0)),
    "xyz": (("g", "omega", "cx", "cy", "cz", "cfield"), lambda s: (s.cx, s.cy, s.cz, s.cfield, 0.5 * s.omega, 0)),
    "ising_transverse": (("g", "b"), lambda s: (0, 0, 1, s.b, 0, 0)),
    # the small site-dependent tilt lifts degeneracies of the transverse Ising spectrum
    "ising_gradient": (("g", "b"), lambda s: (0, 0, 1, s.b, 0, s.g * s.b * 1e-5)),
}


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative Hamiltonian description.

    ``KINDS`` maps each kind to the parameters it reads: the spin kinds of
    ``_SPIN_KINDS`` and ``custom``, an explicit Hermitian ``matrix``.  A
    parameter the kind does not read must keep its field default.
    """

    kind: str
    g: float = 0.0
    omega: float = 0.0
    b: float = 0.0
    cx: float = 0.7
    cy: float = 0.3
    cz: float = 1.0
    cfield: float = 0.5
    matrix: np.ndarray | None = None

    KINDS = {**{kind: params for kind, (params, _) in _SPIN_KINDS.items()}, "custom": ("matrix",)}

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        if self.kind == "custom" and self.matrix is None:
            raise ValueError("custom Hamiltonian requires a matrix")
        for f in fields(self):
            value = getattr(self, f.name)
            changed = value is not None if f.default is None else value != f.default
            if changed and f.name not in ("kind", *self.KINDS[self.kind]):
                raise ValueError(f"Hamiltonian kind {self.kind!r} does not read {f.name!r}")


def build_hamiltonian(spec: HamiltonianSpec, n: int) -> np.ndarray:
    """Hermitian Hamiltonian matrix for the given spec on n qubits.

    Spin kinds are written by bit arithmetic on the basis index, where site
    k is bit n-1-k: sz_k is (-1)^bit on the diagonal, sx_k flips the bit,
    and sx_i sx_j and sy_i sy_j both flip bits i and j, with weights 1 and
    -sz_i sz_j.
    """
    if n < 1:
        raise ValueError("need at least one qubit")
    d = 2**n
    if spec.kind == "custom":
        h = np.array(spec.matrix, dtype=complex)
        if h.shape != (d, d):
            raise ValueError(f"custom Hamiltonian must be {d} x {d} for {n} qubits, got {h.shape}")
        if np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError("custom Hamiltonian must be Hermitian")
        return h
    xx, yy, zz, x, z, tilt = _SPIN_KINDS[spec.kind][1](spec)
    idx = np.arange(d)
    bits = [d >> (k + 1) for k in range(n)]
    sz = [1 - 2 * ((idx & bit) > 0) for bit in bits]
    total = sum(sz)
    h = np.zeros((d, d), dtype=complex)
    # sum_{i<j} sz_i sz_j = (Z^2 - n) / 2, exact in integers
    h[idx, idx] = spec.g * (zz * ((total * total - n) // 2)) + z * total
    for i, bit in enumerate(bits):
        h[idx, idx] += tilt * ((i + 1) / n) * sz[i]
        h[idx ^ bit, idx] = spec.g * x
        for j in range(i + 1, n):
            h[idx ^ bit ^ bits[j], idx] = spec.g * (xx - yy * sz[i] * sz[j])
    return h


# --- generator builders ------------------------------------------------------


def dissipator(jump: np.ndarray, rate: float = 1.0) -> np.ndarray:
    """Matrix of rate * (A rho A+ - {A+A, rho}/2) under column-stacked vec."""
    d = jump.shape[0]
    eye = np.eye(d)
    aa = jump.conj().T @ jump
    return rate * (
        left_right_superop(jump, jump.conj().T)
        - 0.5 * left_right_superop(aa, eye)
        - 0.5 * left_right_superop(eye, aa)
    )


def _embed_local(mat: np.ndarray, n: int, site: int, block: np.ndarray) -> None:
    """Add a 4x4 single-qubit superoperator (indexed c*2 + r, as
    :func:`dissipator` on 2x2 operators) at ``site`` of the n-qubit ``mat``.

    Vec index k = col*D + row carries the site's row bit at n-1-site and its
    column bit at 2n-1-site; the block is diagonal in every other bit.
    """
    row_bit, col_bit = n - 1 - site, 2 * n - 1 - site
    k = np.arange(4**n)
    rest = k[(k & ((1 << row_bit) | (1 << col_bit))) == 0]
    local = np.array([(c << col_bit) | (r << row_bit) for c in (0, 1) for r in (0, 1)])
    idx = rest + local[:, None]
    mat[idx[:, None, :], idx[None, :, :]] += block[:, :, None]


def local_noise_generator(n: int, params: GasNoiseParams) -> Superoperator:
    """Sum over qubits of decay (rate B(1-s)), pumping (rate Bs) and
    sigma_z dephasing (rate (2C-B)/4)."""
    blocks = (
        dissipator(qop.PAULI["-"], params.B * (1 - params.s)),
        dissipator(qop.PAULI["+"], params.B * params.s),
        dissipator(qop.PAULI["z"], (2 * params.C - params.B) / 4),
    )
    mat = np.zeros((4**n, 4**n), dtype=complex)
    for i in range(n):
        for block in blocks:
            _embed_local(mat, n, i, block)
    return Superoperator(mat, n)


def dephasing_generator(n: int, gamma: float) -> Superoperator:
    """gamma * sum_i (sz_i rho sz_i - rho); fixes computational-basis diagonals."""
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    return local_noise_generator(n, GasNoiseParams(B=0.0, C=2 * gamma, s=0.5))


def reset_generator(n: int, spec: ResetSpec) -> Superoperator:
    """r * sum_i (rho_reset^(i) (x) tr_i rho - rho).

    On qubit i the replacement map rho -> rho_reset^(i) (x) tr_i rho is the
    4x4 block vec(rho_reset^(i)) vec(I_2)^T: it reads the site's trace and
    writes the reset state.
    """
    if len(spec.states) != n:
        raise ValueError(f"expected {n} reset states, got {len(spec.states)}")
    d2 = 4**n
    mat = np.zeros((d2, d2), dtype=complex)
    for i, reset_state in enumerate(spec.states):
        _embed_local(mat, n, i, np.outer(qop.vec(reset_state), qop.vec(np.eye(2))))
        mat.reshape(-1)[:: d2 + 1] -= 1.0
    mat *= spec.r
    return Superoperator(mat, n)


def reset_lindblad_matrix(bloch: tuple[float, float, float], r: float) -> np.ndarray:
    """3x3 coefficient matrix certifying the Lindblad form of a single-qubit
    reset channel with reset state I/2 + b1 sx + b2 sy + b3 sz.

    Positive semidefinite exactly when the Bloch vector satisfies
    |b|^2 <= 1/4; eigenvalues are r/8 and r/8 (1 +- 2|b|).
    """
    b1, b2, b3 = bloch
    return r * np.array(
        [
            [1 / 8, -0.25j * b3, 0.25j * b2],
            [0.25j * b3, 1 / 8, -0.25j * b1],
            [-0.25j * b2, 0.25j * b1, 1 / 8],
        ],
        dtype=complex,
    )


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """exp(-beta H) / Z, computed stably in the eigenbasis."""
    evals, vecs = np.linalg.eigh(h)
    w = np.exp(-beta * (evals - evals[0]))
    w /= w.sum()
    return (vecs * w) @ vecs.conj().T


def thermal_generator(
    h: np.ndarray, params: ThermalBathParams, merge_degenerate: bool = False
) -> Superoperator:
    """Photon-bath dissipator driving the system to the Gibbs state of H.

    Transitions act between eigenstates |a> -> |b> with rate
    2*gamma*[N(dE) |<b|sm_j|a>|^2] for emission (E_a > E_b, weight N+1) and
    absorption (E_a < E_b, weight N), summed over the per-qubit lowering
    operators sm_j; the spectral density is treated as constant.  The sum
    of rate[a, b] D[|b><a|] is the anticommutator -{K, rho}/2 with
    K = V diag(out_rate) V+ plus the population transfer W rate^T W+,
    where column b of W is vec(|b><b|).

    By default a Hamiltonian with an eigenvalue gap below
    ``_DEGENERACY_TOL`` x spectral radius is rejected.  With
    ``merge_degenerate=True`` quasi-degenerate levels are instead grouped:
    no transitions act within a group and level differences use group-mean
    energies, so the fixed point is the Gibbs state of the grouped
    spectrum (exact up to beta times the merged splittings).  Gradient
    fields that lift degeneracies only at second order need this mode for
    more than two qubits.
    """
    n = n_qubits_of(h.shape[0])
    evals, vecs = np.linalg.eigh(h)
    scale = max(np.max(np.abs(evals)), 1e-300)
    split = np.diff(evals) >= _DEGENERACY_TOL * scale
    if not merge_degenerate and not np.all(split):
        raise ValueError(
            f"Hamiltonian is degenerate within {_DEGENERACY_TOL:.1e} x spectral radius"
        )
    # quasi-degenerate grouping (trivial groups when all gaps are large)
    group = np.concatenate(([0], np.cumsum(split)))
    level = (np.bincount(group, evals) / np.bincount(group))[group]
    # squared lowering-operator matrix elements in the eigenbasis, summed per qubit
    melem = sum(np.abs(_lowering_elements(vecs, j)) ** 2 for j in range(n))
    # rate[a, b]: population transfer a -> b; N = 1/expm1(inf) = 0 inside a group
    de = level[:, None] - level[None, :]
    with np.errstate(over="ignore"):
        nbar = 1.0 / np.expm1(np.where(group[:, None] == group, np.inf, params.beta * np.abs(de)))
    gamma2 = 2 * params.gamma
    rate = np.where(de > 0, gamma2 * (nbar + 1.0) * melem.T, gamma2 * nbar * melem)
    k_half = (vecs * (-0.5 * rate.sum(axis=1))) @ vecs.conj().T
    w = (vecs.conj()[:, None, :] * vecs[None, :, :]).reshape(-1, len(evals))
    mat = (w @ rate.T) @ w.conj().T
    _add_sides(mat, k_half, k_half)
    return Superoperator(mat, n)


def _lowering_elements(vecs: np.ndarray, j: int) -> np.ndarray:
    """<a|sm_j|b> between columns a and b of ``vecs``: sm_j = |1><0| on
    site j takes each row with site j's bit clear to the row with it set."""
    bit = vecs.shape[0] >> (j + 1)
    up = np.flatnonzero(np.arange(vecs.shape[0]) & bit)
    return vecs[up].conj().T @ vecs[up ^ bit]


def _add_sides(mat: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Add vec(left rho + rho right) to ``mat`` in place: its 4-index view is
    [col, row, col', row'], so ``left`` acts on rows and ``right`` on columns."""
    d = left.shape[0]
    blocks = mat.reshape(d, d, d, d)
    k = np.arange(d)
    blocks[k, :, k, :] += left
    blocks[:, k, :, k] += right.T


def assemble(h: np.ndarray | None, generators, n: int | None = None) -> Superoperator:
    """Total Liouvillian -i[H, .] + sum of dissipative generators."""
    gens = list(generators)
    if h is None and not gens:
        raise ValueError("nothing to assemble")
    if n is None:
        n = n_qubits_of(h.shape[0]) if h is not None else gens[0].n_qubits
    d = 2**n
    mat = np.zeros((d * d, d * d), dtype=complex)
    if h is not None:
        if h.shape[0] != d:
            raise ValueError("Hamiltonian dimension mismatch")
        _add_sides(mat, -1j * h, 1j * h)
    for gen in gens:
        if gen.n_qubits != n:
            raise ValueError("generator dimension mismatch")
        mat += gen.matrix
    return Superoperator(mat, n)
