"""Hamiltonians and Lindblad generators as vectorized superoperators.

Every builder returns a :class:`Superoperator` acting on column-stacked
density matrices, ``d/dt vec(rho) = L vec(rho)``.  The Hamiltonian part
``-i[H, rho]`` is added separately by :func:`assemble` so that dissipators
can be combined freely.  The single-qubit generators (local noise,
dephasing, reset) are placed as 4x4 blocks by vec-index arithmetic, in
O(n 4^n) work; the Hamiltonian and thermal parts use kron products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from resetlb import qop
from resetlb.qop import left_right_superop, local_pauli, n_qubits_of

TRACE_ROW_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Dense D^2 x D^2 matrix acting on column-stacked density matrices."""

    matrix: np.ndarray
    n_qubits: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        d2 = 4**self.n_qubits
        if mat.shape != (d2, d2):
            raise ValueError(f"superoperator shape {mat.shape} does not match n={self.n_qubits}")
        scale = max(1.0, float(np.max(np.abs(mat))) if mat.size else 1.0)
        row = qop.vec(np.eye(2**self.n_qubits)) @ mat
        if np.max(np.abs(row)) > TRACE_ROW_TOL * scale:
            raise ValueError("superoperator is not trace preserving")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action on a density matrix, returned as a matrix."""
        return qop.unvec(self.matrix @ qop.vec(rho))

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.n_qubits != other.n_qubits:
            raise ValueError("dimension mismatch")
        return Superoperator(self.matrix + other.matrix, self.n_qubits)

    def __rmul__(self, scalar: float) -> "Superoperator":
        return Superoperator(scalar * self.matrix, self.n_qubits)


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


@dataclass(frozen=True)
class HamiltonianSpec:
    """Declarative Hamiltonian description.

    Kinds (pairwise couplings sum over all qubit pairs):

    * ``ising``             g * sum_{i<j} sz_i sz_j + (omega/2) sum_k sz_k
    * ``sxsx``              g * sum_{i<j} sx_i sx_j + (omega/2) sum_k sz_k
    * ``xyz``               g * (cx sx.sx + cy sy.sy + cz sz.sz summed over
                            pairs + cfield sum_k sx_k) + (omega/2) sum_k sz_k
    * ``ising_transverse``  g * (sum_{i<j} sz_i sz_j + b sum_k sx_k)
    * ``ising_gradient``    ising_transverse plus a small z gradient
                            g*b*1e-5*(k+1)/n per site k to lift degeneracies
    * ``custom``            explicit Hermitian matrix
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

    KINDS = ("ising", "sxsx", "xyz", "ising_transverse", "ising_gradient", "custom")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown Hamiltonian kind {self.kind!r}")
        if self.kind == "custom" and self.matrix is None:
            raise ValueError("custom Hamiltonian requires a matrix")


def _pair_coupling(n: int, which: str) -> np.ndarray:
    d = 2**n
    out = np.zeros((d, d), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            out += local_pauli(n, i, which) @ local_pauli(n, j, which)
    return out


def _site_field(n: int, which: str) -> np.ndarray:
    d = 2**n
    out = np.zeros((d, d), dtype=complex)
    for k in range(n):
        out += local_pauli(n, k, which)
    return out


def build_hamiltonian(spec: HamiltonianSpec, n: int) -> np.ndarray:
    """Hermitian Hamiltonian matrix for the given spec on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    if spec.kind != "custom" and n < 2 and spec.kind != "ising":
        # pairwise kinds need a pair; plain ising degenerates to the field part
        if spec.kind in ("sxsx", "xyz", "ising_transverse", "ising_gradient"):
            raise ValueError(f"kind {spec.kind!r} needs n >= 2")
    if spec.kind == "custom":
        h = np.array(spec.matrix, dtype=complex)
        if np.max(np.abs(h - h.conj().T)) > 1e-12:
            raise ValueError("custom Hamiltonian must be Hermitian")
        n_qubits_of(h.shape[0])
        return h
    if spec.kind == "ising":
        h = spec.g * _pair_coupling(n, "z") if n >= 2 else np.zeros((2, 2), dtype=complex)
        return h + 0.5 * spec.omega * _site_field(n, "z")
    if spec.kind == "sxsx":
        return spec.g * _pair_coupling(n, "x") + 0.5 * spec.omega * _site_field(n, "z")
    if spec.kind == "xyz":
        h = spec.g * (
            spec.cx * _pair_coupling(n, "x")
            + spec.cy * _pair_coupling(n, "y")
            + spec.cz * _pair_coupling(n, "z")
            + spec.cfield * _site_field(n, "x")
        )
        return h + 0.5 * spec.omega * _site_field(n, "z")
    if spec.kind == "ising_transverse":
        return spec.g * (_pair_coupling(n, "z") + spec.b * _site_field(n, "x"))
    # ising_gradient: transverse Ising plus a tiny site-dependent z field
    h = spec.g * (_pair_coupling(n, "z") + spec.b * _site_field(n, "x"))
    for k in range(n):
        h += spec.g * spec.b * 1e-5 * ((k + 1) / n) * local_pauli(n, k, "z")
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


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """Matrix of rho -> -i [H, rho]."""
    eye = np.eye(h.shape[0])
    return -1j * (left_right_superop(h, eye) - left_right_superop(eye, h))


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
    block = dissipator(qop.PAULI["z"], gamma)
    mat = np.zeros((4**n, 4**n), dtype=complex)
    for i in range(n):
        _embed_local(mat, n, i, block)
    return Superoperator(mat, n)


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
    return Superoperator(spec.r * mat, n)


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
    h: np.ndarray,
    params: ThermalBathParams,
    degeneracy_tol: float = 1e-8,
    merge_degenerate: bool = False,
) -> Superoperator:
    """Photon-bath dissipator driving the system to the Gibbs state of H.

    Transitions act between eigenstates |a> -> |b> with rate
    2*gamma*[N(dE) |<b|sm_j|a>|^2] for emission (E_a > E_b, weight N+1) and
    absorption (E_a < E_b, weight N), summed over the per-qubit lowering
    operators sm_j; the spectral density is treated as constant.

    By default a Hamiltonian with an eigenvalue gap below
    ``degeneracy_tol`` x spectral radius is rejected.  With
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
    gaps = np.diff(evals)
    if not merge_degenerate and gaps.size and np.min(gaps) < degeneracy_tol * scale:
        raise ValueError(
            f"Hamiltonian is degenerate within {degeneracy_tol:.1e} x spectral radius"
        )
    d = h.shape[0]
    # quasi-degenerate grouping (trivial groups when all gaps are large)
    group = np.zeros(d, dtype=int)
    for k in range(1, d):
        group[k] = group[k - 1] + (1 if evals[k] - evals[k - 1] >= degeneracy_tol * scale else 0)
    level = np.array([evals[group == gid].mean() for gid in range(group[-1] + 1)])
    # squared lowering-operator matrix elements in the eigenbasis, summed per qubit
    melem = np.zeros((d, d))
    for j in range(n):
        sm_eig = vecs.conj().T @ local_pauli(n, j, "-") @ vecs
        melem += np.abs(sm_eig) ** 2
    # rate[a, b]: population transfer a -> b
    rate = np.zeros((d, d))
    with np.errstate(over="ignore"):
        for a in range(d):
            for b in range(d):
                if group[a] == group[b]:
                    continue
                de = level[group[a]] - level[group[b]]
                if de > 0:  # emission, N + 1
                    nbar = 1.0 / np.expm1(params.beta * de)
                    rate[a, b] = 2 * params.gamma * (nbar + 1.0) * melem[b, a]
                else:  # absorption, N
                    nbar = 1.0 / np.expm1(params.beta * (-de))
                    rate[a, b] = 2 * params.gamma * nbar * melem[a, b]
    # build in the eigenbasis: sandwich moves populations, anticommutator
    # damps every vec component by the mean out-rate of its two indices
    out_rate = rate.sum(axis=1)
    lam_eig = np.zeros((d * d, d * d), dtype=complex)
    damp = -0.5 * (out_rate[:, None] + out_rate[None, :])  # damping of rho[row, col]
    lam_eig[np.arange(d * d), np.arange(d * d)] = qop.vec(damp)
    for a in range(d):
        for b in range(d):
            if rate[a, b]:
                lam_eig[b * d + b, a * d + a] += rate[a, b]
    # transform back to the computational basis
    to_comp = np.kron(vecs.conj(), vecs)
    from_comp = np.kron(vecs.T, vecs.conj().T)
    return Superoperator(to_comp @ lam_eig @ from_comp, n)


def assemble(h: np.ndarray | None, generators, n: int | None = None) -> Superoperator:
    """Total Liouvillian -i[H, .] + sum of dissipative generators."""
    gens = list(generators)
    if h is None and not gens:
        raise ValueError("nothing to assemble")
    if n is None:
        n = n_qubits_of(h.shape[0]) if h is not None else gens[0].n_qubits
    d2 = 4**n
    mat = np.zeros((d2, d2), dtype=complex)
    if h is not None:
        if h.shape[0] != 2**n:
            raise ValueError("Hamiltonian dimension mismatch")
        mat += hamiltonian_superoperator(h)
    for gen in gens:
        if gen.n_qubits != n:
            raise ValueError("generator dimension mismatch")
        mat += gen.matrix
    return Superoperator(mat, n)
