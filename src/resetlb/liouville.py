"""Hamiltonians and Lindblad generators as real superoperators.

Every builder writes the real generator R = Re L - Im(L) P of the
column-stacked Liouvillian L (P the vec transpose), d/dt x = R x on
x = :func:`qop.to_real` (rho), into a dense work array and hands it to a
:class:`Superoperator`, which keeps only R's non-zeros in row order; building
one is the only check of the Lindblad contract the solvers rely on, and the
solvers read the non-zeros, never a dense R.  Spin Hamiltonians, one table
row per kind, are written by bit arithmetic on the basis index;
``-i[H, rho]`` is written by :func:`assemble` straight into the one D^2 x D^2
buffer of the result, and each generator's non-zeros are added into it, so
that dissipators can be combined freely.  The single-qubit generators (local
noise, dephasing, reset) are placed as 4x4 blocks by vec-index arithmetic,
in O(n 4^n) work.  The thermal part is a rank-D population transfer plus
one-sided products with a D x D matrix, also written by vec-index
arithmetic; its cost is one D^2 x D x D^2 product, and it is stored whole.
:func:`affine_family` puts two generators on one pattern, so that a sweep
over a rate costs O(non-zeros) per point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field, fields

import numpy as np

from resetlb import qop
from resetlb.qop import left_right_superop, n_qubits_of

TRACE_ROW_TOL = 1e-10
_DEGENERACY_TOL = 1e-8
_SCALE_VALUES = 2**16  # |R| values held at once while Superoperator takes norm and peak


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Real D^2 x D^2 generator R on :func:`qop.to_real` coordinates, stored
    as its non-zeros in row order; any real R preserves Hermiticity.

    ``Superoperator(mat, n)`` copies the non-zeros out of a dense ``mat``,
    which stays the caller's.  ``Superoperator(values, n, positions)``
    stores the values at ascending row-major ``positions`` (row * D^2 +
    column) as they are, not copied, so that generators on one pattern
    share it.  ``positions`` and ``values`` are made read-only; ``matrix``
    builds a fresh dense R on each read.

    Construction refuses a complex matrix, non-finite entries and trace-row
    (the diagonal rows of R) sums beyond ``TRACE_ROW_TOL`` x max(1, max|R|),
    all checked on the stored values.  ``norm`` is the inf-norm (largest
    absolute row sum of the stored values, in row order); it and max|R| are
    taken over blocks of rows of about ``_SCALE_VALUES`` values, so no
    temporary of the size of R is made.
    """

    entries: InitVar[np.ndarray]
    n_qubits: int
    positions: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray = field(init=False, repr=False)
    norm: float = field(init=False, repr=False)

    def __post_init__(self, entries):
        if np.iscomplexobj(entries):
            raise ValueError("superoperator must be real: build R = Re L - Im(L) P, not L")
        d = 2**self.n_qubits
        d2 = d * d
        if self.positions is None:
            mat = np.asarray(entries, dtype=float)
            if mat.shape != (d2, d2):
                raise ValueError(f"superoperator shape {mat.shape} does not match n={self.n_qubits}")
            positions = np.flatnonzero(mat != 0)
            values = mat.ravel()[positions]
        else:
            positions, values = np.asarray(self.positions, dtype=np.intp), np.asarray(entries, dtype=float)
            if positions.ndim != 1 or values.shape != positions.shape:
                raise ValueError("superoperator values and positions must be 1-D of one length")
            outside = positions.size and (positions[0] < 0 or positions[-1] >= d2 * d2)
            if outside or np.any(positions[1:] <= positions[:-1]):
                raise ValueError(f"superoperator positions must ascend within 0..{d2 * d2 - 1}")
        ends = np.searchsorted(positions, np.arange(0, d2 * d2 + 1, d2))  # row starts, then the end
        bounds = ends.tolist()
        norm = peak = 0.0
        rows = max(1, _SCALE_VALUES * d2 // max(1, positions.size))
        for first in range(0, d2, rows):
            lo, hi = bounds[first], bounds[min(first + rows, d2)]
            if lo == hi:
                continue
            magnitude = np.abs(values[lo:hi])
            # an empty row starts where the next one does, and reduceat gives it
            # that row's first entry alone, which never exceeds that row's sum
            starts = ends[first : first + rows] - lo
            block_norm = float(np.add.reduceat(magnitude, starts[starts < hi - lo]).max())
            if not math.isfinite(block_norm):
                raise ValueError("superoperator has non-finite entries")
            norm, peak = max(norm, block_norm), max(peak, float(magnitude.max()))
        # value indices of the trace rows 0, d + 1, ..., D^2 - 1: each row's
        # run, laid end to end, is its end minus the runs' running total
        stop = ends[1 :: d + 1]
        count = stop - ends[: d2 : d + 1]
        total = np.cumsum(count)
        trace = np.repeat(stop - total, count) + np.arange(total[-1])
        drift = np.bincount(positions[trace] % d2, values[trace], minlength=d2)
        if np.abs(drift).max() > TRACE_ROW_TOL * max(1.0, peak):
            raise ValueError("superoperator is not trace preserving")
        positions.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "norm", norm)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    @property
    def matrix(self) -> np.ndarray:
        """Dense R, scattered from the non-zeros into a new read-only array."""
        d2 = self.dim**2
        mat = np.zeros(d2 * d2)
        mat[self.positions] = self.values
        mat.setflags(write=False)
        return mat.reshape(d2, d2)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action on a Hermitian ``rho``, as a matrix; R represents L on no other."""
        _require_hermitian(rho, "rho")
        rows, cols = np.divmod(self.positions, self.dim**2)
        x = qop.to_real(rho)
        return qop.from_real(np.bincount(rows, self.values * x[cols], minlength=x.size))


def _require_hermitian(mat: np.ndarray, what: str) -> None:
    """Refuse ``mat`` when it departs from its adjoint by more than 1e-12 x max|mat|."""
    if np.max(np.abs(mat - mat.conj().T)) > 1e-12 * np.max(np.abs(mat)):
        raise ValueError(f"{what} must be Hermitian")


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
        _require_hermitian(h, "custom Hamiltonian")
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
    """Add the real form of a 4x4 single-qubit superoperator l (indexed
    c*2 + r, as :func:`dissipator` on 2x2 operators) at ``site`` of the
    C-contiguous ``mat``.

    Vec index k = col*D + row carries the site's row bit at n-1-site and its
    column bit at 2n-1-site; l is diagonal in every other bit.  Re l goes to
    (idx, idx), -Im l to (idx, swap(idx)): the vec transpose swaps every site.
    """
    at, swapped = _local_indices(n, site)
    flat = mat.reshape(-1)
    flat[at] += block.real[:, :, None]
    if block.imag.any():
        flat[swapped] -= block.imag[:, :, None]


@functools.lru_cache(maxsize=64)
def _local_indices(n: int, site: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major positions (idx, idx) and (idx, swap(idx)), shaped
    (4, 4, 4^n / 4), at which :func:`_embed_local` writes the 4x4 block of
    ``site``.  Cached: they depend on n and the site only, and every
    generator of a sweep point rewrites them; with them a 2-qubit noise
    generator builds in about 60 µs, against 150 µs recomputing them."""
    row_bit, col_bit = n - 1 - site, 2 * n - 1 - site
    k = np.arange(4**n)
    rest = k[(k & ((1 << row_bit) | (1 << col_bit))) == 0]
    local = np.array([(c << col_bit) | (r << row_bit) for c in (0, 1) for r in (0, 1)])
    idx = rest + local[:, None]
    swapped = (idx % 2**n) << n | idx >> n
    at = idx[:, None, :] * 4**n + idx[None, :, :], idx[:, None, :] * 4**n + swapped[None, :, :]
    for array in at:
        array.flags.writeable = False
    return at


# unit-rate decay, pumping and dephasing blocks: rate * block has the bits of
# dissipator(jump, rate), so no build calls left_right_superop
_NOISE_BLOCKS = tuple(dissipator(qop.PAULI[k]).real for k in ("-", "+", "z"))


def local_noise_generator(n: int, params: GasNoiseParams) -> Superoperator:
    """Sum over qubits of decay (rate B(1-s)), pumping (rate Bs) and
    sigma_z dephasing (rate (2C-B)/4)."""
    rates = (params.B * (1 - params.s), params.B * params.s, (2 * params.C - params.B) / 4)
    blocks = [rate * block for rate, block in zip(rates, _NOISE_BLOCKS)]
    mat = np.zeros((4**n, 4**n))
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
    mat = np.zeros((d2, d2))
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
    K = V diag(out_rate) V+ plus the population transfer T rate^T T^T,
    where column b of T is to_real(|b><b|).

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
    t = w.real - w.imag
    mat = (t @ rate.T) @ t.T
    _add_sides(mat, k_half, k_half)
    # R is stored whole, every entry in row-major order: the buffer is its values
    return Superoperator(mat.reshape(-1), n, np.arange(mat.size))


def _lowering_elements(vecs: np.ndarray, j: int) -> np.ndarray:
    """<a|sm_j|b> between columns a and b of ``vecs``: sm_j = |1><0| on
    site j takes each row with site j's bit clear to the row with it set."""
    bit = vecs.shape[0] >> (j + 1)
    up = np.flatnonzero(np.arange(vecs.shape[0]) & bit)
    return vecs[up].conj().T @ vecs[up ^ bit]


def _add_sides(mat: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Add the real form of vec(left rho + rho right) to ``mat`` in place:
    in its [col, row, col', row'] view ``left`` acts on rows, ``right`` on
    columns, and the imaginary parts through the vec transpose (last two
    axes swapped).  The last index pair is adjacent, so numpy keeps its axis
    in place and the term needs [:, None, :]."""
    d = left.shape[0]
    blocks = mat.reshape(d, d, d, d)
    k = np.arange(d)
    blocks[k, :, k, :] += left.real
    blocks[:, k, :, k] += right.real.T
    blocks[k, :, :, k] -= left.imag
    blocks[:, k, k, :] -= right.imag.T[:, None, :]


def assemble(h: np.ndarray | None, generators, n: int | None = None) -> Superoperator:
    """Total generator -i[H, .] + sum of dissipative generators, each
    generator's non-zeros added into the one D^2 x D^2 buffer of the result;
    a non-Hermitian H is refused."""
    gens = list(generators)
    if h is None and not gens:
        raise ValueError("nothing to assemble")
    if n is None:
        n = n_qubits_of(h.shape[0]) if h is not None else gens[0].n_qubits
    d = 2**n
    mat = np.zeros((d * d, d * d))
    if h is not None:
        if h.shape[0] != d:
            raise ValueError("Hamiltonian dimension mismatch")
        _require_hermitian(h, "Hamiltonian")
        _add_sides(mat, -1j * h, 1j * h)
    flat = mat.reshape(-1)
    for gen in gens:
        if gen.n_qubits != n:
            raise ValueError("generator dimension mismatch")
        flat[gen.positions] += gen.values
    return Superoperator(mat, n)


def affine_family(base: Superoperator, unit: Superoperator):
    """r -> ``base`` + r ``unit``, each a :class:`Superoperator` on the union
    of the two patterns, in O(non-zeros) work per r.  A position outside
    ``unit``'s pattern keeps ``base``'s value, which is base + r * 0
    exactly, so every stored value is the one of the dense sum."""
    if base.n_qubits != unit.n_qubits:
        raise ValueError("generator dimension mismatch")
    positions, start = base.positions, base.values
    # unit's positions missing from base's go in, with value 0, where they sort
    new = unit.positions[~np.isin(unit.positions, positions, assume_unique=True)]
    slots = np.searchsorted(positions, new)
    positions, start = np.insert(positions, slots, new), np.insert(start, slots, 0.0)
    at, unit_values, n = np.searchsorted(positions, unit.positions), unit.values, base.n_qubits

    def at_rate(r: float) -> Superoperator:
        values = start.copy()
        values[at] += r * unit_values
        return Superoperator(values, n, positions)

    return at_rate
