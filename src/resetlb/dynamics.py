"""Time evolution, steady states and spectra of Liouvillian generators.

Every :class:`Superoperator` holds the row-ordered non-zeros of the real
generator R, which acts on :func:`qop.to_real` coordinates and has the
eigenvalues of the complex Liouvillian L; :func:`evolve` and
:func:`steady_state` read those non-zeros and never form a dense R, which
only :func:`spectrum` does.  :func:`evolve` applies expm(R t) to the state
by a truncated Taylor series (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
488 (2011)) built from products with the non-zeros of R, in numpy alone,
and never forms a propagator; its Richardson error estimate costs three
more such actions and is computed only when it is read.  Steady states
come from shifted inverse iteration on R - tol*I with a two-vector block
whose second Rayleigh quotient tests the null space for degeneracy; tol is
1e-10 times ``lam.norm``.  Its solves are forward substitutions over the
diagonal blocks that the strong components of R's non-zero pattern give in
topological order (Duff and Reid, ACM TOMS 4, 137 (1978)), found by an own
Tarjan search once per pattern; each block is scattered from its own
non-zeros.  The gas R splits into 16 blocks of 64 at n = 5, while a thermal
R, all non-zero, is one block, R as it is.  A block of at most 128
coordinates is solved by ``np.linalg.solve`` in each round; a larger one,
such as the thermal R at n >= 4, is factored once by LAPACK through
``scipy.linalg``, and that is the only solve that imports scipy.  Gas and
two-qubit steady states and the spectrum need numpy alone.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from resetlb import qop
from resetlb.entanglement import negativity
from resetlb.liouville import Superoperator

_log = logging.getLogger(__name__)

STATE_TOL = 1e-8  # validation tolerance for evolved states
PSD_TOL = 1e-9  # tolerance for steady-state positivity
RESIDUAL_TOL = 1e-9


class SteadyStateError(RuntimeError):
    """Null-space solve failed: degenerate or missing steady state."""


# theta_m of Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011), Table 3.1
# (m <= 30 from Higham, Functions of Matrices, Table A.3): the largest
# ||A h||_1 for which m Taylor terms of e^{A h} reach double precision
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


class _ShiftedAction:
    """x -> (R - mu I) x with mu = tr R / D^2: the row-ordered non-zeros of R
    gathered, multiplied and summed per row, the shift applied as a scalar.
    ``norm`` is ||R - mu I||_1."""

    def __init__(self, lam: Superoperator):
        d2 = lam.dim**2
        rows, self.cols = np.divmod(lam.positions, d2)
        self.vals = lam.values
        self.starts = np.flatnonzero(np.diff(rows, prepend=-1))
        # rows without a non-zero get no sum
        self.rows = slice(None) if self.starts.size == d2 else rows[self.starts]
        on_diagonal = rows == self.cols
        diag = np.zeros(d2)
        diag[rows[on_diagonal]] = self.vals[on_diagonal]
        self.mu = float(diag.sum()) / d2
        col_sums = np.bincount(self.cols, np.abs(self.vals), minlength=d2) - np.abs(diag) + np.abs(diag - self.mu)
        self.norm = float(np.max(col_sums))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        y = -self.mu * x
        y[self.rows] += np.add.reduceat(self.vals * x[self.cols], self.starts)
        return y


def _taylor_parameters(norm: float) -> tuple[int, int]:
    """(m, s) with the fewest products m*s for a step h whose ||(R - mu I) h||_1
    is ``norm``: s = ceil(norm / theta_m) sub-steps of at most m Taylor terms
    each; (0, 0), no products, for a zero norm."""
    if norm == 0.0:
        return 0, 0
    return min(((m, math.ceil(norm / theta)) for m, theta in _THETA.items()), key=lambda ms: ms[0] * ms[1])


def _taylor_steps(action: _ShiftedAction, x: np.ndarray, h: float, out: np.ndarray) -> tuple[int, int]:
    """Write e^{R h i} x into ``out[i - 1]`` for every row of ``out``.

    Each step is s sub-steps of the m-term Taylor series of (R - mu I) h / s
    times e^{mu h / s}, a sub-step ending early once two successive terms
    fall below 2^-53 of the sum (Al-Mohy and Higham, Algorithm 3.2).
    Returns (m, s), chosen once for all the steps.
    """
    m, s = _taylor_parameters(action.norm * h)
    subs = max(s, 1)  # a zero norm: one sub-step of no terms
    eta = math.exp(action.mu * h / subs)
    for row in out:
        for _ in range(subs):
            term, c1 = x, np.abs(x).max()
            for j in range(1, m + 1):
                term = action(term) * (h / (s * j))
                c2 = np.abs(term).max()
                x = x + term
                if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(x).max():
                    break
                c1 = c2
            x = eta * x
        row[:] = x
    return m, s


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """States on a time grid, the smallest eigenvalue of each (from its
    validation), and the Richardson error estimate of the largest step (one
    step against two half steps, taken on that step's start vector).

    ``error_estimate`` is computed on first read and cached.  Until the
    result is dropped it keeps the generator's action and one real start
    vector of D^2 floats.
    """

    times: np.ndarray
    states: tuple[qop.DensityMatrix, ...]
    min_eigenvalues: np.ndarray
    _action: _ShiftedAction = field(repr=False)
    _dt_max: float = field(repr=False)
    _start: np.ndarray | None = field(repr=False)

    @functools.cached_property
    def error_estimate(self) -> float:
        """max |e^{R dt/2} e^{R dt/2} x - e^{R dt} x| for the largest step
        dt and its start vector x; 0.0 when the grid takes no step."""
        if self._start is None:
            return 0.0
        half, twice, full = np.empty((3, self._start.size))
        _taylor_steps(self._action, self._start, self._dt_max / 2.0, half[None])
        _taylor_steps(self._action, half, self._dt_max / 2.0, twice[None])
        _taylor_steps(self._action, self._start, self._dt_max, full[None])
        return float(np.max(np.abs(twice - full)))

    def negativities(self, part=(0,)) -> np.ndarray:
        return negativity(np.stack([st.matrix for st in self.states]), part)


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    """Eigenvalues grouped within ``grouping_tol``, sorted by real part
    descending; multiplicities sum to D^2."""

    eigenvalues: tuple[complex, ...]
    multiplicities: tuple[int, ...]
    grouping_tol: float
    raw: np.ndarray

    def __post_init__(self):
        if sum(self.multiplicities) != self.raw.size:
            raise ValueError("multiplicities do not sum to the matrix dimension")
        max_re = max(ev.real for ev in self.eigenvalues)
        if max_re > self.grouping_tol:
            raise ValueError(f"unstable spectrum: max real part {max_re:.3e}")


def evolve(lam: Superoperator, rho0: qop.DensityMatrix, times) -> EvolutionResult:
    """Propagate rho0 through the grid by the action of expm(R t).

    Each run of equal steps is one :func:`_taylor_steps` call, whose
    truncated Taylor series (Al-Mohy and Higham) needs only products with
    the non-zeros of R; a zero step repeats the state.  The local error is
    at double precision, far below the 1e-10 contract; the result's
    ``error_estimate`` is a Richardson comparison of the largest step,
    computed on first read.  The states are validated as one stack, whose
    spectra give ``min_eigenvalues``.  With DEBUG enabled on this module's
    logger, each call reads the estimate and logs D^2, the number of runs,
    the (m, s) of each run and the estimate.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing and non-negative")
    if rho0.dim != lam.dim:
        raise ValueError("dimension mismatch between state and generator")

    action = _ShiftedAction(lam)
    edges = np.concatenate(([0.0], times))
    steps = np.diff(edges)
    x = qop.to_real(rho0.matrix)
    vectors = np.empty((times.size, x.size))
    taylor = []
    dt_max, start = 0.0, None
    k = 0
    while k < steps.size:
        dt, end = steps[k], k + 1
        if dt == 0:
            vectors[k] = x
        else:
            # ulp-level grid jitter does not end a run
            while end < steps.size and abs(steps[end] - dt) <= 1e-12 * dt:
                end += 1
            if dt > dt_max:
                dt_max, start = dt, x
            taylor.append(_taylor_steps(action, x, (edges[end] - edges[k]) / (end - k), vectors[k:end]))
            x = vectors[end - 1]
        k = end

    states, spectra = qop.states_from_real(vectors, tol=STATE_TOL)
    # a copy, since a row of ``vectors`` would keep them all alive
    result = EvolutionResult(times, states, spectra[:, 0], action, dt_max, None if start is None else np.array(start))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "evolve: D^2=%d runs=%d (m, s)=%s error_estimate=%.3e",
            x.size, len(taylor), taylor, result.error_estimate,
        )
    return result


def steady_state(lam: Superoperator) -> qop.DensityMatrix:
    """Unique null vector of the Liouvillian as a density matrix.

    One path at every D^2: shifted inverse iteration in real coordinates
    with tolerance 1e-10 times ``lam.norm``, the inf-norm of R (a
    spectral-radius bound, since R has the eigenvalues of L), whose solves
    with R - tol*I go block by block down R's block-triangular form (one
    block, the whole of R, when D^2 <= 64 or the pattern is strongly
    connected).  A zero generator, no eigenvalue or two within tolerance of
    zero raise :class:`SteadyStateError`, also when the null vectors sit in
    different blocks.  The state is Hermitian by construction and
    trace-normalized after the solve; its residual ||L rho|| is
    ||R x|| / |tr rho| over every stored non-zero of R, since the block
    layout is checked to hold them all.  A positivity failure beyond 1e-9 is
    an error, not clipped, since it would mask an assembly bug.  Each solve
    logs D^2, tol, residual, null gap, the number of diagonal blocks, the
    largest block and the number of blocks factored by LAPACK at DEBUG,
    after the number of stored non-zeros.
    """
    d2 = lam.dim**2
    if lam.norm == 0.0:
        raise SteadyStateError(f"degenerate null space: zero generator, all {d2} eigenvalues are 0")
    tol = 1e-10 * lam.norm
    x, rx, gap, blocks = _inverse_iteration(lam, tol)
    rho = qop.from_real(x)
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise SteadyStateError("null vector is traceless; not a state")
    rho = rho / tr
    residual = float(np.linalg.norm(rx)) / abs(tr)
    _log.debug(
        "steady state: D^2=%d nnz=%d tol=%.3e residual=%.3e null_gap=%.3e blocks=%d largest_block=%d lapack_blocks=%d",
        d2, lam.values.size, tol, residual, gap,
        len(blocks), max(blocks), sum(size > _NUMPY_MAX_BLOCK for size in blocks),
    )
    if residual > max(RESIDUAL_TOL, 10 * tol):
        raise SteadyStateError(f"steady-state residual {residual:.3e} too large")
    try:
        return qop.validate_density(rho, tol=PSD_TOL)
    except qop.DensityMatrixError as exc:
        raise SteadyStateError(f"steady state failed validation: {exc}") from exc


@functools.lru_cache(maxsize=8)
def _start_block(d2: int) -> np.ndarray:
    """Read-only real (D^2, 2) start block: vec(I)/sqrt(D^2) and a seed-0
    random vector.  Cached: drawing it is a large share of a D^2 = 16 solve."""
    rng = np.random.default_rng(0)
    block = np.empty((d2, 2))
    block[:, 0] = qop.vec(np.eye(int(round(np.sqrt(d2))))) / np.sqrt(d2)
    block[:, 1] = rng.standard_normal(d2)
    block.setflags(write=False)
    return block


_MIN_BLOCK = 64  # coordinates; smaller consecutive components share one LU
# coordinates; a larger diagonal block keeps one LAPACK LU for all rounds, a
# smaller one is solved afresh by np.linalg.solve in each round, which costs
# no more at this size and needs no scipy (every gas block up to n = 6 is 64)
_NUMPY_MAX_BLOCK = 128


@dataclass(frozen=True, eq=False)
class _Block:
    """A diagonal block of R in block-triangular order: its coordinates
    ``idx``, ascending (``slice(None)`` when the block is all of R); the
    stored non-zeros inside it, ``inside``, as indices into R's values, at
    block-local row-major positions ``local`` (``None`` when the block is
    all of R: R's own positions); and those left of it,
    ``left``, with their columns ``cols`` and the block-local row and start
    of each run of equal rows among them, ``runs`` and ``starts``, as
    ``np.add.reduceat`` takes them."""

    idx: np.ndarray | slice
    inside: np.ndarray | slice
    local: np.ndarray | None
    left: np.ndarray
    cols: np.ndarray
    runs: np.ndarray
    starts: np.ndarray


_NONE = np.zeros(0, dtype=np.intp)
_ONE_BLOCK = (_Block(slice(None), slice(None), None, _NONE, _NONE, _NONE, _NONE),)


def _triangular_blocks(positions: np.ndarray, d2: int) -> tuple[_Block, ...]:
    """The diagonal blocks of the D^2 x D^2 pattern of row-major non-zero
    ``positions`` in an order of its coordinates under which it is block
    lower triangular, from the strong components of the pattern (Tarjan,
    SIAM J. Comput. 1, 146 (1972)).  A pattern of at most ``_MIN_BLOCK``
    coordinates, or one whose first row and column are full (every
    coordinate then reaches and is reached from the first: one component,
    as in every thermal R), is one block, found without a search."""
    if d2 <= _MIN_BLOCK:
        return _ONE_BLOCK
    column = np.arange(0, d2 * d2, d2)  # column 0 of every row
    row_full = positions.size >= d2 and positions[d2 - 1] == d2 - 1
    if row_full and np.array_equal(positions.take(np.searchsorted(positions, column), mode="clip"), column):
        return _ONE_BLOCK
    return _pattern_blocks(d2, positions.tobytes())


def _strong_components(rows: np.ndarray, cols: np.ndarray, d2: int) -> np.ndarray:
    """Strong-component label of each of the ``d2`` vertices of the digraph
    with an edge i -> j for each non-zero (i, j) = (rows[k], cols[k]), the
    non-zeros in row order: Tarjan's algorithm with an explicit stack, so
    no depth of the graph reaches Python's recursion limit."""
    ends = np.searchsorted(rows, np.arange(d2 + 1)).tolist()
    succ = cols.tolist()
    index, low, comp = [-1] * d2, [0] * d2, [-1] * d2
    visited, n_comp, found = 0, 0, []
    for root in range(d2):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        found.append(root)
        path = [[root, ends[root]]]  # each vertex on the search path and its next edge
        while path:
            v, e = path[-1]
            if e < ends[v + 1]:
                path[-1][1] = e + 1
                w = succ[e]
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    found.append(w)
                    path.append([w, ends[w]])
                elif comp[w] < 0:  # w is still on the component stack
                    low[v] = min(low[v], index[w])
                continue
            path.pop()
            if path:
                u = path[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                while True:
                    w = found.pop()
                    comp[w] = n_comp
                    if w == v:
                        break
                n_comp += 1
    return np.array(comp, dtype=np.intp)


@functools.lru_cache(maxsize=8)
def _pattern_blocks(d2: int, pattern: bytes) -> tuple[_Block, ...]:
    """:func:`_triangular_blocks` of the row-major non-zero positions in
    ``pattern``, as bytes.  Cached: it depends on the pattern only, which a
    sweep over rates keeps.

    An edge j -> i stands for R[i, j] != 0.  The components go in a
    topological order of their condensation, so every non-zero sits in or
    left of a diagonal block; consecutive components are merged into
    blocks of at least ``_MIN_BLOCK`` coordinates.  A layout that leaves a
    non-zero out of its blocks raises :class:`SteadyStateError`."""
    import graphlib

    positions = np.frombuffer(pattern, dtype=np.intp)
    rows, cols = np.divmod(positions, d2)
    # the reversed edges i -> j give the same components
    comp = _strong_components(rows, cols, d2)
    n_comp = int(comp.max()) + 1
    preds: dict[int, set[int]] = {c: set() for c in range(n_comp)}
    for src, dst in zip(comp[cols].tolist(), comp[rows].tolist()):
        if src != dst:
            preds[dst].add(src)
    sizes = np.bincount(comp)
    block_of = np.empty(n_comp, dtype=np.intp)
    last, filled = 0, 0
    for c in graphlib.TopologicalSorter(preds).static_order():
        if filled >= _MIN_BLOCK:
            last, filled = last + 1, 0
        block_of[c], filled = last, filled + sizes[c]
    if last == 0:
        return _ONE_BLOCK
    coord_block = block_of[comp]
    row_block, col_block = coord_block[rows], coord_block[cols]
    local = np.empty(d2, dtype=np.intp)
    blocks = []
    for k in range(last + 1):
        idx = np.flatnonzero(coord_block == k)
        local[idx] = np.arange(idx.size)
        inside = np.flatnonzero((row_block == k) & (col_block == k))
        left = np.flatnonzero((row_block == k) & (col_block < k))  # in row order
        starts = np.flatnonzero(np.diff(rows[left], prepend=-1))
        at = local[rows[inside]] * idx.size + local[cols[inside]]
        blocks.append(_Block(idx, inside, at, left, cols[left], local[rows[left][starts]], starts))
    # the solves and R x read only these non-zeros: any other would sit right
    # of a diagonal block, which a wrong order or partition puts there
    missed = positions.size - sum(blk.inside.size + blk.left.size for blk in blocks)
    if missed:
        raise SteadyStateError(f"block layout leaves {missed} non-zeros of R above its diagonal blocks")
    return tuple(blocks)


def _inverse_iteration(lam: Superoperator, tol: float) -> tuple[np.ndarray, np.ndarray, float, list[int]]:
    """Shifted inverse iteration on R targeting 0 from :func:`_start_block`;
    returns the null vector x, R x, the null gap |theta_2|, whose falling
    within ``tol`` marks a degenerate null space, and the sizes of the
    diagonal blocks.

    Each diagonal block of :func:`_triangular_blocks` is scattered from its
    own non-zeros, and each solve with R - tol*I is a forward substitution
    over them.  A block of at most ``_NUMPY_MAX_BLOCK`` coordinates is
    solved by ``np.linalg.solve`` on both columns in each round; a larger
    one is factored once by LAPACK's ``getrf``, the only use of scipy here.
    The Rayleigh quotients and R x are products block by block: the dense
    diagonal block times its coordinates plus its left non-zeros gathered.
    An exactly singular block, or a solve that overflows, raises
    :class:`SteadyStateError`."""
    d2 = lam.dim**2
    singular = f"inverse iteration overflowed: L - {tol:.2e} I is numerically singular"
    factors, sizes = [], []
    for blk in _triangular_blocks(lam.positions, d2):
        size = d2 if isinstance(blk.idx, slice) else blk.idx.size
        values = lam.values[blk.inside]
        if values.size == size * size:  # a full block: its values in row-major order
            dense = values.reshape(size, size)
        else:
            dense = np.zeros((size, size))
            dense.reshape(-1)[lam.positions if blk.local is None else blk.local] = values
        shifted = np.array(dense)
        shifted[np.diag_indices(size)] -= tol
        sizes.append(size)
        lu = None
        if size > _NUMPY_MAX_BLOCK:
            import scipy.linalg

            # lu_factor/lu_solve's LAPACK calls minus their wrapper cost; an
            # exactly zero pivot shows up as the non-finite check below
            getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (shifted,))
            lu, shifted = getrf(shifted, overwrite_a=True)[:2], None
        factors.append((blk, dense, shifted, lu, lam.values[blk.left][:, None] if blk.left.size else None))

    def product(v: np.ndarray) -> np.ndarray:
        """R v for a (D^2, k) block v."""
        out = np.empty_like(v)
        for blk, dense, _, _, vals in factors:
            part = dense @ v[blk.idx]
            if vals is not None:
                part[blk.runs] += np.add.reduceat(vals * v[blk.cols], blk.starts)
            out[blk.idx] = part
        return out

    block = _start_block(d2)
    for _ in range(3):
        solved = np.empty((d2, 2))
        for blk, _, shifted, lu, vals in factors:
            rhs = block[blk.idx]
            if vals is not None:
                rhs[blk.runs] -= np.add.reduceat(vals * solved[blk.cols], blk.starts)
            if lu is not None:  # one getrs per column: a two-column call rounds differently
                solved[blk.idx] = np.column_stack([getrs(*lu, col)[0] for col in rhs.T])
                continue
            try:
                solved[blk.idx] = np.linalg.solve(shifted, rhs)
            except np.linalg.LinAlgError as exc:
                raise SteadyStateError(singular) from exc
        if not np.all(np.isfinite(solved)):
            raise SteadyStateError(singular)
        block, _ = np.linalg.qr(solved)
    # Rayleigh quotients on the iterated subspace; a complex pair has equal
    # moduli, so it is refused below before its eigenvector is used
    small = block.T @ product(block)
    theta, y = np.linalg.eig(small)
    order = np.argsort(np.abs(theta))
    gap = float(abs(theta[order[1]]))
    if abs(theta[order[0]]) > tol:
        raise SteadyStateError("no eigenvalue within tolerance of zero")
    if gap <= tol:
        raise SteadyStateError(f"degenerate null space: null gap {gap:.2e} within {tol:.2e} of zero")
    x = block @ y[:, order[0]]
    return x, product(x[:, None])[:, 0], gap, sizes


def spectrum(lam: Superoperator, grouping_tol: float = 1e-8) -> SpectrumReport:
    """Full Liouvillian spectrum with eigenvalues grouped within tolerance."""
    evals = np.linalg.eigvals(lam.matrix)  # R has the eigenvalues of L
    order = np.lexsort((evals.imag, evals.real))
    reps: list[complex] = []
    members: list[list[complex]] = []
    for ev in evals[order]:
        if reps:
            dists = np.abs(np.array(reps) - ev)
            k = int(np.argmin(dists))
            if dists[k] <= grouping_tol:
                members[k].append(ev)
                reps[k] = complex(np.mean(members[k]))
                continue
        reps.append(complex(ev))
        members.append([complex(ev)])
    order2 = np.argsort([-r.real for r in reps], kind="stable")
    return SpectrumReport(
        eigenvalues=tuple(reps[i] for i in order2),
        multiplicities=tuple(len(members[i]) for i in order2),
        grouping_tol=grouping_tol,
        raw=evals,
    )


def entangling_profile(
    lam_no_reset: Superoperator,
    rho_reset: qop.DensityMatrix,
    t_grid,
    part=(0,),
) -> list[tuple[float, float]]:
    """Negativity of the reset state evolved WITHOUT reset, per grid time.

    Feeding the result to :func:`entangled_reset_window` predicts the reset
    rates r for which the full master equation has an entangled steady
    state, via the intersection with t = c / r.
    """
    result = evolve(lam_no_reset, rho_reset, t_grid)
    negs = result.negativities(part)
    return [(float(t), float(nv)) for t, nv in zip(result.times, negs)]


def entangled_reset_window(
    profile: list[tuple[float, float]],
    c: float = 2.0,
    threshold: float = 1e-6,
) -> tuple[float, float] | None:
    """Map the entangled t-window of a profile to an r-window via r = c / t."""
    ts = [t for t, nv in profile if nv > threshold and t > 0]
    if not ts:
        return None
    return (c / max(ts), c / min(ts))
