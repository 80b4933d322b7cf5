"""Time evolution, steady states and spectra of Liouvillian generators.

Every :class:`Superoperator` holds the real generator R, which acts on
:func:`qop.to_real` coordinates and has the eigenvalues of the complex
Liouvillian L, so the solvers use ``lam.matrix`` as it is.  Propagators
are ``expm`` of R; the Richardson error estimate of :func:`evolve` costs
one more ``expm`` and is computed only when it is read.  Steady states
come from shifted inverse iteration on R - tol*I with a two-vector block
whose second Rayleigh quotient tests the null space for degeneracy; tol
is 1e-10 times ``lam.norm``.  scipy is imported where it is used.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from resetlb import qop
from resetlb.liouville import Superoperator

_log = logging.getLogger(__name__)

STATE_TOL = 1e-8  # validation tolerance for evolved states
PSD_TOL = 1e-9  # tolerance for steady-state positivity
RESIDUAL_TOL = 1e-9


class SteadyStateError(RuntimeError):
    """Null-space solve failed: degenerate or missing steady state."""


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """States on a time grid plus the error estimate of the largest
    propagator (one step against two half steps).

    ``error_estimate`` is computed on first read and cached.  The generator
    is the one ``lam`` holds, so until the result is dropped its only extra
    D^2 x D^2 array is the largest step's propagator, 8 * D^4 bytes.
    """

    times: np.ndarray
    states: tuple[qop.DensityMatrix, ...]
    _gen: np.ndarray = field(repr=False)
    _dt_max: float = field(repr=False)
    _largest: np.ndarray | None = field(repr=False)

    @functools.cached_property
    def error_estimate(self) -> float:
        """max |expm(R dt/2)^2 - expm(R dt)| for the largest step dt; 0.0
        when the grid takes no step."""
        if self._largest is None:
            return 0.0
        import scipy.linalg

        half = scipy.linalg.expm(self._gen * (self._dt_max / 2.0))
        return float(np.max(np.abs(half @ half - self._largest)))

    def negativities(self, part=(0,)) -> np.ndarray:
        from resetlb.entanglement import negativity

        return np.array([negativity(st, part) for st in self.states])


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
    """Propagate rho0 through the grid with cached matrix exponentials.

    Each step applies expm(R dt) in real coordinates exactly (to solver
    precision), so the local error per step is far below the 1e-10
    contract; the result's ``error_estimate`` is a Richardson comparison of
    the largest step, computed on first read.  With DEBUG enabled on this
    module's logger, each call reads it and logs D^2, the number of distinct
    steps and the estimate.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D grid")
    if times[0] < 0 or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-decreasing and non-negative")
    if rho0.dim != lam.dim:
        raise ValueError("dimension mismatch between state and generator")
    import scipy.linalg

    gen = lam.matrix
    propagators: dict[float, np.ndarray] = {}

    def propagator(dt: float) -> np.ndarray:
        # snap ulp-level grid jitter onto a cached step size
        for key in propagators:
            if abs(key - dt) <= 1e-12 * max(key, dt):
                return propagators[key]
        propagators[dt] = scipy.linalg.expm(gen * dt)
        return propagators[dt]

    states = []
    x = qop.to_real(rho0.matrix)
    prev_t = 0.0
    for t in times:
        dt = t - prev_t
        if dt > 0:
            x = propagator(dt) @ x
        prev_t = t
        states.append(qop.validate_density(qop.from_real(x), tol=STATE_TOL))

    dt_max = max(propagators, default=0.0)
    result = EvolutionResult(times, tuple(states), gen, dt_max, propagators.get(dt_max))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "evolve: D^2=%d steps=%d error_estimate=%.3e", gen.shape[0], len(propagators), result.error_estimate
        )
    return result


def steady_state(lam: Superoperator) -> qop.DensityMatrix:
    """Unique null vector of the Liouvillian as a density matrix.

    One path at every D^2: shifted inverse iteration in real coordinates
    with tolerance 1e-10 times ``lam.norm``, the inf-norm of R (a
    spectral-radius bound, since R has the eigenvalues of L).  A
    zero generator, no eigenvalue or two within tolerance of zero raise
    :class:`SteadyStateError`.  The state is Hermitian by construction
    and trace-normalized after the solve; its residual ||L rho|| is
    ||R x|| / |tr rho|.  A positivity failure beyond 1e-9 is an error, not
    clipped, since it would mask an assembly bug.  Each solve logs D^2,
    tol, residual and null gap at DEBUG.
    """
    d2 = lam.matrix.shape[0]
    if lam.norm == 0.0:
        raise SteadyStateError(f"degenerate null space: zero generator, all {d2} eigenvalues are 0")
    tol = 1e-10 * lam.norm
    x, gap = _inverse_iteration(lam.matrix, tol)
    rho = qop.from_real(x)
    tr = np.trace(rho).real
    if abs(tr) < 1e-14:
        raise SteadyStateError("null vector is traceless; not a state")
    rho = rho / tr
    residual = float(np.linalg.norm(lam.matrix @ x)) / abs(tr)
    _log.debug("steady state: D^2=%d tol=%.3e residual=%.3e null_gap=%.3e", d2, tol, residual, gap)
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


def _inverse_iteration(mat: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Shifted inverse iteration on the real ``mat`` targeting 0 from
    :func:`_start_block`; returns the null vector and the null gap
    |theta_2|, whose falling within ``tol`` marks a degenerate null space."""
    import scipy.linalg

    d2 = mat.shape[0]
    shifted = np.array(mat)
    shifted[np.diag_indices(d2)] -= tol
    # lu_factor/lu_solve's LAPACK calls minus their wrapper cost, which dominates
    # at D^2 = 16; an exactly zero pivot shows up as the non-finite check below
    getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (shifted,))
    lu, piv, _ = getrf(shifted, overwrite_a=True)
    block = _start_block(d2)
    for _ in range(3):
        # one right-hand side per call: with two BLAS threads a two-column
        # getrs at D^2 = 16 can take milliseconds, two one-column calls microseconds
        block = np.column_stack([getrs(lu, piv, col)[0] for col in block.T])
        if not np.all(np.isfinite(block)):
            raise SteadyStateError(f"inverse iteration overflowed: L - {tol:.2e} I is numerically singular")
        block, _ = np.linalg.qr(block)
    # Rayleigh quotients on the iterated subspace; a complex pair has equal
    # moduli, so it is refused below before its eigenvector is used
    small = block.T @ (mat @ block)
    theta, y = np.linalg.eig(small)
    order = np.argsort(np.abs(theta))
    gap = float(abs(theta[order[1]]))
    if abs(theta[order[0]]) > tol:
        raise SteadyStateError("no eigenvalue within tolerance of zero")
    if gap <= tol:
        raise SteadyStateError(f"degenerate null space: null gap {gap:.2e} within {tol:.2e} of zero")
    return block @ y[:, order[0]], gap


def spectrum(lam: Superoperator, grouping_tol: float = 1e-8) -> SpectrumReport:
    """Full Liouvillian spectrum with eigenvalues grouped within tolerance."""
    import scipy.linalg

    evals = scipy.linalg.eigvals(lam.matrix)  # R has the eigenvalues of L
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
