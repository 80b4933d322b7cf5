"""Monte Carlo lattice spin gas with qubit exchange.

Classical particles carry qubits and perform a lazy random walk on a
periodic lattice; particles sharing a site interact through diagonal
phase gates (phase per step of contact: ``psi`` between the two system
qubits, ``phi`` for any pair involving an environment qubit).  Because
every qubit starts in |+> and all gates are diagonal, a run is a weighted
graph state described entirely by its symmetric phase matrix, and reduced
states follow from an exact formula.

Kinematics (fixed by design, not configurable):

* A particle alone on its site stays with probability 0.2, otherwise hops
  to one of the four neighbours.  The stay option is required: with
  simultaneous hopping on an even-sized torus the parity of a pair's
  separation would be conserved and adjacent particles could never meet.
* Particles sharing a site form a transient collision complex: each
  escapes with probability 0.02 per step, otherwise stays put.  The long
  dwell time spreads the accumulated pair phase over many turns, so no
  coherent phase survives ensemble averaging on long runs; together with
  environment collisions this drives the zero-exchange ensemble separable
  once the run is long enough for the environment phases to reach order
  one.
* System qubits are exchanged for fresh |+> qubits at the end of a step
  (after collisions) with independent probability ``exchange_prob``; the
  fresh qubit inherits the lattice position.  End-of-step exchange makes
  ``exchange_prob = 1`` leave the pair in exactly |++> at readout.

Randomness: each run consumes, in order, ``n_env * 2`` uniforms for the
initial environment positions and then ``n_particles + 2`` uniforms per
step (moves, then the two exchange decisions).  Per-run streams are
spawned from ``SeedSequence(config.seed)``, so ensembles are reproducible
and independent of execution order.  The ensemble draws each run's
uniforms in chunks of steps; PCG64 spends one 64-bit draw per double, so
consecutive chunks continue the same stream as a single draw would, and
the memory held for uniforms does not grow with ``steps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from resetlb import qop

LAZY_STAY_PROB = 0.2
COMPLEX_ESCAPE_PROB = 0.02
_DROW = np.array([1, -1, 0, 0])
_DCOL = np.array([0, 0, 1, -1])
_DRAW_BYTES = 4 * 2**20  # uniforms held at once by _compact_ensemble, all runs


@dataclass(frozen=True)
class GasConfig:
    """Lattice gas parameters; the system always holds two special qubits."""

    lattice: tuple[int, int]
    n_env: int
    psi: float
    phi: float
    exchange_prob: float
    steps: int
    seed: int

    def __post_init__(self):
        rows, cols = self.lattice
        if rows < 2 or cols < 2:
            raise ValueError("lattice dimensions must be at least 2")
        if not 0 <= self.exchange_prob <= 1:
            raise ValueError("exchange_prob must lie in [0, 1]")
        if not (np.isfinite(self.psi) and np.isfinite(self.phi)):
            raise ValueError("interaction phases must be finite")
        if self.n_env < 0 or self.steps < 0:
            raise ValueError("n_env and steps must be non-negative")

    @property
    def n_particles(self) -> int:
        return 2 + self.n_env


class PhaseMatrix:
    """Symmetric accumulated-phase matrix over all qubits that ever existed.

    Rows of retired qubits are kept frozen: a retired qubit keeps damping
    the system through the phases it accumulated while alive.
    """

    def __init__(self, n_initial: int):
        self._cap = max(4, 2 * n_initial)
        self._phases = np.zeros((self._cap, self._cap))
        self.n_qubits = n_initial
        self.active = [True] * n_initial

    @property
    def phases(self) -> np.ndarray:
        return self._phases[: self.n_qubits, : self.n_qubits]

    def add_phase(self, i: int, j: int, phase: float) -> None:
        if i == j:
            raise ValueError("no self-interaction phases")
        if not (self.active[i] and self.active[j]):
            raise ValueError("retired qubits accumulate no phase")
        self._phases[i, j] += phase
        self._phases[j, i] += phase

    def grow(self) -> int:
        """Append a fresh qubit with all-zero phases; returns its id."""
        if self.n_qubits == self._cap:
            bigger = np.zeros((2 * self._cap, 2 * self._cap))
            bigger[: self._cap, : self._cap] = self._phases
            self._phases = bigger
            self._cap *= 2
        self.active.append(True)
        self.n_qubits += 1
        return self.n_qubits - 1

    def retire(self, i: int) -> None:
        self.active[i] = False


@dataclass
class SpinGasState:
    """Mutable per-run simulation state.

    ``positions`` has one row per physical particle slot: slots 0 and 1
    hold the current system qubits (``system_ids`` maps them to qubit ids
    in the phase matrix), the rest are environment particles with fixed
    qubit ids 2 .. n_env + 1.
    """

    config: GasConfig
    pm: PhaseMatrix
    positions: np.ndarray
    system_ids: list[int]


def new_state(config: GasConfig, rng: np.random.Generator) -> SpinGasState:
    """Fresh gas: system qubits on adjacent sites, environment uniform."""
    rows, cols = config.lattice
    pos = np.zeros((config.n_particles, 2), dtype=np.int64)
    pos[0] = (0, 0)
    pos[1] = (0, 1 % cols)
    if config.n_env:
        u = rng.random((config.n_env, 2))
        pos[2:, 0] = np.floor(u[:, 0] * rows).astype(np.int64)
        pos[2:, 1] = np.floor(u[:, 1] * cols).astype(np.int64)
    return SpinGasState(
        config=config,
        pm=PhaseMatrix(config.n_particles),
        positions=pos,
        system_ids=[0, 1],
    )


def _neighbour_table(lattice) -> np.ndarray:
    """``nbr[site, code]``: the site a particle on flat site
    ``row * cols + col`` moves to.  Codes 0 and 5 stay; code ``c`` in 1..4
    hops by ``(_DROW[c - 1], _DCOL[c - 1])``.
    """
    rows, cols = lattice
    here = np.arange(rows * cols)
    row, col = np.divmod(here, cols)
    nbr = np.empty((rows * cols, 6), dtype=np.intp)
    nbr[:, 0] = nbr[:, 5] = here
    nbr[:, 1:5] = (row[:, None] + _DROW) % rows * cols + (col[:, None] + _DCOL) % cols
    return nbr


def _move_codes(u: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Int8 move codes shaped like ``u``: (particle alone on its site,
    particle in a collision complex).  ``out`` is optional float scratch.

    The floats are the move rules' own expressions, ``(u - 0.2) / 0.2`` and
    ``u / 0.02 * 4``.  The first is negative exactly when ``u < 0.2`` and
    floors to -1 there, so a lone particle gets code 0 (stay) or 1 plus its
    direction.  The second reaches 4 exactly when ``u >= 0.02`` (division is
    monotone and 0.02 / 0.02 is 1), so capped at 4 it gives a complex member
    1 plus its escape direction, or code 5 (stay).
    """
    x = np.subtract(u, LAZY_STAY_PROB, out=out)
    x /= LAZY_STAY_PROB
    np.floor(x, out=x)
    np.minimum(x, 3, out=x)
    free = x.astype(np.int8)
    np.divide(u, COMPLEX_ESCAPE_PROB, out=x)
    x *= 4
    np.minimum(x, 4, out=x)
    stuck = x.astype(np.int8)
    free += 1
    stuck += 1
    return free, stuck


def _move_sites(site: np.ndarray, free: np.ndarray, stuck: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """One move of every particle; ``site`` is (runs, n_particles).

    A particle is in a collision complex when another particle of its run
    occupies its site; it then follows its ``stuck`` code, else its ``free``
    code.  Shared sites are counted with one ``bincount`` over run-offset
    keys, so the cost is linear in particles and lattice sites per run.
    """
    n_sites, n_codes = nbr.shape
    keys = site + n_sites * np.arange(site.shape[0])[:, None]
    shared = np.bincount(keys.ravel())[keys] > 1
    code = free + shared * (stuck - free)
    return np.take(nbr, site * n_codes + code)


def step(state: SpinGasState, rng: np.random.Generator) -> SpinGasState:
    """One time step: moves, pairwise collision phases, then exchanges."""
    cfg = state.config
    _, cols = cfg.lattice
    u = rng.random(cfg.n_particles + 2)
    free, stuck = _move_codes(u[None, : cfg.n_particles])
    site = state.positions[:, 0] * cols + state.positions[:, 1]
    site = _move_sites(site[None], free, stuck, _neighbour_table(cfg.lattice))[0]
    state.positions[:, 0], state.positions[:, 1] = np.divmod(site, cols)
    slot_qubit = state.system_ids + list(range(2, cfg.n_particles))
    for a in range(cfg.n_particles):
        for b in range(a + 1, cfg.n_particles):
            if site[a] != site[b]:
                continue
            both_system = a < 2 and b < 2
            state.pm.add_phase(
                slot_qubit[a], slot_qubit[b], cfg.psi if both_system else cfg.phi
            )
    for s in (0, 1):
        if u[cfg.n_particles + s] < cfg.exchange_prob:
            exchange(state, s)
    return state


def exchange(state: SpinGasState, which_system_qubit: int) -> SpinGasState:
    """Replace a system qubit by a fresh |+> qubit at the same position."""
    if which_system_qubit not in (0, 1):
        raise ValueError("which_system_qubit must be 0 or 1")
    old = state.system_ids[which_system_qubit]
    state.pm.retire(old)
    state.system_ids[which_system_qubit] = state.pm.grow()
    return state


def reduced_density(pm: PhaseMatrix, subset) -> qop.DensityMatrix:
    """Exact reduced state of the weighted graph state on ``subset``.

    For basis configurations s, s' of the subset the matrix element is
    ``2^-|A| exp(i[theta(s) - theta(s')]) prod_k (1 + exp(i Delta_k))/2``
    with theta the internal pair phases and ``Delta_k`` the phase qubit k
    outside the subset picked up against the differing subset bits.
    Phases between two traced-out qubits cancel exactly and never enter.
    """
    subset = list(subset)
    a = len(subset)
    if a == 0:
        raise ValueError("subset must be non-empty")
    if a > 4:
        raise ValueError("reduction supported for at most 4 qubits")
    phases = pm.phases
    others = [k for k in range(pm.n_qubits) if k not in subset]
    bits = ((np.arange(2**a)[:, None] >> np.arange(a - 1, -1, -1)) & 1).astype(float)
    inner = phases[np.ix_(subset, subset)]
    theta = 0.5 * np.einsum("si,ij,sj->s", bits, inner, bits)  # i<j pairs once
    cross = phases[np.ix_(others, subset)]  # (n_out, a)
    diff = bits[:, None, :] - bits[None, :, :]  # (2^a, 2^a, a)
    delta = np.einsum("abj,kj->abk", diff, cross)
    damp = np.prod((1.0 + np.exp(1j * delta)) / 2.0, axis=-1) if others else 1.0
    rho = (2.0**-a) * np.exp(1j * (theta[:, None] - theta[None, :])) * damp
    return qop.validate_density(rho, tol=1e-12)


def simulate_run(config: GasConfig, rng: np.random.Generator) -> qop.DensityMatrix:
    """Reference single run: full phase-matrix bookkeeping."""
    state = new_state(config, rng)
    for _ in range(config.steps):
        step(state, rng)
    return reduced_density(state.pm, state.system_ids)


@dataclass(frozen=True)
class EnsembleResult:
    """Averaged reduced pair state of an ensemble of runs."""

    mean_state: qop.DensityMatrix
    negativity: float
    per_run: np.ndarray  # (n_runs, 4, 4)
    n_runs: int
    seed: int


def run_ensemble(config: GasConfig, n_runs: int) -> EnsembleResult:
    """Deterministic ensemble average over ``n_runs`` independent runs.

    Uses a compact per-run representation (current pair phase, live
    environment phases, and running products of retired-qubit damping
    factors) that is exactly equivalent to the full phase matrix; runs are
    propagated together as array rows.  Uniforms are drawn per run in
    chunks of steps (about ``_DRAW_BYTES`` for all runs together) from the
    same streams ``simulate_run`` reads, so memory is independent of
    ``steps``.  Per-run matrices are summed in run order, so results are
    bit-stable for a given (config, n_runs).
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    rho_runs = _compact_ensemble(config, n_runs)
    mean = rho_runs.mean(axis=0)
    from resetlb.entanglement import negativity as _neg

    state = qop.validate_density(mean, tol=1e-9)
    return EnsembleResult(
        mean_state=state,
        negativity=_neg(state, (0,)),
        per_run=rho_runs,
        n_runs=n_runs,
        seed=config.seed,
    )


def _chunk_steps(n_runs: int, n_particles: int) -> int:
    """Steps per chunk of uniforms drawn at once by ``_compact_ensemble``."""
    return max(1, _DRAW_BYTES // (8 * n_runs * (n_particles + 2)))


def _compact_ensemble(config: GasConfig, n_runs: int) -> np.ndarray:
    cfg = config
    rows, cols = cfg.lattice
    n_p = cfg.n_particles
    rngs = []
    site = np.zeros((n_runs, n_p), dtype=np.intp)
    site[:, 1] = 1 % cols
    for rid, ss in enumerate(np.random.SeedSequence(cfg.seed).spawn(n_runs)):
        rng = np.random.Generator(np.random.PCG64(ss))
        if cfg.n_env:
            u0 = rng.random((cfg.n_env, 2))
            site[rid, 2:] = (
                np.floor(u0[:, 0] * rows).astype(np.intp) * cols
                + np.floor(u0[:, 1] * cols).astype(np.intp)
            )
        rngs.append(rng)

    nbr = _neighbour_table(cfg.lattice)
    theta = np.zeros(n_runs)
    env = np.zeros((2, n_runs, cfg.n_env))
    damp = np.ones((n_runs, 2), dtype=complex)
    chunk = _chunk_steps(n_runs, n_p)
    # run-major, so each run's draw fills its block in place; the move codes
    # come out step-major, so every step reads contiguous rows
    u = np.empty((n_runs, min(chunk, cfg.steps), n_p + 2))
    scratch = np.empty((min(chunk, cfg.steps), n_runs, n_p))

    for t0 in range(0, cfg.steps, chunk):
        k = min(chunk, cfg.steps - t0)
        for rid, rng in enumerate(rngs):
            rng.random(out=u[rid, :k])
        by_step = u[:, :k].transpose(1, 0, 2)
        free, stuck = _move_codes(by_step[..., :n_p], scratch[:k])
        exchanged = by_step[..., n_p:] < cfg.exchange_prob
        for t in range(k):
            site = _move_sites(site, free[t], stuck[t], nbr)
            theta += cfg.psi * (site[:, 0] == site[:, 1])
            if cfg.n_env:
                for s in (0, 1):
                    env[s] += cfg.phi * (site[:, 2:] == site[:, s : s + 1])

            for s in (0, 1):
                idx = np.flatnonzero(exchanged[t, :, s])
                if not idx.size:
                    continue
                damp[idx, 1 - s] *= (1.0 + np.exp(1j * theta[idx])) / 2.0
                theta[idx] = 0.0
                env[s, idx] = 0.0
                damp[idx, s] = 1.0

    return _compact_reduced(theta, env, damp)


def _compact_reduced(theta, env, damp) -> np.ndarray:
    """Per-run reduced pair matrices from the compact representation
    (``env`` is (2, runs, n_env): each system qubit's environment phases)."""
    n_runs = theta.shape[0]
    rho = np.empty((n_runs, 4, 4), dtype=complex)
    bits = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    for a in range(4):
        for b in range(4):
            d1 = bits[a, 0] - bits[b, 0]
            d2 = bits[a, 1] - bits[b, 1]
            val = 0.25 * np.exp(1j * theta * (bits[a, 0] * bits[a, 1] - bits[b, 0] * bits[b, 1]))
            for s, d in ((0, d1), (1, d2)):
                if d == 1:
                    val = val * damp[:, s]
                elif d == -1:
                    val = val * np.conj(damp[:, s])
            if env.shape[2]:
                delta = env[0] * d1 + env[1] * d2
                val = val * np.prod((1.0 + np.exp(1j * delta)) / 2.0, axis=1)
            rho[:, a, b] = val
    return rho


def bootstrap_stderr(per_run: np.ndarray, n_boot: int = 200, seed: int = 0) -> float:
    """Run-level bootstrap standard error of the negativity of the mean."""
    from resetlb.entanglement import negativity as _neg

    rng = np.random.default_rng(seed)
    n_runs = per_run.shape[0]
    vals = np.empty(n_boot)
    for k in range(n_boot):
        idx = rng.integers(0, n_runs, n_runs)
        mean = per_run[idx].mean(axis=0)
        mean = (mean + mean.conj().transpose()) / 2.0
        vals[k] = _neg(mean, (0,))
    return float(vals.std(ddof=1))
