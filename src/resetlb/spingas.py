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
and independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from resetlb import qop

LAZY_STAY_PROB = 0.2
COMPLEX_ESCAPE_PROB = 0.02
_DROW = np.array([1, -1, 0, 0])
_DCOL = np.array([0, 0, 1, -1])


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


def _move_particles(positions: np.ndarray, u: np.ndarray, lattice) -> None:
    """Move particles in place: ``positions`` is (..., n_particles, 2), ``u`` (..., n_particles)."""
    rows, cols = lattice
    site = positions[..., 0] * cols + positions[..., 1]
    shared = (site[..., :, None] == site[..., None, :]).sum(axis=-1) > 1
    move_free = ~shared & (u >= LAZY_STAY_PROB)
    dir_free = np.minimum(((u - LAZY_STAY_PROB) / LAZY_STAY_PROB).astype(np.int64), 3)
    move_stuck = shared & (u < COMPLEX_ESCAPE_PROB)
    dir_stuck = np.minimum((u / COMPLEX_ESCAPE_PROB * 4).astype(np.int64), 3)
    moving = np.where(shared, move_stuck, move_free)
    direction = np.where(shared, dir_stuck, dir_free)
    positions[..., 0] = (positions[..., 0] + moving * _DROW[direction]) % rows
    positions[..., 1] = (positions[..., 1] + moving * _DCOL[direction]) % cols


def step(state: SpinGasState, rng: np.random.Generator) -> SpinGasState:
    """One time step: moves, pairwise collision phases, then exchanges."""
    cfg = state.config
    u = rng.random(cfg.n_particles + 2)
    _move_particles(state.positions, u[: cfg.n_particles], cfg.lattice)
    _, cols = cfg.lattice
    site = state.positions[:, 0] * cols + state.positions[:, 1]
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
    propagated together as array rows.  Per-run matrices are summed in run
    order, so results are bit-stable for a given (config, n_runs).
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


def _compact_ensemble(config: GasConfig, n_runs: int) -> np.ndarray:
    cfg = config
    rows, cols = cfg.lattice
    n_p = cfg.n_particles
    streams = np.random.SeedSequence(cfg.seed).spawn(n_runs)
    u_all = np.empty((n_runs, cfg.steps, n_p + 2))
    pos = np.zeros((n_runs, n_p, 2), dtype=np.int64)
    pos[:, 1, 1] = 1 % cols
    for rid, ss in enumerate(streams):
        rng = np.random.Generator(np.random.PCG64(ss))
        if cfg.n_env:
            u0 = rng.random((cfg.n_env, 2))
            pos[rid, 2:, 0] = np.floor(u0[:, 0] * rows).astype(np.int64)
            pos[rid, 2:, 1] = np.floor(u0[:, 1] * cols).astype(np.int64)
        if cfg.steps:
            u_all[rid] = rng.random((cfg.steps, n_p + 2))

    theta = np.zeros(n_runs)
    env = np.zeros((n_runs, cfg.n_env, 2))
    damp = np.ones((n_runs, 2), dtype=complex)

    for t in range(cfg.steps):
        _move_particles(pos, u_all[:, t, :n_p], cfg.lattice)
        site = pos[..., 0] * cols + pos[..., 1]
        theta += cfg.psi * (site[:, 0] == site[:, 1])
        if cfg.n_env:
            for s in (0, 1):
                env[:, :, s] += cfg.phi * (site[:, 2:] == site[:, s : s + 1])

        u_ex = u_all[:, t, n_p:]
        for s in (0, 1):
            m = u_ex[:, s] < cfg.exchange_prob
            if not m.any():
                continue
            damp[m, 1 - s] *= (1.0 + np.exp(1j * theta[m])) / 2.0
            theta[m] = 0.0
            if cfg.n_env:
                env[m, :, s] = 0.0
            damp[m, s] = 1.0

    return _compact_reduced(theta, env, damp)


def _compact_reduced(theta, env, damp) -> np.ndarray:
    """Per-run reduced pair matrices from the compact representation."""
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
            if env.shape[1]:
                delta = env[:, :, 0] * d1 + env[:, :, 1] * d2
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
