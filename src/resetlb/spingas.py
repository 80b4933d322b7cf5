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
uniforms in chunks of steps, one ``rng.random`` call per run and chunk;
PCG64 spends one 64-bit draw per double, so consecutive chunks continue
the same stream as a single draw would.  A chunk keeps only int8 move
codes and the exchange uniforms, and its float draws pass through a
buffer for a block of runs at a time, so the memory held for draws
(``_DRAW_BYTES``) grows with neither ``steps`` nor the run count.

Sweep points share their trajectories: configs with the same lattice,
``n_env``, ``steps`` and seed read the same uniforms, and an exchange
leaves the particle where it is, so they see the same moves and contacts.
Only the exchange decisions (``u < exchange_prob`` on the same uniforms)
and the phases ``psi`` and ``phi`` differ.  :func:`run_ensembles` therefore
draws and moves the particles once for all such points and keeps only the
phase bookkeeping per point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from resetlb import qop
from resetlb.entanglement import negativity

LAZY_STAY_PROB = 0.2
COMPLEX_ESCAPE_PROB = 0.02
_DROW = np.array([1, -1, 0, 0])
_DCOL = np.array([0, 0, 1, -1])
# draws held at once by _trajectories: half for a chunk's move codes and
# exchange uniforms (all runs), an eighth for a run block's float uniforms
# and code scratch.  Those only pass through on their way to the codes, and
# a block that fits the CPU cache is no slower than a larger one.
_DRAW_BYTES = 4 * 2**20

_log = logging.getLogger(__name__)


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

    ``sites`` holds the flat site ``row * cols + col`` of each physical
    particle slot: slots 0 and 1 hold the current system qubits
    (``system_ids`` maps them to qubit ids in the phase matrix), the rest
    are environment particles with fixed qubit ids 2 .. n_env + 1.
    """

    config: GasConfig
    pm: PhaseMatrix
    sites: np.ndarray
    system_ids: list[int]


def _initial_sites(config: GasConfig, rng: np.random.Generator) -> np.ndarray:
    """Flat sites of a fresh gas: the system qubits on (0, 0) and (0, 1),
    each environment particle on a uniform site from ``n_env * 2`` uniforms."""
    rows, cols = config.lattice
    site = np.zeros(config.n_particles, dtype=np.intp)
    site[1] = 1
    if config.n_env:
        u = rng.random((config.n_env, 2))
        site[2:] = np.floor(u[:, 0] * rows).astype(np.intp) * cols + np.floor(u[:, 1] * cols).astype(np.intp)
    return site


def new_state(config: GasConfig, rng: np.random.Generator) -> SpinGasState:
    """Fresh gas: system qubits on adjacent sites, environment uniform."""
    return SpinGasState(
        config=config,
        pm=PhaseMatrix(config.n_particles),
        sites=_initial_sites(config, rng),
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
    u = rng.random(cfg.n_particles + 2)
    free, stuck = _move_codes(u[None, : cfg.n_particles])
    state.sites = _move_sites(state.sites[None], free, stuck, _neighbour_table(cfg.lattice))[0]
    slot_qubit = state.system_ids + list(range(2, cfg.n_particles))
    for a in range(cfg.n_particles):
        for b in range(a + 1, cfg.n_particles):
            if state.sites[a] != state.sites[b]:
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


def run_ensemble(config: GasConfig, n_runs: int) -> EnsembleResult:
    """Deterministic ensemble average over ``n_runs`` independent runs.

    Uses a compact per-run representation (pair contacts since the last
    exchange, live environment phases, and running products of
    retired-qubit damping factors) that is exactly equivalent to the full
    phase matrix; runs are propagated together as array rows.  Uniforms
    are drawn per run in chunks of steps (within ``_DRAW_BYTES`` for all
    runs together) from the same streams ``simulate_run`` reads, so memory
    is independent of ``steps``.  Per-run matrices are summed in run
    order, so results are bit-stable for a given (config, n_runs).  Sweep points that differ only
    in ``psi``, ``phi`` or ``exchange_prob`` share their trajectories (see
    the module notes); :func:`run_ensembles` runs them in one pass, and
    this is its one-point case, with the same bits.
    """
    return run_ensembles([config], n_runs)[0]


def run_ensembles(configs, n_runs: int) -> list[EnsembleResult]:
    """:func:`run_ensemble` of every config, in order, with one kinematic
    pass per group of configs that share their trajectories (same lattice,
    ``n_env``, ``steps`` and seed; see the module notes on randomness).
    Per-point arithmetic is that of a single call, so each result is
    bit-identical to ``run_ensemble(config, n_runs)``.
    """
    if n_runs < 1:
        raise ValueError("need at least one run")
    configs = list(configs)
    groups: dict[tuple, list[int]] = {}
    for i, cfg in enumerate(configs):
        groups.setdefault(_kinematic_key(cfg), []).append(i)
    results = {}
    for members in groups.values():
        for i, rho_runs in zip(members, _compact_ensemble([configs[i] for i in members], n_runs)):
            state = qop.validate_density(rho_runs.mean(axis=0), tol=1e-9)
            results[i] = EnsembleResult(mean_state=state, negativity=negativity(state, (0,)), per_run=rho_runs)
    return [results[i] for i in range(len(configs))]


def _kinematic_key(config: GasConfig) -> tuple:
    """What fixes a run's particle trajectories."""
    return tuple(config.lattice), config.n_env, config.steps, config.seed


def _chunk_steps(n_runs: int, n_particles: int) -> int:
    """Steps per chunk of ``_trajectories``: two int8 move codes per
    particle and two float64 exchange uniforms per run and step, within
    half of ``_DRAW_BYTES``."""
    return max(1, _DRAW_BYTES // 2 // (n_runs * (2 * n_particles + 16)))


def _block_runs(n_runs: int, n_particles: int, chunk: int) -> int:
    """Runs drawn at once into ``_trajectories``' float buffer for a chunk
    of ``chunk`` steps: ``n_particles + 2`` uniforms, ``_move_codes``' float
    scratch and its two int8 codes per particle, per run and step, within
    an eighth of ``_DRAW_BYTES``."""
    return min(n_runs, max(1, _DRAW_BYTES // 8 // (chunk * (18 * n_particles + 16))))


def _trajectories(config: GasConfig, n_runs: int, n_points: int):
    """The shared kinematics of every run: yields, step by step, the sites
    after the move (runs, n_particles) and the step's two exchange uniforms
    (2, runs).  Uniforms are drawn per run in chunks of ``_chunk_steps``
    steps, a block of ``_block_runs`` runs at a time, and the buffers go
    with the generator once it is exhausted.  ``n_points``, the sweep
    points the pass serves, only enters the DEBUG record."""
    n_p = config.n_particles
    rngs = [np.random.Generator(np.random.PCG64(ss)) for ss in np.random.SeedSequence(config.seed).spawn(n_runs)]
    site = np.array([_initial_sites(config, rng) for rng in rngs])

    nbr = _neighbour_table(config.lattice)
    chunk = min(_chunk_steps(n_runs, n_p), max(config.steps, 1))
    block = _block_runs(n_runs, n_p, chunk)
    # step-major, so every step reads contiguous rows
    free = np.empty((chunk, n_runs, n_p), dtype=np.int8)
    stuck = np.empty_like(free)
    u_exchange = np.empty((chunk, 2, n_runs))
    # run-major, so each run's draw fills its row of the block in place
    u = np.empty((block, chunk, n_p + 2))
    scratch = np.empty((chunk, block, n_p))
    if _log.isEnabledFor(logging.DEBUG):
        held = sum(a.nbytes for a in (free, stuck, u_exchange, u, scratch)) + 2 * scratch.size
        _log.debug(
            "spin-gas pass: points=%d runs=%d steps=%d chunk_steps=%d block_runs=%d draw_bytes=%d",
            n_points, n_runs, config.steps, chunk, block, held,
        )
    for t0 in range(0, config.steps, chunk):
        k = min(chunk, config.steps - t0)
        for r0 in range(0, n_runs, block):
            b = min(block, n_runs - r0)
            for i, rng in enumerate(rngs[r0 : r0 + b]):
                rng.random(out=u[i, :k])
            by_step = u[:b, :k].transpose(1, 0, 2)
            free[:k, r0 : r0 + b], stuck[:k, r0 : r0 + b] = _move_codes(by_step[..., :n_p], scratch[:k, :b])
            u_exchange[:k, :, r0 : r0 + b] = by_step[..., n_p:].transpose(0, 2, 1)
        for t in range(k):
            site = _move_sites(site, free[t], stuck[t], nbr)
            yield site, u_exchange[t]


def _compact_ensemble(configs, n_runs: int) -> list[np.ndarray]:
    """Per-run pair matrices (runs, 4, 4) of each of ``configs``, which must
    share one kinematic key.  One pass of :func:`_trajectories` serves all P
    points; ``count`` (P, runs), ``env`` (2, P, runs, n_env) and ``damp``
    (2, P, runs) carry each point's phases, ``env`` and ``damp`` indexed
    first by system qubit.  ``count`` holds the pair contacts since the
    last exchange, so the pair phase is ``sums[row, count]`` and its
    exchange factor ``factors[row, count]`` (:func:`_pair_phase_tables`),
    with ``row`` the point's distinct ``psi``."""
    cfg = configs[0]
    if any(_kinematic_key(c) != _kinematic_key(cfg) for c in configs):
        raise ValueError("configs of one pass must share lattice, n_env, steps and seed")
    n_pts = len(configs)
    psis, psi_at = _distinct([c.psi for c in configs])
    phis, phi_at = _distinct([c.phi for c in configs])
    pex = np.array([c.exchange_prob for c in configs])[:, None]
    count = np.zeros((n_pts, n_runs), dtype=np.intp)
    env = np.zeros((2, n_pts, n_runs, cfg.n_env))
    damp = np.ones((2, n_pts, n_runs), dtype=complex)
    # the same arrays with (point, run) flattened, for the exchanges
    flat_count = count.reshape(-1)
    flat_env = env.reshape(2, n_pts * n_runs, cfg.n_env)
    flat_damp = damp.reshape(2, -1)
    point_starts = np.arange(n_pts + 1) * n_runs
    flat_row = np.repeat(np.broadcast_to(np.arange(psis.size)[psi_at], n_pts), n_runs)
    sums, factors = _pair_phase_tables(psis, 1)

    for site, u_exchange in _trajectories(cfg, n_runs, n_pts):
        count += site[:, 0] == site[:, 1]
        if cfg.n_env:
            for s in (0, 1):
                env[s] += (phis[:, None, None] * (site[:, 2:] == site[:, s : s + 1]))[phi_at]

        exchanged = (u_exchange[:, None, :] < pex).reshape(2, -1)  # (2, P * runs)
        for s in (0, 1):
            idx = np.flatnonzero(exchanged[s])
            if not idx.size:
                continue
            contacts = flat_count[idx]
            need = int(contacts.max()) + 1
            if need > sums.shape[1]:  # doubling, never past steps + 1 entries
                sums, factors = _pair_phase_tables(psis, min(max(need, 2 * sums.shape[1]), cfg.steps + 1))
            kept = flat_damp[1 - s, idx]
            factor = factors[flat_row[idx], contacts]
            # numpy can round a complex product differently by vector
            # length (one element skips the fused SIMD loop), so each
            # point multiplies its own runs, as a one-point pass does
            bounds = np.searchsorted(idx, point_starts)
            for a, b in zip(bounds[:-1], bounds[1:]):
                if a < b:
                    kept[a:b] *= factor[a:b]
            flat_damp[1 - s, idx] = kept
            flat_count[idx] = 0
            flat_env[s, idx] = 0.0
            flat_damp[s, idx] = 1.0

    need = int(count.max()) + 1
    if need > sums.shape[1]:
        sums = _pair_phase_tables(psis, need)[0]
    theta = sums[flat_row, flat_count].reshape(n_pts, n_runs)
    return [_compact_reduced(theta[p], env[:, p], np.ascontiguousarray(damp[:, p].T)) for p in range(n_pts)]


def _pair_phase_tables(psis: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(sums, factors), both (len(psis), n): ``sums[i, k]`` is the k-fold
    repeated sum fl(...fl(0.0 + psi_i) + psi_i...), the pair phase that
    ``theta += psi_i * contact`` from 0.0 reaches after k contacts (a step
    without contact adds +-0.0, which leaves such a sum as it is; see
    :func:`_distinct`), and ``factors`` the exchange factor
    (1 + exp(i sums)) / 2.  ``np.add.accumulate`` adds in order, so a
    longer table extends a shorter one bit for bit."""
    terms = np.empty((psis.size, n))
    terms[:, 0] = 0.0
    terms[:, 1:] = psis[:, None]
    sums = np.add.accumulate(terms, axis=1)
    return sums, (1.0 + np.exp(1j * sums)) / 2.0


def _distinct(values) -> tuple[np.ndarray, np.ndarray | slice]:
    """The distinct ``values`` and an index that maps them back onto the
    points (a plain broadcast when all are equal), so a phase times a
    contact, or a table of repeated sums, is computed once per distinct
    phase.  Merging 0.0 with -0.0 cannot change a bit: the accumulated
    phases are sums that start at 0.0, and such a sum is never -0.0
    (0.0 + -0.0 is 0.0), so adding either zero leaves it as it is, and
    the repeated sums of either zero are all 0.0."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct, (inverse if distinct.size > 1 else slice(None))


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
    """Run-level bootstrap standard error of the negativity of the mean.

    Row k of one ``(n_boot, n_runs)`` draw is resample k, the indices that
    ``n_boot`` draws of ``n_runs`` would give in turn.  Each resample adds
    its runs in draw order, as the mean of a gathered resample does, but
    only ``n_boot`` pair matrices are held at once.
    """
    if n_boot < 2:
        raise ValueError(f"a bootstrap standard error needs n_boot >= 2, got {n_boot}")
    rng = np.random.default_rng(seed)
    n_runs = per_run.shape[0]
    draws = rng.integers(0, n_runs, (n_boot, n_runs))
    total = np.zeros((n_boot,) + per_run.shape[1:], dtype=complex)
    for col in draws.T:
        total += per_run[col]
    means = total / n_runs
    means = (means + np.swapaxes(means.conj(), -1, -2)) / 2.0
    return float(negativity(means, (0,)).std(ddof=1))
