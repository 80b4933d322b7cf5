import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resetlb import cli, qop, spingas
from resetlb.config import gas_config, parse_config
from resetlb.entanglement import negativity
from resetlb.spingas import (
    GasConfig,
    PhaseMatrix,
    bootstrap_stderr,
    exchange,
    new_state,
    reduced_density,
    run_ensemble,
    run_ensembles,
    simulate_run,
    step,
)
from resetlb.spingas import (
    _DROW,
    _DCOL,
    _DRAW_BYTES,
    _block_runs,
    _chunk_steps,
    _compact_ensemble,
    _compact_reduced,
    _move_codes,
    _move_sites,
    _neighbour_table,
    _pair_phase_tables,
)
from resetlb.verify import statevector_reduced

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class ScriptedRng:
    """Feeds prescribed uniforms to step(); used for deterministic kinematics."""

    def __init__(self, rows):
        self.rows = [np.asarray(r, dtype=float) for r in rows]
        self.calls = 0

    def random(self, size=None):
        row = self.rows[self.calls]
        self.calls += 1
        assert row.size == (size if isinstance(size, int) else int(np.prod(size)))
        return row.reshape(size) if not isinstance(size, int) else row


def tiny_config(**over):
    base = dict(
        lattice=(3, 3), n_env=2, psi=0.3, phi=0.05, exchange_prob=0.0, steps=10, seed=5
    )
    base.update(over)
    return GasConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(lattice=(1, 3))
    with pytest.raises(ValueError):
        tiny_config(exchange_prob=1.5)
    with pytest.raises(ValueError):
        tiny_config(psi=float("nan"))
    with pytest.raises(ValueError):
        tiny_config(steps=-1)


def test_phase_matrix_invariants():
    pm = PhaseMatrix(3)
    pm.add_phase(0, 1, 0.2)
    assert pm.phases[0, 1] == pm.phases[1, 0] == pytest.approx(0.2)
    assert np.all(np.diag(pm.phases) == 0)
    with pytest.raises(ValueError):
        pm.add_phase(1, 1, 0.1)
    pm.retire(0)
    with pytest.raises(ValueError):
        pm.add_phase(0, 1, 0.1)
    new_id = pm.grow()
    assert new_id == 3
    assert np.all(pm.phases[new_id] == 0)


def test_step_without_collisions_leaves_phases():
    cfg = tiny_config(n_env=0)
    state = new_state(cfg, np.random.default_rng(0))
    # both particles stay put (u < 0.2, unshared sites)
    rng = ScriptedRng([np.array([0.1, 0.1, 0.9, 0.9])])
    step(state, rng)
    assert np.all(state.pm.phases == 0)


def test_step_system_collision_accumulates_psi():
    cfg = tiny_config(n_env=0, psi=0.1)
    state = new_state(cfg, np.random.default_rng(0))
    # particle 0 stays, particle 1 hops in -col direction onto (0, 0):
    # unshared move: u >= 0.2, direction floor((u-0.2)/0.2); dir 3 = -col
    rng = ScriptedRng([np.array([0.1, 0.81, 0.9, 0.9])])
    step(state, rng)
    assert state.sites[0] == 0  # flat site of (0, 0)
    assert state.sites[1] == 0
    assert state.pm.phases[0, 1] == pytest.approx(0.1)


def test_consecutive_collisions_accumulate_linearly():
    cfg = tiny_config(n_env=0, psi=0.1)
    state = new_state(cfg, np.random.default_rng(0))
    rows = [np.array([0.1, 0.81, 0.9, 0.9])]
    # afterwards both are co-located; u >= escape prob 0.02 keeps them stuck
    for _ in range(4):
        rows.append(np.array([0.5, 0.5, 0.9, 0.9]))
    rng = ScriptedRng(rows)
    for _ in range(5):
        step(state, rng)
    assert state.pm.phases[0, 1] == pytest.approx(5 * 0.1)


def test_exchange_fresh_pair_is_plus_product():
    cfg = tiny_config()
    rng = np.random.default_rng(3)
    state = new_state(cfg, rng)
    for _ in range(cfg.steps):
        step(state, rng)
    exchange(state, 0)
    exchange(state, 1)
    got = reduced_density(state.pm, state.system_ids).matrix
    want = qop.projector(qop.ket("++"))
    assert np.max(np.abs(got - want)) < 1e-14


def test_exchange_with_zero_phases_is_noop_state():
    cfg = tiny_config(n_env=0)
    state = new_state(cfg, np.random.default_rng(1))
    exchange(state, 0)
    got = reduced_density(state.pm, state.system_ids).matrix
    assert np.max(np.abs(got - qop.projector(qop.ket("++")))) < 1e-14


def test_exchange_factorizes_reduction(rng):
    cfg = GasConfig(lattice=(3, 3), n_env=4, psi=0.4, phi=0.1, exchange_prob=0.0, steps=20, seed=2)
    run_rng = np.random.default_rng(9)
    state = new_state(cfg, run_rng)
    for _ in range(cfg.steps):
        step(state, run_rng)
    pair_before = reduced_density(state.pm, state.system_ids).matrix
    exchange(state, 0)
    got = reduced_density(state.pm, state.system_ids).matrix
    kept = qop.partial_trace(pair_before, keep=(1,), n=2)
    assert np.max(np.abs(got - np.kron(qop.projector(qop.ket("+")), kept))) < 1e-12


def test_reduction_zero_phases_plus_product():
    pm = PhaseMatrix(4)
    got = reduced_density(pm, [0, 1]).matrix
    assert np.max(np.abs(got - qop.projector(qop.ket("++")))) < 1e-14


def test_reduction_pi_phase_maximally_entangled():
    pm = PhaseMatrix(3)
    pm.add_phase(0, 1, np.pi)
    state = reduced_density(pm, [0, 1])
    assert abs(negativity(state, (0,)) - 0.5) < 1e-12


def test_reduction_matches_statevector(rng):
    for _ in range(10):
        pm = PhaseMatrix(8)
        for i in range(8):
            for j in range(i + 1, 8):
                pm.add_phase(i, j, rng.uniform(-np.pi, np.pi))
        got = reduced_density(pm, [0, 3]).matrix
        want = statevector_reduced(pm.phases, [0, 3], 8)
        assert np.max(np.abs(got - want)) < 1e-12


def test_reduction_guards():
    pm = PhaseMatrix(6)
    with pytest.raises(ValueError):
        reduced_density(pm, [])
    with pytest.raises(ValueError):
        reduced_density(pm, [0, 1, 2, 3, 4])


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_environment_environment_phases_cancel(seed):
    rng = np.random.default_rng(seed)
    pm1 = PhaseMatrix(6)
    pm2 = PhaseMatrix(6)
    for i in range(6):
        for j in range(i + 1, 6):
            ph = rng.uniform(-2, 2)
            pm1.add_phase(i, j, ph)
            pm2.add_phase(i, j, ph)
    # extra phases between traced-out qubits only
    pm2.add_phase(2, 3, rng.uniform(-2, 2))
    pm2.add_phase(4, 5, rng.uniform(-2, 2))
    a = reduced_density(pm1, [0, 1]).matrix
    b = reduced_density(pm2, [0, 1]).matrix
    assert np.max(np.abs(a - b)) < 1e-14


def test_ensemble_matches_reference_runs():
    cfg = GasConfig(lattice=(3, 3), n_env=3, psi=0.3, phi=0.05, exchange_prob=0.25, steps=25, seed=99)
    n_runs = 8
    streams = np.random.SeedSequence(cfg.seed).spawn(n_runs)
    ref = []
    for ss in streams:
        ref.append(simulate_run(cfg, np.random.Generator(np.random.PCG64(ss))).matrix)
    (compact,) = _compact_ensemble([cfg], n_runs)
    assert np.max(np.abs(np.array(ref) - compact)) < 1e-12
    res = run_ensemble(cfg, n_runs)
    assert np.max(np.abs(res.mean_state.matrix - np.mean(ref, axis=0))) < 1e-12


def _scalar_move(positions, i, u, lattice):
    """Documented move rule for particle ``i``, one particle at a time.

    The float expressions are the ones that define the direction
    boundaries (``u = 0.6`` itself still hops in direction 1)."""
    rows, cols = lattice
    shared = any(j != i and positions[j] == positions[i] for j in range(len(positions)))
    if shared:
        moves = u < 0.02
        direction = min(int(u / 0.02 * 4), 3)
    else:
        moves = u >= 0.2
        direction = min(int((u - 0.2) / 0.2), 3)
    r, c = positions[i]
    if not moves:
        return r, c
    dr, dc = [(1, 0), (-1, 0), (0, 1), (0, -1)][direction]
    return (r + dr) % rows, (c + dc) % cols


@pytest.mark.parametrize("lattice", [(2, 2), (2, 5), (3, 3), (6, 6)], ids=lambda lat: f"{lat[0]}x{lat[1]}")
def test_move_kernel_matches_scalar_rules(lattice):
    rows, cols = lattice
    rng = np.random.default_rng(rows * 10 + cols)
    edges = np.array([0.02, 0.2, 0.4, 0.6, 0.8])
    special = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, 1), [0.0, 0.5]])
    runs, n_p = 40, 6
    pos = np.stack([rng.integers(0, rows, (runs, n_p)), rng.integers(0, cols, (runs, n_p))], axis=-1)
    pos[::3, 1] = pos[::3, 0]  # forced collision complexes
    pos[::5, 4] = pos[::5, 2]
    pos[1, :] = pos[0, 0]  # one run packed onto a single site
    u = rng.random((runs, n_p))
    pick = rng.random((runs, n_p)) < 0.6
    u[pick] = rng.choice(special, pick.sum())
    assert np.isin(special, u).all()

    free, stuck = _move_codes(u)
    site = _move_sites(pos[..., 0] * cols + pos[..., 1], free, stuck, _neighbour_table(lattice))
    for run in range(runs):
        before = [tuple(p) for p in pos[run].tolist()]
        want = [_scalar_move(before, i, float(u[run, i]), lattice) for i in range(n_p)]
        got = [divmod(int(s), cols) for s in site[run]]
        assert got == want, (run, before, u[run].tolist())


def test_neighbour_table_follows_drow_dcol():
    rows, cols = 4, 5
    nbr = _neighbour_table((rows, cols))
    assert nbr.shape == (rows * cols, 6)
    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            assert nbr[site, 0] == nbr[site, 5] == site
            for d in range(4):
                assert nbr[site, 1 + d] == ((r + _DROW[d]) % rows) * cols + (c + _DCOL[d]) % cols


def _full_buffer_ensemble(cfg, n_runs):
    """The ensemble as it was before chunked draws: one (runs, steps, n_p+2)
    uniform draw up front and a pairwise site comparison per step."""
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
        u = u_all[:, t, :n_p]
        site = pos[..., 0] * cols + pos[..., 1]
        shared = (site[..., :, None] == site[..., None, :]).sum(axis=-1) > 1
        move_free = ~shared & (u >= 0.2)
        dir_free = np.minimum(((u - 0.2) / 0.2).astype(np.int64), 3)
        move_stuck = shared & (u < 0.02)
        dir_stuck = np.minimum((u / 0.02 * 4).astype(np.int64), 3)
        moving = np.where(shared, move_stuck, move_free)
        direction = np.where(shared, dir_stuck, dir_free)
        pos[..., 0] = (pos[..., 0] + moving * _DROW[direction]) % rows
        pos[..., 1] = (pos[..., 1] + moving * _DCOL[direction]) % cols
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
    return _compact_reduced(theta, np.ascontiguousarray(env.transpose(2, 0, 1)), damp)


@pytest.mark.parametrize("exchange_prob", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("n_env", [0, 3])
def test_compact_ensemble_bit_identical_across_chunks(monkeypatch, n_env, exchange_prob):
    """At and across chunk edges, with the runs drawn in blocks whose last
    one is partial: 2000 runs at the default budget, and 50 runs in blocks
    of under 20 at a small one."""
    for n_runs, draw_bytes in ((2000, _DRAW_BYTES), (50, 2**16)):
        monkeypatch.setattr(spingas, "_DRAW_BYTES", draw_bytes)
        k = _chunk_steps(n_runs, 2 + n_env)  # enough runs that a chunk holds only a few dozen steps
        assert 2 <= k <= 100
        assert n_runs % _block_runs(n_runs, 2 + n_env, k)
        for steps in (0, 1, k - 1, k, k + 1, 3 * k + 5):
            cfg = GasConfig(
                lattice=(3, 4), n_env=n_env, psi=0.7, phi=0.3, exchange_prob=exchange_prob, steps=steps, seed=123
            )
            (got,) = _compact_ensemble([cfg], n_runs)
            assert np.array_equal(got, _full_buffer_ensemble(cfg, n_runs)), (n_runs, steps)


def test_compact_ensemble_peak_within_draw_budget():
    """A pass at the benchmark physics (6x6, 8 environment qubits, three
    exchange points, 1000 runs) holds its draws within ``_DRAW_BYTES``: the
    traced peak stays below that budget plus the per-point state and the
    returned per-run matrices, with 1 MiB for the sites, the streams and
    per-step temporaries.  Holding a whole chunk's float uniforms for all
    runs peaks at about 12 MB on this physics."""
    n_runs, n_env = 1000, 8
    configs = [
        GasConfig(lattice=(6, 6), n_env=n_env, psi=0.1, phi=0.001, exchange_prob=x, steps=300, seed=4)
        for x in (0.0, 0.5, 1.0)
    ]
    state = len(configs) * n_runs * (8 + 2 * n_env * 8 + 2 * 16)  # count, env, damp
    returned = len(configs) * n_runs * 16 * 16
    _compact_ensemble(configs[:1], 10)  # numpy's one-time allocations are not the pass's
    tracemalloc.start()
    try:
        _compact_ensemble(configs, n_runs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _DRAW_BYTES + state + returned + 2**20, peak


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def test_pair_phase_tables_match_step_loop():
    """Each row of the tables is what the step loop's ``theta += psi *
    contact`` and the exchange's ``(1 + exp(1j * theta)) / 2`` give, bit
    for bit, after every number of contacts; -0.0 sums to +0.0, and a
    longer table extends a shorter one."""
    psis = np.array([0.1, -1.3, 0.0, -0.0, 2.0])
    contact = np.random.default_rng(9).random(500) < 0.6
    short, short_factors = _pair_phase_tables(psis, 7)
    sums, factors = _pair_phase_tables(psis, contact.sum() + 1)
    assert _bits(sums[:, :7]) == _bits(short) and _bits(factors[:, :7]) == _bits(short_factors)
    theta = np.zeros(psis.size)
    k = 0
    for c in contact:
        theta += psis * c
        k += c
        assert _bits(sums[:, k]) == _bits(theta), k
        for i in range(psis.size):  # one-element factors, as a lone exchange computes them
            assert _bits(factors[i, k]) == _bits((1.0 + np.exp(1j * theta[i : i + 1])) / 2.0), (i, k)
    assert not np.signbit(sums[2:4]).any()


def test_pass_logs_its_draw_layout(caplog):
    configs = [GasConfig(lattice=(3, 4), n_env=3, psi=0.7, phi=0.3, exchange_prob=x, steps=40, seed=1) for x in (0.2, 0.6)]
    with caplog.at_level(logging.DEBUG, logger="resetlb.spingas"):
        run_ensembles(configs, 30)
    (record,) = [r for r in caplog.records if r.name == "resetlb.spingas"]
    assert record.levelno == logging.DEBUG
    points, runs, steps, chunk, block, held = record.args
    assert (points, runs, steps) == (2, 30, 40)
    assert (chunk, block) == (40, 30)  # both capped by the pass itself
    assert held == chunk * runs * (2 * 5 + 16) + block * chunk * (18 * 5 + 16)
    assert held <= _DRAW_BYTES
    assert "block_runs" in record.getMessage()
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="resetlb.spingas"):
        run_ensembles(configs, 30)
    assert not caplog.records


def test_compact_ensemble_memory_independent_of_steps():
    def peak(steps, n_points):
        configs = [
            GasConfig(lattice=(6, 6), n_env=8, psi=0.1, phi=0.001, exchange_prob=x, steps=steps, seed=4)
            for x in np.linspace(0.5, 1.0, n_points)
        ]
        tracemalloc.start()
        try:
            _compact_ensemble(configs, 200)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for n_points in (1, 5):  # one point, and one pass shared by five
        assert peak(4000, n_points) <= 1.1 * peak(400, n_points), n_points


# --- one kinematic pass for many sweep points ----------------------------------

BATCH_RUNS = 200
SWEEPS = {
    "exchange": [dict(exchange_prob=x) for x in (0.0, 0.3, 1.0)],
    "psi x exchange": [dict(psi=p, exchange_prob=x) for p in (0.0, -1.3) for x in (0.0, 0.3, 1.0)],
    "phi": [dict(phi=f, exchange_prob=0.3) for f in (0.0, 0.3, -0.05, 2.0)],
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
@pytest.mark.parametrize("n_env", [0, 3])
def test_run_ensembles_bit_identical_to_separate_calls(monkeypatch, sweep, n_env):
    """Every point of a batched pass gives the per-run matrices of its own
    single-point call, at and across a chunk edge (the single-point call is
    pinned to the full-buffer reference above)."""
    monkeypatch.setattr(spingas, "_DRAW_BYTES", 2**18)  # chunks of a few dozen steps
    k = _chunk_steps(BATCH_RUNS, 2 + n_env)
    assert 2 <= k <= 100
    for steps in (k, k + 1):
        base = dict(lattice=(3, 4), n_env=n_env, psi=0.7, phi=0.3, exchange_prob=0.0, steps=steps, seed=321)
        configs = [GasConfig(**{**base, **point}) for point in SWEEPS[sweep]]
        for cfg, got in zip(configs, run_ensembles(configs, BATCH_RUNS), strict=True):
            alone = run_ensemble(cfg, BATCH_RUNS)
            assert np.array_equal(got.per_run, alone.per_run), (steps, cfg)
            assert np.array_equal(got.mean_state.matrix, alone.mean_state.matrix)
            assert got.negativity == alone.negativity


def test_run_ensembles_single_run_exchanges():
    """About one exchange per point and step, and several per run: a point
    that exchanges in a single run while others exchange in many still
    gets the damping products of its own one-point call."""
    base = dict(lattice=(3, 3), n_env=2, psi=0.7, phi=0.2, steps=300, seed=11)
    configs = [GasConfig(exchange_prob=x, **base) for x in (0.02, 0.04, 0.08)]
    for cfg, got in zip(configs, run_ensembles(configs, 20), strict=True):
        assert np.array_equal(got.per_run, run_ensemble(cfg, 20).per_run), cfg


def test_run_ensembles_groups_by_trajectories(monkeypatch):
    """Points that differ in steps, n_env, lattice or seed run in separate
    passes, one per group, and every result comes back at its own position."""
    base = dict(lattice=(3, 3), n_env=2, psi=0.4, phi=0.1, exchange_prob=0.2, steps=12, seed=5)
    variants = [{}, {"steps": 30}, {"exchange_prob": 0.9}, {"n_env": 0}, {"steps": 30, "exchange_prob": 0.9},
                {"lattice": (2, 4)}, {"seed": 6}, {}]
    configs = [GasConfig(**{**base, **v}) for v in variants]
    passes = []

    def counted(group, n_runs):
        passes.append(len(group))
        return _compact_ensemble(group, n_runs)

    monkeypatch.setattr(spingas, "_compact_ensemble", counted)
    results = run_ensembles(configs, 24)
    monkeypatch.undo()
    assert passes == [3, 2, 1, 1, 1]
    assert len(results) == len(configs)
    for cfg, got in zip(configs, results):
        assert np.array_equal(got.per_run, run_ensemble(cfg, 24).per_run), cfg
    assert run_ensembles([], 24) == []
    with pytest.raises(ValueError):
        run_ensembles(configs, 0)
    with pytest.raises(ValueError, match="share"):
        _compact_ensemble(configs[:2], 24)


def _cli_and_pointwise_csv(tmp_path, sweep, runs=30):
    """The CLI CSV of a spin-gas sweep, and the same CSV written from rows
    computed one point at a time with ``run_ensemble``."""
    raw = {
        "model": "spingas",
        "spingas": {"lattice": [4, 4], "n_env": 3, "psi": 0.4, "phi": 0.05, "exchange_prob": 0.1, "steps": 40},
        "sweep": sweep,
        "seed": 17,
    }
    path = tmp_path / "gas.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "cli.csv"
    assert cli.main(["spingas", "--config", str(path), "--out", str(out), "--runs", str(runs), "--no-timestamp"]) == 0

    cfg = parse_config(raw)
    points, params = cli._sweep_points(cfg)
    rows = []
    for overrides in points:
        res = run_ensemble(gas_config(cfg.with_overrides(overrides)), runs)
        stderr = bootstrap_stderr(res.per_run, n_boot=200, seed=cfg.seed)
        rows.append([overrides[p] for p in params] + [res.negativity, stderr])
    want = tmp_path / "pointwise.csv"
    cli._write_csv(str(want), cfg, "spingas", params + ["negativity", "stderr"], rows, no_timestamp=True)
    return out.read_bytes(), want.read_bytes()


def test_cli_exchange_sweep_csv_matches_pointwise(tmp_path):
    got, want = _cli_and_pointwise_csv(
        tmp_path, [{"param": "spingas.exchange_prob", "min": 0.0, "max": 1.0, "points": 5}]
    )
    assert got == want
    assert len(got.decode().splitlines()) == 4 + 5


def test_cli_steps_and_psi_sweep_matches_pointwise(tmp_path):
    """A sweep over steps changes the trajectories: each steps value is its
    own pass, shared by the psi points under it."""
    got, want = _cli_and_pointwise_csv(
        tmp_path,
        [
            {"param": "spingas.steps", "min": 10, "max": 50, "points": 3},
            {"param": "spingas.psi", "min": 0.1, "max": 0.9, "points": 2},
        ],
    )
    assert got == want
    assert len(got.decode().splitlines()) == 4 + 6


def test_cli_spingas_validates_every_point_before_running(tmp_path, monkeypatch, capsys):
    """An invalid point anywhere in the sweep is a config error before any
    ensemble runs."""
    calls = []
    monkeypatch.setattr(cli, "run_ensembles", lambda *a: calls.append(a))
    raw = {
        "model": "spingas",
        "spingas": {"lattice": [3, 3], "n_env": 1, "exchange_prob": 0.0, "steps": 5},
        "sweep": [{"param": "spingas.exchange_prob", "min": 0.0, "max": 1.5, "points": 4}],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["spingas", "--config", str(path), "--out", str(tmp_path / "x.csv"), "--runs", "4"]) == 1
    assert "exchange_prob" in capsys.readouterr().err
    assert not calls


def test_ensemble_deterministic():
    cfg = tiny_config(exchange_prob=0.3, steps=30)
    a = run_ensemble(cfg, 16)
    b = run_ensemble(cfg, 16)
    assert np.array_equal(a.per_run, b.per_run)
    assert np.array_equal(a.mean_state.matrix, b.mean_state.matrix)
    assert a.negativity == b.negativity


def test_full_exchange_rate_gives_exact_product():
    cfg = GasConfig(lattice=(4, 4), n_env=4, psi=0.3, phi=0.01, exchange_prob=1.0, steps=15, seed=8)
    res = run_ensemble(cfg, 25)
    assert np.max(np.abs(res.mean_state.matrix - 0.25 * np.ones((4, 4)))) == 0.0
    assert res.negativity < 1e-12


def test_monotone_decoherence_without_system_phase():
    """With psi = 0 there is no entangling mechanism: the reduced state is a
    mixture of locally rotated products, so negativity stays zero as steps
    grow."""
    for steps in (10, 60, 160):
        cfg = GasConfig(lattice=(4, 4), n_env=4, psi=0.0, phi=0.05, exchange_prob=0.0, steps=steps, seed=31)
        res = run_ensemble(cfg, 50)
        assert res.negativity < 1e-10


def test_bootstrap_stderr_scale():
    cfg = tiny_config(exchange_prob=0.1, steps=40, seed=77)
    res = run_ensemble(cfg, 64)
    se = bootstrap_stderr(res.per_run, n_boot=100, seed=1)
    assert 0 <= se < 0.5
    assert se == bootstrap_stderr(res.per_run, n_boot=100, seed=1)  # deterministic


def per_sample_bootstrap(per_run, n_boot, seed):
    """The bootstrap as one resample at a time: draw, mean, negativity."""
    rng = np.random.default_rng(seed)
    n_runs = per_run.shape[0]
    vals = np.empty(n_boot)
    for k in range(n_boot):
        idx = rng.integers(0, n_runs, n_runs)
        mean = per_run[idx].mean(axis=0)
        mean = (mean + mean.conj().transpose()) / 2.0
        vals[k] = negativity(mean, (0,))
    return float(vals.std(ddof=1))


@pytest.mark.parametrize("n_runs, n_boot, seed", [(64, 100, 1), (1, 2, 0), (3, 2, 5), (201, 200, 9), (1000, 200, 33)])
def test_bootstrap_stderr_equals_per_sample_loop(n_runs, n_boot, seed):
    cfg = tiny_config(exchange_prob=0.1, steps=40, seed=77)
    per_run = run_ensemble(cfg, n_runs).per_run
    assert bootstrap_stderr(per_run, n_boot=n_boot, seed=seed) == per_sample_bootstrap(per_run, n_boot, seed)


@pytest.mark.parametrize("n_boot", [-1, 0, 1])
def test_bootstrap_stderr_needs_two_resamples(n_boot):
    res = run_ensemble(tiny_config(steps=5), 8)
    with pytest.raises(ValueError, match="n_boot >= 2"):
        bootstrap_stderr(res.per_run, n_boot=n_boot)


@pytest.mark.slow
def test_long_horizon_endpoints_qualitative():
    """With enough steps for the environment phases to grow to order one,
    the zero-exchange ensemble decoheres completely and both endpoints of
    the exchange sweep are separable, with entanglement in between."""
    base = dict(lattice=(6, 6), n_env=8, psi=0.1, phi=0.001, seed=20260808)
    res0 = run_ensemble(GasConfig(exchange_prob=0.0, steps=5000, **base), 400)
    assert res0.negativity < 0.005
    res1 = run_ensemble(GasConfig(exchange_prob=1.0, steps=500, **base), 400)
    assert res1.negativity < 1e-12
    hump = run_ensemble(GasConfig(exchange_prob=0.1, steps=500, **base), 400)
    se = bootstrap_stderr(hump.per_run, n_boot=200, seed=0)
    assert hump.negativity > 3 * se
