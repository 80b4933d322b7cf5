import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from conftest import complex_form

from resetlb import analytic, dynamics
from resetlb.dynamics import (
    _THETA,
    SteadyStateError,
    _NUMPY_MAX_BLOCK,
    _inverse_iteration,
    _pattern_blocks,
    _ShiftedAction,
    _start_block,
    _strong_components,
    _taylor_parameters,
    _taylor_steps,
    _triangular_blocks,
    entangled_reset_window,
    entangling_profile,
    evolve,
    spectrum,
    steady_state,
)
from resetlb.entanglement import negativity
from resetlb.liouville import (
    GasNoiseParams,
    HamiltonianSpec,
    ResetSpec,
    Superoperator,
    ThermalBathParams,
    assemble,
    build_hamiltonian,
    dephasing_generator,
    local_noise_generator,
    reset_generator,
    state_from_bloch,
    thermal_generator,
)
from resetlb.qop import from_real, ket, local_pauli, projector, random_density, to_real, unvec, validate_density, vec


def dephasing_ising_reset(g, gamma, om, r):
    h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
    gens = [dephasing_generator(2, gamma)]
    if r > 0:
        gens.append(reset_generator(2, ResetSpec.pure(r, 2, "+")))
    return assemble(h, gens)


# --- evolve -------------------------------------------------------------------


def test_evolve_zero_generator_is_constant(rng):
    lam = Superoperator(np.zeros((16, 16)), 2)
    rho0 = validate_density(random_density(2, rng))
    res = evolve(lam, rho0, np.linspace(0, 3, 7))
    for state in res.states:
        assert np.max(np.abs(state.matrix - rho0.matrix)) < 1e-14


def test_evolve_input_validation(rng):
    lam = dephasing_ising_reset(1.0, 1.0, 0.0, 1.0)
    rho0 = validate_density(random_density(2, rng))
    with pytest.raises(ValueError):
        evolve(lam, rho0, [1.0, 0.5])
    with pytest.raises(ValueError):
        evolve(lam, rho0, [-1.0, 0.5])
    with pytest.raises(ValueError):
        evolve(lam, validate_density(random_density(1, rng)), [0.0, 1.0])
    for grid in ([0.0, np.nan], [np.nan, 1.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="finite"):
            evolve(lam, rho0, grid)


def test_evolve_nonuniform_grid_consistent(rng):
    """Stepping through an irregular grid equals direct jumps to each time."""
    lam = dephasing_ising_reset(2.0, 1.0, 1.5, 3.0)
    rho0 = validate_density(random_density(2, rng))
    grid = np.array([0.0, 0.3, 0.3, 1.0, 1.7])
    res = evolve(lam, rho0, grid)
    for t, state in zip(grid, res.states):
        direct = evolve(lam, rho0, [float(t)]).states[-1]
        assert np.max(np.abs(state.matrix - direct.matrix)) < 1e-11


def test_evolve_logs_steps_and_error_estimate(caplog, rng):
    lam = dephasing_ising_reset(2.0, 1.0, 1.5, 3.0)
    with caplog.at_level(logging.DEBUG, logger="resetlb.dynamics"):
        res = evolve(lam, validate_density(random_density(2, rng)), [0.0, 0.3, 0.3, 1.0, 1.7])
    (record,) = [r for r in caplog.records if r.name == "resetlb.dynamics"]
    assert record.levelno == logging.DEBUG
    d2, steps, taylor, err = record.args
    assert (d2, steps) == (16, 2)  # runs of equal steps: 0.3 once, 0.7 twice
    norm = _ShiftedAction(lam).norm
    assert taylor == [_taylor_parameters(norm * 0.3), _taylor_parameters(norm * (1.7 - 0.3) / 2)]
    assert err == res.error_estimate
    assert "(m, s)" in record.getMessage() and "error_estimate" in record.getMessage()


def counting_taylor_steps(monkeypatch) -> list:
    """Wrap the stepper; the returned list grows by one step size per call,
    one action of expm(R h) over a run of equal steps h."""
    calls, stepper = [], dynamics._taylor_steps
    monkeypatch.setattr(dynamics, "_taylor_steps", lambda *a: calls.append(a[2]) or stepper(*a))
    return calls


def counting_products(monkeypatch) -> list:
    """Wrap the generator's action; the returned list grows by one per product."""
    calls, product = [], _ShiftedAction.__call__
    monkeypatch.setattr(_ShiftedAction, "__call__", lambda self, x: calls.append(1) or product(self, x))
    return calls


def test_error_estimate_is_computed_on_first_read(monkeypatch, caplog, rng):
    """Below DEBUG, evolve makes one action call per run of equal steps; the
    estimate's calls run on the first read of ``error_estimate`` only."""
    caplog.set_level(logging.INFO, logger="resetlb.dynamics")
    lam = dephasing_ising_reset(2.0, 1.0, 1.5, 3.0)
    rho0 = validate_density(random_density(2, rng))
    calls = counting_taylor_steps(monkeypatch)
    res = evolve(lam, rho0, [0.0, 0.3, 0.3, 1.0, 1.7])
    assert len(calls) == 2  # 0.3 once, 0.7 twice
    err = res.error_estimate
    assert len(calls) == 5  # the largest step and its two halves
    assert res.error_estimate == err and len(calls) == 5
    # eager recomputation: the largest step, 0.7, starts from the state at 0.3
    action, dt = _ShiftedAction(lam), 1.0 - 0.3
    x, half, twice, full = np.empty((4, 1, 16))
    _taylor_steps(action, to_real(rho0.matrix), 0.3, x)
    _taylor_steps(action, x[0], dt / 2.0, half)
    _taylor_steps(action, half[0], dt / 2.0, twice)
    _taylor_steps(action, x[0], dt, full)
    assert err == float(np.max(np.abs(twice - full)))


def test_shifted_action_matches_dense(rng):
    """The action and its 1-norm equal (R - mu I) x and ||R - mu I||_1, also
    for a generator with rows without a non-zero (a diagonal H alone)."""
    bare = assemble(build_hamiltonian(HamiltonianSpec("ising", g=2.0, omega=1.5), 2), [])
    assert not np.all(np.any(bare.matrix, axis=1))
    for lam in (dephasing_ising_reset(2.0, 1.0, 1.5, 3.0), bare):
        shifted = lam.matrix - np.trace(lam.matrix) / 16 * np.eye(16)
        action, x = _ShiftedAction(lam), rng.standard_normal(16)
        assert np.max(np.abs(action(x) - shifted @ x)) < 1e-13
        assert action.norm == pytest.approx(np.max(np.abs(shifted).sum(axis=0)), rel=1e-14)


def test_taylor_parameters_minimise_products(monkeypatch):
    """(m, s) takes the fewest products m*s over the theta table; a zero
    norm takes none, and verify's t = 80 step takes at most m*s."""
    assert _taylor_parameters(0.0) == (0, 0)
    for norm in (1e-3, 0.4, 3.0, 40.0, 1e3):
        m, s = _taylor_parameters(norm)
        assert s == math.ceil(norm / _THETA[m])
        assert m * s == min(mm * math.ceil(norm / theta) for mm, theta in _THETA.items())
    products = counting_products(monkeypatch)
    lam = Superoperator(np.zeros((16, 16)), 2)
    rho0 = validate_density(np.eye(4) / 4)
    res = evolve(lam, rho0, [0.0, 1.0, 80.0])
    assert res.error_estimate == 0.0
    assert products == []
    # verify's spectrum_stability step
    h = build_hamiltonian(HamiltonianSpec("ising", g=2.0, omega=1.0), 2)
    lam = assemble(h, [local_noise_generator(2, GasNoiseParams(B=0.5, C=0.5, s=0.3)), reset_generator(2, ResetSpec.pure(0.8, 2, "+"))])
    out = np.empty((1, 16))
    m, s = _taylor_steps(_ShiftedAction(lam), to_real(rho0.matrix), 80.0, out)
    assert (m, s) == _taylor_parameters(_ShiftedAction(lam).norm * 80.0)
    assert s > 1 and 0 < len(products) <= m * s
    assert np.max(np.abs(from_real(out[0]) - steady_state(lam).matrix)) < 1e-9


def test_evolve_trace_stays_one(rng):
    lam = dephasing_ising_reset(2.0, 1.0, 1.5, 3.0)
    res = evolve(lam, validate_density(random_density(2, rng)), np.linspace(0, 4, 11))
    for state in res.states:
        assert abs(np.trace(state.matrix) - 1.0) < 1e-10
    assert res.error_estimate < 1e-10


def test_product_start_overshoots_steady_value():
    """An initial product state first overshoots the steady negativity."""
    lam = dephasing_ising_reset(5.0, 1.0, 5.0, 10.0)
    rho0 = validate_density(projector(ket("++")))
    res = evolve(lam, rho0, np.linspace(0, 6.0, 121))
    negs = res.negativities()
    n_steady = negativity(steady_state(lam), (0,))
    assert negs[0] < 1e-12
    assert negs.max() > n_steady + 1e-3
    assert abs(negs[-1] - n_steady) < 1e-6


def test_entangled_start_hits_zero_then_recovers():
    """A maximally entangled start is driven separable before the steady
    value is approached from below."""
    lam = dephasing_ising_reset(5.0, 1.0, 5.0, 10.0)
    u = np.diag([1.0, 1.0, 1.0, np.exp(1j * np.pi)])
    rho0 = validate_density(projector(u @ ket("++")))
    res = evolve(lam, rho0, np.linspace(0, 6.0, 121))
    negs = res.negativities()
    n_steady = negativity(steady_state(lam), (0,))
    assert negs[0] > 0.49
    assert negs.min() < 1e-9
    i_min = int(np.argmin(negs))
    # no appreciable overshoot after the separable dip
    assert np.all(negs[i_min:] <= n_steady + 1e-4)
    assert abs(negs[-1] - n_steady) < 1e-6


# --- steady state ----------------------------------------------------------------


def test_steady_no_reset_is_thermal_product():
    s = 0.3
    h = build_hamiltonian(HamiltonianSpec("ising", g=1.2, omega=0.9), 2)
    lam = assemble(h, [local_noise_generator(2, GasNoiseParams(B=1.0, C=0.5, s=s))])
    ss = steady_state(lam)
    want = np.diag([s**2, s * (1 - s), s * (1 - s), (1 - s) ** 2])
    assert np.max(np.abs(ss.matrix - want)) < 1e-10


def test_steady_dephasing_reset_antidiagonal_value():
    g, gamma, r = 5.0, 1.0, 10.0
    lam = dephasing_ising_reset(g, gamma, 0.0, r)
    ss = steady_state(lam)
    want = r**2 * (r + gamma) / (4 * (r + 2 * gamma) * (2 * g**2 + (r + gamma) * (r + 2 * gamma)))
    assert abs(ss.matrix[0, 3] - want) < 1e-12
    assert abs(ss.matrix[1, 2] - want) < 1e-12
    assert np.max(np.abs(np.diag(ss.matrix) - 0.25)) < 1e-12


def test_steady_xx_reset_one_matches_closed_form(rng):
    for _ in range(5):
        B = rng.uniform(0.2, 2)
        s = rng.uniform(0, 1)
        g = rng.uniform(0.1, 3)
        om = rng.uniform(0, 3)
        r = rng.uniform(0.1, 5)
        h = build_hamiltonian(HamiltonianSpec("sxsx", g=g, omega=om), 2)
        lam = assemble(
            h,
            [
                local_noise_generator(2, GasNoiseParams(B, B / 2, s)),
                reset_generator(2, ResetSpec.pure(r, 2, "1")),
            ],
        )
        want, _ = analytic.xx_steady_with_reset(B, s, g, om, r)
        assert np.max(np.abs(steady_state(lam).matrix - want.matrix)) < 1e-10


def test_steady_degenerate_null_space_raises():
    lam = Superoperator(np.zeros((16, 16)), 2)
    with pytest.raises(SteadyStateError, match="degenerate"):
        steady_state(lam)


def test_steady_missing_null_vector_raises():
    # an impossibly tight tolerance leaves no eigenvalue "at zero"
    lam = dephasing_ising_reset(1.0, 1.0, 0.0, 1.0)
    with pytest.raises(SteadyStateError, match="no eigenvalue"):
        _inverse_iteration(lam, 1e-30)


def test_steady_unitary_only_model_is_degenerate():
    h = build_hamiltonian(HamiltonianSpec("ising", g=1.0, omega=1.0), 2)
    with pytest.raises(SteadyStateError):
        steady_state(assemble(h, []))


def test_inverse_iteration_path_matches_dense():
    """The one solver path against the closed forms: the omega = 0
    dephasing formula and the general-noise formula at B = 0, C = 2 gamma."""
    g, gamma, r = 3.0, 1.0, 4.0
    want = analytic.dephasing_ising_reset_steady(g, gamma, r)
    got = steady_state(dephasing_ising_reset(g, gamma, 0.0, r))
    assert np.max(np.abs(want.matrix - got.matrix)) < 1e-10
    want = analytic.ising_noise_reset_steady(0.0, 2 * gamma, 0.5, g, 2.0, r)
    got = steady_state(dephasing_ising_reset(g, gamma, 2.0, r))
    assert np.max(np.abs(want.matrix - got.matrix)) < 1e-10


def test_inverse_iteration_detects_degeneracy():
    lam = Superoperator(np.zeros((16, 16)), 2)
    with pytest.raises(SteadyStateError):
        steady_state(lam)


def test_inverse_iteration_detects_degeneracy_five_qubits():
    # unitary Ising dynamics conserves every energy-diagonal state: the
    # null gap (second Rayleigh quotient) falls inside the tolerance
    h = build_hamiltonian(HamiltonianSpec("ising", g=1.0, omega=1.0), 5)
    with pytest.raises(SteadyStateError, match="degenerate null space: null gap"):
        steady_state(assemble(h, [], n=5))


def test_steady_zero_generator_five_qubits_is_degenerate():
    lam = Superoperator(np.zeros((1024, 1024)), 5)
    with pytest.raises(SteadyStateError, match="degenerate null space"):
        steady_state(lam)


def test_steady_overflowing_inverse_iteration_raises():
    # a valid generator scaled to 1e-305 puts tol below the smallest normal
    # double, so the shifted solve overflows instead of converging
    lam = Superoperator(1e-305 * dephasing_ising_reset(3.0, 1.0, 2.0, 4.0).matrix, 2)
    with pytest.raises(SteadyStateError, match="overflowed"):
        steady_state(lam)


def test_steady_logs_residual_and_null_gap(caplog):
    lam = dephasing_ising_reset(3.0, 1.0, 2.0, 4.0)
    with caplog.at_level(logging.DEBUG, logger="resetlb.dynamics"):
        steady_state(lam)
    (record,) = [r for r in caplog.records if r.name == "resetlb.dynamics"]
    assert record.levelno == logging.DEBUG
    d2, nnz, tol, residual, gap, components, groups, largest, lapack = record.args
    assert d2 == 16 and nnz == lam.values.size == np.count_nonzero(lam.matrix)
    assert (components, groups, largest, lapack) == (1, 1, 16, 0)
    assert tol == pytest.approx(1e-10 * np.max(np.abs(lam.matrix).sum(axis=1)))
    assert 0.0 <= residual <= 1e-12
    # the null gap estimates the smallest non-zero |eigenvalue| (here 4)
    evals = np.sort(np.abs(np.linalg.eigvals(lam.matrix)))
    assert abs(gap - evals[1]) < 0.1 * evals[1]
    assert "null_gap" in record.getMessage()
    caplog.clear()
    gas = measures_gas_generator(5, 10.0)
    with caplog.at_level(logging.DEBUG, logger="resetlb.dynamics"):
        steady_state(gas)
    (record,) = [r for r in caplog.records if r.name == "resetlb.dynamics"]
    # 0.9 % of the 1024^2 entries are non-zero
    assert record.args[:2] == (1024, 9476) and np.count_nonzero(gas.matrix) == 9476
    # 147 strong components of 2 to 32 coordinates in 8 groups, all inverted in numpy
    assert record.args[5:] == (147, 8, 32, 0)
    caplog.clear()
    # a thermal R is strongly connected: one block of 256, factored by LAPACK
    with caplog.at_level(logging.DEBUG, logger="resetlb.dynamics"):
        steady_state(generator_family("thermal", 4, np.random.default_rng(5)))
    (record,) = [r for r in caplog.records if r.name == "resetlb.dynamics"]
    assert record.args[0] == 256 and record.args[5:] == (1, 1, 256, 1)


# --- block-triangular solves -----------------------------------------------------


def measures_gas_generator(n, r):
    """R of ``configs/measures_gas.json`` at n qubits and reset rate r."""
    h = build_hamiltonian(HamiltonianSpec("ising", g=20.0, omega=50.0), n)
    gens = [local_noise_generator(n, GasNoiseParams(0.0, 2.0, 0.5)), reset_generator(n, ResetSpec.pure(r, n, "+"))]
    return assemble(h, gens, n=n)


def dense_inverse_iteration(mat, tol, lapack=True):
    """Reference: the inverse iteration of :func:`_inverse_iteration` with
    every solve with ``mat`` - tol*I as it is: through one LAPACK LU, one
    ``getrs`` per column, or with ``lapack=False`` as the product of one
    ``np.linalg.inv`` with both columns in each round."""
    d2 = mat.shape[0]
    shifted = np.array(mat)
    shifted[np.diag_indices(d2)] -= tol
    if lapack:
        getrf, getrs = scipy.linalg.get_lapack_funcs(("getrf", "getrs"), (shifted,))
        lu, piv, _ = getrf(shifted, overwrite_a=True)

        def solve(block):
            return np.column_stack([getrs(lu, piv, col)[0] for col in block.T])
    else:
        inverse = np.linalg.inv(shifted)

        def solve(block):
            return inverse @ block

    block = _start_block(d2)
    for _ in range(3):
        block = solve(block)
        if not np.all(np.isfinite(block)):
            raise SteadyStateError(f"inverse iteration overflowed: L - {tol:.2e} I is numerically singular")
        block, _ = np.linalg.qr(block)
    small = block.T @ (mat @ block)
    theta, y = np.linalg.eig(small)
    order = np.argsort(np.abs(theta))
    gap = float(abs(theta[order[1]]))
    if abs(theta[order[0]]) > tol:
        raise SteadyStateError("no eigenvalue within tolerance of zero")
    if gap <= tol:
        raise SteadyStateError(f"degenerate null space: null gap {gap:.2e} within {tol:.2e} of zero")
    return block @ y[:, order[0]], gap


def unit_trace(x):
    rho = from_real(x)
    return rho / np.trace(rho).real


@pytest.mark.parametrize(
    "n,rates", [(4, (5.0, 10.0, 55.0, 150.0)), (5, (5.0, 10.0, 55.0, 150.0)), pytest.param(6, (10.0, 150.0), marks=pytest.mark.slow)]
)
def test_blocked_solve_matches_dense_lu(n, rates):
    """The gas R splits into several diagonal blocks; the states and null
    gaps of the blocked solves agree with one dense LU.  The null gap is a
    Ritz value of a subspace from which the null vector, amplified 1/tol
    times more, was projected out, so its rounding floor is about 1e-8
    relative: the same dense LU on a symmetric permutation of R's
    coordinates moves it by up to 8e-8 at these rates."""
    for r in rates:
        lam = measures_gas_generator(n, r)
        tol = 1e-10 * lam.norm
        x, _, gap, groups = _inverse_iteration(lam, tol)
        want, want_gap = dense_inverse_iteration(lam.matrix, tol)
        assert sum(g.nb for g in groups) > 1 and sum(g.nb * g.s for g in groups) == 4**n
        assert np.max(np.abs(unit_trace(x) - unit_trace(want))) < 1e-13, r
        assert abs(gap - want_gap) <= 1e-6 * want_gap, r


@pytest.mark.parametrize("name", ["gas-2", "gas-3", "thermal-4"])
def test_one_block_solve_is_the_dense_lu(name, rng):
    """At D^2 <= 64 and on a strongly connected pattern the solve is one
    group of one block, bit for bit the dense solve: one ``np.linalg.inv``
    up to _NUMPY_MAX_BLOCK coordinates, one LAPACK LU above."""
    lam = generator_family("thermal", 4, rng) if name == "thermal-4" else measures_gas_generator(int(name[-1]), 10.0)
    tol = 1e-10 * lam.norm
    x, _, gap, groups = _inverse_iteration(lam, tol)
    want, want_gap = dense_inverse_iteration(lam.matrix, tol, lapack=lam.matrix.shape[0] > _NUMPY_MAX_BLOCK)
    assert [(g.nb, g.s) for g in groups] == [(1, lam.matrix.shape[0])]
    assert np.array_equal(x, want) and gap == want_gap


@pytest.mark.parametrize("name,n", [("gas", 2), ("gas", 3), ("gas", 4), ("gas", 5), ("thermal", 2), ("thermal", 3), ("thermal", 4)])
def test_steady_state_matches_the_dense_reference(name, n, rng):
    """steady_state on the stored non-zeros against inverse iteration on the
    dense R through one LAPACK LU: the gas R of ``configs/measures_gas.json``
    and a thermal R, all non-zero."""
    lam = measures_gas_generator(n, 10.0) if name == "gas" else generator_family("thermal", n, rng)
    want, _ = dense_inverse_iteration(lam.matrix, 1e-10 * lam.norm)
    assert np.max(np.abs(steady_state(lam).matrix - unit_trace(want))) < 1e-13


def test_inverse_iteration_image_is_r_times_the_null_vector(rng):
    """The R x that :func:`_inverse_iteration` returns for the residual is
    the dense product, on one block and on 16."""
    for lam in (generator_family("thermal", 3, rng), measures_gas_generator(5, 10.0)):
        x, rx, _, _ = _inverse_iteration(lam, 1e-10 * lam.norm)
        assert np.max(np.abs(rx - lam.matrix @ x)) <= 1e-15 * lam.norm


def layout_components(layout, d2):
    """(label, order): the number of each coordinate's diagonal block under
    ``layout``, blocks counted in solve order, and the coordinates in that
    order."""
    order = np.arange(d2)[layout.perm]
    label, first = np.empty(d2, dtype=np.intp), 0
    for g in layout.groups:
        rows = np.arange(d2)[g.rows]
        label[order[rows]] = first + (rows - rows[0]) // g.s
        first += g.nb
    return label, order


def reading_levels(rows, cols, comp):
    """Level of each component of the digraph with non-zeros (rows, cols):
    0 when its rows read no other component, else one more than the
    highest level it reads, by relaxation to the fixed point."""
    src, dst = comp[cols], comp[rows]
    cross = src != dst
    level = np.zeros(comp.max() + 1, dtype=np.intp)
    while True:
        new = level.copy()
        np.maximum.at(new, dst[cross], level[src[cross]] + 1)
        if np.array_equal(new, level):
            return level
        level = new


def check_layout(rows, cols, d2):
    """The layout of the pattern (rows, cols), non-zeros in row order:
    its blocks are the strong components; each group is one range of equal
    blocks of one level, groups ascending by (level, size); no non-zero
    couples two blocks of one group or lies right of its group, so each is
    inside a block or left of its group; and the non-zeros each group's
    solve gathers, and the stacked-buffer positions the blocks are
    scattered to, are exactly those.  Returns the layout, the block labels
    and the order."""
    positions = rows * d2 + cols
    layout = _triangular_blocks(positions, d2)
    label, order = layout_components(layout, d2)
    assert np.array_equal(np.sort(order), np.arange(d2))
    assert same_partition(label, scipy_strong_components(rows, cols, d2))
    level = reading_levels(rows, cols, label)
    position = np.argsort(order)
    group = np.empty(d2, dtype=np.intp)
    keys, start = [], 0
    for k, g in enumerate(layout.groups):
        members = order[g.rows]
        group[members] = k
        assert members.size == g.nb * g.s and np.all(np.bincount(label[members])[label[members]] == g.s)
        assert np.all(np.diff(members.reshape(g.nb, g.s), axis=1) > 0)  # ascending within a block
        assert np.unique(level[label[members]]).size == 1
        keys.append((level[label[members[0]]], g.s))
        assert g.start == start
        start += g.nb * g.s * g.s
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    inside = label[rows] == label[cols]
    assert not np.any(group[cols] > group[rows])  # nothing right of its group
    assert np.all(inside[group[cols] == group[rows]])  # no coupling inside a group but in a block
    assert np.all(inside | (group[cols] < group[rows]))
    if isinstance(layout.perm, slice):  # one block: R as it is
        assert len(layout.groups) == 1 and np.all(inside) and layout.at is None
        return layout, label, order
    assert np.array_equal(layout.inside, np.flatnonzero(inside))
    first = np.full(label.max() + 1, d2)  # each block's first position in the order
    np.minimum.at(first, label, position)
    local, size = position - first[label], np.bincount(label)[label]
    base = np.empty(d2, dtype=np.intp)
    for g in layout.groups:
        members = order[g.rows]
        base[members] = g.start + (np.arange(members.size) // g.s) * g.s * g.s
    assert np.array_equal(layout.at, base[rows[inside]] + local[rows[inside]] * size[rows[inside]] + local[cols[inside]])
    assert np.array_equal(layout.diag, (base + local * (size + 1))[order])
    for k, g in enumerate(layout.groups):
        want = np.flatnonzero((group[rows] == k) & ~inside)
        want = want[np.argsort(position[rows[want]], kind="stable")]
        assert np.array_equal(g.left, want) and np.array_equal(g.cols, position[cols[want]])
        assert np.array_equal(np.repeat(g.runs, np.diff(np.append(g.starts, want.size))), position[rows[want]])
    return layout, label, order


@pytest.mark.parametrize("n", [4, 5])
def test_permuted_generator_is_block_lower_triangular(n):
    """The measures_gas R at n = 4 and 5 (50 and 147 strong components):
    the layout checks of :func:`check_layout`, and the permuted dense R is
    zero right of each group."""
    lam = measures_gas_generator(n, 10.0)
    layout, label, order = check_layout(*np.divmod(lam.positions, 4**n), 4**n)
    assert label.max() + 1 == {4: 50, 5: 147}[n]
    group = np.repeat(np.arange(len(layout.groups)), [g.nb * g.s for g in layout.groups])
    assert not np.any(lam.matrix[np.ix_(order, order)][group[:, None] < group[None, :]])


@pytest.mark.parametrize("name", ["random_sparse", "random_dense", "long_cycle", "dag"])
def test_layout_of_test_digraphs(name, rng):
    """:func:`check_layout` on the test digraphs: sparse random ones with
    isolated vertices, one cycle (one block), and a DAG (every vertex its
    own block, on as many levels as its longest path)."""
    check_layout(*digraph(name, rng))


def test_block_layout_that_leaves_out_a_non_zero_is_refused(monkeypatch):
    """The solves and the residual's R x read only the non-zeros inside and
    left of the groups of diagonal blocks, so a layout that leaves one out
    is refused, not dropped from both: component labels in reversed
    topological order give the wrong levels, which put non-zeros right of
    their groups or between the blocks of one group."""
    lam = measures_gas_generator(4, 10.0)
    strong = dynamics._strong_components
    monkeypatch.setattr(dynamics, "_strong_components", lambda *args: (lambda comp: comp.max() - comp)(strong(*args)))
    _pattern_blocks.cache_clear()
    with pytest.raises(SteadyStateError, match="block layout leaves [1-9][0-9]* non-zeros"):
        steady_state(lam)


def test_each_group_is_inverted_once(monkeypatch):
    """On the n = 5 gas R all three rounds reuse one ``np.linalg.inv`` per
    group of equal diagonal blocks; nothing calls ``np.linalg.solve``."""
    lam = measures_gas_generator(5, 10.0)
    groups = _triangular_blocks(lam.positions, 1024).groups
    calls = {"inv": 0, "solve": 0}

    def counting(name, func):
        def counted(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return counted

    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
    steady_state(lam)
    assert len(groups) == 8 and max(g.s for g in groups) <= _NUMPY_MAX_BLOCK
    assert calls == {"inv": len(groups), "solve": 0}


def same_partition(a, b):
    """Two labellings of the same vertices give the same partition when
    their label pairs are as many as the labels of either."""
    pairs = np.unique(np.stack([a, b]), axis=1).shape[1]
    return pairs == np.unique(a).size == np.unique(b).size


def scipy_strong_components(rows, cols, d2):
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components

    return connected_components(coo_array((np.ones(rows.size), (rows, cols)), shape=(d2, d2)), connection="strong")[1]


def digraph(name, rng):
    """(rows, cols, d2) of a test digraph, its edges in row order."""
    if name.startswith("gas"):
        n = int(name[-1])
        rows, cols = np.nonzero(measures_gas_generator(n, 10.0).matrix)
        return rows, cols, 4**n
    if name == "long_cycle":
        d2 = 3000
        rows = np.arange(d2)
        cols = (rows + 1) % d2
    elif name == "dag":
        d2 = 300
        rows, cols = np.nonzero(np.triu(rng.random((d2, d2)) < 0.05, 1))
    else:  # sparse random, with self-loops; the last tenth of the vertices isolated
        d2 = 400
        dense = rng.random((d2, d2)) < {"random_sparse": 0.003, "random_dense": 0.01}[name]
        dense[np.diag_indices(d2)] |= rng.random(d2) < 0.5
        dense[-d2 // 10 :] = dense[:, -d2 // 10 :] = False
        rows, cols = np.nonzero(dense)
    return rows, cols, d2


@pytest.mark.parametrize(
    "name",
    ["random_sparse", "random_dense", "long_cycle", "dag", "gas-4", "gas-5", pytest.param("gas-6", marks=pytest.mark.slow)],
)
def test_strong_components_match_scipy(name, rng):
    """The own Tarjan search against ``scipy.sparse.csgraph``: the same
    partition up to labels.  The long cycle is one search path of 3000
    vertices, past Python's recursion limit; the gas patterns are R's at
    n = 4, 5 and, at D^2 = 4096, 6."""
    rows, cols, d2 = digraph(name, rng)
    comp = _strong_components(rows, cols, d2)
    assert same_partition(comp, scipy_strong_components(rows, cols, d2))
    if name == "long_cycle":
        assert np.all(comp == comp[0])
    if name == "dag":
        assert np.unique(comp).size == d2


def test_exactly_singular_block_is_steady_state_error():
    """With no shift, the zero columns of reset-free dephasing make a
    diagonal block exactly singular: ``np.linalg.inv`` refuses it, and the
    solve reports the generator as numerically singular."""
    n = 4
    lam = assemble(build_hamiltonian(HamiltonianSpec("ising", g=1.0, omega=1.0), n), [dephasing_generator(n, 0.5)], n=n)
    assert max(g.s for g in _triangular_blocks(lam.positions, 4**n).groups) <= _NUMPY_MAX_BLOCK
    with pytest.raises(SteadyStateError, match="numerically singular") as info:
        _inverse_iteration(lam, 0.0)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_singular_components_in_different_blocks_are_degenerate():
    """Reset-free pure dephasing conserves every population; their null
    coordinates sit in different diagonal blocks, and the null gap still
    reports the degenerate null space."""
    n = 4
    lam = assemble(build_hamiltonian(HamiltonianSpec("ising", g=1.0, omega=1.0), n), [dephasing_generator(n, 0.5)], n=n)
    label, _ = layout_components(_triangular_blocks(lam.positions, 4**n), 4**n)
    null = np.flatnonzero(~np.any(lam.matrix, axis=0))
    assert np.unique(label[null]).size > 1
    with pytest.raises(SteadyStateError, match="degenerate null space"):
        steady_state(lam)


@pytest.mark.slow
def test_six_qubit_steady_state_product_form():
    """Scope boundary: 4096^2 Liouvillian through the inverse-iteration
    path.  Without couplings the per-site dephasing + reset generators act
    independently, so the steady state is the product of single-qubit
    steady states with coherence r / (2 (r + 2 gamma))."""
    gamma, r, n = 0.5, 2.0, 6
    lam = assemble(
        None,
        [dephasing_generator(n, gamma), reset_generator(n, ResetSpec.pure(r, n, "+"))],
        n=n,
    )
    ss = steady_state(lam)
    c = r / (2 * (r + 2 * gamma))
    single = np.array([[0.5, c], [c, 0.5]], dtype=complex)
    want = single
    for _ in range(n - 1):
        want = np.kron(want, single)
    assert np.max(np.abs(ss.matrix - want)) < 1e-9


def test_evolution_converges_to_steady_state(rng):
    lam = dephasing_ising_reset(2.0, 1.0, 1.0, 3.0)
    report = spectrum(lam)
    slowest_decay_rate = min(-ev.real for ev in report.eigenvalues if -ev.real > report.grouping_tol)
    t_conv = 40.0 / slowest_decay_rate
    ss = steady_state(lam)
    rho0 = validate_density(random_density(2, rng))
    res = evolve(lam, rho0, [0.0, t_conv])
    assert np.max(np.abs(res.states[-1].matrix - ss.matrix)) < 1e-6


# --- real Hermitian coordinates ----------------------------------------------------


def random_hermitian(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return a + a.conj().T


def generator_family(name, n, rng):
    """Every generator kind of the package, with complex entries wherever
    the physics allows them (random H, y-polarized reset states)."""
    if name == "gas":
        h = build_hamiltonian(HamiltonianSpec("ising", g=1.3, omega=0.7), n)
        gens = [
            local_noise_generator(n, GasNoiseParams(1.0, 0.8, 0.3)),
            reset_generator(n, ResetSpec.pure(2.0, n, "+")),
        ]
    elif name == "xyz":
        h = build_hamiltonian(HamiltonianSpec("xyz", g=1.1, omega=0.4), n)
        gens = [
            local_noise_generator(n, GasNoiseParams(0.6, 0.5, 0.7)),
            reset_generator(n, ResetSpec.pure(1.5, n, "1")),
        ]
    elif name == "thermal":
        h = random_hermitian(2**n, rng)
        gens = [thermal_generator(h, ThermalBathParams(1.0, 0.8))]
    elif name == "thermal_merged":
        h = build_hamiltonian(HamiltonianSpec("ising_gradient", g=1.0, b=0.3), n)
        gens = [
            thermal_generator(h, ThermalBathParams(1.0, 2.0), merge_degenerate=True),
            reset_generator(n, ResetSpec.pure(0.5, n, "+")),
        ]
    else:  # mixed reset states, one per qubit
        h = build_hamiltonian(HamiltonianSpec("ising", g=0.9, omega=0.5), n)
        states = tuple(state_from_bloch(0.3 * np.cos(k), 0.3 * np.sin(k + 1), 0.1) for k in range(n))
        gens = [dephasing_generator(n, 0.5), reset_generator(n, ResetSpec(1.2, states))]
    return assemble(h, gens, n=n)


FAMILIES = ("gas", "xyz", "thermal", "thermal_merged", "mixed_reset")
PAIRWISE = ("xyz", "thermal_merged")  # their Hamiltonians need two qubits


@pytest.mark.parametrize(
    "family,n", [(f, n) for f in FAMILIES for n in range(1, 5) if n > 1 or f not in PAIRWISE]
)
def test_real_coordinates_represent_the_generator(family, n, rng):
    """to_real is an isometry with inverse from_real, and R acts on it as
    the complex Liouvillian it represents acts on vec(rho)."""
    lam = generator_family(family, n, rng)
    rho = random_hermitian(2**n, rng)
    x = to_real(rho)
    assert x.dtype == float
    assert abs(np.linalg.norm(x) - np.linalg.norm(rho)) <= 1e-14 * np.linalg.norm(rho)
    assert np.max(np.abs(from_real(x) - rho)) <= 1e-15 * np.max(np.abs(rho))
    image = unvec(complex_form(lam.matrix) @ vec(rho))
    assert np.max(np.abs(image - lam.apply(rho))) <= 1e-12 * np.max(np.abs(lam.matrix))


def complex_evolve(liouvillian, rho0, times):
    """Reference: evolve under the complex ``liouvillian`` in vec
    coordinates (cached propagators, hermitized states, Richardson check)."""
    propagators = {}

    def propagator(dt):
        for key in propagators:
            if abs(key - dt) <= 1e-12 * max(key, dt):
                return propagators[key]
        propagators[dt] = scipy.linalg.expm(liouvillian * dt)
        return propagators[dt]

    v, prev, states = vec(np.asarray(rho0.matrix)), 0.0, []
    for t in times:
        if t > prev:
            v = propagator(t - prev) @ v
        prev = t
        mat = unvec(v)
        states.append((mat + mat.conj().T) / 2.0)
    dt_max = max(propagators)
    half = scipy.linalg.expm(liouvillian * (dt_max / 2.0))
    return states, float(np.max(np.abs(half @ half - propagators[dt_max])))


def complex_steady_state(mat):
    """Reference: inverse iteration on the complex Liouvillian ``mat`` in vec
    coordinates (shift from its own inf-norm, complex random start vector)."""
    d2 = mat.shape[0]
    tol = 1e-10 * np.max(np.abs(mat).sum(axis=1))
    rng = np.random.default_rng(0)
    block = np.stack([vec(np.eye(int(round(np.sqrt(d2))))) / np.sqrt(d2), rng.standard_normal(d2) + 1j * rng.standard_normal(d2)], 1)
    lu = scipy.linalg.lu_factor(mat - tol * np.eye(d2))
    for _ in range(3):
        block, _ = np.linalg.qr(scipy.linalg.lu_solve(lu, block))
    theta, y = np.linalg.eig(block.conj().T @ (mat @ block))
    rho = unvec(block @ y[:, np.argmin(np.abs(theta))])
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_steady_state_matches_complex_path(n, rng):
    for family in FAMILIES:
        lam = generator_family(family, n, rng)
        assert np.max(np.abs(steady_state(lam).matrix - complex_steady_state(complex_form(lam.matrix)))) < 1e-12, family


@pytest.mark.parametrize("n", [2, 3, 4])
def test_evolve_matches_complex_path(n, rng):
    lam = generator_family("thermal", n, rng)
    rho0 = validate_density(random_density(n, rng))
    times = np.linspace(0.0, 1.0, 6)
    want, _ = complex_evolve(complex_form(lam.matrix), rho0, times)
    got = evolve(lam, rho0, times).states
    assert max(np.max(np.abs(g.matrix - w)) for g, w in zip(got, want)) < 1e-12


def test_evolve_five_qubits_matches_complex_path_in_less_memory(rng):
    lam = generator_family("mixed_reset", 5, rng)
    rho0 = validate_density(projector(ket("+" * 5)))
    times = [0.0, 0.25, 0.5]
    evolve(lam, rho0, [0.0])  # a first call, so that one-time costs are not counted

    def traced(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    liouvillian = complex_form(lam.matrix)
    (want, _), complex_peak = traced(lambda: complex_evolve(liouvillian, rho0, times))
    got, real_peak = traced(lambda: evolve(lam, rho0, times))
    assert max(np.max(np.abs(g.matrix - w)) for g, w in zip(got.states, want)) < 1e-12
    assert real_peak <= 0.75 * complex_peak


# --- action of the exponential ----------------------------------------------------


def dense_evolve(gen, rho0, times):
    """Reference: dense ``scipy.linalg.expm`` propagators of R, one per
    distinct step (ulp-level grid jitter snapped onto a cached step),
    applied one step at a time."""
    propagators = {}

    def propagator(dt):
        for key in propagators:
            if abs(key - dt) <= 1e-12 * max(key, dt):
                return propagators[key]
        propagators[dt] = scipy.linalg.expm(gen * dt)
        return propagators[dt]

    x, prev, states = to_real(rho0.matrix), 0.0, []
    for t in times:
        if t > prev:
            x = propagator(t - prev) @ x
        prev = t
        states.append(from_real(x))
    return states


def action_family(name, n, rng):
    """Generators of the action tests: the gas model with the physics of the
    perfbench evolve5q workload, the zero generator, and two of
    :func:`generator_family`: a merged thermal bath (dense R) and a random
    custom H under a thermal bath."""
    if name == "evolve5q":
        h = build_hamiltonian(HamiltonianSpec("ising", g=10.0, omega=20.0), n)
        gens = [local_noise_generator(n, GasNoiseParams(1.0, 1.0, 0.1)), reset_generator(n, ResetSpec.pure(10.0, n, "+"))]
        return assemble(h, gens, n=n)
    if name == "zero":
        return Superoperator(np.zeros((4**n, 4**n)), n)
    return generator_family(name, n, rng)


ACTION_GRIDS = {
    "uniform": np.linspace(0.0, 1.0, 6),
    "irregular_repeated": np.array([0.0, 0.3, 0.3, 1.0, 1.7, 2.0, 2.4]),  # steps 0.7, 0.7, 0.3, 0.4
    "first_time_positive": np.array([0.25, 0.5, 0.75, 1.5]),
    "horizon_80": np.array([0.0, 80.0]),  # verify's spectrum_stability
}


ACTION_CASES = [
    (family, n, grid)
    for family in ("evolve5q", "thermal_merged", "thermal", "zero")
    for n in (2, 3, 4, 5)
    for grid in ACTION_GRIDS
    # at n = 5 a random H adds nothing that the merged thermal R does not
    # cover, and the horizon on that dense R alone takes seconds
    if n < 5 or family in ("evolve5q", "zero") or (family == "thermal_merged" and grid != "horizon_80")
]


@pytest.mark.parametrize("family,n,grid", ACTION_CASES)
def test_evolve_matches_dense_propagators(family, n, grid, rng):
    lam = action_family(family, n, rng)
    rho0 = validate_density(random_density(n, rng))
    times = ACTION_GRIDS[grid]
    got = evolve(lam, rho0, times).states
    want = dense_evolve(lam.matrix, rho0, times)
    assert len(got) == times.size
    assert max(np.max(np.abs(g.matrix - w)) for g, w in zip(got, want)) < 1e-12


def test_evolve_five_qubits_allocates_a_fraction_of_the_generator(rng):
    """On evolve5q's 101-point grid the action needs, beside the states it
    returns, products with a sparse copy of R only: no dense propagator or
    expm workspace, each several times R."""
    lam = action_family("evolve5q", 5, rng)
    rho0 = validate_density(projector(ket("+" * 5)))
    evolve(lam, rho0, [0.0, 0.1])  # a first call, so that one-time costs are not counted
    tracemalloc.start()
    try:
        res = evolve(lam, rho0, np.linspace(0.0, 1.3, 101))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(state.matrix.nbytes for state in res.states)
    assert peak - returned < 0.25 * lam.matrix.nbytes


def test_non_hermiticity_preserving_generator_is_refused():
    """-i[H, .] with a non-Hermitian H is trace preserving but maps Hermitian
    matrices to non-Hermitian ones; no real generator represents it, so
    assembly refuses it and no solver ever sees it."""
    n = 2
    h = local_pauli(n, 0, "+") @ local_pauli(n, 1, "+") + local_pauli(n, 0, "x")
    with pytest.raises(ValueError, match="Hermitian"):
        assemble(h, [reset_generator(n, ResetSpec.pure(1.0, n, "+"))])


# --- spectrum ---------------------------------------------------------------------


def test_spectrum_zero_generator():
    lam = Superoperator(np.zeros((16, 16)), 2)
    report = spectrum(lam)
    assert report.eigenvalues == (0j,)
    assert report.multiplicities == (16,)


def test_spectrum_stability_and_trace_sum():
    lam = dephasing_ising_reset(1.7, 1.0, 0.8, 2.3)
    report = spectrum(lam)
    assert max(ev.real for ev in report.eigenvalues) <= report.grouping_tol
    assert abs(np.sum(report.raw) - np.trace(lam.matrix)) < 1e-8


def test_spectrum_matches_printed_list():
    g, gamma, om, r = 1.0, 1.0, 1.0, 2.0
    report = spectrum(dephasing_ising_reset(g, gamma, om, r))
    got = sorted(report.raw, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    pred = []
    for ev, mult in analytic.dephasing_ising_reset_spectrum(g, gamma, om, r):
        pred.extend([ev] * mult)
    pred = sorted(pred, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    assert np.max(np.abs(np.array(got) - np.array(pred))) < 1e-8
    assert sorted(report.multiplicities) == [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]


# --- entangling-time profile -------------------------------------------------------


def test_entangling_profile_starts_at_zero():
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=10.0, b=0.1), 2)
    lam0 = assemble(h, [thermal_generator(h, ThermalBathParams(1.0, 1000.0))])
    reset_state = validate_density(projector(ket("++")))
    profile = entangling_profile(lam0, reset_state, np.linspace(0.0, 1.0, 21))
    assert profile[0][1] < 1e-12
    assert max(nv for _, nv in profile) > 1e-3  # entangling at intermediate times


def test_entangling_window_predicts_entangled_rates():
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=10.0, b=0.1), 2)
    thermal = thermal_generator(h, ThermalBathParams(1.0, 1000.0))
    lam0 = assemble(h, [thermal])
    reset_state = validate_density(projector(ket("++")))
    profile = entangling_profile(lam0, reset_state, np.linspace(0.0, 2.0, 81))
    window = entangled_reset_window(profile, c=2.0)
    assert window is not None
    r_lo, r_hi = window
    hits = []
    for r in np.linspace(max(1.0, r_lo), min(r_hi, 60.0), 8):
        lam = assemble(h, [thermal, reset_generator(2, ResetSpec.pure(float(r), 2, "+"))])
        hits.append(negativity(steady_state(lam), (0,)) > 1e-6)
    assert any(hits)
