import logging
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from conftest import complex_form

from resetlb import analytic
from resetlb.dynamics import (
    SteadyStateError,
    _inverse_iteration,
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
    d2, steps, err = record.args
    assert (d2, steps) == (16, 2)  # runs of equal steps: 0.3 once, 0.7 twice
    assert err == res.error_estimate
    assert "error_estimate" in record.getMessage()


def counting_expm_multiply(monkeypatch) -> list:
    """Wrap scipy.sparse.linalg.expm_multiply; the returned list grows by
    one per call."""
    calls, action = [], scipy.sparse.linalg.expm_multiply
    monkeypatch.setattr(scipy.sparse.linalg, "expm_multiply", lambda *a, **kw: calls.append(kw) or action(*a, **kw))
    return calls


def test_error_estimate_is_computed_on_first_read(monkeypatch, caplog, rng):
    """Below DEBUG, evolve makes one action call per run of equal steps; the
    estimate's calls run on the first read of ``error_estimate`` only."""
    caplog.set_level(logging.INFO, logger="resetlb.dynamics")
    lam = dephasing_ising_reset(2.0, 1.0, 1.5, 3.0)
    rho0 = validate_density(random_density(2, rng))
    calls = counting_expm_multiply(monkeypatch)
    res = evolve(lam, rho0, [0.0, 0.3, 0.3, 1.0, 1.7])
    assert len(calls) == 2  # 0.3 once, 0.7 twice
    err = res.error_estimate
    assert len(calls) == 5  # the largest step and its two halves
    assert res.error_estimate == err and len(calls) == 5
    # eager recomputation: the largest step, 0.7, starts from the state at 0.3
    gen, dt = scipy.sparse.csr_array(lam.matrix), 1.0 - 0.3
    x = scipy.sparse.linalg.expm_multiply(gen, to_real(rho0.matrix), start=0.0, stop=0.3, num=2)[-1]
    half = gen * (dt / 2.0)
    twice = scipy.sparse.linalg.expm_multiply(half, scipy.sparse.linalg.expm_multiply(half, x))
    assert err == float(np.max(np.abs(twice - scipy.sparse.linalg.expm_multiply(gen * dt, x))))


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
        _inverse_iteration(lam.matrix, 1e-30)


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
    d2, tol, residual, gap = record.args
    assert d2 == 16
    assert tol == pytest.approx(1e-10 * np.max(np.abs(lam.matrix).sum(axis=1)))
    assert 0.0 <= residual <= 1e-12
    # the null gap estimates the smallest non-zero |eigenvalue| (here 4)
    evals = np.sort(np.abs(np.linalg.eigvals(lam.matrix)))
    assert abs(gap - evals[1]) < 0.1 * evals[1]
    assert "null_gap" in record.getMessage()


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
    evolve(lam, rho0, [0.0])  # the first call imports scipy.linalg

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
    evolve(lam, rho0, [0.0, 0.1])  # the first call imports scipy.sparse
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
