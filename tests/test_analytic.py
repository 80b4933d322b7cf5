import numpy as np
import pytest

from resetlb import analytic
from resetlb.dynamics import evolve, spectrum, steady_state
from resetlb.entanglement import negativity
from resetlb.liouville import (
    GasNoiseParams,
    HamiltonianSpec,
    ResetSpec,
    assemble,
    build_hamiltonian,
    dephasing_generator,
    gibbs_state,
    local_noise_generator,
    reset_generator,
)
from resetlb.qop import partial_transpose, random_density, validate_density


# --- dephasing + Ising + reset negativity -----------------------------------


def test_reset_negativity_zero_without_reset():
    assert analytic.dephasing_ising_reset_negativity(3.0, 1.0, 0.0) == 0.0


def test_reset_negativity_known_point():
    assert abs(analytic.dephasing_ising_reset_negativity(5, 1, 10) - 58.0 / 4368.0) < 1e-15


def test_reset_negativity_asymptotic_maximum():
    g = 1e3
    val = analytic.dephasing_ising_reset_negativity(g, 1.0, (1 + np.sqrt(3)) * g)
    assert abs(val - 0.0915) < 1e-3
    # supremum value (sqrt(3) - 1)/8 approached from below
    assert val < (np.sqrt(3) - 1) / 8


def test_reset_negativity_two_parameter_scaling(rng):
    for _ in range(10):
        g, gamma, r = rng.uniform(0.1, 10, 3)
        a = analytic.dephasing_ising_reset_negativity(g, gamma, r)
        b = analytic.dephasing_ising_reset_negativity(g / gamma, 1.0, r / gamma)
        assert abs(a - b) < 1e-14


def test_reset_negativity_region_needs_strong_coupling(rng):
    """Entangled points always satisfy g > 2 gamma."""
    for _ in range(200):
        g, r = rng.uniform(0, 20, 2)
        if analytic.dephasing_ising_reset_negativity(g, 1.0, r) > 0:
            assert g > 2.0


def test_reset_negativity_degenerate_input():
    with pytest.raises(ValueError):
        analytic.dephasing_ising_reset_negativity(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        analytic.dephasing_ising_reset_negativity(-1.0, 1.0, 1.0)


def test_reset_steady_matrix_matches_numeric():
    g, gamma, r = 4.0, 1.0, 9.0
    want = analytic.dephasing_ising_reset_steady(g, gamma, r)
    h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=0.0), 2)
    lam = assemble(h, [dephasing_generator(2, gamma), reset_generator(2, ResetSpec.pure(r, 2, "+"))])
    assert np.max(np.abs(want.matrix - steady_state(lam).matrix)) < 1e-12


# --- XX model -------------------------------------------------------------------


def test_xx_no_reset_infinite_temperature_separable():
    state, neg = analytic.xx_steady_no_reset(1.0, 0.5, 2.0, 1.0)
    assert neg == 0.0
    assert abs(state.matrix[0, 3]) < 1e-14  # coherences carry factor (2s - 1)


def test_xx_no_reset_zero_coupling_diagonal():
    state, neg = analytic.xx_steady_no_reset(1.0, 0.2, 0.0, 1.0)
    assert neg == 0.0
    off = state.matrix - np.diag(np.diag(state.matrix))
    assert np.max(np.abs(off)) < 1e-14


def test_xx_no_reset_matches_numeric():
    B, s, g, om = 1.0, 0.0, 1.0, 1.0
    want, neg = analytic.xx_steady_no_reset(B, s, g, om)
    h = build_hamiltonian(HamiltonianSpec("sxsx", g=g, omega=om), 2)
    lam = assemble(h, [local_noise_generator(2, GasNoiseParams(B, B / 2, s))])
    got = steady_state(lam)
    assert np.max(np.abs(got.matrix - want.matrix)) < 1e-10
    assert abs(negativity(got, (0,)) - neg) < 1e-10
    assert neg > 0  # entangled at zero temperature


def test_xx_reset_factor_vanishes():
    _, neg = analytic.xx_steady_with_reset(1.0, 0.5, 2.0, 2.0, 0.0)
    assert neg == 0.0


def test_xx_reset_entangles_at_infinite_temperature():
    """Reset-generated entanglement at s = 1/2 for sufficiently large r."""
    vals = [analytic.xx_steady_with_reset(1.0, 0.5, 2.0, 2.0, r)[1] for r in (5.0, 10.0, 20.0)]
    assert max(vals) > 0


def test_xx_reset_negativity_vanishes_at_large_rate():
    """Permanent projection onto the product reset state: the negativity
    decays to zero as r grows."""
    vals = [analytic.xx_steady_with_reset(1.0, 0.3, 2.0, 2.0, r)[1] for r in (1e2, 1e4, 1e6)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-5


def test_xx_reset_matches_numeric_grid(rng):
    for _ in range(20):
        B = rng.uniform(0.1, 2)
        s = rng.uniform(0, 1)
        g = rng.uniform(0, 3)
        om = rng.uniform(0, 3)
        r = rng.uniform(0.05, 5)
        want, neg = analytic.xx_steady_with_reset(B, s, g, om, r)
        h = build_hamiltonian(HamiltonianSpec("sxsx", g=g, omega=om), 2)
        lam = assemble(
            h,
            [
                local_noise_generator(2, GasNoiseParams(B, B / 2, s)),
                reset_generator(2, ResetSpec.pure(r, 2, "1")),
            ],
        )
        got = steady_state(lam)
        assert np.max(np.abs(got.matrix - want.matrix)) < 1e-10
        assert abs(negativity(got, (0,)) - neg) < 1e-10


# --- thermal state of the transverse Ising model ---------------------------------


def test_thermal_negativity_limits():
    assert analytic.thermal_negativity_transverse_ising(1.0, 0.1, 1e-6) == 0.0
    want = 1.0 / (2 * np.sqrt(1.04))
    assert abs(analytic.thermal_negativity_transverse_ising(1.0, 0.1, 1e3) - want) < 1e-4


def test_thermal_negativity_rejects_degenerate():
    with pytest.raises(ValueError):
        analytic.thermal_negativity_transverse_ising(1.0, 0.0, 1.0)


def test_thermal_negativity_matches_gibbs(rng):
    for _ in range(5):
        g = rng.uniform(0.5, 2)
        b = rng.uniform(0.05, 1.0)
        beta = rng.uniform(0.5, 5)
        h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=g, b=b), 2)
        want = negativity(gibbs_state(h, beta), (0,))
        assert abs(analytic.thermal_negativity_transverse_ising(g, b, beta) - want) < 1e-12


def test_thermal_crossing_root_matches_numeric_sign_change():
    g, b = 1.0, 0.1
    root = analytic.thermal_negativity_root(g, b)
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=g, b=b), 2)
    lo, hi = 1e-3, 1e3
    for _ in range(60):
        mid = np.sqrt(lo * hi)
        if np.linalg.eigvalsh(partial_transpose(gibbs_state(h, mid), (0,)))[0] > 0:
            lo = mid
        else:
            hi = mid
    assert abs(root - 0.5 * (lo + hi)) / root < 1e-6


def test_thermal_negativity_and_root_golden_values():
    """Both public functions read one private closed form; its values are
    pinned bit for bit."""
    assert analytic.thermal_negativity_transverse_ising(1.0, 0.1, 1e-6) == 0.0
    assert analytic.thermal_negativity_transverse_ising(1.0, 0.1, 1e3) == 0.49029033536211614
    assert analytic.thermal_negativity_transverse_ising(1.3, 0.4, 2.5) == 0.13488526915635168
    assert analytic.thermal_negativity_root(1.0, 0.1) == 2.1935039621339163


def test_ground_state_formula():
    for b in (0.05, 0.1, 1.0, 3.0):
        h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=1.0, b=b), 2)
        _, vecs = np.linalg.eigh(h)
        psi = analytic.transverse_ising_ground_state(b)
        assert abs(abs(np.vdot(psi, vecs[:, 0])) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        analytic.transverse_ising_ground_state(0.0)


# --- general steady state --------------------------------------------------------


def test_general_steady_dephasing_special_case():
    g, gamma, r = 5.0, 1.0, 10.0
    state = analytic.ising_noise_reset_steady(0.0, 2 * gamma, 0.5, g, 0.0, r)
    want = r**2 * (r + gamma) / (4 * (r + 2 * gamma) * (2 * g * g + (r + gamma) * (r + 2 * gamma)))
    assert abs(state.matrix[0, 3] - want) < 1e-14
    assert abs(state.matrix[1, 2] - want) < 1e-14


def test_general_steady_no_reset_is_thermal_product():
    s = 0.37
    state = analytic.ising_noise_reset_steady(1.0, 0.8, s, 2.0, 1.5, 0.0)
    want = np.diag([s**2, s * (1 - s), s * (1 - s), (1 - s) ** 2])
    assert np.max(np.abs(state.matrix - want)) < 1e-14


def test_general_steady_random_grid_vs_numeric(rng):
    for _ in range(20):
        B = rng.uniform(0.1, 2)
        C = rng.uniform(B / 2, 2.5)
        s = rng.uniform(0, 1)
        g = rng.uniform(0, 3)
        om = rng.uniform(0, 3)
        r = rng.uniform(0.05, 5)
        want = analytic.ising_noise_reset_steady(B, C, s, g, om, r)
        h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
        lam = assemble(
            h,
            [
                local_noise_generator(2, GasNoiseParams(B, C, s)),
                reset_generator(2, ResetSpec.pure(r, 2, "+")),
            ],
        )
        assert np.max(np.abs(steady_state(lam).matrix - want.matrix)) < 1e-9


def test_general_steady_depolarizing_special_case():
    """s = 1/2 with B = C = 4/3 gamma is the depolarizing channel."""
    gamma, g, om, r = 0.9, 2.0, 1.1, 3.0
    state = analytic.ising_noise_reset_steady(4 * gamma / 3, 4 * gamma / 3, 0.5, g, om, r)
    h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
    lam = assemble(
        h,
        [
            local_noise_generator(2, GasNoiseParams(4 * gamma / 3, 4 * gamma / 3, 0.5)),
            reset_generator(2, ResetSpec.pure(r, 2, "+")),
        ],
    )
    assert np.max(np.abs(steady_state(lam).matrix - state.matrix)) < 1e-10


# --- time-dependent solution -----------------------------------------------------


@pytest.fixture
def fig3_liouvillian():
    g, gamma, om, r = 5.0, 1.0, 5.0, 10.0
    h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
    return assemble(
        h, [dephasing_generator(2, gamma), reset_generator(2, ResetSpec.pure(r, 2, "+"))]
    )


def test_time_solution_fit_reproduces_initial_state(rng):
    rho0 = random_density(2, rng)
    sol = analytic.DephasingIsingResetSolution.from_initial_state(rho0, 5.0, 1.0, 5.0, 10.0)
    assert np.max(np.abs(sol.coefficients(0.0) - rho0)) < 1e-10


def test_time_solution_long_time_diagonals(rng):
    rho0 = random_density(2, rng)
    sol = analytic.DephasingIsingResetSolution.from_initial_state(rho0, 5.0, 1.0, 5.0, 10.0)
    late = sol.coefficients(50.0)
    assert np.max(np.abs(np.diag(late) - 0.25)) < 1e-12


def test_time_solution_matches_evolve(rng, fig3_liouvillian):
    ts = np.linspace(0.0, 5.0, 26)
    for _ in range(5):
        rho0 = random_density(2, rng)
        sol = analytic.DephasingIsingResetSolution.from_initial_state(rho0, 5.0, 1.0, 5.0, 10.0)
        res = evolve(fig3_liouvillian, validate_density(rho0), ts)
        for t, state in zip(ts, res.states):
            assert np.max(np.abs(state.matrix - sol.coefficients(t))) < 1e-8


def test_time_solution_overdamped_and_critical(rng):
    for g, r in ((0.5, 10.0), (2.0, 8.0)):  # r > 4g and r = 4g exactly
        gamma, om = 0.7, 1.3
        h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
        lam = assemble(
            h, [dephasing_generator(2, gamma), reset_generator(2, ResetSpec.pure(r, 2, "+"))]
        )
        rho0 = random_density(2, rng)
        sol = analytic.DephasingIsingResetSolution.from_initial_state(rho0, g, gamma, om, r)
        res = evolve(lam, validate_density(rho0), np.linspace(0, 3, 7))
        for t, state in zip(res.times, res.states):
            assert np.max(np.abs(state.matrix - sol.coefficients(t))) < 1e-8


def test_time_solution_requires_positive_reset(rng):
    with pytest.raises(ValueError):
        analytic.DephasingIsingResetSolution.from_initial_state(
            random_density(2, rng), 1.0, 1.0, 0.0, 0.0
        )


# --- spectrum ---------------------------------------------------------------------


def test_spectrum_multiplicities_sum():
    listed = analytic.dephasing_ising_reset_spectrum(1.3, 0.7, 0.9, 2.1)
    assert sum(m for _, m in listed) == 16


def test_spectrum_special_point_matches_numeric():
    """At g = r = omega = 0 the formula degenerates to the pure-dephasing
    rates {0 x4, -2 gamma x8, -4 gamma x4}."""
    gamma = 1.0
    listed = analytic.dephasing_ising_reset_spectrum(0.0, gamma, 0.0, 0.0)
    pred = sorted([ev for ev, m in listed for _ in range(m)], key=lambda z: z.real)
    lam = assemble(np.zeros((4, 4), dtype=complex), [dephasing_generator(2, gamma)])
    got = sorted(spectrum(lam).raw, key=lambda z: z.real)
    assert np.max(np.abs(np.array(pred) - np.array(got))) < 1e-10
    from collections import Counter

    counts = Counter(round(ev.real, 9) for ev, m in listed for _ in range(m))
    assert counts == {0.0: 4, -2 * gamma: 8, -4 * gamma: 4}


def test_spectrum_generic_matches_numeric():
    g, gamma, om, r = 2.3, 0.6, 1.4, 5.0
    h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
    lam = assemble(h, [dephasing_generator(2, gamma), reset_generator(2, ResetSpec.pure(r, 2, "+"))])
    got = sorted(spectrum(lam).raw, key=lambda z: (round(z.real, 8), round(z.imag, 8)))
    pred = sorted(
        [ev for ev, m in analytic.dephasing_ising_reset_spectrum(g, gamma, om, r) for _ in range(m)],
        key=lambda z: (round(z.real, 8), round(z.imag, 8)),
    )
    assert np.max(np.abs(np.array(got) - np.array(pred))) < 1e-8


def test_closed_form_states_validate_strictly(rng):
    """Every closed-form steady state is a valid density matrix at 1e-10."""
    for _ in range(10):
        B = rng.uniform(0.1, 2)
        C = rng.uniform(B / 2, 2.5)
        s = rng.uniform(0, 1)
        g = rng.uniform(0, 3)
        om = rng.uniform(0, 3)
        r = rng.uniform(0.05, 5)
        analytic.ising_noise_reset_steady(B, C, s, g, om, r)  # validates at 1e-10
        analytic.xx_steady_with_reset(B, s, g, om, r)
        analytic.xx_steady_no_reset(B, s, g, om)
