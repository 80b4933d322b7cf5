from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resetlb import qop
from resetlb.dynamics import evolve, steady_state
from resetlb.liouville import (
    GasNoiseParams,
    HamiltonianSpec,
    ResetSpec,
    Superoperator,
    ThermalBathParams,
    assemble,
    bloch_vector,
    build_hamiltonian,
    dephasing_generator,
    dissipator,
    gibbs_state,
    local_noise_generator,
    reset_generator,
    reset_lindblad_matrix,
    state_from_bloch,
    thermal_generator,
)
from resetlb.liouville import _lowering_elements
from resetlb.qop import (
    bell_state,
    ket,
    local_pauli,
    projector,
    random_density,
    validate_density,
)
from resetlb.verify import apply_master_equation

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# --- Hamiltonians -------------------------------------------------------------


def test_ising_diagonal():
    h = build_hamiltonian(HamiltonianSpec("ising", g=0.7), 2)
    assert np.allclose(h, 0.7 * np.diag([1, -1, -1, 1]))


def test_transverse_ising_eigenvalues():
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=1.0, b=1.0), 2)
    want = np.sort([-np.sqrt(5), -1.0, 1.0, np.sqrt(5)])
    assert np.max(np.abs(np.linalg.eigvalsh(h) - want)) < 1e-12


def test_gradient_field_lifts_degeneracy():
    h = build_hamiltonian(HamiltonianSpec("ising_gradient", g=1.0, b=0.5), 3)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    gaps = np.diff(np.sort(np.linalg.eigvalsh(h)))
    assert np.all(gaps > 0)


def test_unknown_kind_and_custom_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec("bogus")
    with pytest.raises(ValueError, match="Hermitian"):
        build_hamiltonian(HamiltonianSpec("custom", matrix=np.array([[0, 1], [0, 0]])), 1)
    with pytest.raises(ValueError, match="4 x 4"):
        build_hamiltonian(HamiltonianSpec("custom", matrix=qop.PAULI["x"]), 2)
    with pytest.raises(ValueError, match="does not read 'g'"):
        HamiltonianSpec("custom", matrix=qop.PAULI["x"], g=1.0)


def kron_pair_coupling(n, which):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            out += local_pauli(n, i, which) @ local_pauli(n, j, which)
    return out


def kron_site_field(n, which):
    out = np.zeros((2**n, 2**n), dtype=complex)
    for k in range(n):
        out += local_pauli(n, k, which)
    return out


def kron_hamiltonian(spec, n):
    """Reference spin Hamiltonians summed from kron-embedded Pauli products."""
    pair, site = kron_pair_coupling, kron_site_field
    if spec.kind == "ising":
        return spec.g * pair(n, "z") + 0.5 * spec.omega * site(n, "z")
    if spec.kind == "sxsx":
        return spec.g * pair(n, "x") + 0.5 * spec.omega * site(n, "z")
    if spec.kind == "xyz":
        h = spec.g * (
            spec.cx * pair(n, "x") + spec.cy * pair(n, "y") + spec.cz * pair(n, "z") + spec.cfield * site(n, "x")
        )
        return h + 0.5 * spec.omega * site(n, "z")
    h = spec.g * (pair(n, "z") + spec.b * site(n, "x"))
    if spec.kind == "ising_gradient":
        for k in range(n):
            h += spec.g * spec.b * 1e-5 * ((k + 1) / n) * local_pauli(n, k, "z")
    return h


SPIN_KINDS = sorted(set(HamiltonianSpec.KINDS) - {"custom"})
HAMILTONIAN_PARAMS = ("g", "omega", "b", "cx", "cy", "cz", "cfield")


@pytest.mark.parametrize("kind", SPIN_KINDS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_spin_hamiltonians_equal_kron_formulas(kind, n):
    """The bit-arithmetic writer keeps the kron summation order, so every
    spin kind matches its reference bit for bit."""
    for draw in np.random.default_rng(n).normal(size=(3, 7)) * [[0.9], [13.7], [2e-3]]:
        read = HamiltonianSpec.KINDS[kind]
        spec = HamiltonianSpec(kind, **{name: v for name, v in zip(HAMILTONIAN_PARAMS, draw) if name in read})
        assert np.array_equal(build_hamiltonian(spec, n), kron_hamiltonian(spec, n))


@pytest.mark.parametrize("kind", SPIN_KINDS)
def test_spin_kind_reads_exactly_its_parameters(kind):
    """Each parameter ``KINDS`` lists changes H; every other one is refused
    unless it keeps its default."""
    read = HamiltonianSpec.KINDS[kind]
    spec = HamiltonianSpec(kind, **{name: v for name, v in [("g", 1.3), ("omega", 0.4), ("b", 0.6)] if name in read})
    base = build_hamiltonian(spec, 3)
    for name in HAMILTONIAN_PARAMS:
        if name in read:
            assert not np.array_equal(build_hamiltonian(replace(spec, **{name: 2.9}), 3), base), name
        else:
            with pytest.raises(ValueError, match=f"does not read '{name}'"):
                replace(spec, **{name: 2.9})
    with pytest.raises(ValueError, match="does not read 'matrix'"):
        replace(spec, matrix=np.eye(8))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_gathered_lowering_elements_equal_kron_product(n, rng):
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    for h in (a + a.conj().T, build_hamiltonian(HamiltonianSpec("xyz", g=1.1, omega=0.7), n)):
        vecs = np.linalg.eigh(h)[1]
        for j in range(n):
            want = vecs.conj().T @ local_pauli(n, j, "-") @ vecs
            # the same products in another summation order: equal up to rounding
            np.testing.assert_allclose(_lowering_elements(vecs, j), want, rtol=0, atol=1e-15)


def test_xyz_hermitian_with_field():
    h = build_hamiltonian(HamiltonianSpec("xyz", g=2.5, omega=4.0), 2)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14


# --- local noise and dephasing -------------------------------------------------


def test_local_noise_invalid_params():
    with pytest.raises(ValueError):
        GasNoiseParams(B=-1.0, C=1.0, s=0.5)
    with pytest.raises(ValueError):
        GasNoiseParams(B=1.0, C=0.2, s=0.5)
    with pytest.raises(ValueError):
        GasNoiseParams(B=1.0, C=1.0, s=1.5)


def test_pure_decay_steady_state():
    gen = local_noise_generator(1, GasNoiseParams(B=1.0, C=0.5, s=0.0))
    ss = steady_state(gen)
    assert np.max(np.abs(ss.matrix - np.diag([0.0, 1.0]))) < 1e-10


def test_local_noise_dephasing_special_case():
    for n in (2, 3, 4):
        a = local_noise_generator(n, GasNoiseParams(B=0.0, C=2 * 0.7, s=0.9)).matrix
        b = dephasing_generator(n, 0.7).matrix
        assert np.max(np.abs(a - b)) < 1e-14


def test_local_noise_trace_preserving(rng):
    gen = local_noise_generator(2, GasNoiseParams(B=0.9, C=1.2, s=0.4))
    for _ in range(100):
        rho = random_density(2, rng)
        assert abs(np.trace(gen.apply(rho))) < 1e-13


@settings(max_examples=10, deadline=None)
@given(st.floats(0.0, 1.0))
def test_local_noise_fixed_point_inversion(s):
    gen = local_noise_generator(1, GasNoiseParams(B=1.0, C=0.8, s=s))
    ss = steady_state(gen)
    inversion = np.trace(ss.matrix @ (np.eye(2) + qop.PAULI["z"]) / 2).real
    assert abs(inversion - s) < 1e-9


def test_dephasing_fixes_diagonals(rng):
    gen = dephasing_generator(2, 1.3)
    rho = np.diag(rng.random(4))
    rho /= np.trace(rho)
    assert np.max(np.abs(gen.apply(rho))) < 1e-14


def test_dephasing_coherence_decay_rate():
    gamma = 0.8
    gen = dephasing_generator(1, gamma)
    rho0 = validate_density(projector(ket("+")))
    ts = np.linspace(0, 2.0, 9)
    res = evolve(gen, rho0, ts)
    for t, st_ in zip(ts, res.states):
        assert abs(st_.matrix[0, 1] - 0.5 * np.exp(-2 * gamma * t)) < 1e-10


# --- reset ---------------------------------------------------------------------


def test_reset_fixed_point_single_qubit():
    gen = reset_generator(1, ResetSpec.pure(2.0, 1, "+"))
    ss = steady_state(gen)
    assert np.max(np.abs(ss.matrix - projector(ket("+")))) < 1e-10


def test_reset_action_on_bell_state():
    r = 1.7
    gen = reset_generator(2, ResetSpec.pure(r, 2, "+"))
    drho = gen.apply(bell_state())
    assert abs(np.trace(drho)) < 1e-13
    assert abs(drho[0, 3] + 2 * r * bell_state()[0, 3]) < 1e-13


def test_reset_rate_zero_is_zero_superoperator():
    gen = reset_generator(2, ResetSpec.pure(0.0, 2, "+"))
    assert np.max(np.abs(gen.matrix)) == 0.0


def test_reset_invalid_state_rejected():
    bad = np.array([[0.8, 0.0], [0.0, 0.4]], dtype=complex)
    with pytest.raises(qop.DensityMatrixError):
        ResetSpec(1.0, (bad,))
    with pytest.raises(ValueError):
        ResetSpec.pure(-1.0, 1, "+")


def test_reset_purity_recovery():
    spec = ResetSpec.mixed(1.0, 2, 0.93, "+")
    assert abs(spec.purity() - 0.93) < 1e-12
    assert abs(ResetSpec.pure(1.0, 1, "1").purity() - 1.0) < 1e-12


def test_bloch_round_trip():
    st_ = state_from_bloch(0.1, -0.2, 0.3)
    assert np.allclose(bloch_vector(st_), [0.1, -0.2, 0.3])
    with pytest.raises(ValueError):
        state_from_bloch(0.5, 0.5, 0.5)


# --- reset Lindblad-form certificate -------------------------------------------


@pytest.mark.parametrize("r", [0.1, 1.0, 10.0])
def test_reset_lindblad_matrix_pure_eigenvalues(r, rng):
    for _ in range(20):
        v = rng.standard_normal(3)
        v *= 0.5 / np.linalg.norm(v)
        evals = np.sort(np.linalg.eigvalsh(reset_lindblad_matrix(tuple(v), r)))
        assert np.max(np.abs(evals - np.sort([r / 8, 0.0, r / 4]))) < 1e-12


def test_reset_lindblad_matrix_maximally_mixed():
    evals = np.linalg.eigvalsh(reset_lindblad_matrix((0.0, 0.0, 0.0), 2.0))
    assert np.max(np.abs(evals - 0.25)) < 1e-14


@settings(max_examples=50, deadline=None)
@given(seeds, st.one_of(st.floats(0.0, 0.499), st.floats(0.501, 0.8)))
def test_reset_lindblad_matrix_psd_iff_in_ball(seed, norm):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(3)
    v *= norm / max(np.linalg.norm(v), 1e-12)
    evals = np.linalg.eigvalsh(reset_lindblad_matrix(tuple(v), 1.0))
    if norm <= 0.5:  # Bloch vector inside the ball: valid reset channel
        assert evals[0] >= -1e-12
    else:
        assert evals[0] < -1e-12


# --- thermal bath ----------------------------------------------------------------


def test_thermal_params_validation():
    with pytest.raises(ValueError):
        ThermalBathParams(gamma=-0.1, beta=1.0)
    with pytest.raises(ValueError):
        ThermalBathParams(gamma=1.0, beta=0.0)


def test_thermal_steady_state_is_gibbs(rng):
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=1.0, b=0.3), 2)
    for beta in rng.uniform(0.1, 10.0, 4):
        gen = thermal_generator(h, ThermalBathParams(gamma=0.7, beta=float(beta)))
        ss = steady_state(assemble(h, [gen]))
        assert np.max(np.abs(ss.matrix - gibbs_state(h, beta))) < 1e-8


def test_thermal_zero_coupling_is_zero():
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=1.0, b=0.3), 2)
    gen = thermal_generator(h, ThermalBathParams(gamma=0.0, beta=1.0))
    assert np.max(np.abs(gen.matrix)) == 0.0


def test_thermal_rejects_degenerate_hamiltonian():
    h = build_hamiltonian(HamiltonianSpec("ising", g=1.0), 2)  # b = 0 degenerate
    with pytest.raises(ValueError):
        thermal_generator(h, ThermalBathParams(gamma=1.0, beta=1.0))


def test_thermal_quasi_degenerate_grouping():
    """The multipartite gradient-field Hamiltonian splits some levels only at
    second order; the grouped generator still lands on the Gibbs state."""
    h = build_hamiltonian(HamiltonianSpec("ising_gradient", g=15.0, b=0.1), 3)
    with pytest.raises(ValueError):
        thermal_generator(h, ThermalBathParams(gamma=1.0, beta=0.2))
    gen = thermal_generator(h, ThermalBathParams(gamma=1.0, beta=0.2), merge_degenerate=True)
    ss = steady_state(assemble(h, [gen]))
    assert np.max(np.abs(ss.matrix - gibbs_state(h, 0.2))) < 1e-8


def eigenbasis_thermal(h, gamma, beta, tol=1e-8):
    """Reference thermal generator: rates between grouped levels written into
    a D^2 x D^2 eigenbasis matrix, then changed to the computational basis
    with kron products."""
    n = qop.n_qubits_of(h.shape[0])
    d = h.shape[0]
    evals, vecs = np.linalg.eigh(h)
    scale = max(np.max(np.abs(evals)), 1e-300)
    group = np.zeros(d, dtype=int)
    for k in range(1, d):
        group[k] = group[k - 1] + (1 if evals[k] - evals[k - 1] >= tol * scale else 0)
    level = np.array([evals[group == gid].mean() for gid in range(group[-1] + 1)])
    melem = np.zeros((d, d))
    for j in range(n):
        melem += np.abs(vecs.conj().T @ local_pauli(n, j, "-") @ vecs) ** 2
    rate = np.zeros((d, d))
    with np.errstate(over="ignore"):
        for a in range(d):
            for b in range(d):
                if group[a] == group[b]:
                    continue
                de = level[group[a]] - level[group[b]]
                if de > 0:  # emission, N + 1
                    nbar = 1.0 / np.expm1(beta * de)
                    rate[a, b] = 2 * gamma * (nbar + 1.0) * melem[b, a]
                else:  # absorption, N
                    nbar = 1.0 / np.expm1(beta * (-de))
                    rate[a, b] = 2 * gamma * nbar * melem[a, b]
    out_rate = rate.sum(axis=1)
    lam_eig = np.diag(qop.vec(-0.5 * (out_rate[:, None] + out_rate[None, :]))).astype(complex)
    for a in range(d):
        for b in range(d):
            lam_eig[b * d + b, a * d + a] += rate[a, b]
    return np.kron(vecs.conj(), vecs) @ lam_eig @ np.kron(vecs.T, vecs.conj().T)


@pytest.mark.parametrize(
    "kind, g, b, n, beta",
    [
        ("ising_transverse", 1.0, 0.3, 2, 1.0),
        ("ising_transverse", 1.0, 0.3, 2, 1000.0),
        ("ising_transverse", 1.0, 0.3, 3, 1.0),
        ("ising_transverse", 1.0, 0.3, 3, 1000.0),
        ("ising_gradient", 15.0, 0.1, 2, 0.2),
        ("ising_gradient", 15.0, 0.1, 3, 0.2),
        ("ising_gradient", 15.0, 0.1, 4, 0.2),
    ],
)
def test_thermal_generator_equals_eigenbasis_kron_formula(kind, g, b, n, beta):
    h = build_hamiltonian(HamiltonianSpec(kind, g=g, b=b), n)
    params = ThermalBathParams(gamma=0.7, beta=beta)
    got = thermal_generator(h, params, merge_degenerate=n > 2).matrix
    want = eigenbasis_thermal(h, 0.7, beta)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_five_qubit_thermal_generator_peak_memory():
    """The thermal generator holds its result, not a second D^2 x D^2 basis."""
    import tracemalloc

    h = build_hamiltonian(HamiltonianSpec("ising_gradient", g=15.0, b=0.1), 5)
    tracemalloc.start()
    try:
        gen = thermal_generator(h, ThermalBathParams(gamma=1.0, beta=0.2), merge_degenerate=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * gen.matrix.nbytes


# --- assembly --------------------------------------------------------------------


def test_assemble_zero():
    lam = assemble(np.zeros((4, 4), dtype=complex), [])
    assert np.max(np.abs(lam.matrix)) == 0.0


def test_assemble_dimensions():
    h = build_hamiltonian(HamiltonianSpec("ising", g=1.0, omega=1.0), 2)
    lam = assemble(
        h,
        [dephasing_generator(2, 1.0), reset_generator(2, ResetSpec.pure(1.0, 2, "+"))],
    )
    assert lam.matrix.shape == (16, 16)
    with pytest.raises(ValueError):
        assemble(h, [dephasing_generator(1, 1.0)])


def test_assemble_action_matches_direct_application(rng):
    n = 2
    h = build_hamiltonian(HamiltonianSpec("ising", g=0.9, omega=1.3), n)
    noise = GasNoiseParams(B=0.8, C=0.7, s=0.25)
    spec = ResetSpec.pure(1.1, n, "+")
    lam = assemble(h, [local_noise_generator(n, noise), reset_generator(n, spec)])
    for _ in range(100):
        rho = random_density(n, rng)
        want = apply_master_equation(rho, h, noise, spec, n)
        assert np.max(np.abs(lam.apply(rho) - want)) < 1e-12


def test_trace_row_of_assembled_liouvillian_vanishes():
    h = build_hamiltonian(HamiltonianSpec("sxsx", g=2.0, omega=1.0), 2)
    lam = assemble(
        h,
        [
            local_noise_generator(2, GasNoiseParams(B=1.0, C=0.5, s=0.2)),
            reset_generator(2, ResetSpec.pure(0.7, 2, "1")),
        ],
    )
    row = qop.vec(np.eye(4)) @ lam.matrix
    assert np.max(np.abs(row)) < 1e-12


def test_non_trace_preserving_matrix_rejected():
    with pytest.raises(ValueError):
        Superoperator(np.eye(16, dtype=complex), 2)



def test_evolution_preserves_positivity(rng):
    """Complete-positivity smoke test over t in [0, 10/max-rate]."""
    h = build_hamiltonian(HamiltonianSpec("ising", g=2.0, omega=1.0), 2)
    lam = assemble(
        h,
        [
            local_noise_generator(2, GasNoiseParams(B=1.0, C=0.8, s=0.3)),
            reset_generator(2, ResetSpec.mixed(2.0, 2, 0.95, "+")),
        ],
    )
    t_max = 10.0 / 2.0
    for _ in range(3):
        rho0 = validate_density(random_density(2, rng))
        res = evolve(lam, rho0, np.linspace(0, t_max, 8))
        for state in res.states:
            validate_density(state.matrix, tol=1e-9)


# --- single-qubit blocks against the kron-sandwich formula -----------------------

# one distinct reset state per qubit: pure, mixed, off-axis Bloch vector, pure
RESET_STATES = (
    projector(ket("+")),
    ResetSpec.mixed(1.0, 1, 0.8, "-").states[0],
    state_from_bloch(0.1, -0.2, 0.3),
    projector(ket("1")),
)
NOISE = GasNoiseParams(B=0.83, C=1.37, s=0.29)


def kron_noise(n, params):
    mat = np.zeros((4**n, 4**n), dtype=complex)
    for i in range(n):
        mat += dissipator(local_pauli(n, i, "-"), params.B * (1 - params.s))
        mat += dissipator(local_pauli(n, i, "+"), params.B * params.s)
        mat += dissipator(local_pauli(n, i, "z"), (2 * params.C - params.B) / 4)
    return mat


def kron_dephasing(n, gamma):
    mat = np.zeros((4**n, 4**n), dtype=complex)
    for i in range(n):
        mat += dissipator(local_pauli(n, i, "z"), gamma)
    return mat


def kron_reset(n, spec):
    """Eight sandwiches per qubit: sum_m (|a><m|)_i rho (|m><b|)_i = (|a><b|)_i (x) tr_i rho."""
    mat = np.zeros((4**n, 4**n), dtype=complex)
    basis = (qop.KET_0, qop.KET_1)
    for i, state in enumerate(spec.states):
        for a in range(2):
            for b in range(2):
                for m in range(2):
                    left = qop.embed_single_qubit(np.outer(basis[a], basis[m]), n, i)
                    right = qop.embed_single_qubit(np.outer(basis[m], basis[b]), n, i)
                    mat += state[a, b] * qop.left_right_superop(left, right)
        mat -= np.eye(4**n)
    return spec.r * mat


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_single_qubit_generators_equal_kron_sandwiches(n):
    spec = ResetSpec(1.9, RESET_STATES[:n])
    assert np.array_equal(local_noise_generator(n, NOISE).matrix, kron_noise(n, NOISE))
    assert np.array_equal(dephasing_generator(n, 0.61).matrix, kron_dephasing(n, 0.61))
    assert np.array_equal(reset_generator(n, spec).matrix, kron_reset(n, spec))


@pytest.mark.parametrize("n", [3, 4])
def test_assembled_liouvillian_matches_column_by_column_oracle(n):
    h = build_hamiltonian(HamiltonianSpec("xyz", g=1.1, omega=0.7), n)
    spec = ResetSpec(1.9, RESET_STATES[:n])
    lam = assemble(h, [local_noise_generator(n, NOISE), reset_generator(n, spec)])
    d2 = 4**n
    want = np.empty((d2, d2), dtype=complex)
    for k, unit in enumerate(np.eye(d2)):
        want[:, k] = qop.vec(apply_master_equation(qop.unvec(unit), h, NOISE, spec, n))
    assert np.max(np.abs(lam.matrix - want)) < 1e-12


def test_six_qubit_gas_liouvillian(rng):
    """Ising gas with local noise and reset at the dense limit, 4096^2."""
    n = 6
    h = build_hamiltonian(HamiltonianSpec("ising", g=0.9, omega=1.3), n)
    spec = ResetSpec(1.1, RESET_STATES + RESET_STATES[:2])
    lam = assemble(h, [local_noise_generator(n, NOISE), reset_generator(n, spec)])
    row = qop.vec(np.eye(2**n)) @ lam.matrix
    assert np.max(np.abs(row)) < 1e-12
    for _ in range(3):
        rho = random_density(n, rng)
        want = apply_master_equation(rho, h, NOISE, spec, n)
        assert np.max(np.abs(lam.apply(rho) - want)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_assemble_commutator_equals_kron_formula(n):
    h = build_hamiltonian(HamiltonianSpec("xyz", g=1.1, omega=0.7), n) if n > 1 else 0.3 * qop.PAULI["y"]
    eye = np.eye(2**n)
    want = -1j * (qop.left_right_superop(h, eye) - qop.left_right_superop(eye, h))
    assert np.array_equal(assemble(h, []).matrix, want)


def test_five_qubit_assembly_peak_memory():
    """build_liouvillian holds its generators and the result, not kron temporaries."""
    import tracemalloc
    from pathlib import Path

    from resetlb.config import build_liouvillian, parse_config

    cfg = parse_config(str(Path(__file__).resolve().parent.parent / "configs" / "measures_gas.json"))
    tracemalloc.start()
    try:
        lam = build_liouvillian(cfg, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * lam.matrix.nbytes


# --- the Superoperator contract --------------------------------------------------


def gas_generator(n):
    h = build_hamiltonian(HamiltonianSpec("xyz", g=1.1, omega=0.7), n)
    return assemble(h, [local_noise_generator(n, NOISE), reset_generator(n, ResetSpec.pure(1.9, n, "+"))])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(0.0, np.inf)])
def test_non_finite_entries_rejected(bad):
    mat = np.array(gas_generator(2).matrix)
    mat[5, 9] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Superoperator(mat, 2)


def test_superoperator_scale_needs_no_full_temporary():
    """``norm`` and max|L| come from row blocks, not from a D^2 x D^2 |L|
    array: constructing an n = 5 Superoperator allocates under a quarter of
    L, and a non-finite entry in the last block is still refused."""
    import tracemalloc

    mat = np.array(gas_generator(5).matrix)
    tracemalloc.start()
    try:
        Superoperator(mat, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mat.nbytes / 4
    mat = np.array(mat)
    mat[1000, 9] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        Superoperator(mat, 5)


# [c, r, c', r'] entries: a row with c = r, a row with c != r, and its partner
def test_superoperator_takes_ownership_of_a_complex_array():
    """A complex128 matrix is stored as given and frozen, not copied; any
    other dtype is converted into a new array and the caller's stays writable."""
    mat = np.zeros((16, 16), dtype=complex)
    lam = Superoperator(mat, 2)
    assert lam.matrix is mat and not mat.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mat[0, 0] = 1.0
    real = np.zeros((16, 16))
    assert Superoperator(real, 2).matrix is not real and real.flags.writeable


# (r, c, r', c'); each must equal the conjugate of its partner
@pytest.mark.parametrize("entry", [(1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (3, 2, 0, 3)])
@pytest.mark.parametrize("n", [2, 3])
def test_single_entry_hermiticity_skew_rejected(entry, n):
    lam = gas_generator(n)
    mat = np.array(lam.matrix)
    view = mat.reshape((2**n,) * 4)
    view[entry] += 1e-8 * np.max(np.abs(mat)) * (1 + 1j)
    with pytest.raises(ValueError, match="Hermiticity"):
        Superoperator(mat, n)
    # a skew well inside the tolerance passes
    mat = np.array(lam.matrix)
    mat.reshape((2**n,) * 4)[entry] += 1e-13 * np.max(np.abs(mat)) * 1j
    Superoperator(mat, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_builder_passes_the_contract(n, rng):
    """Each generator builder constructs at every n up to 5, and ``norm`` is
    the largest absolute row sum of the matrix."""
    a = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    h = build_hamiltonian(HamiltonianSpec("custom", matrix=a + a.conj().T), n)
    degenerate = build_hamiltonian(HamiltonianSpec("ising", g=1.0, omega=0.5), n)
    noise = local_noise_generator(n, NOISE)
    lams = [
        noise,
        dephasing_generator(n, 0.61),
        *(reset_generator(n, ResetSpec.uniform(1.9, n, state)) for state in RESET_STATES),
        thermal_generator(h, ThermalBathParams(1.0, 0.8)),
        thermal_generator(degenerate, ThermalBathParams(1.0, 2.0), merge_degenerate=True),
        assemble(h, [noise, reset_generator(n, ResetSpec.uniform(1.9, n, RESET_STATES[2]))]),
    ]
    for lam in lams:
        assert lam.norm == np.abs(lam.matrix).sum(axis=1).max()
