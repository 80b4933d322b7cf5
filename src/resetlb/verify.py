"""Cross-validation suite: every closed form checked against an
independent numerical path and vice versa.

Each check pairs one implementation route with a genuinely independent
oracle (index-summation partial trace, Hermitian-square-root trace norm,
direct master-equation application, brute-force statevectors, bisection
against Gibbs states, ...).  ``run_checks`` returns per-check results and
is the engine behind the ``verify`` CLI subcommand; the ``formula_shift``
hook deliberately perturbs the reset-negativity formula so the negative
control in the test suite can demonstrate that a broken constant is
caught by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from resetlb import analytic, qop
from resetlb.dynamics import entangled_reset_window, entangling_profile, evolve, spectrum, steady_state
from resetlb.entanglement import average_negativity, negativity
from resetlb.liouville import (
    GasNoiseParams,
    HamiltonianSpec,
    ResetSpec,
    ThermalBathParams,
    assemble,
    build_hamiltonian,
    dephasing_generator,
    gibbs_state,
    local_noise_generator,
    reset_generator,
    reset_lindblad_matrix,
    thermal_generator,
)
from resetlb.qop import local_pauli, partial_trace, partial_transpose, random_density, trace_norm
from resetlb.spingas import (
    GasConfig,
    PhaseMatrix,
    exchange,
    new_state,
    reduced_density,
    run_ensemble,
    simulate_run,
    step,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    target: str  # module.operation or formula under test
    passed: bool
    max_dev: float
    tol: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"[{status}] {self.name}: {self.target} dev={self.max_dev:.3e} tol={self.tol:.1e}"
        if self.detail:
            out += f" ({self.detail})"
        return out


def _result(name, target, dev, tol, detail="") -> CheckResult:
    return CheckResult(name, target, bool(dev <= tol), float(dev), float(tol), detail)


# --- independent oracles ------------------------------------------------------


def indexsum_partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Partial trace by explicit summation over basis indices."""
    keep = sorted(keep)
    traced = [q for q in range(n) if q not in keep]
    dk = 2 ** len(keep)
    out = np.zeros((dk, dk), dtype=complex)

    def build_index(keep_bits, traced_bits):
        bits = [0] * n
        for q, b in zip(keep, keep_bits):
            bits[q] = b
        for q, b in zip(traced, traced_bits):
            bits[q] = b
        return sum(b << (n - 1 - q) for q, b in enumerate(bits))

    for a in range(dk):
        abits = [(a >> (len(keep) - 1 - i)) & 1 for i in range(len(keep))]
        for b in range(dk):
            bbits = [(b >> (len(keep) - 1 - i)) & 1 for i in range(len(keep))]
            for m in range(2 ** len(traced)):
                mbits = [(m >> (len(traced) - 1 - i)) & 1 for i in range(len(traced))]
                out[a, b] += rho[build_index(abits, mbits), build_index(bbits, mbits)]
    return out


def statevector_reduced(phases: np.ndarray, subset, n: int) -> np.ndarray:
    """Weighted-graph-state reduction via the full 2^n statevector.

    Output qubit order follows ``subset`` (partial_trace itself returns
    ascending-index order)."""
    subset = list(subset)
    bits = ((np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(float)
    theta = 0.5 * np.einsum("si,ij,sj->s", bits, phases[:n, :n], bits)
    psi = np.exp(1j * theta) / np.sqrt(2.0**n)
    red = partial_trace(np.outer(psi, psi.conj()), keep=subset, n=n)
    order = np.argsort(np.argsort(subset))  # ascending position of each requested qubit
    k = len(subset)
    perm = list(order) + [k + ax for ax in order]
    return red.reshape((2,) * (2 * k)).transpose(perm).reshape(2**k, 2**k)


def apply_master_equation(rho, h, noise: GasNoiseParams, rspec: ResetSpec, n: int) -> np.ndarray:
    """Direct evaluation of -i[H, rho] + noise + reset terms."""
    out = -1j * (h @ rho - rho @ h)
    for i in range(n):
        sm = local_pauli(n, i, "-")
        sp = local_pauli(n, i, "+")
        sz = local_pauli(n, i, "z")
        out += noise.B * (1 - noise.s) * (sm @ rho @ sp - 0.5 * (sp @ sm @ rho + rho @ sp @ sm))
        out += noise.B * noise.s * (sp @ rho @ sm - 0.5 * (sm @ sp @ rho + rho @ sm @ sp))
        out += (2 * noise.C - noise.B) / 4 * (sz @ rho @ sz - rho)
        keep = [q for q in range(n) if q != i]
        red = partial_trace(rho, keep, n)
        out += rspec.r * (_insert_site(rspec.states[i], red, i, n) - rho)
    return out


def _insert_site(single: np.ndarray, rest: np.ndarray, site: int, n: int) -> np.ndarray:
    """single-qubit matrix at ``site`` tensored into ``rest`` (other qubits,
    original order)."""
    m = rest.reshape((2,) * (2 * (n - 1)))
    full = np.tensordot(single.reshape(2, 2), m, axes=0)
    # axes: (site_row, site_col, rest rows..., rest cols...)
    row_axes = [2 + k for k in range(n - 1)]
    col_axes = [2 + (n - 1) + k for k in range(n - 1)]
    row_axes.insert(site, 0)
    col_axes.insert(site, 1)
    return full.transpose(row_axes + col_axes).reshape(2**n, 2**n)


# --- individual checks --------------------------------------------------------


def check_partial_trace(rng) -> CheckResult:
    dev = 0.0
    for _ in range(5):
        rho = random_density(3, rng)
        got = partial_trace(rho, keep=(0, 2), n=3)
        want = indexsum_partial_trace(rho, (0, 2), 3)
        dev = max(dev, float(np.max(np.abs(got - want))))
    return _result("partial_trace_indexsum", "qop.partial_trace", dev, 1e-12)


def check_trace_norm(rng) -> CheckResult:
    dev = 0.0
    for _ in range(5):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        evals = np.linalg.eigvalsh(m.conj().T @ m)
        want = float(np.sum(np.sqrt(np.clip(evals, 0, None))))
        dev = max(dev, abs(trace_norm(m) - want))
    return _result("trace_norm_sqrt_oracle", "qop.trace_norm", dev, 1e-10)


def check_gradient_hamiltonian() -> CheckResult:
    h = build_hamiltonian(HamiltonianSpec("ising_gradient", g=1.0, b=0.5), 3)
    herm = float(np.max(np.abs(h - h.conj().T)))
    gaps = np.diff(np.sort(np.linalg.eigvalsh(h)))
    min_gap = float(np.min(gaps))
    dev = herm if min_gap > 0 else float("inf")
    return _result(
        "gradient_field_lifts_degeneracy",
        "liouville.build_hamiltonian",
        dev,
        1e-12,
        f"min gap {min_gap:.2e}",
    )


def check_decay_fixed_point() -> CheckResult:
    gen = local_noise_generator(1, GasNoiseParams(B=1.0, C=0.5, s=0.0))
    ss = steady_state(gen)
    want = np.diag([0.0, 1.0]).astype(complex)
    dev = float(np.max(np.abs(ss.matrix - want)))
    return _result("pure_decay_fixed_point", "liouville.local_noise_generator", dev, 1e-10)


def check_reset_bell_action() -> CheckResult:
    r = 1.3
    gen = reset_generator(2, ResetSpec.pure(r, 2, "+"))
    bell = qop.bell_state()
    drho = gen.apply(bell)
    dev = abs(np.trace(drho))
    dev = max(dev, abs(drho[0, 3] - (-2 * r) * bell[0, 3]))
    return _result("reset_action_on_bell", "liouville.reset_generator", float(dev), 1e-12)


def check_mixed_reset_psd() -> CheckResult:
    b = np.array([0.98 * 0.5, 0.0, 0.0])  # purity 0.98 along |+>
    mat = reset_lindblad_matrix(tuple(b), r=1.0)
    evals = np.linalg.eigvalsh(mat)
    dev = float(max(0.0, -evals[0]))
    return _result("mixed_reset_coefficients_psd", "liouville.reset_lindblad_matrix", dev, 1e-12)


def check_thermal_ground_state() -> CheckResult:
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=1.0, b=0.1), 2)
    gen = thermal_generator(h, ThermalBathParams(gamma=1.0, beta=1000.0))
    ss = steady_state(assemble(h, [gen]))
    psi = analytic.transverse_ising_ground_state(0.1)
    fidelity = float(np.real(np.vdot(psi, ss.matrix @ psi)))
    return _result(
        "cold_bath_reaches_ground_state",
        "liouville.thermal_generator vs eigenvector formula",
        1.0 - fidelity,
        1e-6,
    )


def check_liouvillian_action(rng) -> CheckResult:
    n = 2
    h = build_hamiltonian(HamiltonianSpec("ising", g=0.9, omega=1.3), n)
    noise = GasNoiseParams(B=0.8, C=0.7, s=0.25)
    rspec = ResetSpec.pure(1.1, n, "+")
    lam = assemble(h, [local_noise_generator(n, noise), reset_generator(n, rspec)])
    dev = 0.0
    for _ in range(100):
        rho = random_density(n, rng)
        dev = max(dev, float(np.max(np.abs(lam.apply(rho) - apply_master_equation(rho, h, noise, rspec, n)))))
    return _result("liouvillian_action_direct", "liouville.assemble", dev, 1e-12)


def check_spectrum_stability() -> CheckResult:
    h = build_hamiltonian(HamiltonianSpec("ising", g=2.0, omega=1.0), 2)
    lam = assemble(
        h,
        [
            local_noise_generator(2, GasNoiseParams(B=0.5, C=0.5, s=0.3)),
            reset_generator(2, ResetSpec.pure(0.8, 2, "+")),
        ],
    )
    rep = spectrum(lam)
    dev = max(0.0, max(ev.real for ev in rep.eigenvalues))
    # cross-check: long-time evolution lands on the steady state
    ss = steady_state(lam)
    res = evolve(lam, qop.validate_density(np.eye(4) / 4), [0.0, 80.0])
    dev2 = float(np.max(np.abs(res.states[-1].matrix - ss.matrix)))
    return _result(
        "spectrum_stability",
        "dynamics.spectrum",
        float(dev),
        1e-9,
        f"evolution convergence {dev2:.1e}",
    )


def check_entangling_window() -> CheckResult:
    gamma, beta, g, b = 1.0, 1000.0, 10.0, 0.1
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=g, b=b), 2)
    lam0 = assemble(h, [thermal_generator(h, ThermalBathParams(gamma, beta))])
    reset_state = qop.validate_density(qop.projector(qop.ket("++")))
    profile = entangling_profile(lam0, reset_state, np.linspace(0.0, 2.0, 81))
    window = entangled_reset_window(profile, c=2.0)
    if window is None:
        return _result("entangling_window_overlap", "dynamics.entangling_profile", float("inf"), 0.5)
    r_lo, r_hi = window
    entangled_rs = []
    for r in np.linspace(max(r_lo * 0.5, 1.0), r_hi * 2, 12):
        lam = assemble(
            h,
            [
                thermal_generator(h, ThermalBathParams(gamma, beta)),
                reset_generator(2, ResetSpec.pure(r, 2, "+")),
            ],
        )
        if negativity(steady_state(lam), (0,)) > 1e-6:
            entangled_rs.append(r)
    overlap = [r for r in entangled_rs if r_lo <= r <= r_hi]
    dev = 0.0 if overlap else float("inf")
    return _result(
        "entangling_window_overlap",
        "dynamics.entangling_profile vs steady-state sweep",
        dev,
        0.5,
        f"predicted r in [{r_lo:.1f}, {r_hi:.1f}], confirmed {len(overlap)} points",
    )


def check_reset_negativity_formula(formula_shift: float = 0.0) -> CheckResult:
    gamma = 1.0
    dev = 0.0
    for g in (3.0, 5.0, 8.0):
        for r in (4.0, 10.0, 25.0):
            h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=0.0), 2)
            lam = assemble(
                h, [dephasing_generator(2, gamma), reset_generator(2, ResetSpec.pure(r, 2, "+"))]
            )
            num = negativity(steady_state(lam), (0,))
            formula = analytic.dephasing_ising_reset_negativity(g, gamma, r) + formula_shift
            dev = max(dev, abs(num - formula))
    want = 58.0 / 4368.0
    dev = max(dev, abs(analytic.dephasing_ising_reset_negativity(5, 1, 10) + formula_shift - want))
    return _result(
        "reset_negativity_formula",
        "analytic.dephasing_ising_reset_negativity",
        dev,
        1e-9,
    )


def check_ghz_average() -> CheckResult:
    vec = (qop.ket("000") + qop.ket("111")) / np.sqrt(2)
    report = average_negativity(qop.projector(vec))
    devs = [abs(v - 0.5) for v in report.per_bipartition.values()]
    devs.append(abs(report.average - 0.5))
    if report.bipartition_count != 3:
        return _result("ghz_average_negativity", "entanglement.average_negativity", float("inf"), 1e-12)
    return _result("ghz_average_negativity", "entanglement.average_negativity", max(devs), 1e-12)


def check_mixture_convexity() -> CheckResult:
    bell = qop.bell_state()
    rotated = local_pauli(2, 0, "z") @ bell @ local_pauli(2, 0, "z")
    mix = 0.5 * bell + 0.5 * rotated
    n_mix = negativity(mix, (0,))
    n_max = max(negativity(bell, (0,)), negativity(rotated, (0,)))
    dev = max(0.0, n_mix - n_max)
    return _result(
        "mixture_negativity_spot",
        "entanglement.negativity convexity",
        dev,
        1e-12,
        f"mixture {n_mix:.3f} vs components {n_max:.3f}",
    )


def check_xx_no_reset() -> CheckResult:
    b_rate, s, g, om = 1.0, 0.0, 1.0, 1.0
    want, neg_formula = analytic.xx_steady_no_reset(b_rate, s, g, om)
    h = build_hamiltonian(HamiltonianSpec("sxsx", g=g, omega=om), 2)
    lam = assemble(h, [local_noise_generator(2, GasNoiseParams(b_rate, b_rate / 2, s))])
    got = steady_state(lam)
    dev = float(np.max(np.abs(got.matrix - want.matrix)))
    dev = max(dev, abs(negativity(got, (0,)) - neg_formula))
    return _result("xx_steady_no_reset", "analytic.xx_steady_no_reset", dev, 1e-10)


def check_xx_with_reset(rng) -> CheckResult:
    dev = 0.0
    for _ in range(20):
        b_rate = rng.uniform(0.1, 2)
        s = rng.uniform(0, 1)
        g = rng.uniform(0, 3)
        om = rng.uniform(0, 3)
        r = rng.uniform(0.05, 5)
        want, neg_formula = analytic.xx_steady_with_reset(b_rate, s, g, om, r)
        h = build_hamiltonian(HamiltonianSpec("sxsx", g=g, omega=om), 2)
        lam = assemble(
            h,
            [
                local_noise_generator(2, GasNoiseParams(b_rate, b_rate / 2, s)),
                reset_generator(2, ResetSpec.pure(r, 2, "1")),
            ],
        )
        got = steady_state(lam)
        dev = max(dev, float(np.max(np.abs(got.matrix - want.matrix))))
        dev = max(dev, abs(negativity(got, (0,)) - neg_formula))
    return _result("xx_steady_with_reset", "analytic.xx_steady_with_reset", dev, 1e-10)


def check_thermal_crossing() -> CheckResult:
    g, b = 1.0, 0.1
    beta_formula = analytic.thermal_negativity_root(g, b)
    h = build_hamiltonian(HamiltonianSpec("ising_transverse", g=g, b=b), 2)
    lo, hi = 1e-3, 1e3
    for _ in range(80):
        mid = np.sqrt(lo * hi)
        pt = partial_transpose(gibbs_state(h, mid), (0,))
        if np.linalg.eigvalsh(pt)[0] > 0:
            lo = mid
        else:
            hi = mid
    beta_numeric = 0.5 * (lo + hi)
    dev = abs(beta_formula - beta_numeric) / beta_numeric
    return _result(
        "thermal_crossing_beta",
        "analytic.thermal_negativity_root vs Gibbs bisection",
        dev,
        1e-6,
        f"beta* = {beta_formula:.6f}",
    )


def check_time_solution(rng) -> CheckResult:
    g, gamma, om, r = 5.0, 1.0, 5.0, 10.0
    h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
    lam = assemble(h, [dephasing_generator(2, gamma), reset_generator(2, ResetSpec.pure(r, 2, "+"))])
    ts = np.linspace(0.0, 5.0, 26)
    dev = 0.0
    for _ in range(5):
        rho0 = random_density(2, rng)
        sol = analytic.DephasingIsingResetSolution.from_initial_state(rho0, g, gamma, om, r)
        res = evolve(lam, qop.validate_density(rho0), ts)
        for t, st in zip(ts, res.states):
            dev = max(dev, float(np.max(np.abs(st.matrix - sol.coefficients(t)))))
    return _result("time_solution_vs_evolve", "analytic.DephasingIsingResetSolution", dev, 1e-8)


def check_general_steady(rng) -> CheckResult:
    dev = 0.0
    for _ in range(20):
        b_rate = rng.uniform(0.1, 2)
        c_rate = rng.uniform(b_rate / 2, 2.5)
        s = rng.uniform(0, 1)
        g = rng.uniform(0, 3)
        om = rng.uniform(0, 3)
        r = rng.uniform(0.05, 5)
        want = analytic.ising_noise_reset_steady(b_rate, c_rate, s, g, om, r)
        h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
        lam = assemble(
            h,
            [
                local_noise_generator(2, GasNoiseParams(b_rate, c_rate, s)),
                reset_generator(2, ResetSpec.pure(r, 2, "+")),
            ],
        )
        dev = max(dev, float(np.max(np.abs(steady_state(lam).matrix - want.matrix))))
    return _result("general_steady_formula", "analytic.ising_noise_reset_steady", dev, 1e-9)


def _spectrum_multiset_dev(g, gamma, om, r) -> float:
    h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=om), 2)
    gens = [dephasing_generator(2, gamma)]
    if r > 0:
        gens.append(reset_generator(2, ResetSpec.pure(r, 2, "+")))
    lam = assemble(h, gens)
    got = np.array(sorted(spectrum(lam).raw, key=lambda z: (round(z.real, 7), round(z.imag, 7))))
    pred = []
    for ev, mult in analytic.dephasing_ising_reset_spectrum(g, gamma, om, r):
        pred.extend([ev] * mult)
    pred = np.array(sorted(pred, key=lambda z: (round(z.real, 7), round(z.imag, 7))))
    return float(np.max(np.abs(got - pred)))


def check_spectrum_formula() -> CheckResult:
    dev = _spectrum_multiset_dev(1.0, 1.0, 1.0, 2.0)
    dev = max(dev, _spectrum_multiset_dev(2.3, 0.6, 1.4, 5.0))
    return _result("spectrum_formula_generic", "analytic.dephasing_ising_reset_spectrum", dev, 1e-8)


def check_spectrum_special_point() -> CheckResult:
    dev = _spectrum_multiset_dev(0.0, 1.0, 0.0, 0.0)
    return _result(
        "spectrum_formula_pure_dephasing",
        "analytic.dephasing_ising_reset_spectrum at g=r=omega=0",
        dev,
        1e-10,
        "eigenvalues {0 x4, -2g x8, -4g x4}",
    )


def check_exchange_reduction(rng) -> CheckResult:
    cfg = GasConfig(lattice=(3, 3), n_env=4, psi=0.4, phi=0.1, exchange_prob=0.0, steps=15, seed=7)
    dev = 0.0
    for trial in range(4):
        run_rng = np.random.Generator(np.random.PCG64(rng.integers(0, 2**63)))
        state = new_state(cfg, run_rng)
        for _ in range(cfg.steps):
            step(state, run_rng)
        pair_before = reduced_density(state.pm, state.system_ids).matrix
        keep_id = state.system_ids[1]
        exchange(state, 0)
        got = reduced_density(state.pm, state.system_ids).matrix
        kept_marginal = partial_trace(pair_before, keep=(1,), n=2)
        want = np.kron(qop.projector(qop.ket("+")), kept_marginal)
        dev = max(dev, float(np.max(np.abs(got - want))))
        # cross-check against the statevector oracle
        n_tot = state.pm.n_qubits
        if n_tot <= 8:
            sv = statevector_reduced(state.pm.phases, state.system_ids, n_tot)
            dev = max(dev, float(np.max(np.abs(got - sv))))
    return _result("exchange_reduction_factorizes", "spingas.exchange", dev, 1e-12)


def check_graph_reduction(rng) -> CheckResult:
    dev = 0.0
    for _ in range(50):
        n = 8
        pm = PhaseMatrix(n)
        for i in range(n):
            for j in range(i + 1, n):
                pm.add_phase(i, j, rng.uniform(-np.pi, np.pi))
        subset = [0, 3]
        got = reduced_density(pm, subset).matrix
        want = statevector_reduced(pm.phases, subset, n)
        dev = max(dev, float(np.max(np.abs(got - want))))
    return _result("graph_reduction_statevector", "spingas.reduced_density", dev, 1e-12)


def check_ensemble_matches_reference() -> CheckResult:
    """The batched ensemble kernel against independent reference runs on
    the same per-run streams (collisions, exchanges and environment)."""
    cfg = GasConfig(lattice=(3, 3), n_env=4, psi=0.4, phi=0.1, exchange_prob=0.15, steps=60, seed=602)
    n_runs = 8
    streams = np.random.SeedSequence(cfg.seed).spawn(n_runs)
    want = np.array([simulate_run(cfg, np.random.Generator(np.random.PCG64(ss))).matrix for ss in streams])
    got = run_ensemble(cfg, n_runs).per_run
    dev = float(np.max(np.abs(got - want)))
    return _result("ensemble_matches_reference", "spingas.run_ensemble vs spingas.simulate_run", dev, 1e-12)


def run_checks(tol_scale: float = 1.0, formula_shift: float = 0.0, seed: int = 20260808) -> list[CheckResult]:
    """Run the full cross-check suite; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    checks = [
        check_partial_trace(rng),
        check_trace_norm(rng),
        check_gradient_hamiltonian(),
        check_decay_fixed_point(),
        check_reset_bell_action(),
        check_mixed_reset_psd(),
        check_thermal_ground_state(),
        check_liouvillian_action(rng),
        check_spectrum_stability(),
        check_entangling_window(),
        check_reset_negativity_formula(formula_shift),
        check_ghz_average(),
        check_mixture_convexity(),
        check_xx_no_reset(),
        check_xx_with_reset(rng),
        check_thermal_crossing(),
        check_time_solution(rng),
        check_general_steady(rng),
        check_spectrum_formula(),
        check_spectrum_special_point(),
        check_exchange_reduction(rng),
        check_graph_reduction(rng),
        check_ensemble_matches_reference(),
    ]
    if tol_scale != 1.0:
        checks = [
            CheckResult(c.name, c.target, c.max_dev <= c.tol * tol_scale, c.max_dev, c.tol * tol_scale, c.detail)
            for c in checks
        ]
    return checks
