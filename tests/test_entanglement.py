import numpy as np
import pytest
from conftest import random_unitary
from hypothesis import given, settings, strategies as st

from resetlb import entanglement, qop
from resetlb.analytic import dephasing_ising_reset_negativity
from resetlb.dynamics import steady_state
from resetlb.entanglement import (
    PoissonWeighting,
    average_negativity,
    bipartitions,
    negativity,
    negativity_of_average_reduction,
    poisson_average_negativity,
    poisson_reduced_negativity,
)
from resetlb.liouville import (
    HamiltonianSpec,
    ResetSpec,
    assemble,
    build_hamiltonian,
    dephasing_generator,
    reset_generator,
)
from resetlb.qop import bell_state, ket, projector, random_density, validate_density

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_bell_state_negativity():
    assert abs(negativity(bell_state(), (0,)) - 0.5) < 1e-12


def test_product_state_negativity_zero(rng):
    rho = np.kron(random_density(1, rng), random_density(2, rng))
    assert negativity(rho, (0,)) < 1e-12


def test_reset_steady_negativity_matches_formula():
    g, gamma, r = 5.0, 1.0, 10.0
    h = build_hamiltonian(HamiltonianSpec("ising", g=g, omega=0.0), 2)
    lam = assemble(h, [dephasing_generator(2, gamma), reset_generator(2, ResetSpec.pure(r, 2, "+"))])
    got = negativity(steady_state(lam), (0,))
    assert abs(got - 58.0 / 4368.0) < 1e-12
    assert abs(got - dephasing_ising_reset_negativity(g, gamma, r)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_negativity_local_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, rng)
    u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rotated = u @ rho @ u.conj().T
    assert abs(negativity(rotated, (0,)) - negativity(rho, (0,))) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_negativity_same_for_either_side(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(3, rng)
    assert abs(negativity(rho, (0,)) - negativity(rho, (1, 2))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(2, 4))
def test_negativity_upper_bound(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(n, rng)
    for part in bipartitions(n):
        bound = (2 ** min(len(part), n - len(part)) - 1) / 2
        val = negativity(rho, part)
        assert -1e-12 <= val <= bound + 1e-9


def test_bipartition_count():
    assert len(bipartitions(2)) == 1
    assert len(bipartitions(3)) == 3
    assert len(bipartitions(5)) == 15
    with pytest.raises(ValueError):
        bipartitions(1)


def test_average_negativity_two_qubits_equals_negativity(rng):
    rho = random_density(2, rng)
    report = average_negativity(rho)
    assert report.bipartition_count == 1
    assert abs(report.average - negativity(rho, (0,))) < 1e-14


def test_average_negativity_ghz():
    vec = (ket("000") + ket("111")) / np.sqrt(2)
    report = average_negativity(projector(vec))
    assert report.bipartition_count == 3
    for value in report.per_bipartition.values():
        assert abs(value - 0.5) < 1e-12
    assert abs(report.average - 0.5) < 1e-12


def test_average_negativity_product_zero(rng):
    rho = np.kron(np.kron(random_density(1, rng), random_density(1, rng)), random_density(1, rng))
    assert average_negativity(rho).average < 1e-11


def one_state_negativity(rho, part):
    """Negativity of one state by a sum over the negative eigenvalues alone."""
    pt = qop.partial_transpose(rho, part)
    evals = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return float(np.sum(np.abs(evals[evals < 0])))


def stack_cases(n, rng):
    ghz = (ket("0" * n) + ket("1" * n)) / np.sqrt(2)
    bell_pairs = np.kron(bell_state(), random_density(n - 2, rng)) if n > 2 else bell_state()
    states = [random_density(n, rng, rank) for rank in (None, 1, 2, 3)]
    states += [projector(ghz), bell_pairs, np.eye(2**n, dtype=complex) / 2**n]
    return np.array(states)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_negativity_equals_per_state_bits(rng, n):
    stack = stack_cases(n, rng)
    for part in bipartitions(n):
        values = negativity(stack, part)
        assert values.shape == (len(stack),)
        for rho, value in zip(stack, values):
            assert type(negativity(rho, part)) is float
            assert value == negativity(rho, part) == one_state_negativity(rho, part)
        assert negativity(stack[:1], part).tolist() == [negativity(stack[0], part)]
    grid = negativity(stack[:6].reshape((2, 3) + stack.shape[1:]), (0,))
    assert grid.ravel().tolist() == [negativity(rho, (0,)) for rho in stack[:6]]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_average_negativity_equals_per_state_bits(rng, n):
    stack = stack_cases(n, rng)
    report = average_negativity(stack)
    assert report.bipartition_count == len(bipartitions(n))
    for i, rho in enumerate(stack):
        alone = average_negativity(rho)
        assert type(alone.average) is float
        assert report.average[i] == alone.average
        assert alone.average == float(np.mean([one_state_negativity(rho, p) for p in bipartitions(n)]))
        for part, values in report.per_bipartition.items():
            assert values[i] == alone.per_bipartition[part]
    assert average_negativity(stack[:1]).average.tolist() == [average_negativity(stack[0]).average]


def test_average_negativity_of_a_stack_calls_negativity_once_per_bipartition(monkeypatch, rng):
    calls = []
    original = entanglement.negativity

    def counting(rho, part):
        calls.append(np.shape(rho))
        return original(rho, part)

    monkeypatch.setattr(entanglement, "negativity", counting)
    stack = np.array([random_density(4, rng) for _ in range(9)])
    entanglement.average_negativity(stack)
    assert calls == [stack.shape] * 7


# --- Poisson weighting -------------------------------------------------------------


def test_poisson_weights_normalized_and_proportional():
    w = PoissonWeighting(2.0, 0, 5)
    assert abs(sum(w.weights) - 1.0) < 1e-12
    from math import exp, factorial

    raw = [exp(-2.0) * 2.0**n / factorial(n) for n in range(6)]
    scale = w.weights[0] / raw[0]
    for n in range(6):
        assert abs(w.weight(n) - raw[n] * scale) < 1e-12


def test_poisson_weighting_validation():
    with pytest.raises(ValueError):
        PoissonWeighting(2.0, 3, 2)
    with pytest.raises(ValueError):
        PoissonWeighting(0.0, 0, 5)
    w = PoissonWeighting(2.0, 0, 5)
    with pytest.raises(ValueError):
        w.weight(6)


def test_restricted_weighting():
    w = PoissonWeighting(2.0, 0, 5).restricted(2)
    assert w.n_min == 2
    assert abs(sum(w.weights) - 1.0) < 1e-12


# --- three multipartite measures ------------------------------------------------


def _product_states(rng, n_max=4):
    states = {}
    for n in range(2, n_max + 1):
        mats = [random_density(1, rng) for _ in range(n)]
        rho = mats[0]
        for m in mats[1:]:
            rho = np.kron(rho, m)
        states[n] = validate_density(rho)
    return states


def test_measures_vanish_on_product_states(rng):
    states = _product_states(rng)
    w = PoissonWeighting(2.0, 0, 4)
    assert poisson_average_negativity(states, w) < 1e-10
    assert poisson_reduced_negativity(states, w.restricted(2)) < 1e-10
    assert negativity_of_average_reduction(states, w.restricted(2)) < 1e-10


def test_measures_degenerate_weighting(rng):
    rho3 = validate_density(random_density(3, rng))
    w = PoissonWeighting(2.0, 3, 3)
    got = poisson_average_negativity({3: rho3}, w)
    assert abs(got - average_negativity(rho3).average) < 1e-14


def test_measures_two_qubit_case(rng):
    rho = validate_density(random_density(2, rng))
    w = PoissonWeighting(2.0, 2, 2)
    assert abs(poisson_reduced_negativity({2: rho}, w) - negativity(rho, (0,))) < 1e-14
    assert abs(negativity_of_average_reduction({2: rho}, w) - negativity(rho, (0,))) < 1e-14


def test_identical_reductions_make_measures_equal(rng):
    pair = random_density(2, rng)
    states = {}
    for n in (2, 3):
        rest = np.eye(2 ** (n - 2)) / 2 ** (n - 2)
        states[n] = validate_density(np.kron(pair, rest))
    w = PoissonWeighting(2.0, 2, 3)
    ii = poisson_reduced_negativity(states, w)
    iii = negativity_of_average_reduction(states, w)
    assert abs(ii - iii) < 1e-12


def test_mixture_spot_check_not_exceeding_components():
    bell = bell_state()
    rotated = qop.local_pauli(2, 0, "z") @ bell @ qop.local_pauli(2, 0, "z")
    mix = 0.5 * bell + 0.5 * rotated
    assert negativity(mix, (0,)) <= max(negativity(bell, (0,)), negativity(rotated, (0,))) + 1e-12
    assert negativity(mix, (0,)) < 1e-12  # this mixture is separable


def test_measures_missing_state_errors(rng):
    w = PoissonWeighting(2.0, 2, 3)
    with pytest.raises(ValueError):
        poisson_reduced_negativity({2: validate_density(random_density(2, rng))}, w)
    with pytest.raises(ValueError):
        poisson_reduced_negativity({}, PoissonWeighting(2.0, 0, 3).restricted(0))


def test_onset_ordering_small_system():
    """Cheap two-size version of the onset-ordering property: the first
    reset rate where each measure exceeds 1e-6 is ordered i <= ii <= iii."""
    gamma = 1.0
    w_full = PoissonWeighting(2.0, 2, 3)
    w_red = w_full.restricted(2)
    base = {}
    for n in (2, 3):
        h = build_hamiltonian(HamiltonianSpec("ising", g=20.0, omega=50.0), n)
        lam0 = assemble(h, [dephasing_generator(n, gamma)])
        unit = reset_generator(n, ResetSpec.pure(1.0, n, "+"))
        base[n] = (lam0.matrix, unit.matrix)
    onsets = {1: None, 2: None, 3: None}
    from resetlb.liouville import Superoperator

    for r in np.linspace(5, 120, 24):
        states = {
            n: steady_state(Superoperator(lam0 + r * unit, n)) for n, (lam0, unit) in base.items()
        }
        vals = {
            1: poisson_average_negativity(states, w_full),
            2: poisson_reduced_negativity(states, w_red),
            3: negativity_of_average_reduction(states, w_red),
        }
        for k in (1, 2, 3):
            if onsets[k] is None and vals[k] > 1e-6:
                onsets[k] = r
    assert onsets[1] is not None and onsets[2] is not None and onsets[3] is not None
    assert onsets[1] <= onsets[2] <= onsets[3]
