import numpy as np
import pytest
from conftest import random_unitary
from hypothesis import given, settings, strategies as st

from resetlb.qop import (
    DensityMatrixError,
    bell_state,
    ket,
    local_pauli,
    n_qubits_of,
    partial_trace,
    partial_transpose,
    projector,
    random_density,
    trace_norm,
    validate_density,
    vec,
    unvec,
    left_right_superop,
)
from resetlb.verify import indexsum_partial_trace

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_local_pauli_single_qubit():
    assert np.allclose(local_pauli(1, 0, "z"), np.diag([1, -1]))


def test_local_pauli_tensor_with_identity():
    assert np.allclose(local_pauli(2, 1, "z"), np.diag([1, -1, 1, -1]))


def test_local_pauli_raising_action():
    out = local_pauli(2, 0, "+") @ ket("10")
    assert np.allclose(out, ket("00"))


def test_local_pauli_errors():
    with pytest.raises(ValueError):
        local_pauli(2, 2, "z")
    with pytest.raises(ValueError):
        local_pauli(2, 0, "w")


def test_partial_trace_product_state():
    rho = projector(ket("00"))
    assert np.allclose(partial_trace(rho, keep=(0,)), projector(ket("0")))


def test_partial_trace_bell_is_maximally_mixed():
    assert np.allclose(partial_trace(bell_state(), keep=(0,)), np.eye(2) / 2)


def test_partial_trace_matches_indexsum_oracle(rng):
    for _ in range(10):
        rho = random_density(3, rng)
        got = partial_trace(rho, keep=(0, 2), n=3)
        want = indexsum_partial_trace(rho, (0, 2), 3)
        assert np.max(np.abs(got - want)) < 1e-13


def test_partial_trace_empty_keep_errors():
    with pytest.raises(ValueError):
        partial_trace(np.eye(4) / 4, keep=())


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_partial_trace_of_product_returns_factor(seed):
    rng = np.random.default_rng(seed)
    rho_a = random_density(1, rng)
    rho_b = random_density(1, rng)
    rho = np.kron(rho_a, rho_b)
    assert np.max(np.abs(partial_trace(rho, keep=(0,)) - rho_a)) <= 1e-12
    assert np.max(np.abs(partial_trace(rho, keep=(1,)) - rho_b)) <= 1e-12


def test_partial_transpose_product_state_stays_psd(rng):
    rho_a = random_density(1, rng)
    rho_b = random_density(1, rng)
    pt = partial_transpose(np.kron(rho_a, rho_b), (0,))
    assert np.allclose(pt, np.kron(rho_a.T, rho_b))
    assert np.linalg.eigvalsh(pt)[0] > -1e-12


def test_partial_transpose_bell_minimum_eigenvalue():
    pt = partial_transpose(bell_state(), (0,))
    assert abs(np.linalg.eigvalsh(pt)[0] + 0.5) < 1e-12


@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(2, 3))
def test_partial_transpose_involution(seed, n):
    rng = np.random.default_rng(seed)
    rho = random_density(n, rng)
    part = (0,)
    assert np.max(np.abs(partial_transpose(partial_transpose(rho, part), part) - rho)) < 1e-14


@settings(max_examples=25, deadline=None)
@given(seeds)
def test_partial_transpose_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(2, rng)
    pt = partial_transpose(rho, (1,))
    assert abs(np.trace(pt) - 1) < 1e-12
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_trace_norm_identity():
    assert abs(trace_norm(np.eye(4, dtype=complex)) - 4.0) < 1e-12


def test_trace_norm_hermitian_case(rng):
    m = rng.standard_normal((6, 6))
    m = m + m.T
    want = np.sum(np.abs(np.linalg.eigvalsh(m)))
    assert abs(trace_norm(m) - want) < 1e-10


def test_trace_norm_matches_sqrt_oracle(rng):
    for _ in range(5):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        evals = np.linalg.eigvalsh(m.conj().T @ m)
        want = np.sum(np.sqrt(np.clip(evals, 0, None)))
        assert abs(trace_norm(m) - want) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_trace_norm_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = random_unitary(4, rng)
    v = random_unitary(4, rng)
    assert abs(trace_norm(u @ m @ v) - trace_norm(m)) < 1e-10


def test_trace_norm_requires_square():
    with pytest.raises(ValueError):
        trace_norm(np.ones((2, 3)))


def test_validate_density_accepts_mixed_qubit():
    state = validate_density(np.diag([0.5, 0.5]).astype(complex))
    assert state.n_qubits == 1


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(DensityMatrixError) as err:
        validate_density(np.diag([1.1, -0.1]).astype(complex))
    assert err.value.violation == "negative eigenvalue"


def test_validate_density_rejects_bad_trace_and_nonhermitian():
    with pytest.raises(DensityMatrixError) as err:
        validate_density(np.diag([0.7, 0.7]).astype(complex))
    assert "trace" in err.value.violation
    mat = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(DensityMatrixError) as err:
        validate_density(mat)
    assert "Hermitian" in err.value.violation


@pytest.mark.parametrize(
    "mat",
    [
        np.full((2, 2), np.nan),
        np.array([[0.5, np.nan], [np.nan, 0.5]]),
        np.array([[0.5, np.inf], [np.inf, 0.5]]),
        np.diag([0.5, 0.5, 0.0, complex(0.0, -np.inf)]),
    ],
    ids=["all-nan", "nan-coherence", "inf-coherence", "inf-imaginary"],
)
def test_validate_density_rejects_non_finite_entries(mat):
    # every comparison with NaN is False, so no later check would catch it
    with pytest.raises(DensityMatrixError) as err:
        validate_density(mat)
    assert err.value.violation == "non-finite entries"


@pytest.mark.parametrize("dim", [0, 1, 3, 6, 2**60 + 1])
def test_n_qubits_of_rejects_non_powers_of_two(dim):
    with pytest.raises(ValueError, match="not a power of two"):
        n_qubits_of(dim)


def test_n_qubits_of_powers_of_two():
    assert [n_qubits_of(2**n) for n in (1, 2, 5, 60)] == [1, 2, 5, 60]


@pytest.mark.parametrize("dim", [0, 1, 3])
def test_validate_density_rejects_dimension_not_power_of_two(dim):
    mat = np.eye(dim, dtype=complex) / max(dim, 1)
    with pytest.raises(DensityMatrixError) as err:
        validate_density(mat)
    assert err.value.violation == "dimension is not a power of two"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("lead", [(1,), (3,), (2, 3)], ids=["one", "three", "2x3"])
def test_partial_transpose_of_a_stack_is_per_state(rng, n, lead):
    stack = np.array([random_density(n, rng) for _ in range(int(np.prod(lead)))]).reshape(lead + (2**n, 2**n))
    for part in [(0,), (n - 1,), tuple(range(0, n, 2))]:
        pts = partial_transpose(stack, part)
        assert pts.shape == stack.shape
        for i in np.ndindex(*lead):
            assert np.array_equal(pts[i], partial_transpose(stack[i], part))


def test_validate_density_thermal_product_diagonal():
    s = 0.3
    mat = np.diag([s**2, s * (1 - s), s * (1 - s), (1 - s) ** 2]).astype(complex)
    state = validate_density(mat)
    assert state.dim == 4


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(1, 3))
def test_density_matrix_has_unit_trace_norm(seed, n):
    rng = np.random.default_rng(seed)
    state = validate_density(random_density(n, rng))
    assert abs(trace_norm(state.matrix) - 1.0) <= 1e-9


def test_density_matrix_is_immutable(rng):
    state = validate_density(random_density(2, rng))
    with pytest.raises(ValueError):
        state.matrix[0, 0] = 0.3


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_vectorization_identity(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.max(np.abs(vec(a @ x @ b) - left_right_superop(a, b) @ vec(x))) < 1e-12
    assert np.max(np.abs(unvec(vec(x)) - x)) == 0.0
