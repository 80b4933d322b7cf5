import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def real_form(mat: np.ndarray) -> np.ndarray:
    """Real generator R = Re L - Im(L) P of a complex column-stacked
    Liouvillian L, P being the vec transpose: in the [col, row, col', row']
    view, Im L with its last two axes swapped.  The reference against which
    the builders' R is checked."""
    d = int(round(np.sqrt(mat.shape[0])))
    gen = np.array(mat.real)
    gen.reshape(d, d, d, d)[...] -= mat.imag.reshape(d, d, d, d).transpose(0, 1, 3, 2)
    return gen


def complex_form(gen: np.ndarray) -> np.ndarray:
    """The Hermiticity-preserving L with real_form(L) = gen:
    L = (R + P R P) / 2 + i (P R - R P) / 2."""
    d = int(round(np.sqrt(gen.shape[0])))
    r = gen.reshape(d, d, d, d)
    mat = (r + r.transpose(1, 0, 3, 2)) / 2 + 0.5j * (r.transpose(1, 0, 2, 3) - r.transpose(0, 1, 3, 2))
    return mat.reshape(d * d, d * d)
