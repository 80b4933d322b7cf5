"""Negativity-based entanglement measures, including multipartite averages
over bipartitions and Poisson-weighted particle-number fluctuations."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import lgamma

import numpy as np

from resetlb import qop


def _as_matrix(rho) -> np.ndarray:
    return np.asarray(rho.matrix if isinstance(rho, qop.DensityMatrix) else rho)


def negativity(rho, part) -> float:
    """N_A = sum of |negative eigenvalues| of the partial transpose.

    Equals (||rho^T_A||_1 - 1)/2 for unit-trace states; bounded by
    (2^min(|A|, |complement|) - 1)/2.
    """
    mat = _as_matrix(rho)
    n = qop.n_qubits_of(mat.shape[0])
    subset = qop.normalize_bipartition(part, n)
    pt = qop.partial_transpose(mat, subset, n)
    evals = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return float(np.sum(np.abs(evals[evals < 0])))


def bipartitions(n: int) -> list[tuple[int, ...]]:
    """All 2^(n-1) - 1 unordered bipartitions, keyed by the block holding
    qubit 0."""
    if n < 2:
        raise ValueError("bipartitions need at least two qubits")
    out = []
    rest = list(range(1, n))
    for size in range(0, n - 1):
        for combo in combinations(rest, size):
            out.append((0,) + combo)
    return out


@dataclass(frozen=True)
class NegativityReport:
    """Per-bipartition negativities and their mean."""

    per_bipartition: dict[tuple[int, ...], float]
    average: float
    bipartition_count: int


def average_negativity(rho) -> NegativityReport:
    """Negativity averaged over every bipartition of the qubit set."""
    mat = _as_matrix(rho)
    n = qop.n_qubits_of(mat.shape[0])
    parts = bipartitions(n)
    values = {p: negativity(mat, p) for p in parts}
    return NegativityReport(
        per_bipartition=values,
        average=float(np.mean(list(values.values()))),
        bipartition_count=len(parts),
    )


@dataclass(frozen=True)
class PoissonWeighting:
    """Renormalized truncated Poissonian over particle numbers
    [n_min, n_max]; weights are proportional to lam^n / n!, normalized in
    log space (exp(-lam) cancels), so no finite lam under- or overflows."""

    lam: float
    n_min: int
    n_max: int
    weights: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.n_min < 0 or self.n_max < self.n_min:
            raise ValueError("need 0 <= n_min <= n_max")
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        ns = np.arange(self.n_min, self.n_max + 1)
        log_raw = ns * np.log(self.lam) - np.array([lgamma(n + 1) for n in ns])
        w = np.exp(log_raw - log_raw.max())
        w /= w.sum()
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    def weight(self, n: int) -> float:
        if not self.n_min <= n <= self.n_max:
            raise ValueError(f"n={n} outside weighting range")
        return self.weights[n - self.n_min]

    def restricted(self, n_min: int) -> "PoissonWeighting":
        """Same lam, truncated below at n_min and renormalized."""
        return PoissonWeighting(self.lam, max(self.n_min, n_min), self.n_max)


def _require_states(states, ns) -> None:
    missing = [n for n in ns if n not in states]
    if missing:
        raise ValueError(f"missing states for particle numbers {missing}")


def poisson_average_negativity(states: dict[int, qop.DensityMatrix], w: PoissonWeighting) -> float:
    """Mean over n of the bipartition-averaged negativity; n < 2 carries no
    entanglement and contributes zero."""
    ns = [n for n in range(w.n_min, w.n_max + 1) if n >= 2]
    _require_states(states, ns)
    return float(sum(w.weight(n) * average_negativity(states[n]).average for n in ns))


def poisson_reduced_negativity(
    states: dict[int, qop.DensityMatrix],
    w: PoissonWeighting,
    pair: tuple[int, int] = (0, 1),
) -> float:
    """Mean over n >= 2 of the negativity of the two-qubit reduction.

    The reduced pair is fixed (default qubits 0 and 1); for the symmetric
    all-pairs interactions studied here every pair is equivalent.
    """
    if w.n_min < 2:
        raise ValueError("reduced measures need a weighting truncated to n >= 2")
    ns = list(range(w.n_min, w.n_max + 1))
    _require_states(states, ns)
    total = 0.0
    for n in ns:
        red = _reduce_to_pair(states[n], pair)
        total += w.weight(n) * negativity(red, (0,))
    return float(total)


def negativity_of_average_reduction(
    states: dict[int, qop.DensityMatrix],
    w: PoissonWeighting,
    pair: tuple[int, int] = (0, 1),
) -> float:
    """Negativity of the Poisson-weighted mean of two-qubit reductions."""
    if w.n_min < 2:
        raise ValueError("reduced measures need a weighting truncated to n >= 2")
    ns = list(range(w.n_min, w.n_max + 1))
    _require_states(states, ns)
    mean = np.zeros((4, 4), dtype=complex)
    for n in ns:
        mean += w.weight(n) * _reduce_to_pair(states[n], pair)
    return negativity(mean, (0,))


def _reduce_to_pair(rho, pair) -> np.ndarray:
    mat = _as_matrix(rho)
    n = qop.n_qubits_of(mat.shape[0])
    if n == 2:
        return mat
    return qop.partial_trace(mat, keep=pair, n=n)
