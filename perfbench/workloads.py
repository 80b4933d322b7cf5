"""Workload definitions: seeded configs and the oracles that check outputs.

Each workload is one resetlb CLI subcommand plus the JSON config the
benchmark seed generates; the program sees only that config.  Oracles use
``resetlb.analytic`` and ``resetlb.verify`` (which exist to check the
numerical paths) and otherwise their own small linear algebra, never the
code path under test.  Expected values are computed once per workload
object, before any timed invocation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from math import factorial
from typing import Callable

import numpy as np

NAMES = ("sweep2q", "measures5q", "spingas", "evolve5q")

# physics of configs/gas_region.json (Ising gas model, unit B)
GAS_REGION = {"B": 1.0, "C": 1.0, "s": 0.1, "g": 10.0, "omega": 20.0}
# physics of configs/measures_gas.json (unit gamma)
MEASURES_GAS = {"B": 0.0, "C": 2.0, "s": 0.5, "g": 20.0, "omega": 50.0, "lam": 2.0}

SWEEP_TOL = 1e-9
MEASURES_TOL = 1e-9
TRACE_TOL = 1e-10
MIN_EIG_TOL = 1e-8
EVOLVE_TOL = 1e-8
SPINGAS_FULL_EXCHANGE_TOL = 1e-12  # parent commit gives 1.4e-16, not exactly 0


@dataclass
class Check:
    ok: bool
    max_dev: float
    reason: str = ""


@dataclass
class Workload:
    name: str
    command: str  # CLI subcommand
    config: dict  # JSON config handed to the program
    extra_args: list[str]  # subcommand flags the CLI requires beyond --config/--out/--no-timestamp
    items: int  # work units of one invocation
    check: Callable[[str], Check]  # oracle on the CSV text of one invocation
    notes: dict = field(default_factory=dict)


def make(name: str, seed: int) -> Workload:
    """Workload ``name`` with inputs drawn from ``seed``."""
    builders = {
        "sweep2q": _sweep2q,
        "measures5q": _measures5q,
        "spingas": _spingas,
        "evolve5q": _evolve5q,
    }
    return builders[name](random.Random(f"{name}/{seed}"))


# --- CSV and small linear algebra -----------------------------------------


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no header line")
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    return lines[0].split(","), np.array(rows, dtype=float).reshape(len(rows), -1)


def _checked(check: Callable[[str], Check]) -> Callable[[str], Check]:
    """Turn a malformed CSV into a failed check instead of an exception."""

    def run(text: str) -> Check:
        try:
            return check(text)
        except (ValueError, IndexError) as exc:
            return Check(False, float("inf"), f"malformed output: {exc}")

    return run


def _expect_layout(header, rows, columns, n_rows) -> str:
    if header != columns:
        return f"header {header} != {columns}"
    if rows.shape != (n_rows, len(columns)):
        return f"{rows.shape[0]} rows, expected {n_rows}"
    return ""


def _grid_dev(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def _partial_transpose(rho: np.ndarray, part, n: int) -> np.ndarray:
    t = rho.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for q in part:
        axes[q], axes[q + n] = axes[q + n], axes[q]
    return t.transpose(axes).reshape(rho.shape)


def _negativity(rho: np.ndarray, part, n: int) -> float:
    pt = _partial_transpose(rho, part, n)
    ev = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
    return float(-ev[ev < 0].sum())


def _average_negativity(rho: np.ndarray, n: int) -> float:
    parts = [(0,) + c for size in range(n - 1) for c in combinations(range(1, n), size)]
    return float(np.mean([_negativity(rho, p, n) for p in parts]))


def _pair_reduction(rho: np.ndarray, n: int) -> np.ndarray:
    """Reduced state of qubits (0, 1)."""
    rest = 2 ** (n - 2)
    t = rho.reshape(4, rest, 4, rest)
    return np.einsum("iaja->ij", t)


def _ising_hamiltonian(n: int, g: float, omega: float) -> np.ndarray:
    """g sum_{i<j} sz_i sz_j + (omega/2) sum_k sz_k; diagonal in the computational basis."""
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    z = 1 - 2 * bits
    pairs = sum(z[:, i] * z[:, j] for i in range(n) for j in range(i + 1, n))
    return np.diag(g * pairs + 0.5 * omega * z.sum(axis=1)).astype(complex)


def _gas_generator_by_columns(n: int, p: dict, r: float) -> np.ndarray:
    """Liouvillian (column-stacking vec) built one basis matrix at a time
    from ``verify.apply_master_equation``."""
    from resetlb.liouville import GasNoiseParams, ResetSpec
    from resetlb.verify import apply_master_equation

    d = 2**n
    h = _ising_hamiltonian(n, p["g"], p["omega"])
    noise = GasNoiseParams(B=p["B"], C=p["C"], s=p["s"])
    reset = ResetSpec.pure(r, n, "+")
    lam = np.empty((d * d, d * d), dtype=complex)
    for k in range(d * d):
        basis = np.zeros((d, d), dtype=complex)
        basis[k % d, k // d] = 1.0
        lam[:, k] = apply_master_equation(basis, h, noise, reset, n).reshape(-1, order="F")
    return lam


def _null_state(lam: np.ndarray) -> np.ndarray:
    import scipy.linalg

    null = scipy.linalg.null_space(lam)
    if null.shape[1] != 1:
        raise RuntimeError(f"oracle generator has a {null.shape[1]}-dimensional null space")
    d = int(round(np.sqrt(lam.shape[0])))
    rho = null[:, 0].reshape(d, d, order="F")
    rho = (rho + rho.conj().T) / 2
    return rho / np.trace(rho).real


# --- sweep2q ---------------------------------------------------------------


def _sweep2q(rng: random.Random) -> Workload:
    from resetlb import analytic

    p = GAS_REGION
    g_axis = {"param": "hamiltonian.g", "min": 1.0 + 0.5 * rng.random(),
              "max": 40.0 + 4.0 * (rng.random() - 0.5), "points": 20}
    r_axis = {"param": "reset.r", "min": 1.0 + 0.5 * rng.random(),
              "max": 60.0 + 6.0 * (rng.random() - 0.5), "points": 40}
    config = {
        "model": "gas",
        "unit": "B",
        "n_qubits": 2,
        "hamiltonian": {"kind": "ising", "g": p["g"], "omega": p["omega"]},
        "noise": {"B": p["B"], "C": p["C"], "s": p["s"]},
        "reset": {"r": 10.0, "state": "plus"},
        "sweep": [g_axis, r_axis],
        "seed": rng.randrange(2**31),
    }
    gs = np.linspace(g_axis["min"], g_axis["max"], g_axis["points"])
    rs = np.linspace(r_axis["min"], r_axis["max"], r_axis["points"])
    grid = np.array([(g, r) for g in gs for r in rs])
    expected = np.array([
        _negativity(analytic.ising_noise_reset_steady(p["B"], p["C"], p["s"], g, p["omega"], r).matrix, (0,), 2)
        for g, r in grid
    ])

    def check(text: str) -> Check:
        header, rows = read_csv(text)
        bad = _expect_layout(header, rows, ["hamiltonian.g", "reset.r", "negativity"], len(grid))
        if bad:
            return Check(False, float("inf"), bad)
        if _grid_dev(rows[:, :2], grid) > 1e-12:
            return Check(False, float("inf"), "sweep grid differs from the config")
        dev = float(np.max(np.abs(rows[:, 2] - expected)))
        return Check(dev <= SWEEP_TOL, dev, "" if dev <= SWEEP_TOL else f"negativity off by {dev:.3e}")

    return Workload("sweep2q", "steady", config, [], len(grid), _checked(check))


# --- measures5q ------------------------------------------------------------


def _poisson(lam: float, ns) -> np.ndarray:
    w = np.array([np.exp(-lam) * lam**n / factorial(n) for n in ns])
    return w / w.sum()


def _measures(states: dict[int, np.ndarray], lam: float, n_min: int, n_max: int) -> np.ndarray:
    """Measures i-iii of ``cli measures`` from steady states keyed by n."""
    w_full = dict(zip(range(n_min, n_max + 1), _poisson(lam, range(n_min, n_max + 1))))
    red_ns = range(max(2, n_min), n_max + 1)
    w_red = dict(zip(red_ns, _poisson(lam, red_ns)))
    m1 = sum(w_full[n] * _average_negativity(states[n], n) for n in red_ns)
    pairs = {n: _pair_reduction(states[n], n) for n in red_ns}
    m2 = sum(w_red[n] * _negativity(pairs[n], (0,), 2) for n in red_ns)
    m3 = _negativity(sum(w_red[n] * pairs[n] for n in red_ns), (0,), 2)
    return np.array([m1, m2, m3])


def _measures5q(rng: random.Random) -> Workload:
    p = MEASURES_GAS
    n_rates = 10
    axis = {"param": "reset.r", "min": 5.0 + 5.0 * rng.random(),
            "max": 150.0 + 40.0 * (rng.random() - 0.5), "points": n_rates}
    n_min, n_max = 0, 5
    config = {
        "model": "gas",
        "unit": "gamma",
        "n_qubits": 2,
        "hamiltonian": {"kind": "ising", "g": p["g"], "omega": p["omega"]},
        "noise": {"B": p["B"], "C": p["C"], "s": p["s"]},
        "reset": {"r": 10.0, "state": "plus"},
        "measures": {"lam": p["lam"], "n_min": n_min, "n_max": n_max},
        "sweep": [axis],
        "seed": rng.randrange(2**31),
    }
    rates = np.linspace(axis["min"], axis["max"], n_rates)
    row = rng.randrange(n_rates)
    states = {n: _null_state(_gas_generator_by_columns(n, p, rates[row])) for n in range(2, n_max + 1)}
    expected = _measures(states, p["lam"], n_min, n_max)

    def check(text: str) -> Check:
        header, rows = read_csv(text)
        bad = _expect_layout(header, rows, ["r", "measure_i", "measure_ii", "measure_iii"], n_rates)
        if bad:
            return Check(False, float("inf"), bad)
        if _grid_dev(rows[:, 0], rates) > 1e-12:
            return Check(False, float("inf"), "reset-rate grid differs from the config")
        if not np.all(np.isfinite(rows)) or np.any(rows[:, 1:] < 0):
            return Check(False, float("inf"), "negative or non-finite measure")
        dev = float(np.max(np.abs(rows[row, 1:] - expected)))
        return Check(dev <= MEASURES_TOL, dev, "" if dev <= MEASURES_TOL else f"row {row} off by {dev:.3e}")

    return Workload("measures5q", "measures", config, [], n_rates, _checked(check), {"oracle_row": row})


# --- spingas ---------------------------------------------------------------


def _spingas(rng: random.Random) -> Workload:
    runs, steps = 1000, 1500  # runs: the CLI default, not passed as a flag
    probs = [0.0, 0.5, 1.0]
    config = {
        "model": "spingas",
        "unit": "step",
        "spingas": {"lattice": [6, 6], "n_env": 8, "psi": 0.1, "phi": 0.001,
                    "exchange_prob": 0.0, "steps": steps},
        "sweep": [{"param": "spingas.exchange_prob", "min": 0.0, "max": 1.0, "points": len(probs)}],
        "seed": rng.randrange(2**31),
    }
    first: list[str] = []  # CSV of the first invocation checked; later ones must match it byte for byte

    def check(text: str) -> Check:
        header, rows = read_csv(text)
        bad = _expect_layout(header, rows, ["spingas.exchange_prob", "negativity", "stderr"], len(probs))
        if bad:
            return Check(False, float("inf"), bad)
        if _grid_dev(rows[:, 0], np.array(probs)) > 0:
            return Check(False, float("inf"), "exchange grid differs from the config")
        neg = rows[:, 1]
        if not np.all((neg >= 0) & (neg <= 0.5)):
            return Check(False, float("inf"), "negativity outside [0, 0.5]")
        full = abs(neg[-1])
        if full > SPINGAS_FULL_EXCHANGE_TOL:
            return Check(False, full, f"exchange_prob=1 negativity {full:.3e} is not 0")
        if not first:
            first.append(text)
        elif text != first[0]:
            return Check(False, float("inf"), "CSV differs from the first one at the same seed")
        return Check(True, full)

    items = len(probs) * runs * steps
    return Workload("spingas", "spingas", config, [], items, _checked(check))


# --- evolve5q --------------------------------------------------------------


def _evolve5q(rng: random.Random) -> Workload:
    from scipy.integrate import solve_ivp

    from resetlb.liouville import GasNoiseParams, ResetSpec
    from resetlb.verify import apply_master_equation

    n, points = 5, 101
    p = GAS_REGION
    r = 5.0 + 10.0 * rng.random()
    t_max = 1.0 + 0.5 * rng.random()
    config = {
        "model": "gas",
        "unit": "B",
        "n_qubits": n,
        "hamiltonian": {"kind": "ising", "g": p["g"], "omega": p["omega"]},
        "noise": {"B": p["B"], "C": p["C"], "s": p["s"]},
        "reset": {"r": r, "state": "plus"},
        "seed": rng.randrange(2**31),
    }
    times = np.linspace(0.0, t_max, points)
    row = rng.randint(1, 5)
    d = 2**n
    h = _ising_hamiltonian(n, p["g"], p["omega"])
    noise = GasNoiseParams(B=p["B"], C=p["C"], s=p["s"])
    reset = ResetSpec.pure(r, n, "+")
    plus = np.full(d, d**-0.5, dtype=complex)

    def rhs(_t, y):
        return apply_master_equation(y.reshape(d, d), h, noise, reset, n).ravel()

    sol = solve_ivp(rhs, (0.0, times[row]), np.outer(plus, plus).ravel(),
                    method="DOP853", rtol=1e-11, atol=1e-13)
    if not sol.success:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    rho = sol.y[:, -1].reshape(d, d)
    rho = (rho + rho.conj().T) / 2
    expected = np.array([_average_negativity(rho, n), np.linalg.eigvalsh(rho)[0]])

    def check(text: str) -> Check:
        header, rows = read_csv(text)
        bad = _expect_layout(header, rows, ["t", "negativity", "trace", "min_eigenvalue"], points)
        if bad:
            return Check(False, float("inf"), bad)
        if _grid_dev(rows[:, 0], times) > 1e-12:
            return Check(False, float("inf"), "time grid differs from --t-max/--points")
        trace_dev = float(np.max(np.abs(rows[:, 2] - 1.0)))
        if trace_dev > TRACE_TOL:
            return Check(False, trace_dev, f"trace off by {trace_dev:.3e}")
        if np.min(rows[:, 3]) < -MIN_EIG_TOL:
            return Check(False, float(-np.min(rows[:, 3])), "negative eigenvalue")
        dev = float(np.max(np.abs(rows[row, [1, 3]] - expected)))
        ok = dev <= EVOLVE_TOL
        return Check(ok, max(dev, trace_dev), "" if ok else f"row {row} off the ODE solution by {dev:.3e}")

    extra = ["--t-max", repr(t_max), "--points", str(points)]
    return Workload("evolve5q", "evolve", config, extra, points, _checked(check), {"oracle_row": row})
