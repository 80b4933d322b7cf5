"""Closed-form solutions used as oracles for the numerical paths.

Every function here evaluates an explicit formula; nothing is solved
numerically.  All formulas live in this one module so that a transcription
slip is caught by the cross-checks in :mod:`resetlb.verify` and the test
suite instead of propagating silently.

Model conventions match the builders in :mod:`resetlb.liouville`: two
qubits, free Hamiltonian (omega/2)(sz1 + sz2), interaction either
g sz.sz ("Ising") or g sx.sx ("XX"), local noise with inversion decay B,
polarization decay C and bath parameter s, dephasing rate gamma, reset
rate r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from resetlb import qop


def _hermitize_fill(rho: np.ndarray) -> np.ndarray:
    for i in range(4):
        for j in range(i + 1, 4):
            rho[j, i] = np.conj(rho[i, j])
    return rho


# --- dephasing + Ising + reset |+> ------------------------------------------


def dephasing_ising_reset_negativity(g: float, gamma: float, r: float) -> float:
    """Steady-state negativity for dephasing noise, Ising coupling g and
    reset |+> at rate r (omega = 0).

    Depends only on g/gamma and r/gamma; the entangled region is bounded
    by g > 2 gamma and approaches the line g = r, with supremum
    (sqrt(3) - 1)/8 ~ 0.0915 along g = r/(1 + sqrt(3)).
    """
    if g < 0 or gamma < 0 or r < 0:
        raise ValueError("rates must be non-negative")
    if g == 0 and gamma == 0 and r == 0:
        raise ValueError("all-zero parameters are degenerate")
    num = 2 * gamma * (r + gamma) ** 2 + g * g * (r + 2 * gamma) - r * (r + 2 * gamma) * g
    den = 2 * (r + 2 * gamma) * (2 * g * g + (r + gamma) * (r + 2 * gamma))
    return max(0.0, -num / den)


def dephasing_ising_reset_steady(g: float, gamma: float, r: float) -> qop.DensityMatrix:
    """Steady state for dephasing + Ising + reset |+> at omega = 0: flat
    diagonal 1/4, equal anti-diagonals, and one off-diagonal family."""
    ad = r**2 * (r + gamma) / (4 * (r + 2 * gamma) * (2 * g * g + (r + gamma) * (r + 2 * gamma)))
    od = r * (-1j * g + r + gamma) / (4 * (2 * g * g + (r + gamma) * (r + 2 * gamma)))
    rho = np.zeros((4, 4), dtype=complex)
    np.fill_diagonal(rho, 0.25)
    rho[0, 1] = rho[0, 2] = od
    rho[1, 3] = rho[2, 3] = np.conj(od)
    rho[0, 3] = rho[1, 2] = ad
    return qop.validate_density(_hermitize_fill(rho), tol=1e-10)


def dephasing_ising_reset_spectrum(
    g: float, gamma: float, omega: float, r: float
) -> list[tuple[complex, int]]:
    """The sixteen Liouvillian eigenvalues for dephasing + Ising + reset |+>
    as (eigenvalue, multiplicity) pairs.

    The square root is taken as a principal complex root so the same
    expression covers the overdamped (r > 4g) and oscillatory (r < 4g)
    regimes.
    """
    s_root = np.sqrt(complex(r * r - 16 * g * g))
    out = [
        (0j, 1),
        (complex(-r), 2),
        (complex(-2 * r), 1),
        (complex(-2 * (r + 2 * gamma)), 2),
        (-2 * (r + 2 * gamma) - 2j * omega, 1),
        (-2 * (r + 2 * gamma) + 2j * omega, 1),
    ]
    for sign_root in (+1, -1):
        for sign_om in (+1, -1):
            out.append(
                (-0.5 * (3 * r + 4 * gamma + sign_root * s_root + sign_om * 2j * omega), 2)
            )
    return out


# --- XX interaction with local radiative noise (C = B/2) ---------------------


def xx_steady_no_reset(B: float, s: float, g: float, omega: float):
    """Steady state and negativity of the XX model without reset.

    Entanglement requires special alignment of interaction and noise and
    always vanishes at s = 1/2 (infinite bath temperature).
    Returns ``(DensityMatrix, negativity)``.
    """
    den = B * B + 4 * (g * g + omega * omega)
    x = B * B + 4 * omega * omega
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = (g * g + s * s * x) / den
    rho[1, 1] = rho[2, 2] = (g * g - (s - 1) * s * x) / den
    rho[3, 3] = (g * g + (1 - s) ** 2 * x) / den
    rho[0, 3] = g * (2 * s - 1) * (1j * B + 2 * omega) / den
    neg = max(0.0, ((s - 1) * s * x - g * g + g * abs(1 - 2 * s) * np.sqrt(x)) / den)
    return qop.validate_density(_hermitize_fill(rho), tol=1e-10), float(neg)


def xx_steady_with_reset(B: float, s: float, g: float, omega: float, r: float):
    """Steady state and negativity of the XX model with reset to |1> on
    both qubits at rate r (noise with C = B/2).

    Returns ``(DensityMatrix, negativity)``; the negativity is strictly
    positive for suitable r at any s, including s = 1/2.
    """
    w = 2.0 * omega  # coefficients are organized in terms of the full level gap
    den_core = (B + r) * w * w + (B + 2 * r) * (4 * g * g + (B + r) * (B + 2 * r))
    den = (B + r) * den_core
    c0000 = (B * B * s * s * w * w + (B + 2 * r) * ((B + r) * g * g + B * B * (B + 2 * r) * s * s)) / den
    c0101 = (
        (B + 2 * r) * ((B + r) * g * g - B * B * (B + 2 * r) * s * s + B * (B + r) * (B + 2 * r) * s)
        - B * s * (s * B - B - r) * w * w
    ) / den
    c1111 = (
        (-s * B + B + r) ** 2 * w * w
        + (B + 2 * r)
        * (B * B * (B + 2 * r) * s * s - 2 * B * (B + r) * (B + 2 * r) * s + (B + r) * (g * g + (B + r) * (B + 2 * r)))
    ) / den
    c0011 = g * (2 * s * B - B - r) * (1j * (B + 2 * r) + w) / den_core
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = c0000
    rho[1, 1] = rho[2, 2] = c0101
    rho[3, 3] = c1111
    rho[0, 3] = c0011
    state = qop.validate_density(_hermitize_fill(rho), tol=1e-10)

    p = (-2 * s * B + B + r) ** 2
    wq = (B + 2 * r) ** 2 + w * w
    neg = -0.25 * (
        -wq * p / ((B + r) * den_core)
        - 4 * np.sqrt(g * g * p * wq / den_core**2)
        + 1.0
    )
    return state, float(max(0.0, neg))


# --- thermal state of the transverse-field Ising Hamiltonian -----------------


def transverse_ising_ground_state(b: float) -> np.ndarray:
    """Normalized ground state of g(sz.sz + b(sx1 + sx2)) for g > 0, b != 0.

    In the standard basis: (1, q, q, 1)/sqrt(2 + 2 q^2) with
    q = -(1 + sqrt(1 + 4 b^2)) / (2 b); entangled for every finite b and
    approaching the product |--> as b grows.
    """
    if b == 0:
        raise ValueError("b = 0 leaves the ground state degenerate")
    q = -(1.0 + np.sqrt(1.0 + 4.0 * b * b)) / (2.0 * b)
    v = np.array([1.0, q, q, 1.0], dtype=complex)
    return v / np.linalg.norm(v)


def _thermal_part(g: float, b: float, beta: float) -> float:
    """Thermal negativity of the transverse Ising pair before clipping at
    zero: negative where the Gibbs state is separable.

    Evaluated in a form scaled by exp(-sqrt(4b^2+1) g beta) so that large
    beta (criteria use beta up to 1e3) does not overflow.
    """
    c = np.sqrt(4 * b * b + 1)
    x = g * beta
    y = c * x
    # cosh(x) = e^y (e^(x-y) + e^(-x-y))/2 etc.; x - y <= 0 keeps all
    # exponentials bounded
    ex = np.exp(x - y) + np.exp(-x - y)
    num = ex - (1.0 - np.exp(-2 * y)) / c
    den = 2 * (ex + 1.0 + np.exp(-2 * y))
    return -num / den


def thermal_negativity_transverse_ising(g: float, b: float, beta: float) -> float:
    """Negativity of exp(-beta H)/Z for H = g(sz.sz + b(sx1 + sx2)).

    The unclipped value tends to -1/4 as beta -> 0 and to
    1/(2 sqrt(4b^2+1)) as beta -> infinity.
    """
    if b == 0:
        raise ValueError("b = 0 is degenerate and excluded")
    if g <= 0 or beta <= 0:
        raise ValueError("g and beta must be positive")
    return float(max(0.0, _thermal_part(g, b, beta)))


def thermal_negativity_root(g: float, b: float, lo: float = 1e-8, hi: float = 1e4) -> float:
    """Inverse temperature where the thermal negativity first becomes
    positive, found by bisection; below it the thermal state is separable."""
    if _thermal_part(g, b, lo) >= 0 or _thermal_part(g, b, hi) <= 0:
        raise ValueError("no sign change in the given beta bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _thermal_part(g, b, mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


# --- steady state for general local noise + Ising + reset |+> ----------------


def ising_noise_reset_steady(
    B: float, C: float, s: float, g: float, omega: float, r: float
) -> qop.DensityMatrix:
    """Closed-form steady state for the Ising model with general local
    noise (B, C, s) and reset |+> on both qubits at rate r.

    Special cases: B = 0, C = 2 gamma reproduces the dephasing steady
    state; r = 0 gives the product thermal diagonal
    diag(s^2, s(1-s), s(1-s), (1-s)^2).
    """
    om = omega
    c0000 = (r + 2 * B * s) ** 2 / (4 * (B + r) ** 2)
    c0101 = (r + 2 * B * (1 - s)) * (r + 2 * B * s) / (4 * (B + r) ** 2)
    c1111 = (r + 2 * B * (1 - s)) ** 2 / (4 * (B + r) ** 2)
    den1 = 4 * (B + r) * (
        4 * g * g
        + (C + r + 1j * om) * (C + 2 * r + 1j * om)
        + B * (C + r + 2j * g * (2 * s - 1) + 1j * om)
    )
    c0001 = r * (r + 2 * B * s) * (B + C - 2j * g + 2 * r + 1j * om) / den1
    c0111 = r * (r + 2 * B * (1 - s)) * (B + C + 2j * g + 2 * r + 1j * om) / den1
    c0011 = (
        r * r * (B * B + (C + 2j * g + 3 * r - 4j * g * s + 1j * om) * B + r * (C + 2 * r + 1j * om))
    ) / (den1 * (C + r + 1j * om))
    den_0110 = 4 * (B + r) * (C + r) * (
        om**4
        + (2 * C * C + 6 * r * C - 8 * g * g + 5 * r * r) * om**2
        + (4 * g * g + (C + r) * (C + 2 * r)) ** 2
        + 2 * B * (
            (C + 2 * r) * om**2
            + 2 * g * (2 * C + 3 * r) * (2 * s - 1) * om
            + (C + r) * (4 * g * g + (C + r) * (C + 2 * r))
        )
        + B * B * ((C + r) ** 2 + (g * (4 * s - 2) + om) ** 2)
    )
    num_0110 = r * r * (
        (C + r) * B**3
        + ((C + r) * (2 * C + 5 * r) - 16 * g * g * (s - 1) * s) * B**2
        + (
            C**3
            + 7 * r * C * C
            + 4 * g * g * C
            + 14 * r * r * C
            + 8 * r**3
            + (C + r) * om**2
            + 12 * g * g * r
            - 4 * g * (C + r) * (2 * s - 1) * om
        ) * B
        + r * (C + r) * om**2
        + r * (C + 2 * r) * (4 * g * g + (C + r) * (C + 2 * r))
    )
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = c0000
    rho[1, 1] = rho[2, 2] = c0101
    rho[3, 3] = c1111
    rho[0, 1] = rho[0, 2] = c0001
    rho[1, 3] = rho[2, 3] = c0111
    rho[0, 3] = c0011
    rho[1, 2] = num_0110 / den_0110
    return qop.validate_density(_hermitize_fill(rho), tol=1e-10)


# --- time-dependent solution: dephasing + Ising + reset |+> -------------------


@dataclass(frozen=True)
class DephasingIsingResetSolution:
    """Exact time dependence of the two-qubit dephasing + Ising + reset |+>
    master equation, parameterized by nine integration constants fitted to
    an initial state.

    The density-matrix coefficients split into sectors that close under
    the dynamics: the diagonal (constants D2, D3, D4), two off-diagonal
    pairs (OD1, OD2 and OD3, OD4) driven by the diagonal, and the two
    anti-diagonal entries (AD1, AD2) driven by the off-diagonal sectors.
    The square root sqrt(r^2 - 16 g^2) is evaluated as a principal complex
    root; at exactly r = 4g the solution is taken as the one-sided limit
    by nudging r by 1e-12.
    """

    g: float
    gamma: float
    omega: float
    r: float
    D2: float
    D3: float
    D4: float
    OD1: complex
    OD2: complex
    OD3: complex
    OD4: complex
    AD1: complex
    AD2: complex

    @classmethod
    def from_initial_state(
        cls, rho0, g: float, gamma: float, omega: float, r: float
    ) -> "DephasingIsingResetSolution":
        """Fit the nine constants to reproduce rho0 at t = 0."""
        mat = np.asarray(rho0.matrix if isinstance(rho0, qop.DensityMatrix) else rho0)
        if r <= 0:
            raise ValueError("the fitted solution requires r > 0")
        r = cls._nudged_r(g, r)
        aux = _OffDiagonalAux(g, gamma, omega, r)
        d2 = float((2 * (mat[0, 0] + mat[3, 3]) - 1).real)
        d3 = float((mat[0, 0] - mat[3, 3]).real)
        d4 = float((mat[1, 1] - mat[2, 2]).real)
        fit = np.array(
            [[-(4j * g + aux.S), -(aux.S - 4j * g)], [r, -r]], dtype=complex
        )
        od1, od2 = np.linalg.solve(
            fit,
            [mat[0, 1] - aux.ss1 - aux.v1 * (d3 + d4), mat[2, 3] - aux.ss2 - aux.v2 * (d3 + d4)],
        )
        od3, od4 = np.linalg.solve(
            fit,
            [mat[0, 2] - aux.ss1 - aux.v1 * (d3 - d4), mat[1, 3] - aux.ss2 - aux.v2 * (d3 - d4)],
        )
        ad1 = mat[0, 3] - aux.antidiag_phase_parts(d3, od1, od2, od3, od4, t=0.0)
        ad2 = mat[1, 2] - aux.antidiag_real_parts(d3, d4, od1, od2, od3, od4, t=0.0)
        return cls(g, gamma, omega, r, d2, d3, d4, od1, od2, od3, od4, complex(ad1), complex(ad2))

    @staticmethod
    def _nudged_r(g: float, r: float) -> float:
        return r + 1e-12 if abs(r - 4 * g) < 1e-12 else r

    def coefficients(self, t: float) -> np.ndarray:
        """Full 4x4 density matrix at time t (Hermiticity fills the lower
        triangle)."""
        g, gamma, omega, r = self.g, self.gamma, self.omega, self.r
        aux = _OffDiagonalAux(g, gamma, omega, r)
        e2r = np.exp(-2 * r * t)
        e1r = np.exp(-r * t)
        ep = np.exp(aux.lam_p * t)
        em = np.exp(aux.lam_m * t)
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 0.25 + 0.25 * self.D2 * e2r + 0.5 * self.D3 * e1r
        rho[1, 1] = 0.25 - 0.25 * self.D2 * e2r + 0.5 * self.D4 * e1r
        rho[2, 2] = 0.25 - 0.25 * self.D2 * e2r - 0.5 * self.D4 * e1r
        rho[3, 3] = 0.25 + 0.25 * self.D2 * e2r - 0.5 * self.D3 * e1r
        rho[0, 1] = (
            aux.ss1
            + aux.v1 * (self.D3 + self.D4) * e1r
            - self.OD2 * (aux.S - 4j * g) * ep
            - self.OD1 * (4j * g + aux.S) * em
        )
        rho[2, 3] = aux.ss2 + aux.v2 * (self.D3 + self.D4) * e1r - r * self.OD2 * ep + r * self.OD1 * em
        rho[0, 2] = (
            aux.ss1
            + aux.v1 * (self.D3 - self.D4) * e1r
            - self.OD4 * (aux.S - 4j * g) * ep
            - self.OD3 * (4j * g + aux.S) * em
        )
        rho[1, 3] = aux.ss2 + aux.v2 * (self.D3 - self.D4) * e1r - r * self.OD4 * ep + r * self.OD3 * em
        rho[0, 3] = self.AD1 * np.exp(-2 * (r + 2 * gamma + 1j * omega) * t) + aux.antidiag_phase_parts(
            self.D3, self.OD1, self.OD2, self.OD3, self.OD4, t
        )
        rho[1, 2] = self.AD2 * np.exp(-2 * (r + 2 * gamma) * t) + aux.antidiag_real_parts(
            self.D3, self.D4, self.OD1, self.OD2, self.OD3, self.OD4, t
        )
        return _hermitize_fill(rho)


class _OffDiagonalAux:
    """Shared building blocks of the off-diagonal and anti-diagonal sectors."""

    def __init__(self, g: float, gamma: float, omega: float, r: float):
        self.g, self.gamma, self.omega, self.r = g, gamma, omega, r
        self.S = np.sqrt(complex(r * r - 16 * g * g))
        self.lam_p = -0.5 * (3 * r + 4 * gamma + 2j * omega - self.S)
        self.lam_m = -0.5 * (3 * r + 4 * gamma + 2j * omega + self.S)
        det_drive = 4 * g * g + (2 * gamma + 1j * omega) * (r + 2 * gamma + 1j * omega)
        den_ss = 4 * (2 * g * g + (r + gamma + 0.5j * omega) * (r + 2 * gamma + 1j * omega))
        self.ss1 = r * (-1j * g + r + gamma + 0.5j * omega) / den_ss
        self.ss2 = r * (+1j * g + r + gamma + 0.5j * omega) / den_ss
        self.v1 = -r * (2j * g - 2 * gamma - 1j * omega) / (4 * det_drive)
        self.v2 = -r * (2j * g + 2 * gamma + 1j * omega) / (4 * det_drive)

    def antidiag_phase_parts(self, d3, od1, od2, od3, od4, t) -> complex:
        """Non-homogeneous part of the coefficient coupling |00><11|."""
        g, gamma, omega, r, S = self.g, self.gamma, self.omega, self.r, self.S
        ss = r * (self.ss1 + self.ss2) / (2 * (r + 2 * gamma + 1j * omega))
        c_r = r * d3 * (self.v1 + self.v2) / (r + 4 * gamma + 2j * omega)
        c_p = -r * (od2 + od4) * (r + S - 4j * g) / (r + 4 * gamma + 2j * omega + S)
        c_m = r * (od1 + od3) * (r - 4j * g - S) / (r + 4 * gamma + 2j * omega - S)
        return (
            ss
            + c_r * np.exp(-r * t)
            + c_p * np.exp(self.lam_p * t)
            + c_m * np.exp(self.lam_m * t)
        )

    def antidiag_real_parts(self, d3, d4, od1, od2, od3, od4, t) -> complex:
        """Non-homogeneous part of the coefficient coupling |01><10|, driven
        by one off-diagonal sector and the conjugate of the other."""
        g, gamma, omega, r, S = self.g, self.gamma, self.omega, self.r, self.S
        sc = np.conj(S)
        ss = r * np.real(self.ss1 + self.ss2) / (2 * (r + 2 * gamma))
        c_r = (
            0.5
            * r
            * ((np.conj(self.v1) + np.conj(self.v2)) * (d3 + d4) + (self.v1 + self.v2) * (d3 - d4))
            / (r + 4 * gamma)
        )
        c_cp = -r * np.conj(od2) * (r + 4j * g + sc) / (r + 4 * gamma + 2j * omega + sc)
        c_cm = r * np.conj(od1) * (r + 4j * g - sc) / (r + 4 * gamma + 2j * omega - sc)
        c_p = -r * od4 * (r + S - 4j * g) / (r + 4 * gamma - 2j * omega + S)
        c_m = r * od3 * (r - 4j * g - S) / (r + 4 * gamma - 2j * omega - S)
        return (
            ss
            + c_r * np.exp(-r * t)
            + c_cp * np.exp(np.conj(self.lam_p) * t)
            + c_cm * np.exp(np.conj(self.lam_m) * t)
            + c_p * np.exp(self.lam_p * t)
            + c_m * np.exp(self.lam_m * t)
        )
