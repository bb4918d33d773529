"""Reference values for the benchmark, computed without the bosepol package.

Every formula here is an independent route to a number the program computes:
closed forms of the momentum-shift expectation <T> = Tr[rho exp(i sum_j
theta_j n_j)] for states with a known Fock structure, the number-conserving
thermal determinant, and a high-order integration of the Rice-Mele pump.
``test_references.py`` checks each of them against a brute-force Fock sum or
the adiabatic limit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.integrate import solve_ivp

# Adiabatic transport of the reference pump, Gamma(3/4)^2 / sqrt(2 pi).
ADIABATIC_FLUX = math.gamma(0.75) ** 2 / math.sqrt(2.0 * math.pi)


def thermal_mode(theta: float, nbar: float) -> complex:
    """(1 - q) / (1 - q e^{i theta}), q = nbar / (nbar + 1)."""
    q = nbar / (nbar + 1.0)
    return (1.0 - q) / (1.0 - q * cmath.exp(1j * theta))


def coherent(thetas, amplitudes) -> complex:
    """exp(sum_j (e^{i theta_j} - 1) |alpha_j|^2)."""
    return cmath.exp(
        sum((cmath.exp(1j * t) - 1.0) * abs(a) ** 2 for t, a in zip(thetas, amplitudes))
    )


def squeezed_vacuum(theta: float, r: float) -> complex:
    """(cosh^2 r - e^{2 i theta} sinh^2 r)^{-1/2}; the argument has real part >= 1."""
    return 1.0 / cmath.sqrt(math.cosh(r) ** 2 - cmath.exp(2j * theta) * math.sinh(r) ** 2)


def tmsv(theta1: float, theta2: float, r: float) -> complex:
    """(1 - t^2) / (1 - t^2 e^{i (theta1 + theta2)}), t = tanh r."""
    t2 = math.tanh(r) ** 2
    return (1.0 - t2) / (1.0 - t2 * cmath.exp(1j * (theta1 + theta2)))


def displaced_thermal_mode(theta: float, nbar: float, alpha: complex) -> complex:
    """Thermal mode of occupation ``nbar`` displaced by the coherent amplitude ``alpha``.

    (1-q)/(1-z) exp(i |alpha|^2 sin theta - |b|^2 (1+z) / (2 (1-z))) with
    z = q e^{i theta} and |b|^2 = 2 |alpha|^2 (1 - cos theta).
    """
    q = nbar / (nbar + 1.0)
    z = q * cmath.exp(1j * theta)
    a2 = abs(alpha) ** 2
    b2 = 2.0 * a2 * (1.0 - math.cos(theta))
    return (1.0 - q) / (1.0 - z) * cmath.exp(
        1j * a2 * math.sin(theta) - b2 * (1.0 + z) / (2.0 * (1.0 - z))
    )


def bose_correlations(hopping: np.ndarray, beta: float, mu: float):
    """Correlation matrix N_ij = <a_i^dag a_j> of exp(-beta (H - mu N)) and its occupations.

    ``hopping`` is the one-body matrix h of H = sum_ij h_ij a_i^dag a_j.
    """
    energies, vectors = np.linalg.eigh(hopping)
    nbar = 1.0 / np.expm1(beta * (energies - mu))
    N = (vectors.conj() * nbar) @ vectors.T
    return N, nbar


def number_conserving_thermal(hopping: np.ndarray, beta: float, mu: float, thetas):
    """<T> = 1 / det(1 + N (1 - e^{i Theta})) of a number-conserving thermal state.

    No square root appears, so this value also pins the branch the program
    chooses. Returns ``(<T>, q_max)`` with ``q_max`` the largest
    ``nbar / (nbar + 1)`` over the eigenmodes.
    """
    N, nbar = bose_correlations(hopping, beta, mu)
    phase = np.exp(1j * np.asarray(thetas, dtype=float))
    val = 1.0 / np.linalg.det(np.eye(len(phase)) + N * (1.0 - phase))
    return complex(val), float(np.max(nbar / (nbar + 1.0)))


def rice_mele_hopping(w1: float, w2: float, delta: float, cells: int) -> np.ndarray:
    """Periodic Rice-Mele chain: on-site +/-delta, intra-cell w1, inter-cell w2.

    The overall sign of the hoppings is a sublattice gauge choice; the
    number-conserving <T> above does not depend on it.
    """
    h = np.zeros((2 * cells, 2 * cells))
    for r in range(cells):
        a, b, a_next = 2 * r, 2 * r + 1, 2 * ((r + 1) % cells)
        h[a, a], h[b, b] = delta, -delta
        h[a, b] = h[b, a] = w1
        h[a_next, b] = h[b, a_next] = w2
    return h


def reference_pump(phase: float) -> tuple[float, float, float]:
    """(w1, w2, delta) of the reference pump at cycle fraction ``phase``, amplitude 1."""
    return (
        math.cos(math.pi * phase) ** 2,
        math.sin(math.pi * phase) ** 2,
        math.sin(2.0 * math.pi * phase),
    )


def shift_thetas(cells: int, sites: int, offset: float) -> np.ndarray:
    """Phases 2 pi x / L at positions x = r + (s + offset) / n, cell-major."""
    r = np.repeat(np.arange(cells), sites)
    s = np.tile(np.arange(sites), cells)
    return 2.0 * np.pi * (r + (s + offset) / sites) / cells


def pump_flux(period: float) -> float:
    """Flux of the k = 0 coherent pump over one period, by DOP853 at rtol 1e-12.

    Integrates i d/dt (a, b) = [[D, w], [w, -D]] (a, b) with w = w1 + w2 from
    the lower eigenvector of the drive at t = 0, together with
    dPhi/dt = w2 Re[i (a b* - a* b)].
    """

    def rhs(t, y):
        w1, w2, d = reference_pump(t / period)
        w = w1 + w2
        a = complex(y[0], y[1])
        b = complex(y[2], y[3])
        da = -1j * (d * a + w * b)
        db = -1j * (w * a - d * b)
        flux = w2 * (1j * (a * b.conjugate() - a.conjugate() * b)).real
        return [da.real, da.imag, db.real, db.imag, flux]

    w1, w2, d = reference_pump(0.0)
    _, vecs = np.linalg.eigh(np.array([[d, w1 + w2], [w1 + w2, -d]]))
    a0, b0 = vecs[0, 0], vecs[1, 0]
    sol = solve_ivp(
        rhs, (0.0, period), [a0, 0.0, b0, 0.0, 0.0],
        method="DOP853", rtol=1e-12, atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"reference pump integration failed: {sol.message}")
    return float(sol.y[4, -1])
