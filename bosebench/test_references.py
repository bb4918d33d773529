"""Checks of the benchmark's reference formulas against brute-force Fock sums.

Run with ``python3 -m pytest bosebench``. Nothing here imports bosepol: the
references must stand on their own before the benchmark trusts them.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

import references as ref

THETAS = (0.3, 1.7, 2.9, 4.4, 6.0)
TOL = 1e-10


def fock_sum(probabilities, theta):
    m = np.arange(len(probabilities))
    return complex(np.sum(probabilities * np.exp(1j * theta * m)))


def annihilation(dim):
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("nbar", (0.1, 1.0, 5.0))
def test_thermal_mode(theta, nbar):
    q = nbar / (nbar + 1.0)
    p = (1.0 - q) * q ** np.arange(400.0)
    assert abs(ref.thermal_mode(theta, nbar) - fock_sum(p, theta)) < TOL


@pytest.mark.parametrize("theta", THETAS)
def test_coherent(theta):
    alphas = (0.6 + 0.8j, -0.3 + 0.2j)
    thetas = (theta, 2.0 * theta + 0.4)
    expected = 1.0
    for t, a in zip(thetas, alphas):
        m = np.arange(80)
        n = abs(a) ** 2
        p = np.exp(m * math.log(n) - n - gammaln(m + 1))
        expected *= fock_sum(p, t)
    assert abs(ref.coherent(thetas, alphas) - expected) < TOL


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("r", (0.3, 0.8814))
def test_squeezed_vacuum(theta, r):
    k = np.arange(300)
    t = math.tanh(r)
    logp = (gammaln(2 * k + 1) - 2.0 * gammaln(k + 1) - k * math.log(4.0)
            + 2.0 * k * math.log(t) - math.log(math.cosh(r)))
    p = np.zeros(600)
    p[2 * k] = np.exp(logp)
    assert abs(ref.squeezed_vacuum(theta, r) - fock_sum(p, theta)) < TOL


@pytest.mark.parametrize("theta", THETAS)
def test_tmsv(theta):
    r, theta2 = 0.55, 2.2
    t2 = math.tanh(r) ** 2
    p = (1.0 - t2) * t2 ** np.arange(400.0)
    assert abs(ref.tmsv(theta, theta2, r) - fock_sum(p, theta + theta2)) < TOL


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("nbar,alpha", [(0.2, 0.7 - 0.4j), (1.0, 1.1j), (2.0, -0.5)])
def test_displaced_thermal_mode(theta, nbar, alpha):
    # D(alpha) is exponentiated in a large truncated space; only the leading
    # block, far from the truncation edge, is used.
    big, keep = 260, 130
    a = annihilation(big)
    D = expm(alpha * a.conj().T - np.conj(alpha) * a)[:keep, :keep]
    q = nbar / (nbar + 1.0)
    rho = (D * ((1.0 - q) * q ** np.arange(keep))) @ D.conj().T
    assert abs(ref.displaced_thermal_mode(theta, nbar, alpha)
               - fock_sum(np.real(np.diag(rho)), theta)) < TOL


def sector_thermal_expectation(hopping, beta, mu, thetas, max_particles):
    """Tr[rho e^{i sum theta_j n_j}] of exp(-beta (H - mu N)), summed sector by sector.

    H = sum_ij h_ij a_i^dag a_j conserves the particle number, so each
    N-particle sector is finite and its matrix is exact.
    """
    modes = len(thetas)
    total, norm = 0.0j, 0.0
    for k in range(max_particles + 1):
        basis = [c for c in itertools.product(range(k + 1), repeat=modes) if sum(c) == k]
        index = {c: i for i, c in enumerate(basis)}
        H = np.zeros((len(basis), len(basis)), dtype=complex)
        for col, occ in enumerate(basis):
            for i in range(modes):
                for j in range(modes):
                    if occ[j] == 0:
                        continue
                    amp = math.sqrt(occ[j])
                    new = list(occ)
                    new[j] -= 1
                    amp *= math.sqrt(new[i] + 1)
                    new[i] += 1
                    H[index[tuple(new)], col] += hopping[i, j] * amp
        vals, vecs = np.linalg.eigh(H)
        rho = (vecs * np.exp(-beta * (vals - mu * k))) @ vecs.conj().T
        phase = np.exp(1j * np.array([np.dot(thetas, c) for c in basis]))
        total += np.sum(np.diag(rho) * phase)
        norm += np.real(np.trace(rho))
    return total / norm


@pytest.mark.parametrize("hopping", [
    np.array([[0.4, -0.7], [-0.7, -0.2]]),
    np.array([[0.1, 0.5 - 0.6j], [0.5 + 0.6j, 0.3]]),
    np.array([[0.0, 0.4, 0.3j], [0.4, 0.5, -0.2], [-0.3j, -0.2, -0.1]]),
])
def test_number_conserving_thermal(hopping):
    beta, mu = 1.3, -1.6
    thetas = np.array([0.7, 2.5, 4.1])[: len(hopping)]
    value, q_max = ref.number_conserving_thermal(hopping, beta, mu, thetas)
    expected = sector_thermal_expectation(hopping, beta, mu, thetas, 30)
    assert abs(value - expected) < TOL
    nbar = 1.0 / np.expm1(beta * (np.linalg.eigvalsh(hopping) - mu))
    assert q_max == pytest.approx(np.max(nbar / (nbar + 1.0)), rel=1e-12)


def test_number_conserving_reduces_to_thermal_modes():
    nbar = np.array([0.3, 1.2, 4.0])
    beta = 0.7
    energies = np.log1p(1.0 / nbar) / beta
    thetas = np.array([0.5, 3.0, 5.5])
    value, _ = ref.number_conserving_thermal(np.diag(energies), beta, 0.0, thetas)
    expected = np.prod([ref.thermal_mode(t, n) for t, n in zip(thetas, nbar)])
    assert abs(value - expected) < TOL


def test_number_conserving_is_independent_of_the_hopping_sign():
    h = ref.rice_mele_hopping(1.0, 0.3, 0.5, 6)
    thetas = ref.shift_thetas(6, 2, 0.5)
    plus, _ = ref.number_conserving_thermal(h, 1.0, -3.0, thetas)
    flipped = 2.0 * np.diag(np.diag(h)) - h
    minus, _ = ref.number_conserving_thermal(flipped, 1.0, -3.0, thetas)
    assert abs(plus - minus) < TOL * abs(plus)


def test_shift_thetas_lie_inside_the_zone():
    thetas = ref.shift_thetas(4, 2, 0.5)
    assert thetas.shape == (8,)
    assert np.all((thetas > 0.0) & (thetas < 2.0 * np.pi))
    assert thetas[1] - thetas[0] == pytest.approx(np.pi / 4)


@pytest.mark.parametrize("period,tol", [(100.0, 0.01), (400.0, 0.003)])
def test_pump_flux_approaches_the_adiabatic_value(period, tol):
    assert abs(ref.pump_flux(period) - ref.ADIABATIC_FLUX) <= tol


def test_adiabatic_value():
    assert ref.ADIABATIC_FLUX == pytest.approx(0.599070, abs=1e-6)
