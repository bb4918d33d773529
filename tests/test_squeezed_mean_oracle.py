"""The mean term with squeezing against a truncated-Fock oracle.

rho = D(alpha) S rho_th S^dagger D(alpha)^dagger is built in a truncated
number basis with ``scipy.linalg.expm``; its covariance and mean are read off
rho in the quadratures x = a + a^dagger, p = -i (a - a^dagger), and
Tr rho e^{i theta . n} must match ``polarization`` of that Gaussian state.
"""

from functools import reduce

import numpy as np
import pytest
from scipy.linalg import expm

from bosepol import GaussianState, ShiftSpec, make_lattice, polarization

# The truncated generators are wrong only near the top of each mode's basis:
# rho must hold less than TAIL there, so that nothing reaches the edge.
EDGE = 4
TAIL = 1e-12


def ladder(levels: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, levels)), 1)


def displacement(a: np.ndarray, alpha: complex) -> np.ndarray:
    return expm(alpha * a.conj().T - np.conj(alpha) * a)


def squeezer(a: np.ndarray, xi: complex) -> np.ndarray:
    return expm(0.5 * (np.conj(xi) * a @ a - xi * a.conj().T @ a.conj().T))


def check_against_fock(U: np.ndarray, levels: int, nbars, thetas) -> None:
    """Compare Tr rho e^{i theta . n}, rho = U (thermal product) U^dagger on
    ``len(nbars)`` modes of ``levels`` levels each, with ``polarization``."""
    modes = len(nbars)
    eye = np.eye(levels)
    lowered = [reduce(np.kron, [ladder(levels) if i == j else eye for i in range(modes)])
               for j in range(modes)]
    # (1 - q) q^m per mode, q = nbar / (nbar + 1), multiplied over the modes
    weights = reduce(np.kron, [np.exp(np.arange(levels) * np.log(n / (n + 1.0)) - np.log1p(n))
                               for n in nbars])
    psi = U * np.sqrt(weights)
    rho = psi @ psi.conj().T
    quadratures = [op for a in lowered for op in (a + a.T, -1j * (a - a.T))]
    applied = [q @ rho for q in quadratures]
    mean = np.array([np.trace(x).real for x in applied])
    second = np.array([[np.sum(q.T * x).real for x in applied] for q in quadratures])
    V = (second + second.T) / 2.0 - np.outer(mean, mean)

    counts = np.array(np.unravel_index(np.arange(levels ** modes), (levels,) * modes))
    population = rho.diagonal().real
    assert population[(counts >= levels - EDGE).any(axis=0)].sum() < TAIL
    assert abs(population.sum() - 1.0) < TAIL
    want = np.sum(population * np.exp(1j * (np.asarray(thetas) @ counts)))

    lattice = make_lattice(1, modes)
    b = polarization(GaussianState(lattice, V, mean), ShiftSpec(lattice, thetas))
    assert abs(b.expectation - want) <= 1e-10 * abs(want)
    assert b.mean_term.real < 0.0 and b.abs_T < 1.0


@pytest.mark.parametrize("alpha, xi, nbar, theta", [
    (0.6 + 0.3j, 0.5 * np.exp(0.7j), 0.3, 2.1),
    (1.2 - 0.5j, 0.8, 0.1, 0.9),
    (0.3j, 0.4 * np.exp(-2.0j), 1.0, 4.0),
])
def test_displaced_squeezed_thermal_mode(alpha, xi, nbar, theta):
    levels = 120
    a = ladder(levels)
    check_against_fock(displacement(a, alpha) @ squeezer(a, xi), levels, [nbar], [theta])


def test_correlated_displaced_squeezed_thermal_pair():
    """A two-mode squeezer after a one-mode squeezer on the first mode, then a
    displacement of each: every quadrature pair is correlated."""
    levels = 26
    a, eye = ladder(levels), np.eye(levels)
    a1, a2 = np.kron(a, eye), np.kron(eye, a)
    U = (np.kron(displacement(a, 0.3 - 0.2j), displacement(a, -0.1 + 0.4j))
         @ expm(0.15 * (a1 @ a2 - a1.T @ a2.T))
         @ np.kron(squeezer(a, 0.2 * np.exp(0.4j)), eye))
    check_against_fock(U, levels, [0.05, 0.1], [1.3, 4.4])
