"""Named closed loops and families of Gaussian states for winding experiments.

Built-ins exposed to the CLI:

* ``rmm-thermal``    thermal Rice-Mele states driven around the reference pump;
* ``rmm-coherent``   the evolved translation-invariant coherent state;
* ``random-classical`` seeded circulant interpolations with min eig(V) >= 1;
* ``random-squeezed``  seeded nonclassical loops with a rotating squeezing axis.

Also provides the two-band chain with a topologically non-trivial
single-particle band structure used for the Chern-number null test.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .circulant import random_bloch_blocks
from .rice_mele import PumpProtocol, _ring_hamiltonian, _zak_phases, evolve_pump, rmm_cell_blocks
from .states import LatticeSpec, reassemble_covariance, thermal_covariances
from .winding import ParameterLoop, _integer_winding, _unwrap, check_initial_samples

LOOP_NAMES = ("rmm-thermal", "rmm-coherent", "random-classical", "random-squeezed")


def reference_protocol(amplitude: float = 1.0, period: float = 50.0) -> PumpProtocol:
    return PumpProtocol(amplitude=amplitude, period=period)


def rmm_thermal_loop(
    lattice: LatticeSpec,
    protocol: PumpProtocol | None = None,
    beta: float = 1.0,
    mu: float | None = None,
    initial_samples: int = 16,
) -> ParameterLoop:
    """Thermal Rice-Mele states around one pump cycle.

    The chemical potential defaults to -3A, safely below the band minimum
    -sqrt(2) A reached along the reference protocol, so the Bose occupations
    stay finite on the whole loop. Each sampler call builds its lambdas in one stack.
    """
    protocol = protocol or reference_protocol()
    if mu is None:
        mu = -3.0 * protocol.amplitude
    if lattice.sites_per_cell != 2:
        raise ValueError("Rice-Mele model needs two sites per cell")

    def sampler(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        blocks = rmm_cell_blocks(protocol.drive(lams * protocol.period))
        V = thermal_covariances(_ring_hamiltonian(*blocks, lattice.cells), beta, mu)
        return V, np.zeros((len(lams), lattice.dim))

    return ParameterLoop(lattice, sampler, initial_samples)


def rmm_coherent_loop(
    lattice: LatticeSpec,
    protocol: PumpProtocol | None = None,
    initial_samples: int = 16,
) -> ParameterLoop:
    """Evolved coherent state of the pump; covariance stays the identity.

    The trajectory is integrated once, on the first initial_samples * 2^j
    steps that reach 2^14 (2^14 itself for a power-of-two sample count).
    Loop samples pick the nearest step, which is exact for the grid
    k / initial_samples and for its first j levels of bisection.
    """
    protocol = protocol or reference_protocol()
    if lattice.sites_per_cell != 2:
        raise ValueError("Rice-Mele loops need two sites per cell")
    check_initial_samples(initial_samples)  # before the trajectory is sized from it
    steps = initial_samples
    while steps < 2 ** 14:
        steps *= 2
    traj = evolve_pump(protocol, steps=steps)
    eye = np.eye(lattice.dim)

    def sampler(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # np.rint rounds half to even, as round() does.
        i = np.rint(lams * steps).astype(int)
        amps = np.tile(np.stack([traj.alpha[i], traj.beta[i]], axis=-1), lattice.cells)
        mean = np.empty((len(lams), lattice.dim))
        mean[:, 0::2] = 2.0 * amps.real
        mean[:, 1::2] = 2.0 * amps.imag
        return np.broadcast_to(eye, (len(lams), *eye.shape)), mean

    return ParameterLoop(lattice, sampler, initial_samples)


def random_classical_loop(
    lattice: LatticeSpec,
    seed: int,
    mean_scale: float = 0.5,
    initial_samples: int = 16,
) -> ParameterLoop:
    """Smooth closed loop of classical circulant states with a driven mean.

    V(lambda) = Vbar + cos(2 pi lambda) X + sin(2 pi lambda) Y with
    ||X||, ||Y|| <= 0.25 and min eig(Vbar) >= 1.6, so the state stays
    classical on the whole loop. Vbar, X and Y are drawn in this order from
    one generator by :func:`random_bloch_blocks`, with Bloch eigenvalues in
    [1.6, 3.5), [-0.25, 0.25) and [-0.25, 0.25), and assembled in one call.
    """
    rng = np.random.default_rng(seed)
    blocks = [random_bloch_blocks(lattice, rng, lo, hi)
              for lo, hi in ((1.6, 3.5), (-0.25, 0.25), (-0.25, 0.25))]
    Vbar, X, Y = reassemble_covariance(np.array(blocks))
    cell = mean_scale * rng.normal(size=(3, 2 * lattice.sites_per_cell))
    m0, ma, mb = (np.tile(c, lattice.cells) for c in cell)

    def sampler(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, s = np.cos(2.0 * np.pi * lams)[:, None], np.sin(2.0 * np.pi * lams)[:, None]
        V = Vbar + c[..., None] * X + s[..., None] * Y
        return V, m0 + c * ma + s * mb

    return ParameterLoop(lattice, sampler, initial_samples)


def random_squeezed_loop(
    lattice: LatticeSpec,
    seed: int,
    mean_scale: float = 0.3,
    initial_samples: int = 16,
) -> ParameterLoop:
    """Nonclassical loop: per-mode squeezing axes rotate by pi over one cycle.

    Mode j is squeezed by r_j(lambda) = r0_j + rho_j sin(2 pi lambda), with
    r0_j drawn from [0.2, 0.8) and rho_j from [0, 0.25).
    """
    rng = np.random.default_rng(seed)
    nl = lattice.modes
    r0 = rng.uniform(0.2, 0.8, size=nl)
    rho = rng.uniform(0.0, 0.25, size=nl)
    phi0 = rng.uniform(0.0, math.pi, size=nl)
    mean_a = mean_scale * rng.normal(size=lattice.dim)
    mean_b = mean_scale * rng.normal(size=lattice.dim)

    x = 2 * np.arange(nl)

    def sampler(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # R(phi) diag(e^{2r}, e^{-2r}) R(phi)^T on every mode's (x, p) = (2j, 2j + 1),
        # filled over (lambda, mode).
        c, s = np.cos(2.0 * np.pi * lams)[:, None], np.sin(2.0 * np.pi * lams)[:, None]
        r = r0 + rho * s
        phi = phi0 + np.pi * lams[:, None]
        ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
        V = np.zeros((len(lams), lattice.dim, lattice.dim))
        V[:, x, x] = ch + sh * np.cos(2.0 * phi)
        V[:, x + 1, x + 1] = ch - sh * np.cos(2.0 * phi)
        V[:, x, x + 1] = V[:, x + 1, x] = sh * np.sin(2.0 * phi)
        return V, c * mean_a + s * mean_b

    return ParameterLoop(lattice, sampler, initial_samples)


def named_loop(
    name: str,
    lattice: LatticeSpec,
    seed: int = 0,
    protocol: PumpProtocol | None = None,
    beta: float = 1.0,
    mu: float | None = None,
    initial_samples: int = 16,
) -> ParameterLoop:
    """Resolve one of the built-in loop names."""
    if name == "rmm-thermal":
        return rmm_thermal_loop(lattice, protocol, beta, mu, initial_samples)
    if name == "rmm-coherent":
        return rmm_coherent_loop(lattice, protocol, initial_samples=initial_samples)
    if name == "random-classical":
        return random_classical_loop(lattice, seed, initial_samples=initial_samples)
    if name == "random-squeezed":
        return random_squeezed_loop(lattice, seed, initial_samples=initial_samples)
    raise ValueError(f"unknown loop {name!r}; choose from {', '.join(LOOP_NAMES)}")


# Two-band model with a chiral pair of Bloch bands carrying Chern number +-1:
# h(kx, ky) = sin kx sigma_x + sin ky sigma_y + (mass + cos kx + cos ky) sigma_z.
# At fixed ky it is a chain with the cell blocks of chern_cell_blocks, whose
# Bloch Hamiltonian at chain momentum kappa is h(-kappa, ky): the chain's
# hop e^{-i kappa} + hop^dagger e^{i kappa} is cos kappa sigma_z - sin kappa sigma_x.
_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def chern_cell_blocks(ky, mass: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """On-site block sin ky sigma_y + (mass + cos ky) sigma_z and hop block
    (sigma_z - i sigma_x) / 2 from cell r to r + 1, each (*ky.shape, 2, 2)."""
    if not math.isfinite(mass):
        raise ValueError(f"Chern chain mass must be finite, got {mass}")
    ky = np.asarray(ky, dtype=float)[..., None, None]
    onsite = np.sin(ky) * _SY + (mass + np.cos(ky)) * _SZ
    return onsite, np.broadcast_to((_SZ - 1j * _SX) / 2.0, onsite.shape)


def band_chern_number(mass: float = 1.0, grid: int = 32) -> int:
    """Chern number of the lower Bloch band, as the k_y winding of a Zak phase.

    The chain's lower-band Zak phase at k_y = 2 pi j / grid, j = 0 .. grid,
    each from ``grid`` chain momenta (one stacked ``eigh`` for all of them),
    winds by -C: the chain momentum is kappa = -kx. Raises
    :class:`GapClosureError` where the gap closes on the grid.
    """
    kys = 2.0 * np.pi * np.arange(grid + 1) / grid
    phis = _zak_phases(*chern_cell_blocks(kys, mass), samples=grid)
    return -_integer_winding(float(_unwrap(0.0, phis)[-1]), "band Chern number")


def chain_hopping_at_ky(ky, lattice: LatticeSpec, mass: float = 1.0) -> np.ndarray:
    """1D hopping matrices (*ky.shape, 2L, 2L) of the two-band model at fixed
    transverse momenta ``ky``."""
    if lattice.sites_per_cell != 2:
        raise ValueError("the two-band chain needs two sites per cell")
    return _ring_hamiltonian(*chern_cell_blocks(ky, mass), lattice.cells)


def thermal_chern_family(
    lattice: LatticeSpec,
    mass: float = 1.0,
    beta: float = 1.0,
    mu: float = -6.0,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``family(kys) -> (V, mean)``: thermal 1D Gaussian states of the two-band chain
    at transverse momenta ``kys`` (periodic in k_y), built in one stack as
    covariances (len(kys), 2nL, 2nL) and zero means (len(kys), 2nL)."""

    def family(kys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        V = thermal_covariances(chain_hopping_at_ky(kys, lattice, mass), beta, mu)
        return V, np.zeros(V.shape[:-1])

    return family
