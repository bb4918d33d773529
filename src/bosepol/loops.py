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

from .circulant import random_bloch_blocks, random_circulant_state, reassemble_covariance
from .rice_mele import PumpProtocol, evolve_pump, rmm_thermal_state
from .rice_mele import _bloch_hamiltonians, _ring_hamiltonian
from .states import GaussianState, LatticeSpec, coherent_state, thermal_state
from .winding import ParameterLoop

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
    stay finite on the whole loop.
    """
    protocol = protocol or reference_protocol()
    if mu is None:
        mu = -3.0 * protocol.amplitude

    def sampler(lam: float) -> GaussianState:
        params = protocol.params_at(lam * protocol.period)
        return rmm_thermal_state(params, lattice, beta, mu)

    return ParameterLoop(sampler=sampler, initial_samples=initial_samples)


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
    steps = initial_samples
    while steps < 2 ** 14:
        steps *= 2
    traj = evolve_pump(protocol, steps=steps)

    def sampler(lam: float) -> GaussianState:
        i = int(round(lam * steps))
        cell = np.array([traj.alpha[i], traj.beta[i]])
        return coherent_state(lattice, np.tile(cell, lattice.cells))

    return ParameterLoop(sampler=sampler, initial_samples=initial_samples)


def random_classical_loop(
    lattice: LatticeSpec,
    seed: int,
    mean_scale: float = 0.5,
    initial_samples: int = 16,
) -> ParameterLoop:
    """Smooth closed loop of classical circulant states with a driven mean.

    V(lambda) = Vbar + cos(2 pi lambda) X + sin(2 pi lambda) Y with
    ||X||, ||Y|| <= 0.25 and min eig(Vbar) >= 1.6, so the state stays
    classical on the whole loop.
    """
    rng = np.random.default_rng(seed)
    base = random_circulant_state(
        lattice, int(rng.integers(2 ** 31)), classical=True, eig_low=1.6, eig_high=3.5,
    )
    X = reassemble_covariance(random_bloch_blocks(lattice, rng, -0.25, 0.25))
    Y = reassemble_covariance(random_bloch_blocks(lattice, rng, -0.25, 0.25))
    cell = mean_scale * rng.normal(size=(3, 2 * lattice.sites_per_cell))
    m0, ma, mb = (np.tile(c, lattice.cells) for c in cell)

    def sampler(lam: float) -> GaussianState:
        c, s = math.cos(2.0 * math.pi * lam), math.sin(2.0 * math.pi * lam)
        return GaussianState(lattice, base.V + c * X + s * Y, m0 + c * ma + s * mb)

    return ParameterLoop(sampler=sampler, initial_samples=initial_samples)


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

    def sampler(lam: float) -> GaussianState:
        # R(phi) diag(e^{2r}, e^{-2r}) R(phi)^T on every mode's (x, p) = (2j, 2j + 1).
        r = r0 + rho * math.sin(2.0 * math.pi * lam)
        phi = phi0 + math.pi * lam
        ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
        x = 2 * np.arange(nl)
        V = np.zeros((lattice.dim, lattice.dim))
        V[x, x] = ch + sh * np.cos(2.0 * phi)
        V[x + 1, x + 1] = ch - sh * np.cos(2.0 * phi)
        V[x, x + 1] = V[x + 1, x] = sh * np.sin(2.0 * phi)
        c, s = math.cos(2.0 * math.pi * lam), math.sin(2.0 * math.pi * lam)
        return GaussianState(lattice, V, c * mean_a + s * mean_b)

    return ParameterLoop(sampler=sampler, initial_samples=initial_samples)


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
    ky = np.asarray(ky, dtype=float)[..., None, None]
    onsite = np.sin(ky) * _SY + (mass + np.cos(ky)) * _SZ
    return onsite, np.broadcast_to((_SZ - 1j * _SX) / 2.0, onsite.shape)


def band_chern_number(mass: float = 1.0, grid: int = 32) -> int:
    """Lattice (plaquette-flux) Chern number of the lower Bloch band.

    Fukui-Hatsugai-Suzuki: the lower-band vectors of the whole grid come
    from one stacked ``eigh`` of the chain's Bloch Hamiltonians at
    kappa = -kx; U_x, U_y are the links to the next momentum along each
    axis, and the Berry fluxes Arg(U_x U_y(+x) U_x(+y)* U_y*) sum to 2 pi C.
    """
    ks = 2.0 * np.pi * np.arange(grid) / grid
    h = _bloch_hamiltonians(*chern_cell_blocks(ks, mass), -ks)  # (ky, kx, 2, 2)
    _, vecs = np.linalg.eigh(h.swapaxes(0, 1))
    u = vecs[..., 0]  # (kx, ky, component)
    ux, uy = (np.sum(u.conj() * np.roll(u, -1, axis=a), axis=-1) for a in (0, 1))
    plaquette = ux * np.roll(uy, -1, axis=0) * np.roll(ux, -1, axis=1).conj() * uy.conj()
    c = float(np.sum(np.angle(plaquette))) / (2.0 * math.pi)
    rounded = round(c)
    if abs(c - rounded) > 1e-6:
        raise ValueError(f"plaquette Chern sum {c:.6f} did not converge to an integer")
    return int(rounded)


def chain_hopping_at_ky(ky: float, lattice: LatticeSpec, mass: float = 1.0) -> np.ndarray:
    """1D hopping matrix of the two-band model at fixed transverse momentum."""
    if lattice.sites_per_cell != 2:
        raise ValueError("the two-band chain needs two sites per cell")
    return _ring_hamiltonian(*chern_cell_blocks(ky, mass), lattice.cells)


def thermal_chern_family(
    lattice: LatticeSpec,
    mass: float = 1.0,
    beta: float = 1.0,
    mu: float = -6.0,
) -> Callable[[float], GaussianState]:
    """k_y -> thermal 1D Gaussian state of the two-band chain (periodic in k_y)."""

    def family(ky: float) -> GaussianState:
        return thermal_state(chain_hopping_at_ky(ky, lattice, mass), beta, mu, lattice)

    return family
