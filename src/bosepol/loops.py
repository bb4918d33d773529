"""Named closed loops and families of Gaussian states for winding experiments.

Built-ins exposed to the CLI:

* ``rmm-thermal``    thermal Rice-Mele states driven around the reference pump;
* ``rmm-coherent``   the translation-invariant coherent state in the pump's Floquet mode;
* ``random-classical`` seeded circulant interpolations with min eig(V) >= 1;
* ``random-squeezed``  seeded nonclassical loops with a rotating squeezing axis.

The first three, and the thermal k_y family of the two-band chain used for
the Chern-number null test, are translation invariant: their samplers
return stacked Bloch blocks (len(lams), L, 2n, 2n) and cell means
(len(lams), 2n), which :func:`bosepol.winding.track_polarization` evaluates
in O(L n^3) per sample. ``random-squeezed`` squeezes every mode
differently, so it samples dense covariances (len(lams), 2nL, 2nL).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .circulant import random_bloch_blocks
from .rice_mele import PumpProtocol, _bloch_hamiltonians, _zak_phases, evolve_pump, rmm_cell_blocks
from .states import LatticeSpec, thermal_bloch_blocks
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
    """Thermal Rice-Mele states around one pump cycle, as Bloch blocks.

    The chemical potential defaults to -3A, safely below the band minimum
    -sqrt(2) A reached along the reference protocol, so the Bose occupations
    stay finite on the whole loop. Each sampler call builds the blocks of
    its lambdas in one stack, from one stacked ``eigh`` of their Bloch
    Hamiltonians.
    """
    protocol = protocol or reference_protocol()
    if mu is None:
        mu = -3.0 * protocol.amplitude
    if lattice.sites_per_cell != 2:
        raise ValueError("Rice-Mele model needs two sites per cell")

    def sampler(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = _bloch_hamiltonians(*rmm_cell_blocks(protocol.drive(lams * protocol.period)),
                                lattice.cells)
        return thermal_bloch_blocks(h, beta, mu), np.zeros((len(lams), 4))

    return ParameterLoop(lattice, sampler, initial_samples)


def rmm_coherent_loop(
    lattice: LatticeSpec,
    protocol: PumpProtocol | None = None,
    initial_samples: int = 16,
) -> ParameterLoop:
    """Coherent state in the Floquet mode of the pump: identity Bloch blocks and the
    cell mean of the evolved amplitudes.

    The trajectory is integrated once from the lower band vector v0 = (a, b),
    on the first initial_samples * 2^j steps that reach 2^14 (2^14 itself for
    a power-of-two sample count). Loop samples pick the nearest step, which is
    exact for the grid k / initial_samples and for its first j levels of
    bisection. The propagator U(t) is SU(2), so the trajectory U v0 = (alpha, beta)
    also gives U v0_perp = (-beta*, alpha*) for v0_perp = (-b*, a*). The loop
    starts in the eigenvector of the one-period U(T) with the larger weight on
    v0, phased so that its overlap with v0 is positive, and its eigenvalue w is
    removed along the cycle as w^{-lambda}, so the amplitudes return to their
    start at lambda = 1. All of w goes, not only its phase: |w| - 1 is the
    pump's rounding drift, about 1e-12.
    """
    protocol = protocol or reference_protocol()
    if lattice.sites_per_cell != 2:
        raise ValueError("Rice-Mele loops need two sites per cell")
    check_initial_samples(initial_samples)  # before the trajectory is sized from it
    steps = initial_samples
    while steps < 2 ** 14:
        steps *= 2
    traj = evolve_pump(protocol, steps=steps)
    # U(T) in the basis (v0, v0_perp) is [[p, -s*], [s, p*]], p = <v0|U v0>, s = <v0_perp|U v0>.
    (a, b), (end_a, end_b) = (traj.alpha[0], traj.beta[0]), (traj.alpha[-1], traj.beta[-1])
    p, s = a.conjugate() * end_a + b.conjugate() * end_b, a * end_b - b * end_a
    eigvals, eigvecs = np.linalg.eig(np.array([[p, -s.conjugate()], [s, p.conjugate()]]))
    mode = int(np.argmax(np.abs(eigvecs[0])))
    c0, c1 = eigvecs[:, mode] * (abs(eigvecs[0, mode]) / eigvecs[0, mode])  # <v0|mode> > 0
    log_w = complex(np.log(eigvals[mode]))
    eye = np.eye(4)

    def sampler(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # np.rint rounds half to even, as round() does.
        i = np.rint(lams * steps).astype(int)
        alpha, beta = traj.alpha[i], traj.beta[i]
        amps = np.stack([c0 * alpha - c1 * beta.conj(), c0 * beta + c1 * alpha.conj()], axis=-1)
        amps *= np.exp(-log_w * i / steps)[:, None]
        mean = np.empty((len(lams), 4))
        mean[:, 0::2] = 2.0 * amps.real
        mean[:, 1::2] = 2.0 * amps.imag
        return np.broadcast_to(eye, (len(lams), lattice.cells, 4, 4)), mean

    return ParameterLoop(lattice, sampler, initial_samples)


def random_classical_loop(
    lattice: LatticeSpec,
    seed: int,
    mean_scale: float = 0.5,
    initial_samples: int = 16,
) -> ParameterLoop:
    """Smooth closed loop of classical circulant states with a driven mean, as Bloch blocks.

    v_k(lambda) = vbar_k + cos(2 pi lambda) x_k + sin(2 pi lambda) y_k with
    ||x_k||, ||y_k|| <= 0.25 and min eig(vbar_k) >= 1.6, so the state stays
    classical on the whole loop. vbar, x and y are drawn in this order from
    one generator by one call of :func:`random_bloch_blocks`, with eigenvalues
    in [1.6, 3.5), [-0.25, 0.25) and [-0.25, 0.25); the three cell means of
    m0 + cos(2 pi lambda) ma + sin(2 pi lambda) mb follow.
    """
    rng = np.random.default_rng(seed)
    vbar, x, y = random_bloch_blocks(lattice, rng, (1.6, -0.25, -0.25), (3.5, 0.25, 0.25))
    m0, ma, mb = mean_scale * rng.normal(size=(3, 2 * lattice.sites_per_cell))

    def sampler(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        c, s = np.cos(2.0 * np.pi * lams)[:, None], np.sin(2.0 * np.pi * lams)[:, None]
        v = vbar + c[..., None, None] * x + s[..., None, None] * y
        return v, m0 + c * ma + s * mb

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
    each from ``grid`` chain momenta (closed-form band vectors, no eigensolver),
    winds by -C: the chain momentum is kappa = -kx. Raises
    :class:`GapClosureError` where the gap closes on the grid.
    """
    kys = 2.0 * np.pi * np.arange(grid + 1) / grid
    phis = _zak_phases(*chern_cell_blocks(kys, mass), samples=grid)
    return -_integer_winding(float(_unwrap(0.0, phis)[-1]), "band Chern number")


def thermal_chern_family(
    lattice: LatticeSpec,
    mass: float = 1.0,
    beta: float = 1.0,
    mu: float = -6.0,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """``family(kys) -> (v, cell_mean)``: thermal 1D Gaussian states of the two-band
    chain at transverse momenta ``kys`` (periodic in k_y), built in one stack as
    Bloch blocks (len(kys), L, 4, 4) and zero cell means (len(kys), 4)."""
    if lattice.sites_per_cell != 2:
        raise ValueError("the two-band chain needs two sites per cell")

    def family(kys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        h = _bloch_hamiltonians(*chern_cell_blocks(kys, mass), lattice.cells)
        return thermal_bloch_blocks(h, beta, mu), np.zeros((len(kys), 4))

    return family
