"""Bosonic Rice-Mele model: Bloch data, Zak phase, pump dynamics and flux.

The model has two sites per unit cell with on-site energies +/- Delta and
alternating hoppings w1 (intra-cell) and w2 (inter-cell). In momentum space
the single-particle Hamiltonian is h_k = Q_k . sigma with

    Q_k = (w1 + w2 cos(2 pi k / L), w2 sin(2 pi k / L), Delta).

A translation-invariant coherent state populates only the k = 0 mode, so the
pump dynamics reduces to a driven two-level problem for the per-cell
amplitudes (alpha, beta). The integrated particle flux over one cycle is
geometric but not quantized; for the reference protocol

    w1 = A cos^2(pi t / T),  w2 = A sin^2(pi t / T),  Delta = A sin(2 pi t / T)

its adiabatic value is (1/2) Int_0^pi cos^2 t / (1 + sin^2 t)^{3/2} dt
= Gamma(3/4)^2 / sqrt(2 pi) ~= 0.59907.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad, simpson

from .errors import GapClosureError, NormDriftError, NumericalError
from .states import GaussianState, LatticeSpec, thermal_state
from .winding import _integer_winding

NORM_DRIFT_TOL = 1e-8
DEFAULT_PUMP_STEPS = 10_000


@dataclass(frozen=True)
class RiceMeleParams:
    """Hopping amplitudes w1, w2 and staggering Delta (energy units)."""

    w1: float
    w2: float
    delta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.w1, self.w2, self.delta))):
            raise ValueError("Rice-Mele parameters must be finite")


def reference_shape(phase: float) -> tuple[float, float, float]:
    """Reference pump shape at cycle fraction ``phase`` in units of the amplitude."""
    return (
        math.cos(math.pi * phase) ** 2,
        math.sin(math.pi * phase) ** 2,
        math.sin(2.0 * math.pi * phase),
    )


@dataclass(frozen=True)
class PumpProtocol:
    """Periodic drive t -> (w1, w2, Delta) with amplitude A and period T.

    ``shape`` maps the cycle fraction t/T to the three parameters in units
    of A; the default is the reference pump encircling (Delta = 0, w1 = w2).
    """

    amplitude: float
    period: float
    shape: Callable[[float], tuple[float, float, float]] = reference_shape

    def __post_init__(self):
        if self.amplitude <= 0 or self.period <= 0:
            raise ValueError("amplitude and period must be positive")
        start, end = self.shape(0.0), self.shape(1.0)
        if max(abs(a - b) for a, b in zip(start, end)) > 1e-9:
            raise ValueError("protocol is not periodic: shape(0) != shape(1)")

    def params_at(self, t: float) -> RiceMeleParams:
        w1, w2, dlt = self.shape(t / self.period)
        A = self.amplitude
        return RiceMeleParams(A * w1, A * w2, A * dlt)

    @property
    def is_reference(self) -> bool:
        probes = (0.0, 0.13, 0.37, 0.52, 0.81)
        return all(
            max(abs(a - b) for a, b in zip(self.shape(x), reference_shape(x))) < 1e-9
            for x in probes
        )


@dataclass(frozen=True)
class PumpTrajectory:
    """k = 0 coherent amplitudes along one pump cycle.

    ``alpha``/``beta`` are the per-cell amplitudes on the two sublattices;
    ``energies`` holds the instantaneous gap scale eps_0(t) = |Q_0(t)|.
    """

    times: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    energies: np.ndarray

    @property
    def norm(self) -> np.ndarray:
        return np.abs(self.alpha) ** 2 + np.abs(self.beta) ** 2


def bloch_vector(params: RiceMeleParams, k: int, L: int) -> np.ndarray:
    """Effective magnetic field Q_k of the two-band Bloch Hamiltonian."""
    kappa = 2.0 * math.pi * k / L
    return np.array(
        [
            params.w1 + params.w2 * math.cos(kappa),
            params.w2 * math.sin(kappa),
            params.delta,
        ]
    )


def band_energies(params: RiceMeleParams, k: int, L: int) -> tuple[float, float]:
    """(eps_-, eps_+) = -/+ |Q_k|."""
    eps = float(np.linalg.norm(bloch_vector(params, k, L)))
    return -eps, eps


def _bloch_hamiltonians(params: RiceMeleParams, kappas: np.ndarray) -> np.ndarray:
    """Stack of 2x2 Bloch Hamiltonians Q(kappa) . sigma at momenta ``kappas``."""
    qx = params.w1 + params.w2 * np.cos(kappas)
    qy = params.w2 * np.sin(kappas)
    qz = np.full_like(kappas, params.delta)
    h = np.empty((len(kappas), 2, 2), dtype=complex)
    h[:, 0, 0] = qz
    h[:, 1, 1] = -qz
    h[:, 0, 1] = qx - 1j * qy
    h[:, 1, 0] = qx + 1j * qy
    return h


def zak_phase(params: RiceMeleParams, band: str = "lower", samples: int = 64) -> float:
    """Discrete Wilson-loop Zak phase of one band over the Brillouin zone.

    phi = -Im ln prod_j <u(k_j)|u(k_{j+1})> with k_j increasing across the
    zone and the loop closed periodically; gauge-invariant by construction.
    """
    if samples < 16:
        raise ValueError("need at least 16 momentum samples")
    if band not in ("lower", "upper"):
        raise ValueError("band must be 'lower' or 'upper'")
    kappas = 2.0 * np.pi * np.arange(samples) / samples
    h = _bloch_hamiltonians(params, kappas)
    vals, vecs = np.linalg.eigh(h)
    if np.abs(vals).min() < 1e-12:
        raise GapClosureError("gap closure: |Q_k| < 1e-12 at a sampled momentum")
    u = vecs[:, :, 0] if band == "lower" else vecs[:, :, 1]
    overlaps = np.sum(u.conj() * np.roll(u, -1, axis=0), axis=1)
    return float(-np.angle(np.prod(overlaps)))


def zak_winding(protocol: PumpProtocol, steps: int = 256, samples: int = 64) -> int:
    """Integer winding of the Zak phase over one pump period."""
    phis = np.array(
        [
            zak_phase(protocol.params_at(i * protocol.period / steps), samples=samples)
            for i in range(steps + 1)
        ]
    )
    return _integer_winding(float(np.unwrap(phis)[-1] - phis[0]), "Zak winding")


def _k0_matrix(params: RiceMeleParams) -> tuple[float, float]:
    """(off-diagonal, diagonal) entries of h_0 = Q_0 . sigma."""
    return params.w1 + params.w2, params.delta


def lower_eigenvector_k0(params: RiceMeleParams) -> tuple[complex, complex]:
    """Lower-band eigenvector of h_0, normalized to unit cell occupancy."""
    w, d = _k0_matrix(params)
    h = np.array([[d, w], [w, -d]])
    _, vecs = np.linalg.eigh(h)
    return complex(vecs[0, 0]), complex(vecs[1, 0])


def evolve_pump(
    protocol: PumpProtocol,
    initial: tuple[complex, complex] | None = None,
    steps: int = DEFAULT_PUMP_STEPS,
) -> PumpTrajectory:
    """Integrate i d/dt (alpha, beta) = h_0(t) (alpha, beta) over one period.

    Fixed-step classical Runge-Kutta; raises :class:`NormDriftError` when the
    conserved norm |alpha|^2 + |beta|^2 drifts by more than 1e-8 over the
    cycle, which signals an insufficient step count.
    """
    if steps < 100:
        raise ValueError("need at least 100 steps per period")
    T, h = protocol.period, protocol.period / steps
    if initial is None:
        a, b = lower_eigenvector_k0(protocol.params_at(0.0))
    else:
        a, b = complex(initial[0]), complex(initial[1])
        if not (cmath.isfinite(a) and cmath.isfinite(b)):
            raise ValueError("initial amplitudes must be finite")

    # Pre-evaluate the drive on the half-step grid: index 2*i is t_i.
    grid = np.arange(2 * steps + 1) * (0.5 * h)
    wd = [(p.w1 + p.w2, p.delta) for p in (protocol.params_at(t) for t in grid)]

    alphas = np.empty(steps + 1, dtype=complex)
    betas = np.empty(steps + 1, dtype=complex)
    alphas[0], betas[0] = a, b

    for i in range(steps):
        w0, d0 = wd[2 * i]
        w1, d1 = wd[2 * i + 1]
        w2, d2 = wd[2 * i + 2]
        k1a = -1j * (d0 * a + w0 * b)
        k1b = -1j * (w0 * a - d0 * b)
        xa, xb = a + 0.5 * h * k1a, b + 0.5 * h * k1b
        k2a = -1j * (d1 * xa + w1 * xb)
        k2b = -1j * (w1 * xa - d1 * xb)
        xa, xb = a + 0.5 * h * k2a, b + 0.5 * h * k2b
        k3a = -1j * (d1 * xa + w1 * xb)
        k3b = -1j * (w1 * xa - d1 * xb)
        xa, xb = a + h * k3a, b + h * k3b
        k4a = -1j * (d2 * xa + w2 * xb)
        k4b = -1j * (w2 * xa - d2 * xb)
        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        b = b + (h / 6.0) * (k1b + 2.0 * k2b + 2.0 * k3b + k4b)
        alphas[i + 1], betas[i + 1] = a, b

    times = np.arange(steps + 1) * h
    energies = np.hypot([w for w, _ in wd[::2]], [d for _, d in wd[::2]])
    traj = PumpTrajectory(times=times, alpha=alphas, beta=betas, energies=energies)
    drift = float(np.abs(traj.norm - traj.norm[0]).max())
    if drift > NORM_DRIFT_TOL * traj.norm[0]:
        raise NormDriftError(
            f"norm drift {drift:.3e} over one period exceeds {NORM_DRIFT_TOL}; "
            f"increase steps (got {steps})"
        )
    return traj


def integrated_flux(trajectory: PumpTrajectory, protocol: PumpProtocol) -> float:
    """Phi = Int_0^T w2(t) i (alpha beta* - alpha* beta) dt on the trajectory grid.

    By translation invariance the flux through every cell boundary is the
    same; the value is linear in the per-cell occupancy of the initial state.
    """
    w2 = np.array([protocol.params_at(t).w2 for t in trajectory.times])
    cross = 1j * (trajectory.alpha * trajectory.beta.conj()
                  - trajectory.alpha.conj() * trajectory.beta)
    return float(simpson(w2 * cross.real, x=trajectory.times))


def adiabatic_flux(protocol: PumpProtocol) -> float:
    """Adiabatic-limit flux of the reference protocol by adaptive quadrature."""
    if not protocol.is_reference:
        raise ValueError("adiabatic_flux is defined for the reference protocol shape")
    val, err = quad(
        lambda t: 0.5 * math.cos(t) ** 2 / (1.0 + math.sin(t) ** 2) ** 1.5,
        0.0,
        math.pi,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    if err > 1e-10:
        raise NumericalError(f"quadrature error estimate {err:.3e} too large")
    return float(val)


def rmm_hopping_matrix(params: RiceMeleParams, lattice: LatticeSpec) -> np.ndarray:
    """Real-space Rice-Mele hopping matrix with periodic boundary conditions.

    Basis ordering matches the lattice (cell-major, site-next); eigenvalues
    come in +/- eps_k pairs matching :func:`band_energies`.
    """
    if lattice.sites_per_cell != 2:
        raise ValueError("Rice-Mele model needs two sites per cell")
    L = lattice.cells
    h = np.zeros((2 * L, 2 * L))
    for r in range(L):
        a, b = 2 * r, 2 * r + 1
        a_next = 2 * ((r + 1) % L)
        h[a, a] += params.delta
        h[b, b] += -params.delta
        h[a, b] += -params.w1
        h[b, a] += -params.w1
        h[a_next, b] += -params.w2
        h[b, a_next] += -params.w2
    return h


def rmm_thermal_state(
    params: RiceMeleParams,
    lattice: LatticeSpec,
    beta: float,
    mu: float,
) -> GaussianState:
    """Grand-canonical thermal state of the Rice-Mele chain."""
    return thermal_state(rmm_hopping_matrix(params, lattice), beta, mu, lattice)
