"""Momentum-shift expectation value and many-body polarization (dense path).

For a Gaussian state with covariance V and mean alpha0, the expectation of
the momentum-shift unitary is evaluated in closed form:

    <T> = 2^{nL} [det(V + 1) det(1 - W)]^{-1/2} exp(-1/2 alpha0^T M^{-1} alpha0)

with W = (V - 1)(V + 1)^{-1} U and M = V - 1 + 2 (1 - U)^{-1}, where U is
diagonal with a complex 2x2 block exp(i theta_{r,s}) * 1_2 per mode. The
square root takes the branch continued from the identity operator along
theta -> lam * theta (<T> = 1 at lam = 0). That branch is fixed exactly by
the spectrum of W: ||W(lam)|| <= ||(V - 1)(V + 1)^{-1}|| < 1 for every
positive-definite V, so every eigenvalue mu_j(lam) stays inside the unit
disk, each factor 1 - mu_j(lam) stays in the open right half-plane
Re(1 - mu_j) > 0, and its principal argument never jumps. Hence

    arg det(1 - W) = sum_j Arg(1 - mu_j),   log|det(1 - W)| = sum_j log|1 - mu_j|

from one eigenvalue decomposition of W, with no path to sample.

The polarization is P = Im log <T> / (2 pi) on that branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalError
from .states import GaussianState, LatticeSpec

MEAN_SOLVE_RTOL = 1e-8


@dataclass(frozen=True)
class ShiftSpec:
    """Per-mode phases theta_{r,s} of the momentum-shift operator."""

    lattice: LatticeSpec
    phases: np.ndarray

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=float).reshape(-1)
        if phases.shape != (self.lattice.modes,):
            raise ValueError(
                f"need {self.lattice.modes} phases, got {phases.shape}"
            )
        residue = np.abs(np.exp(1j * phases) - 1.0)
        if np.any(residue < 1e-12):
            raise ValueError("shift phase congruent to 0 mod 2pi: gauge origin on a site")
        phases = phases.copy()
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)


def shift_phases(lattice: LatticeSpec) -> ShiftSpec:
    """Phases theta_{r,s} = 2 pi x_{r,s} / L, all strictly inside (0, 2 pi)."""
    theta = 2.0 * np.pi * lattice.site_positions() / lattice.cells
    return ShiftSpec(lattice, theta)


@dataclass(frozen=True)
class PolarizationBreakdown:
    """Decomposition of <T> into magnitude, determinant phase and mean term.

    ``det_term_phase`` is -1/2 Im ln det(1 - W) on the homotopy branch,
    ``mean_term`` is s = -1/2 alpha0^T M^{-1} alpha0, and
    ``p_unwrapped = (det_term_phase + Im s) / (2 pi)``; ``p`` is the same
    value reduced to (-1/2, 1/2].

    Diagnostics: ``cayley_norm`` is ||W|| = max_j |(v_j - 1)/(v_j + 1)| over
    the eigenvalues v_j of V; ``branch_turns`` is the integer k with
    Im ln det(1 - W) = principal phase + 2 pi k; ``min_abs_one_minus_mu`` is
    min_j |1 - mu_j| over the eigenvalues of W, the distance of the
    determinant's closest factor from zero.
    """

    abs_T: float
    log_abs_T: float
    det_term_phase: float
    mean_term: complex
    p_unwrapped: float
    p: float
    w_matrix: np.ndarray
    m_matrix: np.ndarray
    cayley_norm: float
    branch_turns: int
    min_abs_one_minus_mu: float

    @property
    def expectation(self) -> complex:
        return self.abs_T * np.exp(1j * (self.det_term_phase + self.mean_term.imag))


def principal_polarization(p_unwrapped: float) -> float:
    """Reduce a polarization value to the fundamental window (-1/2, 1/2]."""
    r = (p_unwrapped + 0.5) % 1.0 - 0.5
    if r == -0.5:
        r = 0.5
    return r


def cayley_spectrum(state: GaussianState):
    """Eigen-decompose V and return (eigenvalues, G) with G = (V-1)(V+1)^{-1}.

    Raises :class:`InvalidStateError` when V is not positive definite; the
    Cayley transform of a positive-definite V always has spectral norm < 1,
    which is asserted before any determinant evaluation downstream.
    """
    vals, Q = np.linalg.eigh(state.V)
    if vals[0] <= 0.0:
        raise InvalidStateError(
            f"invalid state: min covariance eigenvalue {vals[0]:.6g} <= 0"
        )
    cayley = (vals - 1.0) / (vals + 1.0)
    if np.abs(cayley).max() >= 1.0:
        raise InvalidStateError("Cayley transform reached unit norm; state invalid")
    G = (Q * cayley) @ Q.T
    return vals, (G + G.T) / 2.0


def quadrature_phase_factors(shift: ShiftSpec) -> np.ndarray:
    """Diagonal of U (length 2nL): exp(i theta_j), one entry per quadrature."""
    return np.repeat(np.exp(1j * shift.phases), 2)


def branch_phase_eigenvalues(W: np.ndarray) -> tuple[float, float, float]:
    """Branch phase and log-magnitude of det(1 - W) from the eigenvalues mu_j of W.

    Returns (sum_j Arg(1 - mu_j), sum_j log|1 - mu_j|, min_j |1 - mu_j|).
    Every mu_j lies inside the unit disk because ||W|| < 1, so each factor
    1 - mu_j has a positive real part along the whole homotopy from W = 0,
    and the sum of principal arguments is the continuously tracked phase.
    """
    one_minus_mu = 1.0 - np.linalg.eigvals(W)
    abs_factors = np.abs(one_minus_mu)
    min_abs = float(abs_factors.min())
    if min_abs == 0.0:
        raise NumericalError("det(1 - W) has a zero factor")
    return (
        float(np.sum(np.angle(one_minus_mu))),
        float(np.sum(np.log(abs_factors))),
        min_abs,
    )


def mean_matrix(state: GaussianState, shift: ShiftSpec) -> np.ndarray:
    """M = V - 1 + 2 (1 - U)^{-1}; complex symmetric with hermitian part V."""
    u = quadrature_phase_factors(shift)
    M = state.V.astype(complex)
    idx = np.arange(state.lattice.dim)
    M[idx, idx] += -1.0 + 2.0 / (1.0 - u)
    return M


def _mean_term_from_matrix(M: np.ndarray, alpha0: np.ndarray) -> complex:
    if not np.any(alpha0):
        return 0.0 + 0.0j
    y = np.linalg.solve(M, alpha0.astype(complex))
    residual = np.linalg.norm(M @ y - alpha0) / np.linalg.norm(alpha0)
    if residual > MEAN_SOLVE_RTOL:
        raise NumericalError(
            f"mean-term linear solve residual {residual:.3e} exceeds {MEAN_SOLVE_RTOL}"
        )
    return complex(-0.5 * (alpha0 @ y))


def mean_term(state: GaussianState, shift: ShiftSpec | None = None) -> complex:
    """s = -1/2 alpha0^T M^{-1} alpha0; Re(s) <= 0 since herm(M) = V > 0."""
    if shift is None:
        shift = shift_phases(state.lattice)
    return _mean_term_from_matrix(mean_matrix(state, shift), state.mean)


def polarization(
    state: GaussianState, shift: ShiftSpec | None = None
) -> PolarizationBreakdown:
    """Full polarization breakdown of a Gaussian state on the homotopy branch."""
    if shift is None:
        shift = shift_phases(state.lattice)
    if shift.lattice.modes != state.lattice.modes:
        raise ValueError("shift spec and state have different mode counts")
    vals, G = cayley_spectrum(state)
    logdet_vp1 = float(np.sum(np.log1p(vals)))
    W = G * quadrature_phase_factors(shift)
    phi_f, logabs_f, min_abs = branch_phase_eigenvalues(W)
    M = mean_matrix(state, shift)
    s = _mean_term_from_matrix(M, state.mean)
    nl = state.lattice.modes
    log_abs = nl * math.log(2.0) - 0.5 * logdet_vp1 - 0.5 * logabs_f + s.real
    det_term_phase = -0.5 * phi_f
    p_unwrapped = (det_term_phase + s.imag) / (2.0 * math.pi)
    return PolarizationBreakdown(
        abs_T=math.exp(log_abs),
        log_abs_T=log_abs,
        det_term_phase=det_term_phase,
        mean_term=s,
        p_unwrapped=p_unwrapped,
        p=principal_polarization(p_unwrapped),
        w_matrix=W,
        m_matrix=M,
        cayley_norm=float(np.abs((vals - 1.0) / (vals + 1.0)).max()),
        branch_turns=round(phi_f / (2.0 * math.pi)),
        min_abs_one_minus_mu=min_abs,
    )


def expectation_T(state: GaussianState, shift: ShiftSpec | None = None) -> complex:
    """<T> for an arbitrary valid Gaussian state (dense closed form)."""
    return complex(polarization(state, shift).expectation)
