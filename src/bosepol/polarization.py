"""Momentum-shift expectation value and many-body polarization (dense path).

For a Gaussian state with covariance V and mean alpha0, the expectation of
the momentum-shift unitary is evaluated in closed form:

    <T> = 2^{nL} [det(V + 1) det(1 - W)]^{-1/2} exp(-1/2 alpha0^T M^{-1} alpha0)

with W = (V - 1)(V + 1)^{-1} U and M = V - 1 + 2 (1 - U)^{-1}, where U is
diagonal with a complex 2x2 block exp(i theta_{r,s}) * 1_2 per mode. The
square root takes the branch continued from the identity operator along
theta -> lam * theta (<T> = 1 at lam = 0).

Since 2 (1 - u)^{-1} - 1 = i cot(theta / 2), the mean matrix is M = V + iK
with the real K = diag(k_j), k_j = cot(theta_j / 2), and 1 - U = 2 (1 + iK)^{-1}.
As V +- 1 commute, 1 - W = (V + 1)^{-1} M (1 - U), and det(V + 1) cancels:

    <T> = [det V det(1 + iH) / det(1 + iK)]^{-1/2} exp(s),

where V = Q Lambda Q^T, H = Lambda^{-1/2} Q^T K Q Lambda^{-1/2} = P diag(h) P^T
is real symmetric, b = P^T Lambda^{-1/2} Q^T alpha0 and s = -1/2 sum_j
b_j^2 / (1 + i h_j). Every factor 1 + i h_j and 1 + i k_j has real part 1
for every lam, so its principal argument arctan never jumps, which is the
no-winding theorem restated. The two sums tend to +-pi/2 per entry as
lam -> 0+ and cancel there, so

    Im ln det(1 - W) = sum_j arctan h_j - sum_j arctan k_j

is the homotopy branch, from two real symmetric eigendecompositions and no
path to sample.

The polarization is P = Im log <T> / (2 pi) on that branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalError
from .states import GaussianState, LatticeSpec, check_min_eigenvalue

MEAN_SOLVE_RTOL = 1e-8
# Rounding margin of the post-condition log|<T>| <= 0: T is unitary, so
# |<T>| <= 1 in every physical state (V + i Omega >= 0).
LOG_ABS_T_MARGIN = 1e-9


def _check_abs_T(log_abs_T: float, where: str = "") -> None:
    """Raise :class:`InvalidStateError` if |<T>| = exp(log_abs_T) exceeds 1."""
    if log_abs_T > LOG_ABS_T_MARGIN:
        raise InvalidStateError(
            f"unphysical state{where}: |<T>| = {math.exp(log_abs_T):.6g} > 1, "
            "so the covariance violates V + i Omega >= 0"
        )


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
    sum_j arctan k_j / 2 - sum_j arctan h_j / 2 in the V + iK form of the
    module docstring; ``mean_term`` is s = -1/2 alpha0^T M^{-1} alpha0, and
    ``p_unwrapped = (det_term_phase + Im s) / (2 pi)``; ``p`` is the same
    value reduced to (-1/2, 1/2]. The branch needs no rule of its own: each
    factor 1 + i h_j has real part 1, so its argument stays in (-pi/2, pi/2).

    Diagnostics: ``cayley_norm`` is ||W|| = max_j |(v_j - 1)/(v_j + 1)| over
    the eigenvalues v_j of V; ``branch_turns`` is the integer k with
    Im ln det(1 - W) = principal phase + 2 pi k; ``max_abs_h`` is max_j |h_j|,
    the largest eigenvalue magnitude of H = V^{-1/2} K V^{-1/2}, which grows
    as V nears singularity or a shift phase nears 0 mod 2 pi;
    ``min_covariance_eigenvalue`` is the smallest eigenvalue of V.
    """

    abs_T: float
    log_abs_T: float
    det_term_phase: float
    mean_term: complex
    p_unwrapped: float
    p: float
    cayley_norm: float
    branch_turns: int
    max_abs_h: float
    min_covariance_eigenvalue: float

    @property
    def expectation(self) -> complex:
        return self.abs_T * np.exp(1j * (self.det_term_phase + self.mean_term.imag))


def principal_polarization(p_unwrapped: float) -> float:
    """Reduce a polarization value to the fundamental window (-1/2, 1/2]."""
    r = (p_unwrapped + 0.5) % 1.0 - 0.5
    if r == -0.5:
        r = 0.5
    return r


def quadrature_phase_factors(shift: ShiftSpec) -> np.ndarray:
    """Diagonal of U (length 2nL): exp(i theta_j), one entry per quadrature."""
    return np.repeat(np.exp(1j * shift.phases), 2)


def quadrature_cotangents(shift: ShiftSpec) -> np.ndarray:
    """Diagonal of K (length 2nL): cot(theta_j / 2), one entry per quadrature."""
    return np.repeat(1.0 / np.tan(shift.phases / 2.0), 2)


def mean_matrix(state: GaussianState, shift: ShiftSpec) -> np.ndarray:
    """M = V - 1 + 2 (1 - U)^{-1} = V + iK; complex symmetric with hermitian part V."""
    return state.V + 1j * np.diag(quadrature_cotangents(shift))


def _mean_terms(M: np.ndarray, alpha0: np.ndarray) -> np.ndarray:
    """s = -1/2 alpha0^T M^{-1} alpha0 for each matrix of the stack M, 0 for a zero mean.

    One solve covers the nonzero means; each residual must stay within MEAN_SOLVE_RTOL.
    """
    s = np.zeros(len(M), dtype=complex)
    has_mean = np.any(alpha0, axis=1)
    if has_mean.any():
        M, b = M[has_mean], alpha0[has_mean, :, None]
        y = np.linalg.solve(M, b)
        residual = np.linalg.norm(M @ y - b, axis=(1, 2)) / np.linalg.norm(b, axis=(1, 2))
        bad = residual[residual > MEAN_SOLVE_RTOL]
        if bad.size:
            raise NumericalError(
                f"mean-term linear solve residual {bad[0]:.3e} exceeds {MEAN_SOLVE_RTOL}"
            )
        s[has_mean] = -0.5 * (b.transpose(0, 2, 1) @ y)[:, 0, 0]
    return s


def mean_term(state: GaussianState, shift: ShiftSpec | None = None) -> complex:
    """s = -1/2 alpha0^T M^{-1} alpha0; Re(s) <= 0 since herm(M) = V > 0."""
    return polarization(state, shift).mean_term


def polarization(
    state: GaussianState, shift: ShiftSpec | None = None
) -> PolarizationBreakdown:
    """Full polarization breakdown of a Gaussian state on the homotopy branch.

    Raises :class:`InvalidStateError` when V is not positive definite, or
    when |<T>| exceeds 1, which only a state violating V + i Omega >= 0 gives.
    """
    if shift is None:
        shift = shift_phases(state.lattice)
    if shift.lattice.modes != state.lattice.modes:
        raise ValueError("shift spec and state have different mode counts")
    vals, Q = np.linalg.eigh(state.V)
    check_min_eigenvalue(float(vals[0]))
    k = quadrature_cotangents(shift)
    A = Q / np.sqrt(vals)
    h, P = np.linalg.eigh(A.T @ (k[:, None] * A))
    b = P.T @ (A.T @ state.mean)
    s = complex(-0.5 * np.sum(b * b / (1.0 + 1j * h)))
    # Sorted k meets the ascending h term by term, so the vacuum (H = K)
    # gives a phase and a log-magnitude of exactly 0.
    k = np.sort(k)
    phi = float(np.sum(np.arctan(h)) - np.sum(np.arctan(k)))
    log_abs = float(
        0.25 * np.sum(np.log1p(k * k))
        - 0.25 * np.sum(np.log1p(h * h))
        - 0.5 * np.sum(np.log(vals))
    ) + s.real
    _check_abs_T(log_abs)
    det_term_phase = -0.5 * phi
    p_unwrapped = (det_term_phase + s.imag) / (2.0 * math.pi)
    return PolarizationBreakdown(
        abs_T=math.exp(log_abs),
        log_abs_T=log_abs,
        det_term_phase=det_term_phase,
        mean_term=s,
        p_unwrapped=p_unwrapped,
        p=principal_polarization(p_unwrapped),
        cayley_norm=float(np.abs((vals - 1.0) / (vals + 1.0)).max()),
        branch_turns=round(phi / (2.0 * math.pi)),
        max_abs_h=float(np.abs(h).max()),
        min_covariance_eigenvalue=float(vals[0]),
    )


def expectation_T(state: GaussianState, shift: ShiftSpec | None = None) -> complex:
    """<T> for an arbitrary valid Gaussian state (dense closed form)."""
    return complex(polarization(state, shift).expectation)
