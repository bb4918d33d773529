"""Momentum-shift expectation value and many-body polarization.

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

A translation-invariant state held as Bloch blocks v_k (a
:class:`~bosepol.states.BlochState`) under its lattice's own shift takes a
reduced path in O(L n^3) that forms no 2nL-dimensional matrix. The shift
moves momentum k to k + 1 and multiplies by the intra-cell phases D, so with
G_k = (v_k - 1)(v_k + 1)^{-1}, A_k = D G_k and P = A_{L-1} ... A_0,

    det(1 - W) = det(1_{2n} - P),    log det(V + 1) = sum_k log det(v_k + 1).

Both ||W|| and ||P|| are below 1, so the homotopy branch is the sum of
Arg(1 - w) over the eigenvalues w of W, and it equals sum_j Arg(1 - nu_j)
over the 2n eigenvalues nu_j of P: scaling G -> t G gives
det(1 - t W) = det(1 - t^L P), and both sums are continuous logarithms of
it that start from 0 at t = 0. A cell-periodic mean a gives
s = -(L/2) a^T (v_0 + 1)^{-1} y_0 with y_0 = (1 - P)^{-1} (a - R D a) and
R = A_{L-1} ... A_1. This path is written once for a stack of states: a
single state takes it with the diagnostics of one ``eigh`` of its blocks,
and the samples of a Bloch loop in :func:`bosepol.winding.track_polarization`
take it with a Cholesky factorization and an inverse of v_k + 1 instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalError
from .states import BlochState, GaussianState, LatticeSpec, check_min_eigenvalue

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
        if not np.isfinite(phases).all():
            raise ValueError("shift phases must be finite")
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
    Im ln det(1 - W) = principal phase + 2 pi k;
    ``min_covariance_eigenvalue`` is the smallest eigenvalue of V; ``path``
    names the evaluation, ``"dense"`` on the 2nL-dimensional V or
    ``"bloch"`` on the Bloch blocks of a translation-invariant state.
    """

    abs_T: float
    log_abs_T: float
    det_term_phase: float
    mean_term: complex
    p_unwrapped: float
    p: float
    cayley_norm: float
    branch_turns: int
    min_covariance_eigenvalue: float
    path: str

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


def _mean_terms(M: np.ndarray, b: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """s = -1/2 w^T M^{-1} b for each matrix of the stack M, with w = b unless given;
    0 where b = 0.

    One solve covers the nonzero b; each residual must stay within MEAN_SOLVE_RTOL.
    """
    s = np.zeros(len(M), dtype=complex)
    has_mean = np.any(b, axis=1)
    if has_mean.any():
        M, b = M[has_mean], b[has_mean, :, None]
        w = b if w is None else w[has_mean, :, None]
        y = np.linalg.solve(M, b)
        residual = np.linalg.norm(M @ y - b, axis=(1, 2)) / np.linalg.norm(b, axis=(1, 2))
        bad = residual[residual > MEAN_SOLVE_RTOL]
        if bad.size:
            raise NumericalError(
                f"mean-term linear solve residual {bad[0]:.3e} exceeds {MEAN_SOLVE_RTOL}"
            )
        s[has_mean] = -0.5 * (w.transpose(0, 2, 1) @ y)[:, 0, 0]
    return s


def ordered_product(mats: np.ndarray) -> np.ndarray:
    """m_{L-1} ... m_1 m_0 of a stack (L, ..., d, d), the identity for L = 0.

    Adjacent pairs are multiplied in one stacked matmul per level, so the
    product takes log2 L levels; axes between L and (d, d) are carried along.
    """
    if len(mats) == 0:
        return np.broadcast_to(np.eye(mats.shape[-1]), mats.shape[1:])
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        mats = np.concatenate((mats[1:even:2] @ mats[0:even:2], mats[even:]))
    return mats[0]


def _breakdown(log_abs: float, phi: float, s: complex, vals: np.ndarray, lo: float, path: str
               ) -> PolarizationBreakdown:
    """Breakdown from log|<T>|, phi = Im ln det(1 - W), s, and the eigenvalues of V
    and their minimum."""
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
        min_covariance_eigenvalue=lo,
        path=path,
    )


def _dense_loop_terms(V: np.ndarray, mean: np.ndarray, shift: ShiftSpec
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Principal phases of det(M), mean terms s and log|<T>| of S states with
    positive definite covariances V (S, 2nL, 2nL) and means (S, 2nL).

    det(1 - W) = det(M) det(1 - U) / det(V + 1) changes its phase only through
    M = V + iK under a fixed shift: one ``slogdet`` of the stacked M gives the
    phases and magnitudes, one residual-checked solve the mean terms.
    """
    k = quadrature_cotangents(shift)
    M = V + 1j * np.diag(k)
    sign, logabs = np.linalg.slogdet(M)
    s = _mean_terms(M, mean)
    return np.angle(sign), s, 0.25 * float(np.sum(np.log1p(k * k))) - 0.5 * logabs + s.real


def _reduced_path(G: np.ndarray, d: np.ndarray, a: np.ndarray, c: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """P and the mean terms s of the reduced path for S states, from their Cayley
    blocks G (L, S, 2n, 2n), the diagonal d of D, the cell means a (S, 2n) and
    c = (v_0 + 1)^{-1} a (S, 2n): one log-depth product and one residual-checked
    solve of the stacked 1 - P."""
    A = d[:, None] * G
    R = ordered_product(A[1:])
    P = R @ A[0]
    if not a.any():
        return P, np.zeros(len(P), dtype=complex)
    b = a - (R @ (d * a)[..., None])[..., 0]
    return P, _mean_terms(np.eye(len(d)) - P, b, len(G) * c)


def _reduced_branch(P: np.ndarray) -> np.ndarray:
    """log(1 - nu_j) over the eigenvalues nu_j of P: Im sums to the homotopy branch."""
    return np.log(1.0 - np.linalg.eigvals(P))


def _bloch_polarization(state: BlochState, shift: ShiftSpec) -> PolarizationBreakdown:
    """The reduced path of the module docstring: one stacked ``eigh`` of the
    2n x 2n blocks, which also gives the diagnostics, one ``eigvals`` of P and,
    with a mean, one 2n x 2n solve."""
    tn = 2 * state.lattice.sites_per_cell
    vals, Q = np.linalg.eigh(state.v_blocks)
    lo = float(vals.min())
    check_min_eigenvalue(lo)
    d = quadrature_phase_factors(shift)[:tn]
    G = (Q * ((vals - 1.0) / (vals + 1.0))[:, None, :]) @ Q.conj().swapaxes(-1, -2)
    a = state.cell_mean
    c = (Q[0] / (vals[0] + 1.0)) @ (Q[0].conj().T @ a) if a.any() else a  # (v_0 + 1)^{-1} a
    P, s = _reduced_path(G[:, None], d, a[None], c[None])
    log_det = _reduced_branch(P[0])
    s = complex(s[0])
    # nL ln 2 - 1/2 log det(V + 1), summed as -1/2 sum log((1 + v_j) / 2) over
    # all 2nL eigenvalues, so the vacuum gives exactly 0.
    log_abs = float(
        -0.5 * np.sum(np.log1p((vals - 1.0) / 2.0)) - 0.5 * np.sum(log_det.real)
    ) + s.real
    return _breakdown(log_abs, float(np.sum(log_det.imag)), s, vals, lo, "bloch")


def _bloch_loop_terms(v: np.ndarray, a: np.ndarray, shift: ShiftSpec
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Principal phases of det(1 - W), mean terms s, log|<T>| and products P of S
    translation-invariant states, from their positive definite Bloch blocks
    v (S, L, 2n, 2n) and cell means a (S, 2n), under the lattice's own shift.

    The reduced path without an eigendecomposition: the Cholesky diagonal of
    (v_k + 1) / 2 gives nL ln 2 - 1/2 log det(V + 1), one inverse
    G_k = 1 - 2 (v_k + 1)^{-1}, and one ``slogdet`` of the stacked 1 - P the
    phases and magnitudes. The vacuum gives exactly 0 for each.
    """
    eye = np.eye(v.shape[-1])
    w = v.swapaxes(0, 1) + eye  # momenta first, as the product takes them
    chol_diag = np.linalg.cholesky(w / 2.0).diagonal(axis1=-2, axis2=-1).real
    inv = np.linalg.inv(w)
    c = (inv[0] @ a[..., None])[..., 0]  # (v_0 + 1)^{-1} a
    P, s = _reduced_path(eye - 2.0 * inv, quadrature_phase_factors(shift)[:len(eye)], a, c)
    sign, log_abs_det = np.linalg.slogdet(eye - P)
    log_abs = -np.sum(np.log(chol_diag), axis=(0, 2)) - 0.5 * log_abs_det + s.real
    return np.angle(sign), s, log_abs, P


def polarization(
    state: GaussianState | BlochState, shift: ShiftSpec | None = None
) -> PolarizationBreakdown:
    """Full polarization breakdown of a Gaussian state on the homotopy branch.

    A :class:`BlochState` under its lattice's own shift takes the reduced
    path of the module docstring; every other state or shift the dense one.
    Raises :class:`InvalidStateError` when V is not positive definite, or
    when |<T>| exceeds 1, which only a state violating V + i Omega >= 0 gives.
    """
    bloch = isinstance(state, BlochState)
    if shift is None:
        shift = shift_phases(state.lattice)
    elif bloch:
        bloch = np.array_equal(shift.phases, shift_phases(state.lattice).phases)
    if shift.lattice.modes != state.lattice.modes:
        raise ValueError("shift spec and state have different mode counts")
    if bloch:
        return _bloch_polarization(state, shift)
    vals, Q = np.linalg.eigh(state.V)
    lo = float(vals[0])
    check_min_eigenvalue(lo)
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
    return _breakdown(log_abs, phi, s, vals, lo, "dense")

