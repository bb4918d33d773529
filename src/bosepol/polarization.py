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

where A is any whitening of V, A^T V A = 1, so det V = det(A)^{-2}, the
real symmetric H = A^T K A has eigenvalues h_j, and s = -1/2 c^T y with
c = A^T alpha0 and
y = (1 + iH)^{-1} c. As c^T Re y = ||y||^2, s = -1/2 ||y||^2 - i/2 c^T Im y
and Re s <= 0. Every singular value of 1 + iH is at least 1, since
|x^dagger (1 + iH) x| >= 1 for a unit x, so the solve needs no check. Every
factor 1 + i h_j and 1 + i k_j has real part 1 for every lam, so its
principal argument arctan never jumps, which is the no-winding theorem
restated. The two sums tend to +-pi/2 per entry as lam -> 0+ and cancel
there, so

    Im ln det(1 - W) = sum_j arctan h_j - sum_j arctan k_j

is the homotopy branch, with no path to sample: the eigenvalues alone of
H and, with a mean, one solve. A state owns its whitening and log det V
(:meth:`~bosepol.states.GaussianState.whitening`): a symplectic factor
V = S diag(d) S^T gives them with no factorization, and any other V one
``eigh``, V = Q Lambda Q^T and A = Q Lambda^{-1/2}, that a dense state
caches and shares with its ``spectrum``. A loop's stack takes one ``eigh``
of each V.

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
R = A_{L-1} ... A_1. Each path has one kernel, written once for a stack of
states: one state, or one sampler call of a loop in
:func:`bosepol.winding.track_polarization`. Positive definiteness has one
gate for one state: :func:`polarization` checks every state, whatever its
form and path, through :func:`bosepol.states.require_valid`, whose spectrum
the diagnostics read. The kernels check a loop's stack, the dense one from
the lowest eigenvalues of its ``eigh``, the reduced one by a stacked
Cholesky factorization of the blocks, and both name the first failing
lambda through :func:`bosepol.states.check_positive`. The dense
kernel gives every state's homotopy branch. The reduced one takes a Cholesky
factorization and an inverse of v_k + 1, one ``slogdet`` of 1 - P and, with
a mean, one residual-checked solve of the stacked 1 - P; it gives the
branch, from the eigenvalues of P, for the first state only, as a loop's
track unwraps from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NumericalError
from .states import BlochState, GaussianState, LatticeSpec, _whiten, check_positive, require_valid

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
        phases = np.array(self.phases, dtype=float).reshape(-1)  # a copy, frozen below
        if phases.shape != (self.lattice.modes,):
            raise ValueError(
                f"need {self.lattice.modes} phases, got {phases.shape}"
            )
        if not np.isfinite(phases).all():
            raise ValueError("shift phases must be finite")
        residue = np.abs(np.exp(1j * phases) - 1.0)
        if np.any(residue < 1e-12):
            raise ValueError("shift phase congruent to 0 mod 2pi: gauge origin on a site")
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

    ``abs_T`` may exceed 1 by rounding, as far as ``exp(LOG_ABS_T_MARGIN)``;
    a larger value raises :class:`InvalidStateError`.

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


def cayley_norm(vals: np.ndarray) -> float:
    """||W|| = max_j |v_j - 1| / (v_j + 1) over V's ascending eigenvalues v_j: the
    quotient falls on (0, 1] and rises past 1, so its maximum sits at one end."""
    lo, hi = float(vals[0]), float(vals[-1])
    return max(abs((lo - 1.0) / (lo + 1.0)), (hi - 1.0) / (hi + 1.0))


def _breakdown(log_abs: float, phi: float, s: complex, vals: np.ndarray, path: str
               ) -> PolarizationBreakdown:
    """Breakdown from log|<T>|, phi = Im ln det(1 - W), s, and the ascending
    eigenvalues of V."""
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
        cayley_norm=cayley_norm(vals),
        branch_turns=round(phi / (2.0 * math.pi)),
        min_covariance_eigenvalue=float(vals[0]),
        path=path,
    )


def _eigh_whitening(V: np.ndarray, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitenings A = Q Lambda^{-1/2} and log det V of a loop's stack of
    covariances V = Q Lambda Q^T (S, 2nL, 2nL), from one ``eigh`` whose lowest
    eigenvalues :func:`~bosepol.states.check_positive` checks first."""
    vals, Q = np.linalg.eigh(V)
    check_positive(vals[..., 0], lams)
    return _whiten(vals, Q)


def _dense_terms(A: np.ndarray, log_det_V: np.ndarray | float, mean: np.ndarray,
                 shift: ShiftSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Homotopy phases Im ln det(1 - W), mean terms s and log|<T>|, for
    covariances V given by whitenings A (..., 2nL, 2nL) with A^T V A = 1 and
    their log det V, and for means (..., 2nL).

    The closed form of the module docstring over the leading axes: the
    eigenvalues alone of H = A^T K A and, when any mean is nonzero, one solve
    of 1 + iH, which gives y = 0 where the mean is 0. Every whitening of V
    gives the same eigenvalues of H and the same s, so A may come from a
    state's ``whitening`` or, for a loop's stack, :func:`_eigh_whitening`.
    """
    k = quadrature_cotangents(shift)
    H = A.swapaxes(-1, -2) @ (k[:, None] * A)
    h = np.linalg.eigvalsh(H)
    s = np.zeros(h.shape[:-1], dtype=complex)
    if mean.any():
        c = mean[..., None, :] @ A  # the row c^T
        y = np.linalg.solve(np.eye(len(k)) + 1j * H, c.swapaxes(-1, -2))
        yt = y.swapaxes(-1, -2)
        s = -0.5 * (yt.real @ y.real + yt.imag @ y.imag + 1j * (c @ y.imag))[..., 0, 0]
    # Sorted k against the ascending h, one quotient (1 + i h_j) / (1 + i k_j) per
    # term: its argument arctan h_j - arctan k_j lies in (-pi, pi), so the sum is
    # the homotopy branch, and the vacuum (H = K) gives exactly 0.
    ks = np.sort(k)
    log_det = np.log1p(1j * (h - ks) / (1.0 + 1j * ks)).sum(-1)
    log_abs = -0.5 * (log_det.real + log_det_V) + s.real
    return log_det.imag, s, log_abs


def _reduced_product(v: np.ndarray, shift: ShiftSpec) -> tuple[np.ndarray, ...]:
    """w = v_k + 1 and its inverse, momenta first (L, S, 2n, 2n), the diagonal d
    of D and P = A_{L-1} ... A_0 and R = A_{L-1} ... A_1 (S, 2n, 2n), with
    A_k = D (1 - 2 w^{-1}), of Bloch blocks v (S, L, 2n, 2n) under ``shift``."""
    eye = np.eye(v.shape[-1])
    w = v.swapaxes(0, 1) + eye  # momenta first, as the product takes them
    inv = np.linalg.inv(w)
    d = quadrature_phase_factors(shift)[: len(eye)]
    A = d[:, None] * (eye - 2.0 * inv)
    R = ordered_product(A[1:])
    return w, inv, d, R @ A[0], R


def _bloch_terms(v: np.ndarray, a: np.ndarray, shift: ShiftSpec, lams: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phases of det(1 - W), mean terms s and log|<T>| of S translation-invariant
    states, from their Bloch blocks v (S, L, 2n, 2n) and cell means a (S, 2n),
    under the lattice's own shift.

    The reduced path of the module docstring: the Cholesky diagonal of
    (v_k + 1) / 2 gives nL ln 2 - 1/2 log det(V + 1), one inverse
    G_k = 1 - 2 (v_k + 1)^{-1}, and one ``slogdet`` of the stacked 1 - P the
    principal phases and the magnitudes; the vacuum gives exactly 0 for each.
    The first state's phase is the homotopy branch sum_j Arg(1 - nu_j), from one
    ``eigvals`` of its P. With any mean nonzero, one solve of the stacked
    1 - P gives every y_0, 0 for a zero mean; a residual above
    MEAN_SOLVE_RTOL ||a - R D a|| raises :class:`NumericalError`. Given a
    loop's ``lams``, one stacked Cholesky factorization first checks the
    blocks positive definite; if it fails, the blocks' lowest eigenvalues go
    to :func:`~bosepol.states.check_positive`, which names the first failing
    lambda. Without ``lams`` the caller has checked the blocks, as
    :func:`polarization` does through :func:`~bosepol.states.require_valid`.
    """
    if lams is not None:
        try:
            np.linalg.cholesky(v)
        except np.linalg.LinAlgError:
            check_positive(np.linalg.eigvalsh(v).min(axis=(1, 2)), lams)
    w, inv, d, P, R = _reduced_product(v, shift)
    chol_diag = np.linalg.cholesky(w / 2.0).diagonal(axis1=-2, axis2=-1).real
    M = np.eye(v.shape[-1]) - P
    sign, log_abs_det = np.linalg.slogdet(M)
    phases = np.angle(sign)
    phases[0] = np.angle(1.0 - np.linalg.eigvals(P[0])).sum()
    s = np.zeros(len(P), dtype=complex)
    if a.any():
        b = a[..., None] - R @ (d * a)[..., None]
        y = np.linalg.solve(M, b)
        residual = np.linalg.norm(M @ y - b, axis=(1, 2))
        bound = MEAN_SOLVE_RTOL * np.linalg.norm(b, axis=(1, 2))  # 0 passes a zero mean
        bad = np.flatnonzero(residual > bound)
        if bad.size:
            raise NumericalError(f"mean-term linear solve residual {residual[bad[0]]:.3e} "
                                 f"exceeds {MEAN_SOLVE_RTOL} * ||b|| = {bound[bad[0]]:.3e}")
        c = inv[0] @ a[..., None]  # (v_0 + 1)^{-1} a
        s = -0.5 * ((len(w) * c).swapaxes(1, 2) @ y)[:, 0, 0]
    log_abs = -np.log(chol_diag).sum(axis=(0, 2)) - 0.5 * log_abs_det + s.real
    return phases, s, log_abs


def polarization(
    state: GaussianState | BlochState, shift: ShiftSpec | None = None
) -> PolarizationBreakdown:
    """Full polarization breakdown of a Gaussian state on the homotopy branch.

    A :class:`BlochState` under its lattice's own shift takes the reduced
    path of the module docstring; every other state or shift the dense one,
    whitened by the state's own ``whitening``. Every state is first checked
    by :func:`~bosepol.states.require_valid`, whose spectrum the diagnostics
    read. Raises :class:`InvalidStateError` when V is not positive
    definite, or when |<T>| exceeds 1, which only a state violating
    V + i Omega >= 0 gives.
    """
    bloch = isinstance(state, BlochState)
    if shift is None:
        shift = shift_phases(state.lattice)
    elif bloch:
        bloch = np.array_equal(shift.phases, shift_phases(state.lattice).phases)
    if shift.lattice.modes != state.lattice.modes:
        raise ValueError("shift spec and state have different mode counts")
    vals = require_valid(state)
    if bloch:
        phi, s, log_abs = (x[0] for x in _bloch_terms(
            state.v_blocks[None], state.cell_mean[None], shift))
    else:
        phi, s, log_abs = _dense_terms(*state.whitening(), state.mean, shift)
    return _breakdown(float(log_abs), float(phi), complex(s), vals,
                      "bloch" if bloch else "dense")
