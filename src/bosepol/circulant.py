"""Block-circulant reduction of det(1 - W) for translation-invariant states.

Periodic boundary conditions make the covariance of a translation-invariant
state block-circulant in the cell index, so the cell Fourier transform
block-diagonalizes it into 2n x 2n Bloch blocks v_k. The momentum-shift
unitary turns into a cyclic block shift, and iterating Schur's identity
collapses the 2nL-dimensional determinant to

    det(1 - W) = det(1_{2n} - m_{L-1} ... m_1 m_0),
    m_k = (v_k - 1)(v_k + 1)^{-1} D,

where D carries the intra-cell gauge phases. Every |eig(m_k)| < 1 for a
valid state, which gives the decay bound eps = 4 lambda_max^L on the
determinant phase. The dense determinant is the arbiter of correctness for
any gauge; the product order above is pinned by that equality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError, NotTranslationInvariantError
from .polarization import ShiftSpec, quadrature_phase_factors, shift_phases
from .states import GaussianState, LatticeSpec, require_valid

CIRCULANT_RTOL = 1e-10


@dataclass(frozen=True)
class BlochBlocks:
    """Fourier data of a cell-circulant covariance: v_k and m_k."""

    lattice: LatticeSpec
    v_blocks: np.ndarray
    m_blocks: np.ndarray


def check_translation_invariance(state: GaussianState) -> None:
    """Raise unless V commutes with cell translation and the mean is cell-periodic."""
    lat = state.lattice
    L, tn = lat.cells, 2 * lat.sites_per_cell
    Vr = state.V.reshape(L, tn, L, tn)
    scale = max(1.0, float(np.abs(state.V).max()))
    defect = float(np.abs(Vr - np.roll(Vr, (1, 1), axis=(0, 2))).max())
    if defect > CIRCULANT_RTOL * scale:
        raise NotTranslationInvariantError(
            f"not translation invariant: circulant defect {defect:.3e} "
            f"exceeds {CIRCULANT_RTOL:.0e} * ||V||"
        )
    mean = state.mean.reshape(L, tn)
    mean_defect = float(np.abs(mean - mean[0]).max())
    if mean_defect > CIRCULANT_RTOL * max(1.0, float(np.abs(state.mean).max())):
        raise NotTranslationInvariantError(
            f"not translation invariant: mean is not cell-periodic "
            f"(defect {mean_defect:.3e})"
        )


def gauge_block(lattice: LatticeSpec) -> np.ndarray:
    """Diagonal of the intra-cell phase block D: the first 2n quadrature phase factors."""
    return quadrature_phase_factors(shift_phases(lattice))[: 2 * lattice.sites_per_cell]


def cell_bloch_blocks(state: GaussianState, check: bool = True) -> BlochBlocks:
    """Fourier-transform a translation-invariant covariance into Bloch blocks.

    Convention: v_k = sum_d C_d exp(+2 pi i k d / L) where C_d is the first
    block row of V, and m_k = (v_k - 1)(v_k + 1)^{-1} D with D from
    :func:`gauge_block`. Positive definiteness of V is equivalent to positive
    definiteness of every v_k and is asserted blockwise. That alone gives
    |eig(m_k)| < 1, so m_k needs no check of its own: the Cayley factor
    (v_k - 1)(v_k + 1)^{-1} of a positive definite v_k has norm below 1, and
    the gauge block D is unitary. ``check=False`` skips the O((nL)^2)
    translation-invariance scan for callers that validated the state
    beforehand (benchmark inner loop).
    """
    lat = state.lattice
    if check:
        check_translation_invariance(state)
    L, tn = lat.cells, 2 * lat.sites_per_cell
    C = state.V.reshape(L, tn, L, tn)[0].transpose(1, 0, 2)
    v = np.fft.ifft(C, axis=0) * L
    v = (v + v.conj().transpose(0, 2, 1)) / 2.0
    if np.linalg.eigvalsh(v).min() <= 0.0:
        raise InvalidStateError("a Bloch block v_k is not positive definite")
    eye = np.eye(tn)
    m = np.linalg.solve(v + eye, v - eye) * gauge_block(lat)
    return BlochBlocks(lattice=lat, v_blocks=v, m_blocks=m)


def reassemble_covariance(v_blocks: np.ndarray) -> np.ndarray:
    """Inverse Fourier transform of Bloch blocks v_k back to a dense real-symmetric matrix."""
    L, tn, _ = v_blocks.shape
    C = np.fft.fft(v_blocks, axis=0) / L
    idx = (np.arange(L)[None, :] - np.arange(L)[:, None]) % L
    V = C[idx].transpose(0, 2, 1, 3).reshape(L * tn, L * tn)
    if np.abs(V.imag).max() > 1e-10 * max(1.0, np.abs(V.real).max()):
        raise ValueError("Bloch blocks violate the realness constraint v_{L-k} = conj(v_k)")
    return (V.real + V.real.T) / 2.0


def random_bloch_blocks(
    lattice: LatticeSpec,
    rng: np.random.Generator,
    low: float,
    high: float,
    k0_high: float | None = None,
) -> np.ndarray:
    """Random Hermitian Bloch blocks with eigenvalues in [low, high).

    Blocks are drawn for k = 0 .. L/2 and mirrored as v_{L-k} = conj(v_k),
    which keeps the assembled matrix real; the self-conjugate momenta get
    real blocks. ``k0_high`` replaces ``high`` for the k = 0 block.
    """
    L, tn = lattice.cells, 2 * lattice.sites_per_cell
    blocks = np.empty((L, tn, tn), dtype=complex)
    for k in range(L // 2 + 1):
        if k == 0 or (L % 2 == 0 and k == L // 2):
            Q, _ = np.linalg.qr(rng.normal(size=(tn, tn)))
        else:
            Q, _ = np.linalg.qr(rng.normal(size=(tn, tn)) + 1j * rng.normal(size=(tn, tn)))
        hi = k0_high if k == 0 and k0_high is not None else high
        B = (Q * rng.uniform(low, hi, size=tn)) @ Q.conj().T
        blocks[k] = (B + B.conj().T) / 2.0
        blocks[(L - k) % L] = blocks[k].conj()
    return blocks


def reduced_determinant(blocks: BlochBlocks) -> complex:
    """det(1_{2n} - m_{L-1} ... m_1 m_0), equal to the dense det(1 - W)."""
    tn = 2 * blocks.lattice.sites_per_cell
    prod = np.eye(tn, dtype=complex)
    for mk in blocks.m_blocks:
        prod = mk @ prod
    return complex(np.linalg.det(np.eye(tn, dtype=complex) - prod))


def dense_determinant(state: GaussianState, shift: ShiftSpec | None = None) -> complex:
    """Dense det(1 - W) evaluated directly on the 2nL-dimensional matrix."""
    require_valid(state)
    if shift is None:
        shift = shift_phases(state.lattice)
    return _dense_det_kernel(state.V, quadrature_phase_factors(shift))


def _dense_det_kernel(V: np.ndarray, u: np.ndarray) -> complex:
    dim = V.shape[0]
    eye = np.eye(dim)
    G = np.linalg.solve(V + eye, V - eye)
    sign, logabs = np.linalg.slogdet(eye.astype(complex) - G * u)
    if logabs > 700.0:
        raise OverflowError("dense determinant exceeds double range; compare in log space")
    return complex(sign * np.exp(logabs))


def lambda_max(state: GaussianState) -> float:
    """Largest |eigenvalue| of the Cayley transform (V-1)(V+1)^{-1}; always < 1."""
    vals = np.linalg.eigvalsh(state.V)
    if vals[0] <= 0.0:
        raise InvalidStateError(
            f"invalid state: min covariance eigenvalue {vals[0]:.6g} <= 0"
        )
    return float(np.abs((vals - 1.0) / (vals + 1.0)).max())


def decay_bound(state: GaussianState) -> float:
    """eps = 4 lambda_max^L: bound on |Im ln det(1 - W)| up to O(eps^2)."""
    return 4.0 * lambda_max(state) ** state.lattice.cells


def random_circulant_state(
    lattice: LatticeSpec,
    seed: int,
    classical: bool = True,
    eig_low: float | None = None,
    eig_high: float = 4.0,
    mean_scale: float = 0.0,
) -> GaussianState:
    """Seeded random translation-invariant state built from Bloch blocks.

    Blocks are drawn per momentum with the mirror constraint
    v_{L-k} = conj(v_k) that keeps the assembled covariance real. With
    ``classical=False`` the k = 0 block gets eigenvalues below 1: these are
    math-only draws with V > 0, not physical states, since they violate
    V + i Omega >= 0 (ROADMAP item 4).
    """
    rng = np.random.default_rng(seed)
    if eig_low is None:
        eig_low = 1.1 if classical else 0.3
    k0_high = None if classical else min(0.9, eig_high)
    V = reassemble_covariance(random_bloch_blocks(lattice, rng, eig_low, eig_high, k0_high))
    if mean_scale:
        cell = mean_scale * rng.normal(size=2 * lattice.sites_per_cell)
        mean = np.tile(cell, lattice.cells)
    else:
        mean = np.zeros(lattice.dim)
    return GaussianState(lattice, V, mean)


def benchmark_determinants(
    lattice: LatticeSpec,
    seed: int = 0,
    repeats: int = 3,
) -> dict:
    """Time the dense versus reduced determinant on one random circulant state.

    Both timers cover determinant evaluation only: the state is validated
    (positive definite, translation invariant) once outside the timed
    regions, mirroring a production sweep that validates a family up front
    and evaluates many parameter points. Returns a row with best-of-
    ``repeats`` timings and the relative error between the two values.
    """
    if repeats < 1:
        raise ValueError(f"need at least one timing repeat, got {repeats}")
    state = random_circulant_state(lattice, seed, classical=True)
    require_valid(state)
    check_translation_invariance(state)
    shift = shift_phases(lattice)
    u = quadrature_phase_factors(shift)

    dense_val = None
    dense_t = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        dense_val = _dense_det_kernel(state.V, u)
        dense_t = min(dense_t, time.perf_counter() - t0)

    reduced_val = None
    reduced_t = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        reduced_val = reduced_determinant(cell_bloch_blocks(state, check=False))
        reduced_t = min(reduced_t, time.perf_counter() - t0)

    rel_err = abs(dense_val - reduced_val) / abs(dense_val)
    return {
        "L": lattice.cells,
        "n": lattice.sites_per_cell,
        "dense_seconds": dense_t,
        "reduced_seconds": reduced_t,
        "relative_det_error": rel_err,
    }
