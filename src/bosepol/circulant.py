"""Block-circulant reduction of det(1 - W) for translation-invariant states.

Periodic boundary conditions make the covariance of a translation-invariant
state block-circulant in the cell index, so the cell Fourier transform
block-diagonalizes it into the 2n x 2n Bloch blocks v_k of a
:class:`~bosepol.states.BlochState`. The momentum shift turns into a cyclic
block shift, and iterating Schur's identity collapses the 2nL-dimensional
determinant to det(1_{2n} - A_{L-1} ... A_0), A_k = D G_k with
G_k = (v_k - 1)(v_k + 1)^{-1} and D the intra-cell gauge phases: the Bloch
path of :func:`~bosepol.polarization.polarization`, whose dense path is the
reference for it in any gauge. The G_k are the state's own: one stacked
inverse of the v_k + 1, cached, or for a thermal state the lift of its
Boltzmann blocks exp(-beta (h_k - mu)), set by its builder. Every
|eig(G_k)| < 1 for a valid state, which gives the decay bound
eps = 4 lambda_max^L on the determinant phase, lambda_max the state's
``cayley_norm``.
"""

from __future__ import annotations

import numpy as np

from .errors import NotTranslationInvariantError
from .polarization import _reduced_product, shift_phases
from .states import BlochState, GaussianState, LatticeSpec, require_valid

CIRCULANT_RTOL = 1e-10


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


def cell_bloch_blocks(state: GaussianState | BlochState) -> BlochState:
    """The :class:`BlochState` of a translation-invariant state.

    A :class:`BlochState` is returned as it is. A dense state is checked for
    translation invariance, then Fourier-transformed in the convention
    v_k = sum_d C_d exp(+2 pi i k d / L), C_d the first block row of V; its
    cell mean is the mean of the first cell.
    """
    if isinstance(state, BlochState):
        return state
    check_translation_invariance(state)
    lat = state.lattice
    L, tn = lat.cells, 2 * lat.sites_per_cell
    C = state.V.reshape(L, tn, L, tn)[0].transpose(1, 0, 2)
    v = np.fft.ifft(C, axis=0) * L
    v = (v + v.conj().transpose(0, 2, 1)) / 2.0
    return BlochState(lat, v, state.mean[:tn])


def random_bloch_blocks(
    lattice: LatticeSpec,
    rng: np.random.Generator,
    low: float | tuple[float, ...],
    high: float | tuple[float, ...],
    k0_high: float | None = None,
) -> np.ndarray:
    """Random Hermitian Bloch blocks v_k, (L, 2n, 2n), whose assembled matrix is real.

    Every momentum is drawn at once: a complex Gaussian matrix per k, with
    zero imaginary part at the self-conjugate momenta 2k = 0 mod L, then 2n
    eigenvalues per k from [low, high), from [low, k0_high) at k = 0 when
    ``k0_high`` is given. Block k is Q diag(eigenvalues) Q^dagger, with Q
    from one batched QR of the Gaussian matrices, so it has exactly its drawn
    eigenvalues, and it is real at the self-conjugate momenta. The blocks at
    k > L/2 are then replaced by the mirror v_{L-k} = conj(v_k).

    Sequences ``low`` and ``high`` of one length S give S sets, (S, L, 2n, 2n).
    Each set draws as a single call would, in turn, and all share one QR.
    """
    L, tn = lattice.cells, 2 * lattice.sites_per_cell
    lows, highs = np.broadcast_arrays(np.asarray(low, dtype=float), np.asarray(high, dtype=float))
    gaussians = np.empty((lows.size, 2, L, tn, tn))  # real and imaginary parts per set
    eigs = np.empty((lows.size, L, tn))
    for g, e, lo, hi in zip(gaussians, eigs, lows.flat, highs.flat):
        rng.standard_normal(out=g)
        top = hi  # a scalar bound draws the same numbers faster than a broadcast one
        if k0_high is not None:
            top = np.full((L, 1), hi)
            top[0] = k0_high
        e[...] = rng.uniform(lo, top, size=(L, tn))
    gaussians[:, 1, 2 * np.arange(L) % L == 0] = 0.0  # real at the self-conjugate momenta
    Q, _ = np.linalg.qr(gaussians[:, 0] + 1j * gaussians[:, 1])
    B = (Q * eigs[..., None, :]) @ Q.conj().swapaxes(-1, -2)
    blocks = (B + B.conj().swapaxes(-1, -2)) / 2.0
    k = np.arange(L // 2 + 1, L)
    blocks[:, k] = blocks[:, L - k].conj()
    return blocks.reshape(*lows.shape, L, tn, tn)


def reduced_determinant(state: BlochState) -> complex:
    """det(1_{2n} - A_{L-1} ... A_0) on the product of the Bloch path of
    :func:`~bosepol.polarization.polarization`, equal to the dense det(1 - W).

    :func:`~bosepol.states.require_valid` checks every v_k positive definite
    first; that alone gives |eig(A_k)| < 1. The product reads the state's
    cached Cayley blocks G_k, which the Bloch path of ``polarization`` shares:
    one stacked inverse of the v_k + 1, or none for a thermal state, whose
    builder sets them.
    """
    require_valid(state)
    _, P, _ = _reduced_product(state._cayley_blocks[:, None], shift_phases(state.lattice))
    return complex(np.linalg.det(np.eye(P.shape[-1]) - P[0]))


def lambda_max(state: GaussianState | BlochState) -> float:
    """Largest |eigenvalue| of the Cayley transform (V-1)(V+1)^{-1}, the state's
    ``cayley_norm``; always < 1."""
    require_valid(state)
    return state.cayley_norm


def decay_bound(state: GaussianState | BlochState) -> float:
    """eps = 4 lambda_max^L: bound on |Im ln det(1 - W)| up to O(eps^2)."""
    return 4.0 * lambda_max(state) ** state.lattice.cells


def random_circulant_state(
    lattice: LatticeSpec,
    seed: int,
    classical: bool = True,
    eig_low: float | None = None,
    eig_high: float = 4.0,
    mean_scale: float = 0.0,
) -> BlochState:
    """Seeded random translation-invariant state, held as its Bloch blocks.

    The blocks come from :func:`random_bloch_blocks` with eigenvalues in
    [eig_low, eig_high). With ``classical=False`` the k = 0 block gets
    eigenvalues below 1: these are math-only draws with V > 0, not physical
    states, since they violate V + i Omega >= 0 (ROADMAP item 5).
    """
    rng = np.random.default_rng(seed)
    if eig_low is None:
        eig_low = 1.1 if classical else 0.3
    k0_high = None if classical else min(0.9, eig_high)
    blocks = random_bloch_blocks(lattice, rng, eig_low, eig_high, k0_high)
    tn = 2 * lattice.sites_per_cell
    cell = mean_scale * rng.normal(size=tn) if mean_scale else np.zeros(tn)
    return BlochState(lattice, blocks, cell)
