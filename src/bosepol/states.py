"""Lattice geometry and Gaussian bosonic states.

Conventions used throughout the package:

* quadratures ``q = a + a^dag``, ``p = -i (a - a^dag)``, so the vacuum
  covariance is the identity;
* the quadrature vector is ordered cell-major, site-next, with the (q, p)
  pair innermost, i.e. ``(q_{0,0}, p_{0,0}, q_{0,1}, p_{0,1}, ...)``;
* the mean vector is ``alpha0 = (<q>, <p>)`` per mode, so a coherent
  amplitude ``a`` maps to ``(2 Re a, 2 Im a)``;
* site positions carry a gauge offset: ``x_{r,s} = r + (s + delta)/n`` with
  ``0 < delta < 1``, which keeps every momentum-shift phase away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import ChemicalPotentialError, InvalidStateError

# Relative tolerance for the stored-symmetry contract of covariance matrices.
SYMMETRY_RTOL = 1e-8
# Rounding margin of the uncertainty relation V + i Omega >= 0, which holds
# iff every symplectic eigenvalue is >= 1.
PHYSICAL_TOL = 1e-10


@dataclass(frozen=True)
class LatticeSpec:
    """Ring of ``cells`` unit cells with ``sites_per_cell`` sites each.

    ``gauge_offset`` shifts every site by ``gauge_offset / sites_per_cell``
    so that no site sits at the origin of the momentum-shift phase.
    """

    cells: int
    sites_per_cell: int
    gauge_offset: float = 0.5

    def __post_init__(self):
        if self.cells < 1:
            raise ValueError(f"cells must be >= 1, got {self.cells}")
        if self.sites_per_cell < 1:
            raise ValueError(f"sites_per_cell must be >= 1, got {self.sites_per_cell}")
        if not (0.0 < self.gauge_offset < 1.0):
            raise ValueError(
                "gauge_offset must lie strictly in (0, 1); "
                f"got {self.gauge_offset} (offset 0 or >= 1 would place a site "
                "at the gauge origin)"
            )

    @property
    def modes(self) -> int:
        return self.cells * self.sites_per_cell

    @property
    def dim(self) -> int:
        """Dimension of the quadrature space, two per mode."""
        return 2 * self.modes

    def site_positions(self) -> np.ndarray:
        """Positions ``x_{r,s} = r + (s + delta)/n`` in cell-major order."""
        r = np.arange(self.cells)[:, None]
        s = np.arange(self.sites_per_cell)
        return (r + (s + self.gauge_offset) / self.sites_per_cell).ravel()


def make_lattice(cells: int, sites_per_cell: int, gauge_offset: float = 0.5) -> LatticeSpec:
    """Build a lattice spec, rejecting gauge offsets that put a site phase at zero."""
    return LatticeSpec(cells, sites_per_cell, gauge_offset)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def checked_moments(
    dim: int, V, mean, stack: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Covariances of shape (*stack, dim, dim) and means of shape (*stack, dim), checked.

    Both must be finite, and each covariance symmetric within SYMMETRY_RTOL
    of max(1, max |V|). Returns the exactly symmetrized covariances and the
    means as float arrays. :class:`GaussianState` checks one state here
    (``stack = ()``), :func:`bosepol.winding.track_polarization` a loop's
    whole sample stack.
    """
    V = np.asarray(V, dtype=float)
    mean = np.asarray(mean, dtype=float)
    if V.shape != (*stack, dim, dim):
        raise ValueError(f"covariance must be {dim}x{dim}, got {V.shape}")
    if mean.shape != (*stack, dim):
        raise ValueError(f"mean must have length {dim}, got {mean.shape}")
    scale = np.abs(V).max(axis=(-2, -1))  # nan or inf unless V is finite
    if not (np.isfinite(scale).all() and np.isfinite(mean).all()):
        raise ValueError("covariance and mean must be finite")
    VT = V.swapaxes(-1, -2)
    defect = np.abs(V - VT).max(axis=(-2, -1))
    bad = (defect > SYMMETRY_RTOL) & (defect > SYMMETRY_RTOL * scale)  # > rtol max(1, scale)
    if bad.any():
        raise ValueError(f"covariance asymmetry {defect[bad].flat[0]:.3e} exceeds tolerance")
    return (V + VT) / 2.0, mean


@dataclass(frozen=True)
class GaussianState:
    """Gaussian bosonic state: covariance ``V`` and mean ``alpha0`` over 2nL quadratures.

    ``V`` is stored exactly symmetric; positive definiteness is *not*
    enforced at construction (use :func:`validate`), so deliberately broken
    states can be built in tests.

    A state built by :meth:`from_factor` also keeps its symplectic factor
    ``factor = (S, d)``, with V = S diag(d) S^T (Williamson); it is None for
    a state given only by ``V``. The state owns how its ``V`` is factorized:
    ``spectrum`` and :meth:`whitening` read the factor, or else one cached
    ``eigh`` of ``V``, which every reader of the state shares.
    """

    lattice: LatticeSpec
    V: np.ndarray
    mean: np.ndarray
    factor: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        V, mean = checked_moments(self.lattice.dim, self.V, self.mean)
        object.__setattr__(self, "V", _as_readonly(V))
        # checked_moments may return the caller's own mean array: freeze a copy.
        object.__setattr__(self, "mean", _as_readonly(mean.copy()))

    @classmethod
    def from_factor(cls, lattice: LatticeSpec, S, d, mean) -> GaussianState:
        """The state V = S diag(d) S^T, which keeps its symplectic factor (S, d).

        ``d`` is the length-2nL diagonal of the Williamson form: each mode's
        symplectic eigenvalue, once for its q and once for its p. Both must be
        finite, every eigenvalue >= 1, which is the uncertainty relation
        V + i Omega >= 0, and S symplectic, ||S Omega S^T - Omega||_max at most
        SYMMETRY_RTOL max(1, max |S|^2). Each failure raises ``ValueError``
        naming its contract.
        """
        dim = lattice.dim
        S, d = np.array(S, dtype=float), np.array(d, dtype=float)
        if S.shape != (dim, dim) or d.shape != (dim,):
            raise ValueError(f"symplectic factor must be {dim}x{dim} with a diagonal of "
                             f"length {dim}, got {S.shape} and {d.shape}")
        if not (np.isfinite(S).all() and np.isfinite(d).all()):
            raise ValueError("symplectic factor must be finite")
        if not np.array_equal(d[0::2], d[1::2]):
            raise ValueError("Williamson diagonal must repeat each mode's symplectic "
                             "eigenvalue for its q and its p")
        if not d.min() >= 1.0:
            raise ValueError(f"symplectic eigenvalue {d.min():.6g} < 1 violates the "
                             "uncertainty relation V + i Omega >= 0")
        swap, sign = _signed_swap(dim)  # S Omega S^T - Omega as S (Omega S^T) - Omega 1
        defect = np.abs(S @ (sign[:, None] * S.T[swap]) - sign[:, None] * np.eye(dim)[swap]).max()
        if defect > SYMMETRY_RTOL * max(1.0, np.abs(S).max() ** 2):
            raise ValueError(f"factor is not symplectic: ||S Omega S^T - Omega|| = "
                             f"{defect:.3e} exceeds tolerance")
        state = cls(lattice, (S * d) @ S.T, mean)  # symmetrized by checked_moments
        object.__setattr__(state, "factor", (_as_readonly(S), _as_readonly(d)))
        return state

    @property
    def modes(self) -> int:
        return self.lattice.modes

    @cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:  # V = Q diag(vals) Q^T, vals ascending
        vals, Q = np.linalg.eigh(self.V)
        return _as_readonly(vals), Q

    @cached_property
    def spectrum(self) -> np.ndarray:
        """V's ascending eigenvalues, computed on first read: those of the cached
        ``eigh`` of V, or for a factored state the squared singular values of
        S diag(d)^{1/2}, since V = (S d^{1/2})(S d^{1/2})^T. Their rounding error
        scales with the largest singular value, not with its square, the
        largest eigenvalue, as an ``eigh`` of the rounded V does."""
        if self.factor is None:
            return self._eigh[0]
        S, d = self.factor
        return _as_readonly(np.linalg.svd(S * np.sqrt(d), compute_uv=False)[::-1] ** 2)

    def whitening(self) -> tuple[np.ndarray, float]:
        """A whitening A, A^T V A = 1, and log det V of a state that passed
        :func:`require_valid`, from the cached ``eigh``; a factored state has
        A = S^{-T} diag(d)^{-1/2} with no factorization, as S^{-T} = Omega^T S Omega
        has entries sign_i sign_j S[i ^ 1, j ^ 1], with the swap and signs of
        :func:`_signed_swap`."""
        if self.factor is None:
            return _whiten(*self._eigh)
        S, d = self.factor
        swap, sign = _signed_swap(len(d))
        A = sign[:, None] * S[swap[:, None], swap] * (sign / np.sqrt(d))
        return A, float(np.log(d).sum())


def _signed_swap(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The swap i ^ 1 and the signs (1, -1, 1, -1, ...) that apply the symplectic
    form Omega, one block [[0, 1], [-1, 0]] per mode in the (q, p)-innermost
    ordering, as a signed row swap: (Omega M)[i] = sign_i M[i ^ 1]."""
    return np.arange(dim) ^ 1, np.tile([1.0, -1.0], dim // 2)


def _whiten(vals: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whitenings A = Q Lambda^{-1/2} and log det V of covariances V = Q Lambda Q^T
    (..., dim, dim), from their positive eigenvalues and eigenvectors."""
    return Q / np.sqrt(vals)[..., None, :], np.log(vals).sum(-1)


def reassemble_covariance(v_blocks: np.ndarray) -> np.ndarray:
    """Inverse Fourier transform of Bloch blocks v_k back to dense real-symmetric matrices.

    Blocks (..., L, 2n, 2n) give matrices (..., 2nL, 2nL), one per leading index.
    The imaginary part is dropped: :func:`checked_bloch_moments` owns the
    realness contract v_{L-k} = conj(v_k), within SYMMETRY_RTOL, as
    :func:`checked_moments` owns the symmetry of a dense V.
    """
    *stack, L, tn, _ = v_blocks.shape
    C = np.fft.fft(v_blocks, axis=-3) / L
    idx = (np.arange(L)[None, :] - np.arange(L)[:, None]) % L
    V = C[..., idx, :, :].swapaxes(-3, -2).reshape(*stack, L * tn, L * tn).real
    return (V + V.swapaxes(-1, -2)) / 2.0


def checked_bloch_moments(
    lattice: LatticeSpec, v, cell_mean, stack: tuple[int, ...] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Bloch blocks of shape (*stack, L, 2n, 2n) and cell means of shape (*stack, 2n), checked.

    Both must be finite, and each state's blocks Hermitian with
    v_{L-k} = conj(v_k) within SYMMETRY_RTOL of max(1, max_k |v_k|).
    Returns the blocks as a complex and the means as a float array.
    :class:`BlochState` checks one state here (``stack = ()``),
    :func:`bosepol.winding.track_polarization` a Bloch loop's whole sample stack.
    """
    L, tn = lattice.cells, 2 * lattice.sites_per_cell
    v = np.asarray(v, dtype=complex)
    cell_mean = np.asarray(cell_mean, dtype=float)
    if v.shape != (*stack, L, tn, tn):
        raise ValueError(f"Bloch blocks must be {(L, tn, tn)}, got {v.shape}")
    if cell_mean.shape != (*stack, tn):
        raise ValueError(f"cell mean must have length {tn}, got {cell_mean.shape}")
    scale = np.abs(v).max(axis=(-3, -2, -1))  # nan or inf unless v is finite
    if not (np.isfinite(scale).all() and np.isfinite(cell_mean).all()):
        raise ValueError("Bloch blocks and cell mean must be finite")
    tol = SYMMETRY_RTOL * np.maximum(1.0, scale)
    defect = np.abs(v - v.conj().swapaxes(-1, -2)).max(axis=(-3, -2, -1))
    if (defect > tol).any():
        raise ValueError(
            f"Bloch block hermiticity defect {defect[defect > tol].flat[0]:.3e} exceeds tolerance"
        )
    defect = np.abs(v - v[..., -np.arange(L) % L, :, :].conj()).max(axis=(-3, -2, -1))
    if (defect > tol).any():
        raise ValueError(
            f"Bloch blocks violate v_(L-k) = conj(v_k) by {defect[defect > tol].flat[0]:.3e}, "
            "so the covariance would not be real"
        )
    return v, cell_mean


@dataclass(frozen=True)
class BlochState:
    """Translation-invariant Gaussian state, held as the Bloch blocks of its covariance.

    ``v_blocks`` (L, 2n, 2n) are v_k = sum_d C_d exp(+2 pi i k d / L), with
    C_d the first block row of the block-circulant V; ``cell_mean`` (2n,) is
    the mean of every cell. The blocks must be finite and Hermitian, and obey
    v_{L-k} = conj(v_k), which makes V real; both must hold within
    SYMMETRY_RTOL of max(1, max |v_k|). Positive definiteness is not
    enforced, as for :class:`GaussianState`.

    ``V`` and ``mean`` are assembled on first read, for dense consumers; the
    reduced evaluation of :func:`bosepol.polarization.polarization` and
    :func:`validate` never read them. ``spectrum``
    is the sorted union of the block spectra, from one stacked ``eigvalsh``.
    """

    lattice: LatticeSpec
    v_blocks: np.ndarray
    cell_mean: np.ndarray

    def __post_init__(self):
        # Copies: the caller's arrays stay writable.
        v = np.array(self.v_blocks, dtype=complex)
        v, cell_mean = checked_bloch_moments(
            self.lattice, v, np.array(self.cell_mean, dtype=float)
        )
        object.__setattr__(self, "v_blocks", _as_readonly(v))
        object.__setattr__(self, "cell_mean", _as_readonly(cell_mean))

    @property
    def modes(self) -> int:
        return self.lattice.modes

    @cached_property
    def V(self) -> np.ndarray:
        return _as_readonly(reassemble_covariance(self.v_blocks))

    @cached_property
    def mean(self) -> np.ndarray:
        return _as_readonly(np.tile(self.cell_mean, self.lattice.cells))

    @cached_property
    def spectrum(self) -> np.ndarray:
        return _as_readonly(np.sort(np.linalg.eigvalsh(self.v_blocks), axis=None))

    def whitening(self) -> tuple[np.ndarray, float]:
        """A whitening of the assembled V and log det V, from one ``eigh`` of V,
        for the dense path under a shift other than the lattice's own."""
        return _whiten(*np.linalg.eigh(self.V))


@dataclass(frozen=True)
class ModeOccupation:
    """Bose occupations and eigenvectors of stacked hopping matrices (..., N, N).

    :func:`bose_occupations` builds it: its checks of beta and the gap make the
    occupations nonnegative, and ``eigh`` makes the eigenvectors unitary.
    """

    occupations: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ValidationReport:
    """Spectral floor, classicality, purity and physicality of V, from :func:`validate`."""

    min_eigenvalue: float
    classical: bool
    purity: float
    valid: bool
    min_symplectic_eigenvalue: float
    physical: bool


def coherent_state(lattice: LatticeSpec, amplitudes) -> GaussianState:
    """Multi-mode coherent state |alpha_1> x ... x |alpha_nL>: V = identity."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.shape != (lattice.modes,):
        raise ValueError(f"need {lattice.modes} amplitudes, got {amps.shape}")
    if not np.all(np.isfinite(amps)):
        raise ValueError("amplitudes must be finite")
    mean = np.empty(lattice.dim)
    mean[0::2] = 2.0 * amps.real
    mean[1::2] = 2.0 * amps.imag
    return GaussianState(lattice, np.eye(lattice.dim), mean)


def bose_occupations(hopping: np.ndarray, beta: float, mu: float) -> ModeOccupation:
    """Diagonalize hermitian hopping matrices (..., N, N) in one stacked ``eigh`` and
    attach Bose-Einstein occupations. Every eigenvalue of every matrix must satisfy
    ``eps - mu > 0``; otherwise the grand-canonical occupation is undefined."""
    h = np.asarray(hopping, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("hopping matrix must be square")
    scale = np.abs(h).max(axis=(-2, -1))  # nan or inf unless h is finite
    if not np.isfinite(scale).all():
        raise ValueError("hopping matrix must be finite")
    defect = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if np.any(defect > 1e-10 * np.maximum(1.0, scale)):
        raise ValueError("hopping matrix must be hermitian")
    if not beta > 0:
        raise ValueError(f"inverse temperature beta must be positive, got {beta}")
    if math.isnan(mu):
        raise ChemicalPotentialError(f"chemical potential mu must be a number, got {mu}")
    energies, vectors = np.linalg.eigh(h)
    gap = energies - mu
    if not np.all(gap > 0):
        raise ChemicalPotentialError(
            f"chemical potential not below the band minimum: min(eps - mu) = {gap.min():.6g}"
        )
    with np.errstate(over="ignore"):
        occ = 1.0 / np.expm1(beta * gap)
    return ModeOccupation(occupations=occ, eigenvectors=vectors)


def _occupation_matrices(hopping: np.ndarray, beta: float, mu: float) -> np.ndarray:
    """N = sum_j nbar_j v_j v_j^dag for each hopping matrix of the stack (..., N, N)."""
    modes = bose_occupations(hopping, beta, mu)
    U = modes.eigenvectors
    return (U * modes.occupations[..., None, :]) @ U.conj().swapaxes(-1, -2)


def _quadrature_covariances(re_n: np.ndarray, im_n: np.ndarray) -> np.ndarray:
    """1 + 2 Re N on the (q, q) and (p, p) entries, +-2 Im N on (q, p) and (p, q).

    ``re_n`` and ``im_n`` are Re N and Im N of stacked (..., N, N) matrices,
    or their Fourier blocks, which are complex.
    """
    dim = 2 * re_n.shape[-1]
    V = np.empty((*re_n.shape[:-2], dim, dim), dtype=np.result_type(re_n, im_n))
    V[..., 0::2, 0::2] = V[..., 1::2, 1::2] = 2.0 * re_n
    V[..., 0::2, 1::2] = 2.0 * im_n
    V[..., 1::2, 0::2] = -2.0 * im_n
    V += np.eye(dim)
    return V


def thermal_covariances(hopping: np.ndarray, beta: float, mu: float) -> np.ndarray:
    """Covariances (..., 2N, 2N) of the grand-canonical thermal states of hopping
    matrices (..., N, N): with N = sum_j nbar_j v_j v_j^dag in the site basis and
    nbar_j = 1/(exp(beta (eps_j - mu)) - 1), V[q_i q_j] = V[p_i p_j] = delta_ij +
    2 Re N_ij and V[q_i p_j] = -V[p_i q_j] = 2 Im N_ij. Strictly classical
    (V > 1) at any finite temperature."""
    N = _occupation_matrices(hopping, beta, mu)
    V = _quadrature_covariances(N.real, N.imag)
    return (V + V.swapaxes(-1, -2)) / 2.0


def thermal_bloch_blocks(h_k: np.ndarray, beta: float, mu: float) -> np.ndarray:
    """Covariance Bloch blocks (..., L, 2n, 2n) of the thermal states of Bloch
    Hamiltonians (..., L, n, n), h_k = sum_d H[0, d] exp(2 pi i k d / L).

    One stacked ``eigh`` yields the occupation blocks N_k of the same
    transform. Since N_k and conj(N_{L-k}) are the blocks of N and conj(N),
    (N_k + conj(N_{L-k})) / 2 and (N_k - conj(N_{L-k})) / 2i are those of
    Re N and Im N, placed as in :func:`thermal_covariances`.
    """
    N = _occupation_matrices(h_k, beta, mu)
    mirror = N[..., -np.arange(N.shape[-3]) % N.shape[-3], :, :].conj()
    return _quadrature_covariances((N + mirror) / 2.0, (N - mirror) * -0.5j)


def thermal_state(
    hopping: np.ndarray, beta: float, mu: float, lattice: LatticeSpec
) -> GaussianState | BlochState:
    """Grand-canonical thermal state of a hopping matrix.

    A matrix (nL, nL) gives :func:`thermal_covariances` with zero mean. A
    translation-invariant hopping given as its Bloch Hamiltonians (L, n, n),
    h_k = sum_d H[0, d] exp(2 pi i k d / L), gives a :class:`BlochState` with
    the blocks of :func:`thermal_bloch_blocks`.
    """
    if np.ndim(hopping) == 3:
        L, n = lattice.cells, lattice.sites_per_cell
        if np.shape(hopping) != (L, n, n):
            raise ValueError(f"need {(L, n, n)} Bloch Hamiltonians, got {np.shape(hopping)}")
        return BlochState(lattice, thermal_bloch_blocks(hopping, beta, mu), np.zeros(2 * n))
    V = thermal_covariances(hopping, beta, mu)
    if V.shape[-1] != lattice.dim:
        raise ValueError(
            f"hopping matrix is {V.shape[-1] // 2}-dimensional, "
            f"lattice has {lattice.modes} modes"
        )
    return GaussianState(lattice, V, np.zeros(lattice.dim))


def squeezed_vacuum_state(lattice: LatticeSpec, r) -> GaussianState:
    """Product of single-mode squeezed vacua, per-mode V block diag(e^{2r}, e^{-2r})."""
    rs = np.broadcast_to(np.asarray(r, dtype=float), (lattice.modes,))
    if not np.all(np.isfinite(rs)):
        raise ValueError("squeezing parameters must be finite")
    diag = np.empty(lattice.dim)
    diag[0::2] = np.exp(2.0 * rs)
    diag[1::2] = np.exp(-2.0 * rs)
    return GaussianState(lattice, np.diag(diag), np.zeros(lattice.dim))


def two_mode_squeezed_state(r: float) -> GaussianState:
    """Two-mode squeezed vacuum with correlated quadratures.

    V = [[cosh(2r) 1, sinh(2r) Z], [sinh(2r) Z, cosh(2r) 1]], Z = diag(1, -1),
    on a two-cell, one-site lattice (the state is cell-circulant there). The
    state keeps its squeezer S = [[cosh(r) 1, sinh(r) Z], [sinh(r) Z, cosh(r) 1]]
    and d = 1 as its symplectic factor, V = S S^T. S's condition number is the
    square root of V's, so ``spectrum`` and ``<T>``, which read S, stay
    accurate where the rounded V alone does not; cosh r is rounded so that the
    stored S S^T is physical at every finite r.
    """
    if not abs(r) <= 354.0:  # cosh(2r), V's largest entry, overflows from 354.9
        raise ValueError(f"squeezing parameter must be finite with |r| <= 354, got {r}")
    c, s = math.cosh(r), math.sinh(r)
    # Rounded, c^2 - s^2 misses 1 by up to about c ulp(c), and a shortfall
    # would make the stored S D S^T unphysical; round c up until it does not.
    while Fraction(c) ** 2 - Fraction(s) ** 2 < 1:
        c = math.nextafter(c, math.inf)
    Z = np.diag([1.0, -1.0])
    S = np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]])
    return GaussianState.from_factor(make_lattice(2, 1), S, np.ones(4), np.zeros(4))


def random_gaussian_state(
    lattice: LatticeSpec,
    seed: int,
    classical: bool = False,
    mean_scale: float = 0.0,
) -> GaussianState:
    """Seeded random Gaussian state ``V = S D S^T`` with S symplectic.

    S is the Cayley transform (1 - X/2)^{-1} (1 + X/2) of the Hamiltonian
    generator X = Omega G, G a random symmetric matrix with entries of scale
    0.3 / sqrt(dim). The Cayley transform of a Hamiltonian matrix is exactly
    symplectic, so V is physical with symplectic eigenvalues 2 nbar + 1, the
    thermal occupations nbar drawn uniformly from [0, 1.5), and the state
    keeps (S, D) as its symplectic factor. With ``classical=True`` the
    covariance is rescaled so its smallest eigenvalue is >= 1, which no
    symplectic factor of that form gives, so the state keeps only V.
    Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    dim = lattice.dim
    A = rng.normal(size=(dim, dim))
    swap, sign = _signed_swap(dim)
    X = sign[:, None] * (0.3 * (A + A.T) / np.sqrt(2.0 * dim))[swap]  # Omega G
    eye = np.eye(dim)
    S = np.linalg.solve(eye - X / 2.0, eye + X / 2.0)
    nbar = rng.uniform(0.0, 1.5, size=lattice.modes)
    D = np.repeat(2.0 * nbar + 1.0, 2)
    mean = mean_scale * rng.normal(size=dim) if mean_scale else np.zeros(dim)
    if not classical:
        return GaussianState.from_factor(lattice, S, D, mean)
    V = (S * D) @ S.T
    V = (V + V.T) / 2.0
    lo = np.linalg.eigvalsh(V)[0]
    if lo < 1.0:
        V = V * ((1.0 + 1e-9) / lo)
    return GaussianState(lattice, V, mean)


def validate(state: GaussianState | BlochState) -> ValidationReport:
    """Report spectral floor, classicality, purity and physicality.

    ``valid`` only asks V > 0. ``physical`` asks the uncertainty relation
    V + i Omega >= 0, i.e. a smallest symplectic eigenvalue >= 1 (Williamson;
    Simon, Mukunda and Dutta, PRA 49, 1567 (1994)). The floor and
    classicality read the cached ``spectrum``. The rest follows the state's
    form, and no form assembles or factorizes a V it does not hold:

    * a factored state (:meth:`GaussianState.from_factor`) has the
      symplectic eigenvalues d and det V = prod d, so purity
      det(V)^{-1/2} = exp(-1/2 sum log d);
    * otherwise purity comes from the spectrum, and the symplectic
      eigenvalues are the moduli of eig(i Omega V), read from the similar
      Hermitian matrix R^dag (i Omega) R with V = R R^dag. For a
      :class:`BlochState` R is the stacked Cholesky factor R_k of the blocks
      v_k and Omega the cell's form: Omega is the same in every cell, so the
      spectrum of i Omega V is the union of those of i Omega_cell v_k.

    ``GaussianState`` stores V exactly symmetric, so there is no symmetry
    defect to report.
    """
    eigs = state.spectrum
    lo = float(eigs[0])
    valid = lo > 0.0
    if isinstance(state, GaussianState) and state.factor is not None:
        d = state.factor[1]
        log_det, nu = float(np.log(d).sum()), float(d.min())
    elif valid:
        R = np.linalg.cholesky(state.v_blocks if isinstance(state, BlochState) else state.V)
        swap, sign = _signed_swap(R.shape[-1])
        herm = 1j * (R.conj().swapaxes(-1, -2) @ (sign[:, None] * R[..., swap, :]))
        log_det, nu = float(np.log(eigs).sum()), float(np.abs(np.linalg.eigvalsh(herm)).min())
    else:
        log_det = nu = float("nan")
    return ValidationReport(
        min_eigenvalue=lo,
        classical=bool(lo >= 1.0),
        purity=float(np.exp(-0.5 * log_det)),
        valid=valid,
        min_symplectic_eigenvalue=nu,
        physical=bool(nu >= 1.0 - PHYSICAL_TOL),
    )


def check_positive(lowest: np.ndarray, lams: np.ndarray) -> None:
    """Raise :class:`InvalidStateError` unless each state of a loop's stack has
    its smallest covariance eigenvalue ``lowest`` > 0; the error names the first
    failing lambda of ``lams``."""
    bad = np.flatnonzero(~(lowest > 0.0))
    if bad.size:
        raise InvalidStateError(
            f"invalid state at lambda = {lams[bad[0]]}: covariance not positive definite")


def require_valid(state: GaussianState | BlochState) -> np.ndarray:
    """V's ascending eigenvalues, the state's cached ``spectrum``, after checking V > 0.

    Cheaper than :func:`validate`: no symplectic spectrum. Every reader of one
    state shares the spectrum, so its factorization runs once per state.
    """
    lo = float(state.spectrum[0])
    if not lo > 0.0:
        raise InvalidStateError(f"invalid state: min covariance eigenvalue {lo:.6g} <= 0")
    return state.spectrum
