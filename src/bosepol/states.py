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
from dataclasses import dataclass

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
        r = np.repeat(np.arange(self.cells), self.sites_per_cell)
        s = np.tile(np.arange(self.sites_per_cell), self.cells)
        return r + (s + self.gauge_offset) / self.sites_per_cell


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
    """

    lattice: LatticeSpec
    V: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        V, mean = checked_moments(self.lattice.dim, self.V, self.mean)
        object.__setattr__(self, "V", _as_readonly(V))
        object.__setattr__(self, "mean", _as_readonly(mean))

    @property
    def modes(self) -> int:
        return self.lattice.modes


@dataclass(frozen=True)
class ModeOccupation:
    """Eigenmode data of stacked hopping matrices (..., N, N) at thermal equilibrium."""

    energies: np.ndarray
    occupations: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        if np.any(self.occupations < 0):
            raise ValueError("occupations must be nonnegative")
        U = self.eigenvectors
        defect = np.abs(U.conj().swapaxes(-1, -2) @ U - np.eye(U.shape[-1])).max()
        if defect > 1e-10:
            raise ValueError(f"eigenvector matrix not unitary (defect {defect:.3e})")


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


def vacuum_state(lattice: LatticeSpec) -> GaussianState:
    return coherent_state(lattice, np.zeros(lattice.modes))


def bose_occupations(hopping: np.ndarray, beta: float, mu: float) -> ModeOccupation:
    """Diagonalize hermitian hopping matrices (..., N, N) in one stacked ``eigh`` and
    attach Bose-Einstein occupations. Every eigenvalue of every matrix must satisfy
    ``eps - mu > 0``; otherwise the grand-canonical occupation is undefined."""
    h = np.asarray(hopping, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2]:
        raise ValueError("hopping matrix must be square")
    defect = np.abs(h - h.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    if np.any(defect > 1e-10 * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))):
        raise ValueError("hopping matrix must be hermitian")
    if not beta > 0:
        raise ValueError(f"inverse temperature beta must be positive, got {beta}")
    energies, vectors = np.linalg.eigh(h)
    gap = energies - mu
    if not np.all(gap > 0):
        raise ChemicalPotentialError(
            f"chemical potential not below the band minimum: min(eps - mu) = {gap.min():.6g}"
        )
    with np.errstate(over="ignore"):
        occ = 1.0 / np.expm1(beta * gap)
    return ModeOccupation(energies=energies, occupations=occ, eigenvectors=vectors)


def thermal_covariances(hopping: np.ndarray, beta: float, mu: float) -> np.ndarray:
    """Covariances (..., 2N, 2N) of the grand-canonical thermal states of hopping
    matrices (..., N, N): with N = sum_j nbar_j v_j v_j^dag in the site basis and
    nbar_j = 1/(exp(beta (eps_j - mu)) - 1), V[q_i q_j] = V[p_i p_j] = delta_ij +
    2 Re N_ij and V[q_i p_j] = -V[p_i q_j] = 2 Im N_ij. Strictly classical
    (V > 1) at any finite temperature."""
    modes = bose_occupations(hopping, beta, mu)
    U = modes.eigenvectors
    N = (U * modes.occupations[..., None, :]) @ U.conj().swapaxes(-1, -2)
    dim = 2 * N.shape[-1]
    V = np.empty((*N.shape[:-2], dim, dim))
    V[..., 0::2, 0::2] = V[..., 1::2, 1::2] = 2.0 * N.real
    V[..., 0::2, 1::2] = 2.0 * N.imag
    V[..., 1::2, 0::2] = -2.0 * N.imag
    V += np.eye(dim)
    return (V + V.swapaxes(-1, -2)) / 2.0


def thermal_state(hopping: np.ndarray, beta: float, mu: float, lattice: LatticeSpec) -> GaussianState:
    """Grand-canonical thermal state of one hopping matrix: :func:`thermal_covariances`
    with zero mean."""
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
    on a two-cell, one-site lattice (the state is cell-circulant there).
    """
    c, s = np.cosh(2.0 * r), np.sinh(2.0 * r)
    Z = np.diag([1.0, -1.0])
    V = np.block([[c * np.eye(2), s * Z], [s * Z, c * np.eye(2)]])
    return GaussianState(make_lattice(2, 1), V, np.zeros(4))


def symplectic_form(modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for the (q, p)-innermost ordering."""
    return np.kron(np.eye(modes), [[0.0, 1.0], [-1.0, 0.0]])


# Taylor degree of the scaled exponential: with ||X||_1 <= 1/2 the remainder
# is below e^0.5 0.5^17 / 17! ~ 4e-20, far under double rounding.
_EXPM_DEGREE = 16


def _expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by Taylor scaling and squaring.

    A is scaled by 2^-s so that ||A / 2^s||_1 <= 1/2, the Taylor polynomial
    of the scaled matrix is summed, and the sum is squared s times
    (the scaling step follows Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005), with a Taylor polynomial in place of the Pade approximant).
    """
    norm = float(np.abs(A).sum(axis=0).max())
    s = max(0, math.ceil(math.log2(2.0 * norm))) if norm > 0.0 else 0
    X = A / 2.0**s
    term = np.eye(A.shape[0])
    E = term.copy()
    for k in range(1, _EXPM_DEGREE + 1):
        term = term @ X / k
        E += term
    for _ in range(s):
        E = E @ E
    return E


def random_gaussian_state(
    lattice: LatticeSpec,
    seed: int,
    classical: bool = False,
    mean_scale: float = 0.0,
) -> GaussianState:
    """Seeded random Gaussian state ``V = S D S^T`` with S symplectic.

    S is the exponential of Omega G, G a random symmetric generator with
    entries of scale 0.3 / sqrt(dim); D carries thermal occupations drawn
    uniformly from [0, 1.5). With
    ``classical=True`` the covariance is rescaled so its smallest eigenvalue
    is >= 1. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    dim = lattice.dim
    A = rng.normal(size=(dim, dim))
    G = 0.3 * (A + A.T) / np.sqrt(2.0 * dim)
    S = _expm(symplectic_form(lattice.modes) @ G)
    nbar = rng.uniform(0.0, 1.5, size=lattice.modes)
    D = np.repeat(2.0 * nbar + 1.0, 2)
    V = (S * D) @ S.T
    V = (V + V.T) / 2.0
    if classical:
        lo = np.linalg.eigvalsh(V)[0]
        if lo < 1.0:
            V = V * ((1.0 + 1e-9) / lo)
    mean = mean_scale * rng.normal(size=dim) if mean_scale else np.zeros(dim)
    return GaussianState(lattice, V, mean)


def validate(state: GaussianState) -> ValidationReport:
    """Report spectral floor, classicality, purity and physicality.

    ``valid`` only asks V > 0. ``physical`` asks the uncertainty relation
    V + i Omega >= 0, i.e. a smallest symplectic eigenvalue >= 1 (Williamson;
    Simon, Mukunda and Dutta, PRA 49, 1567 (1994)). The symplectic
    eigenvalues are the moduli of eig(i Omega V), read here from the similar
    Hermitian matrix R^T (i Omega) R with V = R R^T. ``GaussianState``
    stores V exactly symmetric, so there is no symmetry defect to report.
    """
    eigs = np.linalg.eigvalsh(state.V)
    lo = float(eigs[0])
    valid = lo > 0.0
    purity = float(np.exp(-0.5 * np.sum(np.log(eigs)))) if valid else float("nan")
    nu = float("nan")
    if valid:
        R = np.linalg.cholesky(state.V)
        herm = 1j * (R.T @ symplectic_form(state.modes) @ R)
        nu = float(np.abs(np.linalg.eigvalsh(herm)).min())
    return ValidationReport(
        min_eigenvalue=lo,
        classical=bool(lo >= 1.0),
        purity=purity,
        valid=valid,
        min_symplectic_eigenvalue=nu,
        physical=bool(nu >= 1.0 - PHYSICAL_TOL),
    )


def check_min_eigenvalue(lo: float) -> None:
    """Raise :class:`InvalidStateError` unless the smallest covariance eigenvalue is > 0."""
    if not lo > 0.0:
        raise InvalidStateError(f"invalid state: min covariance eigenvalue {lo:.6g} <= 0")


def require_valid(state: GaussianState) -> np.ndarray:
    """V's ascending eigenvalues, after :func:`check_min_eigenvalue`.

    Cheaper than :func:`validate`: no symplectic spectrum.
    """
    vals = np.linalg.eigvalsh(state.V)
    check_min_eigenvalue(float(vals[0]))
    return vals
