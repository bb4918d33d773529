"""Independent Fock-space oracles for the momentum-shift expectation value.

The shift acts on each independent photon-number variable m of a
number-diagonal state as e^{i theta m}, so <T> = prod_f sum_m p_f(m)
e^{i theta_f m}. An :class:`OracleCase` carries a Gaussian state, its shift,
the closed form of <T> and one (theta_f, p_f(0..cutoff)) factor per
variable; :func:`oracle_fock_truncated` takes the product in the truncated
basis. The four builders certify the Gaussian closed form on one and two
modes before it is trusted at scale. Their weights and closed forms:

    coherent:  Poisson, mean |alpha|^2;  exp(sum_j (e^{i theta_j} - 1) |alpha_j|^2)
    thermal:   (1 - q) q^m, q = nbar / (nbar + 1);  (1 - q) / (1 - q e^{i theta})
    squeezed:  even m only;  1 / sqrt(cosh^2 r - e^{2 i theta} sinh^2 r)
    TMSV:      (1 - t^2) t^{2m}, t = tanh r, for the locked pair count m at
               phase theta_1 + theta_2;  (1 - t^2) / (1 - t^2 e^{i (theta_1 + theta_2)})
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError
from .polarization import ShiftSpec
from .states import (
    GaussianState,
    coherent_state,
    make_lattice,
    squeezed_vacuum_state,
    two_mode_squeezed_state,
)

TAIL_BUDGET = 1e-9


@dataclass(frozen=True)
class OracleCase:
    """One oracle case: Gaussian state and shift, closed form of <T>, and one
    (phase, p_0..p_cutoff) factor per independent photon-number variable."""

    kind: str
    state: GaussianState
    shift: ShiftSpec
    closed: complex
    factors: tuple[tuple[float, np.ndarray], ...]


def oracle_coherent(thetas, amplitudes) -> complex:
    """exp(sum (e^{i theta} - 1) |alpha|^2) for a product of coherent states."""
    thetas = np.asarray(thetas, dtype=float)
    amps = np.asarray(amplitudes, dtype=complex)
    return complex(np.exp(np.sum((np.exp(1j * thetas) - 1.0) * np.abs(amps) ** 2)))


def oracle_thermal_mode(theta: float, nbar: float) -> complex:
    """Geometric series sum_m (1-q) q^m e^{i theta m} for one thermal mode."""
    if nbar < 0:
        raise ValueError("occupation must be nonnegative")
    q = nbar / (nbar + 1.0)
    return complex((1.0 - q) / (1.0 - q * np.exp(1j * theta)))


def oracle_squeezed(theta: float, r: float) -> complex:
    """Single-mode squeezed vacuum closed form, principal branch.

    The argument cosh^2 r - e^{2 i theta} sinh^2 r has real part >= 1, so the
    principal square root is continuous in theta from the value 1 at theta=0.
    """
    z = np.cosh(r) ** 2 - np.exp(2j * theta) * np.sinh(r) ** 2
    return complex(1.0 / np.sqrt(z))


def oracle_tmsv(theta1: float, theta2: float, r: float) -> complex:
    """Two-mode squeezed vacuum: photon numbers locked, depends on theta1+theta2."""
    t2 = np.tanh(r) ** 2
    return complex((1.0 - t2) / (1.0 - t2 * np.exp(1j * (theta1 + theta2))))


def _number_grid(cutoff: int) -> np.ndarray:
    """Photon numbers 0..cutoff of the truncated basis."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    return np.arange(cutoff + 1)


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """ln n! elementwise, from math.lgamma."""
    return np.array([math.lgamma(k + 1.0) for k in n.tolist()])


def _poisson(lam: float, m: np.ndarray) -> np.ndarray:
    """Poisson weights of mean ``lam`` at photon numbers ``m``."""
    # m log(lam), whose m = 0 term is 0 also at lam = 0 (all weight on m = 0).
    m_log_lam = m * math.log(lam) if lam > 0.0 else np.where(m == 0, 0.0, -np.inf)
    return np.exp(m_log_lam - _log_factorial(m) - lam)


def _geometric(q: float, m: np.ndarray) -> np.ndarray:
    """Weights (1 - q) q^m, all on m = 0 when q = 0."""
    return (1.0 - q) * q ** m.astype(float) if q > 0.0 else (m == 0).astype(float)


def _squeezed_weights(r: float, m: np.ndarray) -> np.ndarray:
    """p_{2k} = (2k)! tanh^{2k} r / (4^k k!^2 cosh r); odd photon numbers are empty."""
    t = np.tanh(r)
    if t == 0.0:
        return (m == 0).astype(float)
    pairs = m[::2] // 2
    p = np.zeros(len(m))
    p[::2] = np.exp(
        _log_factorial(m[::2]) - 2.0 * _log_factorial(pairs) - pairs * math.log(4.0)
        + 2.0 * pairs * math.log(abs(t)) - math.log(math.cosh(r))
    )
    return p


def _modes_case(kind, state: GaussianState, thetas, closed, weights) -> OracleCase:
    """A case of independent modes: one factor per mode, at the mode's phase."""
    shift = ShiftSpec(state.lattice, thetas)  # one phase per mode
    phases = shift.phases.tolist()
    return OracleCase(kind, state, shift, closed, tuple(zip(phases, weights)))


def coherent_case(thetas, amplitudes, cutoff: int) -> OracleCase:
    """Product of coherent states, one per phase: Poisson photon numbers."""
    m = _number_grid(cutoff)
    amps = tuple(complex(a) for a in amplitudes)
    state = coherent_state(make_lattice(1, len(amps)), np.asarray(amps))
    weights = [_poisson(abs(a) ** 2, m) for a in amps]
    return _modes_case("coherent", state, thetas, oracle_coherent(thetas, amps), weights)


def thermal_case(thetas, nbar, cutoff: int) -> OracleCase:
    """Product of thermal modes, one per phase: geometric photon numbers."""
    m = _number_grid(cutoff)
    closed = math.prod(map(oracle_thermal_mode, thetas, nbar))  # rejects nbar < 0
    lattice = make_lattice(1, len(nbar))
    V = np.diag(np.repeat(2.0 * np.asarray(nbar, dtype=float) + 1.0, 2))
    state = GaussianState(lattice, V, np.zeros(lattice.dim))
    weights = [_geometric(x / (x + 1.0), m) for x in nbar]
    return _modes_case("thermal", state, thetas, closed, weights)


def squeezed_case(thetas, r, cutoff: int) -> OracleCase:
    """Product of squeezed vacua, one per phase: even photon numbers only."""
    m = _number_grid(cutoff)
    closed = math.prod(map(oracle_squeezed, thetas, r))
    state = squeezed_vacuum_state(make_lattice(1, len(r)), np.asarray(r, dtype=float))
    weights = [_squeezed_weights(x, m) for x in r]
    return _modes_case("squeezed_vacuum", state, thetas, closed, weights)


def tmsv_case(thetas, r: float, cutoff: int) -> OracleCase:
    """Two-mode squeezed vacuum on two one-site cells. Both modes hold the same
    photon number, so its one factor has phase theta_1 + theta_2."""
    m = _number_grid(cutoff)
    state = two_mode_squeezed_state(r)
    shift = ShiftSpec(state.lattice, thetas)  # two phases
    theta1, theta2 = shift.phases.tolist()
    return OracleCase(
        "two_mode_squeezed", state, shift, oracle_tmsv(theta1, theta2, r),
        ((theta1 + theta2, _geometric(math.tanh(r) ** 2, m)),),
    )


def oracle_fock_truncated(case: OracleCase) -> complex:
    """prod_f sum_{m <= cutoff} p_f(m) e^{i theta_f m} in the truncated basis.

    The probability weight above the cutoff, summed over the factors, must
    stay within TAIL_BUDGET; otherwise :class:`CutoffError` is raised.
    """
    tail = sum(max(0.0, 1.0 - p.sum()) for _, p in case.factors)
    if tail > TAIL_BUDGET:
        raise CutoffError(
            f"cutoff too small: truncation tail {tail:.3e} exceeds {TAIL_BUDGET}"
        )
    value = 1.0 + 0.0j
    for theta, p in case.factors:
        value *= np.sum(p * np.exp(1j * theta * np.arange(len(p))))
    return complex(value)


def default_theta_grid(points: int = 16) -> np.ndarray:
    """Phases strictly inside (0, 2 pi), avoiding the gauge origin."""
    return 2.0 * np.pi * (np.arange(points) + 0.5) / points


def standard_cases(cutoff: int = 160, points: int = 16) -> list[OracleCase]:
    """The oracle matrix: every builder across a theta grid (112 cases at 16 points)."""
    grid = default_theta_grid(points).tolist()
    cases: list[OracleCase] = []
    for theta in grid:
        cases.append(coherent_case((theta,), (0.6 + 0.8j,), cutoff))
        cases += [thermal_case((theta,), (nbar,), cutoff) for nbar in (0.1, 1.0, 5.0)]
        cases += [squeezed_case((theta,), (r,), cutoff) for r in (0.3, 0.8814)]
    for i, theta in enumerate(grid):
        cases.append(tmsv_case((theta, grid[(i + 5) % points]), 0.55, cutoff))
    return cases
