"""Independent Fock-space oracles for the momentum-shift expectation value.

The shift operator is diagonal in the number basis, acting as exp(i theta m)
per mode, so for states with known Fock expansions the expectation reduces
to explicit sums. These closed forms and their truncated-basis versions
certify the Gaussian closed form on one and two modes before it is trusted
at scale:

    coherent:   exp(sum_j (e^{i theta_j} - 1) |alpha_j|^2)
    thermal:    (1 - q) / (1 - q e^{i theta}),   q = nbar / (nbar + 1)
    squeezed:   1 / sqrt(cosh^2 r - e^{2 i theta} sinh^2 r)
    TMSV:       (1 - t^2) / (1 - t^2 e^{i (theta_1 + theta_2)}),  t = tanh r
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

KINDS = ("coherent", "thermal", "squeezed_vacuum", "two_mode_squeezed")


@dataclass(frozen=True)
class OracleSpec:
    """One oracle case: state kind, per-mode parameters, shift phases, cutoff."""

    kind: str
    thetas: tuple[float, ...]
    amplitudes: tuple[complex, ...] = ()
    nbar: tuple[float, ...] = ()
    r: tuple[float, ...] = ()
    cutoff: int = 64

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown state kind {self.kind!r}")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))
        object.__setattr__(self, "amplitudes", tuple(complex(a) for a in self.amplitudes))
        object.__setattr__(self, "nbar", tuple(float(x) for x in self.nbar))
        object.__setattr__(self, "r", tuple(float(x) for x in self.r))
        if self.kind == "two_mode_squeezed":
            if len(self.thetas) != 2 or len(self.r) != 1:
                raise ValueError("two_mode_squeezed needs two phases and one r")
        elif self.kind == "coherent":
            if len(self.amplitudes) != len(self.thetas):
                raise ValueError("need one amplitude per phase")
        elif self.kind == "thermal":
            if len(self.nbar) != len(self.thetas):
                raise ValueError("need one occupation per phase")
        elif self.kind == "squeezed_vacuum":
            if len(self.r) != len(self.thetas):
                raise ValueError("need one squeezing parameter per phase")


@dataclass(frozen=True)
class TruncatedFockResult:
    value: complex
    tail_mass: float


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


def closed_form(spec: OracleSpec) -> complex:
    """Dispatch to the closed-form oracle for ``spec``."""
    if spec.kind == "coherent":
        return oracle_coherent(spec.thetas, spec.amplitudes)
    if spec.kind == "thermal":
        val = 1.0 + 0.0j
        for theta, nbar in zip(spec.thetas, spec.nbar):
            val *= oracle_thermal_mode(theta, nbar)
        return val
    if spec.kind == "squeezed_vacuum":
        val = 1.0 + 0.0j
        for theta, r in zip(spec.thetas, spec.r):
            val *= oracle_squeezed(theta, r)
        return val
    return oracle_tmsv(spec.thetas[0], spec.thetas[1], spec.r[0])


def _log_factorial(n: np.ndarray) -> np.ndarray:
    """ln n! elementwise, from math.lgamma."""
    return np.array([math.lgamma(k + 1.0) for k in n.tolist()])


def _mode_distribution(spec: OracleSpec, j: int) -> np.ndarray:
    """Fock probabilities p_0..p_cutoff of mode ``j`` (kind-dependent)."""
    m = np.arange(spec.cutoff + 1)
    if spec.kind == "coherent":
        lam = abs(spec.amplitudes[j]) ** 2
        # m log(lam), whose m = 0 term is 0 also at lam = 0 (all weight on m = 0).
        m_log_lam = m * math.log(lam) if lam > 0.0 else np.where(m == 0, 0.0, -np.inf)
        return np.exp(m_log_lam - _log_factorial(m) - lam)
    if spec.kind == "thermal":
        nbar = spec.nbar[j]
        q = nbar / (nbar + 1.0)
        if q == 0.0:
            p = np.zeros(spec.cutoff + 1)
            p[0] = 1.0
            return p
        return (1.0 - q) * q ** m.astype(float)
    if spec.kind == "squeezed_vacuum":
        r = spec.r[j]
        p = np.zeros(spec.cutoff + 1)
        pairs = np.arange((spec.cutoff) // 2 + 1)
        t = np.tanh(r)
        if t == 0.0:
            p[0] = 1.0
            return p
        logp = (
            _log_factorial(2 * pairs)
            - 2.0 * _log_factorial(pairs)
            - pairs * math.log(4.0)
            + 2.0 * pairs * math.log(abs(t))
            - math.log(math.cosh(r))
        )
        p[2 * pairs] = np.exp(logp)
        return p
    raise ValueError(spec.kind)


def oracle_fock_truncated(spec: OracleSpec) -> TruncatedFockResult:
    """Tr[rho diag(e^{i theta m})] in the truncated number basis.

    All supported states are diagonal in the (joint) number basis, so the
    trace is a weighted phase sum. The reported tail mass is the exact
    probability weight above the cutoff; exceeding the 1e-9 budget raises
    :class:`CutoffError`.
    """
    if spec.kind == "two_mode_squeezed":
        t2 = math.tanh(spec.r[0]) ** 2
        m = np.arange(spec.cutoff + 1)
        p = (1.0 - t2) * t2 ** m.astype(float) if t2 > 0 else np.eye(1, spec.cutoff + 1)[0]
        tail = 1.0 - p.sum()
        value = complex(np.sum(p * np.exp(1j * (spec.thetas[0] + spec.thetas[1]) * m)))
    else:
        value = 1.0 + 0.0j
        tail = 0.0
        m = np.arange(spec.cutoff + 1)
        for j, theta in enumerate(spec.thetas):
            p = _mode_distribution(spec, j)
            tail += max(0.0, 1.0 - p.sum())
            value *= np.sum(p * np.exp(1j * theta * m))
        value = complex(value)
    if tail > TAIL_BUDGET:
        raise CutoffError(
            f"cutoff too small: truncation tail {tail:.3e} exceeds {TAIL_BUDGET}"
        )
    return TruncatedFockResult(value=value, tail_mass=float(tail))


def gaussian_equivalent(spec: OracleSpec) -> tuple[GaussianState, ShiftSpec]:
    """Gaussian state and shift spec matching an oracle case."""
    modes = len(spec.thetas)
    if spec.kind == "two_mode_squeezed":
        state = two_mode_squeezed_state(spec.r[0])
        return state, ShiftSpec(state.lattice, np.asarray(spec.thetas))
    lattice = make_lattice(1, modes)
    if spec.kind == "coherent":
        state = coherent_state(lattice, np.asarray(spec.amplitudes))
    elif spec.kind == "thermal":
        diag = np.repeat(2.0 * np.asarray(spec.nbar) + 1.0, 2)
        state = GaussianState(lattice, np.diag(diag), np.zeros(lattice.dim))
    else:
        state = squeezed_vacuum_state(lattice, np.asarray(spec.r))
    return state, ShiftSpec(lattice, np.asarray(spec.thetas))


def default_theta_grid(points: int = 16) -> np.ndarray:
    """Phases strictly inside (0, 2 pi), avoiding the gauge origin."""
    return 2.0 * np.pi * (np.arange(points) + 0.5) / points


def standard_cases(cutoff: int = 160, points: int = 16) -> list[OracleSpec]:
    """The oracle matrix: every supported state kind across a theta grid."""
    grid = default_theta_grid(points)
    cases: list[OracleSpec] = []
    for theta in grid:
        cases.append(
            OracleSpec("coherent", (theta,), amplitudes=(0.6 + 0.8j,), cutoff=cutoff)
        )
        for nbar in (0.1, 1.0, 5.0):
            cases.append(OracleSpec("thermal", (theta,), nbar=(nbar,), cutoff=cutoff))
        for r in (0.3, 0.8814):
            cases.append(OracleSpec("squeezed_vacuum", (theta,), r=(r,), cutoff=cutoff))
    for i, theta in enumerate(grid):
        theta2 = grid[(i + 5) % points]
        cases.append(
            OracleSpec("two_mode_squeezed", (theta, theta2), r=(0.55,), cutoff=cutoff)
        )
    return cases
