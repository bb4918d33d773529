"""Polarization winding along closed parameter loops, and zero-count detectors.

The polarization of a Gaussian state can only change by the winding of
det(1 - W) around the origin as the state is driven around a closed loop.
Every positive-definite covariance gives ||W|| < 1, so the determinant never
vanishes and its winding (the number of zeros enclosed by the loop, by the
argument principle) is forced to zero. Three consequences are checked here
numerically rather than assumed:

* the tracked polarization returns to its starting value, Delta P = 0;
* the argument-principle zero count M of det(1 - W(lambda)) is 0;
* the momentum-resolved polarization across a transverse Brillouin zone
  winds zero times, so the associated Chern number vanishes.

The detectors themselves are validated on synthetic complex functions with
planted windings, so the null result on physical states is not an artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import NonIntegerWindingError, RefinementExhaustedError
from .polarization import (
    branch_phase_eigenvalues,
    cayley_spectrum,
    mean_matrix,
    _mean_term_from_matrix,
    quadrature_phase_factors,
    shift_phases,
)
from .states import GaussianState

CLOSURE_TOL = 1e-12
WINDING_RESIDUAL_TOL = 1e-3


@dataclass(frozen=True)
class ParameterLoop:
    """Closed path of Gaussian states, sampled by ``sampler(lambda)``.

    ``sampler`` must be defined on [0, 1] with state(1) = state(0) (the
    covariance closure is checked to 1e-12). ``tolerance`` is the largest
    accepted per-step phase jump of det(1 - W) before a segment is bisected.
    """

    sampler: Callable[[float], GaussianState]
    initial_samples: int = 16
    tolerance: float = math.pi / 2
    max_samples: int = 2 ** 20
    label: str = ""

    def __post_init__(self):
        if self.initial_samples < 8:
            raise ValueError("initial sample count must be >= 8")
        if not (0.0 < self.tolerance <= math.pi):
            raise ValueError("tolerance must lie in (0, pi]")


@dataclass(frozen=True)
class PolarizationTrack:
    """Continuously tracked polarization data along a loop."""

    lambdas: np.ndarray
    p_unwrapped: np.ndarray
    abs_T: np.ndarray
    det_term_phase: np.ndarray
    mean_term: np.ndarray


@dataclass(frozen=True)
class WindingResult:
    """Loop invariants: polarization change and determinant zero count."""

    delta_p: float
    nearest_half_integer: Fraction
    zero_count: int
    samples: list[tuple[float, float]] = field(repr=False)

    @property
    def half_integer_residual(self) -> float:
        return abs(self.delta_p - float(self.nearest_half_integer))


def _wrap(d: float) -> float:
    """Reduce an angle difference to [-pi, pi)."""
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _refine_on_phase(
    evaluate: Callable[[float], tuple],
    initial_samples: int,
    tolerance: float,
    max_samples: int,
):
    """Sample [0, 1] until adjacent principal-phase jumps are below tolerance.

    ``evaluate`` returns a record whose first element is the principal phase.
    Returns the ordered sample positions and records.
    """
    cache: dict[float, tuple] = {}

    def sample(lam: float):
        if lam not in cache:
            if len(cache) >= max_samples:
                raise RefinementExhaustedError(
                    f"refinement exhausted: {max_samples} samples without "
                    f"meeting the phase-jump tolerance {tolerance:.3f}"
                )
            cache[lam] = evaluate(lam)
        return cache[lam]

    lams = list(np.linspace(0.0, 1.0, initial_samples + 1))
    lams[0], lams[-1] = 0.0, 1.0
    for lam in lams:
        sample(lam)
    while True:
        refined = []
        changed = False
        for a, b in zip(lams[:-1], lams[1:]):
            refined.append(a)
            if abs(_wrap(sample(b)[0] - sample(a)[0])) >= tolerance:
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    raise RefinementExhaustedError(
                        "refinement exhausted: phase jump persists at "
                        "floating-point resolution (|det| may be vanishing)"
                    )
                sample(mid)
                refined.append(mid)
                changed = True
        refined.append(lams[-1])
        lams = refined
        if not changed:
            return lams, [cache[lam] for lam in lams]


def _integer_winding(total_phase: float, what: str) -> int:
    """Nearest integer to total_phase / 2 pi; raise when it is not one.

    The residual must stay within WINDING_RESIDUAL_TOL, otherwise the path
    was under-sampled or did not close.
    """
    turns = total_phase / (2.0 * math.pi)
    nearest = round(turns)
    if abs(turns - nearest) > WINDING_RESIDUAL_TOL:
        raise NonIntegerWindingError(
            f"{what} {turns:.6f} is not an integer: under-sampled or not closed"
        )
    return int(nearest)


def _unwrap(start: float, phases: np.ndarray) -> np.ndarray:
    """start plus the running sum of the wrapped differences of ``phases``."""
    return np.cumsum(np.concatenate(([start], _wrap(np.diff(phases)))))


def track_polarization(loop: ParameterLoop) -> PolarizationTrack:
    """Sample the loop adaptively and accumulate a continuous polarization.

    Each distinct lambda is sampled once and eigendecomposed once: the
    lambda = 1 state of the closure check is the last sample, and the
    lambda = 0 sample also anchors the branch. Each sample takes the
    principal phase of det(1 - W) from one slogdet; consecutive differences
    are reduced to [-pi, pi) and summed cumulatively from the anchor. The
    anchor is the spectral rule of
    :func:`bosepol.polarization.branch_phase_eigenvalues` on the lambda = 0
    W: ||W|| < 1 puts every eigenvalue mu_j of W inside the unit disk, so
    Re(1 - mu_j) > 0 and sum_j Arg(1 - mu_j) is the phase continued from
    W = 0. The reported values therefore agree with the pointwise
    polarization there.
    """
    state0 = loop.sampler(0.0)
    state1 = loop.sampler(1.0)
    closure = float(np.abs(state1.V - state0.V).max())
    if closure > CLOSURE_TOL * max(1.0, float(np.abs(state0.V).max())):
        raise ValueError(f"loop does not close: ||V(1) - V(0)|| = {closure:.3e}")
    shift = shift_phases(state0.lattice)
    u = quadrature_phase_factors(shift)
    nl = state0.lattice.modes
    log2 = math.log(2.0)

    def evaluate(lam: float):
        state = state0 if lam == 0.0 else state1 if lam == 1.0 else loop.sampler(lam)
        if state.lattice.modes != nl:
            raise ValueError("loop sampler changed the lattice size")
        vals, G = cayley_spectrum(state)
        W = G * u
        sign, logabs = np.linalg.slogdet(np.eye(2 * nl, dtype=complex) - W)
        s = _mean_term_from_matrix(mean_matrix(state, shift), state.mean)
        log_abs_T = nl * log2 - 0.5 * float(np.sum(np.log1p(vals))) - 0.5 * logabs + s.real
        anchor = branch_phase_eigenvalues(W)[0] if lam == 0.0 else None
        return float(np.angle(sign)), s, log_abs_T, anchor

    lams, records = _refine_on_phase(
        evaluate, loop.initial_samples, loop.tolerance, loop.max_samples
    )
    phases, means, log_abs, anchors = zip(*records)
    det_term = -0.5 * _unwrap(anchors[0], np.array(phases))
    means = np.array(means, dtype=complex)
    return PolarizationTrack(
        lambdas=np.array(lams),
        p_unwrapped=(det_term + means.imag) / (2.0 * math.pi),
        abs_T=np.exp(np.array(log_abs)),
        det_term_phase=det_term,
        mean_term=means,
    )


def winding_number(track: PolarizationTrack) -> WindingResult:
    """Delta P over the loop plus the determinant zero count from the same track.

    The zero count is the change of the track's unwrapped determinant phase
    over the loop, in turns; no sample is evaluated again.
    """
    delta_p = float(track.p_unwrapped[-1] - track.p_unwrapped[0])
    det_phase_change = -2.0 * float(track.det_term_phase[-1] - track.det_term_phase[0])
    return WindingResult(
        delta_p=delta_p,
        nearest_half_integer=Fraction(round(2.0 * delta_p), 2),
        zero_count=_integer_winding(det_phase_change, "determinant winding"),
        samples=list(zip(track.lambdas.tolist(), track.p_unwrapped.tolist())),
    )


def polarization_winding(track: PolarizationTrack) -> int:
    """Integer winding Delta P of the tracked polarization over the loop."""
    delta_p = float(track.p_unwrapped[-1] - track.p_unwrapped[0])
    return _integer_winding(2.0 * math.pi * delta_p, "polarization winding")


def zero_count(loop: ParameterLoop) -> int:
    """Argument-principle winding of det(1 - W(lambda)) around zero."""
    return winding_number(track_polarization(loop)).zero_count


def winding_of_values(
    fn: Callable[[float], complex],
    initial_samples: int = 16,
    tolerance: float = math.pi / 2,
    max_samples: int = 2 ** 20,
) -> int:
    """Winding number of a closed complex-valued path fn(lambda), lambda in [0, 1].

    Synthetic-detector entry point: used to validate the zero-count machinery
    on functions with planted windings.
    """

    def evaluate(lam: float):
        z = complex(fn(lam))
        if z == 0:
            raise RefinementExhaustedError("path passes exactly through zero")
        return (math.atan2(z.imag, z.real),)

    _, records = _refine_on_phase(evaluate, initial_samples, tolerance, max_samples)
    phases = np.array([phase for phase, in records])
    return _integer_winding(_unwrap(0.0, phases)[-1], "winding")


def trace_zero_count(
    matrix_fn: Callable[[float], np.ndarray],
    samples: int = 256,
) -> float:
    """Contour-integral zero count (1/2 pi i) Tr oint F^{-1} dF on a coarse grid.

    Midpoint quadrature with finite differences of F; retained as a slower
    cross-check of the accumulated-argument detectors. Returns the raw float
    (close to an integer when the grid resolves the path).
    """
    total = 0.0 + 0.0j
    grid = np.linspace(0.0, 1.0, samples + 1)
    for a, b in zip(grid[:-1], grid[1:]):
        Fa = np.asarray(matrix_fn(a), dtype=complex)
        Fb = np.asarray(matrix_fn(b), dtype=complex)
        Fm = np.asarray(matrix_fn(0.5 * (a + b)), dtype=complex)
        total += np.trace(np.linalg.solve(Fm, Fb - Fa))
    return float((total / (2.0j * math.pi)).real)


def chern_via_polarization(
    family: Callable[[float], GaussianState],
    samples: int = 32,
) -> int:
    """Winding of the momentum-resolved polarization over a transverse zone.

    ``family`` maps k_y in [0, 2 pi] to a translation-invariant 1D Gaussian
    state (periodic in k_y). The winding of P(k_y) is the Chern number of
    the construction; it vanishes for every bosonic Gaussian family.
    """
    loop = ParameterLoop(
        sampler=lambda lam: family(2.0 * math.pi * lam), initial_samples=samples
    )
    return polarization_winding(track_polarization(loop))
