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

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonIntegerWindingError, RefinementExhaustedError
from .polarization import (_bloch_terms, _check_abs_T, _cholesky_log_det_half, _dense_terms,
                           _eigh_whitening, shift_phases)
from .states import LatticeSpec, _cayley_transform, checked_bloch_moments, checked_moments

CLOSURE_TOL = 1e-12
WINDING_RESIDUAL_TOL = 1e-3
# A segment is bisected while its endpoint phases jump by at least
# PHASE_STEP_TOL; refinement gives up beyond MAX_SAMPLES samples.
PHASE_STEP_TOL = math.pi / 2
MAX_SAMPLES = 2 ** 20


def check_initial_samples(initial_samples: int) -> None:
    """Require at least 8 uniform segments, their points within MAX_SAMPLES."""
    if not 8 <= initial_samples < MAX_SAMPLES:
        raise ValueError(f"initial sample count must be in [8, {MAX_SAMPLES - 1}], "
                         f"got {initial_samples}")


@dataclass(frozen=True)
class ParameterLoop:
    """Closed path of Gaussian states on ``lattice``, sampled a lambda array at a time.

    ``sampler(lams)`` takes a 1-D float array of lambdas in [0, 1] and
    returns the states there in one of two shapes:

    * dense: covariances (len(lams), 2nL, 2nL) and means (len(lams), 2nL),
      evaluated on the 2nL-dimensional matrices;
    * Bloch: the Bloch blocks (len(lams), L, 2n, 2n) of translation-invariant
      states, as :class:`~bosepol.states.BlochState` holds them, and their
      cell means (len(lams), 2n), evaluated on the reduced 2n x 2n path.

    The path must close, state(1) = state(0): the covariance or blocks and
    the mean are each checked to 1e-12 relative to their scale.
    ``initial_samples`` uniform segments, sampled in one call, are bisected
    until no phase step reaches PHASE_STEP_TOL; each level of bisection is
    one more call, with its midpoints ascending. Every built-in loop, and
    the k_y family of :func:`chern_via_polarization`, samples its lambdas
    as a stack.
    """

    lattice: LatticeSpec
    sampler: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    initial_samples: int = 16

    def __post_init__(self):
        check_initial_samples(self.initial_samples)


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
    zero_count: int


def _wrap(d: float) -> float:
    """Reduce an angle difference to [-pi, pi)."""
    return (d + math.pi) % (2.0 * math.pi) - math.pi


def _refine_on_phase(evaluate: Callable[[np.ndarray], tuple[np.ndarray, ...]],
                     initial_samples: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Sample [0, 1] until adjacent principal-phase jumps are below PHASE_STEP_TOL.

    ``evaluate`` maps an ascending lambda array to record arrays, the first
    the principal phases. It gets the uniform grid in one call, then one call
    per level of bisection: the midpoints of every segment whose own
    endpoints jump by PHASE_STEP_TOL or more. Returns the ascending sample
    positions and their records.
    """
    lams = np.linspace(0.0, 1.0, initial_samples + 1)
    records = evaluate(lams)
    while True:
        jumps = np.flatnonzero(np.abs(_wrap(np.diff(records[0]))) >= PHASE_STEP_TOL)
        if not jumps.size:
            return lams, records
        a, b = lams[jumps], lams[jumps + 1]
        mids = 0.5 * (a + b)
        if ((mids <= a) | (mids >= b)).any():
            raise RefinementExhaustedError(
                "refinement exhausted: phase jump persists at "
                "floating-point resolution (|det| may be vanishing)"
            )
        if len(lams) + len(mids) > MAX_SAMPLES:
            raise RefinementExhaustedError(
                f"refinement exhausted: {MAX_SAMPLES} samples without "
                f"meeting the phase-jump tolerance {PHASE_STEP_TOL:.3f}"
            )
        lams = np.insert(lams, jumps + 1, mids)
        records = tuple(np.insert(r, jumps + 1, m) for r, m in zip(records, evaluate(mids)))


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

    The uniform grid is one sampler call and each level of bisection one
    more, so no lambda is sampled twice. The first call's shape picks the
    kernel: Bloch blocks (4-D) the reduced one, covariances (3-D) the dense
    one. Every call's stack is checked as :class:`BlochState` or
    :class:`GaussianState` checks one state, and the grid's lambda = 0 and 1
    give the closure check, of the covariances or blocks and of the means,
    before anything is factorized.

    The shift is fixed along the loop, and each call's stack goes through
    the kernel that :func:`bosepol.polarization.polarization` takes for one
    state. Beside the kernel the stack is checked positive definite, naming
    the first failing lambda, and gives the kernel its log-determinant: the
    blocks by a stacked Cholesky factorization, whose Cholesky factors of
    (v_k + 1) / 2 give log det((V + 1) / 2), the covariances from the
    ascending eigenvalues of the ``eigh`` that whitens them, so a dense
    sample is factorized once. The reduced kernel evaluates
    det(1 - P) = det(1 - W) on the 2n x 2n blocks, and the mean terms from
    one solve of the stacked 1 - P, so each sample costs O(L n^3) and no
    2nL-dimensional matrix is formed.

    Consecutive phase differences are reduced to [-pi, pi) and summed
    cumulatively from phases[0], which either kernel gives on the homotopy
    branch at lambda = 0. So the reported values agree with the pointwise
    polarization there, and the phase unwrapped along the loop, from which
    :func:`winding_number` counts zeros, is not produced by that branch rule.
    A sample with |<T>| > 1 violates V + i Omega >= 0 and raises
    :class:`InvalidStateError`.
    """
    lattice = loop.lattice
    shift = shift_phases(lattice)
    paths = []  # whether the grid call picked the Bloch kernel

    def evaluate(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        V, mean = loop.sampler(lams)
        grid = not paths  # the uniform grid, from lambda = 0 to 1
        if grid:
            paths.append(np.ndim(V) == 4)
        bloch = paths[0]
        if bloch:
            V, mean = checked_bloch_moments(lattice, V, mean, (len(lams),))
        else:
            V, mean = checked_moments(lattice.dim, V, mean, (len(lams),))
        if grid:
            for name, x in (("V", V), ("mean", mean)):
                closure = float(np.abs(x[-1] - x[0]).max())
                if closure > CLOSURE_TOL * max(1.0, float(np.abs(x[0]).max())):
                    raise ValueError(
                        f"loop does not close: ||{name}(1) - {name}(0)|| = {closure:.3e}")
        if bloch:
            log_det_half = _cholesky_log_det_half(V, lams)  # checks the blocks first
            return _bloch_terms(_cayley_transform(V.swapaxes(0, 1)), log_det_half, mean, shift)
        return _dense_terms(*_eigh_whitening(V, lams), mean, shift)

    lams, (phases, means, log_abs) = _refine_on_phase(evaluate, loop.initial_samples)
    worst = int(log_abs.argmax())
    _check_abs_T(log_abs[worst], f" at lambda = {lams[worst]}")
    det_term = -0.5 * _unwrap(phases[0], phases)
    return PolarizationTrack(
        lambdas=lams,
        p_unwrapped=(det_term + means.imag) / (2.0 * math.pi),
        abs_T=np.exp(log_abs),
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
        zero_count=_integer_winding(det_phase_change, "determinant winding"),
    )


def polarization_winding(track: PolarizationTrack) -> int:
    """Integer winding Delta P of the tracked polarization over the loop."""
    delta_p = float(track.p_unwrapped[-1] - track.p_unwrapped[0])
    return _integer_winding(2.0 * math.pi * delta_p, "polarization winding")


def winding_of_values(fn: Callable[[float], complex], initial_samples: int = 16) -> int:
    """Winding number of a closed complex-valued path fn(lambda), lambda in [0, 1].

    Synthetic-detector entry point: used to validate the zero-count machinery
    on functions with planted windings. A non-finite value raises
    ``ValueError`` naming its lambda.
    """

    def evaluate(lams: np.ndarray) -> tuple[np.ndarray]:
        zs = [complex(fn(lam)) for lam in lams.tolist()]
        for lam, z in zip(lams, zs):
            if not cmath.isfinite(z):
                raise ValueError(f"path value {z} at lambda = {lam} is not finite")
        if 0 in zs:
            raise RefinementExhaustedError("path passes exactly through zero")
        return (np.array([math.atan2(z.imag, z.real) for z in zs]),)

    check_initial_samples(initial_samples)
    _, (phases,) = _refine_on_phase(evaluate, initial_samples)
    return _integer_winding(_unwrap(0.0, phases)[-1], "winding")


def chern_via_polarization(
    lattice: LatticeSpec,
    family: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    samples: int = 32,
) -> int:
    """Winding of the momentum-resolved polarization over a transverse zone.

    ``family(kys)`` maps an array of k_y in [0, 2 pi] to translation-invariant
    1D Gaussian states on ``lattice`` (periodic in k_y), in either sampler
    shape of :class:`ParameterLoop`: Bloch blocks (len(kys), L, 2n, 2n) and
    cell means (len(kys), 2n), or covariances (len(kys), 2nL, 2nL) and means
    (len(kys), 2nL). It is sampled as the loop lambda -> 2 pi lambda. The
    winding of P(k_y) is the Chern number of the construction; it vanishes
    for every bosonic Gaussian family.
    """
    return polarization_winding(_chern_track(lattice, family, samples))


def _chern_track(lattice: LatticeSpec, family: Callable, samples: int) -> PolarizationTrack:
    """The track of :func:`chern_via_polarization`: ``family`` on the loop
    lambda -> k_y = 2 pi lambda."""
    loop = ParameterLoop(lattice, lambda lams: family(2.0 * math.pi * lams), samples)
    return track_polarization(loop)
