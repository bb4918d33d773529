"""Winding detectors: null results on physical loops, planted synthetic windings."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from bosepol import loops, make_lattice, winding
from bosepol.errors import (
    GapClosureError,
    InvalidStateError,
    NumericalError,
    RefinementExhaustedError,
)
from bosepol.loops import (
    LOOP_NAMES,
    band_chern_number,
    chern_cell_blocks,
    named_loop,
    random_classical_loop,
    random_squeezed_loop,
    reference_protocol,
    rmm_coherent_loop,
    rmm_thermal_loop,
    thermal_chern_family,
)
from bosepol.polarization import (
    polarization,
    quadrature_cotangents,
    shift_phases,
)
from bosepol.circulant import random_bloch_blocks
from bosepol.rice_mele import (
    RiceMeleParams, _bloch_hamiltonians, _ring_hamiltonian, evolve_pump, rmm_thermal_state,
)
from bosepol.states import (
    BlochState,
    GaussianState,
    coherent_state,
    reassemble_covariance,
    thermal_state,
    validate,
)
from bosepol.winding import (
    ParameterLoop,
    chern_via_polarization,
    track_polarization,
    winding_number,
    winding_of_values,
)

WINDING_TOL = 1e-6


def dense_moments(lattice, V, mean):
    """A sampler's covariances and means, dense: Bloch blocks are reassembled and
    cell means tiled."""
    if np.ndim(V) == 4:
        return reassemble_covariance(V), np.tile(mean, lattice.cells)
    return V, mean


def dense_twin(loop):
    """The same loop with a dense sampler, built from the loop's own samples."""
    return dataclasses.replace(
        loop, sampler=lambda lams: dense_moments(loop.lattice, *loop.sampler(lams))
    )


def state_at(loop, lam):
    """The loop's dense state at one lambda, from a one-element sampler call."""
    V, mean = dense_moments(loop.lattice, *loop.sampler(np.array([lam])))
    return GaussianState(loop.lattice, V[0], mean[0])


def constant_sampler(state):
    """A stacked sampler that returns ``state`` at every lambda."""
    return lambda lams: (np.broadcast_to(state.V, (len(lams), *state.V.shape)),
                         np.broadcast_to(state.mean, (len(lams), *state.mean.shape)))


def scaled_vacuum_loop(lattice, scale, initial_samples=16):
    """The loop V(lambda) = scale(lambda) 1 with zero mean; ``scale`` maps a lambda array."""
    eye = np.eye(lattice.dim)
    return ParameterLoop(
        lattice,
        lambda lams: (scale(lams)[:, None, None] * eye, np.zeros((len(lams), lattice.dim))),
        initial_samples,
    )


def trace_zero_count(matrix_fn, samples: int = 256) -> float:
    """Contour-integral zero count (1/2 pi i) Tr oint F^{-1} dF on a coarse grid.

    Midpoint quadrature with finite differences of F; a slower cross-check
    of the accumulated-argument detectors. Returns the raw float (close to
    an integer when the grid resolves the path).
    """
    total = 0.0 + 0.0j
    grid = np.linspace(0.0, 1.0, samples + 1)
    for a, b in zip(grid[:-1], grid[1:]):
        Fa = np.asarray(matrix_fn(a), dtype=complex)
        Fb = np.asarray(matrix_fn(b), dtype=complex)
        Fm = np.asarray(matrix_fn(0.5 * (a + b)), dtype=complex)
        total += np.trace(np.linalg.solve(Fm, Fb - Fa))
    return float((total / (2.0j * math.pi)).real)


@pytest.mark.parametrize("build", [
    lambda lat: rmm_thermal_state(RiceMeleParams(1.0, 0.5, 0.2), lat, 1.0, -3.0),
    rmm_thermal_loop,
    rmm_coherent_loop,
    thermal_chern_family,
])
def test_two_band_builders_need_two_sites_per_cell(build):
    with pytest.raises(ValueError, match="two sites per cell"):
        build(make_lattice(4, 3))


def test_constant_loop():
    lat = make_lattice(3, 2)
    loop = ParameterLoop(lat, constant_sampler(coherent_state(lat, np.zeros(lat.modes))), 8)
    track = track_polarization(loop)
    assert np.ptp(track.p_unwrapped) == 0.0
    result = winding_number(track)
    assert result.delta_p == 0.0
    assert result.zero_count == 0


def test_thermal_rice_mele_pump_loop():
    lat = make_lattice(8, 2)
    track = track_polarization(rmm_thermal_loop(lat))
    result = winding_number(track)
    assert abs(result.delta_p) <= WINDING_TOL
    assert result.zero_count == 0
    # smooth closed trace: endpoints coincide
    assert track.p_unwrapped[0] == pytest.approx(track.p_unwrapped[-1], abs=1e-12)
    assert np.all(track.abs_T > 0)


def test_track_follows_pointwise_spectral_branch():
    # The spectral branch is continuous along any path of valid states, so
    # the tracked polarization equals the pointwise one at every sample, on
    # the Bloch blocks and on their dense twin alike.
    lat = make_lattice(3, 2)
    chern_lattice = make_lattice(4, 2)
    family = thermal_chern_family(chern_lattice)
    for loop in (rmm_thermal_loop(lat), rmm_coherent_loop(lat),
                 random_classical_loop(lat, 3), random_squeezed_loop(lat, 4),
                 ParameterLoop(chern_lattice, lambda lams: family(2.0 * math.pi * lams))):
        track = track_polarization(loop)
        V, mean = loop.sampler(track.lambdas)
        if np.ndim(V) == 4:
            bloch = [BlochState(loop.lattice, v, m) for v, m in zip(V, mean)]
            twins = [bloch, [GaussianState(loop.lattice, b.V, b.mean) for b in bloch]]
        else:
            twins = [[GaussianState(loop.lattice, v, m) for v, m in zip(V, mean)]]
        for states in twins:
            pointwise = [polarization(st).p_unwrapped for st in states]
            assert np.abs(track.p_unwrapped - pointwise).max() <= 1e-10


def test_each_sample_evaluated_once(monkeypatch):
    sampled, determinants, calls = [], [], []
    loop = random_classical_loop(make_lattice(4, 2), 3)
    slogdet = np.linalg.slogdet

    def sampler(lams):
        sampled.append(lams.tolist())
        return loop.sampler(lams)

    def counted_slogdet(M):
        calls.append(M)
        determinants.extend(M if M.ndim == 3 else [M])
        return slogdet(M)

    monkeypatch.setattr(np.linalg, "slogdet", counted_slogdet)
    track = track_polarization(dataclasses.replace(loop, sampler=sampler))
    assert len(track.lambdas) == 17
    assert sampled == [track.lambdas.tolist()]  # the whole grid in one sampler call
    assert len(determinants) == len(track.lambdas)
    assert len(calls) == 1  # the whole grid in one stacked call


def stacked(evaluate):
    """A per-lambda ``evaluate`` in the array form of the refinement: an array of
    lambdas to one array per record field."""
    return lambda lams: tuple(np.array(field) for field in zip(*map(evaluate, lams.tolist())))


def per_sample_track(loop):
    """The track evaluated one sample at a time, kept as an oracle for the stacked pass.

    Each sample makes its own Cholesky check, slogdet and mean-term solve.
    Returns the lambdas, P_unwrapped, |<T>|, det_term_phase and mean_term.
    """
    state0, state1 = state_at(loop, 0.0), state_at(loop, 1.0)
    shift = shift_phases(state0.lattice)
    k = quadrature_cotangents(shift)
    log_abs_shift = 0.25 * np.sum(np.log1p(k * k))

    def evaluate(lam):
        state = state0 if lam == 0.0 else state1 if lam == 1.0 else state_at(loop, lam)
        try:
            np.linalg.cholesky(state.V)
        except np.linalg.LinAlgError:
            raise InvalidStateError(
                f"invalid state at lambda = {lam}: covariance not positive definite"
            ) from None
        M = state.V + 1j * np.diag(k)
        sign, logabs = np.linalg.slogdet(M)
        s = 0.0j
        if np.any(state.mean):
            y = np.linalg.solve(M, state.mean.astype(complex))
            assert np.linalg.norm(M @ y - state.mean) <= 1e-8 * np.linalg.norm(state.mean)
            s = complex(-0.5 * (state.mean @ y))
        return float(np.angle(sign)), s, log_abs_shift - 0.5 * logabs + s.real

    lams, (phases, means, log_abs) = winding._refine_on_phase(
        stacked(evaluate), loop.initial_samples
    )
    det_term = -0.5 * winding._unwrap(-2.0 * polarization(state0, shift).det_term_phase, phases)
    return lams, (det_term + means.imag) / (2.0 * math.pi), np.exp(log_abs), det_term, means


def bisecting_thermal_loop():
    """Thermal occupations from 0 to 1e4 and back: bisects near lambda = 0 and 1."""
    return scaled_vacuum_loop(
        make_lattice(4, 1, 0.1), lambda lams: 1.0 + 1e4 * np.sin(np.pi * lams) ** 2, 8
    )


def equivalence_loop(name):
    """A named loop at L = 4, a loop without a mean, or the bisecting thermal loop."""
    if name == "classical-no-mean":
        return random_classical_loop(make_lattice(3, 2), 2, mean_scale=0.0)
    if name == "squeezed-no-mean":
        return random_squeezed_loop(make_lattice(3, 2), 2, mean_scale=0.0)
    if name == "bisecting-thermal":
        return bisecting_thermal_loop()
    return named_loop(name, make_lattice(4, 2), seed=1)


@pytest.mark.parametrize(
    "name", [*LOOP_NAMES, "classical-no-mean", "squeezed-no-mean", "bisecting-thermal"]
)
def test_stacked_track_equals_per_sample_track(name):
    loop = equivalence_loop(name)
    track = track_polarization(loop)
    lams, p_unwrapped, abs_T, det_term, means = per_sample_track(loop)
    assert np.array_equal(track.lambdas, lams)
    for got, want in ((track.p_unwrapped, p_unwrapped), (track.abs_T, abs_T),
                      (track.det_term_phase, det_term), (track.mean_term, means)):
        assert np.abs(got - want).max() <= 1e-12
    if name == "bisecting-thermal":
        assert len(lams) > loop.initial_samples + 1


def test_stacked_track_names_first_invalid_lambda():
    # V = (1 - 1.5 sin^2(pi lambda)) 1 stops being positive definite past
    # lambda = 0.304; the first grid sample there is 5/16 = 0.3125.
    loop = scaled_vacuum_loop(
        make_lattice(3, 1), lambda lams: 1.0 - 1.5 * np.sin(np.pi * lams) ** 2
    )
    for track in (track_polarization, per_sample_track):
        with pytest.raises(InvalidStateError, match=r"at lambda = 0\.3125: covariance not"):
            track(loop)


def per_mode_squeezed_covariance(lattice, seed, lam):
    """V of random_squeezed_loop built one 2x2 rotation block per mode."""
    rng = np.random.default_rng(seed)
    nl = lattice.modes
    r0 = rng.uniform(0.2, 0.8, size=nl)
    rho = rng.uniform(0.0, 0.25, size=nl)
    phi0 = rng.uniform(0.0, math.pi, size=nl)
    r = r0 + rho * math.sin(2.0 * math.pi * lam)
    phi = phi0 + math.pi * lam
    V = np.zeros((lattice.dim, lattice.dim))
    for j in range(nl):
        c, s = math.cos(phi[j]), math.sin(phi[j])
        R = np.array([[c, -s], [s, c]])
        block = R @ np.diag([math.exp(2.0 * r[j]), math.exp(-2.0 * r[j])]) @ R.T
        V[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = (block + block.T) / 2.0
    return V


@pytest.mark.parametrize("L", [1, 3, 4])
def test_squeezed_sampler_matches_per_mode_blocks(L):
    lat = make_lattice(L, 2)
    for seed in range(3):
        loop = random_squeezed_loop(lat, seed)
        lams = np.linspace(0.0, 1.0, 33)
        for lam, V, mean in zip(lams, *loop.sampler(lams)):
            want = per_mode_squeezed_covariance(lat, seed, lam)
            assert np.abs(V - want).max() <= 1e-15 * np.abs(want).max()
            assert validate(GaussianState(lat, V, mean)).physical


def su2(a, b):
    """The SU(2) matrix [[a, -b*], [b, a*]], whose first column is (a, b)."""
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def floquet_amplitudes(traj):
    """step -> amplitudes at that step of the Floquet mode of the trajectory's
    one-period propagator, with its eigenvalue w removed as w^{-step/steps}: the
    mode with the larger weight on the start vector, phased so that their
    overlap is positive.

    The propagator to step i is formed as a 2x2 matrix in the standard basis,
    U_i = su2(alpha_i, beta_i) su2(alpha_0, beta_0)^dagger."""
    steps = len(traj.times) - 1
    start = su2(traj.alpha[0], traj.beta[0])
    vals, vecs = np.linalg.eig(su2(traj.alpha[-1], traj.beta[-1]) @ start.conj().T)
    overlaps = start[:, 0].conj() @ vecs
    mode = int(np.argmax(np.abs(overlaps)))
    w = vecs[:, mode] * abs(overlaps[mode]) / overlaps[mode]
    log_w = np.log(vals[mode])
    return lambda i: np.exp(-log_w * i / steps) * (
        su2(traj.alpha[i], traj.beta[i]) @ (start.conj().T @ w))


def per_lambda_state(name, lattice, seed):
    """lambda -> state of a named loop, one state per call, from the loop's own
    draws: the reference for its stacked sampler. The translation-invariant
    loops give a BlochState, random-squeezed a GaussianState."""
    L = lattice.cells
    if name == "rmm-thermal":
        protocol = reference_protocol()
        return lambda lam: rmm_thermal_state(
            protocol.params_at(lam * protocol.period), lattice, 1.0, -3.0
        )
    if name == "rmm-coherent":
        steps = 2 ** 14
        amplitudes = floquet_amplitudes(evolve_pump(reference_protocol(), steps=steps))

        def coherent(lam):
            cell = coherent_state(make_lattice(1, 2), amplitudes(int(round(lam * steps))))
            return BlochState(lattice, np.broadcast_to(cell.V, (L, 4, 4)), cell.mean)

        return coherent
    rng = np.random.default_rng(seed)
    if name == "random-classical":
        vbar, x, y = (random_bloch_blocks(lattice, rng, lo, hi)
                      for lo, hi in ((1.6, 3.5), (-0.25, 0.25), (-0.25, 0.25)))
        m0, ma, mb = 0.5 * rng.normal(size=(3, 2 * lattice.sites_per_cell))

        def classical(lam):
            c, s = math.cos(2.0 * math.pi * lam), math.sin(2.0 * math.pi * lam)
            return BlochState(lattice, vbar + c * x + s * y, m0 + c * ma + s * mb)

        return classical
    rng.uniform(size=3 * lattice.modes)  # r0, rho and phi0 of per_mode_squeezed_covariance
    mean_a, mean_b = 0.3 * rng.normal(size=(2, lattice.dim))

    def squeezed(lam):
        c, s = math.cos(2.0 * math.pi * lam), math.sin(2.0 * math.pi * lam)
        V = per_mode_squeezed_covariance(lattice, seed, lam)
        return GaussianState(lattice, V, c * mean_a + s * mean_b)

    return squeezed


def moments(state):
    """(v_blocks, cell_mean) of a BlochState, (V, mean) of a GaussianState."""
    if isinstance(state, BlochState):
        return state.v_blocks, state.cell_mean
    return state.V, state.mean


@pytest.mark.parametrize("name", LOOP_NAMES)
def test_stacked_sampler_equals_per_lambda_states(name):
    lat = make_lattice(4, 2)
    # k / 32, two off-grid points and three coherent-step midpoints, which
    # round half to even.
    lams = np.concatenate(
        (np.linspace(0.0, 1.0, 33), [0.3, 1 / 3], np.array([0.5, 1.5, 2.5]) / 2 ** 14)
    )
    V, mean = named_loop(name, lat, seed=1).sampler(lams)
    state = per_lambda_state(name, lat, 1)
    want_V, want_mean = moments(state(0.0))
    assert V.shape == (len(lams), *want_V.shape) and mean.shape == (len(lams), *want_mean.shape)
    assert (V.ndim == 4) == (name != "random-squeezed")
    for lam, v, m in zip(lams, V, mean):
        want_V, want_mean = moments(state(lam))
        assert np.abs(v - want_V).max() <= 1e-15 * np.abs(want_V).max(), (name, lam)
        assert np.abs(m - want_mean).max() <= 1e-15 * max(1.0, np.abs(want_mean).max()), lam


@pytest.mark.parametrize("mass", [1.0, -1.0, 0.7])
def test_chern_family_equals_per_ky_states(mass):
    lat = make_lattice(4, 2)
    kys = np.array([0.0, 0.4, np.pi / 2, np.pi, 4.0, 2.0 * np.pi])
    v, mean = thermal_chern_family(lat, mass, beta=1.0, mu=-6.0)(kys)
    assert v.shape == (len(kys), 4, 4, 4) and mean.shape == (len(kys), 4)
    assert not mean.any()
    for ky, blocks in zip(kys, v):
        cell = chern_cell_blocks(ky, mass)
        want = thermal_state(_bloch_hamiltonians(*cell, lat.cells), 1.0, -6.0, lat)
        assert np.abs(blocks - want.v_blocks).max() <= 1e-15 * np.abs(want.v_blocks).max(), ky
        # The dense thermal state of the chain's ring is an independent oracle.
        dense = thermal_state(_ring_hamiltonian(*cell, lat.cells), 1.0, -6.0, lat)
        assert np.abs(reassemble_covariance(blocks) - dense.V).max() <= 1e-13, ky


def spoiled_vacuum_loop(spoil):
    """Vacuum loop on 3 one-site cells whose sampler returns ``spoil(V, mean)``."""
    lat = make_lattice(3, 1)

    def sampler(lams):
        V = np.tile(np.eye(lat.dim), (len(lams), 1, 1))
        return spoil(V, np.zeros((len(lams), lat.dim)))

    return ParameterLoop(lat, sampler, 8)


def _set(a, index, value):
    """a with a[index] = value, for the spoil lambdas below."""
    a[index] = value
    return a


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda V, m: (_set(V, (3, 0, 0), np.nan), m), "covariance and mean must be finite"),
        (lambda V, m: (V, _set(m, (2, 1), np.inf)), "covariance and mean must be finite"),
        (lambda V, m: (_set(V, (5, 0, 1), 1e-3), m), "covariance asymmetry 1.000e-03 exceeds"),
        (lambda V, m: (V[:, :4, :4], m), r"covariance must be 6x6, got \("),
        (lambda V, m: (V, m[:, :5]), r"mean must have length 6, got \("),
    ],
)
def test_bad_sample_stacks_raise_the_state_messages(spoil, message):
    loop = spoiled_vacuum_loop(spoil)
    with pytest.raises(ValueError, match=message):
        track_polarization(loop)
    V, mean = loop.sampler(np.linspace(0.0, 1.0, 9))
    with pytest.raises(ValueError, match=message):  # each bad sample alone
        for v, m in zip(V, mean):
            GaussianState(loop.lattice, v, m)


def test_stack_checks_then_closure_then_factorization():
    """A loop that does not close reports that before a non-positive sample, but
    after a non-finite one."""
    lat = make_lattice(3, 1)

    def scale(lams):  # 1 + lambda at the ends, 0 at lambda = 1/2
        return 1.0 + lams - 1.5 * np.sin(np.pi * lams) ** 2

    not_positive = scaled_vacuum_loop(lat, scale, 8)
    with pytest.raises(ValueError, match="loop does not close"):
        track_polarization(not_positive)
    non_finite = scaled_vacuum_loop(
        lat, lambda lams: np.where(lams == 0.5, np.nan, scale(lams)), 8
    )
    with pytest.raises(ValueError, match="must be finite"):
        track_polarization(non_finite)


BLOCH_LOOPS = ("random-classical", "rmm-thermal", "rmm-coherent", "chern")


def bloch_loop(name, lattice, seed, beta, mass):
    """A translation-invariant loop: a named one, or the thermal Chern family over k_y."""
    if name == "chern":
        family = thermal_chern_family(lattice, mass, beta)
        return ParameterLoop(lattice, lambda lams: family(2.0 * math.pi * lams), 16)
    if name == "random-classical":
        return random_classical_loop(lattice, seed, mean_scale=0.8)
    return named_loop(name, lattice, seed=seed, beta=beta)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    name=hst.sampled_from(BLOCH_LOOPS),
    L=hst.integers(1, 6),
    n=hst.integers(1, 3),
    offset=hst.floats(0.05, 0.95),
    seed=hst.integers(0, 2 ** 32 - 1),
    beta=hst.floats(0.5, 2.0),
    mass=hst.sampled_from([-1.4, -0.7, 0.6, 1.0, 2.5]),
)
def test_bloch_track_equals_dense_track(name, L, n, offset, seed, beta, mass):
    """The reduced kernel on a loop's Bloch blocks and the dense kernel on the same
    blocks reassembled give the same grid and the same track."""
    lat = make_lattice(L, n if name == "random-classical" else 2, offset)
    loop = bloch_loop(name, lat, seed, beta, mass)
    bloch = track_polarization(loop)
    dense = track_polarization(dense_twin(loop))
    assert bloch.lambdas.tolist() == dense.lambdas.tolist()
    for got, want in ((bloch.p_unwrapped, dense.p_unwrapped),
                      (bloch.det_term_phase, dense.det_term_phase),
                      (bloch.mean_term, dense.mean_term)):
        assert np.abs(got - want).max() <= 1e-12
    assert np.abs(bloch.abs_T / dense.abs_T - 1.0).max() <= 1e-12
    if name == "random-classical":
        assert np.abs(bloch.mean_term).max() > 1e-3


def bloch_vacuum_loop(spoil, L=3):
    """Vacuum Bloch loop on L one-site cells whose sampler returns
    ``spoil(lams, v, cell_mean)``."""
    lat = make_lattice(L, 1)

    def sampler(lams):
        v = np.tile(np.eye(2, dtype=complex), (len(lams), L, 1, 1))
        return spoil(lams, v, np.zeros((len(lams), 2)))

    return ParameterLoop(lat, sampler, 8)


def _scaled_k0(lams, v, m):
    """v_0 scaled by 1 - 1.5 sin^2(pi lambda): not positive definite past 0.304."""
    v[:, 0] *= (1.0 - 1.5 * np.sin(np.pi * lams) ** 2)[:, None, None]
    return v, m


@pytest.mark.parametrize(
    "spoil, error, message",
    [
        # The first grid sample past lambda = 0.304 is 3/8.
        (_scaled_k0, InvalidStateError,
         r"invalid state at lambda = 0\.375: covariance not positive definite"),
        (lambda lams, v, m: ((1.0 + lams)[:, None, None, None] * v, m), ValueError,
         r"loop does not close: \|\|V\(1\) - V\(0\)\|\| = "),
        (lambda lams, v, m: (v, m + lams[:, None]), ValueError,
         r"loop does not close: \|\|mean\(1\) - mean\(0\)\|\| = 1\.000e\+00"),
    ],
)
def test_bloch_loop_errors_carry_the_dense_messages(spoil, error, message):
    loop = bloch_vacuum_loop(spoil)
    for kernel in (loop, dense_twin(loop)):
        with pytest.raises(error, match=message):
            track_polarization(kernel)


def test_dense_stack_is_checked_before_any_square_root():
    """A dense loop's positive definiteness comes from the kernel's own eigh:
    the first failing lambda is named before a negative eigenvalue reaches
    the square root, so no NaN is formed on the way."""
    loop = dense_twin(bloch_vacuum_loop(_scaled_k0))
    with np.errstate(all="raise"):
        with pytest.raises(InvalidStateError,
                           match=r"lambda = 0\.375: covariance not positive definite"):
            track_polarization(loop)


@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_mean_closure_is_relative_to_the_mean(scale):
    """A mean that misses its start by half the tolerance closes, by twice it
    does not, relative to max(1, max |mean(0)|) on both kernels."""
    for defect, closes in ((0.5, True), (2.0, False)):
        shift = defect * winding.CLOSURE_TOL * scale

        def spoil(lams, v, m):
            return v, scale + shift * np.sin(0.5 * np.pi * lams)[:, None] + m

        loop = bloch_vacuum_loop(spoil)
        for kernel in (loop, dense_twin(loop)):
            if closes:
                assert winding_number(track_polarization(kernel)).zero_count == 0
            else:
                with pytest.raises(ValueError, match=r"\|\|mean\(1\) - mean\(0\)\|\|"):
                    track_polarization(kernel)


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda lams, v, m: (_set(v, (3, 0, 0, 1), 1e-3), m),
         "Bloch block hermiticity defect 1.000e-03 exceeds"),
        (lambda lams, v, m: (_set(v, (5, 1, 0, 0), 1.001), m),
         r"Bloch blocks violate v_\(L-k\) = conj\(v_k\) by 1.000e-03"),
        (lambda lams, v, m: (_set(v, (3, 2, 1, 1), np.nan), m),
         "Bloch blocks and cell mean must be finite"),
        (lambda lams, v, m: (v, _set(m, (2, 1), np.inf)),
         "Bloch blocks and cell mean must be finite"),
        (lambda lams, v, m: (v[:, :2], m), r"Bloch blocks must be \(3, 2, 2\), got \("),
        (lambda lams, v, m: (v, m[:, :1]), r"cell mean must have length 2, got \("),
    ],
)
def test_bad_bloch_sample_stacks_raise_the_state_messages(spoil, message):
    loop = bloch_vacuum_loop(spoil)
    with pytest.raises(ValueError, match=message):
        track_polarization(loop)
    v, cell_mean = loop.sampler(np.linspace(0.0, 1.0, 9))
    with pytest.raises(ValueError, match=message):  # each bad sample alone
        for blocks, m in zip(v, cell_mean):
            BlochState(loop.lattice, blocks, m)


def test_mean_solve_residual_raises_on_the_bloch_kernel(monkeypatch):
    # The dense kernel solves 1 + iH, whose singular values are all >= 1, so
    # only the reduced one checks its residual.
    loop = random_classical_loop(make_lattice(3, 2), 4)
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda M, b: solve(M, b) * (1.0 + 1e-6))
    with pytest.raises(NumericalError, match="linear solve residual .* exceeds 1e-08"):
        track_polarization(loop)


def test_bloch_stack_with_zero_and_nonzero_means_matches_pointwise():
    """One solve of the stacked 1 - P serves a call whose samples have zero
    cell means next to nonzero ones; its residual test forms no 0/0."""
    lat = make_lattice(5, 2)
    base = random_classical_loop(lat, 3)

    def sampler(lams):
        v, m = base.sampler(lams)
        return v, np.maximum(0.0, np.sin(2.0 * np.pi * lams))[:, None] * m

    loop = ParameterLoop(lat, sampler, base.initial_samples)
    with np.errstate(all="raise"):
        track = track_polarization(loop)
        v, m = sampler(track.lambdas)
        assert (~m.any(axis=1)).sum() == 9
        for i, (blocks, cell_mean) in enumerate(zip(v, m)):
            b = polarization(BlochState(lat, blocks, cell_mean))
            assert abs(track.mean_term[i] - b.mean_term) <= 1e-15
            assert abs(track.abs_T[i] - b.abs_T) <= 1e-15


def test_bloch_grid_then_dense_midpoint_is_rejected():
    """The grid call picks the kernel; a later call in the other shape is an error."""
    loop = bisecting_thermal_loop()  # V = scale 1 on 4 one-site cells; it bisects
    cells = loop.lattice.cells
    calls = []

    def sampler(lams):
        calls.append(len(lams))
        V, mean = loop.sampler(lams)
        if len(calls) == 1:  # the grid, as the Bloch blocks scale 1 of the same states
            return np.repeat(V[:, None, :2, :2], cells, axis=1), mean[:, :2]
        return V, mean

    # The first level bisects the segments next to lambda = 0 and 1.
    with pytest.raises(ValueError, match=r"Bloch blocks must be \(4, 2, 2\), got \(2, 8, 8\)"):
        track_polarization(dataclasses.replace(loop, sampler=sampler))
    assert calls == [loop.initial_samples + 1, 2]


def bisection_level(lam, initial_samples):
    """0 for a sample of a power-of-two uniform grid, j for a midpoint of the j-th
    level of bisection, whose denominator is initial_samples 2^j."""
    return max(0, (Fraction(lam).denominator // initial_samples).bit_length() - 1)


def test_replaced_sampler_sees_grid_then_each_level():
    """dataclasses.replace(loop, sampler=wrapper) routes every sample through the
    wrapper: the grid in one call, then one call per level of bisection, each
    with that level's midpoints in ascending lambda."""
    loop = bisecting_thermal_loop()
    calls = []

    def sampler(lams):
        calls.append(lams.tolist())
        return loop.sampler(lams)

    track = track_polarization(dataclasses.replace(loop, sampler=sampler))
    lams = track.lambdas.tolist()
    levels = [bisection_level(lam, loop.initial_samples) for lam in lams]
    assert calls[0] == np.linspace(0.0, 1.0, loop.initial_samples + 1).tolist()
    assert len(calls) == 1 + max(levels) > 2
    for j, call in enumerate(calls[1:], 1):
        assert call == [lam for lam, level in zip(lams, levels) if level == j], j
    assert sorted(sum(calls, [])) == lams


def test_unwrap_equals_sequential_loop():
    phases = np.random.default_rng(0).uniform(-4.0, 4.0, size=200)
    expected = [2.5]
    for a, b in zip(phases[:-1], phases[1:]):
        expected.append(expected[-1] + ((b - a + np.pi) % (2.0 * np.pi) - np.pi))
    assert winding._unwrap(2.5, phases).tolist() == expected


def test_coherent_pump_loop():
    lat = make_lattice(4, 2)
    result = winding_number(track_polarization(rmm_coherent_loop(lat)))
    assert abs(result.delta_p) <= 1e-9
    assert result.zero_count == 0


def test_coherent_loop_samples_grid_off_powers_of_two():
    """On a 12-point grid every lambda = k/12 lands on a step of the trajectory."""
    lat = make_lattice(3, 2)
    loop = rmm_coherent_loop(lat, initial_samples=12)
    amplitudes = floquet_amplitudes(evolve_pump(reference_protocol(), steps=12 * 1024))
    _, means = dense_moments(lat, *loop.sampler(np.arange(13) / 12))
    for k in range(13):
        want = coherent_state(lat, np.tile(amplitudes(1024 * k), lat.cells)).mean
        assert np.abs(means[k] - want).max() <= 1e-9, k


@pytest.mark.parametrize("period", [25.0, 50.0, 200.0])
def test_coherent_loop_closes_in_the_floquet_mode(period):
    """The cell mean returns to its start over the cycle, the mode lies mostly in
    the lower band, and evolving it one period multiplies it by e^{i eps}."""
    protocol = reference_protocol(period=period)
    lat = make_lattice(1, 2)
    _, mean = rmm_coherent_loop(lat, protocol).sampler(np.array([0.0, 0.5, 1.0]))
    assert np.abs(mean[-1] - mean[0]).max() <= 2e-13
    amps = mean[:, 0::2] / 2.0 + 1j * mean[:, 1::2] / 2.0
    traj = evolve_pump(protocol, steps=2 ** 14)
    v0 = np.array([traj.alpha[0], traj.beta[0]])
    assert abs(v0.conj() @ amps[0]) ** 2 > 0.99
    assert abs((v0.conj() @ amps[0]).imag) <= 1e-15
    assert np.abs(np.linalg.norm(amps, axis=1) - 1.0).max() <= 1e-12
    # Through the trajectory's propagator: U(T) maps the mode to e^{i eps} times itself.
    image = su2(traj.alpha[-1], traj.beta[-1]) @ su2(*v0).conj().T @ amps[0]
    phase = image @ amps[0].conj()
    assert abs(abs(phase) - 1.0) <= 1e-12
    assert np.abs(image - phase * amps[0]).max() <= 1e-12
    result = winding_number(track_polarization(rmm_coherent_loop(lat, protocol)))
    assert abs(result.delta_p) <= 1e-12 and result.zero_count == 0


# Periods far from adiabatic: there the integrated U(T) drifts from unitary by
# about 1e-12, so the loop must remove |w| as well as the phase of w.
@pytest.mark.parametrize("period", [1e-3, 0.3, 3.0, 7.0, 1e4])
def test_coherent_loop_closes_at_every_period(period):
    """The whole Floquet eigenvalue is removed, so the mean closes to rounding."""
    protocol = reference_protocol(period=period)
    lat = make_lattice(1, 2)
    _, mean = rmm_coherent_loop(lat, protocol).sampler(np.array([0.0, 1.0]))
    assert np.abs(mean[-1] - mean[0]).max() <= 1e-14
    result = winding_number(track_polarization(rmm_coherent_loop(lat, protocol)))
    assert abs(result.delta_p) <= WINDING_TOL and result.zero_count == 0


def test_random_classical_loops():
    lat = make_lattice(4, 2)
    for seed in range(10):
        result = winding_number(track_polarization(random_classical_loop(lat, seed)))
        assert abs(result.delta_p) <= WINDING_TOL, seed
        assert result.zero_count == 0


def test_random_squeezed_loops():
    lat = make_lattice(3, 2)
    for seed in range(5):
        result = winding_number(track_polarization(random_squeezed_loop(lat, seed)))
        assert abs(result.delta_p) <= WINDING_TOL, seed
        assert result.zero_count == 0


def test_delta_p_matches_zero_count_on_physical_loops():
    lat = make_lattice(4, 2)
    for seed in (0, 1):
        result = winding_number(track_polarization(random_classical_loop(lat, seed)))
        assert result.delta_p == pytest.approx(result.zero_count / 2.0, abs=WINDING_TOL)


def test_planted_windings_detected_exactly():
    assert winding_of_values(lambda lam: 1 - 2 * np.exp(2j * np.pi * lam)) == 1
    assert winding_of_values(lambda lam: 1 - 4 * np.exp(4j * np.pi * lam)) == 2
    assert winding_of_values(lambda lam: 1 - 2 * np.exp(-2j * np.pi * lam)) == -1
    assert winding_of_values(lambda lam: 2.0 + 0j) == 0
    # winding-3 path with an off-center circle
    assert winding_of_values(lambda lam: 0.3 + np.exp(6j * np.pi * lam)) == 3


def test_non_enclosing_synthetic_loop():
    assert winding_of_values(lambda lam: 1 - 0.6 * np.exp(2j * np.pi * lam)) == 0


def test_zero_on_path_raises():
    with pytest.raises(RefinementExhaustedError):
        winding_of_values(lambda lam: 1 - np.exp(2j * np.pi * lam))


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, 1.0)])
def test_non_finite_path_value_raises(bad):
    """A NaN or infinite value raises at the first such sample of the uniform grid."""

    def fn(lam):
        return bad if 0.4 < lam < 0.6 else 1 - 2 * np.exp(2j * np.pi * lam)

    with pytest.raises(ValueError, match=r"at lambda = 0\.4375 is not finite"):
        winding_of_values(fn)


def test_zero_count_via_loop():
    lat = make_lattice(4, 2)
    assert winding_number(track_polarization(random_classical_loop(lat, 3))).zero_count == 0


def test_trace_quadrature_cross_check():
    scalar = lambda lam: np.array([[1 - 2 * np.exp(2j * np.pi * lam)]])
    assert trace_zero_count(scalar, 512) == pytest.approx(1.0, abs=1e-3)
    matrix = lambda lam: np.diag(
        [1 - 2 * np.exp(2j * np.pi * lam), 1 - 0.3 * np.exp(2j * np.pi * lam)]
    )
    assert trace_zero_count(matrix, 512) == pytest.approx(1.0, abs=1e-3)

    lat = make_lattice(3, 2)
    loop = random_classical_loop(lat, 7)
    shift = shift_phases(lat)
    u = np.repeat(np.exp(1j * shift.phases), 2)

    def one_minus_w(lam):
        state = state_at(loop, lam)
        eye = np.eye(lat.dim)
        G = np.linalg.solve(state.V + eye, state.V - eye)
        return eye - G * u

    assert trace_zero_count(one_minus_w, 128) == pytest.approx(0.0, abs=1e-3)


def test_mean_term_single_valued_around_loops():
    """exp(mean term) itself never winds around zero on a closed loop."""
    lat = make_lattice(3, 2)
    for seed in (0, 1, 2):
        loop = random_classical_loop(lat, seed, mean_scale=1.0)
        shift = shift_phases(lat)
        fn = lambda lam: np.exp(polarization(state_at(loop, lam), shift).mean_term)
        assert winding_of_values(fn, initial_samples=32) == 0


def test_gauge_offset_independence_of_winding():
    deltas = (0.25, 0.5, 0.75)
    results = []
    for delta in deltas:
        lat = make_lattice(4, 2, delta)
        res = winding_number(track_polarization(rmm_thermal_loop(lat)))
        results.append(res.delta_p)
        assert res.zero_count == 0
    assert max(results) - min(results) <= 1e-9


def test_sampling_robustness():
    lat = make_lattice(4, 2)
    a = winding_number(track_polarization(random_classical_loop(lat, 5)))
    loop2 = random_classical_loop(lat, 5, initial_samples=32)
    b = winding_number(track_polarization(loop2))
    assert a.zero_count == b.zero_count == 0
    assert a.delta_p == pytest.approx(b.delta_p, abs=1e-9)


def test_loop_validation():
    lat = make_lattice(2, 2)
    with pytest.raises(ValueError):
        ParameterLoop(lat, constant_sampler(coherent_state(lat, np.zeros(lat.modes))), 4)
    # a sampler that does not close
    open_loop = scaled_vacuum_loop(lat, lambda lams: 1.0 + lams, 8)
    with pytest.raises(ValueError, match="loop does not close"):
        track_polarization(open_loop)


def test_named_loop_dispatch():
    lat = make_lattice(4, 2)
    builders = {
        "rmm-thermal": lambda: rmm_thermal_loop(lat),
        "rmm-coherent": lambda: rmm_coherent_loop(lat),
        "random-classical": lambda: random_classical_loop(lat, 1),
        "random-squeezed": lambda: random_squeezed_loop(lat, 1),
    }
    assert tuple(builders) == LOOP_NAMES
    for name, build in builders.items():
        got, want = named_loop(name, lat, seed=1).sampler, build().sampler
        lams = np.array([0.0, 0.125, 0.3, 0.75])
        (a_V, a_mean), (b_V, b_mean) = got(lams), want(lams)
        assert np.array_equal(a_V, b_V) and np.array_equal(a_mean, b_mean), name
    with pytest.raises(ValueError):
        named_loop("bogus", lat)


def test_chern_constant_family_is_zero():
    lat = make_lattice(4, 2)
    state = thermal_state(np.diag([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]),
                          1.0, -1.0, lat)
    assert chern_via_polarization(lat, constant_sampler(state), samples=16) == 0


def test_chern_vacuum_family():
    lat = make_lattice(4, 2)
    family = constant_sampler(coherent_state(lat, np.zeros(lat.modes)))
    assert chern_via_polarization(lat, family, samples=16) == 0
    track = track_polarization(ParameterLoop(lat, family, 16))
    assert np.abs(track.p_unwrapped).max() == 0.0


def test_chern_null_on_topological_band_family():
    assert band_chern_number(1.0, 24) != 0
    lat = make_lattice(6, 2)
    family = thermal_chern_family(lat, mass=1.0, beta=1.0, mu=-6.0)
    assert chern_via_polarization(lat, family, samples=24) == 0


@pytest.mark.parametrize("mass", [math.nan, math.inf, -math.inf])
def test_nonfinite_chern_mass_rejected(mass):
    with pytest.raises(ValueError, match="Chern chain mass must be finite"):
        band_chern_number(mass)
    family = thermal_chern_family(make_lattice(4, 2), mass=mass)
    with pytest.raises(ValueError, match="Chern chain mass must be finite"):
        family(np.array([0.0]))


def test_band_chern_trivial_mass():
    assert band_chern_number(3.5, 24) == 0


def plaquette_chern_number(mass: float, grid: int) -> float:
    """Fukui-Hatsugai-Suzuki lattice Chern number of the lower band of
    sin kx sigma_x + sin ky sigma_y + (mass + cos kx + cos ky) sigma_z."""
    k = 2.0 * np.pi * np.arange(grid) / grid
    kx, ky = (c[..., None, None] for c in np.meshgrid(k, k, indexing="ij"))
    h = (np.sin(kx) * np.array([[0, 1], [1, 0]]) + np.sin(ky) * np.array([[0, -1j], [1j, 0]])
         + (mass + np.cos(kx) + np.cos(ky)) * np.diag([1.0, -1.0]))
    u = np.linalg.eigh(h)[1][..., 0]
    ux, uy = (np.sum(u.conj() * np.roll(u, -1, axis=a), axis=-1) for a in (0, 1))
    flux = np.angle(ux * np.roll(uy, -1, axis=0) * np.roll(ux, -1, axis=1).conj() * uy.conj())
    return float(flux.sum()) / (2.0 * np.pi)


@pytest.mark.parametrize("grid", [16, 24, 32])
def test_band_chern_matches_plaquette_oracle(grid):
    masses = np.concatenate((np.linspace(-3.9, 3.9, 40), [t + d for t in (-2.0, 0.0, 2.0)
                                                          for d in (-1e-7, 1e-7)]))
    for mass in masses:
        want = plaquette_chern_number(mass, grid)
        assert abs(want - round(want)) < 1e-9, mass
        assert band_chern_number(mass, grid) == round(want), mass


@pytest.mark.parametrize("mass", [0.0, 2.0, -2.0])
def test_band_chern_raises_where_the_gap_closes(mass):
    with pytest.raises(GapClosureError, match="gap closure"):
        band_chern_number(mass)


def test_chern_family_hopping_is_hermitian_and_gapped():
    lat = make_lattice(6, 2)
    for ky in (0.0, 1.1, 2.0 * np.pi - 0.3):
        h = _ring_hamiltonian(*chern_cell_blocks(ky), lat.cells)
        assert np.abs(h - h.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(h).min() > -6.0


def breadth_first_refinement(evaluate, initial_samples, tolerance=math.pi / 2):
    """Sample positions of the breadth-first refinement, kept as an oracle.

    Each pass bisects every adjacent pair whose principal phases jump by at
    least ``tolerance``; passes repeat until none does.
    """
    cache = {}

    def phase(lam):
        if lam not in cache:
            cache[lam] = evaluate(lam)[0]
        return cache[lam]

    lams = list(np.linspace(0.0, 1.0, initial_samples + 1))
    while True:
        refined = []
        for a, b in zip(lams[:-1], lams[1:]):
            refined.append(a)
            if abs(winding._wrap(phase(b) - phase(a))) >= tolerance:
                refined.append(0.5 * (a + b))
        refined.append(lams[-1])
        if len(refined) == len(lams):
            return lams
        lams = refined


def path_phase(fn):
    return lambda lam: (math.atan2(complex(fn(lam)).imag, complex(fn(lam)).real),)


@pytest.mark.parametrize(
    "fn, turns",
    [
        (lambda lam: 1 - 2 * np.exp(2j * np.pi * lam), 1),
        (lambda lam: 1 - 2 * np.exp(-2j * np.pi * lam), -1),
        (lambda lam: 1 - 4 * np.exp(4j * np.pi * lam), 2),
        (lambda lam: 0.3 + np.exp(6j * np.pi * lam), 3),
        # pass within 1e-9 of zero at the non-dyadic lambda = 1/3, where the
        # phase turns by pi within ~1e-10 and forces ~30 levels of bisection
        (lambda lam: 1 - (1 - 1e-9) * np.exp(2j * np.pi * (lam - 1 / 3)), 0),
        (lambda lam: 1 - (1 + 1e-9) * np.exp(2j * np.pi * (lam - 1 / 3)), 1),
    ],
)
def test_refinement_matches_breadth_first(fn, turns):
    evaluate = path_phase(fn)
    lams, _ = winding._refine_on_phase(stacked(evaluate), 16)
    assert lams.tolist() == breadth_first_refinement(evaluate, 16)
    assert winding_of_values(fn) == turns


def test_refinement_matches_breadth_first_on_physical_loop():
    # Thermal occupations from 0 to 1e4 and back; the determinant phase
    # moves fast enough near lambda = 0 and 1 to force bisection.
    loop = bisecting_thermal_loop()
    shift = shift_phases(loop.lattice)

    def evaluate(lam):
        M = state_at(loop, lam).V + 1j * np.diag(quadrature_cotangents(shift))
        sign, _ = np.linalg.slogdet(M)
        return (float(np.angle(sign)),)

    track = track_polarization(loop)
    want = breadth_first_refinement(evaluate, loop.initial_samples)
    assert len(want) > loop.initial_samples + 1
    assert track.lambdas.tolist() == want


def test_refinement_exhausted_at_floating_point_resolution():
    sign_flip = lambda lam: 1.0 if lam < 1 / 3 or lam > 2 / 3 else -1.0
    with pytest.raises(RefinementExhaustedError, match="floating-point resolution"):
        winding_of_values(sign_flip)


def test_refinement_exhausted_at_sample_cap(monkeypatch):
    monkeypatch.setattr(winding, "MAX_SAMPLES", 64)
    with pytest.raises(RefinementExhaustedError, match="64 samples"):
        winding_of_values(lambda lam: np.exp(80j * np.pi * lam))


def test_winding_of_values_rejects_a_grid_below_eight_samples():
    # With one segment the planted winding of 1 would read 0.
    with pytest.raises(ValueError, match=r"initial sample count must be in \[8, "):
        winding_of_values(lambda lam: 1 - 2 * np.exp(2j * np.pi * lam), 1)


def test_initial_samples_must_fit_the_sample_cap(monkeypatch):
    lat = make_lattice(2, 1)
    sampler = lambda lams: pytest.fail("a loop with a bad sample count was sampled")
    with pytest.raises(ValueError, match=f"in \\[8, {winding.MAX_SAMPLES - 1}\\]"):
        ParameterLoop(lat, sampler, winding.MAX_SAMPLES)
    with pytest.raises(ValueError, match="initial sample count"):
        winding_of_values(lambda lam: 2.0 + 0j, winding.MAX_SAMPLES + 7)
    monkeypatch.setattr(winding, "MAX_SAMPLES", 64)  # read at call time
    with pytest.raises(ValueError, match=r"in \[8, 63\]"):
        ParameterLoop(lat, sampler, 64)


def test_coherent_loop_checks_its_sample_count_before_integrating(monkeypatch):
    def never(*args, **kwargs):
        pytest.fail("the pump was integrated before the sample count was checked")

    monkeypatch.setattr(loops, "evolve_pump", never)
    lat = make_lattice(3, 2)
    for samples in (winding.MAX_SAMPLES, 0):
        with pytest.raises(ValueError, match="initial sample count"):
            rmm_coherent_loop(lat, initial_samples=samples)


@pytest.mark.parametrize(
    "mass, chern",
    [(0.6, 1), (1.0, 1), (1.4, 1), (-0.6, -1), (-1.0, -1), (-1.4, -1),
     (2.5, 0), (3.5, 0), (-2.5, 0), (-3.5, 0)],
)
def test_band_chern_sign(mass, chern):
    assert band_chern_number(mass, 24) == chern
