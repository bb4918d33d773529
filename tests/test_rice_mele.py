"""Rice-Mele band data, Zak winding, pump dynamics and particle flux."""

import tracemalloc
from dataclasses import astuple
from functools import lru_cache

import numpy as np
import pytest
from scipy.integrate import quad, simpson, solve_ivp
from scipy.linalg import expm
from scipy.special import gamma

from bosepol import coherent_state, make_lattice, polarization, rice_mele
from bosepol.errors import GapClosureError
from bosepol.loops import chern_cell_blocks
from bosepol.rice_mele import (
    PumpProtocol,
    RiceMeleParams,
    _bloch_hamiltonians,
    _ring_hamiltonian,
    _simpson,
    _zak_phases,
    adiabatic_flux,
    evolve_pump,
    integrated_flux,
    reference_shape,
    rmm_cell_blocks,
    zak_winding,
)
from dense_reference import rmm_hopping_matrix

REFERENCE_FLUX = 0.5990701173677961  # frozen from the quadrature below


def reference(AT: float) -> PumpProtocol:
    return PumpProtocol(amplitude=1.0, period=AT)


@lru_cache(maxsize=None)
def dop853_flux(AT: float) -> float:
    """Flux of the reference pump at A = 1 by adaptive DOP853 at rtol 1e-12.

    Integrates the k = 0 amplitudes together with dPhi/dt from the lower
    eigenvector at t = 0, independently of :func:`evolve_pump`.
    """

    def rhs(t, y):
        x = np.pi * t / AT
        w2, d = np.sin(x) ** 2, np.sin(2 * x)
        w = np.cos(x) ** 2 + w2
        a, b = complex(y[0], y[1]), complex(y[2], y[3])
        da, db = -1j * (d * a + w * b), -1j * (w * a - d * b)
        flux = w2 * (1j * (a * b.conjugate() - a.conjugate() * b)).real
        return [da.real, da.imag, db.real, db.imag, flux]

    _, vecs = np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    y0 = [vecs[0, 0], 0.0, vecs[1, 0], 0.0, 0.0]
    sol = solve_ivp(rhs, (0.0, AT), y0, method="DOP853", rtol=1e-12, atol=1e-12)
    assert sol.success
    return float(sol.y[4, -1])


def rmm_bloch(params, k, L):
    """Rice-Mele Bloch Hamiltonian at kappa = 2 pi k / L."""
    return _bloch_hamiltonians(*rmm_cell_blocks(astuple(params)), [2 * np.pi * k / L])[0]


def bloch_vector(params, k, L):
    """Q with h = Q . sigma, read off by the Pauli traces of the Bloch Hamiltonian."""
    h = rmm_bloch(params, k, L)
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    q = np.einsum("ij,aji->a", h, paulis) / 2.0
    assert np.abs(q.imag).max() == 0.0 and np.trace(h) == 0.0
    return q.real


def test_bloch_vector_cases():
    assert np.allclose(bloch_vector(RiceMeleParams(1, 0, 0), 3, 8), [1, 0, 0])
    assert np.allclose(bloch_vector(RiceMeleParams(1, 1, 0), 4, 8), [0, 0, 0])
    assert np.allclose(bloch_vector(RiceMeleParams(0, 1, 0), 2, 8), [0, 1, 0])


def test_band_energies():
    p = RiceMeleParams(0.7, 0.5, 0.3)
    lo, hi = np.linalg.eigvalsh(rmm_bloch(p, 0, 8))
    assert hi == pytest.approx(np.sqrt(0.3**2 + 1.2**2)) and lo == -hi
    lo, hi = np.linalg.eigvalsh(rmm_bloch(RiceMeleParams(1, 1, 0), 4, 8))
    assert hi == pytest.approx(0.0, abs=1e-12)  # gap closes
    assert tuple(np.linalg.eigvalsh(rmm_bloch(RiceMeleParams(0, 0, 0.4), 1, 8))) == (
        pytest.approx(-0.4), pytest.approx(0.4)
    )


def test_zak_phase_band_sum_and_convergence():
    p = RiceMeleParams(0.7, 1.3, 0.4)
    blocks = rmm_cell_blocks(astuple(p))
    lo = _zak_phases(*blocks, "lower", 2048)
    hi = _zak_phases(*blocks, "upper", 2048)
    assert (lo + hi) % (2 * np.pi) == pytest.approx(0.0, abs=1e-9)
    assert abs(_zak_phases(*blocks, "lower", 4096) - lo) < 1e-6


def test_zak_phase_gap_closure():
    with pytest.raises(GapClosureError):
        _zak_phases(*rmm_cell_blocks((1.0, 1.0, 0.0)), samples=64)
    with pytest.raises(GapClosureError):  # gap 1.8e-12; the near-gap case below has 3e-12
        _zak_phases(*rmm_cell_blocks((1.0, 1.0, 0.9e-12)), samples=64)
    with pytest.raises(ValueError):
        _zak_phases(*rmm_cell_blocks((1.0, 0.5, 0.0)), samples=8)


def test_zak_phases_gap_rule_ignores_an_energy_offset():
    """The gap test reads the band gap, not |E| of traceless blocks: an on-site
    offset leaves the phases and the gap-closure verdict unchanged."""
    onsite, hop = rmm_cell_blocks(np.array([[1.0, 1.0], [0.5, 1.0], [0.3, 0.0]]))
    shifted = onsite + 5.0 * np.eye(2)
    gapped = _zak_phases(onsite[:1], hop[:1])
    assert np.abs(_zak_phases(shifted[:1], hop[:1]) - gapped).max() < 1e-12
    with pytest.raises(GapClosureError):
        _zak_phases(shifted[1:], hop[1:])


def eigh_zak_phases(onsite, hop, band, samples=64):
    """Wilson-loop Zak phases with the band vectors from np.linalg.eigh."""
    kappas = 2 * np.pi * np.arange(samples) / samples
    u = np.linalg.eigh(_bloch_hamiltonians(onsite, hop, kappas))[1][..., int(band == "upper")]
    return -np.angle(np.prod(np.sum(u.conj() * np.roll(u, -1, axis=-2), axis=-1), axis=-1))


def closed_form_cases():
    """Seeded Hermitian cell blocks with an energy offset; Rice-Mele blocks whose
    d lies along +z or -z, at every momentum (w1 = w2 = 0) or within 1e-9 of it
    at kappa = pi; and one with |d| = 1.5e-12 at kappa = pi."""
    rng = np.random.default_rng(17)
    a = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
    onsite = a + a.conj().swapaxes(-1, -2) + 3.0 * np.eye(2)
    hop = rng.normal(size=(16, 2, 2)) + 1j * rng.normal(size=(16, 2, 2))
    yield pytest.param("seeded", onsite, hop, id="seeded")
    along_z = rmm_cell_blocks(np.array([[0.0, 0.0, 0.8 + 1e-9, 0.7],
                                        [0.0, 0.0, 0.8, 0.7 + 1e-9],
                                        [0.9, -0.9, 1.1, -0.6]]))
    yield pytest.param("along-z", *along_z, id="along-z")
    yield pytest.param("near-gap", *rmm_cell_blocks((1.0, 1.0, 1.5e-12)), id="near-gap")


@pytest.mark.parametrize("band", ["lower", "upper"])
@pytest.mark.parametrize("name, onsite, hop", list(closed_form_cases()))
def test_closed_form_zak_phases_match_eigh(name, onsite, hop, band):
    """The closed-form band vectors give the Wilson loop of eigh's vectors,
    on both sides of the gauge switch at d_z = 0."""
    h = _bloch_hamiltonians(onsite, hop, 2 * np.pi * np.arange(64) / 64)
    dz = (h[..., 0, 0] - h[..., 1, 1]).real
    if name == "seeded":
        assert (dz > 0).any() and (dz < 0).any()  # both gauges occur
    got = _zak_phases(onsite, hop, band)
    want = eigh_zak_phases(onsite, hop, band)
    assert np.abs(np.angle(np.exp(1j * (got - want)))).max() <= 1e-12


def test_zak_winding_reference_loop():
    assert zak_winding(reference(50.0)) == 1


def test_zak_winding_non_encircling_loop():
    shape = lambda x: (
        np.cos(np.pi * x) ** 2,
        np.sin(np.pi * x) ** 2,
        np.sin(2 * np.pi * x) + 10.0,
    )
    assert zak_winding(PumpProtocol(1.0, 50.0, shape)) == 0


def test_zak_winding_constant_protocol():
    assert zak_winding(PumpProtocol(1.0, 10.0, lambda x: (0.8, 0.3, 0.5))) == 0


@pytest.mark.parametrize(
    "protocol",
    [
        reference(50.0),
        PumpProtocol(1.0, 50.0, lambda x: (
            np.cos(np.pi * x) ** 2, np.sin(np.pi * x) ** 2, np.sin(2 * np.pi * x) + 10.0)),
        PumpProtocol(1.0, 10.0, lambda x: (0.8, 0.3, 0.5)),
    ],
)
def test_stacked_zak_phases_match_pointwise(protocol):
    """The stacked phases of zak_winding equal the one-point phases step by step."""
    times = protocol.period * np.arange(257) / 256
    stacked = _zak_phases(*rmm_cell_blocks(protocol.drive(times)))
    pointwise = np.array([_zak_phases(*rmm_cell_blocks(astuple(protocol.params_at(t))))
                          for t in times])
    assert np.abs(stacked - pointwise).max() <= 1e-12


def test_constant_protocol_is_stationary():
    protocol = PumpProtocol(1.0, 20.0, lambda x: (0.6, 0.4, 0.3))
    traj = evolve_pump(protocol, steps=4000)
    assert np.abs(np.abs(traj.alpha) - np.abs(traj.alpha[0])).max() < 1e-10
    assert np.abs(np.abs(traj.beta) - np.abs(traj.beta[0])).max() < 1e-10


def test_reference_shape_is_the_tangent_form_of_cos_sin():
    phases = [np.linspace(0.0, 1.0, 100_001), np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
              np.linspace(-3.7, 5.2, 20_001), np.array([-1000.3, -2.5, 1.25, 10_000.5])]
    for phase in phases:
        w1, w2, delta = reference_shape(phase)
        assert np.abs(w1 - np.cos(np.pi * phase) ** 2).max() <= 4e-16
        assert np.abs(w2 - np.sin(np.pi * phase) ** 2).max() <= 4e-16
        assert np.abs(delta - np.sin(2.0 * np.pi * phase)).max() <= 4e-16
    assert tuple(map(float, reference_shape(0.0))) == (1.0, 0.0, 0.0)


def test_norm_conservation_reference_protocol():
    traj = evolve_pump(reference(50.0), steps=10_000)
    assert np.abs(traj.norm - 1.0).max() < 1e-8


def test_norm_conserved_when_undersampled():
    # 2.5 time units per step: far from converged, still unitary
    traj = evolve_pump(reference(400.0), steps=1000)
    assert np.abs(traj.norm - 1.0).max() < 1e-12
    with pytest.raises(ValueError):
        evolve_pump(reference(10.0), steps=50)


def test_trajectory_equals_sequential_magnus_steps():
    """The blocked scan equals a step-by-step product of expm'd Magnus factors."""
    protocol, steps = reference(7.0), 101
    traj = evolve_pump(protocol, steps=steps)
    h = protocol.period / steps
    nodes = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    a1, a2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0

    def h0(t):
        h = _bloch_hamiltonians(*rmm_cell_blocks(protocol.drive(t)), [0.0])[0]
        assert not h.imag.any()
        return h.real

    psi = np.array([traj.alpha[0], traj.beta[0]])
    for i in range(steps):
        hm, hp = (h0(i * h + c * h) for c in nodes)
        psi = expm(-1j * h * (a1 * hm + a2 * hp)) @ expm(-1j * h * (a2 * hm + a1 * hp)) @ psi
        assert np.abs(psi - [traj.alpha[i + 1], traj.beta[i + 1]]).max() < 1e-13


def cf4_exponents(protocol, steps):
    """(x, z), each (steps, 2): the CF4 factors exp(-i(x sx + z sz)) of every step."""
    h = protocol.period / steps
    nodes = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(3.0) / 6.0
    a1, a2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    w1, w2, delta = protocol.drive((np.arange(steps)[:, None] + nodes) * h)
    weights = np.array([[a2, a1], [a1, a2]])
    return h * (w1 + w2) @ weights, h * delta @ weights


def sequential_cf4(protocol, steps, a, b):
    """(alpha, beta) from (a, b) after every step, the CF4 factors applied one at a time.

    Each step applies exp(-i(x0 sx + z0 sz)) and then exp(-i(x1 sx + z1 sz)),
    each [[c - i s z, -i s x], [-i s x, c + i s z]] with c = cos r, s = sin(r) / r.
    """
    x, z = cf4_exponents(protocol, steps)
    r = np.hypot(x, z)
    c, s = np.cos(r), np.sin(r) / r
    diag, off = (c - 1j * s * z).tolist(), (-1j * s * x).tolist()
    alpha, beta = [a], [b]
    for d_step, o_step in zip(diag, off):
        for d, o in zip(d_step, o_step):
            a, b = d * a + o * b, o * a + d.conjugate() * b
        alpha.append(a)
        beta.append(b)
    return np.array(alpha), np.array(beta)


# 4099 is prime, so the last block of the scan is ragged.
@pytest.mark.parametrize("steps", [100, 101, 4099, 7501, 2 ** 14])
def test_blocked_scan_equals_sequential_product(steps):
    protocol = reference(25.0)
    traj = evolve_pump(protocol, steps=steps)
    alpha, beta = sequential_cf4(protocol, steps, complex(traj.alpha[0]), complex(traj.beta[0]))
    assert len(traj.times) == len(traj.alpha) == len(traj.beta) == steps + 1
    assert np.abs(traj.alpha - alpha).max() <= 1e-13
    assert np.abs(traj.beta - beta).max() <= 1e-13
    assert np.abs(traj.norm - 1.0).max() <= 1e-12


# At T = 1000 and 100 steps the factor angles r span [5A, 7.07A]: the poles
# r = pi and r = 3 pi of tan(r / 2) fall inside that span at A = 0.6 and 1.8.
@pytest.mark.parametrize("amplitude, pole", [(0.6, np.pi), (1.0, None), (1.8, 3.0 * np.pi)])
def test_undersampled_pump_across_tangent_poles(amplitude, pole):
    protocol, steps = PumpProtocol(amplitude, 1000.0), 100
    r = np.hypot(*cf4_exponents(protocol, steps))
    assert r.max() > np.pi
    if pole is not None:
        assert r.min() < pole < r.max()
    traj = evolve_pump(protocol, steps=steps)
    alpha, beta = sequential_cf4(protocol, steps, complex(traj.alpha[0]), complex(traj.beta[0]))
    assert np.abs(traj.alpha - alpha).max() <= 1e-12
    assert np.abs(traj.beta - beta).max() <= 1e-12
    assert np.abs(traj.norm - 1.0).max() <= 1e-12


def traced_peak(fn):
    """The tracemalloc peak, in bytes, of what ``fn()`` allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pump_memory_budget():
    """Nothing but the output grows with the step count.

    The pump allocates its trajectory, 40 bytes per step (the times and the
    complex alpha and beta), and chunk-sized temporaries; the flux allocates
    its integrand, 8 bytes per step, and chunk-sized temporaries, and sums
    Simpson's rule in place on the integrand. Within one chunk the pump stays
    within 160 bytes per step in all."""
    protocol = reference(400.0)
    for steps in (120_000, 480_000):
        assert traced_peak(lambda: evolve_pump(protocol, steps=steps)) <= 40 * steps + 4e6
        traj = evolve_pump(protocol, steps=steps)
        assert traced_peak(lambda: integrated_flux(traj, protocol)) <= 8 * steps + 1e6
    steps = 7500
    assert steps < rice_mele.PUMP_CHUNK
    assert traced_peak(lambda: evolve_pump(protocol, steps=steps)) <= 160 * steps


def pump_outputs(steps):
    """alpha, beta and the flux of the period-25 reference pump."""
    protocol = reference(25.0)
    traj = evolve_pump(protocol, steps=steps)
    return traj.alpha, traj.beta, integrated_flux(traj, protocol)


default_chunk_outputs = lru_cache(maxsize=None)(pump_outputs)


# 1 and 7 divide every block size, 53 divides none of them, and 10^6 exceeds
# every step count. 4099 is prime, so its last block is ragged, and the last
# three step counts straddle one default chunk.
@pytest.mark.parametrize("chunk", [1, 7, 53, 10 ** 6])
@pytest.mark.parametrize("steps", [100, 4099, rice_mele.PUMP_CHUNK - 1, rice_mele.PUMP_CHUNK,
                                   rice_mele.PUMP_CHUNK + 1])
def test_pump_is_independent_of_the_chunk_size(monkeypatch, chunk, steps):
    """The trajectory and the flux are bit-identical for every chunk size."""
    want_alpha, want_beta, want_flux = default_chunk_outputs(steps)
    monkeypatch.setattr(rice_mele, "PUMP_CHUNK", chunk)
    alpha, beta, flux = pump_outputs(steps)
    assert np.array_equal(alpha, want_alpha)
    assert np.array_equal(beta, want_beta)
    assert flux == want_flux


def test_flux_fourth_order_convergence():
    exact = dop853_flux(25.0)
    errors = [
        abs(integrated_flux(evolve_pump(reference(25.0), steps=s), reference(25.0)) - exact)
        for s in (250, 500, 1000, 2000)
    ]
    # fourth order: 16x per halving of the step; second order gives 4x
    assert all(coarse >= 12.0 * fine for coarse, fine in zip(errors, errors[1:]))


@pytest.mark.parametrize("AT", [1.0, 25.0, 100.0, 400.0])
def test_flux_matches_dop853_reference(AT):
    protocol = reference(AT)
    phi = integrated_flux(evolve_pump(protocol), protocol)
    assert abs(phi - dop853_flux(AT)) <= 1e-6


# Even counts are the step counts of 300 steps per unit time at AT = 25, 50,
# 100, 200 and 400; odd counts take the end correction of an odd interval.
@pytest.mark.parametrize("steps", [100, 101, 7500, 7501, 15000, 16123, 30000, 60000,
                                   120000, 120001])
def test_simpson_matches_scipy(steps):
    h = np.pi / steps
    times = np.arange(steps + 1) * h
    for y in (np.cos(times) ** 2 / (1.0 + np.sin(times) ** 2) ** 1.5,
              np.exp(np.sin(3.0 * times)), times ** 3):
        ref = simpson(y, x=times)
        value = _simpson(y.copy(), h)  # the sum is taken in place
        assert type(value) is float
        assert abs(value - ref) <= 1e-14 * abs(ref)
        assert abs(value - simpson(y, dx=h)) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("steps", [7500, 7501])
def test_flux_equals_scipy_simpson_on_trajectory(steps):
    protocol = reference(25.0)
    traj = evolve_pump(protocol, steps=steps)
    w2 = protocol.drive(traj.times)[1]
    cross = (1j * (traj.alpha * traj.beta.conj() - traj.alpha.conj() * traj.beta)).real
    ref = simpson(w2 * cross, x=traj.times)
    assert abs(integrated_flux(traj, protocol) - ref) <= 1e-14 * abs(ref)


def test_adiabatic_following_at_slow_drive():
    protocol = reference(200.0)
    traj = evolve_pump(protocol, steps=40_000)
    end = _bloch_hamiltonians(*rmm_cell_blocks(protocol.drive(protocol.period)), [0.0])[0]
    target = np.linalg.eigh(end.real)[1][:, 0]
    psi = np.array([traj.alpha[-1], traj.beta[-1]])
    fidelity = abs(np.vdot(target, psi)) ** 2 / (np.vdot(psi, psi).real)
    assert fidelity > 0.999


def test_flux_zero_without_intercell_hopping():
    protocol = PumpProtocol(1.0, 30.0, lambda x: (np.cos(np.pi * x) ** 2, 0.0,
                                                  np.sin(2 * np.pi * x)))
    traj = evolve_pump(protocol, steps=6000)
    assert integrated_flux(traj, protocol) == 0.0


def test_flux_sudden_limit():
    protocol = reference(0.01)
    traj = evolve_pump(protocol, steps=1000)
    assert abs(integrated_flux(traj, protocol)) < 0.01


def test_flux_near_adiabatic_value():
    protocol = reference(100.0)
    traj = evolve_pump(protocol, steps=20_000)
    assert integrated_flux(traj, protocol) == pytest.approx(REFERENCE_FLUX, abs=0.01)


def test_adiabatic_flux_quadrature():
    protocol = reference(1.0)
    val = adiabatic_flux(protocol)
    # independent quadrature of the same integrand
    direct, _ = quad(lambda t: np.cos(t) ** 2 / (1 + np.sin(t) ** 2) ** 1.5, 0, np.pi)
    assert val == pytest.approx(direct / 2.0, abs=1e-10)
    assert val == pytest.approx(REFERENCE_FLUX, abs=1e-12)
    assert abs(val - gamma(0.75) ** 2 / np.sqrt(2 * np.pi)) <= 1e-9
    # bounded away from every integer: transport is geometric, not topological
    assert abs(val - 0.0) > 0.3 and abs(val - 1.0) > 0.3


def test_adiabatic_flux_requires_reference_shape():
    with pytest.raises(ValueError):
        adiabatic_flux(PumpProtocol(1.0, 10.0, lambda x: (0.5, 0.5, 0.0)))


def test_hopping_matrix_spectrum_matches_bands():
    p = RiceMeleParams(0.7, 1.3, 0.4)
    for L in (3, 6):
        lat = make_lattice(L, 2)
        got = np.sort(np.linalg.eigvalsh(rmm_hopping_matrix(p, lat)))
        want = np.sort([e for k in range(L) for e in np.linalg.eigvalsh(rmm_bloch(p, k, L))])
        assert np.abs(got - want).max() < 1e-10


def test_hopping_matrix_dimer_limit():
    p = RiceMeleParams(0.9, 0.0, 0.4)
    lat = make_lattice(4, 2)
    eigs = np.linalg.eigvalsh(rmm_hopping_matrix(p, lat))
    e = np.sqrt(0.4**2 + 0.9**2)
    assert np.allclose(np.sort(eigs), np.sort([-e] * 4 + [e] * 4))


@pytest.mark.parametrize("L", [1, 2, 3, 8])
@pytest.mark.parametrize("blocks", [rmm_cell_blocks((0.7, 1.3, 0.4)), chern_cell_blocks(1.3, 0.8)],
                         ids=["rice-mele", "chern-chain"])
def test_bloch_hamiltonians_are_ring_fourier_sums(blocks, L):
    """h(kappa) = sum_d H[0, d] e^{i kappa d} of the ring, as cell_bloch_blocks reads V."""
    onsite, hop = blocks
    n = len(onsite)
    first_row = _ring_hamiltonian(onsite, hop, L).reshape(L, n, L, n)[0].transpose(1, 0, 2)
    kappas = 2 * np.pi * np.arange(L) / L
    want = np.einsum("kd,dij->kij", np.exp(1j * np.outer(kappas, np.arange(L))), first_row)
    assert np.abs(_bloch_hamiltonians(onsite, hop, kappas) - want).max() <= 1e-14


def test_hopping_matrix_gap_closing_point():
    lat = make_lattice(4, 2)
    eigs = np.linalg.eigvalsh(rmm_hopping_matrix(RiceMeleParams(1, 1, 0), lat))
    assert np.abs(eigs).min() < 1e-12


def test_protocol_validation():
    with pytest.raises(ValueError):
        PumpProtocol(0.0, 10.0)
    with pytest.raises(ValueError):
        PumpProtocol(1.0, -1.0)
    for amplitude, period in ((1.0, np.inf), (1.0, np.nan), (np.inf, 1.0), (np.nan, 1.0)):
        with pytest.raises(ValueError):
            PumpProtocol(amplitude, period)
    with pytest.raises(ValueError):
        PumpProtocol(1.0, 10.0, lambda x: (x, 0.0, 0.0))  # not periodic


def test_pump_polarization_constant_zero():
    """The evolved coherent state keeps P = 0 at every sampled time."""
    protocol = reference(50.0)
    steps = 4800
    traj = evolve_pump(protocol, steps=steps)
    lat = make_lattice(4, 2)
    for i in range(0, steps + 1, steps // 16):
        st = coherent_state(lat, np.tile([traj.alpha[i], traj.beta[i]], 4))
        b = polarization(st)
        assert abs(b.p) < 1e-12
        occ = abs(traj.alpha[i]) ** 2 + abs(traj.beta[i]) ** 2
        assert b.abs_T == pytest.approx(np.exp(-4.0 * occ), rel=1e-10)


def per_cell_ring(onsite, hop, L):
    """Periodic chain assembled one cell at a time."""
    n = len(onsite)
    h = np.zeros((n * L, n * L), dtype=complex)
    for r in range(L):
        sl, rn = slice(n * r, n * r + n), slice(n * ((r + 1) % L), n * ((r + 1) % L) + n)
        h[sl, sl] += onsite
        h[rn, sl] += hop
        h[sl, rn] += hop.conj().T
    return h


@pytest.mark.parametrize("L", [1, 2, 3, 8])
def test_ring_builders_match_per_cell_loop(L):
    lat = make_lattice(L, 2)
    w1, w2, d = 0.7, 1.3, 0.4
    rmm = rmm_hopping_matrix(RiceMeleParams(w1, w2, d), lat)
    assert rmm.dtype == float
    want = per_cell_ring(np.array([[d, w1], [w1, -d]]), np.array([[0.0, w2], [0.0, 0.0]]), L)
    assert np.array_equal(rmm, want)

    sx, sy, sz = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
    ky, mass = 1.3, 0.8
    onsite = np.sin(ky) * sy + (mass + np.cos(ky)) * sz
    want = per_cell_ring(onsite, (sz - 1j * sx) / 2.0, L)
    assert np.array_equal(_ring_hamiltonian(*chern_cell_blocks(ky, mass), L), want)


@pytest.mark.parametrize("L", [1, 2, 3, 8])
def test_stacked_ring_equals_per_block_rings(L):
    """A (3, 4) stack of cell blocks gives the ring of each block, exactly."""
    drive = np.random.default_rng(L).normal(size=(3, 3, 4))
    kys = np.linspace(0.0, 2.0 * np.pi, 12).reshape(3, 4)
    for onsite, hop in (rmm_cell_blocks(drive), chern_cell_blocks(kys, 0.7)):
        rings = _ring_hamiltonian(onsite, hop, L)
        assert rings.shape == (3, 4, 2 * L, 2 * L)
        for i in np.ndindex(3, 4):
            assert np.array_equal(rings[i], _ring_hamiltonian(onsite[i], hop[i], L)), i
            assert np.array_equal(rings[i], per_cell_ring(onsite[i], hop[i], L)), i
